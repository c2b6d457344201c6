//! # moa — the Moa object algebra
//!
//! Moa \[BWK98\] is the *logical* layer of the Mirror DBMS: an object data
//! model and query algebra built on **structural object-orientation**.
//! Structures — `TUPLE`, `SET`, `LIST`, and registered extensions such as
//! the IR crate's `CONTREP` — compose complex types out of the base types
//! inherited from the physical kernel (crate `mirror-monet`). The resulting
//! data model is NF², but *open*: new structures register themselves in a
//! [`structure::StructRegistry`] exactly like base-type extensibility in
//! object-relational systems.
//!
//! Data independence is realised by **flattening**: every logical
//! collection decomposes into binary associations (BATs) in the kernel
//! catalog, and every Moa expression compiles to a set-at-a-time BAT-algebra
//! plan ([`monet::Plan`]). This module provides:
//!
//! * the structure type system ([`types`]) and logical values ([`value`]);
//! * a parser ([`parser`]) for the paper's surface syntax
//!   (`define … as SET<TUPLE<…>>;`, `map[sum(THIS)](map[getBL(…)](Lib))`);
//! * the flattening compiler ([`flatten`]) from expressions to plans;
//! * the optimiser switches and logical selection pushdown ([`rewrite`]),
//!   and the optimizer ([`opt`]): one fixed cascade of statistics-driven
//!   plan rewrites and top-k fusion, with cardinality estimates;
//! * the execution facade ([`exec::MoaEngine`]).
//!
//! Every query runs set-at-a-time through that one compiler. The
//! object-at-a-time interpretation that flattening replaces \[BWK98\]
//! lives only in the integration tests, as the oracle the flattened plans
//! are held to.

#![warn(missing_docs)]

pub mod env;
pub mod exec;
pub mod expr;
pub mod flatten;
pub mod opt;
pub mod params;
pub mod parser;
pub mod rewrite;
pub mod structure;
pub mod types;
pub mod value;

pub use env::Env;
pub use exec::{MoaEngine, QueryOutput};
pub use expr::{CmpOp, Expr};
pub use flatten::Rep;
pub use opt::{estimate, PassCtx, Pipeline, PlanHints, StatsCatalog};
pub use params::QueryParams;
pub use parser::{parse_define, parse_expr, parse_type};
pub use rewrite::OptConfig;
pub use structure::{CallArgs, StructRegistry, Structure};
pub use types::{AtomicType, MoaType};
pub use value::MoaVal;

/// Errors raised by the logical layer.
#[derive(Debug, Clone, PartialEq)]
pub enum MoaError {
    /// Syntax error while parsing a definition or query.
    Parse(String),
    /// The expression or schema does not type-check.
    Type(String),
    /// A name (collection, binding, structure, field) is unknown.
    Unknown(String),
    /// The expression shape is not supported by the compiler.
    Unsupported(String),
    /// An error bubbled up from the physical kernel.
    Physical(monet::MonetError),
}

impl std::fmt::Display for MoaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MoaError::Parse(m) => write!(f, "parse error: {m}"),
            MoaError::Type(m) => write!(f, "type error: {m}"),
            MoaError::Unknown(m) => write!(f, "unknown name: {m}"),
            MoaError::Unsupported(m) => write!(f, "unsupported expression: {m}"),
            MoaError::Physical(e) => write!(f, "physical error: {e}"),
        }
    }
}

impl std::error::Error for MoaError {}

impl From<monet::MonetError> for MoaError {
    fn from(e: monet::MonetError) -> Self {
        MoaError::Physical(e)
    }
}

/// Result alias for the logical layer.
pub type Result<T> = std::result::Result<T, MoaError>;
