//! # monet — a binary-relational (BAT) kernel
//!
//! This crate reimplements, from scratch in Rust, the physical database
//! layer that the Mirror MMDBMS (de Vries et al., VLDB 1999) inherited from
//! the Monet extensible database system: a *binary-relational* data model in
//! which every piece of data lives in a **Binary Association Table** (BAT),
//! a two-column table of `[head, tail]` associations.
//!
//! The kernel provides:
//!
//! * typed columns ([`Column`]) over object identifiers, integers, floats
//!   and dictionary-encoded strings, including the *void* (virtual oid)
//!   column that makes dense-headed BATs free to represent;
//! * the classic BAT algebra ([`Bat`]): `select`, `join` (hash, merge and
//!   positional *fetch* variants), `semijoin`, `reverse`, `mirror`, `mark`,
//!   `group`, `unique`, grouped and scalar aggregates, `sort`, `slice`,
//!   top-N and the key-based set operations `kunion`/`kdiff`/`kintersect`;
//! * a named-BAT catalog ([`catalog::Catalog`]), the equivalent of Monet's
//!   BAT buffer pool;
//! * a physical query plan representation ([`plan::Plan`]) with an
//!   interpreting executor that records per-operator statistics and
//!   supports common-subexpression memoisation;
//! * an extension registry ([`ext::OpRegistry`]) through which higher
//!   layers register new *physical operators* — exactly how the Mirror
//!   paper's probabilistic `getBL` operator is added without the kernel
//!   knowing anything about information retrieval;
//! * horizontal fragmentation and data-parallel operator execution
//!   ([`fragment`]): `select`, `join` (probe side), aggregates and
//!   projection split into oid-range fragments that run on scoped threads
//!   and merge value-identically to the serial path — the
//!   [`ParallelExecutor`] scales whole plans across cores;
//! * a durable storage tier ([`storage`]): checksummed 4 KiB columnar
//!   pages behind a clock-eviction buffer pool, a write-ahead log with
//!   recovery-on-open, shadow-generation checkpoints, and a
//!   [`StorageBackend`] trait with disk, in-memory and fault-injecting
//!   implementations so crash consistency is a tested property.
//!
//! Set-at-a-time execution over these operators is what the paper calls
//! "design for scalability"; the Moa layer (crate `mirror-moa`) flattens
//! logical object-algebra expressions into [`plan::Plan`]s over this
//! kernel.

#![warn(missing_docs)]

pub mod aggr;
pub mod bat;
pub mod catalog;
pub mod column;
pub mod error;
pub mod ext;
pub mod fragment;
pub mod fxhash;
pub mod group;
pub mod join;
pub mod plan;
pub mod props;
pub mod select;
pub mod setops;
pub mod sort;
pub mod storage;
pub mod strdict;
pub mod value;

pub use aggr::Agg;
pub use bat::Bat;
pub use catalog::Catalog;
pub use column::Column;
pub use error::{MonetError, Result};
pub use ext::{OpCtx, OpRegistry, RequestView};
pub use fragment::ParallelExecutor;
pub use plan::{ArithOp, ExecStats, Executor, NodeTrace, Plan, Pred};
pub use props::{summarize, ColSummary, Props};
pub use storage::{
    BufferPool, DiskFs, FaultFs, FaultPlan, MemFs, RecoveryReport, StorageBackend, Store,
    StoreOptions,
};
pub use strdict::{DictColumn, PackedCodes, StrDict};
pub use value::{MonetType, Oid, Val};
