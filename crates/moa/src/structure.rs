//! Structural extensibility — the open complex-object system.
//!
//! Moa is "more than just an implementation of NF² algebra": new structures
//! can be registered at run time, with three responsibilities:
//!
//! 1. **typing** — validate their parameter type;
//! 2. **flattening** — decompose a column of raw payloads into the
//!    structure's physical representation: BATs in the kernel catalog, or
//!    a structure-owned index that its own physical operators read (those
//!    operators are registered once, with the structure, not per build);
//! 3. **compilation** — translate method calls appearing in Moa
//!    expressions (the paper's `getBL`) into physical plans.
//!
//! The kernel of Moa ships `TUPLE`, `SET` and `LIST`; the IR crate
//! registers `CONTREP` through this exact interface, and tests register toy
//! structures to prove the seam carries no IR-specific assumptions.

use crate::types::MoaType;
use crate::{MoaError, Result};
use monet::{Catalog, Oid, Plan, Val};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Arguments handed to a structure method compilation.
#[derive(Default)]
pub struct CallArgs<'a> {
    /// Weighted query terms, when a bound query variable was passed.
    pub query: Option<&'a [(String, f64)]>,
    /// Name of the statistics binding, when passed (`stats`).
    pub stats: Option<&'a str>,
    /// Optional domain restriction: a plan producing `[oid, oid]` for the
    /// surviving parent objects. Structures should exploit it (e.g. rank
    /// only surviving documents) — this is what selection pushdown buys.
    pub domain: Option<&'a Plan>,
    /// Additional scalar arguments.
    pub extra: Vec<Val>,
}

/// A registered Moa structure.
pub trait Structure: Send + Sync {
    /// The structure's name as written in schemas (`CONTREP`).
    fn name(&self) -> &str;

    /// Validate the parameter type (`CONTREP<Text>` accepts `Text`).
    fn check_param(&self, param: &MoaType) -> Result<()>;

    /// Flatten a column of raw payloads (one `Option<String>` per object,
    /// `None` = absent) under `prefix`: into BATs registered in `catalog`
    /// (as the toy `LENREP` of the tests does), or into a structure-owned
    /// representation (as `CONTREP` builds its compressed index). `param`
    /// is the structure's type parameter, letting one structure support
    /// several payload interpretations (e.g. `CONTREP<Text>` vs
    /// `CONTREP<Image>`). Physical operators a structure needs are
    /// registered alongside the structure itself, not here.
    fn build(
        &self,
        values: &[Option<String>],
        param: &MoaType,
        catalog: &Catalog,
        prefix: &str,
    ) -> Result<()>;

    /// Compile `method` over the flattened representation at `prefix` into
    /// a physical plan producing `[parent_oid, value]`.
    fn compile_call(&self, method: &str, prefix: &str, args: &CallArgs<'_>) -> Result<Plan>;

    /// The logical type of one element of `method`'s result set (e.g.
    /// `getBL` yields `SET<Atomic<float>>` per object, so this returns
    /// `Atomic<float>`).
    fn method_result_elem(&self, method: &str) -> Result<MoaType>;

    /// Object-at-a-time evaluation of `method` for a single object — the
    /// baseline execution model. Returns the member values of the result
    /// set for that object. Used by [`crate::naive::NaiveEngine`] only.
    fn eval_object(
        &self,
        prefix: &str,
        oid: Oid,
        method: &str,
        args: &CallArgs<'_>,
    ) -> Result<Vec<f64>>;
}

/// A thread-safe registry of structures.
#[derive(Default)]
pub struct StructRegistry {
    map: RwLock<HashMap<String, Arc<dyn Structure>>>,
}

impl StructRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a structure under its own name.
    pub fn register(&self, s: Arc<dyn Structure>) {
        self.map.write().insert(s.name().to_string(), s);
    }

    /// Look up a structure.
    pub fn get(&self, name: &str) -> Result<Arc<dyn Structure>> {
        self.map
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| MoaError::Unknown(format!("structure '{name}'")))
    }

    /// True if `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.map.read().contains_key(name)
    }

    /// Registered structure names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.map.read().keys().cloned().collect();
        v.sort();
        v
    }
}

impl std::fmt::Debug for StructRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StructRegistry").field("structures", &self.names()).finish()
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! A toy extension structure used by unit tests across the crate: it
    //! stores, per object, the *length in characters* of the payload, and
    //! exposes one method `getLen` returning a singleton set with that
    //! length. It proves that nothing in the compiler is CONTREP-specific.

    use super::*;
    use monet::{Bat, Column};

    /// Toy structure `LENREP<Text>`.
    pub struct LenRep;

    impl Structure for LenRep {
        fn name(&self) -> &str {
            "LENREP"
        }

        fn check_param(&self, param: &MoaType) -> Result<()> {
            if matches!(param, MoaType::Atomic(_)) {
                Ok(())
            } else {
                Err(MoaError::Type("LENREP needs an atomic parameter".into()))
            }
        }

        fn build(
            &self,
            values: &[Option<String>],
            _param: &MoaType,
            catalog: &Catalog,
            prefix: &str,
        ) -> Result<()> {
            let lens: Vec<i64> = values
                .iter()
                .map(|v| v.as_deref().map_or(0, |s| s.chars().count() as i64))
                .collect();
            catalog.register(format!("{prefix}__len"), Bat::dense(Column::Int(lens)));
            Ok(())
        }

        fn compile_call(&self, method: &str, prefix: &str, args: &CallArgs<'_>) -> Result<Plan> {
            if method != "getLen" {
                return Err(MoaError::Unknown(format!("LENREP method '{method}'")));
            }
            let load = Plan::load(format!("{prefix}__len"));
            Ok(match args.domain {
                Some(d) => Plan::Semijoin { left: Box::new(load), right: Box::new(d.clone()) },
                None => load,
            })
        }

        fn method_result_elem(&self, method: &str) -> Result<MoaType> {
            if method == "getLen" {
                Ok(MoaType::Atomic(crate::types::AtomicType::Int))
            } else {
                Err(MoaError::Unknown(format!("LENREP method '{method}'")))
            }
        }

        fn eval_object(
            &self,
            _prefix: &str,
            _oid: Oid,
            _method: &str,
            _args: &CallArgs<'_>,
        ) -> Result<Vec<f64>> {
            Err(MoaError::Unsupported("LENREP naive evaluation".into()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::LenRep;
    use super::*;
    use crate::types::AtomicType;

    #[test]
    fn registry_roundtrip() {
        let reg = StructRegistry::new();
        assert!(!reg.contains("LENREP"));
        reg.register(Arc::new(LenRep));
        assert!(reg.contains("LENREP"));
        assert_eq!(reg.names(), vec!["LENREP".to_string()]);
        let s = reg.get("LENREP").unwrap();
        assert!(s.check_param(&MoaType::Atomic(AtomicType::Text)).is_ok());
        assert!(s.check_param(&MoaType::Set(Box::new(MoaType::Atomic(AtomicType::Int)))).is_err());
    }

    #[test]
    fn unknown_structure_errors() {
        let reg = StructRegistry::new();
        assert!(matches!(reg.get("CONTREP"), Err(MoaError::Unknown(_))));
    }

    #[test]
    fn toy_structure_builds_bats() {
        let reg = StructRegistry::new();
        reg.register(Arc::new(LenRep));
        let cat = Catalog::new();
        let s = reg.get("LENREP").unwrap();
        s.build(
            &[Some("abc".into()), None, Some("hello".into())],
            &MoaType::Atomic(AtomicType::Text),
            &cat,
            "C__notes",
        )
        .unwrap();
        let b = cat.get("C__notes__len").unwrap();
        assert_eq!(b.tail().int_slice().unwrap(), &[3, 0, 5]);
    }
}
