//! Physical-operator extensibility.
//!
//! The Mirror paper's key systems claim is that new *domain-specific*
//! operators (the probabilistic `getBL` of the inference network retrieval
//! model) can be added **at the physical level** without modifying the
//! kernel. This module is that seam: higher layers register named operator
//! implementations; plans invoke them through [`crate::plan::Plan::Custom`].

use crate::bat::Bat;
use crate::catalog::Catalog;
use crate::error::{MonetError, Result};
use crate::fxhash::FxHashMap;
use crate::value::Val;
use parking_lot::{Mutex, RwLock};
use std::any::Any;
use std::sync::Arc;

/// A request's pinned view of the data a plan reads, opaque to the
/// kernel: loads ask it before the catalog, and custom operators downcast
/// it (`view as &dyn Any`) to the type their layer defines.
pub trait RequestView: Any + Send + Sync + std::fmt::Debug {
    /// The BAT supplied under `name` in place of the catalog's, if any.
    fn bat(&self, name: &str) -> Option<Arc<Bat>>;
}

/// Execution context handed to custom operators: access to the catalog so
/// operators can consult auxiliary BATs (statistics, dictionaries), the
/// request's [`RequestView`], the executor's fragment-parallel degree (so
/// operators can parallelise their own work the same way the built-in
/// operators do), and a note channel that surfaces operator-specific
/// diagnostics in EXPLAIN output.
pub struct OpCtx<'a> {
    /// The catalog of named BATs.
    pub catalog: &'a Catalog,
    /// The request's pinned view, if the caller supplied one.
    pub view: Option<&'a dyn RequestView>,
    /// Fragment-parallel degree the executor runs at (1 = serial). Custom
    /// operators may split their own work into that many spans.
    pub degree: usize,
    /// The executor's row threshold below which operators stay serial
    /// ([`crate::Executor::min_fragment_rows`]); custom operators should
    /// honour it like the built-in operators do.
    pub min_fragment_rows: usize,
    note: Mutex<Option<String>>,
}

impl<'a> OpCtx<'a> {
    /// Create a context over a catalog with an explicit parallel degree
    /// and the default serial-fallback threshold.
    pub fn new(catalog: &'a Catalog, degree: usize) -> Self {
        OpCtx {
            catalog,
            view: None,
            degree,
            min_fragment_rows: crate::fragment::DEFAULT_MIN_FRAGMENT_ROWS,
            note: Mutex::new(None),
        }
    }

    /// The degree an operator over `rows` input rows should fragment at:
    /// the configured degree when the input reaches the threshold, serial
    /// otherwise — the same policy the built-in operators apply.
    pub fn frag_degree(&self, rows: usize) -> usize {
        if self.degree > 1 && rows >= self.min_fragment_rows.max(2) {
            self.degree
        } else {
            1
        }
    }

    /// Attach a diagnostic note to this invocation; the executor records it
    /// in the node trace and [`crate::Executor::explain`] renders it next
    /// to the operator (e.g. `topk ×10 (pruned 840 ranges)`).
    pub fn set_note(&self, note: impl Into<String>) {
        *self.note.lock() = Some(note.into());
    }

    /// Take the note left by the operator, if any (used by the executor).
    pub fn take_note(&self) -> Option<String> {
        self.note.lock().take()
    }
}

/// Signature of a custom physical operator: BAT inputs (already evaluated)
/// plus scalar parameters, producing one BAT.
pub type CustomOp = dyn Fn(&OpCtx<'_>, &[Arc<Bat>], &[Val]) -> Result<Bat> + Send + Sync + 'static;

/// A thread-safe registry of custom physical operators.
#[derive(Default)]
pub struct OpRegistry {
    ops: RwLock<FxHashMap<String, Arc<CustomOp>>>,
}

impl OpRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register operator `name`. Re-registration replaces the previous
    /// implementation (useful in tests).
    pub fn register<F>(&self, name: impl Into<String>, f: F)
    where
        F: Fn(&OpCtx<'_>, &[Arc<Bat>], &[Val]) -> Result<Bat> + Send + Sync + 'static,
    {
        self.ops.write().insert(name.into(), Arc::new(f));
    }

    /// Look up an operator.
    pub fn get(&self, name: &str) -> Result<Arc<CustomOp>> {
        self.ops.read().get(name).cloned().ok_or_else(|| MonetError::UnknownOp(name.to_string()))
    }

    /// True if `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.ops.read().contains_key(name)
    }

    /// Registered operator names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.ops.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Invoke operator `name` directly (outside a plan).
    pub fn invoke(
        &self,
        name: &str,
        ctx: &OpCtx<'_>,
        inputs: &[Arc<Bat>],
        params: &[Val],
    ) -> Result<Bat> {
        let op = self.get(name)?;
        op(ctx, inputs, params)
    }
}

impl std::fmt::Debug for OpRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpRegistry").field("ops", &self.names()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bat::bat_of_ints;
    use crate::column::Column;

    #[test]
    fn register_and_invoke() {
        let reg = OpRegistry::new();
        let cat = Catalog::new();
        reg.register("double", |_ctx, inputs, _params| {
            let input = &inputs[0];
            let vals = input.tail().int_slice()?;
            Ok(Bat::dense(Column::Int(vals.iter().map(|v| v * 2).collect())))
        });
        assert!(reg.contains("double"));
        let out = reg
            .invoke("double", &OpCtx::new(&cat, 1), &[Arc::new(bat_of_ints(vec![1, 2]))], &[])
            .unwrap();
        assert_eq!(out.tail().int_slice().unwrap(), &[2, 4]);
    }

    #[test]
    fn unknown_op_errors() {
        let reg = OpRegistry::new();
        let cat = Catalog::new();
        let err = reg.invoke("nope", &OpCtx::new(&cat, 1), &[], &[]);
        assert!(matches!(err, Err(MonetError::UnknownOp(_))));
    }

    #[test]
    fn operators_can_read_the_catalog() {
        let reg = OpRegistry::new();
        let cat = Catalog::new();
        cat.register("stats", bat_of_ints(vec![100]));
        reg.register("scaled", |ctx, _inputs, _params| {
            let stats = ctx.catalog.get("stats")?;
            let n = stats.tail().int_slice()?[0];
            Ok(bat_of_ints(vec![n * 3]))
        });
        let out = reg.invoke("scaled", &OpCtx::new(&cat, 1), &[], &[]).unwrap();
        assert_eq!(out.tail().int_slice().unwrap(), &[300]);
    }

    #[test]
    fn params_are_passed_through() {
        let reg = OpRegistry::new();
        let cat = Catalog::new();
        reg.register("fill", |_ctx, _inputs, params| {
            let n = params[0].as_int().ok_or_else(|| MonetError::BadOpInvocation {
                op: "fill".into(),
                msg: "need int".into(),
            })?;
            Ok(bat_of_ints(vec![7; n as usize]))
        });
        let out = reg.invoke("fill", &OpCtx::new(&cat, 1), &[], &[Val::Int(3)]).unwrap();
        assert_eq!(out.count(), 3);
    }
}
