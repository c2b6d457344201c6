//! The logical environment: schemas, collections, bindings, and the
//! ingestion-time flattening of logical values into catalog BATs.
//!
//! Naming convention for flattened BATs (the "mirror" between the logical
//! and physical worlds):
//!
//! | logical thing                          | BAT name                      |
//! |----------------------------------------|-------------------------------|
//! | collection identity (oid → oid)        | `{coll}__self`                |
//! | atomic field `f`                       | `{coll}__{f}`                 |
//! | nested set field `g` (child → parent)  | `{coll}__{g}__map`            |
//! | nested set child attribute `a`         | `{coll}__{g}__{a}`            |
//! | nested set of atoms                    | `{coll}__{g}__elem`           |
//! | list order of `g`                      | `{coll}__{g}__pos`            |
//! | extension field `c`                    | under prefix `{coll}__{c}`    |

use crate::opt::StatsCatalog;
use crate::structure::StructRegistry;
#[cfg(test)]
use crate::types::AtomicType;
use crate::types::MoaType;
use crate::value::MoaVal;
use crate::{MoaError, Result};
use monet::{Bat, Catalog, Column, MonetType, Oid, OpRegistry, Val};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Metadata about a registered collection.
#[derive(Debug, Clone)]
pub struct CollectionMeta {
    /// Collection name.
    pub name: String,
    /// Element type (the `TUPLE<…>` inside the `SET<…>`).
    pub elem_ty: MoaType,
    /// Number of objects.
    pub count: usize,
}

/// The logical environment shared by the compiler, executor and naive
/// interpreter.
pub struct Env {
    catalog: Arc<Catalog>,
    ops: Arc<OpRegistry>,
    structs: Arc<StructRegistry>,
    collections: RwLock<HashMap<String, CollectionMeta>>,
    declared: RwLock<HashMap<String, MoaType>>,
    queries: RwLock<HashMap<String, Vec<(String, f64)>>>,
    raw: RwLock<HashMap<String, Arc<Vec<MoaVal>>>>,
    stats: RwLock<Arc<StatsCatalog>>,
    /// Keep object-at-a-time copies of ingested rows for the naive
    /// interpreter (costs memory; disabled by default).
    pub keep_raw: bool,
}

impl Env {
    /// Create an environment with fresh catalog and registries.
    pub fn new() -> Self {
        Env {
            catalog: Arc::new(Catalog::new()),
            ops: Arc::new(OpRegistry::new()),
            structs: Arc::new(StructRegistry::new()),
            collections: RwLock::new(HashMap::new()),
            declared: RwLock::new(HashMap::new()),
            queries: RwLock::new(HashMap::new()),
            raw: RwLock::new(HashMap::new()),
            stats: RwLock::new(Arc::new(StatsCatalog::new())),
            keep_raw: false,
        }
    }

    /// The current statistics catalog (an immutable snapshot; updated
    /// atomically by ingest).
    pub fn stats(&self) -> Arc<StatsCatalog> {
        Arc::clone(&self.stats.read())
    }

    /// Update the statistics catalog: clone-modify-swap, so concurrent
    /// queries keep reading a consistent snapshot.
    pub fn update_stats(&self, f: impl FnOnce(&mut StatsCatalog)) {
        let mut guard = self.stats.write();
        let mut next = (**guard).clone();
        f(&mut next);
        *guard = Arc::new(next);
    }

    /// The physical catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The physical operator registry.
    pub fn ops(&self) -> &Arc<OpRegistry> {
        &self.ops
    }

    /// The structure registry.
    pub fn structures(&self) -> &Arc<StructRegistry> {
        &self.structs
    }

    /// Declare a schema (`define Name as TYPE;`) without loading data.
    pub fn declare(&self, name: impl Into<String>, ty: MoaType) -> Result<()> {
        let name = name.into();
        match &ty {
            MoaType::Set(elem) if matches!(**elem, MoaType::Tuple(_)) => {
                self.check_ext_params(elem)?;
                self.declared.write().insert(name, ty);
                Ok(())
            }
            other => Err(MoaError::Type(format!("collections must be SET<TUPLE<…>>, got {other}"))),
        }
    }

    /// The declared (or loaded) type of a collection element.
    pub fn elem_type(&self, coll: &str) -> Result<MoaType> {
        if let Some(meta) = self.collections.read().get(coll) {
            return Ok(meta.elem_ty.clone());
        }
        if let Some(ty) = self.declared.read().get(coll) {
            return Ok(ty.elem().expect("declared is SET").clone());
        }
        Err(MoaError::Unknown(format!("collection '{coll}'")))
    }

    /// Collection metadata.
    pub fn collection(&self, name: &str) -> Result<CollectionMeta> {
        self.collections
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| MoaError::Unknown(format!("collection '{name}'")))
    }

    /// All loaded collection names, sorted.
    pub fn collection_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.collections.read().keys().cloned().collect();
        v.sort();
        v
    }

    fn check_ext_params(&self, ty: &MoaType) -> Result<()> {
        match ty {
            MoaType::Ext { name, param } => {
                let s = self.structs.get(name)?;
                s.check_param(param)?;
                Ok(())
            }
            MoaType::Tuple(fs) => {
                for (_, t) in fs {
                    self.check_ext_params(t)?;
                }
                Ok(())
            }
            MoaType::Set(t) | MoaType::List(t) => self.check_ext_params(t),
            MoaType::Atomic(_) => Ok(()),
        }
    }

    /// Bind a weighted query-term variable (the paper's `query`).
    pub fn bind_query(&self, name: impl Into<String>, terms: Vec<(String, f64)>) {
        self.queries.write().insert(name.into(), terms);
    }

    /// Look up a query binding.
    pub fn query_binding(&self, name: &str) -> Option<Vec<(String, f64)>> {
        self.queries.read().get(name).cloned()
    }

    /// Remove a query binding (used by callers that bind per-request
    /// variables to stay safe under concurrency).
    pub fn unbind_query(&self, name: &str) {
        self.queries.write().remove(name);
    }

    /// Bind a query variable for the lifetime of the returned guard: the
    /// binding is removed when the guard drops, so an early return, `?`, or
    /// panic between bind and use can no longer leak it into the shared
    /// environment. Prefer request-scoped [`crate::QueryParams`] (which
    /// never touch the environment at all); the guard exists for callers
    /// that still need an environment binding (e.g. the naive interpreter).
    #[must_use = "dropping the guard immediately unbinds the query"]
    pub fn bind_query_scoped(
        &self,
        name: impl Into<String>,
        terms: Vec<(String, f64)>,
    ) -> QueryBindingGuard<'_> {
        let name = name.into();
        self.bind_query(name.clone(), terms);
        QueryBindingGuard { env: self, name }
    }

    /// Raw rows of a collection (only if `keep_raw` was set at load time).
    pub fn raw_rows(&self, coll: &str) -> Option<Arc<Vec<MoaVal>>> {
        self.raw.read().get(coll).cloned()
    }

    /// Create (or replace) a collection: validate rows against the declared
    /// or supplied `SET<TUPLE<…>>` type and flatten them into the catalog.
    pub fn create_collection(
        &self,
        name: impl Into<String>,
        ty: MoaType,
        rows: Vec<MoaVal>,
    ) -> Result<CollectionMeta> {
        let name = name.into();
        let elem_ty = match &ty {
            MoaType::Set(e) if matches!(**e, MoaType::Tuple(_)) => (**e).clone(),
            other => {
                return Err(MoaError::Type(format!(
                    "collections must be SET<TUPLE<…>>, got {other}"
                )))
            }
        };
        self.check_ext_params(&elem_ty)?;
        for (i, row) in rows.iter().enumerate() {
            if !row.conforms(&elem_ty) {
                return Err(MoaError::Type(format!(
                    "row {i} of '{name}' does not conform to {elem_ty}"
                )));
            }
        }
        // Drop any previous flattening of this collection.
        self.catalog.drop_prefix(&format!("{name}__"));
        let fields = elem_ty.fields().expect("tuple").to_vec();
        self.flatten_tuples(&name, &fields, &rows)?;
        let n = rows.len();
        self.catalog.register(
            format!("{name}__self"),
            Bat::new(Column::void(0, n), Column::void(0, n)).expect("equal lengths"),
        );
        let meta = CollectionMeta { name: name.clone(), elem_ty, count: n };
        self.collections.write().insert(name.clone(), meta.clone());
        self.collect_column_stats(&name);
        if self.keep_raw {
            self.raw.write().insert(name, Arc::new(rows));
        }
        Ok(meta)
    }

    /// Summarise every flattened BAT of a collection into the statistics
    /// catalog (replacing any previous entries for the collection). Runs at
    /// ingest so queries pay nothing; the summaries themselves are
    /// stride-sampled and cheap even for million-row columns.
    fn collect_column_stats(&self, coll: &str) {
        let prefix = format!("{coll}__");
        let summaries: Vec<(String, monet::ColSummary)> = self
            .catalog
            .names()
            .into_iter()
            .filter(|n| n.starts_with(&prefix))
            .filter_map(|n| self.catalog.get(&n).ok().map(|b| (n, monet::summarize(&b))))
            .collect();
        self.update_stats(|stats| {
            stats.drop_prefix(&prefix);
            for (name, summary) in summaries {
                stats.set_column(name, summary);
            }
        });
    }

    /// Flatten rows (each a `MoaVal::Tuple`) under `prefix`.
    fn flatten_tuples(
        &self,
        prefix: &str,
        fields: &[(String, MoaType)],
        rows: &[MoaVal],
    ) -> Result<()> {
        for (fi, (fname, fty)) in fields.iter().enumerate() {
            let field_of = |row: &MoaVal| -> MoaVal {
                match row {
                    MoaVal::Tuple(vs) => vs.get(fi).cloned().unwrap_or(MoaVal::Null),
                    _ => MoaVal::Null,
                }
            };
            match fty {
                MoaType::Atomic(a) => {
                    let vals: Result<Vec<Val>> =
                        rows.iter().map(|r| field_of(r).to_physical(fty)).collect();
                    let col = typed_column(a.physical(), vals?)?;
                    self.catalog.register(format!("{prefix}__{fname}"), Bat::dense(col));
                }
                MoaType::Set(inner) | MoaType::List(inner) => {
                    let is_list = matches!(fty, MoaType::List(_));
                    let mut parents: Vec<Oid> = Vec::new();
                    let mut positions: Vec<i64> = Vec::new();
                    let mut children: Vec<MoaVal> = Vec::new();
                    for (oid, row) in rows.iter().enumerate() {
                        let v = field_of(row);
                        let elems = match &v {
                            MoaVal::Set(e) | MoaVal::List(e) => e.clone(),
                            MoaVal::Null => Vec::new(),
                            other => {
                                return Err(MoaError::Type(format!(
                                    "field '{fname}' expected a set, got {other:?}"
                                )))
                            }
                        };
                        for (pos, e) in elems.into_iter().enumerate() {
                            parents.push(oid as Oid);
                            positions.push(pos as i64);
                            children.push(e);
                        }
                    }
                    let child_prefix = format!("{prefix}__{fname}");
                    self.catalog
                        .register(format!("{child_prefix}__map"), Bat::dense(Column::Oid(parents)));
                    if is_list {
                        self.catalog.register(
                            format!("{child_prefix}__pos"),
                            Bat::dense(Column::Int(positions)),
                        );
                    }
                    match &**inner {
                        MoaType::Tuple(child_fields) => {
                            self.flatten_tuples(&child_prefix, child_fields, &children)?;
                            let m = children.len();
                            self.catalog.register(
                                format!("{child_prefix}__self"),
                                Bat::new(Column::void(0, m), Column::void(0, m))
                                    .expect("equal lengths"),
                            );
                        }
                        MoaType::Atomic(a) => {
                            let vals: Result<Vec<Val>> =
                                children.iter().map(|c| c.to_physical(inner)).collect();
                            let col = typed_column(a.physical(), vals?)?;
                            self.catalog.register(format!("{child_prefix}__elem"), Bat::dense(col));
                        }
                        other => {
                            return Err(MoaError::Unsupported(format!(
                                "nested structure {other} inside a set \
                                 (flatten one level at a time)"
                            )))
                        }
                    }
                }
                MoaType::Tuple(sub) => {
                    // inline tuple: fields share the parent oids
                    let sub_rows: Vec<MoaVal> = rows.iter().map(&field_of).collect();
                    self.flatten_tuples(&format!("{prefix}__{fname}"), sub, &sub_rows)?;
                }
                MoaType::Ext { name: sname, param } => {
                    let s = self.structs.get(sname)?;
                    let payloads: Vec<Option<String>> = rows
                        .iter()
                        .map(|r| match field_of(r) {
                            MoaVal::Str(s) => Some(s),
                            _ => None,
                        })
                        .collect();
                    s.build(&payloads, param, &self.catalog, &format!("{prefix}__{fname}"))?;
                }
            }
        }
        Ok(())
    }
}

impl Default for Env {
    fn default() -> Self {
        Self::new()
    }
}

/// RAII guard for a query binding created by [`Env::bind_query_scoped`];
/// unbinds on drop, including during unwinding.
pub struct QueryBindingGuard<'e> {
    env: &'e Env,
    name: String,
}

impl QueryBindingGuard<'_> {
    /// The bound variable name (splice into the query text).
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl Drop for QueryBindingGuard<'_> {
    fn drop(&mut self) {
        self.env.unbind_query(&self.name);
    }
}

/// Build a column of physical type `ty` from scalar values (handles the
/// empty case, which `Column::from_vals` cannot type).
pub(crate) fn typed_column(ty: MonetType, vals: Vec<Val>) -> Result<Column> {
    if vals.is_empty() {
        return Ok(Column::empty(ty));
    }
    Column::from_vals(&vals).map_err(MoaError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_define;

    fn simple_rows() -> (MoaType, Vec<MoaVal>) {
        let (_, ty) =
            parse_define("define Lib as SET<TUPLE< Atomic<URL>: source, Atomic<int>: size >>;")
                .unwrap();
        let rows = vec![
            MoaVal::Tuple(vec![MoaVal::str("u0"), MoaVal::Int(10)]),
            MoaVal::Tuple(vec![MoaVal::str("u1"), MoaVal::Int(20)]),
        ];
        (ty, rows)
    }

    #[test]
    fn create_collection_registers_bats() {
        let env = Env::new();
        let (ty, rows) = simple_rows();
        let meta = env.create_collection("Lib", ty, rows).unwrap();
        assert_eq!(meta.count, 2);
        let names = env.catalog().names();
        assert!(names.contains(&"Lib__source".to_string()));
        assert!(names.contains(&"Lib__size".to_string()));
        assert!(names.contains(&"Lib__self".to_string()));
        let sizes = env.catalog().get("Lib__size").unwrap();
        assert_eq!(sizes.tail().int_slice().unwrap(), &[10, 20]);
    }

    #[test]
    fn create_collection_rejects_bad_rows() {
        let env = Env::new();
        let (ty, _) = simple_rows();
        let bad = vec![MoaVal::Tuple(vec![MoaVal::Int(5), MoaVal::Int(10)])];
        assert!(matches!(env.create_collection("Lib", ty, bad), Err(MoaError::Type(_))));
    }

    #[test]
    fn create_collection_rejects_non_set_of_tuple() {
        let env = Env::new();
        let ty = MoaType::Set(Box::new(MoaType::Atomic(AtomicType::Int)));
        assert!(env.create_collection("X", ty, vec![]).is_err());
    }

    #[test]
    fn nested_set_flattens_to_map_and_child_bats() {
        let env = Env::new();
        let (_, ty) = parse_define(
            "define L as SET<TUPLE<
               Atomic<URL>: source,
               SET<TUPLE<Atomic<str>: tag, Atomic<float>: w>>: tags >>;",
        )
        .unwrap();
        let rows = vec![
            MoaVal::Tuple(vec![
                MoaVal::str("u0"),
                MoaVal::Set(vec![
                    MoaVal::Tuple(vec![MoaVal::str("red"), MoaVal::Float(0.9)]),
                    MoaVal::Tuple(vec![MoaVal::str("sky"), MoaVal::Float(0.5)]),
                ]),
            ]),
            MoaVal::Tuple(vec![
                MoaVal::str("u1"),
                MoaVal::Set(vec![MoaVal::Tuple(vec![MoaVal::str("sea"), MoaVal::Float(0.7)])]),
            ]),
        ];
        env.create_collection("L", ty, rows).unwrap();
        let map = env.catalog().get("L__tags__map").unwrap();
        // three children: two for parent 0, one for parent 1
        assert_eq!(map.count(), 3);
        assert_eq!(map.fetch(2).unwrap().1, Val::Oid(1));
        let tags = env.catalog().get("L__tags__tag").unwrap();
        assert_eq!(tags.fetch(0).unwrap().1, Val::from("red"));
        let w = env.catalog().get("L__tags__w").unwrap();
        assert_eq!(w.fetch(2).unwrap().1, Val::Float(0.7));
    }

    #[test]
    fn list_field_records_positions() {
        let env = Env::new();
        let (_, ty) = parse_define("define L as SET<TUPLE< LIST<Atomic<int>>: xs >>;").unwrap();
        let rows = vec![MoaVal::Tuple(vec![MoaVal::List(vec![MoaVal::Int(7), MoaVal::Int(8)])])];
        env.create_collection("L", ty, rows).unwrap();
        let pos = env.catalog().get("L__xs__pos").unwrap();
        assert_eq!(pos.tail().int_slice().unwrap(), &[0, 1]);
        let elems = env.catalog().get("L__xs__elem").unwrap();
        assert_eq!(elems.tail().int_slice().unwrap(), &[7, 8]);
    }

    #[test]
    fn declare_then_query_type() {
        let env = Env::new();
        let (name, ty) =
            parse_define("define Lib as SET<TUPLE< Atomic<URL>: source, Atomic<int>: size >>;")
                .unwrap();
        env.declare(name, ty).unwrap();
        let elem = env.elem_type("Lib").unwrap();
        assert!(elem.field("size").is_some());
        assert!(env.elem_type("Nope").is_err());
    }

    #[test]
    fn unknown_extension_structure_is_rejected() {
        let env = Env::new();
        let (_, ty) =
            parse_define("define Lib as SET<TUPLE< CONTREP<Text>: annotation >>;").unwrap();
        // CONTREP not registered in a bare Env
        assert!(matches!(env.create_collection("Lib", ty, vec![]), Err(MoaError::Unknown(_))));
    }

    #[test]
    fn query_bindings() {
        let env = Env::new();
        env.bind_query("query", vec![("sunset".into(), 1.0)]);
        assert_eq!(env.query_binding("query").unwrap()[0].0, "sunset");
        assert!(env.query_binding("other").is_none());
    }

    #[test]
    fn scoped_binding_unbinds_on_drop() {
        let env = Env::new();
        {
            let guard = env.bind_query_scoped("q0", vec![("sunset".into(), 1.0)]);
            assert_eq!(guard.name(), "q0");
            assert!(env.query_binding("q0").is_some());
        }
        assert!(env.query_binding("q0").is_none());
    }

    #[test]
    fn scoped_binding_survives_panics() {
        let env = Env::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = env.bind_query_scoped("qp", vec![("sunset".into(), 1.0)]);
            assert!(env.query_binding("qp").is_some());
            panic!("executor error mid-query");
        }));
        assert!(result.is_err());
        assert!(env.query_binding("qp").is_none(), "panic leaked the binding");
    }

    #[test]
    fn keep_raw_stores_rows() {
        let mut env = Env::new();
        env.keep_raw = true;
        let (ty, rows) = simple_rows();
        env.create_collection("Lib", ty, rows).unwrap();
        assert_eq!(env.raw_rows("Lib").unwrap().len(), 2);
    }

    #[test]
    fn reingest_replaces_collection() {
        let env = Env::new();
        let (ty, rows) = simple_rows();
        env.create_collection("Lib", ty.clone(), rows).unwrap();
        env.create_collection(
            "Lib",
            ty,
            vec![MoaVal::Tuple(vec![MoaVal::str("u9"), MoaVal::Int(9)])],
        )
        .unwrap();
        assert_eq!(env.collection("Lib").unwrap().count, 1);
        assert_eq!(env.catalog().get("Lib__size").unwrap().count(), 1);
    }
}
