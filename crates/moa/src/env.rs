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

/// The logical environment shared by the compiler and the executor. It
/// keeps no logical rows: a loaded collection exists only in its flattened
/// form.
pub struct Env {
    catalog: Arc<Catalog>,
    ops: Arc<OpRegistry>,
    structs: Arc<StructRegistry>,
    collections: RwLock<HashMap<String, CollectionMeta>>,
    queries: RwLock<HashMap<String, Vec<(String, f64)>>>,
    stats: RwLock<Arc<StatsCatalog>>,
}

impl Env {
    /// Create an environment with fresh catalog and registries.
    pub fn new() -> Self {
        Env {
            catalog: Arc::new(Catalog::new()),
            ops: Arc::new(OpRegistry::new()),
            structs: Arc::new(StructRegistry::new()),
            collections: RwLock::new(HashMap::new()),
            queries: RwLock::new(HashMap::new()),
            stats: RwLock::new(Arc::new(StatsCatalog::new())),
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

    /// The type of a loaded collection's element.
    pub fn elem_type(&self, coll: &str) -> Result<MoaType> {
        match self.collections.read().get(coll) {
            Some(meta) => Ok(meta.elem_ty.clone()),
            None => Err(MoaError::Unknown(format!("collection '{coll}'"))),
        }
    }

    /// Collection metadata.
    pub fn collection(&self, name: &str) -> Result<CollectionMeta> {
        self.collections
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| MoaError::Unknown(format!("collection '{name}'")))
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

    /// Create (or replace) a collection: validate rows against the declared
    /// or supplied `SET<TUPLE<…>>` type and flatten them into the catalog.
    pub fn create_collection(
        &self,
        name: impl Into<String>,
        ty: MoaType,
        rows: Vec<MoaVal>,
    ) -> Result<CollectionMeta> {
        let name = name.into();
        let elem_ty = Self::elem_of(&ty)?;
        for (i, row) in rows.iter().enumerate() {
            if !row.conforms(elem_ty) {
                return Err(MoaError::Type(format!(
                    "row {i} of '{name}' does not conform to {elem_ty}"
                )));
            }
        }
        let fields = elem_ty.fields().expect("tuple").to_vec();
        self.register_collection(&name, ty, rows.len(), |_| {
            self.flatten_tuples(&name, &fields, &rows.iter().collect::<Vec<_>>())
        })
    }

    /// Register (or replace) a collection of `count` objects whose
    /// flattened form `install` puts in place (BATs under `{name}__`,
    /// structure stores): drops the old flattening, then adds `{name}__self`,
    /// metadata and column statistics. [`Env::create_collection`] shares it.
    pub fn register_collection(
        &self,
        name: &str,
        ty: MoaType,
        count: usize,
        install: impl FnOnce(&Catalog) -> Result<()>,
    ) -> Result<CollectionMeta> {
        let elem_ty = Self::elem_of(&ty)?.clone();
        self.check_ext_params(&elem_ty)?;
        self.catalog.drop_prefix(&format!("{name}__"));
        install(&self.catalog)?;
        self.catalog.register(
            format!("{name}__self"),
            Bat::new(Column::void(0, count), Column::void(0, count)).expect("equal lengths"),
        );
        let meta = CollectionMeta { name: name.to_string(), elem_ty, count };
        self.collections.write().insert(name.to_string(), meta.clone());
        self.collect_column_stats(name);
        Ok(meta)
    }

    /// The element type of a `SET<TUPLE<…>>`.
    fn elem_of(ty: &MoaType) -> Result<&MoaType> {
        match ty {
            MoaType::Set(e) if matches!(**e, MoaType::Tuple(_)) => Ok(e),
            other => Err(MoaError::Type(format!("collections must be SET<TUPLE<…>>, got {other}"))),
        }
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

    /// Flatten rows (each a `MoaVal::Tuple`) under `prefix`, borrowing
    /// every field: only atomic values are copied, into their BATs.
    fn flatten_tuples<'r>(
        &self,
        prefix: &str,
        fields: &[(String, MoaType)],
        rows: &[&'r MoaVal],
    ) -> Result<()> {
        for (fi, (fname, fty)) in fields.iter().enumerate() {
            let field_of = |row: &'r MoaVal| -> &'r MoaVal {
                match row {
                    MoaVal::Tuple(vs) => vs.get(fi).unwrap_or(&MoaVal::Null),
                    _ => &MoaVal::Null,
                }
            };
            match fty {
                MoaType::Atomic(a) => {
                    let vals: Result<Vec<Val>> =
                        rows.iter().map(|&r| field_of(r).to_physical(fty)).collect();
                    let col = typed_column(a.physical(), vals?)?;
                    self.catalog.register(format!("{prefix}__{fname}"), Bat::dense(col));
                }
                MoaType::Set(inner) | MoaType::List(inner) => {
                    let is_list = matches!(fty, MoaType::List(_));
                    let mut parents: Vec<Oid> = Vec::new();
                    let mut positions: Vec<i64> = Vec::new();
                    let mut children: Vec<&MoaVal> = Vec::new();
                    for (oid, &row) in rows.iter().enumerate() {
                        let elems: &[MoaVal] = match field_of(row) {
                            MoaVal::Set(e) | MoaVal::List(e) => e,
                            MoaVal::Null => &[],
                            other => {
                                return Err(MoaError::Type(format!(
                                    "field '{fname}' expected a set, got {other:?}"
                                )))
                            }
                        };
                        for (pos, e) in elems.iter().enumerate() {
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
                    let sub_rows: Vec<&MoaVal> = rows.iter().map(|&r| field_of(r)).collect();
                    self.flatten_tuples(&format!("{prefix}__{fname}"), sub, &sub_rows)?;
                }
                MoaType::Ext { name: sname, param } => {
                    let s = self.structs.get(sname)?;
                    let payloads: Vec<Option<&str>> =
                        rows.iter().map(|&r| field_of(r).as_str()).collect();
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
    use crate::types::AtomicType;

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
        let rows = vec![MoaVal::Tuple(vec![MoaVal::Str("u".into()), MoaVal::Int(3)])];
        env.create_collection(name, ty, rows).unwrap();
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
