//! CONTREP — the content-representation structure.
//!
//! `CONTREP<T>` is the paper's showcase of Moa's structural extensibility:
//! a domain-specific structure that stores an inference-network content
//! representation and exposes the probabilistic `getBL` (get belief list)
//! method, *"supported by new probabilistic operators at the physical
//! level"*. Concretely:
//!
//! * **flattening** — building a collection with a `CONTREP` attribute
//!   tokenises the payloads (`CONTREP<Text>` stems natural language; any
//!   other parameter keeps raw whitespace-separated tokens, which is how
//!   `CONTREP<Image>` holds AutoClass cluster names like `gabor_21`),
//!   constructs a block-compressed [`InvertedIndex`] and parks it in a
//!   shared [`ContrepStore`] — the attribute's one physical representation
//!   (it leaves no BATs in the catalog);
//! * **compilation** — `getBL(THIS.attr, query, stats)` compiles to the
//!   custom kernel operator `contrep.getbl`, with the enclosing domain
//!   restriction passed through so ranking composes with relational
//!   selection;
//! * **semantics** — the operator emits, per qualifying document, one
//!   belief row per matching query term (weight-normalised) plus one
//!   default-belief row covering the query terms the document misses, so
//!   that the paper's `map[sum(THIS)](map[getBL(…)](C))` computes exactly
//!   the inference network's `#wsum` belief.

use crate::belief::BeliefParams;
use crate::docset::DocSet;
use crate::index::InvertedIndex;
use crate::topk::TopKOutcome;
use crate::view::{CorpusView, ViewChannel, ViewPart};
use moa::{CallArgs, MoaError, MoaType, Structure};
use monet::{Bat, Catalog, Column, MonetError, Oid, OpCtx, OpRegistry, Plan, Val};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Name of the physical belief-list operator registered in the kernel.
pub const GETBL_OP: &str = "contrep.getbl";

/// Name of the fused top-k belief operator (`topk_bl`): `getBL` + grouped
/// sum + rank — over one channel, or over a weighted sum of several
/// channels' sums (dual coding) — collapsed into one streaming operator
/// with block-max pruning ([`crate::topk::topk_channels`]). The name
/// follows the kernel's fusion convention — `<op>.topk` — which the Moa
/// optimizer's `topk_fuse` rewrite ([`moa::opt`]) uses to find a fused
/// counterpart for a top-k budget; its parameter layout is
/// [`moa::opt::topk_params`].
pub const TOPK_BL_OP: &str = "contrep.getbl.topk";

/// Shared store of built content representations, keyed by attribute
/// prefix (`{collection}__{attribute}`).
///
/// Each index is the only physical form of its `CONTREP` attribute: the
/// belief operators read it directly. Durable saves store the library
/// rows, not the index; `open` rebuilds it from them.
#[derive(Default)]
pub struct ContrepStore {
    map: RwLock<HashMap<String, Arc<InvertedIndex>>>,
}

impl ContrepStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install an index under a prefix.
    pub fn insert(&self, prefix: impl Into<String>, index: InvertedIndex) {
        self.map.write().insert(prefix.into(), Arc::new(index));
    }

    /// Fetch the index for a prefix.
    pub fn get(&self, prefix: &str) -> Option<Arc<InvertedIndex>> {
        self.map.read().get(prefix).cloned()
    }

    /// All registered prefixes, sorted.
    pub fn prefixes(&self) -> Vec<String> {
        let mut v: Vec<String> = self.map.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// The belief parameters used by `getBL`: InQuery's defaults.
    pub fn params(&self) -> BeliefParams {
        BeliefParams::default()
    }
}

impl std::fmt::Debug for ContrepStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContrepStore").field("prefixes", &self.prefixes()).finish()
    }
}

/// The CONTREP structure implementation.
pub struct Contrep {
    store: Arc<ContrepStore>,
}

impl Contrep {
    /// Create a CONTREP structure over a store. Its belief operators read
    /// the same store; [`register_contrep`] registers both.
    pub fn new(store: Arc<ContrepStore>) -> Self {
        Contrep { store }
    }

    fn weighted_query(args: &CallArgs<'_>) -> Vec<(String, f64)> {
        args.query.map(<[(String, f64)]>::to_vec).unwrap_or_default()
    }
}

impl Structure for Contrep {
    fn name(&self) -> &str {
        "CONTREP"
    }

    fn check_param(&self, param: &MoaType) -> moa::Result<()> {
        match param {
            MoaType::Atomic(_) => Ok(()),
            other => Err(MoaError::Type(format!("CONTREP parameter must be atomic, got {other}"))),
        }
    }

    fn build(
        &self,
        values: &[Option<&str>],
        param: &MoaType,
        _catalog: &Catalog,
        prefix: &str,
    ) -> moa::Result<()> {
        let stem = matches!(param, MoaType::Atomic(moa::AtomicType::Text));
        self.store.insert(prefix, InvertedIndex::from_payloads(values.iter().copied(), stem));
        Ok(())
    }

    fn compile_call(&self, method: &str, prefix: &str, args: &CallArgs<'_>) -> moa::Result<Plan> {
        if method != "getBL" {
            return Err(MoaError::Unknown(format!("CONTREP method '{method}'")));
        }
        let mut params = vec![Val::Str(prefix.to_string())];
        for (t, w) in Self::weighted_query(args) {
            params.push(Val::Str(t));
            params.push(Val::Float(w));
        }
        let inputs = match args.domain {
            Some(d) => vec![d.clone()],
            None => Vec::new(),
        };
        Ok(Plan::Custom { op: GETBL_OP.to_string(), inputs, params })
    }

    fn method_result_elem(&self, method: &str) -> moa::Result<MoaType> {
        if method == "getBL" {
            Ok(MoaType::Atomic(moa::AtomicType::Float))
        } else {
            Err(MoaError::Unknown(format!("CONTREP method '{method}'")))
        }
    }
}

/// Decode the `[prefix, (term, weight)*]` parameter layout shared by the
/// belief operators.
fn decode_bl_params<'a>(
    op: &'static str,
    params: &'a [Val],
) -> monet::Result<(&'a str, Vec<(&'a str, f64)>)> {
    let prefix =
        params.first().and_then(Val::as_str).ok_or_else(|| MonetError::BadOpInvocation {
            op: op.into(),
            msg: "first parameter must be the prefix".into(),
        })?;
    let mut query: Vec<(&str, f64)> = Vec::new();
    let mut it = params[1..].iter();
    while let (Some(t), Some(w)) = (it.next(), it.next()) {
        let (Some(t), Some(w)) = (t.as_str(), w.as_float()) else {
            return Err(MonetError::BadOpInvocation {
                op: op.into(),
                msg: "query parameters must alternate str/float".into(),
            });
        };
        query.push((t, w));
    }
    Ok((prefix, query))
}

/// The index stored at `prefix`.
fn stored(op: &str, store: &ContrepStore, prefix: &str) -> monet::Result<Arc<InvertedIndex>> {
    let msg = format!("no content representation at '{prefix}'");
    store.get(prefix).ok_or_else(|| MonetError::BadOpInvocation { op: op.into(), msg })
}

/// The request's pinned corpus view, if it has one.
fn corpus_view<'a>(ctx: &OpCtx<'a>) -> Option<&'a CorpusView> {
    ctx.view.and_then(|view| (view as &dyn std::any::Any).downcast_ref::<CorpusView>())
}

/// A node's one index per representation, by prefix: the one part of the
/// view a request without a pinned [`CorpusView`] ranks.
struct NodePart(Vec<(String, Arc<InvertedIndex>)>);

impl NodePart {
    fn index(&self, prefix: &str) -> Option<&InvertedIndex> {
        self.0.iter().find(|(p, _)| p == prefix).map(|(_, index)| &**index)
    }
}

impl ViewPart for NodePart {
    fn segments(&self, prefix: &str) -> Vec<(Oid, &InvertedIndex)> {
        self.index(prefix).map(|index| (0, index)).into_iter().collect()
    }

    fn live_stats(&self, prefix: &str) -> (usize, u64) {
        self.index(prefix).map_or((0, 0), |index| (index.n_docs(), index.stats().total_tokens))
    }

    fn end_doc(&self) -> Oid {
        self.0.iter().map(|(_, index)| index.n_docs() as Oid).max().unwrap_or(0)
    }
}

/// Register the `contrep.getbl` operator in a kernel registry. It reads
/// one index: the store's, or the pinned view's when that view is one
/// undeleted segment — any other view is a typed error, because one
/// segment's belief list is not the view's answer.
fn register_getbl_op(ops: &OpRegistry, store: Arc<ContrepStore>) {
    ops.register(GETBL_OP, move |ctx, inputs, params| {
        let (prefix, query) = decode_bl_params(GETBL_OP, params)?;
        let node;
        let index = match corpus_view(ctx) {
            Some(view) => view.whole_index(prefix).ok_or_else(|| MonetError::BadOpInvocation {
                op: GETBL_OP.into(),
                msg: format!(
                    "'{prefix}' is pinned with deletes, segments or shards: only {TOPK_BL_OP} ranks it"
                ),
            })?,
            None => {
                node = stored(GETBL_OP, &store, prefix)?;
                &*node
            }
        };
        let bel = store.params();
        let domain: Option<DocSet> =
            inputs.first().map(|bat| bat.head().as_oids().unwrap_or_default().into_iter().collect());
        let total_w: f64 = query.iter().map(|(_, w)| w).sum();
        let mut docs: Vec<Oid> = Vec::new();
        let mut beliefs: Vec<f64> = Vec::new();
        if total_w > 0.0 {
            // set-at-a-time: walk each term's postings once, accumulate
            // weight-normalised beliefs per document
            let mut matched_w: monet::fxhash::FxHashMap<Oid, f64> = Default::default();
            let stats = index.stats();
            for (t, w) in &query {
                let df = index.df(t);
                let Some(list) = index.postings_list(t) else { continue };
                list.for_each(|doc, tf| {
                    if domain.as_ref().is_some_and(|dom| !dom.contains(doc)) {
                        return;
                    }
                    let b = bel.belief(tf, df, index.doc_len(doc), stats.n_docs, stats.avg_dl);
                    docs.push(doc);
                    beliefs.push(w * b / total_w);
                    *matched_w.entry(doc).or_insert(0.0) += w;
                });
            }
            // one default-belief row per document for its unmatched terms
            for (doc, mw) in matched_w {
                if mw < total_w {
                    docs.push(doc);
                    beliefs.push(bel.alpha * (total_w - mw) / total_w);
                }
            }
        }
        Bat::new(Column::Oid(docs), Column::Float(beliefs))
    });
}

/// Register the fused `topk_bl` operator. Its parameters
/// are the kernel's multi-channel `<op>.topk` layout
/// ([`moa::opt::topk_params`]): per channel a weight, a length and
/// that channel's `getBL` parameters, then the budget — one channel for a
/// plain ranking, two (text, image) for dual coding and relevance
/// feedback. It ranks the request's pinned [`CorpusView`] (without one,
/// the store's indexes as a one-part view), restricted to its optional
/// domain input in view ids. The output is the k best `[global doc, Σ
/// weight·belief-sum]` rows in rank order. Each part runs the streaming
/// evaluation of [`crate::topk`] and reports its work — per channel, per
/// part and per segment — through the EXPLAIN note channel.
fn register_topk_bl_op(ops: &OpRegistry, store: Arc<ContrepStore>) {
    ops.register(TOPK_BL_OP, move |ctx, inputs, params| {
        let bad =
            |msg: &str| MonetError::BadOpInvocation { op: TOPK_BL_OP.into(), msg: msg.into() };
        let (groups, k) = moa::opt::split_topk_params(params).ok_or_else(|| {
            bad("parameters must be (weight, len, getBL params)+ then the budget")
        })?;
        let mut channels = Vec::with_capacity(groups.len());
        for (channel, weight) in groups {
            if !(weight.is_finite() && weight >= 0.0) {
                return Err(bad("channel weights must be finite and non-negative"));
            }
            let (prefix, query) = decode_bl_params(TOPK_BL_OP, channel)?;
            channels.push(ViewChannel { prefix, query, weight });
        }
        let node;
        let view = match corpus_view(ctx) {
            Some(view) => view,
            None => {
                let indexes = channels
                    .iter()
                    .map(|ch| Ok((ch.prefix.to_string(), stored(TOPK_BL_OP, &store, ch.prefix)?)));
                let part = NodePart(indexes.collect::<monet::Result<_>>()?);
                node = CorpusView::new(vec![Arc::new(part)], None);
                &node
            }
        };
        let domain = inputs.first().map(|bat| &**bat);
        let (out, scored) = view
            .topk(&channels, store.params(), domain, k)
            .ok_or_else(|| bad("a ranked document has no global id in the pinned view"))?;
        ctx.set_note(topk_note(k, &channels, &out, &scored));
        let (docs, scores): (Vec<Oid>, Vec<f64>) = out.hits.into_iter().unzip();
        Bat::new(Column::Oid(docs), Column::Float(scores))
    });
}

/// The fused operator's EXPLAIN note: its work, split per channel (with
/// each channel's probe, tf rows or lists) when it ranks several, and the
/// documents scored per part and segment when the view has several.
fn topk_note(
    k: usize,
    channels: &[ViewChannel<'_>],
    out: &TopKOutcome,
    scored: &[Vec<u64>],
) -> String {
    let mut note = format!(
        "topk ×{k} (pruned {} ranges, skipped {} blocks / {} postings)",
        out.pruned, out.blocks_skipped, out.skipped_postings
    );
    if channels.len() > 1 {
        let segments: usize = scored.iter().map(Vec::len).sum();
        let per_channel: Vec<String> = (channels.iter().zip(&out.channels))
            .map(|(ch, w)| {
                // how the channel's non-essential lists were probed
                let probe = match w.row_segments as usize {
                    0 => "lists".to_string(),
                    r if r == segments => "rows".to_string(),
                    r => format!("rows in {r} of {segments} segments"),
                };
                format!(
                    "{} ({probe}): scored {} postings, pruned {}, skipped {} blocks",
                    ch.prefix.rsplit("__").next().unwrap_or(ch.prefix),
                    w.scored_postings,
                    w.pruned,
                    w.blocks_skipped
                )
            })
            .collect();
        note = format!("{note} [{}]", per_channel.join("; "));
    }
    if scored.len() > 1 || scored.iter().any(|segments| segments.len() > 1) {
        note = format!("{note} docs scored by part and segment: {scored:?}");
    }
    note
}

/// Create a store, register the CONTREP structure and its two belief
/// operators (`contrep.getbl`, `contrep.getbl.topk`) in `env`, and return
/// the store handle. Calling it again on the same environment replaces the
/// store the structure and operators use.
pub fn register_contrep(env: &moa::Env) -> Arc<ContrepStore> {
    let store = Arc::new(ContrepStore::new());
    env.structures().register(Arc::new(Contrep::new(Arc::clone(&store))));
    register_getbl_op(env.ops(), Arc::clone(&store));
    register_topk_bl_op(env.ops(), Arc::clone(&store));
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use moa::{parse_define, Env, MoaEngine, MoaVal};

    /// Build the paper's TraditionalImgLib with a CONTREP annotation.
    fn mirror_env() -> (Arc<Env>, Arc<ContrepStore>) {
        let env = Env::new();
        let store = register_contrep(&env);
        let (name, ty) = parse_define(
            "define TraditionalImgLib as
               SET< TUPLE< Atomic<URL>: source, CONTREP<Text>: annotation >>;",
        )
        .unwrap();
        let docs = [
            Some("a glowing sunset over the beach"),
            Some("dark forest with morning mist"),
            Some("sunset behind the city skyline"),
            None,
            Some("waves crashing on the beach at sunset"),
        ];
        let rows: Vec<MoaVal> = docs
            .iter()
            .enumerate()
            .map(|(i, d)| {
                MoaVal::Tuple(vec![
                    MoaVal::Str(format!("http://img/{i}.png")),
                    d.map_or(MoaVal::Null, MoaVal::from),
                ])
            })
            .collect();
        env.create_collection(name, ty, rows).unwrap();
        (Arc::new(env), store)
    }

    #[test]
    fn build_registers_index_and_operators() {
        let (env, store) = mirror_env();
        assert_eq!(store.prefixes(), ["TraditionalImgLib__annotation"]);
        // the compressed index is the attribute's only physical form
        let mut names = env.catalog().names();
        names.retain(|n| n.starts_with("TraditionalImgLib__"));
        assert_eq!(names, ["TraditionalImgLib__self", "TraditionalImgLib__source"]);
        assert!(env.ops().contains(GETBL_OP));
        assert!(env.ops().contains(TOPK_BL_OP));
    }

    #[test]
    fn paper_query_ranks_documents() {
        let (env, _) = mirror_env();
        env.bind_query("query", vec![("sunset".into(), 1.0), ("beach".into(), 1.0)]);
        let engine = MoaEngine::new(Arc::clone(&env));
        let out = engine
            .query(
                "map[sum(THIS)](
                   map[getBL(THIS.annotation, query, stats)]( TraditionalImgLib ));",
            )
            .unwrap();
        let pairs = out.pairs().expect("pairs").to_vec();
        // every document got a score (docs without any match score 0)
        assert_eq!(pairs.len(), 5);
        let score = |oid: u32| pairs.iter().find(|(o, _)| *o == oid).unwrap().1.as_float().unwrap();
        // docs 0 and 4 match both terms; 2 matches one; 1 and 3 none
        assert!(score(0) > score(2), "{} vs {}", score(0), score(2));
        assert!(score(4) > score(2));
        assert!(score(2) > score(1));
        assert_eq!(score(1), 0.0);
        assert_eq!(score(3), 0.0);
    }

    #[test]
    fn flattened_ranking_matches_inference_network() {
        let (env, store) = mirror_env();
        let terms = vec![("sunset".to_string(), 2.0), ("mist".to_string(), 1.0)];
        env.bind_query("query", terms.clone());
        let engine = MoaEngine::new(Arc::clone(&env));
        let out = engine
            .query("map[sum(THIS)](map[getBL(THIS.annotation, query, stats)](TraditionalImgLib))")
            .unwrap();
        let pairs = out.pairs().unwrap().to_vec();
        // the network's #wsum node, evaluated per document from the term
        // belief lists: Σ w·bel / Σ w, an absent term believed at alpha;
        // a document matching no term scores 0
        let index = store.get("TraditionalImgLib__annotation").unwrap();
        let params = crate::belief::DEFAULT_BELIEF;
        let total_w: f64 = terms.iter().map(|(_, w)| w).sum();
        let mut matched: HashMap<Oid, (f64, f64)> = HashMap::new();
        for (t, w) in &terms {
            for (doc, b) in params.belief_list(&index, t) {
                let (wb, mw) = matched.entry(doc).or_default();
                *wb += w * b;
                *mw += w;
            }
        }
        assert_eq!(matched.len(), 4, "docs 0, 1, 2 and 4 match a term");
        for (doc, got) in &pairs {
            let got = got.as_float().unwrap();
            let expected = matched
                .get(doc)
                .map_or(0.0, |(wb, mw)| (wb + params.alpha * (total_w - mw)) / total_w);
            assert!(
                (got - expected).abs() < 1e-9,
                "doc {doc}: flattened {got} vs network {expected}"
            );
        }
    }

    #[test]
    fn selection_pushdown_restricts_ranking() {
        let (env, _) = mirror_env();
        env.bind_query("query", vec![("sunset".into(), 1.0)]);
        let engine = MoaEngine::new(Arc::clone(&env));
        // only rank documents whose URL contains "2" (i.e. doc 2)
        let out = engine
            .query(
                "map[sum(THIS)](map[getBL(THIS.annotation, query, stats)](
                   select[contains(THIS.source, \"/2.\")](TraditionalImgLib)))",
            )
            .unwrap();
        let pairs = out.pairs().unwrap();
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].0, 2);
    }

    #[test]
    fn visual_contrep_keeps_raw_tokens() {
        let env = Env::new();
        let store = register_contrep(&env);
        let (name, ty) =
            parse_define("define V as SET< TUPLE< Atomic<URL>: source, CONTREP<Image>: image >>;")
                .unwrap();
        let rows = vec![
            MoaVal::Tuple(vec![MoaVal::str("u0"), MoaVal::str("gabor_21 rgb_3 gabor_21")]),
            MoaVal::Tuple(vec![MoaVal::str("u1"), MoaVal::str("rgb_3 tamura_7")]),
        ];
        env.create_collection(name, ty, rows).unwrap();
        let idx = store.get("V__image").unwrap();
        // visual terms must survive unstemmed and unsplit
        assert_eq!(idx.tf("gabor_21", 0), 2);
        assert_eq!(idx.df("rgb_3"), 2);
        assert_eq!(idx.df("gabor"), 0);
    }

    #[test]
    fn getbl_compiles_with_explain() {
        let (env, _) = mirror_env();
        env.bind_query("query", vec![("sunset".into(), 1.0)]);
        let engine = MoaEngine::new(Arc::clone(&env));
        let text = engine
            .explain("map[sum(THIS)](map[getBL(THIS.annotation, query, stats)](TraditionalImgLib))")
            .unwrap();
        assert!(text.contains("custom[contrep.getbl]"));
        assert!(text.contains("grouped_aggr[sum]"));
    }

    #[test]
    fn unknown_method_is_rejected() {
        let (env, _) = mirror_env();
        let engine = MoaEngine::new(Arc::clone(&env));
        let err = engine.query("map[getPL(THIS.annotation, query, stats)](TraditionalImgLib)");
        assert!(err.is_err());
    }

    #[test]
    fn params_bindings_never_touch_the_env() {
        let (env, _) = mirror_env();
        let engine = MoaEngine::new(Arc::clone(&env));
        let params =
            moa::QueryParams::new().bind("rq", vec![("sunset".into(), 1.0), ("beach".into(), 1.0)]);
        let out = engine
            .query_with(
                "map[sum(THIS)](map[getBL(THIS.annotation, rq, stats)](TraditionalImgLib))",
                &params,
            )
            .unwrap();
        assert_eq!(out.pairs().unwrap().len(), 5);
        assert!(env.query_binding("rq").is_none(), "request binding leaked into Env");
    }

    #[test]
    fn fused_topk_matches_materialise_then_sort() {
        let (env, _) = mirror_env();
        let engine = MoaEngine::new(Arc::clone(&env));
        let q = "map[sum(THIS)](map[getBL(THIS.annotation, rq, stats)](TraditionalImgLib))";
        let bindings =
            moa::QueryParams::new().bind("rq", vec![("sunset".into(), 1.0), ("beach".into(), 1.0)]);
        // baseline: materialise every belief, then sort + truncate
        let full = engine.query_with(q, &bindings).unwrap();
        let mut expected: Vec<(monet::Oid, f64)> = full
            .pairs()
            .unwrap()
            .iter()
            .filter_map(|(o, v)| v.as_float().map(|f| (*o, f)))
            .filter(|(_, s)| *s > 0.0)
            .collect();
        expected.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        for k in [1usize, 2, 5] {
            let fused = engine.query_with(q, &bindings.clone().with_top_k(k)).unwrap();
            let got: Vec<(monet::Oid, f64)> =
                fused.pairs().unwrap().iter().map(|(o, v)| (*o, v.as_float().unwrap())).collect();
            let mut want = expected.clone();
            want.truncate(k);
            assert_eq!(got, want, "k={k}");
        }
    }

    #[test]
    fn fused_topk_shows_in_explain_and_stats() {
        let (env, _) = mirror_env();
        let engine = MoaEngine::new(Arc::clone(&env));
        let q = "map[sum(THIS)](map[getBL(THIS.annotation, rq, stats)](TraditionalImgLib))";
        let params = moa::QueryParams::new().bind("rq", vec![("sunset".into(), 1.0)]).with_top_k(2);
        let text = engine.explain_with(q, &params).unwrap();
        assert!(text.contains("custom[contrep.getbl.topk]"), "{text}");
        assert!(!text.contains("grouped_aggr"), "fusion should collapse the grouped sum: {text}");
        let expr = moa::parse_expr(q).unwrap();
        let (_, stats) = engine.query_expr_params(&expr, &params).unwrap();
        let notes = stats.notes();
        assert!(
            notes.iter().any(|n| n.starts_with("topk ×2 (pruned")),
            "missing topk note: {notes:?}"
        );
    }

    #[test]
    fn fused_topk_respects_the_relational_domain() {
        let (env, _) = mirror_env();
        let engine = MoaEngine::new(Arc::clone(&env));
        // only rank documents whose URL contains "2" (i.e. doc 2)
        let q = "map[sum(THIS)](map[getBL(THIS.annotation, rq, stats)](
                   select[contains(THIS.source, \"/2.\")](TraditionalImgLib)))";
        let params = moa::QueryParams::new().bind("rq", vec![("sunset".into(), 1.0)]).with_top_k(5);
        let out = engine.query_with(q, &params).unwrap();
        let pairs = out.pairs().unwrap();
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].0, 2);
        let text = engine.explain_with(q, &params).unwrap();
        assert!(text.contains("custom[contrep.getbl.topk]"), "{text}");
    }

    #[test]
    fn empty_query_scores_nothing() {
        let (env, _) = mirror_env();
        env.bind_query("query", vec![]);
        let engine = MoaEngine::new(Arc::clone(&env));
        let out = engine
            .query("map[sum(THIS)](map[getBL(THIS.annotation, query, stats)](TraditionalImgLib))")
            .unwrap();
        // grouped sum still yields one row per doc, all zero
        let pairs = out.pairs().unwrap();
        assert!(pairs.iter().all(|(_, v)| v.as_float() == Some(0.0)));
    }
}
