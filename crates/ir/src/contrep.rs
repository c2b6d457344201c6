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
use crate::index::{IndexBuilder, InvertedIndex};
use moa::{CallArgs, MoaError, MoaType, Structure};
use monet::{Bat, Catalog, Column, MonetError, Oid, OpRegistry, Plan, Val};
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
/// belief operators read it directly, and durable saves persist it as a
/// blob.
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
        values: &[Option<String>],
        param: &MoaType,
        _catalog: &Catalog,
        prefix: &str,
    ) -> moa::Result<()> {
        let stem = matches!(param, MoaType::Atomic(moa::AtomicType::Text));
        let mut builder = IndexBuilder::new();
        for v in values {
            match v {
                Some(text) if stem => builder.add_text(Some(text)),
                Some(text) => {
                    let toks: Vec<&str> = text.split_whitespace().collect();
                    builder.add_tokens(&toks);
                }
                None => builder.add_text(None),
            }
        }
        self.store.insert(prefix, builder.build());
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

    /// Tuple-at-a-time `getBL`: evaluate the belief of every query term for
    /// one document with per-term postings lookups. This is the baseline
    /// execution model (used by the naive interpreter); it returns exactly
    /// the rows the set-at-a-time operator would emit for this document.
    fn eval_object(
        &self,
        prefix: &str,
        oid: Oid,
        method: &str,
        args: &CallArgs<'_>,
    ) -> moa::Result<Vec<f64>> {
        if method != "getBL" {
            return Err(MoaError::Unknown(format!("CONTREP method '{method}'")));
        }
        let index = self
            .store
            .get(prefix)
            .ok_or_else(|| MoaError::Unknown(format!("content representation '{prefix}'")))?;
        let params = self.store.params();
        let query = Self::weighted_query(args);
        let total_w: f64 = query.iter().map(|(_, w)| w).sum();
        if total_w == 0.0 {
            return Ok(Vec::new());
        }
        let mut rows = Vec::new();
        let mut matched_w = 0.0;
        let mut any = false;
        for (t, w) in &query {
            let tf = index.tf(t, oid);
            if tf > 0 {
                let b = params.belief_in(&index, t, oid);
                rows.push(w * b / total_w);
                matched_w += w;
                any = true;
            }
        }
        if any && matched_w < total_w {
            rows.push(params.alpha * (total_w - matched_w) / total_w);
        }
        Ok(rows)
    }
}

/// A resolved index plus the decoded weighted query borrowed from the
/// operator parameters.
type DecodedBlCall<'a> = (Arc<InvertedIndex>, Vec<(&'a str, f64)>);

/// Decode the `[prefix, (term, weight)*]` parameter layout shared by the
/// belief operators, resolving the index through the store.
fn decode_bl_params<'a>(
    op: &'static str,
    store: &ContrepStore,
    params: &'a [Val],
) -> monet::Result<DecodedBlCall<'a>> {
    let prefix =
        params.first().and_then(Val::as_str).ok_or_else(|| MonetError::BadOpInvocation {
            op: op.into(),
            msg: "first parameter must be the prefix".into(),
        })?;
    let index = store.get(prefix).ok_or_else(|| MonetError::BadOpInvocation {
        op: op.into(),
        msg: format!("no content representation at '{prefix}'"),
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
    Ok((index, query))
}

/// Decode an optional domain restriction from the first BAT input.
fn decode_domain(inputs: &[Arc<Bat>]) -> Option<monet::fxhash::FxHashSet<Oid>> {
    inputs.first().map(|bat| (0..bat.count()).filter_map(|i| bat.head().oid_at(i).ok()).collect())
}

/// Register the `contrep.getbl` operator in a kernel registry.
fn register_getbl_op(ops: &OpRegistry, store: Arc<ContrepStore>) {
    ops.register(GETBL_OP, move |_ctx, inputs, params| {
        let (index, query) = decode_bl_params(GETBL_OP, &store, params)?;
        let bel = store.params();
        let domain = decode_domain(inputs);
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
                    if domain.as_ref().is_some_and(|dom| !dom.contains(&doc)) {
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
/// feedback. The output is the k best `[doc, Σ weight·belief-sum]` rows in
/// rank order. Runs the streaming evaluation of [`crate::topk`] at the
/// executor's parallel degree and reports its work, per channel, through
/// the EXPLAIN note channel.
fn register_topk_bl_op(ops: &OpRegistry, store: Arc<ContrepStore>) {
    ops.register(TOPK_BL_OP, move |ctx, inputs, params| {
        let bad =
            |msg: &str| MonetError::BadOpInvocation { op: TOPK_BL_OP.into(), msg: msg.into() };
        let (groups, k) = moa::opt::split_topk_params(params).ok_or_else(|| {
            bad("parameters must be (weight, len, getBL params)+ then the budget")
        })?;
        let mut decoded = Vec::with_capacity(groups.len());
        for (channel, weight) in groups {
            if !(weight.is_finite() && weight >= 0.0) {
                return Err(bad("channel weights must be finite and non-negative"));
            }
            let (index, query) = decode_bl_params(TOPK_BL_OP, &store, channel)?;
            let label = channel[0].as_str().map_or("", |p| p.rsplit("__").next().unwrap_or(p));
            decoded.push((index, query, weight, label));
        }
        let channels: Vec<crate::topk::TopKChannel<'_>> = decoded
            .iter()
            .map(|(index, query, weight, _)| crate::topk::TopKChannel::whole(index, query, *weight))
            .collect();
        let domain = decode_domain(inputs);
        // fragment the doc-id space only when it is large enough to pay
        // for the scoped threads — the executor's threshold, like the
        // built-in operators (so `min_fragment_rows` overrides apply here)
        let n_docs = decoded.iter().map(|(index, ..)| index.n_docs()).max().unwrap_or(0);
        let degree = ctx.frag_degree(n_docs);
        let out =
            crate::topk::topk_channels(&channels, store.params(), domain.as_ref(), None, k, degree);
        let mut note = format!(
            "topk ×{k} (pruned {} docs, skipped {} blocks / {} postings)",
            out.pruned, out.blocks_skipped, out.skipped_postings
        );
        if decoded.len() > 1 {
            let per_channel: Vec<String> = decoded
                .iter()
                .zip(&out.channels)
                .map(|((.., label), w)| {
                    format!(
                        "{label}: scored {} postings, pruned {}, skipped {} blocks",
                        w.scored_postings, w.pruned, w.blocks_skipped
                    )
                })
                .collect();
            note = format!("{note} [{}]", per_channel.join("; "));
        }
        ctx.set_note(note);
        let (docs, scores): (Vec<Oid>, Vec<f64>) = out.hits.into_iter().unzip();
        Bat::new(Column::Oid(docs), Column::Float(scores))
    });
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
    use moa::{parse_define, Env, MoaEngine, MoaVal, QueryOutput};

    /// Build the paper's TraditionalImgLib with a CONTREP annotation.
    fn mirror_env() -> (Arc<Env>, Arc<ContrepStore>) {
        let mut env = Env::new();
        env.keep_raw = true;
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
        let index = store.get("TraditionalImgLib__annotation").unwrap();
        let network = crate::Ranker::new(&index).rank(&crate::QueryNode::wsum_of(&terms));
        for (doc, expected) in network {
            let got = pairs.iter().find(|(o, _)| *o == doc).unwrap().1.as_float().unwrap();
            assert!(
                (got - expected).abs() < 1e-9,
                "doc {doc}: flattened {got} vs network {expected}"
            );
        }
    }

    #[test]
    fn naive_and_flattened_getbl_agree() {
        let (env, _) = mirror_env();
        env.bind_query("query", vec![("sunset".into(), 1.0), ("beach".into(), 1.0)]);
        let q = "map[sum(THIS)](map[getBL(THIS.annotation, query, stats)](TraditionalImgLib))";
        let flat = MoaEngine::new(Arc::clone(&env)).query(q).unwrap();
        let naive = moa::naive::NaiveEngine::new(&env).query(q).unwrap();
        // naive emits only docs it visits; compare shared docs
        let (QueryOutput::Pairs(f), QueryOutput::Pairs(n)) = (&flat, &naive) else {
            panic!("expected pairs");
        };
        for (doc, v) in n {
            let fv = f.iter().find(|(o, _)| o == doc).unwrap().1.as_float().unwrap();
            let nv = v.as_float().unwrap();
            assert!((fv - nv).abs() < 1e-9, "doc {doc}: {fv} vs {nv}");
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
