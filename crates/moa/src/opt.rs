//! The optimizer: every physical plan rewrite, as one fixed cascade.
//!
//! The logical selection pushdown of [`crate::rewrite`] runs before
//! flattening; everything after it happens here, fed by a [`StatsCatalog`]
//! collected at ingest time (per-column row counts, NDV and min/max via
//! [`monet::summarize`]; per-term document frequencies from the IR layer's
//! inverted indexes). [`Pipeline::optimize`] runs, in order:
//!
//! 1. **selection_order** (under [`OptConfig::stats_driven`], when
//!    statistics exist) — reorders semijoin filter chains so the most
//!    selective filter applies first. Sound for *any* filters: a semijoin
//!    keeps rows of its left input whose head occurs among the right's
//!    heads, preserving left order, so a chain over one base intersects
//!    head sets — commutative in the filters by construction;
//! 2. **topk_fuse** (when the request carries a top-k budget) — rewrites a
//!    ranking plan into its belief operator's fused `<op>.topk`
//!    counterpart: the single-channel ranking shape always, and the
//!    dual-coding shape (a weighted sum of two channels' grouped belief
//!    sums) into one two-channel fused operator under
//!    [`OptConfig::stats_driven`], so [`OptConfig::none`] keeps it as the
//!    unfused reference plan. A filter outside the ranking map needs no
//!    rule of its own: the logical pushdown has already moved it inside,
//!    where it compiles to the fusable domain-restricted shape.
//!
//! Every rewrite must preserve the executed result (bit-identical under the
//! documented operator contracts), and each one that changes the plan is
//! reported by name in [`PlanHints::passes_fired`]. Afterwards every node
//! of the final plan is annotated with an estimated output cardinality
//! ([`estimate`]), which the kernel [`monet::Executor`] renders in EXPLAIN
//! as `est≈N` next to actual row counts.

use crate::rewrite::OptConfig;
use monet::fxhash::FxHashMap;
use monet::{Agg, ArithOp, ColSummary, OpRegistry, Plan, Pred, Val};
use std::collections::HashMap;
use std::sync::Arc;

/// Per-inverted-index statistics: corpus size and per-term document
/// frequencies, keyed under the index's BAT-name prefix
/// (e.g. `Lib__annotation`).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct IndexStats {
    /// Number of documents in the indexed collection.
    pub n_docs: u64,
    /// Document frequency per (stemmed) term.
    pub dfs: HashMap<String, u32>,
}

/// The statistics catalog: ingest-time summaries that feed the
/// cost estimator. Cheap to clone-on-write; the environment stores it
/// behind an `Arc` swapped atomically on updates.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct StatsCatalog {
    columns: HashMap<String, ColSummary>,
    indexes: HashMap<String, IndexStats>,
}

impl StatsCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no statistics have been collected (estimator disabled).
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty() && self.indexes.is_empty()
    }

    /// Record (or replace) the summary of one flattened column BAT.
    pub fn set_column(&mut self, name: impl Into<String>, summary: ColSummary) {
        self.columns.insert(name.into(), summary);
    }

    /// Summary of a column BAT, if collected.
    pub fn column(&self, name: &str) -> Option<&ColSummary> {
        self.columns.get(name)
    }

    /// Drop every column and index entry under a name prefix (re-ingest).
    pub fn drop_prefix(&mut self, prefix: &str) {
        self.columns.retain(|k, _| !k.starts_with(prefix));
        self.indexes.retain(|k, _| !k.starts_with(prefix));
    }

    /// Record (or replace) the document-frequency statistics of an
    /// inverted index registered under `prefix`.
    pub fn set_index(
        &mut self,
        prefix: impl Into<String>,
        n_docs: u64,
        dfs: impl IntoIterator<Item = (String, u32)>,
    ) {
        self.indexes.insert(prefix.into(), IndexStats { n_docs, dfs: dfs.into_iter().collect() });
    }

    /// Corpus size of the index at `prefix`, if collected.
    pub fn index_docs(&self, prefix: &str) -> Option<u64> {
        self.indexes.get(prefix).map(|i| i.n_docs)
    }

    /// Document frequency of `term` in the index at `prefix`.
    pub fn term_df(&self, prefix: &str, term: &str) -> Option<u32> {
        self.indexes.get(prefix).and_then(|i| i.dfs.get(term).copied())
    }
}

/// Selectivity of a predicate against (optional) column statistics.
/// Conservative textbook factors where statistics are missing.
fn pred_selectivity(pred: &Pred, col: Option<&ColSummary>) -> f64 {
    match pred {
        Pred::Eq(_) => col.filter(|c| c.ndv > 0).map_or(0.1, |c| 1.0 / c.ndv as f64),
        Pred::StrContains(_) => 0.1,
        Pred::Range { lo, hi, .. } => {
            if let Some(c) = col {
                if let (Some(mn), Some(mx)) = (c.min, c.max) {
                    let span = mx - mn;
                    if span > 0.0 {
                        let lo_v = lo.as_ref().and_then(Val::as_float).unwrap_or(mn).max(mn);
                        let hi_v = hi.as_ref().and_then(Val::as_float).unwrap_or(mx).min(mx);
                        return ((hi_v - lo_v) / span).clamp(0.0, 1.0);
                    }
                    return 1.0; // constant column: the bound decides all-or-nothing
                }
            }
            1.0 / 3.0
        }
    }
}

/// Estimate the output cardinality of a plan node from the statistics
/// catalog. `None` means "no idea" — callers must treat unknown as
/// unoptimisable, never guess. For belief operators the estimate counts
/// *documents touched* (sum of term document frequencies, capped by corpus
/// and domain size), which is the meaningful input to the grouped sum above.
pub fn estimate(plan: &Plan, stats: &StatsCatalog) -> Option<u64> {
    annotate(plan, stats).pop().flatten()
}

/// [`estimate`] of every node of `plan`, indexed by node id
/// ([`Plan::post_order`]), in one bottom-up pass: each node's estimate
/// combines its children's.
fn annotate(plan: &Plan, stats: &StatsCatalog) -> Vec<Option<u64>> {
    fn walk(p: &Plan, stats: &StatsCatalog, out: &mut Vec<Option<u64>>) -> Option<u64> {
        let kids: Vec<_> = p.children().into_iter().map(|c| walk(c, stats, out)).collect();
        let est = estimate_node(p, &kids, stats);
        out.push(est);
        est
    }
    let mut out = Vec::new();
    walk(plan, stats, &mut out);
    out
}

/// One node's estimate from its children's (`kids`, in [`Plan::children`]
/// order).
fn estimate_node(plan: &Plan, kids: &[Option<u64>], stats: &StatsCatalog) -> Option<u64> {
    let first = kids.first().copied().flatten();
    let smaller_known = || match (kids[0], kids[1]) {
        (Some(l), Some(r)) => Some(l.min(r)),
        (l, r) => l.or(r),
    };
    match plan {
        Plan::Load(name) => stats.column(name).map(|c| c.rows),
        Plan::Const(_) | Plan::Aggr { .. } => Some(1),
        Plan::Select { input, pred } => {
            let col = if let Plan::Load(n) = &**input { stats.column(n) } else { None };
            Some((first? as f64 * pred_selectivity(pred, col)).ceil() as u64)
        }
        Plan::Semijoin { .. } | Plan::Arith { .. } => smaller_known(),
        // KDiff: an upper bound
        Plan::Join { .. }
        | Plan::Reverse(_)
        | Plan::Mirror(_)
        | Plan::Distinct(_)
        | Plan::Mark { .. }
        | Plan::ProjectConst { .. }
        | Plan::SortTail { .. }
        | Plan::ArithConst { .. }
        | Plan::KDiff { .. } => first,
        Plan::GroupedAggr { .. } => kids[1],
        Plan::TopN { k, .. } => Some(first.map_or(*k as u64, |e| e.min(*k as u64))),
        Plan::Slice { lo, hi, .. } => {
            let cap = hi.saturating_sub(*lo) as u64;
            Some(first.map_or(cap, |e| e.min(cap)))
        }
        Plan::KUnion { .. } => Some(kids[0]?.saturating_add(kids[1]?)),
        Plan::Custom { op, params, .. } => {
            let est = if op.ends_with(".topk") {
                // fused top-k: the documents any channel touches, at most k
                let (channels, k) = split_topk_params(params)?;
                let (mut touched, mut n_docs) = (0u64, 0u64);
                for (channel, _) in channels {
                    let (t, n) = belief_touches(channel, stats)?;
                    touched = touched.saturating_add(t);
                    n_docs = n_docs.max(n);
                }
                touched.min(n_docs).min(k as u64)
            } else {
                let (touched, n_docs) = belief_touches(params, stats)?;
                touched.min(n_docs)
            };
            // capped by the domain input, if any
            Some(first.map_or(est, |d| est.min(d)))
        }
    }
}

/// A belief operator's `[prefix, (term, weight)*]` parameters against the
/// statistics: the sum of its terms' document frequencies, and the size
/// of the corpus it ranks.
fn belief_touches(params: &[Val], stats: &StatsCatalog) -> Option<(u64, u64)> {
    let Some(Val::Str(prefix)) = params.first() else { return None };
    let n_docs = stats.index_docs(prefix)?;
    let mut sum = 0u64;
    for pair in params[1..].chunks(2) {
        if let [Val::Str(term), _] = pair {
            sum += stats.term_df(prefix, term).unwrap_or(0) as u64;
        }
    }
    Some((sum, n_docs))
}

/// Shared context the optimizer runs under.
pub struct PassCtx<'a> {
    /// Optimiser switches.
    pub cfg: OptConfig,
    /// The ingest-time statistics catalog.
    pub stats: Arc<StatsCatalog>,
    /// The kernel operator registry (fused-operator availability).
    pub ops: &'a OpRegistry,
    /// Top-k budget of the current request, when the result shape allows
    /// fusion (single-valued ranking).
    pub top_k: Option<usize>,
}

/// Side-channel produced by [`Pipeline::optimize`]: per-node cardinality
/// estimates (indexed by node id, the kernel's trace key), plus which
/// rewrites changed the plan.
#[derive(Debug, Default, Clone)]
pub struct PlanHints {
    /// Estimated output rows per plan node, indexed by node id
    /// ([`Plan::post_order`]); empty when not annotated.
    pub est_rows: Vec<Option<u64>>,
    /// Kept only because `benchmark/src` reads it (ROADMAP 1(h)); never
    /// filled.
    pub degree_cap: FxHashMap<u64, usize>,
    /// Names of the rewrites that changed the plan, in cascade order.
    pub passes_fired: Vec<&'static str>,
}

/// The optimizer: the fixed rewrite cascade every compiled plan runs
/// through (see the [module docs](self)).
#[derive(Debug, Default, Clone, Copy)]
pub struct Pipeline;

impl Pipeline {
    /// Run `selection_order` (statistics-driven), then `topk_fuse` (when
    /// the request carries a budget), then annotate the final plan with
    /// cardinality estimates (when statistics exist and
    /// [`OptConfig::stats_driven`] is on).
    pub fn optimize(&self, plan: &Plan, ctx: &PassCtx) -> (Plan, PlanHints) {
        let mut hints = PlanHints::default();
        let stats_driven = ctx.cfg.stats_driven && !ctx.stats.is_empty();
        let mut plan = plan.clone();
        if stats_driven {
            let mut moved = false;
            plan = reorder_chains(&plan, &ctx.stats, &mut moved);
            if moved {
                hints.passes_fired.push("selection_order");
            }
        }
        if let Some(fused) = ctx.top_k.and_then(|k| topk_fuse(&plan, k, ctx)) {
            hints.passes_fired.push("topk_fuse");
            plan = fused;
        }
        if stats_driven {
            hints.est_rows = annotate(&plan, &ctx.stats);
        }
        (plan, hints)
    }
}

/// `selection_order`: reorder every semijoin filter chain most selective
/// filter first, setting `moved` when a filter moved or was dropped.
fn reorder_chains(plan: &Plan, stats: &StatsCatalog, moved: &mut bool) -> Plan {
    let node = map_children(plan, &mut |c| reorder_chains(c, stats, moved));
    if !matches!(node, Plan::Semijoin { .. }) {
        return node;
    }
    // Flatten the left-deep chain base ⋉ f1 ⋉ f2 ⋉ …; a semijoin keeps
    // rows of the base whose head occurs in every filter's head set, so
    // the filters commute (and equal filters are no-ops).
    let mut chain: Vec<Plan> = Vec::new();
    let mut base = node;
    while let Plan::Semijoin { left, right } = base {
        chain.push(*right);
        base = *left;
    }
    chain.reverse(); // applied order: innermost first
    let mut filters: Vec<Plan> = Vec::with_capacity(chain.len());
    for f in chain {
        if filters.contains(&f) {
            *moved = true;
        } else {
            filters.push(f);
        }
    }
    // Most selective (smallest estimated head set) first; unknown-size
    // filters keep their relative order at the end.
    let keyed: Vec<(u64, usize)> = filters
        .iter()
        .enumerate()
        .map(|(i, f)| (estimate(f, stats).unwrap_or(u64::MAX), i))
        .collect();
    let mut order: Vec<usize> = (0..filters.len()).collect();
    order.sort_by_key(|&i| keyed[i]);
    if order.iter().enumerate().any(|(at, &i)| at != i) {
        *moved = true;
    }
    let reordered: Vec<Plan> = {
        let mut tagged: Vec<Option<Plan>> = filters.into_iter().map(Some).collect();
        order.iter().map(|&i| tagged[i].take().expect("each index used once")).collect()
    };
    reordered
        .into_iter()
        .fold(base, |acc, f| Plan::Semijoin { left: Box::new(acc), right: Box::new(f) })
}

/// Rebuild a plan node with its children transformed.
fn map_children(plan: &Plan, f: &mut dyn FnMut(&Plan) -> Plan) -> Plan {
    use Plan::*;
    match plan {
        Load(_) | Const(_) => plan.clone(),
        Select { input, pred } => Select { input: Box::new(f(input)), pred: pred.clone() },
        Join { left, right } => Join { left: Box::new(f(left)), right: Box::new(f(right)) },
        Semijoin { left, right } => Semijoin { left: Box::new(f(left)), right: Box::new(f(right)) },
        Reverse(p) => Reverse(Box::new(f(p))),
        Mirror(p) => Mirror(Box::new(f(p))),
        Mark { input, base } => Mark { input: Box::new(f(input)), base: *base },
        ProjectConst { input, val } => ProjectConst { input: Box::new(f(input)), val: val.clone() },
        Aggr { input, agg } => Aggr { input: Box::new(f(input)), agg: *agg },
        GroupedAggr { values, groups, agg } => {
            GroupedAggr { values: Box::new(f(values)), groups: Box::new(f(groups)), agg: *agg }
        }
        SortTail { input, desc } => SortTail { input: Box::new(f(input)), desc: *desc },
        TopN { input, k, desc } => TopN { input: Box::new(f(input)), k: *k, desc: *desc },
        Slice { input, lo, hi } => Slice { input: Box::new(f(input)), lo: *lo, hi: *hi },
        Distinct(p) => Distinct(Box::new(f(p))),
        KUnion { left, right } => KUnion { left: Box::new(f(left)), right: Box::new(f(right)) },
        KDiff { left, right } => KDiff { left: Box::new(f(left)), right: Box::new(f(right)) },
        Arith { left, right, op } => {
            Arith { left: Box::new(f(left)), right: Box::new(f(right)), op: *op }
        }
        ArithConst { input, op, val } => {
            ArithConst { input: Box::new(f(input)), op: *op, val: val.clone() }
        }
        Custom { op, inputs, params } => Custom {
            op: op.clone(),
            inputs: inputs.iter().map(&mut *f).collect(),
            params: params.clone(),
        },
    }
}

/// `topk_fuse`: rewrite a compiled ranking plan into its belief
/// operator's fused top-k counterpart with budget `k`, or `None` —
/// execute the plan as it is — when the shape does not match or no fused
/// operator is registered.
///
/// A single ranking channel ([`ranking_channel`]) — the shape the
/// paper's `map[sum(THIS)](map[getBL(…)](C))` compiles to — fuses under
/// every configuration, into one channel of weight `1.0`. The dual-coding
/// shape ([`fuse_dual`]) fuses only under [`OptConfig::stats_driven`], so
/// that [`OptConfig::none`] keeps it unfused as the reference plan.
///
/// The fused plan implements the *top-k budget* contract, not row-for-row
/// plan equivalence: the grouped sum emits a `0.0` row for every document
/// that matches no query term, while the fused operator omits those
/// zero-mass rows entirely (a ranking drops them anyway) and keeps only
/// the k best of the rest. The surviving `(oid, score)` pairs are
/// bit-identical to materialise-then-sort.
fn topk_fuse(plan: &Plan, k: usize, ctx: &PassCtx) -> Option<Plan> {
    if let Some(ch) = ranking_channel(plan) {
        return fuse_channels(ch.op, &[(ch.params, 1.0)], ch.inputs, k, ctx.ops);
    }
    if ctx.cfg.stats_driven {
        fuse_dual(plan, k, ctx.ops)
    } else {
        None
    }
}

/// One ranking channel of a compiled plan: `grouped_aggr[sum]` over a
/// custom belief operator `op(inputs…; params)`, grouped by `groups`.
struct RankingChannel<'a> {
    /// The belief operator.
    op: &'a str,
    /// Its domain input, if it is restricted to one.
    inputs: &'a [Plan],
    /// Its parameters (`[prefix, (term, weight)*]` for `contrep.getbl`).
    params: &'a [Val],
    /// The grouping: the collection identity, or the operator's domain.
    groups: &'a Plan,
}

/// Match one ranking channel, seeing through the domain semijoin the
/// aggregate compiler adds (it is redundant iff the operator restricts
/// itself to the same domain).
fn ranking_channel(plan: &Plan) -> Option<RankingChannel<'_>> {
    let (inner, outer_domain) = match plan {
        Plan::Semijoin { left, right } => (&**left, Some(&**right)),
        p => (p, None),
    };
    let Plan::GroupedAggr { values, groups, agg: Agg::Sum } = inner else {
        return None;
    };
    let Plan::Custom { op, inputs, params } = &**values else {
        return None;
    };
    match (inputs.first(), outer_domain) {
        // unrestricted ranking: groups must be the collection identity
        (None, None) => match &**groups {
            Plan::Load(name) if name.ends_with("__self") => {}
            _ => return None,
        },
        // domain-restricted ranking: the operator input, the group mapping
        // and the outer semijoin must all be that same domain
        (Some(d), outer) => {
            if **groups != *d || outer.is_some_and(|o| o != d) {
                return None;
            }
        }
        // a semijoin against a domain the operator does not know about
        // cannot be folded into it
        (None, Some(_)) => return None,
    }
    Some(RankingChannel { op, inputs, params, groups })
}

/// Fuse the compiled dual-coding shape
/// `arith[add](arith_const[mul](A, w₀), arith_const[mul](B, w₁))`, where
/// `A` and `B` are ranking channels ([`ranking_channel`]) of one belief
/// operator over one domain — both the collection identity, or both
/// restricted to the same filter — into one two-channel fused operator.
/// The fused operator scores `(sum_A · w₀) + (sum_B · w₁)` in exactly this
/// order, a channel the document misses contributing `0.0`, so the
/// surviving pairs are bit-identical to the serial unfused plan.
///
/// Refuses (returns `None`) when a weight is negative or not finite: the
/// fused operator's pruning bound assumes every channel adds a
/// non-negative share, which engine callers that skip
/// `RetrievalRequest::validate` could otherwise break.
fn fuse_dual(plan: &Plan, k: usize, ops: &OpRegistry) -> Option<Plan> {
    fn weighted(p: &Plan) -> Option<(RankingChannel<'_>, f64)> {
        let Plan::ArithConst { input, op: ArithOp::Mul, val } = p else { return None };
        let w = val.as_float().filter(|w| w.is_finite() && *w >= 0.0)?;
        Some((ranking_channel(input)?, w))
    }
    let Plan::Arith { left, right, op: ArithOp::Add } = plan else { return None };
    let ((a, wa), (b, wb)) = (weighted(left)?, weighted(right)?);
    if a.op != b.op || a.inputs.len() != b.inputs.len() || a.groups != b.groups {
        return None;
    }
    fuse_channels(a.op, &[(a.params, wa), (b.params, wb)], a.inputs, k, ops)
}

/// Build the fused `<op>.topk` operator over weighted channels of the
/// belief operator `op`, restricted to `inputs` (the shared domain, if
/// any). `None` when no fused counterpart is registered.
///
/// The kernel convention: an extension that registers `X` may also
/// register `X.topk`, returning the k best `[oid, Σ weight·sum(X rows)]`
/// rows in rank order (the IR crate registers `contrep.getbl.topk`, the
/// `topk_bl` operator). Its parameters are one group per channel — the
/// channel weight, the number of `X` parameters that follow, then `X`'s
/// own parameters — and the budget last ([`topk_params`]).
fn fuse_channels(
    op: &str,
    channels: &[ChannelParams<'_>],
    inputs: &[Plan],
    k: usize,
    ops: &OpRegistry,
) -> Option<Plan> {
    let fused = format!("{op}.topk");
    if !ops.contains(&fused) {
        return None;
    }
    Some(Plan::Custom { op: fused, inputs: inputs.to_vec(), params: topk_params(channels, k) })
}

/// One channel of fused top-k parameters: the belief operator's own
/// parameters and the channel weight.
pub type ChannelParams<'a> = (&'a [Val], f64);

/// Encode fused top-k parameters:
/// `[(weight: Float, len: Int, <len channel parameters>)+, k: Int]`.
pub fn topk_params(channels: &[ChannelParams<'_>], k: usize) -> Vec<Val> {
    let mut out = Vec::new();
    for (params, weight) in channels {
        out.push(Val::Float(*weight));
        out.push(Val::Int(params.len() as i64));
        out.extend_from_slice(params);
    }
    out.push(Val::Int(k as i64));
    out
}

/// Decode [`topk_params`]: the `(channel parameters, weight)` groups and
/// the budget, or `None` when the layout is malformed.
pub fn split_topk_params(params: &[Val]) -> Option<(Vec<ChannelParams<'_>>, usize)> {
    let (Val::Int(k), mut rest) = params.split_last()? else { return None };
    let k = usize::try_from(*k).ok()?;
    let mut channels = Vec::new();
    while let [Val::Float(weight), Val::Int(len), tail @ ..] = rest {
        let len = usize::try_from(*len).ok().filter(|&l| l <= tail.len())?;
        channels.push((&tail[..len], *weight));
        rest = &tail[len..];
    }
    (rest.is_empty() && !channels.is_empty()).then_some((channels, k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use monet::bat::bat_of_ints;
    use monet::{Bat, Column};

    fn catalog() -> StatsCatalog {
        let mut s = StatsCatalog::new();
        s.set_column("Lib__self", monet::summarize(&identity_bat(1000)));
        s.set_column("Lib__size", {
            let vals: Vec<i64> = (0..1000).map(|i| i % 100).collect();
            monet::summarize(&Bat::dense(Column::Int(vals)))
        });
        s.set_index(
            "Lib__annotation",
            1000,
            [("sunset".to_string(), 40u32), ("beach".to_string(), 200u32)],
        );
        s
    }

    fn identity_bat(n: usize) -> Bat {
        Bat::new(Column::void(0, n), Column::void(0, n)).unwrap()
    }

    fn ops_with_fused() -> OpRegistry {
        let ops = OpRegistry::new();
        ops.register("contrep.getbl", |_ctx, _i, _p| Ok(bat_of_ints(vec![])));
        ops.register("contrep.getbl.topk", |_ctx, _i, _p| Ok(bat_of_ints(vec![])));
        ops
    }

    fn getbl(inputs: Vec<Plan>) -> Plan {
        Plan::Custom {
            op: "contrep.getbl".into(),
            inputs,
            params: vec![
                Val::Str("Lib__annotation".into()),
                Val::Str("sunset".into()),
                Val::Float(1.0),
            ],
        }
    }

    fn eq_filter(col: &str, v: i64) -> Plan {
        Plan::Mirror(Box::new(Plan::Select {
            input: Box::new(Plan::load(col)),
            pred: Pred::Eq(Val::Int(v)),
        }))
    }

    /// `sum(getBL(∅))` grouped by `groups`.
    fn ranking(groups: &str) -> Plan {
        Plan::GroupedAggr {
            values: Box::new(getbl(vec![])),
            groups: Box::new(Plan::load(groups)),
            agg: Agg::Sum,
        }
    }

    #[test]
    fn estimates_select_by_ndv_and_range_span() {
        let stats = catalog();
        let eq =
            Plan::Select { input: Box::new(Plan::load("Lib__size")), pred: Pred::Eq(Val::Int(7)) };
        // 1000 rows, ndv 100 → 10
        assert_eq!(estimate(&eq, &stats), Some(10));
        let range = Plan::Select {
            input: Box::new(Plan::load("Lib__size")),
            pred: Pred::Range {
                lo: Some(Val::Int(0)),
                lo_incl: true,
                hi: Some(Val::Int(49)),
                hi_incl: false,
            },
        };
        // about half the [0, 99] span
        let est = estimate(&range, &stats).unwrap();
        assert!((400..=600).contains(&est), "{est}");
    }

    #[test]
    fn estimates_belief_op_from_term_dfs() {
        let stats = catalog();
        assert_eq!(estimate(&getbl(vec![]), &stats), Some(40));
        // domain-restricted: capped by the domain estimate
        let dom = eq_filter("Lib__size", 3);
        assert_eq!(estimate(&getbl(vec![dom]), &stats), Some(10));
    }

    #[test]
    fn unknown_columns_estimate_to_none() {
        let stats = StatsCatalog::new();
        assert_eq!(estimate(&Plan::load("nope"), &stats), None);
    }

    /// `Lib__self ⋉ wide(StrContains ≈ 100) ⋉ narrow(Eq ≈ 10)`, and the
    /// same chain with the narrow filter first.
    fn filter_chain() -> (Plan, Plan) {
        let wide = Plan::Mirror(Box::new(Plan::Select {
            input: Box::new(Plan::load("Lib__size")),
            pred: Pred::StrContains("x".into()),
        }));
        let narrow = eq_filter("Lib__size", 3);
        let chain = |first: &Plan, second: &Plan| Plan::Semijoin {
            left: Box::new(Plan::Semijoin {
                left: Box::new(Plan::load("Lib__self")),
                right: Box::new(first.clone()),
            }),
            right: Box::new(second.clone()),
        };
        (chain(&wide, &narrow), chain(&narrow, &wide))
    }

    #[test]
    fn selection_order_puts_selective_filter_first() {
        let (plan, expect) = filter_chain();
        let mut moved = false;
        assert_eq!(reorder_chains(&plan, &catalog(), &mut moved), expect);
        assert!(moved);
        // an ordered chain stays put, and a repeated filter is dropped
        let mut moved = false;
        assert_eq!(reorder_chains(&expect, &catalog(), &mut moved), expect);
        assert!(!moved);
        let Plan::Semijoin { right: last, .. } = &expect else { unreachable!() };
        let repeated = Plan::Semijoin { left: Box::new(expect.clone()), right: last.clone() };
        assert_eq!(reorder_chains(&repeated, &catalog(), &mut moved), expect);
        assert!(moved);
    }

    #[test]
    fn selection_order_is_stable_without_stats() {
        let ops = ops_with_fused();
        let ctx = PassCtx {
            cfg: OptConfig::default(),
            stats: Arc::new(StatsCatalog::new()),
            ops: &ops,
            top_k: None,
        };
        let (plan, _) = filter_chain();
        let (out, hints) = Pipeline.optimize(&plan, &ctx);
        assert_eq!(out, plan);
        assert!(hints.passes_fired.is_empty(), "{:?}", hints.passes_fired);
        assert!(hints.est_rows.is_empty());
    }

    fn fuse_ctx(ops: &OpRegistry, cfg: OptConfig) -> PassCtx<'_> {
        PassCtx { cfg, stats: Arc::new(catalog()), ops, top_k: Some(10) }
    }

    #[test]
    fn topk_fuses_the_unrestricted_ranking_shape() {
        let ops = ops_with_fused();
        // single-channel fusion holds under every configuration
        for cfg in [OptConfig::default(), OptConfig::none()] {
            let fused = topk_fuse(&ranking("Lib__self"), 10, &fuse_ctx(&ops, cfg)).unwrap();
            let Plan::Custom { op, params, .. } = fused else { panic!("expected custom") };
            assert_eq!(op, "contrep.getbl.topk");
            let Plan::Custom { params: getbl, .. } = getbl(vec![]) else { unreachable!() };
            assert_eq!(split_topk_params(&params), Some((vec![(&getbl[..], 1.0)], 10)));
        }
    }

    #[test]
    fn topk_fuses_the_domain_restricted_shape() {
        let ops = ops_with_fused();
        let domain = Plan::Mirror(Box::new(Plan::Select {
            input: Box::new(Plan::load("Lib__source")),
            pred: monet::Pred::StrContains("x".into()),
        }));
        let plan = Plan::Semijoin {
            left: Box::new(Plan::GroupedAggr {
                values: Box::new(getbl(vec![domain.clone()])),
                groups: Box::new(domain.clone()),
                agg: Agg::Sum,
            }),
            right: Box::new(domain),
        };
        assert!(topk_fuse(&plan, 5, &fuse_ctx(&ops, OptConfig::none())).is_some());
    }

    #[test]
    fn topk_params_round_trip_and_reject_malformed_layouts() {
        let a = [Val::Str("A".into()), Val::Str("t".into()), Val::Float(1.0)];
        let b = [Val::Str("B".into())];
        let enc = topk_params(&[(&a, 0.25), (&b, 0.75)], 7);
        assert_eq!(split_topk_params(&enc), Some((vec![(&a[..], 0.25), (&b[..], 0.75)], 7)));
        let mut past_end = enc.clone();
        past_end[1] = Val::Int(99);
        let mut negative_k = enc.clone();
        *negative_k.last_mut().unwrap() = Val::Int(-1);
        for bad in [&enc[..enc.len() - 1], &enc[1..], &[Val::Int(3)], &past_end, &negative_k] {
            assert_eq!(split_topk_params(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn topk_refuses_unsafe_shapes() {
        let ops = ops_with_fused();
        let ctx = fuse_ctx(&ops, OptConfig::default());
        // groups that are not the identity / operator domain
        assert!(topk_fuse(&ranking("Other__map"), 10, &ctx).is_none());
        // a late-filter semijoin the operator knows nothing about
        let late = Plan::Semijoin {
            left: Box::new(ranking("Lib__self")),
            right: Box::new(Plan::load("survivors")),
        };
        assert!(topk_fuse(&late, 10, &ctx).is_none());
        // no fused operator registered
        let none = OpRegistry::new();
        assert!(
            topk_fuse(&ranking("Lib__self"), 10, &fuse_ctx(&none, OptConfig::default())).is_none()
        );
    }

    /// The compiled dual-coding shape over `getbl(inputs)` on two channels,
    /// grouped by `groups` (and semijoined with it when it is a domain).
    fn dual(inputs: Vec<Plan>, groups: Plan, tw: Val, vw: Val) -> Plan {
        let channel = |prefix: &str, term: &str, w: Val| {
            let mut sum = Plan::GroupedAggr {
                values: Box::new(Plan::Custom {
                    op: "contrep.getbl".into(),
                    inputs: inputs.clone(),
                    params: vec![Val::Str(prefix.into()), Val::Str(term.into()), Val::Float(1.0)],
                }),
                groups: Box::new(groups.clone()),
                agg: Agg::Sum,
            };
            if !inputs.is_empty() {
                sum = Plan::Semijoin { left: Box::new(sum), right: Box::new(groups.clone()) };
            }
            Plan::ArithConst { input: Box::new(sum), op: ArithOp::Mul, val: w }
        };
        Plan::Arith {
            left: Box::new(channel("Lib__annotation", "sunset", tw)),
            right: Box::new(channel("Lib__image", "gabor_3", vw)),
            op: ArithOp::Add,
        }
    }

    #[test]
    fn topk_pass_fuses_the_dual_shape() {
        let ops = ops_with_fused();
        let ctx = fuse_ctx(&ops, OptConfig::default());
        let plan = dual(vec![], Plan::load("Lib__self"), Val::Float(0.6), Val::Float(0.4));
        let out = topk_fuse(&plan, 10, &ctx);
        let Some(Plan::Custom { op, inputs, params }) = &out else {
            panic!("expected fused: {out:?}")
        };
        assert_eq!(op, "contrep.getbl.topk");
        assert!(inputs.is_empty());
        let (channels, k) = split_topk_params(params).unwrap();
        assert_eq!(k, 10);
        let summary: Vec<(&Val, f64)> = channels.iter().map(|(p, w)| (&p[0], *w)).collect();
        assert_eq!(
            summary,
            vec![(&Val::Str("Lib__annotation".into()), 0.6), (&Val::Str("Lib__image".into()), 0.4)]
        );
        // both channels restricted to one domain: the domain is the input
        let d = eq_filter("Lib__size", 3);
        let filtered = dual(vec![d.clone()], d.clone(), Val::Float(0.5), Val::Float(0.5));
        let Some(Plan::Custom { inputs, .. }) = topk_fuse(&filtered, 10, &ctx) else {
            panic!("filtered dual did not fuse")
        };
        assert_eq!(*inputs, [d]);
    }

    #[test]
    fn topk_pass_refuses_unsafe_dual_shapes() {
        let ops = ops_with_fused();
        let ctx = fuse_ctx(&ops, OptConfig::default());
        let self_ = || Plan::load("Lib__self");
        let refused = [
            // a negative or non-finite channel weight would break the bound
            dual(vec![], self_(), Val::Float(1.5), Val::Float(-0.5)),
            dual(vec![], self_(), Val::Float(f64::NAN), Val::Float(0.5)),
            dual(vec![], self_(), Val::Float(0.5), Val::Float(f64::INFINITY)),
        ];
        for plan in refused {
            assert!(topk_fuse(&plan, 10, &ctx).is_none(), "{plan:?}");
        }
        // channels over different domains
        let mixed_domains = {
            let Plan::Arith { left, .. } = dual(vec![], self_(), Val::Float(0.5), Val::Float(0.5))
            else {
                unreachable!()
            };
            let Plan::Arith { right, .. } = dual(
                vec![eq_filter("Lib__size", 3)],
                eq_filter("Lib__size", 3),
                Val::Float(0.5),
                Val::Float(0.5),
            ) else {
                unreachable!()
            };
            Plan::Arith { left, right, op: ArithOp::Add }
        };
        assert!(topk_fuse(&mixed_domains, 10, &ctx).is_none());
        // OptConfig::none() keeps the dual plan unfused: it is the oracle
        let none = fuse_ctx(&ops, OptConfig::none());
        let plan = dual(vec![], self_(), Val::Float(0.5), Val::Float(0.5));
        assert!(topk_fuse(&plan, 10, &none).is_none());
    }

    #[test]
    fn fused_dual_estimate_counts_both_channels_up_to_k() {
        let ops = ops_with_fused();
        let mut stats = catalog();
        stats.set_index("Lib__image", 1000, [("gabor_3".to_string(), 30u32)]);
        let ctx = fuse_ctx(&ops, OptConfig::default());
        let plan = dual(vec![], Plan::load("Lib__self"), Val::Float(0.5), Val::Float(0.5));
        let fused = topk_fuse(&plan, 10, &ctx).unwrap();
        // sunset (40) + gabor_3 (30), capped by the budget of 10
        assert_eq!(estimate(&fused, &stats), Some(10));
        let Plan::Custom { op, inputs, params } = fused else { unreachable!() };
        let (channels, _) = split_topk_params(&params).unwrap();
        let wide = Plan::Custom { op, inputs, params: topk_params(&channels, 500) };
        assert_eq!(estimate(&wide, &stats), Some(70));
    }

    #[test]
    fn pipeline_reports_fired_passes_and_annotates() {
        let ops = ops_with_fused();
        let (plan, _) = filter_chain();
        let ctx = PassCtx { top_k: None, ..fuse_ctx(&ops, OptConfig::default()) };
        let (out, hints) = Pipeline.optimize(&plan, &ctx);
        assert_eq!(hints.passes_fired, ["selection_order"]);
        // one estimate per node, each that of the subtree at its node id
        assert_eq!(hints.est_rows.len(), out.size());
        let stats = catalog();
        for (id, node) in out.post_order().into_iter().enumerate() {
            assert_eq!(hints.est_rows[id], estimate(node, &stats), "node #{id}: {node:?}");
        }
        assert_eq!(hints.est_rows.last(), Some(&estimate(&out, &stats)));
        assert!(hints.est_rows.iter().all(Option::is_some), "{:?}", hints.est_rows);
        // a ranking with a budget reports its fusion
        let (_, hints) =
            Pipeline.optimize(&ranking("Lib__self"), &fuse_ctx(&ops, OptConfig::default()));
        assert_eq!(hints.passes_fired, ["topk_fuse"]);
    }
}
