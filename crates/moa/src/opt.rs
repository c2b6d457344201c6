//! Statistics-driven optimizer pass framework.
//!
//! [`crate::rewrite`] is a fixed rule pipeline; this module generalises it
//! into composable [`Pass`]es over physical plans, fed by a [`StatsCatalog`]
//! collected at ingest time (per-column row counts, NDV and min/max via
//! [`monet::summarize`]; per-term document frequencies from the IR layer's
//! inverted indexes). The standard pipeline runs:
//!
//! 1. **peephole** — the classic rewrites of
//!    [`crate::rewrite::rewrite_physical`] (gated by [`OptConfig::peephole`]);
//! 2. **selection_order** — reorders semijoin filter chains so the most
//!    selective filter applies first. Sound for *any* filters: a semijoin
//!    keeps rows of its left input whose head occurs among the right's
//!    heads, preserving left order, so a chain over one base intersects
//!    head sets — commutative in the filters by construction;
//! 3. **push_domain** — semijoin placement: moves a selective domain
//!    *into* a belief operator (`contrep.getbl` convention: the first BAT
//!    input restricts scoring to that domain, per-document scores are
//!    domain-independent), so ranking scores only the surviving documents
//!    — and the plan then matches the fusable domain-restricted shape;
//! 4. **topk_fuse** — [`crate::rewrite::rewrite_topk`] as a pass, extended
//!    to fuse the late-filter variant (`semijoin(grouped_sum(getbl), S)`)
//!    directly into the fused operator with `S` as its domain input, and
//!    the dual-coding shape (a weighted sum of two channels' grouped
//!    belief sums) into one two-channel fused operator.
//!
//! After the passes run, every node of the final plan is annotated with an
//! estimated output cardinality ([`estimate`]) and an estimate-driven
//! parallel-degree cap, which the kernel [`monet::Executor`] renders in
//! EXPLAIN as `est≈N` next to actual row counts and consults when choosing
//! fragmentation degrees.

use crate::rewrite::{
    fuse_channels, map_children, ranking_channel, rewrite_physical, rewrite_topk,
    split_topk_params, OptConfig, RankingChannel,
};
use monet::fxhash::FxHashMap;
use monet::{Agg, ArithOp, ColSummary, OpRegistry, Plan, Pred, Val};
use std::collections::HashMap;
use std::sync::Arc;

/// Per-inverted-index statistics: corpus size and per-term document
/// frequencies, keyed under the index's BAT-name prefix
/// (e.g. `Lib__annotation`).
#[derive(Debug, Default, Clone)]
pub struct IndexStats {
    /// Number of documents in the indexed collection.
    pub n_docs: u64,
    /// Document frequency per (stemmed) term.
    pub dfs: HashMap<String, u32>,
}

/// The statistics catalog: ingest-time summaries that feed the
/// cost estimator. Cheap to clone-on-write; the environment stores it
/// behind an `Arc` swapped atomically on updates.
#[derive(Debug, Default, Clone)]
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

    /// Number of column summaries held.
    pub fn columns_len(&self) -> usize {
        self.columns.len()
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
    match plan {
        Plan::Load(name) => stats.column(name).map(|c| c.rows),
        Plan::Const(b) => Some(b.count() as u64),
        Plan::Select { input, pred } => {
            let in_rows = estimate(input, stats)?;
            let col = if let Plan::Load(n) = &**input { stats.column(n) } else { None };
            Some((in_rows as f64 * pred_selectivity(pred, col)).ceil() as u64)
        }
        Plan::Join { left, .. } => estimate(left, stats),
        Plan::Semijoin { left, right } => match (estimate(left, stats), estimate(right, stats)) {
            (Some(l), Some(r)) => Some(l.min(r)),
            (l, r) => l.or(r),
        },
        Plan::Reverse(p) | Plan::Mirror(p) | Plan::Distinct(p) => estimate(p, stats),
        Plan::Mark { input, .. }
        | Plan::ProjectConst { input, .. }
        | Plan::SortTail { input, .. }
        | Plan::ArithConst { input, .. } => estimate(input, stats),
        Plan::Aggr { .. } => Some(1),
        Plan::GroupedAggr { groups, .. } => estimate(groups, stats),
        Plan::TopN { input, k, .. } => {
            Some(estimate(input, stats).map_or(*k as u64, |e| e.min(*k as u64)))
        }
        Plan::Slice { input, lo, hi } => {
            let cap = hi.saturating_sub(*lo) as u64;
            Some(estimate(input, stats).map_or(cap, |e| e.min(cap)))
        }
        Plan::KUnion { left, right } => {
            Some(estimate(left, stats)?.saturating_add(estimate(right, stats)?))
        }
        Plan::KDiff { left, .. } => estimate(left, stats), // upper bound
        Plan::Arith { left, right, .. } => match (estimate(left, stats), estimate(right, stats)) {
            (Some(l), Some(r)) => Some(l.min(r)),
            (l, r) => l.or(r),
        },
        Plan::Custom { op, inputs, params } => {
            let mut est = if op.ends_with(".topk") {
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
            if let Some(d) = inputs.first().and_then(|d| estimate(d, stats)) {
                est = est.min(d);
            }
            Some(est)
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

/// Shared context the passes run under.
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

/// One plan-to-plan transformation. Passes must preserve the executed
/// result (bit-identical under the documented operator contracts) — the
/// workspace property tests hold every registered pass to that.
pub trait Pass: Send + Sync {
    /// Short name, reported in EXPLAIN when the pass changed the plan.
    fn name(&self) -> &'static str;
    /// Whether the pass applies under this context (default: always).
    fn enabled(&self, _ctx: &PassCtx) -> bool {
        true
    }
    /// Transform the plan.
    fn apply(&self, plan: &Plan, ctx: &PassCtx) -> Plan;
}

/// Side-channel produced by [`Pipeline::optimize`]: per-node cardinality
/// estimates and degree caps (keyed by plan fingerprint, the kernel's
/// trace key), plus which passes changed the plan.
#[derive(Debug, Default, Clone)]
pub struct PlanHints {
    /// Estimated output rows per plan node.
    pub est_rows: FxHashMap<u64, u64>,
    /// Parallel-degree cap per plan node (estimate-driven; the executor
    /// only ever lowers its configured degree by these).
    pub degree_cap: FxHashMap<u64, usize>,
    /// Names of the passes that changed the plan, in pipeline order.
    pub passes_fired: Vec<&'static str>,
}

/// A registered sequence of optimizer passes.
pub struct Pipeline {
    passes: Vec<Box<dyn Pass>>,
}

impl Pipeline {
    /// The standard pipeline: peephole → selection_order → push_domain →
    /// topk_fuse.
    pub fn standard() -> Pipeline {
        Pipeline {
            passes: vec![
                Box::new(PeepholePass),
                Box::new(SelectionOrderPass),
                Box::new(PushDomainPass),
                Box::new(TopKFusePass),
            ],
        }
    }

    /// An empty pipeline (register passes with [`Pipeline::register`]).
    pub fn empty() -> Pipeline {
        Pipeline { passes: Vec::new() }
    }

    /// Append a pass to the pipeline.
    pub fn register(&mut self, pass: Box<dyn Pass>) -> &mut Self {
        self.passes.push(pass);
        self
    }

    /// Names of the registered passes, in order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Run every enabled pass in order, then annotate the final plan with
    /// cardinality estimates and degree caps (when statistics exist and
    /// [`OptConfig::stats_driven`] is on).
    pub fn optimize(&self, plan: &Plan, ctx: &PassCtx) -> (Plan, PlanHints) {
        let mut current = plan.clone();
        let mut hints = PlanHints::default();
        for pass in &self.passes {
            if !pass.enabled(ctx) {
                continue;
            }
            let next = pass.apply(&current, ctx);
            if next.fingerprint() != current.fingerprint() {
                hints.passes_fired.push(pass.name());
            }
            current = next;
        }
        if ctx.cfg.stats_driven && !ctx.stats.is_empty() {
            annotate(&current, ctx, &mut hints);
        }
        (current, hints)
    }
}

/// Rows of estimated input an operator should have per thread before
/// fragment-parallelism is worth its scoped-thread overhead; mirrors the
/// kernel's `min_fragment_rows` default.
const ROWS_PER_THREAD: usize = monet::fragment::DEFAULT_MIN_FRAGMENT_ROWS;

fn annotate(plan: &Plan, ctx: &PassCtx, hints: &mut PlanHints) {
    if let Some(est) = estimate(plan, &ctx.stats) {
        let fp = plan.fingerprint();
        hints.est_rows.insert(fp, est);
        hints.degree_cap.insert(fp, (est as usize / ROWS_PER_THREAD).max(1));
    }
    for child in plan.children() {
        annotate(child, ctx, hints);
    }
}

/// The classic peephole rewrites, as a pass.
pub struct PeepholePass;

impl Pass for PeepholePass {
    fn name(&self) -> &'static str {
        "peephole"
    }
    fn apply(&self, plan: &Plan, ctx: &PassCtx) -> Plan {
        rewrite_physical(plan, ctx.cfg) // gated by cfg.peephole internally
    }
}

/// Statistics-driven selection ordering over semijoin filter chains.
pub struct SelectionOrderPass;

impl Pass for SelectionOrderPass {
    fn name(&self) -> &'static str {
        "selection_order"
    }
    fn enabled(&self, ctx: &PassCtx) -> bool {
        ctx.cfg.stats_driven && !ctx.stats.is_empty()
    }
    fn apply(&self, plan: &Plan, ctx: &PassCtx) -> Plan {
        reorder_chains(plan, &ctx.stats)
    }
}

fn reorder_chains(plan: &Plan, stats: &StatsCatalog) -> Plan {
    let node = map_children(plan, &|c| reorder_chains(c, stats));
    if !matches!(node, Plan::Semijoin { .. }) {
        return node;
    }
    // Flatten the left-deep chain base ⋉ f1 ⋉ f2 ⋉ …; a semijoin keeps
    // rows of the base whose head occurs in every filter's head set, so
    // the filters commute (and duplicates by fingerprint are no-ops).
    let mut filters: Vec<Plan> = Vec::new();
    let mut base = node;
    while let Plan::Semijoin { left, right } = base {
        filters.push(*right);
        base = *left;
    }
    filters.reverse(); // applied order: innermost first
    let mut seen = monet::fxhash::FxHashSet::default();
    filters.retain(|f| seen.insert(f.fingerprint()));
    // Most selective (smallest estimated head set) first; unknown-size
    // filters keep their relative order at the end.
    let keyed: Vec<(u64, usize)> = filters
        .iter()
        .enumerate()
        .map(|(i, f)| (estimate(f, stats).unwrap_or(u64::MAX), i))
        .collect();
    let mut order: Vec<usize> = (0..filters.len()).collect();
    order.sort_by_key(|&i| keyed[i]);
    let reordered: Vec<Plan> = {
        let mut tagged: Vec<Option<Plan>> = filters.into_iter().map(Some).collect();
        order.iter().map(|&i| tagged[i].take().expect("each index used once")).collect()
    };
    reordered
        .into_iter()
        .fold(base, |acc, f| Plan::Semijoin { left: Box::new(acc), right: Box::new(f) })
}

/// Does a custom operator follow the belief-operator domain convention:
/// its first BAT input (if present) restricts scoring to that domain's
/// oids, and per-document output is independent of the domain? The
/// CONTREP structure's `*.getbl` operators are the registered case.
fn op_accepts_domain(op: &str) -> bool {
    op.ends_with(".getbl")
}

/// Semijoin placement: push a selective domain into a belief operator.
///
/// `semijoin(grouped_sum(getbl(∅), groups=identity), D)` scores the whole
/// corpus and then discards non-`D` rows. When statistics say `D` is
/// smaller than the corpus, rewrite to
/// `semijoin(grouped_sum(getbl(D), groups=D), D)`: the operator scores
/// only `D`'s documents (bit-identical per-document sums — same addends in
/// the same order), the grouped sum zero-fills exactly as before, and the
/// resulting shape is the fusable domain-restricted ranking.
pub struct PushDomainPass;

impl Pass for PushDomainPass {
    fn name(&self) -> &'static str {
        "push_domain"
    }
    fn enabled(&self, ctx: &PassCtx) -> bool {
        ctx.cfg.stats_driven && !ctx.stats.is_empty()
    }
    fn apply(&self, plan: &Plan, ctx: &PassCtx) -> Plan {
        push_domains(plan, &ctx.stats)
    }
}

fn push_domains(plan: &Plan, stats: &StatsCatalog) -> Plan {
    let node = map_children(plan, &|c| push_domains(c, stats));
    let Plan::Semijoin { left, right } = node else { return node };
    let pushed = (|| {
        let Plan::GroupedAggr { values, groups, agg: Agg::Sum } = &*left else { return None };
        let Plan::Custom { op, inputs, params } = &**values else { return None };
        if !inputs.is_empty() || !op_accepts_domain(op) {
            return None;
        }
        let Plan::Load(gname) = &**groups else { return None };
        if !gname.ends_with("__self") {
            return None;
        }
        let corpus = stats.column(gname)?.rows;
        let domain_est = estimate(&right, stats)?;
        if domain_est >= corpus {
            return None;
        }
        Some(Plan::Semijoin {
            left: Box::new(Plan::GroupedAggr {
                values: Box::new(Plan::Custom {
                    op: op.clone(),
                    inputs: vec![(*right).clone()],
                    params: params.clone(),
                }),
                groups: right.clone(),
                agg: Agg::Sum,
            }),
            right: right.clone(),
        })
    })();
    pushed.unwrap_or(Plan::Semijoin { left, right })
}

/// Top-k fusion as a pass: the single-channel shapes of
/// [`crate::rewrite::rewrite_topk`] fuse unconditionally (kept identical to
/// the pre-pass-framework behaviour); under [`OptConfig::stats_driven`]
/// two more shapes fuse into the same multi-channel operator:
///
/// * the late-filter variant — a semijoin against a domain the operator
///   does not know about — by handing the domain to the fused operator as
///   its input;
/// * the dual-coding shape `sum(getBL(a))·w₀ + sum(getBL(b))·w₁` that
///   dual and relevance-feedback requests compile to, into one
///   two-channel fused operator.
///
/// [`OptConfig::none`] leaves both unfused: it is the reference plan the
/// fused ones are tested against.
pub struct TopKFusePass;

impl Pass for TopKFusePass {
    fn name(&self) -> &'static str {
        "topk_fuse"
    }
    fn enabled(&self, ctx: &PassCtx) -> bool {
        ctx.top_k.is_some()
    }
    fn apply(&self, plan: &Plan, ctx: &PassCtx) -> Plan {
        let k = ctx.top_k.expect("enabled() checked");
        let fused = rewrite_topk(plan, k, ctx.ops).or_else(|| {
            if !ctx.cfg.stats_driven {
                return None;
            }
            fuse_late_filter(plan, k, ctx.ops).or_else(|| fuse_dual(plan, k, ctx.ops))
        });
        fused.unwrap_or_else(|| plan.clone())
    }
}

/// Fuse `semijoin(grouped_sum(getbl(∅), groups=identity), S)` — ranking
/// late-filtered by an arbitrary survivor set `S` — into
/// `getbl.topk(S, …, k)`: the fused operator restricted to `S` computes
/// the k best nonzero-mass survivors, which is exactly the top-k budget
/// contract of the unfused plan (rank, drop zero rows, truncate to k).
fn fuse_late_filter(plan: &Plan, k: usize, ops: &OpRegistry) -> Option<Plan> {
    let Plan::Semijoin { left, right } = plan else { return None };
    let Plan::GroupedAggr { values, groups, agg: Agg::Sum } = &**left else { return None };
    let Plan::Custom { op, inputs, params } = &**values else { return None };
    if !inputs.is_empty() || !op_accepts_domain(op) {
        return None;
    }
    match &**groups {
        Plan::Load(name) if name.ends_with("__self") => {}
        _ => return None,
    }
    fuse_channels(op, &[(params, 1.0)], std::slice::from_ref(&**right), k, ops)
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
    if a.op != b.op
        || a.inputs.len() != b.inputs.len()
        || a.groups.fingerprint() != b.groups.fingerprint()
    {
        return None;
    }
    fuse_channels(a.op, &[(a.params, wa), (b.params, wb)], a.inputs, k, ops)
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

    fn ctx_parts() -> (StatsCatalog, OpRegistry) {
        (catalog(), ops_with_fused())
    }

    #[test]
    fn selection_order_puts_selective_filter_first() {
        let (stats, ops) = ctx_parts();
        let ctx =
            PassCtx { cfg: OptConfig::default(), stats: Arc::new(stats), ops: &ops, top_k: None };
        // base ⋉ wide(StrContains ≈ 100) ⋉ narrow(Eq ≈ 10)
        let wide = Plan::Mirror(Box::new(Plan::Select {
            input: Box::new(Plan::load("Lib__size")),
            pred: Pred::StrContains("x".into()),
        }));
        let narrow = eq_filter("Lib__size", 3);
        let plan = Plan::Semijoin {
            left: Box::new(Plan::Semijoin {
                left: Box::new(Plan::load("Lib__self")),
                right: Box::new(wide.clone()),
            }),
            right: Box::new(narrow.clone()),
        };
        let out = SelectionOrderPass.apply(&plan, &ctx);
        let expect = Plan::Semijoin {
            left: Box::new(Plan::Semijoin {
                left: Box::new(Plan::load("Lib__self")),
                right: Box::new(narrow),
            }),
            right: Box::new(wide),
        };
        assert_eq!(out.fingerprint(), expect.fingerprint());
    }

    #[test]
    fn selection_order_is_stable_without_stats() {
        let (_, ops) = ctx_parts();
        let ctx = PassCtx {
            cfg: OptConfig::default(),
            stats: Arc::new(StatsCatalog::new()),
            ops: &ops,
            top_k: None,
        };
        assert!(!SelectionOrderPass.enabled(&ctx));
    }

    #[test]
    fn push_domain_moves_selective_domain_into_the_operator() {
        let (stats, ops) = ctx_parts();
        let ctx =
            PassCtx { cfg: OptConfig::default(), stats: Arc::new(stats), ops: &ops, top_k: None };
        let domain = eq_filter("Lib__size", 3); // est 10 ≪ 1000
        let plan = Plan::Semijoin {
            left: Box::new(Plan::GroupedAggr {
                values: Box::new(getbl(vec![])),
                groups: Box::new(Plan::load("Lib__self")),
                agg: Agg::Sum,
            }),
            right: Box::new(domain.clone()),
        };
        let out = PushDomainPass.apply(&plan, &ctx);
        let Plan::Semijoin { left, .. } = &out else { panic!("semijoin kept") };
        let Plan::GroupedAggr { values, groups, .. } = &**left else { panic!("grouped sum kept") };
        assert_eq!(groups.fingerprint(), domain.fingerprint());
        let Plan::Custom { inputs, .. } = &**values else { panic!("custom kept") };
        assert_eq!(inputs.len(), 1, "domain became the operator input");
        // and the result now fuses under the legacy domain-restricted rule
        assert!(rewrite_topk(&out, 5, &ops).is_some());
    }

    #[test]
    fn push_domain_refuses_unselective_or_unknown_domains() {
        let (stats, ops) = ctx_parts();
        let ctx =
            PassCtx { cfg: OptConfig::default(), stats: Arc::new(stats), ops: &ops, top_k: None };
        // whole-corpus "domain": not selective
        let plan = Plan::Semijoin {
            left: Box::new(Plan::GroupedAggr {
                values: Box::new(getbl(vec![])),
                groups: Box::new(Plan::load("Lib__self")),
                agg: Agg::Sum,
            }),
            right: Box::new(Plan::load("Lib__self")),
        };
        assert_eq!(PushDomainPass.apply(&plan, &ctx).fingerprint(), plan.fingerprint());
        // unknown domain size: refuse
        let plan2 = Plan::Semijoin {
            left: Box::new(Plan::GroupedAggr {
                values: Box::new(getbl(vec![])),
                groups: Box::new(Plan::load("Lib__self")),
                agg: Agg::Sum,
            }),
            right: Box::new(Plan::load("mystery")),
        };
        assert_eq!(PushDomainPass.apply(&plan2, &ctx).fingerprint(), plan2.fingerprint());
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

    fn fuse_ctx(stats: StatsCatalog, ops: &OpRegistry, cfg: OptConfig) -> PassCtx<'_> {
        PassCtx { cfg, stats: Arc::new(stats), ops, top_k: Some(10) }
    }

    #[test]
    fn topk_pass_fuses_the_dual_shape() {
        let (stats, ops) = ctx_parts();
        let ctx = fuse_ctx(stats, &ops, OptConfig::default());
        let plan = dual(vec![], Plan::load("Lib__self"), Val::Float(0.6), Val::Float(0.4));
        let out = TopKFusePass.apply(&plan, &ctx);
        let Plan::Custom { op, inputs, params } = &out else { panic!("expected fused: {out:?}") };
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
        let Plan::Custom { inputs, .. } = TopKFusePass.apply(&filtered, &ctx) else {
            panic!("filtered dual did not fuse")
        };
        assert_eq!(inputs.iter().map(Plan::fingerprint).collect::<Vec<_>>(), vec![d.fingerprint()]);
    }

    #[test]
    fn topk_pass_refuses_unsafe_dual_shapes() {
        let (stats, ops) = ctx_parts();
        let ctx = fuse_ctx(stats, &ops, OptConfig::default());
        let self_ = || Plan::load("Lib__self");
        let refused = [
            // a negative or non-finite channel weight would break the bound
            dual(vec![], self_(), Val::Float(1.5), Val::Float(-0.5)),
            dual(vec![], self_(), Val::Float(f64::NAN), Val::Float(0.5)),
            dual(vec![], self_(), Val::Float(0.5), Val::Float(f64::INFINITY)),
        ];
        for plan in refused {
            assert_eq!(TopKFusePass.apply(&plan, &ctx).fingerprint(), plan.fingerprint());
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
        assert_eq!(
            TopKFusePass.apply(&mixed_domains, &ctx).fingerprint(),
            mixed_domains.fingerprint()
        );
        // OptConfig::none() keeps the dual plan unfused: it is the oracle
        let (stats, ops) = ctx_parts();
        let none = fuse_ctx(stats, &ops, OptConfig::none());
        let plan = dual(vec![], self_(), Val::Float(0.5), Val::Float(0.5));
        assert_eq!(TopKFusePass.apply(&plan, &none).fingerprint(), plan.fingerprint());
    }

    #[test]
    fn fused_dual_estimate_counts_both_channels_up_to_k() {
        let (mut stats, ops) = ctx_parts();
        stats.set_index("Lib__image", 1000, [("gabor_3".to_string(), 30u32)]);
        let ctx = fuse_ctx(stats.clone(), &ops, OptConfig::default());
        let plan = dual(vec![], Plan::load("Lib__self"), Val::Float(0.5), Val::Float(0.5));
        let fused = TopKFusePass.apply(&plan, &ctx);
        // sunset (40) + gabor_3 (30), capped by the budget of 10
        assert_eq!(estimate(&fused, &stats), Some(10));
        let Plan::Custom { op, inputs, params } = fused else { unreachable!() };
        let (channels, _) = split_topk_params(&params).unwrap();
        let wide = Plan::Custom { op, inputs, params: crate::rewrite::topk_params(&channels, 500) };
        assert_eq!(estimate(&wide, &stats), Some(70));
    }

    #[test]
    fn topk_pass_fuses_the_late_filter_variant() {
        let (stats, ops) = ctx_parts();
        let ctx = PassCtx {
            cfg: OptConfig::default(),
            stats: Arc::new(stats),
            ops: &ops,
            top_k: Some(10),
        };
        let late = Plan::Semijoin {
            left: Box::new(Plan::GroupedAggr {
                values: Box::new(getbl(vec![])),
                groups: Box::new(Plan::load("Lib__self")),
                agg: Agg::Sum,
            }),
            right: Box::new(Plan::load("survivors")),
        };
        let out = TopKFusePass.apply(&late, &ctx);
        let Plan::Custom { op, inputs, params } = &out else { panic!("expected fused custom") };
        assert_eq!(op, "contrep.getbl.topk");
        assert_eq!(inputs.len(), 1);
        assert_eq!(params.last(), Some(&Val::Int(10)));
        // without stats_driven the late variant stays unfused (legacy none())
        let ctx_off = PassCtx { cfg: OptConfig::none(), top_k: Some(10), ..ctx };
        assert_eq!(TopKFusePass.apply(&late, &ctx_off).fingerprint(), late.fingerprint());
    }

    #[test]
    fn pipeline_reports_fired_passes_and_annotates() {
        let (stats, ops) = ctx_parts();
        let ctx =
            PassCtx { cfg: OptConfig::default(), stats: Arc::new(stats), ops: &ops, top_k: None };
        let plan = Plan::Semijoin {
            left: Box::new(Plan::Semijoin {
                left: Box::new(Plan::load("Lib__self")),
                right: Box::new(Plan::Mirror(Box::new(Plan::Select {
                    input: Box::new(Plan::load("Lib__size")),
                    pred: Pred::StrContains("x".into()),
                }))),
            }),
            right: Box::new(eq_filter("Lib__size", 3)),
        };
        let (out, hints) = Pipeline::standard().optimize(&plan, &ctx);
        assert!(hints.passes_fired.contains(&"selection_order"), "{:?}", hints.passes_fired);
        assert!(hints.est_rows.contains_key(&out.fingerprint()));
        // every annotated node has a degree cap too
        assert_eq!(hints.est_rows.len(), hints.degree_cap.len());
    }
}
