//! Physical query plans and their interpreting executor.
//!
//! A [`Plan`] is a tree of BAT-algebra operators; the Moa layer produces
//! these by flattening logical object-algebra expressions. The [`Executor`]
//! interprets a plan against a [`Catalog`] and an [`OpRegistry`], recording
//! per-operator statistics (operator invocations, rows produced, wall
//! time) and optionally memoising common subexpressions. Every operator
//! runs serially over whole columns: a request's parallelism is the server
//! worker that runs it. [`Executor::explain`] shows, per operator, the
//! rows it produced.

use crate::aggr::Agg;
use crate::bat::Bat;
use crate::catalog::Catalog;
use crate::column::Column;
use crate::error::{MonetError, Result};
use crate::ext::{OpCtx, OpRegistry, RequestView};
use crate::fxhash::FxHashMap;
use crate::value::{Oid, Val};
use std::fmt::Write as _;
use std::hash::Hasher;
use std::ops::Bound;
use std::sync::Arc;
use std::time::Instant;

/// Tail predicate of a `Select` node.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// Tail equals the value.
    Eq(Val),
    /// Tail within the (optional) bounds.
    Range {
        /// Lower bound, if any.
        lo: Option<Val>,
        /// Lower bound inclusive?
        lo_incl: bool,
        /// Upper bound, if any.
        hi: Option<Val>,
        /// Upper bound inclusive?
        hi_incl: bool,
    },
    /// String tail contains the pattern.
    StrContains(String),
}

/// Element-wise arithmetic between two aligned `[oid, number]` BATs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (yields float).
    Div,
}

/// Re-export of the aggregate kind used in plans.
pub type AggKind = Agg;

/// A physical plan node.
#[derive(Debug, Clone)]
pub enum Plan {
    /// Load a named BAT from the catalog.
    Load(String),
    /// Literal BAT.
    Const(Arc<Bat>),
    /// Filter rows by a tail predicate.
    Select {
        /// Input plan.
        input: Box<Plan>,
        /// Predicate applied to the tail.
        pred: Pred,
    },
    /// `[L.head, R.tail]` on `L.tail == R.head`.
    Join {
        /// Probe side.
        left: Box<Plan>,
        /// Build side.
        right: Box<Plan>,
    },
    /// Rows of `left` whose head occurs among `right`'s heads.
    Semijoin {
        /// Restricted side.
        left: Box<Plan>,
        /// Filter side.
        right: Box<Plan>,
    },
    /// Swap head and tail.
    Reverse(Box<Plan>),
    /// `[head, head]`.
    Mirror(Box<Plan>),
    /// `[head, void(base..)]`.
    Mark {
        /// Input plan.
        input: Box<Plan>,
        /// First fresh oid.
        base: Oid,
    },
    /// `[head, const]`.
    ProjectConst {
        /// Input plan.
        input: Box<Plan>,
        /// The constant.
        val: Val,
    },
    /// Scalar aggregate of the tail → 1-row dense BAT.
    Aggr {
        /// Input plan.
        input: Box<Plan>,
        /// Aggregate kind.
        agg: Agg,
    },
    /// Grouped aggregate: `values` is `[key, number]`, `groups` is
    /// `[key, gid]`; result `[gid, agg]`.
    GroupedAggr {
        /// The `[key, value]` input.
        values: Box<Plan>,
        /// The `[key, gid]` mapping.
        groups: Box<Plan>,
        /// Aggregate kind.
        agg: Agg,
    },
    /// Stable sort by tail.
    SortTail {
        /// Input plan.
        input: Box<Plan>,
        /// Descending?
        desc: bool,
    },
    /// Best-k rows by tail.
    TopN {
        /// Input plan.
        input: Box<Plan>,
        /// How many rows to keep.
        k: usize,
        /// Take greatest tails first?
        desc: bool,
    },
    /// Rows `[lo, hi)`.
    Slice {
        /// Input plan.
        input: Box<Plan>,
        /// First row.
        lo: usize,
        /// One-past-last row.
        hi: usize,
    },
    /// One row per distinct tail.
    Distinct(Box<Plan>),
    /// Key-based union (left wins on duplicates).
    KUnion {
        /// Left operand.
        left: Box<Plan>,
        /// Right operand.
        right: Box<Plan>,
    },
    /// Rows of left whose head is absent from right.
    KDiff {
        /// Left operand.
        left: Box<Plan>,
        /// Right operand.
        right: Box<Plan>,
    },
    /// Element-wise arithmetic between two `[oid, number]` BATs aligned on
    /// head.
    Arith {
        /// Left operand.
        left: Box<Plan>,
        /// Right operand.
        right: Box<Plan>,
        /// The operation.
        op: ArithOp,
    },
    /// Tail `op` constant.
    ArithConst {
        /// Input plan.
        input: Box<Plan>,
        /// The operation.
        op: ArithOp,
        /// The constant (right operand).
        val: Val,
    },
    /// Invoke a registered custom operator.
    Custom {
        /// Operator name in the [`OpRegistry`].
        op: String,
        /// BAT inputs.
        inputs: Vec<Plan>,
        /// Scalar parameters.
        params: Vec<Val>,
    },
}

impl Plan {
    /// Load node helper.
    pub fn load(name: impl Into<String>) -> Plan {
        Plan::Load(name.into())
    }

    /// Structural fingerprint for memoisation. Collisions are possible in
    /// principle but would require engineered inputs; the memo also stores
    /// only within a single execution.
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::fxhash::FxHasher::default();
        self.hash_into(&mut h);
        h.finish()
    }

    fn hash_into(&self, h: &mut crate::fxhash::FxHasher) {
        match self {
            Plan::Load(n) => {
                h.write_u8(1);
                h.write(n.as_bytes());
            }
            Plan::Const(b) => {
                h.write_u8(2);
                h.write_usize(Arc::as_ptr(b) as usize);
            }
            Plan::Select { input, pred } => {
                h.write_u8(3);
                input.hash_into(h);
                match pred {
                    Pred::Eq(v) => {
                        h.write_u8(0);
                        h.write_u64(v.fingerprint());
                    }
                    Pred::Range { lo, lo_incl, hi, hi_incl } => {
                        h.write_u8(1);
                        h.write_u8(u8::from(*lo_incl) | (u8::from(*hi_incl) << 1));
                        h.write_u64(lo.as_ref().map_or(0, Val::fingerprint));
                        h.write_u64(hi.as_ref().map_or(0, Val::fingerprint));
                    }
                    Pred::StrContains(s) => {
                        h.write_u8(2);
                        h.write(s.as_bytes());
                    }
                }
            }
            Plan::Join { left, right } => {
                h.write_u8(4);
                left.hash_into(h);
                right.hash_into(h);
            }
            Plan::Semijoin { left, right } => {
                h.write_u8(5);
                left.hash_into(h);
                right.hash_into(h);
            }
            Plan::Reverse(p) => {
                h.write_u8(6);
                p.hash_into(h);
            }
            Plan::Mirror(p) => {
                h.write_u8(7);
                p.hash_into(h);
            }
            Plan::Mark { input, base } => {
                h.write_u8(8);
                input.hash_into(h);
                h.write_u32(*base);
            }
            Plan::ProjectConst { input, val } => {
                h.write_u8(9);
                input.hash_into(h);
                h.write_u64(val.fingerprint());
            }
            Plan::Aggr { input, agg } => {
                h.write_u8(10);
                input.hash_into(h);
                h.write_u8(*agg as u8);
            }
            Plan::GroupedAggr { values, groups, agg } => {
                h.write_u8(11);
                values.hash_into(h);
                groups.hash_into(h);
                h.write_u8(*agg as u8);
            }
            Plan::SortTail { input, desc } => {
                h.write_u8(12);
                input.hash_into(h);
                h.write_u8(u8::from(*desc));
            }
            Plan::TopN { input, k, desc } => {
                h.write_u8(13);
                input.hash_into(h);
                h.write_usize(*k);
                h.write_u8(u8::from(*desc));
            }
            Plan::Slice { input, lo, hi } => {
                h.write_u8(14);
                input.hash_into(h);
                h.write_usize(*lo);
                h.write_usize(*hi);
            }
            Plan::Distinct(p) => {
                h.write_u8(15);
                p.hash_into(h);
            }
            Plan::KUnion { left, right } => {
                h.write_u8(16);
                left.hash_into(h);
                right.hash_into(h);
            }
            Plan::KDiff { left, right } => {
                h.write_u8(17);
                left.hash_into(h);
                right.hash_into(h);
            }
            Plan::Arith { left, right, op } => {
                h.write_u8(18);
                left.hash_into(h);
                right.hash_into(h);
                h.write_u8(*op as u8);
            }
            Plan::ArithConst { input, op, val } => {
                h.write_u8(19);
                input.hash_into(h);
                h.write_u8(*op as u8);
                h.write_u64(val.fingerprint());
            }
            Plan::Custom { op, inputs, params } => {
                h.write_u8(20);
                h.write(op.as_bytes());
                for i in inputs {
                    i.hash_into(h);
                }
                for p in params {
                    h.write_u64(p.fingerprint());
                }
            }
        }
    }

    /// Operator mnemonic for statistics and EXPLAIN output.
    pub fn op_name(&self) -> &'static str {
        match self {
            Plan::Load(_) => "load",
            Plan::Const(_) => "const",
            Plan::Select { .. } => "select",
            Plan::Join { .. } => "join",
            Plan::Semijoin { .. } => "semijoin",
            Plan::Reverse(_) => "reverse",
            Plan::Mirror(_) => "mirror",
            Plan::Mark { .. } => "mark",
            Plan::ProjectConst { .. } => "project",
            Plan::Aggr { .. } => "aggr",
            Plan::GroupedAggr { .. } => "grouped_aggr",
            Plan::SortTail { .. } => "sort",
            Plan::TopN { .. } => "topn",
            Plan::Slice { .. } => "slice",
            Plan::Distinct(_) => "distinct",
            Plan::KUnion { .. } => "kunion",
            Plan::KDiff { .. } => "kdiff",
            Plan::Arith { .. } => "arith",
            Plan::ArithConst { .. } => "arith_const",
            Plan::Custom { .. } => "custom",
        }
    }

    /// Direct children of this node.
    pub fn children(&self) -> Vec<&Plan> {
        match self {
            Plan::Load(_) | Plan::Const(_) => vec![],
            Plan::Select { input, .. }
            | Plan::Reverse(input)
            | Plan::Mirror(input)
            | Plan::Mark { input, .. }
            | Plan::ProjectConst { input, .. }
            | Plan::Aggr { input, .. }
            | Plan::SortTail { input, .. }
            | Plan::TopN { input, .. }
            | Plan::Slice { input, .. }
            | Plan::Distinct(input)
            | Plan::ArithConst { input, .. } => vec![input],
            Plan::Join { left, right }
            | Plan::Semijoin { left, right }
            | Plan::KUnion { left, right }
            | Plan::KDiff { left, right }
            | Plan::Arith { left, right, .. } => vec![left, right],
            Plan::GroupedAggr { values, groups, .. } => vec![values, groups],
            Plan::Custom { inputs, .. } => inputs.iter().collect(),
        }
    }

    /// Number of operator nodes in the plan.
    pub fn size(&self) -> usize {
        1 + self.children().iter().map(|c| c.size()).sum::<usize>()
    }

    /// Indented EXPLAIN rendering of the plan tree.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0, None);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize, trace: Option<&ExecStats>) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        let label = match self {
            Plan::Load(n) => format!("load({n})"),
            Plan::Const(b) => format!("const[{} rows]", b.count()),
            Plan::Select { pred, .. } => format!("select[{pred:?}]"),
            Plan::Custom { op, params, .. } => format!("custom[{op}]({params:?})"),
            Plan::Aggr { agg, .. } => format!("aggr[{agg}]"),
            Plan::GroupedAggr { agg, .. } => format!("grouped_aggr[{agg}]"),
            Plan::TopN { k, desc, .. } => format!("topn[k={k}, desc={desc}]"),
            other => other.op_name().to_string(),
        };
        out.push_str(&label);
        if let Some(stats) = trace {
            if let Some(t) = stats.node_trace.get(&self.fingerprint()) {
                let est = t.est_rows.map(|e| format!("est≈{e}, ")).unwrap_or_default();
                let _ = write!(out, "  [{est}rows={}]", t.rows);
                if let Some(note) = &t.note {
                    let _ = write!(out, "  {note}");
                }
            }
        }
        out.push('\n');
        for c in self.children() {
            c.explain_into(out, depth + 1, trace);
        }
    }
}

/// What one plan node did during execution: rows it produced, and any
/// diagnostic note a custom operator attached via
/// [`crate::OpCtx::set_note`].
#[derive(Debug, Clone)]
pub struct NodeTrace {
    /// Rows the operator produced.
    pub rows: u64,
    /// Optimiser-estimated output rows, when the caller supplied
    /// [`Executor::est_rows`] for this node — rendered by EXPLAIN as
    /// `est≈N` next to the actual count.
    pub est_rows: Option<u64>,
    /// Operator-supplied note (custom operators only), rendered by
    /// [`Executor::explain`] next to the row annotation.
    pub note: Option<String>,
}

/// Counters collected during one plan execution.
#[derive(Debug, Default, Clone)]
pub struct ExecStats {
    /// `(operator, invocations)` pairs.
    pub op_counts: FxHashMap<&'static str, u64>,
    /// Total rows produced by all operators.
    pub rows_produced: u64,
    /// Memo hits (subexpressions served from cache).
    pub memo_hits: u64,
    /// Total operators evaluated (memo hits excluded).
    pub ops_evaluated: u64,
    /// Kept only because `benchmark/src` reads it (ROADMAP 1(h)); always 0.
    pub fragmented_ops: u64,
    /// Per-node execution trace, keyed by plan fingerprint — feeds
    /// [`Executor::explain`].
    pub node_trace: FxHashMap<u64, NodeTrace>,
    /// Wall time of the full execution in nanoseconds.
    pub wall_ns: u128,
}

impl ExecStats {
    /// Notes attached by custom operators during execution (e.g. the fused
    /// top-k operator's `topk ×k (pruned N ranges)`), in no particular order.
    pub fn notes(&self) -> Vec<String> {
        self.node_trace.values().filter_map(|t| t.note.clone()).collect()
    }

    /// Short single-line summary.
    pub fn summary(&self) -> String {
        format!(
            "{} ops, {} rows, {} memo hits, {:.3} ms",
            self.ops_evaluated,
            self.rows_produced,
            self.memo_hits,
            self.wall_ns as f64 / 1e6
        )
    }
}

/// Plan interpreter.
pub struct Executor<'a> {
    catalog: &'a Catalog,
    registry: &'a OpRegistry,
    /// Enable common-subexpression memoisation within one `run`.
    pub memoize: bool,
    /// Kept only because `benchmark/src` sets it (ROADMAP 1(h)); ignored.
    pub degree: usize,
    /// Optimiser-estimated output cardinalities keyed by plan fingerprint
    /// (supplied by the logical layer's statistics catalog). Recorded into
    /// each [`NodeTrace`] so EXPLAIN shows estimated vs actual rows.
    pub est_rows: Option<Arc<FxHashMap<u64, u64>>>,
    /// Kept only because `benchmark/src` sets it (ROADMAP 1(h)); ignored.
    pub degree_hints: Option<Arc<FxHashMap<u64, usize>>>,
    /// The request's pinned view: loads read the BATs it supplies before
    /// the catalog, and custom operators see it in their [`OpCtx`].
    pub view: Option<Arc<dyn RequestView>>,
}

impl<'a> Executor<'a> {
    /// Create an executor over a catalog and operator registry; memoisation
    /// defaults to on.
    pub fn new(catalog: &'a Catalog, registry: &'a OpRegistry) -> Self {
        Executor {
            catalog,
            registry,
            memoize: true,
            degree: 1,
            est_rows: None,
            degree_hints: None,
            view: None,
        }
    }

    /// Execute a plan, returning the result BAT and execution statistics.
    pub fn run(&self, plan: &Plan) -> Result<(Arc<Bat>, ExecStats)> {
        let mut stats = ExecStats::default();
        let mut memo: FxHashMap<u64, Arc<Bat>> = FxHashMap::default();
        let start = Instant::now();
        let out = self.eval(plan, &mut stats, &mut memo)?;
        stats.wall_ns = start.elapsed().as_nanos();
        Ok((out, stats))
    }

    /// Execute and discard statistics.
    pub fn run_bat(&self, plan: &Plan) -> Result<Arc<Bat>> {
        Ok(self.run(plan)?.0)
    }

    /// EXPLAIN ANALYZE: execute the plan, then render the tree with each
    /// operator annotated by the rows it produced.
    pub fn explain(&self, plan: &Plan) -> Result<String> {
        let (_, stats) = self.run(plan)?;
        let mut out = String::new();
        let _ = writeln!(out, "-- physical plan · {} ops --", stats.ops_evaluated);
        plan.explain_into(&mut out, 0, Some(&stats));
        Ok(out)
    }

    fn eval(
        &self,
        plan: &Plan,
        stats: &mut ExecStats,
        memo: &mut FxHashMap<u64, Arc<Bat>>,
    ) -> Result<Arc<Bat>> {
        let fp = plan.fingerprint();
        if self.memoize {
            if let Some(hit) = memo.get(&fp) {
                stats.memo_hits += 1;
                return Ok(Arc::clone(hit));
            }
        }
        // Diagnostic note a custom operator attached to this invocation.
        let mut note: Option<String> = None;
        let out: Arc<Bat> = match plan {
            Plan::Load(name) => match self.view.as_ref().and_then(|v| v.bat(name)) {
                Some(bat) => bat,
                None => self.catalog.get(name)?,
            },
            Plan::Const(b) => Arc::clone(b),
            Plan::Select { input, pred } => {
                Arc::new(apply_pred(&*self.eval(input, stats, memo)?, pred)?)
            }
            Plan::Join { left, right } => {
                let l = self.eval(left, stats, memo)?;
                let r = self.eval(right, stats, memo)?;
                Arc::new(l.join(&r)?)
            }
            Plan::Semijoin { left, right } => {
                let l = self.eval(left, stats, memo)?;
                let r = self.eval(right, stats, memo)?;
                Arc::new(l.semijoin(&r)?)
            }
            Plan::Reverse(p) => Arc::new(self.eval(p, stats, memo)?.reverse()),
            Plan::Mirror(p) => Arc::new(self.eval(p, stats, memo)?.mirror()),
            Plan::Mark { input, base } => Arc::new(self.eval(input, stats, memo)?.mark(*base)),
            Plan::ProjectConst { input, val } => {
                Arc::new(self.eval(input, stats, memo)?.project(val)?)
            }
            Plan::Aggr { input, agg } => {
                let v = self.eval(input, stats, memo)?.agg_tail(*agg)?;
                Arc::new(Bat::dense(Column::from_vals(&[v])?))
            }
            Plan::GroupedAggr { values, groups, agg } => {
                let v = self.eval(values, stats, memo)?;
                let g = self.eval(groups, stats, memo)?;
                Arc::new(v.grouped_agg(&g, *agg)?)
            }
            Plan::SortTail { input, desc } => {
                Arc::new(self.eval(input, stats, memo)?.sort_tail(*desc))
            }
            Plan::TopN { input, k, desc } => {
                Arc::new(self.eval(input, stats, memo)?.topn_tail(*k, *desc))
            }
            Plan::Slice { input, lo, hi } => {
                Arc::new(self.eval(input, stats, memo)?.slice(*lo, *hi))
            }
            Plan::Distinct(p) => Arc::new(self.eval(p, stats, memo)?.tail_distinct()?),
            Plan::KUnion { left, right } => {
                let l = self.eval(left, stats, memo)?;
                let r = self.eval(right, stats, memo)?;
                Arc::new(l.kunion(&r)?)
            }
            Plan::KDiff { left, right } => {
                let l = self.eval(left, stats, memo)?;
                let r = self.eval(right, stats, memo)?;
                Arc::new(l.kdiff(&r)?)
            }
            Plan::Arith { left, right, op } => {
                let l = self.eval(left, stats, memo)?;
                let r = self.eval(right, stats, memo)?;
                Arc::new(arith(&l, &r, *op)?)
            }
            Plan::ArithConst { input, op, val } => {
                let b = self.eval(input, stats, memo)?;
                Arc::new(arith_const(&b, *op, val)?)
            }
            Plan::Custom { op, inputs, params } => {
                let mut ins = Vec::with_capacity(inputs.len());
                for i in inputs {
                    ins.push(self.eval(i, stats, memo)?);
                }
                let f = self.registry.get(op)?;
                let mut ctx = OpCtx::new(self.catalog);
                ctx.view = self.view.as_deref();
                let out = Arc::new(f(&ctx, &ins, params)?);
                note = ctx.take_note();
                out
            }
        };
        stats.ops_evaluated += 1;
        stats.rows_produced += out.count() as u64;
        *stats.op_counts.entry(plan.op_name()).or_insert(0) += 1;
        let est_rows = self.est_rows.as_ref().and_then(|m| m.get(&fp).copied());
        stats.node_trace.insert(fp, NodeTrace { rows: out.count() as u64, est_rows, note });
        if self.memoize {
            memo.insert(fp, Arc::clone(&out));
        }
        Ok(out)
    }
}

fn apply_pred(b: &Bat, pred: &Pred) -> Result<Bat> {
    match pred {
        Pred::Eq(v) => b.select_eq(v),
        Pred::Range { lo, lo_incl, hi, hi_incl } => {
            let lo_b = match lo {
                None => Bound::Unbounded,
                Some(v) if *lo_incl => Bound::Included(v),
                Some(v) => Bound::Excluded(v),
            };
            let hi_b = match hi {
                None => Bound::Unbounded,
                Some(v) if *hi_incl => Bound::Included(v),
                Some(v) => Bound::Excluded(v),
            };
            b.select_range(lo_b, hi_b)
        }
        Pred::StrContains(p) => b.select_str_contains(p),
    }
}

/// Numeric value at row `i` of a column.
#[inline]
fn num_at(c: &Column, i: usize) -> Result<f64> {
    match c {
        Column::Int(v) => Ok(v[i] as f64),
        Column::Float(v) => Ok(v[i]),
        Column::Oid(v) => Ok(v[i] as f64),
        Column::Void { start, .. } => Ok((*start + i as Oid) as f64),
        Column::Str(_) => {
            Err(MonetError::TypeMismatch { op: "arith", expected: "numeric", found: "str" })
        }
    }
}

fn apply_op(a: f64, b: f64, op: ArithOp) -> f64 {
    match op {
        ArithOp::Add => a + b,
        ArithOp::Sub => a - b,
        ArithOp::Mul => a * b,
        ArithOp::Div => a / b,
    }
}

/// Element-wise arithmetic, aligning rows by head.
fn arith(l: &Bat, r: &Bat, op: ArithOp) -> Result<Bat> {
    // Positional fast path: identical void heads.
    let aligned = match (l.head().void_start(), r.head().void_start()) {
        (Some(a), Some(b)) => a == b && l.count() == r.count(),
        _ => false,
    };
    if aligned {
        let n = l.count();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(apply_op(num_at(l.tail(), i)?, num_at(r.tail(), i)?, op));
        }
        return Ok(Bat::from_arcs(
            l.head_arc(),
            Arc::new(Column::Float(out)),
            crate::props::Props { head_sorted: true, head_key: true, ..Default::default() },
        ));
    }
    // General path: match rows by head key, keeping l's order.
    use crate::join::key_at;
    let mut table: FxHashMap<_, f64> = FxHashMap::default();
    let rh = r.head();
    for j in 0..r.count() {
        table.insert(key_at(rh, j), num_at(r.tail(), j)?);
    }
    let lh = l.head();
    let mut keep = Vec::new();
    let mut vals = Vec::new();
    for i in 0..l.count() {
        if let Some(&rv) = table.get(&key_at(lh, i)) {
            keep.push(i as u32);
            vals.push(apply_op(num_at(l.tail(), i)?, rv, op));
        }
    }
    let head = l.head().take(&keep);
    Bat::new(head, Column::Float(vals))
}

fn arith_const(b: &Bat, op: ArithOp, val: &Val) -> Result<Bat> {
    let c = val
        .as_float()
        .ok_or_else(|| MonetError::BadValue(format!("arith_const needs number, got {val}")))?;
    let n = b.count();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        out.push(apply_op(num_at(b.tail(), i)?, c, op));
    }
    Ok(Bat::from_arcs(
        b.head_arc(),
        Arc::new(Column::Float(out)),
        crate::props::Props {
            head_sorted: b.props().head_sorted,
            head_key: b.props().head_key,
            ..Default::default()
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bat::{bat_of_floats, bat_of_ints};

    fn setup() -> (Catalog, OpRegistry) {
        let cat = Catalog::new();
        cat.register("nums", bat_of_ints(vec![4, 1, 3, 2]));
        cat.register("beliefs", bat_of_floats(vec![0.4, 0.9, 0.6, 0.2]));
        (cat, OpRegistry::new())
    }

    #[test]
    fn load_select_topn_pipeline() {
        let (cat, reg) = setup();
        let exec = Executor::new(&cat, &reg);
        let plan = Plan::TopN {
            input: Box::new(Plan::Select {
                input: Box::new(Plan::load("nums")),
                pred: Pred::Range { lo: Some(Val::Int(2)), lo_incl: true, hi: None, hi_incl: true },
            }),
            k: 2,
            desc: true,
        };
        let (out, stats) = exec.run(&plan).unwrap();
        let tails: Vec<_> = out.to_pairs().into_iter().map(|(_, t)| t).collect();
        assert_eq!(tails, vec![Val::Int(4), Val::Int(3)]);
        assert_eq!(stats.op_counts["select"], 1);
        assert!(stats.wall_ns > 0);
    }

    #[test]
    fn memoisation_deduplicates_shared_subplans() {
        let (cat, reg) = setup();
        let exec = Executor::new(&cat, &reg);
        let shared =
            Plan::Select { input: Box::new(Plan::load("nums")), pred: Pred::Eq(Val::Int(3)) };
        let plan = Plan::KUnion { left: Box::new(shared.clone()), right: Box::new(shared) };
        let (_, stats) = exec.run(&plan).unwrap();
        assert_eq!(stats.memo_hits, 1);

        let mut exec2 = Executor::new(&cat, &reg);
        exec2.memoize = false;
        let plan2 = Plan::KUnion {
            left: Box::new(Plan::load("nums")),
            right: Box::new(Plan::load("nums")),
        };
        let (_, stats2) = exec2.run(&plan2).unwrap();
        assert_eq!(stats2.memo_hits, 0);
    }

    #[test]
    fn aggr_to_single_row() {
        let (cat, reg) = setup();
        let exec = Executor::new(&cat, &reg);
        let plan = Plan::Aggr { input: Box::new(Plan::load("nums")), agg: Agg::Sum };
        let out = exec.run_bat(&plan).unwrap();
        assert_eq!(out.count(), 1);
        assert_eq!(out.fetch(0).unwrap().1, Val::Int(10));
    }

    #[test]
    fn arith_positional_and_const() {
        let (cat, reg) = setup();
        let exec = Executor::new(&cat, &reg);
        let plan = Plan::Arith {
            left: Box::new(Plan::load("beliefs")),
            right: Box::new(Plan::load("beliefs")),
            op: ArithOp::Add,
        };
        let out = exec.run_bat(&plan).unwrap();
        assert_eq!(out.fetch(1).unwrap().1, Val::Float(1.8));

        let plan2 = Plan::ArithConst {
            input: Box::new(Plan::load("beliefs")),
            op: ArithOp::Mul,
            val: Val::Float(10.0),
        };
        let out2 = exec.run_bat(&plan2).unwrap();
        assert_eq!(out2.fetch(3).unwrap().1, Val::Float(2.0));
    }

    #[test]
    fn custom_ops_execute_in_plans() {
        let (cat, reg) = setup();
        reg.register("halve", |_ctx, inputs, _| {
            let v = inputs[0].tail().float_slice()?;
            Ok(Bat::dense(Column::Float(v.iter().map(|x| x / 2.0).collect())))
        });
        let exec = Executor::new(&cat, &reg);
        let plan = Plan::Custom {
            op: "halve".into(),
            inputs: vec![Plan::load("beliefs")],
            params: vec![],
        };
        let out = exec.run_bat(&plan).unwrap();
        assert_eq!(out.fetch(0).unwrap().1, Val::Float(0.2));
    }

    #[test]
    fn unknown_load_and_op_error() {
        let (cat, reg) = setup();
        let exec = Executor::new(&cat, &reg);
        assert!(exec.run_bat(&Plan::load("missing")).is_err());
        let bad = Plan::Custom { op: "nope".into(), inputs: vec![], params: vec![] };
        assert!(exec.run_bat(&bad).is_err());
    }

    #[test]
    fn explain_renders_tree() {
        let plan = Plan::TopN {
            input: Box::new(Plan::Join {
                left: Box::new(Plan::load("a")),
                right: Box::new(Plan::load("b")),
            }),
            k: 5,
            desc: true,
        };
        let text = plan.explain();
        assert!(text.contains("topn"));
        assert!(text.contains("  join"));
        assert!(text.contains("    load(a)"));
        assert_eq!(plan.size(), 4);
    }

    #[test]
    fn fingerprints_distinguish_plans() {
        let a = Plan::load("x");
        let b = Plan::load("y");
        assert_ne!(a.fingerprint(), b.fingerprint());
        let s1 = Plan::Select { input: Box::new(a.clone()), pred: Pred::Eq(Val::Int(1)) };
        let s2 = Plan::Select { input: Box::new(a), pred: Pred::Eq(Val::Int(2)) };
        assert_ne!(s1.fingerprint(), s2.fingerprint());
        assert_eq!(s1.fingerprint(), s1.clone().fingerprint());
    }

    #[test]
    fn grouped_aggr_in_plan() {
        let cat = Catalog::new();
        let reg = OpRegistry::new();
        cat.register("vals", bat_of_floats(vec![0.5, 0.5, 1.0]));
        cat.register("map", Bat::dense(Column::Oid(vec![0, 0, 1])));
        let exec = Executor::new(&cat, &reg);
        let plan = Plan::GroupedAggr {
            values: Box::new(Plan::load("vals")),
            groups: Box::new(Plan::load("map")),
            agg: Agg::Sum,
        };
        let out = exec.run_bat(&plan).unwrap();
        assert_eq!(out.fetch(0).unwrap().1, Val::Float(1.0));
        assert_eq!(out.fetch(1).unwrap().1, Val::Float(1.0));
    }
}
