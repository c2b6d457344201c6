//! Physical query plans and their interpreting executor.
//!
//! A [`Plan`] is a tree of BAT-algebra operators; the Moa layer produces
//! these by flattening logical object-algebra expressions. The [`Executor`]
//! interprets a plan against a [`Catalog`] and an [`OpRegistry`], recording
//! per-operator statistics (operator invocations, rows produced, wall
//! time). Every operator runs serially over whole columns: a request's
//! parallelism is the server worker that runs it. [`Executor::explain`]
//! shows, per operator, the rows it produced.
//!
//! Each node has one id, its index in [`Plan::post_order`]: the
//! executor's trace, the optimizer's estimates and EXPLAIN's `#id` labels
//! all use it.

use crate::aggr::Agg;
use crate::bat::Bat;
use crate::catalog::Catalog;
use crate::column::Column;
use crate::error::{MonetError, Result};
use crate::ext::{OpCtx, OpRegistry, RequestView};
use crate::fxhash::FxHashMap;
use crate::value::{Oid, Val};
use std::fmt::Write as _;
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

/// A physical plan node. Two plans are equal when their trees are.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Load a named BAT from the catalog.
    Load(String),
    /// A literal: executes to a one-row dense BAT.
    Const(Val),
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

    /// Every node in post-order: a node's children in [`Plan::children`]
    /// order, then the node. A node's index here is its id.
    pub fn post_order(&self) -> Vec<&Plan> {
        fn walk<'p>(p: &'p Plan, out: &mut Vec<&'p Plan>) {
            for c in p.children() {
                walk(c, out);
            }
            out.push(p);
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// Indented EXPLAIN rendering of the plan tree, each node labelled
    /// `#id`.
    pub fn explain(&self) -> String {
        self.render(None)
    }

    fn render(&self, trace: Option<&ExecStats>) -> String {
        let mut lines = Vec::new();
        self.explain_into(&mut lines, 0, &mut 0, trace);
        lines.concat()
    }

    /// Push this subtree's lines in pre-order. A node's line precedes its
    /// children's, but its id is known only once they are numbered, so
    /// the line is filled in after them.
    fn explain_into(
        &self,
        lines: &mut Vec<String>,
        depth: usize,
        next_id: &mut usize,
        trace: Option<&ExecStats>,
    ) {
        let at = lines.len();
        lines.push(String::new());
        for c in self.children() {
            c.explain_into(lines, depth + 1, next_id, trace);
        }
        let id = *next_id;
        *next_id += 1;
        let mut out = "  ".repeat(depth);
        let label = match self {
            Plan::Load(n) => format!("load({n})"),
            Plan::Const(v) => format!("const[{v}]"),
            Plan::Select { pred, .. } => format!("select[{pred:?}]"),
            Plan::Custom { op, params, .. } => format!("custom[{op}]({params:?})"),
            Plan::Aggr { agg, .. } => format!("aggr[{agg}]"),
            Plan::GroupedAggr { agg, .. } => format!("grouped_aggr[{agg}]"),
            Plan::TopN { k, desc, .. } => format!("topn[k={k}, desc={desc}]"),
            other => other.op_name().to_string(),
        };
        let _ = write!(out, "{label} #{id}");
        if let Some(t) = trace.and_then(|stats| stats.node_trace.get(id)) {
            let est = t.est_rows.map(|e| format!("est≈{e}, ")).unwrap_or_default();
            let _ = write!(out, "  [{est}rows={}]", t.rows);
            if let Some(note) = &t.note {
                let _ = write!(out, "  {note}");
            }
        }
        out.push('\n');
        lines[at] = out;
    }
}

/// What one plan node did during execution: rows it produced, and any
/// diagnostic note a custom operator attached via
/// [`crate::OpCtx::set_note`].
#[derive(Debug, Clone)]
pub struct NodeTrace {
    /// The node's operator ([`Plan::op_name`]).
    pub op: &'static str,
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
    /// Total rows produced by all operators.
    pub rows_produced: u64,
    /// Kept only because `benchmark/src` reads it (ROADMAP 1(h)); always 0.
    pub memo_hits: u64,
    /// Total operators evaluated: one per plan node.
    pub ops_evaluated: u64,
    /// Kept only because `benchmark/src` reads it (ROADMAP 1(h)); always 0.
    pub fragmented_ops: u64,
    /// What each plan node did, indexed by node id ([`Plan::post_order`])
    /// — feeds [`Executor::explain`].
    pub node_trace: Vec<NodeTrace>,
    /// Wall time of the full execution in nanoseconds.
    pub wall_ns: u128,
}

impl ExecStats {
    /// Notes attached by custom operators during execution (e.g. the fused
    /// top-k operator's `topk ×k (pruned N ranges)`), in node-id order.
    pub fn notes(&self) -> Vec<String> {
        self.node_trace.iter().filter_map(|t| t.note.clone()).collect()
    }

    /// Short single-line summary.
    pub fn summary(&self) -> String {
        format!(
            "{} ops, {} rows, {:.3} ms",
            self.ops_evaluated,
            self.rows_produced,
            self.wall_ns as f64 / 1e6
        )
    }
}

/// Plan interpreter.
pub struct Executor<'a> {
    catalog: &'a Catalog,
    registry: &'a OpRegistry,
    /// Kept only because `benchmark/src` sets it (ROADMAP 1(h)); ignored.
    pub memoize: bool,
    /// Kept only because `benchmark/src` sets it (ROADMAP 1(h)); ignored.
    pub degree: usize,
    /// Optimiser-estimated output cardinalities indexed by node id
    /// ([`Plan::post_order`]), supplied by the logical layer's statistics
    /// catalog. Recorded into each [`NodeTrace`] so EXPLAIN shows
    /// estimated vs actual rows.
    pub est_rows: Option<Arc<Vec<Option<u64>>>>,
    /// Kept only because `benchmark/src` sets it (ROADMAP 1(h)); ignored.
    pub degree_hints: Option<Arc<FxHashMap<u64, usize>>>,
    /// The request's pinned view: loads read the BATs it supplies before
    /// the catalog, and custom operators see it in their [`OpCtx`].
    pub view: Option<Arc<dyn RequestView>>,
}

impl<'a> Executor<'a> {
    /// Create an executor over a catalog and operator registry.
    pub fn new(catalog: &'a Catalog, registry: &'a OpRegistry) -> Self {
        Executor {
            catalog,
            registry,
            memoize: false,
            degree: 1,
            est_rows: None,
            degree_hints: None,
            view: None,
        }
    }

    /// Execute a plan, returning the result BAT and execution statistics.
    pub fn run(&self, plan: &Plan) -> Result<(Arc<Bat>, ExecStats)> {
        let mut stats = ExecStats::default();
        let start = Instant::now();
        let out = self.eval(plan, &mut stats)?;
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
        out.push_str(&plan.render(Some(&stats)));
        Ok(out)
    }

    /// Evaluate a node after its children, in [`Plan::children`] order:
    /// nodes complete in post-order, so each trace lands at its node id.
    fn eval(&self, plan: &Plan, stats: &mut ExecStats) -> Result<Arc<Bat>> {
        let ins =
            plan.children().into_iter().map(|c| self.eval(c, stats)).collect::<Result<Vec<_>>>()?;
        // Diagnostic note a custom operator attached to this invocation.
        let mut note: Option<String> = None;
        let out: Arc<Bat> = match plan {
            Plan::Load(name) => match self.view.as_ref().and_then(|v| v.bat(name)) {
                Some(bat) => bat,
                None => self.catalog.get(name)?,
            },
            Plan::Const(v) => Arc::new(Bat::dense(Column::from_vals(std::slice::from_ref(v))?)),
            Plan::Select { pred, .. } => Arc::new(apply_pred(&ins[0], pred)?),
            Plan::Join { .. } => Arc::new(ins[0].join(&ins[1])?),
            Plan::Semijoin { .. } => Arc::new(ins[0].semijoin(&ins[1])?),
            Plan::Reverse(_) => Arc::new(ins[0].reverse()),
            Plan::Mirror(_) => Arc::new(ins[0].mirror()),
            Plan::Mark { base, .. } => Arc::new(ins[0].mark(*base)),
            Plan::ProjectConst { val, .. } => Arc::new(ins[0].project(val)?),
            Plan::Aggr { agg, .. } => {
                Arc::new(Bat::dense(Column::from_vals(&[ins[0].agg_tail(*agg)?])?))
            }
            Plan::GroupedAggr { agg, .. } => Arc::new(ins[0].grouped_agg(&ins[1], *agg)?),
            Plan::SortTail { desc, .. } => Arc::new(ins[0].sort_tail(*desc)),
            Plan::TopN { k, desc, .. } => Arc::new(ins[0].topn_tail(*k, *desc)),
            Plan::Slice { lo, hi, .. } => Arc::new(ins[0].slice(*lo, *hi)),
            Plan::Distinct(_) => Arc::new(ins[0].tail_distinct()?),
            Plan::KUnion { .. } => Arc::new(ins[0].kunion(&ins[1])?),
            Plan::KDiff { .. } => Arc::new(ins[0].kdiff(&ins[1])?),
            Plan::Arith { op, .. } => Arc::new(arith(&ins[0], &ins[1], *op)?),
            Plan::ArithConst { op, val, .. } => Arc::new(arith_const(&ins[0], *op, val)?),
            Plan::Custom { op, params, .. } => {
                let f = self.registry.get(op)?;
                let mut ctx = OpCtx::new(self.catalog);
                ctx.view = self.view.as_deref();
                let out = Arc::new(f(&ctx, &ins, params)?);
                note = ctx.take_note();
                out
            }
        };
        let rows = out.count() as u64;
        stats.ops_evaluated += 1;
        stats.rows_produced += rows;
        let id = stats.node_trace.len();
        let est_rows = self.est_rows.as_ref().and_then(|e| e.get(id).copied().flatten());
        stats.node_trace.push(NodeTrace { op: plan.op_name(), rows, est_rows, note });
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
        let ops: Vec<_> = stats.node_trace.iter().map(|t| t.op).collect();
        assert_eq!(ops, ["load", "select", "topn"]);
        assert!(stats.wall_ns > 0);
    }

    #[test]
    fn shared_subtrees_are_evaluated_and_traced_per_node() {
        let (cat, reg) = setup();
        let exec = Executor::new(&cat, &reg);
        let shared =
            Plan::Select { input: Box::new(Plan::load("nums")), pred: Pred::Eq(Val::Int(3)) };
        let plan = Plan::KUnion { left: Box::new(shared.clone()), right: Box::new(shared) };
        let (out, stats) = exec.run(&plan).unwrap();
        assert_eq!(out.count(), 1);
        assert_eq!(stats.ops_evaluated, plan.size() as u64);
        assert_eq!(stats.node_trace.len(), plan.size());
        let traced: Vec<_> = stats.node_trace.iter().map(|t| t.op).collect();
        let ids: Vec<_> = plan.post_order().into_iter().map(Plan::op_name).collect();
        assert_eq!(traced, ids);
        assert_eq!(traced, ["load", "select", "load", "select", "kunion"]);
        // EXPLAIN ANALYZE finds a trace for both copies
        let text = exec.explain(&plan).unwrap();
        let selects: Vec<_> = text.lines().filter(|l| l.contains("select[")).collect();
        assert_eq!(selects.len(), 2, "{text}");
        assert!(selects.iter().all(|l| l.ends_with("[rows=1]")), "{text}");
        assert!(selects[0].contains(" #1 ") && selects[1].contains(" #3 "), "{text}");
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
        assert!(text.contains("topn[k=5, desc=true] #3\n"), "{text}");
        assert!(text.contains("  join #2\n"), "{text}");
        assert!(text.contains("    load(a) #0\n"), "{text}");
        assert!(text.contains("    load(b) #1\n"), "{text}");
        assert_eq!(plan.size(), 4);
    }

    #[test]
    fn plans_compare_by_structure() {
        let a = Plan::load("x");
        assert_ne!(a, Plan::load("y"));
        let select = |input: &Plan, pred| Plan::Select { input: Box::new(input.clone()), pred };
        let s1 = select(&a, Pred::Eq(Val::Int(1)));
        assert_eq!(s1, select(&a, Pred::Eq(Val::Int(1))));
        assert_eq!(s1, s1.clone());
        // a different predicate, literal or literal type makes a different plan
        assert_ne!(s1, select(&a, Pred::Eq(Val::Int(2))));
        assert_ne!(s1, select(&a, Pred::Eq(Val::Oid(1))));
        assert_ne!(s1, select(&a, Pred::StrContains("1".into())));
        assert_ne!(Plan::Const(Val::Float(0.5)), Plan::Const(Val::Float(0.25)));
        // a NaN literal only ever makes plans unequal
        assert_ne!(Plan::Const(Val::Float(f64::NAN)), Plan::Const(Val::Float(f64::NAN)));
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
