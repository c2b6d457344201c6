//! Algebraic rewriting.
//!
//! The paper argues that translating the logical object model to a
//! different physical model "provides an excellent basis for algebraic
//! query optimization". This module implements the optimisations that the
//! E2 ablation toggles:
//!
//! * **selection pushdown** (logical): `select[p](map[f](X))` →
//!   `map[f](select[p](X))` whenever the predicate only mentions
//!   attributes of `X`'s rows — crucial for the IR/data integration
//!   queries, because it makes ranking operate on the surviving documents
//!   only;
//! * **peephole plan rewrites** (physical): cancel `reverse∘reverse`,
//!   collapse `slice∘sort` into `topn`, fuse constant arithmetic chains,
//!   deduplicate idempotent semijoins;
//! * **CSE memoisation** is implemented by the kernel executor and toggled
//!   through [`OptConfig::memoize`].

use crate::expr::Expr;
use crate::Env;
use monet::{Agg, ArithOp, OpRegistry, Plan, Val};

/// Optimiser switches (all on by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptConfig {
    /// Push `select` below `map` at the logical level.
    pub pushdown: bool,
    /// Run peephole rewrites on physical plans.
    pub peephole: bool,
    /// Memoise common subexpressions during execution.
    pub memoize: bool,
    /// Fragment-parallel execution degree for the kernel executor:
    /// `0` = auto (one thread per available core), `1` = serial,
    /// `n` = exactly `n` threads per fragmented operator.
    pub parallelism: usize,
    /// Run the statistics-driven passes of [`crate::opt`]: selection
    /// ordering, semijoin placement (domain pushdown into belief
    /// operators, enabling top-k fusion of filtered rankings), and
    /// estimate-driven per-operator parallel-degree caps.
    pub stats_driven: bool,
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig {
            pushdown: true,
            peephole: true,
            memoize: true,
            parallelism: 0,
            stats_driven: true,
        }
    }
}

impl OptConfig {
    /// Everything off — the unoptimised, serial baseline for the ablation.
    pub fn none() -> Self {
        OptConfig {
            pushdown: false,
            peephole: false,
            memoize: false,
            parallelism: 1,
            stats_driven: false,
        }
    }
}

/// Apply logical rewrites to an expression.
pub fn rewrite_logical(expr: &Expr, env: &Env, cfg: OptConfig) -> Expr {
    if !cfg.pushdown {
        return expr.clone();
    }
    push_selections(expr, env)
}

/// `select[p](map[f](X))` → `map[f](select[p](X))` when `p` only touches
/// row attributes of the mapped collection.
fn push_selections(expr: &Expr, env: &Env) -> Expr {
    match expr {
        Expr::Select { pred, input } => {
            let input = push_selections(input, env);
            let pred = (**pred).clone();
            if let Expr::Map { body, input: map_in } = &input {
                if let Some(coll) = collection_of(map_in) {
                    if pred_touches_only_row_attrs(&pred, &coll, env) {
                        let pushed = Expr::select(pred, (**map_in).clone());
                        return Expr::map((**body).clone(), push_selections(&pushed, env));
                    }
                }
            }
            Expr::Select { pred: Box::new(pred), input: Box::new(input) }
        }
        Expr::Map { body, input } => Expr::Map {
            body: Box::new(push_selections(body, env)),
            input: Box::new(push_selections(input, env)),
        },
        Expr::Call { name, args } => Expr::Call {
            name: name.clone(),
            args: args.iter().map(|a| push_selections(a, env)).collect(),
        },
        other => other.clone(),
    }
}

/// The collection a pipeline input ultimately ranges over, if statically
/// known (`Ident` or nested `select`/`map` over one).
fn collection_of(expr: &Expr) -> Option<String> {
    match expr {
        Expr::Ident(name) => Some(name.clone()),
        Expr::Select { input, .. } | Expr::Map { input, .. } => collection_of(input),
        _ => None,
    }
}

fn pred_touches_only_row_attrs(pred: &Expr, coll: &str, env: &Env) -> bool {
    let Ok(elem) = env.elem_type(coll) else { return false };
    if pred.uses_bare_this() {
        return false; // predicate over the mapped value, not the row
    }
    let attrs = pred.this_attrs();
    !attrs.is_empty() && attrs.iter().all(|a| elem.field(a).is_some())
}

/// Apply peephole rewrites to a physical plan, bottom-up, to fixpoint
/// (bounded by plan depth).
pub fn rewrite_physical(plan: &Plan, cfg: OptConfig) -> Plan {
    if !cfg.peephole {
        return plan.clone();
    }
    let mut current = plan.clone();
    for _ in 0..8 {
        let next = peephole(&current);
        if next.fingerprint() == current.fingerprint() {
            return next;
        }
        current = next;
    }
    current
}

fn peephole(plan: &Plan) -> Plan {
    // rewrite children first
    let node = map_children(plan, &|c| peephole(c));
    match node {
        // reverse(reverse(x)) = x
        Plan::Reverse(inner) => match *inner {
            Plan::Reverse(x) => *x,
            other => Plan::Reverse(Box::new(other)),
        },
        // mirror(mirror(x)) = mirror(x)
        Plan::Mirror(inner) => match *inner {
            Plan::Mirror(x) => Plan::Mirror(x),
            other => Plan::Mirror(Box::new(other)),
        },
        // slice(sort(x), 0, k) = topn(x, k)
        Plan::Slice { input, lo: 0, hi } => match *input {
            Plan::SortTail { input: x, desc } => Plan::TopN { input: x, k: hi, desc },
            other => Plan::Slice { input: Box::new(other), lo: 0, hi },
        },
        // topn(sort(x)) = topn(x) with matching direction
        Plan::TopN { input, k, desc } => match *input {
            Plan::SortTail { input: x, desc: d2 } if d2 == desc => Plan::TopN { input: x, k, desc },
            other => Plan::TopN { input: Box::new(other), k, desc },
        },
        // fold (x ∘ c1) ∘ c2 for matching associative ops
        Plan::ArithConst { input, op, val } => match (*input, op) {
            (Plan::ArithConst { input: x, op: op2, val: v2 }, op1)
                if op1 == op2 && matches!(op1, ArithOp::Add | ArithOp::Mul) =>
            {
                let a = val.as_float().unwrap_or(0.0);
                let b = v2.as_float().unwrap_or(0.0);
                let folded = match op1 {
                    ArithOp::Add => a + b,
                    ArithOp::Mul => a * b,
                    _ => unreachable!("guard covers add/mul"),
                };
                Plan::ArithConst { input: x, op: op1, val: monet::Val::Float(folded) }
            }
            (other, op) => Plan::ArithConst { input: Box::new(other), op, val },
        },
        // semijoin(semijoin(x, d), d) = semijoin(x, d)
        Plan::Semijoin { left, right } => {
            if let Plan::Semijoin { left: x, right: r2 } = &*left {
                if r2.fingerprint() == right.fingerprint() {
                    return Plan::Semijoin { left: x.clone(), right };
                }
            }
            Plan::Semijoin { left, right }
        }
        other => other,
    }
}

/// Fuse a top-k budget into a compiled single-channel ranking plan.
///
/// Recognises the physical shape the paper's
/// `map[sum(THIS)](map[getBL(…)](C))` query compiles to — a grouped sum
/// over a custom belief operator, optionally semijoined with the domain the
/// operator is already restricted to — and rewrites it into the operator's
/// fused top-k counterpart with one channel of weight `1.0` (parameter
/// layout: [`topk_params`]). Returns `None` — execute the original plan —
/// when the shape does not match or no fused operator is registered. The
/// dual-coding shape, a weighted sum of two such channels, fuses in the
/// optimizer's `topk_fuse` pass ([`crate::opt::TopKFusePass`]), not here,
/// so that [`OptConfig::none`] keeps it unfused as the reference plan.
///
/// The fused plan implements the *top-k budget* contract, not row-for-row
/// plan equivalence: the grouped sum emits a `0.0` row for every document
/// that matches no query term, while the fused operator omits those
/// zero-mass rows entirely (a ranking drops them anyway) and keeps only
/// the k best of the rest. The surviving `(oid, score)` pairs are
/// bit-identical to materialise-then-sort.
pub fn rewrite_topk(plan: &Plan, k: usize, ops: &OpRegistry) -> Option<Plan> {
    let ch = ranking_channel(plan)?;
    fuse_channels(ch.op, &[(ch.params, 1.0)], ch.inputs, k, ops)
}

/// One ranking channel of a compiled plan: `grouped_aggr[sum]` over a
/// custom belief operator `op(inputs…; params)`, grouped by `groups`.
pub(crate) struct RankingChannel<'a> {
    /// The belief operator.
    pub op: &'a str,
    /// Its domain input, if it is restricted to one.
    pub inputs: &'a [Plan],
    /// Its parameters (`[prefix, (term, weight)*]` for `contrep.getbl`).
    pub params: &'a [Val],
    /// The grouping: the collection identity, or the operator's domain.
    pub groups: &'a Plan,
}

/// Match one ranking channel, seeing through the domain semijoin the
/// aggregate compiler adds (it is redundant iff the operator restricts
/// itself to the same domain).
pub(crate) fn ranking_channel(plan: &Plan) -> Option<RankingChannel<'_>> {
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
            if groups.fingerprint() != d.fingerprint() {
                return None;
            }
            if let Some(o) = outer {
                if o.fingerprint() != d.fingerprint() {
                    return None;
                }
            }
        }
        // a semijoin against a domain the operator does not know about
        // cannot be folded into it
        (None, Some(_)) => return None,
    }
    Some(RankingChannel { op, inputs, params, groups })
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
pub(crate) fn fuse_channels(
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

/// Rebuild a plan node with its children transformed (shared with the
/// statistics-driven pass framework in [`crate::opt`]).
pub(crate) fn map_children(plan: &Plan, f: &dyn Fn(&Plan) -> Plan) -> Plan {
    use Plan::*;
    match plan {
        Load(n) => Load(n.clone()),
        Const(b) => Const(b.clone()),
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
            inputs: inputs.iter().map(f).collect(),
            params: params.clone(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_define, parse_expr};
    use crate::value::MoaVal;
    use monet::Val;

    fn env() -> Env {
        let e = Env::new();
        let (n, ty) =
            parse_define("define Lib as SET<TUPLE<Atomic<int>: size, Atomic<float>: score>>;")
                .unwrap();
        e.create_collection(n, ty, vec![MoaVal::Tuple(vec![MoaVal::Int(1), MoaVal::Float(0.5)])])
            .unwrap();
        e
    }

    #[test]
    fn pushdown_moves_select_below_map() {
        let env = env();
        let q = parse_expr("select[THIS.size > 2](map[THIS.score](Lib))").unwrap();
        let r = rewrite_logical(&q, &env, OptConfig::default());
        assert_eq!(r.to_string(), "map[THIS.score](select[THIS.size > 2](Lib))");
    }

    #[test]
    fn pushdown_disabled_is_identity() {
        let env = env();
        let q = parse_expr("select[THIS.size > 2](map[THIS.score](Lib))").unwrap();
        let r = rewrite_logical(&q, &env, OptConfig::none());
        assert_eq!(r, q);
    }

    #[test]
    fn pushdown_respects_mapped_values() {
        let env = env();
        // predicate over the mapped value (bare THIS) must NOT be pushed
        let q = parse_expr("select[THIS > 0.5](map[THIS.score](Lib))").unwrap();
        let r = rewrite_logical(&q, &env, OptConfig::default());
        assert_eq!(r, q);
        // predicate over an attribute the collection doesn't have: not pushed
        let q2 = parse_expr("select[THIS.missing > 1](map[THIS.score](Lib))").unwrap();
        let r2 = rewrite_logical(&q2, &env, OptConfig::default());
        assert_eq!(r2, q2);
    }

    #[test]
    fn pushdown_through_nested_maps() {
        let env = env();
        let q = parse_expr("select[THIS.size = 1](map[sum(THIS)](map[THIS.score](Lib)))").unwrap();
        let r = rewrite_logical(&q, &env, OptConfig::default());
        assert_eq!(r.to_string(), "map[sum(THIS)](map[THIS.score](select[THIS.size = 1](Lib)))");
    }

    #[test]
    fn peephole_reverse_reverse() {
        let p = Plan::Reverse(Box::new(Plan::Reverse(Box::new(Plan::load("x")))));
        let r = rewrite_physical(&p, OptConfig::default());
        assert_eq!(r.fingerprint(), Plan::load("x").fingerprint());
    }

    #[test]
    fn peephole_slice_sort_to_topn() {
        let p = Plan::Slice {
            input: Box::new(Plan::SortTail { input: Box::new(Plan::load("x")), desc: true }),
            lo: 0,
            hi: 10,
        };
        let r = rewrite_physical(&p, OptConfig::default());
        assert!(matches!(r, Plan::TopN { k: 10, desc: true, .. }));
    }

    #[test]
    fn peephole_folds_constant_arith() {
        let p = Plan::ArithConst {
            input: Box::new(Plan::ArithConst {
                input: Box::new(Plan::load("x")),
                op: ArithOp::Mul,
                val: Val::Float(2.0),
            }),
            op: ArithOp::Mul,
            val: Val::Float(3.0),
        };
        let r = rewrite_physical(&p, OptConfig::default());
        match r {
            Plan::ArithConst { val, .. } => assert_eq!(val, Val::Float(6.0)),
            other => panic!("expected folded arith, got {other:?}"),
        }
    }

    #[test]
    fn peephole_does_not_fold_mixed_ops() {
        let p = Plan::ArithConst {
            input: Box::new(Plan::ArithConst {
                input: Box::new(Plan::load("x")),
                op: ArithOp::Mul,
                val: Val::Float(2.0),
            }),
            op: ArithOp::Add,
            val: Val::Float(3.0),
        };
        let r = rewrite_physical(&p, OptConfig::default());
        // still two ArithConst nodes
        assert_eq!(r.size(), 3);
    }

    #[test]
    fn peephole_dedups_idempotent_semijoin() {
        let d = Plan::load("dom");
        let p = Plan::Semijoin {
            left: Box::new(Plan::Semijoin {
                left: Box::new(Plan::load("x")),
                right: Box::new(d.clone()),
            }),
            right: Box::new(d),
        };
        let r = rewrite_physical(&p, OptConfig::default());
        assert_eq!(r.size(), 3); // semijoin(x, dom)
    }

    fn getbl_like(inputs: Vec<Plan>) -> Plan {
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

    fn registry_with_fused() -> OpRegistry {
        let ops = OpRegistry::new();
        ops.register("contrep.getbl.topk", |_ctx, _inputs, _params| {
            Ok(monet::bat::bat_of_ints(vec![]))
        });
        ops
    }

    #[test]
    fn topk_fuses_the_unrestricted_ranking_shape() {
        let ops = registry_with_fused();
        let plan = Plan::GroupedAggr {
            values: Box::new(getbl_like(vec![])),
            groups: Box::new(Plan::load("Lib__self")),
            agg: Agg::Sum,
        };
        let fused = rewrite_topk(&plan, 10, &ops).unwrap();
        let Plan::Custom { op, params, .. } = fused else { panic!("expected custom") };
        assert_eq!(op, "contrep.getbl.topk");
        let Plan::Custom { params: getbl, .. } = getbl_like(vec![]) else { unreachable!() };
        assert_eq!(split_topk_params(&params), Some((vec![(&getbl[..], 1.0)], 10)));
    }

    #[test]
    fn topk_fuses_the_domain_restricted_shape() {
        let ops = registry_with_fused();
        let domain = Plan::Mirror(Box::new(Plan::Select {
            input: Box::new(Plan::load("Lib__source")),
            pred: monet::Pred::StrContains("x".into()),
        }));
        let plan = Plan::Semijoin {
            left: Box::new(Plan::GroupedAggr {
                values: Box::new(getbl_like(vec![domain.clone()])),
                groups: Box::new(domain.clone()),
                agg: Agg::Sum,
            }),
            right: Box::new(domain),
        };
        assert!(rewrite_topk(&plan, 5, &ops).is_some());
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
        let ops = registry_with_fused();
        // groups that are not the identity / operator domain
        let plan = Plan::GroupedAggr {
            values: Box::new(getbl_like(vec![])),
            groups: Box::new(Plan::load("Other__map")),
            agg: Agg::Sum,
        };
        assert!(rewrite_topk(&plan, 10, &ops).is_none());
        // a late-filter semijoin the operator knows nothing about
        let late = Plan::Semijoin {
            left: Box::new(Plan::GroupedAggr {
                values: Box::new(getbl_like(vec![])),
                groups: Box::new(Plan::load("Lib__self")),
                agg: Agg::Sum,
            }),
            right: Box::new(Plan::load("survivors")),
        };
        assert!(rewrite_topk(&late, 10, &ops).is_none());
        // no fused operator registered
        let plain = Plan::GroupedAggr {
            values: Box::new(getbl_like(vec![])),
            groups: Box::new(Plan::load("Lib__self")),
            agg: Agg::Sum,
        };
        assert!(rewrite_topk(&plain, 10, &OpRegistry::new()).is_none());
    }

    #[test]
    fn peephole_disabled_is_identity() {
        let p = Plan::Reverse(Box::new(Plan::Reverse(Box::new(Plan::load("x")))));
        let r = rewrite_physical(&p, OptConfig::none());
        assert_eq!(r.size(), 3);
    }
}
