//! `MirrorDbms::retrieve` taken apart from the outside.
//!
//! The facade compiles a request to a Moa expression, flattens it, runs the
//! optimizer passes, executes the plan and materialises the ranking, all
//! behind one call. The replay needs a span around each of those layers, so
//! this module rebuilds the same expression with `moa`'s public
//! constructors and then calls each layer's public entry point in turn:
//! `AssociationThesaurus::expand`, `rewrite_logical` + `Compiler::compile`,
//! `Pipeline::optimize`, `Executor::run`. The replay checks that the staged
//! answer equals `retrieve`'s for every request, so a drift between this
//! copy and the facade is a failed run, not a silent one.
//!
//! The same expression builder drives the reference engine of the
//! correctness check: a `MoaEngine` over the same environment with every
//! optimizer switch off.

use crate::trace::Tracer;
use mirror_core::query::RankedResult;
use mirror_core::serve::{Channel, RetrievalRequest};
use mirror_core::{MirrorDbms, INTERNAL};
use moa::expr::{ArithKind, Lit};
use moa::flatten::{Compiler, Rep};
use moa::rewrite::rewrite_logical;
use moa::{Expr, MoaEngine, MoaError, OptConfig, PassCtx, QueryOutput, QueryParams};
use monet::{ExecStats, Executor, Oid, Val};
use std::sync::Arc;

/// Counts the staged replay reads off each layer's own reports.
#[derive(Default)]
pub struct LayerCounts {
    pub requests: u64,
    pub expansions: u64,
    pub expanded_terms: u64,
    pub plan_nodes: u64,
    pub passes_fired: u64,
    pub ops_evaluated: u64,
    pub rows_produced: u64,
    pub memo_hits: u64,
    pub fragmented_ops: u64,
}

fn getbl(attr: &str, binding: &str) -> Expr {
    Expr::call(
        "getBL",
        vec![Expr::this_attr(attr), Expr::Ident(binding.into()), Expr::Ident("stats".into())],
    )
}

/// `map[sum(THIS)](map[getBL(THIS.attr, binding, stats)](input))`.
fn ranking(attr: &str, binding: &str, input: Expr) -> Expr {
    Expr::map(Expr::call("sum", vec![Expr::This]), Expr::map(getbl(attr, binding), input))
}

fn weighted(attr: &str, binding: &str, weight: f64) -> Expr {
    Expr::Arith {
        op: ArithKind::Mul,
        left: Box::new(Expr::call("sum", vec![getbl(attr, binding)])),
        right: Box::new(Expr::Lit(Lit::Float(weight))),
    }
}

/// The request's Moa expression and bindings, given the visual side of a
/// dual request already resolved (`None`: not a dual request).
pub fn request_expr(
    req: &RetrievalRequest,
    visual: Option<Vec<(String, f64)>>,
) -> (Expr, QueryParams) {
    let library = Expr::Ident(INTERNAL.into());
    let input = match &req.filter {
        Some(pattern) => Expr::select(
            Expr::call(
                "contains",
                vec![Expr::this_attr("source"), Expr::Lit(Lit::Str(pattern.clone()))],
            ),
            library,
        ),
        None => library,
    };
    let params = QueryParams::new().with_top_k(req.k);
    match (req.channel, visual) {
        (Channel::Visual, _) => {
            (ranking("image", "q_vis", input), params.bind("q_vis", req.terms.clone()))
        }
        (Channel::Dual, Some(visual)) if !visual.is_empty() => {
            let body = Expr::Arith {
                op: ArithKind::Add,
                left: Box::new(weighted("annotation", "q_text", 1.0 - req.mix)),
                right: Box::new(weighted("image", "q_vis", req.mix)),
            };
            (Expr::map(body, input), params.bind("q_text", req.terms.clone()).bind("q_vis", visual))
        }
        _ => (ranking("annotation", "q_text", input), params.bind("q_text", req.terms.clone())),
    }
}

/// Resolve the visual side of a dual request the way the facade does.
fn visual_side(db: &MirrorDbms, req: &RetrievalRequest) -> Option<Vec<(String, f64)>> {
    if req.channel != Channel::Dual {
        return None;
    }
    Some(match &req.visual_terms {
        Some(v) => v.clone(),
        None => db.thesaurus().expect("corpus carries a thesaurus").expand(
            &req.terms,
            db.config().expand_per_term,
            db.config().expand_max_terms,
        ),
    })
}

/// Rank materialisation: positive beliefs, best first (ties by oid), the
/// first k, each with its URL.
fn materialise(
    db: &MirrorDbms,
    pairs: impl Iterator<Item = (Oid, Val)>,
    k: usize,
) -> Vec<RankedResult> {
    let mut ranked: Vec<RankedResult> = pairs
        .filter_map(|(oid, v)| {
            let score = v.as_float()?;
            let url = db.docs().get(oid as usize)?.url.clone();
            Some(RankedResult { oid, url, score })
        })
        .filter(|r| r.score > 0.0)
        .collect();
    ranked.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.oid.cmp(&b.oid)));
    ranked.truncate(k);
    ranked
}

/// The request's answer from an engine over the same environment with
/// every optimizer switch off — no pushdown, no peephole, no fusion, no
/// memoisation, serial.
pub fn unoptimised(db: &MirrorDbms, req: &RetrievalRequest) -> moa::Result<Vec<RankedResult>> {
    let engine = MoaEngine::with_opt(Arc::clone(db.env()), OptConfig::none());
    let (expr, params) = request_expr(req, visual_side(db, req));
    match engine.query_expr_params(&expr, &params)?.0 {
        QueryOutput::Pairs(pairs) => Ok(materialise(db, pairs.into_iter(), req.k)),
        other => Err(MoaError::Type(format!("ranking query returned {other:?}"))),
    }
}

/// `retrieve`, one public layer call at a time, each inside a span.
pub fn retrieve(
    db: &MirrorDbms,
    req: &RetrievalRequest,
    id: u32,
    t: &mut Tracer,
    counts: &mut LayerCounts,
) -> moa::Result<Vec<RankedResult>> {
    t.span("core.retrieve", id, |t| {
        req.validate().map_err(|e| MoaError::Unsupported(e.to_string()))?;
        let visual = match (&req.channel, &req.visual_terms) {
            (Channel::Dual, None) => {
                let v = t.span("thesaurus.expand", id, |_| visual_side(db, req));
                counts.expansions += 1;
                counts.expanded_terms += v.as_ref().map_or(0, Vec::len) as u64;
                v
            }
            _ => visual_side(db, req),
        };
        let (expr, params) = request_expr(req, visual);
        let engine = db.engine();
        let env = db.env();

        let rep = t.span("moa.flatten", id, |_| {
            let rewritten = rewrite_logical(&expr, env, engine.opt);
            Compiler::with_params(env, &params).compile(&rewritten)
        })?;
        let Rep::Vals { plan, multi, .. } = rep else {
            return Err(MoaError::Type("ranking request did not flatten to values".into()));
        };
        counts.plan_nodes += plan.size() as u64;

        let (plan, hints) = t.span("moa.opt", id, |_| {
            let ctx = PassCtx {
                cfg: engine.opt,
                stats: env.stats(),
                ops: env.ops(),
                top_k: (!multi).then_some(req.k),
            };
            engine.pipeline.optimize(&plan, &ctx)
        });
        counts.passes_fired += hints.passes_fired.len() as u64;

        let (bat, stats): (_, ExecStats) = t.span("monet.exec", id, |_| {
            let mut exec = Executor::new(env.catalog(), env.ops());
            exec.memoize = engine.opt.memoize;
            exec.degree = monet::fragment::resolve_degree(engine.opt.parallelism);
            if engine.opt.stats_driven {
                if !hints.est_rows.is_empty() {
                    exec.est_rows = Some(Arc::new(hints.est_rows));
                }
                if !hints.degree_cap.is_empty() {
                    exec.degree_hints = Some(Arc::new(hints.degree_cap));
                }
            }
            exec.run(&plan)
        })?;
        counts.requests += 1;
        counts.ops_evaluated += stats.ops_evaluated;
        counts.rows_produced += stats.rows_produced;
        counts.memo_hits += stats.memo_hits;
        counts.fragmented_ops += stats.fragmented_ops;

        let mut pairs = Vec::with_capacity(bat.count());
        for i in 0..bat.count() {
            let (h, v) = bat.fetch(i)?;
            let oid = h.as_oid().ok_or_else(|| MoaError::Type("non-oid head".into()))?;
            pairs.push((oid, v));
        }
        Ok(materialise(db, pairs.into_iter(), req.k))
    })
}
