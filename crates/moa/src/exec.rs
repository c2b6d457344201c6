//! The execution facade: parse → rewrite → flatten → execute.

use crate::expr::Expr;
use crate::flatten::{identity_plan, Compiler, Rep};
use crate::opt::{PassCtx, Pipeline, PlanHints};
use crate::params::QueryParams;
use crate::parser::parse_expr;
use crate::rewrite::{rewrite_logical, OptConfig};
use crate::{Env, MoaError, Result};
use monet::{ExecStats, Executor, Oid, Plan, Val};
use std::sync::Arc;

/// The result of a Moa query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// A set of object identifiers (result of `select[...](C)`).
    Oids(Vec<Oid>),
    /// `(oid, value)` pairs (result of `map[...](C)`); may contain several
    /// rows per oid for nested results.
    Pairs(Vec<(Oid, Val)>),
    /// A single scalar (whole-collection aggregates).
    Scalar(Val),
}

impl QueryOutput {
    /// The pairs, if this is a pair result.
    pub fn pairs(&self) -> Option<&[(Oid, Val)]> {
        match self {
            QueryOutput::Pairs(p) => Some(p),
            _ => None,
        }
    }

    /// The scalar, if this is a scalar result.
    pub fn scalar(&self) -> Option<&Val> {
        match self {
            QueryOutput::Scalar(v) => Some(v),
            _ => None,
        }
    }

    /// Number of result rows.
    pub fn len(&self) -> usize {
        match self {
            QueryOutput::Oids(v) => v.len(),
            QueryOutput::Pairs(v) => v.len(),
            QueryOutput::Scalar(_) => 1,
        }
    }

    /// True if the result holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A query engine bound to an environment.
pub struct MoaEngine {
    env: Arc<Env>,
    /// Optimiser configuration applied to every query.
    pub opt: OptConfig,
    /// The optimizer; every query's physical plan runs through it.
    pub pipeline: Pipeline,
}

impl MoaEngine {
    /// Create an engine over an environment.
    pub fn new(env: Arc<Env>) -> Self {
        MoaEngine { env, opt: OptConfig::default(), pipeline: Pipeline }
    }

    /// Create an engine with explicit optimiser switches.
    pub fn with_opt(env: Arc<Env>, opt: OptConfig) -> Self {
        MoaEngine { env, opt, pipeline: Pipeline }
    }

    /// The underlying environment.
    pub fn env(&self) -> &Arc<Env> {
        &self.env
    }

    /// Run a textual Moa query.
    pub fn query(&self, src: &str) -> Result<QueryOutput> {
        let expr = parse_expr(src)?;
        self.query_expr(&expr)
    }

    /// Run a textual Moa query with request-scoped parameters: bindings are
    /// resolved from `params` (falling back to the environment), and a
    /// top-k budget fuses the plan into a streaming top-k operator when the
    /// shape allows — returning only the k best rows with nonzero belief
    /// mass (see [`QueryParams::with_top_k`]). Concurrent callers never
    /// touch the shared `Env` maps.
    pub fn query_with(&self, src: &str, params: &QueryParams) -> Result<QueryOutput> {
        let expr = parse_expr(src)?;
        Ok(self.query_expr_params(&expr, params)?.0)
    }

    /// Run a query given as an AST.
    pub fn query_expr(&self, expr: &Expr) -> Result<QueryOutput> {
        Ok(self.query_with_stats(expr)?.0)
    }

    /// Run a query and return execution statistics alongside the result.
    pub fn query_with_stats(&self, expr: &Expr) -> Result<(QueryOutput, ExecStats)> {
        self.query_expr_params(expr, &QueryParams::default())
    }

    /// Run an AST with request-scoped parameters, returning execution
    /// statistics alongside the result — the serving layer's entry point.
    pub fn query_expr_params(
        &self,
        expr: &Expr,
        params: &QueryParams,
    ) -> Result<(QueryOutput, ExecStats)> {
        let (rep, plan, hints) = self.compile_params(expr, params)?;
        let exec = self.executor(hints, params);
        let (bat, stats) = exec.run(&plan).map_err(MoaError::from)?;
        let out = match rep {
            Rep::Rows { .. } => {
                let mut oids = Vec::with_capacity(bat.count());
                for i in 0..bat.count() {
                    oids.push(bat.head().oid_at(i).map_err(MoaError::from)?);
                }
                QueryOutput::Oids(oids)
            }
            Rep::Vals { .. } => {
                let mut pairs = Vec::with_capacity(bat.count());
                for i in 0..bat.count() {
                    let (h, t) = bat.fetch(i).map_err(MoaError::from)?;
                    let oid = h
                        .as_oid()
                        .ok_or_else(|| MoaError::Type("non-oid head in value result".into()))?;
                    pairs.push((oid, t));
                }
                QueryOutput::Pairs(pairs)
            }
            Rep::Scalar { .. } => {
                let v = bat.fetch(0).map_err(MoaError::from)?.1;
                QueryOutput::Scalar(v)
            }
            other => {
                return Err(MoaError::Unsupported(format!(
                    "query evaluates to a binding, not data: {other:?}"
                )))
            }
        };
        Ok((out, stats))
    }

    /// EXPLAIN: the physical plan a query compiles to, after rewriting.
    pub fn explain(&self, src: &str) -> Result<String> {
        self.explain_with(src, &QueryParams::default())
    }

    /// EXPLAIN with request-scoped parameters — shows the fused top-k plan
    /// when a budget is set and the shape fuses, plus which optimizer
    /// passes changed the plan.
    pub fn explain_with(&self, src: &str, params: &QueryParams) -> Result<String> {
        let expr = parse_expr(src)?;
        let rewritten = rewrite_logical(&expr, &self.env, self.opt);
        let (_, plan, hints) = self.compile_rewritten(&rewritten, params)?;
        let passes = if hints.passes_fired.is_empty() {
            String::new()
        } else {
            format!("-- passes: {} --\n", hints.passes_fired.join(", "))
        };
        Ok(format!("-- logical --\n{rewritten}\n-- physical --\n{passes}{}", plan.explain()))
    }

    /// EXPLAIN ANALYZE with request-scoped parameters: compile, execute,
    /// and render the physical plan with the optimizer's *estimated*
    /// cardinality (`est≈N`) next to the *actual* rows each operator
    /// produced — the estimated-vs-actual view of the statistics-driven
    /// optimizer.
    pub fn explain_analyze(&self, src: &str, params: &QueryParams) -> Result<String> {
        self.explain_analyze_expr(&parse_expr(src)?, params)
    }

    /// [`Self::explain_analyze`] of a query given as an AST.
    pub fn explain_analyze_expr(&self, expr: &Expr, params: &QueryParams) -> Result<String> {
        let rewritten = rewrite_logical(expr, &self.env, self.opt);
        let (_, plan, hints) = self.compile_rewritten(&rewritten, params)?;
        let passes = if hints.passes_fired.is_empty() {
            String::new()
        } else {
            format!("-- passes: {} --\n", hints.passes_fired.join(", "))
        };
        let exec = self.executor(hints, params);
        let text = exec.explain(&plan).map_err(MoaError::from)?;
        Ok(format!("-- logical --\n{rewritten}\n{passes}{text}"))
    }

    /// Build a kernel executor configured from the optimiser switches, a
    /// compiled plan's cardinality estimates and the request's pinned
    /// view.
    fn executor(&self, hints: PlanHints, params: &QueryParams) -> Executor<'_> {
        let mut exec = Executor::new(self.env.catalog(), self.env.ops());
        exec.view = params.view().cloned();
        if self.opt.stats_driven && !hints.est_rows.is_empty() {
            exec.est_rows = Some(Arc::new(hints.est_rows));
        }
        exec
    }

    /// Compile an AST to its final physical plan: logical rewrite, flatten
    /// (with request bindings), then the optimizer (statistics-driven
    /// selection ordering, top-k fusion).
    fn compile_params(&self, expr: &Expr, params: &QueryParams) -> Result<(Rep, Plan, PlanHints)> {
        let rewritten = rewrite_logical(expr, &self.env, self.opt);
        self.compile_rewritten(&rewritten, params)
    }

    /// The post-logical-rewrite half of [`Self::compile_params`].
    fn compile_rewritten(
        &self,
        rewritten: &Expr,
        params: &QueryParams,
    ) -> Result<(Rep, Plan, PlanHints)> {
        let rep = Compiler::with_params(&self.env, params).compile(rewritten)?;
        let plan = self.rep_plan(&rep);
        let top_k = match (&rep, params.top_k()) {
            (Rep::Vals { multi: false, .. }, Some(k)) => Some(k),
            _ => None,
        };
        let ctx = PassCtx { cfg: self.opt, stats: self.env.stats(), ops: self.env.ops(), top_k };
        let (plan, hints) = self.pipeline.optimize(&plan, &ctx);
        Ok((rep, plan, hints))
    }

    fn rep_plan(&self, rep: &Rep) -> Plan {
        match rep {
            Rep::Rows { coll, domain } => identity_plan(coll, domain),
            Rep::Vals { plan, .. } => plan.clone(),
            Rep::Scalar { plan, .. } => plan.clone(),
            // bindings have no plan; callers reject them after execution
            Rep::Query(_) | Rep::Stats(_) => Plan::load("__binding__"),
            Rep::Lit(v) => Plan::Const(v.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_define;
    use crate::value::MoaVal;

    fn engine() -> MoaEngine {
        let env = Env::new();
        let (n, ty) = parse_define(
            "define Lib as SET<TUPLE<
                Atomic<URL>: source, Atomic<int>: size, Atomic<float>: score >>;",
        )
        .unwrap();
        let rows: Vec<MoaVal> = (0..6)
            .map(|i| {
                MoaVal::Tuple(vec![
                    MoaVal::Str(format!("u{i}")),
                    MoaVal::Int(100 * (i + 1)),
                    MoaVal::Float(0.1 * (5 - i) as f64),
                ])
            })
            .collect();
        env.create_collection(n, ty, rows).unwrap();
        MoaEngine::new(Arc::new(env))
    }

    #[test]
    fn select_returns_oids() {
        let e = engine();
        let out = e.query("select[THIS.size >= 400](Lib)").unwrap();
        assert_eq!(out, QueryOutput::Oids(vec![3, 4, 5]));
    }

    #[test]
    fn map_returns_pairs() {
        let e = engine();
        let out = e.query("map[THIS.size](Lib)").unwrap();
        let pairs = out.pairs().unwrap();
        assert_eq!(pairs.len(), 6);
        assert_eq!(pairs[2], (2, Val::Int(300)));
    }

    #[test]
    fn count_returns_scalar() {
        let e = engine();
        let out = e.query("count(Lib)").unwrap();
        assert_eq!(out.scalar(), Some(&Val::Int(6)));
    }

    #[test]
    fn optimised_and_unoptimised_agree() {
        let env = {
            let e = engine();
            Arc::clone(e.env())
        };
        let opt = MoaEngine::with_opt(Arc::clone(&env), OptConfig::default());
        let raw = MoaEngine::with_opt(env, OptConfig::none());
        // chained float constants must not be folded: (x·a)·b ≠ x·(a·b)
        for q in [
            "map[THIS.score * 2 * 3](select[THIS.size > 100](Lib))",
            "map[THIS.score * 0.2 * 0.3](Lib)",
            "map[THIS.score + 0.2 + 0.3](Lib)",
        ] {
            assert_eq!(opt.query(q).unwrap(), raw.query(q).unwrap(), "{q}");
        }
    }

    #[test]
    fn explain_shows_both_levels() {
        let e = engine();
        let text = e.explain("map[THIS.size](Lib)").unwrap();
        assert!(text.contains("-- logical --"));
        assert!(text.contains("load(Lib__size)"));
    }

    #[test]
    fn query_binding_alone_is_rejected() {
        let e = engine();
        e.env().bind_query("query", vec![("x".into(), 1.0)]);
        assert!(e.query("query").is_err());
    }
}
