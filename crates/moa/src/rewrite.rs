//! Optimiser switches and the logical rewrite.
//!
//! The paper argues that translating the logical object model to a
//! different physical model "provides an excellent basis for algebraic
//! query optimization". The one rewrite on logical expressions lives here:
//! **selection pushdown**, `select[p](map[f](X))` → `map[f](select[p](X))`
//! whenever the predicate only mentions attributes of `X`'s rows — crucial
//! for the IR/data integration queries, because it makes ranking operate
//! on the surviving documents only. Every rewrite of the flattened physical
//! plan is in [`crate::opt`].

use crate::expr::Expr;
use crate::Env;

/// Optimiser switches (all on by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptConfig {
    /// Kept only because `benchmark/src` reads it (ROADMAP 1(h)); ignored.
    pub memoize: bool,
    /// Kept only because `benchmark/src` reads it (ROADMAP 1(h)); ignored.
    pub parallelism: usize,
    /// Run the rewrites beyond single-channel top-k fusion: logical
    /// selection pushdown ([`rewrite_logical`]), and in [`crate::opt`]
    /// statistics-driven selection ordering and dual-coding top-k fusion.
    pub stats_driven: bool,
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig { memoize: false, parallelism: 1, stats_driven: true }
    }
}

impl OptConfig {
    /// Everything off — the unoptimised reference engine.
    pub fn none() -> Self {
        OptConfig { memoize: false, parallelism: 1, stats_driven: false }
    }
}

/// Apply logical rewrites to an expression (under
/// [`OptConfig::stats_driven`]).
pub fn rewrite_logical(expr: &Expr, env: &Env, cfg: OptConfig) -> Expr {
    if !cfg.stats_driven {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_define, parse_expr};
    use crate::value::MoaVal;

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
}
