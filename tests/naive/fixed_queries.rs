//! The oracle's fixed-query checks: the flattened engine and the
//! object-at-a-time interpreter (`mod.rs`) agree on a select with a
//! conjunction and a float comparison, a map over a `>=` select, a sum over
//! a nested set, and a count. The facade's unit tests include this file
//! beside the oracle (as `oracle`).

mod tests {
    use crate::oracle::{outputs_equivalent, NaiveEngine};
    use mirror::moa::{parse_define, Env, MoaEngine, MoaVal, QueryOutput};
    use mirror::monet::Val;
    use std::sync::Arc;

    /// A five-row collection with int, float and nested-set fields,
    /// and the rows the oracle is handed.
    fn env() -> (Arc<Env>, Vec<MoaVal>) {
        let env = Env::new();
        let (n, ty) = parse_define(
            "define Lib as SET<TUPLE<
                Atomic<URL>: source, Atomic<int>: size, Atomic<float>: score,
                SET<Atomic<float>>: ws >>;",
        )
        .unwrap();
        let rows: Vec<MoaVal> = (0..5)
            .map(|i| {
                MoaVal::Tuple(vec![
                    MoaVal::Str(format!("u{i}")),
                    MoaVal::Int(10 * (i + 1)),
                    MoaVal::Float(0.1 * i as f64),
                    MoaVal::Set(vec![MoaVal::Float(0.5), MoaVal::Float(0.1 * i as f64)]),
                ])
            })
            .collect();
        env.create_collection(n, ty, rows.clone()).unwrap();
        (Arc::new(env), rows)
    }

    fn assert_agree(q: &str) {
        let (env, rows) = env();
        let naive = NaiveEngine::new(&env, &rows, None).query(q).unwrap();
        let flat = MoaEngine::new(Arc::clone(&env)).query(q).unwrap();
        assert!(outputs_equivalent(&naive, &flat), "{naive:?} vs {flat:?}");
    }

    #[test]
    fn naive_select_matches_flattened() {
        assert_agree("select[THIS.size > 20 and THIS.score < 0.35](Lib)");
    }

    #[test]
    fn naive_map_attr_matches_flattened() {
        assert_agree("map[THIS.size](select[THIS.score >= 0.2](Lib))");
    }

    #[test]
    fn naive_nested_sum_matches_flattened() {
        assert_agree("map[sum(map[THIS](THIS.ws))](Lib)");
    }

    #[test]
    fn naive_count_scalar() {
        let (env, rows) = env();
        let out = NaiveEngine::new(&env, &rows, None).query("count(Lib)").unwrap();
        assert_eq!(out, QueryOutput::Scalar(Val::Int(5)));
    }
}
