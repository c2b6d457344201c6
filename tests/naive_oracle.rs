//! The object-at-a-time oracle (`tests/naive`) on the cases the randomised
//! `properties::prop_naive_equals_flattened` does not draw: the paper's
//! ranking query through CONTREP's per-document `getBL`, and the output
//! comparison itself.

mod naive;

use mirror::ir::register_contrep;
use mirror::moa::{parse_define, Env, MoaEngine, MoaVal, QueryOutput};
use mirror::monet::Val;
use naive::{outputs_equivalent, NaiveEngine};
use std::sync::Arc;

#[test]
fn naive_and_flattened_getbl_agree() {
    let env = Env::new();
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
    env.create_collection(name, ty, rows.clone()).unwrap();
    let env = Arc::new(env);
    env.bind_query("query", vec![("sunset".into(), 1.0), ("beach".into(), 1.0)]);
    let q = "map[sum(THIS)](map[getBL(THIS.annotation, query, stats)](TraditionalImgLib))";
    let flat = MoaEngine::new(Arc::clone(&env)).query(q).unwrap();
    let naive = NaiveEngine::new(&env, &rows, Some(&store)).query(q).unwrap();
    let (QueryOutput::Pairs(f), QueryOutput::Pairs(n)) = (&flat, &naive) else {
        panic!("expected pairs");
    };
    assert_eq!(n.len(), docs.len(), "the oracle scores every document");
    for (doc, v) in n {
        let fv = f.iter().find(|(o, _)| o == doc).unwrap().1.as_float().unwrap();
        let nv = v.as_float().unwrap();
        assert!((fv - nv).abs() < 1e-9, "doc {doc}: {fv} vs {nv}");
    }
}

#[test]
fn equivalence_helper_detects_mismatch() {
    let a = QueryOutput::Pairs(vec![(0, Val::Float(1.0))]);
    let b = QueryOutput::Pairs(vec![(0, Val::Float(2.0))]);
    assert!(!outputs_equivalent(&a, &b));
    let c = QueryOutput::Pairs(vec![(0, Val::Float(1.0 + 1e-12))]);
    assert!(outputs_equivalent(&a, &c)); // tolerant to fp noise
}
