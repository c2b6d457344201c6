//! Property-based tests over the core data structures and cross-layer
//! invariants: the BAT algebra, the text pipeline, the belief functions,
//! and naive-vs-flattened query equivalence on randomised data (the
//! object-at-a-time oracle is `tests/naive`).

mod naive;

use mirror::ir::{porter_stem, tokenize_stemmed, BeliefParams, IndexBuilder};
use mirror::moa::{parse_define, Env, MoaEngine, MoaVal};
use mirror::monet::{bat::bat_of_ints, Agg, Bat, Column, Val};
use naive::{outputs_equivalent, NaiveEngine};
use proptest::prelude::*;
use std::ops::Bound;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------- kernel algebra ----------

    /// reverse is an involution and preserves cardinality.
    #[test]
    fn prop_reverse_involutive(vals in proptest::collection::vec(-1000i64..1000, 0..200)) {
        let b = bat_of_ints(vals);
        let rr = b.reverse().reverse();
        prop_assert_eq!(b.count(), rr.count());
        prop_assert_eq!(b.to_pairs(), rr.to_pairs());
    }

    /// select_eq returns exactly the rows whose tail matches.
    #[test]
    fn prop_select_eq_exact(vals in proptest::collection::vec(-20i64..20, 0..200), needle in -20i64..20) {
        let b = bat_of_ints(vals.clone());
        let r = b.select_eq(&Val::Int(needle)).unwrap();
        let expected = vals.iter().filter(|&&v| v == needle).count();
        prop_assert_eq!(r.count(), expected);
        for (_, t) in r.to_pairs() {
            prop_assert_eq!(t, Val::Int(needle));
        }
    }

    /// range select agrees between the sorted (binary search) and unsorted
    /// (scan) code paths.
    #[test]
    fn prop_select_range_sorted_equals_scan(
        mut vals in proptest::collection::vec(-50i64..50, 1..150),
        lo in -60i64..60,
        len in 0i64..40,
    ) {
        let hi = lo + len;
        let unsorted = bat_of_ints(vals.clone());
        let scan = unsorted
            .select_range(Bound::Included(&Val::Int(lo)), Bound::Excluded(&Val::Int(hi)))
            .unwrap();
        vals.sort_unstable();
        let sorted = bat_of_ints(vals).analyze();
        prop_assert!(sorted.props().tail_sorted);
        let bin = sorted
            .select_range(Bound::Included(&Val::Int(lo)), Bound::Excluded(&Val::Int(hi)))
            .unwrap();
        // same multiset of tails
        let mut a: Vec<i64> = scan.to_pairs().iter().map(|(_, t)| t.as_int().unwrap()).collect();
        let b: Vec<i64> = bin.to_pairs().iter().map(|(_, t)| t.as_int().unwrap()).collect();
        a.sort_unstable();
        prop_assert_eq!(a, b);
    }

    /// join with a dense build side is a positional fetch: output count is
    /// the number of in-range probe oids.
    #[test]
    fn prop_fetch_join_count(
        probes in proptest::collection::vec(0u32..100, 0..200),
        build_len in 0usize..100,
    ) {
        let l = Bat::dense(Column::Oid(probes.clone()));
        let r = bat_of_ints((0..build_len as i64).collect());
        let j = l.join(&r).unwrap();
        let expected = probes.iter().filter(|&&o| (o as usize) < build_len).count();
        prop_assert_eq!(j.count(), expected);
    }

    /// grouped sum of all-ones equals grouped count.
    #[test]
    fn prop_grouped_sum_ones_is_count(groups in proptest::collection::vec(0u32..8, 1..200)) {
        let n = groups.len();
        let vals = Bat::dense(Column::Float(vec![1.0; n]));
        let gmap = Bat::dense(Column::Oid(groups));
        let sums = vals.grouped_agg(&gmap, Agg::Sum).unwrap();
        let counts = vals.grouped_agg(&gmap, Agg::Count).unwrap();
        prop_assert_eq!(sums.count(), counts.count());
        for i in 0..sums.count() {
            let s = sums.fetch(i).unwrap().1.as_float().unwrap();
            let c = counts.fetch(i).unwrap().1.as_int().unwrap();
            prop_assert!((s - c as f64).abs() < 1e-9);
        }
    }

    /// kunion/kdiff partition: kdiff(a,b) ∪ kintersect(a,b) has a's rows.
    #[test]
    fn prop_setops_partition(
        heads_a in proptest::collection::hash_set(0u32..50, 0..30),
        heads_b in proptest::collection::hash_set(0u32..50, 0..30),
    ) {
        let mk = |hs: &std::collections::HashSet<u32>| {
            let v: Vec<u32> = hs.iter().copied().collect();
            let n = v.len();
            Bat::new(Column::Oid(v), Column::Int(vec![0; n])).unwrap()
        };
        let a = mk(&heads_a);
        let b = mk(&heads_b);
        let diff = a.kdiff(&b).unwrap();
        let inter = a.kintersect(&b).unwrap();
        prop_assert_eq!(diff.count() + inter.count(), a.count());
        let union = a.kunion(&b).unwrap();
        let expected: std::collections::HashSet<u32> =
            heads_a.union(&heads_b).copied().collect();
        prop_assert_eq!(union.count(), expected.len());
    }

    /// topn returns the same tails as a full sort prefix.
    #[test]
    fn prop_topn_is_sort_prefix(vals in proptest::collection::vec(-1000i64..1000, 0..150), k in 0usize..20) {
        let b = bat_of_ints(vals);
        let top = b.topn_tail(k, true);
        let full = b.sort_tail(true).slice(0, k);
        let a: Vec<_> = top.to_pairs().into_iter().map(|(_, t)| t).collect();
        let c: Vec<_> = full.to_pairs().into_iter().map(|(_, t)| t).collect();
        prop_assert_eq!(a, c);
    }

    // ---------- text pipeline ----------

    /// stemming is idempotent: stem(stem(w)) == stem(w).
    #[test]
    fn prop_stemmer_idempotent(word in "[a-z]{1,12}") {
        let once = porter_stem(&word);
        let twice = porter_stem(&once);
        prop_assert_eq!(&once, &twice, "word {}", word);
    }

    /// stems never grow and stay non-empty for non-empty input.
    #[test]
    fn prop_stemmer_shrinks(word in "[a-z]{1,15}") {
        let stem = porter_stem(&word);
        prop_assert!(stem.len() <= word.len());
        prop_assert!(!stem.is_empty());
    }

    /// the token pipeline never emits stopwords or empty tokens.
    #[test]
    fn prop_pipeline_clean(text in "[a-zA-Z ,.!]{0,80}") {
        for t in tokenize_stemmed(&text) {
            prop_assert!(!t.is_empty());
        }
    }

    // ---------- beliefs ----------

    /// beliefs are always within [alpha, 1).
    #[test]
    fn prop_beliefs_bounded(tf in 0u32..500, df in 1u32..100, dl in 0u32..1000, n in 1usize..1000) {
        let p = BeliefParams::default();
        let df = df.min(n as u32);
        let b = p.belief(tf, df, dl, n, 12.5);
        prop_assert!(b >= p.alpha - 1e-12, "belief {} below alpha", b);
        prop_assert!(b < 1.0, "belief {} not below 1", b);
    }

    /// belief is monotone in tf.
    #[test]
    fn prop_belief_monotone_tf(tf in 0u32..100, df in 1u32..50, dl in 1u32..100) {
        let p = BeliefParams::default();
        let b1 = p.belief(tf, df, dl, 100, 20.0);
        let b2 = p.belief(tf + 1, df, dl, 100, 20.0);
        prop_assert!(b2 >= b1 - 1e-12);
    }

    /// index statistics stay consistent under arbitrary corpora.
    #[test]
    fn prop_index_consistency(docs in proptest::collection::vec(
        proptest::collection::vec("[a-z]{1,6}", 0..12), 1..20))
    {
        let mut b = IndexBuilder::new();
        for d in &docs {
            b.add_tokens(d);
        }
        let idx = b.build();
        prop_assert_eq!(idx.n_docs(), docs.len());
        let stats = idx.stats();
        let total: u64 = (0..docs.len()).map(|i| idx.doc_len(i as u32) as u64).sum();
        prop_assert_eq!(stats.total_tokens, total);
        // df of every dictionary term is between 1 and n_docs
        for (_, term) in idx.dict().iter() {
            let df = idx.df(term);
            prop_assert!(df >= 1 && df as usize <= docs.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// the flattened engine and the object-at-a-time interpreter agree on
    /// randomised collections and select/map/aggregate queries: int and
    /// float comparisons (`THIS.s` takes the literals' exact values),
    /// conjunctions, arithmetic, a nested-set sum and counts.
    #[test]
    fn prop_naive_equals_flattened(
        rows in proptest::collection::vec(
            (0i64..100, 0i64..100, 0i64..100, proptest::collection::vec(0i64..100, 1..4)),
            1..40,
        ),
        threshold in 0i64..100,
    ) {
        let env = Env::new();
        let (name, ty) = parse_define(
            "define P as SET<TUPLE<Atomic<int>: x, Atomic<int>: y, Atomic<float>: s,
                                   SET<Atomic<float>>: ws>>;",
        ).unwrap();
        let data: Vec<MoaVal> = rows
            .iter()
            .map(|(x, y, s, ws)| {
                MoaVal::Tuple(vec![
                    MoaVal::Int(*x),
                    MoaVal::Int(*y),
                    MoaVal::Float(*s as f64 / 100.0),
                    MoaVal::Set(ws.iter().map(|w| MoaVal::Float(*w as f64 / 10.0)).collect()),
                ])
            })
            .collect();
        env.create_collection(name, ty, data.clone()).unwrap();
        let env = Arc::new(env);
        let engine = MoaEngine::new(Arc::clone(&env));
        let naive = NaiveEngine::new(&env, &data, None);
        for q in [
            format!("select[THIS.x >= {threshold}](P)"),
            format!("map[THIS.y](select[THIS.x < {threshold}](P))"),
            "map[THIS.x + THIS.y * 2](P)".to_string(),
            format!("count(select[THIS.x = {threshold}](P))"),
            format!("select[THIS.x > {threshold} and THIS.s < 0.35](P)"),
            "map[THIS.y](select[THIS.s >= 0.2](P))".to_string(),
            "map[sum(map[THIS](THIS.ws))](P)".to_string(),
            "count(P)".to_string(),
        ] {
            let a = engine.query(&q).unwrap();
            let b = naive.query(&q).unwrap();
            prop_assert!(outputs_equivalent(&a, &b), "query {} diverged:\n{:?}\nvs\n{:?}", q, a, b);
        }
    }
}
