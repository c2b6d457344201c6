//! Additional property-based tests on the kernel: join-strategy
//! equivalence, plan-executor consistency, and group/aggregate laws.

use mirror::monet::{
    bat::bat_of_ints, Agg, Bat, Catalog, Column, Executor, OpRegistry, Plan, Pred, Val,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// merge join (sorted oid inputs) and hash join agree.
    #[test]
    fn prop_merge_equals_hash_join(
        mut left_tails in proptest::collection::vec(0u32..40, 0..80),
        mut right_heads in proptest::collection::vec(0u32..40, 0..80),
    ) {
        left_tails.sort_unstable();
        right_heads.sort_unstable();
        let rn = right_heads.len();
        let l = Bat::new(Column::void(0, left_tails.len()), Column::Oid(left_tails.clone()))
            .unwrap()
            .analyze();
        let r = Bat::new(Column::Oid(right_heads.clone()), Column::void(100, rn))
            .unwrap()
            .analyze();
        // merge path (both sorted, both oid)
        let merged = l.join(&r).unwrap();
        // force the hash path by shuffling sortedness knowledge away
        let l_unsorted = Bat::new(Column::void(0, left_tails.len()), Column::Oid(left_tails))
            .unwrap(); // props unknown → hash join
        let hashed = l_unsorted.join(&r).unwrap();
        let norm = |b: &Bat| {
            let mut v = b.to_pairs();
            v.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
            v
        };
        prop_assert_eq!(norm(&merged), norm(&hashed));
    }

    /// semijoin is idempotent: semijoin(semijoin(a,b), b) == semijoin(a,b).
    #[test]
    fn prop_semijoin_idempotent(
        heads_a in proptest::collection::vec(0u32..30, 0..60),
        heads_b in proptest::collection::vec(0u32..30, 0..60),
    ) {
        let na = heads_a.len();
        let nb = heads_b.len();
        let a = Bat::new(Column::Oid(heads_a), Column::void(0, na)).unwrap();
        let b = Bat::new(Column::Oid(heads_b), Column::void(0, nb)).unwrap();
        let once = a.semijoin(&b).unwrap();
        let twice = once.semijoin(&b).unwrap();
        prop_assert_eq!(once.to_pairs(), twice.to_pairs());
    }

    /// the plan executor computes the same result as direct operator calls.
    #[test]
    fn prop_plan_matches_direct(
        vals in proptest::collection::vec(-100i64..100, 1..100),
        lo in -100i64..100,
        k in 1usize..10,
    ) {
        let cat = Catalog::new();
        let reg = OpRegistry::new();
        cat.register("v", bat_of_ints(vals.clone()));
        let exec = Executor::new(&cat, &reg);
        let plan = Plan::TopN {
            input: Box::new(Plan::Select {
                input: Box::new(Plan::load("v")),
                pred: Pred::Range {
                    lo: Some(Val::Int(lo)),
                    lo_incl: true,
                    hi: None,
                    hi_incl: true,
                },
            }),
            k,
            desc: true,
        };
        let via_plan = exec.run_bat(&plan).unwrap();
        let direct = bat_of_ints(vals)
            .select_range(
                std::ops::Bound::Included(&Val::Int(lo)),
                std::ops::Bound::Unbounded,
            )
            .unwrap()
            .topn_tail(k, true);
        prop_assert_eq!(via_plan.to_pairs(), direct.to_pairs());
    }

    /// sum over groups equals total sum (no value lost or duplicated).
    #[test]
    fn prop_grouped_sum_conserves_total(
        vals in proptest::collection::vec(-100i64..100, 1..100),
        n_groups in 1u32..6,
    ) {
        let n = vals.len();
        let groups: Vec<u32> = (0..n as u32).map(|i| i % n_groups).collect();
        let v = bat_of_ints(vals.clone());
        let g = Bat::dense(Column::Oid(groups));
        let per_group = v.grouped_agg(&g, Agg::Sum).unwrap();
        let group_total: i64 = per_group
            .to_pairs()
            .iter()
            .map(|(_, t)| t.as_int().unwrap())
            .sum();
        prop_assert_eq!(group_total, vals.iter().sum::<i64>());
    }

    /// group ids are dense and representative values match first occurrence.
    #[test]
    fn prop_group_ids_dense(vals in proptest::collection::vec(0i64..10, 1..80)) {
        let b = bat_of_ints(vals.clone());
        let (map, groups) = b.group().unwrap();
        let distinct: std::collections::HashSet<i64> = vals.iter().copied().collect();
        prop_assert_eq!(groups.count(), distinct.len());
        // every gid in the map is < number of groups
        for (_, gid) in map.to_pairs() {
            prop_assert!((gid.as_oid().unwrap() as usize) < groups.count());
        }
        // rows with equal values share a gid
        let gids: Vec<u32> =
            map.to_pairs().iter().map(|(_, g)| g.as_oid().unwrap()).collect();
        for i in 0..vals.len() {
            for j in (i + 1)..vals.len() {
                if vals[i] == vals[j] {
                    prop_assert_eq!(gids[i], gids[j]);
                }
            }
        }
    }

    /// kunion cardinality equals the size of the head-set union.
    #[test]
    fn prop_kunion_cardinality(
        a in proptest::collection::hash_set(0u32..40, 0..30),
        b in proptest::collection::hash_set(0u32..40, 0..30),
    ) {
        let mk = |hs: &std::collections::HashSet<u32>| {
            let v: Vec<u32> = hs.iter().copied().collect();
            let n = v.len();
            Bat::new(Column::Oid(v), Column::void(0, n)).unwrap()
        };
        let u = mk(&a).kunion(&mk(&b)).unwrap();
        prop_assert_eq!(u.count(), a.union(&b).count());
    }

    /// sort is a permutation: same multiset of pairs before and after.
    #[test]
    fn prop_sort_is_permutation(vals in proptest::collection::vec(-50i64..50, 0..100)) {
        let b = bat_of_ints(vals);
        let sorted = b.sort_tail(false);
        let norm = |x: &Bat| {
            let mut v = x.to_pairs();
            v.sort_by(|p, q| p.0.total_cmp(&q.0));
            v
        };
        prop_assert_eq!(norm(&b), norm(&sorted));
        // and the tails really are sorted
        prop_assert!(sorted.tail().is_sorted());
    }
}
