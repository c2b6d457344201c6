//! Property tests for fragmented parallel execution: for random BATs and
//! predicates, the fragment-parallel operators and the parallel plan
//! executor must be **value-identical** to the serial path at parallelism
//! degrees 1, 2 and 7.
//!
//! Floating-point inputs are drawn as integer-valued `f64`s. Non-integer
//! float sums run the serial kernel at every degree (the kernel never
//! merges float partial sums); `monet::fragment`'s unit tests check them
//! bit for bit.

use mirror::monet::fragment;
use mirror::monet::{
    bat::{bat_of_floats, bat_of_ints},
    Agg, Bat, Catalog, Column, Executor, OpRegistry, Plan, Pred, Val,
};
use proptest::prelude::*;

/// Degrees the satellite task pins: serial, even split, odd split larger
/// than the fragment count of most generated inputs.
const DEGREES: &[usize] = &[1, 2, 7];

/// Run a plan serially.
fn run_serial(cat: &Catalog, plan: &Plan) -> Vec<(Val, Val)> {
    let reg = OpRegistry::new();
    Executor::new(cat, &reg).run_bat(plan).expect("serial run").to_pairs()
}

/// Run a plan with fragmentation forced on (threshold 1) at `degree`.
fn run_parallel(cat: &Catalog, plan: &Plan, degree: usize) -> Vec<(Val, Val)> {
    let reg = OpRegistry::new();
    let mut ex = Executor::new(cat, &reg);
    ex.degree = degree;
    ex.min_fragment_rows = 1;
    ex.run_bat(plan).expect("parallel run").to_pairs()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fragment bounds partition the row range exactly.
    #[test]
    fn prop_bounds_partition(rows in 0usize..5000, degree in 1usize..16) {
        let bs = fragment::bounds(rows, degree);
        prop_assert!(bs.len() <= degree);
        let mut expected_lo = 0usize;
        for &(lo, hi) in &bs {
            prop_assert_eq!(lo, expected_lo);
            prop_assert!(hi > lo, "empty fragment [{}, {})", lo, hi);
            expected_lo = hi;
        }
        prop_assert_eq!(expected_lo, rows);
    }

    /// Parallel select (eq + range, random inclusivity) == serial select.
    #[test]
    fn prop_par_select_int_identical(
        vals in proptest::collection::vec(-50i64..50, 0..400),
        lo in -60i64..60,
        width in 0i64..80,
        lo_incl in proptest::strategy::Just(true),
        hi_incl in proptest::strategy::Just(false),
    ) {
        let cat = Catalog::new();
        cat.register("b", bat_of_ints(vals));
        let preds = [
            Pred::Eq(Val::Int(lo)),
            Pred::Range {
                lo: Some(Val::Int(lo)),
                lo_incl,
                hi: Some(Val::Int(lo + width)),
                hi_incl,
            },
            Pred::Range { lo: None, lo_incl: true, hi: Some(Val::Int(lo)), hi_incl: true },
        ];
        for pred in preds {
            let plan = Plan::Select { input: Box::new(Plan::load("b")), pred };
            let serial = run_serial(&cat, &plan);
            for &d in DEGREES {
                prop_assert_eq!(&run_parallel(&cat, &plan, d), &serial, "degree {}", d);
            }
        }
    }

    /// Parallel select over float tails == serial (integer-valued floats).
    #[test]
    fn prop_par_select_float_identical(
        vals in proptest::collection::vec(-100i64..100, 0..300),
        lo in -100i64..100,
        width in 0i64..100,
    ) {
        let cat = Catalog::new();
        cat.register("b", bat_of_floats(vals.iter().map(|&x| x as f64).collect()));
        let plan = Plan::Select {
            input: Box::new(Plan::load("b")),
            pred: Pred::Range {
                lo: Some(Val::Float(lo as f64)),
                lo_incl: false,
                hi: Some(Val::Float((lo + width) as f64)),
                hi_incl: true,
            },
        };
        let serial = run_serial(&cat, &plan);
        for &d in DEGREES {
            prop_assert_eq!(&run_parallel(&cat, &plan, d), &serial, "degree {}", d);
        }
    }

    /// Parallel select over string tails == serial.
    #[test]
    fn prop_par_select_str_identical(
        words in proptest::collection::vec("[ab]{1,4}", 0..200),
        pat in "[ab]{1,2}",
    ) {
        let cat = Catalog::new();
        cat.register("b", mirror::monet::bat::bat_of_strs(words.iter().map(String::as_str)));
        let plan = Plan::Select {
            input: Box::new(Plan::load("b")),
            pred: Pred::StrContains(pat),
        };
        let serial = run_serial(&cat, &plan);
        for &d in DEGREES {
            prop_assert_eq!(&run_parallel(&cat, &plan, d), &serial, "degree {}", d);
        }
    }

    /// Parallel join (probe side fragmented) == serial join, on both the
    /// positional fetch path (dense build head) and the hash path
    /// (materialised build head with duplicates).
    #[test]
    fn prop_par_join_identical(
        probe in proptest::collection::vec(0u32..60, 0..300),
        build_heads in proptest::collection::vec(0u32..60, 0..120),
    ) {
        let cat = Catalog::new();
        let nb = build_heads.len();
        cat.register("probe", Bat::dense(Column::Oid(probe)));
        cat.register("fetch_side", bat_of_ints((0..40).collect()));
        cat.register(
            "hash_side",
            Bat::new(Column::Oid(build_heads), Column::void(500, nb)).unwrap(),
        );
        for right in ["fetch_side", "hash_side"] {
            let plan = Plan::Join {
                left: Box::new(Plan::load("probe")),
                right: Box::new(Plan::load(right)),
            };
            let serial = run_serial(&cat, &plan);
            for &d in DEGREES {
                prop_assert_eq!(&run_parallel(&cat, &plan, d), &serial, "{} degree {}", right, d);
            }
        }
    }

    /// Parallel scalar aggregation (partial + merge) == serial for every
    /// aggregate kind, over int and integer-valued float tails.
    #[test]
    fn prop_par_aggr_identical(
        ints in proptest::collection::vec(-1000i64..1000, 1..500),
    ) {
        let cat = Catalog::new();
        cat.register("ints", bat_of_ints(ints.clone()));
        cat.register("floats", bat_of_floats(ints.iter().map(|&x| x as f64).collect()));
        for name in ["ints", "floats"] {
            for agg in [Agg::Sum, Agg::Count, Agg::Min, Agg::Max, Agg::Avg] {
                let plan = Plan::Aggr { input: Box::new(Plan::load(name)), agg };
                let serial = run_serial(&cat, &plan);
                for &d in DEGREES {
                    prop_assert_eq!(
                        &run_parallel(&cat, &plan, d), &serial,
                        "{} {} degree {}", name, agg, d
                    );
                }
            }
        }
    }

    /// Parallel grouped aggregation == serial for every aggregate kind
    /// (Sum/Count merge partials; the rest transparently fall back).
    #[test]
    fn prop_par_grouped_aggr_identical(
        vals in proptest::collection::vec(-100i64..100, 0..300),
        n_groups in 1u32..9,
    ) {
        let cat = Catalog::new();
        let gids: Vec<u32> = (0..vals.len() as u32).map(|i| (i * 7 + 3) % n_groups).collect();
        cat.register("vals", bat_of_ints(vals));
        cat.register("groups", Bat::dense(Column::Oid(gids)));
        for agg in [Agg::Sum, Agg::Count, Agg::Min, Agg::Max, Agg::Avg] {
            let plan = Plan::GroupedAggr {
                values: Box::new(Plan::load("vals")),
                groups: Box::new(Plan::load("groups")),
                agg,
            };
            let serial = run_serial(&cat, &plan);
            for &d in DEGREES {
                prop_assert_eq!(&run_parallel(&cat, &plan, d), &serial, "{} degree {}", agg, d);
            }
        }
    }

    /// Fragment-wise constant projection and mark == serial. Both are
    /// kernel-level helpers (the interpreter keeps them serial because
    /// constant/void fills are pure memory bandwidth); check them directly.
    #[test]
    fn prop_par_project_mark_identical(
        vals in proptest::collection::vec(0i64..100, 0..300),
        base in 0u32..1000,
    ) {
        let cat = Catalog::new();
        cat.register("b", bat_of_ints(vals));
        let b = cat.get("b").unwrap();
        let serial_project = b.project(&Val::Float(0.5)).unwrap().to_pairs();
        let serial_mark = b.mark(base).to_pairs();
        for &d in DEGREES {
            prop_assert_eq!(
                fragment::par_project(&b, &Val::Float(0.5), d).unwrap().to_pairs(),
                serial_project.clone(),
                "project degree {}", d
            );
            prop_assert_eq!(
                fragment::par_mark(&b, base, d).unwrap().to_pairs(),
                serial_mark.clone(),
                "mark degree {}", d
            );
        }
        // the interpreter's ProjectConst node stays serial at any degree
        let plan = Plan::ProjectConst {
            input: Box::new(Plan::load("b")),
            val: Val::Float(0.5),
        };
        let serial = run_serial(&cat, &plan);
        for &d in DEGREES {
            prop_assert_eq!(&run_parallel(&cat, &plan, d), &serial, "plan degree {}", d);
        }
    }
}
