//! Property tests for the fused streaming top-k retrieval path: for any
//! corpus and query, `topk_bl` must return exactly the `(oid, score)`
//! ranking that materialise-then-sort produces — same documents, same
//! bit-identical scores, same tie-breaks — for k ∈ {1, 10, all} and at
//! parallel degrees 1 and 4; and on a block-scale library, fused dual
//! requests must equal the unfused `OptConfig::none()` plan bit for bit.

mod common;

use common::{assert_fused, block_scale_requests, block_scale_rows, topk_beliefs_raw, RawPostings};
use mirror::core::{MirrorConfig, MirrorDbms, Retriever};
use mirror::ir::index::Posting;
use mirror::ir::{
    self, porter_stem, topk_beliefs, BeliefParams, IndexBuilder, InvertedIndex, PostingList,
};
use mirror::moa::{parse_define, Env, MoaEngine, MoaVal, OptConfig, QueryParams};
use mirror::monet::Oid;
use proptest::prelude::*;
use std::sync::Arc;

const POOL: &[&str] =
    &["sunset", "beach", "forest", "mist", "wave", "glow", "stone", "river", "meadow", "dune"];

/// A text library over CONTREP annotations built from pool-word indices.
fn build_env(docs: &[Vec<usize>]) -> Arc<Env> {
    let env = Env::new();
    ir::register_contrep(&env);
    let (name, ty) =
        parse_define("define Lib as SET<TUPLE< Atomic<URL>: source, CONTREP<Text>: annotation >>;")
            .unwrap();
    let rows: Vec<MoaVal> = docs
        .iter()
        .enumerate()
        .map(|(i, words)| {
            let text: Vec<&str> = words.iter().map(|&w| POOL[w % POOL.len()]).collect();
            MoaVal::Tuple(vec![MoaVal::Str(format!("http://lib/{i}")), MoaVal::Str(text.join(" "))])
        })
        .collect();
    env.create_collection(name, ty, rows).unwrap();
    Arc::new(env)
}

/// Stemmed, weighted query terms from pool indices.
fn query_terms(q: &[(usize, f64)]) -> Vec<(String, f64)> {
    q.iter().map(|(w, wt)| (porter_stem(POOL[w % POOL.len()]), *wt)).collect()
}

const RANKING: &str = "map[sum(THIS)](map[getBL(THIS.annotation, pq, stats)](Lib))";

/// The materialise-then-sort baseline, computed at serial degree.
fn baseline(env: &Arc<Env>, terms: &[(String, f64)], k: usize) -> Vec<(Oid, f64)> {
    let eng =
        MoaEngine::with_opt(Arc::clone(env), OptConfig { parallelism: 1, ..Default::default() });
    let params = QueryParams::new().bind("pq", terms.to_vec());
    let out = eng.query_with(RANKING, &params).unwrap();
    let mut pairs: Vec<(Oid, f64)> = out
        .pairs()
        .unwrap()
        .iter()
        .filter_map(|(o, v)| v.as_float().map(|f| (*o, f)))
        .filter(|(_, s)| *s > 0.0)
        .collect();
    pairs.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    pairs.truncate(k);
    pairs
}

/// The fused path at a given parallel degree.
fn fused(env: &Arc<Env>, terms: &[(String, f64)], k: usize, degree: usize) -> Vec<(Oid, f64)> {
    let eng = MoaEngine::with_opt(
        Arc::clone(env),
        OptConfig { parallelism: degree, ..Default::default() },
    );
    let params = QueryParams::new().bind("pq", terms.to_vec()).with_top_k(k);
    let out = eng.query_with(RANKING, &params).unwrap();
    out.pairs().unwrap().iter().map(|(o, v)| (*o, v.as_float().unwrap())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fused top-k ≡ materialise+sort for k ∈ {1, 10, all}, degrees 1 and 4.
    #[test]
    fn prop_fused_topk_equals_materialise_then_sort(
        docs in proptest::collection::vec(
            proptest::collection::vec(0usize..POOL.len(), 1..8), 1..60),
        query in proptest::collection::vec((0usize..POOL.len(), 0.1f64..2.0), 1..4),
    ) {
        let env = build_env(&docs);
        let terms = query_terms(&query);
        for k in [1usize, 10, docs.len()] {
            let expected = baseline(&env, &terms, k);
            for degree in [1usize, 4] {
                let got = fused(&env, &terms, k, degree);
                prop_assert_eq!(&got, &expected, "k={} degree={}", k, degree);
            }
        }
    }

    /// The ir-level streaming evaluation is degree-invariant and its k-cut
    /// is a prefix of the full ranking.
    #[test]
    fn prop_topk_beliefs_degree_invariant(
        docs in proptest::collection::vec(
            proptest::collection::vec(0usize..POOL.len(), 0..10), 1..80),
        query in proptest::collection::vec((0usize..POOL.len(), 0.25f64..2.0), 1..4),
        k in 1usize..12,
    ) {
        let mut b = IndexBuilder::new();
        for words in &docs {
            let toks: Vec<&str> = words.iter().map(|&w| POOL[w % POOL.len()]).collect();
            b.add_tokens(&toks);
        }
        let index = b.build();
        let q: Vec<(String, f64)> =
            query.iter().map(|(w, wt)| (POOL[w % POOL.len()].to_string(), *wt)).collect();
        let qr: Vec<(&str, f64)> = q.iter().map(|(t, w)| (t.as_str(), *w)).collect();
        let params = BeliefParams::default();
        let full = topk_beliefs(&index, params, &qr, None, docs.len(), 1);
        let serial = topk_beliefs(&index, params, &qr, None, k, 1);
        let parallel = topk_beliefs(&index, params, &qr, None, k, 4);
        prop_assert_eq!(&serial.hits, &parallel.hits);
        let cut = k.min(full.hits.len());
        prop_assert_eq!(&serial.hits[..], &full.hits[..cut]);
    }

    /// Block-compressed evaluation with block-max skipping returns exactly
    /// the exhaustive oracle's ranking — same docs, bit-identical scores —
    /// for k ∈ {1, 10, all} at degrees 1 and 4.
    #[test]
    fn prop_compressed_skipping_equals_raw_path(
        docs in proptest::collection::vec(
            proptest::collection::vec(0usize..POOL.len(), 0..10), 1..80),
        query in proptest::collection::vec((0usize..POOL.len(), 0.25f64..2.0), 1..4),
    ) {
        let mut b = IndexBuilder::new();
        for words in &docs {
            let toks: Vec<&str> = words.iter().map(|&w| POOL[w % POOL.len()]).collect();
            b.add_tokens(&toks);
        }
        let index = b.build();
        let raw = RawPostings::from_index(&index);
        let q: Vec<(String, f64)> =
            query.iter().map(|(w, wt)| (POOL[w % POOL.len()].to_string(), *wt)).collect();
        let qr: Vec<(&str, f64)> = q.iter().map(|(t, w)| (t.as_str(), *w)).collect();
        let params = BeliefParams::default();
        for k in [1usize, 10, docs.len()] {
            let slow = topk_beliefs_raw(&index, &raw, params, &qr, k);
            for degree in [1usize, 4] {
                let fast = topk_beliefs(&index, params, &qr, None, k, degree);
                prop_assert_eq!(&fast.hits, &slow, "k={} degree={}", k, degree);
            }
        }
    }

    /// The same at block scale: hundreds to thousands of documents with
    /// skewed tfs and lengths, so lists span many blocks whose bounds
    /// differ, and failed refinements leap whole blocks.
    #[test]
    fn prop_block_scale_skipping_equals_exhaustive(
        seed in 0u64..1_000_000,
        n_docs in 300usize..2_500,
        query in proptest::collection::vec((0usize..POOL.len(), 0.25f64..2.0), 1..4),
    ) {
        let index = skewed_index(seed, n_docs);
        let raw = RawPostings::from_index(&index);
        let q: Vec<(String, f64)> =
            query.iter().map(|(w, wt)| (POOL[w % POOL.len()].to_string(), *wt)).collect();
        let qr: Vec<(&str, f64)> = q.iter().map(|(t, w)| (t.as_str(), *w)).collect();
        let params = BeliefParams::default();
        for k in [1usize, 10, 100] {
            let slow = topk_beliefs_raw(&index, &raw, params, &qr, k);
            for degree in [1usize, 3] {
                let fast = topk_beliefs(&index, params, &qr, None, k, degree);
                prop_assert_eq!(&fast.hits, &slow, "k={} degree={}", k, degree);
            }
        }
    }

    /// The block-level and list-level bounds dominate the belief of every
    /// posting they cover, for any average length and collection size the
    /// caller scores with — union statistics that are not the segment's
    /// own included, and blocks whose greatest tf and least `dl/tf` come
    /// from different postings.
    #[test]
    fn prop_block_and_list_bounds_dominate_every_posting(
        posts in proptest::collection::vec((1u32..4, 1u32..12, 0u32..40), 1..400),
        avg_pick in 0u32..8,
        avg_any in 0.01f64..80.0,
        extra_docs in 0usize..5_000,
        df_cut in 1u32..400,
    ) {
        // ntf's fallback for a non-positive average length is covered too
        let avg_dl = match avg_pick {
            0 => 0.0,
            1 => -2.0,
            _ => avg_any,
        };
        // (gap, tf, extra length): dl = tf + extra, so short documents with
        // a low tf and long ones with a high tf mix within a block
        let mut doc = 0;
        let mut lens = Vec::new();
        let mut list = Vec::new();
        for &(gap, tf, extra) in &posts {
            doc += gap;
            lens.resize(doc as usize + 1, 0);
            lens[doc as usize] = tf + extra;
            list.push(Posting { doc, tf });
        }
        let compressed = PostingList::from_postings(&list, |d| lens[d as usize]);
        let params = BeliefParams::default();
        let n_docs = lens.len() + extra_docs;
        let df = df_cut.min(list.len() as u32);
        let list_bound = params.belief_bound(
            compressed.max_tf(), df, compressed.min_dl_per_tf(), n_docs, avg_dl,
        );
        let mut at = 0;
        for b in compressed.blocks() {
            let block_bound =
                params.belief_bound(b.max_tf, df, b.min_dl_per_tf(), n_docs, avg_dl);
            prop_assert!(block_bound <= list_bound);
            for p in &list[at..at + b.count as usize] {
                let belief = params.belief(p.tf, df, lens[p.doc as usize], n_docs, avg_dl);
                // the evaluator skips on `bound + 1e-9 < θ`; the bound must
                // hold far inside that margin
                prop_assert!(belief <= block_bound + 1e-12, "{:?}: {} > {}", p, belief, block_bound);
            }
            at += b.count as usize;
        }
    }
}

/// A seeded corpus over [`POOL`]: skewed word frequencies and document
/// lengths from 1 to 40 tokens, so tfs and `dl/tf` vary within a list.
fn skewed_index(seed: u64, n_docs: usize) -> InvertedIndex {
    let mut x = seed;
    let mut next = move || {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        x >> 33
    };
    let mut b = IndexBuilder::new();
    for _ in 0..n_docs {
        let len = 1 + next() % 40;
        let toks: Vec<&str> = (0..len)
            .map(|_| {
                let r = next() % 100;
                POOL[(r * r / 1000) as usize % POOL.len()]
            })
            .collect();
        b.add_tokens(&toks);
    }
    b.build()
}

/// The compressed, pruning evaluator returns exactly the exhaustive
/// oracle's ranking over a corpus whose lists span several blocks, for
/// k ∈ {1, 10, all} at degrees 1 and 4.
#[test]
fn raw_reference_path_matches_compressed() {
    let index = skewed_index(7, 700);
    let raw = RawPostings::from_index(&index);
    assert_eq!(raw.total_postings(), index.raw_postings_bytes() / 8);
    assert!(index.postings_list("sunset").unwrap().blocks().len() > 1);
    let params = BeliefParams::default();
    for query in [
        vec![("sunset", 1.0), ("wave", 1.0), ("glow", 0.5)],
        vec![("mist", 2.0)],
        vec![("dune", 1.0), ("zzz", 1.0)],
    ] {
        for k in [1usize, 10, 700] {
            let slow = topk_beliefs_raw(&index, &raw, params, &query, k);
            for degree in [1usize, 4] {
                let fast = topk_beliefs(&index, params, &query, None, k, degree);
                assert_eq!(fast.hits, slow, "{query:?} k={k} degree={degree}");
            }
        }
    }
}

/// Engine-level parallel coverage: a corpus above the executor's
/// `min_fragment_rows` threshold (4096) makes the fused operator actually
/// fragment at degree 4 through the executor, and the result must still be
/// bit-identical to the serial materialise+sort baseline.
#[test]
fn fused_parallel_on_large_corpus_matches_baseline() {
    let docs: Vec<Vec<usize>> = (0..4500)
        .map(|i| vec![i % 10, (i * 3 + 1) % 10, (i * 7 + 2) % 10, (i / 11) % 10])
        .collect();
    let env = build_env(&docs);
    let terms = query_terms(&[(0, 1.0), (3, 1.0), (7, 0.5)]);
    for k in [1usize, 10, docs.len()] {
        let expected = baseline(&env, &terms, k);
        assert!(!expected.is_empty());
        for degree in [1usize, 4] {
            assert_eq!(fused(&env, &terms, k, degree), expected, "k={k} degree={degree}");
        }
    }
}

/// Deterministic sanity: the fused plan really is fused (EXPLAIN shows the
/// operator, not a grouped sum) and returns non-empty results.
#[test]
fn fusion_fires_and_finds_documents() {
    let docs: Vec<Vec<usize>> = (0..50).map(|i| vec![i % 10, (i * 3) % 10, (i * 7) % 10]).collect();
    let env = build_env(&docs);
    let terms = query_terms(&[(0, 1.0), (4, 1.0)]);
    let eng = MoaEngine::new(Arc::clone(&env));
    let params = QueryParams::new().bind("pq", terms.clone()).with_top_k(5);
    let plan = eng.explain_with(RANKING, &params).unwrap();
    assert!(plan.contains("custom[contrep.getbl.topk]"), "{plan}");
    let hits = fused(&env, &terms, 5, 1);
    assert_eq!(hits.len(), 5);
    assert_eq!(hits, baseline(&env, &terms, 5));
}

/// Dual-coded and feedback-shaped requests at block scale: thousands of
/// documents, visual lists of tens of blocks, fragmented evaluation. Every
/// request fuses into one two-channel top-k operator (or, with an empty
/// visual side, the one-channel one) and must return exactly what the
/// unfused, serial `OptConfig::none()` plan returns — at degree 1, 2 and 4.
#[test]
fn fused_dual_requests_at_block_scale_equal_the_unfused_plan() {
    let rows = block_scale_rows();
    let node = |opt: OptConfig| {
        let mut db =
            MirrorDbms::from_rows(MirrorConfig::default(), rows.clone(), None, None).unwrap();
        db.set_opt(opt);
        db
    };
    let oracle = node(OptConfig::none());
    let fused: Vec<MirrorDbms> =
        [1, 2, 4].map(|d| node(OptConfig { parallelism: d, ..OptConfig::default() })).into();
    let mut nonempty = 0;
    for req in block_scale_requests() {
        assert_fused(&fused[0], &req);
        let expected = oracle.retrieve(&req).unwrap();
        nonempty += usize::from(!expected.is_empty());
        for (db, degree) in fused.iter().zip([1, 2, 4]) {
            assert_eq!(db.retrieve(&req).unwrap(), expected, "degree {degree}: {req:?}");
        }
    }
    assert!(nonempty > 30, "too few requests rank anything: {nonempty}");
}

/// An engine caller that skips `RetrievalRequest::validate` and hands the
/// optimizer a dual plan with a negative channel weight (mix 1.5) gets the
/// unfused plan — whose pruning-free evaluation stays correct — not the
/// fused operator, whose bound assumes non-negative weights.
#[test]
fn negative_channel_weights_stay_unfused() {
    use mirror::moa::expr::{ArithKind, Lit};
    use mirror::moa::Expr;
    let rows = block_scale_rows()[..600].to_vec();
    // serial, so the unfused grouped sums add in the oracle's order
    let mut db = MirrorDbms::from_rows(MirrorConfig::default(), rows, None, None).unwrap();
    db.set_opt(OptConfig { parallelism: 1, ..OptConfig::default() });
    let weighted = |attr: &str, binding: &str, w: f64| Expr::Arith {
        op: ArithKind::Mul,
        left: Box::new(Expr::call(
            "sum",
            vec![Expr::call(
                "getBL",
                vec![
                    Expr::this_attr(attr),
                    Expr::Ident(binding.into()),
                    Expr::Ident("stats".into()),
                ],
            )],
        )),
        right: Box::new(Expr::Lit(Lit::Float(w))),
    };
    let expr = Expr::map(
        Expr::Arith {
            op: ArithKind::Add,
            left: Box::new(weighted("annotation", "q_text", -0.5)),
            right: Box::new(weighted("image", "q_vis", 1.5)),
        },
        Expr::Ident(mirror::core::INTERNAL.into()),
    );
    let params = QueryParams::new()
        .bind("q_text", vec![("sunset".into(), 1.0)])
        .bind("q_vis", vec![("v1".into(), 1.0), ("v5".into(), 1.0)])
        .with_top_k(10);
    let analyzed = db.engine().explain_analyze_expr(&expr, &params).unwrap();
    assert!(!analyzed.contains("getbl.topk"), "negative weight fused:\n{analyzed}");
    assert!(analyzed.contains("arith"), "{analyzed}");
    let none = MoaEngine::with_opt(Arc::clone(db.env()), OptConfig::none());
    assert_eq!(
        db.engine().query_expr_params(&expr, &params).unwrap().0,
        none.query_expr_params(&expr, &params).unwrap().0
    );
}
