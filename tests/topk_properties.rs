//! Property tests for the fused streaming top-k retrieval path: for any
//! corpus and query, `topk_bl` must return exactly the `(oid, score)`
//! ranking that materialise-then-sort produces — same documents, same
//! bit-identical scores, same tie-breaks — for k ∈ {1, 10, all}; and on a
//! block-scale library, fused dual requests must equal the unfused
//! `OptConfig::none()` plan bit for bit.

mod common;

use common::{
    assert_fused, block_scale_requests, block_scale_rows, topk_beliefs_raw, topk_channels_raw,
    RawPostings,
};
use mirror::core::{MirrorConfig, MirrorDbms, Retriever};
use mirror::ir::index::Posting;
use mirror::ir::{
    self, porter_stem, topk_beliefs, topk_channels, BeliefParams, ContrepStore, IndexBuilder,
    InvertedIndex, PostingList, Tombstones, TopKChannel,
};
use mirror::moa::{parse_define, Env, MoaEngine, MoaVal, OptConfig, QueryParams};
use mirror::monet::fxhash::FxHashSet;
use mirror::monet::Oid;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Arc;

const POOL: &[&str] =
    &["sunset", "beach", "forest", "mist", "wave", "glow", "stone", "river", "meadow", "dune"];

/// A text library over CONTREP annotations built from pool-word indices,
/// and the store holding its annotation index.
fn build_env(docs: &[Vec<usize>]) -> (Arc<Env>, Arc<ContrepStore>) {
    let env = Env::new();
    let store = ir::register_contrep(&env);
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
    (Arc::new(env), store)
}

/// Stemmed, weighted query terms from pool indices.
fn query_terms(q: &[(usize, f64)]) -> Vec<(String, f64)> {
    q.iter().map(|(w, wt)| (porter_stem(POOL[w % POOL.len()]), *wt)).collect()
}

const RANKING: &str = "map[sum(THIS)](map[getBL(THIS.annotation, pq, stats)](Lib))";

/// The materialise-then-sort baseline.
fn baseline(env: &Arc<Env>, terms: &[(String, f64)], k: usize) -> Vec<(Oid, f64)> {
    let eng = MoaEngine::with_opt(Arc::clone(env), OptConfig::default());
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

/// The fused path.
fn fused(env: &Arc<Env>, terms: &[(String, f64)], k: usize) -> Vec<(Oid, f64)> {
    let eng = MoaEngine::with_opt(Arc::clone(env), OptConfig::default());
    let params = QueryParams::new().bind("pq", terms.to_vec()).with_top_k(k);
    let out = eng.query_with(RANKING, &params).unwrap();
    out.pairs().unwrap().iter().map(|(o, v)| (*o, v.as_float().unwrap())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fused top-k ≡ materialise+sort for k ∈ {1, 10, all}; and at k = all,
    /// the unfused plan scores every document exactly as the inference
    /// network's `#wsum` (the exhaustive oracle) does.
    #[test]
    fn prop_fused_topk_equals_materialise_then_sort(
        docs in proptest::collection::vec(
            proptest::collection::vec(0usize..POOL.len(), 1..8), 1..60),
        query in proptest::collection::vec((0usize..POOL.len(), 0.1f64..2.0), 1..4),
    ) {
        let (env, store) = build_env(&docs);
        let terms = query_terms(&query);
        for k in [1usize, 10, docs.len()] {
            let got = fused(&env, &terms, k);
            prop_assert_eq!(&got, &baseline(&env, &terms, k), "k={}", k);
        }
        let index = store.get("Lib__annotation").unwrap();
        let qr: Vec<(&str, f64)> = terms.iter().map(|(t, w)| (t.as_str(), *w)).collect();
        let network = topk_beliefs_raw(
            &index, &RawPostings::from_index(&index), BeliefParams::default(), &qr, docs.len(),
        );
        prop_assert_eq!(&baseline(&env, &terms, docs.len()), &network);
    }

    /// The ir-level streaming evaluation's k-cut is a prefix of the full
    /// ranking.
    #[test]
    fn prop_topk_beliefs_k_cut_is_a_prefix(
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
        let top = topk_beliefs(&index, params, &qr, None, k, 1);
        let cut = k.min(full.hits.len());
        prop_assert_eq!(&top.hits[..], &full.hits[..cut]);
    }

    /// Block-compressed evaluation with block-max skipping returns exactly
    /// the exhaustive oracle's ranking — same docs, bit-identical scores —
    /// for k ∈ {1, 10, all}.
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
            let fast = topk_beliefs(&index, params, &qr, None, k, 1);
            prop_assert_eq!(&fast.hits, &slow, "k={}", k);
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
            let fast = topk_beliefs(&index, params, &qr, None, k, 1);
            prop_assert_eq!(&fast.hits, &slow, "k={}", k);
        }
    }

    /// N channels at block scale against the exhaustive N-channel oracle:
    /// 1–3 channels, one of them dense with a near-zero idf like a visual
    /// vocabulary, random channel weights (0 included), random segment
    /// cuts with tombstones and an optional domain, for k ∈ {1, 10, 100}.
    #[test]
    fn prop_channels_equal_the_exhaustive_oracle(
        seed in 0u64..1_000_000,
        n_docs in 300usize..2_500,
        n_chans in 1usize..4,
    ) {
        channels_match_the_oracle(seed, n_docs, n_chans, 1)?;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The same at the scale where a segment's walk is seeded: the first
    /// segment holds at least half of 4 200–6 000 documents, so it starts
    /// from the exact k-th score of its short lists' documents.
    #[test]
    fn prop_seeded_channels_equal_the_exhaustive_oracle(
        seed in 0u64..1_000_000,
        n_docs in 4_200usize..6_000,
        n_chans in 1usize..4,
    ) {
        channels_match_the_oracle(seed, n_docs, n_chans, n_docs / 2)?;
    }
}

/// One multi-channel case drawn from `seed` — channel kinds, weights,
/// segment cuts at or after `first_cut`, tombstones, a domain and
/// queries — held to [`topk_channels_raw`] at k ∈ {1, 10, 100}.
fn channels_match_the_oracle(
    seed: u64,
    n_docs: usize,
    n_chans: usize,
    first_cut: usize,
) -> Result<(), TestCaseError> {
    let mut rng = Mix(seed);
    let kinds: Vec<Kind> = (0..n_chans)
        .map(|c| [Kind::Text, Kind::Dense, Kind::Flat][(c + seed as usize) % 3])
        .collect();
    let weights: Vec<f64> = (0..n_chans)
        .map(|_| [0.0, 0.3, 0.5, 1.0, 0.05 + rng.unit() * 2.0][rng.below(5) as usize])
        .collect();
    let span = (n_docs - first_cut) as u64;
    let mut cuts: Vec<usize> =
        (0..rng.below(4)).map(|_| first_cut + rng.below(span) as usize).collect();
    cuts.extend([0, n_docs]);
    cuts.sort_unstable();
    cuts.dedup();
    let dead: Option<Tombstones> = (rng.below(2) == 0).then(|| {
        let m = 3 + rng.below(18);
        (0..n_docs as Oid).filter(|&d| Mix(seed ^ u64::from(d)).below(m) == 0).collect()
    });
    let domain: Option<FxHashSet<Oid>> = (rng.below(2) == 0)
        .then(|| (0..n_docs as Oid).filter(|&d| Mix(!seed ^ u64::from(d)).below(10) < 7).collect());
    let queries: Vec<Vec<(String, f64)>> = kinds
        .iter()
        .map(|kind| {
            let vocab = kind.vocab();
            (0..1 + rng.below(4))
                .map(|_| {
                    let term = vocab[rng.below(vocab.len() as u64) as usize];
                    (term.to_string(), 0.25 + rng.unit() * 1.75)
                })
                .collect()
        })
        .collect();
    let case = Channels::build(seed, n_docs, &kinds, &cuts);
    let params = BeliefParams::default();
    let channels = case.channels(&queries, &weights);
    for k in [1usize, 10, 100] {
        let slow =
            topk_channels_raw(&channels, &case.raw, params, domain.as_ref(), dead.as_ref(), k);
        let fast = topk_channels(&channels, params, domain.as_ref(), dead.as_ref(), k);
        prop_assert_eq!(
            &fast.hits,
            &slow,
            "{:?} weights {:?} cuts {:?} k={}",
            kinds,
            weights,
            cuts,
            k
        );
    }
    Ok(())
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

/// splitmix64 over a seed: the multi-channel cases' own random numbers.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE5_E9B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// 70 distinct terms, `t0`…`t69`, for queries longer than 64 lists.
const WIDE: [&str; 70] = [
    "t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9", "t10", "t11", "t12", "t13", "t14",
    "t15", "t16", "t17", "t18", "t19", "t20", "t21", "t22", "t23", "t24", "t25", "t26", "t27",
    "t28", "t29", "t30", "t31", "t32", "t33", "t34", "t35", "t36", "t37", "t38", "t39", "t40",
    "t41", "t42", "t43", "t44", "t45", "t46", "t47", "t48", "t49", "t50", "t51", "t52", "t53",
    "t54", "t55", "t56", "t57", "t58", "t59", "t60", "t61", "t62", "t63", "t64", "t65", "t66",
    "t67", "t68", "t69",
];

/// The dense channel's vocabulary: every term in 60–90 % of documents.
const DENSE: [&str; 6] = ["v0", "v1", "v2", "v3", "v4", "v5"];

/// How a channel's documents are drawn.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// 1–40 tokens over [`POOL`], skewed: tfs and `dl/tf` vary.
    Text,
    /// Each [`DENSE`] term with probability 60–90 %, sometimes twice: long
    /// lists with a near-zero idf, like a visual vocabulary.
    Dense,
    /// 1–12 tokens over [`WIDE`], Zipf-like: many lists, most of them short.
    Flat,
}

impl Kind {
    fn vocab(self) -> &'static [&'static str] {
        match self {
            Kind::Text => POOL,
            Kind::Dense => &DENSE,
            Kind::Flat => &WIDE,
        }
    }

    /// The tokens of document `d`, a pure function of `(seed, d)`.
    fn doc(self, seed: u64, d: usize) -> Vec<&'static str> {
        let mut r = Mix(seed.wrapping_mul(31) ^ (d as u64) << 20 ^ self as u64);
        match self {
            Kind::Text => (0..1 + r.below(40))
                .map(|_| {
                    let x = r.below(100);
                    POOL[(x * x / 1000) as usize % POOL.len()]
                })
                .collect(),
            Kind::Dense => {
                let mut toks = Vec::new();
                for (i, t) in DENSE.iter().enumerate() {
                    if r.below(100) < 60 + 6 * i as u64 {
                        toks.push(*t);
                        if r.below(8) == 0 {
                            toks.push(*t);
                        }
                    }
                }
                toks
            }
            Kind::Flat => (0..1 + r.below(12))
                .map(|_| WIDE[(WIDE.len() as f64 * r.unit().powi(3)) as usize])
                .collect(),
        }
    }
}

/// Channels over one collection cut into segments at the same points,
/// with each channel's whole-collection index for union statistics and
/// every segment's decoded postings for the oracle.
struct Channels {
    segments: Vec<Vec<(Oid, InvertedIndex)>>,
    whole: Vec<InvertedIndex>,
    raw: Vec<Vec<RawPostings>>,
}

impl Channels {
    fn build(seed: u64, n_docs: usize, kinds: &[Kind], cuts: &[usize]) -> Channels {
        let index = |docs: std::ops::Range<usize>, kind: Kind| {
            let mut b = IndexBuilder::new();
            for d in docs {
                b.add_tokens(&kind.doc(seed, d));
            }
            b.build()
        };
        let segments: Vec<Vec<(Oid, InvertedIndex)>> = kinds
            .iter()
            .map(|&kind| cuts.windows(2).map(|w| (w[0] as Oid, index(w[0]..w[1], kind))).collect())
            .collect();
        let whole = kinds.iter().map(|&kind| index(0..n_docs, kind)).collect();
        let raw = segments
            .iter()
            .map(|segs| segs.iter().map(|(_, index)| RawPostings::from_index(index)).collect())
            .collect();
        Channels { segments, whole, raw }
    }

    /// The evaluator's channels: segments, the query scored with the
    /// whole collection's dfs and statistics, and the weight.
    fn channels<'a>(
        &'a self,
        queries: &'a [Vec<(String, f64)>],
        weights: &[f64],
    ) -> Vec<TopKChannel<'a>> {
        (0..self.whole.len())
            .map(|c| TopKChannel {
                segments: self.segments[c].iter().map(|(first, index)| (*first, index)).collect(),
                query: queries[c]
                    .iter()
                    .map(|(t, w)| (t.as_str(), *w, self.whole[c].df(t)))
                    .collect(),
                stats: self.whole[c].stats(),
                weight: weights[c],
            })
            .collect()
    }
}

/// A 70-term query — more lists than a 64-bit mask holds — beside a dense
/// channel, over segments with tombstones: the evaluator still equals the
/// exhaustive oracle. The first segment is long enough for the seeded
/// threshold.
#[test]
fn seventy_term_query_equals_the_exhaustive_oracle() {
    let (seed, n_docs) = (11, 3_000);
    let kinds = [Kind::Flat, Kind::Dense];
    let case = Channels::build(seed, n_docs, &kinds, &[0, 2_300, 2_800, 2_850, n_docs]);
    let wide: Vec<(String, f64)> = WIDE
        .iter()
        .enumerate()
        .map(|(i, t)| (t.to_string(), 0.5 + (i % 7) as f64 * 0.25))
        .collect();
    let dense: Vec<(String, f64)> = DENSE[..4].iter().map(|t| (t.to_string(), 1.0)).collect();
    let queries = [wide, dense];
    let dead: Tombstones = (0..n_docs as Oid).filter(|d| d % 13 == 5).collect();
    let params = BeliefParams::default();
    let channels = case.channels(&queries, &[0.6, 0.4]);
    assert_eq!(channels[0].query.len(), 70);
    assert!(channels[0].query.iter().all(|q| q.2 > 0), "every wide term occurs");
    for k in [1usize, 10, 100] {
        let slow = topk_channels_raw(&channels, &case.raw, params, None, Some(&dead), k);
        assert_eq!(slow.len(), k);
        let fast = topk_channels(&channels, params, None, Some(&dead), k);
        assert_eq!(fast.hits, slow, "k={k}");
    }
}

/// The compressed, pruning evaluator returns exactly the exhaustive
/// oracle's ranking over a corpus whose lists span several blocks, for
/// k ∈ {1, 10, all}.
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
            let fast = topk_beliefs(&index, params, &query, None, k, 1);
            assert_eq!(fast.hits, slow, "{query:?} k={k}");
        }
    }
}

/// Engine-level coverage at scale: over 4 500 documents, long enough for
/// the seeded threshold, the fused plan must stay bit-identical to the
/// materialise+sort baseline.
#[test]
fn fused_on_large_corpus_matches_baseline() {
    let docs: Vec<Vec<usize>> = (0..4500)
        .map(|i| vec![i % 10, (i * 3 + 1) % 10, (i * 7 + 2) % 10, (i / 11) % 10])
        .collect();
    let (env, _) = build_env(&docs);
    let terms = query_terms(&[(0, 1.0), (3, 1.0), (7, 0.5)]);
    for k in [1usize, 10, docs.len()] {
        let expected = baseline(&env, &terms, k);
        assert!(!expected.is_empty());
        assert_eq!(fused(&env, &terms, k), expected, "k={k}");
    }
}

/// Deterministic sanity: the fused plan really is fused (EXPLAIN shows the
/// operator, not a grouped sum) and returns non-empty results.
#[test]
fn fusion_fires_and_finds_documents() {
    let docs: Vec<Vec<usize>> = (0..50).map(|i| vec![i % 10, (i * 3) % 10, (i * 7) % 10]).collect();
    let (env, _) = build_env(&docs);
    let terms = query_terms(&[(0, 1.0), (4, 1.0)]);
    let eng = MoaEngine::new(Arc::clone(&env));
    let params = QueryParams::new().bind("pq", terms.clone()).with_top_k(5);
    let plan = eng.explain_with(RANKING, &params).unwrap();
    assert!(plan.contains("custom[contrep.getbl.topk]"), "{plan}");
    let hits = fused(&env, &terms, 5);
    assert_eq!(hits.len(), 5);
    assert_eq!(hits, baseline(&env, &terms, 5));
}

/// Dual-coded and feedback-shaped requests at block scale: thousands of
/// documents, visual lists of tens of blocks. Every request fuses into one
/// two-channel top-k operator (or, with an empty visual side, the
/// one-channel one) and must return exactly what the unfused
/// `OptConfig::none()` plan returns.
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
    let fused = node(OptConfig::default());
    let mut nonempty = 0;
    for req in block_scale_requests() {
        assert_fused(&fused, &req);
        let expected = oracle.retrieve(&req).unwrap();
        nonempty += usize::from(!expected.is_empty());
        assert_eq!(fused.retrieve(&req).unwrap(), expected, "{req:?}");
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
    let db = MirrorDbms::from_rows(MirrorConfig::default(), rows, None, None).unwrap();
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
