//! Property tests for the sharded retrieval path: hash placement must be
//! balanced, a cluster must answer every query bit-identically to a
//! single node at 1/2/4 shards.

mod common;

use common::{assert_fused, block_scale_requests, block_scale_rows, topk_beliefs_raw, RawPostings};
use mirror::core::shard::{hash_shard, ClusterConfig, MirrorCluster};
use mirror::core::{MirrorConfig, MirrorDbms, Retriever};
use mirror::ir::{
    topk_beliefs, topk_channels, BeliefParams, IndexBuilder, TopKAccumulator, TopKChannel,
};
use mirror::media::{RobotConfig, WebRobot};
use mirror::monet::Oid;
use proptest::prelude::*;
use std::sync::OnceLock;

const THEMES: &[&str] = &["sunset", "forest", "ocean", "desert", "city", "snow"];

// Hash partitioning balance: at ≥ 1k documents no shard may hold more
// than twice the mean load, for any shard count up to 8.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn prop_hash_partitioning_is_balanced(
        n in 1_000usize..2_500,
        salt in 0u64..1_000,
        shards in 2usize..=8,
    ) {
        let mut counts = vec![0usize; shards];
        for i in 0..n {
            // realistic library URLs: theme directory + per-crawl id
            let url = format!("http://img.example/{}/{}-{salt}.png", THEMES[i % THEMES.len()], i);
            counts[hash_shard(&url, shards)] += 1;
        }
        let mean = n as f64 / shards as f64;
        for (shard, &c) in counts.iter().enumerate() {
            prop_assert!(
                (c as f64) <= 2.0 * mean,
                "shard {} holds {} of {} docs (mean {:.1})", shard, c, n, mean
            );
        }
    }
}

/// One corpus, one single node, and clusters at 1/2/4 shards — built once
/// and shared by every proptest case below (building them is the
/// expensive part; the properties range over queries).
struct Fixture {
    single: MirrorDbms,
    clusters: Vec<MirrorCluster>,
}

fn fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| {
        let corpus = WebRobot::new(RobotConfig {
            n_images: 48,
            image_size: 24,
            unannotated_fraction: 0.25,
            seed: 33,
        })
        .crawl();
        let mut single = MirrorDbms::with_defaults();
        single.ingest(&corpus).unwrap();
        let clusters =
            [1usize, 2, 4].map(|shards| MirrorCluster::build(&corpus, shards).unwrap()).into();
        Fixture { single, clusters }
    })
}

const QUERY_POOL: &[&str] =
    &["sunset", "glow", "evening", "forest", "tree", "moss", "ocean", "wave", "snow", "mountain"];

fn query_text(words: &[usize]) -> String {
    words.iter().map(|&w| QUERY_POOL[w % QUERY_POOL.len()]).collect::<Vec<_>>().join(" ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// top-k@{1,2,4} shards ≡ top-k@single-node: same documents, same
    /// bit-identical scores, same tie-breaks — for text, dual-coded and
    /// relationally filtered queries alike.
    #[test]
    fn prop_cluster_topk_is_bit_identical_to_single_node(
        words in proptest::collection::vec(0usize..QUERY_POOL.len(), 1..4),
        k in 1usize..48,
        mix in 0.0f64..=1.0,
        theme in 0usize..THEMES.len(),
    ) {
        let f = fixture();
        let q = query_text(&words);
        let expected_text = f.single.query_text(&q, k).unwrap();
        let expected_dual = f.single.query_dual(&q, mix, k).unwrap();
        let filter = format!("/{}/", THEMES[theme]);
        let expected_filtered = f.single.query_text_filtered(&q, &filter, k).unwrap();
        for cluster in &f.clusters {
            let shards = cluster.n_shards();
            prop_assert_eq!(
                &cluster.query_text(&q, k).unwrap(), &expected_text,
                "text {:?} k={} shards={}", &q, k, shards
            );
            prop_assert_eq!(
                &cluster.query_dual(&q, mix, k).unwrap(), &expected_dual,
                "dual {:?} k={} mix={} shards={}", &q, k, mix, shards
            );
            prop_assert_eq!(
                &cluster.query_text_filtered(&q, &filter, k).unwrap(), &expected_filtered,
                "filtered {:?} k={} filter={:?} shards={}", &q, k, &filter, shards
            );
        }
    }

    /// Each shard indexes only its own documents (compressed blocks over
    /// local oids, which must match the raw-vec reference on the shard's
    /// own statistics); scored with the parent's statistics and dfs, the
    /// merged per-shard top-k heaps must be bit-identical to the single
    /// unsharded index — for 1/2/4 shards.
    #[test]
    fn prop_shard_projections_compressed_equals_raw(
        docs in proptest::collection::vec(
            proptest::collection::vec(0usize..QUERY_POOL.len(), 0..8), 1..120),
        query in proptest::collection::vec((0usize..QUERY_POOL.len(), 0.25f64..2.0), 1..4),
        k in 1usize..12,
    ) {
        let tokens = |words: &Vec<usize>| -> Vec<&str> {
            words.iter().map(|&w| QUERY_POOL[w % QUERY_POOL.len()]).collect()
        };
        let mut b = IndexBuilder::new();
        for words in &docs {
            b.add_tokens(&tokens(words));
        }
        let index = b.build();
        let q: Vec<(String, f64)> =
            query.iter().map(|(w, wt)| (QUERY_POOL[w % QUERY_POOL.len()].to_string(), *wt)).collect();
        let qr: Vec<(&str, f64)> = q.iter().map(|(t, w)| (t.as_str(), *w)).collect();
        let params = BeliefParams::default();
        let expected = topk_beliefs(&index, params, &qr, None, k, 1).hits;
        let raw = RawPostings::from_index(&index);
        prop_assert_eq!(&topk_beliefs_raw(&index, &raw, params, &qr, k), &expected);
        let parent_dfs: Vec<(&str, f64, u32)> =
            qr.iter().map(|&(t, w)| (t, w, index.df(t))).collect();
        for shards in [1usize, 2, 4] {
            let mut merged = TopKAccumulator::new(k);
            for s in 0..shards {
                let local: Vec<Oid> =
                    (0..docs.len() as Oid).filter(|d| (*d as usize) % shards == s).collect();
                let mut b = IndexBuilder::new();
                for &d in &local {
                    b.add_tokens(&tokens(&docs[d as usize]));
                }
                let shard = b.build();
                let raw = RawPostings::from_index(&shard);
                let fast = topk_beliefs(&shard, params, &qr, None, k, 1);
                let slow = topk_beliefs_raw(&shard, &raw, params, &qr, k);
                prop_assert_eq!(&fast.hits, &slow, "shard {}/{} k={}", s, shards, k);
                let channel = TopKChannel {
                    segments: vec![(0, &shard)],
                    query: parent_dfs.clone(),
                    stats: index.stats(),
                    weight: 1.0,
                };
                for (oid, score) in topk_channels(&[channel], params, None, None, k).hits {
                    merged.push(local[oid as usize], score);
                }
            }
            prop_assert_eq!(&merged.into_ranked(), &expected, "shards={} k={}", shards, k);
        }
    }
}

/// Dual requests at block scale through 1/2/4-shard clusters: the single
/// node fuses them into the two-channel top-k operator, every shard is
/// scored by that operator's kernel with the cluster's union statistics,
/// and the gathered answer equals the unfused `OptConfig::none()` single
/// node bit for bit.
#[test]
fn fused_dual_requests_at_block_scale_match_across_shards() {
    let rows = block_scale_rows();
    let mut oracle =
        MirrorDbms::from_rows(MirrorConfig::default(), rows.clone(), None, None).unwrap();
    oracle.set_opt(mirror::moa::OptConfig::none());
    let fused = MirrorDbms::from_rows(MirrorConfig::default(), rows.clone(), None, None).unwrap();
    let clusters: Vec<MirrorCluster> = [1, 2, 4]
        .map(|shards| {
            let config = ClusterConfig { shards, ..ClusterConfig::default() };
            MirrorCluster::from_rows(config, rows.clone(), None, None).unwrap()
        })
        .into();
    for req in block_scale_requests() {
        assert_fused(&fused, &req);
        let expected = oracle.retrieve(&req).unwrap();
        for cluster in &clusters {
            assert_eq!(
                cluster.retrieve(&req).unwrap(),
                expected,
                "{} shards: {req:?}",
                cluster.n_shards()
            );
        }
    }
}
