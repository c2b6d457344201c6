//! Live ingest under serving load: the adversarial proof of MVCC
//! snapshot isolation.
//!
//! The contract under test (ISSUE 9): writer threads insert/delete while
//! reader threads query, and **every** result a reader ever observes is
//! bit-identical to a batch re-ingest of *some quiesced prefix* of the
//! write sequence; deleted documents never surface on any query surface;
//! a pinned generation stays readable across merges and is reclaimed
//! (counter-proven) once unpinned.
//!
//! Bit-identity is compared on `(url, score)` pairs: live arrival oids
//! and a re-ingest's dense oids differ by a monotone bijection, so equal
//! corpora must produce equal url/score sequences — including equal-score
//! tie-breaks.

mod common;

use common::{assert_fused, block_scale_requests, block_scale_rows};
use mirror::core::feedback::FeedbackQuery;
use mirror::core::query::weighted_terms;
use mirror::core::serve::{MirrorServer, RetrievalRequest};
use mirror::core::shard::{ClusterConfig, MirrorCluster};
use mirror::core::{LibraryRow, RetrievalResult};
use mirror::core::{
    LiveMirror, LiveReader, MergePolicy, MirrorConfig, MirrorDbms, MutableCorpus, Retriever,
};
use mirror::media::{RobotConfig, WebRobot};
use mirror::{cluster::VisualVocabulary, thesaurus::AssociationThesaurus};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

// ---------------------------------------------------------------------------
// Fixture: one batch-ingested corpus supplying rows, vocabulary, thesaurus
// ---------------------------------------------------------------------------

/// Plain data shared by every test below. Read-only: each test seeds its
/// own `LiveMirror`/`MirrorCluster` from clones of these rows.
struct Fixture {
    config: MirrorConfig,
    /// All ingested rows: a prefix seeds live instances, the rest is the
    /// insert pool (real in-vocabulary visual terms).
    rows: Vec<LibraryRow>,
    vocab: VisualVocabulary,
    thes: AssociationThesaurus,
    fq: FeedbackQuery,
}

fn fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| {
        let mut db = MirrorDbms::with_defaults();
        let corpus = WebRobot::new(RobotConfig {
            n_images: 48,
            image_size: 24,
            unannotated_fraction: 0.25,
            seed: 17,
        })
        .crawl();
        db.ingest(&corpus).unwrap();
        let rows = db.library_rows().to_vec();
        let visual = rows
            .iter()
            .find(|r| !r.vterms.is_empty())
            .map(|r| r.vterms.split_whitespace().take(2).map(|t| (t.to_string(), 1.0)).collect())
            .unwrap_or_default();
        Fixture {
            config: db.config().clone(),
            vocab: db.vocabulary().unwrap().clone(),
            thes: db.thesaurus().unwrap().clone(),
            rows,
            fq: FeedbackQuery { text: weighted_terms("ocean wave sky"), visual },
        }
    })
}

/// The query battery: every surface of the satellite checklist —
/// `query_text`, `query_dual`, `query_text_filtered`, `run_feedback_query`.
fn probe_requests(f: &Fixture) -> Vec<RetrievalRequest> {
    vec![
        RetrievalRequest::text("sunset over the water", 10),
        RetrievalRequest::dual("forest tree", 0.5, 10),
        RetrievalRequest::text("city desert", 10).with_filter("1"),
        RetrievalRequest::dual_terms(f.fq.text.clone(), f.fq.visual.clone(), 0.4, 10),
    ]
}

type Keyed = Vec<Vec<(String, f64)>>;

fn keyed(runs: Vec<Vec<mirror::core::query::RankedResult>>) -> Keyed {
    runs.into_iter().map(|hits| hits.into_iter().map(|h| (h.url, h.score)).collect()).collect()
}

fn probe(r: &(impl Retriever + ?Sized), f: &Fixture) -> Keyed {
    keyed(probe_requests(f).iter().map(|q| r.retrieve(q).unwrap()).collect())
}

fn probe_reader(r: &LiveReader, f: &Fixture) -> Keyed {
    keyed(probe_requests(f).iter().map(|q| r.retrieve(q).unwrap()).collect())
}

/// A batch re-ingest of `rows` with the shared vocabulary/thesaurus —
/// the ground truth every live snapshot must be bit-identical to.
fn reference(f: &Fixture, rows: Vec<LibraryRow>) -> MirrorDbms {
    MirrorDbms::from_rows(f.config.clone(), rows, Some(f.vocab.clone()), Some(f.thes.clone()))
        .unwrap()
}

fn seed_live(f: &Fixture, n_base: usize) -> LiveMirror {
    LiveMirror::new(reference(f, f.rows[..n_base].to_vec()))
}

/// A `shards`-shard cluster over `rows`, sharing a vocabulary and thesaurus.
fn seed_cluster(
    shards: usize,
    node: MirrorConfig,
    rows: Vec<LibraryRow>,
    vocab: Option<VisualVocabulary>,
    thes: Option<AssociationThesaurus>,
) -> MirrorCluster {
    let config = ClusterConfig { shards, replicas: 1, node, ..ClusterConfig::default() };
    MirrorCluster::from_rows(config, rows, vocab, thes).unwrap()
}

// ---------------------------------------------------------------------------
// Write-op replay model (the specification the live path is held to)
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Op {
    Insert(Vec<LibraryRow>),
    Delete(String),
}

/// Replay ops over `(row, alive)` history: insert appends, delete
/// tombstones the *latest* alive row with the URL (the live semantics).
fn apply(history: &mut Vec<(LibraryRow, bool)>, op: &Op) {
    match op {
        Op::Insert(rows) => history.extend(rows.iter().cloned().map(|r| (r, true))),
        Op::Delete(url) => {
            if let Some(e) = history.iter_mut().rev().find(|(r, alive)| *alive && r.url == *url) {
                e.1 = false;
            }
        }
    }
}

fn survivors(history: &[(LibraryRow, bool)]) -> Vec<LibraryRow> {
    history.iter().filter(|(_, alive)| *alive).map(|(r, _)| r.clone()).collect()
}

// ---------------------------------------------------------------------------
// Satellite 1 — concurrent stress: every observed result ≡ some prefix
// ---------------------------------------------------------------------------

#[test]
fn concurrent_writers_and_readers_observe_only_quiesced_prefix_states() {
    let f = fixture();
    const N_BASE: usize = 30;
    let live = seed_live(f, N_BASE);

    // two writers on disjoint URL sets, three readers pinning snapshots
    let (mut log_a, mut log_b) = (Vec::new(), Vec::new());
    let mut observed: Vec<Vec<(u64, Keyed)>> = Vec::new();
    std::thread::scope(|scope| {
        let inserter = scope.spawn(|| {
            let mut log = Vec::new();
            for chunk in f.rows[N_BASE..].chunks(2) {
                let seq = live.insert_rows(chunk.to_vec()).unwrap();
                log.push((seq, Op::Insert(chunk.to_vec())));
            }
            log
        });
        let deleter = scope.spawn(|| {
            let mut log = Vec::new();
            for row in f.rows[..N_BASE].iter().step_by(4) {
                let seq = live.delete(&row.url).unwrap().expect("base url is live");
                log.push((seq, Op::Delete(row.url.clone())));
            }
            log
        });
        let readers: Vec<_> = (0..3)
            .map(|_| {
                scope.spawn(|| {
                    (0..12)
                        .map(|_| {
                            let pin = live.pin();
                            (pin.seq(), probe_reader(&pin, f))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        log_a = inserter.join().unwrap();
        log_b = deleter.join().unwrap();
        observed = readers.into_iter().map(|h| h.join().unwrap()).collect();
    });

    // sequence numbers are assigned under the writer lock and the
    // snapshot swaps before the lock releases, so snapshot seq = s holds
    // exactly ops 1..=s — build the reference state for each prefix
    let mut ops: Vec<(u64, Op)> = log_a.into_iter().chain(log_b).collect();
    ops.sort_by_key(|&(seq, _)| seq);
    assert_eq!(
        ops.iter().map(|&(s, _)| s).collect::<Vec<_>>(),
        (1..=ops.len() as u64).collect::<Vec<_>>(),
        "write sequence must be gap-free"
    );

    let mut history: Vec<(LibraryRow, bool)> =
        f.rows[..N_BASE].iter().cloned().map(|r| (r, true)).collect();
    let mut prefix_probes: Vec<Keyed> = vec![probe(&reference(f, survivors(&history)), f)];
    for (_, op) in &ops {
        apply(&mut history, op);
        prefix_probes.push(probe(&reference(f, survivors(&history)), f));
    }

    let mut checked = 0;
    for per_reader in &observed {
        for (seq, results) in per_reader {
            assert_eq!(
                results, &prefix_probes[*seq as usize],
                "snapshot at seq {seq} is not the quiesced prefix state"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 36);

    // final quiesce ≡ batch re-ingest of the surviving docs, before and
    // after the delta folds into a compressed generation
    let final_probe = prefix_probes.last().unwrap();
    assert_eq!(&probe(&live, f), final_probe);
    live.merge().unwrap();
    assert_eq!(&probe(&live, f), final_probe, "merged generation diverged from the delta view");
    assert_eq!(live.pin().surviving_rows(), survivors(&history));
}

/// A filtered read on a snapshot with delta rows and tombstones is the
/// plan's `select` over the snapshot's URL column — generation and delta
/// rows alike, deleted rows masked — and ranks exactly like a batch
/// re-ingest of the surviving rows. Scores do not depend on the filter,
/// so at a budget past every document it returns exactly the unfiltered
/// hits whose URL holds the pattern: an oracle that shares no `select`.
/// Patterns include ones spanning a URL's last `/` and whole URLs.
#[test]
fn filtered_reads_on_a_delta_snapshot_match_a_batch_reingest() {
    let f = fixture();
    let live = seed_live(f, 30);
    live.insert_rows(f.rows[30..40].to_vec()).unwrap();
    live.insert_rows(f.rows[40..].to_vec()).unwrap();
    for row in [&f.rows[2], &f.rows[31], &f.rows[44]] {
        live.delete(&row.url).unwrap().unwrap();
    }
    let pin = live.pin();
    let merged = reference(f, pin.surviving_rows());
    let patterns =
        ["/sunset/", "/forest/", "/ocean/", ".png", "t/4", "/1", &f.rows[42].url, &f.rows[31].url];
    let k = f.rows.len();
    let mut ranked = 0;
    for pattern in patterns {
        for req in [
            RetrievalRequest::text("sunset glow forest ocean wave city", k),
            RetrievalRequest::dual("forest tree", 0.5, k),
        ] {
            let mut unfiltered = keyed(vec![pin.retrieve(&req).unwrap()]);
            unfiltered[0].retain(|(url, _)| url.contains(pattern));
            let req = req.with_filter(pattern);
            let got = keyed(vec![pin.retrieve(&req).unwrap()]);
            assert_eq!(got, keyed(vec![merged.retrieve(&req).unwrap()]), "filter {pattern:?}");
            assert_eq!(got, unfiltered, "filter {pattern:?} is not the unfiltered hits it keeps");
            ranked += usize::from(!got[0].is_empty());
        }
    }
    assert!(ranked >= 8, "too few filtered reads rank anything: {ranked}");
}

// ---------------------------------------------------------------------------
// Satellite 2 — tombstones never surface, on any query surface
// ---------------------------------------------------------------------------

fn urls_in(probes: &Keyed) -> Vec<String> {
    let mut urls: Vec<String> = probes.iter().flatten().map(|(u, _)| u.clone()).collect();
    urls.sort();
    urls.dedup();
    urls
}

#[test]
fn deleted_docs_never_surface_on_any_query_surface() {
    let f = fixture();
    let live = seed_live(f, f.rows.len());

    // delete every document the battery currently surfaces
    let victims = urls_in(&probe(&live, f));
    assert!(victims.len() >= 5, "battery should surface several docs, got {}", victims.len());
    for url in &victims {
        live.delete(url).unwrap().expect("surfaced url is live");
    }

    let check = |live: &LiveMirror, stage: &str| {
        let after = probe(live, f);
        for url in &victims {
            assert!(!urls_in(&after).contains(url), "{stage}: deleted {url} surfaced in {after:?}");
        }
        let expect = probe(&reference(f, live.pin().surviving_rows()), f);
        assert_eq!(after, expect, "{stage}: live ranking diverged from batch re-ingest");
    };
    check(&live, "delta tombstones");

    // fold and re-check: the merged generation has no tombstone set, and
    // with an empty delta queries rank its one segment
    live.merge().unwrap();
    check(&live, "post-merge (fused topk_bl)");

    // the served path sees the same isolation
    let server = MirrorServer::start(Arc::new(live), 2);
    for req in probe_requests(f) {
        for (url, _) in keyed(vec![server.query(&req).unwrap()]).remove(0) {
            assert!(!victims.contains(&url), "served query surfaced deleted {url}");
        }
    }
    server.delete("no-such-url").unwrap();
}

#[test]
fn clusters_of_1_2_4_shards_mask_tombstones_and_match_single_node() {
    let f = fixture();
    // an empty start fed every row, and a seeded start — built over the
    // first rows of the crawl — fed the rest
    for n_seed in [0, 20] {
        // ground truth: a single live node seeded with the same rows and
        // fed the same op sequence
        let single = seed_live(f, n_seed);
        for chunk in f.rows[n_seed..].chunks(5) {
            single.insert_rows(chunk.to_vec()).unwrap();
        }
        let victims = urls_in(&probe(&single, f));
        assert!(!victims.is_empty());
        for url in &victims {
            single.delete(url).unwrap().expect("victim is live");
        }
        let expect_delta = probe(&single, f);
        single.merge().unwrap();
        let expect_merged = probe(&single, f);
        assert_eq!(expect_delta, expect_merged);

        for n_shards in [1usize, 2, 4] {
            let cluster = seed_cluster(
                n_shards,
                f.config.clone(),
                f.rows[..n_seed].to_vec(),
                Some(f.vocab.clone()),
                Some(f.thes.clone()),
            );
            for chunk in f.rows[n_seed..].chunks(5) {
                cluster.insert_rows(chunk.to_vec()).unwrap();
            }
            for url in &victims {
                cluster.delete(url).unwrap().expect("victim is live on its shard");
            }
            assert_eq!(cluster.n_docs(), single.n_docs());
            let got = probe(&cluster, f);
            assert_eq!(
                got, expect_delta,
                "{n_shards}-shard cluster seeded with {n_seed} rows diverged from single node \
                 (delta view)"
            );
            for url in &victims {
                assert!(!urls_in(&got).contains(url), "{n_shards} shards: deleted {url} surfaced");
            }
            cluster.merge_all().unwrap();
            let got = probe(&cluster, f);
            assert_eq!(
                got, expect_merged,
                "{n_shards}-shard cluster seeded with {n_seed} rows diverged from single node \
                 (merged view)"
            );
            assert!(cluster.delete("no-such-url").unwrap().is_none());
        }
    }
}

/// Duplicate-URL inserts stack: each delete tombstones the *latest* live
/// document with the URL and re-targets the next-latest, returning `Some`
/// until every copy is gone — the same answer before and after a merge
/// (regression: the URL map used to track only the latest copy, so the
/// observable contract changed across merges).
#[test]
fn duplicate_url_deletes_retarget_next_latest_across_merges() {
    let f = fixture();
    let live = seed_live(f, 8);
    let version = |ann: &str| {
        let mut r = f.rows[10].clone();
        r.url = "dup://same".to_string();
        r.annotation = Some(ann.to_string());
        r
    };
    let (v1, v2, v3) = (version("first version"), version("second version"), version("third"));
    live.insert_rows(vec![v1.clone()]).unwrap();
    live.insert_rows(vec![v2.clone(), v3]).unwrap();
    assert_eq!(live.n_docs(), 11);

    // first delete pops the latest copy; the older two survive in order
    assert!(live.delete("dup://same").unwrap().is_some());
    assert_eq!(live.n_docs(), 10);
    let dups: Vec<_> = live
        .pin()
        .surviving_rows()
        .into_iter()
        .filter(|r| r.url == "dup://same")
        .map(|r| r.annotation)
        .collect();
    assert_eq!(dups, vec![v1.annotation.clone(), v2.annotation.clone()]);

    // a merge must not change what the next delete targets
    live.merge().unwrap();
    assert!(live.delete("dup://same").unwrap().is_some(), "older duplicate still deletable");
    assert!(live.delete("dup://same").unwrap().is_some(), "oldest duplicate still deletable");
    assert_eq!(live.delete("dup://same").unwrap(), None, "every copy is tombstoned");
    assert_eq!(live.n_docs(), 8);
    assert_eq!(probe(&live, f), probe(&reference(f, live.pin().surviving_rows()), f));
}

/// Queries racing `merge_all` must never observe a torn pin/routing pair:
/// the shard snapshots and the local→global table are read under one
/// critical section, so a merge compacting the routing rows mid-query
/// cannot strand pre-merge oids against the compacted table (regression:
/// pinning outside the routing lock panicked or mis-attributed URLs
/// whenever tombstones had been compacted away).
#[test]
fn cluster_retrieve_races_merge_all_without_desync() {
    let f = fixture();
    let cluster =
        seed_cluster(2, f.config.clone(), Vec::new(), Some(f.vocab.clone()), Some(f.thes.clone()));
    cluster.insert_rows(f.rows[..24].to_vec()).unwrap();
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let reqs = probe_requests(f);
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        for q in &reqs {
                            for h in cluster.retrieve(q).unwrap() {
                                assert!(h.score.is_finite(), "torn routing produced {h:?}");
                            }
                        }
                    }
                })
            })
            .collect();
        // every round tombstones a doc then merges, so merge_all compacts
        // the routing table while the readers are mid-flight
        for round in 0..12 {
            let mut row = f.rows[24 + round].clone();
            row.url = format!("{}#round{round}", row.url);
            cluster.insert_rows(vec![row]).unwrap();
            cluster.delete(&f.rows[round].url).unwrap().expect("victim is live");
            cluster.merge_all().unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for r in readers {
            r.join().expect("reader raced a merge and died");
        }
    });
}

// ---------------------------------------------------------------------------
// Satellite 3 — epoch reclamation, counter-instrumented
// ---------------------------------------------------------------------------

#[test]
fn pinned_generation_survives_merges_and_is_reclaimed_after_unpin() {
    let f = fixture();
    const N_BASE: usize = 12;
    let live = seed_live(f, N_BASE);
    let s0 = live.generation_stats();
    assert_eq!((s0.current, s0.created, s0.retired, s0.alive), (0, 1, 0, 1));
    assert!(s0.alive_bytes > 0);

    let pin0 = live.pin();
    let pinned_probe = probe_reader(&pin0, f);
    const K: u64 = 3;
    for i in 0..K {
        live.insert_rows(vec![f.rows[N_BASE + i as usize].clone()]).unwrap();
        live.merge().unwrap();
    }

    // K merges: generations 1..K-1 retired the moment their snapshot was
    // swapped out; generation 0 is held alive by the pin alone
    let s = live.generation_stats();
    assert_eq!((s.current, s.created, s.retired, s.alive), (K, K + 1, K - 1, 2));
    assert_eq!(pin0.generation(), 0);
    assert_eq!(probe_reader(&pin0, f), pinned_probe, "pinned snapshot drifted under churn");
    assert_eq!(
        probe_reader(&pin0, f),
        probe(&reference(f, pin0.surviving_rows()), f),
        "pinned snapshot is not its own quiesced state"
    );

    let bytes_while_pinned = s.alive_bytes;
    drop(pin0);
    let s = live.generation_stats();
    assert_eq!((s.created, s.retired, s.alive), (K + 1, K, 1));
    assert!(
        s.alive_bytes < bytes_while_pinned,
        "unpinning freed nothing: {} -> {}",
        bytes_while_pinned,
        s.alive_bytes
    );

    // churn with no standing pins never accumulates generations
    for i in 0..3 {
        live.insert_rows(vec![f.rows[N_BASE + K as usize + i].clone()]).unwrap();
        live.merge().unwrap();
    }
    assert_eq!(live.generation_stats().alive, 1);
}

// ---------------------------------------------------------------------------
// Properties — seeded single-thread interleavings over the replay model
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Step {
    InsertPool(usize, usize), // offset, len (taken from the pool, cyclic)
    DeleteNth(usize),         // delete the nth currently-live row
    DeleteMissing,
    Merge,
}

/// Decode a raw `(tag, a, b)` draw into a weighted step: the vendored
/// proptest has no `prop_oneof`, so weights live in the tag ranges.
fn decode_step((tag, a, b): (u8, usize, usize)) -> Step {
    match tag {
        0..=3 => Step::InsertPool(a, 1 + b % 2),
        4..=6 => Step::DeleteNth(a),
        7 => Step::DeleteMissing,
        _ => Step::Merge,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any seeded schedule of inserts/deletes/merges leaves the live view
    /// bit-identical to the replay model's batch re-ingest after every
    /// single step.
    #[test]
    fn prop_seeded_schedules_track_their_quiesced_state(
        raw in proptest::collection::vec((0u8..10, 0usize..64, 0usize..16), 1..10)
    ) {
        let steps: Vec<Step> = raw.into_iter().map(decode_step).collect();
        let f = fixture();
        const N_BASE: usize = 14;
        let live = seed_live(f, N_BASE);
        let mut history: Vec<(LibraryRow, bool)> =
            f.rows[..N_BASE].iter().cloned().map(|r| (r, true)).collect();
        let pool = &f.rows[N_BASE..];

        let mut inserted = 0usize;
        for step in &steps {
            match step {
                Step::InsertPool(offset, len) => {
                    // fresh unique URLs so delete-by-url stays unambiguous
                    let rows: Vec<LibraryRow> = (0..*len)
                        .map(|i| {
                            let mut r = pool[(offset + i) % pool.len()].clone();
                            r.url = format!("{}#live-{}", r.url, inserted + i);
                            r
                        })
                        .collect();
                    inserted += len;
                    let op = Op::Insert(rows.clone());
                    live.insert_rows(rows).unwrap();
                    apply(&mut history, &op);
                }
                Step::DeleteNth(n) => {
                    let alive: Vec<String> = history
                        .iter()
                        .filter(|(_, a)| *a)
                        .map(|(r, _)| r.url.clone())
                        .collect();
                    if alive.is_empty() {
                        continue;
                    }
                    let url = alive[n % alive.len()].clone();
                    prop_assert!(live.delete(&url).unwrap().is_some());
                    apply(&mut history, &Op::Delete(url));
                }
                Step::DeleteMissing => {
                    prop_assert!(live.delete("never-crawled").unwrap().is_none());
                }
                Step::Merge => live.merge().unwrap(),
            }
            let expect = probe(&reference(f, survivors(&history)), f);
            prop_assert_eq!(&probe(&live, f), &expect, "diverged after {:?}", step);
            prop_assert_eq!(live.n_docs(), history.iter().filter(|(_, a)| *a).count());
        }
        // final quiesce: fold everything and compare the corpus itself
        live.merge().unwrap();
        prop_assert_eq!(live.pin().surviving_rows(), survivors(&history));
    }
}

// ---------------------------------------------------------------------------
// Seals: random schedules under small merge policies
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum SealStep {
    Insert(usize, usize), // pool offset, 1–64 rows (mostly ≤ 8); every fifth a duplicate URL
    Delete(usize, bool),  // the nth live URL (from the newest?), its latest copy
    Trip(MergePolicy),
    Merge,
}

fn decode_seal_step((tag, a, b): (u8, usize, usize)) -> SealStep {
    match tag {
        0 => SealStep::Insert(a, 1 + b % 64),
        1..=4 => SealStep::Insert(a, 1 + b % 8),
        5..=7 => SealStep::Delete(a, b.is_multiple_of(2)),
        8..=10 => SealStep::Trip(MergePolicy {
            max_delta_rows: [6, 16, 40][b % 3],
            max_delta_bytes: if b.is_multiple_of(5) { 2_000 } else { u64::MAX },
            max_tombstones: [2, 4][b % 2],
        }),
        _ => SealStep::Merge,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any schedule of inserts, deletes, policy trips (seals or rebuilds)
    /// and merges ranks like a batch re-ingest of its survivors after
    /// every step; a reader pinned before a step answers the same after
    /// it; and sealed segments stay within log2 of the delta's rows.
    #[test]
    fn prop_seals_rank_like_a_batch_reingest_and_stay_logarithmic(
        raw in proptest::collection::vec((0u8..12, 0usize..64, 0usize..64), 1..32)
    ) {
        let f = fixture();
        let live = seed_live(f, f.rows.len());
        let mut history: Vec<(LibraryRow, bool)> = f.rows.iter().cloned().map(|r| (r, true)).collect();
        let pool = &f.rows;
        let (mut inserted, mut unsealed, mut delta_rows) = (0, 0, 0usize);
        let mut expect = probe(&live, f);
        for step in raw.into_iter().map(decode_seal_step) {
            let pin = live.pin();
            match &step {
                SealStep::Insert(offset, len) => {
                    let rows: Vec<LibraryRow> = (inserted..inserted + len)
                        .map(|i| {
                            let mut r = pool[(offset + i) % pool.len()].clone();
                            r.url = if i % 5 == 0 {
                                format!("http://dup/{}", i % 3)
                            } else {
                                format!("{}#seal-{i}", r.url)
                            };
                            r
                        })
                        .collect();
                    inserted += len;
                    (unsealed, delta_rows) = (unsealed + 1, delta_rows + len);
                    live.insert_rows(rows.clone()).unwrap();
                    apply(&mut history, &Op::Insert(rows));
                }
                SealStep::Delete(n, newest) => {
                    let alive: Vec<&LibraryRow> =
                        history.iter().filter(|(_, a)| *a).map(|(r, _)| r).collect();
                    if alive.is_empty() {
                        continue;
                    }
                    let at = n % alive.len();
                    let url = alive[if *newest { alive.len() - 1 - at } else { at }].url.clone();
                    prop_assert!(live.delete(&url).unwrap().is_some());
                    apply(&mut history, &Op::Delete(url));
                }
                SealStep::Trip(policy) => {
                    if live.maybe_merge(policy).unwrap() {
                        unsealed = 0;
                        if live.pin().generation() != pin.generation() {
                            delta_rows = 0;
                        }
                    }
                }
                SealStep::Merge => {
                    live.merge().unwrap();
                    (unsealed, delta_rows) = (0, 0);
                }
            }
            prop_assert_eq!(&probe_reader(&pin, f), &expect, "pin moved under {:?}", step);
            expect = probe(&reference(f, survivors(&history)), f);
            prop_assert_eq!(&probe(&live, f), &expect, "diverged after {:?}", step);
            prop_assert_eq!(live.pin().surviving_rows(), survivors(&history));
            let sealed = delta_rows.checked_ilog2().map_or(0, |log| log as usize + 1);
            let segments = live.pin().segments();
            prop_assert!(segments <= unsealed + sealed, "{} segments after {:?}", segments, step);
        }
    }
}

// ---------------------------------------------------------------------------
// Smoke: the image write path quantises through the pinned vocabulary
// ---------------------------------------------------------------------------

#[test]
fn insert_images_matches_batch_ingest_of_the_same_crawl() {
    let f = fixture();
    let live = seed_live(f, f.rows.len());
    let extra = WebRobot::new(RobotConfig {
        n_images: 6,
        image_size: 24,
        unannotated_fraction: 0.25,
        seed: 91,
    })
    .crawl();
    live.insert_images(&extra).unwrap();
    assert_eq!(live.n_docs(), f.rows.len() + extra.len());
    // the extracted rows carry in-vocabulary visual terms
    let pin = live.pin();
    let rows = pin.surviving_rows();
    assert!(rows[f.rows.len()..].iter().any(|r| !r.vterms.is_empty()));
    // and the live view still tracks its batch re-ingest exactly
    assert_eq!(probe(&live, f), probe(&reference(f, rows), f));
}

/// Compile-time proof the live types cross threads.
#[allow(dead_code)]
fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn live_types_are_send_and_sync() {
    assert_send_sync::<LiveMirror>();
    assert_send_sync::<MirrorCluster>();
    assert_send_sync::<LiveReader>();
}

/// Below its shares a tripped policy seals (the generation number holds)
/// and past them it rebuilds (the number bumps); rankings never move.
#[test]
fn merge_policy_auto_triggers_and_preserves_rankings() {
    let f = fixture();
    let live = seed_live(f, 32);
    let rows_policy =
        MergePolicy { max_delta_rows: 8, max_delta_bytes: u64::MAX, max_tombstones: usize::MAX };
    // below every threshold: the policy stays quiet
    live.insert_rows(f.rows[32..36].to_vec()).unwrap();
    assert!(!live.maybe_merge(&rows_policy).unwrap());
    assert_eq!(live.generation_stats().current, 0);
    // crossing the row threshold fires exactly one seal…
    live.insert_rows(f.rows[36..44].to_vec()).unwrap();
    let (rows, bytes, tombstones) = live.delta_pressure();
    assert_eq!((rows, tombstones), (12, 0));
    assert!(bytes > 0);
    let before = probe(&live, f);
    assert!(live.maybe_merge(&rows_policy).unwrap());
    assert_eq!(live.generation_stats().current, 0, "12 delta rows beside 32 seal");
    assert_eq!(live.pin().segments(), 1);
    // …with rankings bit-identical across the fold
    assert_eq!(probe(&live, f), before);
    // the sealed delta leaves no pressure, so the policy is idle again
    assert_eq!(live.delta_pressure(), (0, 0, 0));
    assert!(!live.maybe_merge(&rows_policy).unwrap());
    assert_eq!(live.generation_stats().current, 0);
    // the tombstone threshold is an independent trigger
    let tomb_policy =
        MergePolicy { max_delta_rows: usize::MAX, max_delta_bytes: u64::MAX, max_tombstones: 2 };
    live.delete(&f.rows[0].url).unwrap();
    assert!(!live.maybe_merge(&tomb_policy).unwrap());
    live.delete(&f.rows[1].url).unwrap();
    let before = probe(&live, f);
    assert!(live.maybe_merge(&tomb_policy).unwrap());
    assert_eq!(live.generation_stats().current, 0, "2 dead of 44 seal");
    assert_eq!(probe(&live, f), before);
    assert_eq!(live.delta_pressure(), (0, 0, 0));
    // a quarter of the documents dead: the seal becomes a rebuild
    for row in &f.rows[2..11] {
        live.delete(&row.url).unwrap();
    }
    let before = probe(&live, f);
    assert!(live.maybe_merge(&tomb_policy).unwrap());
    assert_eq!(live.generation_stats().current, 1, "11 dead of 44 rebuild");
    assert_eq!(live.pin().segments(), 0);
    assert_eq!(probe(&live, f), before);
    // as many delta rows as the generation's 33 documents: a rebuild too
    let again: Vec<LibraryRow> = f.rows[..33]
        .iter()
        .map(|r| LibraryRow { url: format!("{}#again", r.url), ..r.clone() })
        .collect();
    live.insert_rows(again).unwrap();
    let before = probe(&live, f);
    assert!(live.maybe_merge(&rows_policy).unwrap());
    assert_eq!(live.generation_stats().current, 2, "33 delta rows beside 33 rebuild");
    assert_eq!(probe(&live, f), before);
    // and the merged corpus still equals a batch re-ingest of survivors
    assert_eq!(probe(&live, f), probe(&reference(f, live.pin().surviving_rows()), f));
}

/// A live mirror over an instance that never loaded a corpus ranks its
/// inserts like a batch ingest of them.
#[test]
fn never_loaded_instance_serves_its_inserts() {
    let f = fixture();
    let live = LiveMirror::new(MirrorDbms::new(f.config.clone()));
    live.insert_rows(f.rows[..12].to_vec()).unwrap();
    let req = RetrievalRequest::text("sunset over the water", 10);
    let got = keyed(vec![live.retrieve(&req).unwrap()]);
    assert!(!got[0].is_empty());
    assert_eq!(got, keyed(vec![reference(f, f.rows[..12].to_vec()).retrieve(&req).unwrap()]));
}

#[test]
fn mutable_corpus_is_object_safe_behind_the_server() {
    let f = fixture();
    let live = Arc::new(seed_live(f, 8));
    let server = MirrorServer::start(Arc::clone(&live), 2);
    let seq = server.insert_rows(vec![f.rows[10].clone()]).unwrap();
    assert!(seq > 0);
    let hits: RetrievalResult<_> = server.query(&RetrievalRequest::text("sunset", 5));
    hits.unwrap();
    assert_eq!(server.delete(&f.rows[10].url).unwrap(), Some(seq + 1));
}

/// The same insert/delete/`merge_all` schedule on 1-, 2- and 4-shard
/// clusters returns identical `(oid, url, score)` lists: hits carry global
/// arrival ids at every shard count (regression: a 1-shard cluster
/// returned shard-local oids, which `merge_all` compacts away from the
/// arrival ids).
#[test]
fn cluster_oids_are_global_arrival_ids_at_every_shard_count() {
    let f = fixture();
    let run = |n_shards: usize| {
        let cluster = seed_cluster(
            n_shards,
            f.config.clone(),
            Vec::new(),
            Some(f.vocab.clone()),
            Some(f.thes.clone()),
        );
        let mut snapshots = Vec::new();
        let mut probe_oids = |cluster: &MirrorCluster| {
            snapshots.push(
                probe_requests(f)
                    .iter()
                    .map(|q| {
                        let hits = cluster.retrieve(q).unwrap();
                        hits.into_iter().map(|h| (h.oid, h.url, h.score)).collect::<Vec<_>>()
                    })
                    .collect::<Vec<_>>(),
            );
        };
        for (round, chunk) in f.rows.chunks(8).enumerate() {
            cluster.insert_rows(chunk.to_vec()).unwrap();
            // tombstone an early document, then compact every other round
            cluster.delete(&f.rows[round * 3].url).unwrap().expect("victim is live");
            probe_oids(&cluster);
            if round % 2 == 1 {
                cluster.merge_all().unwrap();
                probe_oids(&cluster);
            }
        }
        snapshots
    };
    let one = run(1);
    assert!(one.iter().flatten().any(|hits| !hits.is_empty()));
    for n_shards in [2, 4] {
        assert_eq!(run(n_shards), one, "{n_shards}-shard oids diverged from 1 shard");
    }
}

/// At block scale — visual lists spanning many 128-posting blocks across
/// the generation and dozens of 64-row delta segments, deletes in both —
/// every request (filters, k = all, mix 0 and 1 included) ranks exactly
/// like a batch re-ingest of the surviving rows, on a single node and on
/// a 2-shard cluster.
#[test]
fn block_scale_segments_match_a_batch_reingest_on_node_and_cluster() {
    const N_BASE: usize = 3_000;
    let rows = block_scale_rows();
    let config = MirrorConfig::default();
    let base = MirrorDbms::from_rows(config.clone(), rows[..N_BASE].to_vec(), None, None).unwrap();
    let live = LiveMirror::new(base);
    let cluster = seed_cluster(2, config.clone(), Vec::new(), None, None);
    cluster.insert_rows(rows[..N_BASE].to_vec()).unwrap();
    cluster.merge_all().unwrap();
    for chunk in rows[N_BASE..].chunks(64) {
        live.insert_rows(chunk.to_vec()).unwrap();
        cluster.insert_rows(chunk.to_vec()).unwrap();
    }
    // every 9th row: tombstones in the generation and in the delta
    for r in rows.iter().step_by(9) {
        live.delete(&r.url).unwrap().expect("victim is live");
        cluster.delete(&r.url).unwrap().expect("victim is live on its shard");
    }
    let reference = MirrorDbms::from_rows(config, live.pin().surviving_rows(), None, None).unwrap();
    let keyed = |hits: Vec<mirror::core::query::RankedResult>| -> Vec<(String, f64)> {
        hits.into_iter().map(|h| (h.url, h.score)).collect()
    };
    let mut nonempty = 0;
    for req in block_scale_requests() {
        assert_fused(&reference, &req);
        let expected = keyed(reference.retrieve(&req).unwrap());
        nonempty += usize::from(!expected.is_empty());
        assert_eq!(keyed(live.retrieve(&req).unwrap()), expected, "node: {req:?}");
        assert_eq!(keyed(cluster.retrieve(&req).unwrap()), expected, "cluster: {req:?}");
    }
    assert!(nonempty > 0);
}
