//! Crash-injection proof of the durable storage tier.
//!
//! The contract under test: a `MirrorDbms` saved into the page-granular
//! store can be killed at *any* write — mid-WAL-append, mid-checkpoint,
//! mid-remove — and a subsequent cold open either reconstructs an
//! instance that ranks **bit-identically** to the never-crashed one, or
//! reports a typed `IncompleteState` from which re-running the save
//! converges. Checksummed pages mean silent bit corruption is
//! *detected*, never served.
//!
//! Crash points are exercised two ways: exhaustively (every write index
//! with a clean cut) and by property (random kill points with random
//! torn tails), both against a cached never-crashed baseline.

mod fault;

use fault::{BitFlip, FaultFs, FaultPlan};
use mirror::core::query::RankedResult;
use mirror::core::shard::{ClusterConfig, MirrorCluster};
use mirror::core::{
    LibraryRow, LiveMirror, MergePolicy, MirrorDbms, MutableCorpus, RetrievalError, Retriever,
};
use mirror::media::{CrawledImage, RobotConfig, WebRobot};
use mirror::monet::{MemFs, MonetError, StorageBackend, Store, StoreOptions};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::{Arc, OnceLock};

fn corpus() -> Vec<CrawledImage> {
    WebRobot::new(RobotConfig { n_images: 18, image_size: 24, unannotated_fraction: 0.2, seed: 7 })
        .crawl()
}

/// The query battery every recovered instance must answer bit-identically:
/// text-only, dual-coded (thesaurus expansion), and structure+content.
fn probe(r: &(impl Retriever + ?Sized)) -> Vec<Vec<RankedResult>> {
    vec![
        r.query_text("sunset over the water", 10).unwrap(),
        r.query_text("forest ocean", 8).unwrap(),
        r.query_dual("desert", 0.5, 10).unwrap(),
        r.query_text_filtered("city", "img", 10).unwrap(),
    ]
}

/// One ingested instance, its never-crashed durable images, and its
/// rankings — built once, shared by every test below. Read-only: tests
/// run on parallel threads, so a test that writes to a disk image works on
/// a [`fault::fork`] of it; [`reopen`] of a shared image only reads.
struct Baseline {
    db: MirrorDbms,
    /// Fully saved *and* checkpointed: state lives in checksummed pages.
    saved: MemFs,
    /// Saved but never checkpointed: state recovers purely from the WAL.
    wal_only: MemFs,
    probes: Vec<Vec<RankedResult>>,
    /// Mutating backend ops in one full save + checkpoint — the space of
    /// injectable crash points.
    total_writes: u64,
}

fn baseline() -> &'static Baseline {
    static B: OnceLock<Baseline> = OnceLock::new();
    B.get_or_init(|| {
        let mut db = MirrorDbms::with_defaults();
        db.ingest(&corpus()).unwrap();

        // Full save through a fault-free FaultFs to count the writes.
        let saved = MemFs::new();
        let counter = Arc::new(FaultFs::new(Arc::new(saved.clone()), FaultPlan::default()));
        let store = Store::open(counter.clone(), StoreOptions::default()).unwrap();
        db.save_to(&store).unwrap();
        store.checkpoint().unwrap();
        let total_writes = counter.writes_issued();
        assert!(total_writes > 10, "suspiciously few writes: {total_writes}");
        drop(store);

        let wal_only = MemFs::new();
        let store = Store::open(Arc::new(wal_only.clone()), StoreOptions::default()).unwrap();
        db.save_to(&store).unwrap();
        drop(store);

        let probes = probe(&db);
        assert!(probes.iter().any(|p| !p.is_empty()), "baseline probes are all empty");
        Baseline { db, saved, wal_only, probes, total_writes }
    })
}

fn reopen(fs: &MemFs) -> Store {
    Store::open(Arc::new(fs.clone()), StoreOptions::default()).unwrap()
}

/// Crash a save+checkpoint at write index `w` with `torn` garbage-free
/// prefix bytes landing from the fatal write, then cold-open whatever
/// survived and hold it to the contract.
fn crash_and_check(w: u64, torn: usize) -> Result<(), TestCaseError> {
    let b = baseline();
    let fs = MemFs::new();
    let plan = FaultPlan { crash_at_write: Some(w), torn_bytes: torn, flips: vec![] };
    let fault = Arc::new(FaultFs::new(Arc::new(fs.clone()), plan));
    let crashed = (|| -> Result<(), RetrievalError> {
        let store = Store::open(fault.clone(), StoreOptions::default())?;
        b.db.save_to(&store)?;
        store.checkpoint()?;
        Ok(())
    })();
    prop_assert!(crashed.is_err(), "crash at write {w} (torn {torn}) did not fire");
    prop_assert!(fault.crashed());

    let store = reopen(&fs);
    match MirrorDbms::open_from(&store) {
        Ok(db) => prop_assert_eq!(&probe(&db), &b.probes, "crash at write {} (torn {})", w, torn),
        Err(RetrievalError::IncompleteState { .. }) => {
            // the save never finished — re-running it must converge
            b.db.save_to(&store).expect("healing save");
            store.checkpoint().expect("healing checkpoint");
            let store = reopen(&fs);
            let db = MirrorDbms::open_from(&store).expect("open after healing save");
            prop_assert_eq!(&probe(&db), &b.probes, "healed after crash at write {}", w);
        }
        Err(other) => {
            return Err(TestCaseError::fail(format!(
                "crash at write {w} (torn {torn}): unexpected error kind: {other}"
            )))
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Deterministic tests
// ---------------------------------------------------------------------------

#[test]
fn cold_open_from_checkpointed_pages_matches_live_instance() {
    let b = baseline();
    let store = reopen(&b.saved);
    assert_eq!(store.recovery().wal_keys, 0, "checkpoint should have folded the WAL");
    let db = MirrorDbms::open_from(&store).unwrap();
    assert_eq!(probe(&db), b.probes);
    assert_eq!(db.n_docs(), b.db.n_docs());
    assert_eq!(db.library_rows(), b.db.library_rows());
}

#[test]
fn cold_open_from_wal_only_store_replays_the_log() {
    let b = baseline();
    let store = reopen(&b.wal_only);
    let rec = store.recovery();
    assert!(rec.wal_transactions > 0, "expected WAL replay, got {rec:?}");
    let db = MirrorDbms::open_from(&store).unwrap();
    assert_eq!(probe(&db), b.probes);
}

#[test]
fn torn_wal_tail_is_discarded_not_fatal() {
    let b = baseline();
    let fs = fault::fork(&b.wal_only);
    // a crash tore the last record: append a partial frame
    fs.append("wal.log", &[0xAB, 0x00, 0x00, 0x00, 0x17, 0x9c, 0x4e]).unwrap();
    let store = reopen(&fs);
    assert!(store.recovery().bytes_discarded > 0, "torn tail went unnoticed");
    let db = MirrorDbms::open_from(&store).unwrap();
    assert_eq!(probe(&db), b.probes);
}

#[test]
fn crash_at_every_write_recovers_or_reports_incomplete() {
    let b = baseline();
    for w in 0..b.total_writes {
        crash_and_check(w, 0).unwrap();
    }
}

// The page store's own sweeps: crash a bare `Store` at every write.

#[test]
fn crash_mid_checkpoint_recovers_from_wal() {
    // learn the write count of a full fault-free run, then crash at
    // every mutating operation along the way and verify recovery
    let counter = Arc::new(FaultFs::new(Arc::new(MemFs::new()), FaultPlan::default()));
    {
        let store = Store::open(counter.clone(), StoreOptions::default()).unwrap();
        store.put("a", vec![1u8; 6000]);
        store.put("b", b"bee".to_vec());
        store.commit().unwrap();
        store.checkpoint().unwrap();
    }
    let n = counter.writes_issued();
    assert!(n > 3, "workload too small to be interesting: {n} writes");

    for crash_at in 0..n {
        for torn in [0usize, 3] {
            let disk = MemFs::new();
            let faulty = Arc::new(FaultFs::new(
                Arc::new(disk.clone()),
                FaultPlan {
                    crash_at_write: Some(crash_at),
                    torn_bytes: torn,
                    ..Default::default()
                },
            ));
            let store = Store::open(faulty, StoreOptions::default()).unwrap();
            store.put("a", vec![1u8; 6000]);
            store.put("b", b"bee".to_vec());
            let committed = store.commit().is_ok();
            let _ = store.checkpoint(); // may crash — fine
            drop(store);
            // reopen on the survived bytes
            let store = reopen(&disk);
            if committed {
                assert_eq!(
                    store.get("a").unwrap().unwrap(),
                    vec![1u8; 6000],
                    "crash at write {crash_at} torn {torn} lost committed data"
                );
                assert_eq!(store.get("b").unwrap().unwrap(), b"bee");
            } else {
                // crashed before commit: all-or-nothing
                assert!(
                    store.get("a").unwrap().is_none(),
                    "crash at write {crash_at} leaked uncommitted data"
                );
            }
        }
    }
}

#[test]
fn crash_in_a_mixed_put_delete_transaction_is_all_or_nothing() {
    // a checkpointed base, then one transaction that deletes a base
    // key and a WAL key and puts a new one, then a checkpoint: crash
    // at every write of the run and expect exactly before or after
    let setup = |store: &Store| {
        store.put("base", vec![2u8; 5000]);
        store.commit().unwrap();
        store.checkpoint().unwrap();
        store.put("wal", b"w".to_vec());
        store.commit().unwrap();
    };
    let txn = |store: &Store| -> bool {
        store.delete("base");
        store.delete("wal");
        store.put("new", vec![3u8; 6000]);
        let committed = store.commit().is_ok();
        let _ = store.checkpoint(); // may crash — fine
        committed
    };
    let counter = Arc::new(FaultFs::new(Arc::new(MemFs::new()), FaultPlan::default()));
    let store = Store::open(counter.clone(), StoreOptions::default()).unwrap();
    setup(&store);
    let first = counter.writes_issued();
    assert!(txn(&store));
    let n = counter.writes_issued();
    assert!(n - first > 5, "transaction too small to be interesting: {} writes", n - first);

    for crash_at in first..n {
        for torn in [0usize, 3] {
            let disk = MemFs::new();
            let faulty = Arc::new(FaultFs::new(
                Arc::new(disk.clone()),
                FaultPlan {
                    crash_at_write: Some(crash_at),
                    torn_bytes: torn,
                    ..Default::default()
                },
            ));
            let store = Store::open(faulty, StoreOptions::default()).unwrap();
            setup(&store);
            let committed = txn(&store);
            drop(store);
            let store = reopen(&disk);
            let keys = store.keys();
            if committed {
                assert_eq!(keys, vec!["new".to_string()], "crash at {crash_at} torn {torn}");
                assert_eq!(store.get("new").unwrap().unwrap(), vec![3u8; 6000]);
            } else {
                let before = vec!["base".to_string(), "wal".to_string()];
                assert_eq!(keys, before, "crash at {crash_at} torn {torn}");
                assert_eq!(store.get("base").unwrap().unwrap(), vec![2u8; 5000]);
            }
        }
    }
}

#[test]
fn fresh_directory_reports_incomplete_state() {
    let store = reopen(&MemFs::new());
    match MirrorDbms::open_from(&store) {
        Err(RetrievalError::IncompleteState { detail }) => {
            assert!(detail.contains("no completion marker"), "detail: {detail}")
        }
        Ok(db) => panic!("expected IncompleteState, got an instance with {} docs", db.n_docs()),
        Err(other) => panic!("expected IncompleteState, got {other}"),
    }
}

#[test]
fn flip_during_write_is_caught_on_reopen() {
    // silent corruption *on the write path*: the checkpoint's first page
    // write lands with one bit flipped
    let b = baseline();
    let fs = MemFs::new();
    let store = Store::open(Arc::new(fs.clone()), StoreOptions::default()).unwrap();
    b.db.save_to(&store).unwrap();
    drop(store);
    // count the WAL writes so the flip targets the checkpoint phase
    let counter = Arc::new(FaultFs::new(Arc::new(fault::fork(&fs)), FaultPlan::default()));
    let probe_store = Store::open(counter.clone(), StoreOptions::default()).unwrap();
    probe_store.checkpoint().unwrap();
    drop(probe_store);
    let flip = BitFlip { write_index: 0, offset: 40, mask: 0x10 };
    let flipping = Arc::new(FaultFs::new(
        Arc::new(fs.clone()),
        FaultPlan { crash_at_write: None, torn_bytes: 0, flips: vec![flip] },
    ));
    let store = Store::open(flipping, StoreOptions::default()).unwrap();
    store.checkpoint().unwrap();
    drop(store);
    // the flipped page must be detected — recovery falls back to the WAL
    // generation or open reports corruption; either way the flipped bytes
    // are never served as results
    let store = reopen(&fs);
    match MirrorDbms::open_from(&store) {
        Ok(db) => assert_eq!(probe(&db), b.probes),
        Err(RetrievalError::Storage(e)) => {
            let msg = e.to_string();
            assert!(msg.contains("checksum") || msg.contains("corrupt"), "untyped: {msg}")
        }
        Err(RetrievalError::IncompleteState { .. }) => {}
        Err(other) => panic!("unexpected error kind: {other}"),
    }
}

#[test]
fn cluster_shards_persist_and_reopen_independently() {
    let corpus = corpus();
    // `replicas` is ignored but still recorded in the saved cluster config
    let config = ClusterConfig { shards: 2, replicas: 2, ..ClusterConfig::default() };
    let cluster = MirrorCluster::build_with(&corpus, config).unwrap();
    // written to before the save: an insert and a delete, still un-merged
    let mut copy = baseline().db.library_rows()[3].clone();
    copy.url = format!("{}#copy", copy.url);
    copy.annotation = Some("sunset over the water, a forest city".into());
    cluster.insert_rows(vec![copy.clone()]).unwrap();
    cluster.delete(&corpus[0].url).unwrap().expect("victim is live");
    let written = probe(&cluster);
    assert!(written.iter().flatten().any(|h| h.url == copy.url), "the insert ranks");
    let dir = scratch_dir("cluster");
    cluster.save(&dir).unwrap();
    assert_eq!(probe(&cluster), written, "saving folds writes without changing answers");

    let reopened = MirrorCluster::open(&dir).unwrap();
    assert_eq!(probe(&reopened), written);
    assert_eq!(reopened.stats().shards, 2);
    assert_eq!(reopened.config().replicas, 2);
    assert_eq!(reopened.n_docs(), corpus.len());
    // the reopened routing table still finds every document's shard
    assert!(reopened.delete(&copy.url).unwrap().is_some());
    assert!(reopened.delete(&corpus[0].url).unwrap().is_none(), "deleted before the save");

    // a shard directory is a complete store of its own: open one without
    // its siblings and it serves its slice of the corpus
    let shard0 = MirrorDbms::open(dir.join("shard-000")).unwrap();
    assert_eq!(shard0.n_docs(), cluster.shard_docs(0).len());
    assert!(!shard0.query_text("sunset over the water", 5).unwrap().is_empty());

    std::fs::remove_dir_all(&dir).ok();
}

/// Keys of a store's instance layout under `prefix` that hold a
/// serialised index rather than rows — there must be none.
fn index_keys(store: &Store, prefix: &str) -> Vec<String> {
    assert!(
        store.get(&format!("{prefix}meta/complete")).unwrap().is_some(),
        "no complete instance under {prefix:?}"
    );
    store.keys().into_iter().filter(|k| k.starts_with(&format!("{prefix}idx/"))).collect()
}

#[test]
fn saved_generations_hold_rows_not_indexes() {
    let b = baseline();
    // a saved instance: rows, vocabulary and thesaurus; open derives the
    // indexes from the rows and ranks bit-identically
    let store = reopen(&b.saved);
    assert_eq!(index_keys(&store, ""), Vec::<String>::new());
    assert!(store.get("rows/000000").unwrap().is_some());
    assert_eq!(probe(&MirrorDbms::open_from(&store).unwrap()), b.probes);

    // a live instance's first generation, then the one a merge writes
    let fs = MemFs::new();
    let store = Arc::new(reopen(&fs));
    let live = LiveMirror::create_durable(live_base(b), Arc::clone(&store)).unwrap();
    assert_eq!(index_keys(&store, "live/gen-000000/"), Vec::<String>::new());
    let reopened = LiveMirror::open_durable(Arc::new(reopen(&fs))).unwrap();
    assert_eq!(keyed(probe(&reopened)), keyed(probe(&live)));

    let rows = b.db.library_rows();
    live.insert_rows(rows[10..12].to_vec()).unwrap();
    live.merge().unwrap();
    assert_eq!(live_pointer(&store).map(|(gen, _)| gen), Some(1));
    assert_eq!(index_keys(&store, "live/gen-000001/"), Vec::<String>::new());
    let reopened = LiveMirror::open_durable(Arc::new(reopen(&fs))).unwrap();
    assert_eq!(keyed(probe(&reopened)), keyed(probe(&live)));
}

#[test]
fn store_with_previous_format_version_is_rejected_typed() {
    let b = baseline();
    // the pre-compression v1 layout, v4, the last to store index blobs,
    // and v5, the last to store the raw-row configuration flag
    for found in [1u32, 4, 5] {
        let fs = fault::fork(&b.saved);
        {
            let store = reopen(&fs);
            let mut stale = found.to_le_bytes().to_vec();
            stale.extend_from_slice(&0xFEFFu16.to_le_bytes());
            store.put("meta/format", stale);
            store.commit().unwrap();
        }
        let store = reopen(&fs);
        match MirrorDbms::open_from(&store) {
            Err(RetrievalError::Storage(MonetError::FormatVersion { found: got, .. })) => {
                assert_eq!(got, found)
            }
            Ok(_) => panic!("v{found} store opened silently"),
            Err(other) => panic!("expected a format-version error for v{found}, got {other}"),
        }
    }
}

#[test]
fn disk_roundtrip_matches_memory_roundtrip() {
    let b = baseline();
    let dir = scratch_dir("disk");
    b.db.save(&dir).unwrap();
    let db = MirrorDbms::open(&dir).unwrap();
    assert_eq!(probe(&db), b.probes);
    // saving again over the same directory converges, not corrupts
    db.save(&dir).unwrap();
    let again = MirrorDbms::open(&dir).unwrap();
    assert_eq!(probe(&again), b.probes);
    std::fs::remove_dir_all(&dir).ok();
}

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mirror-crash-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

// ---------------------------------------------------------------------------
// Live ingest: crash mid-delta-append and mid-merge
// ---------------------------------------------------------------------------

/// The contract: a durable live session killed at *any* backend write
/// reopens to the state of **some op prefix** of its write sequence —
/// the old generation wins if the crash hit a merge, the committed WAL
/// ops replay if it hit a delta append — never a torn hybrid. A write
/// is only acknowledged after its WAL record commits, so every
/// acknowledged op survives.
/// Live comparisons drop the oid: live arrival oids and a re-ingest's
/// dense oids differ by a monotone bijection once deletes exist, so
/// bit-identity is judged on the `(url, score)` sequences.
type KeyedProbes = Vec<Vec<(String, f64)>>;

fn keyed(runs: Vec<Vec<RankedResult>>) -> KeyedProbes {
    runs.into_iter().map(|hits| hits.into_iter().map(|h| (h.url, h.score)).collect()).collect()
}

/// The scripted live session's reference states, built once. Read-only.
struct LiveBaseline {
    base_rows: Vec<LibraryRow>,
    /// Reference probes of every op-prefix state (index = ops applied).
    prefix_probes: Vec<KeyedProbes>,
    /// Backend writes in the fault-free scripted session.
    total_writes: u64,
    /// Writes issued by the time `create_durable` returned — before
    /// this point a crash may leave a never-initialised store.
    writes_at_init: u64,
}

/// The scripted session: ops 1–5 around two merges, so the crash sweep
/// covers delta appends, a merge between ops, and a trailing merge.
fn live_base(b: &Baseline) -> MirrorDbms {
    let rows = b.db.library_rows()[..10].to_vec();
    MirrorDbms::from_rows(
        b.db.config().clone(),
        rows,
        b.db.vocabulary().cloned(),
        b.db.thesaurus().cloned(),
    )
    .unwrap()
}

fn run_live_script(b: &Baseline, store: Arc<Store>) -> Result<(), RetrievalError> {
    let rows = b.db.library_rows();
    let live = LiveMirror::create_durable(live_base(b), store)?;
    live.insert_rows(rows[10..12].to_vec())?; // op 1
    live.insert_rows(rows[12..14].to_vec())?; // op 2
    live.delete(&rows[0].url)?; //                op 3
    live.merge()?;
    live.insert_rows(rows[14..16].to_vec())?; // op 4
    live.delete(&rows[11].url)?; //               op 5
    live.merge()?;
    Ok(())
}

fn live_baseline() -> &'static LiveBaseline {
    static LB: OnceLock<LiveBaseline> = OnceLock::new();
    LB.get_or_init(|| {
        let b = baseline();
        let rows = b.db.library_rows();
        let base_rows = rows[..10].to_vec();

        // reference state after each op prefix (merges don't change contents)
        let mut surviving: Vec<LibraryRow> = base_rows.clone();
        let mut prefix_probes = Vec::new();
        let reference = |rows: &[LibraryRow]| {
            MirrorDbms::from_rows(
                b.db.config().clone(),
                rows.to_vec(),
                b.db.vocabulary().cloned(),
                b.db.thesaurus().cloned(),
            )
            .unwrap()
        };
        prefix_probes.push(keyed(probe(&reference(&surviving))));
        let op = |surviving: &mut Vec<LibraryRow>, change: &dyn Fn(&mut Vec<LibraryRow>)| {
            change(surviving);
            keyed(probe(&reference(surviving)))
        };
        prefix_probes.push(op(&mut surviving, &|s| s.extend(rows[10..12].to_vec())));
        prefix_probes.push(op(&mut surviving, &|s| s.extend(rows[12..14].to_vec())));
        prefix_probes.push(op(&mut surviving, &|s| s.retain(|r| r.url != rows[0].url)));
        prefix_probes.push(op(&mut surviving, &|s| s.extend(rows[14..16].to_vec())));
        prefix_probes.push(op(&mut surviving, &|s| s.retain(|r| r.url != rows[11].url)));

        // count the session's writes fault-free, marking initialisation
        let fs = MemFs::new();
        let counter = Arc::new(FaultFs::new(Arc::new(fs.clone()), FaultPlan::default()));
        let store = Arc::new(Store::open(counter.clone(), StoreOptions::default()).unwrap());
        let live = LiveMirror::create_durable(live_base(b), Arc::clone(&store)).unwrap();
        let writes_at_init = counter.writes_issued();
        live.insert_rows(rows[10..12].to_vec()).unwrap();
        live.insert_rows(rows[12..14].to_vec()).unwrap();
        live.delete(&rows[0].url).unwrap();
        live.merge().unwrap();
        live.insert_rows(rows[14..16].to_vec()).unwrap();
        live.delete(&rows[11].url).unwrap();
        live.merge().unwrap();
        let total_writes = counter.writes_issued();
        assert!(total_writes > writes_at_init, "script must write past initialisation");

        // sanity: the fault-free session serves the final prefix state
        assert_eq!(&keyed(probe(&live)), prefix_probes.last().unwrap());

        LiveBaseline { base_rows, prefix_probes, total_writes, writes_at_init }
    })
}

/// Kill the scripted live session at write `w`, reopen, and hold the
/// recovered state to the some-op-prefix contract.
fn live_crash_and_check(w: u64, torn: usize) -> Result<(), TestCaseError> {
    let b = baseline();
    let lb = live_baseline();
    let fs = MemFs::new();
    let plan = FaultPlan { crash_at_write: Some(w), torn_bytes: torn, flips: vec![] };
    let fault = Arc::new(FaultFs::new(Arc::new(fs.clone()), plan));
    let crashed = (|| -> Result<(), RetrievalError> {
        let store = Arc::new(Store::open(fault.clone(), StoreOptions::default())?);
        run_live_script(b, store)
    })();
    prop_assert!(crashed.is_err(), "live crash at write {w} (torn {torn}) did not fire");
    prop_assert!(fault.crashed());

    let store = Arc::new(reopen(&fs));
    match LiveMirror::open_durable(store) {
        Ok(live) => {
            let got = keyed(probe(&live));
            let prefix = lb.prefix_probes.iter().position(|p| p == &got);
            prop_assert!(
                prefix.is_some(),
                "crash at write {} (torn {}): reopened state matches no op prefix ({} docs)",
                w,
                torn,
                live.n_docs()
            );
        }
        Err(RetrievalError::IncompleteState { .. }) => {
            // only legitimate before create_durable ever acknowledged
            prop_assert!(
                w < lb.writes_at_init,
                "crash at write {} (torn {}): initialised store reopened incomplete",
                w,
                torn
            );
        }
        Err(other) => {
            return Err(TestCaseError::fail(format!(
                "live crash at write {w} (torn {torn}): unexpected error kind: {other}"
            )))
        }
    }
    Ok(())
}

#[test]
fn live_session_crash_at_every_write_reopens_to_an_op_prefix() {
    let lb = live_baseline();
    for w in 0..lb.total_writes {
        live_crash_and_check(w, 0).unwrap();
    }
}

/// A crash after `create_durable` wrote the store's aux values but before
/// it first set `live/current` leaves no live instance: reopening reports
/// `IncompleteState`, never a half-initialised mirror.
#[test]
fn live_crash_between_aux_and_first_pointer_reports_incomplete() {
    let b = baseline();
    let lb = live_baseline();
    let mut between = 0;
    for w in 0..lb.writes_at_init {
        let fs = MemFs::new();
        let plan = FaultPlan { crash_at_write: Some(w), torn_bytes: 0, flips: vec![] };
        let fault = Arc::new(FaultFs::new(Arc::new(fs.clone()), plan));
        let crashed = (|| -> Result<LiveMirror, RetrievalError> {
            let store = Arc::new(Store::open(fault.clone(), StoreOptions::default())?);
            LiveMirror::create_durable(live_base(b), store)
        })();
        assert!(crashed.is_err() && fault.crashed(), "crash at write {w} did not fire");
        let store = reopen(&fs);
        let aux = store.get("live/aux/thesaurus").unwrap().is_some();
        if !aux || store.get("live/current").unwrap().is_some() {
            continue;
        }
        between += 1;
        match LiveMirror::open_durable(Arc::new(store)) {
            Err(RetrievalError::IncompleteState { .. }) => {}
            Ok(_) => panic!("crash at write {w}: a live store without a pointer opened"),
            Err(other) => panic!("crash at write {w}: expected IncompleteState, got {other}"),
        }
    }
    assert!(between > 0, "no crash point fell between the aux write and the pointer");
}

#[test]
fn live_session_clean_reopen_resumes_writes_with_fresh_sequence_numbers() {
    let b = baseline();
    let lb = live_baseline();
    let fs = MemFs::new();
    let store = Arc::new(Store::open(Arc::new(fs.clone()), StoreOptions::default()).unwrap());
    run_live_script(b, store).unwrap();

    let reopened = LiveMirror::open_durable(Arc::new(reopen(&fs))).unwrap();
    assert_eq!(&keyed(probe(&reopened)), lb.prefix_probes.last().unwrap());

    // writes continue durably after reopen: insert, reopen again, verify
    let extra = LibraryRow {
        url: "http://live/extra".into(),
        annotation: Some("sunset over the water again".into()),
        vterms: lb.base_rows[0].vterms.clone(),
        theme: 0,
    };
    reopened.insert_rows(vec![extra.clone()]).unwrap();
    let expected = keyed(probe(&reopened));
    drop(reopened);
    let again = LiveMirror::open_durable(Arc::new(reopen(&fs))).unwrap();
    assert_eq!(keyed(probe(&again)), expected);
    assert_eq!(again.pin().surviving_rows().last().unwrap(), &extra);
}

#[test]
fn live_torn_wal_tail_after_delta_appends_reopens_to_committed_prefix() {
    let b = baseline();
    let lb = live_baseline();
    let rows = b.db.library_rows();
    let fs = MemFs::new();
    {
        let store = Arc::new(Store::open(Arc::new(fs.clone()), StoreOptions::default()).unwrap());
        let live = LiveMirror::create_durable(live_base(b), store).unwrap();
        live.insert_rows(rows[10..12].to_vec()).unwrap();
        live.insert_rows(rows[12..14].to_vec()).unwrap();
    }
    // a crash tore the tail of the op WAL: kernel recovery discards it
    fs.append("wal.log", &[0xAB, 0x00, 0x00, 0x00, 0x17, 0x9c, 0x4e]).unwrap();
    let live = LiveMirror::open_durable(Arc::new(reopen(&fs))).unwrap();
    let got = keyed(probe(&live));
    assert!(lb.prefix_probes[..3].contains(&got), "torn delta tail reopened to a non-prefix state");
}

#[test]
fn fresh_store_reports_never_initialised_live_instance() {
    let store = Arc::new(reopen(&MemFs::new()));
    match LiveMirror::open_durable(store) {
        Err(RetrievalError::IncompleteState { detail }) => {
            assert!(detail.contains("never initialised"), "detail: {detail}")
        }
        Ok(_) => panic!("opened a live instance from an empty store"),
        Err(other) => panic!("expected IncompleteState, got {other}"),
    }
}

/// The `live/current` pointer of a store: `(generation, base sequence)`.
fn live_pointer(store: &Store) -> Option<(u64, u64)> {
    let bytes = store.get("live/current").unwrap()?;
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    Some((word(0), word(8)))
}

/// Keys the pointer no longer names: other generations' layouts and ops
/// at or below its base sequence — what a merge's sweep deletes.
fn live_leftovers(store: &Store) -> Vec<String> {
    let Some((gen, base)) = live_pointer(store) else { return Vec::new() };
    let keep = format!("live/gen-{gen:06}/");
    store
        .keys()
        .into_iter()
        .filter(|k| match k.strip_prefix("live/op-") {
            Some(seq) => seq.parse::<u64>().unwrap() <= base,
            None => k.starts_with("live/gen-") && !k.starts_with(&keep),
        })
        .collect()
}

#[test]
fn live_store_stays_bounded_across_merges() {
    let b = baseline();
    let rows = b.db.library_rows();
    let fs = MemFs::new();
    let store = Arc::new(reopen(&fs));
    let live = LiveMirror::create_durable(live_base(b), Arc::clone(&store)).unwrap();
    // every round inserts one row and deletes one, so the corpus holds
    // steady at ten documents while the merges pile up
    let mut doomed = rows[0].url.clone();
    let mut bytes_after_round_3 = 0;
    for round in 0..30 {
        let mut row = rows[10 + round % 8].clone();
        row.url = format!("http://live/round-{round}");
        live.insert_rows(vec![row.clone()]).unwrap();
        assert!(live.delete(&doomed).unwrap().is_some());
        doomed = row.url;
        live.merge().unwrap();
        if round == 2 {
            bytes_after_round_3 = fs.total_bytes();
        }
    }
    let bytes = fs.total_bytes();
    assert!(
        bytes as f64 <= 1.25 * bytes_after_round_3 as f64,
        "store grew from {bytes_after_round_3} bytes after round 3 to {bytes} after round 30"
    );
    let keys = store.keys();
    let mut gens: Vec<&str> = keys
        .iter()
        .filter_map(|k| k.strip_prefix("live/gen-"))
        .map(|rest| rest.split('/').next().unwrap())
        .collect();
    gens.dedup();
    assert_eq!(gens.len(), 1, "generations left in the store: {gens:?}");
    assert_eq!(live_leftovers(&store), Vec::<String>::new());

    let reopened = LiveMirror::open_durable(Arc::new(reopen(&fs))).unwrap();
    assert_eq!(keyed(probe(&reopened)), keyed(probe(&live)));
}

#[test]
fn live_crash_between_pointer_flip_and_sweep_reopens_swept() {
    let b = baseline();
    let lb = live_baseline();
    let mut in_window = 0;
    for w in lb.writes_at_init..lb.total_writes {
        let fs = MemFs::new();
        let plan = FaultPlan { crash_at_write: Some(w), torn_bytes: 0, flips: vec![] };
        let fault = Arc::new(FaultFs::new(Arc::new(fs.clone()), plan));
        let store = Arc::new(Store::open(fault, StoreOptions::default()).unwrap());
        assert!(run_live_script(b, store).is_err(), "crash at write {w} did not fire");

        let store = Arc::new(reopen(&fs));
        let leftovers = live_leftovers(&store);
        // the pointer names a generation whose predecessor is still
        // stored: the crash hit after the flip, before the sweep finished
        let (gen, _) = live_pointer(&store).unwrap();
        let superseded = format!("live/gen-{:06}/", gen.wrapping_sub(1));
        in_window += usize::from(gen > 0 && leftovers.iter().any(|k| k.starts_with(&superseded)));

        let live = LiveMirror::open_durable(Arc::clone(&store)).unwrap();
        assert_eq!(live_leftovers(&store), Vec::<String>::new(), "crash at write {w}");
        let got = keyed(probe(&live));
        assert!(lb.prefix_probes.contains(&got), "crash at write {w}: no op-prefix state");
        let again = LiveMirror::open_durable(Arc::new(reopen(&fs))).unwrap();
        assert_eq!(keyed(probe(&again)), got, "crash at write {w}: sweep changed the state");
    }
    assert!(in_window > 0, "no crash point fell between a pointer flip and its sweep");
}

/// One write of the sealing session, or a `maybe_merge` of it.
enum SealOp {
    Insert(std::ops::Range<usize>),
    Delete(usize),
    Trip,
}

/// Four policy trips: three seals (a tombstone one included), the fourth
/// a rebuild (4 of 16 documents dead), then a seal on the new generation.
const SEAL_SCRIPT: &[SealOp] = &[
    SealOp::Insert(10..12),
    SealOp::Trip,
    SealOp::Insert(12..14),
    SealOp::Trip,
    SealOp::Delete(0),
    SealOp::Trip,
    SealOp::Insert(14..16),
    SealOp::Delete(1),
    SealOp::Delete(11),
    SealOp::Delete(2),
    SealOp::Trip,
    SealOp::Insert(16..18),
    SealOp::Trip,
];

/// Run the sealing session, counting acknowledged writes and returning
/// the generation number after each trip.
fn run_seal_script(
    b: &Baseline,
    store: Arc<Store>,
    acked: &mut usize,
) -> Result<Vec<u64>, RetrievalError> {
    let rows = b.db.library_rows();
    let policy = MergePolicy { max_delta_rows: 2, max_delta_bytes: u64::MAX, max_tombstones: 1 };
    let live = LiveMirror::create_durable(live_base(b), store)?;
    let mut generations = Vec::new();
    for op in SEAL_SCRIPT {
        match op {
            SealOp::Insert(range) => drop(live.insert_rows(rows[range.clone()].to_vec())?),
            SealOp::Delete(i) => drop(live.delete(&rows[*i].url)?),
            SealOp::Trip => {
                assert!(live.maybe_merge(&policy)?, "every trip of the script fires");
                generations.push(live.generation_stats().current);
                continue;
            }
        }
        *acked += 1;
    }
    Ok(generations)
}

/// Killed at every write of a session that seals three times around a
/// rebuild, a live store reopens to exactly the acknowledged writes (or
/// one more, whose record landed before the crash), with its replayed
/// delta sealed into at most one segment.
#[test]
fn live_crash_at_every_write_across_seals_reopens_to_an_exact_prefix() {
    let b = baseline();
    let rows = b.db.library_rows();
    let mut prefixes = vec![live_base(b).library_rows().to_vec()];
    for op in SEAL_SCRIPT {
        let mut state = prefixes.last().unwrap().clone();
        match op {
            SealOp::Insert(range) => state.extend_from_slice(&rows[range.clone()]),
            SealOp::Delete(i) => state.retain(|r| r.url != rows[*i].url),
            SealOp::Trip => continue,
        }
        prefixes.push(state);
    }
    let counter = Arc::new(FaultFs::new(Arc::new(MemFs::new()), FaultPlan::default()));
    let store = Arc::new(Store::open(counter.clone(), StoreOptions::default()).unwrap());
    let generations = run_seal_script(b, store, &mut 0).unwrap();
    assert_eq!(generations, [0, 0, 0, 1, 1], "three seals, a rebuild, a seal");
    for w in 0..counter.writes_issued() {
        let fs = MemFs::new();
        let plan = FaultPlan { crash_at_write: Some(w), torn_bytes: 0, flips: vec![] };
        let fault = Arc::new(FaultFs::new(Arc::new(fs.clone()), plan));
        let mut acked = 0;
        let crashed = Store::open(fault, StoreOptions::default())
            .map_err(RetrievalError::from)
            .and_then(|store| run_seal_script(b, Arc::new(store), &mut acked));
        assert!(crashed.is_err(), "crash at write {w} did not fire");
        let live = match LiveMirror::open_durable(Arc::new(reopen(&fs))) {
            Ok(live) => live,
            Err(RetrievalError::IncompleteState { .. }) if acked == 0 => continue,
            Err(other) => panic!("crash at write {w}: {other}"),
        };
        let got = live.pin().surviving_rows();
        assert!(
            got == prefixes[acked] || prefixes.get(acked + 1) == Some(&got),
            "crash at write {w} after {acked} acknowledged writes: {} rows reopened",
            got.len()
        );
        assert!(live.pin().segments() <= 1, "crash at write {w}: replay left unsealed batches");
        let reference = MirrorDbms::from_rows(
            b.db.config().clone(),
            got,
            b.db.vocabulary().cloned(),
            b.db.thesaurus().cloned(),
        )
        .unwrap();
        assert_eq!(keyed(probe(&live)), keyed(probe(&reference)), "crash at write {w}");
    }
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random kill point × random torn-tail length: recovery always ends
    /// bit-identical (directly, or after one healing save).
    #[test]
    fn prop_random_crash_with_torn_tail_recovers(frac in 0.0f64..1.0, torn in 0usize..7) {
        let b = baseline();
        let w = ((frac * b.total_writes as f64) as u64).min(b.total_writes - 1);
        crash_and_check(w, torn)?;
    }

    /// The same property for a live ingest session: random kill point ×
    /// torn tail across delta appends and merges always reopens to an
    /// op-prefix state.
    #[test]
    fn prop_live_random_crash_with_torn_tail_reopens_to_prefix(frac in 0.0f64..1.0, torn in 0usize..7) {
        let lb = live_baseline();
        let w = ((frac * lb.total_writes as f64) as u64).min(lb.total_writes - 1);
        live_crash_and_check(w, torn)?;
    }

    /// A bit flipped anywhere in a durable page file is detected at open
    /// or read time — never silently served. (Flips that land in a page's
    /// zero padding are invisible to the checksum by design: padding is
    /// never part of a decoded value, so results must still match.)
    #[test]
    fn prop_bit_flip_in_page_file_is_detected_never_served(
        file_frac in 0.0f64..1.0,
        offset_frac in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let b = baseline();
        let fs = fault::fork(&b.saved);
        let pages: Vec<String> =
            fs.list().unwrap().into_iter().filter(|f| f.starts_with("pages-")).collect();
        prop_assert!(!pages.is_empty());
        let file = &pages[((file_frac * pages.len() as f64) as usize).min(pages.len() - 1)];
        let len = fs.read(file).unwrap().len();
        let offset = ((offset_frac * len as f64) as usize).min(len - 1);
        fault::corrupt(&fs, file, offset, 1 << bit).unwrap();

        match Store::open(Arc::new(fs.clone()), StoreOptions::default()) {
            // flip hit the footer/manifest: the whole generation is
            // rejected and, with the WAL already folded, nothing remains
            Err(e) => {
                let msg = e.to_string();
                prop_assert!(
                    msg.contains("checksum") || msg.contains("corrupt") || msg.contains("version"),
                    "untyped open failure: {}", msg
                );
            }
            Ok(store) => match MirrorDbms::open_from(&store) {
                // flip hit page padding or an undecoded region
                Ok(db) => prop_assert_eq!(&probe(&db), &b.probes),
                // flip hit a data page: checksum rejects it at read time
                Err(RetrievalError::Storage(_)) | Err(RetrievalError::IncompleteState { .. }) => {}
                Err(other) => {
                    return Err(TestCaseError::fail(format!("unexpected error kind: {other}")))
                }
            },
        }
    }
}
