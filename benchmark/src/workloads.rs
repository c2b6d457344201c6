//! The five workloads: set-up, the timed phases, and the answer checks.
//!
//! Every workload runs the same way: set the system up three times (the
//! median is `setup_s`; the last instance is kept), warm up, run the closed
//! phase, read the peak RSS, then check answers against a reference outside
//! the timed phase. `--seconds` is split 10 % warm-up / 90 % closed phase.
//! The `--trace 1` run replays instead of timing, and probes the server with
//! an open loop at the workload's pinned rate (see [`crate::replay`]).

use crate::corpus::{self, build_thesaurus, unique_token, Shared, SEED_IMAGES};
use crate::json::Value;
use crate::load::{self, closed_loop, open_loop, sleep_until, Outcome, Phase, Windowed};
use crate::replay;
use crate::staged;
use crate::stream::{self, Digest, Mix};
use media::CrawledImage;
use mirror_core::query::RankedResult;
use mirror_core::serve::{Channel, MirrorServer, RetrievalRequest};
use mirror_core::shard::{ClusterConfig, MirrorCluster, Partitioning};
use mirror_core::{LibraryRow, LiveMirror, MergePolicy, MirrorDbms, Retriever};
use monet::{MemFs, Store, StoreOptions};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use thesaurus::AssociationThesaurus;

/// Requests generated per stream; the phases cycle through them.
const STREAM_LEN: usize = 40_000;
/// Requests whose full answers are checked against the reference.
const CHECKED: usize = 200;
/// Times the system is set up per run (the median is `setup_s`).
const SETUPS: usize = 3;

/// Pinned open-loop rates in ops/s: ≈ 50 % of the closed-loop `qps` of the
/// commit that introduced the benchmark, two significant digits, never
/// recomputed at run time.
pub const RATE_TEXT_TOPK: f64 = 1_700.0;
pub const RATE_DUAL_MIX: f64 = 200.0;
pub const RATE_CLUSTER_2X2: f64 = 2_000.0;
pub const RATE_LIVE_DELTA: f64 = 400.0;
pub const RATE_WRITE_BURST: f64 = 2_200.0;

/// What one invocation was asked to do.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Corpora ÷ 10 (the smoke test's mode).
    pub quick: bool,
    /// Where durable stores and trace files go (`benchmark/out`).
    pub out_dir: PathBuf,
    /// The checkout's root (`repo.nontest_loc` reads the sources).
    pub repo_dir: PathBuf,
}

impl Opts {
    fn scaled(&self, n: usize) -> usize {
        if self.quick {
            n / 10
        } else {
            n
        }
    }

    fn warm_s(&self) -> f64 {
        self.seconds * 0.1
    }

    fn closed_s(&self) -> f64 {
        self.seconds * 0.9
    }
}

/// What one invocation found.
pub struct Report {
    pub workload: &'static str,
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Answers that differed from the reference (a subset of `failed`).
    pub wrong: u64,
    /// Provenance and sample counts, printed beside the metrics.
    pub info: Vec<(&'static str, Value)>,
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A directory under `out/` that disappears with its owner.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(out: &Path, label: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out.join(format!("{label}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("benchmark/out is writable");
        TempDir(path)
    }

    pub fn bytes(&self) -> u64 {
        dir_bytes(&self.0)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Set the system up `SETUPS` times, dropping each instance before the
/// next is built; returns the median set-up time and the last instance.
fn timed_setups<T>(times: usize, mut build: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(times);
    let mut kept = None;
    for _ in 0..times {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(build());
        secs.push(t.elapsed().as_secs_f64());
    }
    (load::median(secs), kept.expect("at least one set-up"))
}

fn digest_hits(d: &mut Digest, hits: &[RankedResult]) {
    d.u64(hits.len() as u64);
    for h in hits {
        d.bytes(h.url.as_bytes());
        d.u64(h.score.to_bits());
    }
}

fn stream_digest(reqs: &[RetrievalRequest]) -> String {
    let mut d = Digest::new();
    for r in reqs.iter().take(2_000) {
        d.request(r);
    }
    d.hex()
}

/// How two rankings of one request compare.
#[derive(PartialEq)]
pub enum Agreement {
    /// Same documents, same order, bit-equal scores.
    Exact,
    /// Same ranking up to float noise: every score within 1e-9 relative,
    /// and documents swapped only among scores that close. The kernel's
    /// fragment-parallel grouped sum adds a document's rows in a different
    /// order than the serial one, so a dual answer at degree 2 differs from
    /// the degree-1 reference in the last bits.
    Inexact,
    Different,
}

/// Compare two rankings. Oids are left out: a live snapshot numbers
/// documents differently from the batch re-ingest it must rank like.
pub fn agreement(a: &[RankedResult], b: &[RankedResult]) -> Agreement {
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * x.abs().max(y.abs());
    if a.len() != b.len() {
        return Agreement::Different;
    }
    if a.iter().zip(b).all(|(x, y)| x.url == y.url && x.score == y.score) {
        return Agreement::Exact;
    }
    let last = a.len() - 1;
    let tied = |r: &[RankedResult], i: usize| {
        i == last
            || (i > 0 && close(r[i - 1].score, r[i].score))
            || close(r[i].score, r[i + 1].score)
    };
    let ok = (0..a.len()).all(|i| {
        close(a[i].score, b[i].score) && (a[i].url == b[i].url || (tied(a, i) && tied(b, i)))
    });
    if ok {
        Agreement::Inexact
    } else {
        Agreement::Different
    }
}

/// What checking a sample of answers against a reference found.
pub struct Checked {
    pub wrong: u64,
    /// Answers equal only up to float noise (see [`Agreement::Inexact`]).
    pub inexact: u64,
    /// Digest of the reference's answers.
    pub digest: String,
}

/// Check `got` against `want` on the first [`CHECKED`] requests.
fn check_sample(
    reqs: &[RetrievalRequest],
    got: impl Fn(&RetrievalRequest) -> Option<Vec<RankedResult>>,
    want: impl Fn(&RetrievalRequest) -> Option<Vec<RankedResult>>,
) -> Checked {
    let (mut wrong, mut inexact) = (0, 0);
    let mut d = Digest::new();
    for req in reqs.iter().take(CHECKED) {
        let (a, b) = (got(req), want(req));
        if let Some(b) = &b {
            digest_hits(&mut d, b);
        }
        match a.as_ref().zip(b.as_ref()).map(|(a, b)| agreement(a, b)) {
            Some(Agreement::Exact) => {}
            Some(Agreement::Inexact) => inexact += 1,
            _ => {
                if wrong == 0 {
                    eprintln!("first wrong answer: {req:?}\n  got  {a:?}\n  want {b:?}");
                }
                wrong += 1
            }
        }
    }
    Checked { wrong, inexact, digest: d.hex() }
}

/// Warm the server up, then run the closed phase; requests are taken in
/// stream order.
fn serve_closed<R: Retriever + 'static>(
    server: &MirrorServer<R>,
    reqs: &[RetrievalRequest],
    o: &Opts,
) -> Phase {
    let cursor = AtomicUsize::new(0);
    closed_loop(server, reqs, &cursor, nproc(), o.warm_s());
    closed_loop(server, reqs, &cursor, nproc(), o.closed_s())
}

/// Windows the closed phase is cut into (see [`load`]'s module docs), as
/// long as each still holds [`MIN_WINDOW_OPS`].
const WINDOWS: usize = 24;

/// Fewest ops a window may hold: a 95th percentile needs ten samples beyond
/// it, and a window's op mix must average out.
const MIN_WINDOW_OPS: usize = 300;

/// Turn the closed phase into the end-to-end metrics and their sample
/// counts. `period` is the workload's own rhythm in ops, when it has one
/// (`write_burst`: one merge every so many ops).
fn end_to_end(
    workload: &'static str,
    setup_s: f64,
    closed: &Phase,
    clients: usize,
    period: Option<usize>,
    rss_mb: f64,
) -> Report {
    let per = period.unwrap_or((closed.ok.len() / WINDOWS).max(MIN_WINDOW_OPS));
    let w = Windowed::new(closed, per);
    let (whole_qps, whole_p50) = w.whole(0.50);
    Report {
        workload,
        metrics: vec![
            ("setup_s", setup_s),
            ("qps", w.best_rate()),
            ("p50_ms", w.quiet_latency(0.50)),
            ("p95_ms", w.quiet_latency(0.95)),
            ("peak_rss_mb", rss_mb),
        ],
        attempted: closed.offered,
        failed: closed.failed(),
        wrong: 0,
        info: vec![
            ("closed_s", closed.elapsed_s.into()),
            ("closed_clients", (clients as u64).into()),
            ("closed_samples", (closed.ok.len() as u64).into()),
            ("closed_window_ops", (w.per as u64).into()),
            ("closed_whole_qps", whole_qps.into()),
            ("closed_whole_p50_ms", whole_p50.into()),
            ("closed_whole_p95_ms", w.whole(0.95).1.into()),
        ],
    }
}

impl Report {
    fn checked(mut self, c: Checked, stream_digest: String) -> Report {
        self.attempted += CHECKED as u64;
        self.failed += c.wrong;
        self.wrong += c.wrong;
        self.info.push(("checked_answers", (CHECKED as u64).into()));
        self.info.push(("inexact_answers", c.inexact.into()));
        self.info.push(("stream_digest", Value::str(stream_digest)));
        self.info.push(("result_digest", Value::str(c.digest)));
        self
    }

    fn with(mut self, key: &'static str, v: impl Into<Value>) -> Report {
        self.info.push((key, v.into()));
        self
    }
}

// ---------------------------------------------------------------------------
// text_topk and dual_mix: one node behind a server
// ---------------------------------------------------------------------------

pub struct Node {
    pub server: MirrorServer<MirrorDbms>,
    pub shared: Shared,
}

fn build_node(seed: u64, docs: usize) -> Node {
    let shared = Shared::build(seed, SEED_IMAGES);
    let rows = shared.rows(seed, 0, docs);
    let thesaurus = build_thesaurus(&rows);
    let db = MirrorDbms::from_rows(
        shared.config.clone(),
        rows,
        Some(shared.vocab.clone()),
        Some(thesaurus),
    )
    .expect("rows load");
    Node { server: MirrorServer::start(Arc::new(db), nproc()), shared }
}

fn node_workload(
    workload: &'static str,
    docs: usize,
    mix: Mix,
    rate: f64,
    replay_ops: usize,
    o: &Opts,
) -> Result<Report, String> {
    let docs = o.scaled(docs);
    let (setup_s, node) =
        timed_setups(if o.trace { 1 } else { SETUPS }, || build_node(o.seed, docs));
    let reqs =
        stream::requests(&node.shared.zipf, &node.shared.visual_terms(), o.seed, mix, STREAM_LEN);
    let db = node.server.db();
    if mix.dual > 0 {
        let th = db.thesaurus().expect("corpus carries a thesaurus");
        let cfg = db.config();
        let duals: Vec<_> = reqs
            .iter()
            .take(2_000)
            .filter(|r| r.channel == Channel::Dual && r.visual_terms.is_none())
            .collect();
        let expanding = duals
            .iter()
            .filter(|r| !th.expand(&r.terms, cfg.expand_per_term, cfg.expand_max_terms).is_empty())
            .count();
        if expanding * 100 < duals.len() * 95 {
            return Err(format!(
                "{workload}: only {expanding}/{} dual requests expand",
                duals.len()
            ));
        }
    }
    let report = if o.trace {
        let mut layers = replay::Layers::new(workload);
        layers.open_probe(&open_loop(&node.server, &reqs, 0, &replay::probe_arrivals(o, rate)));
        layers.node(db, &reqs, replay_ops);
        layers.durable(db, o);
        layers.finish(o)?
    } else {
        let closed = serve_closed(&node.server, &reqs, o);
        let rss = peak_rss_mb();
        let checked =
            check_sample(&reqs, |r| db.retrieve(r).ok(), |r| staged::unoptimised(db, r).ok());
        end_to_end(workload, setup_s, &closed, nproc(), None, rss)
            .checked(checked, stream_digest(&reqs))
    };
    Ok(report.with("docs", docs as u64).with("rate", rate))
}

pub fn text_topk(o: &Opts) -> Result<Report, String> {
    node_workload("text_topk", 100_000, Mix::TEXT_ONLY, RATE_TEXT_TOPK, 2_000, o)
}

pub fn dual_mix(o: &Opts) -> Result<Report, String> {
    node_workload("dual_mix", 20_000, Mix::DUAL_MIX, RATE_DUAL_MIX, 500, o)
}

// ---------------------------------------------------------------------------
// cluster_2x2: the real ingest pipeline, scatter/gather
// ---------------------------------------------------------------------------

struct Cluster {
    server: MirrorServer<MirrorCluster>,
    corpus: Vec<CrawledImage>,
    zipf: corpus::Zipf,
}

fn build_cluster(seed: u64, images: usize) -> Cluster {
    let zipf = corpus::Zipf::new(corpus::VOCAB_TERMS);
    let mut corpus = corpus::crawl(images, seed);
    corpus::reannotate(&zipf, seed, &mut corpus);
    let cluster = MirrorCluster::build_with(
        &corpus,
        ClusterConfig {
            shards: 2,
            replicas: 2,
            partitioning: Partitioning::Hash,
            node: corpus::node_config(),
        },
    )
    .expect("cluster builds");
    Cluster { server: MirrorServer::start(Arc::new(cluster), nproc()), corpus, zipf }
}

pub fn cluster_2x2(o: &Opts) -> Result<Report, String> {
    let images = o.scaled(3_000);
    let (setup_s, sys) =
        timed_setups(if o.trace { 1 } else { SETUPS }, || build_cluster(o.seed, images));
    let reqs = stream::requests(&sys.zipf, &[], o.seed, Mix::TEXT_DUAL, STREAM_LEN);
    let cluster = sys.server.db();
    let single = || {
        let mut db = MirrorDbms::new(corpus::node_config());
        db.ingest(&sys.corpus).expect("single-node ingest succeeds");
        db
    };
    let report = if o.trace {
        let mut layers = replay::Layers::new("cluster_2x2");
        let arrivals = replay::probe_arrivals(o, RATE_CLUSTER_2X2);
        layers.open_probe(&open_loop(&sys.server, &reqs, 0, &arrivals));
        let single = Arc::new(single());
        layers.node(&single, &reqs, 1_000);
        layers.shard(cluster, &single, &reqs, 1_000);
        layers.set("core.ingest.ms_per_doc", setup_s * 1e3 / images as f64);
        layers.durable(&single, o);
        layers.finish(o)?
    } else {
        let closed = serve_closed(&sys.server, &reqs, o);
        let rss = peak_rss_mb();
        let single = single();
        let checked =
            check_sample(&reqs, |r| cluster.retrieve(r).ok(), |r| single.retrieve(r).ok());
        end_to_end("cluster_2x2", setup_s, &closed, nproc(), None, rss)
            .checked(checked, stream_digest(&reqs))
    };
    Ok(report.with("docs", images as u64).with("rate", RATE_CLUSTER_2X2))
}

// ---------------------------------------------------------------------------
// live_delta: reads over a 10 % un-merged delta, a writer alongside
// ---------------------------------------------------------------------------

pub struct Live {
    pub server: MirrorServer<LiveMirror>,
    pub shared: Shared,
    pub thesaurus: AssociationThesaurus,
    /// URLs of the documents the workload may still delete, oldest first.
    pub base_urls: VecDeque<String>,
    /// Index of the next never-inserted row of the generator.
    pub next_row: u64,
    /// The durable store's backend: the real op-WAL, checkpoint and
    /// recovery code over an in-memory file system. On the shared host's
    /// disk every commit's `fsync` set the write latency, and it swung 30 %
    /// between two sets of runs — the device's noise, not the code's.
    pub fs: MemFs,
}

/// A durable live mirror: `base` merged rows (row `i` is `row_of(.., i)`),
/// then `delta` rows inserted in 64-row batches and `tombstones` base
/// documents deleted.
fn build_live(
    o: &Opts,
    row_of: fn(&Shared, u64, u64) -> LibraryRow,
    (base, delta, tombstones): (usize, usize, usize),
) -> Live {
    let shared = Shared::build(o.seed, SEED_IMAGES);
    let mut rows: Vec<LibraryRow> =
        (0..(base + delta) as u64).map(|i| row_of(&shared, o.seed, i)).collect();
    let thesaurus = build_thesaurus(&rows);
    let pending = rows.split_off(base);
    let mut base_urls: VecDeque<String> = rows.iter().map(|r| r.url.clone()).collect();
    let db = MirrorDbms::from_rows(
        shared.config.clone(),
        rows,
        Some(shared.vocab.clone()),
        Some(thesaurus.clone()),
    )
    .expect("rows load");
    let fs = MemFs::new();
    let store = Store::open(Arc::new(fs.clone()), StoreOptions::default()).expect("store opens");
    let live = LiveMirror::create_durable(db, Arc::new(store)).expect("durable live mirror");
    for batch in pending.chunks(64) {
        live.insert_rows(batch.to_vec()).expect("insert");
    }
    for _ in 0..tombstones {
        let url = base_urls.pop_front().expect("base outlasts the tombstones");
        live.delete(&url).expect("delete").expect("base document is live");
    }
    Live {
        server: MirrorServer::start(Arc::new(live), nproc()),
        shared,
        thesaurus,
        base_urls,
        next_row: (base + delta) as u64,
        fs,
    }
}

impl Live {
    /// The batch re-ingest the current snapshot must rank like.
    pub fn merged_reference(&self) -> MirrorDbms {
        MirrorDbms::from_rows(
            self.shared.config.clone(),
            self.server.db().pin().surviving_rows(),
            Some(self.shared.vocab.clone()),
            Some(self.thesaurus.clone()),
        )
        .expect("surviving rows load")
    }
}

/// The writer beside `live_delta`'s readers: one op every 50 ms, two 8-row
/// inserts to one delete, until told to stop. Returns (ops, failed ops).
fn trickle_writes(
    server: &MirrorServer<LiveMirror>,
    shared: &Shared,
    base_urls: &mut VecDeque<String>,
    next_row: &mut u64,
    seed: u64,
    stop: &AtomicBool,
) -> (u64, u64) {
    let (mut ops, mut failed) = (0u64, 0u64);
    let t0 = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        sleep_until(t0 + Duration::from_millis(50 * (ops + 1)));
        let ok = if ops % 3 == 2 {
            let url = base_urls.pop_front().expect("base outlasts the run");
            matches!(server.delete(&url), Ok(Some(_)))
        } else {
            let rows = shared.rows(seed, *next_row, 8);
            *next_row += 8;
            server.insert_rows(rows).is_ok()
        };
        ops += 1;
        failed += u64::from(!ok);
    }
    (ops, failed)
}

pub fn live_delta(o: &Opts) -> Result<Report, String> {
    let (base, delta, tombstones) = (o.scaled(45_000), o.scaled(5_000), o.scaled(500));
    let (setup_s, mut live) = timed_setups(if o.trace { 1 } else { SETUPS }, || {
        build_live(o, Shared::row, (base, delta, tombstones))
    });
    let reqs = stream::requests(&live.shared.zipf, &[], o.seed, Mix::TEXT_ONLY, STREAM_LEN);
    let report = if o.trace {
        let mut layers = replay::Layers::new("live_delta");
        let arrivals = replay::probe_arrivals(o, RATE_LIVE_DELTA);
        layers.open_probe(&open_loop(&live.server, &reqs, 0, &arrivals));
        let merged = Arc::new(live.merged_reference());
        layers.live_reads(live.server.db(), &merged, &reqs, 1_000);
        layers.node(&merged, &reqs, 500);
        layers.writes(&mut live, o);
        layers.finish(o)?
    } else {
        let stop = AtomicBool::new(false);
        let Live { server, shared, base_urls, next_row, .. } = &mut live;
        let (server, shared) = (&*server, &*shared);
        let (closed, (writes, failed_writes)) = std::thread::scope(|s| {
            let writer =
                s.spawn(|| trickle_writes(server, shared, base_urls, next_row, o.seed, &stop));
            let closed = serve_closed(server, &reqs, o);
            stop.store(true, Ordering::Relaxed);
            (closed, writer.join().expect("writer thread panicked"))
        });
        let rss = peak_rss_mb();
        // quiesced: the snapshot must rank like a batch re-ingest of its rows
        let reader = live.server.db().pin();
        let reference = live.merged_reference();
        let checked =
            check_sample(&reqs, |r| reader.retrieve(r).ok(), |r| reference.retrieve(r).ok());
        let mut report = end_to_end("live_delta", setup_s, &closed, nproc(), None, rss)
            .checked(checked, stream_digest(&reqs));
        report.attempted += writes;
        report.failed += failed_writes;
        report.with("writer_ops", writes)
    };
    let (delta_rows, _, dead) = live.server.db().delta_pressure();
    Ok(report
        .with("docs", (base + delta) as u64)
        .with("delta_rows_at_end", delta_rows as u64)
        .with("tombstones_at_end", dead as u64)
        .with("rate", RATE_LIVE_DELTA))
}

// ---------------------------------------------------------------------------
// write_burst: steady-state churn with read-your-writes
// ---------------------------------------------------------------------------

/// Rows per insert, and deletes per cycle.
pub const BURST: u64 = 32;

/// The churn state machine: every call to [`Churn::step`] runs the next op
/// of the cycle *insert 32 rows · delete the 32 oldest · read your writes*.
/// The first row of every 32 carries a token of its own, so each cycle's
/// read asks for the token just inserted and the token just deleted: it
/// must find exactly the new document.
pub struct Churn {
    pub live: Live,
    seed: u64,
    policy: MergePolicy,
    /// Documents deleted so far (they go in insertion order).
    deleted: u64,
    /// Position in the cycle: 0 insert, 1..=32 deletes, 33 read.
    at: u64,
    /// URL of the tagged row of the cycle's insert.
    fresh_url: String,
    pub merges: u64,
    pub cycles: u64,
    /// Digest of the first fifty reads.
    pub reads: Digest,
    /// Peak RSS in MiB when cycle [`RSS_AT_CYCLE`] ended. The store keeps
    /// every merged generation in memory, so this workload's RSS grows with
    /// the work done; read at a fixed amount of work it repeats, read at
    /// the end of a timed phase it would follow the host's speed.
    pub rss_mb: Option<f64>,
}

/// The cycle after which `write_burst` reads its peak RSS.
const RSS_AT_CYCLE: u64 = 600;

pub fn burst_row(shared: &Shared, seed: u64, i: u64) -> LibraryRow {
    if i.is_multiple_of(BURST) {
        shared.tagged_row(seed, i)
    } else {
        shared.row(seed, i)
    }
}

impl Churn {
    fn build(o: &Opts) -> Churn {
        let base = o.scaled(10_000) / BURST as usize * BURST as usize;
        let threshold = o.scaled(800);
        Churn {
            live: build_live(o, burst_row, (base, 0, 0)),
            seed: o.seed,
            policy: MergePolicy {
                max_delta_rows: threshold,
                max_tombstones: threshold,
                max_delta_bytes: u64::MAX,
            },
            deleted: 0,
            at: 0,
            fresh_url: String::new(),
            merges: 0,
            cycles: 0,
            reads: Digest::new(),
            rss_mb: None,
        }
    }

    /// Ops from one merge to the next: the cycles it takes to fill the
    /// policy's row threshold, each `BURST + 2` ops long.
    fn merge_period_ops(&self) -> usize {
        self.policy.max_delta_rows.div_ceil(BURST as usize) * (BURST as usize + 2)
    }

    /// Run the next op; a merge it triggers is part of it.
    pub fn step(&mut self) -> Outcome {
        let live = &mut self.live;
        let db = live.server.db();
        let at = self.at;
        self.at = (at + 1) % (BURST + 2);
        let ok = if at == 0 {
            let first = live.next_row;
            let rows: Vec<LibraryRow> =
                (first..first + BURST).map(|i| burst_row(&live.shared, self.seed, i)).collect();
            self.fresh_url = rows[0].url.clone();
            live.base_urls.extend(rows.iter().map(|r| r.url.clone()));
            live.next_row += BURST;
            db.insert_rows(rows).is_ok()
        } else if at <= BURST {
            let url = live.base_urls.pop_front().expect("the corpus never empties");
            self.deleted += 1;
            let deleted = matches!(db.delete(&url), Ok(Some(_)));
            let merged = at < BURST
                || db.maybe_merge(&self.policy).map(|m| self.merges += u64::from(m)).is_ok();
            deleted && merged
        } else {
            // rows are deleted in insertion order, so the batch just
            // deleted began at row `deleted - 32`, and that row is tagged
            let fresh = unique_token(live.next_row - BURST);
            let gone = unique_token(self.deleted - BURST);
            let req = RetrievalRequest::text_terms(vec![(fresh, 1.0), (gone, 1.0)], 10);
            let hits = db.retrieve(&req).unwrap_or_default();
            if self.cycles < 50 {
                digest_hits(&mut self.reads, &hits);
            }
            self.cycles += 1;
            if self.cycles == RSS_AT_CYCLE {
                self.rss_mb = Some(peak_rss_mb());
            }
            hits.len() == 1 && hits[0].url == self.fresh_url
        };
        if ok {
            Outcome::Ok
        } else {
            Outcome::Bad
        }
    }

    fn closed(&mut self, seconds: f64) -> Phase {
        let t0 = Instant::now();
        let mut phase = Phase::default();
        while t0.elapsed().as_secs_f64() < seconds {
            let start = Instant::now();
            let outcome = self.step();
            phase.record((start - t0).as_secs_f64(), start.elapsed().as_secs_f64() * 1e3, outcome);
        }
        phase.elapsed_s = t0.elapsed().as_secs_f64();
        phase
    }

    /// Open loop with one executor: an op runs when it is due or, if the
    /// executor is behind, as soon as the previous one ends; its latency
    /// runs from the due time either way.
    pub fn open(&mut self, arrivals: &[f64]) -> Phase {
        let t0 = Instant::now();
        let mut phase = Phase::default();
        for &due in arrivals {
            let target = t0 + Duration::from_secs_f64(due);
            phase.late_ms.push(if Instant::now() < target { sleep_until(target) } else { 0.0 });
            let outcome = self.step();
            phase.record(due, target.elapsed().as_secs_f64() * 1e3, outcome);
        }
        phase.elapsed_s = t0.elapsed().as_secs_f64();
        phase
    }
}

pub fn write_burst(o: &Opts) -> Result<Report, String> {
    let (setup_s, mut churn) = timed_setups(if o.trace { 1 } else { SETUPS }, || Churn::build(o));
    let report = if o.trace {
        let mut layers = replay::Layers::new("write_burst");
        let arrivals = replay::probe_arrivals(o, RATE_WRITE_BURST);
        layers.open_probe(&churn.open(&arrivals));
        layers.churn(&mut churn, 100);
        layers.writes(&mut churn.live, o);
        layers.finish(o)?
    } else {
        let mut d = Digest::new();
        for i in 0..2 * BURST {
            d.bytes(burst_row(&churn.live.shared, o.seed, i).url.as_bytes());
        }
        churn.closed(o.warm_s());
        let closed = churn.closed(o.closed_s());
        let rss = churn.rss_mb.unwrap_or_else(peak_rss_mb);
        let period = churn.merge_period_ops();
        let mut report = end_to_end("write_burst", setup_s, &closed, 1, Some(period), rss);
        report.info.push(("stream_digest", Value::str(d.hex())));
        report.info.push(("result_digest", Value::str(churn.reads.hex())));
        report.with("cycles", churn.cycles).with("merges", churn.merges)
    };
    Ok(report.with("docs", churn.live.base_urls.len() as u64).with("rate", RATE_WRITE_BURST))
}

pub fn run(workload: &str, o: &Opts) -> Result<Report, String> {
    std::fs::create_dir_all(&o.out_dir).map_err(|e| format!("{}: {e}", o.out_dir.display()))?;
    match workload {
        "text_topk" => text_topk(o),
        "dual_mix" => dual_mix(o),
        "cluster_2x2" => cluster_2x2(o),
        "live_delta" => live_delta(o),
        "write_burst" => write_burst(o),
        other => Err(format!("unknown workload '{other}'")),
    }
}
