//! The concurrent serving layer: typed retrieval requests over a shared
//! backend, executed by a worker pool.
//!
//! The paper's closing argument is that putting IR inside the DBMS lets
//! set-at-a-time execution carry interactive retrieval at scale; the
//! ROADMAP turns that into "heavy traffic from millions of users". This
//! module is the request tier that makes the facade safe and fast under
//! that traffic:
//!
//! * [`RetrievalRequest`] — a typed query plan (channel, weighted terms,
//!   relational filter, top-k budget, channel mix) that replaces the old
//!   `format!`-spliced Moa strings. Requests compile straight to the Moa
//!   AST, so user input is always a *literal* (no string injection), and
//!   their bindings travel as request-scoped [`moa::QueryParams`] — no
//!   request ever writes to the shared [`moa::Env`];
//! * [`Retriever::retrieve`] — the one retrieval entry point every facade
//!   query method goes through. Every backend compiles the request with
//!   the node's one compiler and runs it as one plan over a pinned corpus
//!   view, serially: the worker pool, not the request, is the parallelism.
//!   The top-k budget lets the engine fuse the ranking plan into the
//!   streaming `topk_bl` operator (`ir::topk`), which skips documents that
//!   provably cannot enter the result;
//! * [`MirrorServer`] — a worker pool over any `Arc<R: Retriever>` (a
//!   single node, a [`LiveMirror`](crate::LiveMirror) or a whole
//!   [`MirrorCluster`](crate::shard::MirrorCluster); the mutable two also
//!   take writes through it) behind a *bounded* admission queue: a
//!   request arriving while the queue is full is shed immediately with a
//!   typed [`RetrievalError::Overloaded`] instead of buffering into
//!   unbounded queueing latency. Throughput and latency counters use a
//!   fixed-bucket histogram, so p50/p99 are exact over the whole run and
//!   deterministic (the repo's benchmark, `benchmark/`, drives it open-
//!   and closed-loop).

use crate::query::{ranked, weighted_terms, RankedResult};
use crate::retriever::{RetrievalError, RetrievalResult, Retriever};
use crate::{MirrorDbms, INTERNAL};
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use moa::expr::Lit;
use moa::{Expr, MoaError, QueryParams};
use monet::RequestView;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Which evidence channels a request ranks with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Channel {
    /// The annotation (text) channel only.
    Text,
    /// The image (visual-term) channel only.
    Visual,
    /// Dual coding: text evidence mixed with visual evidence.
    Dual,
}

/// A typed retrieval request — the serving layer's query plan.
///
/// Build one with the constructors ([`RetrievalRequest::text`],
/// [`RetrievalRequest::visual`], [`RetrievalRequest::dual`], …), refine it
/// with [`with_filter`](RetrievalRequest::with_filter), and execute it with
/// [`MirrorDbms::retrieve`] or through a [`MirrorServer`].
#[derive(Debug, Clone, PartialEq)]
pub struct RetrievalRequest {
    /// Evidence channel(s) to rank with.
    pub channel: Channel,
    /// Weighted query terms (text terms, or visual terms for
    /// [`Channel::Visual`]).
    pub terms: Vec<(String, f64)>,
    /// Explicit visual-channel terms for [`Channel::Dual`]; `None` expands
    /// `terms` through the association thesaurus (dual coding).
    pub visual_terms: Option<Vec<(String, f64)>>,
    /// Relational filter: only rank documents whose URL contains this
    /// substring. Applied as a typed literal — quotes and backslashes in
    /// the pattern are data, never syntax.
    pub filter: Option<String>,
    /// How many results the caller wants (the top-k budget).
    pub k: usize,
    /// Weight of the visual channel in [`Channel::Dual`] (`0.0..=1.0`;
    /// [`validate`](RetrievalRequest::validate) rejects anything else).
    pub mix: f64,
}

impl RetrievalRequest {
    /// Free-text retrieval over the annotation channel.
    pub fn text(text: &str, k: usize) -> Self {
        Self::text_terms(weighted_terms(text), k)
    }

    /// Text-channel retrieval from pre-weighted terms.
    pub fn text_terms(terms: Vec<(String, f64)>, k: usize) -> Self {
        RetrievalRequest {
            channel: Channel::Text,
            terms,
            visual_terms: None,
            filter: None,
            k,
            mix: 0.0,
        }
    }

    /// Visual retrieval from weighted visual terms.
    pub fn visual(terms: Vec<(String, f64)>, k: usize) -> Self {
        RetrievalRequest {
            channel: Channel::Visual,
            terms,
            visual_terms: None,
            filter: None,
            k,
            mix: 1.0,
        }
    }

    /// Dual-coded retrieval: text terms, with the visual channel expanded
    /// through the thesaurus and mixed in with weight `mix`.
    pub fn dual(text: &str, mix: f64, k: usize) -> Self {
        RetrievalRequest {
            channel: Channel::Dual,
            terms: weighted_terms(text),
            visual_terms: None,
            filter: None,
            k,
            mix,
        }
    }

    /// Dual-coded retrieval with explicit terms for both channels (the
    /// relevance-feedback path). An empty visual channel falls back to
    /// text-only ranking.
    pub fn dual_terms(
        text_terms: Vec<(String, f64)>,
        visual_terms: Vec<(String, f64)>,
        mix: f64,
        k: usize,
    ) -> Self {
        RetrievalRequest {
            channel: Channel::Dual,
            terms: text_terms,
            visual_terms: Some(visual_terms),
            filter: None,
            k,
            mix,
        }
    }

    /// Restrict ranking to documents whose URL contains `pattern`.
    pub fn with_filter(mut self, pattern: impl Into<String>) -> Self {
        self.filter = Some(pattern.into());
        self
    }

    /// Check the request before compiling it anywhere. Runs once at the
    /// cluster edge (and on direct single-node calls), not per shard.
    pub fn validate(&self) -> RetrievalResult<()> {
        // a NaN mix ranks nothing, and a mix above 1 gives the text channel
        // a negative weight, which no ranking bound admits
        if !(0.0..=1.0).contains(&self.mix) {
            return Err(RetrievalError::BadRequest(format!(
                "mix must be a channel weight in [0, 1], got {}",
                self.mix
            )));
        }
        if let Some(pattern) = &self.filter {
            if pattern.is_empty() {
                return Err(RetrievalError::BadFilter(
                    "empty URL filter would match every document; omit the filter instead".into(),
                ));
            }
            if pattern.contains('\0') {
                return Err(RetrievalError::BadFilter(
                    "URL filter contains a NUL byte, which no URL can".into(),
                ));
            }
        }
        Ok(())
    }
}

/// A request resolved to the evidence it ranks with: per ranked channel
/// ([`Channel::Text`] or [`Channel::Visual`]) its weighted terms and the
/// weight its belief sum carries — one channel of weight `1.0` for a
/// single-channel ranking, `[(Text, 1 − mix), (Visual, mix)]` for dual
/// coding.
pub(crate) type ResolvedChannels = Vec<(Channel, Vec<(String, f64)>, f64)>;

impl Channel {
    /// The `CONTREP` attribute a resolved channel ranks over, and the
    /// request binding that carries its terms.
    fn attr_binding(self) -> (&'static str, &'static str) {
        match self {
            Channel::Visual => ("image", "q_vis"),
            Channel::Text | Channel::Dual => ("annotation", "q_text"),
        }
    }
}

/// `sum(getBL(THIS.attr, binding, stats))`.
fn sum_getbl(attr: &str, binding: &str) -> Expr {
    Expr::call(
        "sum",
        vec![Expr::call(
            "getBL",
            vec![Expr::this_attr(attr), Expr::Ident(binding.into()), Expr::Ident("stats".into())],
        )],
    )
}

/// The paper's single-channel ranking shape:
/// `map[sum(THIS)](map[getBL(THIS.attr, binding, stats)](input))` — the
/// shape the engine fuses into the streaming `topk_bl` operator.
fn ranking_expr(attr: &str, binding: &str, input: Expr) -> Expr {
    let getbl = Expr::call(
        "getBL",
        vec![Expr::this_attr(attr), Expr::Ident(binding.into()), Expr::Ident("stats".into())],
    );
    Expr::map(Expr::call("sum", vec![Expr::This]), Expr::map(getbl, input))
}

impl MirrorDbms {
    /// Execute a typed retrieval request on this node — the engine behind
    /// [`Retriever::retrieve`] for the single-node backend.
    pub(crate) fn retrieve_local(&self, req: &RetrievalRequest) -> moa::Result<Vec<RankedResult>> {
        let (expr, params) = self.compile_request(req, None)?;
        let (out, _) = self.engine().query_expr_params(&expr, &params)?;
        ranked(out, req.k, |oid| self.docs().get(oid as usize).map(|d| d.url.as_str()))
    }

    /// Resolve a request to the channels it ranks with — the one home of
    /// the channel → terms mapping, thesaurus expansion (a dual request
    /// without explicit visual terms), the empty-visual fallback to text
    /// ranking, and the mix weights. Every request plan
    /// ([`Self::compile_request`]) is built from it.
    pub(crate) fn resolve_channels(&self, req: &RetrievalRequest) -> moa::Result<ResolvedChannels> {
        if req.channel != Channel::Dual {
            return Ok(vec![(req.channel, req.terms.clone(), 1.0)]);
        }
        let visual = match &req.visual_terms {
            Some(v) => v.clone(),
            None => {
                let th = self
                    .thesaurus()
                    .ok_or_else(|| MoaError::Unknown("thesaurus (ingest first)".into()))?;
                th.expand(&req.terms, self.config().expand_per_term, self.config().expand_max_terms)
            }
        };
        if visual.is_empty() {
            // no visual evidence: single-channel text ranking
            return Ok(vec![(Channel::Text, req.terms.clone(), 1.0)]);
        }
        Ok(vec![
            (Channel::Text, req.terms.clone(), 1.0 - req.mix),
            (Channel::Visual, visual, req.mix),
        ])
    }

    /// Compile a request into its Moa AST and request-scoped parameters —
    /// the one request compiler of every backend: a node runs the plan
    /// over its own index, a live snapshot or a cluster over the `view`
    /// of its pinned segments or shards. The top-k budget lets the
    /// optimizer fuse the ranking into the streaming top-k operator.
    pub(crate) fn compile_request(
        &self,
        req: &RetrievalRequest,
        view: Option<Arc<dyn RequestView>>,
    ) -> moa::Result<(Expr, QueryParams)> {
        let input = match &req.filter {
            Some(pattern) => Expr::select(
                Expr::call(
                    "contains",
                    vec![Expr::this_attr("source"), Expr::Lit(Lit::Str(pattern.clone()))],
                ),
                Expr::Ident(INTERNAL.into()),
            ),
            None => Expr::Ident(INTERNAL.into()),
        };
        let channels = self.resolve_channels(req)?;
        let expr = if let [(channel, ..)] = channels.as_slice() {
            let (attr, binding) = channel.attr_binding();
            ranking_expr(attr, binding, input)
        } else {
            // sum(getBL(text)) * (1 - mix) + sum(getBL(image)) * mix, the
            // same expression tree the Moa string used to parse to; the
            // optimizer's topk_fuse pass runs it as one two-channel top-k
            // operator
            let weighted = channels.iter().map(|(channel, _, weight)| {
                let (attr, binding) = channel.attr_binding();
                Expr::Arith {
                    op: moa::expr::ArithKind::Mul,
                    left: Box::new(sum_getbl(attr, binding)),
                    right: Box::new(Expr::Lit(Lit::Float(*weight))),
                }
            });
            let body = weighted
                .reduce(|left, right| Expr::Arith {
                    op: moa::expr::ArithKind::Add,
                    left: Box::new(left),
                    right: Box::new(right),
                })
                .expect("a resolved request ranks with at least one channel");
            Expr::map(body, input)
        };
        let params = channels
            .into_iter()
            .fold(QueryParams::new().with_top_k(req.k), |params, (channel, terms, _)| {
                params.bind(channel.attr_binding().1, terms)
            });
        Ok((expr, view.into_iter().fold(params, QueryParams::with_view)))
    }
}

/// Histogram geometry: each power-of-two octave of the nanosecond range
/// is split into this many sub-buckets, giving ≈6% relative resolution.
const HIST_SUB_BITS: usize = 4;
const HIST_SUB: usize = 1 << HIST_SUB_BITS;
const HIST_BUCKETS: usize = (64 - HIST_SUB_BITS + 1) * HIST_SUB;

/// A lock-free fixed-bucket latency histogram covering the whole `u64`
/// nanosecond range. Every request of the run is counted — unlike the
/// bounded sample ring this replaced, which silently forgot the earliest
/// requests once it wrapped — so p50/p99 are exact (to one sub-bucket,
/// ≈6%) over the entire run and deterministic for a given workload.
struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LatencyHistogram {{ count: {} }}", self.count.load(Ordering::Relaxed))
    }
}

/// Bucket index of a nanosecond value: exact below [`HIST_SUB`], then the
/// top [`HIST_SUB_BITS`] bits below the leading one select the sub-bucket
/// within the value's octave. Monotone, so percentile walks stay ordered.
fn hist_bucket(ns: u64) -> usize {
    if ns < HIST_SUB as u64 {
        return ns as usize;
    }
    let msb = 63 - ns.leading_zeros() as usize;
    let sub = ((ns >> (msb - HIST_SUB_BITS)) as usize) & (HIST_SUB - 1);
    (msb - HIST_SUB_BITS + 1) * HIST_SUB + sub
}

/// Upper edge of a bucket — reported percentiles are conservative: the
/// true rank value lies within one sub-bucket below the reported one.
fn hist_value(idx: usize) -> u64 {
    if idx < HIST_SUB {
        return idx as u64;
    }
    let msb = idx / HIST_SUB + HIST_SUB_BITS - 1;
    let width = 1u64 << (msb - HIST_SUB_BITS);
    (1u64 << msb) + (idx % HIST_SUB) as u64 * width + (width - 1)
}

impl LatencyHistogram {
    fn record(&self, ns: u64) {
        self.buckets[hist_bucket(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Latency at percentile `p ∈ [0, 1]` over *all* recorded requests.
    fn percentile(&self, p: f64) -> u64 {
        let total = self.count.load(Ordering::Relaxed);
        if total == 0 {
            return 0;
        }
        let target = ((total - 1) as f64 * p).round() as u64;
        let mut cum = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cum += bucket.load(Ordering::Relaxed);
            if cum > target {
                return hist_value(i);
            }
        }
        hist_value(HIST_BUCKETS - 1)
    }
}

/// Cumulative serving counters (shared with every worker); every field is
/// lock-free, so recording never serializes the worker pool.
#[derive(Debug, Default)]
struct ServeCounters {
    served: AtomicU64,
    errors: AtomicU64,
    rejected: AtomicU64,
    latency_ns: AtomicU64,
    max_latency_ns: AtomicU64,
    hist: LatencyHistogram,
}

impl ServeCounters {
    fn record(&self, ns: u64, is_err: bool) {
        self.served.fetch_add(1, Ordering::Relaxed);
        self.latency_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_latency_ns.fetch_max(ns, Ordering::Relaxed);
        if is_err {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.hist.record(ns);
    }

    /// `(p50, p99)` latency over every request of the run, in nanoseconds.
    fn percentiles_ns(&self) -> (u64, u64) {
        (self.hist.percentile(0.50), self.hist.percentile(0.99))
    }
}

/// A point-in-time snapshot of a server's throughput and latency.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    /// Requests completed (including errors).
    pub served: u64,
    /// Requests that returned an error, those whose backend panicked
    /// ([`RetrievalError::Internal`]) included.
    pub errors: u64,
    /// Requests shed at admission because the queue was full — each one
    /// resolved to [`RetrievalError::Overloaded`] without touching a
    /// worker, so they are not in `served` or the latency figures.
    pub rejected: u64,
    /// The admission queue's configured bound.
    pub queue_depth: usize,
    /// Mean request latency in milliseconds.
    pub mean_latency_ms: f64,
    /// Median request latency in milliseconds, exact (to the histogram's
    /// ≈6% bucket resolution) over every request of the run.
    pub p50_latency_ms: f64,
    /// 99th-percentile request latency in milliseconds over every request
    /// of the run. Includes queue wait, so an overdriven server shows it
    /// here.
    pub p99_latency_ms: f64,
    /// Worst request latency in milliseconds.
    pub max_latency_ms: f64,
    /// Completed requests per second since the server started.
    pub throughput_per_sec: f64,
    /// Worker threads in the pool.
    pub workers: usize,
}

/// A pending response handed out by [`MirrorServer::submit`].
pub struct PendingRetrieval {
    rx: Receiver<RetrievalResult<Vec<RankedResult>>>,
}

impl PendingRetrieval {
    /// Block until the worker pool finishes this request.
    pub fn wait(self) -> RetrievalResult<Vec<RankedResult>> {
        self.rx.recv().unwrap_or_else(|_| {
            Err(RetrievalError::Compile(MoaError::Unknown("server shut down mid-request".into())))
        })
    }
}

/// The message a panic carried, when it is a string.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    let text = panic.downcast_ref::<&str>().copied();
    text.or(panic.downcast_ref::<String>().map(String::as_str)).unwrap_or("panicked").into()
}

struct ServerJob {
    req: RetrievalRequest,
    /// When the request was admitted — latency is measured from here, so
    /// queue wait counts toward the percentiles the SLO is set against.
    enqueued: Instant,
    reply: Sender<RetrievalResult<Vec<RankedResult>>>,
}

/// Queue bound used by [`MirrorServer::start`]: deep enough that a healthy
/// pool never rejects, shallow enough that a stalled pool rejects instead
/// of buffering requests into unbounded queueing latency.
pub const DEFAULT_QUEUE_DEPTH: usize = 1024;

/// A concurrent retrieval server: a fixed worker pool draining a request
/// queue against one shared [`Retriever`] backend — a single-node
/// [`MirrorDbms`] snapshot (the default), a [`LiveMirror`](crate::LiveMirror)
/// or a sharded [`MirrorCluster`](crate::shard::MirrorCluster).
///
/// ```no_run
/// # use std::sync::Arc;
/// # use mirror_core::{MirrorDbms, serve::{MirrorServer, RetrievalRequest}};
/// # let db = MirrorDbms::with_defaults();
/// let server = MirrorServer::start(Arc::new(db), 4);
/// let hits = server.query(&RetrievalRequest::text("sunset beach", 10)).unwrap();
/// println!("{} hits, {:?}", hits.len(), server.stats());
/// ```
pub struct MirrorServer<R: Retriever + 'static = MirrorDbms> {
    db: Arc<R>,
    tx: Option<Sender<ServerJob>>,
    workers: Vec<JoinHandle<()>>,
    counters: Arc<ServeCounters>,
    queue_depth: usize,
    started: Instant,
}

impl<R: Retriever + 'static> MirrorServer<R> {
    /// Start a server with `workers` threads (0 = one per available core)
    /// over a shared backend, with the default admission-queue depth
    /// ([`DEFAULT_QUEUE_DEPTH`]).
    pub fn start(db: Arc<R>, workers: usize) -> Self {
        Self::start_with_queue(db, workers, DEFAULT_QUEUE_DEPTH)
    }

    /// Start a server with an explicit admission-queue bound: at most
    /// `queue_depth` requests wait behind the worker pool; a request that
    /// arrives while the queue is full is rejected immediately with
    /// [`RetrievalError::Overloaded`] instead of being buffered, so an
    /// open-loop client at a fixed arrival rate sees load shed rather than
    /// a meltdown.
    pub fn start_with_queue(db: Arc<R>, workers: usize, queue_depth: usize) -> Self {
        let workers = if workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            workers
        };
        let queue_depth = queue_depth.max(1);
        let (tx, rx) = bounded::<ServerJob>(queue_depth);
        let counters = Arc::new(ServeCounters::default());
        let handles = (0..workers)
            .map(|_| {
                let rx: Receiver<ServerJob> = rx.clone();
                let db = Arc::clone(&db);
                let counters = Arc::clone(&counters);
                std::thread::spawn(move || {
                    while let Ok(job) = rx.recv() {
                        // a panicking request fails alone: the worker
                        // answers it and keeps serving
                        let result = catch_unwind(AssertUnwindSafe(|| db.retrieve(&job.req)))
                            .unwrap_or_else(|p| Err(RetrievalError::Internal(panic_message(&*p))));
                        let ns = job.enqueued.elapsed().as_nanos() as u64;
                        counters.record(ns, result.is_err());
                        let _ = job.reply.send(result);
                    }
                })
            })
            .collect();
        MirrorServer {
            db,
            tx: Some(tx),
            workers: handles,
            counters,
            queue_depth,
            started: Instant::now(),
        }
    }

    /// The shared backend this server ranks against.
    pub fn db(&self) -> &Arc<R> {
        &self.db
    }

    /// Enqueue a request; returns a handle to wait on. Admission control
    /// happens here: when the bounded queue is full the request is shed —
    /// the handle resolves immediately to [`RetrievalError::Overloaded`]
    /// and the submitting thread never blocks.
    pub fn submit(&self, req: RetrievalRequest) -> PendingRetrieval {
        let (reply, rx) = bounded(1);
        let tx = self.tx.as_ref().expect("server is running until dropped");
        match tx.try_send(ServerJob { req, enqueued: Instant::now(), reply }) {
            Ok(()) => {}
            Err(TrySendError::Full(job)) => {
                self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                let _ = job
                    .reply
                    .send(Err(RetrievalError::Overloaded { queue_depth: self.queue_depth }));
            }
            Err(TrySendError::Disconnected(_)) => {
                // every worker is gone; `wait` will surface the shutdown error
            }
        }
        PendingRetrieval { rx }
    }

    /// Execute a request, blocking until its results are ready.
    pub fn query(&self, req: &RetrievalRequest) -> RetrievalResult<Vec<RankedResult>> {
        self.submit(req.clone()).wait()
    }

    /// Throughput/latency counters since the server started.
    pub fn stats(&self) -> ServerStats {
        let served = self.counters.served.load(Ordering::Relaxed);
        let latency_ns = self.counters.latency_ns.load(Ordering::Relaxed);
        let (p50_ns, p99_ns) = self.counters.percentiles_ns();
        let elapsed = self.started.elapsed().as_secs_f64();
        ServerStats {
            served,
            errors: self.counters.errors.load(Ordering::Relaxed),
            rejected: self.counters.rejected.load(Ordering::Relaxed),
            queue_depth: self.queue_depth,
            mean_latency_ms: if served == 0 {
                0.0
            } else {
                latency_ns as f64 / served as f64 / 1e6
            },
            p50_latency_ms: p50_ns as f64 / 1e6,
            p99_latency_ms: p99_ns as f64 / 1e6,
            max_latency_ms: self.counters.max_latency_ns.load(Ordering::Relaxed) as f64 / 1e6,
            throughput_per_sec: if elapsed > 0.0 { served as f64 / elapsed } else { 0.0 },
            workers: self.workers.len(),
        }
    }

    /// Stop accepting requests, drain the queue, and join the workers.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        // dropping the sender disconnects the queue; workers drain and exit
        self.tx = None;
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl<R: Retriever + 'static> Drop for MirrorServer<R> {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl<R: crate::live::MutableCorpus + 'static> MirrorServer<R> {
    /// Route an insert batch to the mutable backend (caller-thread write:
    /// queries stream through the worker pool while writers mutate
    /// snapshots — MVCC isolation means neither blocks the other).
    pub fn insert_rows(&self, rows: Vec<crate::LibraryRow>) -> RetrievalResult<u64> {
        self.db.insert_rows(rows)
    }

    /// Route a delete to the mutable backend; `None` if no live document
    /// has the URL.
    pub fn delete(&self, url: &str) -> RetrievalResult<Option<u64>> {
        self.db.delete(url)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use media::{RobotConfig, WebRobot};

    fn shared_db() -> Arc<MirrorDbms> {
        static DB: std::sync::OnceLock<Arc<MirrorDbms>> = std::sync::OnceLock::new();
        Arc::clone(DB.get_or_init(|| {
            let mut db = MirrorDbms::with_defaults();
            let corpus = WebRobot::new(RobotConfig {
                n_images: 40,
                image_size: 24,
                unannotated_fraction: 0.25,
                seed: 11,
            })
            .crawl();
            db.ingest(&corpus).unwrap();
            Arc::new(db)
        }))
    }

    #[test]
    fn typed_requests_match_the_facade_methods() {
        let db = shared_db();
        let a = db.retrieve(&RetrievalRequest::text("sunset glow evening", 10)).unwrap();
        let b = db.query_text("sunset glow evening", 10).unwrap();
        assert_eq!(a, b);
        let c = db.retrieve(&RetrievalRequest::dual("sunset glow", 0.6, 20)).unwrap();
        let d = db.query_dual("sunset glow", 0.6, 20).unwrap();
        assert_eq!(c, d);
    }

    #[test]
    fn requests_never_bind_into_the_environment() {
        let db = shared_db();
        let before: usize =
            ["q_text", "q_vis"].iter().filter(|n| db.env().query_binding(n).is_some()).count();
        assert_eq!(before, 0);
        db.retrieve(&RetrievalRequest::dual("sunset beach", 0.5, 10)).unwrap();
        for n in ["q_text", "q_vis"] {
            assert!(db.env().query_binding(n).is_none(), "{n} leaked into Env");
        }
    }

    #[test]
    fn one_resolver_maps_channels_thesaurus_fallback_and_mix() {
        let db = shared_db();
        let terms = crate::query::weighted_terms("sunset glow");
        let resolve = |req: &RetrievalRequest| db.resolve_channels(req).unwrap();
        let text = resolve(&RetrievalRequest::text_terms(terms.clone(), 5));
        assert_eq!(text, vec![(Channel::Text, terms.clone(), 1.0)]);
        let visual = resolve(&RetrievalRequest::visual(terms.clone(), 5));
        assert_eq!(visual, vec![(Channel::Visual, terms.clone(), 1.0)]);
        // a dual request expands its text terms through the thesaurus
        let (th, config) = (db.thesaurus().unwrap(), db.config());
        let expanded = th.expand(&terms, config.expand_per_term, config.expand_max_terms);
        assert!(!expanded.is_empty());
        let dual = resolve(&RetrievalRequest::dual("sunset glow", 0.25, 5));
        assert_eq!(
            dual,
            vec![(Channel::Text, terms.clone(), 0.75), (Channel::Visual, expanded, 0.25)]
        );
        // explicit visual terms win; an empty visual side ranks text alone
        let v = vec![("v1".to_string(), 1.0)];
        let feedback = resolve(&RetrievalRequest::dual_terms(terms.clone(), v.clone(), 0.5, 5));
        assert_eq!(feedback, vec![(Channel::Text, terms.clone(), 0.5), (Channel::Visual, v, 0.5)]);
        let fallback = resolve(&RetrievalRequest::dual_terms(terms.clone(), Vec::new(), 0.5, 5));
        assert_eq!(fallback, vec![(Channel::Text, terms, 1.0)]);
    }

    #[test]
    fn filter_is_a_literal_not_syntax() {
        let db = shared_db();
        // quotes and backslashes in the pattern are data; the old
        // format!-spliced query would have broken (or worse, widened) here
        for hostile in ["a\"b", "\\", "\")](ImageLibraryInternal))", "100%\" or \""] {
            let out =
                db.retrieve(&RetrievalRequest::text("sunset", 10).with_filter(hostile)).unwrap();
            assert!(out.is_empty(), "filter {hostile:?} matched {} docs", out.len());
        }
        // a benign filter still restricts
        let filtered =
            db.retrieve(&RetrievalRequest::text("sunset", 20).with_filter("/sunset/")).unwrap();
        assert!(!filtered.is_empty());
        assert!(filtered.iter().all(|r| r.url.contains("/sunset/")));
    }

    #[test]
    fn malformed_mix_is_rejected_at_the_edge() {
        let db = shared_db();
        for mix in [f64::NAN, f64::INFINITY, -0.1, 1.5] {
            let req = RetrievalRequest::dual("sunset glow", mix, 10);
            let err = db.retrieve(&req).unwrap_err();
            assert!(matches!(err, RetrievalError::BadRequest(_)), "mix {mix}: {err}");
            let fb = RetrievalRequest::dual_terms(vec![("sunset".into(), 1.0)], vec![], mix, 10);
            assert!(matches!(db.retrieve(&fb), Err(RetrievalError::BadRequest(_))), "mix {mix}");
        }
        for mix in [0.0, 1.0] {
            assert!(db.retrieve(&RetrievalRequest::dual("sunset glow", mix, 10)).is_ok());
        }
    }

    #[test]
    fn server_serves_and_counts() {
        let db = shared_db();
        let server = MirrorServer::start(Arc::clone(&db), 3);
        let baseline = db.query_text("sunset glow", 10).unwrap();
        let pending: Vec<_> =
            (0..12).map(|_| server.submit(RetrievalRequest::text("sunset glow", 10))).collect();
        for p in pending {
            assert_eq!(p.wait().unwrap(), baseline);
        }
        let stats = server.stats();
        assert_eq!(stats.served, 12);
        assert_eq!(stats.errors, 0);
        assert_eq!(stats.workers, 3);
        assert!(stats.mean_latency_ms > 0.0);
        assert!(stats.max_latency_ms >= stats.mean_latency_ms);
        server.shutdown();
    }

    #[test]
    fn histogram_counts_every_sample_and_is_deterministic() {
        let h = LatencyHistogram::default();
        // 3× more samples than the old ring could hold: the early ones
        // must still weigh into the percentiles
        let n = 3 * 8192u64;
        for v in 1..=n {
            h.record(v);
        }
        let (p50, p99) = (h.percentile(0.50), h.percentile(0.99));
        let true_p50 = (n as f64 * 0.50) as u64;
        let true_p99 = (n as f64 * 0.99) as u64;
        // bucket resolution: reported value within one sub-bucket (≈6%)
        for (got, want) in [(p50, true_p50), (p99, true_p99)] {
            let err = (got as f64 - want as f64).abs() / want as f64;
            assert!(err < 0.07, "got {got}, want ≈{want} (err {err:.3})");
        }
        assert!(p99 > p50);
        // same histogram, same question, same answer — no sampling noise
        assert_eq!(h.percentile(0.50), p50);
        assert_eq!(h.percentile(0.99), p99);
    }

    #[test]
    fn histogram_buckets_are_monotone_and_conservative() {
        for ns in [0u64, 1, 15, 16, 17, 31, 32, 1000, 123_456, u64::MAX / 2, u64::MAX] {
            let b = hist_bucket(ns);
            assert!(b < HIST_BUCKETS);
            assert!(hist_value(b) >= ns, "bucket upper edge below its member {ns}");
            if ns > 0 {
                assert!(hist_bucket(ns - 1) <= b, "bucket order inverted at {ns}");
            }
        }
    }

    /// A backend that parks inside `retrieve` until released — makes queue
    /// occupancy deterministic for the admission-control test.
    struct GatedRetriever {
        entered: Sender<()>,
        release: Receiver<()>,
    }

    impl Retriever for GatedRetriever {
        fn retrieve(&self, _req: &RetrievalRequest) -> RetrievalResult<Vec<RankedResult>> {
            let _ = self.entered.send(());
            let _ = self.release.recv();
            Ok(Vec::new())
        }

        fn explain_analyze(&self, _req: &RetrievalRequest) -> RetrievalResult<String> {
            Ok(String::new())
        }

        fn n_docs(&self) -> usize {
            0
        }
    }

    #[test]
    fn full_queue_sheds_load_with_typed_overloaded() {
        let (entered_tx, entered_rx) = crossbeam::channel::unbounded();
        let (release_tx, release_rx) = crossbeam::channel::unbounded();
        let backend = Arc::new(GatedRetriever { entered: entered_tx, release: release_rx });
        let server = MirrorServer::start_with_queue(backend, 1, 1);
        let a = server.submit(RetrievalRequest::text("q", 1));
        // wait until the lone worker is parked inside the backend, so the
        // queue is verifiably empty…
        entered_rx.recv().unwrap();
        let b = server.submit(RetrievalRequest::text("q", 1)); // …now fills it
        let c = server.submit(RetrievalRequest::text("q", 1)); // …and this is shed
        match c.wait() {
            Err(RetrievalError::Overloaded { queue_depth }) => assert_eq!(queue_depth, 1),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        release_tx.send(()).unwrap();
        release_tx.send(()).unwrap();
        assert!(a.wait().is_ok());
        assert!(b.wait().is_ok());
        let stats = server.stats();
        assert_eq!(stats.served, 2, "shed requests never reach a worker");
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.queue_depth, 1);
        server.shutdown();
    }

    /// A backend that panics on requests for the term `boom` and answers
    /// every other request with no hits.
    struct PanickingRetriever;

    impl Retriever for PanickingRetriever {
        fn retrieve(&self, req: &RetrievalRequest) -> RetrievalResult<Vec<RankedResult>> {
            assert!(req.terms.iter().all(|(t, _)| t != "boom"), "bad row index");
            Ok(Vec::new())
        }

        fn explain_analyze(&self, _req: &RetrievalRequest) -> RetrievalResult<String> {
            Ok(String::new())
        }

        fn n_docs(&self) -> usize {
            0
        }
    }

    #[test]
    fn a_panicking_request_fails_alone() {
        let server = MirrorServer::start(Arc::new(PanickingRetriever), 1);
        match server.query(&RetrievalRequest::text("boom", 1)) {
            Err(RetrievalError::Internal(msg)) => assert!(msg.contains("bad row index"), "{msg}"),
            other => panic!("expected Internal, got {other:?}"),
        }
        // the lone worker survived and serves the next request
        assert_eq!(server.query(&RetrievalRequest::text("calm", 1)), Ok(Vec::new()));
        let stats = server.stats();
        assert_eq!((stats.served, stats.errors), (2, 1));
        server.shutdown();
    }

    #[test]
    fn server_surfaces_request_errors() {
        // dual retrieval needs a thesaurus; an un-ingested instance errors
        let server = MirrorServer::start(Arc::new(MirrorDbms::with_defaults()), 1);
        assert!(server.query(&RetrievalRequest::dual("sunset", 0.5, 5)).is_err());
        assert_eq!(server.stats().errors, 1);
    }
}
