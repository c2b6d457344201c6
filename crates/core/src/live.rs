//! Live ingest under serving load: epoch-based MVCC snapshots over the
//! Mirror DBMS.
//!
//! The paper's WebRobot feeds documents into the DBMS *while users query
//! it*; this module is the machinery that makes that safe:
//!
//! * **Generations** — an immutable, block-compressed [`MirrorDbms`]
//!   instance (indexes, BATs, statistics) wrapped in an [`Arc`]. Readers
//!   pin one with [`LiveMirror::pin`], which is a read-lock + refcount
//!   bump: the epoch guard. A pinned generation stays readable through
//!   any number of merges; dropping the last pin frees it (the
//!   instrumented [`GenerationStats`] counters prove reclamation).
//! * **Delta** — each insert batch becomes a *segment*: the raw
//!   [`LibraryRow`]s plus, per evidence channel, an ordinary
//!   block-compressed [`InvertedIndex`] built by the same
//!   [`ir::IndexBuilder`] pipelines, at the batch's first live doc id; deletes
//!   add to a tombstone set. A query is the node's compiled plan over the
//!   snapshot as one [`CorpusView`] part: the fused operator walks the
//!   generation's index and every batch's in doc order, with the
//!   snapshot's union statistics and the tombstones as a mask, so every
//!   snapshot ranks bit-identically to a batch re-ingest of its surviving
//!   rows.
//! * **Merge** — a tripped policy ([`LiveMirror::maybe_merge`]) *seals*:
//!   the batches since the last seal fold into one segment, with each
//!   preceding one of no higher power-of-two size class (a binary counter,
//!   O(log) segments), no document dropped and no oid moved. Once a
//!   quarter of the documents are dead, or the delta outgrows the
//!   generation, it rebuilds instead: [`LiveMirror::merge`] folds the
//!   survivors into a fresh generation ([`InvertedIndex::fold`], equal
//!   value for value to what [`MirrorDbms::from_rows`] builds) and loads
//!   them through the same load. Both keep the writes that raced them
//!   and swap atomically; writers block only on the brief swap.
//! * **Durability** — with a store attached
//!   ([`LiveMirror::create_durable`] / [`LiveMirror::open_durable`]),
//!   every write is appended to a per-operation WAL record *before* it
//!   is applied, and each rebuild persists the new generation's rows under
//!   its own key prefix before flipping the `live/current` pointer — so a
//!   crash at any write reopens to a consistent state: the old
//!   generation plus replayed delta ops, or the new generation, never a
//!   torn hybrid. After the flip the rebuild sweeps the superseded
//!   generation and the folded ops out of the store and checkpoints, so
//!   the store holds one generation plus the ops since its base. A seal
//!   writes nothing: those ops are the durable form of the sealed
//!   segments, and [`LiveMirror::open_durable`] seals their replay once.
//! * **Scale-out** — a [`MirrorCluster`](crate::shard::MirrorCluster)
//!   is N [`LiveMirror`] shards ranked as one view of N pinned snapshots,
//!   with *cluster-wide* union statistics — so it ranks bit-identically to
//!   a single [`LiveMirror`] fed the same operations.

use crate::ingest::{channel_indexes, extract_inline, library_rows, visual_docs};
use crate::query::{ranked, RankedResult};
use crate::retriever::{RetrievalError, RetrievalResult, Retriever};
use crate::serve::RetrievalRequest;
use crate::{durable, LibraryRow, MirrorConfig, MirrorDbms, INTERNAL};
use ir::text::{for_each_token, is_stopword, porter_stem_into};
use ir::{CorpusView, DocSet, InvertedIndex, ViewPart};
use media::CrawledImage;
use moa::{Expr, MoaError, QueryParams};
use monet::column::StrCol;
use monet::fxhash::{FxBuildHasher, FxHashMap};
use monet::{Bat, Column, MonetError, Oid, RequestView, Store};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A backend that accepts online mutation alongside the [`Retriever`]
/// query surface: single-node [`LiveMirror`] and sharded
/// [`MirrorCluster`](crate::shard::MirrorCluster).
pub trait MutableCorpus: Retriever {
    /// Append documents; returns the write sequence number assigned.
    fn insert_rows(&self, rows: Vec<LibraryRow>) -> RetrievalResult<u64>;
    /// Tombstone the latest live document with this URL. Returns the
    /// write sequence number, or `None` if no live document has the URL.
    fn delete(&self, url: &str) -> RetrievalResult<Option<u64>>;
}

/// Shared per-instance counters instrumenting generation lifecycle —
/// the proof obligation for epoch reclamation.
#[derive(Debug, Default)]
struct LiveCounters {
    created: AtomicU64,
    retired: AtomicU64,
    alive_bytes: AtomicU64,
}

/// A point-in-time view of generation lifecycle accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenerationStats {
    /// Number of the generation current snapshots read from.
    pub current: u64,
    /// Generations ever created (including generation 0).
    pub created: u64,
    /// Generations fully retired (dropped once unpinned).
    pub retired: u64,
    /// Generations still alive (`created - retired`): the current one
    /// plus any still pinned by readers.
    pub alive: u64,
    /// Approximate heap bytes held by alive generations.
    pub alive_bytes: u64,
}

/// An immutable index generation: a compressed [`MirrorDbms`] plus cached
/// handles to its channel indexes. Dropping the last [`Arc`] to a
/// generation decrements the instance counters — retirement is literally
/// deallocation.
struct Generation {
    db: MirrorDbms,
    number: u64,
    /// The channel indexes, by [`slot`].
    indexes: [Option<Arc<InvertedIndex>>; 2],
    heap_bytes: u64,
    counters: Arc<LiveCounters>,
}

impl Generation {
    fn new(db: MirrorDbms, number: u64, counters: Arc<LiveCounters>) -> Self {
        let indexes = ["annotation", "image"].map(|f| db.store().get(&format!("{INTERNAL}__{f}")));
        let heap_bytes = indexes.iter().flatten().map(|i| i.heap_bytes() as u64).sum::<u64>()
            + db.library_rows().iter().map(row_bytes).sum::<u64>();
        counters.created.fetch_add(1, Ordering::Relaxed);
        counters.alive_bytes.fetch_add(heap_bytes, Ordering::Relaxed);
        Generation { db, number, indexes, heap_bytes, counters }
    }
}

/// Position of a content representation in the live tier's per-channel
/// arrays: the annotation (text) channel, then the image channel.
fn slot(prefix: &str) -> Option<usize> {
    match prefix.strip_prefix(INTERNAL)?.strip_prefix("__")? {
        "annotation" => Some(0),
        "image" => Some(1),
        _ => None,
    }
}

impl Drop for Generation {
    fn drop(&mut self) {
        self.counters.retired.fetch_add(1, Ordering::Relaxed);
        self.counters.alive_bytes.fetch_sub(self.heap_bytes, Ordering::Relaxed);
    }
}

/// One insert batch of the delta: the raw rows plus, per evidence channel,
/// an ordinary block-compressed index over them built by the same
/// [`ir::IndexBuilder`] pipelines as `CONTREP<Text>` / `CONTREP<Image>` —
/// local doc `j` is live doc `first_doc + j`.
struct DeltaBatch {
    first_doc: Oid,
    rows: Vec<LibraryRow>,
    /// The channel indexes, by [`slot`].
    indexes: [InvertedIndex; 2],
}

impl DeltaBatch {
    fn new(first_doc: Oid, rows: Vec<LibraryRow>) -> Self {
        DeltaBatch { first_doc, indexes: channel_indexes(&rows), rows }
    }

    /// Consecutive batches as one: rows concatenated, each channel's
    /// postings folded with the identity remap, so tombstoned documents
    /// stay (masked) and every live oid keeps its meaning.
    fn sealed(batches: &[Arc<DeltaBatch>]) -> Self {
        let first_doc = batches[0].first_doc;
        let rows: Vec<LibraryRow> = batches.iter().flat_map(|b| b.rows.iter().cloned()).collect();
        let identity: Vec<Option<Oid>> = (0..rows.len() as Oid).map(Some).collect();
        let indexes = std::array::from_fn(|c| {
            let parts: Vec<_> =
                batches.iter().map(|b| (b.first_doc - first_doc, &b.indexes[c])).collect();
            InvertedIndex::fold(&parts, &identity)
        });
        DeltaBatch { first_doc, rows, indexes }
    }
}

/// Approximate heap bytes of one library row — the same estimate
/// generation accounting uses, so policy thresholds and
/// [`GenerationStats::alive_bytes`] speak the same unit.
fn row_bytes(r: &LibraryRow) -> u64 {
    (r.url.len() + r.annotation.as_ref().map_or(0, String::len) + r.vterms.len() + 16) as u64
}

/// Stream the terms a channel's `CONTREP` pipeline indexes a row with
/// (stemmed text, or whitespace-split visual terms), stemming into one
/// reused buffer.
fn for_each_term(row: &LibraryRow, channel: usize, mut f: impl FnMut(&str)) {
    if channel == 1 {
        return row.vterms.split_whitespace().for_each(f);
    }
    let mut stem = String::new();
    for_each_token(row.annotation.as_deref().unwrap_or(""), |tok| {
        if !is_stopword(tok) {
            porter_stem_into(tok, &mut stem);
            f(&stem);
        }
    });
}

/// Counts per chunk of a [`DfMinus`]'s per-id arrays, and the number of
/// hash chunks of its per-term map.
const DF_CHUNK: usize = 256;

/// A tripped [`MergePolicy`] rebuilds instead of sealing once
/// `1 / REBUILD_DEAD_SHARE` of the snapshot's documents are dead (or the
/// delta holds as many rows as the generation): geometric shares, so
/// rebuilds cost O(1) per write, amortised.
const REBUILD_DEAD_SHARE: usize = 4;

/// One channel's document frequencies lost to tombstones — term → number
/// of deleted docs containing it — in copy-on-write chunks, so publishing
/// a delete copies only the chunks its terms land in, not every earlier
/// delete's counts. A generation document counts under its term ids,
/// allocating no key; a delta document under its terms.
#[derive(Clone, Default)]
struct DfMinus {
    /// By generation term id; empty until the first generation delete.
    by_id: Vec<Arc<[u32; DF_CHUNK]>>,
    /// By term, split by term hash; empty until the first delta delete.
    by_term: Vec<Arc<FxHashMap<String, u32>>>,
}

impl DfMinus {
    fn chunk(term: &str) -> usize {
        // bits the chunk's own hash table does not index by
        (FxBuildHasher::default().hash_one(term) >> 32) as usize % DF_CHUNK
    }

    /// Deleted documents holding `term`; `gen` is the generation's index.
    fn get(&self, gen: Option<&InvertedIndex>, term: &str) -> u32 {
        let by_id = || {
            let id = gen?.dict().lookup(term)? as usize;
            self.by_id.get(id / DF_CHUNK).map(|counts| counts[id % DF_CHUNK])
        };
        let by_term = || self.by_term.get(Self::chunk(term))?.get(term).copied();
        by_id().unwrap_or(0) + by_term().unwrap_or(0)
    }

    /// One more deleted document holds generation term `id` (of `n_ids`).
    fn add_id(&mut self, id: usize, n_ids: usize) {
        if self.by_id.is_empty() {
            let zeros = Arc::new([0; DF_CHUNK]); // shared until written
            self.by_id = vec![zeros; n_ids.div_ceil(DF_CHUNK)];
        }
        Arc::make_mut(&mut self.by_id[id / DF_CHUNK])[id % DF_CHUNK] += 1;
    }

    /// One more deleted document holds `term`.
    fn add_term(&mut self, term: String) {
        if self.by_term.is_empty() {
            self.by_term = vec![Arc::default(); DF_CHUNK];
        }
        *Arc::make_mut(&mut self.by_term[Self::chunk(&term)]).entry(term).or_default() += 1;
    }
}

/// An immutable MVCC snapshot: a pinned generation, the delta batches
/// appended since it was cut, tombstones, and exact union statistics.
/// Every mutation publishes a *new* snapshot (persistent data structures:
/// batches, tombstone chunks and df-minus chunks are shared via [`Arc`]
/// and copied only where written), so a pinned snapshot never observes
/// later writes.
#[derive(Clone)]
struct LiveSnapshot {
    gen: Arc<Generation>,
    batches: Vec<Arc<DeltaBatch>>,
    tombstones: DocSet,
    /// Per-channel document frequencies lost to tombstones. Union df =
    /// Σ segment dfs − minus.
    df_minus: [DfMinus; 2],
    /// Leading `batches` that are sealed segments; the rest are the
    /// insert batches since the last seal.
    sealed: usize,
    /// Tombstones at the last seal (or rebuild): the ones past it are
    /// merge pressure.
    sealed_dead: usize,
    n_live: usize,
    /// Surviving token totals per channel.
    totals: [u64; 2],
    seq: u64,
    /// Every row's URL by live oid ([`url_column`]), built for the first
    /// filtered request and shared by every snapshot with the same rows:
    /// a delete or a seal keeps it, an insert starts a new one.
    source: Arc<OnceLock<Arc<Bat>>>,
}

impl LiveSnapshot {
    fn fresh(gen: Arc<Generation>, seq: u64) -> Self {
        LiveSnapshot {
            n_live: gen.db.n_docs(),
            totals: gen
                .indexes
                .each_ref()
                .map(|i| i.as_ref().map_or(0, |i| i.stats().total_tokens)),
            gen,
            batches: Vec::new(),
            tombstones: DocSet::new(),
            df_minus: Default::default(),
            sealed: 0,
            sealed_dead: 0,
            seq,
            source: Arc::default(),
        }
    }

    fn end_doc(&self) -> Oid {
        self.batches
            .last()
            .map_or(self.gen.db.n_docs() as Oid, |b| b.first_doc + b.rows.len() as Oid)
    }

    fn row(&self, oid: Oid) -> Option<&LibraryRow> {
        let base = self.gen.db.library_rows();
        if (oid as usize) < base.len() {
            return base.get(oid as usize);
        }
        self.batches
            .iter()
            .find(|b| oid >= b.first_doc && (oid - b.first_doc) < b.rows.len() as Oid)
            .and_then(|b| b.rows.get((oid - b.first_doc) as usize))
    }

    /// Every row with its live oid, tombstoned or not, in arrival order.
    fn rows(&self) -> impl Iterator<Item = (Oid, &LibraryRow)> {
        let base = self.gen.db.library_rows().iter().enumerate().map(|(i, r)| (i as Oid, r));
        base.chain(
            self.batches.iter().flat_map(|b| {
                b.rows.iter().enumerate().map(move |(j, r)| (b.first_doc + j as Oid, r))
            }),
        )
    }

    /// The surviving rows with their live oids, in arrival order.
    fn survivors(&self) -> impl Iterator<Item = (Oid, &LibraryRow)> {
        self.rows().filter(|&(oid, _)| !self.tombstones.contains(oid))
    }

    /// The surviving rows in arrival order — the corpus a batch re-ingest
    /// of this snapshot would be built from.
    fn surviving_rows(&self) -> Vec<LibraryRow> {
        self.survivors().map(|(_, r)| r.clone()).collect()
    }

    /// This snapshot as of write `seq`, before the write changes it.
    fn at(&self, seq: u64) -> LiveSnapshot {
        LiveSnapshot { seq, ..self.clone() }
    }

    fn with_insert(&self, rows: Vec<LibraryRow>, seq: u64) -> LiveSnapshot {
        let batch = DeltaBatch::new(self.end_doc(), rows);
        let mut next = LiveSnapshot { source: Arc::default(), ..self.at(seq) };
        next.n_live += batch.rows.len();
        for (total, index) in next.totals.iter_mut().zip(&batch.indexes) {
            *total += index.stats().total_tokens;
        }
        next.batches.push(Arc::new(batch));
        next
    }

    /// Tombstone `oid`, streaming its terms from its row: the publish
    /// costs about the document's distinct terms. The rows, and so the
    /// URL column, stay.
    fn with_delete(&self, oid: Oid, seq: u64) -> LiveSnapshot {
        let row = self.row(oid).expect("tombstoned doc exists in the snapshot");
        let mut next = self.at(seq);
        next.tombstones.insert(oid);
        next.n_live -= 1;
        for (c, minus) in next.df_minus.iter_mut().enumerate() {
            let gen = self.gen.indexes[c].as_deref().filter(|_| oid < self.gen.db.n_docs() as Oid);
            let (mut ids, mut terms) = (Vec::new(), Vec::new());
            for_each_term(row, c, |t| match gen {
                Some(gen) => ids.push(gen.dict().lookup(t).expect("a generation term is indexed")),
                None => terms.push(t.to_string()),
            });
            next.totals[c] -= (ids.len() + terms.len()) as u64;
            ids.sort_unstable();
            ids.dedup();
            terms.sort_unstable();
            terms.dedup();
            let n_ids = gen.map_or(0, |gen| gen.dict().len());
            ids.into_iter().for_each(|id| minus.add_id(id as usize, n_ids));
            terms.into_iter().for_each(|t| minus.add_term(t));
        }
        next
    }

    /// Whether a tripped policy should rebuild rather than seal: dead
    /// documents reach their share of the snapshot, or the delta's rows
    /// the generation's (always, for an empty generation).
    fn rebuild_due(&self) -> bool {
        let delta: usize = self.batches.iter().map(|b| b.rows.len()).sum();
        self.tombstones.len() * REBUILD_DEAD_SHARE >= self.end_doc() as usize
            || delta >= self.gen.db.n_docs()
    }

    /// Each document's id after a merge of this snapshot: the survivors
    /// renumbered densely in arrival order, `None` for the tombstoned.
    fn remap(&self) -> Vec<Option<Oid>> {
        let mut kept = 0..;
        let id = |oid| if self.tombstones.contains(oid) { None } else { kept.next() };
        (0..self.end_doc()).map(id).collect()
    }
}

/// The URL column of the pinned snapshots' rows laid end to end, by view
/// id ([`CorpusView`]) — what a filtered request selects over.
pub(crate) fn url_column(pins: &[LiveReader]) -> Bat {
    let urls = pins.iter().flat_map(|p| p.snap.rows().map(|(_, r)| r.url.as_str()));
    Bat::dense(Column::Str(StrCol::from_strs(urls)))
}

/// A snapshot is one part of a corpus view: the generation's index at 0,
/// then every delta batch's at its first doc, scored with its surviving
/// statistics and its tombstones as a mask.
impl ViewPart for LiveSnapshot {
    fn segments(&self, prefix: &str) -> Vec<(Oid, &InvertedIndex)> {
        let Some(c) = slot(prefix) else { return Vec::new() };
        let base = self.gen.indexes[c].as_deref().map(|index| (0, index));
        base.into_iter().chain(self.batches.iter().map(|b| (b.first_doc, &b.indexes[c]))).collect()
    }

    fn live_stats(&self, prefix: &str) -> (usize, u64) {
        (self.n_live, slot(prefix).map_or(0, |c| self.totals[c]))
    }

    fn deleted_df(&self, prefix: &str, term: &str) -> u32 {
        slot(prefix).map_or(0, |c| self.df_minus[c].get(self.gen.indexes[c].as_deref(), term))
    }

    fn tombstones(&self) -> Option<&DocSet> {
        (!self.tombstones.is_empty()).then_some(&self.tombstones)
    }

    fn end_doc(&self) -> Oid {
        LiveSnapshot::end_doc(self)
    }
}

/// Pinned snapshots ranked as one corpus view: a single mirror's one
/// snapshot, or one per shard of a cluster with its local → global ids.
pub(crate) struct PinnedView {
    snaps: Vec<Arc<LiveSnapshot>>,
    view: Arc<CorpusView>,
}

impl PinnedView {
    /// The view of `pins` (`ids`: row `i` maps pin `i`'s local oids to
    /// global ones; `None` for one pin, whose oids are global). A filtered
    /// `req` selects over the URL column `source` returns.
    pub(crate) fn new(
        pins: &[LiveReader],
        ids: Option<Arc<Vec<Vec<Oid>>>>,
        req: &RetrievalRequest,
        source: impl FnOnce() -> Arc<Bat>,
    ) -> Self {
        let snaps: Vec<Arc<LiveSnapshot>> = pins.iter().map(|p| Arc::clone(&p.snap)).collect();
        let parts = snaps.iter().map(|s| Arc::clone(s) as Arc<dyn ViewPart>).collect();
        let mut view = CorpusView::new(parts, ids);
        if req.filter.is_some() {
            view = view.with_bat(format!("{INTERNAL}__source"), source());
        }
        PinnedView { snaps, view: Arc::new(view) }
    }

    /// The request's plan on the first pin's generation, over the view.
    fn compile(&self, req: &RetrievalRequest) -> RetrievalResult<(&MirrorDbms, Expr, QueryParams)> {
        let db = &self.snaps[0].gen.db;
        let view: Arc<dyn RequestView> = self.view.clone();
        let (expr, params) = db.compile_request(req, Some(view))?;
        Ok((db, expr, params))
    }

    /// Execute a validated request over the view, materialising the URLs
    /// from the pinned rows.
    pub(crate) fn retrieve(&self, req: &RetrievalRequest) -> RetrievalResult<Vec<RankedResult>> {
        let (db, expr, params) = self.compile(req)?;
        let (out, _) = db.engine().query_expr_params(&expr, &params)?;
        let url = |oid| {
            let (part, local) = self.view.locate(oid)?;
            self.snaps[part].row(local).map(|r| r.url.as_str())
        };
        Ok(ranked(out, req.k, url)?)
    }

    /// EXPLAIN ANALYZE of a validated request over the view.
    pub(crate) fn explain_analyze(&self, req: &RetrievalRequest) -> RetrievalResult<String> {
        let (db, expr, params) = self.compile(req)?;
        Ok(db.engine().explain_analyze_expr(&expr, &params)?)
    }
}

/// A pinned MVCC snapshot: the epoch guard handed to readers. Queries on
/// it see exactly the state at pin time, bit-identical to a batch
/// re-ingest of [`LiveReader::surviving_rows`], no matter what writers
/// or merges do concurrently.
pub struct LiveReader {
    snap: Arc<LiveSnapshot>,
}

impl LiveReader {
    /// Sequence number of the last write visible in this snapshot.
    pub fn seq(&self) -> u64 {
        self.snap.seq
    }

    /// Number of the pinned (compressed) generation.
    pub fn generation(&self) -> u64 {
        self.snap.gen.number
    }

    /// `(generation, end doc)`: equal cuts pin the same rows, which only
    /// an insert or a rebuild changes.
    pub(crate) fn rows_cut(&self) -> (u64, Oid) {
        (self.snap.gen.number, self.snap.end_doc())
    }

    /// Live (non-tombstoned) documents visible.
    pub fn n_live(&self) -> usize {
        self.snap.n_live
    }

    /// The surviving rows in arrival order — the corpus a quiesced batch
    /// re-ingest of this snapshot would load.
    pub fn surviving_rows(&self) -> Vec<LibraryRow> {
        self.snap.surviving_rows()
    }

    /// Delta segments this snapshot reads beside its generation: the
    /// sealed ones, then the insert batches since the last seal.
    pub fn segments(&self) -> usize {
        self.snap.batches.len()
    }

    /// Local oids alive in this snapshot, ascending — exactly the
    /// arrival-order compaction a merge of this snapshot applies.
    pub(crate) fn surviving_local_ids(&self) -> Vec<Oid> {
        self.snap.survivors().map(|(oid, _)| oid).collect()
    }

    /// The pinned generation's instance, without the delta.
    pub(crate) fn generation_db(&self) -> &MirrorDbms {
        &self.snap.gen.db
    }

    /// Execute a request against this snapshot: the node's compiled plan
    /// over the generation and every delta batch as segments of one
    /// corpus view, scored with the snapshot's union statistics.
    pub fn retrieve(&self, req: &RetrievalRequest) -> RetrievalResult<Vec<RankedResult>> {
        req.validate()?;
        self.view(req).retrieve(req)
    }

    /// EXPLAIN ANALYZE of a request against this snapshot: the fused
    /// operator's work per delta segment.
    pub fn explain_analyze(&self, req: &RetrievalRequest) -> RetrievalResult<String> {
        req.validate()?;
        self.view(req).explain_analyze(req)
    }

    fn view(&self, req: &RetrievalRequest) -> PinnedView {
        let pins = std::slice::from_ref(self);
        let source = || Arc::clone(self.snap.source.get_or_init(|| Arc::new(url_column(pins))));
        PinnedView::new(pins, None, req, source)
    }
}

/// One logged write — the unit of the delta WAL and of merge replay.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WriteOp {
    /// Append these rows as new documents.
    Insert(Vec<LibraryRow>),
    /// Tombstone the latest live document with this URL.
    Delete(String),
}

/// A write as a racing merge replays it: rows, or the oid tombstoned.
enum Logged {
    Insert(Vec<LibraryRow>),
    Delete(Oid),
}

struct WriterState {
    /// URL → live oids of every document with that URL, in arrival order
    /// (latest last). `delete` pops the latest; duplicate-URL inserts
    /// stack, so deleting one re-targets the next-latest — the same
    /// answer before and after any merge (which renumbers the stacks).
    /// Updates are delete + insert.
    url_to_oids: HashMap<String, Vec<Oid>>,
    /// Writes since the last seal's or rebuild's pin — what a racing
    /// rebuild replays onto the new generation.
    op_log: Vec<(u64, Logged)>,
}

/// Thresholds that trigger [`LiveMirror::maybe_merge`]'s seal or rebuild
/// — the knobs a serving deployment turns to trade write amplification
/// for query overhead (many small batches scanned on every request). Each
/// counts from the last seal or rebuild; *any* one met fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergePolicy {
    /// Merge once at least this many rows were inserted since.
    pub max_delta_rows: usize,
    /// Merge once those rows span at least this many (estimated) heap
    /// bytes — the same per-row estimate [`GenerationStats::alive_bytes`]
    /// accounts with.
    pub max_delta_bytes: u64,
    /// Merge once at least this many documents were tombstoned since
    /// (deletes are query-time overhead until a rebuild drops them).
    pub max_tombstones: usize,
}

impl Default for MergePolicy {
    fn default() -> Self {
        MergePolicy {
            max_delta_rows: 10_000,
            max_delta_bytes: 8 * 1024 * 1024,
            max_tombstones: 1_000,
        }
    }
}

/// A mutable corpus with epoch-based MVCC snapshots over an immutable
/// [`MirrorDbms`] generation. See the [module docs](self) for the design.
pub struct LiveMirror {
    state: RwLock<Arc<LiveSnapshot>>,
    writer: Mutex<WriterState>,
    /// Serialises seals and rebuilds (their folds run without the writer
    /// lock, so ingest streams during them).
    merge_lock: Mutex<()>,
    /// Attached durable store, if any. The lock serialises WAL-record
    /// appends against a merge persisting a whole generation, so their
    /// transactions never interleave.
    store: Mutex<Option<Arc<Store>>>,
    counters: Arc<LiveCounters>,
    config: MirrorConfig,
}

impl LiveMirror {
    /// Wrap an ingested (or cold-opened) instance as generation 0 of a
    /// live corpus; a never-loaded instance starts as an empty collection,
    /// which requests over its inserts compile against.
    pub fn new(mut db: MirrorDbms) -> Self {
        if db.env().collection(INTERNAL).is_err() {
            db.load_library_rows(Vec::new()).expect("the internal schema loads");
        }
        Self::from_generation(db, 0, 0)
    }

    fn from_generation(db: MirrorDbms, gen_no: u64, base_seq: u64) -> Self {
        let config = db.config().clone();
        let counters = Arc::new(LiveCounters::default());
        let gen = Arc::new(Generation::new(db, gen_no, Arc::clone(&counters)));
        let mut url_to_oids: HashMap<String, Vec<Oid>> = HashMap::new();
        for (i, r) in gen.db.library_rows().iter().enumerate() {
            url_to_oids.entry(r.url.clone()).or_default().push(i as Oid);
        }
        LiveMirror {
            state: RwLock::new(Arc::new(LiveSnapshot::fresh(gen, base_seq))),
            writer: Mutex::new(WriterState { url_to_oids, op_log: Vec::new() }),
            merge_lock: Mutex::new(()),
            store: Mutex::new(None),
            counters,
            config,
        }
    }

    /// Initialise a fresh durable live corpus: persists `db` as
    /// generation 0 and points `live/current` at it. Fails if the store
    /// already holds a live instance (open that with
    /// [`LiveMirror::open_durable`] instead).
    pub fn create_durable(db: MirrorDbms, store: Arc<Store>) -> RetrievalResult<Self> {
        if durable::live_pointer(&store)?.is_some() {
            return Err(RetrievalError::Storage(MonetError::Corrupt {
                what: "live/current".into(),
                detail: "store already holds a live instance — use open_durable".into(),
            }));
        }
        durable::save_aux(&db, &store, durable::LIVE_AUX)?;
        durable::save_instance(&db, &store, &durable::live_gen_prefix(0), false)?;
        durable::live_set_pointer(&store, 0, 0)?;
        let live = Self::from_generation(db, 0, 0);
        *live.store.lock() = Some(store);
        Ok(live)
    }

    /// Reopen a durable live corpus: kernel recovery has already trimmed
    /// any torn WAL tail; this opens the generation `live/current` points
    /// at and replays the committed delta ops past its base sequence.
    /// A crash mid-merge reopens the *old* generation (whose ops are all
    /// still present); a crash mid-append reopens the committed prefix.
    /// Leftovers of a crashed merge or sweep — generations the pointer
    /// does not name, ops at or below its base — are swept on the way.
    /// The replayed batches are sealed into one segment.
    pub fn open_durable(store: Arc<Store>) -> RetrievalResult<Self> {
        let Some((gen_no, base_seq)) = durable::live_pointer(&store)? else {
            return Err(RetrievalError::IncompleteState {
                detail: "no live/current pointer — the live store was never initialised".into(),
            });
        };
        let prefix = durable::live_gen_prefix(gen_no);
        let db = durable::open_instance(&store, &prefix, durable::LIVE_AUX)?;
        let live = Self::from_generation(db, gen_no, base_seq);
        let ops = durable::live_ops_after(&store, base_seq)?;
        {
            let mut w = live.writer.lock();
            for (seq, op) in ops {
                match op {
                    WriteOp::Insert(rows) => {
                        let got = live.insert_locked(&mut w, rows, false)?;
                        debug_assert_eq!(got, seq, "replayed insert out of sequence");
                    }
                    WriteOp::Delete(url) => {
                        let got = live.delete_locked(&mut w, &url, false)?;
                        debug_assert_eq!(got, Some(seq), "replayed delete out of sequence");
                    }
                }
            }
        }
        live.seal();
        durable::live_sweep(&store, gen_no, base_seq)?;
        *live.store.lock() = Some(store);
        Ok(live)
    }

    /// Pin the current snapshot — the epoch guard. O(1): a read lock and
    /// a refcount bump.
    pub fn pin(&self) -> LiveReader {
        LiveReader { snap: Arc::clone(&self.state.read()) }
    }

    /// Generation lifecycle counters (created / retired / alive bytes).
    pub fn generation_stats(&self) -> GenerationStats {
        let created = self.counters.created.load(Ordering::Relaxed);
        let retired = self.counters.retired.load(Ordering::Relaxed);
        GenerationStats {
            current: self.state.read().gen.number,
            created,
            retired,
            alive: created - retired,
            alive_bytes: self.counters.alive_bytes.load(Ordering::Relaxed),
        }
    }

    fn insert_locked(
        &self,
        w: &mut WriterState,
        rows: Vec<LibraryRow>,
        durable: bool,
    ) -> RetrievalResult<u64> {
        let snap = Arc::clone(&self.state.read());
        let seq = snap.seq + 1;
        if durable {
            if let Some(store) = self.store.lock().as_ref() {
                durable::live_append_op(store, seq, &WriteOp::Insert(rows.clone()))?;
            }
        }
        let first = snap.end_doc();
        for (i, r) in rows.iter().enumerate() {
            w.url_to_oids.entry(r.url.clone()).or_default().push(first + i as Oid);
        }
        let next = snap.with_insert(rows.clone(), seq);
        w.op_log.push((seq, Logged::Insert(rows)));
        *self.state.write() = Arc::new(next);
        Ok(seq)
    }

    fn delete_locked(
        &self,
        w: &mut WriterState,
        url: &str,
        durable: bool,
    ) -> RetrievalResult<Option<u64>> {
        let Some(&oid) = w.url_to_oids.get(url).and_then(|stack| stack.last()) else {
            return Ok(None);
        };
        let snap = Arc::clone(&self.state.read());
        let seq = snap.seq + 1;
        if durable {
            if let Some(store) = self.store.lock().as_ref() {
                durable::live_append_op(store, seq, &WriteOp::Delete(url.to_string()))?;
            }
        }
        let stack = w.url_to_oids.get_mut(url).expect("the URL has a live document");
        stack.pop();
        if stack.is_empty() {
            w.url_to_oids.remove(url);
        }
        let next = snap.with_delete(oid, seq);
        w.op_log.push((seq, Logged::Delete(oid)));
        *self.state.write() = Arc::new(next);
        Ok(Some(seq))
    }

    /// Append documents as one atomic batch; readers pinning after this
    /// returns see all of them. Returns the assigned write sequence.
    /// With a durable store attached the op is WAL-committed *before* it
    /// becomes visible — an acknowledged write survives any crash.
    pub fn insert_rows(&self, rows: Vec<LibraryRow>) -> RetrievalResult<u64> {
        let mut w = self.writer.lock();
        self.insert_locked(&mut w, rows, true)
    }

    /// Extract, tokenise and append crawled images through the pinned
    /// generation's visual vocabulary (the online WebRobot path). The
    /// extraction pipeline is the ingest pipeline, so a merged corpus is
    /// bit-identical to having batch-ingested these images with the same
    /// vocabulary.
    pub fn insert_images(&self, images: &[CrawledImage]) -> RetrievalResult<u64> {
        let vocab = {
            let snap = self.pin();
            snap.snap.gen.db.vocabulary().cloned().ok_or_else(|| {
                RetrievalError::Compile(MoaError::Unknown(
                    "visual vocabulary (ingest first)".into(),
                ))
            })?
        };
        let extractions = extract_inline(images, self.config.grid);
        self.insert_rows(library_rows(images, &visual_docs(&vocab, images.len(), &extractions)))
    }

    /// Tombstone the latest live document with this URL; returns its
    /// write sequence, or `None` if no live document matches.
    pub fn delete(&self, url: &str) -> RetrievalResult<Option<u64>> {
        let mut w = self.writer.lock();
        self.delete_locked(&mut w, url, true)
    }

    /// Fold the delta into a fresh compressed generation (the full LSM
    /// rebuild, beside [`maybe_merge`](Self::maybe_merge)'s seals): pin
    /// a snapshot and, *without blocking writers*, fold each channel's
    /// segments into one index ([`InvertedIndex::fold`]; nothing is
    /// re-tokenised) and load it with the surviving rows, then briefly
    /// take the writer lock to replay the ops that raced the rebuild and
    /// swap the new generation in. Old generations retire when the last
    /// reader unpins them. With a durable store the new generation's rows
    /// are persisted under its own prefix before `live/current` flips, so
    /// a crash before the flip leaves the old generation (plus its WAL ops)
    /// authoritative; after it the old generation and the folded ops are
    /// swept and the store checkpoints. An `Err` from that sweep means the
    /// merge took effect but its garbage remains, for the next merge or
    /// [`open_durable`](Self::open_durable) to sweep.
    pub fn merge(&self) -> RetrievalResult<()> {
        let _serialise = self.merge_lock.lock();
        self.rebuild()
    }

    /// [`merge`](Self::merge) under the held merge lock.
    fn rebuild(&self) -> RetrievalResult<()> {
        let snap = Arc::clone(&self.state.read());
        let remap = snap.remap();
        let fold = |f| InvertedIndex::fold(&snap.segments(&format!("{INTERNAL}__{f}")), &remap);
        let indexes = [fold("annotation"), fold("image")];
        let mut new_db = MirrorDbms::new(self.config.clone());
        new_db.load(snap.surviving_rows(), indexes).map_err(RetrievalError::from)?;
        // a merge changes neither the vocabulary nor the thesaurus
        (new_db.vocab, new_db.thesaurus) =
            (snap.gen.db.vocab.clone(), snap.gen.db.thesaurus.clone());
        let new_no = snap.gen.number + 1;
        if let Some(store) = self.store.lock().as_ref() {
            durable::save_instance(&new_db, store, &durable::live_gen_prefix(new_no), false)?;
        }
        let new_gen = Arc::new(Generation::new(new_db, new_no, Arc::clone(&self.counters)));

        let mut w = self.writer.lock();
        let cur = Arc::clone(&self.state.read());
        // a live oid's id in the new generation: folded documents by the
        // remap, documents inserted since the snapshot shifted past them
        let (end, n_new) = (snap.end_doc(), new_gen.db.n_docs() as Oid);
        let renumber = |oid: Oid| match remap.get(oid as usize) {
            Some(new) => new.expect("a live document survived the merge"),
            None => oid - end + n_new,
        };
        let mut next = LiveSnapshot::fresh(new_gen, snap.seq);
        for (seq, op) in w.op_log.iter().filter(|&&(seq, _)| seq > snap.seq) {
            next = match op {
                Logged::Insert(rows) => next.with_insert(rows.clone(), *seq),
                Logged::Delete(oid) => next.with_delete(renumber(*oid), *seq),
            };
        }
        debug_assert_eq!(next.seq, cur.seq, "merge replay must land on the current sequence");
        // the pointer flip is the last fallible step: only after it
        // succeeds do we commit the renumbered writer state and the new
        // snapshot together — an Err return leaves writer + state
        // untouched and still mutually consistent on the old generation
        if let Some(store) = self.store.lock().as_ref() {
            durable::live_set_pointer(store, new_no, snap.seq)?;
        }
        // every logged op is now at or below the next snapshot's base
        w.op_log.clear();
        for oid in w.url_to_oids.values_mut().flatten() {
            *oid = renumber(*oid);
        }
        *self.state.write() = Arc::new(next);
        drop(w);
        if let Some(store) = self.store.lock().as_ref() {
            durable::live_sweep(store, new_no, snap.seq)?;
        }
        Ok(())
    }

    /// Seal under the held merge lock (or before the mirror is shared):
    /// fold the batches since the last seal into one segment, with each
    /// preceding sealed one of no higher size class (`ilog2` of its rows),
    /// so classes strictly fall: at most log2(rows) + 1 sealed segments.
    /// Nothing is renumbered, so tombstones, df-minus, totals, the URL
    /// stacks and every pin stay valid; nothing is written to the store,
    /// whose ops since the generation's base replay to the same rows.
    fn seal(&self) {
        let snap = Arc::clone(&self.state.read());
        let end = snap.batches.len();
        let mut from = snap.sealed;
        let mut rows: usize = snap.batches[from..].iter().map(|b| b.rows.len()).sum();
        while rows > 0 && from > 0 && snap.batches[from - 1].rows.len().ilog2() <= rows.ilog2() {
            from -= 1;
            rows += snap.batches[from].rows.len();
        }
        let segment = match &snap.batches[from..] {
            _ if rows == 0 => None, // empty batches hold no document
            [one] => Some(Arc::clone(one)),
            many => Some(Arc::new(DeltaBatch::sealed(many))),
        };

        let mut w = self.writer.lock();
        let cur = Arc::clone(&self.state.read());
        // keep the batches appended while the fold ran
        let mut batches = snap.batches[..from].to_vec();
        batches.extend(segment);
        let sealed = batches.len();
        batches.extend_from_slice(&cur.batches[end..]);
        // a later rebuild replays only the ops past its own, later, pin
        w.op_log.retain(|&(seq, _)| seq > snap.seq);
        let sealed_dead = snap.tombstones.len();
        *self.state.write() =
            Arc::new(LiveSnapshot { batches, sealed, sealed_dead, ..LiveSnapshot::clone(&cur) });
    }

    /// Whether a cluster merge has anything to fold: a delta segment or
    /// a tombstone.
    pub(crate) fn has_delta(&self) -> bool {
        let snap = self.state.read();
        !snap.batches.is_empty() || !snap.tombstones.is_empty()
    }
}

impl LiveMirror {
    /// Delta pressure since the last seal or rebuild: `(inserted_rows,
    /// estimated_bytes, tombstones)` — the unsealed batches' rows and
    /// bytes, and the tombstones added since — what [`maybe_merge`]
    /// judges a [`MergePolicy`] against.
    ///
    /// [`maybe_merge`]: LiveMirror::maybe_merge
    pub fn delta_pressure(&self) -> (usize, u64, usize) {
        let snap = self.state.read();
        let unsealed = &snap.batches[snap.sealed..];
        let rows: usize = unsealed.iter().map(|b| b.rows.len()).sum();
        let bytes: u64 = unsealed.iter().flat_map(|b| b.rows.iter()).map(row_bytes).sum();
        (rows, bytes, snap.tombstones.len() - snap.sealed_dead)
    }

    /// Seal or rebuild if (and only if) the delta has outgrown `policy`
    /// since the last seal — the auto-trigger a serving loop calls after
    /// its writes instead of scheduling merges by hand. Returns whether
    /// either ran. A seal folds the unsealed batches into a delta segment
    /// (see the [module docs](self)); once a quarter of the snapshot's
    /// documents are dead, or the delta holds as many rows as the
    /// generation, it is a full [`merge`] instead. Rankings are unaffected
    /// either way: every segment layout and every merged generation rank
    /// bit-identically to a batch re-ingest of the surviving rows.
    ///
    /// [`merge`]: LiveMirror::merge
    pub fn maybe_merge(&self, policy: &MergePolicy) -> RetrievalResult<bool> {
        let (rows, bytes, tombstones) = self.delta_pressure();
        if rows == 0 && tombstones == 0 {
            return Ok(false); // nothing to fold
        }
        if rows >= policy.max_delta_rows
            || bytes >= policy.max_delta_bytes
            || tombstones >= policy.max_tombstones
        {
            let _serialise = self.merge_lock.lock();
            if self.state.read().rebuild_due() {
                self.rebuild()?;
            } else {
                self.seal();
            }
            return Ok(true);
        }
        Ok(false)
    }
}

impl Retriever for LiveMirror {
    fn retrieve(&self, req: &RetrievalRequest) -> RetrievalResult<Vec<RankedResult>> {
        self.pin().retrieve(req)
    }

    fn explain_analyze(&self, req: &RetrievalRequest) -> RetrievalResult<String> {
        self.pin().explain_analyze(req)
    }

    fn n_docs(&self) -> usize {
        self.pin().n_live()
    }
}

impl MutableCorpus for LiveMirror {
    fn insert_rows(&self, rows: Vec<LibraryRow>) -> RetrievalResult<u64> {
        LiveMirror::insert_rows(self, rows)
    }

    fn delete(&self, url: &str) -> RetrievalResult<Option<u64>> {
        LiveMirror::delete(self, url)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Row `i`: a few words of a small vocabulary (every seventh row
    /// unannotated) with a word of its own in every fifth row, so deleting
    /// that row empties a term; visual terms of 24 cluster words; a URL of
    /// its own, except every thirteenth row's, which share one.
    fn row(i: usize) -> LibraryRow {
        const WORDS: &[&str] = &["sunset", "beaches", "forest", "the", "running", "sky", "ocean"];
        let words = (0..2 + i % 5).map(|j| WORDS[(i * 3 + j * 5) % WORDS.len()]);
        let mut text: Vec<String> = words.map(str::to_string).collect();
        if i.is_multiple_of(5) {
            text.push(format!("only{i}"));
        }
        let vterms = (0..1 + i % 9).map(|j| format!("c{}", (i + j * 7) % 24));
        LibraryRow {
            url: if i.is_multiple_of(13) {
                "http://live/dup".into()
            } else {
                format!("http://live/{i}")
            },
            annotation: (!i.is_multiple_of(7)).then(|| text.join(" ")),
            vterms: vterms.collect::<Vec<_>>().join(" "),
            theme: i % 4,
        }
    }

    /// The merged generation's channel indexes and statistics catalog
    /// equal a batch re-ingest's of the surviving rows, value for value —
    /// over a base, insert batches of 1–64 rows (the small ones keep tf
    /// rows), deletes in the base and the delta, a batch deleted whole,
    /// a duplicate URL, and a second merge on top of the first.
    #[test]
    fn merge_folds_to_the_index_and_statistics_of_a_batch_reingest() {
        let config = MirrorConfig::default();
        let base = MirrorDbms::from_rows(config.clone(), (0..60).map(row).collect(), None, None);
        let live = LiveMirror::new(base.unwrap());
        let mut next = 60;
        for round in 0..2 {
            let mut whole = 0..0;
            for size in [1, 7, 64, 3, 30] {
                if size == 3 {
                    whole = next..next + size;
                }
                live.insert_rows((next..next + size).map(row).collect()).unwrap();
                next += size;
            }
            let base = [1, 5, 10, 41].map(|i| i + round);
            let gone = base.into_iter().chain([next - 2, next - 9]).chain(whole);
            for url in gone.map(|i| row(i).url).chain(["http://live/dup".into()]) {
                live.delete(&url).unwrap().expect("a live document");
            }
            live.merge().unwrap();
            let snap = live.pin().snap;
            assert!(snap.batches.is_empty() && snap.tombstones.is_empty());
            let reference =
                MirrorDbms::from_rows(config.clone(), snap.surviving_rows(), None, None).unwrap();
            for (c, field) in ["annotation", "image"].into_iter().enumerate() {
                let want = reference.store().get(&format!("{INTERNAL}__{field}")).unwrap();
                assert_eq!(snap.gen.indexes[c].as_deref(), Some(&*want), "round {round}, {field}");
            }
            assert_eq!(*snap.gen.db.env().stats(), *reference.env().stats(), "round {round}");
            assert_eq!(snap.gen.db.library_rows(), reference.library_rows());
        }
    }

    /// A delete keeps the snapshot's URL column — the rows do not change,
    /// the tombstone masks the dead one — and so does a seal; a filtered
    /// read on either still ranks like a batch re-ingest. An insert starts
    /// a new column.
    #[test]
    fn deletes_and_seals_keep_the_url_column() {
        let config = MirrorConfig::default();
        let base = MirrorDbms::from_rows(config.clone(), (0..40).map(row).collect(), None, None);
        let live = LiveMirror::new(base.unwrap());
        live.insert_rows((40..50).map(row).collect()).unwrap();
        // "e/4" spans the URLs' last '/': "http://live/" + "4…"
        let req = RetrievalRequest::text("sunset forest ocean sky", 60).with_filter("e/4");
        let keyed = |hits: Vec<RankedResult>| -> Vec<(String, f64)> {
            hits.into_iter().map(|h| (h.url, h.score)).collect()
        };
        let read = || {
            let pin = live.pin();
            let rows = pin.surviving_rows();
            let batch = MirrorDbms::from_rows(config.clone(), rows, None, None).unwrap();
            let got = keyed(pin.retrieve(&req).unwrap());
            assert_eq!(got, keyed(batch.retrieve(&req).unwrap()));
            assert!(!got.is_empty() && got.iter().all(|(url, _)| url.contains("e/4")));
            Arc::clone(pin.snap.source.get().expect("a filtered read builds the column"))
        };
        let column = read();
        for i in [4, 41, 44] {
            live.delete(&row(i).url).unwrap().expect("a live document");
        }
        let kept = |what| {
            let now = live.pin().snap.source.get().map(Arc::clone);
            assert!(now.is_some_and(|now| Arc::ptr_eq(&now, &column)), "{what} dropped the column");
        };
        kept("a delete");
        assert!(Arc::ptr_eq(&read(), &column));
        live.seal();
        kept("a seal");
        live.insert_rows(vec![row(50)]).unwrap();
        assert!(live.pin().snap.source.get().is_none(), "an insert starts a new column");
        assert!(!Arc::ptr_eq(&read(), &column));
    }

    /// Writes that race a merge — landing after it pinned its snapshot,
    /// before it takes the writer lock — replay onto the new generation by
    /// the oids they tombstoned, renumbered: a delete in the folded part,
    /// one in a batch inserted during the merge, and a duplicate URL whose
    /// later deletes must keep re-targeting the next-latest copy.
    #[test]
    fn writes_racing_a_merge_replay_onto_the_new_generation() {
        let config = MirrorConfig::default();
        let base = MirrorDbms::from_rows(config.clone(), (0..20).map(row).collect(), None, None);
        let live = LiveMirror::new(base.unwrap());
        live.insert_rows((20..30).map(row).collect()).unwrap();
        live.delete(&row(3).url).unwrap().expect("a live document");
        std::thread::scope(|scope| {
            let mut w = live.writer.lock();
            let merge = scope.spawn(|| live.merge());
            // the merge has pinned its snapshot once it has built a generation
            while live.counters.created.load(Ordering::Relaxed) < 2 {
                std::thread::yield_now();
            }
            live.insert_locked(&mut w, (30..34).map(row).collect(), false).unwrap();
            for url in ["http://live/dup".to_string(), row(31).url, row(5).url] {
                live.delete_locked(&mut w, &url, false).unwrap().expect("a live document");
            }
            drop(w);
            merge.join().expect("the merge thread").unwrap();
        });
        let reference = |gone: &[usize]| {
            let rows = (0..34).filter(|i| !gone.contains(i)).map(row).collect();
            MirrorDbms::from_rows(config.clone(), rows, None, None).unwrap()
        };
        let hits = |r: &dyn Retriever| -> Vec<(String, f64)> {
            let out = r.retrieve(&RetrievalRequest::text("sunset forest only0", 10)).unwrap();
            out.into_iter().map(|h| (h.url, h.score)).collect()
        };
        let want = reference(&[3, 26, 31, 5]);
        assert_eq!(live.pin().surviving_rows(), want.library_rows());
        assert_eq!(hits(&live), hits(&want));
        // the renumbered URL stacks: the next dup deletes are rows 13, then 0
        live.delete("http://live/dup").unwrap().expect("a live document");
        live.merge().unwrap();
        let want = reference(&[3, 26, 31, 5, 13]);
        assert_eq!(live.pin().surviving_rows(), want.library_rows());
        let snap = live.pin().snap;
        for (c, field) in ["annotation", "image"].into_iter().enumerate() {
            let index = want.store().get(&format!("{INTERNAL}__{field}")).unwrap();
            assert_eq!(snap.gen.indexes[c].as_deref(), Some(&*index), "{field}");
        }
        live.delete("http://live/dup").unwrap().expect("a live document");
        assert_eq!(live.pin().surviving_rows(), reference(&[3, 26, 31, 5, 13, 0]).library_rows());
        assert_eq!(live.delete("http://live/dup").unwrap(), None);
    }

    /// A seal keeps its batches' dead documents (masked, at their oids),
    /// and writes that race it — landing after it pinned its snapshot,
    /// before it takes the writer lock — stay in the delta: the batch as
    /// an unsealed batch past the new segment, both as merge pressure.
    #[test]
    fn writes_racing_a_seal_stay_in_the_delta() {
        let config = MirrorConfig::default();
        let base = MirrorDbms::from_rows(config.clone(), (0..40).map(row).collect(), None, None);
        let live = LiveMirror::new(base.unwrap());
        live.insert_rows((40..44).map(row).collect()).unwrap();
        live.insert_rows((44..50).map(row).collect()).unwrap();
        live.delete(&row(42).url).unwrap().expect("a live document");
        let policy = MergePolicy { max_delta_rows: 8, ..MergePolicy::default() };
        std::thread::scope(|scope| {
            let mut w = live.writer.lock();
            let seal = scope.spawn(|| live.maybe_merge(&policy));
            // the seal's pin is the only other reference to the snapshot
            while Arc::strong_count(&live.state.read()) < 2 {
                std::thread::yield_now();
            }
            live.insert_locked(&mut w, (50..53).map(row).collect(), false).unwrap();
            live.delete_locked(&mut w, &row(41).url, false).unwrap().expect("a live document");
            drop(w);
            assert!(seal.join().expect("the seal thread").unwrap());
        });
        let snap = live.pin().snap;
        assert_eq!((snap.gen.number, snap.sealed, snap.batches.len()), (0, 1, 2));
        assert_eq!(snap.batches[0].rows.len(), 10);
        let (rows, _, dead) = live.delta_pressure();
        assert_eq!((rows, dead), (3, 1));
        let rows: Vec<LibraryRow> = (0..53).filter(|i| ![41, 42].contains(i)).map(row).collect();
        let want = MirrorDbms::from_rows(config, rows, None, None).unwrap();
        assert_eq!(live.pin().surviving_rows(), want.library_rows());
        let hits = |r: &dyn Retriever| -> Vec<(String, f64)> {
            let out = r.retrieve(&RetrievalRequest::text("sunset forest only45", 10)).unwrap();
            out.into_iter().map(|h| (h.url, h.score)).collect()
        };
        assert_eq!(hits(&live), hits(&want));
    }
}
