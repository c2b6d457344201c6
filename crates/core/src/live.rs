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
//! * **Delta** — writers append to an uncompressed delta: per-batch
//!   [`ir::delta::DeltaSeg`]s for both evidence channels, the raw
//!   [`LibraryRow`]s, and a tombstone set for deletes. Every query
//!   evaluates base + delta together with tombstones masked in both —
//!   via [`ir::delta::eval_live_channel`], which replicates the kernel's
//!   `getbl` float arithmetic exactly, so every snapshot ranks
//!   bit-identically to a batch re-ingest of its surviving rows.
//! * **Merge** — [`LiveMirror::merge`] folds a snapshot's survivors into
//!   a fresh compressed generation LSM-style (re-cutting posting blocks,
//!   recomputing collection statistics through
//!   [`MirrorDbms::from_rows`]), replays the writes that raced the
//!   rebuild onto the new generation's delta, and swaps atomically.
//!   Writers never block on the rebuild, only on the brief replay+swap.
//! * **Durability** — with a store attached
//!   ([`LiveMirror::create_durable`] / [`LiveMirror::open_durable`]),
//!   every write is appended to a per-operation WAL record *before* it
//!   is applied, and each merge persists the new generation under its
//!   own key prefix before flipping the `live/current` pointer — so a
//!   crash at any write reopens to a consistent state: the old
//!   generation plus replayed delta ops, or the new generation, never a
//!   torn hybrid.
//! * **Scale-out** — [`LiveCluster`] routes inserts/deletes to shards by
//!   URL hash and serves scatter-gather queries with *global* union
//!   statistics, so a quiesced cluster ranks bit-identically to a
//!   single-node [`LiveMirror`] fed the same operations.

use crate::query::{top_k_positive, RankedResult};
use crate::retriever::{RetrievalError, RetrievalResult, Retriever};
use crate::serve::{Channel, RetrievalRequest};
use crate::shard::hash_shard;
use crate::{durable, LibraryRow, MirrorConfig, MirrorDbms, INTERNAL};
use cluster::VisualVocabulary;
use ir::delta::{eval_live_channel, DeltaSeg, LiveStats, LiveTerm};
use ir::text::tokenize_stemmed;
use ir::{InvertedIndex, TopKAccumulator};
use media::{grid_segments, standard_extractors, CrawledImage};
use moa::MoaError;
use monet::fxhash::{FxHashMap, FxHashSet};
use monet::{MonetError, Oid, Store};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use thesaurus::AssociationThesaurus;

/// A backend that accepts online mutation alongside the [`Retriever`]
/// query surface: single-node [`LiveMirror`] and sharded [`LiveCluster`].
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
    ann: Option<Arc<InvertedIndex>>,
    img: Option<Arc<InvertedIndex>>,
    /// Exact token totals per channel (survivor bookkeeping starts here).
    text_total: u64,
    image_total: u64,
    heap_bytes: u64,
    counters: Arc<LiveCounters>,
}

impl Generation {
    fn new(db: MirrorDbms, number: u64, counters: Arc<LiveCounters>) -> Self {
        let ann = db.store().get(&format!("{INTERNAL}__annotation"));
        let img = db.store().get(&format!("{INTERNAL}__image"));
        let channel_total = |idx: &Option<Arc<InvertedIndex>>| -> u64 {
            idx.as_ref().map_or(0, |i| (0..i.n_docs() as Oid).map(|d| i.doc_len(d) as u64).sum())
        };
        let text_total = channel_total(&ann);
        let image_total = channel_total(&img);
        let heap_bytes = ann.as_ref().map_or(0, |i| i.postings_heap_bytes() as u64)
            + img.as_ref().map_or(0, |i| i.postings_heap_bytes() as u64)
            + db.library_rows().iter().map(row_bytes).sum::<u64>();
        counters.created.fetch_add(1, Ordering::Relaxed);
        counters.alive_bytes.fetch_add(heap_bytes, Ordering::Relaxed);
        Generation { db, number, ann, img, text_total, image_total, heap_bytes, counters }
    }
}

impl Drop for Generation {
    fn drop(&mut self) {
        self.counters.retired.fetch_add(1, Ordering::Relaxed);
        self.counters.alive_bytes.fetch_sub(self.heap_bytes, Ordering::Relaxed);
    }
}

/// One insert batch of the delta: the raw rows plus an uncompressed
/// segment per evidence channel, all over global live document ids.
struct DeltaBatch {
    first_doc: Oid,
    rows: Vec<LibraryRow>,
    text: DeltaSeg,
    image: DeltaSeg,
}

/// Approximate heap bytes of one library row — the same estimate
/// generation accounting uses, so policy thresholds and
/// [`GenerationStats::alive_bytes`] speak the same unit.
fn row_bytes(r: &LibraryRow) -> u64 {
    (r.url.len() + r.annotation.as_ref().map_or(0, String::len) + r.vterms.len() + 16) as u64
}

/// Tokens of a row's annotation channel — the exact pipeline
/// `CONTREP<Text>` indexes with (`None` annotations index empty).
fn text_tokens(row: &LibraryRow) -> Vec<String> {
    row.annotation.as_deref().map(tokenize_stemmed).unwrap_or_default()
}

/// Tokens of a row's image channel (visual terms are whitespace-split,
/// never stemmed — the `CONTREP<Image>` pipeline).
fn vis_tokens(row: &LibraryRow) -> Vec<&str> {
    row.vterms.split_whitespace().collect()
}

/// An immutable MVCC snapshot: a pinned generation, the delta batches
/// appended since it was cut, tombstones, and exact union statistics.
/// Every mutation publishes a *new* snapshot (persistent data structure:
/// batches and tombstone sets are shared via [`Arc`]), so a pinned
/// snapshot never observes later writes.
struct LiveSnapshot {
    gen: Arc<Generation>,
    batches: Vec<Arc<DeltaBatch>>,
    tombstones: Arc<FxHashSet<Oid>>,
    /// Per-channel document frequencies lost to tombstones: term → number
    /// of deleted docs containing it. Union df = base + deltas − minus.
    df_minus_text: Arc<HashMap<String, u32>>,
    df_minus_image: Arc<HashMap<String, u32>>,
    n_live: usize,
    text_total: u64,
    image_total: u64,
    seq: u64,
}

#[derive(Clone, Copy)]
enum Ch {
    Text,
    Image,
}

impl LiveSnapshot {
    fn fresh(gen: Arc<Generation>, seq: u64) -> Self {
        LiveSnapshot {
            n_live: gen.db.n_docs(),
            text_total: gen.text_total,
            image_total: gen.image_total,
            gen,
            batches: Vec::new(),
            tombstones: Arc::new(FxHashSet::default()),
            df_minus_text: Arc::new(HashMap::new()),
            df_minus_image: Arc::new(HashMap::new()),
            seq,
        }
    }

    fn end_doc(&self) -> Oid {
        self.batches.last().map_or(self.gen.db.n_docs() as Oid, |b| b.text.end_doc())
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

    /// The surviving rows in arrival order — the corpus a batch re-ingest
    /// of this snapshot would be built from.
    fn surviving_rows(&self) -> Vec<LibraryRow> {
        let mut out = Vec::with_capacity(self.n_live);
        for (i, r) in self.gen.db.library_rows().iter().enumerate() {
            if !self.tombstones.contains(&(i as Oid)) {
                out.push(r.clone());
            }
        }
        for b in &self.batches {
            for (j, r) in b.rows.iter().enumerate() {
                if !self.tombstones.contains(&(b.first_doc + j as Oid)) {
                    out.push(r.clone());
                }
            }
        }
        out
    }

    fn with_insert(&self, rows: Vec<LibraryRow>, seq: u64) -> LiveSnapshot {
        let first = self.end_doc();
        let mut text = DeltaSeg::new(first);
        let mut image = DeltaSeg::new(first);
        for r in &rows {
            text.add_doc(&text_tokens(r));
            image.add_doc(&vis_tokens(r));
        }
        let mut batches = self.batches.clone();
        let n_live = self.n_live + rows.len();
        let text_total = self.text_total + text.total_tokens();
        let image_total = self.image_total + image.total_tokens();
        batches.push(Arc::new(DeltaBatch { first_doc: first, rows, text, image }));
        LiveSnapshot {
            gen: Arc::clone(&self.gen),
            batches,
            tombstones: Arc::clone(&self.tombstones),
            df_minus_text: Arc::clone(&self.df_minus_text),
            df_minus_image: Arc::clone(&self.df_minus_image),
            n_live,
            text_total,
            image_total,
            seq,
        }
    }

    fn with_delete(&self, oid: Oid, seq: u64) -> LiveSnapshot {
        let row = self.row(oid).expect("tombstoned doc exists in the snapshot").clone();
        let tt = text_tokens(&row);
        let vt = vis_tokens(&row);
        let mut tombstones = (*self.tombstones).clone();
        tombstones.insert(oid);
        let mut dmt = (*self.df_minus_text).clone();
        for t in tt.iter().map(String::as_str).collect::<HashSet<_>>() {
            *dmt.entry(t.to_string()).or_insert(0) += 1;
        }
        let mut dmi = (*self.df_minus_image).clone();
        for t in vt.iter().copied().collect::<HashSet<_>>() {
            *dmi.entry(t.to_string()).or_insert(0) += 1;
        }
        LiveSnapshot {
            gen: Arc::clone(&self.gen),
            batches: self.batches.clone(),
            tombstones: Arc::new(tombstones),
            df_minus_text: Arc::new(dmt),
            df_minus_image: Arc::new(dmi),
            n_live: self.n_live - 1,
            text_total: self.text_total - tt.len() as u64,
            image_total: self.image_total - vt.len() as u64,
            seq,
        }
    }

    fn base_index(&self, ch: Ch) -> Option<&InvertedIndex> {
        match ch {
            Ch::Text => self.gen.ann.as_deref(),
            Ch::Image => self.gen.img.as_deref(),
        }
    }

    fn segs(&self, ch: Ch) -> Vec<&DeltaSeg> {
        self.batches
            .iter()
            .map(|b| match ch {
                Ch::Text => &b.text,
                Ch::Image => &b.image,
            })
            .collect()
    }

    /// Union document frequency: base + delta segments − tombstoned docs.
    fn df(&self, ch: Ch, term: &str) -> u32 {
        let base = self.base_index(ch).map_or(0, |i| i.df(term));
        let delta: u32 = self.segs(ch).iter().map(|s| s.df(term)).sum();
        let minus = match ch {
            Ch::Text => &self.df_minus_text,
            Ch::Image => &self.df_minus_image,
        }
        .get(term)
        .copied()
        .unwrap_or(0);
        debug_assert!(minus <= base + delta, "df underflow for {term:?}");
        (base + delta).saturating_sub(minus)
    }

    fn stats(&self, ch: Ch) -> LiveStats {
        let total = match ch {
            Ch::Text => self.text_total,
            Ch::Image => self.image_total,
        };
        LiveStats {
            n_docs: self.n_live,
            avg_dl: if self.n_live == 0 { 0.0 } else { total as f64 / self.n_live as f64 },
        }
    }
}

/// The request, resolved against a snapshot: which channels run with
/// which terms, and how their sums combine. Resolution (thesaurus
/// expansion, empty-visual fallback) happens once — at the cluster edge
/// for sharded execution — so every shard scores the same plan.
pub(crate) struct ResolvedPlan {
    text: Vec<(String, f64)>,
    visual: Vec<(String, f64)>,
    /// `true` = combine `text_sum·text_weight + visual_sum·visual_weight`
    /// per document; `false` = single-channel (whichever side is
    /// non-empty).
    dual: bool,
    text_weight: f64,
    visual_weight: f64,
    filter: Option<String>,
    k: usize,
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

    /// Live (non-tombstoned) documents visible.
    pub fn n_live(&self) -> usize {
        self.snap.n_live
    }

    /// The surviving rows in arrival order — the corpus a quiesced batch
    /// re-ingest of this snapshot would load.
    pub fn surviving_rows(&self) -> Vec<LibraryRow> {
        self.snap.surviving_rows()
    }

    /// Local oids alive in this snapshot, ascending — exactly the
    /// arrival-order compaction a merge of this snapshot applies.
    pub(crate) fn surviving_local_ids(&self) -> Vec<Oid> {
        let mut out = Vec::with_capacity(self.snap.n_live);
        for i in 0..self.snap.gen.db.n_docs() as Oid {
            if !self.snap.tombstones.contains(&i) {
                out.push(i);
            }
        }
        for b in &self.snap.batches {
            for j in 0..b.rows.len() as Oid {
                let oid = b.first_doc + j;
                if !self.snap.tombstones.contains(&oid) {
                    out.push(oid);
                }
            }
        }
        out
    }

    pub(crate) fn df_text(&self, term: &str) -> u32 {
        self.snap.df(Ch::Text, term)
    }

    pub(crate) fn df_image(&self, term: &str) -> u32 {
        self.snap.df(Ch::Image, term)
    }

    /// `(n_live, text_total_tokens, image_total_tokens)` for global-stat
    /// gathering across shards.
    pub(crate) fn totals(&self) -> (usize, u64, u64) {
        (self.snap.n_live, self.snap.text_total, self.snap.image_total)
    }

    /// Resolve a request against this snapshot's thesaurus and config —
    /// the live mirror of `MirrorDbms::compile_request`.
    pub(crate) fn resolve(&self, req: &RetrievalRequest) -> RetrievalResult<ResolvedPlan> {
        let db = &self.snap.gen.db;
        let plan = match req.channel {
            Channel::Text => ResolvedPlan {
                text: req.terms.clone(),
                visual: Vec::new(),
                dual: false,
                text_weight: 1.0,
                visual_weight: 0.0,
                filter: req.filter.clone(),
                k: req.k,
            },
            Channel::Visual => ResolvedPlan {
                text: Vec::new(),
                visual: req.terms.clone(),
                dual: false,
                text_weight: 0.0,
                visual_weight: 1.0,
                filter: req.filter.clone(),
                k: req.k,
            },
            Channel::Dual => {
                let visual = match &req.visual_terms {
                    Some(v) => v.clone(),
                    None => {
                        let th = db.thesaurus().ok_or_else(|| {
                            RetrievalError::Compile(MoaError::Unknown(
                                "thesaurus (ingest first)".into(),
                            ))
                        })?;
                        th.expand(
                            &req.terms,
                            db.config().expand_per_term,
                            db.config().expand_max_terms,
                        )
                    }
                };
                if visual.is_empty() {
                    // no visual evidence: single-channel text ranking
                    ResolvedPlan {
                        text: req.terms.clone(),
                        visual: Vec::new(),
                        dual: false,
                        text_weight: 1.0,
                        visual_weight: 0.0,
                        filter: req.filter.clone(),
                        k: req.k,
                    }
                } else {
                    ResolvedPlan {
                        text: req.terms.clone(),
                        visual,
                        dual: true,
                        text_weight: 1.0 - req.mix,
                        visual_weight: req.mix,
                        filter: req.filter.clone(),
                        k: req.k,
                    }
                }
            }
        };
        Ok(plan)
    }

    /// Resolve one side of the plan into live terms using this snapshot's
    /// own (single-node) union dfs.
    fn local_terms(&self, terms: &[(String, f64)], ch: Ch) -> Vec<LiveTerm> {
        terms
            .iter()
            .map(|(t, w)| LiveTerm { term: t.clone(), weight: *w, df: self.snap.df(ch, t) })
            .collect()
    }

    /// Evaluate a resolved plan with explicit (possibly cluster-global)
    /// term dfs and statistics. Returns ranked hits: positive scores
    /// only, sorted by score descending with ascending-oid tie-break,
    /// truncated to the plan's k — exactly the `ranked()` post-pass.
    pub(crate) fn eval_resolved(
        &self,
        plan: &ResolvedPlan,
        text_q: &[LiveTerm],
        vis_q: &[LiveTerm],
        text_stats: LiveStats,
        vis_stats: LiveStats,
    ) -> Vec<RankedResult> {
        let snap = &self.snap;
        let params = snap.gen.db.store().params();
        let domain: Option<FxHashSet<Oid>> = plan.filter.as_deref().map(|pattern| {
            let mut dom = FxHashSet::default();
            for (i, r) in snap.gen.db.library_rows().iter().enumerate() {
                if r.url.contains(pattern) {
                    dom.insert(i as Oid);
                }
            }
            for b in &snap.batches {
                for (j, r) in b.rows.iter().enumerate() {
                    if r.url.contains(pattern) {
                        dom.insert(b.first_doc + j as Oid);
                    }
                }
            }
            dom
        });
        let eval_channel = |q: &[LiveTerm], ch: Ch, stats: LiveStats| -> FxHashMap<Oid, f64> {
            if q.is_empty() {
                return FxHashMap::default();
            }
            eval_live_channel(
                snap.base_index(ch),
                &snap.segs(ch),
                params,
                q,
                stats,
                &snap.tombstones,
                domain.as_ref(),
            )
        };
        let scores: FxHashMap<Oid, f64> = if plan.dual {
            let t_scores = eval_channel(text_q, Ch::Text, text_stats);
            let v_scores = eval_channel(vis_q, Ch::Image, vis_stats);
            // the engine scores every candidate as
            // (text_sum · tw) + (vis_sum · vw), a missing channel
            // contributing 0.0 — replicate the exact expression
            let mut out = FxHashMap::default();
            for (&doc, &t) in &t_scores {
                let v = v_scores.get(&doc).copied().unwrap_or(0.0);
                out.insert(doc, t * plan.text_weight + v * plan.visual_weight);
            }
            for (&doc, &v) in &v_scores {
                if !t_scores.contains_key(&doc) {
                    out.insert(doc, 0.0 * plan.text_weight + v * plan.visual_weight);
                }
            }
            out
        } else if !plan.text.is_empty() {
            eval_channel(text_q, Ch::Text, text_stats)
        } else {
            eval_channel(vis_q, Ch::Image, vis_stats)
        };
        top_k_positive(scores, plan.k)
            .into_iter()
            .map(|(oid, score)| RankedResult {
                oid,
                url: snap.row(oid).expect("scored doc exists").url.clone(),
                score,
            })
            .collect()
    }

    /// Execute a request against this snapshot (single-node statistics).
    /// With an empty delta and no tombstones the request is delegated to
    /// the pinned generation's engine — the fused `topk_bl` fast path.
    pub fn retrieve(&self, req: &RetrievalRequest) -> RetrievalResult<Vec<RankedResult>> {
        req.validate()?;
        if self.snap.batches.is_empty() && self.snap.tombstones.is_empty() {
            return self.snap.gen.db.retrieve(req);
        }
        let plan = self.resolve(req)?;
        let text_q = self.local_terms(&plan.text, Ch::Text);
        let vis_q = self.local_terms(&plan.visual, Ch::Image);
        Ok(self.eval_resolved(
            &plan,
            &text_q,
            &vis_q,
            self.snap.stats(Ch::Text),
            self.snap.stats(Ch::Image),
        ))
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

struct WriterState {
    /// URL → live oids of every document with that URL, in arrival order
    /// (latest last). `delete` pops the latest; duplicate-URL inserts
    /// stack, so deleting one re-targets the next-latest — the same
    /// answer before and after any merge. Updates are delete + insert.
    url_to_oids: HashMap<String, Vec<Oid>>,
    /// Writes since the state the current generation was folded from —
    /// what a racing merge replays onto the new generation.
    op_log: Vec<(u64, WriteOp)>,
}

/// Pop the latest live oid for `url` from a URL stack map, dropping the
/// entry when its stack empties.
fn pop_url(map: &mut HashMap<String, Vec<Oid>>, url: &str) -> Option<Oid> {
    let stack = map.get_mut(url)?;
    let oid = stack.pop();
    if stack.is_empty() {
        map.remove(url);
    }
    oid
}

/// Thresholds that trigger an automatic LSM merge — the knobs a serving
/// deployment turns to trade write amplification (frequent merges) for
/// query overhead (a deep uncompressed delta scanned on every request).
/// A merge fires as soon as *any* threshold is met.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergePolicy {
    /// Merge once the delta holds at least this many inserted rows.
    pub max_delta_rows: usize,
    /// Merge once the delta's rows span at least this many (estimated)
    /// heap bytes — the same per-row estimate
    /// [`GenerationStats::alive_bytes`] accounts with.
    pub max_delta_bytes: u64,
    /// Merge once at least this many documents are tombstoned (deletes
    /// are pure query-time overhead until a merge compacts them away).
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
    /// Serialises merges (the rebuild itself runs without the writer
    /// lock, so ingest streams during a merge).
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
    /// live corpus.
    pub fn new(db: MirrorDbms) -> Self {
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
        durable::save_instance(&db, &store, &durable::live_gen_prefix(0))?;
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
    pub fn open_durable(store: Arc<Store>) -> RetrievalResult<Self> {
        let Some((gen_no, base_seq)) = durable::live_pointer(&store)? else {
            return Err(RetrievalError::IncompleteState {
                detail: "no live/current pointer — the live store was never initialised".into(),
            });
        };
        let db = durable::open_instance(&store, &durable::live_gen_prefix(gen_no))?;
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
        w.op_log.push((seq, WriteOp::Insert(rows)));
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
        pop_url(&mut w.url_to_oids, url);
        let next = snap.with_delete(oid, seq);
        w.op_log.push((seq, WriteOp::Delete(url.to_string())));
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
        let extractors = standard_extractors();
        let rows: Vec<LibraryRow> = images
            .iter()
            .map(|c| {
                let mut vterms: Vec<String> = Vec::new();
                for seg in grid_segments(&c.image, self.config.grid) {
                    for ex in &extractors {
                        let v = ex.extract(&seg.image).into_values();
                        if let Some(term) = vocab.term_of(ex.space(), &v) {
                            vterms.push(term);
                        }
                    }
                }
                LibraryRow {
                    url: c.url.clone(),
                    annotation: c.annotation.clone(),
                    vterms: vterms.join(" "),
                    theme: c.theme,
                }
            })
            .collect();
        self.insert_rows(rows)
    }

    /// Tombstone the latest live document with this URL; returns its
    /// write sequence, or `None` if no live document matches.
    pub fn delete(&self, url: &str) -> RetrievalResult<Option<u64>> {
        let mut w = self.writer.lock();
        self.delete_locked(&mut w, url, true)
    }

    /// Fold the delta into a fresh compressed generation (LSM merge):
    /// pin a snapshot, rebuild a [`MirrorDbms`] from its survivors
    /// (posting blocks re-cut, statistics recomputed) *without blocking
    /// writers*, then briefly take the writer lock to replay the ops that
    /// raced the rebuild and swap the new generation in. Old generations
    /// retire as soon as the last reader unpins them. With a durable
    /// store the new generation is persisted under its own prefix and
    /// `live/current` flips only after it is complete — a crash anywhere
    /// leaves the old generation (plus its WAL ops) authoritative.
    pub fn merge(&self) -> RetrievalResult<()> {
        let _serialise = self.merge_lock.lock();
        let snap = Arc::clone(&self.state.read());
        let survivors = snap.surviving_rows();
        let vocab = snap.gen.db.vocabulary().cloned();
        let thes = snap.gen.db.thesaurus().cloned();
        let new_db = MirrorDbms::from_rows(self.config.clone(), survivors, vocab, thes)
            .map_err(RetrievalError::from)?;
        let new_no = snap.gen.number + 1;
        if let Some(store) = self.store.lock().as_ref() {
            durable::save_instance(&new_db, store, &durable::live_gen_prefix(new_no))?;
        }
        let new_gen = Arc::new(Generation::new(new_db, new_no, Arc::clone(&self.counters)));

        let mut w = self.writer.lock();
        let cur = Arc::clone(&self.state.read());
        let mut next = LiveSnapshot::fresh(Arc::clone(&new_gen), snap.seq);
        let mut url_map: HashMap<String, Vec<Oid>> = HashMap::new();
        for (i, r) in new_gen.db.library_rows().iter().enumerate() {
            url_map.entry(r.url.clone()).or_default().push(i as Oid);
        }
        let mut kept = Vec::new();
        for (seq, op) in &w.op_log {
            let seq = *seq;
            if seq <= snap.seq {
                continue; // folded into the new generation
            }
            match op {
                WriteOp::Insert(rows) => {
                    let first = next.end_doc();
                    for (j, r) in rows.iter().enumerate() {
                        url_map.entry(r.url.clone()).or_default().push(first + j as Oid);
                    }
                    next = next.with_insert(rows.clone(), seq);
                }
                WriteOp::Delete(url) => {
                    if let Some(oid) = pop_url(&mut url_map, url) {
                        next = next.with_delete(oid, seq);
                    }
                }
            }
            kept.push((seq, op.clone()));
        }
        debug_assert_eq!(next.seq, cur.seq, "merge replay must land on the current sequence");
        // the pointer flip is the last fallible step: only after it
        // succeeds do we commit the remapped writer state and the new
        // snapshot together — an Err return leaves writer + state
        // untouched and still mutually consistent on the old generation
        if let Some(store) = self.store.lock().as_ref() {
            durable::live_set_pointer(store, new_no, snap.seq)?;
        }
        w.op_log = kept;
        w.url_to_oids = url_map;
        *self.state.write() = Arc::new(next);
        Ok(())
    }
}

impl LiveMirror {
    /// Current delta pressure: `(inserted_rows, estimated_bytes,
    /// tombstones)` of the live snapshot — what [`maybe_merge`]
    /// judges a [`MergePolicy`] against.
    ///
    /// [`maybe_merge`]: LiveMirror::maybe_merge
    pub fn delta_pressure(&self) -> (usize, u64, usize) {
        let snap = Arc::clone(&self.state.read());
        let rows: usize = snap.batches.iter().map(|b| b.rows.len()).sum();
        let bytes: u64 = snap.batches.iter().flat_map(|b| b.rows.iter()).map(row_bytes).sum();
        (rows, bytes, snap.tombstones.len())
    }

    /// Merge if (and only if) the delta has outgrown `policy` — the
    /// auto-trigger a serving loop calls after its writes instead of
    /// scheduling merges by hand. Returns whether a merge ran. Rankings
    /// are unaffected either way: a merged generation is bit-identical
    /// to the delta-evaluated snapshot it folded (the [`merge`]
    /// contract).
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
            self.merge()?;
            return Ok(true);
        }
        Ok(false)
    }
}

impl Retriever for LiveMirror {
    fn retrieve(&self, req: &RetrievalRequest) -> RetrievalResult<Vec<RankedResult>> {
        self.pin().retrieve(req)
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

struct ClusterWriteState {
    /// Per shard, the global arrival id of each local document.
    local_to_global: Vec<Vec<Oid>>,
    next_global: Oid,
    writes: u64,
}

/// A sharded live corpus: per-shard [`LiveMirror`]s behind URL-hash
/// routing, queried scatter-gather with *global* union statistics and
/// document frequencies, so a quiesced cluster ranks bit-identically to
/// a single [`LiveMirror`] fed the same operations — for any shard
/// count. Under concurrent writes each query sees a consistent snapshot
/// *per shard* (cross-shard skew of in-flight writes is possible, as in
/// any scatter-gather system without a global commit point).
pub struct LiveCluster {
    shards: Vec<Arc<LiveMirror>>,
    inner: Mutex<ClusterWriteState>,
}

impl LiveCluster {
    /// Stand up an empty live cluster whose shards share a vocabulary
    /// and thesaurus (built by a previous batch ingest — the online
    /// pipeline quantises against a fixed vocabulary, like the paper's
    /// incremental WebRobot feeding a trained clustering).
    pub fn new(
        shards: usize,
        config: MirrorConfig,
        vocab: Option<VisualVocabulary>,
        thesaurus: Option<AssociationThesaurus>,
    ) -> RetrievalResult<Self> {
        assert!(shards >= 1, "a cluster needs at least one shard");
        let mut nodes = Vec::with_capacity(shards);
        for _ in 0..shards {
            let db =
                MirrorDbms::from_rows(config.clone(), Vec::new(), vocab.clone(), thesaurus.clone())
                    .map_err(RetrievalError::from)?;
            nodes.push(Arc::new(LiveMirror::new(db)));
        }
        Ok(LiveCluster {
            shards: nodes,
            inner: Mutex::new(ClusterWriteState {
                local_to_global: vec![Vec::new(); shards],
                next_global: 0,
                writes: 0,
            }),
        })
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Direct access to a shard (inspection and tests). Do not *write*
    /// through this handle — cluster routing only tracks writes that go
    /// through the cluster's own [`MutableCorpus`] surface.
    pub fn shard(&self, i: usize) -> &Arc<LiveMirror> {
        &self.shards[i]
    }

    /// Merge every shard's delta into a fresh generation. Holds the
    /// routing lock, so cluster writes quiesce while each shard folds and
    /// the routing table is compacted to the surviving local ids.
    pub fn merge_all(&self) -> RetrievalResult<()> {
        let mut inner = self.inner.lock();
        for (s, shard) in self.shards.iter().enumerate() {
            let live = shard.pin().surviving_local_ids();
            shard.merge()?;
            let old = std::mem::take(&mut inner.local_to_global[s]);
            inner.local_to_global[s] = live.iter().map(|&l| old[l as usize]).collect();
        }
        Ok(())
    }
}

impl Retriever for LiveCluster {
    fn retrieve(&self, req: &RetrievalRequest) -> RetrievalResult<Vec<RankedResult>> {
        req.validate()?;
        // pin every shard and read the routing table under one critical
        // section: writes hold this lock across their shard appends and
        // merge_all holds it while compacting local_to_global, so the
        // pinned snapshots and the routing rows are a consistent cut —
        // every local oid a pin can surface has a routing entry in the
        // same (pre- or post-merge) oid space
        let (pins, routing) = {
            let inner = self.inner.lock();
            let pins: Vec<LiveReader> = self.shards.iter().map(|s| s.pin()).collect();
            let routing = inner.local_to_global.clone();
            (pins, routing)
        };
        if pins.len() == 1 {
            // one shard: local ids are global ids, local stats are global
            return pins[0].retrieve(req);
        }
        let plan = pins[0].resolve(req)?;
        let (n_live, text_total, image_total) =
            pins.iter().fold((0usize, 0u64, 0u64), |(n, t, v), p| {
                let (pn, pt, pv) = p.totals();
                (n + pn, t + pt, v + pv)
            });
        let avg = |total: u64| if n_live == 0 { 0.0 } else { total as f64 / n_live as f64 };
        let text_stats = LiveStats { n_docs: n_live, avg_dl: avg(text_total) };
        let vis_stats = LiveStats { n_docs: n_live, avg_dl: avg(image_total) };
        let text_q: Vec<LiveTerm> = plan
            .text
            .iter()
            .map(|(t, w)| LiveTerm {
                term: t.clone(),
                weight: *w,
                df: pins.iter().map(|p| p.df_text(t)).sum(),
            })
            .collect();
        let vis_q: Vec<LiveTerm> = plan
            .visual
            .iter()
            .map(|(t, w)| LiveTerm {
                term: t.clone(),
                weight: *w,
                df: pins.iter().map(|p| p.df_image(t)).sum(),
            })
            .collect();
        let shard_hits: Vec<Vec<RankedResult>> = std::thread::scope(|scope| {
            let handles: Vec<_> = pins
                .iter()
                .map(|p| {
                    let (plan, text_q, vis_q) = (&plan, &text_q, &vis_q);
                    scope.spawn(move || p.eval_resolved(plan, text_q, vis_q, text_stats, vis_stats))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("shard evaluation panicked")).collect()
        });
        let mut acc = TopKAccumulator::new(plan.k);
        let mut urls: FxHashMap<Oid, String> = FxHashMap::default();
        for (s, hits) in shard_hits.iter().enumerate() {
            for h in hits {
                let global = routing[s][h.oid as usize];
                urls.insert(global, h.url.clone());
                acc.push(global, h.score);
            }
        }
        Ok(acc
            .into_ranked()
            .into_iter()
            .map(|(oid, score)| RankedResult {
                oid,
                url: urls.get(&oid).expect("merged hit has a url").clone(),
                score,
            })
            .collect())
    }

    fn n_docs(&self) -> usize {
        self.shards.iter().map(|s| s.pin().n_live()).sum()
    }
}

impl MutableCorpus for LiveCluster {
    fn insert_rows(&self, rows: Vec<LibraryRow>) -> RetrievalResult<u64> {
        let n = self.shards.len();
        let mut inner = self.inner.lock();
        let mut per_shard: Vec<Vec<LibraryRow>> = vec![Vec::new(); n];
        let mut added: Vec<Vec<Oid>> = vec![Vec::new(); n];
        let mut g = inner.next_global;
        for r in rows {
            let s = hash_shard(&r.url, n);
            added[s].push(g);
            g += 1;
            per_shard[s].push(r);
        }
        // global ids are assigned up front (gaps from a failed batch are
        // harmless — ids only need to be unique and monotonic), but each
        // shard's routing entries commit only after its append succeeds,
        // so a failed shard insert never leaves phantom routing rows.
        // The routing lock is held across the shard appends so concurrent
        // cluster writes cannot interleave shard-local arrival order.
        inner.next_global = g;
        for (s, batch) in per_shard.into_iter().enumerate() {
            if !batch.is_empty() {
                self.shards[s].insert_rows(batch)?;
                inner.local_to_global[s].append(&mut added[s]);
            }
        }
        inner.writes += 1;
        Ok(inner.writes)
    }

    fn delete(&self, url: &str) -> RetrievalResult<Option<u64>> {
        let mut inner = self.inner.lock();
        let s = hash_shard(url, self.shards.len());
        match self.shards[s].delete(url)? {
            Some(_) => {
                inner.writes += 1;
                Ok(Some(inner.writes))
            }
            None => Ok(None),
        }
    }
}
