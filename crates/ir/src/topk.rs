//! Streaming top-k belief evaluation with block-max pruning.
//!
//! The materialise-then-sort retrieval path computes a belief for *every*
//! document, groups, sorts, and only then keeps the best k — a full pass of
//! floating-point work for results that are mostly thrown away. This module
//! is the score-at-a-time alternative the serving layer fuses into plans:
//!
//! * a [`TopKAccumulator`] — a bounded heap that keeps the k best
//!   `(oid, score)` pairs (score descending, ties broken by ascending oid,
//!   exactly like the facade's sort) and exposes the current admission
//!   threshold;
//! * [`topk_channels`] — a block-max MaxScore document-at-a-time merge
//!   over the *compressed* postings ([`crate::postings::PostingList`]) of
//!   every query term of N weighted **channels**, each a list of
//!   [`InvertedIndex`] *segments* over the same collection with its own
//!   terms and channel weight. One channel is the paper's
//!   `map[sum(THIS)](map[getBL(…)])` ranking; two are dual coding and
//!   relevance feedback, `sum(getBL(text))·(1−mix) + sum(getBL(image))·mix`.
//!
//!   **Bounds are channel-aware.** A term's contribution bound is its
//!   channel-weighted belief lift over α ([`BeliefParams::belief_bound`],
//!   from a list's or a block's greatest tf and least `dl/tf`). A
//!   document that matches no term of channel `c` gets exactly `0.0` from
//!   it (the grouped sum's zero fill), so its bound carries `weight_c·α`
//!   only for the channels whose lists it may match. For dual coding this
//!   takes `(1−mix)·α` off every visual-only document.
//!
//!   **The MaxScore split** (Turtle & Flood). Lists are sorted by their
//!   list-level bound; whenever the threshold θ rises, the longest prefix
//!   whose combined bound stays below θ becomes *non-essential*. A
//!   document that matches only non-essential lists cannot enter the top
//!   k, so candidates come from the essential lists alone — the dense,
//!   low-idf visual lists of a dual request stop driving the walk once θ
//!   passes their combined bound, and they are probed by seek, not
//!   walked. Each candidate faces three checks before it is scored: (1)
//!   the block-max bound (Ding & Suel) of the essential cursors on it,
//!   with the non-essential lists by their list bound and then, tighter,
//!   by the block that may hold the candidate (found from metadata, with
//!   no decode; a list already past the candidate adds nothing) — a
//!   failure prunes the whole range up to the first block end or next
//!   list document, and the cursors leap there, so blocks are passed
//!   undecoded; (2) the exact beliefs of the essential cursors plus those
//!   non-essential block bounds — a failure steps past the candidate
//!   without decoding a non-essential block; (3) the non-essential
//!   cursors seek to the candidate and it is scored **in the same
//!   floating-point order as the materialise path** — each channel's
//!   grouped sum in query order, times its weight, channels added left to
//!   right, never in bound order — so results are bit-identical.
//!
//!   **A seeded threshold.** Until the accumulator holds k documents, a
//!   segment's walk over at least `SEED_MIN_SPAN` (2 048) documents first
//!   scores, exactly and by seek, the documents of the query lists that
//!   fit in one block — rarest list first, until k of them are in hand —
//!   and takes the k-th best as a floor under θ. Every skip still needs
//!   `bound + margin < θ`, and the floor is a real k-th score, so no
//!   document that belongs in the top k is skipped; the walk then starts
//!   with its rare-term hits already known instead of scoring its way up
//!   from `-∞`.
//!
//!   **Work counters** ([`TopKOutcome`]): `scored` counts fully scored
//!   documents, the seeds included; `blocks_skipped` counts blocks passed
//!   without decoding; `pruned` counts candidate ranges discarded by a
//!   bound — one per range a failed block-max check leaps over, and one
//!   per candidate failed by its essential lists' exact beliefs (a
//!   one-document range);
//! * segments: a channel's index is an ordered list of ordinary
//!   block-compressed indexes over disjoint doc-id ranges (a live
//!   snapshot's base generation, then one per delta batch). The walk
//!   visits them in order with one shared accumulator, so the threshold
//!   learned on the base prunes the deltas. Collection statistics and
//!   per-term document frequencies are inputs, not properties of the
//!   layout (union statistics for a live snapshot, global ones for a
//!   shard), and a tombstone mask drops deleted documents beside the
//!   domain filter;
//! * [`topk_beliefs`] — the one-channel, one-segment case (weight `1.0`).
//!
//! A walk runs on the thread that calls it: the serving layer's worker
//! pool is the one level of parallelism.

use crate::belief::BeliefParams;
use crate::index::{CollectionStats, InvertedIndex};
use crate::postings::{PostingList, BLOCK_LEN};
use crate::tombstones::Tombstones;
use monet::fxhash::FxHashSet;
use monet::Oid;
use std::cmp::Ordering;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Safety margin added to the pruning bound: the bound is sound in exact
/// arithmetic, and the margin dwarfs the worst-case floating-point rounding
/// of the few dozen operations behind each score.
const PRUNE_MARGIN: f64 = 1e-9;

/// Segments shorter than this many documents are walked without a seeded
/// threshold: over a few blocks the walk's own threshold arrives within a
/// few candidates, and seeding would only score documents twice.
const SEED_MIN_SPAN: usize = 16 * BLOCK_LEN;

/// A ranked entry; `Ord` is "better": greater score first, ties broken by
/// the smaller oid (the facade's ranking order).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    score: f64,
    oid: Oid,
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score.total_cmp(&other.score).then_with(|| other.oid.cmp(&self.oid))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A bounded min-heap keeping the k best `(oid, score)` pairs seen so far.
#[derive(Debug, Clone, Default)]
pub struct TopKAccumulator {
    k: usize,
    heap: BinaryHeap<Reverse<Entry>>,
}

impl TopKAccumulator {
    /// Create an accumulator with capacity `k`.
    pub fn new(k: usize) -> Self {
        TopKAccumulator { k, heap: BinaryHeap::with_capacity(k.min(1024) + 1) }
    }

    /// Number of entries currently held (≤ k).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no entry is held.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// True when the accumulator holds k entries — from then on a candidate
    /// must beat [`threshold`](Self::threshold) to enter.
    pub fn is_full(&self) -> bool {
        self.heap.len() >= self.k
    }

    /// The admission threshold: the k-th best score so far. `-∞` while the
    /// accumulator is not yet full (everything is admitted), `+∞` for k = 0
    /// (nothing ever is). A candidate with an upper bound strictly below
    /// this value can be skipped without scoring.
    pub fn threshold(&self) -> f64 {
        if self.k == 0 {
            return f64::INFINITY;
        }
        if self.heap.len() < self.k {
            return f64::NEG_INFINITY;
        }
        self.heap.peek().map_or(f64::NEG_INFINITY, |Reverse(e)| e.score)
    }

    /// Offer a candidate; returns true if it entered the top k.
    pub fn push(&mut self, oid: Oid, score: f64) -> bool {
        if self.k == 0 {
            return false;
        }
        let e = Entry { score, oid };
        if self.heap.len() < self.k {
            self.heap.push(Reverse(e));
            return true;
        }
        match self.heap.peek() {
            Some(Reverse(worst)) if e > *worst => {
                self.heap.pop();
                self.heap.push(Reverse(e));
                true
            }
            _ => false,
        }
    }

    /// Consume the accumulator, returning the entries in rank order
    /// (score descending, ties by ascending oid).
    pub fn into_ranked(self) -> Vec<(Oid, f64)> {
        self.heap.into_sorted_vec().into_iter().map(|Reverse(e)| (e.oid, e.score)).collect()
    }
}

/// One weighted evidence channel of a fused ranking: a content
/// representation as index segments, the channel's weighted query terms
/// with the statistics they are scored with, and the weight its belief sum
/// carries in the combined score.
#[derive(Debug, Clone)]
pub struct TopKChannel<'a> {
    /// The channel's index segments as `(first_doc, index)`: ordinary
    /// indexes over disjoint doc-id ranges in ascending order, local doc
    /// `d` of a segment being global doc `first_doc + d`. Every channel of
    /// one request covers the same collection cut at the same `first_doc`s
    /// (a live snapshot's batches cut both evidence channels alike), so
    /// segment ids and global ids agree across channels.
    pub segments: Vec<(Oid, &'a InvertedIndex)>,
    /// Weighted query terms in query order, each with the document
    /// frequency its belief is scored with.
    pub query: Vec<(&'a str, f64, u32)>,
    /// The collection statistics beliefs are scored with (`n_docs` and
    /// `avg_dl` are read).
    pub stats: CollectionStats,
    /// Multiplier of the channel's belief sum; finite and ≥ 0.
    pub weight: f64,
}

impl<'a> TopKChannel<'a> {
    /// A channel over one self-contained index, scored with the index's
    /// own statistics and dfs.
    pub fn whole(index: &'a InvertedIndex, query: &[(&'a str, f64)], weight: f64) -> Self {
        TopKChannel {
            segments: vec![(0, index)],
            query: query.iter().map(|&(t, w)| (t, w, index.df(t))).collect(),
            stats: index.stats(),
            weight,
        }
    }
}

/// What one channel did during a top-k run — EXPLAIN's per-channel split.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelWork {
    /// This channel's postings scored: one per matching query term of
    /// every fully scored document.
    pub scored_postings: u64,
    /// Candidates (or candidate ranges) pruned by a bound while one of
    /// this channel's essential lists was on the candidate — see
    /// [`TopKOutcome::pruned`].
    pub pruned: u64,
    /// This channel's compressed blocks passed over without decoding.
    pub blocks_skipped: u64,
    /// This channel's postings passed over without scoring their document
    /// — cursor leaps inside decoded blocks plus everything inside skipped
    /// blocks.
    pub skipped_postings: u64,
}

impl ChannelWork {
    fn add(&mut self, other: &ChannelWork) {
        self.scored_postings += other.scored_postings;
        self.pruned += other.pruned;
        self.blocks_skipped += other.blocks_skipped;
        self.skipped_postings += other.skipped_postings;
    }
}

/// What a [`topk_channels`] (or [`topk_beliefs`]) run did.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKOutcome {
    /// The k best `(oid, score)` pairs in rank order.
    pub hits: Vec<(Oid, f64)>,
    /// Ranges of candidates discarded by a bound before scoring: one count
    /// per range pruned by the block-max check (the block bounds proved
    /// every document from the candidate to the leap target under the
    /// threshold without unpacking a tf, however many documents it spans),
    /// and one per candidate pruned by the exact beliefs of its essential
    /// lists — a one-document range.
    pub pruned: u64,
    /// Candidate documents fully scored, the seeds of the threshold floor
    /// included (a seed the walk scores again counts twice).
    pub scored: u64,
    /// Compressed blocks passed over without decoding, over all channels.
    pub blocks_skipped: u64,
    /// Postings passed over without scoring their document, over all
    /// channels.
    pub skipped_postings: u64,
    /// The work split by channel, in channel order.
    pub channels: Vec<ChannelWork>,
    /// Candidate documents fully scored, per segment in segment order.
    pub segments: Vec<u64>,
}

impl TopKOutcome {
    pub(crate) fn empty(n_channels: usize, n_segments: usize) -> TopKOutcome {
        TopKOutcome {
            hits: Vec::new(),
            pruned: 0,
            scored: 0,
            blocks_skipped: 0,
            skipped_postings: 0,
            channels: vec![ChannelWork::default(); n_channels],
            segments: vec![0; n_segments],
        }
    }

    /// Add another run's work — by channel, and by segment where both
    /// cut the same segments — to this one's.
    pub(crate) fn absorb(&mut self, other: &TopKOutcome) {
        self.pruned += other.pruned;
        self.scored += other.scored;
        self.blocks_skipped += other.blocks_skipped;
        self.skipped_postings += other.skipped_postings;
        for (total, w) in self.channels.iter_mut().zip(&other.channels) {
            total.add(w);
        }
        for (total, n) in self.segments.iter_mut().zip(&other.segments) {
            *total += n;
        }
    }
}

/// Per-channel request state, resolved once per request.
struct ChanInfo<'a> {
    segments: &'a [(Oid, &'a InvertedIndex)],
    stats: CollectionStats,
    total_w: f64,
    weight: f64,
}

impl ChanInfo<'_> {
    /// A term's greatest possible contribution to the combined score
    /// beyond this channel's default belief, given its belief `bound`:
    /// `weight · w · (bound − α) / Σw`.
    fn cbound(&self, params: BeliefParams, w: f64, bound: f64) -> f64 {
        self.weight * (w * (bound - params.alpha) / self.total_w).max(0.0)
    }
}

/// Per-query-term request state, resolved once per request.
struct TermInfo<'a> {
    term: &'a str,
    chan: usize,
    w: f64,
    df: u32,
    /// The term's [`BeliefParams::nidf`], computed once per request.
    nidf: f64,
    /// `weight·w/Σw`: what a belief lift `b − α` is worth in the combined
    /// score.
    scale: f64,
}

/// A request resolved once and shared by every segment: its
/// channels and terms, and what deciding a skip needs.
struct Request<'a, 'r> {
    chans: Vec<ChanInfo<'a>>,
    terms: Vec<TermInfo<'a>>,
    params: BeliefParams,
    /// Per [`Part`] channel bit: the `max(0, weight·α)` shares of its
    /// channels.
    shares: Vec<f64>,
    domain: Option<&'r FxHashSet<Oid>>,
    tombstones: Option<&'r Tombstones>,
}

impl Request<'_, '_> {
    /// True when global document `doc` is outside the domain or deleted.
    fn dropped(&self, doc: Oid) -> bool {
        self.domain.is_some_and(|d| !d.contains(&doc))
            || self.tombstones.is_some_and(|t| t.contains(doc))
    }

    /// The channel-aware bound of a document from two parts: their sums,
    /// plus the `weight·α` share of every channel the document may match
    /// through them. One it cannot match adds exactly the zero fill.
    /// Every sum is at least 0, so a share below 0 (a negative α) can be
    /// counted as 0 and the bound stays sound.
    #[inline]
    fn bound(&self, a: Part, b: Part) -> f64 {
        let mut bound = a.sum + b.sum;
        let mut live = a.live | b.live;
        while live != 0 {
            bound += self.shares[live.trailing_zeros() as usize];
            live &= live - 1;
        }
        bound
    }
}

/// Contributions to a document's bound from some of its lists: their
/// summed contribution bounds (each at least 0), and the channels whose
/// lists they are — the channels the document may match through them.
#[derive(Debug, Clone, Copy, Default)]
struct Part {
    sum: f64,
    /// Channel `c` is bit `min(c, 63)`: channels past 62 share the last
    /// bit, whose α share is all of theirs.
    live: u64,
}

impl Part {
    #[inline]
    fn add(&mut self, chan: usize, bound: f64) {
        self.sum += bound;
        self.live |= 1 << chan.min(63);
    }
}

/// A streaming cursor over one term's compressed postings in one segment,
/// over the segment's local doc ids. The cursor is either *parked* at the
/// first document of an undecoded block (known exactly from the block
/// metadata — no decode needed to stand still) or positioned inside a
/// decoded block. Invariant: the list holds
/// no unconsumed document below `cur_doc`.
struct Cursor<'a> {
    list: &'a PostingList,
    chan: usize,
    w: f64,
    nidf: f64,
    scale: f64,
    /// List-level score-contribution bound (the MaxScore split's currency).
    cbound: f64,
    block: usize,
    idx: usize,
    decoded: bool,
    docs: Vec<Oid>,
    tfs: Vec<u32>,
    cur_doc: Oid,
    exhausted: bool,
    /// Lazily computed block-level contribution bound for `cached_block`.
    cached_block: usize,
    cached_cb: f64,
    /// This cursor's share of its channel's work (`pruned` stays 0: a
    /// pruned document counts once per channel, not per term).
    work: ChannelWork,
}

impl<'a> Cursor<'a> {
    fn new(info: &TermInfo<'a>, list: &'a PostingList, cbound: f64) -> Cursor<'a> {
        let exhausted = list.is_empty();
        Cursor {
            list,
            chan: info.chan,
            w: info.w,
            nidf: info.nidf,
            scale: info.scale,
            cbound,
            block: 0,
            idx: 0,
            decoded: false,
            docs: Vec::new(),
            tfs: Vec::new(),
            cur_doc: if exhausted { 0 } else { list.blocks()[0].first_doc },
            exhausted,
            cached_block: usize::MAX,
            cached_cb: 0.0,
            work: ChannelWork::default(),
        }
    }

    /// Advance to the first unconsumed document ≥ `target`, skipping the
    /// decode of every block whose `last_doc` metadata proves it dead.
    /// With `count`, what the advance passes over is counted as skipped.
    fn seek(&mut self, target: Oid, count: bool) {
        if self.exhausted {
            return;
        }
        if self.cur_doc < target {
            if self.decoded && self.list.blocks()[self.block].last_doc >= target {
                // stays inside the current decoded block; the single-step
                // advance past a just-scored document is the hot case, so
                // try it before binary-searching the tail
                let rel = if self.docs[self.idx + 1] >= target {
                    1
                } else {
                    1 + self.docs[self.idx + 1..].partition_point(|&d| d < target)
                };
                if count {
                    self.work.skipped_postings += rel as u64;
                }
                self.idx += rel;
                self.cur_doc = self.docs[self.idx];
            } else {
                self.shallow(target, count);
                if !self.exhausted && self.cur_doc < target {
                    // parked on the block that may hold `target`: decode it
                    self.list.decode_block_into(self.block, &mut self.docs, &mut self.tfs);
                    self.decoded = true;
                    self.idx = self.docs.partition_point(|&d| d < target);
                    if count {
                        self.work.skipped_postings += self.idx as u64;
                    }
                    self.cur_doc = self.docs[self.idx];
                }
            }
        }
    }

    /// Move onto the block that may hold `target` without decoding it:
    /// abandon the rest of the current block if it ends before `target`,
    /// leap over every block whose `last_doc` falls short, and park on the
    /// first document of the block reached. A cursor on or past `target`,
    /// or on a block that reaches it, stays. With `count`, what the move
    /// passes over is counted as skipped.
    fn shallow(&mut self, target: Oid, count: bool) {
        let blocks = self.list.blocks();
        if self.exhausted || self.cur_doc >= target || blocks[self.block].last_doc >= target {
            return;
        }
        let mut b = self.block;
        let mut passed = if self.decoded {
            b += 1;
            (self.docs.len() - self.idx) as u64
        } else {
            0
        };
        let first_skipped = b;
        while b < blocks.len() && blocks[b].last_doc < target {
            passed += blocks[b].count as u64;
            b += 1;
        }
        if count {
            self.work.blocks_skipped += (b - first_skipped) as u64;
            self.work.skipped_postings += passed;
        }
        if b >= blocks.len() {
            self.exhausted = true;
        } else {
            self.block = b;
            self.decoded = false;
            self.cur_doc = blocks[b].first_doc;
        }
    }

    /// Block-level contribution bound of the current block, from its
    /// `max_tf` and least `dl/tf` metadata — computable without decoding,
    /// memoised per block.
    #[inline]
    fn block_cbound(&mut self, params: BeliefParams, chan: &ChanInfo<'_>) -> f64 {
        if self.cached_block != self.block {
            let b = &self.list.blocks()[self.block];
            let avg_dl = chan.stats.avg_dl;
            let bound = params.belief_bound_nidf(b.max_tf, b.min_dl_per_tf(), avg_dl, self.nidf);
            self.cached_cb = chan.cbound(params, self.w, bound);
            self.cached_block = self.block;
        }
        self.cached_cb
    }

    /// One past the current block's last document: the end of the doc-id
    /// range [`block_cbound`](Self::block_cbound) covers for this cursor.
    #[inline]
    fn block_end(&self) -> Oid {
        self.list.blocks()[self.block].last_doc.saturating_add(1)
    }

    /// The tf under the cursor, decoding the current block on demand.
    fn current_tf(&mut self) -> u32 {
        if !self.decoded {
            self.list.decode_block_into(self.block, &mut self.docs, &mut self.tfs);
            self.decoded = true;
            self.idx = 0; // parked cursors sit on the block's first document
        }
        self.tfs[self.idx]
    }
}

/// Evaluate the paper's `map[sum(THIS)](map[getBL(…)])` ranking for the k
/// best documents only, over the block-compressed postings — the
/// one-channel case of [`topk_channels`] (weight `1.0`, which multiplies
/// exactly, so scores are the plain belief sums). `_degree` is kept only
/// because `benchmark/src` passes it (ROADMAP 1(h)); it is ignored.
pub fn topk_beliefs(
    index: &InvertedIndex,
    params: BeliefParams,
    query: &[(&str, f64)],
    domain: Option<&FxHashSet<Oid>>,
    k: usize,
    _degree: usize,
) -> TopKOutcome {
    topk_channels(&[TopKChannel::whole(index, query, 1.0)], params, domain, None, k)
}

/// Evaluate a weighted mix of belief sums — the dual-coding ranking
/// `sum(getBL(text))·w₀ + sum(getBL(image))·w₁`, or any number of
/// channels — for the k best documents only, in one block-max MaxScore
/// pass over every channel's compressed postings, segment after segment.
///
/// Scores are computed with the exact floating-point operation order of
/// the materialise path: each channel's `contrep.getbl` rows summed per
/// document in query-term order, then the default-belief row (a channel
/// the document does not match contributes its grouped sum's zero fill,
/// `0.0`), each sum multiplied by its channel weight, and the products
/// added left to right. Beliefs use each channel's explicit statistics and
/// term dfs, so segments scored with the statistics of their union rank
/// bit-identically to one index built over the same documents — and the
/// `(oid, score)` pairs are bit-identical to materialise-then-sort.
/// Documents outside `domain` or inside `tombstones` are never
/// scored. Documents that match no query term are not emitted (their
/// score is 0 and the facade drops zero scores); nor are documents that
/// match only channels of weight 0 or of non-positive total term weight,
/// which score 0 too.
///
/// Skipping is sound: a document is only leapt over or pruned when its
/// upper bound — `weight_c·α + Σ cbound` summed over the channels whose
/// lists it may match — plus a tiny float-safety margin is *strictly
/// below* the admission threshold. The threshold is the accumulator's
/// k-th score or, before it fills, the k-th exact score of a set of
/// seeded documents, and it only rises — so a skipped document can never
/// displace an admitted one, not even on a tie. Queries of any length
/// are walked the same way; nothing caps the number of terms.
pub fn topk_channels(
    channels: &[TopKChannel<'_>],
    params: BeliefParams,
    domain: Option<&FxHashSet<Oid>>,
    tombstones: Option<&Tombstones>,
    k: usize,
) -> TopKOutcome {
    let chans: Vec<ChanInfo<'_>> = channels
        .iter()
        .map(|c| ChanInfo {
            segments: &c.segments,
            stats: c.stats,
            total_w: c.query.iter().map(|(_, w, _)| w).sum(),
            weight: c.weight,
        })
        .collect();
    // a channel of weight 0 or without positive term mass adds exactly
    // 0.0 to every score, so it needs no cursors
    let live = |ch: &ChanInfo<'_>| ch.weight != 0.0 && ch.total_w > 0.0;
    let terms: Vec<TermInfo<'_>> = channels
        .iter()
        .zip(&chans)
        .enumerate()
        .filter(|(_, (_, ch))| live(ch))
        .flat_map(|(chan, (c, ch))| {
            c.query.iter().map(move |&(term, w, df)| TermInfo {
                term,
                chan,
                w,
                df,
                nidf: params.nidf(df, ch.stats.n_docs),
                scale: ch.weight * w / ch.total_w,
            })
        })
        .collect();
    let n_segments = channels.first().map_or(0, |c| c.segments.len());
    if k == 0 || terms.is_empty() {
        return TopKOutcome::empty(chans.len(), n_segments);
    }
    let mut shares = vec![0.0; chans.len().min(64)];
    for (c, ch) in chans.iter().enumerate() {
        shares[c.min(63)] += (ch.weight * params.alpha).max(0.0);
    }
    let req = Request { chans, terms, params, shares, domain, tombstones };
    let chans = &req.chans;
    let cut = &channels[0].segments;
    assert!(
        channels.iter().all(|c| c.segments.len() == cut.len()
            && c.segments.iter().zip(cut).all(|(a, b)| a.0 == b.0)),
        "every channel must be cut at the same segment boundaries"
    );
    // segment `s` of every channel covers the same doc ids, from the
    // shared first doc to the end of the longest channel's index; the
    // segments are walked in doc order into one accumulator
    let mut acc = TopKAccumulator::new(k);
    let mut out = TopKOutcome::empty(chans.len(), n_segments);
    for seg in 0..cut.len() {
        let len = chans.iter().map(|ch| ch.segments[seg].1.n_docs()).max().unwrap_or(0);
        if len > 0 {
            let before = out.scored;
            segment_topk(&req, seg, len as Oid, &mut acc, &mut out);
            out.segments[seg] = out.scored - before;
        }
    }
    out.blocks_skipped = out.channels.iter().map(|c| c.blocks_skipped).sum();
    out.skipped_postings = out.channels.iter().map(|c| c.skipped_postings).sum();
    out.hits = acc.into_ranked();
    out
}

/// Block-max MaxScore accumulation over segment `seg`, whose local doc ids
/// are `[0, len)`. Cursors walk local ids; the domain, the tombstones and
/// the accumulator see global ones.
fn segment_topk(
    req: &Request<'_, '_>,
    seg: usize,
    len: Oid,
    acc: &mut TopKAccumulator,
    work: &mut TopKOutcome,
) {
    let (chans, params) = (&req.chans, req.params);
    let first = chans[0].segments[seg].0;
    let mut segment = Segment {
        req,
        indexes: chans.iter().map(|ch| ch.segments[seg].1).collect(),
        ranges: Vec::new(),
    };
    let mut cursors = segment.open();
    if cursors.is_empty() {
        return;
    }
    segment.ranges = (0..chans.len())
        .map(|chan| {
            let start = cursors.partition_point(|c| c.chan < chan);
            start..cursors.partition_point(|c| c.chan <= chan)
        })
        .collect();
    // a floor under the k-th best score, from the documents of the short
    // lists, until the accumulator holds k documents of its own
    let floor = if acc.is_full() || (len as usize) < SEED_MIN_SPAN {
        f64::NEG_INFINITY
    } else {
        seed_floor(&segment, &cursors, first, acc.k, work)
    };
    let mut theta = acc.threshold().max(floor);
    // lists in ascending order of their bound; a prefix of them is
    // non-essential once its combined bound falls below θ
    let mut by_bound: Vec<usize> = (0..cursors.len()).collect();
    by_bound.sort_by(|&a, &b| cursors[a].cbound.total_cmp(&cursors[b].cbound));
    let mut split = Split { len: 0, bound: Part::default() };
    split.grow(&by_bound, &cursors, req, theta);
    // the essential cursors on the candidate
    let mut hits: Vec<usize> = Vec::new();
    // the non-essential lists' block part of the bound: it holds for
    // candidates below `pos_until`, and bounds them up to `pos_leap`
    let (mut pos, mut pos_until, mut pos_leap) = (Part::default(), 0, 0);
    loop {
        // the candidate is the least document of the essential cursors: a
        // document that matches non-essential lists alone cannot reach θ.
        // One pass finds it, the cursors on it, and the next document
        // after it
        let (mut cand, mut next) = (Oid::MAX, Oid::MAX);
        hits.clear();
        for &i in &by_bound[split.len..] {
            let c = &cursors[i];
            if c.exhausted {
                continue;
            }
            if c.cur_doc < cand {
                (cand, next) = (c.cur_doc, cand);
                hits.clear();
                hits.push(i);
            } else if c.cur_doc == cand {
                hits.push(i);
            } else {
                next = next.min(c.cur_doc);
            }
        }
        if hits.is_empty() {
            break;
        }
        let doc = first + cand;
        if req.dropped(doc) {
            for &i in &hits {
                cursors[i].seek(cand + 1, true);
            }
            continue;
        }
        if theta > f64::NEG_INFINITY {
            // (1) block-max bound: the essential cursors on the candidate
            // by their current block, the non-essential lists by their
            // list bound — no decode. Before the first of those blocks
            // ends and before the next essential document, a document can
            // only match these essential lists inside these blocks, so a
            // failed bound prunes that whole range
            let mut blk = Part::default();
            let mut leap = next;
            for &i in &hits {
                let c = &mut cursors[i];
                blk.add(c.chan, c.block_cbound(params, &chans[c.chan]));
                leap = leap.min(c.block_end());
            }
            let mut pass = req.bound(blk, split.bound) + PRUNE_MARGIN >= theta;
            if pass && split.len > 0 {
                // tighter: each non-essential list moved, without a
                // decode, onto the block that may hold the candidate. One
                // already past it cannot match before its next document,
                // and a block bounds the others up to the block's end —
                // the range the failed bound then prunes shrinks to match
                if cand >= pos_until {
                    (pos, pos_until, pos_leap) = (Part::default(), Oid::MAX, Oid::MAX);
                    for &i in &by_bound[..split.len] {
                        let c = &mut cursors[i];
                        c.shallow(cand, true);
                        if c.decoded {
                            // the block is decoded already: the exact
                            // position costs no decode
                            c.seek(cand, true);
                        }
                        if c.exhausted {
                            continue;
                        }
                        let (until, end) = if c.cur_doc > cand {
                            (c.cur_doc, c.cur_doc)
                        } else {
                            pos.add(c.chan, c.block_cbound(params, &chans[c.chan]));
                            // a decoded cursor's position holds for this
                            // candidate only
                            (if c.decoded { cand + 1 } else { c.block_end() }, c.block_end())
                        };
                        pos_until = pos_until.min(until);
                        pos_leap = pos_leap.min(end);
                    }
                }
                leap = leap.min(pos_leap);
                pass = req.bound(blk, pos) + PRUNE_MARGIN >= theta;
            }
            if !pass {
                prune(work, &cursors, &hits);
                for &i in &hits {
                    cursors[i].seek(leap, true);
                }
                continue;
            }
            // (2) exact beliefs of the essential cursors: a failure steps
            // past the candidate without decoding a non-essential list.
            // Without non-essential lists this would be the score itself
            if split.len > 0 {
                let mut exact = Part::default();
                for &i in &hits {
                    let c = &mut cursors[i];
                    let ch = &chans[c.chan];
                    let dl = segment.indexes[c.chan].doc_len(cand);
                    let b = params.belief_nidf(c.current_tf(), dl, ch.stats.avg_dl, c.nidf);
                    exact.add(c.chan, (c.scale * (b - params.alpha)).max(0.0));
                }
                if req.bound(exact, pos) + PRUNE_MARGIN < theta {
                    prune(work, &cursors, &hits);
                    for &i in &hits {
                        cursors[i].seek(cand + 1, true);
                    }
                    continue;
                }
            }
        }
        // (3) probe the non-essential lists and score exactly
        for &i in &by_bound[..split.len] {
            cursors[i].seek(cand, true);
        }
        pos_until = 0;
        let score = segment.score(&mut cursors, cand);
        work.scored += 1;
        acc.push(doc, score);
        // stepping past a scored posting consumes it rather than skipping
        // it, and passes nothing else, so it is not counted
        for c in cursors.iter_mut() {
            if !c.exhausted && c.cur_doc == cand {
                c.seek(cand + 1, false);
            }
        }
        let raised = acc.threshold().max(floor);
        if raised > theta {
            theta = raised;
            split.grow(&by_bound, &cursors, req, theta);
            pos_until = 0;
        }
    }
    for c in &cursors {
        work.channels[c.chan].add(&c.work);
    }
}

/// Count one candidate, or one range of candidates, discarded by a bound:
/// once in the total, once for every channel with an essential cursor on
/// it.
fn prune(work: &mut TopKOutcome, cursors: &[Cursor<'_>], hits: &[usize]) {
    work.pruned += 1;
    for (chan, w) in work.channels.iter_mut().enumerate() {
        w.pruned += u64::from(hits.iter().any(|&i| cursors[i].chan == chan));
    }
}

/// The threshold floor of a segment's walk, from the documents of the
/// query lists short enough to fit one block, minus the dropped ones,
/// scored exactly by seek on fresh cursors with the walk's own scoring.
/// The lists are taken in descending order of their bound — the rarest,
/// most promising first — until at least k seeds are in hand: the k-th
/// best of any k real scores is a sound floor, and more seeds would only
/// be scored twice. With fewer than k seeds over all short lists, nothing
/// is scored and the floor is `-∞`. The seeds count as scored; the walk
/// scores them again.
fn seed_floor(
    segment: &Segment<'_, '_>,
    cursors: &[Cursor<'_>],
    first: Oid,
    k: usize,
    work: &mut TopKOutcome,
) -> f64 {
    let mut short: Vec<&Cursor<'_>> =
        cursors.iter().filter(|c| c.list.len() <= BLOCK_LEN).collect();
    short.sort_by(|a, b| b.cbound.total_cmp(&a.cbound));
    let (mut seeds, mut docs, mut tfs) = (Vec::new(), Vec::new(), Vec::new());
    for c in short {
        c.list.decode_block_into(0, &mut docs, &mut tfs);
        seeds.extend_from_slice(&docs);
        if seeds.len() >= k {
            seeds.sort_unstable();
            seeds.dedup();
            seeds.retain(|&d| !segment.req.dropped(first + d));
            if seeds.len() >= k {
                break;
            }
        }
    }
    if seeds.len() < k {
        return f64::NEG_INFINITY;
    }
    let mut probes = segment.open();
    let mut best = TopKAccumulator::new(k);
    for &d in &seeds {
        for p in probes.iter_mut() {
            p.seek(d, false);
        }
        best.push(d, segment.score(&mut probes, d));
    }
    work.scored += seeds.len() as u64;
    for p in &probes {
        work.channels[p.chan].scored_postings += p.work.scored_postings;
    }
    best.threshold()
}

/// One segment of a request: the channels' indexes in it, and each
/// channel's range of the cursor list.
struct Segment<'a, 'q> {
    req: &'q Request<'a, 'q>,
    indexes: Vec<&'a InvertedIndex>,
    ranges: Vec<std::ops::Range<usize>>,
}

impl<'a> Segment<'a, '_> {
    /// Cursors on the first posting of every query term present in the
    /// segment: channel-major and in query order within a channel, so
    /// scoring a channel's cursor range in order reproduces the
    /// materialise path's float-addition order.
    fn open(&self) -> Vec<Cursor<'a>> {
        let params = self.req.params;
        self.req
            .terms
            .iter()
            .filter_map(|t| {
                let ch = &self.req.chans[t.chan];
                let list = self.indexes[t.chan].postings_list(t.term)?;
                let (n_docs, avg_dl) = (ch.stats.n_docs, ch.stats.avg_dl);
                let bound =
                    params.belief_bound(list.max_tf(), t.df, list.min_dl_per_tf(), n_docs, avg_dl);
                Some(Cursor::new(t, list, ch.cbound(params, t.w, bound)))
            })
            .collect()
    }

    /// The exact score of local document `doc`, every cursor that matches
    /// it sitting on it: per channel, matched terms in query order, then
    /// the default row — the same float-addition order as getbl rows
    /// under a grouped sum — times the channel weight, channels added left
    /// to right like the compiled arith_const[mul]/arith[add] plan.
    fn score(&self, cursors: &mut [Cursor<'_>], doc: Oid) -> f64 {
        let params = self.req.params;
        let mut score = 0.0;
        for (chan, ch) in self.req.chans.iter().enumerate() {
            let (mut s, mut mw, mut hit) = (0.0, 0.0, false);
            for c in &mut cursors[self.ranges[chan].clone()] {
                if !c.exhausted && c.cur_doc == doc {
                    let dl = self.indexes[chan].doc_len(doc);
                    let b = params.belief_nidf(c.current_tf(), dl, ch.stats.avg_dl, c.nidf);
                    s += c.w * b / ch.total_w;
                    mw += c.w;
                    hit = true;
                    c.work.scored_postings += 1;
                }
            }
            if hit && mw < ch.total_w {
                s += params.alpha * (ch.total_w - mw) / ch.total_w;
            }
            let part = s * ch.weight;
            score = if chan == 0 { part } else { score + part };
        }
        score
    }
}

/// The MaxScore split of a segment's lists: the non-essential prefix of
/// the lists in bound order, and its bound.
struct Split {
    /// Lists in the non-essential prefix.
    len: usize,
    /// The prefix's list bounds.
    bound: Part,
}

impl Split {
    /// Grow the prefix while its bound stays below `theta` by more than
    /// the margin; it never shrinks, because θ only rises.
    fn grow(
        &mut self,
        by_bound: &[usize],
        cursors: &[Cursor<'_>],
        req: &Request<'_, '_>,
        theta: f64,
    ) {
        while let Some(&i) = by_bound.get(self.len) {
            let mut grown = self.bound;
            grown.add(cursors[i].chan, cursors[i].cbound);
            if req.bound(grown, Part::default()) + PRUNE_MARGIN >= theta {
                return;
            }
            self.bound = grown;
            self.len += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexBuilder;

    /// Text tokens of document `d`: 2–7 words from a small pool.
    fn text_doc(d: usize) -> Vec<&'static str> {
        let pool = ["sunset", "beach", "forest", "mist", "wave", "city", "snow", "glow"];
        let len = 2 + (d * 7) % 6;
        (0..len).map(|j| pool[(d * 3 + j * 5) % pool.len()]).collect()
    }

    /// Visual tokens of document `d`: most of a small pool of visual terms.
    fn visual_doc(d: usize) -> Vec<&'static str> {
        let pool = ["v0", "v1", "v2", "v3", "v4"];
        pool.iter()
            .enumerate()
            .filter(|(i, _)| !(d * 7 + i * 3).is_multiple_of(5))
            .map(|p| *p.1)
            .collect()
    }

    fn build(docs: impl Iterator<Item = Vec<&'static str>>) -> InvertedIndex {
        let mut b = IndexBuilder::new();
        for toks in docs {
            b.add_tokens(&toks);
        }
        b.build()
    }

    fn idx(n_docs: usize) -> InvertedIndex {
        build((0..n_docs).map(text_doc))
    }

    /// One document's `contrep.getbl` rows under a grouped sum; `None` when
    /// it matches no query term.
    fn grouped_sum(
        index: &InvertedIndex,
        params: BeliefParams,
        query: &[(&str, f64)],
        doc: Oid,
    ) -> Option<f64> {
        let total_w: f64 = query.iter().map(|(_, w)| w).sum();
        let stats = index.stats();
        let mut score = 0.0;
        let mut mw = 0.0;
        let mut any = false;
        for (t, w) in query {
            let tf = index.tf(t, doc);
            if tf > 0 {
                let b =
                    params.belief(tf, index.df(t), index.doc_len(doc), stats.n_docs, stats.avg_dl);
                score += w * b / total_w;
                mw += w;
                any = true;
            }
        }
        if mw < total_w {
            score += params.alpha * (total_w - mw) / total_w;
        }
        any.then_some(score)
    }

    /// The materialise path: score every document exactly like
    /// `contrep.getbl` rows under a grouped sum, then sort and truncate.
    fn baseline(
        index: &InvertedIndex,
        params: BeliefParams,
        query: &[(&str, f64)],
        domain: Option<&FxHashSet<Oid>>,
        k: usize,
    ) -> Vec<(Oid, f64)> {
        let mut out: Vec<(Oid, f64)> = (0..index.n_docs() as Oid)
            .filter(|doc| domain.is_none_or(|d| d.contains(doc)))
            .filter_map(|doc| Some((doc, grouped_sum(index, params, query, doc)?)))
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out.truncate(k);
        out
    }

    /// The unfused dual plan over whole-index channels: every document's
    /// channel sums (zero-filled), times the channel weights, added left
    /// to right; positive scores ranked and truncated.
    fn multi_baseline(channels: &[TopKChannel<'_>], k: usize) -> Vec<(Oid, f64)> {
        let params = BeliefParams::default();
        let n = channels[0].segments[0].1.n_docs() as Oid;
        let mut out: Vec<(Oid, f64)> = (0..n)
            .map(|doc| {
                let part = |c: &TopKChannel<'_>| {
                    let query: Vec<(&str, f64)> = c.query.iter().map(|&(t, w, _)| (t, w)).collect();
                    grouped_sum(c.segments[0].1, params, &query, doc).unwrap_or(0.0) * c.weight
                };
                let score = channels[1..].iter().fold(part(&channels[0]), |s, c| s + part(c));
                (doc, score)
            })
            .filter(|(_, s)| *s > 0.0)
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out.truncate(k);
        out
    }

    /// A second channel over the same documents as [`idx`].
    fn visual_idx(n_docs: usize) -> InvertedIndex {
        build((0..n_docs).map(visual_doc))
    }

    #[test]
    fn accumulator_keeps_best_k_with_oid_tiebreak() {
        let mut acc = TopKAccumulator::new(3);
        for (oid, s) in [(5, 0.5), (1, 0.9), (7, 0.5), (2, 0.1), (3, 0.5)] {
            acc.push(oid, s);
        }
        // ties at 0.5: oids 3 and 5 beat 7
        assert_eq!(acc.into_ranked(), vec![(1, 0.9), (3, 0.5), (5, 0.5)]);
    }

    #[test]
    fn accumulator_threshold() {
        let mut a = TopKAccumulator::new(2);
        assert_eq!(a.threshold(), f64::NEG_INFINITY);
        a.push(0, 0.3);
        a.push(1, 0.8);
        assert!(a.is_full());
        assert_eq!(a.threshold(), 0.3);
        assert!(!a.push(2, 0.1));
        assert!(a.push(9, 0.6));
        assert_eq!(a.threshold(), 0.6);
        assert_eq!(a.into_ranked(), vec![(1, 0.8), (9, 0.6)]);
        // k = 0 never admits
        let mut z = TopKAccumulator::new(0);
        assert!(!z.push(0, 1.0));
        assert_eq!(z.threshold(), f64::INFINITY);
        assert!(z.into_ranked().is_empty());
    }

    #[test]
    fn topk_matches_materialise_then_sort() {
        let index = idx(200);
        let params = BeliefParams::default();
        let query = [("sunset", 1.0), ("wave", 1.0), ("glow", 0.5)];
        for k in [1usize, 3, 10, 200] {
            let expected = baseline(&index, params, &query, None, k);
            let got = topk_beliefs(&index, params, &query, None, k, 1);
            assert_eq!(got.hits, expected, "k={k}");
        }
    }

    #[test]
    fn wand_avoids_scoring_on_larger_corpora() {
        let index = idx(5000);
        let params = BeliefParams::default();
        let query = [("sunset", 1.0), ("mist", 1.0)];
        let out = topk_beliefs(&index, params, &query, None, 5, 1);
        assert_eq!(out.hits.len(), 5);
        assert_eq!(out.hits, baseline(&index, params, &query, None, 5));
        // the walk must leave most matching documents unscored
        let candidates = baseline(&index, params, &query, None, index.n_docs()).len() as u64;
        assert!(
            out.scored < candidates,
            "expected skipped candidates on a 5k corpus: scored {} of {candidates}",
            out.scored
        );
        assert!(out.skipped_postings > 0, "cursor leaps should pass postings: {out:?}");
    }

    #[test]
    fn skipped_postings_counts_only_unscored_postings() {
        // "a" in docs 0, 1, 3; "b" in docs 0, 2, 3; doc 4 matches neither
        let mut b = IndexBuilder::new();
        for toks in [&["a", "b"][..], &["a"], &["b"], &["a", "b"], &["c"]] {
            b.add_tokens(toks);
        }
        let index = b.build();
        let params = BeliefParams::default();
        let query = [("a", 1.0), ("b", 1.0)];
        // k covers every candidate: each of the 6 postings is scored
        let out = topk_beliefs(&index, params, &query, None, 10, 1);
        assert_eq!(out.hits, baseline(&index, params, &query, None, 10));
        assert_eq!((out.scored, out.skipped_postings, out.blocks_skipped), (4, 0, 0));
        // docs 1 and 2 fall outside the domain: their one posting each is
        // passed unscored, the 4 postings of docs 0 and 3 are scored
        let domain: FxHashSet<Oid> = [0, 3].into_iter().collect();
        let out = topk_beliefs(&index, params, &query, Some(&domain), 10, 1);
        assert_eq!(out.hits, baseline(&index, params, &query, Some(&domain), 10));
        assert_eq!((out.scored, out.skipped_postings, out.blocks_skipped), (2, 2, 0));
    }

    #[test]
    fn blockmax_skips_whole_blocks_for_selective_terms() {
        // "common" appears in every even document (a block of 128 postings
        // spans ~256 doc ids); "rare" appears every 600. Once the heap
        // holds k common+rare documents, "common" is non-essential and is
        // only probed at "rare"'s documents, in ~600-doc leaps, clearing
        // whole blocks without decoding them.
        let mut b = IndexBuilder::new();
        for d in 0..5000u32 {
            let mut toks = vec!["filler"];
            if d % 2 == 0 {
                toks.push("common");
            }
            if d % 600 == 0 {
                toks.push("rare");
            }
            b.add_tokens(&toks);
        }
        let index = b.build();
        let params = BeliefParams::default();
        let query = [("common", 1.0), ("rare", 1.0)];
        let out = topk_beliefs(&index, params, &query, None, 5, 1);
        assert_eq!(out.hits, baseline(&index, params, &query, None, 5));
        // every top hit matches both terms (600 is even)
        assert!(out.hits.iter().all(|(oid, _)| oid % 600 == 0));
        assert!(out.blocks_skipped > 0, "expected undecoded block leaps: {out:?}");
    }

    #[test]
    fn single_term_refinement_leaps_whole_blocks() {
        // one term in every document, tf 1: only the length term tells
        // blocks apart. Every fourth block holds short documents (1–5
        // tokens), the rest long ones (6–14), so once the heap holds short
        // documents a long block's bound fails and the cursor leaps to its
        // end without decoding it
        let mut b = IndexBuilder::new();
        for d in 0..3000usize {
            let len = if (d / BLOCK_LEN).is_multiple_of(4) { 1 + d % 5 } else { 6 + d % 9 };
            let mut toks = vec!["t"];
            toks.resize(len, "filler");
            b.add_tokens(&toks);
        }
        let index = b.build();
        assert!(index.postings_list("t").unwrap().blocks().len() > 20);
        let params = BeliefParams::default();
        let query = [("t", 1.0)];
        let out = topk_beliefs(&index, params, &query, None, 10, 1);
        assert_eq!(out.hits, baseline(&index, params, &query, None, 10));
        assert!(out.blocks_skipped > 0, "no block leapt: {out:?}");
        assert!(out.scored < index.n_docs() as u64 / 2, "{out:?}");
    }

    #[test]
    fn topk_respects_domain() {
        let index = idx(100);
        let params = BeliefParams::default();
        let query = [("sunset", 1.0)];
        let domain: FxHashSet<Oid> = (0..50).collect();
        let out = topk_beliefs(&index, params, &query, Some(&domain), 10, 1);
        assert!(!out.hits.is_empty());
        assert!(out.hits.iter().all(|(oid, _)| *oid < 50));
        assert_eq!(out.hits, baseline(&index, params, &query, Some(&domain), 10));
    }

    #[test]
    fn topk_edge_cases() {
        let index = idx(10);
        let params = BeliefParams::default();
        // unknown terms: nothing matches
        let out = topk_beliefs(&index, params, &[("zzz", 1.0)], None, 5, 1);
        assert!(out.hits.is_empty());
        // zero total weight, zero k
        assert!(topk_beliefs(&index, params, &[], None, 5, 1).hits.is_empty());
        assert!(topk_beliefs(&index, params, &[("sunset", 1.0)], None, 0, 1).hits.is_empty());
        // duplicate query terms accumulate like the materialise path
        let dup = [("sunset", 1.0), ("sunset", 2.0)];
        assert_eq!(
            topk_beliefs(&index, params, &dup, None, 10, 1).hits,
            baseline(&index, params, &dup, None, 10)
        );
    }

    #[test]
    fn channels_match_the_unfused_weighted_sum() {
        let text = idx(1500);
        let vis = visual_idx(1500);
        let tq = [("sunset", 1.0), ("wave", 0.5)];
        let vq = [("v1", 1.0), ("v3", 0.7), ("zzz", 1.0)];
        let params = BeliefParams::default();
        for (tw, vw) in [(0.7, 0.3), (0.5, 0.5), (1.0, 0.0), (0.0, 1.0)] {
            let channels = [TopKChannel::whole(&text, &tq, tw), TopKChannel::whole(&vis, &vq, vw)];
            for k in [1usize, 10, 1500] {
                let expected = multi_baseline(&channels, k);
                assert!(!expected.is_empty());
                let got = topk_channels(&channels, params, None, None, k);
                assert_eq!(got.hits, expected, "weights ({tw}, {vw}) k={k}");
            }
        }
        // text terms absent from the corpus: the visual channel alone ranks
        let absent = [("zzz", 1.0)];
        let channels =
            [TopKChannel::whole(&text, &absent, 0.6), TopKChannel::whole(&vis, &vq, 0.4)];
        assert_eq!(
            topk_channels(&channels, params, None, None, 10).hits,
            multi_baseline(&channels, 10)
        );
    }

    #[test]
    fn per_channel_work_adds_up_to_the_totals() {
        let text = idx(5000);
        let vis = visual_idx(5000);
        let tq = [("sunset", 1.0), ("mist", 1.0)];
        let vq = [("v0", 1.0), ("v2", 1.0)];
        let channels = [TopKChannel::whole(&text, &tq, 0.5), TopKChannel::whole(&vis, &vq, 0.5)];
        let out = topk_channels(&channels, BeliefParams::default(), None, None, 5);
        assert_eq!(out.hits, multi_baseline(&channels, 5));
        assert_eq!(out.channels.len(), 2);
        let sum = |f: fn(&ChannelWork) -> u64| out.channels.iter().map(f).sum::<u64>();
        assert_eq!(sum(|w| w.blocks_skipped), out.blocks_skipped);
        assert_eq!(sum(|w| w.skipped_postings), out.skipped_postings);
        // every scored document matched at least one channel's term
        assert!(sum(|w| w.scored_postings) >= out.scored);
        assert!(out.channels.iter().all(|w| w.pruned <= out.pruned));
        // the one-channel case is topk_beliefs, work included
        let one_channel = [TopKChannel { weight: 1.0, ..channels[0].clone() }];
        let one = topk_channels(&one_channel, BeliefParams::default(), None, None, 5);
        let plain = topk_beliefs(&text, BeliefParams::default(), &tq, None, 5, 1);
        assert_eq!(one, plain);
    }

    #[test]
    fn dense_visual_lists_are_probed_not_walked() {
        // a rare text term in 15 of 5 000 documents carries the query; the
        // visual channel's 4 terms each sit in 70 % of the documents with a
        // near-zero idf. Once the rare term's hits set θ, the visual lists
        // are non-essential: only the rare term's documents are candidates,
        // and the visual cursors leap between them over undecoded blocks
        let n = 5000;
        let text = build((0..n).map(|d| {
            let mut toks = text_doc(d);
            if d % 333 == 7 {
                toks.push("rare");
            }
            toks
        }));
        let vis = build((0..n).map(|d| {
            ["v0", "v1", "v2", "v3"]
                .into_iter()
                .enumerate()
                .filter(|&(i, _)| (d * 7 + i * 13) % 10 < 7)
                .map(|(_, t)| t)
                .collect()
        }));
        let df = text.df("rare");
        assert_eq!(df, 15);
        assert!(["v0", "v1", "v2", "v3"].iter().all(|t| vis.df(t) as usize >= n * 6 / 10));
        let tq = [("rare", 1.0)];
        let vq = [("v0", 1.0), ("v1", 1.0), ("v2", 1.0), ("v3", 1.0)];
        let channels = [TopKChannel::whole(&text, &tq, 0.5), TopKChannel::whole(&vis, &vq, 0.5)];
        let out = topk_channels(&channels, BeliefParams::default(), None, None, 10);
        assert_eq!(out.hits, multi_baseline(&channels, 10));
        assert!(out.scored <= 2 * u64::from(df), "scored {} of {df}: {out:?}", out.scored);
        assert!(out.channels[1].blocks_skipped > 0, "visual blocks all decoded: {out:?}");
    }

    #[test]
    fn segments_with_tombstones_match_one_index_of_the_survivors() {
        // a base generation and three delta batches; every 7th document is
        // deleted, in the base and in the deltas
        let docs: [fn(usize) -> Vec<&'static str>; 2] = [text_doc, visual_doc];
        let cuts = [0usize, 900, 1000, 1150, 1200];
        let dead: Tombstones = (0..1200).filter(|d| d % 7 == 3).collect();
        let survivors: Vec<Oid> = (0..1200).filter(|&d| !dead.contains(d)).collect();
        let segs: Vec<Vec<(Oid, InvertedIndex)>> = docs
            .iter()
            .map(|doc| {
                cuts.windows(2).map(|w| (w[0] as Oid, build((w[0]..w[1]).map(doc)))).collect()
            })
            .collect();
        // the reference: one batch index over the survivors, whose dense
        // ids are positions in `survivors`
        let batch: Vec<InvertedIndex> =
            docs.iter().map(|doc| build(survivors.iter().map(|&d| doc(d as usize)))).collect();
        let queries: [&[(&str, f64)]; 2] =
            [&[("sunset", 1.0), ("wave", 0.5), ("zzz", 1.0)], &[("v1", 1.0), ("v3", 0.7)]];
        let in_domain = |d: Oid| !d.is_multiple_of(3);
        let live_domain: FxHashSet<Oid> = (0..1200).filter(|&d| in_domain(d)).collect();
        let batch_domain: FxHashSet<Oid> =
            (0..survivors.len() as Oid).filter(|&i| in_domain(survivors[i as usize])).collect();
        let params = BeliefParams::default();
        for weights in [&[1.0][..], &[0.7, 0.3]] {
            let segmented: Vec<TopKChannel<'_>> = weights
                .iter()
                .enumerate()
                .map(|(c, &weight)| TopKChannel {
                    segments: segs[c].iter().map(|(first, index)| (*first, index)).collect(),
                    // the survivors' union statistics, passed explicitly
                    query: queries[c].iter().map(|&(t, w)| (t, w, batch[c].df(t))).collect(),
                    stats: batch[c].stats(),
                    weight,
                })
                .collect();
            let whole: Vec<TopKChannel<'_>> = weights
                .iter()
                .enumerate()
                .map(|(c, &weight)| TopKChannel::whole(&batch[c], queries[c], weight))
                .collect();
            for k in [1usize, 10, 1200] {
                for (live_dom, batch_dom) in
                    [(None, None), (Some(&live_domain), Some(&batch_domain))]
                {
                    let want: Vec<(Oid, f64)> = topk_channels(&whole, params, batch_dom, None, k)
                        .hits
                        .into_iter()
                        .map(|(i, score)| (survivors[i as usize], score))
                        .collect();
                    assert!(!want.is_empty());
                    let got = topk_channels(&segmented, params, live_dom, Some(&dead), k);
                    let case =
                        format!("{} channels k={k} domain={}", weights.len(), live_dom.is_some());
                    assert_eq!(got.hits, want, "{case}");
                }
            }
        }
    }

    #[test]
    fn empty_or_weightless_query_over_segments_scores_nothing() {
        let base = idx(300);
        let delta = build((300..400).map(text_doc));
        let dead: Tombstones = [3, 310].into_iter().collect();
        let segments = vec![(0, &base), (300, &delta)];
        for query in [Vec::new(), vec![("sunset", 0.0, 90)]] {
            let ch =
                TopKChannel { segments: segments.clone(), query, stats: base.stats(), weight: 1.0 };
            let out = topk_channels(&[ch], BeliefParams::default(), None, Some(&dead), 10);
            assert!(out.hits.is_empty());
        }
    }

    #[test]
    fn base_threshold_prunes_delta_segments() {
        // the base holds the documents that match both terms; the delta's
        // match only the near-zero-idf common term, so once the base fills
        // the heap no delta document can reach the threshold
        let base =
            build(
                (0..1000)
                    .map(|d| if d % 10 == 0 { vec!["common", "rare"] } else { vec!["common"] }),
            );
        let delta = build((0..1000).map(|_| vec!["common"]));
        let stats = CollectionStats { n_docs: 2000, n_terms: 2, avg_dl: 1.05, total_tokens: 2100 };
        let query = vec![("common", 1.0, 2000), ("rare", 1.0, 100)];
        let channel = |segments| TopKChannel { segments, query: query.clone(), stats, weight: 1.0 };
        let params = BeliefParams::default();
        let both =
            topk_channels(&[channel(vec![(0, &base), (1000, &delta)])], params, None, None, 5);
        let base_only = topk_channels(&[channel(vec![(0, &base)])], params, None, None, 5);
        assert_eq!(both.hits, base_only.hits);
        assert!(both.hits.iter().all(|(oid, _)| oid % 10 == 0 && *oid < 1000));
        // the delta's thousand candidates cost no scoring at all
        assert_eq!(both.scored, base_only.scored);
    }
}
