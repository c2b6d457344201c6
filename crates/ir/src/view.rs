//! Corpus views: what the fused top-k operator ranks.
//!
//! A node ranks its one index, a live snapshot its generation plus its
//! delta segments with its deletes masked, and a cluster one snapshot per
//! shard. A [`CorpusView`] pins that list of [`ViewPart`]s for one request
//! and reaches `contrep.getbl.topk` as the kernel's opaque
//! [`RequestView`]. Every part is scored with the statistics of their
//! union, so each document scores as in one index over all surviving
//! documents, and the hits are gathered under global ids in one
//! [`TopKAccumulator`]: a part's global ids ascend with its local ids, so
//! its tie-breaks are the global ones. The view's own row ids — what a
//! `select` over a column it supplies returns — lay the parts' local ids
//! end to end.

use crate::belief::BeliefParams;
use crate::index::{CollectionStats, InvertedIndex};
use crate::tombstones::Tombstones;
use crate::topk::{topk_channels, TopKAccumulator, TopKChannel, TopKOutcome};
use monet::fxhash::FxHashSet;
use monet::{Bat, Oid, RequestView};
use std::sync::Arc;

/// One pinned part of a corpus view.
pub trait ViewPart: Send + Sync {
    /// The `(first local doc, index)` segments of the representation at
    /// `prefix`, ascending and cut alike for every representation.
    fn segments(&self, prefix: &str) -> Vec<(Oid, &InvertedIndex)>;
    /// `(live documents, their tokens)` in the representation at `prefix`.
    fn live_stats(&self, prefix: &str) -> (usize, u64);
    /// Deleted documents whose representation at `prefix` holds `term`.
    fn deleted_df(&self, _prefix: &str, _term: &str) -> u32 {
        0
    }
    /// The deleted local ids, masked out of ranking.
    fn tombstones(&self) -> Option<&Tombstones> {
        None
    }
    /// One past the last local id, deleted or not.
    fn end_doc(&self) -> Oid;
}

/// A view's ranking — the k best `(global id, score)` hits and the work
/// summed over its parts — and the documents each part scored per segment.
pub type ViewHits = (TopKOutcome, Vec<Vec<u64>>);

/// A request's pinned [`ViewPart`]s, ranked as one collection.
pub struct CorpusView {
    parts: Vec<Arc<dyn ViewPart>>,
    /// The first view id of each part.
    bases: Vec<Oid>,
    /// Row `i` maps part `i`'s local ids to global ids; `None`: view ids
    /// are global.
    ids: Option<Arc<Vec<Vec<Oid>>>>,
    /// BATs supplied in place of the catalog's, by name.
    bats: Vec<(String, Arc<Bat>)>,
}

impl std::fmt::Debug for CorpusView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CorpusView({} parts at {:?})", self.parts.len(), self.bases)
    }
}

impl RequestView for CorpusView {
    fn bat(&self, name: &str) -> Option<Arc<Bat>> {
        self.bats.iter().find(|(n, _)| n == name).map(|(_, bat)| Arc::clone(bat))
    }
}

/// One weighted evidence channel of a ranking: the representation's store
/// prefix, its weighted query terms in query order, and the weight (finite,
/// ≥ 0) its belief sum carries.
#[derive(Debug, Clone)]
pub struct ViewChannel<'a> {
    /// The representation's store prefix (`{collection}__{attribute}`).
    pub prefix: &'a str,
    /// Weighted query terms in query order.
    pub query: Vec<(&'a str, f64)>,
    /// Multiplier of the channel's belief sum.
    pub weight: f64,
}

impl CorpusView {
    /// A view over `parts`, with row `i` of `ids` mapping part `i`'s local
    /// ids to global ones (`None`: the view ids are global).
    pub fn new(parts: Vec<Arc<dyn ViewPart>>, ids: Option<Arc<Vec<Vec<Oid>>>>) -> Self {
        let ends = parts.iter().scan(0, |end, p| Some(std::mem::replace(end, *end + p.end_doc())));
        CorpusView { bases: ends.collect(), parts, ids, bats: Vec::new() }
    }

    /// Supply `bat`, keyed by view id, under `name`.
    pub fn with_bat(mut self, name: String, bat: Arc<Bat>) -> Self {
        self.bats.push((name, bat));
        self
    }

    /// The part and local id of a global id.
    pub fn locate(&self, global: Oid) -> Option<(usize, Oid)> {
        if let Some(ids) = &self.ids {
            return ids.iter().enumerate().find_map(|(part, row)| {
                row.binary_search(&global).ok().map(|local| (part, local as Oid))
            });
        }
        let part = self.bases.partition_point(|&b| b <= global).checked_sub(1)?;
        let local = global - self.bases[part];
        (local < self.parts[part].end_doc()).then_some((part, local))
    }

    /// The representation's one index when the view is one undeleted
    /// segment — the only view an unfused `getBL` reads correctly.
    pub fn whole_index(&self, prefix: &str) -> Option<&InvertedIndex> {
        let [part] = self.parts.as_slice() else { return None };
        match part.segments(prefix).as_slice() {
            [(0, index)] if self.ids.is_none() && part.tombstones().is_none() => Some(*index),
            _ => None,
        }
    }

    /// The k best `(global id, score)` pairs of the view, best first (ties
    /// by ascending global id), with the work of every part. Each part
    /// runs one [`topk_channels`] pass under the union statistics,
    /// restricted to the view ids in `domain`. `None` when a hit has no
    /// global id.
    pub fn topk(
        &self,
        channels: &[ViewChannel<'_>],
        params: BeliefParams,
        domain: Option<&Bat>,
        k: usize,
    ) -> Option<ViewHits> {
        let segments: Vec<Vec<Vec<(Oid, &InvertedIndex)>>> = (self.parts.iter())
            .map(|p| channels.iter().map(|c| p.segments(c.prefix)).collect())
            .collect();
        let union: Vec<(CollectionStats, Vec<u32>)> = (channels.iter().enumerate())
            .map(|(c, ch)| {
                let live = self.parts.iter().map(|p| p.live_stats(ch.prefix));
                let (n_docs, total_tokens) = live.fold((0, 0), |(n, t), (pn, pt)| (n + pn, t + pt));
                let avg_dl = if n_docs == 0 { 0.0 } else { total_tokens as f64 / n_docs as f64 };
                // distinct live terms are not tracked; nothing scores with them
                let stats = CollectionStats { n_docs, n_terms: 0, avg_dl, total_tokens };
                let df = |t: &str| -> u32 {
                    let parts = self.parts.iter().zip(&segments);
                    parts
                        .map(|(p, segs)| {
                            let df: u32 = segs[c].iter().map(|(_, index)| index.df(t)).sum();
                            df.saturating_sub(p.deleted_df(ch.prefix, t))
                        })
                        .sum()
                };
                (stats, ch.query.iter().map(|(t, _)| df(t)).collect())
            })
            .collect();
        let domains = domain.map(|bat| {
            let mut sets = vec![FxHashSet::default(); self.parts.len()];
            for oid in (0..bat.count()).filter_map(|i| bat.head().oid_at(i).ok()) {
                if let Some(part) = self.bases.partition_point(|&b| b <= oid).checked_sub(1) {
                    sets[part].insert(oid - self.bases[part]);
                }
            }
            sets
        });
        let mut acc = TopKAccumulator::new(k);
        let mut total = TopKOutcome::empty(channels.len(), 0);
        let mut scored = Vec::with_capacity(self.parts.len());
        for (i, (part, segs)) in self.parts.iter().zip(segments).enumerate() {
            let chans: Vec<TopKChannel<'_>> = (channels.iter().zip(&union).zip(segs))
                .map(|((ch, (stats, dfs)), segments)| TopKChannel {
                    segments,
                    query: ch.query.iter().zip(dfs).map(|(&(t, w), &df)| (t, w, df)).collect(),
                    stats: *stats,
                    weight: ch.weight,
                })
                .collect();
            let domain = domains.as_ref().map(|sets| &sets[i]);
            let mut out = topk_channels(&chans, params, domain, part.tombstones(), k);
            for (local, score) in std::mem::take(&mut out.hits) {
                let global = match &self.ids {
                    Some(ids) => *ids.get(i)?.get(local as usize)?,
                    None => self.bases[i] + local,
                };
                acc.push(global, score);
            }
            total.absorb(&out);
            scored.push(out.segments);
        }
        total.hits = acc.into_ranked();
        Some((total, scored))
    }
}
