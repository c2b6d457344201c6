//! Block-compressed posting lists.
//!
//! A posting list stores `(doc, tf)` pairs in immutable fixed-size blocks
//! of up to [`BLOCK_LEN`] postings. Within a block, document ids are
//! delta-encoded (`doc[j] − doc[j−1] − 1`, sound because doc ids are
//! strictly ascending) and term frequencies are stored as `tf − 1`; both
//! streams are bitpacked at the block's own width through the storage
//! codec's packing primitives ([`monet::storage`]). Each block carries
//! block-max metadata — its first and last document id, its greatest `tf`
//! and its least `dl/tf` (document length over term frequency) — which is
//! what lets the top-k evaluator ([`crate::topk`]) skip whole blocks
//! without decoding them: `max_tf` and the least `dl/tf` together yield a
//! sound, length-aware belief upper bound for every posting inside
//! ([`crate::belief::BeliefParams::belief_bound`]), and `last_doc` lets a
//! cursor seek past the block entirely. The list keeps the same two
//! statistics over all its blocks for the list-level bound.
//!
//! The least `dl/tf` is *derived*: [`PostingList::from_postings`] computes
//! it from the collection's document lengths while it fills each block.
//! Lists are never stored — every index is built in-process from the
//! library rows — so nothing outside the builder can disagree with them.
//!
//! The raw-vec representation cost 8 bytes per posting; on natural-language
//! term distributions blocks typically land between 1 and 2 bytes per
//! posting (the benchmark's `ir.postings.bytes_per_doc` row measures it),
//! so the same corpus holds and moves less memory on every scan.

use crate::index::Posting;
use monet::storage::{bits_for, pack_u32s, packed_words, unpack_u32_at, unpack_u32s};
use monet::Oid;

/// Maximum postings per block. 128 keeps a decoded block inside two cache
/// lines per stream while amortising the per-block metadata to well under
/// a bit per posting.
pub const BLOCK_LEN: usize = 128;

/// Fixed-point scale of the least `dl/tf` ([`BlockMeta::min_dl_tf`]).
const DL_TF_SCALE: u64 = 256;

/// `⌊256·dl/tf⌋`, saturating at `u32::MAX`: never above the exact ratio,
/// so a belief bound computed from it can only be looser. `tf ≥ 1`.
fn dl_tf_fixed(dl: u32, tf: u64) -> u32 {
    u32::try_from(u64::from(dl) * DL_TF_SCALE / tf).unwrap_or(u32::MAX)
}

/// Per-block metadata: the skip index entry the evaluator reads *instead
/// of* the block payload when deciding whether to decode it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMeta {
    /// First document id in the block (stored here, not in the payload).
    pub first_doc: Oid,
    /// Last document id in the block — the seek key.
    pub last_doc: Oid,
    /// Greatest term frequency in the block — a block-max bound input.
    pub max_tf: u32,
    /// Least `dl/tf` over the block's postings — the other block-max
    /// bound input — in fixed point `⌊256·dl/tf⌋`, saturating. Derived
    /// from the document lengths when the list is built;
    /// [`min_dl_per_tf`](Self::min_dl_per_tf) is its value.
    pub min_dl_tf: u32,
    /// Index of the block's first word in the list's word array.
    pub offset: u32,
    /// Postings in this block (≤ [`BLOCK_LEN`]).
    pub count: u16,
    /// Bits per doc-id delta.
    pub doc_bits: u8,
    /// Bits per `tf − 1` value.
    pub tf_bits: u8,
}

// the skip index costs 24 bytes per block, as `ir.postings.bytes_per_doc`
// has always counted it
const _: () = assert!(std::mem::size_of::<BlockMeta>() == 24);

impl BlockMeta {
    /// The least `dl/tf` of the block's postings, rounded down to the
    /// stored fixed point — at most the exact ratio.
    #[inline]
    pub fn min_dl_per_tf(&self) -> f64 {
        f64::from(self.min_dl_tf) / DL_TF_SCALE as f64
    }

    /// Word index of the block's tf stream (the doc deltas come first).
    #[inline]
    fn tf_offset(&self) -> usize {
        self.offset as usize + packed_words(self.count as usize - 1, self.doc_bits as u32)
    }
}

/// An immutable block-compressed posting list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PostingList {
    blocks: Vec<BlockMeta>,
    words: Vec<u64>,
    len: usize,
    /// Greatest `max_tf` over the blocks (0 when empty).
    max_tf: u32,
    /// Least `min_dl_tf` over the blocks (0 when empty).
    min_dl_tf: u32,
}

impl PostingList {
    /// Compress a document-ordered posting slice into blocks; `doc_len`
    /// gives each posting's document length, from which every block's
    /// least `dl/tf` is derived.
    ///
    /// # Panics
    /// Debug-asserts that doc ids are strictly ascending and every tf is
    /// nonzero — the invariants the index builder maintains.
    pub fn from_postings(posts: &[Posting], doc_len: impl Fn(Oid) -> u32) -> PostingList {
        debug_assert!(posts.windows(2).all(|w| w[0].doc < w[1].doc), "postings must be ascending");
        debug_assert!(posts.iter().all(|p| p.tf > 0), "postings must have nonzero tf");
        let mut blocks = Vec::with_capacity(posts.len().div_ceil(BLOCK_LEN));
        let mut words = Vec::new();
        // a block's streams, on the stack: no allocation per list
        let (mut deltas, mut tfs) = ([0u32; BLOCK_LEN], [0u32; BLOCK_LEN]);
        for chunk in posts.chunks(BLOCK_LEN) {
            let mut max_tf = 0u32;
            let mut min_dl_tf = u32::MAX;
            for (j, p) in chunk.iter().enumerate() {
                if j > 0 {
                    deltas[j - 1] = p.doc - chunk[j - 1].doc - 1;
                }
                tfs[j] = p.tf - 1;
                max_tf = max_tf.max(p.tf);
                min_dl_tf = min_dl_tf.min(dl_tf_fixed(doc_len(p.doc), u64::from(p.tf)));
            }
            let (deltas, tfs) = (&deltas[..chunk.len() - 1], &tfs[..chunk.len()]);
            let doc_bits = bits_for(deltas.iter().copied().max().unwrap_or(0)) as u8;
            let tf_bits = bits_for(max_tf - 1) as u8;
            let offset = words.len() as u32;
            pack_u32s(&mut words, deltas, doc_bits as u32);
            pack_u32s(&mut words, tfs, tf_bits as u32);
            blocks.push(BlockMeta {
                first_doc: chunk[0].doc,
                last_doc: chunk[chunk.len() - 1].doc,
                max_tf,
                min_dl_tf,
                offset,
                count: chunk.len() as u16,
                doc_bits,
                tf_bits,
            });
        }
        // the list-level bound inputs, over all blocks
        let max_tf = blocks.iter().map(|b| b.max_tf).max().unwrap_or(0);
        let min_dl_tf = blocks.iter().map(|b| b.min_dl_tf).min().unwrap_or(0);
        PostingList { blocks, words, len: posts.len(), max_tf, min_dl_tf }
    }

    /// Greatest term frequency in the list — with
    /// [`min_dl_per_tf`](Self::min_dl_per_tf), the input of the list-level
    /// belief bound.
    pub fn max_tf(&self) -> u32 {
        self.max_tf
    }

    /// Least `dl/tf` over the list's postings, rounded down to the block
    /// metadata's fixed point (0 when empty).
    pub fn min_dl_per_tf(&self) -> f64 {
        f64::from(self.min_dl_tf) / DL_TF_SCALE as f64
    }

    /// Number of postings (the term's document frequency).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the term occurs in no document.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The block metadata array (the skip index).
    pub fn blocks(&self) -> &[BlockMeta] {
        &self.blocks
    }

    /// Decode block `i` into reused scratch buffers, each resized to the
    /// block's count: absolute document ids into `docs`, raw term
    /// frequencies into `tfs`. One unpack pass per stream, the doc deltas
    /// decoded together with their prefix sum and the tfs with their `+1`.
    pub fn decode_block_into(&self, i: usize, docs: &mut Vec<Oid>, tfs: &mut Vec<u32>) {
        let b = &self.blocks[i];
        let n = b.count as usize;
        docs.resize(n, 0);
        tfs.resize(n, 0);
        docs[0] = b.first_doc;
        let mut prev = b.first_doc;
        unpack_u32s(&self.words, b.offset as usize, b.doc_bits as u32, &mut docs[1..], |d| {
            prev += d + 1;
            prev
        });
        unpack_u32s(&self.words, b.tf_offset(), b.tf_bits as u32, tfs, |t| t + 1);
    }

    /// Visit every `(doc, tf)` posting in document order, decoding one
    /// block at a time into reused scratch buffers — the walk of scorers
    /// that need every posting of a term.
    pub fn for_each(&self, mut f: impl FnMut(Oid, u32)) {
        let mut docs = Vec::with_capacity(BLOCK_LEN);
        let mut tfs = Vec::with_capacity(BLOCK_LEN);
        for i in 0..self.blocks.len() {
            self.decode_block_into(i, &mut docs, &mut tfs);
            for (&doc, &tf) in docs.iter().zip(&tfs) {
                f(doc, tf);
            }
        }
    }

    /// Decode the whole list back into a posting vector — for comparing
    /// lists whole.
    pub fn to_vec(&self) -> Vec<Posting> {
        let mut out = Vec::with_capacity(self.len);
        self.for_each(|doc, tf| out.push(Posting { doc, tf }));
        out
    }

    /// Term frequency of `doc`, 0 when absent. Touches exactly one block:
    /// a binary search over the skip index, then a delta walk inside it.
    pub fn tf_of(&self, doc: Oid) -> u32 {
        let i = self.blocks.partition_point(|b| b.last_doc < doc);
        let Some(b) = self.blocks.get(i) else { return 0 };
        if doc < b.first_doc {
            return 0;
        }
        if doc == b.first_doc {
            return unpack_u32_at(&self.words, b.tf_offset(), 0, b.tf_bits as u32) + 1;
        }
        let mut prev = b.first_doc;
        for j in 1..b.count as usize {
            prev += unpack_u32_at(&self.words, b.offset as usize, j - 1, b.doc_bits as u32) + 1;
            if prev == doc {
                return unpack_u32_at(&self.words, b.tf_offset(), j, b.tf_bits as u32) + 1;
            }
            if prev > doc {
                return 0;
            }
        }
        0
    }

    /// Bytes of heap memory held by the compressed representation
    /// (payload words plus the skip index).
    pub fn heap_bytes(&self) -> usize {
        self.words.len() * 8 + self.blocks.len() * std::mem::size_of::<BlockMeta>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn posts(pairs: &[(u32, u32)]) -> Vec<Posting> {
        pairs.iter().map(|&(doc, tf)| Posting { doc, tf }).collect()
    }

    /// Document lengths of the synthetic collections: uneven, so the
    /// least `dl/tf` varies across blocks.
    fn doc_len(doc: Oid) -> u32 {
        4 + doc % 29
    }

    fn synthetic(n: usize) -> Vec<Posting> {
        // uneven gaps (5..29) and tfs so widths vary across blocks
        (0..n)
            .map(|i| Posting { doc: (i * 17 + (i * i) % 13) as u32, tf: 1 + ((i * i) % 9) as u32 })
            .collect()
    }

    #[test]
    fn roundtrip_to_vec() {
        for n in [0usize, 1, 2, 127, 128, 129, 500] {
            let original = synthetic(n);
            let list = PostingList::from_postings(&original, doc_len);
            assert_eq!(list.len(), n);
            assert_eq!(list.to_vec(), original, "n={n}");
            assert_eq!(list.blocks().len(), n.div_ceil(BLOCK_LEN));
        }
    }

    #[test]
    fn tf_of_finds_every_posting_and_misses_gaps() {
        let original = synthetic(300);
        let list = PostingList::from_postings(&original, doc_len);
        for p in &original {
            assert_eq!(list.tf_of(p.doc), p.tf, "doc {}", p.doc);
        }
        let present: std::collections::HashSet<u32> = original.iter().map(|p| p.doc).collect();
        let last = original.last().unwrap().doc;
        for doc in 0..=last + 2 {
            if !present.contains(&doc) {
                assert_eq!(list.tf_of(doc), 0, "doc {doc}");
            }
        }
    }

    #[test]
    fn block_metadata_is_sound() {
        let original = synthetic(400);
        let list = PostingList::from_postings(&original, doc_len);
        let mut docs = Vec::new();
        let mut tfs = Vec::new();
        for (i, b) in list.blocks().iter().enumerate() {
            list.decode_block_into(i, &mut docs, &mut tfs);
            assert_eq!(docs.len(), b.count as usize);
            assert_eq!(docs[0], b.first_doc);
            assert_eq!(*docs.last().unwrap(), b.last_doc);
            assert!(docs.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(tfs.iter().copied().max().unwrap(), b.max_tf);
            assert!(tfs.iter().all(|&t| t >= 1 && t <= b.max_tf));
            // the least dl/tf is the floor of the block's exact least
            // ratio at the 1/256 fixed point, so never above any posting's
            let ratios = docs.iter().zip(&tfs).map(|(&d, &t)| f64::from(doc_len(d)) / f64::from(t));
            let least = ratios.fold(f64::INFINITY, f64::min);
            assert_eq!(b.min_dl_per_tf(), (least * 256.0).floor() / 256.0, "block {i}");
        }
        let blocks = list.blocks();
        assert_eq!(list.max_tf(), blocks.iter().map(|b| b.max_tf).max().unwrap());
        let least = blocks.iter().map(BlockMeta::min_dl_per_tf).fold(f64::INFINITY, f64::min);
        assert_eq!(list.min_dl_per_tf(), least);
    }

    #[test]
    fn least_dl_per_tf_is_derived_from_the_document_lengths() {
        // the same postings built against other document lengths derive
        // other bounds, and only the bounds differ
        let original = synthetic(300);
        let list = PostingList::from_postings(&original, doc_len);
        let longer = PostingList::from_postings(&original, |doc| 2 * doc_len(doc));
        assert_eq!(longer.to_vec(), original);
        assert_eq!(longer.max_tf(), list.max_tf());
        assert!(longer.min_dl_per_tf() > list.min_dl_per_tf());
        assert_ne!(longer, list);
        // a ratio beyond the fixed point's range saturates, a length below
        // the tf stays exact in sixteenths
        let huge = PostingList::from_postings(&posts(&[(0, 1)]), |_| u32::MAX);
        assert_eq!(huge.blocks()[0].min_dl_tf, u32::MAX);
        let short = PostingList::from_postings(&posts(&[(0, 16)]), |_| 1);
        assert_eq!(short.min_dl_per_tf(), 1.0 / 16.0);
    }

    #[test]
    fn dense_runs_compress_hard() {
        // consecutive docs with tf = 1: both streams pack at width 0
        let original = posts(&(0..256).map(|d| (d, 1)).collect::<Vec<_>>());
        let list = PostingList::from_postings(&original, doc_len);
        assert_eq!(list.heap_bytes(), 2 * std::mem::size_of::<BlockMeta>());
        assert!(list.heap_bytes() < original.len() * 8 / 10);
        assert_eq!(list.to_vec(), original);
    }

    #[test]
    fn empty_list_is_empty_everywhere() {
        let list = PostingList::from_postings(&[], doc_len);
        assert!(list.is_empty());
        assert_eq!(list.to_vec(), Vec::new());
        assert_eq!(list.tf_of(0), 0);
        assert_eq!(list.heap_bytes(), 0);
        assert!(list.blocks().is_empty());
        assert_eq!((list.max_tf(), list.min_dl_per_tf()), (0, 0.0));
        assert_eq!(list, PostingList::default());
    }

    #[test]
    fn wide_gaps_and_wide_tfs_still_roundtrip() {
        let original = posts(&[(0, 1), (1 << 30, 1 << 20), (u32::MAX - 1, 3)]);
        let list = PostingList::from_postings(&original, doc_len);
        assert_eq!(list.to_vec(), original);
        for p in &original {
            assert_eq!(list.tf_of(p.doc), p.tf, "doc {}", p.doc);
        }
        assert_eq!(list.tf_of(1 << 29), 0);
        assert_eq!(list.tf_of(u32::MAX), 0);
        // one block whose gaps and tfs need the full 32-bit widths
        let b = list.blocks()[0];
        assert_eq!((b.doc_bits, b.tf_bits, list.max_tf()), (32, 20, 1 << 20));
        // two 32-bit gaps fill one word, three 20-bit tfs another
        assert_eq!(list.heap_bytes(), 2 * 8 + std::mem::size_of::<BlockMeta>());
    }
}
