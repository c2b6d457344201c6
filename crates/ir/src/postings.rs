//! Block-compressed posting lists.
//!
//! A posting list stores `(doc, tf)` pairs in immutable fixed-size blocks
//! of up to [`BLOCK_LEN`] postings. Within a block, document ids are
//! delta-encoded (`doc[j] − doc[j−1] − 1`, sound because doc ids are
//! strictly ascending) and term frequencies are stored as `tf − 1`; both
//! streams are bitpacked at the block's own width through the storage
//! codec's packing primitives ([`monet::storage`]). Each block carries
//! block-max metadata — its first and last document id and its greatest
//! `tf` — which is what lets the top-k evaluator ([`crate::topk`]) skip
//! whole blocks without decoding them: the block's `max_tf` yields a sound
//! belief upper bound for every posting inside, and `last_doc` lets a
//! cursor seek past the block entirely.
//!
//! The raw-vec representation cost 8 bytes per posting; on natural-language
//! term distributions blocks typically land between 1 and 2 bytes per
//! posting (the benchmark's `ir.postings.bytes_per_doc` row measures it),
//! so the same corpus moves less memory per query — on disk, at cold open,
//! and on every scan.

use crate::index::Posting;
use monet::storage::{
    bits_for, pack_u32s, packed_words, unpack_u32_at, unpack_u32s, ByteReader, ByteWriter,
};
use monet::{MonetError, Oid};

/// Maximum postings per block. 128 keeps a decoded block inside two cache
/// lines per stream while amortising the per-block metadata to well under
/// a bit per posting.
pub const BLOCK_LEN: usize = 128;

/// Per-block metadata: the skip index entry the evaluator reads *instead
/// of* the block payload when deciding whether to decode it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMeta {
    /// First document id in the block (stored here, not in the payload).
    pub first_doc: Oid,
    /// Last document id in the block — the seek key.
    pub last_doc: Oid,
    /// Greatest term frequency in the block — the block-max bound input.
    pub max_tf: u32,
    /// Postings in this block (≤ [`BLOCK_LEN`]).
    pub count: u32,
    /// Bits per doc-id delta.
    pub doc_bits: u8,
    /// Bits per `tf − 1` value.
    pub tf_bits: u8,
    /// Index of the block's first word in the list's word array.
    pub offset: u32,
}

impl BlockMeta {
    /// Word index of the block's tf stream (the doc deltas come first).
    #[inline]
    fn tf_offset(&self) -> usize {
        self.offset as usize + packed_words(self.count as usize - 1, self.doc_bits as u32)
    }

    /// Words occupied by the block payload.
    #[inline]
    fn words(&self) -> usize {
        let n = self.count as usize;
        packed_words(n - 1, self.doc_bits as u32) + packed_words(n, self.tf_bits as u32)
    }
}

/// An immutable block-compressed posting list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PostingList {
    blocks: Vec<BlockMeta>,
    words: Vec<u64>,
    len: usize,
}

impl PostingList {
    /// Compress a document-ordered posting slice into blocks.
    ///
    /// # Panics
    /// Debug-asserts that doc ids are strictly ascending and every tf is
    /// nonzero — the invariants the index builder maintains.
    pub fn from_postings(posts: &[Posting]) -> PostingList {
        debug_assert!(posts.windows(2).all(|w| w[0].doc < w[1].doc), "postings must be ascending");
        debug_assert!(posts.iter().all(|p| p.tf > 0), "postings must have nonzero tf");
        let mut blocks = Vec::with_capacity(posts.len().div_ceil(BLOCK_LEN));
        let mut words = Vec::new();
        let mut deltas = Vec::with_capacity(BLOCK_LEN);
        let mut tfs = Vec::with_capacity(BLOCK_LEN);
        for chunk in posts.chunks(BLOCK_LEN) {
            deltas.clear();
            tfs.clear();
            let mut max_tf = 0u32;
            for (j, p) in chunk.iter().enumerate() {
                if j > 0 {
                    deltas.push(p.doc - chunk[j - 1].doc - 1);
                }
                tfs.push(p.tf - 1);
                max_tf = max_tf.max(p.tf);
            }
            let doc_bits = bits_for(deltas.iter().copied().max().unwrap_or(0)) as u8;
            let tf_bits = bits_for(max_tf - 1) as u8;
            let offset = words.len() as u32;
            pack_u32s(&mut words, &deltas, doc_bits as u32);
            pack_u32s(&mut words, &tfs, tf_bits as u32);
            blocks.push(BlockMeta {
                first_doc: chunk[0].doc,
                last_doc: chunk[chunk.len() - 1].doc,
                max_tf,
                count: chunk.len() as u32,
                doc_bits,
                tf_bits,
                offset,
            });
        }
        PostingList { blocks, words, len: posts.len() }
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

    /// Decode block `i` into reused scratch buffers (cleared first):
    /// absolute document ids into `docs`, raw term frequencies into `tfs`.
    /// The unpack loops are the branch-light kernel every decoded block
    /// goes through — no per-value branching beyond the word-straddle test.
    pub fn decode_block_into(&self, i: usize, docs: &mut Vec<Oid>, tfs: &mut Vec<u32>) {
        let b = &self.blocks[i];
        let n = b.count as usize;
        // docs temporarily holds the deltas, then prefix-sums in place
        unpack_u32s(&self.words, b.offset as usize, n - 1, b.doc_bits as u32, docs);
        let mut prev = b.first_doc;
        for d in docs.iter_mut() {
            prev += *d + 1;
            *d = prev;
        }
        docs.insert(0, b.first_doc);
        unpack_u32s(&self.words, b.tf_offset(), n, b.tf_bits as u32, tfs);
        for t in tfs.iter_mut() {
            *t += 1;
        }
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

    /// Serialise the compressed form directly — blocks are *not* decoded
    /// on the way to disk. Layout: posting count, payload words, then per
    /// block `first_doc, last_doc, max_tf, doc_bits, tf_bits` (`count` and
    /// `offset` are recomputed on read).
    pub fn write_to(&self, w: &mut ByteWriter) {
        w.u64(self.len as u64);
        w.u64(self.words.len() as u64);
        for word in &self.words {
            w.u64(*word);
        }
        for b in &self.blocks {
            w.u32(b.first_doc);
            w.u32(b.last_doc);
            w.u32(b.max_tf);
            w.u8(b.doc_bits);
            w.u8(b.tf_bits);
        }
    }

    /// Deserialise a list written by [`write_to`](Self::write_to) and
    /// validate it exhaustively against the collection size: block bounds
    /// must be ascending and inside the collection, recomputed offsets
    /// must cover the payload exactly, and every decoded posting must
    /// match its block's metadata (ascending doc ids ending on `last_doc`,
    /// greatest tf equal to `max_tf`) — a corrupt block-max would silently
    /// break pruning soundness, so it is rejected here instead.
    pub fn read_from(r: &mut ByteReader<'_>, n_docs: usize) -> monet::Result<PostingList> {
        let corrupt = |detail: String| MonetError::Corrupt {
            what: "compressed posting list".to_string(),
            detail,
        };
        let len = r.len64(r.remaining().saturating_mul(64))?;
        let n_words = r.len64(r.remaining() / 8)?;
        let mut words = Vec::with_capacity(n_words);
        for _ in 0..n_words {
            words.push(r.u64()?);
        }
        let n_blocks = len.div_ceil(BLOCK_LEN);
        let mut blocks = Vec::with_capacity(n_blocks);
        let mut offset = 0usize;
        for i in 0..n_blocks {
            let first_doc = r.u32()?;
            let last_doc = r.u32()?;
            let max_tf = r.u32()?;
            let doc_bits = r.u8()?;
            let tf_bits = r.u8()?;
            if doc_bits > 32 || tf_bits > 32 {
                return Err(corrupt(format!("block {i}: widths {doc_bits}/{tf_bits} exceed 32")));
            }
            let count = (len - i * BLOCK_LEN).min(BLOCK_LEN) as u32;
            let meta = BlockMeta {
                first_doc,
                last_doc,
                max_tf,
                count,
                doc_bits,
                tf_bits,
                offset: u32::try_from(offset)
                    .map_err(|_| corrupt(format!("block {i}: word offset overflows u32")))?,
            };
            if first_doc > last_doc || last_doc as usize >= n_docs {
                return Err(corrupt(format!(
                    "block {i}: doc range [{first_doc}, {last_doc}] outside collection of {n_docs}"
                )));
            }
            if let Some(prev) = blocks.last() {
                let p: &BlockMeta = prev;
                if p.last_doc >= first_doc {
                    return Err(corrupt(format!("block {i} overlaps its predecessor")));
                }
            }
            offset += meta.words();
            blocks.push(meta);
        }
        if offset != n_words {
            return Err(corrupt(format!("blocks cover {offset} words, payload has {n_words}")));
        }
        let list = PostingList { blocks, words, len };
        list.validate_payload()?;
        Ok(list)
    }

    /// Decode every block and cross-check it against its metadata.
    fn validate_payload(&self) -> monet::Result<()> {
        let corrupt = |detail: String| MonetError::Corrupt {
            what: "compressed posting list".to_string(),
            detail,
        };
        let mut deltas = Vec::with_capacity(BLOCK_LEN);
        let mut tfs = Vec::with_capacity(BLOCK_LEN);
        for (i, b) in self.blocks.iter().enumerate() {
            let n = b.count as usize;
            unpack_u32s(&self.words, b.offset as usize, n - 1, b.doc_bits as u32, &mut deltas);
            // accumulate in u64 so corrupt deltas cannot wrap past the check
            let mut doc = u64::from(b.first_doc);
            for &d in &deltas {
                doc += u64::from(d) + 1;
            }
            if doc != u64::from(b.last_doc) {
                return Err(corrupt(format!(
                    "block {i}: deltas end at doc {doc}, metadata says {}",
                    b.last_doc
                )));
            }
            unpack_u32s(&self.words, b.tf_offset(), n, b.tf_bits as u32, &mut tfs);
            // widen before the +1 so a corrupt all-ones tf cannot overflow
            let max = tfs.iter().map(|&t| u64::from(t) + 1).max().unwrap_or(0);
            if max != u64::from(b.max_tf) {
                return Err(corrupt(format!(
                    "block {i}: greatest decoded tf {max} does not match block-max {}",
                    b.max_tf
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn posts(pairs: &[(u32, u32)]) -> Vec<Posting> {
        pairs.iter().map(|&(doc, tf)| Posting { doc, tf }).collect()
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
            let list = PostingList::from_postings(&original);
            assert_eq!(list.len(), n);
            assert_eq!(list.to_vec(), original, "n={n}");
            assert_eq!(list.blocks().len(), n.div_ceil(BLOCK_LEN));
        }
    }

    #[test]
    fn tf_of_finds_every_posting_and_misses_gaps() {
        let original = synthetic(300);
        let list = PostingList::from_postings(&original);
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
        let list = PostingList::from_postings(&original);
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
        }
    }

    #[test]
    fn dense_runs_compress_hard() {
        // consecutive docs with tf = 1: both streams pack at width 0
        let original = posts(&(0..256).map(|d| (d, 1)).collect::<Vec<_>>());
        let list = PostingList::from_postings(&original);
        assert_eq!(list.heap_bytes(), 2 * std::mem::size_of::<BlockMeta>());
        assert!(list.heap_bytes() < original.len() * 8 / 10);
        assert_eq!(list.to_vec(), original);
    }

    #[test]
    fn serialisation_roundtrips_compressed() {
        let original = synthetic(300);
        let list = PostingList::from_postings(&original);
        let n_docs = original.last().unwrap().doc as usize + 1;
        let mut w = ByteWriter::new();
        list.write_to(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "postings");
        let back = PostingList::read_from(&mut r, n_docs).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back, list);
        // the serialised form is the compressed form: no 8-byte postings
        assert!(bytes.len() < original.len() * 8 / 2, "{} bytes", bytes.len());
    }

    #[test]
    fn corrupt_blobs_are_typed_errors() {
        let original = synthetic(200);
        let list = PostingList::from_postings(&original);
        let n_docs = original.last().unwrap().doc as usize + 1;
        let mut w = ByteWriter::new();
        list.write_to(&mut w);
        let bytes = w.into_bytes();
        // truncations
        for cut in [0usize, 4, bytes.len() / 2, bytes.len() - 1] {
            let mut r = ByteReader::new(&bytes[..cut], "postings");
            assert!(PostingList::read_from(&mut r, n_docs).is_err(), "cut {cut}");
        }
        // a shrunk collection makes the last block out of range
        let mut r = ByteReader::new(&bytes, "postings");
        assert!(PostingList::read_from(&mut r, n_docs / 2).is_err());
        // flipped payload bits must not survive metadata cross-checks
        let mut rejected = 0;
        for byte in (16..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[byte] ^= 0x55;
            let mut r = ByteReader::new(&bad, "postings");
            match PostingList::read_from(&mut r, n_docs) {
                Err(_) => rejected += 1,
                Ok(back) => {
                    // a surviving flip may only change tfs *below* the
                    // block-max; doc structure and bounds must still hold
                    let decoded = back.to_vec();
                    assert!(decoded.windows(2).all(|w| w[0].doc < w[1].doc));
                    assert!(decoded.iter().all(|p| (p.doc as usize) < n_docs && p.tf > 0));
                }
            }
        }
        assert!(rejected > 0, "no flip was ever rejected");
    }

    #[test]
    fn empty_list_is_empty_everywhere() {
        let list = PostingList::from_postings(&[]);
        assert!(list.is_empty());
        assert_eq!(list.to_vec(), Vec::new());
        assert_eq!(list.tf_of(0), 0);
        assert_eq!(list.heap_bytes(), 0);
        let mut w = ByteWriter::new();
        list.write_to(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "postings");
        assert_eq!(PostingList::read_from(&mut r, 0).unwrap(), list);
    }

    #[test]
    fn wide_gaps_and_wide_tfs_still_roundtrip() {
        let original = posts(&[(0, 1), (1 << 30, 1 << 20), (u32::MAX - 1, 3)]);
        let list = PostingList::from_postings(&original);
        assert_eq!(list.to_vec(), original);
        assert_eq!(list.tf_of(1 << 30), 1 << 20);
        let mut w = ByteWriter::new();
        list.write_to(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "postings");
        let back = PostingList::read_from(&mut r, u32::MAX as usize).unwrap();
        assert_eq!(back, list);
    }
}
