//! The inverted index and collection statistics.
//!
//! The index is the flattened form of a `CONTREP` column and its only
//! physical representation: term dictionary, postings (term → (document,
//! tf) pairs), document lengths and global statistics. The CONTREP belief
//! operators (`contrep.getbl`, `contrep.getbl.topk`) are custom kernel
//! operators that read it in place, as Monet's accelerator structures are
//! read beside the BATs.
//!
//! Postings are held block-compressed ([`crate::postings::PostingList`]):
//! delta-encoded doc ids and bitpacked tfs in fixed-size blocks, each
//! carrying block-max metadata. Every consumer walks them through the
//! block API ([`InvertedIndex::postings_list`]).

use crate::dict::TermDict;
use crate::postings::PostingList;
use crate::text::tokenize_stemmed;
use monet::storage::{ByteReader, ByteWriter, ENDIAN_SENTINEL};
use monet::{MonetError, Oid};

/// One posting: a document and the term's frequency within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// Document oid.
    pub doc: Oid,
    /// Term frequency.
    pub tf: u32,
}

/// Magic prefix of a serialised index blob.
const INDEX_MAGIC: &[u8; 7] = b"MIRRIDX";

/// On-disk format version of [`InvertedIndex::to_bytes`] this build reads
/// and writes. v1 was the unversioned raw-posting layout (no magic); v2
/// added the block-compressed postings and an optional pinned-statistics
/// trailer; v3 drops the trailer — an index's statistics are its own.
pub const INDEX_FORMAT_VERSION: u8 = 3;

/// Global collection statistics (the paper's `stats` structure).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectionStats {
    /// Number of documents.
    pub n_docs: usize,
    /// Number of distinct terms.
    pub n_terms: usize,
    /// Average document length in tokens.
    pub avg_dl: f64,
    /// Total token count.
    pub total_tokens: u64,
}

/// An immutable inverted index over one document collection.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    dict: TermDict,
    /// Block-compressed postings per term id, document-ordered.
    postings: Vec<PostingList>,
    /// Document frequency per term id.
    df: Vec<u32>,
    /// Collection frequency per term id.
    cf: Vec<u64>,
    /// Token count per document.
    doc_len: Vec<u32>,
}

impl InvertedIndex {
    /// The term dictionary.
    pub fn dict(&self) -> &TermDict {
        &self.dict
    }

    /// The block-compressed postings of a term, if the term occurs.
    pub fn postings_list(&self, term: &str) -> Option<&PostingList> {
        let tid = self.dict.lookup(term)?;
        self.postings.get(tid as usize)
    }

    /// The block-compressed postings of a term id, `None` when the id is
    /// outside the dictionary.
    pub fn postings_by_id(&self, tid: u32) -> Option<&PostingList> {
        self.postings.get(tid as usize)
    }

    /// Document frequency of a term (0 when absent).
    pub fn df(&self, term: &str) -> u32 {
        self.dict.lookup(term).map_or(0, |t| self.df[t as usize])
    }

    /// Iterate `(term, document frequency)` over the whole dictionary, in
    /// term-id order — the ingest-time feed for the logical layer's
    /// statistics catalog.
    pub fn term_dfs(&self) -> impl Iterator<Item = (&str, u32)> {
        self.dict.iter().map(move |(id, t)| (t, self.df[id as usize]))
    }

    /// Collection frequency of a term (0 when absent).
    pub fn cf(&self, term: &str) -> u64 {
        self.dict.lookup(term).map_or(0, |t| self.cf[t as usize])
    }

    /// Greatest term frequency of `term` within any single document
    /// (0 when absent), read from the term's posting list, which derives
    /// it from its blocks ([`PostingList::max_tf`]). With the list's least
    /// `dl/tf` it yields a sound per-term belief upper bound — see
    /// [`crate::belief::BeliefParams::belief_bound`]. The index blob
    /// carries it per term, and [`from_bytes`](Self::from_bytes) rejects a
    /// stored value that disagrees with the blocks.
    pub fn max_tf(&self, term: &str) -> u32 {
        self.postings_list(term).map_or(0, PostingList::max_tf)
    }

    /// Length (token count) of document `doc`.
    pub fn doc_len(&self, doc: Oid) -> u32 {
        self.doc_len.get(doc as usize).copied().unwrap_or(0)
    }

    /// Term frequency of `term` in `doc` — a per-document lookup, the
    /// operation a tuple-at-a-time engine performs per (doc, term) pair.
    /// Touches exactly one compressed block.
    pub fn tf(&self, term: &str, doc: Oid) -> u32 {
        self.postings_list(term).map_or(0, |posts| posts.tf_of(doc))
    }

    /// Collection statistics of this index's own documents. A collection
    /// held in several indexes (live segments, cluster shards) is scored
    /// with union statistics passed to [`crate::topk_channels`] instead.
    pub fn stats(&self) -> CollectionStats {
        let total: u64 = self.doc_len.iter().map(|&l| l as u64).sum();
        let n = self.doc_len.len();
        CollectionStats {
            n_docs: n,
            n_terms: self.dict.len(),
            avg_dl: if n == 0 { 0.0 } else { total as f64 / n as f64 },
            total_tokens: total,
        }
    }

    /// Heap bytes held by the compressed posting lists (payload words plus
    /// skip indexes) — the numerator of the benchmark's
    /// `ir.postings.bytes_per_doc`.
    pub fn postings_heap_bytes(&self) -> usize {
        self.postings.iter().map(PostingList::heap_bytes).sum()
    }

    /// Bytes the same postings would occupy in the raw-vec representation
    /// (8 bytes per posting) — the pre-compression baseline.
    pub fn raw_postings_bytes(&self) -> usize {
        self.postings.iter().map(|p| p.len() * std::mem::size_of::<Posting>()).sum()
    }

    /// Number of documents.
    pub fn n_docs(&self) -> usize {
        self.doc_len.len()
    }

    /// Serialise the whole index — dictionary, postings and statistics —
    /// into a self-contained versioned byte blob (the storage tier's
    /// little-endian codec). The compressed posting blocks are written
    /// verbatim: nothing is decoded on the way to disk, so the on-disk and
    /// in-RAM representations shrink together.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.bytes(INDEX_MAGIC);
        w.u8(INDEX_FORMAT_VERSION);
        w.u16(ENDIAN_SENTINEL);
        w.u64(self.doc_len.len() as u64);
        for &dl in &self.doc_len {
            w.u32(dl);
        }
        w.u64(self.dict.len() as u64);
        for (_, term) in self.dict.iter() {
            w.str(term);
        }
        for tid in 0..self.dict.len() {
            w.u32(self.df[tid]);
            w.u64(self.cf[tid]);
            w.u32(self.postings[tid].max_tf());
            self.postings[tid].write_to(&mut w);
        }
        w.into_bytes()
    }

    /// Decode an index serialised by [`to_bytes`](Self::to_bytes).
    ///
    /// A blob carrying any other format version — including the legacy v1
    /// raw-posting layout, which had no magic prefix — is rejected with a
    /// typed [`monet::MonetError::FormatVersion`] before any payload is
    /// decoded. Every length is validated before allocation, every
    /// posting block is cross-checked against its block-max metadata, and
    /// every term's stored `max_tf` against its blocks; torn or corrupted
    /// blobs come back as [`monet::MonetError::Corrupt`].
    pub fn from_bytes(bytes: &[u8]) -> monet::Result<InvertedIndex> {
        let corrupt =
            |detail: String| MonetError::Corrupt { what: "inverted index".to_string(), detail };
        if bytes.len() < INDEX_MAGIC.len() + 3 || &bytes[..INDEX_MAGIC.len()] != INDEX_MAGIC {
            // the legacy v1 layout started straight with the dictionary
            // length — no magic to check, so any unmagicked blob is
            // rejected as the version we no longer read
            return Err(MonetError::FormatVersion {
                found: 1,
                expected: INDEX_FORMAT_VERSION as u32,
            });
        }
        let version = bytes[INDEX_MAGIC.len()];
        if version != INDEX_FORMAT_VERSION {
            return Err(MonetError::FormatVersion {
                found: version as u32,
                expected: INDEX_FORMAT_VERSION as u32,
            });
        }
        let mut r = ByteReader::new(&bytes[INDEX_MAGIC.len() + 1..], "inverted index");
        let sentinel = r.u16()?;
        if sentinel != ENDIAN_SENTINEL {
            return Err(corrupt(format!(
                "endianness sentinel {sentinel:#06x} — written with a different byte order"
            )));
        }
        let n_docs = r.len64(r.remaining() / 4)?;
        let mut doc_len = Vec::with_capacity(n_docs);
        for _ in 0..n_docs {
            doc_len.push(r.u32()?);
        }
        let n_terms = r.len64(r.remaining())?;
        let mut dict = TermDict::new();
        for _ in 0..n_terms {
            dict.intern(&r.str()?);
        }
        if dict.len() != n_terms {
            return Err(corrupt("duplicate terms in serialised dictionary".into()));
        }
        let mut postings = Vec::with_capacity(n_terms);
        let mut df = Vec::with_capacity(n_terms);
        let mut cf = Vec::with_capacity(n_terms);
        for tid in 0..n_terms {
            df.push(r.u32()?);
            cf.push(r.u64()?);
            let max_tf = r.u32()?;
            let posts = PostingList::read_from(&mut r, n_docs, |d| doc_len[d as usize])?;
            // a lowered max_tf would shrink the list-level pruning bound
            // and silently drop qualifying documents
            if max_tf != posts.max_tf() {
                return Err(corrupt(format!(
                    "term {tid}: stored max_tf {max_tf}, blocks say {}",
                    posts.max_tf()
                )));
            }
            postings.push(posts);
        }
        if !r.is_exhausted() {
            return Err(corrupt(format!("{} trailing bytes", r.remaining())));
        }
        for (tid, posts) in postings.iter().enumerate() {
            if posts.len() != df[tid] as usize {
                return Err(corrupt(format!(
                    "term {tid}: {} postings but df {}",
                    posts.len(),
                    df[tid]
                )));
            }
        }
        Ok(InvertedIndex { dict, postings, df, cf, doc_len })
    }
}

/// Incremental index builder.
#[derive(Debug, Default)]
pub struct IndexBuilder {
    dict: TermDict,
    postings: Vec<Vec<Posting>>,
    cf: Vec<u64>,
    doc_len: Vec<u32>,
}

impl IndexBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add the next document from raw text (tokenise + stem). Missing
    /// documents (`None`) get an empty representation, keeping doc oids
    /// aligned with collection oids.
    pub fn add_text(&mut self, text: Option<&str>) {
        match text {
            Some(t) => self.add_tokens(&tokenize_stemmed(t)),
            None => self.add_tokens::<&str>(&[]),
        }
    }

    /// Add the next document from pre-tokenised terms (used for visual
    /// "documents" whose terms are cluster names).
    pub fn add_tokens<S: AsRef<str>>(&mut self, tokens: &[S]) {
        let doc = self.doc_len.len() as Oid;
        self.doc_len.push(tokens.len() as u32);
        // per-document tf accumulation
        let mut counts: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        for t in tokens {
            let tid = self.dict.intern(t.as_ref());
            if tid as usize >= self.postings.len() {
                self.postings.push(Vec::new());
                self.cf.push(0);
            }
            *counts.entry(tid).or_insert(0) += 1;
            self.cf[tid as usize] += 1;
        }
        let mut tids: Vec<_> = counts.into_iter().collect();
        tids.sort_unstable();
        for (tid, tf) in tids {
            self.postings[tid as usize].push(Posting { doc, tf });
        }
    }

    /// Freeze into an immutable index, compressing each posting run into
    /// blocks.
    pub fn build(self) -> InvertedIndex {
        let df = self.postings.iter().map(|p| p.len() as u32).collect();
        let doc_len = |d: Oid| self.doc_len[d as usize];
        let postings =
            self.postings.iter().map(|p| PostingList::from_postings(p, doc_len)).collect();
        InvertedIndex { dict: self.dict, postings, df, cf: self.cf, doc_len: self.doc_len }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_index() -> InvertedIndex {
        let mut b = IndexBuilder::new();
        b.add_text(Some("the sunset over the beach"));
        b.add_text(Some("a forest in the mist, a quiet forest"));
        b.add_text(None);
        b.add_text(Some("sunset colors on the beach sand"));
        b.build()
    }

    #[test]
    fn postings_and_df() {
        let idx = small_index();
        assert_eq!(idx.df("sunset"), 2);
        assert_eq!(idx.df("forest"), 1);
        assert_eq!(idx.df("nothere"), 0);
        let list = idx.postings_list("sunset").unwrap();
        assert_eq!(list.len(), 2);
        let posts = list.to_vec();
        assert_eq!(posts.len(), 2);
        assert_eq!(posts[0].doc, 0);
        assert_eq!(posts[1].doc, 3);
    }

    #[test]
    fn postings_by_id_is_validated() {
        let idx = small_index();
        let tid = idx.dict().lookup("sunset").unwrap();
        assert_eq!(idx.postings_by_id(tid).unwrap().len(), 2);
        // out-of-range ids are None, not a panic
        assert!(idx.postings_by_id(u32::MAX).is_none());
        assert!(idx.postings_by_id(idx.dict().len() as u32).is_none());
    }

    #[test]
    fn tf_within_document() {
        let idx = small_index();
        assert_eq!(idx.tf("forest", 1), 2);
        assert_eq!(idx.tf("forest", 0), 0);
        assert_eq!(idx.cf("forest"), 2);
    }

    #[test]
    fn max_tf_tracks_the_densest_document() {
        let idx = small_index();
        assert_eq!(idx.max_tf("forest"), 2); // twice in doc 1
        assert_eq!(idx.max_tf("sunset"), 1);
        assert_eq!(idx.max_tf("nothere"), 0);
        // max_tf dominates every per-document tf
        for term in ["sunset", "beach", "forest", "mist"] {
            for doc in 0..4 {
                assert!(idx.tf(term, doc) <= idx.max_tf(term));
            }
        }
    }

    #[test]
    fn doc_len_counts_kept_tokens() {
        let idx = small_index();
        // "the sunset over the beach" → stopwords removed → sunset, beach
        assert_eq!(idx.doc_len(0), 2);
        assert_eq!(idx.doc_len(2), 0); // missing annotation
    }

    #[test]
    fn stats_are_consistent() {
        let idx = small_index();
        let s = idx.stats();
        assert_eq!(s.n_docs, 4);
        assert!(s.n_terms >= 6);
        assert!((s.avg_dl - s.total_tokens as f64 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn compressed_postings_use_fewer_bytes_than_raw() {
        let mut b = IndexBuilder::new();
        for d in 0..2000 {
            let toks: Vec<String> = (0..6).map(|j| format!("w{}", (d * 3 + j * 5) % 40)).collect();
            b.add_tokens(&toks);
        }
        let idx = b.build();
        assert!(
            idx.postings_heap_bytes() * 2 < idx.raw_postings_bytes(),
            "compressed {} vs raw {}",
            idx.postings_heap_bytes(),
            idx.raw_postings_bytes()
        );
    }

    #[test]
    fn tokens_api_for_visual_terms() {
        let mut b = IndexBuilder::new();
        b.add_tokens(&["rgb_3", "rgb_3", "gabor_21"]);
        let idx = b.build();
        assert_eq!(idx.tf("rgb_3", 0), 2);
        assert_eq!(idx.df("gabor_21"), 1);
    }

    #[test]
    fn empty_index() {
        let idx = IndexBuilder::new().build();
        assert_eq!(idx.n_docs(), 0);
        assert_eq!(idx.stats().avg_dl, 0.0);
        assert!(idx.postings_list("x").is_none());
    }

    #[test]
    fn bytes_roundtrip_preserves_everything() {
        let idx = small_index();
        let back = InvertedIndex::from_bytes(&idx.to_bytes()).unwrap();
        assert_eq!(back.n_docs(), idx.n_docs());
        assert_eq!(back.stats(), idx.stats());
        for term in ["sunset", "beach", "forest", "mist"] {
            let posts = |i: &InvertedIndex| i.postings_list(term).map(PostingList::to_vec);
            assert_eq!(posts(&back), posts(&idx), "{term}");
            assert_eq!(back.df(term), idx.df(term));
            assert_eq!(back.cf(term), idx.cf(term));
            assert_eq!(back.max_tf(term), idx.max_tf(term));
        }
        for d in 0..idx.n_docs() as Oid {
            assert_eq!(back.doc_len(d), idx.doc_len(d));
        }
    }

    #[test]
    fn blob_stores_postings_compressed() {
        let mut b = IndexBuilder::new();
        for d in 0..3000 {
            let toks: Vec<String> = (0..8).map(|j| format!("w{}", (d + j * 7) % 50)).collect();
            b.add_tokens(&toks);
        }
        let idx = b.build();
        let blob = idx.to_bytes();
        // well under the 8 raw bytes per posting the v1 layout used
        assert!(
            blob.len() < idx.raw_postings_bytes(),
            "blob {} vs raw postings {}",
            blob.len(),
            idx.raw_postings_bytes()
        );
        let back = InvertedIndex::from_bytes(&blob).unwrap();
        assert_eq!(
            back.postings_list("w0").map(PostingList::to_vec),
            idx.postings_list("w0").map(PostingList::to_vec)
        );
    }

    #[test]
    fn legacy_v1_blob_is_rejected_with_typed_version_error() {
        // the v1 layout began with the u64 dictionary length — no magic
        let mut w = ByteWriter::new();
        w.u64(1);
        w.str("sunset");
        let err = InvertedIndex::from_bytes(&w.into_bytes()).unwrap_err();
        assert_eq!(err, MonetError::FormatVersion { found: 1, expected: 3 });
    }

    #[test]
    fn future_version_is_rejected_before_decode() {
        let mut blob = small_index().to_bytes();
        blob[INDEX_MAGIC.len()] = 9;
        assert_eq!(
            InvertedIndex::from_bytes(&blob).unwrap_err(),
            MonetError::FormatVersion { found: 9, expected: 3 }
        );
    }

    #[test]
    fn stored_max_tf_that_disagrees_with_the_blocks_is_corrupt() {
        // term 0 ("a") occurs twice in doc 0: its stored max_tf is 2
        let mut b = IndexBuilder::new();
        b.add_tokens(&["a", "a", "b"]);
        b.add_tokens(&["a", "c"]);
        let idx = b.build();
        assert_eq!(idx.dict().lookup("a"), Some(0));
        assert_eq!(idx.max_tf("a"), 2);
        let blob = idx.to_bytes();
        // the offset of term 0's stored max_tf: the header, the document
        // lengths, the dictionary, then term 0's df and cf
        let mut w = ByteWriter::new();
        w.bytes(INDEX_MAGIC);
        w.u8(INDEX_FORMAT_VERSION);
        w.u16(ENDIAN_SENTINEL);
        w.u64(idx.n_docs() as u64);
        for d in 0..idx.n_docs() as Oid {
            w.u32(idx.doc_len(d));
        }
        w.u64(idx.dict().len() as u64);
        for (_, term) in idx.dict().iter() {
            w.str(term);
        }
        w.u32(idx.df("a"));
        w.u64(idx.cf("a"));
        let at = w.into_bytes().len();
        assert_eq!(blob[at..at + 4], 2u32.to_le_bytes());
        assert!(InvertedIndex::from_bytes(&blob).is_ok());
        // lowered, the list bound would drop doc 0; raised, it is a lie too
        for stored in [1u32, 3] {
            let mut bad = blob.clone();
            bad[at..at + 4].copy_from_slice(&stored.to_le_bytes());
            let err = InvertedIndex::from_bytes(&bad).unwrap_err();
            assert!(matches!(err, MonetError::Corrupt { .. }), "stored {stored}: {err:?}");
        }
    }

    #[test]
    fn truncated_or_flipped_blob_is_typed_corrupt() {
        let bytes = small_index().to_bytes();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(InvertedIndex::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // a posting pointing outside the collection is rejected
        let mut blob = bytes;
        // flip high bits somewhere in the postings region; either the
        // decode fails structurally or the range check rejects it —
        // silence is the only wrong answer
        let mid = blob.len() / 2;
        blob[mid] ^= 0xFF;
        if let Ok(back) = InvertedIndex::from_bytes(&blob) {
            // decode may survive a flip in, say, a cf value — but doc
            // references must still be in range
            for tid in 0..back.dict().len() as u32 {
                for p in back.postings_by_id(tid).unwrap().to_vec() {
                    assert!((p.doc as usize) < back.n_docs());
                }
            }
        }
    }
}
