//! The inverted index and collection statistics.
//!
//! The index is the flattened form of a `CONTREP` column: term
//! dictionary, postings (term → (document, tf) pairs), document lengths
//! and global statistics. The CONTREP belief operators (`contrep.getbl`,
//! `contrep.getbl.topk`) are custom kernel operators that read it in
//! place, as Monet's accelerator structures are read beside the BATs.
//!
//! Postings are held block-compressed ([`crate::postings::PostingList`]):
//! delta-encoded doc ids and bitpacked tfs in fixed-size blocks, each
//! carrying block-max metadata. Every walk over documents goes through
//! the block API ([`InvertedIndex::postings_list`]).
//!
//! A dense index also keeps its tfs document-major ([`TfRows`]), so the
//! top k reads a document's tf from its row instead of decoding a block for
//! it. That is a probe, not a second representation: walks read the lists.

use crate::dict::TermDict;
use crate::postings::PostingList;
use crate::text::{for_each_token, is_stopword, porter_stem_into};
use monet::Oid;
use std::collections::HashMap;

/// One posting: a document and the term's frequency within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// Document oid.
    pub doc: Oid,
    /// Term frequency.
    pub tf: u32,
}

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

/// An immutable inverted index over one document collection. Its term ids
/// are canonical (byte order of the terms), so two indexes over the same
/// documents are equal value for value however they were built.
#[derive(Debug, Clone, PartialEq)]
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
    /// Sum of `doc_len`, so [`stats`](Self::stats) is O(1).
    total_tokens: u64,
    /// The tfs document-major, for a dense index.
    rows: Option<TfRows>,
}

/// An index's tfs document-major: one `u8` cell per document and term id,
/// 0 where the term is absent.
#[derive(Debug, Clone, PartialEq)]
pub struct TfRows {
    /// Cells per document: the dictionary's size.
    terms: usize,
    cells: Vec<u8>,
}

impl TfRows {
    /// The tf of term id `tid` in `doc`; 0 when absent or outside the
    /// index.
    #[inline]
    pub fn tf(&self, doc: Oid, tid: u32) -> u32 {
        let cell = doc as usize * self.terms + tid as usize;
        self.cells.get(cell).map_or(0, |&tf| u32::from(tf))
    }
}

/// An index keeps [`TfRows`] when its postings fill `1 / ROW_DENSITY` of its
/// document × term cells and every tf fits a byte, so its rows cost at most
/// `ROW_DENSITY` bytes per posting. The rule is per index: a whole image
/// index is ≈ 0.67 dense and a whole annotation index ≈ 0.002, but every
/// term has a posting, so an index of at most `ROW_DENSITY` documents (a
/// small live delta batch, of either channel) always keeps rows.
pub const ROW_DENSITY: usize = 8;

impl InvertedIndex {
    /// The index of a `CONTREP` attribute's payloads, one document each:
    /// [`IndexBuilder::add_text`] when `stem`, else whitespace-split terms.
    pub fn from_payloads<'a>(
        payloads: impl IntoIterator<Item = Option<&'a str>>,
        stem: bool,
    ) -> InvertedIndex {
        let mut b = IndexBuilder::new();
        for p in payloads {
            if stem {
                b.add_text(p);
            } else {
                b.add_terms(p.unwrap_or("").split_whitespace());
            }
        }
        b.build()
    }

    /// The index of the documents of `segments` that `remap` keeps, by
    /// concatenating their postings: segment `(first, index)` holds
    /// documents `first..`, and `remap[doc]` renumbers a kept document
    /// densely in segment order (`None` drops it), so every list stays
    /// sorted. Equal, value for value, to [`IndexBuilder`] fed the kept
    /// documents: lengths carry over, a term left without documents goes.
    pub fn fold(segments: &[(Oid, &InvertedIndex)], remap: &[Option<Oid>]) -> InvertedIndex {
        let mut b = IndexBuilder::new();
        let (mut docs, mut tfs, mut kept) = (Vec::new(), Vec::new(), Vec::new());
        for &(first, index) in segments {
            let new = |doc: Oid| remap[(first + doc) as usize];
            for (doc, &len) in index.doc_len.iter().enumerate() {
                if let Some(id) = new(doc as Oid) {
                    debug_assert_eq!(id as usize, b.doc_len.len(), "dense renumbering");
                    b.doc_len.push(len);
                }
            }
            for (tid, term) in index.dict.iter() {
                let list = &index.postings[tid as usize];
                kept.clear();
                for block in 0..list.blocks().len() {
                    list.decode_block_into(block, &mut docs, &mut tfs);
                    let posts = docs.iter().zip(&tfs);
                    kept.extend(posts.filter_map(|(&d, &tf)| Some(Posting { doc: new(d)?, tf })));
                }
                if !kept.is_empty() {
                    let id = b.dict.intern(term) as usize;
                    b.postings.resize_with(b.dict.len(), Vec::new);
                    b.postings[id].extend_from_slice(&kept);
                }
            }
        }
        b.build()
    }

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
    /// [`crate::belief::BeliefParams::belief_bound`].
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
        let (n, total) = (self.doc_len.len(), self.total_tokens);
        CollectionStats {
            n_docs: n,
            n_terms: self.dict.len(),
            avg_dl: if n == 0 { 0.0 } else { total as f64 / n as f64 },
            total_tokens: total,
        }
    }

    /// The tfs document-major, in a dense index ([`ROW_DENSITY`]).
    pub fn tf_rows(&self) -> Option<&TfRows> {
        self.rows.as_ref()
    }

    /// Heap bytes held by the compressed posting lists (payload words plus
    /// skip indexes) — the numerator of the benchmark's
    /// `ir.postings.bytes_per_doc`. A dense index's [`TfRows`] are not
    /// counted: they add one byte per document and term.
    pub fn postings_heap_bytes(&self) -> usize {
        self.postings.iter().map(PostingList::heap_bytes).sum()
    }

    /// Heap bytes held by the posting lists and, in a dense index, its
    /// [`TfRows`].
    pub fn heap_bytes(&self) -> usize {
        self.postings_heap_bytes() + self.rows.as_ref().map_or(0, |r| r.cells.len())
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
}

/// Incremental index builder.
#[derive(Debug, Default)]
pub struct IndexBuilder {
    dict: TermDict,
    postings: Vec<Vec<Posting>>,
    doc_len: Vec<u32>,
    /// Raw token → term id (`None` for a stopword): each distinct token
    /// is stopped, stemmed and interned once per builder.
    memo: HashMap<String, Option<u32>>,
    /// The current document's term ids, reused across documents.
    ids: Vec<u32>,
    /// Stemming scratch buffer.
    stem: String,
}

impl IndexBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add the next document from raw text (tokenise, drop stopwords,
    /// stem — [`crate::text::tokenize_stemmed`]'s pipeline). Missing
    /// documents (`None`) get an empty representation, keeping doc oids
    /// aligned with collection oids.
    pub fn add_text(&mut self, text: Option<&str>) {
        let Self { dict, memo, ids, stem, .. } = self;
        for_each_token(text.unwrap_or(""), |tok| {
            let id = match memo.get(tok) {
                Some(&id) => id,
                None => {
                    let id = (!is_stopword(tok)).then(|| {
                        porter_stem_into(tok, stem);
                        dict.intern(stem)
                    });
                    memo.insert(tok.to_string(), id);
                    id
                }
            };
            ids.extend(id);
        });
        self.finish_doc();
    }

    /// Add the next document from pre-tokenised terms (used for visual
    /// "documents" whose terms are cluster names).
    pub fn add_tokens<S: AsRef<str>>(&mut self, tokens: &[S]) {
        self.add_terms(tokens.iter().map(AsRef::as_ref));
    }

    /// Add the next document from a stream of terms, interned as given.
    pub fn add_terms<'a>(&mut self, terms: impl IntoIterator<Item = &'a str>) {
        for t in terms {
            self.ids.push(self.dict.intern(t));
        }
        self.finish_doc();
    }

    /// Close the document whose term ids are in `ids`: its length, then
    /// one posting per distinct term (sort and run-length count).
    fn finish_doc(&mut self) {
        let doc = self.doc_len.len() as Oid;
        self.doc_len.push(self.ids.len() as u32);
        self.postings.resize_with(self.dict.len(), Vec::new);
        self.ids.sort_unstable();
        for run in self.ids.chunk_by(|a, b| a == b) {
            self.postings[run[0] as usize].push(Posting { doc, tf: run.len() as u32 });
        }
        self.ids.clear();
    }

    /// Freeze into an immutable index: renumber the terms canonically (in
    /// their byte order), compress each posting run into blocks, and keep
    /// [`TfRows`] when dense.
    pub fn build(mut self) -> InvertedIndex {
        let order = self.dict.sort();
        let mut old = std::mem::take(&mut self.postings);
        self.postings = order.iter().map(|&id| std::mem::take(&mut old[id as usize])).collect();
        let df = self.postings.iter().map(|p| p.len() as u32).collect();
        let cf = self.postings.iter().map(|p| p.iter().map(|x| u64::from(x.tf)).sum()).collect();
        let doc_len = |d: Oid| self.doc_len[d as usize];
        let postings =
            self.postings.iter().map(|p| PostingList::from_postings(p, doc_len)).collect();
        // the postings document-major, when dense
        let terms = self.postings.len();
        let n_cells = self.doc_len.len() * terms;
        let n_postings: usize = self.postings.iter().map(Vec::len).sum();
        let fits = || self.postings.iter().flatten().all(|p| p.tf <= u32::from(u8::MAX));
        let rows = (n_cells > 0 && n_postings * ROW_DENSITY >= n_cells && fits()).then(|| {
            let mut cells = vec![0u8; n_cells];
            for (tid, posts) in self.postings.iter().enumerate() {
                for p in posts {
                    cells[p.doc as usize * terms + tid] = p.tf as u8;
                }
            }
            TfRows { terms, cells }
        });
        let total_tokens = self.doc_len.iter().map(|&l| u64::from(l)).sum();
        InvertedIndex {
            dict: self.dict,
            postings,
            df,
            cf,
            doc_len: self.doc_len,
            total_tokens,
            rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::text::tokenize_stemmed;

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

    /// The token total summed afresh from the document lengths, to hold
    /// the cached `stats().total_tokens` to.
    fn summed_doc_lens(idx: &InvertedIndex) -> u64 {
        (0..idx.n_docs() as Oid).map(|d| u64::from(idx.doc_len(d))).sum()
    }

    #[test]
    fn stats_are_consistent() {
        let idx = small_index();
        let s = idx.stats();
        assert_eq!(s.n_docs, 4);
        assert!(s.n_terms >= 6);
        assert_eq!(s.total_tokens, summed_doc_lens(&idx));
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
    fn dense_indexes_keep_tf_rows_and_sparse_ones_do_not() {
        // visual-shaped: 24 cluster words, 16 in each document
        let mut b = IndexBuilder::new();
        for d in 0..300usize {
            let toks: Vec<String> = (0..16).map(|j| format!("c{}", (d + j * 5) % 24)).collect();
            b.add_tokens(&toks);
        }
        b.add_tokens(&["c3"; 255]);
        let visual = b.build();
        let rows = visual.tf_rows().expect("a dense index keeps rows");
        assert_eq!(visual.dict().len(), 24);
        assert_eq!(visual.heap_bytes(), visual.postings_heap_bytes() + 301 * 24);
        for (tid, term) in visual.dict().iter() {
            let list = visual.postings_list(term).unwrap();
            let mut n = 0;
            list.for_each(|doc, tf| {
                assert_eq!(rows.tf(doc, tid), tf, "{term} in {doc}");
                n += 1;
            });
            let absent = (0..301).filter(|&doc| rows.tf(doc, tid) == 0).count();
            assert_eq!(n + absent, 301, "{term}");
            assert_eq!(rows.tf(301, tid), 0, "past the last document");
        }
        // text-shaped: a large vocabulary, a few words per document
        let mut b = IndexBuilder::new();
        for d in 0..300usize {
            let toks: Vec<String> = (0..6).map(|j| format!("w{}", (d * 7 + j) % 500)).collect();
            b.add_tokens(&toks);
        }
        let text = b.build();
        assert!(text.tf_rows().is_none());
        assert_eq!(text.heap_bytes(), text.postings_heap_bytes());
        // every term has a posting, so an index of at most ROW_DENSITY
        // documents is dense whatever it holds: here 8 documents of 6
        // distinct words fill exactly 1/8 of their cells, 9 fill 1/9
        for (n, rows) in [(ROW_DENSITY, true), (ROW_DENSITY + 1, false)] {
            let mut b = IndexBuilder::new();
            for d in 0..n {
                let toks: Vec<String> = (0..6).map(|j| format!("w{}", d * 6 + j)).collect();
                b.add_tokens(&toks);
            }
            assert_eq!(b.build().tf_rows().is_some(), rows, "{n} documents");
        }
        // dense, but a tf of 256 does not fit a cell
        let mut b = IndexBuilder::new();
        b.add_tokens(&["a", "b"]);
        b.add_tokens(&["a"; 256]);
        assert!(b.build().tf_rows().is_none());
        let mut b = IndexBuilder::new();
        b.add_tokens(&["a"; 255]);
        assert!(b.build().tf_rows().is_some());
        // nothing to keep
        assert!(IndexBuilder::new().build().tf_rows().is_none());
        let mut b = IndexBuilder::new();
        b.add_text(None);
        assert!(b.build().tf_rows().is_none());
    }

    #[test]
    fn empty_index() {
        let idx = IndexBuilder::new().build();
        assert_eq!(idx.n_docs(), 0);
        assert_eq!(idx.stats().avg_dl, 0.0);
        assert!(idx.postings_list("x").is_none());
    }

    /// The text pipeline as a per-occurrence composition: a char-at-a-time
    /// tokeniser (`char::is_alphanumeric`, `char::to_lowercase`, one
    /// `String` per token), then stopword removal, then Porter stemming.
    fn composed_terms(text: &str) -> Vec<String> {
        let mut tokens = Vec::new();
        let mut cur = String::new();
        for ch in text.chars() {
            if ch.is_alphanumeric() {
                cur.extend(ch.to_lowercase());
            } else if !cur.is_empty() {
                tokens.push(std::mem::take(&mut cur));
            }
        }
        if !cur.is_empty() {
            tokens.push(cur);
        }
        tokens
            .into_iter()
            .filter(|t| !crate::text::is_stopword(t))
            .map(|t| crate::text::porter_stem(&t))
            .collect()
    }

    /// Generated annotation texts: mixed case, punctuation, digits,
    /// stopwords, repeated tokens, missing documents and non-ASCII
    /// letters (`É`, `ß`, and `İ`, whose lowercase is two chars).
    fn generated_texts(n: usize, mut seed: u64) -> Vec<Option<String>> {
        const WORDS: &[&str] = &[
            "Sunset",
            "sunsets",
            "the",
            "THE",
            "and",
            "running",
            "Runner",
            "beaches",
            "relational",
            "x1",
            "2024",
            "42nd",
            "École",
            "ÉTÉ",
            "Straße",
            "İstanbul",
            "naïve",
            "ß",
            "of",
            "is",
            "hopping",
            "Hopeful",
            "a",
            "sky",
            "skies",
            "ponies",
            "CONDITIONAL",
            "über",
            "r2d2",
        ];
        const SEPS: &[&str] = &[" ", ", ", ". ", "!", " - ", "'", "\t", "  ", "/", "_"];
        let mut next = move |m: usize| {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % m as u64) as usize
        };
        (0..n)
            .map(|_| {
                if next(8) == 0 {
                    return None;
                }
                let mut text = String::new();
                for _ in 0..next(14) {
                    let word = WORDS[next(WORDS.len())];
                    let repeats = if next(5) == 0 { 3 } else { 1 };
                    for _ in 0..repeats {
                        if next(4) == 0 {
                            text.extend(word.chars().map(|c| c.to_ascii_uppercase()));
                        } else {
                            text.push_str(word);
                        }
                        text.push_str(SEPS[next(SEPS.len())]);
                    }
                }
                Some(text)
            })
            .collect()
    }

    /// Random segments (a base, then insert batches of 1–64 documents, one
    /// of them wholly deleted), random tombstones, and one document whose
    /// only copy of a term is deleted: folding the segments' postings must
    /// equal building the index from the surviving documents, in both
    /// pipelines (stemmed text, and dense raw terms that keep tf rows).
    #[test]
    fn fold_equals_a_build_of_the_surviving_documents() {
        let mut seed = 0x51f0_1d00_u64;
        let mut next = move |m: usize| {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % m as u64) as usize
        };
        for case in 0..40u64 {
            let n_batches = next(5);
            let mut sizes = vec![next(200)];
            sizes.extend((0..n_batches).map(|_| 1 + next(64)));
            let n: usize = sizes.iter().sum();
            let mut texts = generated_texts(n, case);
            let mut terms: Vec<Option<String>> = (0..n)
                .map(|_| {
                    let k = next(20);
                    Some((0..k).map(|_| format!("c{}", next(24))).collect::<Vec<_>>().join(" "))
                })
                .collect();
            let mut deleted: Vec<bool> = (0..n).map(|_| next(10) < 3).collect();
            if n > 0 {
                // a term whose one document is deleted leaves the dictionary
                let d = next(n);
                texts[d] = Some("zygote".into());
                terms[d] = Some("only_here c1".into());
                deleted[d] = true;
            }
            if n_batches > 1 {
                // a batch deleted whole
                let first = sizes[..2].iter().sum::<usize>();
                deleted[first..first + sizes[2]].fill(true);
            }
            let mut remap = Vec::with_capacity(n);
            let mut kept = 0;
            for &gone in &deleted {
                remap.push((!gone).then(|| {
                    kept += 1;
                    kept as Oid - 1
                }));
            }
            for (stem, docs) in [(true, &texts), (false, &terms)] {
                let mut segments = Vec::new();
                let mut first = 0;
                for &size in &sizes {
                    let docs = docs[first..first + size].iter().map(Option::as_deref);
                    segments.push((first as Oid, InvertedIndex::from_payloads(docs, stem)));
                    first += size;
                }
                let segs: Vec<(Oid, &InvertedIndex)> =
                    segments.iter().map(|(f, i)| (*f, i)).collect();
                let survivors = docs.iter().zip(&deleted).filter(|(_, &gone)| !gone);
                let expected =
                    InvertedIndex::from_payloads(survivors.map(|(d, _)| d.as_deref()), stem);
                let folded = InvertedIndex::fold(&segs, &remap);
                assert_eq!(folded, expected, "case {case}, stem {stem}, batches {sizes:?}");
                assert_eq!(folded.stats(), expected.stats());
                assert_eq!(folded.stats().total_tokens, summed_doc_lens(&folded));
                assert!(folded.df("zygot") == 0 && folded.df("only_here") == 0);
                if !stem && (1..=ROW_DENSITY).contains(&kept) {
                    assert!(folded.tf_rows().is_some(), "a small index keeps rows");
                }
            }
        }
    }

    #[test]
    fn build_numbers_terms_in_byte_order_whatever_the_arrival_order() {
        let mut a = IndexBuilder::new();
        a.add_tokens(&["pear", "apple"]);
        a.add_tokens(&["fig"]);
        let mut b = IndexBuilder::new();
        b.add_tokens(&["fig", "pear"]);
        b.add_tokens(&["apple"]);
        let (a, b) = (a.build(), b.build());
        let order: Vec<&str> = a.dict().iter().map(|(_, t)| t).collect();
        assert_eq!(order, ["apple", "fig", "pear"]);
        assert_eq!(b.dict().iter().map(|(_, t)| t).collect::<Vec<_>>(), order);
        assert_eq!(a.postings_list("apple").unwrap().to_vec(), vec![Posting { doc: 0, tf: 1 }]);
    }

    #[test]
    fn add_text_equals_the_composed_pipeline() {
        let texts = generated_texts(400, 7);
        let mut memoised = IndexBuilder::new();
        let mut composed = IndexBuilder::new();
        for t in &texts {
            memoised.add_text(t.as_deref());
            let terms = t.as_deref().map(composed_terms).unwrap_or_default();
            composed.add_tokens(&terms);
            assert_eq!(t.as_deref().map(tokenize_stemmed).unwrap_or_default(), terms, "{t:?}");
        }
        let (a, b) = (memoised.build(), composed.build());
        let dict: Vec<(u32, &str)> = a.dict().iter().collect();
        assert_eq!(dict, b.dict().iter().collect::<Vec<_>>());
        assert!(dict.iter().any(|(_, t)| !t.is_ascii()), "non-ASCII terms are generated");
        for (_, term) in dict {
            assert_eq!(a.df(term), b.df(term), "{term}");
            assert_eq!(a.cf(term), b.cf(term), "{term}");
            assert_eq!(a.max_tf(term), b.max_tf(term), "{term}");
            let (pa, pb) = (a.postings_list(term).unwrap(), b.postings_list(term).unwrap());
            assert_eq!(pa.to_vec(), pb.to_vec(), "{term}");
        }
        assert_eq!(a.n_docs(), texts.len());
        for d in 0..texts.len() as Oid {
            assert_eq!(a.doc_len(d), b.doc_len(d), "doc {d}");
        }
    }
}
