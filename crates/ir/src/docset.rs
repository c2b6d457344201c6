//! A copy-on-write chunked bitmap of document ids — the masks
//! [`crate::topk_channels`] ranks under: a request's domain (the ids it
//! keeps) and a snapshot's tombstones (the ids it drops).
//!
//! The bitmap is cut into fixed chunks of [`CHUNK_DOCS`] ids, each behind
//! its own [`Arc`]. Cloning a [`DocSet`] copies only the chunk pointers,
//! and [`DocSet::insert`] copies only the one chunk it writes if a clone
//! still shares it — so an MVCC snapshot can publish a delete without
//! copying every earlier one. A collected set (a request's domain) is
//! built in plain words, with no copy-on-write check per id.

use monet::Oid;
use std::sync::Arc;

/// 64-bit words per chunk.
const CHUNK_WORDS: usize = 64;
/// Document ids per chunk (4096: a 512-byte copy per copy-on-write).
pub const CHUNK_DOCS: usize = CHUNK_WORDS * 64;

/// A set of document ids: a chunked bitmap whose chunks are shared
/// between clones until written.
#[derive(Debug, Clone, Default)]
pub struct DocSet {
    /// Chunk `c` holds ids `[c·CHUNK_DOCS, (c+1)·CHUNK_DOCS)`; `None` while
    /// it holds none of them.
    chunks: Vec<Option<Arc<[u64; CHUNK_WORDS]>>>,
    len: usize,
}

impl DocSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    fn locate(doc: Oid) -> (usize, usize, u64) {
        let doc = doc as usize;
        let bit = doc % CHUNK_DOCS;
        (doc / CHUNK_DOCS, bit / 64, 1 << (bit % 64))
    }

    /// True if `doc` is in the set.
    pub fn contains(&self, doc: Oid) -> bool {
        let (chunk, word, mask) = Self::locate(doc);
        matches!(self.chunks.get(chunk), Some(Some(words)) if words[word] & mask != 0)
    }

    /// Add `doc`; returns whether it was not already in. Copies the chunk
    /// it lands in only if a clone shares it.
    pub fn insert(&mut self, doc: Oid) -> bool {
        let (chunk, word, mask) = Self::locate(doc);
        if self.chunks.len() <= chunk {
            self.chunks.resize(chunk + 1, None);
        }
        let words = self.chunks[chunk].get_or_insert_with(|| Arc::new([0; CHUNK_WORDS]));
        if words[word] & mask != 0 {
            return false;
        }
        Arc::make_mut(words)[word] |= mask;
        self.len += 1;
        true
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the set holds no id.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl FromIterator<Oid> for DocSet {
    fn from_iter<I: IntoIterator<Item = Oid>>(iter: I) -> Self {
        let mut words: Vec<[u64; CHUNK_WORDS]> = Vec::new();
        let mut len = 0;
        for doc in iter {
            let (chunk, word, mask) = Self::locate(doc);
            if words.len() <= chunk {
                words.resize(chunk + 1, [0; CHUNK_WORDS]);
            }
            len += usize::from(words[chunk][word] & mask == 0);
            words[chunk][word] |= mask;
        }
        let chunks = words.into_iter().map(|w| w.iter().any(|&x| x != 0).then(|| Arc::new(w)));
        DocSet { chunks: chunks.collect(), len }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains_across_chunks() {
        let ids = [0, 63, 64, CHUNK_DOCS as Oid - 1, CHUNK_DOCS as Oid, 5 * CHUNK_DOCS as Oid + 7];
        let collected: DocSet = ids.into_iter().chain(ids).collect();
        let mut inserted = DocSet::new();
        ids.into_iter().for_each(|doc| assert!(inserted.insert(doc)));
        for set in [&collected, &inserted] {
            assert_eq!(set.len(), ids.len());
            for doc in 0..6 * CHUNK_DOCS as Oid {
                assert_eq!(set.contains(doc), ids.contains(&doc), "doc {doc}");
            }
            assert!(!set.contains(u32::MAX));
        }
        assert!(collected.chunks[2].is_none(), "an empty chunk holds no words");
    }

    #[test]
    fn reinserting_counts_once() {
        let mut set = DocSet::new();
        assert!(set.is_empty());
        assert!(set.insert(9));
        assert!(!set.insert(9));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn clones_are_independent_and_share_untouched_chunks() {
        let mut old: DocSet = [1, CHUNK_DOCS as Oid + 1].into_iter().collect();
        let mut new = old.clone();
        new.insert(2);
        assert!(new.contains(2) && !old.contains(2), "the write leaked into the clone");
        let shared = |a: &DocSet, b: &DocSet, c: usize| {
            Arc::ptr_eq(a.chunks[c].as_ref().unwrap(), b.chunks[c].as_ref().unwrap())
        };
        assert!(!shared(&old, &new, 0), "the written chunk was copied");
        assert!(shared(&old, &new, 1), "the untouched chunk is still shared");
        old.insert(3);
        assert!(!new.contains(3));
        assert_eq!((old.len(), new.len()), (3, 3));
    }
}
