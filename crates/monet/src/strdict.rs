//! Dictionary encoding for string columns.
//!
//! Monet stores variable-width values in a separate heap with the column
//! holding fixed-width references. We model that heap as a deduplicating
//! string dictionary shared (via `Arc`) between columns derived from one
//! another, so projections and selections never copy string data.

use crate::fxhash::FxHashMap;
use std::sync::{Arc, OnceLock};

/// An immutable, deduplicated pool of strings.
///
/// Codes are dense `u32` indices in insertion order. Dictionaries are
/// constructed through [`StrDictBuilder`] and then frozen; all column
/// operations share the frozen dictionary.
#[derive(Debug, Default)]
pub struct StrDict {
    strings: Vec<Box<str>>,
    /// Every string cut at its last `/` as `dir ++ leaf` (`dir` empty
    /// without one) by the first [`contains_flags`](Self::contains_flags):
    /// the distinct `dir`s, and each string's `dir` id — its leaf starts
    /// at that `dir`'s length.
    dirs: OnceLock<(Vec<Box<str>>, Vec<u32>)>,
}

impl StrDict {
    /// Number of distinct strings in the pool.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True if the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Resolve a code to its string. Panics on an invalid code, which would
    /// indicate kernel corruption (codes are only minted by the builder).
    #[inline]
    pub fn resolve(&self, code: u32) -> &str {
        &self.strings[code as usize]
    }

    /// Iterate over `(code, string)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.strings.iter().enumerate().map(|(i, s)| (i as u32, &**s))
    }

    /// One flag per code: whether its string contains `pat`. A string
    /// `dir ++ leaf` contains it if and only if `dir` does, or `pat` has no
    /// `/` and `leaf` contains it, or `dir` ends with `pat` through its
    /// last `/` and `leaf` starts with the rest. So after the first call
    /// cuts every string once, `pat` is tested once per distinct `dir`,
    /// and a leaf is read only where `pat` could end inside it.
    pub fn contains_flags(&self, pat: &str) -> Vec<bool> {
        let (dirs, dir_of) = self.dirs.get_or_init(|| {
            let (mut ids, mut dirs) = (FxHashMap::default(), Vec::new());
            let dir_of = (self.strings.iter())
                .map(|s| {
                    let dir = &s[..s.rfind('/').map_or(0, |j| j + 1)];
                    *ids.entry(dir).or_insert_with(|| {
                        dirs.push(Box::from(dir));
                        dirs.len() as u32 - 1
                    })
                })
                .collect();
            (dirs, dir_of)
        });
        let (head, rest) = match pat.rfind('/') {
            Some(j) => (Some(&pat[..=j]), &pat[j + 1..]),
            None => (None, pat),
        };
        // per `dir`: the answer for every string under it, or `None` when
        // the leaf decides
        let verdicts: Vec<Option<bool>> = (dirs.iter())
            .map(|dir| match head {
                _ if dir.contains(pat) => Some(true),
                Some(head) if !dir.ends_with(head) => Some(false),
                _ => None,
            })
            .collect();
        let leaf_has = |code: usize, d: usize| {
            let leaf = &self.strings[code][dirs[d].len()..];
            head.map_or_else(|| leaf.contains(rest), |_| leaf.starts_with(rest))
        };
        (dir_of.iter().enumerate())
            .map(|(code, &d)| verdicts[d as usize].unwrap_or_else(|| leaf_has(code, d as usize)))
            .collect()
    }
}

/// Incremental builder for [`StrDict`], deduplicating on insert. Each
/// distinct string is allocated once: the index owns it until
/// [`freeze`](Self::freeze) moves it into the dictionary.
#[derive(Debug, Default)]
pub struct StrDictBuilder {
    index: FxHashMap<Box<str>, u32>,
}

impl StrDictBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a builder pre-seeded with the contents of an existing
    /// dictionary (codes are preserved).
    pub fn from_dict(dict: &StrDict) -> Self {
        StrDictBuilder { index: dict.iter().map(|(code, s)| (s.into(), code)).collect() }
    }

    /// Intern `s`, returning its (possibly pre-existing) code.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&code) = self.index.get(s) {
            return code;
        }
        let code = self.index.len() as u32;
        self.index.insert(s.into(), code);
        code
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Freeze into an immutable shared dictionary.
    pub fn freeze(self) -> Arc<StrDict> {
        let mut strings: Vec<Box<str>> = (0..self.index.len()).map(|_| Box::default()).collect();
        for (s, code) in self.index {
            strings[code as usize] = s;
        }
        Arc::new(StrDict { strings, dirs: OnceLock::new() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_deduplicates() {
        let mut b = StrDictBuilder::new();
        let a = b.intern("apple");
        let p = b.intern("pear");
        let a2 = b.intern("apple");
        assert_eq!(a, a2);
        assert_ne!(a, p);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn freeze_and_resolve() {
        let mut b = StrDictBuilder::new();
        b.intern("x");
        b.intern("y");
        let d = b.freeze();
        assert_eq!(d.resolve(0), "x");
        assert_eq!(d.resolve(1), "y");
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn from_dict_preserves_codes() {
        let mut b = StrDictBuilder::new();
        b.intern("a");
        b.intern("b");
        let d = b.freeze();
        let mut b2 = StrDictBuilder::from_dict(&d);
        assert_eq!(b2.intern("a"), 0);
        assert_eq!(b2.intern("c"), 2);
        let d2 = b2.freeze();
        assert_eq!(d2.iter().collect::<Vec<_>>(), vec![(0, "a"), (1, "b"), (2, "c")]);
    }

    #[test]
    fn iter_yields_in_code_order() {
        let mut b = StrDictBuilder::new();
        b.intern("p");
        b.intern("q");
        let d = b.freeze();
        let all: Vec<_> = d.iter().collect();
        assert_eq!(all, vec![(0, "p"), (1, "q")]);
    }
}
