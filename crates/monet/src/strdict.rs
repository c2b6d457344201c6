//! Dictionary encoding for string columns.
//!
//! Monet stores variable-width values in a separate heap with the column
//! holding fixed-width references. We model that heap as a deduplicating
//! string dictionary shared (via `Arc`) between columns derived from one
//! another, so projections and selections never copy string data.

use crate::fxhash::FxHashMap;
use std::sync::Arc;

/// An immutable, deduplicated pool of strings.
///
/// Codes are dense `u32` indices in insertion order. Dictionaries are
/// constructed through [`StrDictBuilder`] and then frozen; all column
/// operations share the frozen dictionary.
#[derive(Debug, Default)]
pub struct StrDict {
    strings: Vec<Box<str>>,
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

    /// Look up the code of `s`, if present. Linear in the dictionary only
    /// when called on a frozen dict without index; intended for tests and
    /// small lookups — bulk lookups should go through [`StrDictBuilder`].
    pub fn lookup(&self, s: &str) -> Option<u32> {
        self.strings.iter().position(|t| &**t == s).map(|i| i as u32)
    }

    /// Iterate over `(code, string)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.strings.iter().enumerate().map(|(i, s)| (i as u32, &**s))
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
        Arc::new(StrDict { strings })
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
        assert_eq!(d.lookup("y"), Some(1));
        assert_eq!(d.lookup("z"), None);
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
