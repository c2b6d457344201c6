//! The term dictionary: stemmed terms ↔ dense term ids.

use std::collections::HashMap;

/// A bidirectional term ↔ id mapping. Term ids are dense `u32`s in
/// insertion order until `sort` renumbers them in byte order
/// of the terms: the canonical order of every built index, whose ids then
/// depend only on its terms.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TermDict {
    terms: Vec<String>,
    index: HashMap<String, u32>,
}

impl TermDict {
    /// Create an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a term, returning its id.
    pub fn intern(&mut self, term: &str) -> u32 {
        if let Some(&id) = self.index.get(term) {
            return id;
        }
        let id = self.terms.len() as u32;
        self.terms.push(term.to_string());
        self.index.insert(term.to_string(), id);
        id
    }

    /// Look up a term id without interning.
    pub fn lookup(&self, term: &str) -> Option<u32> {
        self.index.get(term).copied()
    }

    /// Resolve an id back to its term.
    pub fn term(&self, id: u32) -> Option<&str> {
        self.terms.get(id as usize).map(String::as_str)
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True if no terms have been interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Renumber the ids in byte order of the terms. Returns the old id of
    /// each new id.
    pub(crate) fn sort(&mut self) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.terms.len() as u32).collect();
        if self.terms.is_sorted() {
            return order;
        }
        order.sort_unstable_by_key(|&id| &self.terms[id as usize]);
        let mut new_id = vec![0u32; order.len()];
        order.iter().zip(0..).for_each(|(&old, new)| new_id[old as usize] = new);
        self.index.values_mut().for_each(|id| *id = new_id[*id as usize]);
        let mut old_terms = std::mem::take(&mut self.terms);
        self.terms =
            order.iter().map(|&old| std::mem::take(&mut old_terms[old as usize])).collect();
        order
    }

    /// Iterate `(id, term)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.terms.iter().enumerate().map(|(i, t)| (i as u32, t.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_and_lookup() {
        let mut d = TermDict::new();
        let a = d.intern("sunset");
        let b = d.intern("beach");
        assert_eq!(d.intern("sunset"), a);
        assert_ne!(a, b);
        assert_eq!(d.lookup("beach"), Some(b));
        assert_eq!(d.lookup("nope"), None);
        assert_eq!(d.term(a), Some("sunset"));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn ids_are_dense_in_order() {
        let mut d = TermDict::new();
        for (i, t) in ["a", "b", "c"].iter().enumerate() {
            assert_eq!(d.intern(t), i as u32);
        }
        let collected: Vec<_> = d.iter().map(|(i, t)| (i, t.to_string())).collect();
        assert_eq!(collected[2], (2, "c".to_string()));
    }

    #[test]
    fn sort_renumbers_in_byte_order() {
        let mut d = TermDict::new();
        for t in ["sunset", "beach", "zebra", "apple"] {
            d.intern(t);
        }
        assert_eq!(d.sort(), vec![3, 1, 0, 2]);
        let terms: Vec<_> = d.iter().map(|(_, t)| t).collect();
        assert_eq!(terms, ["apple", "beach", "sunset", "zebra"]);
        for (id, t) in d.clone().iter() {
            assert_eq!(d.lookup(t), Some(id));
        }
        // sorted already: the identity, nothing moves
        assert_eq!(d.sort(), vec![0, 1, 2, 3]);
        assert_eq!(d.intern("beach"), 1);
    }
}
