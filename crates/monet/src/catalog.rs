//! The BAT catalog — Monet's "BAT buffer pool" (BBP).
//!
//! Named, shared, immutable BATs. The Moa layer registers the flattened
//! columns of every logical collection here; daemons and the executor look
//! them up by name. Replacement is atomic (register overwrites), which is
//! how ingest pipelines publish new versions of a collection.

use crate::bat::Bat;
use crate::error::{MonetError, Result};
use crate::fxhash::FxHashMap;
use parking_lot::RwLock;
use std::sync::Arc;

/// A thread-safe registry of named BATs.
#[derive(Default)]
pub struct Catalog {
    bats: RwLock<FxHashMap<String, Arc<Bat>>>,
}

impl Catalog {
    /// Create an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) a BAT under `name`.
    pub fn register(&self, name: impl Into<String>, bat: Bat) -> Arc<Bat> {
        let arc = Arc::new(bat);
        self.bats.write().insert(name.into(), Arc::clone(&arc));
        arc
    }

    /// Look up a BAT by name.
    pub fn get(&self, name: &str) -> Result<Arc<Bat>> {
        self.bats.read().get(name).cloned().ok_or_else(|| MonetError::UnknownBat(name.to_string()))
    }

    /// True if `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.bats.read().contains_key(name)
    }

    /// Names of all registered BATs, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.bats.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Number of registered BATs.
    pub fn len(&self) -> usize {
        self.bats.read().len()
    }

    /// True if no BATs are registered.
    pub fn is_empty(&self) -> bool {
        self.bats.read().is_empty()
    }

    /// Remove every BAT whose name starts with `prefix`; returns how many
    /// were dropped. Used when re-ingesting a collection.
    pub fn drop_prefix(&self, prefix: &str) -> usize {
        let mut map = self.bats.write();
        let doomed: Vec<String> = map.keys().filter(|k| k.starts_with(prefix)).cloned().collect();
        for k in &doomed {
            map.remove(k);
        }
        doomed.len()
    }
}

impl std::fmt::Debug for Catalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Catalog").field("bats", &self.names()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bat::bat_of_ints;

    #[test]
    fn register_and_get() {
        let c = Catalog::new();
        c.register("a", bat_of_ints(vec![1, 2]));
        assert!(c.contains("a"));
        assert_eq!(c.get("a").unwrap().count(), 2);
        assert!(matches!(c.get("b"), Err(MonetError::UnknownBat(_))));
    }

    #[test]
    fn register_replaces_atomically() {
        let c = Catalog::new();
        c.register("a", bat_of_ints(vec![1]));
        let old = c.get("a").unwrap();
        c.register("a", bat_of_ints(vec![1, 2, 3]));
        assert_eq!(c.get("a").unwrap().count(), 3);
        // old handle still usable by readers that grabbed it earlier
        assert_eq!(old.count(), 1);
    }

    #[test]
    fn names_and_drop() {
        let c = Catalog::new();
        c.register("z", bat_of_ints(vec![]));
        c.register("a", bat_of_ints(vec![]));
        assert_eq!(c.names(), vec!["a".to_string(), "z".to_string()]);
        assert_eq!(c.drop_prefix("a"), 1);
        assert_eq!(c.drop_prefix("a"), 0);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn drop_prefix_bulk() {
        let c = Catalog::new();
        c.register("lib_url", bat_of_ints(vec![]));
        c.register("lib_ann", bat_of_ints(vec![]));
        c.register("other", bat_of_ints(vec![]));
        assert_eq!(c.drop_prefix("lib_"), 2);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn catalog_is_sync_across_threads() {
        let c = Arc::new(Catalog::new());
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || {
            c2.register("t", bat_of_ints(vec![42]));
        });
        h.join().unwrap();
        assert_eq!(c.get("t").unwrap().count(), 1);
    }
}
