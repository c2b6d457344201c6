//! A fast, non-cryptographic hasher for internal hash tables.
//!
//! Join and group operators hash millions of small keys (oids, integers,
//! dictionary codes); SipHash's HashDoS protection is unnecessary inside the
//! kernel, so we use the well-known Fx multiply-rotate hash (as used by the
//! Rust compiler) implemented locally to keep the crate dependency-free.
//!
//! A multiply carries information only upwards, so the low bits of each
//! product depend only on the low bits of its input: for a short string,
//! mostly its first bytes. `finish` therefore folds the high half into
//! the low half, where `HashMap` takes its bucket index.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Firefox/rustc Fx hash.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fx hasher state.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }

    /// The unfolded state. The storage checksum is defined on it, so
    /// every page and WAL record on disk verifies whatever
    /// [`finish`](Hasher::finish) returns.
    pub(crate) fn state(&self) -> u64 {
        self.hash
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash ^ (self.hash >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf) ^ rem.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the Fx hash.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with the Fx hash.
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashes_are_stable_and_distinct() {
        let mut h1 = FxHasher::default();
        h1.write_u64(42);
        let mut h2 = FxHasher::default();
        h2.write_u64(42);
        assert_eq!(h1.finish(), h2.finish());

        let mut h3 = FxHasher::default();
        h3.write_u64(43);
        assert_ne!(h1.finish(), h3.finish());
    }

    #[test]
    fn byte_stream_tail_is_hashed() {
        let mut a = FxHasher::default();
        a.write(b"hello wor");
        let mut b = FxHasher::default();
        b.write(b"hello wox");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn short_string_keys_spread_over_the_low_bits() {
        // benchmark-shaped terms (`w<n>`, `u<n>`), hashed the way a map
        // hashes a `String`: without the fold these 52 500 keys took about
        // 1 100 of the 131 072 buckets a table this size indexes with its
        // low 17 bits; a uniform hash takes about 43 000
        use std::hash::BuildHasher;
        let keys = (0..2_500).map(|n| format!("w{n}")).chain((0..50_000).map(|n| format!("u{n}")));
        let buckets: std::collections::HashSet<u64> =
            keys.map(|k| FxBuildHasher::default().hash_one(&k) & ((1 << 17) - 1)).collect();
        assert!(buckets.len() > 40_000, "{} distinct buckets", buckets.len());
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        assert_eq!(m.len(), 2);
    }
}
