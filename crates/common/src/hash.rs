//! A small, fast, non-cryptographic hasher (FxHash-style multiply-rotate),
//! used where hashing is hot and HashDoS is not a concern: online-store
//! shard routing, vocabulary maps, inverted lists. See the perf guidance in
//! the workspace coding guides — SipHash is needlessly slow for these paths.

use std::hash::{BuildHasherDefault, Hasher};

/// FxHash-style 64-bit hasher.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher64 {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher64 {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(5) ^ i).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher64 {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf) ^ rem.len() as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }
}

/// `BuildHasher` for [`FxHasher64`].
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher64>;

/// Drop-in `HashMap` with the fast hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// Drop-in `HashSet` with the fast hasher.
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

/// Hash one value with [`FxHasher64`] — used for shard routing.
pub fn fx_hash_one<T: std::hash::Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FxHasher64::default();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_calls() {
        assert_eq!(fx_hash_one(&"hello"), fx_hash_one(&"hello"));
        assert_ne!(fx_hash_one(&"hello"), fx_hash_one(&"hellp"));
    }

    #[test]
    fn maps_work() {
        let mut m: FxHashMap<String, i32> = FxHashMap::default();
        m.insert("a".into(), 1);
        m.insert("b".into(), 2);
        assert_eq!(m.get("a"), Some(&1));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        s.insert(42);
        assert!(s.contains(&42));
    }

    #[test]
    fn spreads_sequential_keys() {
        // Shard routing quality: sequential entity ids should not all land in
        // one shard.
        let shards = 16u64;
        let mut counts = vec![0u32; shards as usize];
        for i in 0..1600u64 {
            counts[(fx_hash_one(&format!("user_{i}")) % shards) as usize] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(*min > 50, "shard starved: {counts:?}");
        assert!(*max < 200, "shard hot: {counts:?}");
    }

    #[test]
    fn partial_tail_bytes_differ() {
        assert_ne!(
            fx_hash_one(&[1u8, 2, 3][..]),
            fx_hash_one(&[1u8, 2, 3, 0][..])
        );
    }
}
