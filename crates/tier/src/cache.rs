//! The hot-block cache: bounded, sharded, clock-evicting storage for
//! decoded segment blocks.
//!
//! Blocks are keyed by `(segment id, block index)` and held as
//! `Arc<[f32]>`, so a cache hit hands out a window into the shared block
//! with zero copies — readers keep their block alive through the `Arc`
//! even if it is evicted mid-read. Eviction is CLOCK (second chance)
//! against a single global byte budget: each shard sweeps a ring,
//! clearing reference bits, skipping pinned entries, and evicting the
//! first cold unpinned block; inserts make room by rotating across
//! shards so the bound holds even when one block exceeds a shard's
//! proportional share. Byte accounting
//! is exact — at rest the resident gauge equals the sum of cached block
//! payloads (the eviction proptests pin this down); while faults are in
//! flight it also holds their reservations, taken before any room is
//! made, so concurrent faults never overshoot the budget together — and a
//! peak watermark records the worst case. The byte budget is adjustable at
//! runtime; the tier demoter shrinks it as resident tables grow so
//! tables + cache stay inside one RAM budget.

use fstore_common::hash::{fx_hash_one, FxHashMap};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identity of one cached block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockKey {
    /// The owning segment's id (assigned by the tier at demotion time).
    pub segment: u64,
    /// Block index within the segment.
    pub block: u32,
}

struct Entry {
    data: Arc<[f32]>,
    bytes: u64,
    referenced: bool,
    pins: u32,
}

#[derive(Default)]
struct Shard {
    map: FxHashMap<BlockKey, Entry>,
    ring: Vec<BlockKey>,
    hand: usize,
    bytes: u64,
}

/// Counters and gauges at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub(crate) hits: u64,
    pub misses: u64,
    pub inserts: u64,
    pub(crate) evictions: u64,
    pub resident_bytes: u64,
    pub peak_resident_bytes: u64,
    pub(crate) pinned_bytes: u64,
    /// Inserts that gave up making room and went over budget, because
    /// nothing cached could be evicted (everything pinned, or more faults
    /// in flight than the budget holds).
    pub overshoot_inserts: u64,
}

/// The sharded block cache. All methods take `&self`; one mutex per
/// shard keeps fault storms on different segments from serializing.
pub struct BlockCache {
    shards: Vec<Mutex<Shard>>,
    budget: AtomicU64,
    resident: AtomicU64,
    peak: AtomicU64,
    evict_hand: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    overshoot_inserts: AtomicU64,
}

impl BlockCache {
    /// A cache bounded at `budget_bytes` across `shards` shards (clamped
    /// to at least one).
    pub fn new(budget_bytes: u64, shards: usize) -> BlockCache {
        BlockCache {
            shards: (0..shards.max(1)).map(|_| Mutex::default()).collect(),
            budget: AtomicU64::new(budget_bytes),
            resident: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            evict_hand: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            overshoot_inserts: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: BlockKey) -> &Mutex<Shard> {
        let h = fx_hash_one(&(key.segment, key.block));
        &self.shards[(h as usize) % self.shards.len()]
    }

    /// Look a block up, marking it recently used. Counts a hit or a miss.
    pub fn get(&self, key: BlockKey) -> Option<Arc<[f32]>> {
        let mut shard = self.shard(key).lock();
        match shard.map.get_mut(&key) {
            Some(e) => {
                e.referenced = true;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&e.data))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert a freshly faulted block, evicting cold unpinned blocks —
    /// from any shard — until the *global* budget has room for it, so
    /// the resident total stays bounded even when one block exceeds a
    /// shard's proportional share. The block's bytes are reserved before
    /// any room is made, so concurrent faults each see the others'
    /// blocks and together never go over budget. Room is made before the
    /// insert, so a fresh block is never a victim of its own fault. If
    /// another thread faulted the same block first, its copy wins (the
    /// bytes are identical) and the reservation is released. Returns the
    /// cached block.
    pub fn insert(&self, key: BlockKey, data: Arc<[f32]>) -> Arc<[f32]> {
        let bytes = (data.len() * 4) as u64;
        if let Some(existing) = self.shard(key).lock().map.get(&key) {
            return Arc::clone(&existing.data);
        }
        let budget = self.budget.load(Ordering::Relaxed);
        let mut evictions = self.evictions.load(Ordering::Relaxed);
        let mut resident = self.add_resident(bytes as i64);
        while resident > budget {
            // A sweep that found nothing may only have arrived after other
            // faults evicted what was cached when the gauge was read; each
            // eviction is counted under its shard lock, so the sweep sees
            // the count move. Only a sweep that found nothing while nobody
            // evicted means what is cached is pinned (or more faults are in
            // flight than the budget holds) — bounded overshoot, counted.
            if !self.evict_somewhere() && self.evictions.load(Ordering::Relaxed) == evictions {
                self.overshoot_inserts.fetch_add(1, Ordering::Relaxed);
                break;
            }
            evictions = self.evictions.load(Ordering::Relaxed);
            resident = self.resident.load(Ordering::Relaxed);
        }
        let mut shard = self.shard(key).lock();
        if let Some(existing) = shard.map.get(&key) {
            // Lost a fault race while evicting; first copy wins.
            let existing = Arc::clone(&existing.data);
            drop(shard);
            self.add_resident(-(bytes as i64));
            return existing;
        }
        shard.bytes += bytes;
        shard.ring.push(key);
        shard.map.insert(
            key,
            Entry {
                data: Arc::clone(&data),
                bytes,
                referenced: false,
                pins: 0,
            },
        );
        drop(shard);
        self.inserts.fetch_add(1, Ordering::Relaxed);
        self.peak.fetch_max(resident, Ordering::Relaxed);
        data
    }

    /// Evict one cold unpinned block from whichever shard yields first,
    /// round-robin from a rotating hand; one shard lock held at a time.
    /// False when no shard has an evictable entry.
    fn evict_somewhere(&self) -> bool {
        let n = self.shards.len();
        let start = self.evict_hand.fetch_add(1, Ordering::Relaxed) as usize;
        for i in 0..n {
            let mut shard = self.shards[(start + i) % n].lock();
            if let Some(freed) = Self::evict_one(&mut shard) {
                // Under the shard lock: a fault that next finds this shard
                // empty also finds the gauge lowered and the eviction
                // counted.
                self.add_resident(-(freed as i64));
                self.evictions.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// One CLOCK sweep ending in an eviction, returning the freed bytes;
    /// `None` when no entry is evictable (all pinned, or recently
    /// referenced on every pass — bounded at two full ring revolutions).
    fn evict_one(shard: &mut Shard) -> Option<u64> {
        if shard.ring.is_empty() {
            return None;
        }
        let mut steps = 0usize;
        let max_steps = shard.ring.len() * 2 + 1;
        while steps < max_steps && !shard.ring.is_empty() {
            if shard.hand >= shard.ring.len() {
                shard.hand = 0;
            }
            let key = shard.ring[shard.hand];
            match shard.map.get_mut(&key) {
                None => {
                    // Stale ring slot (entry removed out of band).
                    shard.ring.swap_remove(shard.hand);
                    continue;
                }
                Some(e) if e.pins > 0 => {
                    shard.hand += 1;
                }
                Some(e) if e.referenced => {
                    e.referenced = false;
                    shard.hand += 1;
                }
                Some(_) => {
                    let e = shard.map.remove(&key).expect("entry present");
                    shard.ring.swap_remove(shard.hand);
                    shard.bytes -= e.bytes;
                    return Some(e.bytes);
                }
            }
            steps += 1;
        }
        None
    }

    fn add_resident(&self, delta: i64) -> u64 {
        if delta >= 0 {
            self.resident.fetch_add(delta as u64, Ordering::Relaxed) + delta as u64
        } else {
            self.resident.fetch_sub((-delta) as u64, Ordering::Relaxed) - (-delta) as u64
        }
    }

    /// Pin a cached block against eviction (counted; pairs with
    /// [`BlockCache::unpin`]). False if the block is not cached — pinning
    /// does not fault.
    pub fn pin(&self, key: BlockKey) -> bool {
        match self.shard(key).lock().map.get_mut(&key) {
            Some(e) => {
                e.pins += 1;
                true
            }
            None => false,
        }
    }

    /// Drop one pin. False if the block is absent or not pinned.
    pub fn unpin(&self, key: BlockKey) -> bool {
        match self.shard(key).lock().map.get_mut(&key) {
            Some(e) if e.pins > 0 => {
                e.pins -= 1;
                true
            }
            _ => false,
        }
    }

    /// Retarget the byte budget (the tier demoter shrinks the cache as
    /// resident tables grow). Shrinking does not evict eagerly; the next
    /// inserts do.
    pub fn set_budget(&self, budget_bytes: u64) {
        self.budget.store(budget_bytes, Ordering::Relaxed);
    }

    pub(crate) fn budget(&self) -> u64 {
        self.budget.load(Ordering::Relaxed)
    }

    /// Exact bytes currently cached.
    pub fn resident_bytes(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    /// Counters and gauges at this instant. `pinned_bytes` is computed by
    /// a sweep (stats calls are rare; faults never pay for it).
    pub fn stats(&self) -> CacheStats {
        let mut pinned = 0u64;
        for shard in &self.shards {
            let shard = shard.lock();
            pinned += shard
                .map
                .values()
                .filter(|e| e.pins > 0)
                .map(|e| e.bytes)
                .sum::<u64>();
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes: self.resident.load(Ordering::Relaxed),
            peak_resident_bytes: self.peak.load(Ordering::Relaxed),
            pinned_bytes: pinned,
            overshoot_inserts: self.overshoot_inserts.load(Ordering::Relaxed),
        }
    }

    /// The sum of per-entry bytes across all shards, recomputed from the
    /// ground truth — test support for the exact-accounting invariant.
    pub fn recount_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().map.values().map(|e| e.bytes).sum::<u64>())
            .sum()
    }
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("budget", &self.budget())
            .field("resident", &self.resident_bytes())
            .field("shards", &self.shards.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(floats: usize, fill: f32) -> Arc<[f32]> {
        vec![fill; floats].into()
    }

    fn key(segment: u64, block: u32) -> BlockKey {
        BlockKey { segment, block }
    }

    #[test]
    fn hits_misses_and_exact_accounting() {
        let c = BlockCache::new(1024, 1);
        assert!(c.get(key(1, 0)).is_none());
        c.insert(key(1, 0), block(16, 1.0)); // 64 bytes
        c.insert(key(1, 1), block(16, 2.0));
        assert_eq!(c.get(key(1, 0)).unwrap()[0], 1.0);
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.inserts, 2);
        assert_eq!(s.resident_bytes, 128);
        assert_eq!(s.resident_bytes, c.recount_bytes());
        assert_eq!(s.peak_resident_bytes, 128);
    }

    #[test]
    fn eviction_keeps_the_cache_inside_budget() {
        let c = BlockCache::new(256, 1); // room for 4 × 64-byte blocks
        for i in 0..32 {
            c.insert(key(1, i), block(16, i as f32));
        }
        assert!(c.resident_bytes() <= 256, "resident {}", c.resident_bytes());
        assert_eq!(c.resident_bytes(), c.recount_bytes());
        assert_eq!(c.stats().evictions, 28);
        assert!(c.stats().peak_resident_bytes <= 256);
    }

    #[test]
    fn clock_gives_hot_blocks_a_second_chance() {
        let c = BlockCache::new(256, 1);
        for i in 0..4 {
            c.insert(key(1, i), block(16, i as f32));
        }
        // Touch block 0 so its reference bit protects it on the next sweep.
        assert!(c.get(key(1, 0)).is_some());
        c.insert(key(1, 99), block(16, 9.0));
        assert!(c.get(key(1, 0)).is_some(), "hot block survived");
    }

    #[test]
    fn pinned_blocks_are_never_evicted() {
        let c = BlockCache::new(128, 1); // room for 2 blocks
        c.insert(key(1, 0), block(16, 1.0));
        assert!(c.pin(key(1, 0)));
        for i in 1..20 {
            c.insert(key(1, i), block(16, i as f32));
        }
        assert_eq!(c.get(key(1, 0)).unwrap()[0], 1.0, "pinned block resident");
        assert!(c.stats().pinned_bytes >= 64);
        assert!(c.unpin(key(1, 0)));
        assert!(!c.unpin(key(1, 0)), "already unpinned");
        for i in 20..40 {
            c.insert(key(1, i), block(16, i as f32));
        }
        assert_eq!(c.resident_bytes(), c.recount_bytes());
        assert!(c.resident_bytes() <= 128);
    }

    #[test]
    fn overshoot_when_everything_is_pinned() {
        let c = BlockCache::new(128, 1);
        for i in 0..4 {
            c.insert(key(1, i), block(16, i as f32));
            c.pin(key(1, i));
        }
        // 256 bytes resident, all pinned: inserts overshoot, never evict.
        assert_eq!(c.resident_bytes(), 256);
        assert_eq!(c.get(key(1, 0)).unwrap().len(), 16);
        // The third and fourth inserts found nothing to evict.
        assert_eq!(c.stats().overshoot_inserts, 2);
    }

    #[test]
    fn duplicate_insert_is_not_double_counted() {
        let c = BlockCache::new(1024, 1);
        let first = c.insert(key(1, 0), block(16, 1.0));
        let second = c.insert(key(1, 0), block(16, 8.0));
        assert!(Arc::ptr_eq(&first, &second), "first copy wins");
        assert_eq!(c.resident_bytes(), 64);
        assert_eq!(c.recount_bytes(), 64);
    }
}
