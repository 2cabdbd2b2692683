//! The block cache's byte budget holds under concurrent faults. Eight
//! threads insert distinct 4 KiB blocks into one sharded cache at once,
//! with nothing pinned, so every insert must make room — and however the
//! faults interleave, the resident total never goes over budget. A cache
//! that checks for room before it accounts for its own block lets two
//! faults see the same room and both insert.

use fstore_common::{Rng, Xoshiro256};
use fstore_tier::{BlockCache, BlockKey};
use std::sync::{Arc, Barrier};

const THREADS: u32 = 8;
const BLOCKS_PER_THREAD: u32 = 64;
/// Floats in one 4 KiB block.
const BLOCK_FLOATS: usize = 1024;
/// Room for eight blocks.
const BUDGET: u64 = 32 * 1024;
const SHARDS: usize = 8;
const ROUNDS: u64 = 200;

#[test]
fn concurrent_faults_never_go_over_budget() {
    let block: Arc<[f32]> = vec![1.0; BLOCK_FLOATS].into();
    for round in 0..ROUNDS {
        let cache = BlockCache::new(BUDGET, SHARDS);
        let start = Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for thread in 0..THREADS {
                let (cache, start, block) = (&cache, &start, &block);
                scope.spawn(move || {
                    // Each thread faults its own blocks, in a seeded order.
                    let mut order: Vec<u32> = (0..BLOCKS_PER_THREAD)
                        .map(|i| thread * BLOCKS_PER_THREAD + i)
                        .collect();
                    Xoshiro256::seeded(round * u64::from(THREADS) + u64::from(thread))
                        .shuffle(&mut order);
                    start.wait();
                    for i in order {
                        let key = BlockKey {
                            segment: round,
                            block: i,
                        };
                        cache.insert(key, Arc::clone(block));
                    }
                });
            }
        });
        let stats = cache.stats();
        assert!(
            stats.peak_resident_bytes <= BUDGET,
            "round {round}: peak {} bytes over a {BUDGET}-byte budget",
            stats.peak_resident_bytes
        );
        assert_eq!(stats.resident_bytes, cache.recount_bytes(), "round {round}");
        assert!(stats.resident_bytes <= BUDGET, "round {round}");
        assert_eq!(
            stats.overshoot_inserts, 0,
            "round {round}: nothing is pinned"
        );
        assert_eq!(
            stats.inserts,
            u64::from(THREADS * BLOCKS_PER_THREAD),
            "round {round}"
        );
    }
}
