//! Allocation budget of the router. It runs on the calling thread — a
//! flight writes every shard's sub-burst and reads the answers back
//! without spawning anything — so a counting `#[global_allocator]` with a
//! thread-local counter sees all of its work (the shard servers run on
//! their own threads and are not counted):
//!
//! * one routed `GetFeatures`;
//! * one 32-request burst in the `sharded_mix` proportions — point reads,
//!   a batch across both shards, writes, a scattered search, an embedding
//!   read;
//! * a 32-read burst costs the point reads' decoded answers plus a
//!   constant: point reads are forwarded by reference, never cloned.
//!
//! The ceilings are the counts measured when the flight landed; a change
//! that allocates more per request fails here before it shows in a
//! benchmark.

#[path = "../../serve/tests/common/mod.rs"]
mod common;
mod seeded;

use fstore_common::Value;
use fstore_serve::{Request, SearchOptions, ServeConfig, Transport};
use fstore_shard::RouterClient;
use seeded::{seeded_cluster, vector_for, USERS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// One routed `GetFeatures`: its decoded answer (entity, feature names,
/// values, ages) — the router adds nothing on the single-call path.
const READ_CEILING: u64 = 5;
/// One 32-request mixed burst, answers included.
const MIXED_BURST_CEILING: u64 = 360;
/// What a flight costs beyond its answers: per-request plans and results,
/// per-shard sub-bursts and answer lists.
const FLIGHT_OVERHEAD: u64 = 13;

thread_local! {
    /// Allocations made by this thread; the servers' threads don't
    /// disturb the count.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is bumping a `const`-initialised, destructor-free thread-local counter,
// which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: forwarded with the caller's arguments.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations of one `work()`, after two warm-up rounds have grown every
/// reusable buffer and opened every connection.
fn allocations(mut work: impl FnMut()) -> u64 {
    work();
    work();
    let before = ALLOCS.with(Cell::get);
    work();
    ALLOCS.with(Cell::get) - before
}

fn read(u: usize) -> Request {
    Request::GetFeatures {
        group: "user".into(),
        entity: format!("u{}", u % USERS),
        features: vec!["score".into()],
    }
}

/// 32 requests in the `sharded_mix` proportions.
fn mixed_burst() -> Vec<Request> {
    let mut burst: Vec<Request> = (0..22).map(read).collect();
    burst.extend((0..3).map(|u| {
        Request::GetFeaturesBatch {
            group: "user".into(),
            entities: (0..8)
                .map(|i| format!("u{}", (u * 8 + i) % USERS))
                .collect(),
            features: vec!["score".into()],
        }
    }));
    burst.extend((0..3).map(|w| Request::PutOnline {
        group: "user".into(),
        entity: format!("w{w}"),
        values: vec![("score".into(), Value::Float(0.5))],
        term: 0,
    }));
    burst.extend((0..2).map(|j| Request::SearchNearest {
        table: "emb".into(),
        query: vector_for(j * 7),
        k: 5,
        options: SearchOptions::default(),
    }));
    burst.extend((0..2).map(|i| Request::GetEmbedding {
        table: "emb".into(),
        key: format!("e{:04}", i * 11),
    }));
    assert_eq!(burst.len(), 32);
    burst
}

/// Allocations of routing `burst` as one `call_many`.
fn burst_allocations(router: &mut RouterClient, burst: &[Request]) -> u64 {
    allocations(|| {
        let answers = router.call_many(burst).expect("burst routes");
        assert_eq!(answers.len(), burst.len());
    })
}

#[test]
fn routing_stays_within_its_allocation_budget() {
    let _watchdog = common::watchdog("routing_stays_within_its_allocation_budget");
    let cluster = seeded_cluster(0, ServeConfig::default().workers);
    let mut router = cluster.router();

    let one = read(3);
    let per_read = allocations(|| {
        router.call(&one).expect("routed read");
    });
    let reads: Vec<Request> = (0..32).map(read).collect();
    let per_read_burst = burst_allocations(&mut router, &reads);
    let per_mixed_burst = burst_allocations(&mut router, &mixed_burst());
    eprintln!(
        "allocations: routed GetFeatures {per_read}, 32-read burst {per_read_burst}, \
         32-request mixed burst {per_mixed_burst}"
    );

    assert!(per_read <= READ_CEILING, "routed GetFeatures: {per_read}");
    assert!(
        per_mixed_burst <= MIXED_BURST_CEILING,
        "32-request mixed burst: {per_mixed_burst}"
    );
    // A burst of reads is its answers plus the flight's own bookkeeping,
    // which does not grow with the burst.
    assert!(
        per_read_burst <= 32 * per_read + FLIGHT_OVERHEAD,
        "32-read burst: {per_read_burst} (per read: {per_read})"
    );
    cluster.shutdown();
}
