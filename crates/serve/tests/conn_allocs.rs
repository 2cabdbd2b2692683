//! Allocation count of one whole round trip through a connection. A
//! counting `#[global_allocator]` counts every thread of the process —
//! client, connection reader, worker — over many depth-1 `GetFeatures`
//! calls to a 1-worker server, after a warm-up. What a round trip
//! allocates is the client's response decode and the server's request
//! decode; the server's reply path (slot, frame, send) allocates nothing,
//! so the per-call count is pinned at its measured value.

use fstore_common::{EntityKey, Timestamp, Value};
use fstore_core::FeatureServer;
use fstore_serve::{
    fixed_clock, start, FeatureClient, Request, Response, ServeConfig, ServeEngine,
};
use fstore_storage::OnlineStore;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Allocations made by any thread.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a relaxed atomic increment, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded with the caller's arguments.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most a depth-1 `GetFeatures` round trip may allocate.
const CEILING: u64 = 14;
const WARM_UP: u64 = 2_000;
const CALLS: u64 = 10_000;

#[test]
fn a_round_trip_allocates_at_most_the_pinned_count() {
    let online = Arc::new(OnlineStore::default());
    online.put(
        "user",
        &EntityKey::new("u1"),
        "score",
        Value::Float(0.5),
        Timestamp::millis(100),
    );
    let engine = ServeEngine::new(
        FeatureServer::new(online),
        fixed_clock(Timestamp::millis(1_000)),
    );
    let config = ServeConfig::builder().workers(1).build().unwrap();
    let server = start(engine, config).unwrap();
    let mut client = FeatureClient::connect(server.addr()).unwrap();
    let read = Request::GetFeatures {
        group: "user".into(),
        entity: "u1".into(),
        features: vec!["score".into()],
    };
    let mut call = || match client.call(&read).unwrap() {
        Response::Features(v) => assert_eq!(v.values, [Value::Float(0.5)]),
        other => panic!("unexpected {other:?}"),
    };
    for _ in 0..WARM_UP {
        call();
    }
    for round in 0..3 {
        let before = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..CALLS {
            call();
        }
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        println!(
            "round {round}: {allocs} allocations over {CALLS} round trips ({:.3} each)",
            allocs as f64 / CALLS as f64
        );
        assert!(
            allocs <= CEILING * CALLS,
            "{allocs} allocations over {CALLS} round trips: more than {CEILING} each"
        );
    }
    server.shutdown();
}
