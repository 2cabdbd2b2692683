//! Allocation budget of the read path — the twin of E21's "0 payload
//! allocations" assertion on the wire. A counting `#[global_allocator]`
//! measures what one worker does for an already decoded request, from the
//! store's shard memory to the encoded response frame
//! (`ServeEngine::read_into`), once its scratch and its pooled frame have
//! warmed up:
//!
//! * one `GetFeatures` allocates nothing;
//! * a `GetFeaturesBatch` allocates O(1), not O(keys) — also nothing, for
//!   2 keys and for 32.
//!
//! The typed path (`ServeEngine::handle`) is measured beside it to show the
//! counter counts: it must allocate, and more for more keys.

use bytes::BytesMut;
use fstore_common::{EntityKey, Timestamp, Value};
use fstore_core::FeatureServer;
use fstore_serve::{fixed_clock, ReadScratch, Request, ServeEngine};
use fstore_storage::OnlineStore;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Allocations made by this thread; the harness's other threads don't
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

fn allocations(work: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    work();
    ALLOCS.with(Cell::get) - before
}

const FEATURES: [&str; 4] = ["f0", "f1", "f2", "label"];

fn engine() -> ServeEngine {
    let online = Arc::new(OnlineStore::new(8));
    for e in 0..64 {
        let row = [
            ("f0", Value::Int(e)),
            ("f1", Value::Float(e as f64 * 0.5)),
            ("f2", Value::Bool(e % 2 == 0)),
            ("label", Value::Str(format!("entity number {e}"))),
        ];
        online.put_row(
            "user",
            &EntityKey::new(format!("u{e}")),
            &row,
            Timestamp::millis(100),
        );
    }
    ServeEngine::new(
        FeatureServer::new(online),
        fixed_clock(Timestamp::millis(1_000)),
    )
}

fn batch(keys: usize) -> Request {
    Request::GetFeaturesBatch {
        group: "user".into(),
        entities: (0..keys).map(|e| format!("u{e}")).collect(),
        // "ghost" was never written: the miss path must not allocate either.
        features: FEATURES
            .iter()
            .chain(&["ghost"])
            .map(|f| f.to_string())
            .collect(),
    }
}

#[test]
fn steady_state_reads_allocate_o1() {
    let engine = engine();
    let single = Request::GetFeatures {
        group: "user".into(),
        entity: "u7".into(),
        features: FEATURES.iter().map(|f| f.to_string()).collect(),
    };
    let (small, large) = (batch(2), batch(32));
    let mut scratch = ReadScratch::default();
    let mut frame = BytesMut::with_capacity(4 * 1024);

    let mut direct = |request: &Request| {
        frame.clear();
        let mut ok = false;
        let n = allocations(|| ok = engine.read_into(request, &mut scratch, &mut frame));
        assert!(ok, "{request:?} must be served");
        n
    };
    // Warm-up: the scratch and the frame grow to the widest request once.
    for request in [&single, &small, &large] {
        direct(request);
    }
    assert_eq!(direct(&single), 0, "GetFeatures allocated");
    assert_eq!(
        (direct(&small), direct(&large)),
        (0, 0),
        "GetFeaturesBatch allocated (2 keys, 32 keys)"
    );

    // The counter is live: the typed path builds vectors, so it allocates,
    // and per key.
    let typed_few = allocations(|| drop(engine.handle(&small, 0, false)));
    let typed_many = allocations(|| drop(engine.handle(&large, 0, false)));
    assert!(typed_few > 0 && typed_many > typed_few);
}
