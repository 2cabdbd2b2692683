//! Allocation budget of an HNSW search, in the style of
//! `serve/tests/read_allocs.rs`: once a thread's scratch has grown to what
//! its searches need, a search allocates the `Vec<Hit>` it returns and
//! nothing else — no visited bitmap, no heaps, no per-hop buffers.

mod common;

use fstore_index::{HnswConfig, HnswIndex, SearchParams, VectorIndex};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

#[test]
fn a_steady_state_hnsw_search_allocates_only_its_answer() {
    let (data, queries) = common::clustered(3_000, 64, 32, 16, 1);
    let index = HnswIndex::build(data, HnswConfig::default()).expect("build");
    let search = |query: &[f32], params: &SearchParams| {
        let hits = index.search(query, 10, params).expect("search");
        assert_eq!(hits.len(), 10);
    };

    let beam = SearchParams::with_ef(64);
    // First pass: the scratch grows to the largest walk among these queries.
    for q in &queries {
        search(q, &beam);
    }
    for q in &queries {
        assert_eq!(allocations(|| search(q, &beam)), 1, "the returned Vec<Hit>");
    }
    // The counter counts: the exact scan sizes a top-k heap per call and
    // maps it into the answer.
    assert!(allocations(|| search(&queries[0], &SearchParams::exact())) >= 2);
}
