//! The HNSW walk from outside: recall on clustered data, and the
//! per-thread scratch — visited stamps, heaps, buffers — carrying nothing
//! from one search into the next, whichever index ran last on the thread.

mod common;

use common::clustered;
use fstore_index::{recall_at_k, FlatIndex, Hit, HnswConfig, HnswIndex, SearchParams, VectorIndex};
use std::sync::Barrier;

const DIM: usize = 24;

#[test]
fn recall_at_10_on_clustered_data_is_at_least_095_at_ef_64() {
    let (data, queries) = clustered(4_000, 100, DIM, 32, 1);
    let truth = FlatIndex::build(data.clone()).unwrap();
    let hnsw = HnswIndex::build(data, HnswConfig::default()).unwrap();
    let recall = recall_at_k(&hnsw, &truth, &queries, 10, &SearchParams::with_ef(64)).unwrap();
    assert!(recall >= 0.95, "recall@10 at ef 64: {recall}");
}

/// What a thread that has never searched before answers.
fn on_a_fresh_thread(index: &HnswIndex, query: &[f32]) -> Vec<Hit> {
    std::thread::scope(|scope| {
        let search = || index.search(query, 10, &SearchParams::default()).unwrap();
        scope.spawn(search).join().unwrap()
    })
}

#[test]
fn a_reused_scratch_answers_like_a_fresh_one() {
    // Different sizes, so the visited marks of the larger index outlive a
    // search of the smaller one and must not be read as its marks.
    let (small, _) = clustered(300, 0, DIM, 8, 3);
    let (large, queries) = clustered(2_500, 40, DIM, 8, 4);
    let small = HnswIndex::build(small, HnswConfig::default()).unwrap();
    let large = HnswIndex::build(large, HnswConfig::default()).unwrap();
    let want: Vec<(Vec<Hit>, Vec<Hit>)> = queries
        .iter()
        .map(|q| (on_a_fresh_thread(&small, q), on_a_fresh_thread(&large, q)))
        .collect();

    let alternate = || {
        for (q, (want_small, want_large)) in queries.iter().zip(&want) {
            let params = SearchParams::default();
            assert_eq!(&large.search(q, 10, &params).unwrap(), want_large);
            assert_eq!(&small.search(q, 10, &params).unwrap(), want_small);
        }
    };
    alternate();

    // Four threads at once, each with its own scratch, started together.
    let barrier = Barrier::new(4);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                barrier.wait();
                alternate();
            });
        }
    });
}
