//! Every exact path against the obvious model: score each row, sort by
//! (distance, id), keep `k`. Rows come from a tiny integer grid, so
//! duplicate vectors and tied distances are the common case, not the
//! corner — the order among ties is part of the answer (sharded top-k
//! merges and follower rebuilds rely on it).
//!
//! And the HNSW graph against the model of a graph that loses no row:
//! every row is reachable on the base layer from the entry point, so a
//! search wide enough finds each one.

mod common;

use fstore_common::{Rng, Xoshiro256};
use fstore_index::{
    l2_sq_portable, FlatIndex, Hit, HnswConfig, HnswIndex, IvfConfig, IvfIndex, SearchParams,
    VectorIndex,
};
use proptest::prelude::*;

fn naive(rows: &[Vec<f32>], query: &[f32], k: usize) -> Vec<Hit> {
    let mut scored: Vec<Hit> = rows
        .iter()
        .enumerate()
        .map(|(id, row)| (id, l2_sq_portable(row, query)))
        .collect();
    scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn exact_paths_return_the_naive_order(
        cells in collection::vec(0u8..3, 4..400),
        dim in 1usize..5,
        query in collection::vec(0u8..3, 4..5),
        k in 1usize..40,
        nlist in 1usize..12,
    ) {
        let rows: Vec<Vec<f32>> = cells
            .chunks_exact(dim)
            .map(|row| row.iter().map(|&c| f32::from(c)).collect())
            .collect();
        let query: Vec<f32> = query[..dim].iter().map(|&c| f32::from(c) + 0.5).collect();
        let want = naive(&rows, &query, k);

        let flat = FlatIndex::build(rows.clone()).unwrap();
        let ivf = IvfIndex::build(rows.clone(), IvfConfig { nlist, ..IvfConfig::default() }).unwrap();
        let hnsw = HnswIndex::build(rows.clone(), HnswConfig::default()).unwrap();
        let full_probe = SearchParams::with_nprobe(ivf.nlist());
        let cases: [(&str, &dyn VectorIndex, SearchParams); 4] = [
            ("flat", &flat, SearchParams::default()),
            ("ivf at full probe", &ivf, full_probe),
            ("ivf exhaustive", &ivf, SearchParams::exact()),
            ("hnsw exhaustive", &hnsw, SearchParams::exact()),
        ];
        for (name, index, params) in cases {
            prop_assert_eq!(&index.search(&query, k, &params).unwrap(), &want, "{}", name);
        }
        // Clamping `k` to the row count changes no answer.
        prop_assert_eq!(
            flat.search(&query, usize::MAX, &SearchParams::default()).unwrap(),
            naive(&rows, &query, rows.len())
        );
    }
}

/// `n` rows uniform in the unit cube, or around `clusters` centres.
fn seeded_rows(n: usize, dim: usize, clusters: usize, seed: u64) -> Vec<Vec<f32>> {
    if clusters == 0 {
        let mut rng = Xoshiro256::seeded(seed);
        let row = |_| (0..dim).map(|_| rng.next_f64() as f32).collect();
        (0..n).map(row).collect()
    } else {
        common::clustered(n, 0, dim, clusters, seed).0
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_hnsw_row_is_reachable_and_finds_itself(
        n in 1usize..500,
        dim in 1usize..9,
        clusters in 0usize..12,
        seed in any::<u64>(),
        m in 2usize..10,
        ef_construction in 1usize..64,
    ) {
        let rows = seeded_rows(n, dim, clusters, seed);
        let config = HnswConfig { m, ef_construction, ..HnswConfig::default() };
        let hnsw = HnswIndex::build(rows.clone(), config).unwrap();
        prop_assert_eq!(hnsw.unreached(), Vec::<usize>::new());
        // A walk as wide as the index expands every node it reaches.
        let everything = SearchParams::with_ef(n);
        for (id, row) in rows.iter().enumerate() {
            let (hit, distance) = hnsw.search(row, 1, &everything).unwrap()[0];
            prop_assert!(hit == id || distance == 0.0, "row {} found {} at {}", id, hit, distance);
        }
    }
}

/// E9's `--quick` rows and build settings: a build that lets a node lose its
/// last base-layer in-link left one of these rows unreachable.
#[test]
fn e9_quick_hnsw_leaves_no_row_unreached() {
    let (rows, _queries) = common::clustered(20_000, 100, 32, 64, 91);
    let config = HnswConfig {
        m: 16,
        ef_construction: 64,
        ..HnswConfig::default()
    };
    let hnsw = HnswIndex::build(rows, config).unwrap();
    assert_eq!(hnsw.unreached(), Vec::<usize>::new());
}
