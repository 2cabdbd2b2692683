//! Every exact path against the obvious model: score each row, sort by
//! (distance, id), keep `k`. Rows come from a tiny integer grid, so
//! duplicate vectors and tied distances are the common case, not the
//! corner — the order among ties is part of the answer (sharded top-k
//! merges and follower rebuilds rely on it).

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
