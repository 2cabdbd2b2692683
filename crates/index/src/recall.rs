//! Recall measurement harness: compares any index against exact ground
//! truth — the quality axis of experiment E9.

use crate::flat::FlatIndex;
use crate::{SearchParams, VectorIndex};
use fstore_common::{FsError, Result};

/// Mean recall@k of `index` under `params` against exact search over the
/// same data.
///
/// `ground_truth` must be a [`FlatIndex`] built over the identical dataset
/// (same ids). Recall@k = |approx top-k ∩ exact top-k| / k, averaged over
/// queries. `params` is the knob under test (nprobe/ef sweep points); the
/// ground truth is always searched exactly.
pub fn recall_at_k(
    index: &dyn VectorIndex,
    ground_truth: &FlatIndex,
    queries: &[Vec<f32>],
    k: usize,
    params: &SearchParams,
) -> Result<f64> {
    if queries.is_empty() {
        return Err(FsError::Index("recall needs at least one query".into()));
    }
    if index.len() != ground_truth.len() {
        return Err(FsError::Index(format!(
            "index ({}) and ground truth ({}) sizes differ",
            index.len(),
            ground_truth.len()
        )));
    }
    let exact = SearchParams::default();
    let mut hit = 0usize;
    let mut total = 0usize;
    for q in queries {
        let truth = VectorIndex::search(ground_truth, q, k, &exact)?;
        let approx = index.search(q, k, params)?;
        let approx_ids: Vec<usize> = approx.iter().map(|h| h.0).collect();
        hit += truth
            .iter()
            .filter(|(id, _)| approx_ids.contains(id))
            .count();
        total += truth.len();
    }
    Ok(hit as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hnsw::{HnswConfig, HnswIndex};
    use crate::ivf::{IvfConfig, IvfIndex};
    use fstore_common::{Rng, Xoshiro256};

    fn random_data(n: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = Xoshiro256::seeded(seed);
        (0..n)
            .map(|_| (0..d).map(|_| rng.normal() as f32).collect())
            .collect()
    }

    #[test]
    fn flat_recall_is_one() {
        let data = random_data(500, 8, 1);
        let flat = FlatIndex::build(data.clone()).unwrap();
        let probe = FlatIndex::build(data).unwrap();
        let queries = random_data(10, 8, 2);
        let r = recall_at_k(&probe, &flat, &queries, 10, &SearchParams::default()).unwrap();
        assert!((r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ivf_recall_is_partial_but_positive() {
        let data = random_data(1_000, 8, 3);
        let flat = FlatIndex::build(data.clone()).unwrap();
        let ivf = IvfIndex::build(
            data,
            IvfConfig {
                nlist: 32,
                nprobe: 2,
                ..IvfConfig::default()
            },
        )
        .unwrap();
        let queries = random_data(20, 8, 4);
        let r = recall_at_k(&ivf, &flat, &queries, 10, &SearchParams::default()).unwrap();
        assert!(r > 0.2 && r <= 1.0, "recall {r}");
    }

    #[test]
    fn params_sweep_recall_without_concrete_types() {
        // The redesign's point: one generic call site sweeps both families.
        let data = random_data(1_000, 8, 7);
        let flat = FlatIndex::build(data.clone()).unwrap();
        let ivf = IvfIndex::build(data.clone(), IvfConfig::default()).unwrap();
        let hnsw = HnswIndex::build(data, HnswConfig::default()).unwrap();
        let queries = random_data(15, 8, 8);
        let cases: Vec<(&dyn VectorIndex, SearchParams)> = vec![
            (&ivf, SearchParams::with_nprobe(1)),
            (&ivf, SearchParams::exact()),
            (&hnsw, SearchParams::with_ef(8)),
            (&hnsw, SearchParams::exact()),
        ];
        let recalls: Vec<f64> = cases
            .iter()
            .map(|(idx, p)| recall_at_k(*idx, &flat, &queries, 10, p).unwrap())
            .collect();
        // Exhaustive params are exact on every family.
        assert!((recalls[1] - 1.0).abs() < 1e-12, "ivf exact {}", recalls[1]);
        assert!(
            (recalls[3] - 1.0).abs() < 1e-12,
            "hnsw exact {}",
            recalls[3]
        );
        assert!(recalls[0] <= recalls[1]);
        assert!(recalls[2] <= recalls[3]);
    }

    #[test]
    fn validation() {
        let data = random_data(10, 4, 5);
        let flat = FlatIndex::build(data.clone()).unwrap();
        let small = FlatIndex::build(data[..5].to_vec()).unwrap();
        let p = SearchParams::default();
        assert!(recall_at_k(&small, &flat, &random_data(2, 4, 6), 3, &p).is_err());
        assert!(recall_at_k(&flat, &flat, &[], 3, &p).is_err());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]
            /// Flat search always returns exactly min(k, n) ascending hits.
            #[test]
            fn flat_search_sorted_and_sized(n in 1usize..60, k in 1usize..20, seed in 0u64..100) {
                let data = random_data(n, 4, seed);
                let flat = FlatIndex::build(data).unwrap();
                let q = random_data(1, 4, seed + 1).pop().unwrap();
                let hits = flat.search(&q, k, &SearchParams::default()).unwrap();
                prop_assert_eq!(hits.len(), k.min(n));
                for w in hits.windows(2) {
                    prop_assert!(w[0].1 <= w[1].1);
                }
            }
        }
    }
}
