//! IVF (inverted file) index: a k-means coarse quantizer partitions the
//! dataset into `nlist` cells; a query scans only the `nprobe` nearest
//! cells. The classic recall/latency dial of Faiss/Milvus-style systems.

use crate::flat::{check_rows, FlatIndex};
use crate::kmeans::kmeans;
use crate::{check_query, Hit, SearchParams, VectorIndex};
use fstore_common::{FsError, Result};
use serde::{Deserialize, Serialize};

/// IVF build/search parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IvfConfig {
    /// Number of k-means cells.
    pub nlist: usize,
    /// Cells scanned per query.
    pub nprobe: usize,
    /// k-means iterations at build time.
    pub train_iters: usize,
    pub seed: u64,
}

impl Default for IvfConfig {
    fn default() -> Self {
        IvfConfig {
            nlist: 64,
            nprobe: 8,
            train_iters: 15,
            seed: 42,
        }
    }
}

/// The inverted-file index.
pub struct IvfIndex {
    config: IvfConfig,
    /// One row per cell.
    centroids: FlatIndex,
    /// Row ids per cell.
    lists: Vec<Vec<u32>>,
    rows: FlatIndex,
}

impl IvfIndex {
    pub fn build(data: Vec<Vec<f32>>, config: IvfConfig) -> Result<Self> {
        check_rows(&data)?;
        if config.nprobe == 0 || config.nlist == 0 {
            return Err(FsError::Index("nlist and nprobe must be positive".into()));
        }
        let nlist = config.nlist.min(data.len());
        let (centroids, assignment) = kmeans(&data, nlist, config.train_iters, config.seed)?;
        let mut lists = vec![Vec::new(); nlist];
        for (id, &cell) in assignment.iter().enumerate() {
            lists[cell].push(id as u32);
        }
        Ok(IvfIndex {
            config,
            centroids: FlatIndex::build(centroids)?,
            lists,
            rows: FlatIndex::build(data)?,
        })
    }

    fn search_probes(&self, query: &[f32], k: usize, nprobe: usize) -> Result<Vec<Hit>> {
        let k = check_query(self.dim(), self.len(), query, k)?;
        if nprobe == 0 {
            return Err(FsError::Index("nprobe must be positive".into()));
        }
        // The cells to scan are the `nprobe` nearest centroids.
        let cells = self
            .centroids
            .search(query, nprobe, &SearchParams::default())?;
        let mut candidates = Vec::new();
        for (cell, _) in cells {
            candidates.extend_from_slice(&self.lists[cell]);
        }
        Ok(self.rows.top_k(Some(&candidates), query, k))
    }

    pub fn nlist(&self) -> usize {
        self.lists.len()
    }
}

impl VectorIndex for IvfIndex {
    fn len(&self) -> usize {
        self.rows.len()
    }

    fn dim(&self) -> usize {
        self.rows.dim()
    }

    fn vector(&self, id: usize) -> Option<&[f32]> {
        self.rows.vector(id)
    }

    fn search(&self, query: &[f32], k: usize, params: &SearchParams) -> Result<Vec<Hit>> {
        if params.exhaustive {
            return self.rows.search(query, k, params);
        }
        self.search_probes(query, k, params.nprobe.unwrap_or(self.config.nprobe))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fstore_common::{Rng, Xoshiro256};

    fn random_data(n: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = Xoshiro256::seeded(seed);
        (0..n)
            .map(|_| (0..d).map(|_| rng.normal() as f32).collect())
            .collect()
    }

    #[test]
    fn build_validation() {
        assert!(IvfIndex::build(vec![], IvfConfig::default()).is_err());
        let data = random_data(10, 4, 1);
        assert!(IvfIndex::build(
            data.clone(),
            IvfConfig {
                nprobe: 0,
                ..IvfConfig::default()
            }
        )
        .is_err());
        // nlist larger than n is clamped
        let idx = IvfIndex::build(
            data,
            IvfConfig {
                nlist: 100,
                ..IvfConfig::default()
            },
        )
        .unwrap();
        assert!(idx.nlist() <= 10);
    }

    #[test]
    fn full_probe_equals_flat() {
        let data = random_data(300, 8, 2);
        let flat = FlatIndex::build(data.clone()).unwrap();
        let ivf = IvfIndex::build(
            data.clone(),
            IvfConfig {
                nlist: 16,
                ..IvfConfig::default()
            },
        )
        .unwrap();
        let mut rng = Xoshiro256::seeded(3);
        for _ in 0..20 {
            let q: Vec<f32> = (0..8).map(|_| rng.normal() as f32).collect();
            let exact = flat.search(&q, 5, &SearchParams::default()).unwrap();
            let probed = ivf.search(&q, 5, &SearchParams::with_nprobe(16)).unwrap();
            assert_eq!(
                exact.iter().map(|h| h.0).collect::<Vec<_>>(),
                probed.iter().map(|h| h.0).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn recall_improves_with_probes() {
        let data = random_data(2_000, 16, 4);
        let flat = FlatIndex::build(data.clone()).unwrap();
        let ivf = IvfIndex::build(
            data.clone(),
            IvfConfig {
                nlist: 64,
                ..IvfConfig::default()
            },
        )
        .unwrap();
        let mut rng = Xoshiro256::seeded(5);
        let queries: Vec<Vec<f32>> = (0..30)
            .map(|_| (0..16).map(|_| rng.normal() as f32).collect())
            .collect();
        let recall = |nprobe: usize| {
            let mut hit = 0;
            let mut total = 0;
            for q in &queries {
                let truth: Vec<usize> = flat
                    .search(q, 10, &SearchParams::default())
                    .unwrap()
                    .iter()
                    .map(|h| h.0)
                    .collect();
                let got: Vec<usize> = ivf
                    .search(q, 10, &SearchParams::with_nprobe(nprobe))
                    .unwrap()
                    .iter()
                    .map(|h| h.0)
                    .collect();
                hit += truth.iter().filter(|t| got.contains(t)).count();
                total += truth.len();
            }
            hit as f64 / total as f64
        };
        let r1 = recall(1);
        let r8 = recall(8);
        let r64 = recall(64);
        assert!(
            r1 < r8 && r8 <= r64,
            "recall must rise with probes: {r1} {r8} {r64}"
        );
        assert!((r64 - 1.0).abs() < 1e-9, "full probe is exact");
    }

    #[test]
    fn probe_zero_rejected() {
        let data = random_data(20, 4, 7);
        let ivf = IvfIndex::build(data, IvfConfig::default()).unwrap();
        assert!(ivf
            .search(&[0.0; 4], 3, &SearchParams::with_nprobe(0))
            .is_err());
    }
}
