//! # fstore-index
//!
//! Vector similarity indexes — the serving substrate for embeddings at
//! scale (paper §4: "users need tools for searching and querying these
//! embeddings … at industrial scale"). Three index families cover the
//! recall/latency/build-cost trade-off surface experiment **E9** sweeps:
//!
//! * [`FlatIndex`] — exact brute-force scan (recall 1.0, O(n) per query);
//! * [`IvfIndex`] — k-means inverted file with `nprobe` search;
//! * [`HnswIndex`] — hierarchical navigable small world graph.
//!
//! All indexes speak squared-L2 over `f32` vectors, computed by the one
//! `kernel` and stored as one contiguous row-major block per index;
//! cosine search is L2 over unit-normalized vectors (see
//! [`normalize_all`]).

#![warn(unreachable_pub)]

mod flat;
mod hnsw;
mod ivf;
mod kernel;
mod kmeans;
mod recall;

pub use flat::FlatIndex;
pub use hnsw::{HnswConfig, HnswIndex};
pub use ivf::{IvfConfig, IvfIndex};
pub use kernel::{l2_sq, l2_sq_portable, l2_sq_rows};
pub use recall::recall_at_k;

use fstore_common::{FsError, Result};

/// A search hit: dataset row id and squared-L2 distance.
pub type Hit = (usize, f32);

/// Per-query search knobs accepted by every index family.
///
/// `None` falls back to the index's configured default; knobs an index
/// family has no use for are ignored (`ef` by IVF, `nprobe` by HNSW, both
/// by Flat). This is what lets one generic call site — the recall harness,
/// the serving catalog, the experiment sweeps — drive any family without
/// matching on concrete types. `exhaustive` forces an exact scan on any
/// index: the recall-1.0 escape hatch when correctness beats latency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SearchParams {
    /// HNSW beam width; `None` uses the index's `ef_search`.
    pub ef: Option<usize>,
    /// IVF cells scanned; `None` uses the index's `nprobe`.
    pub nprobe: Option<usize>,
    /// Bypass the approximate structure and scan everything.
    pub exhaustive: bool,
}

impl SearchParams {
    /// Params that pin the HNSW beam width.
    pub fn with_ef(ef: usize) -> Self {
        SearchParams {
            ef: Some(ef),
            ..SearchParams::default()
        }
    }

    /// Params that pin the IVF probe count.
    pub fn with_nprobe(nprobe: usize) -> Self {
        SearchParams {
            nprobe: Some(nprobe),
            ..SearchParams::default()
        }
    }

    /// Params that force an exact scan on any index family.
    pub fn exact() -> Self {
        SearchParams {
            exhaustive: true,
            ..SearchParams::default()
        }
    }
}

/// Common interface over all index families.
pub trait VectorIndex {
    fn len(&self) -> usize;
    fn dim(&self) -> usize;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The stored vector for a dataset row id, if `id` is in range.
    fn vector(&self, id: usize) -> Option<&[f32]>;
    /// `k` nearest neighbours of `query` under `params`, ascending by
    /// distance. The single search entry point: every family interprets
    /// the knobs it understands and ignores the rest.
    fn search(&self, query: &[f32], k: usize, params: &SearchParams) -> Result<Vec<Hit>>;
}

/// Unit-normalize every vector (cosine search = L2 on the result).
pub fn normalize_all(data: &mut [Vec<f32>]) {
    for v in data {
        let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        if n > 0.0 {
            for x in v.iter_mut() {
                *x /= n;
            }
        }
    }
}

/// Validates a search and returns `k` clamped to `len`: no more hits than
/// rows exist, and `k` comes off the wire, so nothing may be sized by it
/// unclamped.
pub(crate) fn check_query(dim: usize, len: usize, query: &[f32], k: usize) -> Result<usize> {
    if query.len() != dim {
        return Err(FsError::Index(format!(
            "query dim {} != index dim {dim}",
            query.len()
        )));
    }
    if k == 0 {
        return Err(FsError::Index("k must be positive".into()));
    }
    if len == 0 {
        return Err(FsError::Index("index is empty".into()));
    }
    Ok(k.min(len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_all_units_and_zeros() {
        let mut data = vec![vec![3.0, 4.0], vec![0.0, 0.0]];
        normalize_all(&mut data);
        assert!((l2_sq(&data[0], &[0.6, 0.8])).abs() < 1e-12);
        assert_eq!(data[1], vec![0.0, 0.0]);
    }
}
