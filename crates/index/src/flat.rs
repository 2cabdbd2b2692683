//! Exact brute-force index: the recall-1.0 baseline every ANN index is
//! measured against, and the vector storage of all three families — one
//! contiguous row-major block that scans stream through the kernel.

use crate::kernel::{l2_sq_ids, l2_sq_rows};
use crate::{check_query, Hit, SearchParams, VectorIndex};
use fstore_common::{FsError, Result};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Brute-force scan over the full dataset.
pub struct FlatIndex {
    dim: usize,
    /// Row `id` is `block[id * dim..][..dim]`.
    block: Vec<f32>,
}

/// A row id under its distance, ordered by distance and then id — the
/// order every family returns hits in.
#[derive(Clone, Copy, PartialEq)]
pub(crate) struct Scored(pub(crate) f32, pub(crate) u32);

impl Eq for Scored {}
impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scored {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

/// Rows per kernel call in a scan: their distances stay on the stack.
const TILE: usize = 256;

/// What every family asks of its input rows; returns their dimension.
pub(crate) fn check_rows(data: &[Vec<f32>]) -> Result<usize> {
    let dim = data.first().map_or(0, Vec::len);
    if dim == 0 {
        return Err(FsError::Index("index needs non-empty vectors".into()));
    }
    if data.iter().any(|v| v.len() != dim) {
        return Err(FsError::Index("ragged vectors".into()));
    }
    if u32::try_from(data.len()).is_err() {
        return Err(FsError::Index("row ids are 32-bit".into()));
    }
    Ok(dim)
}

impl FlatIndex {
    /// Flattens `data` into the block, freeing each row as it is copied.
    pub fn build(data: Vec<Vec<f32>>) -> Result<Self> {
        let dim = check_rows(&data)?;
        let mut block = Vec::with_capacity(data.len() * dim);
        for row in data {
            block.extend_from_slice(&row);
        }
        Ok(FlatIndex { dim, block })
    }

    /// The stored vector of a row that exists.
    #[inline]
    pub(crate) fn row(&self, id: u32) -> &[f32] {
        &self.block[id as usize * self.dim..][..self.dim]
    }

    /// Distances from `query` to the rows `ids` names, in one kernel call.
    pub(crate) fn distances(&self, query: &[f32], ids: &[u32], out: &mut [f32]) {
        l2_sq_ids(query, &self.block, self.dim, ids, out);
    }

    /// The nearest `k` of all rows, or of the rows `ids` names, nearest
    /// first: a bounded max-heap whose root is the worst kept (O(n log k)).
    /// `k` is what [`check_query`] returned, so at most the row count.
    pub(crate) fn top_k(&self, ids: Option<&[u32]>, query: &[f32], k: usize) -> Vec<Hit> {
        let mut heap = BinaryHeap::with_capacity(k);
        let mut offer = |id: u32, distance: f32| {
            let hit = Scored(distance, id);
            if heap.len() < k {
                heap.push(hit);
            } else if let Some(mut worst) = heap.peek_mut() {
                if hit < *worst {
                    *worst = hit;
                }
            }
        };
        let mut distances = [0.0f32; TILE];
        match ids {
            None => {
                for (tile, rows) in self.block.chunks(TILE * self.dim).enumerate() {
                    let out = &mut distances[..rows.len() / self.dim];
                    l2_sq_rows(query, rows, self.dim, out);
                    for (i, &d) in out.iter().enumerate() {
                        offer((tile * TILE + i) as u32, d);
                    }
                }
            }
            Some(ids) => {
                for ids in ids.chunks(TILE) {
                    let out = &mut distances[..ids.len()];
                    self.distances(query, ids, out);
                    for (&id, &d) in ids.iter().zip(out.iter()) {
                        offer(id, d);
                    }
                }
            }
        }
        let nearest_first = heap.into_sorted_vec().into_iter();
        nearest_first.map(|s| (s.1 as usize, s.0)).collect()
    }
}

impl VectorIndex for FlatIndex {
    fn len(&self) -> usize {
        self.block.len() / self.dim
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn vector(&self, id: usize) -> Option<&[f32]> {
        self.block.chunks_exact(self.dim).nth(id)
    }

    // Flat is already exact, so every param set means the same scan.
    fn search(&self, query: &[f32], k: usize, _params: &SearchParams) -> Result<Vec<Hit>> {
        let k = check_query(self.dim, self.len(), query, k)?;
        Ok(self.top_k(None, query, k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn search(idx: &FlatIndex, query: &[f32], k: usize) -> Result<Vec<Hit>> {
        idx.search(query, k, &SearchParams::default())
    }

    fn grid() -> Vec<Vec<f32>> {
        // points at x = 0, 1, 2, ..., 9 on a line
        (0..10).map(|i| vec![i as f32, 0.0]).collect()
    }

    #[test]
    fn build_validation() {
        assert!(FlatIndex::build(vec![]).is_err());
        assert!(FlatIndex::build(vec![vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn exact_nearest() {
        let idx = FlatIndex::build(grid()).unwrap();
        let hits = search(&idx, &[3.2, 0.0], 3).unwrap();
        assert_eq!(hits.iter().map(|h| h.0).collect::<Vec<_>>(), vec![3, 4, 2]);
        assert!(hits[0].1 <= hits[1].1 && hits[1].1 <= hits[2].1);
    }

    #[test]
    fn k_larger_than_n_returns_all() {
        let idx = FlatIndex::build(grid()).unwrap();
        let hits = search(&idx, &[0.0, 0.0], 100).unwrap();
        assert_eq!(hits.len(), 10);
    }

    #[test]
    fn query_validation() {
        let idx = FlatIndex::build(grid()).unwrap();
        assert!(search(&idx, &[1.0], 3).is_err());
        assert!(search(&idx, &[1.0, 2.0], 0).is_err());
    }

    #[test]
    fn ties_break_by_id() {
        let data = vec![vec![1.0], vec![1.0], vec![2.0]];
        let idx = FlatIndex::build(data).unwrap();
        let hits = search(&idx, &[1.0], 2).unwrap();
        assert_eq!(hits[0].0, 0);
        assert_eq!(hits[1].0, 1);
    }
}
