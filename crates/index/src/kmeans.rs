//! Lloyd's k-means with k-means++ seeding — the coarse quantizer behind
//! [`crate::IvfIndex`].

use crate::l2_sq;
use fstore_common::{FsError, Result, Rng, Xoshiro256};

/// Cluster `data` into `k` centroids; returns `(centroids, assignment)`.
/// Deterministic in `seed`. Empty clusters are re-seeded from the point
/// farthest from its centroid.
pub(crate) fn kmeans(
    data: &[Vec<f32>],
    k: usize,
    iterations: usize,
    seed: u64,
) -> Result<(Vec<Vec<f32>>, Vec<usize>)> {
    if data.is_empty() {
        return Err(FsError::Index("k-means on empty data".into()));
    }
    if k == 0 || k > data.len() {
        return Err(FsError::Index(format!(
            "k must be in 1..={}, got {k}",
            data.len()
        )));
    }
    let dim = data[0].len();
    let mut rng = Xoshiro256::seeded(seed);

    // k-means++ seeding
    let mut centroids: Vec<Vec<f32>> = Vec::with_capacity(k);
    centroids.push(data[rng.below(data.len() as u64) as usize].clone());
    let mut dist2: Vec<f64> = data
        .iter()
        .map(|v| f64::from(l2_sq(v, &centroids[0])))
        .collect();
    while centroids.len() < k {
        let total: f64 = dist2.iter().sum();
        let next = if total <= 0.0 {
            // all points coincide with chosen centroids: pick any
            rng.below(data.len() as u64) as usize
        } else {
            let mut target = rng.next_f64() * total;
            let mut chosen = data.len() - 1;
            for (i, &d) in dist2.iter().enumerate() {
                target -= d;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centroids.push(data[next].clone());
        for (i, v) in data.iter().enumerate() {
            dist2[i] = dist2[i].min(f64::from(l2_sq(v, centroids.last().unwrap())));
        }
    }

    let mut assignment = vec![0usize; data.len()];
    for _ in 0..iterations.max(1) {
        // assign
        let mut changed = false;
        for (i, v) in data.iter().enumerate() {
            let mut best = 0usize;
            let mut best_d = f32::INFINITY;
            for (c, cent) in centroids.iter().enumerate() {
                let d = l2_sq(v, cent);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        // update
        let mut sums = vec![vec![0.0f64; dim]; k];
        let mut counts = vec![0usize; k];
        for (i, v) in data.iter().enumerate() {
            counts[assignment[i]] += 1;
            for (s, &x) in sums[assignment[i]].iter_mut().zip(v) {
                *s += f64::from(x);
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                // re-seed from the globally farthest point
                let far = (0..data.len())
                    .max_by(|&a, &b| {
                        let da = l2_sq(&data[a], &centroids[assignment[a]]);
                        let db = l2_sq(&data[b], &centroids[assignment[b]]);
                        da.total_cmp(&db)
                    })
                    .unwrap();
                centroids[c] = data[far].clone();
                changed = true;
            } else {
                for (j, s) in sums[c].iter().enumerate() {
                    centroids[c][j] = (s / counts[c] as f64) as f32;
                }
            }
        }
        if !changed {
            break;
        }
    }
    Ok((centroids, assignment))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_blobs(n_per: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = Xoshiro256::seeded(seed);
        let centers = [[0.0f32, 0.0], [10.0, 10.0], [-10.0, 10.0]];
        let mut data = Vec::new();
        for c in centers {
            for _ in 0..n_per {
                data.push(vec![
                    c[0] + rng.normal() as f32 * 0.5,
                    c[1] + rng.normal() as f32 * 0.5,
                ]);
            }
        }
        data
    }

    #[test]
    fn recovers_blob_structure() {
        let data = three_blobs(50, 1);
        let (centroids, assign) = kmeans(&data, 3, 20, 7).unwrap();
        assert_eq!(centroids.len(), 3);
        // each blob maps to a single cluster
        for blob in 0..3 {
            let first = assign[blob * 50];
            assert!(
                assign[blob * 50..(blob + 1) * 50]
                    .iter()
                    .all(|&a| a == first),
                "blob {blob} split across clusters"
            );
        }
        // and the three blobs get three distinct clusters
        let mut reps = vec![assign[0], assign[50], assign[100]];
        reps.sort_unstable();
        reps.dedup();
        assert_eq!(reps.len(), 3);
    }

    #[test]
    fn deterministic() {
        let data = three_blobs(20, 2);
        let a = kmeans(&data, 3, 10, 9).unwrap();
        let b = kmeans(&data, 3, 10, 9).unwrap();
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn validation() {
        assert!(kmeans(&[], 1, 5, 0).is_err());
        let data = vec![vec![1.0f32]];
        assert!(kmeans(&data, 0, 5, 0).is_err());
        assert!(kmeans(&data, 2, 5, 0).is_err());
    }

    #[test]
    fn duplicate_points_are_handled() {
        let data = vec![vec![1.0f32, 1.0]; 10];
        let (centroids, assign) = kmeans(&data, 3, 5, 3).unwrap();
        assert_eq!(centroids.len(), 3);
        assert_eq!(assign.len(), 10);
    }

    #[test]
    fn k_equals_n() {
        let data = three_blobs(2, 4);
        let (c, a) = kmeans(&data, 6, 5, 5).unwrap();
        assert_eq!(c.len(), 6);
        assert_eq!(a.len(), 6);
    }
}
