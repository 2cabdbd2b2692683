//! Maximum mean discrepancy with an RBF kernel — the distribution test that
//! works where per-dimension tests cannot: in embedding space.

use fstore_common::{FsError, Result};

/// Unbiased-ish (V-statistic) MMD² between samples `x` and `y` with an RBF
/// kernel. `bandwidth = None` uses the median heuristic over the pooled
/// pairwise distances. Returns a non-negative score; 0 ⇔ same distribution
/// (in the kernel's RKHS).
pub(crate) fn mmd_rbf(x: &[Vec<f64>], y: &[Vec<f64>], bandwidth: Option<f64>) -> Result<f64> {
    if x.is_empty() || y.is_empty() {
        return Err(FsError::Monitor("MMD requires non-empty samples".into()));
    }
    let d = x[0].len();
    if d == 0 || x.iter().chain(y).any(|v| v.len() != d) {
        return Err(FsError::Monitor(
            "MMD requires aligned non-empty dimensions".into(),
        ));
    }

    let gamma = match bandwidth {
        Some(b) => {
            if b <= 0.0 {
                return Err(FsError::Monitor("bandwidth must be positive".into()));
            }
            1.0 / (2.0 * b * b)
        }
        None => {
            let sigma = median_pairwise_distance(x, y);
            if sigma <= 0.0 {
                // all points identical → distributions identical
                return Ok(0.0);
            }
            1.0 / (2.0 * sigma * sigma)
        }
    };

    let k = |a: &[f64], b: &[f64]| (-gamma * sq_dist(a, b)).exp();
    let mean_kernel = |s: &[Vec<f64>], t: &[Vec<f64>]| -> f64 {
        let mut total = 0.0;
        for a in s {
            for b in t {
                total += k(a, b);
            }
        }
        total / (s.len() * t.len()) as f64
    };
    let mmd2 = mean_kernel(x, x) + mean_kernel(y, y) - 2.0 * mean_kernel(x, y);
    Ok(mmd2.max(0.0))
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Median pairwise Euclidean distance over a pooled subsample (the median
/// heuristic; subsampled to keep this O(1e6) pairs max).
fn median_pairwise_distance(x: &[Vec<f64>], y: &[Vec<f64>]) -> f64 {
    let pooled: Vec<&Vec<f64>> = x.iter().chain(y).collect();
    let cap = 200.min(pooled.len());
    let stride = pooled.len().div_ceil(cap);
    let sample: Vec<&Vec<f64>> = pooled.iter().step_by(stride).copied().collect();
    let mut dists = Vec::with_capacity(sample.len() * (sample.len() - 1) / 2);
    for i in 0..sample.len() {
        for j in i + 1..sample.len() {
            dists.push(sq_dist(sample[i], sample[j]).sqrt());
        }
    }
    if dists.is_empty() {
        return 0.0;
    }
    dists.sort_by(f64::total_cmp);
    dists[dists.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fstore_common::{Rng, Xoshiro256};

    fn gaussian_sample(n: usize, d: usize, mean: f64, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = Xoshiro256::seeded(seed);
        (0..n)
            .map(|_| (0..d).map(|_| rng.normal() + mean).collect())
            .collect()
    }

    #[test]
    fn same_distribution_is_near_zero() {
        let x = gaussian_sample(150, 4, 0.0, 1);
        let y = gaussian_sample(150, 4, 0.0, 2);
        let m = mmd_rbf(&x, &y, None).unwrap();
        assert!(m < 0.01, "null MMD {m}");
    }

    #[test]
    fn shifted_distribution_is_large() {
        let x = gaussian_sample(150, 4, 0.0, 3);
        let y = gaussian_sample(150, 4, 2.0, 4);
        let m = mmd_rbf(&x, &y, None).unwrap();
        assert!(m > 0.1, "shifted MMD {m}");
    }

    #[test]
    fn monotone_in_shift() {
        let x = gaussian_sample(100, 4, 0.0, 5);
        let small = mmd_rbf(&x, &gaussian_sample(100, 4, 0.5, 6), Some(1.0)).unwrap();
        let large = mmd_rbf(&x, &gaussian_sample(100, 4, 3.0, 7), Some(1.0)).unwrap();
        assert!(
            large > small,
            "MMD must grow with shift: {small} vs {large}"
        );
    }

    #[test]
    fn identical_points_zero() {
        let x = vec![vec![1.0, 2.0]; 10];
        assert_eq!(mmd_rbf(&x, &x, None).unwrap(), 0.0);
    }

    #[test]
    fn validation() {
        let x = vec![vec![1.0]];
        assert!(mmd_rbf(&[], &x, None).is_err());
        assert!(mmd_rbf(&x, &[], None).is_err());
        assert!(mmd_rbf(&x, &[vec![1.0, 2.0]], None).is_err());
        assert!(mmd_rbf(&x, &x, Some(0.0)).is_err());
    }

    #[test]
    fn detects_rotation_drift_that_marginals_miss() {
        // 2-D correlated Gaussian vs its 90°-rotated version: identical
        // per-dimension marginals, different joint distribution.
        let mut rng = Xoshiro256::seeded(8);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..200 {
            let a = rng.normal();
            let b = rng.normal() * 0.1;
            x.push(vec![a + b, a - b]); // along (1,1)
            let c = rng.normal();
            let d = rng.normal() * 0.1;
            y.push(vec![c + d, -(c - d)]); // along (1,-1)
        }
        let m = mmd_rbf(&x, &y, None).unwrap();
        assert!(m > 0.05, "rotation drift MMD {m}");
        // while the per-dimension KS stays quiet
        let xs0: Vec<f64> = x.iter().map(|v| v[0]).collect();
        let ys0: Vec<f64> = y.iter().map(|v| v[0]).collect();
        let ks = fstore_common::stats::ks_statistic(&xs0, &ys0).unwrap();
        assert!(ks < 0.12, "marginal KS should be quiet: {ks}");
    }
}
