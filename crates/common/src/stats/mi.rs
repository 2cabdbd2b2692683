//! Entropy and mutual information over discretized columns.
//!
//! The paper (§2.2.2) lists mutual information across features as a core
//! feature-quality metric: near-duplicate features show up as MI close to
//! the marginal entropy, and dead features as MI ≈ 0 with the label.

use crate::error::{FsError, Result};
use std::collections::HashMap;

/// How to discretize a continuous column before computing MI.
#[derive(Debug, Clone, Copy)]
pub struct DiscretizeSpec {
    pub(crate) bins: usize,
}

impl Default for DiscretizeSpec {
    fn default() -> Self {
        DiscretizeSpec { bins: 16 }
    }
}

/// Equal-width discretization of a numeric column into `spec.bins` bins.
/// Non-finite values map to a dedicated extra bin (`spec.bins`).
pub fn discretize_equal_width(xs: &[f64], spec: DiscretizeSpec) -> Result<Vec<usize>> {
    if spec.bins == 0 {
        return Err(FsError::InvalidArgument("discretize with 0 bins".into()));
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &x in xs {
        if x.is_finite() {
            lo = lo.min(x);
            hi = hi.max(x);
        }
    }
    if !lo.is_finite() {
        // All values non-finite: everything goes to the sentinel bin.
        return Ok(vec![spec.bins; xs.len()]);
    }
    let width = if hi > lo {
        (hi - lo) / spec.bins as f64
    } else {
        1.0
    };
    Ok(xs
        .iter()
        .map(|&x| {
            if !x.is_finite() {
                spec.bins
            } else {
                (((x - lo) / width) as usize).min(spec.bins - 1)
            }
        })
        .collect())
}

/// Shannon entropy (nats) of a discrete sample.
pub(crate) fn entropy(labels: &[usize]) -> f64 {
    if labels.is_empty() {
        return 0.0;
    }
    let mut counts: HashMap<usize, u64> = HashMap::new();
    for &l in labels {
        *counts.entry(l).or_default() += 1;
    }
    let n = labels.len() as f64;
    counts
        .values()
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.ln()
        })
        .sum()
}

/// Mutual information (nats) between two aligned discrete samples.
pub(crate) fn mutual_information(a: &[usize], b: &[usize]) -> Result<f64> {
    if a.len() != b.len() {
        return Err(FsError::InvalidArgument(format!(
            "MI requires aligned samples ({} vs {})",
            a.len(),
            b.len()
        )));
    }
    if a.is_empty() {
        return Ok(0.0);
    }
    let n = a.len() as f64;
    let mut joint: HashMap<(usize, usize), u64> = HashMap::new();
    let mut ma: HashMap<usize, u64> = HashMap::new();
    let mut mb: HashMap<usize, u64> = HashMap::new();
    for (&x, &y) in a.iter().zip(b) {
        *joint.entry((x, y)).or_default() += 1;
        *ma.entry(x).or_default() += 1;
        *mb.entry(y).or_default() += 1;
    }
    let mut mi = 0.0;
    for (&(x, y), &c) in &joint {
        let pxy = c as f64 / n;
        let px = ma[&x] as f64 / n;
        let py = mb[&y] as f64 / n;
        mi += pxy * (pxy / (px * py)).ln();
    }
    Ok(mi.max(0.0))
}

/// Normalized mutual information in `[0, 1]`:
/// `MI / sqrt(H(a) · H(b))`, with 0 when either side is constant.
pub fn normalized_mutual_information(a: &[usize], b: &[usize]) -> Result<f64> {
    let (ha, hb) = (entropy(a), entropy(b));
    if ha == 0.0 || hb == 0.0 {
        return Ok(0.0);
    }
    Ok((mutual_information(a, b)? / (ha * hb).sqrt()).clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_basics() {
        assert_eq!(entropy(&[]), 0.0);
        assert_eq!(entropy(&[1, 1, 1]), 0.0);
        let h = entropy(&[0, 1, 0, 1]);
        assert!((h - std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    fn mi_of_identical_is_entropy() {
        let xs = vec![0, 1, 2, 0, 1, 2, 0, 0];
        let mi = mutual_information(&xs, &xs).unwrap();
        assert!((mi - entropy(&xs)).abs() < 1e-12);
        assert!((normalized_mutual_information(&xs, &xs).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mi_of_independent_is_near_zero() {
        use crate::rng::{Rng, Xoshiro256};
        let mut rng = Xoshiro256::seeded(41);
        let a: Vec<usize> = (0..10_000).map(|_| rng.below(4) as usize).collect();
        let b: Vec<usize> = (0..10_000).map(|_| rng.below(4) as usize).collect();
        let mi = mutual_information(&a, &b).unwrap();
        assert!(mi < 0.01, "independent MI {mi}");
        assert!(normalized_mutual_information(&a, &b).unwrap() < 0.01);
    }

    #[test]
    fn mi_constant_column_is_zero() {
        let a = vec![7usize; 100];
        let b: Vec<usize> = (0..100).map(|i| i % 3).collect();
        assert!(mutual_information(&a, &b).unwrap() < 1e-12);
        assert_eq!(normalized_mutual_information(&a, &b).unwrap(), 0.0);
    }

    #[test]
    fn mi_validates_alignment() {
        assert!(mutual_information(&[1, 2], &[1]).is_err());
    }

    #[test]
    fn discretize_maps_range_to_bins() {
        let xs = [0.0, 0.5, 1.0, 1.5, 2.0];
        let bins = discretize_equal_width(&xs, DiscretizeSpec { bins: 4 }).unwrap();
        assert_eq!(bins, vec![0, 1, 2, 3, 3]);
    }

    #[test]
    fn discretize_handles_nan_and_constant() {
        let xs = [1.0, f64::NAN, 1.0];
        let bins = discretize_equal_width(&xs, DiscretizeSpec { bins: 3 }).unwrap();
        assert_eq!(bins[1], 3); // sentinel bin
        assert_eq!(bins[0], bins[2]);

        let all_nan = [f64::NAN, f64::INFINITY];
        let b = discretize_equal_width(&all_nan, DiscretizeSpec { bins: 2 }).unwrap();
        assert_eq!(b, vec![2, 2]);
    }

    #[test]
    fn mi_detects_functional_dependence_after_discretize() {
        let xs: Vec<f64> = (0..1000).map(|i| i as f64 / 100.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 1.0).collect();
        let bx = discretize_equal_width(&xs, DiscretizeSpec::default()).unwrap();
        let by = discretize_equal_width(&ys, DiscretizeSpec::default()).unwrap();
        let nmi = normalized_mutual_information(&bx, &by).unwrap();
        assert!(nmi > 0.95, "functional NMI {nmi}");
    }
}
