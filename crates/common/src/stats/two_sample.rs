//! Two-sample divergence statistics: Kolmogorov–Smirnov and Population
//! Stability Index. These are the *tabular* drift detectors
//! the paper says feature stores already run (§2.2.3) — and that experiment
//! E10 shows are blind to embedding-space drift.

use crate::error::{FsError, Result};

/// Two-sample Kolmogorov–Smirnov statistic: the supremum distance between
/// empirical CDFs. Returns a value in `[0, 1]`.
pub fn ks_statistic(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.is_empty() || b.is_empty() {
        return Err(FsError::InvalidArgument(
            "KS test requires non-empty samples".into(),
        ));
    }
    let mut xa = a.to_vec();
    let mut xb = b.to_vec();
    xa.sort_by(f64::total_cmp);
    xb.sort_by(f64::total_cmp);

    let (na, nb) = (xa.len() as f64, xb.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < xa.len() && j < xb.len() {
        let x = xa[i].min(xb[j]);
        while i < xa.len() && xa[i] <= x {
            i += 1;
        }
        while j < xb.len() && xb[j] <= x {
            j += 1;
        }
        d = d.max((i as f64 / na - j as f64 / nb).abs());
    }
    Ok(d)
}

/// Approximate p-value for the two-sample KS statistic via the asymptotic
/// Kolmogorov distribution: `Q(λ) = 2 Σ (-1)^{k-1} e^{-2k²λ²}`.
pub fn ks_p_value(d: f64, na: usize, nb: usize) -> f64 {
    let n_eff = (na as f64 * nb as f64) / (na + nb) as f64;
    let lambda = (n_eff.sqrt() + 0.12 + 0.11 / n_eff.sqrt()) * d;
    // The alternating series does not decay for λ → 0; Q(λ→0) = 1.
    if lambda < 0.3 {
        return 1.0;
    }
    let mut p = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64).powi(2) * lambda * lambda).exp();
        p += sign * term;
        sign = -sign;
        if term < 1e-12 {
            break;
        }
    }
    (2.0 * p).clamp(0.0, 1.0)
}

/// Population Stability Index between reference and live bucket proportions.
///
/// Both inputs must be positive proportion vectors of equal length (use
/// [`crate::stats::Histogram::proportions_with_tails`] with a small epsilon).
/// Industry rule of thumb: `< 0.1` stable, `0.1–0.25` moderate shift,
/// `> 0.25` major shift.
pub fn population_stability_index(reference: &[f64], live: &[f64]) -> Result<f64> {
    if reference.len() != live.len() || reference.is_empty() {
        return Err(FsError::InvalidArgument(format!(
            "PSI bucket mismatch: {} vs {}",
            reference.len(),
            live.len()
        )));
    }
    let mut psi = 0.0;
    for (&r, &l) in reference.iter().zip(live) {
        if r <= 0.0 || l <= 0.0 {
            return Err(FsError::InvalidArgument(
                "PSI proportions must be positive (floor them with eps)".into(),
            ));
        }
        psi += (l - r) * (l / r).ln();
    }
    Ok(psi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, Xoshiro256};

    #[test]
    fn ks_zero_for_identical_samples() {
        let a: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert!(ks_statistic(&a, &a).unwrap() < 1e-12);
    }

    #[test]
    fn ks_one_for_disjoint_samples() {
        let a = vec![0.0, 1.0, 2.0];
        let b = vec![10.0, 11.0];
        assert!((ks_statistic(&a, &b).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ks_detects_mean_shift() {
        let mut rng = Xoshiro256::seeded(21);
        let a: Vec<f64> = (0..2000).map(|_| rng.normal()).collect();
        let b: Vec<f64> = (0..2000).map(|_| rng.normal() + 1.0).collect();
        let same: Vec<f64> = (0..2000).map(|_| rng.normal()).collect();
        let d_shift = ks_statistic(&a, &b).unwrap();
        let d_same = ks_statistic(&a, &same).unwrap();
        assert!(d_shift > 0.3, "shifted KS {d_shift}");
        assert!(d_same < 0.06, "null KS {d_same}");
        assert!(ks_p_value(d_shift, 2000, 2000) < 1e-6);
        assert!(ks_p_value(d_same, 2000, 2000) > 0.01);
    }

    #[test]
    fn ks_rejects_empty() {
        assert!(ks_statistic(&[], &[1.0]).is_err());
    }

    #[test]
    fn psi_zero_for_identical_distributions() {
        let p = vec![0.25, 0.25, 0.25, 0.25];
        assert!(population_stability_index(&p, &p).unwrap().abs() < 1e-12);
    }

    #[test]
    fn psi_flags_major_shift() {
        let reference = vec![0.7, 0.2, 0.1];
        let live = vec![0.1, 0.2, 0.7];
        let psi = population_stability_index(&reference, &live).unwrap();
        assert!(psi > 0.25, "psi {psi}");
    }

    #[test]
    fn psi_input_validation() {
        assert!(population_stability_index(&[0.5, 0.5], &[1.0]).is_err());
        assert!(population_stability_index(&[0.0, 1.0], &[0.5, 0.5]).is_err());
    }
}
