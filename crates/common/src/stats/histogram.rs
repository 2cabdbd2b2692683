//! Fixed-range histograms used for PSI drift tests and feature
//! distribution profiles.

use crate::error::{FsError, Result};

/// An equal-width histogram over `[lo, hi)` with explicit under/overflow
/// buckets, so that drifted live data falling outside the reference range is
/// still counted (a common failure of naive drift monitors).
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    pub(crate) fn new(lo: f64, hi: f64, buckets: usize) -> Result<Self> {
        if !(lo.is_finite() && hi.is_finite()) || lo >= hi {
            return Err(FsError::InvalidArgument(format!(
                "bad histogram range [{lo}, {hi})"
            )));
        }
        if buckets == 0 {
            return Err(FsError::InvalidArgument(
                "histogram needs at least 1 bucket".into(),
            ));
        }
        Ok(Histogram {
            lo,
            hi,
            counts: vec![0; buckets],
            underflow: 0,
            overflow: 0,
            total: 0,
        })
    }

    /// Build from reference data with the range taken from its min/max
    /// (slightly widened so the max lands inside the last bucket).
    pub fn fit(data: &[f64], buckets: usize) -> Result<Self> {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &x in data {
            if x.is_finite() {
                lo = lo.min(x);
                hi = hi.max(x);
            }
        }
        if !lo.is_finite() {
            return Err(FsError::InvalidArgument(
                "histogram fit on empty/non-finite data".into(),
            ));
        }
        if lo == hi {
            hi = lo + 1.0;
        }
        let pad = (hi - lo) * 1e-9;
        let mut h = Histogram::new(lo, hi + pad.max(f64::MIN_POSITIVE), buckets)?;
        for &x in data {
            h.add(x);
        }
        Ok(h)
    }

    pub(crate) fn add(&mut self, x: f64) {
        self.total += 1;
        if x.is_nan() || x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.counts.len() as f64;
            let idx = (((x - self.lo) / w) as usize).min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    pub fn add_all(&mut self, xs: &[f64]) {
        for &x in xs {
            self.add(x);
        }
    }

    /// A fresh empty histogram with identical bucket boundaries — used to
    /// bucket live data against a reference's geometry.
    pub fn empty_like(&self) -> Histogram {
        Histogram {
            lo: self.lo,
            hi: self.hi,
            counts: vec![0; self.counts.len()],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Counts including the under/overflow sentinel buckets, in the order
    /// `[underflow, b0, b1, …, overflow]`. This is the vector the PSI test
    /// consumes.
    pub(crate) fn counts_with_tails(&self) -> Vec<u64> {
        let mut v = Vec::with_capacity(self.counts.len() + 2);
        v.push(self.underflow);
        v.extend_from_slice(&self.counts);
        v.push(self.overflow);
        v
    }

    /// Bucket proportions with tails, each floored at `eps` to keep
    /// log-ratios finite (standard PSI practice).
    pub fn proportions_with_tails(&self, eps: f64) -> Vec<f64> {
        let n = self.total.max(1) as f64;
        self.counts_with_tails()
            .iter()
            .map(|&c| (c as f64 / n).max(eps))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total(h: &Histogram) -> u64 {
        h.counts_with_tails().iter().sum()
    }

    #[test]
    fn rejects_degenerate_construction() {
        assert!(Histogram::new(1.0, 1.0, 4).is_err());
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
        assert!(Histogram::new(f64::NAN, 1.0, 2).is_err());
        assert!(Histogram::fit(&[], 4).is_err());
        assert!(Histogram::fit(&[f64::NAN], 4).is_err());
    }

    #[test]
    fn buckets_values_in_range() {
        let mut h = Histogram::new(0.0, 10.0, 5).unwrap();
        h.add_all(&[0.0, 1.9, 2.0, 9.9]);
        assert_eq!(h.counts_with_tails(), vec![0, 2, 1, 0, 0, 1, 0]);
    }

    #[test]
    fn tails_capture_outliers_and_nan() {
        let mut h = Histogram::new(0.0, 1.0, 2).unwrap();
        h.add_all(&[-5.0, 0.5, 2.0, f64::NAN, f64::INFINITY]);
        let tails = h.counts_with_tails();
        assert_eq!(tails[0], 2); // -5 and NaN underflow
        assert_eq!(*tails.last().unwrap(), 2); // 2.0 and +inf overflow
        assert_eq!(total(&h), 5);
    }

    #[test]
    fn fit_covers_all_samples() {
        let data: Vec<f64> = (0..100).map(|i| i as f64 / 10.0).collect();
        let h = Histogram::fit(&data, 8).unwrap();
        assert_eq!(h.counts_with_tails()[0], 0);
        assert_eq!(*h.counts_with_tails().last().unwrap(), 0);
        assert_eq!(total(&h), 100);
    }

    #[test]
    fn fit_constant_data() {
        let h = Histogram::fit(&[3.0, 3.0, 3.0], 4).unwrap();
        assert_eq!(total(&h), 3);
    }

    #[test]
    fn empty_like_shares_geometry() {
        let mut h = Histogram::fit(&[0.0, 10.0], 5).unwrap();
        let mut e = h.empty_like();
        assert_eq!(total(&e), 0);
        for x in [-1.0, 1.9, 2.1, 5.0, 11.0] {
            h.add(x);
            e.add(x);
        }
        let (mut hc, ec) = (h.counts_with_tails(), e.counts_with_tails());
        hc[1] -= 1; // the fitted 0.0
        hc[5] -= 1; // the fitted 10.0
        assert_eq!(hc, ec);
    }

    #[test]
    fn proportions_floor_at_eps() {
        let mut h = Histogram::new(0.0, 1.0, 2).unwrap();
        h.add(0.1);
        let p = h.proportions_with_tails(1e-4);
        assert!(p.iter().all(|&x| x >= 1e-4));
        assert!((p[1] - 1.0).abs() < 1e-9);
    }
}
