//! Streaming mean/variance/min/max via Welford's algorithm.

/// Numerically stable online accumulator of count, mean, variance, min, max.
///
/// Used by the offline store's zone maps, the feature-quality profiler and
/// the drift monitors' reference windows. Merging two accumulators is exact
/// (parallel Welford), which lets per-segment statistics roll up to
/// per-table statistics without a second pass.
#[derive(Debug, Clone, Default)]
pub struct OnlineMoments {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineMoments {
    pub fn new() -> Self {
        OnlineMoments {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (divides by n). Zero for n < 2.
    pub(crate) fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample variance (divides by n-1). Zero for n < 2.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }
}

impl FromIterator<f64> for OnlineMoments {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut m = OnlineMoments::new();
        for x in iter {
            m.push(x);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_accumulator() {
        let m = OnlineMoments::new();
        assert_eq!(m.count(), 0);
        assert_eq!(m.min(), None);
        assert_eq!(m.variance(), 0.0);
    }

    #[test]
    fn matches_closed_form() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let m: OnlineMoments = xs.iter().copied().collect();
        assert_eq!(m.count(), 8);
        assert!((m.mean() - 5.0).abs() < 1e-12);
        assert!((m.variance() - 4.0).abs() < 1e-12);
        assert!((m.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(m.min(), Some(2.0));
        assert_eq!(m.max(), Some(9.0));
    }

    #[test]
    fn stable_for_large_offsets() {
        // Classic catastrophic-cancellation case: huge mean, tiny variance.
        let m: OnlineMoments = (0..1000).map(|i| 1e9 + (i % 2) as f64).collect();
        assert!(
            (m.variance() - 0.25).abs() < 1e-6,
            "variance {}",
            m.variance()
        );
    }

    #[test]
    fn sample_variance_uses_n_minus_one() {
        let m: OnlineMoments = [1.0, 3.0].into_iter().collect();
        assert!((m.variance() - 1.0).abs() < 1e-12);
        assert!((m.sample_variance() - 2.0).abs() < 1e-12);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Against the naive two-pass formulas.
            #[test]
            fn matches_two_pass(xs in proptest::collection::vec(-1e3f64..1e3, 2..100)) {
                let m: OnlineMoments = xs.iter().copied().collect();
                let n = xs.len() as f64;
                let mean = xs.iter().sum::<f64>() / n;
                let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
                prop_assert!((m.mean() - mean).abs() < 1e-8);
                prop_assert!((m.variance() - var).abs() < 1e-6 * (1.0 + var));
                prop_assert_eq!(m.min(), xs.iter().copied().min_by(f64::total_cmp));
                prop_assert_eq!(m.max(), xs.iter().copied().max_by(f64::total_cmp));
            }
        }
    }
}
