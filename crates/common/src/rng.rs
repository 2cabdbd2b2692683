//! Deterministic pseudo-random generation for workloads and experiments.
//!
//! Every experiment in EXPERIMENTS.md must be reproducible bit-for-bit, so
//! workload generators use these small, well-known generators (SplitMix64 to
//! seed, Xoshiro256++ to run) instead of depending on the stream stability of
//! an external crate. The [`Rng`] trait carries the distribution helpers the
//! workspace needs: uniforms, Gaussians, exponentials, Poisson counts, and a
//! Zipf sampler (the popularity-skew engine behind the rare-entity
//! experiments E5/E8).

/// Common interface over the generators in this module.
pub trait Rng {
    /// Next raw 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)` (Lemire-style; `n` must be nonzero).
    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "below(0)");
        // Widening-multiply rejection method: unbiased.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`.
    fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "range_i64: empty range {lo}..{hi}");
        lo.wrapping_add(self.below((hi - lo) as u64) as i64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Bernoulli draw.
    fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Standard normal via Box–Muller (no spare caching: keeps state simple
    /// and deterministic under interleaving).
    fn normal(&mut self) -> f64 {
        let u1 = (1.0 - self.next_f64()).max(f64::MIN_POSITIVE); // (0,1]
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal with the given mean and standard deviation.
    fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal()
    }

    /// Exponential with rate `lambda` (mean `1/lambda`).
    fn exponential(&mut self, lambda: f64) -> f64 {
        assert!(lambda > 0.0);
        -(1.0 - self.next_f64()).ln() / lambda
    }

    /// Poisson count with mean `lambda` (Knuth's product method; fine for the
    /// event-rate magnitudes our stream generators use).
    fn poisson(&mut self, lambda: f64) -> u64 {
        assert!(lambda >= 0.0);
        if lambda == 0.0 {
            return 0;
        }
        if lambda > 30.0 {
            // Normal approximation for large rates, clamped at zero.
            return self.normal_with(lambda, lambda.sqrt()).round().max(0.0) as u64;
        }
        let limit = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.next_f64();
            if p <= limit {
                return k;
            }
            k += 1;
        }
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Uniformly choose an element (panics on an empty slice).
    fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }

    /// Sample `k` distinct indices from `[0, n)` (reservoir; order arbitrary).
    fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} from {n}");
        let mut reservoir: Vec<usize> = (0..k).collect();
        for i in k..n {
            let j = self.below(i as u64 + 1) as usize;
            if j < k {
                reservoir[j] = i;
            }
        }
        reservoir
    }
}

/// SplitMix64 — used to derive independent seeds/streams.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Xoshiro256++ — the workhorse generator for workloads.
#[derive(Debug, Clone)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Seed via SplitMix64 per the reference implementation's recommendation.
    pub fn seeded(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256 {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Derive an independent child stream (for parallel generators that must
    /// stay deterministic regardless of interleaving).
    pub fn fork(&mut self, stream: u64) -> Xoshiro256 {
        let base = self.next_u64();
        Xoshiro256::seeded(base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

impl Rng for Xoshiro256 {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// Zipf(α) sampler over ranks `0..n` (rank 0 most popular), via inverse-CDF
/// lookup on a precomputed table. O(n) memory, O(log n) per draw — exactly
/// right for our vocabulary sizes (≤ a few hundred thousand).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "Zipf over empty support");
        assert!(alpha >= 0.0, "negative Zipf exponent");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += (rank as f64).powf(-alpha);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draw a rank in `[0, n)`.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u = rng.next_f64();
        // partition_point returns the first index whose cdf >= u.
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
impl Zipf {
    /// Probability mass of `rank`: the reference the tests check `sample`
    /// against.
    fn pmf(&self, rank: usize) -> f64 {
        let lo = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        self.cdf[rank] - lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xoshiro_is_deterministic() {
        let mut a = Xoshiro256::seeded(42);
        let mut b = Xoshiro256::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xoshiro256::seeded(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn forked_streams_diverge_but_are_deterministic() {
        let mut parent1 = Xoshiro256::seeded(7);
        let mut parent2 = Xoshiro256::seeded(7);
        let mut f1 = parent1.fork(1);
        let mut f2 = parent2.fork(1);
        let mut g = parent1.fork(2);
        assert_eq!(f1.next_u64(), f2.next_u64());
        assert_ne!(f1.next_u64(), g.next_u64());
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = Xoshiro256::seeded(1);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut r = Xoshiro256::seeded(2);
        let mut counts = [0usize; 7];
        for _ in 0..70_000 {
            counts[r.below(7) as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (8_000..12_000).contains(&c),
                "bucket count {c} far from uniform"
            );
        }
    }

    #[test]
    fn normal_moments() {
        let mut r = Xoshiro256::seeded(3);
        let n = 50_000;
        let (mut sum, mut sum2) = (0.0, 0.0);
        for _ in 0..n {
            let x = r.normal();
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn poisson_mean_matches_lambda() {
        let mut r = Xoshiro256::seeded(4);
        for &lambda in &[0.5, 3.0, 12.0, 80.0] {
            let n = 20_000;
            let total: u64 = (0..n).map(|_| r.poisson(lambda)).sum();
            let mean = total as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < 0.15 * lambda.max(1.0),
                "λ={lambda} mean={mean}"
            );
        }
    }

    #[test]
    fn exponential_mean() {
        let mut r = Xoshiro256::seeded(5);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| r.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Xoshiro256::seeded(6);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            xs,
            (0..100).collect::<Vec<_>>(),
            "shuffle left input untouched"
        );
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut r = Xoshiro256::seeded(7);
        let s = r.sample_indices(50, 10);
        assert_eq!(s.len(), 10);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
        assert!(sorted.iter().all(|&i| i < 50));
    }

    #[test]
    fn zipf_is_skewed_and_normalized() {
        let z = Zipf::new(1000, 1.0);
        let total: f64 = (0..1000).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(z.pmf(0) > 5.0 * z.pmf(9), "Zipf head not heavy enough");

        let mut r = Xoshiro256::seeded(8);
        let mut head = 0;
        let n = 20_000;
        for _ in 0..n {
            if z.sample(&mut r) < 10 {
                head += 1;
            }
        }
        let expected: f64 = (0..10).map(|i| z.pmf(i)).sum::<f64>() * n as f64;
        assert!(
            (head as f64 - expected).abs() < 0.1 * expected,
            "head={head} exp={expected}"
        );
    }

    #[test]
    fn zipf_alpha_zero_is_uniform() {
        let z = Zipf::new(4, 0.0);
        for rank in 0..4 {
            assert!((z.pmf(rank) - 0.25).abs() < 1e-12);
        }
    }
}
