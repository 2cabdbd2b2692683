//! One fixed log-bucket histogram for every latency the benchmark reports.
//!
//! Values are nanoseconds. Buckets below 64 ns are exact; above that each
//! power-of-two octave is cut into 32 equal buckets, so a bucket is never
//! wider than 1/32 of its lower edge. The layout is fixed, which makes two
//! histograms mergeable by adding counts: every client thread and every
//! segment records into its own and the report adds them up.

/// Sub-buckets per octave; the relative bucket width is `1 / SUB`.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Largest exponent tracked: values at or above 2^42 ns (73 min) clamp
/// into the last bucket.
const MAX_EXP: u32 = 41;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 1) as usize + 1) * SUB as usize;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < 2 * SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    if exp > MAX_EXP {
        return BUCKETS - 1;
    }
    let sub = (v >> (exp - SUB_BITS)) & (SUB - 1);
    ((exp - SUB_BITS + 1) as u64 * SUB + sub) as usize
}

/// `[lower, upper)` of a bucket, in nanoseconds.
fn bounds_of(bucket: usize) -> (u64, u64) {
    let b = bucket as u64;
    if b < 2 * SUB {
        return (b, b + 1);
    }
    let exp = (b / SUB) as u32 + SUB_BITS - 1;
    let width = 1u64 << (exp - SUB_BITS);
    let lower = (1u64 << exp) + (b % SUB) * width;
    (lower, lower + width)
}

impl Hist {
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    pub fn record(&mut self, nanos: u64) {
        self.counts[bucket_of(nanos)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (nearest rank) in nanoseconds, `None` when empty.
    /// The answer is placed inside its bucket in proportion to the rank's
    /// position among the bucket's samples, so it never leaves the bucket
    /// the exact answer falls in and two runs do not read identically
    /// merely because they share a bucket.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (bucket, &n) in self.counts.iter().enumerate() {
            if n > 0 && seen + n >= rank {
                let (lower, upper) = bounds_of(bucket);
                let inside = (rank - seen) as f64 - 0.5;
                return Some(lower as f64 + (upper - lower) as f64 * inside / n as f64);
            }
            seen += n;
        }
        unreachable!("rank {rank} lies within total {}", self.total)
    }

    /// Quantile in microseconds; 0 when empty.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile(q).map_or(0.0, |ns| ns / 1e3)
    }
}

/// Median of a list of per-segment values (mean of the middle two when
/// even); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic skewed samples spanning 10 ns .. ~100 ms.
    fn samples(n: usize, salt: u64) -> Vec<u64> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ salt;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let octave = x % 24;
                10 + ((x >> 8) % (1 << octave).max(1)) + (1 << octave)
            })
            .collect()
    }

    fn exact(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn buckets_tile_the_range_and_stay_narrow() {
        let mut expected_lower = 0u64;
        for b in 0..BUCKETS {
            let (lower, upper) = bounds_of(b);
            assert_eq!(lower, expected_lower, "bucket {b} leaves a gap");
            assert_eq!(bucket_of(lower), b);
            assert_eq!(bucket_of(upper - 1), b);
            if lower >= 2 * SUB {
                assert!((upper - lower) * SUB <= lower, "bucket {b} too wide");
            }
            expected_lower = upper;
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn merging_equals_recording_into_one() {
        let (a, b) = (samples(5_000, 1), samples(3_000, 2));
        let (mut ha, mut hb, mut all) = (Hist::new(), Hist::new(), Hist::new());
        for &v in &a {
            ha.record(v);
            all.record(v);
        }
        for &v in &b {
            hb.record(v);
            all.record(v);
        }
        ha.merge(&hb);
        assert_eq!(ha.counts, all.counts);
        assert_eq!(ha.count(), 8_000);
        for q in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(ha.quantile(q), all.quantile(q));
        }
    }

    #[test]
    fn quantiles_sit_in_the_exact_answers_bucket() {
        let mut values = samples(20_000, 3);
        let mut h = Hist::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let want = exact(&values, q);
            let got = h.quantile(q).unwrap();
            let (lower, upper) = bounds_of(bucket_of(want));
            assert!(
                got >= lower as f64 && got <= upper as f64,
                "q={q}: exact {want} in [{lower},{upper}) but histogram says {got}"
            );
        }
    }

    #[test]
    fn empty_and_median() {
        assert_eq!(Hist::new().quantile(0.5), None);
        assert_eq!(Hist::new().quantile_us(0.5), 0.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
