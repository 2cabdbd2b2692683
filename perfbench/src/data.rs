//! Generated inputs and the in-process oracle's pure functions.
//!
//! Everything stored in a server and everything a client expects back is a
//! pure function of `(seed, indices)`, so the oracle never asks the system
//! under test what the right answer is.

use fstore_common::{Rng, Timestamp, Value, Xoshiro256};
use fstore_serve::{WireHit, WireVector};

/// The fixed serving clock: every write lands at `NOW`, every read is
/// served at `NOW`, so every age on the wire is exactly zero.
pub const NOW: Timestamp = Timestamp(60_000);
pub const GROUP: &str = "user";

/// SplitMix64 finalizer over three words.
pub fn mix(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(b.rotate_left(21))
        .wrapping_add(c.rotate_left(42))
        .wrapping_add(0x2545_f491_4f6c_dd1d);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub fn entity_name(e: u32) -> String {
    format!("u{e:06}")
}

pub fn feature_names(n: usize) -> Vec<String> {
    (0..n).map(|j| format!("f{j}")).collect()
}

/// The seeded value of feature `j` of entity `e`: floats on even
/// features, integers on odd ones, so both value codecs carry traffic.
pub fn feature_value(seed: u64, e: u32, j: usize) -> Value {
    let h = mix(seed, u64::from(e), j as u64);
    if j.is_multiple_of(2) {
        Value::Float((h >> 11) as f64 / (1u64 << 53) as f64)
    } else {
        Value::Int((h >> 16) as i64)
    }
}

/// Whether `got` is entity `e`'s row of `features` with the values
/// `value_of` names, written at [`NOW`] and served at [`NOW`] (so every age
/// is 0 and nothing is stale). Everything a caller consumes is compared;
/// the publication epoch is store metadata that differs between engine
/// kinds, not payload.
pub fn is_row(
    got: &WireVector,
    e: u32,
    features: &[String],
    value_of: impl Fn(usize) -> Value,
) -> bool {
    got.entity == entity_name(e)
        && got.features == features
        && got.values.len() == features.len()
        && got
            .values
            .iter()
            .enumerate()
            .all(|(j, v)| *v == value_of(j))
        && got.ages_ms.len() == features.len()
        && got.ages_ms.iter().all(|age| *age == Some(0))
        && got.stale.is_empty()
}

/// The run's only error type is a message; this turns any error into one.
pub fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// `n` vectors around `centers` Gaussian clusters.
pub fn clustered(
    rng: &mut Xoshiro256,
    n: usize,
    dim: usize,
    centers: &[Vec<f32>],
) -> Vec<Vec<f32>> {
    (0..n)
        .map(|_| {
            let c = &centers[rng.below(centers.len() as u64) as usize];
            (0..dim)
                .map(|d| c[d] + (rng.normal() * 0.4) as f32)
                .collect()
        })
        .collect()
}

pub fn cluster_centers(rng: &mut Xoshiro256, count: usize, dim: usize) -> Vec<Vec<f32>> {
    (0..count)
        .map(|_| (0..dim).map(|_| (rng.normal() * 2.0) as f32).collect())
        .collect()
}

/// Row `row` of version `version` of a versioned table: cheap to
/// recompute, so the oracle holds no copy of a larger-than-cache table.
pub fn versioned_vector(seed: u64, version: u32, row: u32, dim: usize) -> Vec<f32> {
    let base = (u64::from(version) << 32) | u64::from(row);
    (0..dim)
        .map(|d| (mix(seed, base, d as u64) >> 40) as f32 / (1u32 << 24) as f32 - 0.5)
        .collect()
}

fn l2(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Exact nearest rows by brute force: the oracle's own scan, sharing no
/// code with the index crate. Ties break by row.
pub fn exact_top_k(
    data: &[Vec<f32>],
    query: &[f32],
    k: usize,
    exclude: Option<usize>,
) -> Vec<(usize, f32)> {
    let mut scored: Vec<(usize, f32)> = data
        .iter()
        .enumerate()
        .filter(|(row, _)| Some(*row) != exclude)
        .map(|(row, v)| (row, l2(v, query)))
        .collect();
    scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

/// An exhaustive search answer must name exactly the oracle's rows, in
/// order, at the oracle's distances (up to summation-order rounding).
pub fn same_hits(got: &[WireHit], want: &[(String, f32)]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, (key, distance))| {
            g.key == *key && (g.distance - distance).abs() <= 1e-3 * distance.abs().max(1.0)
        })
}

/// How many of `want` appear among `got` (recall numerator).
pub fn overlap(got: &[WireHit], want: &[(String, f32)]) -> u64 {
    want.iter()
        .filter(|(key, _)| got.iter().any(|g| g.key == *key))
        .count() as u64
}

/// Hits must come back nearest first.
pub fn ascending(hits: &[WireHit]) -> bool {
    hits.windows(2).all(|w| w[0].distance <= w[1].distance)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_inputs_depend_on_the_seed_alone() {
        assert_eq!(feature_value(1, 5, 2), feature_value(1, 5, 2));
        assert_ne!(feature_value(1, 5, 2), feature_value(2, 5, 2));
        assert!(matches!(feature_value(1, 5, 2), Value::Float(_)));
        assert!(matches!(feature_value(1, 5, 3), Value::Int(_)));
        let names = feature_names(2);
        let mut row = WireVector {
            entity: entity_name(5),
            features: names.clone(),
            values: vec![feature_value(1, 5, 0), feature_value(1, 5, 1)],
            ages_ms: vec![Some(0), Some(0)],
            stale: Vec::new(),
            epoch: 9,
        };
        assert!(is_row(&row, 5, &names, |j| feature_value(1, 5, j)));
        assert!(!is_row(&row, 6, &names, |j| feature_value(1, 5, j)));
        assert!(!is_row(&row, 5, &names, |j| feature_value(2, 5, j)));
        row.ages_ms[1] = Some(3);
        assert!(!is_row(&row, 5, &names, |j| feature_value(1, 5, j)));
        assert_eq!(versioned_vector(9, 3, 17, 8), versioned_vector(9, 3, 17, 8));
        assert_ne!(versioned_vector(9, 3, 17, 8), versioned_vector(9, 4, 17, 8));
        assert!(versioned_vector(9, 3, 17, 64)
            .iter()
            .all(|x| (-0.5..0.5).contains(x)));
    }

    #[test]
    fn exact_top_k_orders_excludes_and_compares() {
        let data = vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![3.0, 0.0],
            vec![1.0, 0.0],
        ];
        let top = exact_top_k(&data, &[0.9, 0.0], 3, None);
        assert_eq!(top.iter().map(|h| h.0).collect::<Vec<_>>(), vec![1, 3, 0]);
        let top = exact_top_k(&data, &[1.0, 0.0], 2, Some(1));
        assert_eq!(top.iter().map(|h| h.0).collect::<Vec<_>>(), vec![3, 0]);

        let want = vec![("a".to_string(), 0.25f32), ("b".to_string(), 1.0)];
        let hit = |key: &str, distance: f32| WireHit {
            key: key.to_string(),
            distance,
        };
        assert!(same_hits(&[hit("a", 0.25), hit("b", 1.0)], &want));
        assert!(!same_hits(&[hit("b", 1.0), hit("a", 0.25)], &want));
        assert!(!same_hits(&[hit("a", 0.25)], &want));
        assert!(!same_hits(&[hit("a", 0.5), hit("b", 1.0)], &want));
        assert_eq!(overlap(&[hit("b", 1.0), hit("z", 2.0)], &want), 1);
        assert!(ascending(&[hit("a", 0.25), hit("b", 1.0)]));
        assert!(!ascending(&[hit("b", 1.0), hit("a", 0.25)]));
    }
}
