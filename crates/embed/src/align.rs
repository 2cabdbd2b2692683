//! Embedding version alignment (paper §4).
//!
//! "If an embedding gets updated but a model that uses it does not, the dot
//! product of the embedding with model parameters can lose meaning which
//! leads to incorrect model predictions." A retrained embedding is
//! typically equivalent to the old one only up to rotation/reflection —
//! exactly the degree of freedom a deployed linear head is sensitive to.
//!
//! [`align_to_reference`] removes that freedom: it solves the orthogonal
//! Procrustes problem over the common vocabulary and republishes the new
//! version *in the old version's coordinate system*, so deployed models
//! keep working until they are retrained on their own schedule. Experiment
//! **E13** measures the deployed-accuracy cliff this avoids.

use crate::eig::procrustes;
use crate::quality::{common_keys, table_matrix};
use crate::store::EmbeddingTable;
use fstore_common::{FsError, Result};

/// Report of an alignment: the rotation residual before/after, over the
/// common vocabulary.
#[derive(Debug, Clone, Copy)]
pub struct AlignmentReport {
    /// Mean squared distance between corresponding rows before alignment.
    pub msd_before: f64,
    /// Mean squared distance after applying the fitted rotation.
    pub msd_after: f64,
}

/// Rotate `new` into `reference`'s coordinate system (orthogonal Procrustes
/// over their common keys). Both tables must share a dimension; entities
/// present only in `new` are rotated too (the map is global).
pub fn align_to_reference(
    new: &EmbeddingTable,
    reference: &EmbeddingTable,
) -> Result<(EmbeddingTable, AlignmentReport)> {
    if new.dim() != reference.dim() {
        return Err(FsError::Embedding(format!(
            "cannot align dim {} onto dim {}",
            new.dim(),
            reference.dim()
        )));
    }
    let keys = common_keys(reference, new);
    if keys.len() < new.dim() {
        return Err(FsError::Embedding(format!(
            "need at least dim={} common entities to fit a rotation, have {}",
            new.dim(),
            keys.len()
        )));
    }
    let a = table_matrix(new, &keys)?; // source
    let b = table_matrix(reference, &keys)?; // target
    let w = procrustes(&a, &b)?; // minimizes ‖A·W − B‖

    let msd = |x: &fstore_models::Matrix| -> f64 {
        let mut total = 0.0;
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                let d = x.get(r, c) - b.get(r, c);
                total += d * d;
            }
        }
        total / x.rows() as f64
    };
    let msd_before = msd(&a);
    let aligned_common = a.matmul(&w)?;
    let msd_after = msd(&aligned_common);

    // Apply the rotation to every row of `new`.
    let dim = new.dim();
    let mut out = EmbeddingTable::new(dim)?;
    for key in new.keys() {
        let v = new.get_f64(key).expect("key enumerated from table");
        let mut rotated = vec![0.0f32; dim];
        for (c, r_out) in rotated.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (r, &x) in v.iter().enumerate() {
                acc += x * w.get(r, c);
            }
            *r_out = acc as f32;
        }
        out.insert(key.to_string(), rotated)?;
    }
    Ok((
        out,
        AlignmentReport {
            msd_before,
            msd_after,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fstore_common::{Rng, Xoshiro256};

    fn random_table(n: usize, d: usize, seed: u64) -> EmbeddingTable {
        let mut rng = Xoshiro256::seeded(seed);
        let mut t = EmbeddingTable::new(d).unwrap();
        for i in 0..n {
            t.insert(
                format!("e{i}"),
                (0..d).map(|_| rng.normal() as f32).collect::<Vec<f32>>(),
            )
            .unwrap();
        }
        t
    }

    /// Rotate + slightly perturb a table (a "retrain" surrogate).
    fn rotated_noisy_copy(t: &EmbeddingTable, noise: f32, seed: u64) -> EmbeddingTable {
        let d = t.dim();
        let mut rng = Xoshiro256::seeded(seed);
        // random rotation via Gram-Schmidt
        let mut cols: Vec<Vec<f64>> = (0..d)
            .map(|_| (0..d).map(|_| rng.normal()).collect())
            .collect();
        for i in 0..d {
            for j in 0..i {
                let p: f64 = cols[i].iter().zip(&cols[j]).map(|(a, b)| a * b).sum();
                let cj = cols[j].clone();
                for (x, y) in cols[i].iter_mut().zip(cj) {
                    *x -= p * y;
                }
            }
            let n: f64 = cols[i].iter().map(|x| x * x).sum::<f64>().sqrt();
            for x in &mut cols[i] {
                *x /= n;
            }
        }
        let mut out = EmbeddingTable::new(d).unwrap();
        for k in t.keys() {
            let v = t.get_f64(k).unwrap();
            let rotated: Vec<f32> = (0..d)
                .map(|c| {
                    let mut acc: f64 = v.iter().zip(&cols[c]).map(|(a, b)| a * b).sum();
                    acc += f64::from(noise) * rng.normal();
                    acc as f32
                })
                .collect();
            out.insert(k.to_string(), rotated).unwrap();
        }
        out
    }

    #[test]
    fn alignment_undoes_a_pure_rotation() {
        let reference = random_table(80, 6, 1);
        let new = rotated_noisy_copy(&reference, 0.0, 2);
        let (aligned, report) = align_to_reference(&new, &reference).unwrap();
        assert!(
            report.msd_before > 0.5,
            "rotation moved the rows: {}",
            report.msd_before
        );
        assert!(
            report.msd_after < 1e-9,
            "alignment must undo it: {}",
            report.msd_after
        );
        for k in reference.keys() {
            let a = aligned.get_f64(k).unwrap();
            let b = reference.get_f64(k).unwrap();
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn alignment_tolerates_noise() {
        let reference = random_table(100, 5, 3);
        let new = rotated_noisy_copy(&reference, 0.1, 4);
        let (_, report) = align_to_reference(&new, &reference).unwrap();
        assert!(report.msd_after < report.msd_before / 5.0, "{report:?}");
        // residual is on the order of the injected noise
        assert!(report.msd_after < 0.1 * 5.0);
    }

    #[test]
    fn new_only_entities_are_rotated_too() {
        let reference = random_table(50, 4, 5);
        let mut new = rotated_noisy_copy(&reference, 0.0, 6);
        new.insert("brand_new", vec![1.0, 0.0, 0.0, 0.0]).unwrap();
        let (aligned, _) = align_to_reference(&new, &reference).unwrap();
        assert!(aligned.contains("brand_new"));
        assert_eq!(aligned.len(), 51);
    }

    #[test]
    fn validation() {
        let a = random_table(50, 4, 7);
        let b = random_table(50, 5, 8);
        assert!(align_to_reference(&a, &b).is_err(), "dim mismatch");
        let tiny = random_table(2, 4, 9);
        assert!(
            align_to_reference(&tiny, &tiny).is_err(),
            "too few common keys"
        );
    }

    #[test]
    fn deployed_linear_head_survives_alignment() {
        // The §4 scenario, end to end: train a head on v1, swap in v2.
        use fstore_models::{Classifier, SoftmaxRegression, TrainConfig};
        let mut rng = Xoshiro256::seeded(10);
        let d = 8;
        // v1: two separable classes along a random direction
        let mut v1 = EmbeddingTable::new(d).unwrap();
        let mut labels = Vec::new();
        for i in 0..200 {
            let y = i % 2;
            let mut v: Vec<f32> = (0..d).map(|_| rng.normal() as f32 * 0.3).collect();
            v[0] += if y == 0 { -1.5 } else { 1.5 };
            v1.insert(format!("e{i}"), v).unwrap();
            labels.push(y);
        }
        let feats = |t: &EmbeddingTable| -> Vec<Vec<f64>> {
            (0..200)
                .map(|i| t.get_f64(&format!("e{i}")).unwrap())
                .collect()
        };
        let head =
            SoftmaxRegression::train(&feats(&v1), &labels, 2, &TrainConfig::default()).unwrap();
        assert!(head.accuracy(&feats(&v1), &labels).unwrap() > 0.95);

        // v2 = retrain surrogate: a 90° rotation in the (0,1) plane moves
        // the entire class signal onto a dimension the deployed head
        // ignores, plus small noise everywhere.
        let mut v2 = EmbeddingTable::new(d).unwrap();
        for k in v1.keys() {
            let v = v1.get_f64(k).unwrap();
            let mut r: Vec<f32> = v
                .iter()
                .map(|&x| (x + 0.05 * rng.normal()) as f32)
                .collect();
            let (x0, x1) = (r[0], r[1]);
            r[0] = -x1;
            r[1] = x0;
            v2.insert(k.to_string(), r).unwrap();
        }
        let raw_acc = head.accuracy(&feats(&v2), &labels).unwrap();
        let (aligned, _) = align_to_reference(&v2, &v1).unwrap();
        let aligned_acc = head.accuracy(&feats(&aligned), &labels).unwrap();
        assert!(
            raw_acc < 0.75,
            "the stale head must break on the raw update: {raw_acc}"
        );
        assert!(
            aligned_acc > 0.95,
            "alignment must rescue the deployed head (raw {raw_acc}, aligned {aligned_acc})"
        );
    }
}
