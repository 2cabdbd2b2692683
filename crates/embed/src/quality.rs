//! Embedding quality metrics (paper §3.1.2):
//!
//! * **k-NN overlap** between two embedding versions — the neighborhood
//!   stability measure of Wendlandt et al. / Hellrich & Hahn;
//! * **eigenspace overlap score** — May et al.'s predictor of the
//!   downstream performance of compressed embeddings;
//! * **semantic displacement** — mean cosine shift of aligned entities
//!   after an orthogonal Procrustes alignment (rotation-invariant change).
//!
//! Downstream instability (Leszczynski et al.) is the fourth metric of the
//! family; it lives in `fstore-models::metrics::prediction_flips` because it
//! is computed on model predictions, not embeddings.

use crate::eig::{procrustes, thin_svd};
use crate::store::EmbeddingTable;
use fstore_common::hash::FxHashSet;
use fstore_common::{FsError, Result};
use fstore_models::Matrix;

/// Entities present in both tables, sorted (the aligned evaluation set).
pub(crate) fn common_keys(a: &EmbeddingTable, b: &EmbeddingTable) -> Vec<String> {
    a.keys()
        .into_iter()
        .filter(|k| b.contains(k))
        .map(str::to_string)
        .collect()
}

/// Mean k-NN overlap between versions over `keys` (or all common keys):
/// for each entity, `|NN_a(e, k) ∩ NN_b(e, k)| / k`, averaged. Neighbor
/// candidates are restricted to the common key set so a vocabulary change
/// doesn't masquerade as neighborhood churn.
pub fn knn_overlap(
    a: &EmbeddingTable,
    b: &EmbeddingTable,
    k: usize,
    keys: Option<&[String]>,
) -> Result<f64> {
    if k == 0 {
        return Err(FsError::InvalidArgument("k must be positive".into()));
    }
    let common = common_keys(a, b);
    if common.len() < k + 1 {
        return Err(FsError::Embedding(format!(
            "need at least k+1={} common entities, have {}",
            k + 1,
            common.len()
        )));
    }
    let eval_keys: Vec<&str> = match keys {
        Some(ks) => ks.iter().map(String::as_str).collect(),
        None => common.iter().map(String::as_str).collect(),
    };
    let common_set: FxHashSet<&str> = common.iter().map(String::as_str).collect();

    let mut total = 0.0;
    let mut n = 0usize;
    for key in eval_keys {
        if !common_set.contains(key) {
            continue;
        }
        let nn = |t: &EmbeddingTable| -> Result<FxHashSet<String>> {
            // neighbors within the common vocabulary only
            let mut v: Vec<(String, f64)> = t
                .nearest(key, common.len())?
                .into_iter()
                .filter(|(name, _)| common_set.contains(name.as_str()))
                .collect();
            v.truncate(k);
            Ok(v.into_iter().map(|(name, _)| name).collect())
        };
        let na = nn(a)?;
        let nb = nn(b)?;
        total += na.intersection(&nb).count() as f64 / k as f64;
        n += 1;
    }
    if n == 0 {
        return Err(FsError::Embedding(
            "no evaluation keys present in both tables".into(),
        ));
    }
    Ok(total / n as f64)
}

/// Build the aligned embedding matrix of `keys` from `t` (rows in key order).
pub(crate) fn table_matrix(t: &EmbeddingTable, keys: &[String]) -> Result<Matrix> {
    let rows: Vec<Vec<f64>> = keys
        .iter()
        .map(|k| {
            t.get_f64(k)
                .ok_or_else(|| FsError::not_found("embedding", k.clone()))
        })
        .collect::<Result<_>>()?;
    Matrix::from_rows(rows)
}

/// Eigenspace overlap score (May et al.): with `U`, `Ũ` the left singular
/// bases of the aligned matrices, `score = ‖Uᵀ Ũ‖_F² / max(d, d̃)` ∈ [0, 1].
/// 1 means the compressed embedding spans the same space.
pub fn eigenspace_overlap(a: &EmbeddingTable, b: &EmbeddingTable) -> Result<f64> {
    let keys = common_keys(a, b);
    if keys.len() < 2 {
        return Err(FsError::Embedding("need at least 2 common entities".into()));
    }
    let ma = table_matrix(a, &keys)?;
    let mb = table_matrix(b, &keys)?;
    let (ua, _, _) = thin_svd(&ma, ma.cols())?;
    let (ub, _, _) = thin_svd(&mb, mb.cols())?;
    let cross = ua.transpose().matmul(&ub)?;
    let score = cross.frobenius().powi(2) / ua.cols().max(ub.cols()) as f64;
    Ok(score.clamp(0.0, 1.0))
}

/// Semantic displacement: align `b` onto `a` with an orthogonal rotation
/// (Procrustes over the common keys), then return the mean `1 − cos(a_e,
/// b_e·W)`. 0 = identical up to rotation; requires equal dimensions.
pub fn semantic_displacement(a: &EmbeddingTable, b: &EmbeddingTable) -> Result<f64> {
    if a.dim() != b.dim() {
        return Err(FsError::Embedding(format!(
            "displacement needs equal dims ({} vs {})",
            a.dim(),
            b.dim()
        )));
    }
    let keys = common_keys(a, b);
    if keys.len() < 2 {
        return Err(FsError::Embedding("need at least 2 common entities".into()));
    }
    let ma = table_matrix(a, &keys)?;
    let mb = table_matrix(b, &keys)?;
    let w = procrustes(&mb, &ma)?; // rotate b toward a
    let aligned = mb.matmul(&w)?;
    let mut total = 0.0;
    for r in 0..keys.len() {
        total += 1.0 - fstore_models::linalg::cosine(ma.row(r), aligned.row(r));
    }
    Ok(total / keys.len() as f64)
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

    fn rotate_table(t: &EmbeddingTable, seed: u64) -> EmbeddingTable {
        // random rotation via Gram-Schmidt of a random matrix
        let d = t.dim();
        let mut rng = Xoshiro256::seeded(seed);
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
                .map(|c| v.iter().zip(&cols[c]).map(|(a, b)| a * b).sum::<f64>() as f32)
                .collect();
            out.insert(k.to_string(), rotated).unwrap();
        }
        out
    }

    #[test]
    fn knn_overlap_identity_is_one() {
        let t = random_table(50, 8, 1);
        assert!((knn_overlap(&t, &t, 5, None).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn knn_overlap_random_tables_is_low() {
        let a = random_table(100, 8, 2);
        let b = random_table(100, 8, 3);
        let o = knn_overlap(&a, &b, 5, None).unwrap();
        assert!(o < 0.3, "independent tables overlap {o}");
    }

    #[test]
    fn knn_overlap_is_rotation_invariant() {
        let a = random_table(60, 6, 4);
        let b = rotate_table(&a, 5);
        let o = knn_overlap(&a, &b, 5, None).unwrap();
        assert!(o > 0.99, "cosine neighborhoods survive rotation: {o}");
    }

    #[test]
    fn knn_overlap_validates() {
        let a = random_table(10, 4, 6);
        assert!(knn_overlap(&a, &a, 0, None).is_err());
        assert!(knn_overlap(&a, &a, 10, None).is_err(), "k+1 > n");
        let disjoint = random_table(10, 4, 7);
        // keys e0.. overlap actually; build a disjoint one
        let mut d2 = EmbeddingTable::new(4).unwrap();
        for k in disjoint.keys() {
            d2.insert(format!("x_{k}"), disjoint.get(k).unwrap().to_vec())
                .unwrap();
        }
        assert!(knn_overlap(&a, &d2, 2, None).is_err());
        // subset keys evaluated only
        let keys = vec!["e0".to_string(), "e1".to_string()];
        let o = knn_overlap(&a, &a, 3, Some(&keys)).unwrap();
        assert!((o - 1.0).abs() < 1e-12);
    }

    #[test]
    fn eigenspace_overlap_identity_and_rotation() {
        let a = random_table(80, 6, 8);
        assert!((eigenspace_overlap(&a, &a).unwrap() - 1.0).abs() < 1e-6);
        let b = rotate_table(&a, 9);
        assert!((eigenspace_overlap(&a, &b).unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn eigenspace_overlap_detects_subspace_loss() {
        // b keeps only 3 of a's 6 dimensions (projection)
        let a = random_table(80, 6, 10);
        let mut b = EmbeddingTable::new(6).unwrap();
        for k in a.keys() {
            let mut v = a.get(k).unwrap().to_vec();
            for x in v.iter_mut().skip(3) {
                *x = 0.0;
            }
            b.insert(k.to_string(), v).unwrap();
        }
        let o = eigenspace_overlap(&a, &b).unwrap();
        assert!(o < 0.7, "half the space is gone: {o}");
        assert!(o > 0.3, "but half remains: {o}");
    }

    #[test]
    fn eigenspace_overlap_with_independent_is_partial() {
        let a = random_table(200, 4, 11);
        let b = random_table(200, 4, 12);
        let o = eigenspace_overlap(&a, &b).unwrap();
        // random d-dim subspaces of R^n overlap ≈ d/n, tiny here
        assert!(o < 0.2, "independent overlap {o}");
    }

    #[test]
    fn displacement_zero_under_rotation() {
        let a = random_table(60, 5, 13);
        let b = rotate_table(&a, 14);
        let d = semantic_displacement(&a, &b).unwrap();
        assert!(d < 1e-6, "rotation must be aligned away: {d}");
    }

    #[test]
    fn displacement_detects_real_change() {
        let a = random_table(60, 5, 15);
        let b = random_table(60, 5, 16);
        let d = semantic_displacement(&a, &b).unwrap();
        assert!(d > 0.5, "independent tables displacement {d}");
        // dims must match
        let c = random_table(60, 4, 17);
        assert!(semantic_displacement(&a, &c).is_err());
    }

    #[test]
    fn displacement_of_noisy_copy_is_small_but_positive() {
        let a = random_table(60, 5, 18);
        let mut rng = Xoshiro256::seeded(19);
        let mut b = EmbeddingTable::new(5).unwrap();
        for k in a.keys() {
            let v: Vec<f32> = a
                .get(k)
                .unwrap()
                .iter()
                .map(|&x| x + rng.normal() as f32 * 0.05)
                .collect();
            b.insert(k.to_string(), v).unwrap();
        }
        let d = semantic_displacement(&a, &b).unwrap();
        assert!(d > 0.0 && d < 0.1, "small noise displacement {d}");
    }

    #[test]
    fn common_keys_sorted_intersection() {
        let mut a = EmbeddingTable::new(2).unwrap();
        let mut b = EmbeddingTable::new(2).unwrap();
        for k in ["z", "a", "m"] {
            a.insert(k, vec![1.0, 0.0]).unwrap();
        }
        for k in ["m", "a", "q"] {
            b.insert(k, vec![1.0, 0.0]).unwrap();
        }
        assert_eq!(common_keys(&a, &b), vec!["a".to_string(), "m".to_string()]);
    }
}
