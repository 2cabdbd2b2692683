//! Dense symmetric eigendecomposition (cyclic Jacobi) and small SVD — the
//! kernels behind PCA, truncated-SVD embeddings, the eigenspace overlap
//! score and Procrustes alignment. Dimensions here are embedding dims
//! (≤ a few hundred), where Jacobi is simple, accurate and fast enough.

use fstore_common::{FsError, Result};
use fstore_models::Matrix;

/// Eigendecomposition of a symmetric matrix: returns `(eigenvalues,
/// eigenvectors)` sorted by eigenvalue descending; eigenvectors are the
/// *columns* of the returned matrix.
pub(crate) fn symmetric_eigen(a: &Matrix) -> Result<(Vec<f64>, Matrix)> {
    let n = a.rows();
    if n != a.cols() {
        return Err(FsError::Embedding("eigen of non-square matrix".into()));
    }
    // verify symmetry (cheap, catches caller bugs early)
    for i in 0..n {
        for j in i + 1..n {
            if (a.get(i, j) - a.get(j, i)).abs() > 1e-8 * (1.0 + a.get(i, j).abs()) {
                return Err(FsError::Embedding(format!(
                    "matrix is not symmetric at ({i},{j})"
                )));
            }
        }
    }

    let mut m = a.clone();
    let mut v = Matrix::zeros(n, n);
    for i in 0..n {
        v.set(i, i, 1.0);
    }

    for _sweep in 0..100 {
        let mut off = 0.0;
        for i in 0..n {
            for j in i + 1..n {
                off += m.get(i, j).powi(2);
            }
        }
        if off.sqrt() < 1e-12 {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = m.get(p, q);
                if apq.abs() < 1e-15 {
                    continue;
                }
                let app = m.get(p, p);
                let aqq = m.get(q, q);
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // rotate rows/cols p,q of m
                for k in 0..n {
                    let mkp = m.get(k, p);
                    let mkq = m.get(k, q);
                    m.set(k, p, c * mkp - s * mkq);
                    m.set(k, q, s * mkp + c * mkq);
                }
                for k in 0..n {
                    let mpk = m.get(p, k);
                    let mqk = m.get(q, k);
                    m.set(p, k, c * mpk - s * mqk);
                    m.set(q, k, s * mpk + c * mqk);
                }
                // accumulate rotations
                for k in 0..n {
                    let vkp = v.get(k, p);
                    let vkq = v.get(k, q);
                    v.set(k, p, c * vkp - s * vkq);
                    v.set(k, q, s * vkp + c * vkq);
                }
            }
        }
    }

    let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (m.get(i, i), i)).collect();
    pairs.sort_by(|a, b| b.0.total_cmp(&a.0));
    let eigenvalues: Vec<f64> = pairs.iter().map(|(l, _)| *l).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (new_col, &(_, old_col)) in pairs.iter().enumerate() {
        for r in 0..n {
            vectors.set(r, new_col, v.get(r, old_col));
        }
    }
    Ok((eigenvalues, vectors))
}

/// Thin SVD of an `n×d` matrix with `n >= d`: returns `(U_k, Σ_k, V_k)` for
/// the top `k` singular triplets, computed via the `d×d` Gram matrix
/// (adequate for embedding dims; singular values below `1e-10` are dropped).
/// `U_k` is `n×k'`, `Σ_k` has `k'` entries, `V_k` is `d×k'` with `k' <= k`.
pub(crate) fn thin_svd(a: &Matrix, k: usize) -> Result<(Matrix, Vec<f64>, Matrix)> {
    let (n, d) = (a.rows(), a.cols());
    if n == 0 || d == 0 {
        return Err(FsError::Embedding("SVD of empty matrix".into()));
    }
    let k = k.min(d);
    // Gram = AᵀA (d×d)
    let at = a.transpose();
    let gram = at.matmul(a)?;
    let (mut evals, evecs) = symmetric_eigen(&gram)?;
    // numerical floor
    for l in &mut evals {
        *l = l.max(0.0);
    }
    let mut kept = 0usize;
    let mut sigma = Vec::new();
    for &l in evals.iter().take(k) {
        let s = l.sqrt();
        if s <= 1e-10 {
            break;
        }
        sigma.push(s);
        kept += 1;
    }
    if kept == 0 {
        return Err(FsError::Embedding("matrix is numerically zero".into()));
    }
    let mut v_k = Matrix::zeros(d, kept);
    for c in 0..kept {
        for r in 0..d {
            v_k.set(r, c, evecs.get(r, c));
        }
    }
    // U = A V Σ^{-1}
    let av = a.matmul(&v_k)?;
    let mut u_k = Matrix::zeros(n, kept);
    for c in 0..kept {
        for r in 0..n {
            u_k.set(r, c, av.get(r, c) / sigma[c]);
        }
    }
    Ok((u_k, sigma, v_k))
}

/// Orthogonal Procrustes: the rotation `W` (d×d orthogonal) minimizing
/// `‖A·W − B‖_F`, via `W = U Vᵀ` where `AᵀB = U Σ Vᵀ`.
pub(crate) fn procrustes(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.rows() != b.rows() || a.cols() != b.cols() {
        return Err(FsError::Embedding(
            "Procrustes needs same-shape matrices".into(),
        ));
    }
    let m = a.transpose().matmul(b)?; // d×d
    let (u, _sigma, v) = thin_svd_square(&m)?;
    u.matmul(&v.transpose())
}

/// Full SVD of a small square matrix via two eigendecompositions, keeping
/// all directions (including numerically tiny ones) so the result is a
/// proper rotation basis.
fn thin_svd_square(m: &Matrix) -> Result<(Matrix, Vec<f64>, Matrix)> {
    let d = m.rows();
    // V from MᵀM, then build U column-wise: u_i = M v_i / σ_i, falling back
    // to Gram-Schmidt completion for null directions.
    let gram = m.transpose().matmul(m)?;
    let (evals, v) = symmetric_eigen(&gram)?;
    let sigma: Vec<f64> = evals.iter().map(|l| l.max(0.0).sqrt()).collect();
    let mut u = Matrix::zeros(d, d);
    let mv = m.matmul(&v)?;
    let mut basis: Vec<Vec<f64>> = Vec::new();
    for c in 0..d {
        let mut col: Vec<f64> = (0..d).map(|r| mv.get(r, c)).collect();
        if sigma[c] > 1e-10 {
            for x in &mut col {
                *x /= sigma[c];
            }
        } else {
            // complete with any unit vector orthogonal to current basis
            col = orthogonal_complement(&basis, d);
        }
        // re-orthogonalize against previous columns (Gram–Schmidt pass)
        for prev in &basis {
            let proj: f64 = col.iter().zip(prev).map(|(a, b)| a * b).sum();
            for (x, p) in col.iter_mut().zip(prev) {
                *x -= proj * p;
            }
        }
        let n: f64 = col.iter().map(|x| x * x).sum::<f64>().sqrt();
        if n > 1e-12 {
            for x in &mut col {
                *x /= n;
            }
        }
        for (r, &x) in col.iter().enumerate() {
            u.set(r, c, x);
        }
        basis.push(col);
    }
    Ok((u, sigma, v))
}

fn orthogonal_complement(basis: &[Vec<f64>], d: usize) -> Vec<f64> {
    for axis in 0..d {
        let mut cand = vec![0.0; d];
        cand[axis] = 1.0;
        for prev in basis {
            let proj: f64 = cand.iter().zip(prev).map(|(a, b)| a * b).sum();
            for (x, p) in cand.iter_mut().zip(prev) {
                *x -= proj * p;
            }
        }
        let n: f64 = cand.iter().map(|x| x * x).sum::<f64>().sqrt();
        if n > 1e-6 {
            for x in &mut cand {
                *x /= n;
            }
            return cand;
        }
    }
    let mut e = vec![0.0; d];
    e[0] = 1.0;
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn eigen_of_diagonal() {
        let m = Matrix::from_rows(vec![vec![3.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let (vals, vecs) = symmetric_eigen(&m).unwrap();
        assert!(approx(vals[0], 3.0, 1e-10) && approx(vals[1], 1.0, 1e-10));
        assert!(approx(vecs.get(0, 0).abs(), 1.0, 1e-10));
    }

    #[test]
    fn eigen_known_2x2() {
        // [[2,1],[1,2]] → eigenvalues 3 and 1
        let m = Matrix::from_rows(vec![vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let (vals, vecs) = symmetric_eigen(&m).unwrap();
        assert!(approx(vals[0], 3.0, 1e-10));
        assert!(approx(vals[1], 1.0, 1e-10));
        // eigenvector for 3 is (1,1)/√2 up to sign
        let (x, y) = (vecs.get(0, 0), vecs.get(1, 0));
        assert!(approx((x / y).abs(), 1.0, 1e-8));
    }

    #[test]
    fn eigen_reconstructs_matrix() {
        use fstore_common::{Rng, Xoshiro256};
        let mut rng = Xoshiro256::seeded(3);
        let d = 8;
        // random symmetric
        let mut m = Matrix::zeros(d, d);
        for i in 0..d {
            for j in i..d {
                let x = rng.normal();
                m.set(i, j, x);
                m.set(j, i, x);
            }
        }
        let (vals, v) = symmetric_eigen(&m).unwrap();
        // reconstruct V Λ Vᵀ
        let mut lam = Matrix::zeros(d, d);
        for i in 0..d {
            lam.set(i, i, vals[i]);
        }
        let rec = v.matmul(&lam).unwrap().matmul(&v.transpose()).unwrap();
        for i in 0..d {
            for j in 0..d {
                assert!(approx(rec.get(i, j), m.get(i, j), 1e-8), "({i},{j})");
            }
        }
        // orthonormal columns
        let vtv = v.transpose().matmul(&v).unwrap();
        for i in 0..d {
            for j in 0..d {
                let want = f64::from(u8::from(i == j));
                assert!(approx(vtv.get(i, j), want, 1e-9));
            }
        }
    }

    #[test]
    fn eigen_rejects_bad_input() {
        assert!(symmetric_eigen(&Matrix::zeros(2, 3)).is_err());
        let m = Matrix::from_rows(vec![vec![1.0, 2.0], vec![0.0, 1.0]]).unwrap();
        assert!(symmetric_eigen(&m).is_err());
    }

    #[test]
    fn svd_reconstructs() {
        let a = Matrix::from_rows(vec![
            vec![1.0, 0.0],
            vec![0.0, 2.0],
            vec![1.0, 1.0],
            vec![3.0, -1.0],
        ])
        .unwrap();
        let (u, s, v) = thin_svd(&a, 2).unwrap();
        assert_eq!(s.len(), 2);
        assert!(s[0] >= s[1]);
        // A ≈ U Σ Vᵀ
        let mut us = Matrix::zeros(u.rows(), s.len());
        for c in 0..s.len() {
            for r in 0..u.rows() {
                us.set(r, c, u.get(r, c) * s[c]);
            }
        }
        let rec = us.matmul(&v.transpose()).unwrap();
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                assert!(approx(rec.get(i, j), a.get(i, j), 1e-8));
            }
        }
        // U has orthonormal columns
        let utu = u.transpose().matmul(&u).unwrap();
        assert!(approx(utu.get(0, 0), 1.0, 1e-9));
        assert!(approx(utu.get(0, 1), 0.0, 1e-9));
    }

    #[test]
    fn svd_truncation_keeps_top_energy() {
        let a = Matrix::from_rows(vec![vec![10.0, 0.0], vec![0.0, 0.1], vec![10.0, 0.0]]).unwrap();
        let (_, s, _) = thin_svd(&a, 1).unwrap();
        assert_eq!(s.len(), 1);
        assert!(s[0] > 10.0, "must keep the dominant direction");
    }

    #[test]
    fn svd_rejects_zero() {
        assert!(thin_svd(&Matrix::zeros(3, 2), 2).is_err());
    }

    #[test]
    fn procrustes_recovers_rotation() {
        use fstore_common::Xoshiro256;
        let mut rng = Xoshiro256::seeded(4);
        let a = Matrix::randn(50, 4, 1.0, &mut rng);
        // known rotation: permute + sign flip (orthogonal)
        let w_true = Matrix::from_rows(vec![
            vec![0.0, 1.0, 0.0, 0.0],
            vec![-1.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 1.0],
            vec![0.0, 0.0, 1.0, 0.0],
        ])
        .unwrap();
        let b = a.matmul(&w_true).unwrap();
        let w = procrustes(&a, &b).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                assert!(approx(w.get(i, j), w_true.get(i, j), 1e-6), "({i},{j})");
            }
        }
        // and W is orthogonal
        let wtw = w.transpose().matmul(&w).unwrap();
        for i in 0..4 {
            assert!(approx(wtw.get(i, i), 1.0, 1e-8));
        }
        assert!(procrustes(&a, &Matrix::zeros(3, 4)).is_err());
    }
}
