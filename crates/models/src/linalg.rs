//! Minimal dense linear algebra: row-major matrices and the handful of
//! kernels the trainers and the embedding crate need (mat-vec, gram
//! products, power iteration is built on these in `fstore-embed`).

use fstore_common::{FsError, Result, Rng};

/// Row-major dense matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    pub fn from_rows(rows_data: Vec<Vec<f64>>) -> Result<Self> {
        let rows = rows_data.len();
        let cols = rows_data.first().map_or(0, Vec::len);
        if rows_data.iter().any(|r| r.len() != cols) {
            return Err(FsError::Model("ragged rows in Matrix::from_rows".into()));
        }
        Ok(Matrix {
            rows,
            cols,
            data: rows_data.into_iter().flatten().collect(),
        })
    }

    /// Gaussian init scaled by `scale` — deterministic given the RNG state.
    pub fn randn<R: Rng>(rows: usize, cols: usize, scale: f64, rng: &mut R) -> Self {
        let data = (0..rows * cols).map(|_| rng.normal() * scale).collect();
        Matrix { rows, cols, data }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    #[inline]
    pub(crate) fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self · x` (x has len = cols).
    pub(crate) fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(FsError::Model(format!(
                "matvec shape mismatch: {}x{} · {}",
                self.rows,
                self.cols,
                x.len()
            )));
        }
        Ok((0..self.rows).map(|r| dot(self.row(r), x)).collect())
    }

    /// `selfᵀ · x` (x has len = rows).
    pub(crate) fn matvec_t(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.rows {
            return Err(FsError::Model("matvec_t shape mismatch".into()));
        }
        let mut out = vec![0.0; self.cols];
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            for (o, &m) in out.iter_mut().zip(self.row(r)) {
                *o += xr * m;
            }
        }
        Ok(out)
    }

    /// `self · other`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(FsError::Model(format!(
                "matmul shape mismatch: {}x{} · {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(r, k);
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = out.row_mut(r);
                for (o, &b) in out_row.iter_mut().zip(orow) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }
}

/// Dense dot product.
#[inline]
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `y += alpha * x`.
#[inline]
pub(crate) fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Euclidean norm.
#[inline]
pub(crate) fn norm(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Cosine similarity (0 when either vector is zero).
pub fn cosine(a: &[f64], b: &[f64]) -> f64 {
    let (na, nb) = (norm(a), norm(b));
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot(a, b) / (na * nb)
    }
}

/// Numerically stable softmax.
pub(crate) fn softmax(logits: &[f64]) -> Vec<f64> {
    let m = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|&x| (x - m).exp()).collect();
    let z: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / z).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fstore_common::Xoshiro256;

    #[test]
    fn from_rows_and_access() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!((m.rows(), m.cols()), (2, 2));
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert!(Matrix::from_rows(vec![vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn matvec_and_transpose() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        assert_eq!(m.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0, 11.0]);
        assert_eq!(m.matvec_t(&[1.0, 1.0, 1.0]).unwrap(), vec![9.0, 12.0]);
        assert!(m.matvec(&[1.0]).is_err());
        assert!(m.matvec_t(&[1.0]).is_err());
        let t = m.transpose();
        assert_eq!((t.rows(), t.cols()), (2, 3));
        assert_eq!(t.get(0, 2), 5.0);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(vec![vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(vec![vec![19.0, 22.0], vec![43.0, 50.0]]).unwrap()
        );
        assert!(a.matmul(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn vector_helpers() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, 2.0], &mut y);
        assert_eq!(y, vec![3.0, 5.0]);
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn cosine_cases() {
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!((cosine(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-12);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-12);
        assert_eq!(cosine(&[0.0], &[1.0]), 0.0);
    }

    #[test]
    fn softmax_is_a_distribution_and_stable() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
        // huge logits must not overflow
        let p = softmax(&[1e4, 1e4 + 1.0]);
        assert!(p[1] > p[0]);
        assert!(p.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn randn_is_seeded() {
        let mut r1 = Xoshiro256::seeded(5);
        let mut r2 = Xoshiro256::seeded(5);
        assert_eq!(
            Matrix::randn(3, 3, 0.1, &mut r1),
            Matrix::randn(3, 3, 0.1, &mut r2)
        );
    }

    #[test]
    fn frobenius() {
        let m = Matrix::from_rows(vec![vec![3.0, 0.0], vec![0.0, 4.0]]).unwrap();
        assert_eq!(m.frobenius(), 5.0);
    }
}
