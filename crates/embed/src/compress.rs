//! Embedding compression: uniform scalar quantization and PCA — the two
//! memory-budget axes of the instability/compression studies (Leszczynski
//! et al.; May et al.). The budget of an embedding is `rows × dim × bits`;
//! E6 sweeps (dim, bits) and E7 scores the compressed tables with the
//! eigenspace overlap metric.

use crate::eig::symmetric_eigen;
use crate::store::EmbeddingTable;
use fstore_common::{FsError, Result};
use fstore_models::Matrix;

/// A uniformly scalar-quantized embedding table (per-dimension ranges).
#[derive(Debug, Clone)]
pub struct QuantizedTable {
    bits: u8,
    dim: usize,
    lo: Vec<f32>,
    step: Vec<f32>,
    /// codes per entity, `dim` codes each (u16 holds up to 16 bits)
    codes: Vec<(String, Vec<u16>)>,
}

impl QuantizedTable {
    /// Quantize `table` to `bits` bits per dimension (1..=16).
    pub fn quantize(table: &EmbeddingTable, bits: u8) -> Result<QuantizedTable> {
        if !(1..=16).contains(&bits) {
            return Err(FsError::Embedding(format!(
                "bits must be 1..=16, got {bits}"
            )));
        }
        if table.is_empty() {
            return Err(FsError::Embedding("cannot quantize an empty table".into()));
        }
        let dim = table.dim();
        let keys = table.keys();
        let mut lo = vec![f32::INFINITY; dim];
        let mut hi = vec![f32::NEG_INFINITY; dim];
        for k in &keys {
            for (d, &x) in table.get(k).unwrap().iter().enumerate() {
                lo[d] = lo[d].min(x);
                hi[d] = hi[d].max(x);
            }
        }
        let levels = (1u32 << bits) - 1;
        let step: Vec<f32> = lo
            .iter()
            .zip(&hi)
            .map(|(&l, &h)| if h > l { (h - l) / levels as f32 } else { 1.0 })
            .collect();
        let codes = keys
            .iter()
            .map(|k| {
                let v = table.get(k).unwrap();
                let c: Vec<u16> = v
                    .iter()
                    .enumerate()
                    .map(|(d, &x)| {
                        let q = ((x - lo[d]) / step[d]).round();
                        q.clamp(0.0, levels as f32) as u16
                    })
                    .collect();
                (k.to_string(), c)
            })
            .collect();
        Ok(QuantizedTable {
            bits,
            dim,
            lo,
            step,
            codes,
        })
    }

    /// Logical size in bytes (codes only): `rows × dim × bits / 8`.
    pub fn payload_bytes(&self) -> usize {
        self.codes.len() * self.dim * self.bits as usize / 8
    }

    /// Reconstruct a dequantized [`EmbeddingTable`].
    pub fn dequantize(&self) -> Result<EmbeddingTable> {
        let mut t = EmbeddingTable::new(self.dim)?;
        for (k, codes) in &self.codes {
            let v: Vec<f32> = codes
                .iter()
                .enumerate()
                .map(|(d, &c)| self.lo[d] + c as f32 * self.step[d])
                .collect();
            t.insert(k.clone(), v)?;
        }
        Ok(t)
    }
}

/// A fitted PCA projection.
#[derive(Debug, Clone)]
pub struct PcaModel {
    mean: Vec<f64>,
    /// d × k projection (columns = principal components)
    components: Matrix,
    /// fraction of total variance captured
    pub explained_variance: f64,
}

impl PcaModel {
    /// Fit PCA to the vectors of `table`, keeping `k` components.
    pub fn fit(table: &EmbeddingTable, k: usize) -> Result<PcaModel> {
        let d = table.dim();
        if k == 0 || k > d {
            return Err(FsError::Embedding(format!(
                "PCA k must be in 1..={d}, got {k}"
            )));
        }
        let keys = table.keys();
        let n = keys.len();
        if n < 2 {
            return Err(FsError::Embedding("PCA needs at least 2 vectors".into()));
        }
        let mut mean = vec![0.0f64; d];
        for key in &keys {
            for (m, &x) in mean.iter_mut().zip(table.get(key).unwrap()) {
                *m += f64::from(x);
            }
        }
        for m in &mut mean {
            *m /= n as f64;
        }
        // covariance d×d
        let mut cov = Matrix::zeros(d, d);
        for key in &keys {
            let v = table.get(key).unwrap();
            for i in 0..d {
                let xi = f64::from(v[i]) - mean[i];
                for j in i..d {
                    let xj = f64::from(v[j]) - mean[j];
                    cov.set(i, j, cov.get(i, j) + xi * xj);
                }
            }
        }
        for i in 0..d {
            for j in i..d {
                let x = cov.get(i, j) / (n - 1) as f64;
                cov.set(i, j, x);
                cov.set(j, i, x);
            }
        }
        let (evals, evecs) = symmetric_eigen(&cov)?;
        let total: f64 = evals.iter().map(|l| l.max(0.0)).sum();
        let kept: f64 = evals.iter().take(k).map(|l| l.max(0.0)).sum();
        let mut components = Matrix::zeros(d, k);
        for c in 0..k {
            for r in 0..d {
                components.set(r, c, evecs.get(r, c));
            }
        }
        Ok(PcaModel {
            mean,
            components,
            explained_variance: if total > 0.0 { kept / total } else { 1.0 },
        })
    }

    pub(crate) fn output_dim(&self) -> usize {
        self.components.cols()
    }

    /// Project one vector.
    pub(crate) fn transform(&self, v: &[f32]) -> Result<Vec<f32>> {
        if v.len() != self.mean.len() {
            return Err(FsError::Embedding("PCA transform dim mismatch".into()));
        }
        let centered: Vec<f64> = v
            .iter()
            .zip(&self.mean)
            .map(|(&x, m)| f64::from(x) - m)
            .collect();
        let k = self.components.cols();
        let mut out = vec![0.0f32; k];
        for (c, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (r, &x) in centered.iter().enumerate() {
                acc += x * self.components.get(r, c);
            }
            *o = acc as f32;
        }
        Ok(out)
    }

    /// Project a whole table into a lower-dimensional one.
    pub fn transform_table(&self, table: &EmbeddingTable) -> Result<EmbeddingTable> {
        let mut out = EmbeddingTable::new(self.output_dim())?;
        for k in table.keys() {
            out.insert(k.to_string(), self.transform(table.get(k).unwrap())?)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
impl QuantizedTable {
    /// Worst-case reconstruction error per dimension (half a step): the
    /// bound the round-trip test checks dequantization against.
    fn max_error(&self) -> f32 {
        self.step.iter().fold(0.0f32, |m, &s| m.max(s / 2.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fstore_common::{Rng, Xoshiro256};

    fn random_table(n: usize, d: usize, seed: u64) -> EmbeddingTable {
        let mut rng = Xoshiro256::seeded(seed);
        let mut t = EmbeddingTable::new(d).unwrap();
        for i in 0..n {
            let v: Vec<f32> = (0..d).map(|_| rng.normal() as f32).collect();
            t.insert(format!("e{i}"), v).unwrap();
        }
        t
    }

    #[test]
    fn quantize_dequantize_error_bounds() {
        let t = random_table(100, 8, 1);
        for bits in [2u8, 4, 8, 16] {
            let q = QuantizedTable::quantize(&t, bits).unwrap();
            let dq = q.dequantize().unwrap();
            let bound = f64::from(q.max_error()) + 1e-6;
            for k in t.keys() {
                for (&a, &b) in t.get(k).unwrap().iter().zip(dq.get(k).unwrap()) {
                    assert!(
                        (f64::from(a) - f64::from(b)).abs() <= bound,
                        "bits={bits}: |{a} - {b}| > {bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn more_bits_less_error() {
        let t = random_table(200, 16, 2);
        let mut last = f64::INFINITY;
        for bits in [2u8, 4, 8] {
            let q = QuantizedTable::quantize(&t, bits).unwrap();
            let dq = q.dequantize().unwrap();
            let mut err = 0.0;
            for k in t.keys() {
                for (&a, &b) in t.get(k).unwrap().iter().zip(dq.get(k).unwrap()) {
                    err += (f64::from(a) - f64::from(b)).powi(2);
                }
            }
            assert!(err < last, "bits={bits}: error {err} should be < {last}");
            last = err;
        }
    }

    #[test]
    fn payload_shrinks_with_bits() {
        let t = random_table(64, 32, 3);
        let q4 = QuantizedTable::quantize(&t, 4).unwrap();
        let q8 = QuantizedTable::quantize(&t, 8).unwrap();
        assert_eq!(q4.payload_bytes() * 2, q8.payload_bytes());
        assert_eq!(q8.payload_bytes(), 64 * 32);
        assert_eq!(q4.codes.len(), 64);
    }

    #[test]
    fn quantize_validation() {
        let t = random_table(4, 4, 4);
        assert!(QuantizedTable::quantize(&t, 0).is_err());
        assert!(QuantizedTable::quantize(&t, 17).is_err());
        let empty = EmbeddingTable::new(4).unwrap();
        assert!(QuantizedTable::quantize(&empty, 8).is_err());
    }

    #[test]
    fn constant_dimension_quantizes_exactly() {
        let mut t = EmbeddingTable::new(2).unwrap();
        t.insert("a", vec![5.0, 1.0]).unwrap();
        t.insert("b", vec![5.0, 2.0]).unwrap();
        let q = QuantizedTable::quantize(&t, 4).unwrap();
        let dq = q.dequantize().unwrap();
        assert_eq!(dq.get("a").unwrap()[0], 5.0);
        assert_eq!(dq.get("b").unwrap()[0], 5.0);
    }

    #[test]
    fn pca_recovers_dominant_direction() {
        // points along (1,1,0) with small noise
        let mut rng = Xoshiro256::seeded(5);
        let mut t = EmbeddingTable::new(3).unwrap();
        for i in 0..200 {
            let a = rng.normal() as f32 * 5.0;
            let eps = rng.normal() as f32 * 0.1;
            t.insert(format!("e{i}"), vec![a + eps, a - eps, eps])
                .unwrap();
        }
        let pca = PcaModel::fit(&t, 1).unwrap();
        assert!(pca.explained_variance > 0.95, "{}", pca.explained_variance);
        let proj = pca.transform_table(&t).unwrap();
        assert_eq!(proj.dim(), 1);
        // projected coordinate correlates with a: spread preserved
        let spread: Vec<f32> = proj
            .keys()
            .iter()
            .map(|k| proj.get(k).unwrap()[0])
            .collect();
        let max = spread.iter().fold(f32::MIN, |m, &x| m.max(x));
        let min = spread.iter().fold(f32::MAX, |m, &x| m.min(x));
        assert!(max - min > 10.0, "projection collapsed");
    }

    #[test]
    fn pca_validation() {
        let t = random_table(10, 4, 6);
        assert!(PcaModel::fit(&t, 0).is_err());
        assert!(PcaModel::fit(&t, 5).is_err());
        let tiny = random_table(1, 4, 7);
        assert!(PcaModel::fit(&tiny, 2).is_err());
        let pca = PcaModel::fit(&t, 2).unwrap();
        assert!(pca.transform(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn pca_explained_variance_increases_with_k() {
        let t = random_table(100, 8, 8);
        let v2 = PcaModel::fit(&t, 2).unwrap().explained_variance;
        let v6 = PcaModel::fit(&t, 6).unwrap().explained_variance;
        let v8 = PcaModel::fit(&t, 8).unwrap().explained_variance;
        assert!(v2 < v6 && v6 < v8);
        assert!((v8 - 1.0).abs() < 1e-9, "full rank explains everything");
    }
}
