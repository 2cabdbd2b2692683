//! Multiclass softmax (multinomial logistic) regression with mini-batch SGD.

use crate::linalg::{axpy, dot, softmax, Matrix};
use crate::{Classifier, TrainConfig};
use fstore_common::{FsError, Result, Rng, Xoshiro256};

/// Softmax regression: `P(y|x) = softmax(Wx + b)`.
#[derive(Debug, Clone)]
pub struct SoftmaxRegression {
    weights: Matrix, // k x d
    bias: Vec<f64>,  // k
}

impl SoftmaxRegression {
    /// Train on `(xs, ys)` with `num_classes` classes.
    pub fn train(
        xs: &[Vec<f64>],
        ys: &[usize],
        num_classes: usize,
        config: &TrainConfig,
    ) -> Result<Self> {
        Self::train_weighted(xs, ys, None, num_classes, config)
    }

    /// Train with optional per-example weights (slice reweighting hooks in
    /// here — the patching experiments E11/E12 use it).
    pub(crate) fn train_weighted(
        xs: &[Vec<f64>],
        ys: &[usize],
        sample_weights: Option<&[f64]>,
        num_classes: usize,
        config: &TrainConfig,
    ) -> Result<Self> {
        validate_training_input(xs, ys, num_classes)?;
        if let Some(w) = sample_weights {
            if w.len() != xs.len() {
                return Err(FsError::Model("sample weight length mismatch".into()));
            }
            if w.iter().any(|&x| x < 0.0 || !x.is_finite()) {
                return Err(FsError::Model(
                    "sample weights must be finite and >= 0".into(),
                ));
            }
        }
        let d = xs[0].len();
        let mut rng = Xoshiro256::seeded(config.seed);
        let mut model = SoftmaxRegression {
            weights: Matrix::randn(num_classes, d, 0.01, &mut rng),
            bias: vec![0.0; num_classes],
        };

        let n = xs.len();
        let mut order: Vec<usize> = (0..n).collect();
        let batch = config.batch_size.max(1);
        for _ in 0..config.epochs {
            rng.shuffle(&mut order);
            for chunk in order.chunks(batch) {
                let mut grad_w = Matrix::zeros(num_classes, d);
                let mut grad_b = vec![0.0; num_classes];
                let mut total_weight = 0.0;
                for &i in chunk {
                    let w_i = sample_weights.map_or(1.0, |w| w[i]);
                    if w_i == 0.0 {
                        continue;
                    }
                    total_weight += w_i;
                    let p = model.proba_inner(&xs[i]);
                    for c in 0..num_classes {
                        let err = w_i * (p[c] - f64::from(u8::from(c == ys[i])));
                        grad_b[c] += err;
                        axpy(err, &xs[i], grad_w.row_mut(c));
                    }
                }
                if total_weight == 0.0 {
                    continue;
                }
                let lr = config.learning_rate / total_weight;
                for c in 0..num_classes {
                    let gw = grad_w.row(c).to_vec();
                    let row = model.weights.row_mut(c);
                    for (w, g) in row.iter_mut().zip(&gw) {
                        *w -= lr * (g + config.l2 * *w * total_weight);
                    }
                    model.bias[c] -= lr * grad_b[c];
                }
            }
        }
        Ok(model)
    }

    fn proba_inner(&self, x: &[f64]) -> Vec<f64> {
        let mut logits = self.weights.matvec(x).expect("dims checked at train time");
        for (l, b) in logits.iter_mut().zip(&self.bias) {
            *l += b;
        }
        softmax(&logits)
    }
}

pub(crate) fn validate_training_input(
    xs: &[Vec<f64>],
    ys: &[usize],
    num_classes: usize,
) -> Result<()> {
    if xs.is_empty() || xs.len() != ys.len() {
        return Err(FsError::Model(format!(
            "training input mismatch: {} examples, {} labels",
            xs.len(),
            ys.len()
        )));
    }
    let d = xs[0].len();
    if d == 0 || xs.iter().any(|x| x.len() != d) {
        return Err(FsError::Model("ragged or empty feature vectors".into()));
    }
    if num_classes < 2 {
        return Err(FsError::Model("need at least 2 classes".into()));
    }
    if let Some(&bad) = ys.iter().find(|&&y| y >= num_classes) {
        return Err(FsError::Model(format!(
            "label {bad} out of range 0..{num_classes}"
        )));
    }
    Ok(())
}

impl Classifier for SoftmaxRegression {
    fn input_dim(&self) -> usize {
        self.weights.cols()
    }

    fn num_classes(&self) -> usize {
        self.weights.rows()
    }

    fn predict_proba(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.input_dim() {
            return Err(FsError::Model(format!(
                "expected {} features, got {}",
                self.input_dim(),
                x.len()
            )));
        }
        let _ = dot(x, x); // touch to keep inlining friendly; cheap
        Ok(self.proba_inner(x))
    }
}

#[cfg(test)]
impl SoftmaxRegression {
    /// Mean cross-entropy: the reference the training test checks
    /// convergence against.
    fn loss(&self, xs: &[Vec<f64>], ys: &[usize]) -> Result<f64> {
        validate_training_input(xs, ys, self.num_classes())?;
        let mut total = 0.0;
        for (x, &y) in xs.iter().zip(ys) {
            let p = self.predict_proba(x)?;
            total -= p[y].max(1e-15).ln();
        }
        Ok(total / xs.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three well-separated Gaussian blobs.
    fn blobs(n_per: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = Xoshiro256::seeded(seed);
        let centers = [[0.0, 0.0], [5.0, 5.0], [-5.0, 5.0]];
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (c, center) in centers.iter().enumerate() {
            for _ in 0..n_per {
                xs.push(vec![
                    center[0] + rng.normal() * 0.5,
                    center[1] + rng.normal() * 0.5,
                ]);
                ys.push(c);
            }
        }
        (xs, ys)
    }

    #[test]
    fn separable_blobs_reach_high_accuracy() {
        let (xs, ys) = blobs(100, 1);
        let m = SoftmaxRegression::train(&xs, &ys, 3, &TrainConfig::default()).unwrap();
        assert!(m.accuracy(&xs, &ys).unwrap() > 0.95);
        let (xt, yt) = blobs(50, 2);
        assert!(m.accuracy(&xt, &yt).unwrap() > 0.95, "held-out accuracy");
    }

    #[test]
    fn proba_is_a_distribution() {
        let (xs, ys) = blobs(30, 3);
        let m = SoftmaxRegression::train(&xs, &ys, 3, &TrainConfig::default()).unwrap();
        let p = m.predict_proba(&xs[0]).unwrap();
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let (xs, ys) = blobs(50, 4);
        let cfg = TrainConfig::default().with_seed(99);
        let a = SoftmaxRegression::train(&xs, &ys, 3, &cfg).unwrap();
        let b = SoftmaxRegression::train(&xs, &ys, 3, &cfg).unwrap();
        assert_eq!(a.weights, b.weights);
        let c = SoftmaxRegression::train(&xs, &ys, 3, &cfg.with_seed(100)).unwrap();
        assert_ne!(a.weights, c.weights);
    }

    #[test]
    fn validation_errors() {
        let xs = vec![vec![1.0, 2.0]];
        assert!(SoftmaxRegression::train(&xs, &[0, 1], 2, &TrainConfig::default()).is_err());
        assert!(SoftmaxRegression::train(&[], &[], 2, &TrainConfig::default()).is_err());
        assert!(SoftmaxRegression::train(&xs, &[5], 2, &TrainConfig::default()).is_err());
        assert!(SoftmaxRegression::train(&xs, &[0], 1, &TrainConfig::default()).is_err());
        let ragged = vec![vec![1.0], vec![1.0, 2.0]];
        assert!(SoftmaxRegression::train(&ragged, &[0, 1], 2, &TrainConfig::default()).is_err());
        assert!(SoftmaxRegression::train_weighted(
            &xs,
            &[0],
            Some(&[-1.0]),
            2,
            &TrainConfig::default()
        )
        .is_err());
    }

    #[test]
    fn predict_dim_checked() {
        let (xs, ys) = blobs(30, 5);
        let m = SoftmaxRegression::train(&xs, &ys, 3, &TrainConfig::default()).unwrap();
        assert!(m.predict(&[1.0]).is_err());
    }

    #[test]
    fn sample_weights_shift_the_boundary() {
        // Two overlapping classes; upweighting class 1 should raise its recall.
        let mut rng = Xoshiro256::seeded(6);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..200 {
            xs.push(vec![rng.normal() - 0.5]);
            ys.push(0);
            xs.push(vec![rng.normal() + 0.5]);
            ys.push(1);
        }
        let cfg = TrainConfig::default();
        let plain = SoftmaxRegression::train(&xs, &ys, 2, &cfg).unwrap();
        let weights: Vec<f64> = ys.iter().map(|&y| if y == 1 { 5.0 } else { 1.0 }).collect();
        let tilted = SoftmaxRegression::train_weighted(&xs, &ys, Some(&weights), 2, &cfg).unwrap();
        let recall = |m: &SoftmaxRegression| {
            let mut hit = 0;
            let mut tot = 0;
            for (x, &y) in xs.iter().zip(&ys) {
                if y == 1 {
                    tot += 1;
                    if m.predict(x).unwrap() == 1 {
                        hit += 1;
                    }
                }
            }
            hit as f64 / tot as f64
        };
        assert!(
            recall(&tilted) > recall(&plain),
            "upweighting must raise recall"
        );
    }

    #[test]
    fn loss_decreases_with_training() {
        let (xs, ys) = blobs(60, 7);
        let short = SoftmaxRegression::train(
            &xs,
            &ys,
            3,
            &TrainConfig {
                epochs: 1,
                ..TrainConfig::default()
            },
        )
        .unwrap();
        let long = SoftmaxRegression::train(
            &xs,
            &ys,
            3,
            &TrainConfig {
                epochs: 40,
                ..TrainConfig::default()
            },
        )
        .unwrap();
        assert!(long.loss(&xs, &ys).unwrap() < short.loss(&xs, &ys).unwrap());
    }
}
