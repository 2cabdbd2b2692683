//! Binary logistic regression — the light-weight downstream model used by
//! the instability experiments, where hundreds of retrains must be cheap.

use crate::linalg::dot;
use crate::{Classifier, TrainConfig};
use fstore_common::{FsError, Result, Rng, Xoshiro256};
use serde::{Deserialize, Serialize};

/// `P(y=1|x) = σ(w·x + b)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    bias: f64,
}

fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

impl LogisticRegression {
    pub fn train(xs: &[Vec<f64>], ys: &[usize], config: &TrainConfig) -> Result<Self> {
        crate::softmax::validate_training_input(xs, ys, 2)?;
        let d = xs[0].len();
        let mut rng = Xoshiro256::seeded(config.seed);
        let mut w: Vec<f64> = (0..d).map(|_| rng.normal() * 0.01).collect();
        let mut b = 0.0;

        let mut order: Vec<usize> = (0..xs.len()).collect();
        let batch = config.batch_size.max(1);
        for _ in 0..config.epochs {
            rng.shuffle(&mut order);
            for chunk in order.chunks(batch) {
                let mut gw = vec![0.0; d];
                let mut gb = 0.0;
                for &i in chunk {
                    let err = sigmoid(dot(&w, &xs[i]) + b) - ys[i] as f64;
                    for (g, &x) in gw.iter_mut().zip(&xs[i]) {
                        *g += err * x;
                    }
                    gb += err;
                }
                let lr = config.learning_rate / chunk.len() as f64;
                for (wi, g) in w.iter_mut().zip(&gw) {
                    *wi -= lr * (g + config.l2 * *wi * chunk.len() as f64);
                }
                b -= lr * gb;
            }
        }
        Ok(LogisticRegression {
            weights: w,
            bias: b,
        })
    }

    /// Probability of the positive class.
    pub(crate) fn proba_positive(&self, x: &[f64]) -> Result<f64> {
        if x.len() != self.weights.len() {
            return Err(FsError::Model(format!(
                "expected {} features, got {}",
                self.weights.len(),
                x.len()
            )));
        }
        Ok(sigmoid(dot(&self.weights, x) + self.bias))
    }

    pub fn to_json(&self) -> Result<serde_json::Value> {
        serde_json::to_value(self).map_err(|e| FsError::Serde(e.to_string()))
    }

    pub fn from_json(v: &serde_json::Value) -> Result<Self> {
        serde_json::from_value(v.clone()).map_err(|e| FsError::Serde(e.to_string()))
    }
}

impl Classifier for LogisticRegression {
    fn input_dim(&self) -> usize {
        self.weights.len()
    }

    fn num_classes(&self) -> usize {
        2
    }

    fn predict_proba(&self, x: &[f64]) -> Result<Vec<f64>> {
        let p = self.proba_positive(x)?;
        Ok(vec![1.0 - p, p])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs(n: usize, gap: f64, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = Xoshiro256::seeded(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            xs.push(vec![rng.normal() - gap, rng.normal()]);
            ys.push(0);
            xs.push(vec![rng.normal() + gap, rng.normal()]);
            ys.push(1);
        }
        (xs, ys)
    }

    #[test]
    fn learns_separable_data() {
        let (xs, ys) = two_blobs(150, 2.5, 1);
        let m = LogisticRegression::train(&xs, &ys, &TrainConfig::default()).unwrap();
        assert!(m.accuracy(&xs, &ys).unwrap() > 0.97);
        let (xt, yt) = two_blobs(50, 2.5, 2);
        assert!(m.accuracy(&xt, &yt).unwrap() > 0.95);
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert!((sigmoid(1000.0) - 1.0).abs() < 1e-12);
        assert!(sigmoid(-1000.0).abs() < 1e-12);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn proba_and_classifier_agree() {
        let (xs, ys) = two_blobs(50, 1.5, 3);
        let m = LogisticRegression::train(&xs, &ys, &TrainConfig::default()).unwrap();
        let p = m.proba_positive(&xs[1]).unwrap();
        let dist = m.predict_proba(&xs[1]).unwrap();
        assert!((dist[1] - p).abs() < 1e-12);
        assert_eq!(m.predict(&xs[1]).unwrap(), usize::from(p > 0.5));
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let (xs, ys) = two_blobs(50, 0.3, 4);
        let a = LogisticRegression::train(&xs, &ys, &TrainConfig::default().with_seed(1)).unwrap();
        let b = LogisticRegression::train(&xs, &ys, &TrainConfig::default().with_seed(1)).unwrap();
        let c = LogisticRegression::train(&xs, &ys, &TrainConfig::default().with_seed(2)).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn rejects_non_binary_labels() {
        assert!(LogisticRegression::train(
            &[vec![1.0], vec![2.0]],
            &[0, 2],
            &TrainConfig::default()
        )
        .is_err());
    }

    #[test]
    fn json_round_trip() {
        let (xs, ys) = two_blobs(40, 1.0, 5);
        let m = LogisticRegression::train(&xs, &ys, &TrainConfig::default()).unwrap();
        let m2 = LogisticRegression::from_json(&m.to_json().unwrap()).unwrap();
        assert_eq!(m, m2);
    }
}
