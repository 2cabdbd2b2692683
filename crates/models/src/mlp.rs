//! One-hidden-layer MLP — the nonlinear downstream consumer. Used where the
//! task (e.g. NED over concatenated mention/entity embeddings in E5) is not
//! linearly separable.

use crate::linalg::{axpy, softmax, Matrix};
use crate::{Classifier, TrainConfig};
use fstore_common::{FsError, Result, Rng, Xoshiro256};

/// `softmax(W2 · tanh(W1 x + b1) + b2)`.
#[derive(Debug, Clone)]
pub struct Mlp {
    w1: Matrix, // h x d
    b1: Vec<f64>,
    w2: Matrix, // k x h
    b2: Vec<f64>,
}

impl Mlp {
    pub fn train(
        xs: &[Vec<f64>],
        ys: &[usize],
        num_classes: usize,
        hidden: usize,
        config: &TrainConfig,
    ) -> Result<Self> {
        crate::softmax::validate_training_input(xs, ys, num_classes)?;
        if hidden == 0 {
            return Err(FsError::Model("hidden layer must be non-empty".into()));
        }
        let d = xs[0].len();
        let mut rng = Xoshiro256::seeded(config.seed);
        let s1 = (2.0 / d as f64).sqrt();
        let s2 = (2.0 / hidden as f64).sqrt();
        let mut m = Mlp {
            w1: Matrix::randn(hidden, d, s1, &mut rng),
            b1: vec![0.0; hidden],
            w2: Matrix::randn(num_classes, hidden, s2, &mut rng),
            b2: vec![0.0; num_classes],
        };

        let mut order: Vec<usize> = (0..xs.len()).collect();
        let batch = config.batch_size.max(1);
        for _ in 0..config.epochs {
            rng.shuffle(&mut order);
            for chunk in order.chunks(batch) {
                let mut gw1 = Matrix::zeros(hidden, d);
                let mut gb1 = vec![0.0; hidden];
                let mut gw2 = Matrix::zeros(num_classes, hidden);
                let mut gb2 = vec![0.0; num_classes];
                for &i in chunk {
                    let (h, p) = m.forward(&xs[i]);
                    // output layer error
                    let mut delta2 = p;
                    delta2[ys[i]] -= 1.0;
                    for c in 0..num_classes {
                        gb2[c] += delta2[c];
                        axpy(delta2[c], &h, gw2.row_mut(c));
                    }
                    // backprop through tanh
                    let mut delta1 = m.w2.matvec_t(&delta2).expect("shapes fixed");
                    for (dh, &hv) in delta1.iter_mut().zip(&h) {
                        *dh *= 1.0 - hv * hv;
                    }
                    for j in 0..hidden {
                        gb1[j] += delta1[j];
                        axpy(delta1[j], &xs[i], gw1.row_mut(j));
                    }
                }
                let lr = config.learning_rate / chunk.len() as f64;
                let l2 = config.l2 * chunk.len() as f64;
                for j in 0..hidden {
                    let g = gw1.row(j).to_vec();
                    for (w, gi) in m.w1.row_mut(j).iter_mut().zip(&g) {
                        *w -= lr * (gi + l2 * *w);
                    }
                    m.b1[j] -= lr * gb1[j];
                }
                for c in 0..num_classes {
                    let g = gw2.row(c).to_vec();
                    for (w, gi) in m.w2.row_mut(c).iter_mut().zip(&g) {
                        *w -= lr * (gi + l2 * *w);
                    }
                    m.b2[c] -= lr * gb2[c];
                }
            }
        }
        Ok(m)
    }

    fn forward(&self, x: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let mut h = self.w1.matvec(x).expect("dims checked");
        for (hv, b) in h.iter_mut().zip(&self.b1) {
            *hv = (*hv + b).tanh();
        }
        let mut logits = self.w2.matvec(&h).expect("dims fixed");
        for (l, b) in logits.iter_mut().zip(&self.b2) {
            *l += b;
        }
        (h, softmax(&logits))
    }
}

impl Classifier for Mlp {
    fn input_dim(&self) -> usize {
        self.w1.cols()
    }

    fn num_classes(&self) -> usize {
        self.w2.rows()
    }

    fn predict_proba(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.input_dim() {
            return Err(FsError::Model(format!(
                "expected {} features, got {}",
                self.input_dim(),
                x.len()
            )));
        }
        Ok(self.forward(x).1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// XOR-ish data: not linearly separable.
    fn xor_data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = Xoshiro256::seeded(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let a = rng.chance(0.5);
            let b = rng.chance(0.5);
            xs.push(vec![
                f64::from(a) * 2.0 - 1.0 + rng.normal() * 0.2,
                f64::from(b) * 2.0 - 1.0 + rng.normal() * 0.2,
            ]);
            ys.push(usize::from(a != b));
        }
        (xs, ys)
    }

    #[test]
    fn learns_xor() {
        let (xs, ys) = xor_data(400, 1);
        let cfg = TrainConfig {
            epochs: 120,
            learning_rate: 0.5,
            ..TrainConfig::default()
        };
        let m = Mlp::train(&xs, &ys, 2, 8, &cfg).unwrap();
        assert!(m.accuracy(&xs, &ys).unwrap() > 0.95, "MLP must solve XOR");
        // sanity: a linear model cannot
        let lin = crate::LogisticRegression::train(&xs, &ys, &TrainConfig::default()).unwrap();
        assert!(lin.accuracy(&xs, &ys).unwrap() < 0.8);
    }

    #[test]
    fn validates_inputs() {
        let (xs, ys) = xor_data(10, 2);
        assert!(Mlp::train(&xs, &ys, 2, 0, &TrainConfig::default()).is_err());
        assert!(Mlp::train(&xs, &ys[..5], 2, 4, &TrainConfig::default()).is_err());
        let m = Mlp::train(&xs, &ys, 2, 4, &TrainConfig::default()).unwrap();
        assert!(m.predict(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let (xs, ys) = xor_data(100, 3);
        let cfg = TrainConfig {
            epochs: 5,
            ..TrainConfig::default().with_seed(11)
        };
        let a = Mlp::train(&xs, &ys, 2, 4, &cfg).unwrap();
        let b = Mlp::train(&xs, &ys, 2, 4, &cfg).unwrap();
        assert_eq!((&a.w1, &a.b1, &a.w2, &a.b2), (&b.w1, &b.b1, &b.w2, &b.b2));
        assert_eq!(a.predict_batch(&xs).unwrap(), b.predict_batch(&xs).unwrap());
    }

    #[test]
    fn proba_is_distribution() {
        let (xs, ys) = xor_data(50, 5);
        let m = Mlp::train(
            &xs,
            &ys,
            2,
            4,
            &TrainConfig {
                epochs: 3,
                ..TrainConfig::default()
            },
        )
        .unwrap();
        let p = m.predict_proba(&xs[0]).unwrap();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
