//! # fstore-models
//!
//! The *downstream consumers* of features and embeddings: small, fast,
//! deterministic classifiers trained in pure Rust. They exist because the
//! embedding-ecosystem experiments (E5–E8, E11, E12) all measure **what a
//! downstream model does** — downstream instability is "the number of
//! predictions that change with different embeddings" (Leszczynski et al.),
//! slice gaps and patches are measured on model predictions (Goel et al.),
//! and the eigenspace overlap score is validated against downstream
//! accuracy (May et al.).
//!
//! Everything trains from an explicit seed (via `fstore-common`'s RNG), so
//! "retrain with a different seed" — the instability experiments' knob — is
//! first class.

// Index-based loops are clearer than iterator chains in the dense
// numeric kernels below; silence the style lint crate-wide.
#![allow(clippy::needless_range_loop)]
#![warn(unreachable_pub)]

pub mod linalg;
mod logreg;
mod metrics;
mod mlp;
mod softmax;

pub use linalg::Matrix;
pub use logreg::LogisticRegression;
pub use metrics::prediction_flips;
pub use mlp::Mlp;
pub use softmax::SoftmaxRegression;

use fstore_common::Result;

/// Mini-batch SGD hyper-parameters shared by all trainers.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    pub epochs: usize,
    pub learning_rate: f64,
    pub l2: f64,
    pub batch_size: usize,
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 30,
            learning_rate: 0.1,
            l2: 1e-4,
            batch_size: 32,
            seed: 7,
        }
    }
}

impl TrainConfig {
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A trained multi-class classifier.
pub trait Classifier {
    /// Number of input features.
    fn input_dim(&self) -> usize;
    /// Number of classes.
    fn num_classes(&self) -> usize;
    /// Class probabilities for one example.
    fn predict_proba(&self, x: &[f64]) -> Result<Vec<f64>>;

    /// Hard prediction (argmax).
    fn predict(&self, x: &[f64]) -> Result<usize> {
        let p = self.predict_proba(x)?;
        Ok(argmax(&p))
    }

    /// Hard predictions for a batch.
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Result<Vec<usize>> {
        xs.iter().map(|x| self.predict(x)).collect()
    }

    /// Accuracy over a labeled batch.
    fn accuracy(&self, xs: &[Vec<f64>], ys: &[usize]) -> Result<f64> {
        let preds = self.predict_batch(xs)?;
        let hits = preds.iter().zip(ys).filter(|(p, y)| p == y).count();
        Ok(hits as f64 / ys.len().max(1) as f64)
    }
}

/// Index of the largest element (first on ties).
pub(crate) fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), 1);
        assert_eq!(argmax(&[5.0]), 0);
    }
}
