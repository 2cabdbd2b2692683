//! Skip-gram with negative sampling (word2vec-style) — the canonical
//! self-supervised embedding trainer, in pure Rust.

use crate::corpus::Corpus;
use crate::store::{EmbeddingProvenance, EmbeddingTable};
use fstore_common::{FsError, Result, Rng, Xoshiro256};

/// SGNS hyper-parameters.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SgnsConfig {
    pub dim: usize,
    /// Context window (tokens on each side).
    pub window: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    pub epochs: usize,
    pub learning_rate: f64,
    /// Frequent-token subsampling threshold (0 disables). word2vec's `t`.
    pub subsample: f64,
    pub seed: u64,
}

impl Default for SgnsConfig {
    fn default() -> Self {
        SgnsConfig {
            dim: 32,
            window: 3,
            negatives: 5,
            epochs: 4,
            learning_rate: 0.05,
            subsample: 0.0,
            seed: 17,
        }
    }
}

/// Trainer state: input ("word") and output ("context") vectors.
pub(crate) struct SgnsTrainer {
    pub(crate) config: SgnsConfig,
    vocab: usize,
    /// flattened vocab × dim
    input: Vec<f32>,
    output: Vec<f32>,
    /// cumulative distribution for negative sampling (freq^0.75)
    neg_cdf: Vec<f64>,
    /// per-token keep probability for subsampling
    keep_prob: Vec<f64>,
    rng: Xoshiro256,
}

impl SgnsTrainer {
    pub(crate) fn new(corpus: &Corpus, config: SgnsConfig) -> Result<Self> {
        if config.dim == 0 || config.window == 0 {
            return Err(FsError::Embedding(
                "SGNS dim and window must be positive".into(),
            ));
        }
        let vocab = corpus.config.vocab;
        let mut rng = Xoshiro256::seeded(config.seed);
        let scale = 0.5 / config.dim as f32;
        let input: Vec<f32> = (0..vocab * config.dim)
            .map(|_| (rng.next_f64() as f32 - 0.5) * 2.0 * scale)
            .collect();
        let output = vec![0.0f32; vocab * config.dim];

        // negative-sampling distribution ∝ freq^0.75
        let mut acc = 0.0;
        let mut neg_cdf = Vec::with_capacity(vocab);
        for &f in &corpus.frequency {
            acc += (f as f64).powf(0.75).max(1e-9);
            neg_cdf.push(acc);
        }
        for c in &mut neg_cdf {
            *c /= acc;
        }

        // word2vec subsampling: keep with prob sqrt(t/f) + t/f
        let total: f64 = corpus.frequency.iter().sum::<u64>() as f64;
        let keep_prob = corpus
            .frequency
            .iter()
            .map(|&f| {
                if config.subsample <= 0.0 || f == 0 {
                    1.0
                } else {
                    let r = config.subsample / (f as f64 / total);
                    (r.sqrt() + r).min(1.0)
                }
            })
            .collect();

        Ok(SgnsTrainer {
            config,
            vocab,
            input,
            output,
            neg_cdf,
            keep_prob,
            rng,
        })
    }

    fn sample_negative(&mut self) -> usize {
        let u = self.rng.next_f64();
        self.neg_cdf.partition_point(|&c| c < u).min(self.vocab - 1)
    }

    #[inline]
    fn row(buf: &[f32], dim: usize, i: usize) -> &[f32] {
        &buf[i * dim..(i + 1) * dim]
    }

    /// One SGD update on a (center, context, label) triple. Returns |grad|.
    fn update(&mut self, center: usize, context: usize, label: f32, lr: f32) {
        let dim = self.config.dim;
        let (ci, co) = (center * dim, context * dim);
        let mut dot = 0.0f32;
        for k in 0..dim {
            dot += self.input[ci + k] * self.output[co + k];
        }
        // stable sigmoid
        let pred = if dot >= 0.0 {
            1.0 / (1.0 + (-dot).exp())
        } else {
            let e = dot.exp();
            e / (1.0 + e)
        };
        let g = (pred - label) * lr;
        for k in 0..dim {
            let w = self.input[ci + k];
            let c = self.output[co + k];
            self.input[ci + k] = w - g * c;
            self.output[co + k] = c - g * w;
        }
    }

    /// Train on `corpus` (re-entrant: call again to continue training).
    pub(crate) fn train(&mut self, corpus: &Corpus) -> Result<()> {
        if corpus.config.vocab != self.vocab {
            return Err(FsError::Embedding(
                "corpus vocab changed under trainer".into(),
            ));
        }
        let window = self.config.window;
        let negatives = self.config.negatives;
        let lr0 = self.config.learning_rate as f32;
        let total_epochs = self.config.epochs.max(1);

        for epoch in 0..total_epochs {
            // linear decay, floored at 10%
            let lr = lr0 * (1.0 - epoch as f32 / total_epochs as f32).max(0.1);
            for s in 0..corpus.sentences.len() {
                // subsample a working copy of the sentence
                let mut sent: Vec<usize> = Vec::with_capacity(corpus.sentences[s].len());
                for &t in &corpus.sentences[s] {
                    if self.keep_prob[t] >= 1.0 || self.rng.chance(self.keep_prob[t]) {
                        sent.push(t);
                    }
                }
                for i in 0..sent.len() {
                    let center = sent[i];
                    let lo = i.saturating_sub(window);
                    let hi = (i + window).min(sent.len() - 1);
                    for j in lo..=hi {
                        if j == i {
                            continue;
                        }
                        let context = sent[j];
                        self.update(center, context, 1.0, lr);
                        for _ in 0..negatives {
                            let neg = self.sample_negative();
                            if neg != context {
                                self.update(center, neg, 0.0, lr);
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Extra positive pairs (KG augmentation hooks in through this).
    pub(crate) fn train_pairs(&mut self, pairs: &[(usize, usize)], lr: f32) -> Result<()> {
        let negatives = self.config.negatives;
        for &(a, b) in pairs {
            if a >= self.vocab || b >= self.vocab {
                return Err(FsError::Embedding(format!("pair ({a},{b}) out of vocab")));
            }
            self.update(a, b, 1.0, lr);
            for _ in 0..negatives {
                let neg = self.sample_negative();
                if neg != b {
                    self.update(a, neg, 0.0, lr);
                }
            }
        }
        Ok(())
    }

    /// Input vector of entity `id`.
    pub(crate) fn vector(&self, id: usize) -> &[f32] {
        Self::row(&self.input, self.config.dim, id)
    }

    /// Export input vectors as an [`EmbeddingTable`].
    pub(crate) fn to_table(&self) -> Result<EmbeddingTable> {
        let mut t = EmbeddingTable::new(self.config.dim)?;
        for e in 0..self.vocab {
            t.insert(Corpus::entity_name(e), self.vector(e).to_vec())?;
        }
        Ok(t)
    }

    /// Provenance record describing this training run over `corpus`.
    pub(crate) fn provenance(&self, corpus: &Corpus) -> EmbeddingProvenance {
        EmbeddingProvenance {
            trainer: "sgns".into(),
            config: serde_json::to_string(&self.config).unwrap_or_default(),
            corpus_hash: corpus.hash(),
            seed: self.config.seed,
            parent: None,
            notes: String::new(),
        }
    }
}

/// Convenience: train SGNS end-to-end and return the table.
pub fn train_sgns(
    corpus: &Corpus,
    config: SgnsConfig,
) -> Result<(EmbeddingTable, EmbeddingProvenance)> {
    let mut t = SgnsTrainer::new(corpus, config)?;
    t.train(corpus)?;
    let prov = t.provenance(corpus);
    Ok((t.to_table()?, prov))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusConfig;

    fn tiny_corpus(seed: u64) -> Corpus {
        Corpus::generate(CorpusConfig {
            vocab: 120,
            topics: 4,
            sentences: 800,
            sentence_len: 10,
            topic_coherence: 0.9,
            seed,
            ..CorpusConfig::default()
        })
        .unwrap()
    }

    fn mean_cosine(
        t: &EmbeddingTable,
        corpus: &Corpus,
        same_topic: bool,
        rng: &mut Xoshiro256,
    ) -> f64 {
        let mut total = 0.0;
        let mut n = 0;
        let vocab = corpus.config.vocab;
        while n < 300 {
            let a = rng.below(vocab as u64) as usize;
            let b = rng.below(vocab as u64) as usize;
            if a == b || corpus.same_topic(a, b) != same_topic {
                continue;
            }
            total += t
                .cosine(&Corpus::entity_name(a), &Corpus::entity_name(b))
                .unwrap();
            n += 1;
        }
        total / n as f64
    }

    #[test]
    fn learns_topic_structure() {
        let corpus = tiny_corpus(1);
        let (table, _) = train_sgns(
            &corpus,
            SgnsConfig {
                dim: 24,
                ..SgnsConfig::default()
            },
        )
        .unwrap();
        let mut rng = Xoshiro256::seeded(5);
        let same = mean_cosine(&table, &corpus, true, &mut rng);
        let diff = mean_cosine(&table, &corpus, false, &mut rng);
        assert!(
            same > diff + 0.15,
            "same-topic cosine {same:.3} must clearly beat cross-topic {diff:.3}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let corpus = tiny_corpus(2);
        let cfg = SgnsConfig {
            epochs: 1,
            ..SgnsConfig::default()
        };
        let (a, _) = train_sgns(&corpus, cfg.clone()).unwrap();
        let (b, _) = train_sgns(&corpus, cfg.clone()).unwrap();
        assert_eq!(a.get("e0"), b.get("e0"));
        let (c, _) = train_sgns(&corpus, SgnsConfig { seed: 999, ..cfg }).unwrap();
        assert_ne!(a.get("e0"), c.get("e0"));
    }

    #[test]
    fn table_has_all_entities_and_dim() {
        let corpus = tiny_corpus(3);
        let (table, prov) = train_sgns(
            &corpus,
            SgnsConfig {
                dim: 16,
                epochs: 1,
                ..SgnsConfig::default()
            },
        )
        .unwrap();
        assert_eq!(table.len(), 120);
        assert_eq!(table.dim(), 16);
        assert!(table.get("e119").is_some());
        assert_eq!(prov.trainer, "sgns");
        assert_eq!(prov.corpus_hash, corpus.hash());
    }

    #[test]
    fn config_validation() {
        let corpus = tiny_corpus(4);
        assert!(SgnsTrainer::new(
            &corpus,
            SgnsConfig {
                dim: 0,
                ..SgnsConfig::default()
            }
        )
        .is_err());
        assert!(SgnsTrainer::new(
            &corpus,
            SgnsConfig {
                window: 0,
                ..SgnsConfig::default()
            }
        )
        .is_err());
    }

    #[test]
    fn train_pairs_validates_vocab() {
        let corpus = tiny_corpus(5);
        let mut t = SgnsTrainer::new(&corpus, SgnsConfig::default()).unwrap();
        assert!(t.train_pairs(&[(0, 1)], 0.01).is_ok());
        assert!(t.train_pairs(&[(0, 10_000)], 0.01).is_err());
    }

    #[test]
    fn extra_pair_training_pulls_vectors_together() {
        let corpus = tiny_corpus(6);
        let mut t = SgnsTrainer::new(
            &corpus,
            SgnsConfig {
                epochs: 1,
                ..SgnsConfig::default()
            },
        )
        .unwrap();
        t.train(&corpus).unwrap();
        // pick two cross-topic entities and hammer them together
        let (a, b) = (0usize, 1usize);
        let before = t.to_table().unwrap().cosine("e0", "e1").unwrap();
        let pairs: Vec<(usize, usize)> = std::iter::repeat_n((a, b), 500).collect();
        t.train_pairs(&pairs, 0.05).unwrap();
        let after = t.to_table().unwrap().cosine("e0", "e1").unwrap();
        assert!(
            after > before,
            "pair training must increase similarity ({before} → {after})"
        );
    }

    #[test]
    fn subsampling_keeps_training_stable() {
        let corpus = tiny_corpus(7);
        let (table, _) = train_sgns(
            &corpus,
            SgnsConfig {
                subsample: 1e-3,
                epochs: 1,
                ..SgnsConfig::default()
            },
        )
        .unwrap();
        // vectors stay finite
        let v = table.get("e0").unwrap();
        assert!(v.iter().all(|x| x.is_finite()));
    }
}
