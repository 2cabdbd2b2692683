//! Synthetic self-supervised training data (DESIGN.md substitution for the
//! paper's web-scale corpora).
//!
//! The generator produces corpora with the three statistical properties the
//! paper's embedding-quality discussion hinges on:
//!
//! 1. **Popularity skew** — entity frequencies are Zipfian, so "rare things"
//!    exist and are poorly represented (§3.1.1, Orr et al.);
//! 2. **Latent semantic structure** — every entity belongs to a latent topic
//!    and sentences are topic-coherent, so embeddings have neighborhoods a
//!    k-NN metric can probe (Wendlandt et al.);
//! 3. **A typed knowledge graph** — entities carry a type and relation
//!    edges, the structured signal the Bootleg-style trainer exploits to
//!    rescue the tail (E5).

use fstore_common::{FsError, Result, Rng, Xoshiro256, Zipf};

/// Corpus generation parameters.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Vocabulary size (number of distinct entities).
    pub vocab: usize,
    /// Number of latent topics entities are assigned to.
    pub topics: usize,
    /// Number of sentences to generate.
    pub sentences: usize,
    /// Tokens per sentence.
    pub sentence_len: usize,
    /// Zipf exponent of the entity popularity distribution.
    pub zipf_alpha: f64,
    /// Probability a token is drawn from the sentence topic rather than the
    /// global (noise) distribution — higher = tighter semantic structure.
    pub topic_coherence: f64,
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            vocab: 2_000,
            topics: 20,
            sentences: 4_000,
            sentence_len: 12,
            zipf_alpha: 1.0,
            topic_coherence: 0.85,
            seed: 13,
        }
    }
}

/// The typed knowledge graph over corpus entities: every entity has a type
/// (its latent topic, which is exactly the structure NED systems read out of
/// a KB) and relation edges to same-topic entities.
#[derive(Debug, Clone)]
pub struct KnowledgeGraph {
    /// `entity_type[e]` = type id of entity `e`.
    pub(crate) entity_type: Vec<usize>,
    adjacency: Vec<Vec<usize>>,
}

impl KnowledgeGraph {
    pub(crate) fn neighbors(&self, entity: usize) -> &[usize] {
        &self.adjacency[entity]
    }

    pub fn num_types(&self) -> usize {
        self.entity_type.iter().max().map_or(0, |m| m + 1)
    }
}

/// A generated corpus: token-id sentences plus the generating structure
/// (kept so experiments can measure quality against ground truth).
#[derive(Debug, Clone)]
pub struct Corpus {
    pub config: CorpusConfig,
    /// Sentences of entity ids (rank order: 0 = most popular).
    pub(crate) sentences: Vec<Vec<usize>>,
    /// Ground-truth topic of each entity.
    pub topic_of: Vec<usize>,
    /// The knowledge graph over entities.
    pub kg: KnowledgeGraph,
    /// Total occurrences of each entity in the corpus.
    pub(crate) frequency: Vec<u64>,
}

impl Corpus {
    /// Generate a corpus (deterministic in `config.seed`).
    pub fn generate(config: CorpusConfig) -> Result<Corpus> {
        if config.vocab == 0 || config.topics == 0 || config.vocab < config.topics {
            return Err(FsError::InvalidArgument(
                "corpus needs vocab >= topics >= 1".into(),
            ));
        }
        if !(0.0..=1.0).contains(&config.topic_coherence) {
            return Err(FsError::InvalidArgument(
                "topic_coherence must be in [0,1]".into(),
            ));
        }
        let mut rng = Xoshiro256::seeded(config.seed);

        // Assign each entity a topic (round-robin over rank keeps every
        // topic populated across the popularity spectrum).
        let topic_of: Vec<usize> = (0..config.vocab).map(|e| e % config.topics).collect();
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); config.topics];
        for (e, &t) in topic_of.iter().enumerate() {
            members[t].push(e);
        }

        // Per-topic Zipf over the topic's members (by global rank), plus a
        // global Zipf for noise tokens.
        let global = Zipf::new(config.vocab, config.zipf_alpha);
        let per_topic: Vec<Zipf> = members
            .iter()
            .map(|m| Zipf::new(m.len(), config.zipf_alpha))
            .collect();

        let mut sentences = Vec::with_capacity(config.sentences);
        let mut frequency = vec![0u64; config.vocab];
        for _ in 0..config.sentences {
            let topic = rng.below(config.topics as u64) as usize;
            let mut sent = Vec::with_capacity(config.sentence_len);
            for _ in 0..config.sentence_len {
                let e = if rng.chance(config.topic_coherence) {
                    members[topic][per_topic[topic].sample(&mut rng)]
                } else {
                    global.sample(&mut rng)
                };
                frequency[e] += 1;
                sent.push(e);
            }
            sentences.push(sent);
        }

        // Relations: each entity links to up to 3 same-topic entities.
        let mut adjacency = vec![Vec::new(); config.vocab];
        for e in 0..config.vocab {
            let peers = &members[topic_of[e]];
            if peers.len() < 2 {
                continue;
            }
            for _ in 0..3usize.min(peers.len() - 1) {
                let other = loop {
                    let cand = *rng.choose(peers);
                    if cand != e {
                        break cand;
                    }
                };
                adjacency[e].push(other);
                adjacency[other].push(e);
            }
        }

        let kg = KnowledgeGraph {
            entity_type: topic_of.clone(),
            adjacency,
        };
        Ok(Corpus {
            config,
            sentences,
            topic_of,
            kg,
            frequency,
        })
    }

    /// Entity name used in embedding tables (`"e<rank>"`).
    pub fn entity_name(id: usize) -> String {
        format!("e{id}")
    }

    /// Content fingerprint for provenance.
    pub(crate) fn hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for s in &self.sentences {
            for &t in s {
                h ^= t as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        h
    }

    /// Entities grouped into `deciles` popularity bands by corpus frequency
    /// (band 0 = most frequent) — the slicing used by E5/E8.
    pub fn popularity_bands(&self, bands: usize) -> Vec<Vec<usize>> {
        let mut by_freq: Vec<usize> = (0..self.config.vocab).collect();
        by_freq.sort_by_key(|&e| std::cmp::Reverse(self.frequency[e]));
        let per = by_freq.len().div_ceil(bands);
        by_freq.chunks(per).map(<[usize]>::to_vec).collect()
    }
}

#[cfg(test)]
impl Corpus {
    /// Whether two entities share a topic: the ground truth the trainers'
    /// tests check learned similarity against.
    pub(crate) fn same_topic(&self, a: usize, b: usize) -> bool {
        self.topic_of[a] == self.topic_of[b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Corpus {
        Corpus::generate(CorpusConfig {
            vocab: 100,
            topics: 5,
            sentences: 500,
            sentence_len: 10,
            ..CorpusConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.sentences, b.sentences);
        assert_eq!(a.hash(), b.hash());
        let c = Corpus::generate(CorpusConfig {
            seed: 99,
            vocab: 100,
            topics: 5,
            sentences: 500,
            sentence_len: 10,
            ..CorpusConfig::default()
        })
        .unwrap();
        assert_ne!(a.sentences, c.sentences);
    }

    #[test]
    fn config_validation() {
        assert!(Corpus::generate(CorpusConfig {
            vocab: 0,
            ..CorpusConfig::default()
        })
        .is_err());
        assert!(Corpus::generate(CorpusConfig {
            vocab: 5,
            topics: 10,
            ..CorpusConfig::default()
        })
        .is_err());
        assert!(Corpus::generate(CorpusConfig {
            topic_coherence: 1.5,
            ..CorpusConfig::default()
        })
        .is_err());
    }

    #[test]
    fn frequencies_are_zipfian() {
        let c = small();
        assert_eq!(c.frequency.iter().sum::<u64>(), 500 * 10);
        // head entity much more frequent than a mid-rank entity
        let head: u64 = c.frequency[..5].iter().sum();
        let tail: u64 = c.frequency[95..].iter().sum();
        assert!(head > 5 * tail.max(1), "head {head} tail {tail}");
    }

    #[test]
    fn sentences_are_topic_coherent() {
        let c = small();
        // majority topic share within sentences should beat 1/topics by a lot
        let mut agree = 0usize;
        let mut total = 0usize;
        for s in &c.sentences {
            let mut counts = [0usize; 5];
            for &e in s {
                counts[c.topic_of[e]] += 1;
            }
            agree += counts.iter().max().unwrap();
            total += s.len();
        }
        let share = agree as f64 / total as f64;
        assert!(share > 0.6, "topic coherence too weak: {share}");
    }

    #[test]
    fn kg_relations_are_same_topic() {
        let c = small();
        assert!((0..100).any(|e| !c.kg.neighbors(e).is_empty()));
        for e in 0..100 {
            for &n in c.kg.neighbors(e) {
                assert_eq!(c.topic_of[e], c.topic_of[n]);
            }
        }
        assert_eq!(c.kg.num_types(), 5);
        // adjacency is symmetric-ish: every neighbor edge appears in both lists
        for e in 0..100 {
            for &n in c.kg.neighbors(e) {
                assert!(c.kg.neighbors(n).contains(&e) || c.kg.neighbors(e).contains(&n));
            }
        }
    }

    #[test]
    fn popularity_bands_partition_vocab() {
        let c = small();
        let bands = c.popularity_bands(10);
        assert_eq!(bands.len(), 10);
        let total: usize = bands.iter().map(Vec::len).sum();
        assert_eq!(total, 100);
        // first band is strictly more popular than last
        let f = |b: &Vec<usize>| b.iter().map(|&e| c.frequency[e]).sum::<u64>();
        assert!(f(&bands[0]) > f(&bands[9]));
    }
}
