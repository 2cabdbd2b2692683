//! Shared synthetic workload generators (the DESIGN.md substitutions for
//! the paper's proprietary production data).

use fstore_common::{
    EntityKey, FieldDef, Rng, Schema, Timestamp, Value, ValueType, Xoshiro256, Zipf,
};
use fstore_embed::{Corpus, CorpusConfig, EmbeddingTable};
use fstore_storage::OnlineStore;

/// Fill an online store with `entities × features` float values.
pub fn fill_online(
    online: &OnlineStore,
    group: &str,
    entities: usize,
    features: &[&str],
    seed: u64,
) {
    let mut rng = Xoshiro256::seeded(seed);
    for e in 0..entities {
        let key = EntityKey::new(format!("u{e}"));
        for f in features {
            online.put(group, &key, f, Value::Float(rng.normal()), Timestamp::EPOCH);
        }
    }
}

/// Schema used by hand-built feature history tables.
pub fn feature_history_schema() -> Schema {
    Schema::new(vec![
        FieldDef::not_null("entity", ValueType::Str),
        FieldDef::not_null("ts", ValueType::Timestamp),
        FieldDef::new("value", ValueType::Float),
    ])
    .expect("static schema")
}

/// Standard corpus presets for the embedding experiments.
pub fn corpus_preset(quick: bool, seed: u64) -> CorpusConfig {
    if quick {
        CorpusConfig {
            vocab: 300,
            topics: 8,
            sentences: 600,
            sentence_len: 10,
            zipf_alpha: 1.2,
            topic_coherence: 0.9,
            seed,
        }
    } else {
        CorpusConfig {
            vocab: 1_000,
            topics: 16,
            sentences: 3_000,
            sentence_len: 12,
            zipf_alpha: 1.2,
            topic_coherence: 0.9,
            seed,
        }
    }
}

/// A starved-tail corpus for the rare-entity experiments (E5, E8): few
/// sentences, strong skew.
pub fn starved_corpus(quick: bool, seed: u64) -> CorpusConfig {
    CorpusConfig {
        vocab: if quick { 300 } else { 600 },
        topics: 10,
        sentences: if quick { 250 } else { 500 },
        sentence_len: 8,
        zipf_alpha: 1.4,
        topic_coherence: 0.9,
        seed,
    }
}

// ---------------------------------------------------------------------
// The NED (named entity disambiguation) task used by E5 and the
// entity_disambiguation example.
// ---------------------------------------------------------------------

/// A disambiguation mention: context entity ids, candidates, gold index.
#[derive(Debug, Clone)]
pub struct Mention {
    pub context: Vec<usize>,
    pub candidates: Vec<usize>,
    pub gold: usize,
}

/// Generate `n` mentions over `corpus` (gold sampled by popularity).
pub fn make_mentions(corpus: &Corpus, n: usize, seed: u64) -> Vec<Mention> {
    let mut rng = Xoshiro256::seeded(seed);
    let zipf = Zipf::new(corpus.config.vocab, corpus.config.zipf_alpha);
    let vocab = corpus.config.vocab;
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let gold_entity = zipf.sample(&mut rng);
        let topic = corpus.topic_of[gold_entity];
        let peers: Vec<usize> = (0..vocab)
            .filter(|&e| corpus.topic_of[e] == topic && e != gold_entity)
            .collect();
        if peers.len() < 4 {
            continue;
        }
        let context: Vec<usize> = (0..4).map(|_| *rng.choose(&peers)).collect();
        let mut candidates = vec![gold_entity];
        while candidates.len() < 5 {
            let d = rng.below(vocab as u64) as usize;
            if corpus.topic_of[d] != topic {
                candidates.push(d);
            }
        }
        rng.shuffle(&mut candidates);
        let gold = candidates.iter().position(|&c| c == gold_entity).unwrap();
        out.push(Mention {
            context,
            candidates,
            gold,
        });
    }
    out
}

/// Disambiguate by cosine(candidate, mean context); returns
/// `(per-band accuracy, overall accuracy)` with `bands` popularity bands
/// (band 0 = head).
pub fn ned_accuracy(
    table: &EmbeddingTable,
    corpus: &Corpus,
    mentions: &[Mention],
    bands: usize,
) -> (Vec<f64>, f64) {
    let band_of = {
        let popularity = corpus.popularity_bands(bands);
        let mut map = vec![0usize; corpus.config.vocab];
        for (b, members) in popularity.iter().enumerate() {
            for &e in members {
                map[e] = b;
            }
        }
        map
    };
    let dim = table.dim();
    let mut hit = vec![0usize; bands];
    let mut tot = vec![0usize; bands];
    for m in mentions {
        let mut ctx = vec![0.0f64; dim];
        for &c in &m.context {
            for (x, &v) in ctx
                .iter_mut()
                .zip(table.get(&Corpus::entity_name(c)).unwrap())
            {
                *x += f64::from(v);
            }
        }
        let score = |e: usize| {
            let v = table.get(&Corpus::entity_name(e)).unwrap();
            let (mut dot, mut nv, mut nc) = (0.0f64, 0.0f64, 0.0f64);
            for (&x, &c) in v.iter().zip(&ctx) {
                dot += f64::from(x) * c;
                nv += f64::from(x) * f64::from(x);
                nc += c * c;
            }
            if nv == 0.0 || nc == 0.0 {
                0.0
            } else {
                dot / (nv.sqrt() * nc.sqrt())
            }
        };
        let best = m
            .candidates
            .iter()
            .enumerate()
            .max_by(|(_, &a), (_, &b)| score(a).total_cmp(&score(b)))
            .map(|(i, _)| i)
            .unwrap();
        let band = band_of[m.candidates[m.gold]];
        tot[band] += 1;
        if best == m.gold {
            hit[band] += 1;
        }
    }
    let per_band = hit
        .iter()
        .zip(&tot)
        .map(|(&h, &t)| {
            if t == 0 {
                f64::NAN
            } else {
                h as f64 / t as f64
            }
        })
        .collect();
    let overall = hit.iter().sum::<usize>() as f64 / tot.iter().sum::<usize>().max(1) as f64;
    (per_band, overall)
}

/// Entity→topic classification features from an embedding table.
pub fn topic_features(table: &EmbeddingTable, corpus: &Corpus) -> (Vec<Vec<f64>>, Vec<usize>) {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for e in 0..corpus.config.vocab {
        xs.push(table.get_f64(&Corpus::entity_name(e)).unwrap());
        ys.push(corpus.topic_of[e]);
    }
    (xs, ys)
}

/// Clustered vectors (mixture of Gaussians) — the shape real embedding
/// tables have, and the structure IVF's coarse quantizer exploits.
pub fn clustered_vectors(
    n: usize,
    dim: usize,
    centers: usize,
    sigma: f64,
    seed: u64,
) -> Vec<Vec<f32>> {
    let mut rng = Xoshiro256::seeded(seed);
    let centroids: Vec<Vec<f64>> = (0..centers)
        .map(|_| (0..dim).map(|_| rng.normal() * 2.0).collect())
        .collect();
    (0..n)
        .map(|_| {
            let c = &centroids[rng.below(centers as u64) as usize];
            c.iter()
                .map(|&m| (m + rng.normal() * sigma) as f32)
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fstore_embed::sgns::train_sgns;
    use fstore_embed::SgnsConfig;

    #[test]
    fn online_fill() {
        let online = OnlineStore::default();
        fill_online(&online, "g", 10, &["a", "b"], 2);
        assert_eq!(online.len(), 20);
    }

    #[test]
    fn mentions_are_well_formed() {
        let corpus = Corpus::generate(starved_corpus(true, 3)).unwrap();
        let ms = make_mentions(&corpus, 100, 4);
        assert_eq!(ms.len(), 100);
        for m in &ms {
            assert_eq!(m.candidates.len(), 5);
            assert_eq!(m.context.len(), 4);
            let gold_entity = m.candidates[m.gold];
            // distractors are cross-topic
            for (i, &c) in m.candidates.iter().enumerate() {
                if i != m.gold {
                    assert_ne!(corpus.topic_of[c], corpus.topic_of[gold_entity]);
                }
            }
        }
    }

    #[test]
    fn ned_evaluator_scores_perfect_oracle() {
        // an "oracle" table: entity e gets one-hot of its topic → context
        // mean matches gold exactly, distractors orthogonal
        let corpus = Corpus::generate(starved_corpus(true, 5)).unwrap();
        let mut table = EmbeddingTable::new(corpus.kg.num_types()).unwrap();
        for e in 0..corpus.config.vocab {
            let mut v = vec![0.0f32; corpus.kg.num_types()];
            v[corpus.topic_of[e]] = 1.0;
            table.insert(Corpus::entity_name(e), v).unwrap();
        }
        let ms = make_mentions(&corpus, 200, 6);
        let (_, overall) = ned_accuracy(&table, &corpus, &ms, 5);
        assert!(
            (overall - 1.0).abs() < 1e-12,
            "oracle must score 1.0, got {overall}"
        );
    }

    #[test]
    fn topic_features_shapes() {
        let corpus = Corpus::generate(corpus_preset(true, 7)).unwrap();
        let (t, _) = train_sgns(
            &corpus,
            SgnsConfig {
                dim: 8,
                epochs: 1,
                ..SgnsConfig::default()
            },
        )
        .unwrap();
        let (xs, ys) = topic_features(&t, &corpus);
        assert_eq!(xs.len(), corpus.config.vocab);
        assert_eq!(ys.len(), corpus.config.vocab);
        assert!(xs.iter().all(|x| x.len() == 8));
    }
}
