//! The embedding ecosystem lifecycle (paper §3): pretrain → publish →
//! serve at scale → consume downstream → retrain → measure churn →
//! compress under a memory budget → monitor for semantic drift → patch.
//!
//! Run with: `cargo run --example embedding_ecosystem --release`

use fstore::embed::sgns::train_sgns;
use fstore::monitor::drift::EmbeddingDriftThresholds;
use fstore::prelude::*;

fn main() -> Result<()> {
    // ------------------------------------------------------------------
    // Pretrain on self-supervised data and publish to the embedding store
    // ------------------------------------------------------------------
    println!("== pretrain & publish ==");
    let corpus = Corpus::generate(CorpusConfig {
        vocab: 800,
        topics: 16,
        sentences: 3_000,
        sentence_len: 12,
        seed: 5,
        ..CorpusConfig::default()
    })?;
    let cfg = SgnsConfig {
        dim: 32,
        epochs: 3,
        seed: 1,
        ..SgnsConfig::default()
    };
    let (v1, prov) = train_sgns(&corpus, cfg.clone())?;
    let mut store = EmbeddingStore::new();
    let q1 = store.publish("ent", v1, prov, Timestamp::EPOCH)?;
    println!(
        "    published {q1}: {} entities × {} dims",
        store.latest("ent")?.table.len(),
        32
    );

    // ------------------------------------------------------------------
    // Serve at scale: ANN indexes over the table
    // ------------------------------------------------------------------
    println!("\n== similarity serving (E9 in miniature) ==");
    let table = &store.latest("ent")?.table;
    let keys = table.keys();
    let mut data: Vec<Vec<f32>> = keys
        .iter()
        .map(|k| table.get(k).unwrap().to_vec())
        .collect();
    fstore::index::normalize_all(&mut data); // cosine = L2 on unit vectors
    let flat = FlatIndex::build(data.clone())?;
    let hnsw = HnswIndex::build(data.clone(), HnswConfig::default())?;
    let ivf = IvfIndex::build(
        data.clone(),
        IvfConfig {
            nlist: 32,
            nprobe: 4,
            ..IvfConfig::default()
        },
    )?;
    let queries: Vec<Vec<f32>> = data.iter().step_by(40).cloned().collect();
    println!(
        "    recall@10  flat {:.3}  hnsw {:.3}  ivf(nprobe=4) {:.3}",
        recall_at_k(&flat, &flat, &queries, 10, &SearchParams::default())?,
        recall_at_k(&hnsw, &flat, &queries, 10, &SearchParams::default())?,
        recall_at_k(&ivf, &flat, &queries, 10, &SearchParams::default())?
    );

    // ------------------------------------------------------------------
    // Downstream consumer: topic classifier on embedding features
    // ------------------------------------------------------------------
    println!("\n== downstream consumers ==");
    let features = |t: &EmbeddingTable| -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for e in 0..corpus.config.vocab {
            xs.push(t.get_f64(&Corpus::entity_name(e)).unwrap());
            ys.push(corpus.topic_of[e]);
        }
        (xs, ys)
    };
    let t1_ref = store.latest("ent")?.table.clone();
    let (xs, ys) = features(&t1_ref);
    let model_v1 = SoftmaxRegression::train(&xs, &ys, 16, &TrainConfig::default())?;
    println!(
        "    topic classifier on {q1}: accuracy {:.3}",
        model_v1.accuracy(&xs, &ys)?
    );
    store.register_consumer(&q1, "topic_classifier")?;

    // ------------------------------------------------------------------
    // Retrain → version churn → downstream instability (Leszczynski)
    // ------------------------------------------------------------------
    println!("\n== retrain & measure churn ==");
    let (v2, prov2) = train_sgns(
        &corpus,
        SgnsConfig {
            seed: 2,
            ..cfg.clone()
        },
    )?;
    let q2 = store.publish("ent", v2, prov2, Timestamp::millis(1))?;
    let t1 = store.get("ent", 1)?.table.clone();
    let t2 = store.get("ent", 2)?.table.clone();
    println!("    {q2} vs {q1}:");
    println!(
        "      knn overlap@10        {:.3}",
        knn_overlap(&t1, &t2, 10, None)?
    );
    println!(
        "      eigenspace overlap    {:.3}",
        eigenspace_overlap(&t1, &t2)?
    );
    println!(
        "      semantic displacement {:.3}",
        semantic_displacement(&t1, &t2)?
    );

    let (xs2, _) = features(&t2);
    let model_v2 = SoftmaxRegression::train(&xs2, &ys, 16, &TrainConfig::default())?;
    let p1 = model_v1.predict_batch(&xs)?;
    let p2 = model_v2.predict_batch(&xs2)?;
    println!(
        "      downstream instability (prediction flips): {:.3}",
        prediction_flips(&p1, &p2)?
    );

    // ------------------------------------------------------------------
    // Compression under a memory budget (May et al.)
    // ------------------------------------------------------------------
    println!("\n== compression ==");
    for bits in [2u8, 4, 8] {
        let q = QuantizedTable::quantize(&t2, bits)?;
        let dq = q.dequantize()?;
        let overlap = eigenspace_overlap(&t2, &dq)?;
        let (xq, _) = features(&dq);
        let mq = SoftmaxRegression::train(&xq, &ys, 16, &TrainConfig::default())?;
        println!(
            "    {bits}-bit: payload {:>6} B, eigenspace overlap {:.3}, downstream accuracy {:.3}",
            q.payload_bytes(),
            overlap,
            mq.accuracy(&xq, &ys)?
        );
    }
    let pca = PcaModel::fit(&t2, 8)?;
    let reduced = pca.transform_table(&t2)?;
    println!(
        "    PCA 32→8: explained variance {:.3}, eigenspace overlap {:.3}",
        pca.explained_variance,
        eigenspace_overlap(&t2, &reduced)?
    );

    // ------------------------------------------------------------------
    // Monitor embedding drift, then patch a bad subpopulation
    // ------------------------------------------------------------------
    println!("\n== drift & patching ==");
    let sample: Vec<Vec<f64>> = (0..200)
        .map(|e| t2.get_f64(&Corpus::entity_name(e)).unwrap())
        .collect();
    let monitor = EmbeddingDriftMonitor::fit(&sample, EmbeddingDriftThresholds::default())?;
    // live window: same entities, but the upstream encoder changed — every
    // vector shifted along one semantic direction (marginals barely move)
    let live: Vec<Vec<f64>> = sample
        .iter()
        .map(|v| {
            let mut v = v.clone();
            v[0] += 1.5;
            v
        })
        .collect();
    println!(
        "    drift vs same entities:      {:?}",
        monitor.alert_level(&sample)?
    );
    println!(
        "    drift vs shifted population: {:?}",
        monitor.alert_level(&live)?
    );

    // patch the 5 least-stable tail entities toward their topic exemplars
    let tail_band = corpus.popularity_bands(10).pop().unwrap();
    let bad: Vec<String> = tail_band
        .iter()
        .take(5)
        .map(|&e| Corpus::entity_name(e))
        .collect();
    let topic = corpus.topic_of[tail_band[0]];
    let exemplars: Vec<String> = (0..corpus.config.vocab)
        .filter(|&e| corpus.topic_of[e] == topic)
        .take(5)
        .map(Corpus::entity_name)
        .collect();
    let patched = EmbeddingPatcher::default().patch_toward_exemplars(
        &mut store,
        "ent",
        &bad,
        &exemplars,
        Timestamp::millis(2),
    )?;
    let v3 = store.resolve(&patched)?;
    println!(
        "    published {} (parent v{}): {}",
        patched,
        v3.provenance.parent.unwrap_or_default(),
        v3.provenance.notes
    );
    Ok(())
}
