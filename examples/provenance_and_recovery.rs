//! Provenance and recovery: the reproducibility story (paper §2.2.2,
//! "relevant parameters and artifacts need to be stored for provenance and
//! reproducibility").
//!
//! Demonstrates:
//!  1. the registry's versioned feature definitions + JSON export;
//!  2. the model store's full artifacts (params, feature-set pins,
//!     embedding lineage, seed, data range) with export/import round trip;
//!  3. offline-store snapshots: save the warehouse, lose it, restore it,
//!     and rebuild the exact same training set;
//!  4. embedding provenance: version ancestry after a patch.
//!
//! Run with: `cargo run --example provenance_and_recovery`

use fstore::embed::sgns::train_sgns;
use fstore::prelude::*;

fn main() -> Result<()> {
    // ------------------------------------------------------------------
    // A working feature store with one materialized feature
    // ------------------------------------------------------------------
    let mut fs = FeatureStore::new(Timestamp::EPOCH);
    fs.create_source_table(
        "orders",
        TableConfig::new(Schema::of(&[
            ("customer", ValueType::Str),
            ("ts", ValueType::Timestamp),
            ("total", ValueType::Float),
        ]))
        .with_time_column("ts"),
    )?;
    let mut rng = Xoshiro256::seeded(3);
    let rows: Vec<Vec<Value>> = (0..300)
        .map(|i| {
            vec![
                Value::from(format!("c{}", i % 30)),
                Value::Timestamp(Timestamp::millis(i * 120_000)),
                Value::Float(20.0 + rng.exponential(0.1)),
            ]
        })
        .collect();
    fs.ingest("orders", &rows)?;
    fs.publish(
        FeatureSpec::new("avg_order_1d", "customer", "orders", "total")
            .aggregated(AggFunc::Avg, Duration::days(1))
            .cadence(Duration::hours(1))
            .owner("growth-team")
            .tag("ltv"),
    )?;
    fs.advance(Duration::hours(10))?;

    // ------------------------------------------------------------------
    // 1. Registry export: every published definition, fully reproducible
    // ------------------------------------------------------------------
    println!("== registry export ==");
    let registry_json = fs.registry().export_json()?;
    println!(
        "    {} bytes of definitions; avg_order_1d expression: {:?}",
        registry_json.len(),
        fs.registry().get("avg_order_1d")?.expression
    );

    // ------------------------------------------------------------------
    // 2. Model artifacts with full lineage, exported and re-imported
    // ------------------------------------------------------------------
    println!("\n== model store round trip ==");
    let now = fs.now();
    fs.registry_mut()
        .register_set("ltv_v1", &["avg_order_1d"], now)?;
    let labels: Vec<LabelEvent> = (0..30)
        .map(|c| LabelEvent::new(format!("c{c}"), now, f64::from(u8::from(c % 2 == 0))))
        .collect();
    let training = fs.training_set("ltv_v1", &labels)?;
    let (xs, ys_vals) = training.feature_matrix(0.0);
    let ys: Vec<usize> = ys_vals
        .iter()
        .map(|v| v.as_f64().unwrap() as usize)
        .collect();
    let model = LogisticRegression::train(&xs, &ys, &TrainConfig::default().with_seed(42))?;

    let mut artifact = fstore::core::modelstore::artifact("ltv", model.to_json()?);
    artifact.feature_set = "ltv_v1".into();
    artifact.features = fs.registry().get_set("ltv_v1")?.features.clone();
    artifact.training_range = (Timestamp::EPOCH, now);
    artifact.seed = 42;
    artifact
        .metrics
        .insert("train_acc".into(), model.accuracy(&xs, &ys)?);
    let saved = fs.models_mut().save(artifact)?;
    println!(
        "    saved {} (feature pins {:?})",
        saved.qualified_name(),
        saved.features
    );

    let exported = fs.models().export_json("ltv")?;
    let mut other_store = fstore::core::ModelStore::new();
    other_store.import_json(&exported)?;
    let restored_model = LogisticRegression::from_json(&other_store.latest("ltv")?.params)?;
    assert_eq!(
        restored_model.predict_batch(&xs)?,
        model.predict_batch(&xs)?
    );
    println!("    re-imported artifact reproduces identical predictions ✓");

    // ------------------------------------------------------------------
    // 3. Warehouse snapshot → disaster → restore → identical training set
    // ------------------------------------------------------------------
    println!("\n== offline snapshot & restore ==");
    let off = fs.offline_snapshot();
    let snapshot = off.encode_binary();
    println!(
        "    snapshot: {} bytes covering {:?}",
        snapshot.len(),
        off.table_names()
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
    );
    // "disaster": a brand-new process restores the warehouse…
    let restored = OfflineStore::decode_binary(&snapshot)?;
    // …and rebuilds the exact same PIT training set from the pins.
    let feats = [PitFeature::materialized("avg_order_1d", 1)];
    let rebuilt = point_in_time_join(&restored, &labels, &feats)?;
    assert_eq!(rebuilt.rows, training.rows);
    println!("    restored warehouse reproduces the training set row-for-row ✓");

    // ------------------------------------------------------------------
    // 4. Embedding ancestry across a patch
    // ------------------------------------------------------------------
    println!("\n== embedding provenance ==");
    let corpus = Corpus::generate(CorpusConfig {
        vocab: 200,
        topics: 5,
        sentences: 400,
        sentence_len: 10,
        seed: 7,
        ..CorpusConfig::default()
    })?;
    let (table, prov) = train_sgns(
        &corpus,
        SgnsConfig {
            dim: 16,
            epochs: 1,
            ..SgnsConfig::default()
        },
    )?;
    let mut store = EmbeddingStore::new();
    store.publish("cust_emb", table, prov, now)?;
    store.register_consumer("cust_emb@v1", "ltv")?;
    let patched = EmbeddingPatcher::default().patch_toward_exemplars(
        &mut store,
        "cust_emb",
        &["e199".into()],
        &["e0".into(), "e5".into()],
        now,
    )?;
    let v2 = store.resolve(&patched)?;
    println!(
        "    {}: trainer={}, parent=v{}, notes={:?}",
        patched,
        v2.provenance.trainer,
        v2.provenance.parent.unwrap(),
        v2.provenance.notes
    );
    println!(
        "    consumers of v1 to re-verify after the patch: {:?}",
        store.consumers("cust_emb@v1")?
    );

    println!("\nEvery artifact in the pipeline is versioned, exportable, and replayable.");
    Ok(())
}
