//! End-to-end tiered serving over TCP: a working set several times the
//! RAM budget, served through `GetEmbedding` and the search endpoints,
//! must answer byte-identically to a fully-resident oracle while resident
//! embedding bytes stay inside the budget — the tier must be invisible
//! except in the metrics.

use fstore_common::Timestamp;
use fstore_core::FeatureServer;
use fstore_embed::{EmbeddingDb, EmbeddingProvenance, EmbeddingTable};
use fstore_serve::{
    fixed_clock, start, IndexCatalog, IndexSpec, SearchOptions, ServeConfig, ServeEngine, StoreApi,
};
use fstore_storage::OnlineStore;
use fstore_tier::{TierConfig, TieredEmbeddings};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

const DIM: usize = 16;
const ROWS: usize = 64;
const VERSIONS: u32 = 12;
/// 12 versions × 4 KiB = 48 KiB working set against a 10 KiB budget.
const BUDGET: u64 = 10 * 1024;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fstore_tier_serve_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn vector_for(version: u32, row: usize) -> Vec<f32> {
    (0..DIM)
        .map(|j| (u64::from(version) * 100_000 + (row * DIM + j) as u64) as f32 * 0.125)
        .collect()
}

fn table_for(version: u32) -> EmbeddingTable {
    let mut t = EmbeddingTable::new(DIM).unwrap();
    for row in 0..ROWS {
        t.insert(format!("k{row:03}"), vector_for(version, row))
            .unwrap();
    }
    t
}

#[test]
fn tcp_serving_is_byte_identical_with_working_set_over_budget() {
    let db = EmbeddingDb::new();
    // Oracle: every (version, key) → vector, kept fully resident here.
    let mut oracle: HashMap<(u32, String), Vec<f32>> = HashMap::new();
    for version in 1..=VERSIONS {
        for row in 0..ROWS {
            oracle.insert((version, format!("k{row:03}")), vector_for(version, row));
        }
        db.publish(
            "emb",
            table_for(version),
            EmbeddingProvenance::default(),
            Timestamp::millis(i64::from(version)),
        )
        .unwrap();
    }
    let working_set: u64 = (VERSIONS as u64) * (ROWS * DIM * 4) as u64;
    assert!(working_set >= 4 * BUDGET, "working set must dwarf budget");

    let mut config = TierConfig::new(tmp_dir("e2e"), BUDGET);
    config.block_bytes = 512;
    let tier = TieredEmbeddings::attach(&db, config).unwrap();
    let catalog = Arc::new(IndexCatalog::new(db.clone()));
    catalog.build("emb", &IndexSpec::Flat).unwrap();
    tier.attach_catalog(Arc::clone(&catalog));
    tier.demote_now().unwrap();

    let engine = ServeEngine::new(
        FeatureServer::new(Arc::new(OnlineStore::default())),
        fixed_clock(Timestamp::millis(0)),
    )
    .with_embeddings(db.clone())
    .with_index_catalog(catalog);
    let handle = start(engine, ServeConfig::default()).unwrap();
    tier.attach_metrics(&handle.metrics());

    let mut client = fstore_serve::FeatureClient::connect(handle.addr()).unwrap();

    // Every row of every version — resident latest and spilled cold — is
    // byte-identical to the oracle, twice (second pass hits the cache).
    for round in 0..2 {
        for version in 1..=VERSIONS {
            let table = format!("emb@v{version}");
            for row in 0..ROWS {
                let key = format!("k{row:03}");
                let read = client.get_embedding(&table, &key).unwrap();
                assert_eq!(read.version, version);
                assert_eq!(read.dim, DIM);
                assert_eq!(
                    read.vector,
                    oracle[&(version, key.clone())],
                    "round {round} {table} {key}"
                );
            }
        }
    }

    // Search anchors resolve over the wire too (latest table, flat index).
    let hits = client
        .search_nearest_by_key("emb", "k007", 5, SearchOptions::default())
        .unwrap();
    assert_eq!(hits.hits.len(), 5);
    assert!(
        hits.hits.windows(2).all(|w| w[0].distance <= w[1].distance),
        "hits sorted by distance"
    );

    // The tier section made it into the metrics snapshot, and residency
    // stayed bounded while serving 4×+ the budget.
    let snapshot = handle.metrics().snapshot();
    let tier_section = snapshot.tier.expect("tier metrics wired in");
    assert_eq!(tier_section.budget_bytes, BUDGET);
    assert!(
        tier_section.peak_resident_bytes <= BUDGET,
        "peak {} over budget {}",
        tier_section.peak_resident_bytes,
        BUDGET
    );
    assert!(tier_section.spilled_versions >= VERSIONS as u64 - 2);
    assert!(tier_section.spilled_bytes >= 3 * BUDGET);
    assert!(tier_section.cache_hits > 0, "second pass should hit");
    assert!(tier_section.hit_rate.unwrap() > 0.0);
    assert!(tier_section.faults > 0);
    assert!(tier_section.fault_p99_ms.is_some());
    assert!(tier_section.demotions >= tier_section.spilled_versions);
    assert_eq!(tier.last_error(), None);

    // Zero-copy satellite: embedding responses encoded from shared blocks
    // never bump the copy counter.
    assert_eq!(
        snapshot.wire.embed_copies, 0,
        "embedding responses must not copy vectors"
    );

    handle.shutdown();
    tier.shutdown();
}

/// Demotion frees what it spills. Once no reader holds the snapshot taken
/// before a pass, neither that snapshot nor the resident table of a version
/// the pass spilled stays alive: the db keeps only its current snapshot, so
/// no retained history pins bytes outside the tier's accounting.
#[test]
fn demotion_leaves_no_superseded_snapshot_alive() {
    let db = EmbeddingDb::new();
    // 3 versions × 4 KiB against a 10 KiB budget: the pass spills v1 and
    // v2 (two publications), and keeps the latest resident.
    for version in 1..=3 {
        db.publish(
            "emb",
            table_for(version),
            EmbeddingProvenance::default(),
            Timestamp::millis(i64::from(version)),
        )
        .unwrap();
    }
    let before = db.read().value;
    let snapshot = Arc::downgrade(&before);
    let cold: Vec<_> = before
        .iter_versions()
        .filter(|v| v.version < 3)
        .map(Arc::downgrade)
        .collect();
    drop(before);

    let mut config = TierConfig::new(tmp_dir("weak"), BUDGET);
    config.block_bytes = 512;
    let tier = TieredEmbeddings::attach(&db, config).unwrap();
    tier.demote_now().unwrap();
    let after = db.snapshot();
    assert!(after.get("emb", 1).unwrap().table.is_spilled());
    assert!(after.get("emb", 2).unwrap().table.is_spilled());
    assert!(!after.latest("emb").unwrap().table.is_spilled());
    assert_eq!(tier.stats().snapshot().spilled_versions, 2);

    assert!(
        snapshot.upgrade().is_none(),
        "a superseded snapshot outlived its last reader"
    );
    // Each demotion published once; the snapshot between the two still
    // held v2's resident table, so this also fails if any one superseded
    // snapshot is kept.
    assert_eq!(cold.len(), 2);
    for version in &cold {
        assert!(
            version.upgrade().is_none(),
            "a demoted version's resident table is still alive"
        );
    }
    tier.shutdown();
}
