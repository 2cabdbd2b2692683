//! E22 — larger-than-RAM embedding serving through the tier (paper §4's
//! "entire embedding ecosystems" scale claim).
//!
//! Claim: embedding versions accumulate — every retrain adds one — and
//! pinning them all in RAM makes version history a luxury. The tier keeps
//! the hot (latest, index-referenced) versions resident and spills cold
//! history to block-aligned segments served through a bounded hot-block
//! cache, so a working set several times the RAM budget serves correctly
//! with bounded memory.
//!
//! Setup: publish a version history whose total vector payload is ≥4× the
//! tier's RAM budget, demote, and drive `GetEmbedding` over a real TCP
//! socket with a skewed version mix (hot latest, cold tail). Every
//! response is compared byte-for-byte against a fully-resident oracle
//! built at publish time. Acceptance is structural, not statistical:
//!
//! * working set ≥ 4× budget (checked, or the run is meaningless),
//! * peak resident embedding bytes ≤ budget,
//! * every vector byte-identical to the oracle,
//! * embedding responses never copy vectors (the E21 steady-state
//!   allocation discipline, extended to the embedding path),
//!
//! and the cache hit rate plus fault latency p50/p99 are reported in the
//! table and in `BENCH_tier.json` (see
//! [`write_artifact`](super::write_artifact)).

use fstore_common::{Result, Rng, Timestamp, Xoshiro256};
use fstore_core::FeatureServer;
use fstore_embed::{EmbeddingDb, EmbeddingProvenance, EmbeddingTable};
use fstore_serve::{fixed_clock, start, ServeConfig, ServeEngine, StoreApi, TierSnapshot};
use fstore_storage::OnlineStore;
use fstore_tier::{TierConfig, TieredEmbeddings};
use serde::Serialize;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use crate::table::{f1, f3, Table};

const DIM: usize = 64;
const NOW: Timestamp = Timestamp(60_000);

#[derive(Serialize)]
struct Artifact {
    experiment: String,
    dim: usize,
    rows_per_version: usize,
    versions: u32,
    budget_bytes: u64,
    working_set_bytes: u64,
    working_set_over_budget: f64,
    requests: u64,
    byte_identical: bool,
    client_p50_ms: Option<f64>,
    client_p99_ms: Option<f64>,
    embed_copies: u64,
    tier: TierSnapshot,
}

fn vector_for(version: u32, row: usize) -> Vec<f32> {
    (0..DIM)
        .map(|j| (u64::from(version) * 1_000_003 + (row * DIM + j) as u64) as f32 * 0.0625)
        .collect()
}

fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    Some(sorted[idx])
}

fn tier_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fstore_e22_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

pub fn run(quick: bool) -> Result<()> {
    let versions: u32 = if quick { 8 } else { 16 };
    let rows: usize = if quick { 128 } else { 256 };
    let requests: u64 = if quick { 4_000 } else { 20_000 };
    let version_bytes = (rows * DIM * 4) as u64;
    let working_set = u64::from(versions) * version_bytes;
    // The budget is a quarter of the working set — the tier serves 4× RAM.
    let budget = working_set / 4;

    // Publish the version history; the oracle stays fully resident here.
    let db = EmbeddingDb::new();
    let mut oracle: HashMap<(u32, String), Vec<f32>> = HashMap::new();
    for version in 1..=versions {
        let mut t = EmbeddingTable::new(DIM)?;
        for row in 0..rows {
            let key = format!("k{row:04}");
            let v = vector_for(version, row);
            oracle.insert((version, key.clone()), v.clone());
            t.insert(key, v)?;
        }
        db.publish(
            "emb",
            t,
            EmbeddingProvenance::default(),
            Timestamp::millis(i64::from(version)),
        )?;
    }

    let mut config = TierConfig::new(tier_dir(), budget);
    config.block_bytes = 16 * 1024;
    let tier = TieredEmbeddings::attach(&db, config)?;
    tier.demote_now()?;

    let engine = ServeEngine::new(
        FeatureServer::new(Arc::new(OnlineStore::default())),
        fixed_clock(NOW),
    )
    .with_embeddings(db.clone());
    let handle = start(engine, ServeConfig::default())
        .map_err(|e| fstore_common::FsError::Storage(format!("bind loopback: {e}")))?;
    tier.attach_metrics(&handle.metrics());

    // Skewed access over the wire: most reads hit the latest (resident)
    // version, the tail sweeps cold history so the pager earns its keep.
    let mut client = fstore_serve::FeatureClient::connect(handle.addr())
        .map_err(|e| fstore_common::FsError::Storage(format!("connect: {e}")))?;
    let mut rng = Xoshiro256::seeded(22);
    let mut latencies: Vec<f64> = Vec::with_capacity(requests as usize);
    let mut byte_identical = true;
    for _ in 0..requests {
        let version = if rng.next_u64() % 100 < 40 {
            versions // hot: the pinned latest
        } else {
            (rng.next_u64() % u64::from(versions)) as u32 + 1
        };
        let row = (rng.next_u64() as usize) % rows;
        let key = format!("k{row:04}");
        let table = format!("emb@v{version}");
        let t0 = Instant::now();
        let read = client
            .get_embedding(&table, &key)
            .map_err(|e| fstore_common::FsError::Storage(format!("read {table}/{key}: {e}")))?;
        latencies.push(t0.elapsed().as_secs_f64() * 1e3);
        if read.vector != oracle[&(version, key)] {
            byte_identical = false;
        }
    }
    latencies.sort_by(|a, b| a.total_cmp(b));

    let snapshot = handle.metrics().snapshot();
    let tier_section = snapshot
        .tier
        .expect("tier metrics provider wired into the server");
    let embed_copies = snapshot.wire.embed_copies;

    let mut table = Table::new(&["metric", "value"]);
    table
        .row(vec![
            "working set / budget".into(),
            format!(
                "{} KiB / {} KiB ({:.1}x)",
                working_set / 1024,
                budget / 1024,
                working_set as f64 / budget as f64
            ),
        ])
        .row(vec![
            "peak resident".into(),
            format!("{} KiB", tier_section.peak_resident_bytes / 1024),
        ])
        .row(vec![
            "spilled".into(),
            format!(
                "{} versions, {} KiB",
                tier_section.spilled_versions,
                tier_section.spilled_bytes / 1024
            ),
        ])
        .row(vec![
            "cache hit rate".into(),
            tier_section.hit_rate.map_or("-".into(), f3),
        ])
        .row(vec![
            "faults (p50 / p99 ms)".into(),
            format!(
                "{} ({} / {})",
                tier_section.faults,
                tier_section.fault_p50_ms.map_or("-".into(), f3),
                tier_section.fault_p99_ms.map_or("-".into(), f3)
            ),
        ])
        .row(vec![
            "client p50 / p99 ms".into(),
            format!(
                "{} / {}",
                percentile(&latencies, 0.50).map_or("-".into(), f1),
                percentile(&latencies, 0.99).map_or("-".into(), f1)
            ),
        ])
        .row(vec![
            "demotions / evictions".into(),
            format!("{} / {}", tier_section.demotions, tier_section.evictions),
        ])
        .row(vec!["embed copies".into(), embed_copies.to_string()])
        .row(vec!["byte identical".into(), byte_identical.to_string()]);
    table.print();

    // Acceptance — structural, loud failures.
    if working_set < 4 * budget {
        return Err(fstore_common::FsError::Storage(format!(
            "working set {working_set} under 4x budget {budget}; the run proves nothing"
        )));
    }
    if tier_section.peak_resident_bytes > budget {
        return Err(fstore_common::FsError::Storage(format!(
            "peak resident {} exceeded the {budget}-byte budget",
            tier_section.peak_resident_bytes
        )));
    }
    if !byte_identical {
        return Err(fstore_common::FsError::Storage(
            "a tiered read diverged from the fully-resident oracle".into(),
        ));
    }
    if embed_copies > 0 {
        return Err(fstore_common::FsError::Storage(format!(
            "{embed_copies} embedding responses copied their vector (want 0)"
        )));
    }

    let artifact = Artifact {
        experiment: "e22_tiered_embeddings".to_string(),
        dim: DIM,
        rows_per_version: rows,
        versions,
        budget_bytes: budget,
        working_set_bytes: working_set,
        working_set_over_budget: working_set as f64 / budget as f64,
        requests,
        byte_identical,
        client_p50_ms: percentile(&latencies, 0.50),
        client_p99_ms: percentile(&latencies, 0.99),
        embed_copies,
        tier: tier_section,
    };
    super::write_artifact("BENCH_tier.json", &artifact)?;
    println!(
        "\nShape check: a working set {:.1}x the RAM budget served entirely\n\
         over TCP with resident embedding bytes bounded by the budget, every\n\
         vector byte-identical to the resident oracle, and zero per-response\n\
         vector copies. Cold-version reads pay a block fault (p99 above);\n\
         re-reads hit the cache at the rate reported.",
        working_set as f64 / budget as f64
    );

    handle.shutdown();
    tier.shutdown();
    Ok(())
}
