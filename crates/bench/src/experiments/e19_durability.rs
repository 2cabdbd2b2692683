//! E19 — durability: SIGKILL mid-write-storm, restart into the last
//! published epoch (DESIGN.md §2.14).
//!
//! Claim: the WAL + checkpoint stack turns a hard process kill into a
//! bounded restart with **zero wrong answers**. A victim process (this
//! same binary, re-exec'd with a hidden `e19-victim` subcommand) opens a
//! `DurableLeader`, seeds a deterministic base (offline rows, embeddings,
//! an index, online rows), checkpoints, then storms batched offline
//! appends of consecutive integers until the parent SIGKILLs it — on
//! purpose mid-batch, with no chance to flush or say goodbye.
//!
//! The parent then recovers **in-process** from the victim's directory and
//! asserts:
//!
//! * **exact committed prefix** — the recovered table holds exactly the
//!   integers `0..n` in order: every acknowledged batch survived whole,
//!   and nothing torn, duplicated, or invented got in;
//! * **zero wrong answers** — `GetEmbedding` / `SearchNearest` answers are
//!   byte-identical to an independently built oracle, online rows match
//!   the seeded values, and a *second* restart answers every probe
//!   byte-identically to the first (recovery is deterministic);
//! * **disk bootstrap beats re-materialization** — `DurableLeader::open`
//!   (binary checkpoint + WAL tail replay) is measurably faster than
//!   rebuilding the same state through the ordinary publish path.
//!
//! Results are also written to `BENCH_durable.json` by
//! [`write_artifact`](super::write_artifact).

use crate::table::Table;
use fstore_common::{EntityKey, FsError, Result, Schema, Timestamp, Value, ValueType};
use fstore_core::FeatureServer;
use fstore_durable::{DurableConfig, DurableLeader, FsyncPolicy};
use fstore_embed::{EmbeddingDb, EmbeddingProvenance, EmbeddingTable};
use fstore_serve::{
    fixed_clock, start, FeatureClient, IndexCatalog, IndexSpec, Request, Response, ServeConfig,
    ServeEngine,
};
use fstore_storage::{OfflineDb, OnlineStore, ScanRequest, TableConfig};
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NOW: Timestamp = Timestamp(60_000);
const EMB_DIM: usize = 8;
const BATCH: usize = 64;

fn base_rows(quick: bool) -> usize {
    if quick {
        50_000
    } else {
        200_000
    }
}

fn durable_config() -> DurableConfig {
    DurableConfig {
        // Batched fsync: commits still land in the OS page cache in order,
        // which a SIGKILL cannot lose — only power loss can, and that is
        // what `FsyncPolicy::Always` is for.
        fsync: FsyncPolicy::EveryN(16),
    }
}

#[derive(Serialize)]
struct Artifact {
    experiment: String,
    base_rows: usize,
    rows_recovered: usize,
    storm_batches_committed: usize,
    checkpoint_epoch: u64,
    recovered_epoch: u64,
    replayed_wal_records: usize,
    dropped_uncommitted: usize,
    truncated_bytes: u64,
    wrong_answers: u64,
    probes: usize,
    recovery_ms: f64,
    rematerialize_ms: f64,
    speedup: f64,
}

/// Deterministic static seed shared by the victim and the oracle: the
/// embedding table, its index, and the online rows. (The offline rows are
/// seeded separately — the victim streams them, the oracle replays them.)
fn seed_static(
    embeddings: &EmbeddingDb,
    indexes: &IndexCatalog,
    mut put_online: impl FnMut(&str, &EntityKey, &[(&str, Value)]),
) -> Result<()> {
    let mut emb = EmbeddingTable::new(EMB_DIM)?;
    for i in 0..64 {
        let v: Vec<f32> = (0..EMB_DIM)
            .map(|d| (i * EMB_DIM + d) as f32 * 0.125)
            .collect();
        emb.insert(format!("e{i:04}"), v)?;
    }
    embeddings.publish("emb", emb, EmbeddingProvenance::default(), NOW)?;
    indexes
        .build("emb", &IndexSpec::Flat)
        .map_err(|e| FsError::Storage(format!("build index: {e}")))?;
    for u in 0..5 {
        put_online(
            "user",
            &EntityKey::new(format!("u{u}")),
            &[("score", Value::Float(u as f64 * 0.25))],
        );
    }
    Ok(())
}

fn events_config() -> TableConfig {
    TableConfig::new(Schema::of(&[("n", ValueType::Int)]))
}

/// Append `rows` consecutive integers starting at `from`, in `BATCH`-row
/// publications — the one write shape both the victim and the oracle use.
fn append_batches(offline: &OfflineDb, from: usize, rows: usize) -> Result<()> {
    let mut next = from;
    let end = from + rows;
    while next < end {
        let stop = (next + BATCH).min(end);
        offline.write(|s| {
            for i in next..stop {
                s.append("events", &[Value::Int(i as i64)])?;
            }
            Ok(())
        })?;
        next = stop;
    }
    Ok(())
}

/// The victim half: runs in a child process and never returns — it storms
/// appends until the parent SIGKILLs it. Invoked via the hidden
/// `e19-victim <dir> [--quick]` subcommand of the `experiments` binary.
pub fn victim(dir: &str, quick: bool) -> Result<()> {
    let (leader, _) = DurableLeader::open(dir, durable_config())?;
    leader
        .offline()
        .write(|s| s.create_table("events", events_config()))?;
    seed_static(leader.embeddings(), leader.indexes(), |g, e, v| {
        leader.put_online(g, e, v, NOW).expect("seed online write");
    })?;
    append_batches(leader.offline(), 0, base_rows(quick))?;
    leader.checkpoint()?;

    // Tell the parent the storm is on, then write until killed.
    std::fs::write(Path::new(dir).join("STORMING"), b"1")
        .map_err(|e| FsError::Storage(format!("write storm marker: {e}")))?;
    let mut next = base_rows(quick);
    loop {
        append_batches(leader.offline(), next, BATCH)?;
        next += BATCH;
    }
}

fn probe_requests() -> Vec<Request> {
    vec![
        Request::GetEmbedding {
            table: "emb".into(),
            key: "e0002".into(),
        },
        Request::SearchNearest {
            table: "emb".into(),
            query: vec![1.0; EMB_DIM],
            k: 5,
            options: Default::default(),
        },
        Request::GetFeatures {
            group: "user".into(),
            entity: "u1".into(),
            features: vec!["score".into()],
        },
    ]
}

/// Serve `engine` on a loopback socket and capture each probe's bytes.
fn capture_engine(engine: ServeEngine) -> Result<Vec<Vec<u8>>> {
    let config = ServeConfig::builder()
        .addr("127.0.0.1:0")
        .workers(2)
        .queue_depth(64)
        .max_batch(8)
        .build()
        .map_err(|e| FsError::Storage(format!("serve config: {e}")))?;
    let handle =
        start(engine, config).map_err(|e| FsError::Storage(format!("start server: {e}")))?;
    let mut client = FeatureClient::connect(handle.addr())
        .map_err(|e| FsError::Storage(format!("connect: {e}")))?;
    let captures = probe_requests()
        .iter()
        .map(|request| {
            let response = client
                .call(request)
                .map_err(|e| FsError::Storage(format!("probe: {e}")))?;
            assert!(
                !matches!(response, Response::Error { .. }),
                "probe errored: {response:?}"
            );
            Ok(response.encode().to_vec())
        })
        .collect::<Result<Vec<_>>>()?;
    drop(client);
    handle.shutdown();
    Ok(captures)
}

fn capture(leader: &Arc<DurableLeader>) -> Result<Vec<Vec<u8>>> {
    capture_engine(leader.engine(fixed_clock(NOW)))
}

pub fn run(quick: bool) -> Result<()> {
    let storm = Duration::from_millis(if quick { 300 } else { 800 });
    let dir = std::env::temp_dir().join(format!("fstore_e19_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).map_err(|e| FsError::Storage(format!("mkdir: {e}")))?;

    println!(
        "victim child seeds {} base rows + embeddings/index/online, checkpoints,\n\
         then storms {BATCH}-row appends; parent SIGKILLs it after {storm:?} of storm\n\
         and recovers from its directory in-process\n",
        base_rows(quick)
    );

    // ------------------------------------------------------------------
    // Spawn the victim (this same binary) and kill it mid-storm.
    // ------------------------------------------------------------------
    let exe = std::env::current_exe().map_err(|e| FsError::Storage(format!("current_exe: {e}")))?;
    let mut cmd = std::process::Command::new(&exe);
    cmd.arg("e19-victim").arg(&dir);
    if quick {
        cmd.arg("--quick");
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| FsError::Storage(format!("spawn victim: {e}")))?;

    let marker: PathBuf = dir.join("STORMING");
    let seeding_deadline = Instant::now() + Duration::from_secs(120);
    while !marker.exists() {
        if let Some(status) = child
            .try_wait()
            .map_err(|e| FsError::Storage(format!("poll victim: {e}")))?
        {
            return Err(FsError::Storage(format!(
                "victim exited before storming: {status}"
            )));
        }
        if Instant::now() > seeding_deadline {
            let _ = child.kill();
            return Err(FsError::Storage("victim never started storming".into()));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(storm);
    child
        .kill() // SIGKILL: no handlers, no flush, no goodbye
        .map_err(|e| FsError::Storage(format!("kill victim: {e}")))?;
    child
        .wait()
        .map_err(|e| FsError::Storage(format!("reap victim: {e}")))?;

    // ------------------------------------------------------------------
    // Recover in-process and check what survived.
    // ------------------------------------------------------------------
    let open_started = Instant::now();
    let (revived, report) = DurableLeader::open(&dir, durable_config())?;
    let recovery_ms = open_started.elapsed().as_secs_f64() * 1e3;
    assert!(!report.cold_start, "victim left nothing behind");

    let rows_recovered = revived.offline().read().value.num_rows("events")?;
    assert!(
        rows_recovered >= base_rows(quick),
        "checkpointed base lost: {rows_recovered} < {}",
        base_rows(quick)
    );
    let storm_batches_committed = (rows_recovered - base_rows(quick)) / BATCH;

    // Exact committed prefix: the integers 0..n, in order, nothing else.
    let values =
        revived
            .offline()
            .read()
            .value
            .column_values("events", "n", &ScanRequest::all())?;
    assert_eq!(values.len(), rows_recovered);
    let mut wrong_answers = 0u64;
    for (i, v) in values.iter().enumerate() {
        if *v != Value::Int(i as i64) {
            wrong_answers += 1;
        }
    }
    assert_eq!(
        wrong_answers, 0,
        "recovered rows are not the exact committed prefix"
    );

    // Zero wrong answers over the wire: embedding and search answers are
    // byte-identical to an oracle built from the same static seed, and the
    // seeded online rows read back exactly. (The `GetFeatures` probe
    // stamps the offline epoch — which legitimately differs between the
    // stormed victim and the storm-free oracle — so its bytes are held to
    // the recovery-determinism check below instead.)
    let oracle_embeddings = EmbeddingDb::new();
    let oracle_indexes = Arc::new(IndexCatalog::new(oracle_embeddings.clone()));
    let oracle_online = Arc::new(OnlineStore::default());
    seed_static(&oracle_embeddings, &oracle_indexes, |g, e, v| {
        oracle_online.put_row(g, e, v, NOW)
    })?;
    let answers = capture(&revived)?;
    let probes = answers.len();
    let oracle_engine = ServeEngine::new(
        FeatureServer::new(Arc::clone(&oracle_online)),
        fixed_clock(NOW),
    )
    .with_embeddings(oracle_embeddings.clone())
    .with_index_catalog(Arc::clone(&oracle_indexes));
    let oracle_answers = capture_engine(oracle_engine)?;
    assert_eq!(
        &answers[..2],
        &oracle_answers[..2],
        "recovered embedding/search answers diverged from the oracle"
    );
    for u in 0..5 {
        let entity = EntityKey::new(format!("u{u}"));
        let got = revived
            .online()
            .get("user", &entity, "score")
            .map(|e| e.value.clone());
        let want = oracle_online
            .get("user", &entity, "score")
            .map(|e| e.value.clone());
        assert_eq!(got, want, "online row u{u} diverged after recovery");
    }

    // Determinism: a second restart answers every probe byte-identically.
    drop(revived);
    let (again, second_report) = DurableLeader::open(&dir, durable_config())?;
    assert_eq!(second_report.replayed, 0, "first recovery left WAL debt");
    assert_eq!(second_report.recovered_epoch, report.recovered_epoch);
    let answers_again = capture(&again)?;
    assert_eq!(
        answers, answers_again,
        "two recoveries of the same directory answered differently"
    );

    // ------------------------------------------------------------------
    // Disk bootstrap vs full re-materialization of the same state. The
    // alternative to recovering is re-ingesting everything into a fresh
    // durable leader — the end state must be just as durable, so the
    // rebuild pays the same per-publication WAL costs the victim did.
    // ------------------------------------------------------------------
    let remat_dir = std::env::temp_dir().join(format!("fstore_e19_remat_{}", std::process::id()));
    std::fs::remove_dir_all(&remat_dir).ok();
    let remat_started = Instant::now();
    let (remat, _) = DurableLeader::open(&remat_dir, durable_config())?;
    remat
        .offline()
        .write(|s| s.create_table("events", events_config()))?;
    seed_static(remat.embeddings(), remat.indexes(), |g, e, v| {
        remat.put_online(g, e, v, NOW).expect("seed online write");
    })?;
    append_batches(remat.offline(), 0, rows_recovered)?;
    remat.checkpoint()?;
    let rematerialize_ms = remat_started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        remat.offline().read().value.num_rows("events")?,
        rows_recovered
    );
    drop(remat);
    std::fs::remove_dir_all(&remat_dir).ok();

    let speedup = rematerialize_ms / recovery_ms.max(1e-6);

    // ------------------------------------------------------------------
    // Report and assert.
    // ------------------------------------------------------------------
    let mut table = Table::new(&["metric", "value"]);
    table
        .row(vec!["rows recovered".into(), rows_recovered.to_string()])
        .row(vec![
            "storm batches committed".into(),
            storm_batches_committed.to_string(),
        ])
        .row(vec![
            "checkpoint epoch".into(),
            report.checkpoint_epoch.to_string(),
        ])
        .row(vec![
            "recovered epoch".into(),
            report.recovered_epoch.to_string(),
        ])
        .row(vec![
            "WAL records replayed".into(),
            report.replayed.to_string(),
        ])
        .row(vec![
            "uncommitted dropped".into(),
            report.dropped_uncommitted.to_string(),
        ])
        .row(vec![
            "torn bytes truncated".into(),
            report.truncated_bytes.to_string(),
        ])
        .row(vec!["wrong answers".into(), wrong_answers.to_string()])
        .row(vec!["recovery".into(), format!("{recovery_ms:.1} ms")])
        .row(vec![
            "re-materialization".into(),
            format!("{rematerialize_ms:.1} ms"),
        ])
        .row(vec!["speedup".into(), format!("{speedup:.1}x")]);
    table.print();

    assert!(
        report.recovered_epoch > report.checkpoint_epoch || report.replayed == 0,
        "storm appends vanished without being replayed"
    );
    assert!(
        recovery_ms < rematerialize_ms,
        "disk bootstrap ({recovery_ms:.1} ms) must beat re-materialization \
         ({rematerialize_ms:.1} ms)"
    );

    let artifact = Artifact {
        experiment: "e19_durability".to_string(),
        base_rows: base_rows(quick),
        rows_recovered,
        storm_batches_committed,
        checkpoint_epoch: report.checkpoint_epoch,
        recovered_epoch: report.recovered_epoch,
        replayed_wal_records: report.replayed,
        dropped_uncommitted: report.dropped_uncommitted,
        truncated_bytes: report.truncated_bytes,
        wrong_answers,
        probes,
        recovery_ms,
        rematerialize_ms,
        speedup,
    };
    super::write_artifact("BENCH_durable.json", &artifact)?;

    std::fs::remove_dir_all(&dir).ok();
    println!(
        "\nShape check: SIGKILL mid-storm costs at most the uncommitted tail —\n\
         the recovered table is the exact committed prefix, every endpoint\n\
         answers byte-identically to the oracle, and restarting from the\n\
         binary checkpoint + WAL tail is {speedup:.1}x faster than replaying\n\
         the ingestion."
    );
    Ok(())
}
