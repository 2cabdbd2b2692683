//! E17 — snapshot-based replication with epoch-consistent followers
//! (paper §4, DESIGN.md §2.12).
//!
//! Claim: an embedding ecosystem's read fan-out outgrows one serving
//! process, and the cheap way to scale reads is followers that replay the
//! leader's publication log — bootstrapping from a full snapshot, then
//! applying epoch-tagged deltas so every answer they serve carries an
//! epoch the leader actually published. Three measurements:
//!
//! 1. **Bootstrap under storm** — a follower bootstraps while the leader
//!    publishes continuously (offline appends, online writes, embedding
//!    republishes, index rebuilds); we time the full-snapshot install and
//!    then sample replication lag while the storm keeps running. The
//!    steady-state lag must stay within the delta-retention window (no
//!    full-snapshot fallback), and after the storm the follower must drain
//!    to lag zero.
//! 2. **Byte-identity** — once converged, the follower's server must
//!    answer `GetFeatures` / `GetEmbedding` / `SearchNearest` with exactly
//!    the leader's bytes (same epochs, same fixed clock).
//! 3. **Read throughput** — closed-loop clients against 1 leader vs the
//!    same client count spread over 1 leader + 2 followers. Every server
//!    runs one worker with an injected 500µs store pass (`handler_delay`),
//!    so capacity is service-time-bound (~2k rps/server) and adding
//!    followers must scale aggregate throughput even on a single-core
//!    runner, where real CPU-bound handlers could not. Aggregate speedup
//!    must be ≥ 2× — the hard claim of the replication design.
//!
//! Results are also written to `BENCH_repl.json` by
//! [`write_artifact`](super::write_artifact).

use crate::table::{f1, Table};
use fstore_common::{stats::exact_quantile, EntityKey, Result, Timestamp, Value, ValueType};
use fstore_common::{FsError, Schema};
use fstore_embed::{EmbeddingProvenance, EmbeddingTable};
use fstore_repl::{Follower, LeaderParts, ReplLeader};
use fstore_serve::{fixed_clock, start, FeatureClient, IndexSpec, Request, ServeConfig, StoreApi};
use fstore_storage::TableConfig;
use serde::Serialize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NOW: Timestamp = Timestamp(60_000);
/// Leader publish cadence during the storm phase.
const STORM_CADENCE: Duration = Duration::from_millis(2);
/// Follower poll cadence — same order as the publish cadence, so the
/// steady-state lag is a handful of deltas, far inside retention.
const SYNC_INTERVAL: Duration = Duration::from_millis(2);
/// Injected per-request store pass for the throughput phase: capacity is
/// ~2k rps per single-worker server, so scaling must come from followers.
const STORE_PASS: Duration = Duration::from_micros(500);
const RETENTION: usize = 64;
const CLIENTS: usize = 6;

#[derive(Serialize)]
struct ThroughputRow {
    mode: String,
    servers: usize,
    clients: usize,
    ok: u64,
    errors: u64,
    wall_s: f64,
    rps: f64,
}

#[derive(Serialize)]
struct Artifact {
    experiment: String,
    retention: usize,
    bootstrap_mid_storm_ms: f64,
    second_bootstrap_ms: f64,
    storm_publications: u64,
    lag_samples: usize,
    lag_p50: f64,
    lag_p99: f64,
    lag_max: u64,
    fallbacks: u64,
    converged_epoch: u64,
    byte_identical_endpoints: usize,
    throughput: Vec<ThroughputRow>,
    read_speedup: f64,
}

fn emb_table(n: usize, dim: usize, seed: u64) -> Result<EmbeddingTable> {
    let mut t = EmbeddingTable::new(dim)?;
    for i in 0..n {
        let v: Vec<f32> = (0..dim)
            .map(|d| ((seed + i as u64) as f32) * 0.01 + d as f32)
            .collect();
        t.insert(format!("e{i:04}"), v)?;
    }
    Ok(t)
}

fn storm_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_depth: 64,
        max_batch: 8,
        ..ServeConfig::default()
    }
}

fn throughput_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        queue_depth: 64,
        max_batch: 1,
        handler_delay: Some(STORE_PASS),
        ..ServeConfig::default()
    }
}

/// `clients` closed-loop threads split round-robin over `addrs`, each
/// hammering `GetFeatures` until the deadline. Returns (ok, errors, wall).
fn drive_readers(addrs: &[std::net::SocketAddr], duration: Duration) -> (u64, u64, f64) {
    let started = Instant::now();
    let joins: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let addr = addrs[c % addrs.len()];
            std::thread::spawn(move || -> (u64, u64) {
                let mut client = match FeatureClient::connect(addr) {
                    Ok(c) => c,
                    Err(_) => return (0, 1),
                };
                let (mut ok, mut errors) = (0u64, 0u64);
                let entity = format!("u{}", c % 5);
                while started.elapsed() < duration {
                    match client.get_features("user", &entity, &["score"]) {
                        Ok(_) => ok += 1,
                        Err(_) => errors += 1,
                    }
                }
                (ok, errors)
            })
        })
        .collect();
    let (mut ok, mut errors) = (0u64, 0u64);
    for j in joins {
        let (o, e) = j.join().expect("reader thread panicked");
        ok += o;
        errors += e;
    }
    (ok, errors, started.elapsed().as_secs_f64())
}

pub fn run(quick: bool) -> Result<()> {
    let emb_n = if quick { 128 } else { 400 };
    let emb_dim = 8usize;
    let storm = Duration::from_millis(if quick { 400 } else { 1_500 });
    let read_window = Duration::from_millis(if quick { 500 } else { 2_000 });

    println!(
        "retention {RETENTION} deltas; storm publishes every {STORM_CADENCE:?} for {storm:?};\n\
         follower polls every {SYNC_INTERVAL:?}; throughput: {CLIENTS} closed-loop clients,\n\
         {STORE_PASS:?} store pass, 1 worker per server, {read_window:?} window\n"
    );

    // ------------------------------------------------------------------
    // Leader: seed all four components, then start serving.
    // ------------------------------------------------------------------
    let leader = ReplLeader::with_retention(LeaderParts::new(), RETENTION);
    leader.parts().offline.write(|s| {
        s.create_table(
            "events",
            TableConfig::new(Schema::of(&[("n", ValueType::Int)])),
        )
    })?;
    leader.parts().embeddings.publish(
        "emb",
        emb_table(emb_n, emb_dim, 0)?,
        EmbeddingProvenance::default(),
        NOW,
    )?;
    leader.parts().indexes.build("emb", &IndexSpec::Flat)?;
    for u in 0..5 {
        leader.put_online(
            "user",
            &EntityKey::new(format!("u{u}")),
            &[("score", Value::Float(u as f64 * 0.25))],
            NOW,
        )?;
    }
    let leader_handle = start(leader.engine(fixed_clock(NOW)), storm_config())
        .map_err(|e| FsError::Storage(format!("start leader: {e}")))?;
    let leader_addr = leader_handle.addr();

    // ------------------------------------------------------------------
    // Phase 1: publish storm across every component while a follower
    // bootstraps and then tracks the leader through a sync loop.
    // ------------------------------------------------------------------
    let storming = Arc::new(AtomicBool::new(true));
    let storm_thread = {
        let leader = Arc::clone(&leader);
        let storming = Arc::clone(&storming);
        std::thread::spawn(move || -> Result<u64> {
            let mut i = 0u64;
            while storming.load(Ordering::Acquire) {
                leader
                    .parts()
                    .offline
                    .write(|s| s.append("events", &[Value::Int(i as i64)]))?;
                if i.is_multiple_of(5) {
                    leader.put_online(
                        "user",
                        &EntityKey::new(format!("u{}", (i / 5) % 5)),
                        &[("score", Value::Float(i as f64))],
                        NOW,
                    )?;
                }
                if i % 25 == 24 {
                    leader.parts().embeddings.publish(
                        "emb",
                        emb_table(emb_n, emb_dim, i)?,
                        EmbeddingProvenance::default(),
                        NOW,
                    )?;
                    leader.parts().indexes.build("emb", &IndexSpec::Flat)?;
                }
                i += 1;
                std::thread::sleep(STORM_CADENCE);
            }
            Ok(i)
        })
    };

    // Bootstrap mid-storm: the full snapshot lands while deltas keep
    // appending behind it.
    let t = Instant::now();
    let follower = Arc::new(
        Follower::bootstrap(leader_addr.to_string())
            .map_err(|e| FsError::Storage(format!("bootstrap follower: {e}")))?,
    );
    let bootstrap_mid_storm_ms = t.elapsed().as_secs_f64() * 1e3;
    let sync = follower.start_sync(SYNC_INTERVAL);

    // Sample lag while the storm runs.
    let mut lags: Vec<u64> = Vec::new();
    let sample_until = Instant::now() + storm;
    while Instant::now() < sample_until {
        lags.push(follower.lag());
        std::thread::sleep(Duration::from_millis(5));
    }
    storming.store(false, Ordering::Release);
    let storm_publications = storm_thread.join().expect("storm thread panicked")?;

    // Drain: with publishes stopped the follower must apply the leader's
    // actual last seq (`lag()` alone can be stale for one poll interval).
    let deadline = Instant::now() + Duration::from_secs(10);
    while follower.applied_epoch() != leader.log().last_seq() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    sync.stop();
    let lag_max = lags.iter().copied().max().unwrap_or(0);
    let lag_f: Vec<f64> = lags.iter().map(|&l| l as f64).collect();
    let lag_p50 = exact_quantile(&lag_f, 0.5).unwrap_or(f64::NAN);
    let lag_p99 = exact_quantile(&lag_f, 0.99).unwrap_or(f64::NAN);
    println!(
        "bootstrap mid-storm: {bootstrap_mid_storm_ms:.1} ms; {} publications; \
         lag p50 {lag_p50:.0}, p99 {lag_p99:.0}, max {lag_max} \
         (retention {RETENTION}); fallbacks {}",
        storm_publications,
        follower.fallbacks()
    );
    assert_eq!(
        follower.lag(),
        0,
        "follower never drained to the leader's epoch"
    );
    assert!(
        (lag_max as usize) <= RETENTION,
        "steady-state lag {lag_max} exceeded the retention window {RETENTION}"
    );
    assert_eq!(
        follower.fallbacks(),
        0,
        "an in-window follower should never need a full-snapshot fallback"
    );

    // ------------------------------------------------------------------
    // Phase 2: byte-identity at equal epochs.
    // ------------------------------------------------------------------
    let follower_handle = start(follower.engine(fixed_clock(NOW)), storm_config())
        .map_err(|e| FsError::Storage(format!("start follower server: {e}")))?;
    let requests = [
        Request::GetFeatures {
            group: "user".into(),
            entity: "u1".into(),
            features: vec!["score".into()],
        },
        Request::GetEmbedding {
            table: "emb".into(),
            key: "e0003".into(),
        },
        Request::SearchNearest {
            table: "emb".into(),
            query: vec![1.0; emb_dim],
            k: 5,
            options: Default::default(),
        },
    ];
    let mut to_leader = FeatureClient::connect(leader_addr)
        .map_err(|e| FsError::Storage(format!("connect leader: {e}")))?;
    let mut to_follower = FeatureClient::connect(follower_handle.addr())
        .map_err(|e| FsError::Storage(format!("connect follower: {e}")))?;
    for request in &requests {
        let a = to_leader
            .call(request)
            .map_err(|e| FsError::Storage(format!("leader call: {e}")))?;
        let b = to_follower
            .call(request)
            .map_err(|e| FsError::Storage(format!("follower call: {e}")))?;
        assert_eq!(
            a.encode(),
            b.encode(),
            "leader and converged follower diverged on {request:?}"
        );
    }
    let byte_identical_endpoints = requests.len();
    println!(
        "byte-identity: {byte_identical_endpoints}/{} endpoints answered identically",
        requests.len()
    );
    drop(to_leader);
    drop(to_follower);
    follower_handle.shutdown();
    leader_handle.shutdown();

    // ------------------------------------------------------------------
    // Phase 3: read throughput, 1 leader vs 1 leader + 2 followers. Same
    // total client count; every server is service-time-bound by the
    // injected store pass, so extra capacity can only come from replicas.
    // ------------------------------------------------------------------
    let leader_handle = start(leader.engine(fixed_clock(NOW)), throughput_config())
        .map_err(|e| FsError::Storage(format!("restart leader: {e}")))?;
    let t = Instant::now();
    let follower2 = Arc::new(
        Follower::bootstrap(leader_handle.addr().to_string())
            .map_err(|e| FsError::Storage(format!("bootstrap second follower: {e}")))?,
    );
    let second_bootstrap_ms = t.elapsed().as_secs_f64() * 1e3;

    let mut table = Table::new(&["mode", "servers", "clients", "ok", "errors", "rps"]);
    let mut throughput: Vec<ThroughputRow> = Vec::new();
    let f1_handle = start(follower.engine(fixed_clock(NOW)), throughput_config())
        .map_err(|e| FsError::Storage(format!("start follower 1: {e}")))?;
    let f2_handle = start(follower2.engine(fixed_clock(NOW)), throughput_config())
        .map_err(|e| FsError::Storage(format!("start follower 2: {e}")))?;
    let fleets: [(&str, Vec<std::net::SocketAddr>); 2] = [
        ("1 leader", vec![leader_handle.addr()]),
        (
            "1 leader + 2 followers",
            vec![leader_handle.addr(), f1_handle.addr(), f2_handle.addr()],
        ),
    ];
    for (mode, addrs) in &fleets {
        let (ok, errors, wall_s) = drive_readers(addrs, read_window);
        let rps = ok as f64 / wall_s;
        table.row(vec![
            mode.to_string(),
            addrs.len().to_string(),
            CLIENTS.to_string(),
            ok.to_string(),
            errors.to_string(),
            f1(rps),
        ]);
        throughput.push(ThroughputRow {
            mode: mode.to_string(),
            servers: addrs.len(),
            clients: CLIENTS,
            ok,
            errors,
            wall_s,
            rps,
        });
    }
    f1_handle.shutdown();
    f2_handle.shutdown();
    leader_handle.shutdown();
    table.print();

    let read_speedup = throughput[1].rps / throughput[0].rps;
    println!("\naggregate read throughput speedup: {read_speedup:.2}x");
    assert!(
        read_speedup >= 2.0,
        "1 leader + 2 followers must at least double aggregate read \
         throughput (got {read_speedup:.2}x)"
    );

    let artifact = Artifact {
        experiment: "e17_replication".to_string(),
        retention: RETENTION,
        bootstrap_mid_storm_ms,
        second_bootstrap_ms,
        storm_publications,
        lag_samples: lags.len(),
        lag_p50,
        lag_p99,
        lag_max,
        fallbacks: follower.fallbacks(),
        converged_epoch: follower.applied_epoch(),
        byte_identical_endpoints,
        throughput,
        read_speedup,
    };
    super::write_artifact("BENCH_repl.json", &artifact)?;
    println!(
        "\nShape check: the mid-storm bootstrap is one snapshot install, after\n\
         which steady-state lag sits at a handful of deltas — far inside the\n\
         retention window, so the follower never re-bootstraps. A converged\n\
         follower is indistinguishable on the wire, and since each server is\n\
         store-pass-bound, two followers triple the serving capacity."
    );
    Ok(())
}
