//! E14 — network serving under open-loop load (paper §2.2.2).
//!
//! Claim: a serving tier needs more than a fast store — it needs
//! admission control so overload degrades into explicit shed responses
//! instead of unbounded queueing, and batching so concurrent lookups
//! amortize store passes. We drive the TCP server with an open-loop load
//! generator (requests are issued on a fixed schedule, independent of
//! response times, so queueing delay is visible instead of self-throttled
//! away), sweep the offered rate past saturation against the real store,
//! then emulate a slow backing store (injected per-request latency, tight
//! queue) to reach the overloaded regime where shedding is observable, and
//! report achieved throughput, shed counts, and server-side latency
//! percentiles.
//!
//! Results are also written to `BENCH_serve.json` by
//! [`write_artifact`](super::write_artifact).

use fstore_common::{EntityKey, Result, Rng, Timestamp, Value, Xoshiro256};
use fstore_core::FeatureServer;
use fstore_serve::{fixed_clock, start, FeatureClient, ServeConfig, ServeEngine, StoreApi};
use fstore_storage::OnlineStore;
use serde::Serialize;
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use crate::table::{f1, Table};

const ENTITIES: usize = 10_000;
const FEATURES: [&str; 2] = ["score", "clicks"];
const NOW: Timestamp = Timestamp(60_000);

#[derive(Serialize)]
struct LevelResult {
    scenario: &'static str,
    offered_rps: u64,
    workers: usize,
    queue_depth: usize,
    client_threads: usize,
    achieved_rps: f64,
    duration_s: f64,
    requests: u64,
    ok: u64,
    overloaded: u64,
    server_shed: u64,
    p50_ms: Option<f64>,
    p95_ms: Option<f64>,
    p99_ms: Option<f64>,
    batches: u64,
    batched_requests: u64,
}

#[derive(Serialize)]
struct Artifact {
    experiment: String,
    entities: usize,
    levels: Vec<LevelResult>,
}

fn populated_store() -> Arc<OnlineStore> {
    let online = Arc::new(OnlineStore::new(64));
    let mut rng = Xoshiro256::seeded(14);
    for i in 0..ENTITIES {
        let key = EntityKey::new(format!("u{i}"));
        online.put(
            "user",
            &key,
            "score",
            Value::Float(rng.normal()),
            Timestamp::millis(50_000),
        );
        online.put(
            "user",
            &key,
            "clicks",
            Value::Int(i as i64 % 100),
            Timestamp::millis(55_000),
        );
    }
    online
}

/// One load level: scenario label plus the server/client shape to drive.
struct Level {
    scenario: &'static str,
    offered_rps: u64,
    threads: usize,
    workers: usize,
    queue_depth: usize,
    max_batch: usize,
    /// Injected per-claim store latency — emulates a slow backing store so
    /// the overloaded regime (queue full → shed) is reachable even though
    /// each blocking client connection self-throttles to one request in
    /// flight.
    handler_delay: Option<StdDuration>,
}

/// Drive one offered rate for `duration`; returns the level summary.
fn run_level(level: &Level, duration: StdDuration) -> Result<LevelResult> {
    let engine = ServeEngine::new(FeatureServer::new(populated_store()), fixed_clock(NOW));
    let handle = start(
        engine,
        ServeConfig {
            workers: level.workers,
            queue_depth: level.queue_depth,
            max_batch: level.max_batch,
            handler_delay: level.handler_delay,
            ..ServeConfig::default()
        },
    )
    .map_err(|e| fstore_common::FsError::Storage(format!("bind loopback: {e}")))?;
    let addr = handle.addr();

    let offered_rps = level.offered_rps;
    let started = Instant::now();
    let joins: Vec<_> = (0..level.threads)
        .map(|t| {
            let per_thread_rps = offered_rps as f64 / level.threads as f64;
            let interval = StdDuration::from_secs_f64(1.0 / per_thread_rps);
            std::thread::spawn(move || -> (u64, u64, u64) {
                let mut client = match FeatureClient::connect(addr) {
                    Ok(c) => c,
                    Err(_) => return (0, 0, 0),
                };
                let begin = Instant::now();
                let (mut sent, mut ok, mut overloaded) = (0u64, 0u64, 0u64);
                // Open loop: tick i is due at begin + i·interval no matter
                // how long earlier requests took.
                loop {
                    let due = interval.mul_f64(sent as f64);
                    if due >= duration {
                        break;
                    }
                    if let Some(sleep) = due.checked_sub(begin.elapsed()) {
                        std::thread::sleep(sleep);
                    }
                    let id = (t * 7919 + sent as usize * 13) % ENTITIES;
                    sent += 1;
                    match client.get_features("user", &format!("u{id}"), &FEATURES) {
                        Ok(_) => ok += 1,
                        Err(e) if e.code().is_some() => overloaded += 1,
                        Err(_) => break, // connection failure; stop this thread
                    }
                }
                (sent, ok, overloaded)
            })
        })
        .collect();

    let (mut sent, mut ok, mut overloaded) = (0u64, 0u64, 0u64);
    for j in joins {
        let (s, o, v) = j.join().expect("load thread panicked");
        sent += s;
        ok += o;
        overloaded += v;
    }
    let elapsed = started.elapsed().as_secs_f64();

    let metrics = handle.metrics();
    let snapshot = metrics.snapshot();
    let ep = &snapshot.endpoints["get_features"];
    let result = LevelResult {
        scenario: level.scenario,
        offered_rps,
        workers: level.workers,
        queue_depth: level.queue_depth,
        client_threads: level.threads,
        achieved_rps: ok as f64 / elapsed,
        duration_s: elapsed,
        requests: sent,
        ok,
        overloaded,
        server_shed: snapshot.shed,
        p50_ms: ep.p50_ms,
        p95_ms: ep.p95_ms,
        p99_ms: ep.p99_ms,
        batches: snapshot.batches,
        batched_requests: snapshot.batched_requests,
    };
    handle.shutdown();
    Ok(result)
}

/// A fast-store rate level: 4 workers, deep queue, full batching.
fn fast_level(offered_rps: u64) -> Level {
    Level {
        scenario: "fast store",
        offered_rps,
        threads: 8,
        workers: 4,
        queue_depth: 64,
        max_batch: 32,
        handler_delay: None,
    }
}

/// The overloaded regime: a 2 ms store pass, one worker, a queue of 2, and
/// 16 clients blasting. Capacity is ~500 rps, so nearly everything must be
/// shed — this is where admission control is visible.
fn overload_level() -> Level {
    Level {
        scenario: "slow store",
        offered_rps: 25_000,
        threads: 16,
        workers: 1,
        queue_depth: 2,
        max_batch: 1,
        handler_delay: Some(StdDuration::from_millis(2)),
    }
}

pub fn run(quick: bool) -> Result<()> {
    let duration = StdDuration::from_millis(if quick { 600 } else { 2_000 });
    let mut levels: Vec<Level> = if quick {
        vec![fast_level(2_000), fast_level(20_000)]
    } else {
        vec![
            fast_level(2_000),
            fast_level(10_000),
            fast_level(50_000),
            fast_level(200_000),
        ]
    };
    levels.push(overload_level());

    let mut table = Table::new(&[
        "scenario",
        "offered rps",
        "achieved rps",
        "sent",
        "ok",
        "shed",
        "p50 ms",
        "p95 ms",
        "p99 ms",
        "batched",
    ]);
    let mut results = Vec::new();
    for level in &levels {
        let r = run_level(level, duration)?;
        table.row(vec![
            r.scenario.to_string(),
            r.offered_rps.to_string(),
            f1(r.achieved_rps),
            r.requests.to_string(),
            r.ok.to_string(),
            r.server_shed.to_string(),
            r.p50_ms.map_or("-".into(), f1),
            r.p95_ms.map_or("-".into(), f1),
            r.p99_ms.map_or("-".into(), f1),
            r.batched_requests.to_string(),
        ]);
        results.push(r);
    }
    table.print();

    let artifact = Artifact {
        experiment: "e14_network_serving".to_string(),
        entities: ENTITIES,
        levels: results,
    };
    super::write_artifact("BENCH_serve.json", &artifact)?;
    println!(
        "\nShape check: against the fast store, achieved ≈ offered with zero\n\
         shed until the transport saturates (blocking clients self-throttle,\n\
         so the queue never fills and nothing is shed). Against the slow\n\
         store, capacity collapses to ~500 rps, the bounded queue fills, and\n\
         admission sheds the excess with `Overloaded` — the served requests\n\
         keep a p99 bounded by queue depth × store latency instead of\n\
         queueing without limit."
    );
    Ok(())
}
