//! E21 — zero-copy wire stack: pipelined connections vs request-per-RTT
//! (paper §2.2.2).
//!
//! Claim: a blocking request/response client spends most of a serving
//! tier's budget waiting — one request in flight per connection means one
//! round trip *and* one worker claim per request, so the server's batcher
//! never sees more than a connection's single job. Pipelining keeps N
//! requests in flight on the same socket (responses return in order; no
//! correlation IDs needed), which both amortizes round trips and lets the
//! worker claim a whole burst as one batch.
//!
//! We drive the TCP server with an open-loop generator (bursts are due on
//! a fixed schedule, independent of response times, so falling behind
//! shows up as latency instead of being self-throttled away) at pipeline
//! depths 1, 8, and 32, and report achieved throughput, client-observed
//! latency percentiles (measured from each request's *scheduled* time —
//! no coordinated omission), and the server's wire counters. A warmed-up
//! steady-state window checks the zero-copy claim directly: the read
//! path's payload-allocation counter must not move once every
//! connection's frame buffer has grown to size.
//!
//! Results are also written to `BENCH_wire.json` by
//! [`write_artifact`](super::write_artifact).

use fstore_common::{EntityKey, Result, Rng, Timestamp, Value, Xoshiro256};
use fstore_core::FeatureServer;
use fstore_serve::{
    fixed_clock, start, FeatureClient, Request, Response, ServeConfig, ServeEngine, WireSnapshot,
};
use fstore_storage::OnlineStore;
use serde::Serialize;
use std::sync::{Arc, Barrier};
use std::time::{Duration as StdDuration, Instant};

use crate::table::{f1, Table};

const ENTITIES: usize = 5_000;
const FEATURES: [&str; 2] = ["score", "clicks"];
const NOW: Timestamp = Timestamp(60_000);
/// Injected per-claim store latency: expensive enough that a depth-1
/// client is visibly round-trip-and-claim bound, cheap enough that the
/// pipelined levels stay comfortably on schedule.
const STORE_DELAY: StdDuration = StdDuration::from_micros(200);

#[derive(Serialize)]
struct LevelResult {
    depth: usize,
    offered_rps: u64,
    client_threads: usize,
    achieved_rps: f64,
    duration_s: f64,
    requests: u64,
    ok: u64,
    errors: u64,
    /// Client-observed latency from each request's scheduled send time.
    p50_ms: Option<f64>,
    p95_ms: Option<f64>,
    p99_ms: Option<f64>,
    /// Server-side payload allocations during the measured (post-warmup)
    /// window — the zero-copy claim is that this is 0.
    steady_payload_allocs: u64,
    batches: u64,
    batched_requests: u64,
    wire: WireSnapshot,
}

#[derive(Serialize)]
struct Artifact {
    experiment: String,
    entities: usize,
    store_delay_us: u64,
    levels: Vec<LevelResult>,
    /// Achieved-throughput ratios vs the depth-1 level.
    speedup_depth8: f64,
    speedup_depth32: f64,
}

fn populated_store() -> Arc<OnlineStore> {
    let online = Arc::new(OnlineStore::new(64));
    let mut rng = Xoshiro256::seeded(21);
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

fn request_for(thread: usize, seq: u64) -> Request {
    let id = (thread * 7919 + seq as usize * 13) % ENTITIES;
    Request::GetFeatures {
        group: "user".to_string(),
        entity: format!("u{id}"),
        features: FEATURES.iter().map(|f| f.to_string()).collect(),
    }
}

fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    Some(sorted[idx])
}

/// Drive one pipeline depth for `duration`; returns the level summary.
fn run_level(
    depth: usize,
    offered_rps: u64,
    threads: usize,
    duration: StdDuration,
) -> Result<LevelResult> {
    let engine = ServeEngine::new(FeatureServer::new(populated_store()), fixed_clock(NOW));
    let handle = start(
        engine,
        ServeConfig {
            workers: 2,
            queue_depth: 512,
            max_batch: 32,
            handler_delay: Some(STORE_DELAY),
            ..ServeConfig::default()
        },
    )
    .map_err(|e| fstore_common::FsError::Storage(format!("bind loopback: {e}")))?;
    let addr = handle.addr();
    let metrics = handle.metrics();

    // Threads warm up (connections established, frame buffers grown),
    // then everyone meets at the barrier; the measured window — and the
    // steady-state allocation check — starts there.
    let steady = Arc::new(Barrier::new(threads + 1));
    let joins: Vec<_> = (0..threads)
        .map(|t| {
            let steady = Arc::clone(&steady);
            let per_thread_rps = offered_rps as f64 / threads as f64;
            let interval = StdDuration::from_secs_f64(1.0 / per_thread_rps);
            std::thread::spawn(move || -> (u64, u64, u64, Vec<f64>) {
                let mut client = match FeatureClient::connect(addr) {
                    Ok(c) => c,
                    Err(_) => {
                        steady.wait();
                        return (0, 0, 0, Vec::new());
                    }
                };
                for i in 0..8 {
                    let burst: Vec<Request> = (0..depth)
                        .map(|j| request_for(t, (i * depth + j) as u64))
                        .collect();
                    if client.call_many(&burst).is_err() {
                        break;
                    }
                }
                steady.wait();

                let begin = Instant::now();
                let (mut sent, mut ok, mut errors) = (0u64, 0u64, 0u64);
                let mut latencies: Vec<f64> = Vec::new();
                // Open loop: burst i (requests i·depth .. i·depth+depth)
                // is due at begin + i·depth·interval no matter how long
                // earlier bursts took.
                loop {
                    let due = interval.mul_f64(sent as f64);
                    if due >= duration {
                        break;
                    }
                    if let Some(sleep) = due.checked_sub(begin.elapsed()) {
                        std::thread::sleep(sleep);
                    }
                    let burst: Vec<Request> = (0..depth)
                        .map(|j| request_for(t, sent + j as u64))
                        .collect();
                    let first_seq = sent;
                    sent += depth as u64;
                    match client.call_many(&burst) {
                        Ok(responses) => {
                            let done = begin.elapsed();
                            for (j, response) in responses.iter().enumerate() {
                                // Latency from the request's *scheduled*
                                // time, so queueing behind a late burst
                                // counts against us.
                                let scheduled = interval.mul_f64((first_seq + j as u64) as f64);
                                latencies.push(done.saturating_sub(scheduled).as_secs_f64() * 1e3);
                                match response {
                                    Response::Features(_) => ok += 1,
                                    _ => errors += 1,
                                }
                            }
                        }
                        Err(_) => break, // connection failure; stop this thread
                    }
                }
                (sent, ok, errors, latencies)
            })
        })
        .collect();

    steady.wait();
    let allocs_at_steady = metrics.wire_payload_allocs();
    let measured_from = Instant::now();

    let (mut sent, mut ok, mut errors) = (0u64, 0u64, 0u64);
    let mut latencies: Vec<f64> = Vec::new();
    for j in joins {
        let (s, o, e, l) = j.join().expect("load thread panicked");
        sent += s;
        ok += o;
        errors += e;
        latencies.extend(l);
    }
    let elapsed = measured_from.elapsed().as_secs_f64();
    let steady_payload_allocs = metrics.wire_payload_allocs() - allocs_at_steady;

    let snapshot = metrics.snapshot();
    latencies.sort_by(|a, b| a.total_cmp(b));
    let result = LevelResult {
        depth,
        offered_rps,
        client_threads: threads,
        achieved_rps: ok as f64 / elapsed,
        duration_s: elapsed,
        requests: sent,
        ok,
        errors,
        p50_ms: percentile(&latencies, 0.50),
        p95_ms: percentile(&latencies, 0.95),
        p99_ms: percentile(&latencies, 0.99),
        steady_payload_allocs,
        batches: snapshot.batches,
        batched_requests: snapshot.batched_requests,
        wire: snapshot.wire,
    };
    handle.shutdown();
    Ok(result)
}

pub fn run(quick: bool) -> Result<()> {
    let duration = StdDuration::from_millis(if quick { 400 } else { 1_500 });
    let threads = 4;
    let offered_rps = if quick { 24_000 } else { 32_000 };
    let depths = [1usize, 8, 32];

    let mut table = Table::new(&[
        "depth",
        "offered rps",
        "achieved rps",
        "ok",
        "p50 ms",
        "p95 ms",
        "p99 ms",
        "batched",
        "steady allocs",
        "pool hit rate",
    ]);
    let mut results = Vec::new();
    for &depth in &depths {
        let r = run_level(depth, offered_rps, threads, duration)?;
        table.row(vec![
            depth.to_string(),
            r.offered_rps.to_string(),
            f1(r.achieved_rps),
            r.ok.to_string(),
            r.p50_ms.map_or("-".into(), f1),
            r.p95_ms.map_or("-".into(), f1),
            r.p99_ms.map_or("-".into(), f1),
            r.batched_requests.to_string(),
            r.steady_payload_allocs.to_string(),
            r.wire
                .pool_hit_rate
                .map_or("-".into(), |h| format!("{h:.3}")),
        ]);
        results.push(r);
    }
    table.print();

    // The zero-copy claim is structural, not statistical: once the frame
    // buffers are grown, the steady-state read path must not allocate.
    for r in &results {
        if r.steady_payload_allocs > 0 {
            return Err(fstore_common::FsError::Storage(format!(
                "depth {} allocated {} payload buffers at steady state (want 0)",
                r.depth, r.steady_payload_allocs
            )));
        }
    }

    let base = results[0].achieved_rps.max(1.0);
    let speedup_depth8 = results[1].achieved_rps / base;
    let speedup_depth32 = results[2].achieved_rps / base;
    let artifact = Artifact {
        experiment: "e21_wire_pipelining".to_string(),
        entities: ENTITIES,
        store_delay_us: STORE_DELAY.as_micros() as u64,
        levels: results,
        speedup_depth8,
        speedup_depth32,
    };
    super::write_artifact("BENCH_wire.json", &artifact)?;
    println!(
        "\nspeedup vs depth 1: {speedup_depth8:.2}x at depth 8, {speedup_depth32:.2}x at depth 32"
    );
    if speedup_depth8 < 1.5 && speedup_depth32 < 1.5 {
        println!("WARNING: expected ≥1.5x from pipelining; this machine did not show it");
    }
    println!(
        "\nShape check: at depth 1 every request pays its own round trip and\n\
         its own worker claim (the batcher never sees more than one job per\n\
         connection), so the open-loop schedule slips and latency grows. At\n\
         depth 8/32 a burst shares one write, one claim, and one batched\n\
         store pass — throughput reaches the offered rate at flat p99, the\n\
         encode path recycles pooled buffers (hit rate ≈ 1), and the read\n\
         path's payload-allocation counter stays exactly flat."
    );
    Ok(())
}
