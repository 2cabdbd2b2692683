//! E18 — chaos: client-side failover under fault injection (DESIGN.md
//! §2.13).
//!
//! Claim: the resilience stack — deadlines on every socket, retry with
//! jittered backoff, an ordered endpoint list behind per-endpoint circuit
//! breakers — turns individual process and network failures into latency,
//! not errors and never wrong answers. A leader and two converged
//! followers serve identical static data while a deterministic fault
//! schedule runs against them:
//!
//! 1. **clean** — baseline window, everything healthy.
//! 2. **corrupt** — half of the leader's response frames have their
//!    payloads replaced with seeded random bytes (framing intact).
//! 3. **stall** — the leader's link freezes mid-stream; only client-side
//!    read deadlines get anyone out.
//! 4. **leader+follower down** — the leader refuses connections AND one
//!    follower is killed outright; reads must land on the survivor. The
//!    killed follower is then restarted on the same port.
//! 5. **recovered** — all faults cleared, the restarted follower back.
//!
//! Two clients run the same closed-loop read mix through every window: a
//! bare `FeatureClient` (reconnects between requests, no retries, no
//! failover) and a `FailoverClient` over [leader, follower1, follower2].
//! Assertions:
//!
//! * FailoverClient availability ≥ 99% across the whole schedule, while
//!   the bare client measurably degrades (≥ 5 points worse).
//! * Zero wrong answers from either client: every successful response is
//!   byte-identical to an unfaulted oracle captured before the chaos.
//! * Bounded recovery: after the faults clear, the failover client is
//!   back to 20 consecutive successes within 5 s.
//!
//! Results are also written to `BENCH_chaos.json` by
//! [`write_artifact`](super::write_artifact).

use crate::table::Table;
use fstore_common::{EntityKey, FsError, Result, Schema, Timestamp, Value, ValueType};
use fstore_embed::{EmbeddingProvenance, EmbeddingTable};
use fstore_repl::{Follower, LeaderParts, ReplLeader};
use fstore_serve::fault::FaultyProxy;
use fstore_serve::{
    fixed_clock, start, BreakerConfig, ClientConfig, ClientError, FailoverClient, FeatureClient,
    IndexSpec, Request, Response, RetryPolicy, ServeConfig, ServeEngine, ServerHandle,
};
use fstore_storage::TableConfig;
use serde::Serialize;
use std::time::{Duration, Instant};

const NOW: Timestamp = Timestamp(60_000);
const EMB_DIM: usize = 8;
const SEED: u64 = 0xe18c_4a05;

#[derive(Serialize)]
struct WindowRow {
    window: String,
    fault: String,
    failover_ok: u64,
    failover_total: u64,
    bare_ok: u64,
    bare_total: u64,
}

#[derive(Serialize)]
struct Artifact {
    experiment: String,
    seed: u64,
    windows: Vec<WindowRow>,
    failover_availability: f64,
    bare_availability: f64,
    wrong_answers: u64,
    failed_over_calls: u64,
    frames_corrupted: u64,
    connections_refused: u64,
    recovery_ms: f64,
    recovery_bound_ms: f64,
}

fn serve_config(addr: &str) -> ServeConfig {
    ServeConfig::builder()
        .addr(addr)
        .workers(2)
        .queue_depth(64)
        .max_batch(8)
        .build()
        .expect("static serve config")
}

fn start_server(engine: ServeEngine, addr: &str) -> Result<ServerHandle> {
    start(engine, serve_config(addr)).map_err(|e| FsError::Storage(format!("start {addr}: {e}")))
}

/// The read mix both clients replay, round-robin.
fn request_mix() -> Vec<Request> {
    vec![
        Request::GetFeatures {
            group: "user".into(),
            entity: "u1".into(),
            features: vec!["score".into()],
        },
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
            entity: "u3".into(),
            features: vec!["score".into()],
        },
    ]
}

/// Short client deadlines: faults must cost milliseconds, not the OS
/// defaults' minutes.
fn chaos_client_config() -> ClientConfig {
    ClientConfig {
        connect_timeout: Some(Duration::from_millis(150)),
        read_timeout: Some(Duration::from_millis(150)),
        write_timeout: Some(Duration::from_millis(150)),
        deadline_budget: None,
    }
}

fn chaos_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 6,
        base_backoff: Duration::from_millis(5),
        multiplier: 2.0,
        max_backoff: Duration::from_millis(100),
        jitter: 0.25,
    }
}

fn chaos_breakers() -> BreakerConfig {
    BreakerConfig {
        failure_threshold: 2,
        open_cooldown: Duration::from_millis(300),
    }
}

/// A bare client that reconnects between requests but never retries a
/// request — the degradation baseline failover is measured against.
struct BareReader {
    addr: String,
    conn: Option<FeatureClient>,
}

impl BareReader {
    fn call(&mut self, request: &Request) -> std::result::Result<Response, ClientError> {
        if self.conn.is_none() {
            self.conn = Some(
                FeatureClient::connect_with(self.addr.as_str(), &chaos_client_config())
                    .map_err(ClientError::Io)?,
            );
        }
        let result = self.conn.as_mut().expect("just connected").call(request);
        if result.is_err() {
            self.conn = None;
        }
        result
    }
}

/// Score one answer against the oracle: `Some(true)` = correct success,
/// `Some(false)` = WRONG ANSWER, `None` = unavailable (error of any
/// kind — those hit availability, not correctness).
fn score(
    outcome: &std::result::Result<Response, ClientError>,
    oracle_bytes: &[u8],
) -> Option<bool> {
    match outcome {
        Ok(Response::Error { .. }) | Err(_) => None,
        Ok(response) => Some(response.encode().as_ref() == oracle_bytes),
    }
}

pub fn run(quick: bool) -> Result<()> {
    let window = Duration::from_millis(if quick { 300 } else { 800 });
    let recovery_bound = Duration::from_secs(5);

    println!(
        "1 leader + 2 converged followers, static data; fault windows of {window:?};\n\
         failover client: 150ms socket deadlines, 6 attempts, breakers (2 failures,\n\
         300ms cooldown); bare client: same deadlines, no retries, no failover\n"
    );

    // ------------------------------------------------------------------
    // Topology: leader behind a fault proxy; two followers bootstrapped
    // directly and converged BEFORE any traffic, so all three serve
    // byte-identical answers for the (static) measurement data.
    // ------------------------------------------------------------------
    let leader = ReplLeader::with_retention(LeaderParts::new(), 256);
    leader.parts().offline.write(|s| {
        s.create_table(
            "events",
            TableConfig::new(Schema::of(&[("n", ValueType::Int)])),
        )
    })?;
    let mut emb = EmbeddingTable::new(EMB_DIM)?;
    for i in 0..64 {
        let v: Vec<f32> = (0..EMB_DIM)
            .map(|d| (i * EMB_DIM + d) as f32 * 0.125)
            .collect();
        emb.insert(format!("e{i:04}"), v)?;
    }
    leader
        .parts()
        .embeddings
        .publish("emb", emb, EmbeddingProvenance::default(), NOW)?;
    leader.parts().indexes.build("emb", &IndexSpec::Flat)?;
    for u in 0..5 {
        leader.put_online(
            "user",
            &EntityKey::new(format!("u{u}")),
            &[("score", Value::Float(u as f64 * 0.25))],
            NOW,
        )?;
    }

    let leader_handle = start_server(leader.engine(fixed_clock(NOW)), "127.0.0.1:0")?;
    let leader_addr = leader_handle.addr();

    let follower1 = Follower::bootstrap(leader_addr.to_string())
        .map_err(|e| FsError::Storage(format!("bootstrap follower 1: {e}")))?;
    let follower2 = Follower::bootstrap(leader_addr.to_string())
        .map_err(|e| FsError::Storage(format!("bootstrap follower 2: {e}")))?;
    let f1_handle = start_server(follower1.engine(fixed_clock(NOW)), "127.0.0.1:0")?;
    let f2_handle = start_server(follower2.engine(fixed_clock(NOW)), "127.0.0.1:0")?;
    let f1_addr = f1_handle.addr().to_string();
    // Follower 1's handle moves through kill/restart; Some = currently up.
    let mut f1_current: Option<ServerHandle> = Some(f1_handle);

    let proxy = FaultyProxy::start(leader_addr, SEED)
        .map_err(|e| FsError::Storage(format!("start fault proxy: {e}")))?;
    let faults = proxy.faults();

    // ------------------------------------------------------------------
    // Oracle: the unfaulted leader's exact bytes for every request in
    // the mix, captured over a direct (proxy-free) connection.
    // ------------------------------------------------------------------
    let mix = request_mix();
    let mut direct = FeatureClient::connect(leader_addr)
        .map_err(|e| FsError::Storage(format!("oracle connect: {e}")))?;
    let oracle: Vec<Vec<u8>> = mix
        .iter()
        .map(|request| {
            let response = direct
                .call(request)
                .map_err(|e| FsError::Storage(format!("oracle call: {e}")))?;
            assert!(
                !matches!(response, Response::Error { .. }),
                "oracle request failed: {response:?}"
            );
            Ok(response.encode().to_vec())
        })
        .collect::<Result<_>>()?;
    drop(direct);

    // Both measured clients route leader traffic through the proxy.
    let proxy_addr = proxy.addr().to_string();
    let mut failover = FailoverClient::connect(
        &[
            proxy_addr.as_str(),
            f1_addr.as_str(),
            &f2_handle.addr().to_string(),
        ],
        chaos_client_config(),
        chaos_retry(),
        chaos_breakers(),
    );
    let mut bare = BareReader {
        addr: proxy_addr.clone(),
        conn: None,
    };

    // ------------------------------------------------------------------
    // The fault schedule. Each window drives both clients through the
    // mix until the window closes, scoring every answer.
    // ------------------------------------------------------------------
    let mut windows: Vec<WindowRow> = Vec::new();
    let mut wrong_answers = 0u64;

    let schedule: [(&str, &str); 5] = [
        ("clean", "none"),
        ("corrupt", "50% of leader response payloads randomized"),
        ("stall", "leader link frozen"),
        ("dark", "leader refuses connections; follower 1 killed"),
        ("recovered", "all faults cleared; follower 1 restarted"),
    ];
    for (name, fault) in schedule {
        // Arm this window's faults.
        match name {
            "clean" => {}
            "corrupt" => faults.set_corrupt_probability(0.5),
            "stall" => {
                faults.clear();
                faults.set_stall(true);
            }
            "dark" => {
                faults.clear();
                faults.set_refuse_connections(true);
                // Kill follower 1 outright: its clients see hard refusals.
                if let Some(h) = f1_current.take() {
                    h.shutdown();
                }
            }
            "recovered" => {
                faults.clear();
            }
            _ => unreachable!(),
        }
        let (mut fo_ok, mut fo_total) = (0u64, 0u64);
        let (mut bare_ok, mut bare_total) = (0u64, 0u64);
        let until = Instant::now() + window;
        let mut i = 0usize;
        while Instant::now() < until {
            let request = &mix[i % mix.len()];
            let oracle_bytes = &oracle[i % mix.len()];
            i += 1;

            fo_total += 1;
            match score(&failover.call(request), oracle_bytes) {
                Some(true) => fo_ok += 1,
                Some(false) => wrong_answers += 1,
                None => {}
            }
            bare_total += 1;
            match score(&bare.call(request), oracle_bytes) {
                Some(true) => bare_ok += 1,
                Some(false) => wrong_answers += 1,
                None => {}
            }
        }
        if name == "dark" {
            // Restart the killed follower on its old port before the
            // recovery window measures.
            f1_current = Some(start_server(follower1.engine(fixed_clock(NOW)), &f1_addr)?);
        }
        windows.push(WindowRow {
            window: name.to_string(),
            fault: fault.to_string(),
            failover_ok: fo_ok,
            failover_total: fo_total,
            bare_ok,
            bare_total,
        });
    }

    // ------------------------------------------------------------------
    // Recovery: from the moment all faults are clear, how long until the
    // failover client strings together 20 consecutive oracle-correct
    // answers?
    // ------------------------------------------------------------------
    let recovery_started = Instant::now();
    let mut streak = 0usize;
    let mut i = 0usize;
    while streak < 20 {
        if recovery_started.elapsed() > recovery_bound {
            break;
        }
        let request = &mix[i % mix.len()];
        let oracle_bytes = &oracle[i % mix.len()];
        i += 1;
        match score(&failover.call(request), oracle_bytes) {
            Some(true) => streak += 1,
            Some(false) => {
                wrong_answers += 1;
                streak = 0;
            }
            None => streak = 0,
        }
    }
    let recovery_ms = recovery_started.elapsed().as_secs_f64() * 1e3;

    // ------------------------------------------------------------------
    // Report and assert.
    // ------------------------------------------------------------------
    let mut table = Table::new(&["window", "fault", "failover ok/total", "bare ok/total"]);
    for w in &windows {
        table.row(vec![
            w.window.clone(),
            w.fault.clone(),
            format!("{}/{}", w.failover_ok, w.failover_total),
            format!("{}/{}", w.bare_ok, w.bare_total),
        ]);
    }
    table.print();

    let fo_ok: u64 = windows.iter().map(|w| w.failover_ok).sum();
    let fo_total: u64 = windows.iter().map(|w| w.failover_total).sum();
    let b_ok: u64 = windows.iter().map(|w| w.bare_ok).sum();
    let b_total: u64 = windows.iter().map(|w| w.bare_total).sum();
    let failover_availability = fo_ok as f64 / fo_total.max(1) as f64;
    let bare_availability = b_ok as f64 / b_total.max(1) as f64;
    let stats = failover.stats();

    println!(
        "\navailability: failover {:.2}% ({fo_ok}/{fo_total}), bare {:.2}% ({b_ok}/{b_total})\n\
         wrong answers: {wrong_answers}; failed-over calls: {}; frames corrupted: {};\n\
         connections refused: {}; recovery to 20-streak: {recovery_ms:.0} ms",
        failover_availability * 100.0,
        bare_availability * 100.0,
        stats.failed_over_calls,
        faults.frames_corrupted(),
        faults.connections_refused(),
    );

    assert!(
        failover_availability >= 0.99,
        "failover availability {failover_availability:.4} below the 99% floor"
    );
    assert!(
        bare_availability <= failover_availability - 0.05,
        "the bare client should measurably degrade under faults \
         (bare {bare_availability:.4} vs failover {failover_availability:.4})"
    );
    assert_eq!(
        wrong_answers, 0,
        "a fault produced a wrong answer — corruption or failover broke correctness"
    );
    assert!(
        stats.failed_over_calls > 0,
        "the schedule must actually force reads onto the followers"
    );
    assert!(
        faults.frames_corrupted() > 0 && faults.connections_refused() > 0,
        "fault injection never fired; the experiment is vacuous"
    );
    assert!(
        streak >= 20 && recovery_ms <= recovery_bound.as_secs_f64() * 1e3,
        "failover client did not recover within {recovery_bound:?} (streak {streak})"
    );

    let artifact = Artifact {
        experiment: "e18_chaos".to_string(),
        seed: SEED,
        windows,
        failover_availability,
        bare_availability,
        wrong_answers,
        failed_over_calls: stats.failed_over_calls,
        frames_corrupted: faults.frames_corrupted(),
        connections_refused: faults.connections_refused(),
        recovery_ms,
        recovery_bound_ms: recovery_bound.as_secs_f64() * 1e3,
    };
    super::write_artifact("BENCH_chaos.json", &artifact)?;

    proxy.shutdown();
    if let Some(h) = f1_current {
        h.shutdown();
    }
    f2_handle.shutdown();
    leader_handle.shutdown();
    println!(
        "\nShape check: the failover client turns every injected fault into\n\
         retries and endpoint walks — availability stays above 99% while the\n\
         bare client eats every fault as an error. Nothing ever returns bytes\n\
         that differ from the unfaulted oracle: corruption is caught by the\n\
         total decoder, and followers serve byte-identical snapshots."
    );
    Ok(())
}
