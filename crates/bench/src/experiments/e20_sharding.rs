//! E20 — horizontal sharding with a scatter-gather router (paper §4,
//! DESIGN.md §2.15).
//!
//! Claim: replication (E17) multiplies read capacity but not capital —
//! every node still holds every entity and every embedding table. Once
//! the dataset outgrows one node, the key space must be partitioned and a
//! router must present the shards as one store. Three measurements:
//!
//! 1. **Throughput scaling** — E14's open-loop load generator drives
//!    `GetFeatures` through routers over 1, 2, and 4 shards. Every shard
//!    server runs one worker with an injected 2ms store pass
//!    (`handler_delay`), so capacity is service-time-bound (~500 rps per
//!    shard) with enough CPU headroom that the experiment scales even on
//!    a single-core runner, where a CPU-bound handler could not. At 4
//!    shards the aggregate must be ≥ 3× the single-shard baseline —
//!    near-linear minus consistent-hash imbalance and router overhead.
//! 2. **Scatter-gather fidelity** — the router's merged `SearchNearest` /
//!    `SearchNearestByKey` top-k over partitioned shards is byte-compared
//!    (encoded response frames) against a single node holding the whole
//!    table. Distance ties are broken by key in the merge, so the bytes
//!    must match exactly.
//! 3. **Leader kill** — mid-traffic, one shard's leader dies. Per-shard
//!    failover absorbs the outage instantly; the control plane notices
//!    within its probe threshold and promotes the follower map-level;
//!    the data-plane promotion resumes writes. Every read during the
//!    outage must return the seeded truth: zero wrong answers, zero
//!    errors.
//!
//! Results are also written to `BENCH_shard.json` by
//! [`write_artifact`](super::write_artifact).

use crate::table::{f1, Table};
use fstore_common::{EntityKey, Result, Timestamp, Value};
use fstore_embed::{EmbeddingProvenance, EmbeddingTable};
use fstore_repl::{LeaderParts, ReplLeader};
use fstore_serve::{
    fixed_clock, start, BreakerConfig, FeatureClient, IndexSpec, Request, RetryPolicy, ServeConfig,
    StoreApi, Transport,
};
use fstore_shard::{ClusterConfig, ShardCluster, ShardId};
use serde::Serialize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NOW: Timestamp = Timestamp(60_000);
/// Injected per-request store pass: each single-worker shard serves
/// ~500 rps, so scaling must come from sharding, not from faster
/// handlers — and the pass is long enough that per-request CPU (framing,
/// syscalls, scheduling) stays a small fraction even on one core.
const STORE_PASS: Duration = Duration::from_millis(2);
/// Entities for the scaling phase — enough for the consistent hash to
/// spread load without one hot key pinning a shard.
const USERS: usize = 64;
const EMB_DIM: usize = 8;
const EMB_KEYS: usize = 48;

#[derive(Serialize)]
struct ScalingRow {
    shards: usize,
    threads: usize,
    offered_rps: f64,
    sent: u64,
    ok: u64,
    errors: u64,
    wall_s: f64,
    rps: f64,
    speedup_vs_1: f64,
}

#[derive(Serialize)]
struct Artifact {
    experiment: String,
    store_pass_us: u64,
    scaling: Vec<ScalingRow>,
    speedup_at_max_shards: f64,
    topk_queries: usize,
    topk_byte_identical: usize,
    kill_reads_ok: u64,
    kill_reads_wrong: u64,
    kill_reads_errors: u64,
    promotion_map_version: u64,
    writes_resumed_after_promotion: bool,
}

fn score_for(u: usize) -> f64 {
    u as f64 * 0.25 + 1.0
}

fn vector_for(i: usize) -> Vec<f32> {
    (0..EMB_DIM)
        .map(|d| i as f32 * 0.1 + d as f32 * 0.01)
        .collect()
}

/// One worker, an injected store pass, no batching: per-shard capacity is
/// the store pass, so shard count is the only throughput lever. The queue
/// is deeper than the client count, so nothing sheds — saturation shows
/// up as queueing delay, the open-loop generator's whole point.
fn throughput_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        queue_depth: 64,
        max_batch: 1,
        handler_delay: Some(STORE_PASS),
        ..ServeConfig::default()
    }
}

/// Seed every user through the router's hash (each write lands on its
/// owning shard) and, per shard, that shard's slice of the embedding
/// table plus a flat index over it.
fn seed(cluster: &ShardCluster) -> Result<()> {
    for u in 0..USERS {
        cluster.put_online(
            "user",
            &EntityKey::new(format!("u{u}")),
            &[("score", Value::Float(score_for(u)))],
            NOW,
        )?;
    }
    for shard in cluster.map().shards() {
        let mut table = EmbeddingTable::new(EMB_DIM)?;
        for i in 0..EMB_KEYS {
            let key = format!("e{i:04}");
            if cluster.shard_for(&key) == shard.id {
                table.insert(key, vector_for(i))?;
            }
        }
        let leader = cluster.leader(shard.id);
        leader
            .parts()
            .embeddings
            .publish("emb", table, EmbeddingProvenance::default(), NOW)?;
        leader.parts().indexes.build("emb", &IndexSpec::Flat)?;
    }
    Ok(())
}

/// E14's open-loop schedule through routers: each thread issues request i
/// at `begin + i·interval` regardless of response times, so a saturated
/// cluster shows up as achieved < offered instead of being self-throttled
/// away. Returns (sent, ok, errors, wall).
fn drive_open_loop(
    cluster: &ShardCluster,
    threads: usize,
    per_thread_rps: f64,
    duration: Duration,
) -> (u64, u64, u64, f64) {
    let started = Instant::now();
    let joins: Vec<_> = (0..threads)
        .map(|t| {
            let mut router = cluster.router();
            std::thread::spawn(move || -> (u64, u64, u64) {
                let interval = Duration::from_secs_f64(1.0 / per_thread_rps);
                let begin = Instant::now();
                let (mut sent, mut ok, mut errors) = (0u64, 0u64, 0u64);
                loop {
                    let due = interval.mul_f64(sent as f64);
                    if due >= duration {
                        break;
                    }
                    if let Some(sleep) = due.checked_sub(begin.elapsed()) {
                        std::thread::sleep(sleep);
                    }
                    let id = (t * 7919 + sent as usize * 13) % USERS;
                    sent += 1;
                    match router.get_features("user", &format!("u{id}"), &["score"]) {
                        Ok(_) => ok += 1,
                        Err(_) => errors += 1,
                    }
                }
                (sent, ok, errors)
            })
        })
        .collect();
    let (mut sent, mut ok, mut errors) = (0u64, 0u64, 0u64);
    for j in joins {
        let (s, o, e) = j.join().expect("load thread panicked");
        sent += s;
        ok += o;
        errors += e;
    }
    (sent, ok, errors, started.elapsed().as_secs_f64())
}

pub fn run(quick: bool) -> Result<()> {
    let shard_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4] };
    let threads = if quick { 12 } else { 24 };
    let per_thread_rps = if quick { 100.0 } else { 150.0 };
    let window = Duration::from_millis(if quick { 700 } else { 2_000 });
    let min_speedup = if quick { 1.5 } else { 3.0 };
    let topk_queries = if quick { 8 } else { 16 };
    let by_key_anchors = if quick { 4 } else { 8 };

    println!(
        "open-loop load: {threads} threads x {per_thread_rps:.0} rps over {window:?};\n\
         {STORE_PASS:?} store pass, 1 worker per shard (~500 rps/shard);\n\
         shard counts {shard_counts:?}, required speedup at max {min_speedup:.1}x\n"
    );

    // ------------------------------------------------------------------
    // Phase 1: GetFeatures throughput, 1 -> N shards, same offered load.
    // Retries and breakers are disabled so the measurement is the raw
    // serving capacity, not the retry layer re-shaping the load.
    // ------------------------------------------------------------------
    let mut table = Table::new(&[
        "shards", "threads", "offered", "sent", "ok", "errors", "rps", "speedup",
    ]);
    let mut scaling: Vec<ScalingRow> = Vec::new();
    for &shards in shard_counts {
        let mut cluster = ShardCluster::start(
            ClusterConfig {
                shards,
                followers: 0,
                serve: throughput_config(),
                ..ClusterConfig::default()
            },
            fixed_clock(NOW),
        )?;
        cluster.set_router_config(fstore_shard::RouterConfig {
            retry: RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            },
            breakers: BreakerConfig {
                failure_threshold: u32::MAX,
                ..BreakerConfig::default()
            },
            ..Default::default()
        });
        seed(&cluster)?;
        let (sent, ok, errors, wall_s) = drive_open_loop(&cluster, threads, per_thread_rps, window);
        cluster.shutdown();
        let rps = ok as f64 / wall_s;
        let speedup = if scaling.is_empty() {
            1.0
        } else {
            rps / scaling[0].rps
        };
        let offered = threads as f64 * per_thread_rps;
        table.row(vec![
            shards.to_string(),
            threads.to_string(),
            f1(offered),
            sent.to_string(),
            ok.to_string(),
            errors.to_string(),
            f1(rps),
            f1(speedup),
        ]);
        scaling.push(ScalingRow {
            shards,
            threads,
            offered_rps: offered,
            sent,
            ok,
            errors,
            wall_s,
            rps,
            speedup_vs_1: speedup,
        });
    }
    table.print();
    let speedup_at_max_shards = scaling.last().expect("at least one row").speedup_vs_1;
    println!(
        "\naggregate GetFeatures speedup at {} shards: {speedup_at_max_shards:.2}x",
        scaling.last().unwrap().shards
    );
    assert!(
        speedup_at_max_shards >= min_speedup,
        "sharding must scale service-time-bound throughput \
         (got {speedup_at_max_shards:.2}x, need {min_speedup:.1}x)"
    );

    // ------------------------------------------------------------------
    // Phase 2: scatter-gather top-k vs a single-node oracle, byte-level.
    // ------------------------------------------------------------------
    let cluster = ShardCluster::start(
        ClusterConfig {
            shards: 2,
            followers: 0,
            ..ClusterConfig::default()
        },
        fixed_clock(NOW),
    )?;
    seed(&cluster)?;
    let oracle = ReplLeader::with_retention(LeaderParts::new(), 64);
    let mut full = EmbeddingTable::new(EMB_DIM)?;
    for i in 0..EMB_KEYS {
        full.insert(format!("e{i:04}"), vector_for(i))?;
    }
    oracle
        .parts()
        .embeddings
        .publish("emb", full, EmbeddingProvenance::default(), NOW)?;
    oracle.parts().indexes.build("emb", &IndexSpec::Flat)?;
    let oracle_handle = start(oracle.engine(fixed_clock(NOW)), ServeConfig::default())
        .map_err(|e| fstore_common::FsError::Storage(format!("start oracle: {e}")))?;
    let mut oracle_client = FeatureClient::connect(oracle_handle.addr())
        .map_err(|e| fstore_common::FsError::Storage(format!("connect oracle: {e}")))?;
    let mut router = cluster.router();

    let mut requests: Vec<Request> = (0..topk_queries)
        .map(|j| Request::SearchNearest {
            table: "emb".into(),
            query: (0..EMB_DIM)
                .map(|d| j as f32 * 0.37 + 0.003 + d as f32 * 0.01)
                .collect(),
            k: 10,
            options: Default::default(),
        })
        .collect();
    for a in 0..by_key_anchors {
        requests.push(Request::SearchNearestByKey {
            table: "emb".into(),
            key: format!("e{:04}", (a * 11) % EMB_KEYS),
            k: 5,
            options: Default::default(),
        });
    }
    let mut topk_byte_identical = 0usize;
    for request in &requests {
        let ours = router
            .call(request)
            .map_err(|e| fstore_common::FsError::Storage(format!("routed search: {e}")))?;
        let truth = oracle_client
            .call(request)
            .map_err(|e| fstore_common::FsError::Storage(format!("oracle search: {e}")))?;
        assert_eq!(
            ours.encode(),
            truth.encode(),
            "router top-k diverged from the single-node oracle on {request:?}"
        );
        topk_byte_identical += 1;
    }
    println!(
        "\nscatter-gather fidelity: {topk_byte_identical}/{} responses byte-identical to the oracle",
        requests.len()
    );
    drop(oracle_client);
    oracle_handle.shutdown();
    cluster.shutdown();

    // ------------------------------------------------------------------
    // Phase 3: leader kill under traffic — failover + promotion, zero
    // wrong answers, zero errors.
    // ------------------------------------------------------------------
    let mut cluster = ShardCluster::start(
        ClusterConfig {
            shards: 2,
            followers: 1,
            ..ClusterConfig::default()
        },
        fixed_clock(NOW),
    )?;
    seed(&cluster)?;
    assert!(
        cluster.wait_converged(Duration::from_secs(10)),
        "followers never converged after seeding"
    );
    let control = cluster.control();
    let victim = ShardId(0);
    let stop = Arc::new(AtomicBool::new(false));
    let traffic = {
        let stop = Arc::clone(&stop);
        let mut router = cluster.router();
        std::thread::spawn(move || -> (u64, u64, u64) {
            let (mut ok, mut wrong, mut errors) = (0u64, 0u64, 0u64);
            let mut u = 0usize;
            while !stop.load(Ordering::Acquire) {
                let entity = format!("u{}", u % USERS);
                match router.get_features("user", &entity, &["score"]) {
                    Ok(v) => {
                        if v.values == vec![Value::Float(score_for(u % USERS))] {
                            ok += 1;
                        } else {
                            wrong += 1;
                        }
                    }
                    Err(_) => errors += 1,
                }
                u += 1;
            }
            (ok, wrong, errors)
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    cluster.kill_leader(victim);
    // Two missed probes promote the shard's follower map-level.
    let first = control.probe_once();
    assert!(first.is_empty(), "one strike must not promote");
    let events = control.probe_once();
    assert_eq!(events.len(), 1, "second strike promotes");
    let promotion_map_version = events[0].map_version;
    std::thread::sleep(Duration::from_millis(200));
    stop.store(true, Ordering::Release);
    let (kill_reads_ok, kill_reads_wrong, kill_reads_errors) =
        traffic.join().expect("traffic thread panicked");
    println!(
        "\nleader kill: {kill_reads_ok} reads ok, {kill_reads_wrong} wrong, \
         {kill_reads_errors} errors; map v{promotion_map_version} after promotion"
    );
    assert!(kill_reads_ok > 0, "no reads completed during the outage");
    assert_eq!(kill_reads_wrong, 0, "a read returned silently wrong data");
    assert_eq!(
        kill_reads_errors, 0,
        "failover + retries must absorb the outage"
    );

    // Data-plane promotion: writes resume on the promoted follower and
    // are visible through the router.
    cluster.promote_local(victim);
    let moved = (0..USERS)
        .find(|u| cluster.shard_for(&format!("u{u}")) == victim)
        .expect("the victim shard owns at least one user");
    cluster.put_online(
        "user",
        &EntityKey::new(format!("u{moved}")),
        &[("score", Value::Float(999.0))],
        NOW,
    )?;
    let mut router = cluster.router();
    let v = router
        .get_features("user", &format!("u{moved}"), &["score"])
        .map_err(|e| fstore_common::FsError::Storage(format!("post-promotion read: {e}")))?;
    let writes_resumed_after_promotion = v.values == vec![Value::Float(999.0)];
    assert!(
        writes_resumed_after_promotion,
        "a write to the promoted leader must be readable through the router"
    );
    cluster.shutdown();

    let artifact = Artifact {
        experiment: "e20_sharding".to_string(),
        store_pass_us: STORE_PASS.as_micros() as u64,
        scaling,
        speedup_at_max_shards,
        topk_queries: requests.len(),
        topk_byte_identical,
        kill_reads_ok,
        kill_reads_wrong,
        kill_reads_errors,
        promotion_map_version,
        writes_resumed_after_promotion,
    };
    super::write_artifact("BENCH_shard.json", &artifact)?;
    println!(
        "\nShape check: every shard is service-time-bound at the same ~500 rps,\n\
         so aggregate throughput tracks shard count minus hash imbalance and\n\
         client-side queueing; the merged top-k is byte-identical to one node\n\
         holding the whole table; and a dying leader costs availability\n\
         nothing — failover answers from the follower until the control\n\
         plane promotes it."
    );
    Ok(())
}
