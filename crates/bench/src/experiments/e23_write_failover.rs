//! E23 — routed writes under leader failure: fencing and automatic
//! failover (DESIGN.md §2.18).
//!
//! Claim: a write path is only as good as its failure story. This
//! experiment storms a 3-shard cluster with mixed open-loop reads and
//! writes, kills one shard's leader mid-storm, lets the control plane
//! promote the follower (map-level *and* data-plane, over the wire), then
//! revives the dead leader as a zombie and watches the fence land.
//! Four properties are asserted:
//!
//! 1. **Zero lost acknowledged writes** — after the storm, every entity
//!    reads back a value at least as new as its last acknowledged write.
//!    (Writers pause briefly and the cluster converges before the kill,
//!    so every pre-kill ack is on the follower; post-kill acks come from
//!    the promoted leader directly. Acks in the async-replication gap are
//!    the WAL's problem — E19 — not the router's.)
//! 2. **Zero zombie-accepted writes** — per entity, the term carried on
//!    successive acks never goes backwards: once the promoted leader
//!    acks at term t+1, no ack at term t appears again.
//! 3. **Bounded write unavailability** — for every entity on the victim
//!    shard, the gap from the kill to its first post-kill ack is bounded
//!    (probe cadence + promotion + router refresh, not minutes).
//! 4. **The revived zombie is fenced** — after revival the control
//!    plane's pending fence lands, and a stale-term write sent straight
//!    at the old leader (bypassing the router) is refused with the
//!    current term.
//!
//! Results are also written to `BENCH_failover.json` by
//! [`write_artifact`](super::write_artifact).

use crate::table::{f1, Table};
use fstore_common::{EntityKey, Result, Timestamp, Value};
use fstore_serve::{fixed_clock, ClientError, FeatureClient, StoreApi};
use fstore_shard::{ClusterConfig, ShardCluster, ShardId};
use serde::Serialize;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const NOW: Timestamp = Timestamp(60_000);
const SHARDS: usize = 3;
/// Storm entities; each belongs to exactly one writer thread, so per-
/// entity ack sequences are totally ordered without cross-thread races.
const ENTITIES: usize = 24;
const WRITERS: usize = 3;
const READERS: usize = 3;

/// Value scheme: `entity * SEQ_BASE + seq`. Exact in f64 far beyond this
/// experiment's write counts, decodes back to (entity, seq) so a reader
/// can detect cross-entity routing mixups and the final audit can compare
/// sequence numbers.
const SEQ_BASE: u64 = 1_000_000;

fn encode(entity: usize, seq: u64) -> Value {
    Value::Float((entity as u64 * SEQ_BASE + seq) as f64)
}

fn decode(value: &Value) -> Option<(usize, u64)> {
    let Value::Float(f) = value else { return None };
    let raw = *f as u64;
    Some(((raw / SEQ_BASE) as usize, raw % SEQ_BASE))
}

#[derive(Default)]
struct WriterTotals {
    acked: u64,
    refused: u64,
    unknown: u64,
    failed: u64,
    term_regressions: u64,
}

#[derive(Default)]
struct ReaderTotals {
    ok: u64,
    wrong: u64,
    errors: u64,
}

#[derive(Serialize)]
struct Artifact {
    experiment: String,
    shards: usize,
    followers: usize,
    entities: usize,
    writer_threads: usize,
    reader_threads: usize,
    writes_acked: u64,
    writes_refused: u64,
    writes_outcome_unknown: u64,
    writes_failed: u64,
    reads_ok: u64,
    reads_wrong: u64,
    reads_errors: u64,
    lost_acked_writes: u64,
    zombie_acked_writes: u64,
    write_unavailability_ms: f64,
    promotion_term: u64,
    promotion_map_version: u64,
    probe_rounds: u64,
    zombie_refused_after_fence: bool,
    zombie_refusal_names_term: u64,
}

pub fn run(quick: bool) -> Result<()> {
    let pre_kill = Duration::from_millis(if quick { 250 } else { 600 });
    let post_promote = Duration::from_millis(if quick { 300 } else { 800 });
    let write_rps = if quick { 120.0 } else { 200.0 };
    let read_rps = if quick { 250.0 } else { 400.0 };
    let probe_every = Duration::from_millis(20);
    let unavailability_bound = Duration::from_secs(if quick { 5 } else { 3 });

    println!(
        "storm: {WRITERS} writers x {write_rps:.0} wps + {READERS} readers x {read_rps:.0} rps\n\
         over {SHARDS} shards (1 follower each), {ENTITIES} entities;\n\
         kill one leader mid-storm, probe every {probe_every:?}, then revive the zombie\n"
    );

    let mut cluster = ShardCluster::start(
        ClusterConfig {
            shards: SHARDS,
            followers: 1,
            ..ClusterConfig::default()
        },
        fixed_clock(NOW),
    )?;
    let control = cluster.control();

    // Seed every entity at seq 0 and wait for the followers to hold it.
    for u in 0..ENTITIES {
        cluster.put_online(
            "user",
            &EntityKey::new(format!("w{u}")),
            &[("score", encode(u, 0))],
            NOW,
        )?;
    }
    assert!(
        cluster.wait_converged(Duration::from_secs(10)),
        "followers never converged after seeding"
    );

    let victim = ShardId(0);
    let victim_entities: Vec<usize> = (0..ENTITIES)
        .filter(|u| cluster.shard_for(&format!("w{u}")) == victim)
        .collect();
    assert!(
        !victim_entities.is_empty(),
        "the victim shard must own at least one storm entity"
    );

    // Shared storm state. `attempts[u]` is bumped *before* each send so a
    // concurrent reader never sees a sequence above it; `last_acked[u]`
    // is the newest acknowledged sequence; `kill_at`/`first_ack_after`
    // measure the per-entity write-unavailability window.
    let stop = Arc::new(AtomicBool::new(false));
    let writes_enabled = Arc::new(AtomicBool::new(true));
    let attempts: Arc<Vec<AtomicU64>> =
        Arc::new((0..ENTITIES).map(|_| AtomicU64::new(0)).collect());
    let last_acked: Arc<Vec<AtomicU64>> =
        Arc::new((0..ENTITIES).map(|_| AtomicU64::new(0)).collect());
    let kill_at: Arc<Mutex<Option<Instant>>> = Arc::new(Mutex::new(None));
    let first_ack_after: Arc<Mutex<Vec<Option<Instant>>>> =
        Arc::new(Mutex::new(vec![None; ENTITIES]));

    let writer_joins: Vec<_> = (0..WRITERS)
        .map(|w| {
            let mut router = cluster.router();
            let stop = Arc::clone(&stop);
            let writes_enabled = Arc::clone(&writes_enabled);
            let attempts = Arc::clone(&attempts);
            let last_acked = Arc::clone(&last_acked);
            let kill_at = Arc::clone(&kill_at);
            let first_ack_after = Arc::clone(&first_ack_after);
            std::thread::spawn(move || -> WriterTotals {
                let mine: Vec<usize> = (0..ENTITIES).filter(|u| u % WRITERS == w).collect();
                let interval = Duration::from_secs_f64(1.0 / write_rps);
                let mut last_term: Vec<u64> = vec![0; ENTITIES];
                let mut totals = WriterTotals::default();
                let mut tick = 0usize;
                let begin = Instant::now();
                while !stop.load(Ordering::Acquire) {
                    let due = interval.mul_f64(tick as f64);
                    if let Some(sleep) = due.checked_sub(begin.elapsed()) {
                        std::thread::sleep(sleep);
                    }
                    tick += 1;
                    if !writes_enabled.load(Ordering::Acquire) {
                        continue;
                    }
                    let u = mine[tick % mine.len()];
                    let seq = attempts[u].fetch_add(1, Ordering::AcqRel) + 1;
                    let entity = format!("w{u}");
                    match router.put_online("user", &entity, &[("score", encode(u, seq))], 0) {
                        Ok(ack) => {
                            totals.acked += 1;
                            if ack.term < last_term[u] {
                                // A dead term acked after a newer one: a
                                // zombie took a routed write.
                                totals.term_regressions += 1;
                            }
                            last_term[u] = last_term[u].max(ack.term);
                            last_acked[u].fetch_max(seq, Ordering::AcqRel);
                            let killed = *kill_at.lock().unwrap();
                            if killed.is_some() {
                                let mut firsts = first_ack_after.lock().unwrap();
                                if firsts[u].is_none() {
                                    firsts[u] = Some(Instant::now());
                                }
                            }
                        }
                        // A typed refusal proves non-application.
                        Err(ClientError::NotLeader { .. }) | Err(ClientError::Server { .. }) => {
                            totals.refused += 1
                        }
                        Err(ClientError::WriteFailed { applied, .. }) => {
                            if applied == Some(false) {
                                totals.refused += 1;
                            } else {
                                totals.unknown += 1;
                            }
                        }
                        Err(_) => totals.failed += 1,
                    }
                }
                totals
            })
        })
        .collect();

    let reader_joins: Vec<_> = (0..READERS)
        .map(|r| {
            let mut router = cluster.router();
            let stop = Arc::clone(&stop);
            let attempts = Arc::clone(&attempts);
            std::thread::spawn(move || -> ReaderTotals {
                let interval = Duration::from_secs_f64(1.0 / read_rps);
                let mut totals = ReaderTotals::default();
                let mut tick = r * 7;
                let begin = Instant::now();
                while !stop.load(Ordering::Acquire) {
                    let due = interval.mul_f64((tick - r * 7) as f64);
                    if let Some(sleep) = due.checked_sub(begin.elapsed()) {
                        std::thread::sleep(sleep);
                    }
                    tick += 1;
                    let u = (tick * 13) % ENTITIES;
                    match router.get_features("user", &format!("w{u}"), &["score"]) {
                        Ok(v) => match decode(&v.values[0]) {
                            // The upper bound is read *after* the value,
                            // so attempts can only be ahead of it.
                            Some((owner, seq))
                                if owner == u && seq <= attempts[u].load(Ordering::Acquire) =>
                            {
                                totals.ok += 1
                            }
                            _ => totals.wrong += 1,
                        },
                        Err(_) => totals.errors += 1,
                    }
                }
                totals
            })
        })
        .collect();

    // Phase A: healthy storm, then a short write pause so every ack is
    // replicated before the kill (see module docs, property 1).
    std::thread::sleep(pre_kill);
    writes_enabled.store(false, Ordering::Release);
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        cluster.wait_converged(Duration::from_secs(10)),
        "followers never converged before the kill"
    );

    // Phase B: kill the leader with writes flowing again, and probe until
    // the control plane promotes (map-level + wire-level in one round).
    *kill_at.lock().unwrap() = Some(Instant::now());
    cluster.kill_leader(victim);
    writes_enabled.store(true, Ordering::Release);
    let (promotion_term, promotion_map_version) = loop {
        let events = control.probe_once();
        if let Some(event) = events.iter().find(|e| e.shard == victim) {
            break (event.term, event.map_version);
        }
        std::thread::sleep(probe_every);
    };
    println!(
        "promotion: {victim} -> term {promotion_term}, map v{promotion_map_version} \
         ({} entities on the victim shard)",
        victim_entities.len()
    );

    // Phase C: keep storming, revive the zombie mid-storm, and keep
    // probing so the pending fence reaches it.
    std::thread::sleep(post_promote / 2);
    let zombie_addr = cluster.revive_leader(victim)?;
    let fence_deadline = Instant::now() + Duration::from_secs(10);
    loop {
        control.probe_once();
        if control.snapshot().pending_fences == 0 {
            break;
        }
        assert!(
            Instant::now() < fence_deadline,
            "the pending fence never reached the revived leader"
        );
        std::thread::sleep(probe_every);
    }
    std::thread::sleep(post_promote / 2);

    stop.store(true, Ordering::Release);
    let mut writes = WriterTotals::default();
    for j in writer_joins {
        let t = j.join().expect("writer thread panicked");
        writes.acked += t.acked;
        writes.refused += t.refused;
        writes.unknown += t.unknown;
        writes.failed += t.failed;
        writes.term_regressions += t.term_regressions;
    }
    let mut reads = ReaderTotals::default();
    for j in reader_joins {
        let t = j.join().expect("reader thread panicked");
        reads.ok += t.ok;
        reads.wrong += t.wrong;
        reads.errors += t.errors;
    }

    // Audit 1: no acknowledged write lost. Every entity must read back a
    // sequence >= its newest ack (monotone values make this sufficient).
    let mut router = cluster.router();
    let mut lost_acked_writes = 0u64;
    for u in 0..ENTITIES {
        let v = router
            .get_features("user", &format!("w{u}"), &["score"])
            .map_err(|e| fstore_common::FsError::Storage(format!("final read w{u}: {e}")))?;
        let acked = last_acked[u].load(Ordering::Acquire);
        match decode(&v.values[0]) {
            Some((owner, seq)) if owner == u && seq >= acked => {}
            other => {
                lost_acked_writes += 1;
                println!("LOST: w{u} acked seq {acked}, reads back {other:?}");
            }
        }
    }

    // Audit 2: write unavailability on the victim shard.
    let kill_instant = kill_at.lock().unwrap().expect("kill recorded");
    let firsts = first_ack_after.lock().unwrap();
    let mut write_unavailability = Duration::ZERO;
    for &u in &victim_entities {
        let first = firsts[u].unwrap_or_else(|| {
            panic!("w{u} on the victim shard never acked a write after the kill")
        });
        write_unavailability = write_unavailability.max(first - kill_instant);
    }
    drop(firsts);

    // Audit 3: the fenced zombie refuses its old term, naming the new one.
    let mut zombie = FeatureClient::connect(zombie_addr)
        .map_err(|e| fstore_common::FsError::Storage(format!("connect zombie: {e}")))?;
    let refusal = zombie.put_online("user", "w-zombie-probe", &[("score", encode(0, 1))], 1);
    let (zombie_refused_after_fence, zombie_refusal_names_term) = match refusal {
        Err(ClientError::NotLeader { current_term }) => (true, current_term),
        other => {
            println!("zombie answered a stale-term write with {other:?}");
            (false, 0)
        }
    };

    let snapshot = cluster.control_metrics();
    cluster.shutdown();

    let mut table = Table::new(&["metric", "value"]);
    table.row(vec!["writes acked".into(), writes.acked.to_string()]);
    table.row(vec![
        "writes refused (typed)".into(),
        writes.refused.to_string(),
    ]);
    table.row(vec![
        "writes outcome-unknown".into(),
        writes.unknown.to_string(),
    ]);
    table.row(vec![
        "writes failed (transport)".into(),
        writes.failed.to_string(),
    ]);
    table.row(vec!["reads ok".into(), reads.ok.to_string()]);
    table.row(vec!["reads wrong".into(), reads.wrong.to_string()]);
    table.row(vec!["reads errors".into(), reads.errors.to_string()]);
    table.row(vec![
        "lost acked writes".into(),
        lost_acked_writes.to_string(),
    ]);
    table.row(vec![
        "zombie-acked writes".into(),
        writes.term_regressions.to_string(),
    ]);
    table.row(vec![
        "write unavailability (ms)".into(),
        f1(write_unavailability.as_secs_f64() * 1e3),
    ]);
    table.row(vec![
        "zombie fenced + refuses".into(),
        format!("{zombie_refused_after_fence} (current_term={zombie_refusal_names_term})"),
    ]);
    table.print();

    assert!(writes.acked > 0, "the storm acked no writes at all");
    assert!(reads.ok > 0, "the storm completed no reads at all");
    assert_eq!(
        reads.wrong, 0,
        "a read returned another entity's (or a future) value"
    );
    assert_eq!(lost_acked_writes, 0, "an acknowledged write was lost");
    assert_eq!(
        writes.term_regressions, 0,
        "an ack's term went backwards: a zombie accepted a routed write"
    );
    assert!(
        write_unavailability <= unavailability_bound,
        "write unavailability {write_unavailability:?} exceeded {unavailability_bound:?}"
    );
    assert!(
        zombie_refused_after_fence,
        "the revived zombie accepted a stale-term write after the fence"
    );
    assert_eq!(
        zombie_refusal_names_term, promotion_term,
        "the zombie's refusal must name the fencing term"
    );

    let artifact = Artifact {
        experiment: "e23_write_failover".to_string(),
        shards: SHARDS,
        followers: 1,
        entities: ENTITIES,
        writer_threads: WRITERS,
        reader_threads: READERS,
        writes_acked: writes.acked,
        writes_refused: writes.refused,
        writes_outcome_unknown: writes.unknown,
        writes_failed: writes.failed,
        reads_ok: reads.ok,
        reads_wrong: reads.wrong,
        reads_errors: reads.errors,
        lost_acked_writes,
        zombie_acked_writes: writes.term_regressions,
        write_unavailability_ms: write_unavailability.as_secs_f64() * 1e3,
        promotion_term,
        promotion_map_version,
        probe_rounds: snapshot.probe_rounds,
        zombie_refused_after_fence,
        zombie_refusal_names_term,
    };
    super::write_artifact("BENCH_failover.json", &artifact)?;
    println!(
        "\nShape check: acked writes survive the leader's death because the\n\
         kill finds them replicated; the outage window is probe cadence +\n\
         one wire promotion + a router refresh; and the revived leader is\n\
         a spectator — fenced by term before it can accept anything stale."
    );
    Ok(())
}
