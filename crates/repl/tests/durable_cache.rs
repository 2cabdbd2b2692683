//! Replication meets durability: followers that restart from a local
//! snapshot cache (wire transfer only when behind retention), and a
//! replication leader layered over a durable one so the same publications
//! feed the publication log and the WAL.

use fstore_common::{EntityKey, Schema, Timestamp, Value, ValueType};
use fstore_durable::{DurableConfig, DurableLeader, SnapshotCache};
use fstore_repl::{Follower, LeaderParts, ReplLeader};
use fstore_serve::{fixed_clock, start, ServeConfig};
use fstore_storage::TableConfig;
use std::path::PathBuf;
use std::sync::Arc;

fn now_ts() -> Timestamp {
    Timestamp::millis(1_000_000)
}

fn serve_config() -> ServeConfig {
    ServeConfig::builder()
        .addr("127.0.0.1:0")
        .workers(2)
        .queue_depth(64)
        .max_batch(8)
        .build()
        .unwrap()
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fstore_durable_cache_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn seeded_leader(retention: usize) -> Arc<ReplLeader> {
    let leader = ReplLeader::with_retention(LeaderParts::new(), retention);
    leader
        .parts()
        .offline
        .write(|s| {
            s.create_table(
                "events",
                TableConfig::new(Schema::of(&[("n", ValueType::Int)])),
            )
        })
        .unwrap();
    leader
        .parts()
        .offline
        .write(|s| s.append("events", &[Value::Int(1)]))
        .unwrap();
    leader
        .put_online(
            "user",
            &EntityKey::new("u1"),
            &[("score", Value::Float(0.5))],
            now_ts(),
        )
        .unwrap();
    leader
}

#[test]
fn follower_restart_bootstraps_from_disk_not_the_wire() {
    let leader = seeded_leader(256);
    let handle = start(leader.engine(fixed_clock(now_ts())), serve_config()).unwrap();
    let addr = handle.addr().to_string();
    let cache_path = temp_path("restart.cache");
    std::fs::remove_file(&cache_path).ok();

    // First run: nothing cached yet, so bootstrap pulls over the wire —
    // and leaves the snapshot on disk.
    let first = Follower::bootstrap_with_cache(&addr, SnapshotCache::new(&cache_path)).unwrap();
    assert_eq!(first.wire_bootstraps(), 1);
    assert_eq!(first.disk_bootstraps(), 0);
    assert!(
        cache_path.exists(),
        "bootstrap did not persist the snapshot"
    );
    let applied_then = first.applied_epoch();
    drop(first);

    // The leader moves on — but stays within the retention window.
    for i in 0..5 {
        leader
            .parts()
            .offline
            .write(|s| s.append("events", &[Value::Int(10 + i)]))
            .unwrap();
    }

    // Restart: state comes from disk, catch-up comes from deltas. The
    // wire counter proves no full snapshot crossed the network.
    let second = Follower::bootstrap_with_cache(&addr, SnapshotCache::new(&cache_path)).unwrap();
    assert_eq!(second.disk_bootstraps(), 1, "cache was not used");
    assert_eq!(second.wire_bootstraps(), 0, "full snapshot re-pulled");
    assert_eq!(second.fallbacks(), 0);
    assert!(second.applied_epoch() >= applied_then);

    let mut client = second.connect().unwrap();
    for _ in 0..10 {
        second.sync_once(&mut client).unwrap();
        if second.lag() == 0 {
            break;
        }
    }
    assert_eq!(second.lag(), 0);
    assert_eq!(
        second.offline().read().value.num_rows("events").unwrap(),
        6,
        "delta catch-up missed rows"
    );

    handle.shutdown();
    std::fs::remove_file(&cache_path).ok();
}

#[test]
fn stale_cache_past_retention_falls_back_to_the_wire() {
    let leader = seeded_leader(4);
    let handle = start(leader.engine(fixed_clock(now_ts())), serve_config()).unwrap();
    let addr = handle.addr().to_string();
    let cache_path = temp_path("stale.cache");
    std::fs::remove_file(&cache_path).ok();

    let first = Follower::bootstrap_with_cache(&addr, SnapshotCache::new(&cache_path)).unwrap();
    drop(first);

    // Blow far past the retention window while the follower is down.
    for i in 0..20 {
        leader
            .parts()
            .offline
            .write(|s| s.append("events", &[Value::Int(100 + i)]))
            .unwrap();
    }

    // The cached snapshot installs, but the first catch-up round learns it
    // lagged out and re-grounds from a fresh wire snapshot — which also
    // refreshes the cache for the next restart.
    let second = Follower::bootstrap_with_cache(&addr, SnapshotCache::new(&cache_path)).unwrap();
    assert_eq!(second.disk_bootstraps(), 1);
    assert_eq!(
        second.wire_bootstraps(),
        1,
        "lag fallback must hit the wire"
    );
    assert_eq!(second.fallbacks(), 1);
    assert_eq!(second.lag(), 0);
    assert_eq!(
        second.offline().read().value.num_rows("events").unwrap(),
        21
    );

    let refreshed = SnapshotCache::new(&cache_path).load().unwrap().unwrap();
    assert_eq!(refreshed.0, second.applied_epoch(), "cache not refreshed");

    handle.shutdown();
    std::fs::remove_file(&cache_path).ok();
}

#[test]
fn replication_leader_over_a_durable_one_survives_a_crash() {
    let dir = std::env::temp_dir().join(format!(
        "fstore_durable_cache_repl_crash_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();

    {
        let (durable, report) = DurableLeader::open(&dir, DurableConfig::default()).unwrap();
        assert!(report.cold_start);
        // Replication shares the durable leader's publication stream.
        let leader = ReplLeader::new(LeaderParts::from_durable(&durable));
        leader.attach_durable(Arc::clone(&durable));

        leader
            .parts()
            .offline
            .write(|s| {
                s.create_table(
                    "events",
                    TableConfig::new(Schema::of(&[("n", ValueType::Int)])),
                )
            })
            .unwrap();
        leader
            .parts()
            .offline
            .write(|s| s.append("events", &[Value::Int(7)]))
            .unwrap();
        leader
            .put_online(
                "user",
                &EntityKey::new("u1"),
                &[("score", Value::Float(0.5))],
                now_ts(),
            )
            .unwrap();

        // The WAL and the log saw all three publications, at one seq each.
        assert_eq!(leader.log().last_seq(), 3);
        assert_eq!(durable.published_seq(), 3);
        // Crash: no checkpoint.
    }

    let (revived, report) = DurableLeader::open(&dir, DurableConfig::default()).unwrap();
    assert_eq!(report.recovered_epoch, 3);
    assert_eq!(
        revived.offline().read().value.num_rows("events").unwrap(),
        1
    );
    let online = revived
        .online()
        .get("user", &EntityKey::new("u1"), "score")
        .map(|e| e.value.clone());
    assert_eq!(online, Some(Value::Float(0.5)));

    std::fs::remove_dir_all(&dir).ok();
}
