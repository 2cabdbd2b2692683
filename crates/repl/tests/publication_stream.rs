//! One publication stream per leader: the WAL and the replication log are
//! the same stream, numbered by one counter.
//!
//! * A replication leader rebuilt over a recovered durable leader numbers
//!   its log on from the recovered sequence, so a follower restarting from
//!   its snapshot cache catches up by delta instead of mistaking the new
//!   writes for ones it already holds.
//! * Under concurrent offline, embedding and online publications, what
//!   recovery reads from the WAL is, record for record, what the log
//!   shipped.
//! * A cached follower that is *ahead* of a restarted non-durable leader
//!   re-bootstraps instead of keeping state the leader no longer has.

use fstore_common::{DeltaQuery, EntityKey, Schema, Timestamp, Value, ValueType};
use fstore_durable::{CheckpointStore, DurableConfig, DurableLeader, SnapshotCache};
use fstore_embed::{EmbeddingProvenance, EmbeddingTable};
use fstore_repl::{Follower, LeaderParts, ReplLeader};
use fstore_serve::{fixed_clock, start, OnlineWrite, Request, ServeConfig};
use fstore_storage::TableConfig;
use std::path::PathBuf;
use std::sync::Arc;

#[path = "../../serve/tests/common/mod.rs"]
mod common;

const NOW: Timestamp = Timestamp(1_000_000);

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fstore_pubstream_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write(leader: &ReplLeader, entity: &str, score: i64) -> u64 {
    leader
        .put_online(
            "user",
            &EntityKey::new(entity),
            &[("score", Value::Int(score))],
            NOW,
        )
        .unwrap()
}

/// The follower answers every read exactly as the leader does.
fn assert_byte_identical(leader: &ReplLeader, follower: &Follower, entities: &[&str]) {
    assert_eq!(
        follower.online().export_rows(),
        leader.parts().online.export_rows()
    );
    let (on_leader, on_follower) = (
        leader.parts().engine(fixed_clock(NOW)),
        follower.engine(fixed_clock(NOW)),
    );
    for entity in entities {
        let read = Request::GetFeatures {
            group: "user".into(),
            entity: entity.to_string(),
            features: vec!["score".into()],
        };
        let a = on_leader.handle(&read, 0, false).encode();
        let b = on_follower.handle(&read, 0, false).encode();
        assert_eq!(a.as_slice(), b.as_slice(), "{entity} differs");
    }
}

#[test]
fn a_cached_follower_catches_up_with_a_restarted_durable_leader() {
    let _watchdog =
        common::watchdog("a_cached_follower_catches_up_with_a_restarted_durable_leader");
    let dir = temp_dir("restart");
    let cache = dir.join("follower.cache");
    let durable_dir = dir.join("leader");

    {
        let (durable, _) = DurableLeader::open(&durable_dir, DurableConfig::default()).unwrap();
        let leader = ReplLeader::new(LeaderParts::from_durable(&durable));
        leader.attach_durable(Arc::clone(&durable));
        for (i, entity) in ["a", "b", "c"].into_iter().enumerate() {
            write(&leader, entity, i as i64);
        }
        let server = start(leader.engine(fixed_clock(NOW)), ServeConfig::default()).unwrap();
        let follower =
            Follower::bootstrap_with_cache(server.addr().to_string(), SnapshotCache::new(&cache))
                .unwrap();
        assert_eq!(follower.applied_epoch(), 3);
        server.shutdown();
        // Crash: no checkpoint, nothing closed in order.
    }

    let (revived, report) = DurableLeader::open(&durable_dir, DurableConfig::default()).unwrap();
    assert_eq!(report.recovered_epoch, 3);
    let leader = ReplLeader::new(LeaderParts::from_durable(&revived));
    leader.attach_durable(Arc::clone(&revived));
    let seqs: Vec<u64> = ["a", "d", "e"]
        .into_iter()
        .map(|entity| write(&leader, entity, 100))
        .collect();

    let server = start(leader.engine(fixed_clock(NOW)), ServeConfig::default()).unwrap();
    let follower =
        Follower::bootstrap_with_cache(server.addr().to_string(), SnapshotCache::new(&cache))
            .unwrap();
    let mut link = follower.connect().unwrap();
    for _ in 0..5 {
        follower.sync_once(&mut link).unwrap();
    }
    assert_eq!(follower.disk_bootstraps(), 1, "the cache was not used");
    assert_eq!(follower.wire_bootstraps(), 0, "caught up by full snapshot");
    assert_eq!(follower.applied_epoch(), 6);
    assert_eq!(follower.lag(), 0);
    for entity in ["a", "d", "e"] {
        let held = follower
            .online()
            .get("user", &EntityKey::new(entity), "score")
            .map(|e| e.value.clone());
        assert_eq!(
            held,
            Some(Value::Int(100)),
            "the write to {entity} never arrived"
        );
    }
    assert_byte_identical(&leader, &follower, &["a", "b", "c", "d", "e"]);
    assert_eq!(seqs, [4, 5, 6], "the log numbers on from the WAL");
    assert_eq!(revived.published_seq(), 6);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

fn embedding(version: u32) -> EmbeddingTable {
    let mut table = EmbeddingTable::new(4).unwrap();
    for i in 0..4u32 {
        table
            .insert(format!("e{i}"), vec![(i + version) as f32, 0.5, 1.0, 2.0])
            .unwrap();
    }
    table
}

#[test]
fn the_wal_and_the_log_hold_the_same_records_under_concurrent_publishers() {
    let _watchdog =
        common::watchdog("the_wal_and_the_log_hold_the_same_records_under_concurrent_publishers");
    let dir = temp_dir("one_stream");
    let (durable, report) = DurableLeader::open(&dir, DurableConfig::default()).unwrap();
    assert!(report.cold_start);
    let leader = ReplLeader::with_retention(LeaderParts::from_durable(&durable), 4096);
    leader.attach_durable(Arc::clone(&durable));
    leader
        .parts()
        .offline
        .write(|s| s.create_table("t", TableConfig::new(Schema::of(&[("x", ValueType::Int)]))))
        .unwrap();

    const ROUNDS: i64 = 40;
    std::thread::scope(|scope| {
        let parts = leader.parts();
        scope.spawn(|| {
            for i in 0..ROUNDS {
                parts
                    .offline
                    .write(|s| s.append("t", &[Value::Int(i)]))
                    .unwrap();
            }
        });
        scope.spawn(|| {
            for version in 0..ROUNDS as u32 {
                let provenance = EmbeddingProvenance::default();
                parts
                    .embeddings
                    .publish("emb", embedding(version), provenance, NOW)
                    .unwrap();
            }
        });
        scope.spawn(|| {
            let rows: Vec<(String, Vec<(String, Value)>)> = (0..4)
                .map(|i| (format!("u{i}"), vec![("score".into(), Value::Int(i))]))
                .collect();
            for _ in 0..ROUNDS {
                let writes: Vec<OnlineWrite<'_>> = rows
                    .iter()
                    .map(|(entity, values)| OnlineWrite {
                        group: "user",
                        entity,
                        values,
                    })
                    .collect();
                for seq in leader.put_online_many(&writes, NOW) {
                    seq.unwrap();
                }
            }
        });
    });

    let log = Arc::clone(leader.log());
    let published = durable.published_seq();
    assert_eq!(published, 1 + 2 * ROUNDS as u64 + 4 * ROUNDS as u64);
    assert_eq!(log.last_seq(), published);
    drop(leader);
    drop(durable);

    let wal = CheckpointStore::open(&dir).unwrap().wal_path(0);
    let committed = fstore_durable::wal::recover(&wal).unwrap().committed;
    let DeltaQuery::Deltas(shipped) = log.since(0) else {
        panic!("the log fell out of retention")
    };
    assert_eq!(committed.len(), shipped.len());
    for (on_disk, on_wire) in committed.iter().zip(&shipped) {
        assert_eq!(on_disk.seq, on_wire.seq);
        assert_eq!(on_disk.component, on_wire.component);
        assert_eq!(on_disk.component_epoch, on_wire.component_epoch);
        assert_eq!(on_disk.body.as_bytes(), on_wire.body.as_bytes());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_cached_follower_ahead_of_a_restarted_leader_rebootstraps() {
    let _watchdog = common::watchdog("a_cached_follower_ahead_of_a_restarted_leader_rebootstraps");
    let dir = temp_dir("ahead");
    let cache = dir.join("follower.cache");

    {
        let first = ReplLeader::new(LeaderParts::new());
        for (i, entity) in ["a", "b", "c", "d", "e"].into_iter().enumerate() {
            write(&first, entity, i as i64);
        }
        let server = start(first.engine(fixed_clock(NOW)), ServeConfig::default()).unwrap();
        let follower =
            Follower::bootstrap_with_cache(server.addr().to_string(), SnapshotCache::new(&cache))
                .unwrap();
        assert_eq!(follower.applied_epoch(), 5);
        server.shutdown();
    }

    // The leader restarts with none of its history and publishes anew.
    let second = ReplLeader::new(LeaderParts::new());
    write(&second, "x", 7);
    write(&second, "a", 8);
    let server = start(second.engine(fixed_clock(NOW)), ServeConfig::default()).unwrap();
    let follower =
        Follower::bootstrap_with_cache(server.addr().to_string(), SnapshotCache::new(&cache))
            .unwrap();
    assert_eq!(follower.disk_bootstraps(), 1);
    assert_eq!(
        follower.fallbacks(),
        1,
        "the follower kept the old leader's state"
    );
    assert_eq!(follower.wire_bootstraps(), 1);
    assert_eq!(follower.applied_epoch(), 2);
    assert_eq!(follower.leader_epoch(), 2);
    assert_eq!(follower.lag(), 0);
    assert_byte_identical(&second, &follower, &["a", "b", "x"]);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
