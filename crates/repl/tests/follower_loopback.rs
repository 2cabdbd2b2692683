//! Leader + follower over real sockets: bootstrap mid-storm, epoch
//! monotonicity, byte-identity at equal epochs, full-snapshot fallback
//! after lagging past retention, and an unreadable snapshot cache
//! treated as none.

use fstore_common::{EntityKey, ReadEpoch, Schema, Timestamp, Value, ValueType};
use fstore_embed::{EmbeddingProvenance, EmbeddingTable};
use fstore_repl::codec::decode_snapshot;
use fstore_repl::{Follower, LeaderParts, ReplLeader, SnapshotCache};
use fstore_serve::{fixed_clock, start, FeatureClient, IndexSpec, Request, Response, ServeConfig};
use fstore_storage::TableConfig;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

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

fn publish_embedding(leader: &ReplLeader, version_seed: u32) {
    let mut table = EmbeddingTable::new(4).unwrap();
    for i in 0..6 {
        table
            .insert(
                format!("e{i}"),
                vec![
                    (i + version_seed) as f32,
                    i as f32 * 0.5,
                    version_seed as f32,
                    1.0,
                ],
            )
            .unwrap();
    }
    leader
        .parts()
        .embeddings
        .publish("emb", table, EmbeddingProvenance::default(), now_ts())
        .unwrap();
}

#[test]
fn follower_bootstraps_mid_storm_and_converges_byte_identically() {
    let leader = ReplLeader::with_retention(LeaderParts::new(), 256);

    // Seed pre-subscription state: an offline table, embeddings + index,
    // and one online row. All of it must arrive via the full snapshot.
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
    publish_embedding(&leader, 0);
    leader
        .parts()
        .indexes
        .build("emb", &IndexSpec::Flat)
        .unwrap();
    leader
        .put_online(
            "user",
            &EntityKey::new("u1"),
            &[("score", Value::Float(0.25))],
            now_ts(),
        )
        .unwrap();

    let handle = start(leader.engine(fixed_clock(now_ts())), serve_config()).unwrap();
    let addr = handle.addr().to_string();

    // Publish storm while the follower bootstraps and catches up.
    let storming = Arc::new(AtomicBool::new(true));
    let storm = {
        let leader = Arc::clone(&leader);
        let storming = Arc::clone(&storming);
        std::thread::spawn(move || {
            let mut i = 0i64;
            while storming.load(Ordering::Acquire) {
                leader
                    .parts()
                    .offline
                    .write(|s| s.append("events", &[Value::Int(i)]))
                    .unwrap();
                if i % 7 == 0 {
                    leader
                        .put_online(
                            "user",
                            &EntityKey::new(format!("u{}", i % 5)),
                            &[("score", Value::Float(i as f64))],
                            now_ts(),
                        )
                        .unwrap();
                }
                i += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };

    let follower = Arc::new(Follower::bootstrap(&addr).unwrap());
    let mut sync_client = follower.connect().unwrap();

    // Applied epochs must be monotone and never ahead of the leader's.
    let mut last_applied = follower.applied_epoch();
    for _ in 0..20 {
        let report = follower.sync_once(&mut sync_client).unwrap();
        assert!(follower.applied_epoch() >= last_applied, "epoch regressed");
        assert!(
            follower.applied_epoch() <= report.leader_epoch,
            "follower ahead of leader"
        );
        last_applied = follower.applied_epoch();
        std::thread::sleep(Duration::from_millis(5));
    }

    // Stop the storm, drain the remaining deltas: follower converges to
    // the leader's exact replication epoch.
    storming.store(false, Ordering::Release);
    storm.join().unwrap();
    for _ in 0..50 {
        follower.sync_once(&mut sync_client).unwrap();
        if follower.lag() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(follower.lag(), 0, "follower did not converge");
    assert_eq!(follower.fallbacks(), 0, "in-window catch-up used fallback");

    // Replicated state matches the leader exactly.
    let leader_offline = leader.parts().offline.read();
    let follower_offline = follower.offline().read();
    assert_eq!(follower_offline.epoch, leader_offline.epoch);
    assert_eq!(
        follower_offline.value.num_rows("events").unwrap(),
        leader_offline.value.num_rows("events").unwrap()
    );

    // Byte-identity: the follower's server answers every endpoint with
    // exactly the leader's bytes (same epochs, same fixed clock).
    let follower_handle = start(follower.engine(fixed_clock(now_ts())), serve_config()).unwrap();
    let mut to_leader = FeatureClient::connect(handle.addr()).unwrap();
    let mut to_follower = FeatureClient::connect(follower_handle.addr()).unwrap();
    let requests = [
        Request::GetFeatures {
            group: "user".into(),
            entity: "u1".into(),
            features: vec!["score".into()],
        },
        Request::GetEmbedding {
            table: "emb".into(),
            key: "e3".into(),
        },
        Request::SearchNearest {
            table: "emb".into(),
            query: vec![2.0, 1.0, 0.0, 1.0],
            k: 3,
            options: Default::default(),
        },
    ];
    for request in &requests {
        let a = to_leader.call(request).unwrap();
        let b = to_follower.call(request).unwrap();
        assert!(
            !matches!(a, Response::Error { .. }),
            "leader errored: {a:?}"
        );
        assert_eq!(a.encode(), b.encode(), "divergent answer for {request:?}");
    }

    follower_handle.shutdown();
    handle.shutdown();
}

#[test]
fn lagged_follower_recovers_via_full_snapshot_fallback() {
    // Tiny retention: a few publishes push a stalled follower out of the
    // delta window.
    let leader = ReplLeader::with_retention(LeaderParts::new(), 4);
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

    let handle = start(leader.engine(fixed_clock(now_ts())), serve_config()).unwrap();
    let follower = Follower::bootstrap(handle.addr().to_string()).unwrap();
    let mut client = follower.connect().unwrap();

    // The follower stalls while the leader publishes far past retention.
    for i in 0..20i64 {
        leader
            .parts()
            .offline
            .write(|s| s.append("events", &[Value::Int(i)]))
            .unwrap();
    }

    let report = follower.sync_once(&mut client).unwrap();
    assert!(report.resynced, "expected a full-snapshot fallback");
    assert_eq!(follower.fallbacks(), 1);
    assert_eq!(
        follower.lag(),
        0,
        "fallback must land on the leader's epoch"
    );
    assert_eq!(
        follower.offline().read().value.num_rows("events").unwrap(),
        20
    );
    assert_eq!(follower.offline().epoch(), ReadEpoch(21));

    // Subsequent in-window publishes flow as ordinary deltas again.
    leader
        .parts()
        .offline
        .write(|s| s.append("events", &[Value::Int(99)]))
        .unwrap();
    let report = follower.sync_once(&mut client).unwrap();
    assert!(!report.resynced);
    assert_eq!(report.applied, 1);
    assert_eq!(
        follower.offline().read().value.num_rows("events").unwrap(),
        21
    );

    handle.shutdown();
}

#[test]
fn an_intact_cache_around_an_unreadable_snapshot_falls_back_to_the_wire() {
    let leader = ReplLeader::with_retention(LeaderParts::new(), 256);
    leader
        .put_online(
            "user",
            &EntityKey::new("u1"),
            &[("score", Value::Float(0.5))],
            now_ts(),
        )
        .unwrap();
    let handle = start(leader.engine(fixed_clock(now_ts())), serve_config()).unwrap();
    let path = std::env::temp_dir().join(format!("fstore_garbage_{}.cache", std::process::id()));
    // The envelope's CRC holds, but no snapshot decoder reads the payload
    // (here: the shape of the previous, JSON format).
    SnapshotCache::new(&path)
        .store(1, br#"{"repl_epoch":1,"offline_json":"{}","online":[]}"#)
        .unwrap();

    let follower =
        Follower::bootstrap_with_cache(handle.addr().to_string(), SnapshotCache::new(&path))
            .unwrap();
    assert_eq!(follower.disk_bootstraps(), 0, "garbage installed from disk");
    assert_eq!(follower.wire_bootstraps(), 1);
    let score = follower
        .online()
        .get("user", &EntityKey::new("u1"), "score");
    assert_eq!(score.map(|e| e.value), Some(Value::Float(0.5)));

    // The wire pull rewrote the cache with a snapshot the next restart reads.
    let (epoch, payload) = SnapshotCache::new(&path).load().unwrap().unwrap();
    assert_eq!(epoch, follower.applied_epoch());
    assert_eq!(decode_snapshot(&payload).unwrap().repl_epoch, epoch);

    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn background_sync_loop_tracks_a_live_leader() {
    let leader = ReplLeader::with_retention(LeaderParts::new(), 256);
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
    let handle = start(leader.engine(fixed_clock(now_ts())), serve_config()).unwrap();

    let follower = Arc::new(Follower::bootstrap(handle.addr().to_string()).unwrap());
    let sync = follower.start_sync(Duration::from_millis(2));

    for i in 0..30i64 {
        leader
            .parts()
            .offline
            .write(|s| s.append("events", &[Value::Int(i)]))
            .unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    // Publishes stopped; the loop must drain the tail. Wait on the
    // leader's actual last seq — `lag()` reflects the previous exchange
    // and can read 0 for one poll interval after a publish.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while follower.applied_epoch() != leader.log().last_seq()
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    sync.stop();
    assert_eq!(
        follower.applied_epoch(),
        leader.log().last_seq(),
        "sync loop never converged"
    );
    assert_eq!(follower.lag(), 0, "lag nonzero after convergence");
    assert_eq!(
        follower.offline().read().value.num_rows("events").unwrap(),
        30
    );
    handle.shutdown();
}
