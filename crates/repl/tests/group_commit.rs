//! Group commit, counted: a group of writes through
//! `ReplLeader::put_online_many` is one WAL append — one write, one commit
//! marker, one fsync under `FsyncPolicy::Always` — takes consecutive
//! publication sequences, replicates to a follower byte-identically, and
//! recovers whole.

use fstore_common::{ComponentKind, DeltaQuery, Timestamp, Value};
use fstore_durable::{DurableConfig, DurableLeader, FsyncPolicy};
use fstore_repl::{Follower, LeaderParts, ReplLeader};
use fstore_serve::{fixed_clock, start, OnlineWrite, Request, ServeConfig, ServingMetrics};
use std::sync::Arc;

const GROUP: usize = 32;
const NOW: Timestamp = Timestamp(1_000_000);

#[test]
fn a_group_of_32_writes_is_one_wal_append_and_one_fsync() {
    let dir = std::env::temp_dir().join(format!("fstore_group_commit_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let always = DurableConfig {
        fsync: FsyncPolicy::Always,
    };
    let (durable, _) = DurableLeader::open(&dir, always).unwrap();
    let leader = ReplLeader::new(LeaderParts::from_durable(&durable));
    leader.attach_durable(Arc::clone(&durable));
    let metrics = Arc::new(ServingMetrics::new());
    durable.attach_metrics(Arc::clone(&metrics));
    let server = start(leader.engine(fixed_clock(NOW)), ServeConfig::default()).unwrap();
    let follower = Follower::bootstrap(server.addr().to_string()).unwrap();
    let mut link = follower.connect().unwrap();

    let entities: Vec<String> = (0..GROUP).map(|i| format!("u{i}")).collect();
    let rows: Vec<Vec<(String, Value)>> = (0..GROUP as i64)
        .map(|i| {
            vec![
                ("score".to_string(), Value::Int(i)),
                ("tier".to_string(), Value::Str(format!("t{}", i % 3))),
            ]
        })
        .collect();
    let writes: Vec<OnlineWrite<'_>> = entities
        .iter()
        .zip(&rows)
        .map(|(entity, values)| OnlineWrite {
            group: "user",
            entity,
            values,
        })
        .collect();

    let (appends, fsyncs) = (metrics.wal_appends(), metrics.wal_fsyncs());
    let before = leader.log().last_seq();
    let seqs: Vec<u64> = leader
        .put_online_many(&writes, NOW)
        .into_iter()
        .map(Result::unwrap)
        .collect();
    assert_eq!(
        metrics.wal_appends() - appends,
        1,
        "one WAL append per group"
    );
    assert_eq!(metrics.wal_fsyncs() - fsyncs, 1, "one fsync per group");
    let want: Vec<u64> = (before + 1..=before + GROUP as u64).collect();
    assert_eq!(seqs, want, "consecutive publication sequences");
    let DeltaQuery::Deltas(records) = leader.log().since(before) else {
        panic!("the group fell out of retention")
    };
    assert_eq!(records.iter().map(|r| r.seq).collect::<Vec<_>>(), want);
    assert!(records.iter().all(|r| r.component == ComponentKind::Online));

    // One poll brings the follower to byte-identity with the leader.
    follower.sync_once(&mut link).unwrap();
    assert_eq!(follower.applied_epoch(), before + GROUP as u64);
    assert_eq!(
        follower.online().export_rows(),
        leader.parts().online.export_rows()
    );
    let (on_leader, on_follower) = (
        leader.engine(fixed_clock(NOW)),
        follower.engine(fixed_clock(NOW)),
    );
    for entity in &entities {
        let read = Request::GetFeatures {
            group: "user".into(),
            entity: entity.clone(),
            features: vec!["score".into(), "tier".into()],
        };
        let a = on_leader.handle(&read, 0, false).encode();
        let b = on_follower.handle(&read, 0, false).encode();
        assert_eq!(a.as_slice(), b.as_slice(), "{entity} differs");
    }
    server.shutdown();

    // The group is one committed unit on disk: a restart replays all of it.
    let (_, report) = DurableLeader::open(&dir, always).unwrap();
    assert_eq!(report.replayed, GROUP);
    assert_eq!(report.truncated_bytes, 0);
    std::fs::remove_dir_all(&dir).ok();
}
