//! Fail-stop on a lost publication: on a durable replication leader, a
//! cell publication whose WAL append fails is visible in the leader's
//! memory but on neither the WAL nor the replication log. The stream then
//! refuses what would build on it — online writes (not applied), later
//! publications (not logged, not replicated) and checkpoints — until the
//! durable leader is reopened, and a follower bootstrapped before the
//! failure syncs to exactly what recovery restored.
//!
//! The failure is a real partial write: `RLIMIT_FSIZE` caps the WAL a few
//! bytes past its current end, so `write` lands part of the publication
//! and then fails with `EFBIG` (`SIGXFSZ` ignored). The limit is
//! process-wide, which is why this check is a test binary of its own with
//! one test.
#![cfg(all(target_os = "linux", target_pointer_width = "64"))]

use fstore_common::{EntityKey, Schema, Timestamp, Value, ValueType};
use fstore_durable::{CheckpointStore, DurableConfig, DurableLeader};
use fstore_repl::{Follower, LeaderParts, ReplLeader};
use fstore_serve::{fixed_clock, start, Request, ServeConfig};
use fstore_storage::TableConfig;
use std::os::raw::c_int;
use std::sync::Arc;

#[path = "../../serve/tests/common/mod.rs"]
mod common;

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

extern "C" {
    fn getrlimit(resource: c_int, limit: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, limit: *const RLimit) -> c_int;
    fn signal(signum: c_int, handler: usize) -> usize;
}

const RLIMIT_FSIZE: c_int = 1;
const SIGXFSZ: c_int = 25;
const SIG_IGN: usize = 1;

/// Set the soft file-size limit, returning the previous one.
fn file_size_limit(bytes: u64) -> u64 {
    let mut limit = RLimit { cur: 0, max: 0 };
    // SAFETY: `limit` is a valid, writable `struct rlimit`.
    assert_eq!(unsafe { getrlimit(RLIMIT_FSIZE, &mut limit) }, 0);
    let previous = limit.cur;
    limit.cur = bytes.min(limit.max);
    // SAFETY: `limit` is a valid `struct rlimit` that outlives the call.
    assert_eq!(unsafe { setrlimit(RLIMIT_FSIZE, &limit) }, 0);
    previous
}

const NOW: Timestamp = Timestamp(1_000_000);

fn append(leader: &ReplLeader, n: i64) {
    leader
        .parts()
        .offline
        .write(|s| s.append("events", &[Value::Int(n)]))
        .unwrap();
}

fn put(leader: &ReplLeader, entity: &str, score: i64) -> fstore_common::Result<u64> {
    leader.put_online(
        "user",
        &EntityKey::new(entity),
        &[("score", Value::Int(score))],
        NOW,
    )
}

fn serve(leader: &Arc<ReplLeader>, addr: &str) -> fstore_serve::ServerHandle {
    let config = ServeConfig::builder().addr(addr).build().unwrap();
    start(leader.engine(fixed_clock(NOW)), config).unwrap()
}

#[test]
fn a_publication_the_wal_refuses_is_never_replicated_and_fuses_the_stream() {
    let _watchdog =
        common::watchdog("a_publication_the_wal_refuses_is_never_replicated_and_fuses_the_stream");
    // SAFETY: ignoring a signal installs no handler code.
    unsafe { signal(SIGXFSZ, SIG_IGN) };
    let dir =
        std::env::temp_dir().join(format!("fstore_publish_wal_failure_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let (durable, _) = DurableLeader::open(&dir, DurableConfig::default()).unwrap();
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
    append(&leader, 1);
    put(&leader, "u1", 1).unwrap();
    let logged = leader.log().last_seq();
    assert_eq!(logged, 3);

    let server = serve(&leader, "127.0.0.1:0");
    let addr = server.addr().to_string();
    let follower = Follower::bootstrap(&addr).unwrap();
    assert_eq!(follower.applied_epoch(), logged);

    // The WAL takes a few bytes of the next publication, then EFBIG.
    let wal = CheckpointStore::open(&dir).unwrap().wal_path(0);
    let end = std::fs::metadata(&wal).unwrap().len();
    let previous = file_size_limit(end + 10);
    append(&leader, 2);
    file_size_limit(previous);

    assert_eq!(
        leader.log().last_seq(),
        logged,
        "a publication the WAL lost was replicated"
    );
    assert_eq!(durable.published_seq(), logged);

    // The stream is fused, although the disk takes writes again.
    let refused = put(&leader, "u2", 2);
    assert!(
        refused.is_err(),
        "a write on a fused stream was acknowledged"
    );
    assert_eq!(
        durable.online().get("user", &EntityKey::new("u2"), "score"),
        None,
        "a refused write was applied"
    );
    append(&leader, 3);
    assert_eq!(
        leader.log().last_seq(),
        logged,
        "a later publication was replicated"
    );
    assert!(
        durable.checkpoint().is_err(),
        "a fused stream checkpointed state its followers never received"
    );
    let mut link = follower.connect().unwrap();
    assert_eq!(follower.sync_once(&mut link).unwrap().applied, 0);
    drop(link);

    // Reopen: recovery restores exactly what was logged, and the follower
    // bootstrapped before the failure syncs to it byte for byte.
    server.shutdown();
    drop(leader);
    drop(durable);
    let (revived, report) = DurableLeader::open(&dir, DurableConfig::default()).unwrap();
    assert_eq!(report.recovered_epoch, logged);
    let leader = ReplLeader::new(LeaderParts::from_durable(&revived));
    leader.attach_durable(Arc::clone(&revived));
    assert_eq!(put(&leader, "u3", 3).unwrap(), logged + 1);
    let server = serve(&leader, &addr);

    let mut link = follower.connect().unwrap();
    follower.sync_once(&mut link).unwrap();
    assert_eq!(follower.fallbacks(), 0);
    assert_eq!(follower.applied_epoch(), logged + 1);
    assert_eq!(follower.lag(), 0);
    assert_eq!(
        follower.offline().read().value.num_rows("events").unwrap(),
        1
    );
    assert_eq!(follower.offline().epoch(), leader.parts().offline.epoch());
    assert_eq!(
        follower.online().export_rows(),
        leader.parts().online.export_rows()
    );
    let (on_leader, on_follower) = (
        leader.parts().engine(fixed_clock(NOW)),
        follower.engine(fixed_clock(NOW)),
    );
    for entity in ["u1", "u2", "u3"] {
        let read = Request::GetFeatures {
            group: "user".into(),
            entity: entity.into(),
            features: vec!["score".into()],
        };
        let a = on_leader.handle(&read, 0, false).encode();
        let b = on_follower.handle(&read, 0, false).encode();
        assert_eq!(a.as_slice(), b.as_slice(), "{entity} differs");
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
