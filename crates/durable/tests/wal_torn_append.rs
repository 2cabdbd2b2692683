//! A failed WAL append must not strand the appends after it: the writer
//! cuts whatever part of the failed write landed back off the file, so
//! the next successful append follows the last complete one and recovery
//! reaches it. Left in place, the torn bytes would end the durable prefix
//! and recovery would truncate every later — acknowledged — group.
//!
//! The failure is a real partial write: `RLIMIT_FSIZE` caps the file a
//! few bytes past its current end, so `write` lands part of a group and
//! then fails with `EFBIG` (`SIGXFSZ` ignored). The limit is process-wide,
//! which is why this check is a test binary of its own with one test.
#![cfg(all(target_os = "linux", target_pointer_width = "64"))]

use fstore_common::ComponentKind;
use fstore_durable::wal::recover;
use fstore_durable::{FsyncPolicy, WalWriter};
use std::os::raw::c_int;

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

#[test]
fn a_torn_append_is_cut_off_so_later_groups_survive_recovery() {
    // SAFETY: ignoring a signal installs no handler code.
    unsafe { signal(SIGXFSZ, SIG_IGN) };
    let dir = std::env::temp_dir().join(format!("fstore_wal_torn_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Both ways a writer opens its file: rotation (`truncate`, a plain
    // cursor) and reopening after recovery (`O_APPEND`).
    for truncate in [true, false] {
        let path = dir.join(format!("torn-{truncate}.log"));
        std::fs::remove_file(&path).ok();
        let mut writer = WalWriter::open(&path, FsyncPolicy::Never, truncate).unwrap();
        writer
            .append_group(1, ComponentKind::Online, 0, &["first"])
            .unwrap();
        let complete = std::fs::metadata(&path).unwrap().len();

        let previous = file_size_limit(complete + 10);
        let torn = writer.append_group(2, ComponentKind::Online, 0, &["torn in the write"]);
        file_size_limit(previous);
        assert!(torn.is_err(), "the capped write succeeded ({truncate})");
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            complete,
            "the torn bytes stayed in the file ({truncate})"
        );

        let third = writer
            .append_group(3, ComponentKind::Online, 0, &["acked after the failure"])
            .unwrap();
        drop(writer);
        let replay = recover(&path).unwrap();
        let seqs: Vec<u64> = replay.committed.iter().map(|d| d.seq).collect();
        assert_eq!(seqs, [1, 3], "recovery lost the group after the failure");
        assert_eq!(replay.last_seq, 3);
        assert_eq!(replay.truncated_bytes, 0);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            complete + third.bytes
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
