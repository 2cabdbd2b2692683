//! The write-ahead log: length-prefixed, CRC-checksummed records with
//! epoch-tagged commit markers.
//!
//! The durable leader logs publications in groups, each written with one
//! `write` ([`WalWriter::append_group`]): one [`WalRecord::Delta`] per
//! publication, carrying the serialized change at consecutive sequence
//! numbers, then one [`WalRecord::Commit`] naming the last of them. A
//! single publication is a group of one — a delta + commit pair. The
//! commit marker is the durability point — the fsync policy is applied
//! there, once per group, and [`recover`] only surfaces deltas whose
//! commit made it to disk, so a torn group is dropped whole. Everything
//! after the last complete commit (valid-but-uncommitted deltas, torn
//! record fragments, CRC failures) is *truncated off the file*, not just
//! skipped: a skipped-but-kept delta would be resurrected by the next
//! writer's commit marker.
//!
//! A failed append is cut off the file by the writer itself, so the next
//! successful append lands right after the last complete one rather than
//! behind torn bytes that recovery would stop at.
//!
//! Record envelope (little-endian):
//!
//! ```text
//! len u32 | crc32(len_bytes ++ body) u32 | body
//! body := kind u8 (1 = delta, 2 = commit) ++ payload
//! delta payload  := seq u64 | component u8 | component_epoch u64 | body (UTF-8)
//! commit payload := seq u64
//! ```
//!
//! A delta's body is the [`DeltaRecord`] body itself — the same encoded
//! bytes the publication log carries, stored as they are.

use fstore_common::{crc32_update, ComponentKind, DeltaRecord, FsError, Result};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const KIND_DELTA: u8 = 1;
const KIND_COMMIT: u8 = 2;
const DELTA_HEADER: usize = 17;

/// When the WAL calls `fsync` — always the trade between write latency and
/// the number of commits a crash can lose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync at every commit marker: a crash loses nothing acknowledged.
    Always,
    /// fsync every N commit markers — every N groups, since a group has
    /// one marker: a crash loses at most N-1 groups.
    EveryN(u32),
    /// Never fsync (the OS flushes eventually): fastest, weakest.
    Never,
}

/// One WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A serialized publication, identical in shape to what the replication
    /// log ships — durability and replication speak the same deltas.
    Delta(DeltaRecord),
    /// The record above (and any earlier uncommitted deltas) are now
    /// durable state as of sequence number `seq`.
    Commit { seq: u64 },
}

/// Append one record's envelope to `out`, its payload given in pieces.
fn put_record(out: &mut Vec<u8>, kind: u8, payload: &[&[u8]]) -> Result<()> {
    let len = 1 + payload.iter().map(|piece| piece.len()).sum::<usize>();
    let len = u32::try_from(len)
        .map_err(|_| FsError::Storage(format!("a {len}-byte WAL record exceeds 4 GiB")))?;
    let start = out.len();
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&[0; 4]); // the CRC, once the body is in place
    out.push(kind);
    for piece in payload {
        out.extend_from_slice(piece);
    }
    let crc = crc32_update(crc32_update(0, &out[start..start + 4]), &out[start + 8..]);
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

fn put_delta(
    out: &mut Vec<u8>,
    seq: u64,
    component: ComponentKind,
    component_epoch: u64,
    body: &str,
) -> Result<()> {
    put_record(
        out,
        KIND_DELTA,
        &[
            &seq.to_le_bytes(),
            &[component.as_u8()],
            &component_epoch.to_le_bytes(),
            body.as_bytes(),
        ],
    )
}

fn put_commit(out: &mut Vec<u8>, seq: u64) -> Result<()> {
    put_record(out, KIND_COMMIT, &[&seq.to_le_bytes()])
}

fn put(out: &mut Vec<u8>, record: &WalRecord) -> Result<()> {
    match record {
        WalRecord::Delta(d) => put_delta(out, d.seq, d.component, d.component_epoch, &d.body),
        WalRecord::Commit { seq } => put_commit(out, *seq),
    }
}

/// Encode one record into its on-disk envelope. Panics on a record of
/// 4 GiB or more, which [`WalWriter`] returns as an error instead.
pub fn encode_record(record: &WalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    put(&mut out, record).expect("WAL records are under 4 GiB");
    out
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte field"))
}

/// Decode the record at the front of `buf`.
///
/// `Ok(Some((record, consumed)))` on success, `Ok(None)` when `buf` holds
/// only a prefix of a record (a torn tail — not an error until someone
/// decides the file has no more bytes coming), `Err(Corruption)` when the
/// bytes are structurally complete but wrong (CRC mismatch, unknown kind,
/// unparseable payload).
pub fn decode_record(buf: &[u8]) -> Result<Option<(WalRecord, usize)>> {
    if buf.len() < 8 {
        return Ok(None);
    }
    let len_bytes = &buf[0..4];
    let len = u32::from_le_bytes(len_bytes.try_into().unwrap()) as usize;
    let want_crc = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    if len == 0 {
        return Err(FsError::Corruption("zero-length WAL record".into()));
    }
    if buf.len() < 8 + len {
        return Ok(None);
    }
    let body = &buf[8..8 + len];
    let got_crc = crc32_update(crc32_update(0, len_bytes), body);
    if got_crc != want_crc {
        return Err(FsError::Corruption(format!(
            "WAL record checksum mismatch: stored {want_crc:#010x}, computed {got_crc:#010x}"
        )));
    }
    let payload = &body[1..];
    let record = match body[0] {
        KIND_DELTA => {
            if payload.len() < DELTA_HEADER {
                return Err(FsError::Corruption(format!(
                    "WAL delta has {} payload bytes, fewer than its {DELTA_HEADER}-byte header",
                    payload.len()
                )));
            }
            let component = ComponentKind::from_u8(payload[8]).ok_or_else(|| {
                FsError::Corruption(format!("unknown WAL delta component {}", payload[8]))
            })?;
            let text = std::str::from_utf8(&payload[DELTA_HEADER..])
                .map_err(|e| FsError::Corruption(format!("WAL delta body is not UTF-8: {e}")))?;
            WalRecord::Delta(DeltaRecord {
                seq: le_u64(&payload[..8]),
                component,
                component_epoch: le_u64(&payload[9..DELTA_HEADER]),
                body: text.to_owned(),
            })
        }
        KIND_COMMIT => {
            if payload.len() != 8 {
                return Err(FsError::Corruption(format!(
                    "WAL commit marker has {} payload bytes, expected 8",
                    payload.len()
                )));
            }
            WalRecord::Commit {
                seq: le_u64(payload),
            }
        }
        k => return Err(FsError::Corruption(format!("unknown WAL record kind {k}"))),
    };
    Ok(Some((record, 8 + len)))
}

/// What one [`WalWriter::append`] or [`WalWriter::append_group`] did, so
/// callers can feed metrics.
#[derive(Debug, Clone, Copy)]
pub struct AppendInfo {
    pub bytes: u64,
    pub(crate) fsynced: bool,
}

/// An append-only WAL file handle.
pub struct WalWriter {
    file: File,
    path: PathBuf,
    policy: FsyncPolicy,
    commits_since_sync: u32,
    appends: u64,
    fsyncs: u64,
    /// File length after the last complete append; a failed append is cut
    /// back to it.
    end: u64,
    /// Set when a failed append could not be cut back: the file may end in
    /// torn bytes, so every later append is refused rather than written
    /// where recovery would never reach it.
    poisoned: bool,
    /// Reused encode buffer, so an append allocates nothing at steady state.
    buf: Vec<u8>,
}

impl WalWriter {
    /// Open `path` for appending (creating it if needed). `truncate` starts
    /// the log over — used when rotating at a checkpoint.
    pub fn open(
        path: impl Into<PathBuf>,
        policy: FsyncPolicy,
        truncate: bool,
    ) -> Result<WalWriter> {
        let path = path.into();
        let mut opts = OpenOptions::new();
        opts.create(true);
        if truncate {
            opts.write(true).truncate(true);
        } else {
            opts.append(true);
        }
        let open_err =
            |e: std::io::Error| FsError::Storage(format!("open WAL {}: {e}", path.display()));
        let file = opts.open(&path).map_err(open_err)?;
        let end = file.metadata().map_err(open_err)?.len();
        Ok(WalWriter {
            file,
            path,
            policy,
            commits_since_sync: 0,
            appends: 0,
            fsyncs: 0,
            end,
            poisoned: false,
            buf: Vec::new(),
        })
    }

    /// Append one record; commit markers trigger the fsync policy.
    pub fn append(&mut self, record: &WalRecord) -> Result<AppendInfo> {
        self.buf.clear();
        put(&mut self.buf, record)?;
        self.write_buf(1, matches!(record, WalRecord::Commit { .. }))
    }

    /// Append a group of publications of one component with a single
    /// write: a delta per body at consecutive sequences from `first_seq`,
    /// then one commit marker for the last. The fsync policy applies once,
    /// as at any commit. A group of one is exactly a delta + commit pair;
    /// an empty group writes nothing.
    pub fn append_group<B: AsRef<str>>(
        &mut self,
        first_seq: u64,
        component: ComponentKind,
        component_epoch: u64,
        bodies: &[B],
    ) -> Result<AppendInfo> {
        if bodies.is_empty() {
            return Ok(AppendInfo {
                bytes: 0,
                fsynced: false,
            });
        }
        self.buf.clear();
        for (seq, body) in (first_seq..).zip(bodies) {
            put_delta(
                &mut self.buf,
                seq,
                component,
                component_epoch,
                body.as_ref(),
            )?;
        }
        put_commit(&mut self.buf, first_seq + bodies.len() as u64 - 1)?;
        self.write_buf(bodies.len() as u64 + 1, true)
    }

    /// Write the encoded buffer (and fsync if a commit makes one due). On
    /// an `Err` the file is cut back to where this append started.
    fn write_buf(&mut self, records: u64, commits: bool) -> Result<AppendInfo> {
        let written = if self.poisoned {
            Err(FsError::Storage(format!(
                "WAL {} refuses appends: an earlier failed append could not be cut back",
                self.path.display()
            )))
        } else {
            self.write_and_sync(commits)
        };
        let bytes = self.buf.len() as u64;
        // A rare large record must not pin its buffer for the log's life.
        self.buf.clear();
        self.buf.shrink_to(64 << 10);
        match written {
            Ok(fsynced) => {
                self.end += bytes;
                self.appends += records;
                Ok(AppendInfo { bytes, fsynced })
            }
            Err(e) => {
                self.cut_back();
                Err(e)
            }
        }
    }

    fn write_and_sync(&mut self, commits: bool) -> Result<bool> {
        self.file
            .write_all(&self.buf)
            .map_err(|e| FsError::Storage(format!("append to WAL {}: {e}", self.path.display())))?;
        let due = commits
            && match self.policy {
                FsyncPolicy::Always => true,
                FsyncPolicy::EveryN(n) => {
                    self.commits_since_sync += 1;
                    self.commits_since_sync >= n.max(1)
                }
                FsyncPolicy::Never => false,
            };
        if due {
            self.sync()?;
        }
        Ok(due)
    }

    /// Drop whatever a failed append left past the last complete one. The
    /// seek matters for a file opened with `truncate` (no `O_APPEND`):
    /// its cursor sits after the torn bytes.
    fn cut_back(&mut self) {
        if self.poisoned {
            return;
        }
        let end = self.end;
        let cut = self.file.set_len(end);
        if cut
            .and_then(|()| self.file.seek(SeekFrom::Start(end)))
            .is_err()
        {
            self.poisoned = true;
        }
    }

    /// Force an fsync regardless of policy.
    pub fn sync(&mut self) -> Result<()> {
        self.file
            .sync_data()
            .map_err(|e| FsError::Storage(format!("fsync WAL {}: {e}", self.path.display())))?;
        self.fsyncs += 1;
        self.commits_since_sync = 0;
        Ok(())
    }

    pub fn appends(&self) -> u64 {
        self.appends
    }
}

/// What [`recover`] found in (and did to) a WAL file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WalReplay {
    /// Every delta covered by a complete commit marker, in log order.
    pub committed: Vec<DeltaRecord>,
    /// The last committed sequence number (0 if none).
    pub last_seq: u64,
    /// Valid-looking deltas after the last commit — logged but never
    /// committed; they are dropped (and truncated) with the torn tail.
    pub(crate) dropped_uncommitted: usize,
    /// Bytes cut off the end of the file (uncommitted + torn + corrupt).
    pub truncated_bytes: u64,
}

/// Replay a WAL file up to its last complete commit, truncating everything
/// after it. A missing file is an empty (not corrupt) log.
pub fn recover(path: &Path) -> Result<WalReplay> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WalReplay::default()),
        Err(e) => {
            return Err(FsError::Storage(format!(
                "read WAL {}: {e}",
                path.display()
            )))
        }
    };

    let mut replay = WalReplay::default();
    let mut pending: Vec<DeltaRecord> = Vec::new();
    let mut pos = 0usize;
    // End of the last complete commit unit — the only durable prefix.
    let mut committed_end = 0usize;
    loop {
        match decode_record(&bytes[pos..]) {
            Ok(Some((record, consumed))) => {
                pos += consumed;
                match record {
                    WalRecord::Delta(d) => pending.push(d),
                    WalRecord::Commit { seq } => {
                        replay.committed.append(&mut pending);
                        replay.last_seq = seq;
                        committed_end = pos;
                    }
                }
            }
            // A torn tail or a corrupt record both end the durable prefix.
            Ok(None) | Err(FsError::Corruption(_)) => break,
            Err(e) => return Err(e),
        }
    }
    replay.dropped_uncommitted = pending.len();
    replay.truncated_bytes = (bytes.len() - committed_end) as u64;
    if replay.truncated_bytes > 0 {
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| FsError::Storage(format!("truncate WAL {}: {e}", path.display())))?;
        file.set_len(committed_end as u64)
            .and_then(|()| file.sync_all())
            .map_err(|e| FsError::Storage(format!("truncate WAL {}: {e}", path.display())))?;
    }
    Ok(replay)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fstore_common::ComponentKind;

    fn delta(seq: u64, body: &str) -> DeltaRecord {
        DeltaRecord {
            seq,
            component: ComponentKind::Offline,
            component_epoch: seq,
            body: body.to_string(),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("fstore_wal_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn records_round_trip() {
        for record in [
            WalRecord::Delta(delta(3, "{\"appends\":[]}")),
            WalRecord::Commit { seq: 3 },
            WalRecord::Delta(delta(u64::MAX, "")),
        ] {
            let bytes = encode_record(&record);
            let (decoded, consumed) = decode_record(&bytes).unwrap().unwrap();
            assert_eq!(decoded, record);
            assert_eq!(consumed, bytes.len());
        }
    }

    #[test]
    fn single_bit_flip_is_corruption() {
        let bytes = encode_record(&WalRecord::Commit { seq: 9 });
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            // Depending on which byte flips, the record may look torn
            // (length grew) or corrupt (CRC mismatch) — never decode clean.
            match decode_record(&bad) {
                Ok(Some((rec, _))) => panic!("byte {i} flipped but decoded {rec:?}"),
                Ok(None) | Err(FsError::Corruption(_)) => {}
                Err(e) => panic!("unexpected error class: {e}"),
            }
        }
    }

    #[test]
    fn writer_appends_and_recovery_replays_committed_prefix() {
        let path = tmp("basic.log");
        std::fs::remove_file(&path).ok();
        let mut w = WalWriter::open(&path, FsyncPolicy::Always, true).unwrap();
        for seq in 1..=3u64 {
            w.append(&WalRecord::Delta(delta(seq, "d"))).unwrap();
            w.append(&WalRecord::Commit { seq }).unwrap();
        }
        // A logged-but-uncommitted delta must not survive recovery.
        w.append(&WalRecord::Delta(delta(4, "lost"))).unwrap();
        assert_eq!(w.appends(), 7);
        assert_eq!(w.fsyncs, 3);
        drop(w);

        let replay = recover(&path).unwrap();
        assert_eq!(replay.last_seq, 3);
        assert_eq!(replay.committed.len(), 3);
        assert_eq!(replay.dropped_uncommitted, 1);
        assert!(replay.truncated_bytes > 0);

        // The file itself was truncated: re-recovery is clean and a new
        // writer appends after the committed prefix.
        let again = recover(&path).unwrap();
        assert_eq!(again.last_seq, 3);
        assert_eq!(again.truncated_bytes, 0);
        let mut w = WalWriter::open(&path, FsyncPolicy::Always, false).unwrap();
        w.append(&WalRecord::Delta(delta(4, "kept"))).unwrap();
        w.append(&WalRecord::Commit { seq: 4 }).unwrap();
        drop(w);
        let after = recover(&path).unwrap();
        assert_eq!(after.last_seq, 4);
        assert_eq!(after.committed.len(), 4);
        assert_eq!(after.committed[3].body, "kept");
    }

    #[test]
    fn fsync_policies_gate_commit_syncs() {
        let path = tmp("policy.log");
        let mut w = WalWriter::open(&path, FsyncPolicy::EveryN(3), true).unwrap();
        for seq in 1..=7u64 {
            let info = w.append(&WalRecord::Commit { seq }).unwrap();
            assert_eq!(info.fsynced, seq % 3 == 0);
        }
        assert_eq!(w.fsyncs, 2);

        let mut w = WalWriter::open(&path, FsyncPolicy::Never, true).unwrap();
        assert!(!w.append(&WalRecord::Commit { seq: 1 }).unwrap().fsynced);
        assert_eq!(w.fsyncs, 0);
    }

    #[test]
    fn a_group_is_one_write_with_one_commit_and_one_policy_tick() {
        let path = tmp("group.log");
        let mut w = WalWriter::open(&path, FsyncPolicy::EveryN(2), true).unwrap();
        let first = w
            .append_group(1, ComponentKind::Online, 0, &["a", "b", "c"])
            .unwrap();
        assert!(
            !first.fsynced,
            "the first group is the first of two commits"
        );
        assert!(
            w.append_group(4, ComponentKind::Online, 0, &["d"])
                .unwrap()
                .fsynced
        );
        let empty = w.append_group(5, ComponentKind::Online, 0, &[] as &[&str]);
        assert_eq!(empty.unwrap().bytes, 0);
        assert_eq!((w.appends(), w.fsyncs), (6, 1));
        drop(w);

        let bytes = std::fs::read(&path).unwrap();
        let mut records = Vec::new();
        let mut at = 0;
        while let Some((record, used)) = decode_record(&bytes[at..]).unwrap() {
            records.push(record);
            at += used;
        }
        let online = |seq, body: &str| {
            WalRecord::Delta(DeltaRecord {
                seq,
                component: ComponentKind::Online,
                component_epoch: 0,
                body: body.into(),
            })
        };
        assert_eq!(
            records,
            [
                online(1, "a"),
                online(2, "b"),
                online(3, "c"),
                WalRecord::Commit { seq: 3 },
                online(4, "d"),
                WalRecord::Commit { seq: 4 },
            ]
        );
        assert_eq!(first.bytes as usize + 44, bytes.len());
    }

    #[test]
    fn a_writer_that_cannot_cut_a_failed_append_back_refuses_the_rest() {
        // Every write to /dev/full fails, and a character device cannot be
        // truncated: the writer poisons itself instead of appending after
        // bytes it could not remove.
        let mut w = WalWriter::open("/dev/full", FsyncPolicy::Never, false).unwrap();
        let refused = w.append_group(1, ComponentKind::Online, 0, &["x"]);
        assert!(matches!(refused, Err(FsError::Storage(_))));
        let again = w.append_group(1, ComponentKind::Online, 0, &["x"]);
        assert!(again.unwrap_err().to_string().contains("refuses appends"));
        assert_eq!(w.appends(), 0);
    }

    #[test]
    fn torn_write_truncated_at_every_offset_of_the_final_record() {
        let path = tmp("torn.log");
        // Two committed units, then a final delta+commit pair that we tear
        // at every possible byte boundary.
        let mut prefix = Vec::new();
        for seq in 1..=2u64 {
            prefix.extend_from_slice(&encode_record(&WalRecord::Delta(delta(seq, "keep"))));
            prefix.extend_from_slice(&encode_record(&WalRecord::Commit { seq }));
        }
        let mut tail = Vec::new();
        tail.extend_from_slice(&encode_record(&WalRecord::Delta(delta(3, "torn"))));
        tail.extend_from_slice(&encode_record(&WalRecord::Commit { seq: 3 }));
        let commit3_at = tail.len() - encode_record(&WalRecord::Commit { seq: 3 }).len();

        for cut in 0..=tail.len() {
            std::fs::write(&path, [&prefix[..], &tail[..cut]].concat()).unwrap();
            let replay = recover(&path).unwrap();
            if cut == tail.len() {
                assert_eq!(replay.last_seq, 3, "cut {cut}");
                assert_eq!(replay.committed.len(), 3);
                assert_eq!(replay.truncated_bytes, 0);
            } else {
                assert_eq!(replay.last_seq, 2, "cut {cut}");
                assert_eq!(replay.committed.len(), 2);
                assert_eq!(
                    replay.dropped_uncommitted,
                    usize::from(cut >= commit3_at),
                    "cut {cut}"
                );
                assert_eq!(replay.truncated_bytes, cut as u64, "cut {cut}");
                // The durable prefix survives byte-for-byte.
                assert_eq!(std::fs::read(&path).unwrap(), prefix, "cut {cut}");
            }
        }
    }

    #[test]
    fn corrupt_middle_record_ends_the_durable_prefix() {
        let path = tmp("corrupt.log");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&encode_record(&WalRecord::Delta(delta(1, "good"))));
        bytes.extend_from_slice(&encode_record(&WalRecord::Commit { seq: 1 }));
        let unit1_len = bytes.len();
        bytes.extend_from_slice(&encode_record(&WalRecord::Delta(delta(2, "bad"))));
        bytes.extend_from_slice(&encode_record(&WalRecord::Commit { seq: 2 }));
        bytes[unit1_len + 10] ^= 0xFF; // corrupt unit 2's delta
        std::fs::write(&path, &bytes).unwrap();

        let replay = recover(&path).unwrap();
        assert_eq!(replay.last_seq, 1);
        assert_eq!(replay.committed.len(), 1);
        assert_eq!(std::fs::read(&path).unwrap().len(), unit1_len);
    }

    #[test]
    fn missing_file_is_an_empty_log() {
        let replay = recover(Path::new("/nonexistent/fstore/wal.log")).unwrap();
        assert_eq!(replay, WalReplay::default());
    }
}
