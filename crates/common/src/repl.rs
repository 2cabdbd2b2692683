//! Replication substrate: epoch-tagged publication deltas and the leader's
//! bounded publication log.
//!
//! Every [`SnapshotCell`](crate::SnapshotCell) publication on a leader is
//! recorded as a [`DeltaRecord`] — which component published, the component
//! epoch the publication was stamped with, and a component-defined serialized
//! body describing what changed. Records live in a [`PubLog`]: an in-memory
//! log with a bounded retention window, its bodies kept back to back in one
//! byte buffer, keyed by a leader-wide monotone sequence number (the
//! *replication epoch*). Followers replay records in sequence order; one
//! that has lagged past the retention window is told so
//! ([`DeltaQuery::Lagged`]) and re-bootstraps from a full snapshot instead.
//!
//! This module is deliberately payload-agnostic: bodies are opaque strings
//! (JSON in practice), encoded and decoded by `fstore-repl`, so the bottom
//! layer of the dependency graph stays free of storage/embedding types.

use std::collections::VecDeque;
use std::fmt;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Default number of delta records a [`PubLog`] retains.
pub const DEFAULT_LOG_RETENTION: usize = 64;

/// Which component a publication delta belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ComponentKind {
    /// The offline store (`OfflineDb` cell).
    Offline,
    /// The embedding catalog (`EmbeddingDb` cell).
    Embeddings,
    /// The ANN index catalog (rebuild instructions, not index bytes).
    Index,
    /// The online KV store (per-row puts; no snapshot cell of its own).
    Online,
}

impl ComponentKind {
    /// Stable wire tag.
    pub fn as_u8(self) -> u8 {
        match self {
            ComponentKind::Offline => 0,
            ComponentKind::Embeddings => 1,
            ComponentKind::Index => 2,
            ComponentKind::Online => 3,
        }
    }

    /// Inverse of [`as_u8`](Self::as_u8); `None` for unknown tags.
    pub fn from_u8(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(ComponentKind::Offline),
            1 => Some(ComponentKind::Embeddings),
            2 => Some(ComponentKind::Index),
            3 => Some(ComponentKind::Online),
            _ => None,
        }
    }

    pub(crate) fn as_str(self) -> &'static str {
        match self {
            ComponentKind::Offline => "offline",
            ComponentKind::Embeddings => "embeddings",
            ComponentKind::Index => "index",
            ComponentKind::Online => "online",
        }
    }
}

impl fmt::Display for ComponentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One publication, as recorded in the leader's log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeltaRecord {
    /// Leader-wide replication sequence number (first record is `1`).
    pub seq: u64,
    /// Component that published.
    pub component: ComponentKind,
    /// The component cell epoch this publication was stamped with (`0` for
    /// [`ComponentKind::Online`], which has no cell). Followers install at
    /// exactly this epoch so their responses echo the leader's.
    pub component_epoch: u64,
    /// Component-defined serialized payload (JSON).
    pub body: String,
}

/// Answer to "give me everything after sequence number `from`".
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaQuery {
    /// In-window: the records with `seq > from`, in order (empty = caught up).
    Deltas(Vec<DeltaRecord>),
    /// The caller must re-bootstrap from a full snapshot: records it needs
    /// were evicted, or it is *ahead* of the log (its leader restarted
    /// without its history, or is a promoted replica with a fresh log).
    Lagged {
        /// Oldest sequence number still retained.
        oldest_retained: u64,
    },
}

/// Where one retained record lies: its header, and its body's span in the
/// log's byte buffer.
struct Entry {
    seq: u64,
    component: ComponentKind,
    component_epoch: u64,
    /// Absolute offset of the body's first byte (see [`LogInner::base`]).
    start: u64,
    len: usize,
}

struct LogInner {
    retention: usize,
    /// One per retained record, oldest first; seqs are contiguous.
    entries: VecDeque<Entry>,
    /// The retained bodies, back to back in `entries` order.
    bytes: VecDeque<u8>,
    /// Absolute offset of `bytes[0]`: every byte ever appended keeps its
    /// offset, so eviction moves only this.
    base: u64,
    /// The most recent record's sequence number, or the one opened after.
    last_seq: u64,
}

impl LogInner {
    fn oldest(&self) -> u64 {
        self.entries.front().map_or(self.last_seq + 1, |e| e.seq)
    }

    fn push(&mut self, record: &DeltaRecord) {
        assert!(
            record.seq == self.last_seq + 1,
            "a gap in the publication log"
        );
        // Evict before copying in, so equal-size records reuse the bytes
        // they free and the buffer stops growing once the log is full.
        if self.entries.len() == self.retention {
            let evicted = self.entries.pop_front().expect("a full log is not empty");
            self.bytes.drain(..evicted.len);
            self.base += evicted.len as u64;
        }
        self.reserve(record.body.len());
        self.entries.push_back(Entry {
            seq: record.seq,
            component: record.component,
            component_epoch: record.component_epoch,
            start: self.base + self.bytes.len() as u64,
            len: record.body.len(),
        });
        self.bytes.extend(record.body.as_bytes());
        self.last_seq = record.seq;
    }

    /// Make room for `extra` more body bytes. A ring buffer touches all of
    /// its capacity as the retained window slides round it, so spare
    /// capacity is resident memory, and every regrowth copies the buffer
    /// and leaves the old one as a hole in the heap. So growth aims at
    /// what a full log of bodies this size holds, plus an eighth: up to
    /// four times the buffer at once while the log fills, at least an
    /// eighth more so copying stays amortised.
    fn reserve(&mut self, extra: usize) {
        let need = self.bytes.len() + extra;
        let cap = self.bytes.capacity();
        if need <= cap {
            return;
        }
        let full = (need / (self.entries.len() + 1)).saturating_mul(self.retention);
        let target = need
            .max(cap + cap / 8)
            .max(full.saturating_add(full / 8).min(4 * cap));
        self.bytes.reserve_exact(target - self.bytes.len());
    }

    fn record(&self, entry: &Entry) -> DeltaRecord {
        let at = (entry.start - self.base) as usize;
        let body: Vec<u8> = self.bytes.range(at..at + entry.len).copied().collect();
        DeltaRecord {
            seq: entry.seq,
            component: entry.component,
            component_epoch: entry.component_epoch,
            body: String::from_utf8(body).expect("bodies are copied in from strings"),
        }
    }
}

/// The leader's in-memory publication log: the most recent
/// [`DeltaRecord`]s, at most a retention bound of them. Their bodies lie
/// back to back in one byte buffer beside a queue of record headers, so
/// retaining a record allocates nothing of its own: the log's memory is
/// two buffers that stop growing once it is full, whichever thread
/// appends. It assigns no sequence numbers: records arrive numbered by
/// the leader's publication stream, which also numbers its WAL.
pub struct PubLog {
    inner: Mutex<LogInner>,
}

impl PubLog {
    /// An empty log retaining at most `retention` records (clamped to ≥ 1)
    /// whose first record will be `last_seq + 1`.
    pub fn new(retention: usize, last_seq: u64) -> Self {
        PubLog {
            inner: Mutex::new(LogInner {
                retention: retention.max(1),
                entries: VecDeque::new(),
                bytes: VecDeque::new(),
                base: 0,
                last_seq,
            }),
        }
    }

    /// The retention bound (number of records).
    pub fn retention(&self) -> usize {
        self.inner.lock().retention
    }

    /// Record publications under one lock. Their sequence numbers must
    /// continue the log's: `last_seq + 1`, `+ 2`, … in iteration order.
    pub fn append(&self, records: impl IntoIterator<Item = DeltaRecord>) {
        // Gathered before the lock and freed after it, so no reader or
        // later append waits on the allocator; the log keeps copies of
        // the bodies' bytes.
        let records: Vec<DeltaRecord> = records.into_iter().collect();
        let mut inner = self.inner.lock();
        for record in &records {
            inner.push(record);
        }
        drop(inner);
        drop(records);
    }

    /// Sequence number of the most recent record (the opening sequence if
    /// none yet).
    pub fn last_seq(&self) -> u64 {
        self.inner.lock().last_seq
    }

    /// Oldest sequence number still retained (`last_seq + 1` if the log is
    /// empty — i.e. nothing older than the next record survives).
    pub fn oldest_retained(&self) -> u64 {
        self.inner.lock().oldest()
    }

    /// Everything after sequence number `from`, or [`DeltaQuery::Lagged`] if
    /// records in `(from, oldest_retained)` have been evicted or `from` is
    /// past the last record. The first record is found by seq arithmetic,
    /// so the cost follows what is returned, not what is retained.
    pub fn since(&self, from: u64) -> DeltaQuery {
        let inner = self.inner.lock();
        if from == inner.last_seq {
            return DeltaQuery::Deltas(Vec::new());
        }
        let oldest = inner.oldest();
        if from + 1 < oldest || from > inner.last_seq {
            return DeltaQuery::Lagged {
                oldest_retained: oldest,
            };
        }
        let first = (from + 1 - oldest) as usize;
        DeltaQuery::Deltas(
            inner
                .entries
                .range(first..)
                .map(|e| inner.record(e))
                .collect(),
        )
    }
}

impl fmt::Debug for PubLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("PubLog")
            .field("last_seq", &inner.last_seq)
            .field("retained", &inner.entries.len())
            .field("retention", &inner.retention)
            .field("bytes", &inner.bytes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Append one record at the next sequence number.
    fn push(log: &PubLog, component: ComponentKind, component_epoch: u64, body: &str) {
        log.append([DeltaRecord {
            seq: log.last_seq() + 1,
            component,
            component_epoch,
            body: body.into(),
        }]);
    }

    #[test]
    fn records_keep_the_sequence_their_stream_assigned() {
        let log = PubLog::new(8, 0);
        assert_eq!(log.last_seq(), 0);
        assert_eq!(log.oldest_retained(), 1);
        push(&log, ComponentKind::Offline, 1, "a");
        push(&log, ComponentKind::Embeddings, 1, "b");
        assert_eq!(log.last_seq(), 2);
        assert_eq!(log.oldest_retained(), 1);

        // A log opened over a stream that already published continues it.
        let reopened = PubLog::new(8, 41);
        assert_eq!(reopened.oldest_retained(), 42);
        assert_eq!(reopened.since(41), DeltaQuery::Deltas(Vec::new()));
        assert_eq!(
            reopened.since(40),
            DeltaQuery::Lagged {
                oldest_retained: 42
            }
        );
        push(&reopened, ComponentKind::Online, 0, "c");
        match reopened.since(41) {
            DeltaQuery::Deltas(d) => assert_eq!(d.iter().map(|r| r.seq).collect::<Vec<_>>(), [42]),
            q => panic!("unexpected {q:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "a gap in the publication log")]
    fn a_sequence_gap_is_refused() {
        let log = PubLog::new(8, 0);
        log.append([DeltaRecord {
            seq: 2,
            component: ComponentKind::Online,
            component_epoch: 0,
            body: String::new(),
        }]);
    }

    #[test]
    fn a_group_appends_in_order_and_evicts_past_retention() {
        let log = PubLog::new(3, 0);
        push(&log, ComponentKind::Offline, 1, "a");
        log.append((2..).zip(["b", "c", "d"]).map(|(seq, body)| DeltaRecord {
            seq,
            component: ComponentKind::Online,
            component_epoch: 0,
            body: body.into(),
        }));
        log.append([]);
        assert_eq!(log.last_seq(), 4);
        assert_eq!(log.oldest_retained(), 2);
        match log.since(1) {
            DeltaQuery::Deltas(d) => {
                let bodies: Vec<&str> = d.iter().map(|r| r.body.as_str()).collect();
                assert_eq!(bodies, ["b", "c", "d"]);
            }
            q => panic!("unexpected {q:?}"),
        }
    }

    #[test]
    fn since_returns_tail_in_order() {
        let log = PubLog::new(8, 0);
        for i in 0..5 {
            push(&log, ComponentKind::Online, 0, &format!("{i}"));
        }
        match log.since(2) {
            DeltaQuery::Deltas(d) => {
                assert_eq!(d.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![3, 4, 5]);
                assert_eq!(d[0].body, "2");
            }
            q => panic!("unexpected {q:?}"),
        }
        assert_eq!(log.since(5), DeltaQuery::Deltas(Vec::new()));
        // A caller ahead of the log (its leader restarted) must re-bootstrap.
        assert_eq!(log.since(99), DeltaQuery::Lagged { oldest_retained: 1 });
    }

    #[test]
    fn lagging_past_retention_is_reported() {
        let log = PubLog::new(3, 0);
        for i in 0..10 {
            push(&log, ComponentKind::Offline, i, "");
        }
        // Records 8, 9, 10 retained; a follower at 5 can't catch up.
        assert_eq!(log.oldest_retained(), 8);
        assert_eq!(log.since(5), DeltaQuery::Lagged { oldest_retained: 8 });
        // At 7 the needed records (8..=10) are all still present.
        match log.since(7) {
            DeltaQuery::Deltas(d) => assert_eq!(d.len(), 3),
            q => panic!("unexpected {q:?}"),
        }
    }

    #[test]
    fn a_full_log_stops_growing_its_byte_buffer() {
        const RETENTION: usize = 16;
        let log = PubLog::new(RETENTION, 0);
        let body = "x".repeat(100);
        let capacities = |log: &PubLog| {
            let inner = log.inner.lock();
            (inner.bytes.capacity(), inner.entries.capacity())
        };
        for _ in 0..RETENTION {
            push(&log, ComponentKind::Online, 0, &body);
        }
        let full = capacities(&log);
        for _ in 0..10 * RETENTION {
            push(&log, ComponentKind::Online, 0, &body);
            assert_eq!(capacities(&log), full);
        }
        let inner = log.inner.lock();
        assert_eq!(inner.bytes.len(), RETENTION * body.len());
        // Growth aimed at the full log, not at double the buffer.
        assert!(inner.bytes.capacity() <= inner.bytes.len() * 9 / 8);
    }

    /// A body of exactly `len` bytes that differs from its neighbours'.
    fn body(seq: u64, len: usize) -> String {
        (0..len)
            .map(|i| char::from(b'a' + ((seq as usize + i) % 26) as u8))
            .collect()
    }

    /// The same log, as a plain queue of whole records.
    struct Model {
        retention: usize,
        records: VecDeque<DeltaRecord>,
        last_seq: u64,
    }

    impl Model {
        fn oldest_retained(&self) -> u64 {
            self.records.front().map_or(self.last_seq + 1, |r| r.seq)
        }

        fn since(&self, from: u64) -> DeltaQuery {
            let oldest = self.oldest_retained();
            if from != self.last_seq && (from + 1 < oldest || from > self.last_seq) {
                return DeltaQuery::Lagged {
                    oldest_retained: oldest,
                };
            }
            DeltaQuery::Deltas(
                self.records
                    .iter()
                    .filter(|r| r.seq > from)
                    .cloned()
                    .collect(),
            )
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn the_byte_buffer_log_answers_like_a_queue_of_records(
            retention in 1usize..65,
            opened_at in 0u64..40,
            groups in prop::collection::vec(
                prop::collection::vec((0u32..200, 0usize..301), 0..9),
                0..24,
            ),
        ) {
            let log = PubLog::new(retention, opened_at);
            let mut model = Model {
                retention,
                records: VecDeque::new(),
                last_seq: opened_at,
            };
            for group in groups {
                let records: Vec<DeltaRecord> = (model.last_seq + 1..)
                    .zip(group)
                    .map(|(seq, (big, len))| DeltaRecord {
                        seq,
                        component: ComponentKind::from_u8((seq % 4) as u8).unwrap(),
                        component_epoch: seq * 3,
                        // Now and then a body far larger than the rest.
                        body: body(seq, if big == 0 { 70 * 1024 } else { len }),
                    })
                    .collect();
                for record in &records {
                    model.last_seq = record.seq;
                    model.records.push_back(record.clone());
                    if model.records.len() > model.retention {
                        model.records.pop_front();
                    }
                }
                log.append(records);
                prop_assert_eq!(log.last_seq(), model.last_seq);
                prop_assert_eq!(log.oldest_retained(), model.oldest_retained());
                let retained: usize = model.records.iter().map(|r| r.body.len()).sum();
                prop_assert_eq!(log.inner.lock().bytes.len(), retained);
                for from in 0..=model.last_seq + 2 {
                    prop_assert_eq!(log.since(from), model.since(from), "from {}", from);
                }
            }
            prop_assert_eq!(log.retention(), retention);
        }
    }

    #[test]
    fn component_kind_tags_round_trip() {
        for kind in [
            ComponentKind::Offline,
            ComponentKind::Embeddings,
            ComponentKind::Index,
            ComponentKind::Online,
        ] {
            assert_eq!(ComponentKind::from_u8(kind.as_u8()), Some(kind));
        }
        assert_eq!(ComponentKind::from_u8(42), None);
    }
}
