//! Replication substrate: epoch-tagged publication deltas and the leader's
//! bounded publication log.
//!
//! Every [`SnapshotCell`](crate::SnapshotCell) publication on a leader is
//! recorded as a [`DeltaRecord`] — which component published, the component
//! epoch the publication was stamped with, and a component-defined serialized
//! body describing what changed. Records live in a [`PubLog`]: an in-memory
//! ring with a bounded retention window, keyed by a leader-wide monotone
//! sequence number (the *replication epoch*). Followers replay records in
//! sequence order; one that has lagged past the retention window is told so
//! ([`DeltaQuery::Lagged`]) and re-bootstraps from a full snapshot instead.
//!
//! This module is deliberately payload-agnostic: bodies are opaque strings
//! (JSON in practice), encoded and decoded by `fstore-repl`, so the bottom
//! layer of the dependency graph stays free of storage/embedding types.

use std::fmt;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::snapshot::EpochRing;

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

    pub fn as_str(self) -> &'static str {
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

struct LogInner {
    ring: EpochRing<DeltaRecord>,
    /// The most recent record's sequence number, or the one opened after.
    last_seq: u64,
}

/// The leader's in-memory publication log: a bounded ring of the most recent
/// [`DeltaRecord`]s (the same [`EpochRing`] the snapshot cells use for
/// history retention). It assigns no sequence numbers: records arrive
/// numbered by the leader's publication stream, which also numbers its WAL.
pub struct PubLog {
    inner: Mutex<LogInner>,
}

impl PubLog {
    /// An empty log retaining at most `retention` records (clamped to ≥ 1)
    /// whose first record will be `last_seq + 1`.
    pub fn new(retention: usize, last_seq: u64) -> Self {
        PubLog {
            inner: Mutex::new(LogInner {
                ring: EpochRing::new(retention),
                last_seq,
            }),
        }
    }

    /// The retention bound (number of records).
    pub fn retention(&self) -> usize {
        self.inner.lock().ring.capacity()
    }

    /// Record publications under one lock. Their sequence numbers must
    /// continue the log's: `last_seq + 1`, `+ 2`, … in iteration order.
    pub fn append(&self, records: impl IntoIterator<Item = DeltaRecord>) {
        let mut evicted = Vec::new();
        let mut inner = self.inner.lock();
        for record in records {
            assert!(
                record.seq == inner.last_seq + 1,
                "a gap in the publication log"
            );
            inner.last_seq = record.seq;
            evicted.extend(inner.ring.push(record.seq, record));
        }
        // Freed after the lock is released, so no reader or later append
        // waits on the allocator.
        drop(inner);
        drop(evicted);
    }

    /// Sequence number of the most recent record (the opening sequence if
    /// none yet).
    pub fn last_seq(&self) -> u64 {
        self.inner.lock().last_seq
    }

    /// Oldest sequence number still retained (`last_seq + 1` if the log is
    /// empty — i.e. nothing older than the next record survives).
    pub fn oldest_retained(&self) -> u64 {
        let inner = self.inner.lock();
        inner.ring.oldest_key().unwrap_or(inner.last_seq + 1)
    }

    /// Everything after sequence number `from`, or [`DeltaQuery::Lagged`] if
    /// records in `(from, oldest_retained)` have been evicted or `from` is
    /// past the last record.
    pub fn since(&self, from: u64) -> DeltaQuery {
        let inner = self.inner.lock();
        if from == inner.last_seq {
            return DeltaQuery::Deltas(Vec::new());
        }
        let oldest = inner.ring.oldest_key().unwrap_or(inner.last_seq + 1);
        if from + 1 < oldest || from > inner.last_seq {
            return DeltaQuery::Lagged {
                oldest_retained: oldest,
            };
        }
        DeltaQuery::Deltas(inner.ring.after(from).map(|(_, r)| r.clone()).collect())
    }
}

impl fmt::Debug for PubLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("PubLog")
            .field("last_seq", &inner.last_seq)
            .field("retained", &inner.ring.len())
            .field("retention", &inner.ring.capacity())
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
