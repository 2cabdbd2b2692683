//! The leader side: a publication log on the components' stream, and the
//! [`ReplProvider`] implementation the serving layer answers followers
//! through.
//!
//! A [`ReplLeader`] wraps the four replicable components and opens the
//! replication log on their publication stream ([`LeaderParts::attach_log`]),
//! whose tap appends each cell publication's delta — stamped with the
//! component's own cell epoch — after the WAL on a [`DurableLeader`]'s
//! parts. Online writes have no cell; they go through
//! [`LeaderParts::put_online_many`], the path both leaders share.
//!
//! Every publication is logged, even one whose diff is empty: the epoch
//! bump itself is state a follower must reproduce, or its echoed epochs
//! would drift below the leader's and byte-identity would break.

use crate::codec;
use fstore_common::{
    DeltaQuery, EntityKey, FsError, PubLog, Timestamp, Value, DEFAULT_LOG_RETENTION,
};
use fstore_durable::{DurableLeader, LeaderParts};
use fstore_serve::{Clock, OnlineWrite, ReplLogState, ReplProvider, ServeEngine};
use std::sync::Arc;

/// A replication leader: the publication log plus the components feeding it.
pub struct ReplLeader {
    log: Arc<PubLog>,
    parts: LeaderParts,
}

impl ReplLeader {
    /// Wrap `parts` as a leader with the default delta retention.
    pub fn new(parts: LeaderParts) -> Arc<Self> {
        ReplLeader::with_retention(parts, DEFAULT_LOG_RETENTION)
    }

    /// Wrap `parts` as a leader retaining at most `retention` deltas;
    /// followers that lag further re-bootstrap from a full snapshot.
    /// Publications *after* this call are replicated; state already present
    /// is covered by the full snapshot a follower bootstraps from.
    pub fn with_retention(parts: LeaderParts, retention: usize) -> Arc<Self> {
        Arc::new(ReplLeader {
            log: parts.attach_log(retention),
            parts,
        })
    }

    /// Assert that this leader was built over `durable`'s parts
    /// ([`LeaderParts::from_durable`]), whose stream already reaches the WAL
    /// before the log: there is nothing to attach.
    pub fn attach_durable(&self, durable: Arc<DurableLeader>) {
        assert!(
            self.parts
                .shares_stream(&LeaderParts::from_durable(&durable)),
            "a replication leader must be built over the durable leader's parts"
        );
    }

    pub fn log(&self) -> &Arc<PubLog> {
        &self.log
    }

    pub fn parts(&self) -> &LeaderParts {
        &self.parts
    }

    /// Write one entity's features and replicate the write
    /// ([`LeaderParts::put_online`]); a bare
    /// [`fstore_storage::OnlineStore::put`] is invisible to followers.
    pub fn put_online(
        &self,
        group: &str,
        entity: &EntityKey,
        values: &[(&str, Value)],
        now: Timestamp,
    ) -> Result<u64, FsError> {
        self.parts.put_online(group, entity, values, now)
    }

    /// Write and replicate a group ([`LeaderParts::put_online_many`]).
    pub fn put_online_many<S: AsRef<str>>(
        &self,
        writes: &[OnlineWrite<'_, S>],
        now: Timestamp,
    ) -> Vec<Result<u64, FsError>> {
        self.parts.put_online_many(writes, now)
    }

    /// A ready-to-start [`ServeEngine`] over the leader's components
    /// ([`LeaderParts::engine`]), with this leader answering the `Repl*`
    /// endpoints.
    pub fn engine(self: &Arc<Self>, clock: Clock) -> ServeEngine {
        self.parts
            .engine(clock)
            .with_replication(Arc::clone(self) as Arc<dyn ReplProvider>)
    }
}

/// The serving layer's write seam: a fenced
/// [`WriteState`](fstore_serve::WriteState) applies accepted writes through
/// a [`ReplLeader`], so wire-level `PutOnline` is logged and replicated
/// before the ack leaves the box.
impl fstore_serve::WriteProvider for ReplLeader {
    fn put_online_many(
        &self,
        writes: &[OnlineWrite<'_>],
        now: Timestamp,
    ) -> Vec<Result<u64, FsError>> {
        self.parts.put_online_many(writes, now)
    }
}

impl ReplProvider for ReplLeader {
    fn log_state(&self) -> ReplLogState {
        ReplLogState {
            leader_epoch: self.log.last_seq(),
            oldest_retained: self.log.oldest_retained(),
            retention: self.log.retention() as u32,
        }
    }

    fn full_snapshot(&self) -> Result<(u64, Vec<u8>), FsError> {
        let snapshot = self.parts.capture();
        Ok((snapshot.repl_epoch, codec::encode_snapshot(&snapshot)?))
    }

    fn deltas_since(&self, from_epoch: u64) -> (u64, DeltaQuery) {
        let query = self.log.since(from_epoch);
        (self.log.last_seq(), query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fstore_common::{ComponentKind, Schema, ValueType};
    use fstore_storage::{OnlineStore, TableConfig};

    #[test]
    fn publications_land_in_the_log_with_component_epochs() {
        let leader = ReplLeader::new(LeaderParts::new());
        let parts = leader.parts().clone();

        parts
            .offline
            .write(|s| s.create_table("t", TableConfig::new(Schema::of(&[("x", ValueType::Int)]))))
            .unwrap();
        parts
            .offline
            .write(|s| s.append("t", &[Value::Int(1)]))
            .unwrap();
        leader
            .put_online(
                "user",
                &EntityKey::new("u1"),
                &[("score", Value::Float(0.5))],
                Timestamp::millis(10),
            )
            .unwrap();

        let state = leader.log_state();
        assert_eq!(state.leader_epoch, 3);
        match leader.deltas_since(0).1 {
            DeltaQuery::Deltas(records) => {
                assert_eq!(records.len(), 3);
                assert_eq!(records[0].component, ComponentKind::Offline);
                assert_eq!(records[0].component_epoch, 1);
                assert_eq!(records[1].component_epoch, 2);
                assert_eq!(records[2].component, ComponentKind::Online);
            }
            q => panic!("unexpected {q:?}"),
        }
    }

    #[test]
    fn full_snapshot_carries_every_component_and_its_epoch() {
        let leader = ReplLeader::new(LeaderParts::new());
        let parts = leader.parts().clone();
        parts
            .offline
            .write(|s| {
                s.create_table("t", TableConfig::new(Schema::of(&[("x", ValueType::Int)])))?;
                s.append("t", &[Value::Int(7)])
            })
            .unwrap();
        leader
            .put_online(
                "user",
                &EntityKey::new("u1"),
                &[("score", Value::Int(3))],
                Timestamp::millis(5),
            )
            .unwrap();

        let (repl_epoch, payload) = leader.full_snapshot().unwrap();
        assert_eq!(repl_epoch, 2);
        let snap = codec::decode_snapshot(&payload).unwrap();
        assert_eq!(snap.repl_epoch, 2);
        assert_eq!(snap.offline_epoch, 1);
        assert_eq!(snap.offline.num_rows("t").unwrap(), 1);
        let online = OnlineStore::default();
        snap.online.install(&online);
        assert_eq!(online.export_rows(), parts.online.export_rows());
    }
}
