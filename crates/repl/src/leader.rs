//! The leader side: publish hooks feeding the publication log, and the
//! [`ReplProvider`] implementation the serving layer answers followers
//! through.
//!
//! A [`ReplLeader`] wraps the four replicable components. Installing it
//! registers a publish hook on every snapshot cell (offline store,
//! embedding catalog, index catalog); each hook diffs the newly published
//! snapshot against the previous one and appends the delta — stamped with
//! the component's own cell epoch — to the shared [`PubLog`]. The online
//! store has no cell, so replicated online writes go through
//! [`ReplLeader::put_online_many`] (or `put_online`, a group of one),
//! which encodes each write once, logs the group with one WAL write,
//! applies, then publishes the group under one log lock.
//!
//! Every publication is logged, even one whose diff is empty: the epoch
//! bump itself is state a follower must reproduce, or its echoed epochs
//! would drift below the leader's and byte-identity would break.

use crate::codec;
use fstore_common::{
    ComponentKind, DeltaQuery, EntityKey, FsError, PubLog, Timestamp, Value, DEFAULT_LOG_RETENTION,
};
use fstore_durable::{DurableLeader, LeaderParts};
use fstore_serve::{Clock, OnlineWrite, ReplLogState, ReplProvider, ServeEngine};
use parking_lot::Mutex;
use std::sync::Arc;

/// A replication leader: the publication log plus the components feeding it.
pub struct ReplLeader {
    log: Arc<PubLog>,
    parts: LeaderParts,
    /// An attached durable leader, so replicated online writes are also
    /// WAL-logged (cell-backed components log through their own hooks).
    durable: Mutex<Option<Arc<DurableLeader>>>,
}

impl ReplLeader {
    /// Wrap `parts` as a leader with the default delta retention.
    pub fn new(parts: LeaderParts) -> Arc<Self> {
        ReplLeader::with_retention(parts, DEFAULT_LOG_RETENTION)
    }

    /// Wrap `parts` as a leader retaining at most `retention` deltas;
    /// followers that lag further re-bootstrap from a full snapshot.
    ///
    /// Installs publish hooks on every component cell, so publications
    /// *after* this call are replicated. State already present is covered
    /// by the full snapshot a follower bootstraps from.
    pub fn with_retention(parts: LeaderParts, retention: usize) -> Arc<Self> {
        let log = Arc::new(PubLog::new(retention));
        let sink = Arc::clone(&log);
        codec::tap_publications(&parts, move |component, epoch, body| {
            sink.append(component, epoch, body);
        });
        Arc::new(ReplLeader {
            log,
            parts,
            durable: Mutex::new(None),
        })
    }

    /// Attach a [`DurableLeader`] built over the *same* components, making
    /// this leader's replicated online writes durable too. Hooks stack:
    /// cell-backed publications already reach both the publication log and
    /// the WAL through their own [`add_publish_hook`] registrations; the
    /// online store has no cell, so [`put_online_many`](Self::put_online_many)
    /// forwards each group of writes explicitly once attached.
    ///
    /// [`add_publish_hook`]: fstore_storage::OfflineDb::add_publish_hook
    pub fn attach_durable(&self, durable: Arc<DurableLeader>) {
        *self.durable.lock() = Some(durable);
    }

    pub fn log(&self) -> &Arc<PubLog> {
        &self.log
    }

    pub fn parts(&self) -> &LeaderParts {
        &self.parts
    }

    /// Write one entity's features to the online store *and* record the
    /// write in the publication log, returning the publication sequence
    /// it landed at: [`put_online_many`](Self::put_online_many) with a
    /// group of one. Replicated online writes must go through here or
    /// there — a bare [`fstore_storage::OnlineStore::put`] is invisible to
    /// followers (the online store has no snapshot cell to hook).
    pub fn put_online(
        &self,
        group: &str,
        entity: &EntityKey,
        values: &[(&str, Value)],
        now: Timestamp,
    ) -> Result<u64, FsError> {
        let write = OnlineWrite {
            group,
            entity: entity.as_str(),
            values,
        };
        let mut results = self.put_online_many(&[write], now);
        results.pop().expect("one result per write")
    }

    /// Write a group of entities' features, in order, and return per
    /// write the publication sequence it landed at — consecutive across
    /// the writes that succeed. Each body is encoded once; the group is
    /// WAL-logged with one write and one commit marker (with a durable
    /// leader attached), applied, then published under one log lock.
    ///
    /// A write that does not encode fails alone. A group whose commit
    /// marker is *not* known durable fails whole: none of it was applied
    /// or published.
    pub fn put_online_many<S: AsRef<str>>(
        &self,
        writes: &[OnlineWrite<'_, S>],
        now: Timestamp,
    ) -> Vec<Result<u64, FsError>> {
        let mut results: Vec<Result<u64, FsError>> = Vec::with_capacity(writes.len());
        let mut bodies = Vec::with_capacity(writes.len());
        for w in writes {
            match codec::online_body(w.group, w.entity, w.values, now) {
                Ok(body) => {
                    bodies.push(body);
                    results.push(Ok(0));
                }
                Err(e) => results.push(Err(e)),
            }
        }
        if let Some(durable) = self.durable.lock().as_ref() {
            if let Err(e) = durable.log_online_many(&bodies) {
                return results.into_iter().map(|r| r.and(Err(e.clone()))).collect();
            }
        }
        let encoded = writes.iter().zip(&results).filter(|(_, r)| r.is_ok());
        for (w, _) in encoded {
            let entity = EntityKey::new(w.entity);
            self.parts.online.put_row(w.group, &entity, w.values, now);
        }
        let mut seqs = self.log.append_many(ComponentKind::Online, 0, bodies);
        for result in results.iter_mut().filter(|r| r.is_ok()) {
            *result = Ok(seqs.next().expect("one sequence per encoded write"));
        }
        results
    }

    /// The attached durable leader, if any.
    pub fn durable(&self) -> Option<Arc<DurableLeader>> {
        self.durable.lock().clone()
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

/// The serving layer's write seam: a [`ReplLeader`] is what a fenced
/// [`WriteState`](fstore_serve::WriteState) applies accepted writes
/// through, so wire-level `PutOnline` lands in the online store, the
/// publication log (followers), and — with a durable leader attached —
/// the WAL, before the ack leaves the box.
impl fstore_serve::WriteProvider for ReplLeader {
    fn put_online_many(
        &self,
        writes: &[OnlineWrite<'_>],
        now: Timestamp,
    ) -> Vec<Result<u64, FsError>> {
        ReplLeader::put_online_many(self, writes, now)
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
        // Freezing the log pins `repl_epoch` while the components are
        // captured: a publication that lands concurrently has already
        // installed its cell (hooks fire after install) but blocks on the
        // log, so its delta gets a seq > repl_epoch and is re-delivered.
        // Applies are idempotent, so the follower converges either way.
        let snapshot = self.log.frozen(|repl_epoch| self.parts.capture(repl_epoch));
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
    use fstore_common::{Schema, ValueType};
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
