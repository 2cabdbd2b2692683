//! `OfflineDb`: the shared, epoch-versioned handle to the offline store.
//!
//! Splits the offline warehouse into the two roles the concurrency model
//! needs (DESIGN.md "Concurrency model"):
//!
//! * **readers** resolve one immutable snapshot `Arc` up front
//!   ([`OfflineDb::snapshot`] / [`OfflineDb::read`]) and then scan, join, and
//!   profile entirely lock-free — a concurrent publication never blocks them
//!   and never mutates the rows they are looking at;
//! * **writers** run inside [`OfflineDb::write`], which serializes them on a
//!   narrow mutex, applies the mutation to a private working copy, and
//!   publishes the result as the next snapshot (bumping the [`ReadEpoch`])
//!   only if it succeeded.
//!
//! Because [`OfflineStore`] shares its tables and sealed segments via `Arc`
//! internally, the publish step is O(#tables) pointer bumps — not a data
//! copy.

use crate::offline::OfflineStore;
use fstore_common::{ReadEpoch, Result, SnapshotCell, Versioned};
use parking_lot::Mutex;
use std::sync::Arc;

struct Inner {
    /// The writer's working copy. Mutations happen here first; the mutex
    /// serializes writers and is never held by readers.
    writer: Mutex<OfflineStore>,
    /// The published snapshot readers resolve from.
    cell: SnapshotCell<OfflineStore>,
}

/// Cheaply clonable shared handle to an epoch-versioned offline store.
#[derive(Clone)]
pub struct OfflineDb {
    inner: Arc<Inner>,
}

impl OfflineDb {
    /// An empty store at [`ReadEpoch::ZERO`].
    pub fn new() -> Self {
        OfflineDb::from_store(OfflineStore::new())
    }

    /// Adopt an existing store (e.g. one rebuilt from a durability snapshot)
    /// as epoch zero.
    pub fn from_store(store: OfflineStore) -> Self {
        OfflineDb {
            inner: Arc::new(Inner {
                cell: SnapshotCell::new(store.clone()),
                writer: Mutex::new(store),
            }),
        }
    }

    /// Resolve the current snapshot. Lock-free after one brief `Arc` clone;
    /// hold it for as long as the read needs a consistent view.
    pub fn snapshot(&self) -> Arc<OfflineStore> {
        self.inner.cell.load()
    }

    /// Resolve the current snapshot together with its publication epoch.
    pub fn read(&self) -> Versioned<OfflineStore> {
        self.inner.cell.read()
    }

    /// The epoch of the most recent publication.
    pub fn epoch(&self) -> ReadEpoch {
        self.inner.cell.epoch()
    }

    /// Run a mutation and publish the result as the next snapshot.
    ///
    /// The closure gets exclusive access to the writer's working copy; on
    /// `Ok` the copy is published (epoch bumps by one), on `Err` the working
    /// copy is rolled back to the last published snapshot so failed mutations
    /// are all-or-nothing and never leak into later publications.
    pub fn write<R>(&self, f: impl FnOnce(&mut OfflineStore) -> Result<R>) -> Result<R> {
        let mut store = self.inner.writer.lock();
        match f(&mut store) {
            Ok(out) => {
                self.inner.cell.publish(store.clone());
                Ok(out)
            }
            Err(e) => {
                *store = (*self.inner.cell.load()).clone();
                Err(e)
            }
        }
    }

    /// Observe every publication, alongside the existing observers (a
    /// leader's publication stream taps in here; see
    /// [`fstore_common::snapshot::PublishHook`]).
    pub fn add_publish_hook(
        &self,
        hook: impl Fn(&Versioned<OfflineStore>) + Send + Sync + 'static,
    ) {
        self.inner.cell.add_publish_hook(hook);
    }

    /// How many recent publications the handle retains for
    /// [`at_epoch`](Self::at_epoch) (default
    /// [`fstore_common::snapshot::DEFAULT_HISTORY_DEPTH`]).
    pub fn set_history_depth(&self, depth: usize) {
        self.inner.cell.set_history_depth(depth);
    }

    /// Recent publications, oldest to newest — lets a skew monitor diff the
    /// epoch a trainer saw against the one serving sees.
    pub fn history(&self) -> Vec<Versioned<OfflineStore>> {
        self.inner.cell.history()
    }

    /// The snapshot published at exactly `epoch`, if still retained.
    pub fn at_epoch(&self, epoch: ReadEpoch) -> Option<Versioned<OfflineStore>> {
        self.inner.cell.at_epoch(epoch)
    }

    /// Replication: run a mutation and publish the result at the explicit
    /// (leader-dictated) `epoch` instead of minting the next local one, so a
    /// follower's responses echo exactly the leader's epochs. On `Err` the
    /// working copy rolls back and nothing is published.
    pub fn apply_replica<R>(
        &self,
        epoch: ReadEpoch,
        f: impl FnOnce(&mut OfflineStore) -> Result<R>,
    ) -> Result<R> {
        let mut store = self.inner.writer.lock();
        match f(&mut store) {
            Ok(out) => {
                self.inner.cell.restore(store.clone(), epoch);
                Ok(out)
            }
            Err(e) => {
                *store = (*self.inner.cell.load()).clone();
                Err(e)
            }
        }
    }

    /// Replication: adopt `store` wholesale as the snapshot at `epoch`
    /// (follower bootstrap / full-snapshot fallback).
    pub fn restore(&self, store: OfflineStore, epoch: ReadEpoch) {
        let mut writer = self.inner.writer.lock();
        *writer = store.clone();
        self.inner.cell.restore(store, epoch);
    }
}

impl Default for OfflineDb {
    fn default() -> Self {
        OfflineDb::new()
    }
}

impl std::fmt::Debug for OfflineDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OfflineDb")
            .field("epoch", &self.epoch())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::{ScanRequest, TableConfig};
    use fstore_common::{FsError, Schema, Value, ValueType};
    use std::thread;

    fn int_table() -> TableConfig {
        TableConfig::new(Schema::of(&[("x", ValueType::Int)])).with_segment_rows(4)
    }

    #[test]
    fn writes_publish_new_epochs_and_readers_keep_old_snapshots() {
        let db = OfflineDb::new();
        assert_eq!(db.epoch(), ReadEpoch::ZERO);

        db.write(|s| s.create_table("t", int_table())).unwrap();
        assert_eq!(db.epoch(), ReadEpoch(1));

        let before = db.snapshot();
        db.write(|s| s.append("t", &[Value::Int(1)])).unwrap();
        assert_eq!(db.epoch(), ReadEpoch(2));

        // The pre-append snapshot is frozen; the new one sees the row.
        assert_eq!(before.num_rows("t").unwrap(), 0);
        assert_eq!(db.snapshot().num_rows("t").unwrap(), 1);
    }

    #[test]
    fn failed_write_publishes_nothing_and_rolls_back() {
        let db = OfflineDb::new();
        db.write(|s| s.create_table("t", int_table())).unwrap();
        let epoch = db.epoch();

        let err = db.write(|s| {
            s.append("t", &[Value::Int(7)])?; // partial mutation...
            Err::<(), _>(FsError::Storage("abort".into()))
        });
        assert!(err.is_err());
        assert_eq!(db.epoch(), epoch, "failed write must not bump the epoch");
        assert_eq!(db.snapshot().num_rows("t").unwrap(), 0);

        // The working copy was rolled back too: the next successful write
        // does not resurrect the aborted row.
        db.write(|s| s.append("t", &[Value::Int(8)])).unwrap();
        let vals = db
            .snapshot()
            .column_values("t", "x", &ScanRequest::all())
            .unwrap();
        assert_eq!(vals, vec![Value::Int(8)]);
    }

    #[test]
    fn replica_apply_installs_at_leader_epochs() {
        let db = OfflineDb::new();
        db.apply_replica(ReadEpoch(5), |s| s.create_table("t", int_table()))
            .unwrap();
        assert_eq!(db.epoch(), ReadEpoch(5));
        // Idempotent re-apply at the same epoch (at-least-once delivery).
        db.apply_replica(ReadEpoch(5), |s| {
            if !s.table_names().contains(&"t") {
                s.create_table("t", int_table())?;
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(db.epoch(), ReadEpoch(5));
        db.apply_replica(ReadEpoch(7), |s| s.append("t", &[Value::Int(1)]))
            .unwrap();
        assert_eq!(db.epoch(), ReadEpoch(7));
        assert_eq!(db.snapshot().num_rows("t").unwrap(), 1);

        // Full-state restore (bootstrap fallback) replaces everything.
        let other = OfflineDb::new();
        other.write(|s| s.create_table("u", int_table())).unwrap();
        db.restore((*other.snapshot()).clone(), ReadEpoch(9));
        assert_eq!(db.epoch(), ReadEpoch(9));
        assert!(db.snapshot().num_rows("t").is_err());
        assert_eq!(db.snapshot().num_rows("u").unwrap(), 0);
    }

    #[test]
    fn snapshot_isolation_under_concurrent_appends() {
        let db = OfflineDb::new();
        db.write(|s| s.create_table("t", int_table())).unwrap();

        let writer = {
            let db = db.clone();
            thread::spawn(move || {
                for i in 0..200i64 {
                    db.write(|s| s.append("t", &[Value::Int(i)])).unwrap();
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let db = db.clone();
                thread::spawn(move || {
                    for _ in 0..200 {
                        let v = db.read();
                        let res = v.value.scan("t", &ScanRequest::all()).unwrap();
                        // A snapshot is internally consistent: row count from
                        // the scan matches the store's own counter.
                        assert_eq!(res.rows.len(), v.value.num_rows("t").unwrap());
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(db.snapshot().num_rows("t").unwrap(), 200);
        assert_eq!(db.epoch(), ReadEpoch(201));
    }
}
