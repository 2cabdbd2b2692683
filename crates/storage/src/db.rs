//! `OfflineDb`: the shared, epoch-versioned handle to the offline store.
//!
//! Splits the offline warehouse into the two roles the concurrency model
//! needs (DESIGN.md "Concurrency model"):
//!
//! * **readers** resolve one immutable snapshot `Arc` up front
//!   ([`OfflineDb::snapshot`] / [`OfflineDb::read`]) and then scan, join, and
//!   profile entirely lock-free — a concurrent publication never blocks them
//!   and never mutates the rows they are looking at;
//! * **writers** run inside [`OfflineDb::write`], which forwards to
//!   [`SnapshotCell::write`]: under the cell's writer mutex it clones the
//!   current snapshot, applies the mutation to the clone, and publishes the
//!   result as the next snapshot (bumping the [`ReadEpoch`]) only if it
//!   succeeded. There is no working copy beside the published snapshot.
//!
//! Because [`OfflineStore`] shares its tables and sealed segments via `Arc`
//! internally, that clone is O(#tables) pointer bumps — not a data copy.

use crate::offline::OfflineStore;
use fstore_common::{ReadEpoch, Result, SnapshotCell, Versioned};
use std::sync::Arc;

/// Cheaply clonable shared handle to an epoch-versioned offline store.
#[derive(Clone)]
pub struct OfflineDb {
    cell: Arc<SnapshotCell<OfflineStore>>,
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
            cell: Arc::new(SnapshotCell::new(store)),
        }
    }

    /// Resolve the current snapshot. Lock-free after one brief `Arc` clone;
    /// hold it for as long as the read needs a consistent view.
    pub fn snapshot(&self) -> Arc<OfflineStore> {
        self.cell.load()
    }

    /// Resolve the current snapshot together with its publication epoch.
    pub fn read(&self) -> Versioned<OfflineStore> {
        self.cell.read()
    }

    /// The epoch of the most recent publication.
    pub fn epoch(&self) -> ReadEpoch {
        self.cell.epoch()
    }

    /// Run a mutation and publish the result as the next snapshot.
    ///
    /// The closure gets exclusive access to a clone of the current snapshot;
    /// on `Ok` the clone is published (epoch bumps by one), on `Err` it is
    /// dropped, so failed mutations are all-or-nothing and never leak into
    /// later publications.
    pub fn write<R>(&self, f: impl FnOnce(&mut OfflineStore) -> Result<R>) -> Result<R> {
        self.cell.write(f).map(|(out, _)| out)
    }

    /// Observe every publication, alongside the existing observers (a
    /// leader's publication stream taps in here; see
    /// `fstore_common::snapshot::PublishHook`).
    pub fn add_publish_hook(
        &self,
        hook: impl Fn(&Versioned<OfflineStore>) + Send + Sync + 'static,
    ) {
        self.cell.add_publish_hook(hook);
    }

    /// Replication: run a mutation and publish the result at the explicit
    /// (leader-dictated) `epoch` instead of minting the next local one, so a
    /// follower's responses echo exactly the leader's epochs. On `Err`
    /// nothing is published.
    pub fn apply_replica<R>(
        &self,
        epoch: ReadEpoch,
        f: impl FnOnce(&mut OfflineStore) -> Result<R>,
    ) -> Result<R> {
        self.cell.write_at(epoch, f).map(|(out, _)| out)
    }

    /// Replication: adopt `store` wholesale as the snapshot at `epoch`
    /// (follower bootstrap / full-snapshot fallback).
    pub fn restore(&self, store: OfflineStore, epoch: ReadEpoch) {
        self.cell.restore(store, epoch);
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
    use std::sync::atomic::{AtomicUsize, Ordering};
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

        // The aborted clone is gone: the next successful write does not
        // resurrect its row.
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
    fn failed_replica_apply_publishes_nothing() {
        let db = OfflineDb::new();
        db.apply_replica(ReadEpoch(3), |s| s.create_table("t", int_table()))
            .unwrap();
        let hooked = Arc::new(AtomicUsize::new(0));
        {
            let hooked = Arc::clone(&hooked);
            db.add_publish_hook(move |_| {
                hooked.fetch_add(1, Ordering::Relaxed);
            });
        }

        let err = db.apply_replica(ReadEpoch(4), |s| {
            s.append("t", &[Value::Int(7)])?; // partial mutation...
            s.append("t", &[Value::Str("not an int".into())])
        });
        assert!(err.is_err());
        assert_eq!(db.epoch(), ReadEpoch(3), "failed apply must not publish");
        assert_eq!(db.snapshot().num_rows("t").unwrap(), 0);
        assert_eq!(hooked.load(Ordering::Relaxed), 0);

        // Redelivery of the same delta applies cleanly on the old state.
        db.apply_replica(ReadEpoch(4), |s| s.append("t", &[Value::Int(7)]))
            .unwrap();
        assert_eq!(db.epoch(), ReadEpoch(4));
        assert_eq!(db.snapshot().num_rows("t").unwrap(), 1);
        assert_eq!(hooked.load(Ordering::Relaxed), 1);
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
