//! `EmbeddingDb`: the epoch-versioned serving handle over the embedding
//! store.
//!
//! The serve path used to share the catalog as `Arc<RwLock<EmbeddingStore>>`,
//! so a republish (write lock) stalled every embedding read behind it.  Here
//! the whole store is republished as an immutable snapshot through a
//! [`SnapshotCell`]: readers resolve one `Arc` per request and are never
//! blocked, a republish is one pointer swap, and every publication bumps a
//! [`ReadEpoch`] that responses can echo so clients can assert which
//! publication answered them. A write ([`EmbeddingDb::write`]) clones the
//! current snapshot under the cell's writer mutex, mutates the clone and
//! publishes it only on success; there is no working copy, and the cell
//! keeps no snapshot but the current one. Cheap because [`EmbeddingStore`]
//! shares its (immutable) versions via `Arc` internally.

use crate::store::{EmbeddingProvenance, EmbeddingStore, EmbeddingTable};
use fstore_common::{ReadEpoch, Result, SnapshotCell, Timestamp, Versioned};
use std::sync::Arc;

/// Cheaply clonable shared handle to an epoch-versioned embedding store.
#[derive(Clone)]
pub struct EmbeddingDb {
    cell: Arc<SnapshotCell<EmbeddingStore>>,
}

impl EmbeddingDb {
    /// An empty store at [`ReadEpoch::ZERO`].
    pub fn new() -> Self {
        EmbeddingDb::from_store(EmbeddingStore::new())
    }

    /// Adopt an existing store as epoch zero.
    pub fn from_store(store: EmbeddingStore) -> Self {
        EmbeddingDb {
            cell: Arc::new(SnapshotCell::new(store)),
        }
    }

    /// Resolve the current snapshot; hold the `Arc` for as long as a
    /// consistent view is needed. Never blocks on a republish.
    pub fn snapshot(&self) -> Arc<EmbeddingStore> {
        self.cell.load()
    }

    /// Resolve the current snapshot together with its publication epoch.
    pub fn read(&self) -> Versioned<EmbeddingStore> {
        self.cell.read()
    }

    /// The epoch of the most recent publication.
    pub fn epoch(&self) -> ReadEpoch {
        self.cell.epoch()
    }

    /// Publish `table` as the next version of `name` and swap the new
    /// snapshot in. Returns the qualified version name and the epoch the
    /// publication was stamped with.
    pub fn publish(
        &self,
        name: impl Into<String>,
        table: EmbeddingTable,
        provenance: EmbeddingProvenance,
        now: Timestamp,
    ) -> Result<(String, ReadEpoch)> {
        self.write(|store| store.publish(name, table, provenance, now))
    }

    /// Run a mutation against a clone of the current snapshot and publish
    /// the result as the next snapshot. On `Err` the clone is dropped and
    /// nothing is published, so failed mutations never leak into later
    /// publications.
    pub fn write<R>(
        &self,
        f: impl FnOnce(&mut EmbeddingStore) -> Result<R>,
    ) -> Result<(R, ReadEpoch)> {
        self.cell.write(f)
    }

    /// Observe every publication, alongside the existing observers (a
    /// leader's publication stream taps in here; see
    /// `fstore_common::snapshot::PublishHook`).
    pub fn add_publish_hook(
        &self,
        hook: impl Fn(&Versioned<EmbeddingStore>) + Send + Sync + 'static,
    ) {
        self.cell.add_publish_hook(hook);
    }

    /// Replication: run a mutation and publish at the explicit
    /// (leader-dictated) `epoch` so follower responses echo the leader's
    /// epochs exactly. On `Err` nothing is published.
    pub fn apply_replica<R>(
        &self,
        epoch: ReadEpoch,
        f: impl FnOnce(&mut EmbeddingStore) -> Result<R>,
    ) -> Result<R> {
        self.cell.write_at(epoch, f).map(|(out, _)| out)
    }

    /// Replication: adopt `store` wholesale as the snapshot at `epoch`
    /// (follower bootstrap / full-snapshot fallback).
    pub fn restore(&self, store: EmbeddingStore, epoch: ReadEpoch) {
        self.cell.restore(store, epoch);
    }
}

impl Default for EmbeddingDb {
    fn default() -> Self {
        EmbeddingDb::new()
    }
}

impl std::fmt::Debug for EmbeddingDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmbeddingDb")
            .field("epoch", &self.epoch())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn table(entries: &[(&str, Vec<f32>)]) -> EmbeddingTable {
        let mut t = EmbeddingTable::new(entries[0].1.len()).unwrap();
        for (k, v) in entries {
            t.insert(*k, v.clone()).unwrap();
        }
        t
    }

    #[test]
    fn publish_bumps_epoch_and_freezes_old_snapshots() {
        let db = EmbeddingDb::new();
        assert_eq!(db.epoch(), ReadEpoch::ZERO);

        let (q1, e1) = db
            .publish(
                "words",
                table(&[("a", vec![1.0, 0.0])]),
                EmbeddingProvenance::default(),
                Timestamp::millis(1),
            )
            .unwrap();
        assert_eq!(q1, "words@v1");
        assert_eq!(e1, ReadEpoch(1));

        let old = db.snapshot();
        let (q2, e2) = db
            .publish(
                "words",
                table(&[("a", vec![0.0, 1.0])]),
                EmbeddingProvenance::default(),
                Timestamp::millis(2),
            )
            .unwrap();
        assert_eq!(q2, "words@v2");
        assert_eq!(e2, ReadEpoch(2));

        // the pre-republish snapshot still serves v1 as latest
        assert_eq!(old.latest("words").unwrap().version, 1);
        assert_eq!(db.snapshot().latest("words").unwrap().version, 2);
    }

    #[test]
    fn failed_publish_leaves_epoch_and_state_untouched() {
        let db = EmbeddingDb::new();
        let empty = EmbeddingTable::new(2).unwrap();
        assert!(db
            .publish("e", empty, EmbeddingProvenance::default(), Timestamp::EPOCH)
            .is_err());
        assert_eq!(db.epoch(), ReadEpoch::ZERO);
        assert!(db.snapshot().list().is_empty());
    }

    #[test]
    fn readers_see_consistent_versions_under_republish() {
        // Vector contents encode the version number; a reader must never see
        // a version whose vector disagrees.
        let db = EmbeddingDb::new();
        db.publish(
            "emb",
            table(&[("k", vec![1.0])]),
            EmbeddingProvenance::default(),
            Timestamp::EPOCH,
        )
        .unwrap();

        let writer = {
            let db = db.clone();
            thread::spawn(move || {
                for v in 2..=50u32 {
                    db.publish(
                        "emb",
                        table(&[("k", vec![v as f32])]),
                        EmbeddingProvenance::default(),
                        Timestamp::millis(i64::from(v)),
                    )
                    .unwrap();
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let db = db.clone();
                thread::spawn(move || {
                    let mut last_epoch = ReadEpoch::ZERO;
                    for _ in 0..500 {
                        let v = db.read();
                        let latest = v.value.latest("emb").unwrap();
                        assert_eq!(
                            latest.table.get("k"),
                            Some(&[latest.version as f32][..]),
                            "torn read: vector does not match its version"
                        );
                        assert!(v.epoch >= last_epoch);
                        last_epoch = v.epoch;
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(db.snapshot().latest("emb").unwrap().version, 50);
    }
}
