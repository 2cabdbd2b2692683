//! Epoch-versioned snapshot cells — the workspace-wide publication primitive.
//!
//! A [`SnapshotCell<T>`] holds an atomically swappable [`Arc`] to an immutable
//! snapshot of some state, plus a monotone [`ReadEpoch`] counter that ticks on
//! every publication. Readers resolve one `Arc` (and the epoch it was
//! published at) up front and then run entirely lock-free: a concurrent
//! publication swaps the cell to a new snapshot but never touches the one a
//! reader is already holding. Writers serialize among themselves on a
//! dedicated mutex so read-copy-update sequences ([`SnapshotCell::update`],
//! [`SnapshotCell::write`]) never lose updates, but they never block readers
//! for longer than the pointer swap itself.
//!
//! A cell holds one snapshot and no history: a superseded snapshot lives
//! exactly as long as the last reader holding it. A writer mutates a clone
//! of the current snapshot and publishes it only on success, so the owners
//! of a cell (`OfflineDb`, `EmbeddingDb`) need no working copy of their own.
//!
//! This is the shape `IndexCatalog` pioneered for ANN index hot-swaps;
//! hoisting it here lets the offline store, the embedding catalog, and the
//! index catalog all share one concurrency model (see DESIGN.md
//! "Concurrency model").

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};

/// A callback fired after every publication into a [`SnapshotCell`], with the
/// just-installed snapshot/epoch pair. A cell can carry several hooks (a
/// leader's publication stream is one, a test observer another); they run in
/// registration order under the cell's writer mutex (publication order ==
/// callback order) and must not publish back into the same cell.
pub(crate) type PublishHook<T> = Box<dyn Fn(&Versioned<T>) + Send + Sync>;

/// A monotone publication counter. Epoch `0` is the state a cell was
/// constructed with; every successful publication increments it by one.
///
/// Epochs are per-cell: comparing epochs from different cells is meaningless,
/// but within one cell `a < b` means snapshot `a` was published strictly
/// before snapshot `b`. Serving layers that aggregate several cells sum the
/// component epochs — the sum is still monotone under any publication.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct ReadEpoch(pub u64);

impl ReadEpoch {
    /// The epoch of a freshly constructed cell (its initial value).
    pub const ZERO: ReadEpoch = ReadEpoch(0);

    /// The raw counter value.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// The epoch the *next* publication will be stamped with.
    pub(crate) fn next(self) -> ReadEpoch {
        ReadEpoch(self.0 + 1)
    }
}

impl fmt::Display for ReadEpoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A snapshot `Arc` paired with the epoch it was published at. The pair is
/// resolved atomically: `value` is exactly the snapshot that publication
/// `epoch` installed.
#[derive(Debug)]
pub struct Versioned<T> {
    pub value: Arc<T>,
    pub epoch: ReadEpoch,
}

// Manual impl: `Arc<T>` clones without `T: Clone`, and the derive would
// wrongly require it.
impl<T> Clone for Versioned<T> {
    fn clone(&self) -> Self {
        Versioned {
            value: Arc::clone(&self.value),
            epoch: self.epoch,
        }
    }
}

/// An atomically swappable `Arc` to an immutable snapshot, plus a monotone
/// epoch counter. The cell holds exactly one snapshot: once no reader holds
/// a superseded one, it is freed.
///
/// * Readers call [`load`](Self::load) or [`read`](Self::read); both take the
///   internal lock only long enough to clone an `Arc` and never block on a
///   writer building a new snapshot.
/// * Writers call [`update`](Self::update) to build a replacement from the
///   current snapshot, or [`write`](Self::write) / [`write_at`](Self::write_at) to
///   mutate a clone of it and publish only on success. Writers are
///   serialized on a dedicated mutex, so every writer starts from the latest
///   published value.
///
/// Snapshots must be immutable once published — the type system cannot
/// enforce this (readers get `Arc<T>`, not `&T`), so by convention `T`
/// exposes no interior mutability.
pub struct SnapshotCell<T> {
    /// The current snapshot and the epoch it was published at, swapped as a
    /// unit so readers always observe a consistent pair.
    current: RwLock<Versioned<T>>,
    /// Serializes writers (publication order == epoch order, and
    /// read-copy-update never loses a concurrent writer's work).
    writer: Mutex<()>,
    /// Mirror of the current epoch for lock-free [`epoch`](Self::epoch)
    /// queries; written only while holding the `current` write lock.
    epoch: AtomicU64,
    /// Observers notified after each publication, in registration order
    /// (a leader's publication stream taps in here).
    hooks: Mutex<Vec<PublishHook<T>>>,
}

impl<T> SnapshotCell<T> {
    /// Create a cell holding `value` at [`ReadEpoch::ZERO`].
    pub fn new(value: T) -> Self {
        SnapshotCell {
            current: RwLock::new(Versioned {
                value: Arc::new(value),
                epoch: ReadEpoch::ZERO,
            }),
            writer: Mutex::new(()),
            epoch: AtomicU64::new(0),
            hooks: Mutex::new(Vec::new()),
        }
    }

    /// Resolve the current snapshot. O(1): an `Arc` clone under a read lock
    /// held for the duration of the clone only.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.current.read().value)
    }

    /// Resolve the current snapshot together with the epoch it was published
    /// at, as one consistent pair.
    pub fn read(&self) -> Versioned<T> {
        self.current.read().clone()
    }

    /// The epoch of the most recent publication (lock-free).
    pub fn epoch(&self) -> ReadEpoch {
        ReadEpoch(self.epoch.load(Ordering::Acquire))
    }

    /// Read-copy-update: build a replacement snapshot from the current one
    /// and publish it, all under the writer mutex. The closure receives the
    /// current snapshot and the epoch the replacement *will* be published at
    /// (so snapshots can embed their own epoch), and returns the replacement
    /// plus an arbitrary result.
    pub fn update<R>(&self, f: impl FnOnce(&T, ReadEpoch) -> (T, R)) -> (ReadEpoch, R) {
        let _writer = self.writer.lock();
        let (next, out) = f(&self.load(), self.epoch().next());
        (self.install(next, None), out)
    }

    /// Install an observer fired after every publication (see
    /// `PublishHook`), alongside the ones already registered. Hooks fire
    /// in registration order and cannot be removed, so no caller can unhook
    /// another's observer (a leader's publication stream taps in here).
    pub fn add_publish_hook(&self, hook: impl Fn(&Versioned<T>) + Send + Sync + 'static) {
        self.hooks.lock().push(Box::new(hook));
    }

    /// Adopt `value` as the snapshot at `epoch` — the replication entry
    /// point, where the epoch is dictated by the leader rather than minted
    /// locally. Clamped so the cell's epoch never moves backwards; re-applying
    /// the current epoch (at-least-once delivery) replaces the snapshot in
    /// place. Returns the epoch actually installed.
    pub fn restore(&self, value: T, epoch: ReadEpoch) -> ReadEpoch {
        let _writer = self.writer.lock();
        self.install(value, Some(epoch))
    }

    /// Swap in `value` at `epoch` (clamped so the cell never regresses) or,
    /// for `None`, at the next epoch; then fire the publish hooks. Caller
    /// must hold the writer mutex.
    fn install(&self, value: T, epoch: Option<ReadEpoch>) -> ReadEpoch {
        let cur = self.epoch();
        let epoch = epoch.map_or(cur.next(), |e| e.max(cur));
        let installed = Versioned {
            value: Arc::new(value),
            epoch,
        };
        let superseded = {
            let mut current = self.current.write();
            let superseded = std::mem::replace(&mut *current, installed.clone());
            self.epoch.store(epoch.0, Ordering::Release);
            superseded
        };
        // Outside the readers' lock: if no reader holds the old snapshot,
        // freeing it here never stalls a `load`.
        drop(superseded);
        for hook in self.hooks.lock().iter() {
            hook(&installed);
        }
        epoch
    }
}

impl<T: Clone> SnapshotCell<T> {
    /// Mutate a clone of the current snapshot and publish it as the next
    /// epoch, all under the writer mutex. On `Err` the clone is dropped:
    /// nothing is published and the epoch does not advance, so a failed
    /// write is all-or-nothing. Returns the closure's result and the epoch
    /// the write was published at.
    pub fn write<R, E>(&self, f: impl FnOnce(&mut T) -> Result<R, E>) -> Result<(R, ReadEpoch), E> {
        self.write_inner(None, f)
    }

    /// [`write`](Self::write) at a leader-dictated `epoch`, clamped exactly
    /// as [`restore`](Self::restore) clamps it — the replication entry point
    /// for one delta.
    pub fn write_at<R, E>(
        &self,
        epoch: ReadEpoch,
        f: impl FnOnce(&mut T) -> Result<R, E>,
    ) -> Result<(R, ReadEpoch), E> {
        self.write_inner(Some(epoch), f)
    }

    fn write_inner<R, E>(
        &self,
        epoch: Option<ReadEpoch>,
        f: impl FnOnce(&mut T) -> Result<R, E>,
    ) -> Result<(R, ReadEpoch), E> {
        let _writer = self.writer.lock();
        let mut next = T::clone(&self.load());
        let out = f(&mut next)?;
        Ok((out, self.install(next, epoch)))
    }
}

impl<T: Default> Default for SnapshotCell<T> {
    fn default() -> Self {
        SnapshotCell::new(T::default())
    }
}

impl<T> fmt::Debug for SnapshotCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotCell")
            .field("epoch", &self.epoch())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// Swap in a fully built value (through the read-copy-update path).
    fn publish<T>(cell: &SnapshotCell<T>, value: T) -> ReadEpoch {
        cell.update(|_, _| (value, ())).0
    }

    #[test]
    fn starts_at_epoch_zero_and_ticks_on_publish() {
        let cell = SnapshotCell::new(10u32);
        assert_eq!(cell.epoch(), ReadEpoch::ZERO);
        assert_eq!(*cell.load(), 10);

        assert_eq!(publish(&cell, 11), ReadEpoch(1));
        assert_eq!(publish(&cell, 12), ReadEpoch(2));
        assert_eq!(cell.epoch(), ReadEpoch(2));
        assert_eq!(*cell.load(), 12);
    }

    #[test]
    fn read_returns_a_consistent_pair() {
        let cell = SnapshotCell::new(0u64);
        for _ in 0..5 {
            let v = cell.read();
            // Value was constructed to equal the epoch it was published at.
            assert_eq!(*v.value, v.epoch.as_u64());
            let e = cell.epoch();
            publish(&cell, e.as_u64() + 1);
        }
    }

    #[test]
    fn old_snapshots_survive_publication() {
        let cell = SnapshotCell::new(vec![1, 2, 3]);
        let old = cell.load();
        publish(&cell, vec![9]);
        assert_eq!(*old, vec![1, 2, 3]);
        assert_eq!(*cell.load(), vec![9]);
    }

    #[test]
    fn update_sees_next_epoch_and_current_value() {
        let cell = SnapshotCell::new(100u64);
        let (epoch, prev) = cell.update(|cur, next| {
            assert_eq!(next, ReadEpoch(1));
            (cur + 1, *cur)
        });
        assert_eq!(epoch, ReadEpoch(1));
        assert_eq!(prev, 100);
        assert_eq!(*cell.load(), 101);
    }

    #[test]
    fn failed_write_publishes_nothing() {
        let cell = SnapshotCell::new(vec![7u32]);
        let r = cell.write(|v| {
            v.push(8); // partial mutation...
            Err::<(), _>("nope")
        });
        assert_eq!(r, Err("nope"));
        assert_eq!(cell.epoch(), ReadEpoch::ZERO);
        assert_eq!(*cell.load(), vec![7]);

        // The next write starts from the published snapshot, not from the
        // aborted clone.
        let r: Result<_, &str> = cell.write(|v| {
            v.push(9);
            Ok(v.len())
        });
        assert_eq!(r, Ok((2, ReadEpoch(1))));
        assert_eq!(*cell.load(), vec![7, 9]);
    }

    #[test]
    fn write_at_installs_at_the_dictated_epoch_and_never_regresses() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let cell = SnapshotCell::new(0u32);
        {
            let seen = Arc::clone(&seen);
            cell.add_publish_hook(move |v| seen.lock().push((v.epoch.as_u64(), *v.value)));
        }
        let ok = |n| {
            move |v: &mut u32| -> Result<(), ()> {
                *v = n;
                Ok(())
            }
        };
        assert_eq!(cell.write_at(ReadEpoch(5), ok(1)), Ok(((), ReadEpoch(5))));
        // At-least-once redelivery of the same epoch replaces in place.
        assert_eq!(cell.write_at(ReadEpoch(5), ok(2)), Ok(((), ReadEpoch(5))));
        // A stale epoch is clamped to the current one.
        assert_eq!(cell.write_at(ReadEpoch(3), ok(3)), Ok(((), ReadEpoch(5))));
        // A failed replica write publishes nothing and fires no hook.
        assert_eq!(cell.write_at(ReadEpoch(6), |_| Err::<(), _>(())), Err(()));
        assert_eq!(cell.epoch(), ReadEpoch(5));
        assert_eq!(*cell.load(), 3);
        assert_eq!(*seen.lock(), vec![(5, 1), (5, 2), (5, 3)]);
    }

    #[test]
    fn a_superseded_snapshot_is_freed_once_its_readers_drop_it() {
        let cell = SnapshotCell::new(vec![0u8; 1024]);
        publish(&cell, vec![1u8; 1024]);
        let reader = cell.load();
        let weak = Arc::downgrade(&reader);
        publish(&cell, vec![2u8; 1024]);
        assert!(weak.upgrade().is_some(), "a reader keeps its snapshot");
        drop(reader);
        assert!(
            weak.upgrade().is_none(),
            "the cell keeps only its current snapshot"
        );
        publish(&cell, vec![3u8; 1024]);
        assert!(weak.upgrade().is_none());
    }

    #[test]
    fn publish_hook_sees_every_publication_in_order() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let cell = SnapshotCell::new(0u64);
        {
            let seen = Arc::clone(&seen);
            cell.add_publish_hook(move |v| seen.lock().push((v.epoch.as_u64(), *v.value)));
        }
        publish(&cell, 10);
        cell.update(|cur, _| (cur + 1, ()));
        cell.restore(20, ReadEpoch(5));
        assert_eq!(*seen.lock(), vec![(1, 10), (2, 11), (5, 20)]);
    }

    #[test]
    fn multiple_hooks_fire_in_registration_order() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let cell = SnapshotCell::new(0u64);
        for tag in ["repl", "durable"] {
            let seen = Arc::clone(&seen);
            cell.add_publish_hook(move |v| seen.lock().push((tag, v.epoch.as_u64())));
        }
        publish(&cell, 1);
        assert_eq!(*seen.lock(), vec![("repl", 1), ("durable", 1)]);

        // A later hook joins the set; it never replaces the earlier ones.
        {
            let seen = Arc::clone(&seen);
            cell.add_publish_hook(move |v| seen.lock().push(("late", v.epoch.as_u64())));
        }
        publish(&cell, 2);
        assert_eq!(seen.lock()[2..], [("repl", 2), ("durable", 2), ("late", 2)]);
    }

    #[test]
    fn restore_installs_at_explicit_epoch_and_never_regresses() {
        let cell = SnapshotCell::new(0u32);
        assert_eq!(cell.restore(5, ReadEpoch(7)), ReadEpoch(7));
        assert_eq!(cell.epoch(), ReadEpoch(7));
        assert_eq!(*cell.load(), 5);
        // Re-applying the same epoch (at-least-once) replaces in place.
        assert_eq!(cell.restore(6, ReadEpoch(7)), ReadEpoch(7));
        assert_eq!(*cell.load(), 6);
        // A stale epoch is clamped to the current one, never backwards.
        assert_eq!(cell.restore(9, ReadEpoch(3)), ReadEpoch(7));
        assert_eq!(cell.epoch(), ReadEpoch(7));
        assert_eq!(*cell.load(), 9);
        // Ordinary publication resumes from the restored epoch.
        assert_eq!(publish(&cell, 1), ReadEpoch(8));
    }

    #[test]
    fn concurrent_readers_never_observe_torn_pairs() {
        // Each published value equals its epoch; readers assert the pair
        // matches and that epochs are monotone per thread.
        let cell = Arc::new(SnapshotCell::new(0u64));
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let cell = Arc::clone(&cell);
                thread::spawn(move || {
                    for _ in 0..500 {
                        cell.update(|_, next| (next.as_u64(), ()));
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                thread::spawn(move || {
                    let mut last = ReadEpoch::ZERO;
                    for _ in 0..2000 {
                        let v = cell.read();
                        assert_eq!(*v.value, v.epoch.as_u64(), "torn snapshot/epoch pair");
                        assert!(v.epoch >= last, "epoch went backwards");
                        last = v.epoch;
                    }
                })
            })
            .collect();
        for t in writers.into_iter().chain(readers) {
            t.join().unwrap();
        }
        assert_eq!(cell.epoch(), ReadEpoch(1000));
    }
}
