//! Epoch-versioned snapshot cells — the workspace-wide publication primitive.
//!
//! A [`SnapshotCell<T>`] holds an atomically swappable [`Arc`] to an immutable
//! snapshot of some state, plus a monotone [`ReadEpoch`] counter that ticks on
//! every publication. Readers resolve one `Arc` (and the epoch it was
//! published at) up front and then run entirely lock-free: a concurrent
//! publication swaps the cell to a new snapshot but never touches the one a
//! reader is already holding. Writers serialize among themselves on a
//! dedicated mutex so read-copy-update sequences ([`SnapshotCell::update`])
//! never lose updates, but they never block readers for longer than the
//! pointer swap itself.
//!
//! This is the shape `IndexCatalog` pioneered for ANN index hot-swaps;
//! hoisting it here lets the offline store, the embedding catalog, and the
//! index catalog all share one concurrency model (see DESIGN.md
//! "Concurrency model").

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};

/// How many published snapshots a [`SnapshotCell`] retains by default (the
/// current one plus recent history) for skew monitoring and replication
/// catch-up. Configurable per cell via
/// [`SnapshotCell::set_history_depth`].
pub const DEFAULT_HISTORY_DEPTH: usize = 4;

/// A bounded ring of the most recent entries keyed by a monotone `u64`
/// (a [`ReadEpoch`] for snapshot history, a replication sequence number for
/// the publication log — both uses share this one structure).
///
/// Pushing past capacity evicts the oldest entry; pushing an existing key
/// replaces that entry in place, so at-least-once producers stay idempotent.
#[derive(Debug, Clone)]
pub struct EpochRing<V> {
    cap: usize,
    items: VecDeque<(u64, V)>,
}

impl<V> EpochRing<V> {
    /// An empty ring retaining at most `cap` entries (clamped to ≥ 1).
    pub fn new(cap: usize) -> Self {
        EpochRing {
            cap: cap.max(1),
            items: VecDeque::new(),
        }
    }

    /// Maximum number of retained entries.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Change the retention bound, evicting oldest entries if shrinking.
    pub fn set_capacity(&mut self, cap: usize) {
        self.cap = cap.max(1);
        while self.items.len() > self.cap {
            self.items.pop_front();
        }
    }

    /// Insert `value` under `key`. Keys must be pushed in non-decreasing
    /// order; re-pushing the newest key replaces its value. Returns the
    /// value this displaced (replaced or evicted), so a caller holding a
    /// lock can drop it after releasing the lock.
    pub fn push(&mut self, key: u64, value: V) -> Option<V> {
        if let Some(back) = self.items.back_mut() {
            debug_assert!(key >= back.0, "EpochRing keys must be monotone");
            if back.0 == key {
                return Some(std::mem::replace(&mut back.1, value));
            }
        }
        // Evict before inserting, so a full ring never grows its buffer
        // past `cap` entries; `set_capacity` trims shrinks, so one is enough.
        let evicted = if self.items.len() >= self.cap {
            self.items.pop_front().map(|(_, v)| v)
        } else {
            None
        };
        self.items.push_back((key, value));
        evicted
    }

    /// The entry published under `key`, if still retained.
    pub fn get(&self, key: u64) -> Option<&V> {
        self.items.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Newest retained entry.
    pub fn latest(&self) -> Option<(u64, &V)> {
        self.items.back().map(|(k, v)| (*k, v))
    }

    /// Key of the oldest retained entry.
    pub fn oldest_key(&self) -> Option<u64> {
        self.items.front().map(|(k, _)| *k)
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Oldest-to-newest iteration.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.items.iter().map(|(k, v)| (*k, v))
    }
}

/// A callback fired after every publication into a [`SnapshotCell`], with the
/// just-installed snapshot/epoch pair. A cell can carry several hooks (a
/// leader's publication stream is one, a test observer another); they run in
/// registration order under the cell's writer mutex (publication order ==
/// callback order) and must not publish back into the same cell.
pub type PublishHook<T> = Box<dyn Fn(&Versioned<T>) + Send + Sync>;

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
    pub fn next(self) -> ReadEpoch {
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
/// epoch counter.
///
/// * Readers call [`load`](Self::load) or [`read`](Self::read); both take the
///   internal lock only long enough to clone an `Arc` and never block on a
///   writer building a new snapshot.
/// * Writers call [`publish`](Self::publish) to swap in a fully built value,
///   or [`update`](Self::update) / [`try_update`](Self::try_update) for
///   read-copy-update against the current snapshot. Writers are serialized on
///   a dedicated mutex, so an `update` closure always sees the latest
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
    /// Recent publications (including the current one), keyed by epoch, for
    /// skew monitoring across epochs without re-materializing.
    history: Mutex<EpochRing<Arc<T>>>,
    /// Observers notified after each publication, in registration order
    /// (a leader's publication stream taps in here).
    hooks: Mutex<Vec<PublishHook<T>>>,
}

impl<T> SnapshotCell<T> {
    /// Create a cell holding `value` at [`ReadEpoch::ZERO`].
    pub fn new(value: T) -> Self {
        Self::from_arc(Arc::new(value))
    }

    /// Like [`new`](Self::new) but adopts an existing `Arc`.
    pub fn from_arc(value: Arc<T>) -> Self {
        let mut history = EpochRing::new(DEFAULT_HISTORY_DEPTH);
        history.push(0, Arc::clone(&value));
        SnapshotCell {
            current: RwLock::new(Versioned {
                value,
                epoch: ReadEpoch::ZERO,
            }),
            writer: Mutex::new(()),
            epoch: AtomicU64::new(0),
            history: Mutex::new(history),
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

    /// Publish a fully built snapshot, returning the epoch it was stamped
    /// with. Readers that resolved the previous snapshot keep it; new readers
    /// see the new one.
    pub fn publish(&self, value: T) -> ReadEpoch {
        self.publish_arc(Arc::new(value))
    }

    /// Like [`publish`](Self::publish) but adopts an existing `Arc`.
    pub fn publish_arc(&self, value: Arc<T>) -> ReadEpoch {
        let _writer = self.writer.lock();
        self.install(value)
    }

    /// Read-copy-update: build a replacement snapshot from the current one
    /// and publish it, all under the writer mutex. The closure receives the
    /// current snapshot and the epoch the replacement *will* be published at
    /// (so snapshots can embed their own epoch), and returns the replacement
    /// plus an arbitrary result.
    pub fn update<R>(&self, f: impl FnOnce(&T, ReadEpoch) -> (T, R)) -> (ReadEpoch, R) {
        let _writer = self.writer.lock();
        let cur = self.current.read().clone();
        let (next, out) = f(&cur.value, cur.epoch.next());
        (self.install(Arc::new(next)), out)
    }

    /// Fallible [`update`](Self::update): if the closure errors, nothing is
    /// published and the epoch does not advance.
    pub fn try_update<R, E>(
        &self,
        f: impl FnOnce(&T, ReadEpoch) -> Result<(T, R), E>,
    ) -> Result<(ReadEpoch, R), E> {
        let _writer = self.writer.lock();
        let cur = self.current.read().clone();
        let (next, out) = f(&cur.value, cur.epoch.next())?;
        Ok((self.install(Arc::new(next)), out))
    }

    /// How many publications the history ring retains.
    pub fn history_depth(&self) -> usize {
        self.history.lock().capacity()
    }

    /// Change the history ring's retention bound (oldest entries are evicted
    /// when shrinking).
    pub fn set_history_depth(&self, depth: usize) {
        self.history.lock().set_capacity(depth);
    }

    /// The retained publications, oldest to newest (the newest entry is the
    /// current snapshot). A skew monitor can diff "the epoch the trainer saw"
    /// against "the epoch serving sees" without re-materializing either.
    pub fn history(&self) -> Vec<Versioned<T>> {
        self.history
            .lock()
            .iter()
            .map(|(k, v)| Versioned {
                value: Arc::clone(v),
                epoch: ReadEpoch(k),
            })
            .collect()
    }

    /// Resolve the snapshot published at exactly `epoch`, if the history ring
    /// still retains it.
    pub fn at_epoch(&self, epoch: ReadEpoch) -> Option<Versioned<T>> {
        self.history.lock().get(epoch.0).map(|v| Versioned {
            value: Arc::clone(v),
            epoch,
        })
    }

    /// Install an observer fired after every publication (see
    /// [`PublishHook`]), alongside the ones already registered. Hooks fire
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
        self.restore_arc(Arc::new(value), epoch)
    }

    /// Like [`restore`](Self::restore) but adopts an existing `Arc`.
    pub fn restore_arc(&self, value: Arc<T>, epoch: ReadEpoch) -> ReadEpoch {
        let _writer = self.writer.lock();
        let epoch = epoch.max(self.current.read().epoch);
        self.install_at(value, epoch)
    }

    /// Swap in `value` at the next epoch. Caller must hold the writer mutex.
    fn install(&self, value: Arc<T>) -> ReadEpoch {
        let next = self.current.read().epoch.next();
        self.install_at(value, next)
    }

    /// Swap in `value` stamped `epoch` (non-decreasing; caller must hold the
    /// writer mutex), record it in the history ring, then fire the publish
    /// hook after the `current` write guard is released.
    fn install_at(&self, value: Arc<T>, epoch: ReadEpoch) -> ReadEpoch {
        let installed = Versioned { value, epoch };
        {
            let mut cur = self.current.write();
            *cur = installed.clone();
            self.epoch.store(epoch.0, Ordering::Release);
        }
        self.history
            .lock()
            .push(epoch.0, Arc::clone(&installed.value));
        for hook in self.hooks.lock().iter() {
            hook(&installed);
        }
        epoch
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

    #[test]
    fn starts_at_epoch_zero_and_ticks_on_publish() {
        let cell = SnapshotCell::new(10u32);
        assert_eq!(cell.epoch(), ReadEpoch::ZERO);
        assert_eq!(*cell.load(), 10);

        assert_eq!(cell.publish(11), ReadEpoch(1));
        assert_eq!(cell.publish(12), ReadEpoch(2));
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
            cell.publish(e.as_u64() + 1);
        }
    }

    #[test]
    fn old_snapshots_survive_publication() {
        let cell = SnapshotCell::new(vec![1, 2, 3]);
        let old = cell.load();
        cell.publish(vec![9]);
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
    fn failed_try_update_publishes_nothing() {
        let cell = SnapshotCell::new(7u32);
        let r = cell.try_update(|_, _| Err::<(u32, ()), &str>("nope"));
        assert!(r.is_err());
        assert_eq!(cell.epoch(), ReadEpoch::ZERO);
        assert_eq!(*cell.load(), 7);

        let r: Result<_, &str> = cell.try_update(|cur, _| Ok((cur + 1, ())));
        assert_eq!(r.unwrap().0, ReadEpoch(1));
        assert_eq!(*cell.load(), 8);
    }

    #[test]
    fn history_ring_retains_last_n_publications() {
        let cell = SnapshotCell::new(0u32);
        assert_eq!(cell.history_depth(), DEFAULT_HISTORY_DEPTH);
        for v in 1..=6u32 {
            cell.publish(v);
        }
        // Default depth 4: epochs 3..=6 retained, 0..=2 evicted.
        let hist = cell.history();
        assert_eq!(
            hist.iter().map(|v| v.epoch.as_u64()).collect::<Vec<_>>(),
            vec![3, 4, 5, 6]
        );
        assert_eq!(*cell.at_epoch(ReadEpoch(4)).unwrap().value, 4);
        assert!(cell.at_epoch(ReadEpoch(2)).is_none());

        cell.set_history_depth(2);
        assert_eq!(cell.history().len(), 2);
        assert_eq!(cell.at_epoch(ReadEpoch(6)).map(|v| *v.value), Some(6));
    }

    #[test]
    fn publish_hook_sees_every_publication_in_order() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let cell = SnapshotCell::new(0u64);
        {
            let seen = Arc::clone(&seen);
            cell.add_publish_hook(move |v| seen.lock().push((v.epoch.as_u64(), *v.value)));
        }
        cell.publish(10);
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
        cell.publish(1);
        assert_eq!(*seen.lock(), vec![("repl", 1), ("durable", 1)]);

        // A later hook joins the set; it never replaces the earlier ones.
        {
            let seen = Arc::clone(&seen);
            cell.add_publish_hook(move |v| seen.lock().push(("late", v.epoch.as_u64())));
        }
        cell.publish(2);
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
        assert_eq!(cell.publish(1), ReadEpoch(8));
    }

    #[test]
    fn epoch_ring_replaces_same_key_and_evicts_oldest() {
        let mut ring = EpochRing::new(3);
        assert!(ring.is_empty());
        for k in 1..=4u64 {
            ring.push(k, k * 10);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.oldest_key(), Some(2));
        assert_eq!(ring.get(1), None);
        ring.push(4, 99);
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.latest(), Some((4, &99)));
        ring.set_capacity(1);
        assert_eq!(ring.iter().map(|(k, _)| k).collect::<Vec<_>>(), vec![4]);
    }

    #[test]
    fn epoch_ring_hands_back_what_it_displaced() {
        let mut ring = EpochRing::new(4);
        for k in [2u64, 4, 6, 8, 10] {
            assert_eq!(ring.push(k, k * 10), (k == 10).then_some(20));
        }
        assert_eq!(ring.push(10, 7), Some(100));
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
