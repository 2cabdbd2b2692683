//! The follower runtime: bootstrap from a full snapshot, then replay
//! epoch-tagged deltas into local snapshot cells.
//!
//! A follower owns its own copies of the four components and keeps them
//! converged with a leader over the ordinary wire protocol — replication
//! needs no second transport. Its lifecycle:
//!
//! 1. [`Follower::bootstrap`] pulls a [`FullSnapshot`] and installs every
//!    component at the leader's component epoch.
//! 2. [`Follower::sync_once`] (or the [`SyncHandle`] loop from
//!    [`Follower::start_sync`]) polls `ReplDeltas { from: applied }` and
//!    applies records in sequence order, each at its leader-dictated
//!    component epoch — so every response the follower serves echoes an
//!    epoch the leader actually published.
//! 3. A follower that lagged past the leader's retention window, or is
//!    ahead of a restarted or promoted leader's log, is told so
//!    (`lagged`) and recovers by re-pulling a full snapshot; the fallback
//!    is counted and exported through [`ServingMetrics`].
//!
//! [`FullSnapshot`]: crate::codec::FullSnapshot

use crate::codec::{self, FullSnapshot};
use fstore_common::rng::{Rng, Xoshiro256};
use fstore_common::{FsError, Result};
use fstore_durable::{LeaderParts, SnapshotCache};
use fstore_serve::{Clock, FeatureClient, RetryPolicy, ServeEngine, ServingMetrics};
use fstore_storage::{OfflineDb, OnlineStore};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What one [`Follower::sync_once`] round did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncReport {
    /// Deltas applied this round.
    pub applied: usize,
    /// The round recovered from lag by re-pulling a full snapshot.
    pub resynced: bool,
    /// The leader's replication epoch when it answered.
    pub leader_epoch: u64,
    /// `leader_epoch - applied_epoch` after the round.
    pub(crate) lag: u64,
}

/// A replica of one leader's serving state.
pub struct Follower {
    leader_addr: String,
    parts: LeaderParts,
    /// Replication epoch of the last applied delta (or bootstrap snapshot).
    applied: AtomicU64,
    /// The leader's replication epoch as of the last exchange.
    leader_epoch: AtomicU64,
    /// Times this follower fell past retention and re-bootstrapped.
    fallbacks: AtomicU64,
    /// Where full snapshots are persisted between runs, if anywhere.
    cache: Mutex<Option<SnapshotCache>>,
    /// Bootstraps served from the local snapshot cache (no wire transfer).
    disk_bootstraps: AtomicU64,
    /// Full snapshots pulled over the wire (bootstrap or lag fallback).
    wire_bootstraps: AtomicU64,
    metrics: Mutex<Option<Arc<ServingMetrics>>>,
}

impl Follower {
    fn empty(leader_addr: String) -> Follower {
        Follower {
            leader_addr,
            parts: LeaderParts::new(),
            applied: AtomicU64::new(0),
            leader_epoch: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            cache: Mutex::new(None),
            disk_bootstraps: AtomicU64::new(0),
            wire_bootstraps: AtomicU64::new(0),
            metrics: Mutex::new(None),
        }
    }

    /// Connect to a leader and bootstrap from a full snapshot.
    pub fn bootstrap(leader_addr: impl Into<String>) -> Result<Follower> {
        let follower = Follower::empty(leader_addr.into());
        let mut client = follower.connect()?;
        follower.pull_full_snapshot(&mut client)?;
        Ok(follower)
    }

    /// Bootstrap through a persistent snapshot cache: install the cached
    /// snapshot from disk (no wire transfer) and catch up through ordinary
    /// delta sync. A missing or corrupt cache — or one the first sync round
    /// answers `lagged` — falls back to a full wire pull, which repopulates
    /// the cache. Every wire pull keeps the cache fresh, so the *next*
    /// restart bootstraps from disk.
    pub fn bootstrap_with_cache(
        leader_addr: impl Into<String>,
        cache: SnapshotCache,
    ) -> Result<Follower> {
        let follower = Follower::empty(leader_addr.into());
        // A corrupt cache, or an intact one whose payload does not decode
        // (say, written by an earlier format), is no cache.
        let cached = cache
            .load()
            .ok()
            .flatten()
            .and_then(|(_, payload)| codec::decode_snapshot(&payload).ok());
        *follower.cache.lock() = Some(cache);

        let mut client = follower.connect()?;
        match cached {
            Some(snapshot) => {
                follower.install(snapshot)?;
                follower.disk_bootstraps.fetch_add(1, Ordering::AcqRel);
                // Catch up from the cached epoch; a `lagged` answer inside
                // sync_once re-pulls the full snapshot (counted as a wire
                // bootstrap and a fallback).
                follower.sync_once(&mut client)?;
            }
            None => follower.pull_full_snapshot(&mut client)?,
        }
        Ok(follower)
    }

    /// Open a fresh connection to the leader (sync loops reuse one; callers
    /// doing manual rounds can too).
    pub fn connect(&self) -> Result<FeatureClient> {
        FeatureClient::connect(&self.leader_addr)
            .map_err(|e| FsError::Storage(format!("connect to leader {}: {e}", self.leader_addr)))
    }

    fn pull_full_snapshot(&self, client: &mut FeatureClient) -> Result<()> {
        let (_, payload) = client
            .repl_snapshot()
            .map_err(|e| FsError::Storage(format!("pull full snapshot: {e}")))?;
        let snapshot = codec::decode_snapshot(&payload)?;
        let repl_epoch = snapshot.repl_epoch;
        self.install(snapshot)?;
        self.wire_bootstraps.fetch_add(1, Ordering::AcqRel);
        if let Some(cache) = self.cache.lock().as_ref() {
            // Best-effort: a failed cache write only costs the next
            // restart a wire pull.
            let _ = cache.store(repl_epoch, &payload);
        }
        self.push_metrics();
        Ok(())
    }

    /// Install a decoded full snapshot and mark its epoch applied.
    fn install(&self, snapshot: FullSnapshot) -> Result<()> {
        let repl_epoch = snapshot.repl_epoch;
        self.parts.install(snapshot)?;
        self.applied.store(repl_epoch, Ordering::Release);
        self.leader_epoch.store(repl_epoch, Ordering::Release);
        Ok(())
    }

    /// One replication round: poll the leader for deltas past the applied
    /// epoch and replay them in order. A `lagged` answer (or a delta that
    /// will not apply) falls back to a fresh full snapshot.
    ///
    /// The subscribe (leader log state) and the delta poll are pipelined
    /// onto one write/read exchange ([`FeatureClient::repl_sync`]), so a
    /// sync round costs a single network round trip.
    pub fn sync_once(&self, client: &mut FeatureClient) -> Result<SyncReport> {
        let (state, batch) = client
            .repl_sync(self.applied.load(Ordering::Acquire))
            .map_err(|e| FsError::Storage(format!("poll deltas: {e}")))?;
        let leader_epoch = state.leader_epoch.max(batch.leader_epoch);
        self.leader_epoch.store(leader_epoch, Ordering::Release);

        let mut applied = 0usize;
        let mut resynced = false;
        if batch.lagged {
            self.resync(client)?;
            resynced = true;
        } else {
            for delta in &batch.deltas {
                let record = delta.to_record();
                if record.seq <= self.applied.load(Ordering::Acquire) {
                    continue; // re-delivered; already applied
                }
                if self.parts.apply(&record).is_err() {
                    // A delta that cannot apply means local state diverged
                    // (or was corrupted); a full snapshot re-grounds it.
                    self.resync(client)?;
                    resynced = true;
                    break;
                }
                self.applied.store(record.seq, Ordering::Release);
                applied += 1;
            }
        }
        self.push_metrics();
        Ok(SyncReport {
            applied,
            resynced,
            leader_epoch: self.leader_epoch.load(Ordering::Acquire),
            lag: self.lag(),
        })
    }

    /// Recover via full-snapshot fallback (counted in the metrics).
    fn resync(&self, client: &mut FeatureClient) -> Result<()> {
        self.fallbacks.fetch_add(1, Ordering::AcqRel);
        if let Some(m) = self.metrics.lock().as_ref() {
            m.record_repl_fallback();
        }
        self.pull_full_snapshot(client)
    }

    /// Spawn a background loop calling [`sync_once`](Self::sync_once)
    /// every `interval`, reconnecting on connection loss.
    ///
    /// Failed rounds (connect refused, sync error) back off with jittered
    /// exponential delays instead of hammering a down leader at the poll
    /// rate — a restarting leader would otherwise face a thundering herd
    /// of followers all polling at the same instant. The consecutive
    /// failure count is exported through the attached [`ServingMetrics`]
    /// so operators can see a follower that cannot reach its leader.
    pub fn start_sync(self: &Arc<Self>, interval: Duration) -> SyncHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let follower = Arc::clone(self);
        let stop2 = Arc::clone(&stop);
        let backoff = RetryPolicy {
            // The loop itself is the retry budget; the policy only shapes
            // the delay curve.
            max_attempts: u32::MAX,
            base_backoff: interval.max(Duration::from_millis(1)),
            multiplier: 2.0,
            max_backoff: (interval * 32).max(Duration::from_millis(250)),
            jitter: 0.25,
        };
        let thread = std::thread::Builder::new()
            .name("fstore-repl-sync".to_string())
            .spawn(move || {
                let mut rng = Xoshiro256::seeded(0x5f0_110_3e7 ^ interval.as_nanos() as u64);
                let mut client = None;
                let mut failures: u32 = 0;
                while !stop2.load(Ordering::Acquire) {
                    if client.is_none() {
                        client = follower.connect().ok();
                        if client.is_none() {
                            failures = failures.saturating_add(1);
                        }
                    }
                    if let Some(c) = client.as_mut() {
                        if follower.sync_once(c).is_ok() {
                            failures = 0;
                        } else {
                            client = None; // reconnect next round
                            failures = failures.saturating_add(1);
                        }
                    }
                    if let Some(m) = follower.metrics.lock().as_ref() {
                        m.set_repl_consecutive_failures(u64::from(failures));
                    }
                    let delay = if failures == 0 {
                        interval
                    } else {
                        backoff.backoff(failures.saturating_sub(1), rng.next_f64())
                    };
                    sleep_responsive(&stop2, delay);
                }
            })
            .expect("spawn repl sync thread");
        SyncHandle {
            stop,
            thread: Some(thread),
        }
    }

    /// Export replication progress through a server's metrics (call with
    /// the handle's metrics after starting the follower's server).
    pub fn attach_metrics(&self, metrics: Arc<ServingMetrics>) {
        *self.metrics.lock() = Some(metrics);
        self.push_metrics();
    }

    fn push_metrics(&self) {
        if let Some(m) = self.metrics.lock().as_ref() {
            m.set_repl_progress(
                self.applied.load(Ordering::Acquire),
                self.leader_epoch.load(Ordering::Acquire),
            );
        }
    }

    /// Replication epoch of the last applied delta.
    pub fn applied_epoch(&self) -> u64 {
        self.applied.load(Ordering::Acquire)
    }

    /// The leader's replication epoch as of the last exchange.
    pub fn leader_epoch(&self) -> u64 {
        self.leader_epoch.load(Ordering::Acquire)
    }

    /// Deltas behind the leader (as of the last exchange).
    pub fn lag(&self) -> u64 {
        self.leader_epoch().saturating_sub(self.applied_epoch())
    }

    /// Full-snapshot fallbacks taken since bootstrap.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks.load(Ordering::Acquire)
    }

    /// Bootstraps served from the local snapshot cache — state restored
    /// from disk with no full wire transfer.
    pub fn disk_bootstraps(&self) -> u64 {
        self.disk_bootstraps.load(Ordering::Acquire)
    }

    /// Full snapshots pulled over the wire (initial bootstrap and every
    /// lag fallback).
    pub fn wire_bootstraps(&self) -> u64 {
        self.wire_bootstraps.load(Ordering::Acquire)
    }

    pub fn offline(&self) -> &OfflineDb {
        &self.parts.offline
    }

    pub fn online(&self) -> &Arc<OnlineStore> {
        &self.parts.online
    }

    /// The follower's components, in the shape a [`ReplLeader`] takes —
    /// the handles are shared (snapshot cells and `Arc`s), not copied, so
    /// a leader built over them continues exactly where the follower
    /// stopped.
    ///
    /// [`ReplLeader`]: crate::ReplLeader
    pub(crate) fn parts(&self) -> LeaderParts {
        self.parts.clone()
    }

    /// Promote this follower to a replication leader in place: wrap its
    /// components in a fresh [`ReplLeader`] (a new log on their stream)
    /// retaining `retention` deltas. Every epoch the follower replicated is
    /// already folded into the components; other followers, ahead of the
    /// fresh log, bootstrap from the promoted leader's full snapshot.
    ///
    /// Stop the sync loop first ([`SyncHandle::stop`]) — a promotion while
    /// deltas from the old leader are still being applied would interleave
    /// two writers.
    ///
    /// [`ReplLeader`]: crate::ReplLeader
    pub fn promote(&self, retention: usize) -> Arc<crate::ReplLeader> {
        crate::ReplLeader::with_retention(self.parts(), retention)
    }

    /// A ready-to-start [`ServeEngine`] over the follower's components
    /// ([`LeaderParts::engine`]): at equal epochs it answers
    /// byte-identically to the leader.
    pub fn engine(&self, clock: Clock) -> ServeEngine {
        self.parts.engine(clock)
    }
}

impl std::fmt::Debug for Follower {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Follower")
            .field("leader", &self.leader_addr)
            .field("applied", &self.applied_epoch())
            .field("leader_epoch", &self.leader_epoch())
            .field("fallbacks", &self.fallbacks())
            .finish()
    }
}

/// Sleep `total`, but wake every few milliseconds to honour a stop
/// request — backoff delays must not stretch shutdown.
fn sleep_responsive(stop: &AtomicBool, total: Duration) {
    let slice = Duration::from_millis(10);
    let mut remaining = total;
    while remaining > Duration::ZERO && !stop.load(Ordering::Acquire) {
        let step = remaining.min(slice);
        std::thread::sleep(step);
        remaining = remaining.saturating_sub(step);
    }
}

/// Stops the background sync loop on [`stop`](Self::stop) or drop.
pub struct SyncHandle {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl SyncHandle {
    /// Signal the loop and join it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for SyncHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}
