//! Serving metrics: per-endpoint request/error counters and streaming
//! latency quantiles (p50/p95/p99 via the P² estimator), plus admission
//! and batching counters. Snapshots render to JSON for dashboards and the
//! E14 bench artifact.

use crate::codec::FramePool;
use fstore_common::stats::P2Quantile;
use parking_lot::Mutex;
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The wire endpoints, used as metric labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Endpoint {
    Health = 0,
    GetFeatures = 1,
    GetFeaturesBatch = 2,
    GetEmbedding = 3,
    SearchNearest = 4,
    SearchNearestByKey = 5,
    ReplSubscribe = 6,
    ReplSnapshot = 7,
    ReplDeltas = 8,
    PutOnline = 9,
    /// Leadership admin traffic: `Promote` and `Demote` share one label.
    Promote = 10,
}

impl Endpoint {
    pub(crate) const ALL: [Endpoint; 11] = [
        Endpoint::Health,
        Endpoint::GetFeatures,
        Endpoint::GetFeaturesBatch,
        Endpoint::GetEmbedding,
        Endpoint::SearchNearest,
        Endpoint::SearchNearestByKey,
        Endpoint::ReplSubscribe,
        Endpoint::ReplSnapshot,
        Endpoint::ReplDeltas,
        Endpoint::PutOnline,
        Endpoint::Promote,
    ];

    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Endpoint::Health => "health",
            Endpoint::GetFeatures => "get_features",
            Endpoint::GetFeaturesBatch => "get_features_batch",
            Endpoint::GetEmbedding => "get_embedding",
            Endpoint::SearchNearest => "search_nearest",
            Endpoint::SearchNearestByKey => "search_nearest_by_key",
            Endpoint::ReplSubscribe => "repl_subscribe",
            Endpoint::ReplSnapshot => "repl_snapshot",
            Endpoint::ReplDeltas => "repl_deltas",
            Endpoint::PutOnline => "put_online",
            Endpoint::Promote => "promote",
        }
    }
}

/// Streaming latency state for one endpoint. The P² estimators hold five
/// markers each, so memory stays constant no matter the request count.
struct Latency {
    p50: P2Quantile,
    p95: P2Quantile,
    p99: P2Quantile,
    total_ms: f64,
    max_ms: f64,
}

impl Latency {
    fn new() -> Self {
        Latency {
            p50: P2Quantile::new(0.50),
            p95: P2Quantile::new(0.95),
            p99: P2Quantile::new(0.99),
            total_ms: 0.0,
            max_ms: 0.0,
        }
    }

    fn push(&mut self, ms: f64) {
        self.p50.push(ms);
        self.p95.push(ms);
        self.p99.push(ms);
        self.total_ms += ms;
        self.max_ms = self.max_ms.max(ms);
    }
}

struct EndpointMetrics {
    requests: AtomicU64,
    errors: AtomicU64,
    latency: Mutex<Latency>,
}

impl EndpointMetrics {
    fn new() -> Self {
        EndpointMetrics {
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            latency: Mutex::new(Latency::new()),
        }
    }
}

/// One live index snapshot's identity, reported into the metrics stream by
/// the catalog on every build/swap (and refreshable on demand).
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct IndexStatus {
    /// Index family: `"flat"`, `"ivf"`, or `"hnsw"`.
    pub kind: String,
    /// Monotone swap generation (increments on every successful swap).
    pub generation: u64,
    /// The embedding-table version the snapshot was built from.
    pub built_from_version: u32,
    /// How many versions the live store has advanced past the snapshot
    /// (0 = the snapshot is fresh).
    pub staleness: u32,
    pub(crate) len: usize,
    pub(crate) dim: usize,
}

/// Shared serving metrics; every handle clones an `Arc` of this.
pub struct ServingMetrics {
    endpoints: [EndpointMetrics; 11],
    /// Requests refused by admission control (queue full).
    shed: AtomicU64,
    /// Requests refused because the server was draining.
    rejected_draining: AtomicU64,
    /// Batches executed and single requests carried inside them.
    batches: AtomicU64,
    batched_requests: AtomicU64,
    /// Successful index snapshot swaps across all tables.
    index_swaps: AtomicU64,
    /// Per-table live index snapshot status (generation, staleness).
    index_status: Mutex<BTreeMap<String, IndexStatus>>,
    /// Replication (follower role): last replication epoch applied locally.
    repl_applied_epoch: AtomicU64,
    /// Replication (follower role): leader's replication epoch as of the
    /// last sync exchange.
    repl_leader_epoch: AtomicU64,
    /// Replication (follower role): full-snapshot fallbacks taken after
    /// lagging past the leader's retention window.
    repl_snapshot_fallbacks: AtomicU64,
    /// Jobs shed at dequeue because their deadline budget had already
    /// expired — work the caller stopped waiting for.
    deadline_shed: AtomicU64,
    /// Request frames refused because their declared length exceeded the
    /// configured per-request ceiling.
    frames_too_large: AtomicU64,
    /// Connections cut because a started frame did not finish within the
    /// frame read budget (slow-loris containment).
    frame_timeouts: AtomicU64,
    /// Connections closed unanswered because their reader thread could
    /// not be spawned (the acceptor keeps accepting).
    spawn_refusals: AtomicU64,
    /// Replication (follower role): consecutive sync/connect failures as
    /// of the last attempt (0 = last round succeeded). A rising value is
    /// the first sign the leader is unreachable.
    repl_consecutive_failures: AtomicU64,
    /// Durability: records appended to the write-ahead log.
    wal_appends: AtomicU64,
    /// Durability: fsyncs issued by the WAL (≤ appends under batched
    /// fsync policies — the gap is the durability/throughput trade).
    wal_fsyncs: AtomicU64,
    /// Durability: bytes written to the WAL.
    wal_bytes: AtomicU64,
    /// Durability: checkpoints taken (each one truncates the WAL).
    checkpoint_count: AtomicU64,
    /// Durability: wall-clock milliseconds the last crash recovery took
    /// (checkpoint load + WAL replay).
    last_recovery_ms: AtomicU64,
    /// Durability: the replication epoch the last recovery restored —
    /// the last *published* epoch before the crash.
    recovered_epoch: AtomicU64,
    /// Wire: payload bytes + frame headers received / sent on serving
    /// connections.
    wire_bytes_rx: AtomicU64,
    wire_bytes_tx: AtomicU64,
    /// Wire: frames received / sent on serving connections.
    wire_frames_rx: AtomicU64,
    wire_frames_tx: AtomicU64,
    /// Wire: socket writes that sent those frames — below `frames_tx`
    /// when a flush coalesces replies that were ready together.
    wire_writes_tx: AtomicU64,
    /// Wire: read-buffer (re)allocations on the receive path. Connection
    /// readers grow their buffer to the connection's working frame size
    /// and then reuse it, so at steady state this counter stops moving —
    /// a nonzero *rate* means payloads are still being allocated
    /// per-request.
    wire_payload_allocs: AtomicU64,
    /// Wire: the shared free-list of encode buffers workers draw
    /// feature-read frames from (hit/miss counters live inside).
    frame_pool: Arc<FramePool>,
    /// Embedding responses that had to copy the vector into a private
    /// buffer instead of sharing the store's block (the zero-copy serving
    /// path keeps this flat; see E21's embedding phase).
    embed_copies: AtomicU64,
    /// Tiered-storage stats source. The tier crate sits *above* this one,
    /// so it registers a provider closure; `snapshot()` polls it so the
    /// `tier` JSON section is always current.
    #[allow(clippy::type_complexity)]
    tier_provider: Mutex<Option<Arc<dyn Fn() -> TierSnapshot + Send + Sync>>>,
    /// Control-plane stats source (the shard crate's `ControlPlane`
    /// registers it, same pattern as the tier provider); fills the
    /// `control` JSON section with probe rounds, strikes, promotions,
    /// and the current map version + leader terms.
    #[allow(clippy::type_complexity)]
    control_provider: Mutex<Option<Arc<dyn Fn() -> ControlSnapshot + Send + Sync>>>,
}

impl Default for ServingMetrics {
    fn default() -> Self {
        ServingMetrics {
            endpoints: std::array::from_fn(|_| EndpointMetrics::new()),
            shed: AtomicU64::new(0),
            rejected_draining: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            index_swaps: AtomicU64::new(0),
            index_status: Mutex::new(BTreeMap::new()),
            repl_applied_epoch: AtomicU64::new(0),
            repl_leader_epoch: AtomicU64::new(0),
            repl_snapshot_fallbacks: AtomicU64::new(0),
            deadline_shed: AtomicU64::new(0),
            frames_too_large: AtomicU64::new(0),
            frame_timeouts: AtomicU64::new(0),
            spawn_refusals: AtomicU64::new(0),
            repl_consecutive_failures: AtomicU64::new(0),
            wal_appends: AtomicU64::new(0),
            wal_fsyncs: AtomicU64::new(0),
            wal_bytes: AtomicU64::new(0),
            checkpoint_count: AtomicU64::new(0),
            last_recovery_ms: AtomicU64::new(0),
            recovered_epoch: AtomicU64::new(0),
            wire_bytes_rx: AtomicU64::new(0),
            wire_bytes_tx: AtomicU64::new(0),
            wire_frames_rx: AtomicU64::new(0),
            wire_frames_tx: AtomicU64::new(0),
            wire_writes_tx: AtomicU64::new(0),
            wire_payload_allocs: AtomicU64::new(0),
            frame_pool: Arc::new(FramePool::default()),
            embed_copies: AtomicU64::new(0),
            tier_provider: Mutex::new(None),
            control_provider: Mutex::new(None),
        }
    }
}

impl ServingMetrics {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one finished request with its end-to-end latency (queue wait
    /// plus handling), in milliseconds.
    pub(crate) fn record(&self, endpoint: Endpoint, latency_ms: f64, ok: bool) {
        let m = &self.endpoints[endpoint as usize];
        m.requests.fetch_add(1, Ordering::Relaxed);
        if !ok {
            m.errors.fetch_add(1, Ordering::Relaxed);
        }
        m.latency.lock().push(latency_ms);
    }

    pub(crate) fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_rejected_draining(&self) {
        self.rejected_draining.fetch_add(1, Ordering::Relaxed);
    }

    /// Record that one coalesced batch carried `size` single requests.
    pub(crate) fn record_batch(&self, size: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests
            .fetch_add(size as u64, Ordering::Relaxed);
    }

    /// Record one successful index snapshot swap.
    pub(crate) fn record_index_swap(&self) {
        self.index_swaps.fetch_add(1, Ordering::Relaxed);
    }

    /// Publish (or refresh) one table's live index status.
    pub(crate) fn set_index_status(&self, table: impl Into<String>, status: IndexStatus) {
        self.index_status.lock().insert(table.into(), status);
    }

    /// Record the follower's replication progress after a sync exchange.
    pub fn set_repl_progress(&self, applied_epoch: u64, leader_epoch: u64) {
        self.repl_applied_epoch
            .store(applied_epoch, Ordering::Relaxed);
        self.repl_leader_epoch
            .store(leader_epoch, Ordering::Relaxed);
    }

    /// Record one full-snapshot fallback (the follower lagged past the
    /// leader's retention window).
    pub fn record_repl_fallback(&self) {
        self.repl_snapshot_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one job shed at dequeue because its deadline had expired.
    pub(crate) fn record_deadline_shed(&self) {
        self.deadline_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one frame refused for exceeding the request-frame ceiling.
    pub(crate) fn record_frame_too_large(&self) {
        self.frames_too_large.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one connection cut because a started frame stalled past the
    /// frame read budget.
    pub(crate) fn record_frame_timeout(&self) {
        self.frame_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one connection closed because its reader thread could not
    /// be spawned.
    pub(crate) fn record_spawn_refusal(&self) {
        self.spawn_refusals.fetch_add(1, Ordering::Relaxed);
    }

    /// Record the follower's consecutive sync-failure count (0 on success).
    pub fn set_repl_consecutive_failures(&self, n: u64) {
        self.repl_consecutive_failures.store(n, Ordering::Relaxed);
    }

    /// Record one WAL append of `bytes` bytes (and whether it fsynced).
    pub fn record_wal_append(&self, bytes: u64, fsynced: bool) {
        self.wal_appends.fetch_add(1, Ordering::Relaxed);
        self.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
        if fsynced {
            self.wal_fsyncs.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record one completed checkpoint.
    pub fn record_checkpoint(&self) {
        self.checkpoint_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a completed crash recovery: how long it took and which
    /// replication epoch it restored.
    pub fn record_recovery(&self, ms: u64, recovered_epoch: u64) {
        self.last_recovery_ms.store(ms, Ordering::Relaxed);
        self.recovered_epoch
            .store(recovered_epoch, Ordering::Relaxed);
    }

    /// Record receive-side wire traffic: `bytes` on the socket (headers
    /// included), `frames` complete frames, and `allocs` read-buffer
    /// (re)allocations taken to hold them.
    pub(crate) fn record_wire_rx(&self, bytes: u64, frames: u64, allocs: u64) {
        self.wire_bytes_rx.fetch_add(bytes, Ordering::Relaxed);
        self.wire_frames_rx.fetch_add(frames, Ordering::Relaxed);
        if allocs > 0 {
            self.wire_payload_allocs
                .fetch_add(allocs, Ordering::Relaxed);
        }
    }

    /// Record send-side wire traffic: `bytes` on the socket (headers
    /// included) carrying `frames` frames in `writes` socket writes.
    pub(crate) fn record_wire_tx(&self, bytes: u64, frames: u64, writes: u64) {
        self.wire_bytes_tx.fetch_add(bytes, Ordering::Relaxed);
        self.wire_frames_tx.fetch_add(frames, Ordering::Relaxed);
        self.wire_writes_tx.fetch_add(writes, Ordering::Relaxed);
    }

    /// The shared encode-buffer pool workers draw feature-read frames
    /// from.
    pub(crate) fn frame_pool(&self) -> Arc<FramePool> {
        Arc::clone(&self.frame_pool)
    }

    /// Record one embedding response that copied its vector instead of
    /// sharing the store's block.
    pub(crate) fn record_embed_copy(&self) {
        self.embed_copies.fetch_add(1, Ordering::Relaxed);
    }

    /// Register the tiered-storage stats source polled by [`Self::snapshot`]
    /// to fill the `tier` section. Replaces any previous provider.
    pub fn set_tier_provider(&self, provider: impl Fn() -> TierSnapshot + Send + Sync + 'static) {
        *self.tier_provider.lock() = Some(Arc::new(provider));
    }

    /// The tier section alone (`None` when no tiered store is attached).
    pub(crate) fn tier_snapshot(&self) -> Option<TierSnapshot> {
        let provider = self.tier_provider.lock().clone();
        provider.map(|p| p())
    }

    /// Register the control-plane stats source polled by [`Self::snapshot`]
    /// to fill the `control` section. Replaces any previous provider.
    pub fn set_control_provider(
        &self,
        provider: impl Fn() -> ControlSnapshot + Send + Sync + 'static,
    ) {
        *self.control_provider.lock() = Some(Arc::new(provider));
    }

    /// The control section alone (`None` when no control plane is attached).
    pub(crate) fn control_snapshot(&self) -> Option<ControlSnapshot> {
        let provider = self.control_provider.lock().clone();
        provider.map(|p| p())
    }

    /// Cumulative read-buffer (re)allocations on the receive path; a flat
    /// value across a steady-state window proves the per-request payload
    /// allocation count is zero.
    pub fn wire_payload_allocs(&self) -> u64 {
        self.wire_payload_allocs.load(Ordering::Relaxed)
    }

    pub fn wal_appends(&self) -> u64 {
        self.wal_appends.load(Ordering::Relaxed)
    }

    pub fn wal_fsyncs(&self) -> u64 {
        self.wal_fsyncs.load(Ordering::Relaxed)
    }

    pub fn deadline_shed_count(&self) -> u64 {
        self.deadline_shed.load(Ordering::Relaxed)
    }

    pub fn frame_timeout_count(&self) -> u64 {
        self.frame_timeouts.load(Ordering::Relaxed)
    }

    pub fn repl_consecutive_failures(&self) -> u64 {
        self.repl_consecutive_failures.load(Ordering::Relaxed)
    }

    /// Epochs the follower is behind the leader, as of the last sync (0 when
    /// caught up — or when this process is not a follower at all).
    pub(crate) fn repl_lag(&self) -> u64 {
        self.repl_leader_epoch
            .load(Ordering::Relaxed)
            .saturating_sub(self.repl_applied_epoch.load(Ordering::Relaxed))
    }

    pub fn index_swaps(&self) -> u64 {
        self.index_swaps.load(Ordering::Relaxed)
    }

    pub fn shed_count(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    pub(crate) fn requests(&self, endpoint: Endpoint) -> u64 {
        self.endpoints[endpoint as usize]
            .requests
            .load(Ordering::Relaxed)
    }

    pub fn total_requests(&self) -> u64 {
        Endpoint::ALL.iter().map(|&e| self.requests(e)).sum()
    }

    /// Point-in-time copy of everything, for JSON rendering and asserts.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut endpoints = BTreeMap::new();
        for &e in &Endpoint::ALL {
            let m = &self.endpoints[e as usize];
            let lat = m.latency.lock();
            let count = lat.p50.count();
            endpoints.insert(
                e.as_str().to_string(),
                EndpointSnapshot {
                    requests: m.requests.load(Ordering::Relaxed),
                    errors: m.errors.load(Ordering::Relaxed),
                    p50_ms: lat.p50.estimate(),
                    p95_ms: lat.p95.estimate(),
                    p99_ms: lat.p99.estimate(),
                    mean_ms: if count > 0 {
                        Some(lat.total_ms / count as f64)
                    } else {
                        None
                    },
                    max_ms: if count > 0 { Some(lat.max_ms) } else { None },
                },
            );
        }
        MetricsSnapshot {
            endpoints,
            shed: self.shed.load(Ordering::Relaxed),
            rejected_draining: self.rejected_draining.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
            index_swaps: self.index_swaps.load(Ordering::Relaxed),
            indexes: self.index_status.lock().clone(),
            repl_applied_epoch: self.repl_applied_epoch.load(Ordering::Relaxed),
            repl_leader_epoch: self.repl_leader_epoch.load(Ordering::Relaxed),
            repl_lag: self.repl_lag(),
            repl_snapshot_fallbacks: self.repl_snapshot_fallbacks.load(Ordering::Relaxed),
            deadline_shed: self.deadline_shed.load(Ordering::Relaxed),
            frames_too_large: self.frames_too_large.load(Ordering::Relaxed),
            frame_timeouts: self.frame_timeouts.load(Ordering::Relaxed),
            spawn_refusals: self.spawn_refusals.load(Ordering::Relaxed),
            repl_consecutive_failures: self.repl_consecutive_failures.load(Ordering::Relaxed),
            wal_appends: self.wal_appends.load(Ordering::Relaxed),
            wal_fsyncs: self.wal_fsyncs.load(Ordering::Relaxed),
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            checkpoint_count: self.checkpoint_count.load(Ordering::Relaxed),
            last_recovery_ms: self.last_recovery_ms.load(Ordering::Relaxed),
            recovered_epoch: self.recovered_epoch.load(Ordering::Relaxed),
            wire: {
                let pool_hits = self.frame_pool.hits();
                let pool_misses = self.frame_pool.misses();
                let draws = pool_hits + pool_misses;
                WireSnapshot {
                    bytes_rx: self.wire_bytes_rx.load(Ordering::Relaxed),
                    bytes_tx: self.wire_bytes_tx.load(Ordering::Relaxed),
                    frames_rx: self.wire_frames_rx.load(Ordering::Relaxed),
                    frames_tx: self.wire_frames_tx.load(Ordering::Relaxed),
                    writes_tx: self.wire_writes_tx.load(Ordering::Relaxed),
                    payload_allocs: self.wire_payload_allocs.load(Ordering::Relaxed),
                    pool_hits,
                    pool_misses,
                    pool_hit_rate: if draws > 0 {
                        Some(pool_hits as f64 / draws as f64)
                    } else {
                        None
                    },
                    embed_copies: self.embed_copies.load(Ordering::Relaxed),
                }
            },
            tier: self.tier_snapshot(),
            control: self.control_snapshot(),
        }
    }

    /// The snapshot as a pretty-printed JSON document.
    pub fn dump_json(&self) -> String {
        serde_json::to_string_pretty(&self.snapshot()).expect("metrics snapshot serializes")
    }
}

/// One endpoint's counters and latency summary at snapshot time.
#[derive(Debug, Clone, Serialize)]
pub struct EndpointSnapshot {
    pub requests: u64,
    pub errors: u64,
    pub p50_ms: Option<f64>,
    pub p95_ms: Option<f64>,
    pub p99_ms: Option<f64>,
    pub(crate) mean_ms: Option<f64>,
    pub(crate) max_ms: Option<f64>,
}

/// Full metrics snapshot; serializes to the JSON dumped by
/// [`ServingMetrics::dump_json`].
#[derive(Debug, Clone, Serialize)]
pub struct MetricsSnapshot {
    pub endpoints: BTreeMap<String, EndpointSnapshot>,
    pub shed: u64,
    pub(crate) rejected_draining: u64,
    pub batches: u64,
    pub batched_requests: u64,
    pub index_swaps: u64,
    pub indexes: BTreeMap<String, IndexStatus>,
    pub(crate) repl_applied_epoch: u64,
    pub(crate) repl_leader_epoch: u64,
    pub(crate) repl_lag: u64,
    pub(crate) repl_snapshot_fallbacks: u64,
    pub(crate) deadline_shed: u64,
    pub(crate) frames_too_large: u64,
    pub(crate) frame_timeouts: u64,
    /// Connections closed unanswered because no reader thread could be
    /// spawned for them.
    pub spawn_refusals: u64,
    pub(crate) repl_consecutive_failures: u64,
    pub(crate) wal_appends: u64,
    pub wal_fsyncs: u64,
    pub(crate) wal_bytes: u64,
    pub(crate) checkpoint_count: u64,
    pub(crate) last_recovery_ms: u64,
    pub(crate) recovered_epoch: u64,
    pub wire: WireSnapshot,
    /// Tiered embedding storage (`None` when no tiered store is attached).
    pub tier: Option<TierSnapshot>,
    /// Shard control plane (`None` when no control plane is attached).
    pub(crate) control: Option<ControlSnapshot>,
}

/// The wire hot path at snapshot time: socket traffic, frame counts, the
/// encode-buffer pool's hit rate, and the receive path's cumulative
/// payload-allocation count (flat across a steady-state window ⇒ zero
/// allocations per request).
#[derive(Debug, Clone, Serialize)]
pub struct WireSnapshot {
    pub(crate) bytes_rx: u64,
    pub(crate) bytes_tx: u64,
    pub(crate) frames_rx: u64,
    pub frames_tx: u64,
    /// Socket writes that carried `frames_tx` (fewer under pipelining:
    /// replies answered together leave in one write).
    pub writes_tx: u64,
    pub payload_allocs: u64,
    pub(crate) pool_hits: u64,
    pub(crate) pool_misses: u64,
    /// `None` until the pool has been drawn from at least once.
    pub pool_hit_rate: Option<f64>,
    /// Embedding responses that copied their vector instead of sharing the
    /// store's block (flat across a steady window ⇒ zero-copy embeddings).
    pub embed_copies: u64,
}

/// Tiered embedding storage at snapshot time: RAM residency against the
/// configured budget, on-disk footprint, hot-block cache effectiveness,
/// and fault latency quantiles. Filled by the provider the tier crate
/// registers via [`ServingMetrics::set_tier_provider`].
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct TierSnapshot {
    /// Configured RAM budget for embedding bytes (tables + cached blocks).
    pub budget_bytes: u64,
    /// Embedding bytes currently resident (pinned tables + cached blocks).
    pub resident_bytes: u64,
    /// Resident bytes protected from demotion (latest versions and
    /// versions an index snapshot references).
    pub pinned_bytes: u64,
    /// High-water mark of `resident_bytes`.
    pub peak_resident_bytes: u64,
    /// On-disk vector payload across all spilled versions.
    pub spilled_bytes: u64,
    pub spilled_versions: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// `None` until the cache has been read at least once.
    pub hit_rate: Option<f64>,
    /// Block faults (disk reads) served so far — equals `cache_misses`
    /// unless a fault failed after the miss was counted.
    pub faults: u64,
    pub fault_p50_ms: Option<f64>,
    pub fault_p99_ms: Option<f64>,
    pub evictions: u64,
    /// Versions demoted (written to a segment and swapped to spilled).
    pub demotions: u64,
}

/// The shard control plane at snapshot time: how many probe rounds have
/// run, which shards are accumulating strikes, how many promotions have
/// been executed, and the shard map's current version and per-shard
/// leader terms. Filled by the provider the shard crate registers via
/// [`ServingMetrics::set_control_provider`].
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ControlSnapshot {
    /// Probe rounds completed since the control plane started.
    pub probe_rounds: u64,
    /// Leader promotions executed (map-level rotations).
    pub promotions: u64,
    /// The shard map version the control plane currently publishes.
    pub map_version: u64,
    /// Current consecutive-failure strikes per shard (empty = all healthy).
    pub strikes: BTreeMap<String, u64>,
    /// Current leader term per shard.
    pub terms: BTreeMap<String, u64>,
    /// Fences (demote messages) still awaiting delivery to a demoted
    /// endpoint — nonzero while an old leader is down or unreachable.
    pub pending_fences: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_track_a_known_distribution() {
        let m = ServingMetrics::new();
        for i in 1..=1000 {
            m.record(Endpoint::GetFeatures, i as f64, true);
        }
        let snap = m.snapshot();
        let ep = &snap.endpoints["get_features"];
        assert_eq!(ep.requests, 1000);
        assert_eq!(ep.errors, 0);
        let p50 = ep.p50_ms.unwrap();
        let p99 = ep.p99_ms.unwrap();
        assert!((p50 - 500.0).abs() < 50.0, "p50 {p50}");
        assert!((p99 - 990.0).abs() < 30.0, "p99 {p99}");
        assert!(ep.mean_ms.unwrap() > 0.0);
        assert_eq!(ep.max_ms, Some(1000.0));
    }

    #[test]
    fn shed_and_batch_counters() {
        let m = ServingMetrics::new();
        m.record_shed();
        m.record_shed();
        m.record_batch(8);
        let snap = m.snapshot();
        assert_eq!(snap.shed, 2);
        assert_eq!(snap.batches, 1);
        assert_eq!(snap.batched_requests, 8);
        assert_eq!(m.shed_count(), 2);
    }

    #[test]
    fn repl_gauges_report_lag_and_fallbacks() {
        let m = ServingMetrics::new();
        assert_eq!(m.repl_lag(), 0);
        m.set_repl_progress(7, 12);
        m.record_repl_fallback();
        assert_eq!(m.repl_lag(), 5);
        let snap = m.snapshot();
        assert_eq!(snap.repl_applied_epoch, 7);
        assert_eq!(snap.repl_leader_epoch, 12);
        assert_eq!(snap.repl_lag, 5);
        assert_eq!(snap.repl_snapshot_fallbacks, 1);
        // Caught-up (or ahead due to a race) never underflows.
        m.set_repl_progress(13, 12);
        assert_eq!(m.repl_lag(), 0);
        // The repl endpoints are first-class metric labels.
        m.record(Endpoint::ReplDeltas, 0.2, true);
        assert_eq!(m.snapshot().endpoints["repl_deltas"].requests, 1);
    }

    #[test]
    fn robustness_counters_flow_into_the_snapshot() {
        let m = ServingMetrics::new();
        m.record_deadline_shed();
        m.record_deadline_shed();
        m.record_frame_too_large();
        m.record_frame_timeout();
        m.record_spawn_refusal();
        m.set_repl_consecutive_failures(3);
        let snap = m.snapshot();
        assert_eq!(snap.deadline_shed, 2);
        assert_eq!(snap.frames_too_large, 1);
        assert_eq!(snap.frame_timeouts, 1);
        assert_eq!(snap.spawn_refusals, 1);
        assert_eq!(snap.repl_consecutive_failures, 3);
        assert_eq!(m.deadline_shed_count(), 2);
        assert_eq!(m.frame_timeout_count(), 1);
        // A successful round resets the failure streak.
        m.set_repl_consecutive_failures(0);
        assert_eq!(m.repl_consecutive_failures(), 0);
    }

    #[test]
    fn durability_counters_flow_into_the_snapshot() {
        let m = ServingMetrics::new();
        m.record_wal_append(100, true);
        m.record_wal_append(28, false);
        m.record_checkpoint();
        m.record_recovery(42, 17);
        let snap = m.snapshot();
        assert_eq!(snap.wal_appends, 2);
        assert_eq!(snap.wal_fsyncs, 1);
        assert_eq!(snap.wal_bytes, 128);
        assert_eq!(snap.checkpoint_count, 1);
        assert_eq!(snap.last_recovery_ms, 42);
        assert_eq!(snap.recovered_epoch, 17);
        assert_eq!(m.wal_appends(), 2);
        assert_eq!(m.wal_fsyncs(), 1);
        // And they render in the JSON dump.
        let v: serde_json::Value = serde_json::from_str(&m.dump_json()).unwrap();
        assert_eq!(v["wal_appends"].as_u64(), Some(2));
        assert_eq!(v["recovered_epoch"].as_u64(), Some(17));
    }

    #[test]
    fn wire_counters_flow_into_the_snapshot() {
        let m = ServingMetrics::new();
        m.record_wire_rx(104, 2, 1);
        m.record_wire_tx(52, 1, 1);
        m.record_wire_tx(78, 3, 1);
        // Draw from the pool twice: a miss (cold), then a hit (recycled).
        let pool = m.frame_pool();
        let buf = pool.get();
        pool.put(buf);
        let buf = pool.get();
        pool.put(buf);
        let snap = m.snapshot();
        assert_eq!(snap.wire.bytes_rx, 104);
        assert_eq!(snap.wire.bytes_tx, 130);
        assert_eq!(snap.wire.frames_rx, 2);
        assert_eq!(snap.wire.frames_tx, 4);
        assert_eq!(snap.wire.writes_tx, 2);
        assert_eq!(snap.wire.payload_allocs, 1);
        assert_eq!(snap.wire.pool_misses, 1);
        assert_eq!(snap.wire.pool_hits, 1);
        assert_eq!(snap.wire.pool_hit_rate, Some(0.5));
        assert_eq!(m.wire_payload_allocs(), 1);
        // And the section renders in the JSON dump.
        let v: serde_json::Value = serde_json::from_str(&m.dump_json()).unwrap();
        assert_eq!(v["wire"]["frames_rx"].as_u64(), Some(2));
        assert_eq!(v["wire"]["payload_allocs"].as_u64(), Some(1));
        assert_eq!(v["wire"]["writes_tx"].as_u64(), Some(2));
    }

    #[test]
    fn tier_section_polls_its_provider() {
        let m = ServingMetrics::new();
        // No tiered store attached → the section is absent (JSON null).
        assert_eq!(m.tier_snapshot(), None);
        let v: serde_json::Value = serde_json::from_str(&m.dump_json()).unwrap();
        assert!(v["tier"].is_null());

        let hits = Arc::new(AtomicU64::new(3));
        let hits2 = Arc::clone(&hits);
        m.set_tier_provider(move || TierSnapshot {
            budget_bytes: 1024,
            cache_hits: hits2.load(Ordering::Relaxed),
            cache_misses: 1,
            hit_rate: Some(0.75),
            ..TierSnapshot::default()
        });
        assert_eq!(m.tier_snapshot().unwrap().cache_hits, 3);
        // The provider is *polled*: later snapshots see later state.
        hits.store(9, Ordering::Relaxed);
        let v: serde_json::Value = serde_json::from_str(&m.dump_json()).unwrap();
        assert_eq!(v["tier"]["cache_hits"].as_u64(), Some(9));
        assert_eq!(v["tier"]["budget_bytes"].as_u64(), Some(1024));
    }

    #[test]
    fn control_section_polls_its_provider() {
        let m = ServingMetrics::new();
        // No control plane attached → the section is absent (JSON null).
        assert_eq!(m.control_snapshot(), None);
        let v: serde_json::Value = serde_json::from_str(&m.dump_json()).unwrap();
        assert!(v["control"].is_null());

        let rounds = Arc::new(AtomicU64::new(2));
        let rounds2 = Arc::clone(&rounds);
        m.set_control_provider(move || ControlSnapshot {
            probe_rounds: rounds2.load(Ordering::Relaxed),
            promotions: 1,
            map_version: 4,
            strikes: [("shard-0".to_string(), 1)].into_iter().collect(),
            terms: [("shard-0".to_string(), 2)].into_iter().collect(),
            pending_fences: 1,
        });
        assert_eq!(m.control_snapshot().unwrap().promotions, 1);
        // The provider is *polled*: later snapshots see later state.
        rounds.store(9, Ordering::Relaxed);
        let v: serde_json::Value = serde_json::from_str(&m.dump_json()).unwrap();
        assert_eq!(v["control"]["probe_rounds"].as_u64(), Some(9));
        assert_eq!(v["control"]["terms"]["shard-0"].as_u64(), Some(2));
        assert_eq!(v["control"]["map_version"].as_u64(), Some(4));
    }

    #[test]
    fn write_endpoints_are_first_class_metric_labels() {
        let m = ServingMetrics::new();
        m.record(Endpoint::PutOnline, 0.4, true);
        m.record(Endpoint::Promote, 1.0, false);
        let snap = m.snapshot();
        assert_eq!(snap.endpoints["put_online"].requests, 1);
        assert_eq!(snap.endpoints["promote"].errors, 1);
        assert_eq!(m.total_requests(), 2);
    }

    #[test]
    fn embed_copy_counter_flows_into_the_wire_section() {
        let m = ServingMetrics::new();
        assert_eq!(m.snapshot().wire.embed_copies, 0);
        m.record_embed_copy();
        let snap = m.snapshot();
        assert_eq!(snap.wire.embed_copies, 1);
    }

    #[test]
    fn json_dump_is_parseable_and_carries_counters() {
        let m = ServingMetrics::new();
        m.record(Endpoint::Health, 0.1, true);
        m.record(Endpoint::GetEmbedding, 2.0, false);
        m.record_shed();
        let dump = m.dump_json();
        let v: serde_json::Value = serde_json::from_str(&dump).unwrap();
        assert_eq!(v["shed"].as_u64(), Some(1));
        assert_eq!(v["endpoints"]["health"]["requests"].as_u64(), Some(1));
        assert_eq!(v["endpoints"]["get_embedding"]["errors"].as_u64(), Some(1));
    }
}
