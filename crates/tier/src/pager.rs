//! The pager and the residency policy.
//!
//! [`SpilledTable`] is the [`VectorPager`] implementation that makes a
//! demoted version servable: a key lookup maps to a segment row, the row
//! to a block, the block to a cache probe, and only a miss touches disk
//! (one `read_at`, CRC-checked, inserted into the shared [`BlockCache`]).
//! The returned [`VectorBuf`] is a window into the cached block — no
//! copies on the read path.
//!
//! [`TieredEmbeddings`] is the policy half: it hangs a publish hook off
//! the [`EmbeddingDb`] that wakes a background demoter. The demoter walks
//! every version, keeps the latest version of each name (and any version
//! a live index snapshot was built from) pinned in RAM, and when resident
//! bytes cross the high watermark spills the coldest unpinned versions
//! (oldest `created_at` first) until under the low watermark. A demotion
//! writes an `"FSEG"` segment, reopens it, and re-installs the version
//! with a spilled table — readers of the next snapshot fault blocks
//! transparently. The cache budget is retargeted to `budget − resident
//! table bytes` each pass so tables plus cache stay inside one budget.

use crate::cache::{BlockCache, BlockKey};
use crate::segment::Segment;
use fstore_common::hash::{FxHashMap, FxHashSet};
use fstore_common::stats::P2Quantile;
use fstore_common::{FsError, Result, VectorBuf};
use fstore_embed::{EmbeddingDb, EmbeddingTable, EmbeddingVersion, VectorPager};
use fstore_serve::catalog::IndexCatalog;
use fstore_serve::metrics::TierSnapshot;
use parking_lot::Mutex;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Condvar;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Demotion starts when resident bytes exceed `HIGH_WATERMARK × budget` …
const HIGH_WATERMARK: f64 = 0.85;
/// … and stops once they are under `LOW_WATERMARK × budget`.
const LOW_WATERMARK: f64 = 0.60;
/// Shards in the block cache.
const CACHE_SHARDS: usize = 8;

/// Residency policy knobs.
#[derive(Debug, Clone)]
pub struct TierConfig {
    /// Directory segment files are written to.
    pub(crate) dir: PathBuf,
    /// RAM budget for embedding bytes: resident tables + cached blocks.
    pub(crate) budget_bytes: u64,
    /// Target payload bytes per segment block (one fault's granularity).
    pub block_bytes: usize,
}

impl TierConfig {
    /// Defaults: 64 KiB blocks.
    pub fn new(dir: impl Into<PathBuf>, budget_bytes: u64) -> TierConfig {
        TierConfig {
            dir: dir.into(),
            budget_bytes,
            block_bytes: 64 * 1024,
        }
    }
}

/// Shared tier counters; [`TierStats::snapshot`] produces the `tier`
/// section of `ServingMetrics`.
#[derive(Debug)]
pub struct TierStats {
    cache: Arc<BlockCache>,
    budget: AtomicU64,
    resident_table_bytes: AtomicU64,
    pinned_bytes: AtomicU64,
    peak_resident: AtomicU64,
    spilled_bytes: AtomicU64,
    spilled_versions: AtomicU64,
    demotions: AtomicU64,
    faults: AtomicU64,
    fault_quantiles: Mutex<(P2Quantile, P2Quantile)>,
}

impl TierStats {
    pub(crate) fn new(cache: Arc<BlockCache>, budget_bytes: u64) -> TierStats {
        TierStats {
            cache,
            budget: AtomicU64::new(budget_bytes),
            resident_table_bytes: AtomicU64::new(0),
            pinned_bytes: AtomicU64::new(0),
            peak_resident: AtomicU64::new(0),
            spilled_bytes: AtomicU64::new(0),
            spilled_versions: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            fault_quantiles: Mutex::new((P2Quantile::new(0.50), P2Quantile::new(0.99))),
        }
    }

    /// Record one disk fault and its latency.
    pub(crate) fn record_fault(&self, elapsed: Duration) {
        self.faults.fetch_add(1, Ordering::Relaxed);
        let ms = elapsed.as_secs_f64() * 1e3;
        let mut q = self.fault_quantiles.lock();
        q.0.push(ms);
        q.1.push(ms);
    }

    /// Fold the current resident total into the peak watermark. Called
    /// after every fault insert and demoter pass, and at snapshot time.
    pub(crate) fn note_resident(&self) -> u64 {
        let resident =
            self.resident_table_bytes.load(Ordering::Relaxed) + self.cache.resident_bytes();
        self.peak_resident.fetch_max(resident, Ordering::Relaxed);
        resident
    }

    /// Point-in-time tier section for `ServingMetrics`.
    pub fn snapshot(&self) -> TierSnapshot {
        let resident = self.note_resident();
        let cs = self.cache.stats();
        let reads = cs.hits + cs.misses;
        let (p50, p99) = {
            let q = self.fault_quantiles.lock();
            (q.0.estimate(), q.1.estimate())
        };
        TierSnapshot {
            budget_bytes: self.budget.load(Ordering::Relaxed),
            resident_bytes: resident,
            pinned_bytes: self.pinned_bytes.load(Ordering::Relaxed),
            peak_resident_bytes: self.peak_resident.load(Ordering::Relaxed).max(resident),
            spilled_bytes: self.spilled_bytes.load(Ordering::Relaxed),
            spilled_versions: self.spilled_versions.load(Ordering::Relaxed),
            cache_hits: cs.hits,
            cache_misses: cs.misses,
            hit_rate: (reads > 0).then(|| cs.hits as f64 / reads as f64),
            faults: self.faults.load(Ordering::Relaxed),
            fault_p50_ms: p50,
            fault_p99_ms: p99,
            evictions: cs.evictions,
            demotions: self.demotions.load(Ordering::Relaxed),
        }
    }
}

/// A spilled version's pager: segment rows served through the shared
/// block cache.
#[derive(Debug)]
pub(crate) struct SpilledTable {
    segment: Arc<Segment>,
    segment_id: u64,
    cache: Arc<BlockCache>,
    stats: Arc<TierStats>,
    rows: FxHashMap<String, usize>,
}

impl SpilledTable {
    pub(crate) fn new(
        segment: Arc<Segment>,
        segment_id: u64,
        cache: Arc<BlockCache>,
        stats: Arc<TierStats>,
    ) -> SpilledTable {
        let mut rows = FxHashMap::with_capacity_and_hasher(segment.len(), Default::default());
        for (row, key) in segment.keys().iter().enumerate() {
            rows.insert(key.clone(), row);
        }
        SpilledTable {
            segment,
            segment_id,
            cache,
            stats,
            rows,
        }
    }
}

impl VectorPager for SpilledTable {
    fn dim(&self) -> usize {
        self.segment.dim()
    }

    fn len(&self) -> usize {
        self.segment.len()
    }

    fn keys(&self) -> &[String] {
        self.segment.keys()
    }

    fn row_of(&self, key: &str) -> Option<usize> {
        self.rows.get(key).copied()
    }

    fn fetch_row(&self, row: usize) -> Result<VectorBuf> {
        if row >= self.segment.len() {
            return Err(FsError::InvalidArgument(format!(
                "row {row} out of range ({} rows)",
                self.segment.len()
            )));
        }
        let (block, offset) = self.segment.locate_row(row);
        let key = BlockKey {
            segment: self.segment_id,
            block: block as u32,
        };
        let data = match self.cache.get(key) {
            Some(data) => data,
            None => {
                let t0 = Instant::now();
                let data = self.segment.read_block(block)?;
                self.stats.record_fault(t0.elapsed());
                let data = self.cache.insert(key, data);
                self.stats.note_resident();
                data
            }
        };
        Ok(VectorBuf::window(data, offset, self.segment.dim()))
    }

    fn spilled_bytes(&self) -> u64 {
        self.segment.payload_bytes()
    }

    fn resident_overhead_bytes(&self) -> u64 {
        // The row index and key strings stay resident; vectors do not.
        self.rows.keys().map(|k| k.len() as u64 + 48).sum::<u64>()
    }
}

struct DemoterState {
    // std primitives: the Condvar must pair with a std mutex guard.
    wake: std::sync::Mutex<bool>,
    cv: Condvar,
    shutdown: AtomicBool,
}

struct TierInner {
    db: EmbeddingDb,
    config: TierConfig,
    cache: Arc<BlockCache>,
    stats: Arc<TierStats>,
    catalog: Mutex<Option<Arc<IndexCatalog>>>,
    next_segment_id: AtomicU64,
    demoter: DemoterState,
    /// Serializes demotion passes: the background demoter and explicit
    /// `demote_now` callers would otherwise race on the
    /// same version's temp segment file.
    pass_lock: Mutex<()>,
    last_error: Mutex<Option<String>>,
}

/// One scan of a store snapshot against the pin set.
struct Scan {
    table_bytes: u64,
    pinned_bytes: u64,
    spilled_bytes: u64,
    spilled_versions: u64,
    /// Unpinned resident versions, coldest first.
    candidates: Vec<Arc<EmbeddingVersion>>,
}

impl TierInner {
    fn signal(&self) {
        *self.demoter.wake.lock().unwrap() = true;
        self.demoter.cv.notify_one();
    }

    /// Latest version of every name plus anything a live index snapshot
    /// was built from. Pins are advisory (a rebuild racing the scan can
    /// fault its build reads through the cache) — correctness never
    /// depends on them, only residency.
    fn pin_set(&self, store: &fstore_embed::EmbeddingStore) -> FxHashSet<String> {
        let mut pinned: FxHashSet<String> = FxHashSet::default();
        for v in store.list() {
            pinned.insert(v.qualified_name());
        }
        if let Some(catalog) = self.catalog.lock().as_ref() {
            for snap in catalog.current().value.values() {
                pinned.insert(format!("{}@v{}", snap.table, snap.built_from_version));
            }
        }
        pinned
    }

    fn scan(&self, store: &fstore_embed::EmbeddingStore, pinned: &FxHashSet<String>) -> Scan {
        let mut out = Scan {
            table_bytes: 0,
            pinned_bytes: 0,
            spilled_bytes: 0,
            spilled_versions: 0,
            candidates: Vec::new(),
        };
        for v in store.iter_versions() {
            if v.table.is_spilled() {
                out.spilled_versions += 1;
                if let Some(pager) = v.table.pager() {
                    out.spilled_bytes += pager.spilled_bytes();
                }
            } else {
                let bytes = v.table.resident_vector_bytes();
                out.table_bytes += bytes;
                if pinned.contains(&v.qualified_name()) {
                    out.pinned_bytes += bytes;
                } else {
                    out.candidates.push(Arc::clone(v));
                }
            }
        }
        out.candidates
            .sort_by_key(|v| (v.created_at, v.version, v.name.clone()));
        out
    }

    /// One demotion pass: spill cold versions while over the high
    /// watermark, retarget the cache budget, refresh gauges. Returns the
    /// number of versions demoted.
    fn demote_pass(&self) -> Result<usize> {
        let _guard = self.pass_lock.lock();
        let budget = self.config.budget_bytes;
        let high = (budget as f64 * HIGH_WATERMARK) as u64;
        let low = (budget as f64 * LOW_WATERMARK) as u64;

        let store = self.db.snapshot();
        let pinned = self.pin_set(&store);
        let scan = self.scan(&store, &pinned);

        let mut table_bytes = scan.table_bytes;
        let mut demoted = 0usize;
        if table_bytes + self.cache.resident_bytes() > high {
            for v in &scan.candidates {
                if table_bytes + self.cache.resident_bytes() <= low {
                    break;
                }
                let freed = v.table.resident_vector_bytes();
                self.demote_version_inner(v)?;
                table_bytes -= freed;
                demoted += 1;
            }
        }

        // Tables get first claim on the budget; the cache lives in what
        // is left (floored at one block so faults always have somewhere
        // to land).
        self.cache.set_budget(
            budget
                .saturating_sub(table_bytes)
                .max(self.config.block_bytes as u64),
        );

        // Gauges from a fresh snapshot (demotions republished the store).
        let store = self.db.snapshot();
        let pinned = self.pin_set(&store);
        let after = self.scan(&store, &pinned);
        let stats = &self.stats;
        stats
            .resident_table_bytes
            .store(after.table_bytes, Ordering::Relaxed);
        stats
            .pinned_bytes
            .store(after.pinned_bytes, Ordering::Relaxed);
        stats
            .spilled_bytes
            .store(after.spilled_bytes, Ordering::Relaxed);
        stats
            .spilled_versions
            .store(after.spilled_versions, Ordering::Relaxed);
        stats.note_resident();
        Ok(demoted)
    }

    /// Write `version` to a segment and swap the spilled table in.
    fn demote_version_inner(&self, version: &EmbeddingVersion) -> Result<()> {
        let file_name = format!(
            "{}-v{}.seg",
            version.name.replace(['/', '\\'], "_"),
            version.version
        );
        let path = self.config.dir.join(file_name);
        Segment::write(&path, version, self.config.block_bytes)?;
        let segment = Arc::new(Segment::open(&path)?);
        let id = self.next_segment_id.fetch_add(1, Ordering::Relaxed);
        let pager = Arc::new(SpilledTable::new(
            segment,
            id,
            Arc::clone(&self.cache),
            Arc::clone(&self.stats),
        ));
        let spilled = EmbeddingVersion {
            name: version.name.clone(),
            version: version.version,
            created_at: version.created_at,
            provenance: version.provenance.clone(),
            table: EmbeddingTable::from_pager(pager)?,
            consumers: version.consumers.clone(),
        };
        // The publish hook fires inside this write and only sets a flag,
        // so the extra self-wakeup is harmless (spilled versions are
        // skipped on the next pass).
        self.db.write(move |s| s.install_version(spilled))?;
        self.stats.demotions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// The attached tier: owns the demoter thread and the shared cache/stats.
pub struct TieredEmbeddings {
    inner: Arc<TierInner>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl TieredEmbeddings {
    /// Attach tiering to `db`: creates the segment directory, registers a
    /// publish hook, and starts the background demoter.
    pub fn attach(db: &EmbeddingDb, config: TierConfig) -> Result<TieredEmbeddings> {
        std::fs::create_dir_all(&config.dir)
            .map_err(|e| FsError::Storage(format!("create {}: {e}", config.dir.display())))?;
        let cache = Arc::new(BlockCache::new(config.budget_bytes, CACHE_SHARDS));
        let stats = Arc::new(TierStats::new(Arc::clone(&cache), config.budget_bytes));
        let inner = Arc::new(TierInner {
            db: db.clone(),
            config,
            cache,
            stats,
            catalog: Mutex::new(None),
            next_segment_id: AtomicU64::new(1),
            demoter: DemoterState {
                wake: std::sync::Mutex::new(true), // run an initial pass
                cv: Condvar::new(),
                shutdown: AtomicBool::new(false),
            },
            pass_lock: Mutex::new(()),
            last_error: Mutex::new(None),
        });

        // The hook holds a Weak so a dropped tier does not keep its state
        // alive through the db's hook list.
        let weak: Weak<TierInner> = Arc::downgrade(&inner);
        db.add_publish_hook(move |_| {
            if let Some(inner) = weak.upgrade() {
                inner.signal();
            }
        });

        let thread_inner = Arc::clone(&inner);
        let thread = std::thread::Builder::new()
            .name("fstore-tier-demoter".into())
            .spawn(move || loop {
                {
                    let mut wake = thread_inner.demoter.wake.lock().unwrap();
                    if !*wake {
                        wake = thread_inner
                            .demoter
                            .cv
                            .wait_timeout(wake, Duration::from_millis(250))
                            .unwrap()
                            .0;
                    }
                    *wake = false;
                }
                if thread_inner.demoter.shutdown.load(Ordering::Relaxed) {
                    break;
                }
                if let Err(e) = thread_inner.demote_pass() {
                    *thread_inner.last_error.lock() = Some(e.to_string());
                }
            })
            .map_err(|e| FsError::Storage(format!("spawn demoter: {e}")))?;

        Ok(TieredEmbeddings {
            inner,
            thread: Mutex::new(Some(thread)),
        })
    }

    /// Give the demoter the index catalog so index-referenced versions
    /// stay pinned in RAM.
    pub fn attach_catalog(&self, catalog: Arc<IndexCatalog>) {
        *self.inner.catalog.lock() = Some(catalog);
        self.inner.signal();
    }

    /// Wire the tier section into `metrics`: its snapshots gain a `tier`
    /// object polled from these stats.
    pub fn attach_metrics(&self, metrics: &fstore_serve::ServingMetrics) {
        let stats = Arc::clone(&self.inner.stats);
        metrics.set_tier_provider(move || stats.snapshot());
    }

    /// Run one synchronous demotion pass (tests and experiments; the
    /// background thread does this on every publication).
    pub fn demote_now(&self) -> Result<usize> {
        self.inner.demote_pass()
    }

    /// Shared tier stats (for metrics providers and assertions).
    pub fn stats(&self) -> Arc<TierStats> {
        Arc::clone(&self.inner.stats)
    }

    /// The shared block cache.
    pub fn cache(&self) -> Arc<BlockCache> {
        Arc::clone(&self.inner.cache)
    }

    /// The most recent background demotion error, if any.
    pub fn last_error(&self) -> Option<String> {
        self.inner.last_error.lock().clone()
    }

    /// Stop the demoter thread. Called by `Drop`; explicit for tests.
    pub fn shutdown(&self) {
        self.inner.demoter.shutdown.store(true, Ordering::Relaxed);
        self.inner.signal();
        if let Some(t) = self.thread.lock().take() {
            let _ = t.join();
        }
    }
}

impl Drop for TieredEmbeddings {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for TieredEmbeddings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredEmbeddings")
            .field("budget", &self.inner.config.budget_bytes)
            .field("dir", &self.inner.config.dir)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fstore_common::Timestamp;
    use fstore_embed::EmbeddingProvenance;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fstore_tier_pager_{}_{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn table(rows: usize, dim: usize, salt: f32) -> EmbeddingTable {
        let mut t = EmbeddingTable::new(dim).unwrap();
        for i in 0..rows {
            let v: Vec<f32> = (0..dim).map(|j| (i * dim + j) as f32 + salt).collect();
            t.insert(format!("k{i:04}"), v).unwrap();
        }
        t
    }

    fn publish(db: &EmbeddingDb, name: &str, rows: usize, dim: usize, at: i64) {
        db.publish(
            name,
            table(rows, dim, at as f32),
            EmbeddingProvenance::default(),
            Timestamp::millis(at),
        )
        .unwrap();
    }

    /// Demotion keeps the latest resident, spills old versions, and the
    /// spilled reads come back byte-identical.
    #[test]
    fn demotion_spills_cold_versions_and_reads_match() {
        let db = EmbeddingDb::new();
        // 4 versions × 64 rows × 16 dim × 4 B = 4 KiB each.
        for at in 1..=4 {
            publish(&db, "emb", 64, 16, at);
        }
        let mut config = TierConfig::new(tmp("demote"), 8 * 1024);
        config.block_bytes = 256;
        let tier = TieredEmbeddings::attach(&db, config).unwrap();
        // The background demoter may win the race; the pass itself is
        // idempotent, so assert on the outcome, not the return value.
        tier.demote_now().unwrap();
        let spilled = tier.stats().snapshot().spilled_versions;
        assert!(spilled >= 2, "spilled {spilled}");

        let store = db.snapshot();
        assert!(
            !store.latest("emb").unwrap().table.is_spilled(),
            "latest stays resident"
        );
        assert!(store.get("emb", 1).unwrap().table.is_spilled());

        // Spilled reads are byte-identical to what was published.
        let v1 = store.get("emb", 1).unwrap();
        let oracle = table(64, 16, 1.0);
        for key in oracle.keys() {
            let got = v1.table.fetch(key).unwrap().unwrap();
            assert_eq!(got.as_slice(), oracle.get(key).unwrap(), "key {key}");
            assert!(got.is_shared(), "spilled read is a cache window");
        }

        let snap = tier.stats().snapshot();
        assert!(snap.spilled_versions >= 2);
        assert!(snap.demotions >= 2);
        assert!(snap.faults > 0);
        assert!(snap.hit_rate.is_some());
        assert_eq!(tier.last_error(), None);
        tier.shutdown();
    }

    /// The publish hook wakes the background demoter; no manual pass.
    #[test]
    fn background_demoter_reacts_to_publications() {
        let db = EmbeddingDb::new();
        let mut config = TierConfig::new(tmp("bg"), 8 * 1024);
        config.block_bytes = 256;
        let tier = TieredEmbeddings::attach(&db, config).unwrap();
        for at in 1..=4 {
            publish(&db, "emb", 64, 16, at);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if tier.stats().snapshot().spilled_versions >= 2 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "demoter never spilled: {:?} err {:?}",
                tier.stats().snapshot(),
                tier.last_error()
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        tier.shutdown();
    }

    /// Under budget nothing spills.
    #[test]
    fn under_budget_nothing_moves() {
        let db = EmbeddingDb::new();
        publish(&db, "emb", 16, 8, 1);
        publish(&db, "emb", 16, 8, 2);
        let tier = TieredEmbeddings::attach(&db, TierConfig::new(tmp("pin"), 1 << 20)).unwrap();
        assert_eq!(tier.demote_now().unwrap(), 0);
        assert!(!db.snapshot().get("emb", 1).unwrap().table.is_spilled());
        assert_eq!(tier.stats().snapshot().spilled_versions, 0);
        tier.shutdown();
    }

    /// Resident bytes stay bounded by the budget while a cold working set
    /// 4× the budget is scanned.
    #[test]
    fn resident_bytes_stay_bounded_under_cold_scans() {
        let db = EmbeddingDb::new();
        // 8 versions × 8 KiB = 64 KiB working set, 16 KiB budget.
        for at in 1..=8 {
            publish(&db, "emb", 128, 16, at);
        }
        let mut config = TierConfig::new(tmp("bound"), 16 * 1024);
        config.block_bytes = 1024;
        let tier = TieredEmbeddings::attach(&db, config).unwrap();
        tier.demote_now().unwrap();

        let store = db.snapshot();
        for round in 0..3 {
            for version in 1..=7u32 {
                let v = store.get("emb", version).unwrap();
                for key in v.table.keys() {
                    let got = v.table.fetch(key).unwrap().unwrap();
                    assert_eq!(got.len(), 16, "round {round}");
                }
            }
        }
        let snap = tier.stats().snapshot();
        assert!(
            snap.peak_resident_bytes <= snap.budget_bytes,
            "peak {} budget {}",
            snap.peak_resident_bytes,
            snap.budget_bytes
        );
        assert!(snap.spilled_bytes >= 4 * snap.budget_bytes - 8 * 1024);
        assert!(snap.fault_p99_ms.is_some());
        tier.shutdown();
    }
}
