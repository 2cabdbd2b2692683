//! The serving-side ANN index catalog (paper §4: searching and querying
//! embeddings at industrial scale, without stopping the world to reindex).
//!
//! Each embedding table gets an immutable [`IndexSnapshot`]: an ANN index
//! built from one published table version, plus the row-id ↔ entity-key
//! mapping search answers travel through. The whole per-table snapshot map
//! lives in a [`SnapshotCell`] — readers resolve one `Arc` to the map and
//! search lock-free from then on, while a background build thread
//! constructs a replacement from the *current* store snapshot and swaps it
//! in. Traffic in flight keeps its old snapshot; nothing blocks, nothing
//! drops. Every swap is a cell publication, so the snapshot's generation
//! *is* the catalog's [`ReadEpoch`] at publication time — clients (and the
//! E15/E16 experiments) can observe exactly when a swap landed, and
//! staleness — how far the live table has advanced past the snapshot — is
//! reported into [`ServingMetrics`].

use crate::metrics::{IndexStatus, ServingMetrics};
use crate::protocol::WireHit;
use fstore_common::hash::FxHashMap;
use fstore_common::{FsError, ReadEpoch, SnapshotCell, Versioned};
use fstore_embed::{EmbeddingDb, EmbeddingStore};
use fstore_index::{
    FlatIndex, HnswConfig, HnswIndex, IvfConfig, IvfIndex, SearchParams, VectorIndex,
};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Which index family to build over a table, with its build-time knobs.
/// Serializable so replication can ship *build instructions* to followers —
/// index bytes never cross the wire; followers rebuild deterministically
/// (the configs carry fixed seeds).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum IndexSpec {
    /// Exact brute-force scan (recall 1.0; O(n) per query).
    Flat,
    /// k-means inverted file.
    Ivf(IvfConfig),
    /// Hierarchical navigable small world graph.
    Hnsw(HnswConfig),
}

impl IndexSpec {
    /// Family label, as reported in metrics and bench artifacts.
    pub fn kind(&self) -> &'static str {
        match self {
            IndexSpec::Flat => "flat",
            IndexSpec::Ivf(_) => "ivf",
            IndexSpec::Hnsw(_) => "hnsw",
        }
    }
}

/// One immutable, swappable unit: an index over one table version plus the
/// key mapping. Shared by `Arc`; a swap replaces the `Arc`, never mutates.
pub struct IndexSnapshot {
    /// The table name this snapshot serves (unqualified).
    pub table: String,
    /// The embedding-table version the rows were exported from.
    pub built_from_version: u32,
    /// The catalog [`ReadEpoch`] this snapshot was published at; larger =
    /// swapped in later.
    pub generation: u64,
    /// Index family label (`"flat"`, `"ivf"`, `"hnsw"`).
    pub(crate) kind: &'static str,
    /// The full build instructions, so replication can ship them to a
    /// follower for a deterministic rebuild.
    pub spec: IndexSpec,
    /// Row id `i` in the index is entity `keys[i]`.
    keys: Vec<String>,
    key_to_row: FxHashMap<String, usize>,
    index: Box<dyn VectorIndex + Send + Sync>,
}

impl IndexSnapshot {
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    pub(crate) fn dim(&self) -> usize {
        self.index.dim()
    }
}

/// Why a catalog search could not be answered. Each variant maps onto a
/// distinct wire [`ErrorCode`](crate::protocol::ErrorCode) in the server.
#[derive(Debug)]
pub enum CatalogError {
    /// No snapshot is live for the table (never built, or first build
    /// still in flight).
    IndexNotReady { table: String },
    /// Query vector dimension does not match the snapshot's index.
    DimensionMismatch { expected: usize, got: usize },
    /// `search_by_key` named an entity the snapshot does not hold.
    KeyNotFound { table: String, key: String },
    /// The underlying index refused the search (k = 0, …).
    Failed(FsError),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::IndexNotReady { table } => {
                write!(f, "no index snapshot is live for table `{table}`")
            }
            CatalogError::DimensionMismatch { expected, got } => {
                write!(f, "query dim {got} != index dim {expected}")
            }
            CatalogError::KeyNotFound { table, key } => {
                write!(f, "key `{key}` not in index snapshot for `{table}`")
            }
            CatalogError::Failed(e) => write!(f, "search failed: {e}"),
        }
    }
}

impl std::error::Error for CatalogError {}

/// A successful search, stamped with the snapshot identity it ran against.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// The embedding-table version the snapshot was built from.
    pub(crate) table_version: u32,
    /// The snapshot's swap generation — the catalog [`ReadEpoch`] it was
    /// published at.
    pub(crate) index_generation: u64,
    /// Ascending by squared-L2 distance.
    pub(crate) hits: Vec<WireHit>,
}

/// The catalog's published map: table name → live index snapshot.
pub type IndexMap = FxHashMap<String, Arc<IndexSnapshot>>;

/// Per-table ANN index snapshots over a shared [`EmbeddingDb`], with
/// atomic swap and background rebuild.
///
/// The map of live snapshots is itself an epoch-versioned snapshot: every
/// swap publishes a new map through a [`SnapshotCell`], and the publication
/// epoch doubles as the new snapshot's generation. Readers never take a
/// lock the builder holds.
pub struct IndexCatalog {
    store: EmbeddingDb,
    snapshots: SnapshotCell<IndexMap>,
    metrics: Mutex<Option<Arc<ServingMetrics>>>,
}

impl IndexCatalog {
    pub fn new(store: EmbeddingDb) -> Self {
        IndexCatalog {
            store,
            snapshots: SnapshotCell::new(FxHashMap::default()),
            metrics: Mutex::new(None),
        }
    }

    /// The embedding store this catalog indexes.
    pub(crate) fn store(&self) -> EmbeddingDb {
        self.store.clone()
    }

    /// Wire swap/staleness reporting into the server's metrics. Called by
    /// `conn::start`; harmless to call again (last attachment wins).
    pub(crate) fn attach_metrics(&self, metrics: Arc<ServingMetrics>) {
        *self.metrics.lock() = Some(metrics);
        // Back-publish snapshots built before the server started.
        self.publish_all_statuses();
    }

    /// Build an index over the current version of `table` and swap it in.
    ///
    /// Rows are exported from one lock-free store snapshot; the build —
    /// the expensive part — runs with no locks held, and the swap itself
    /// is one cell publication (concurrent builds serialize only there).
    /// `table` may be `"name"` (latest) or `"name@vN"` (pinned); the
    /// snapshot is keyed and served under the *unqualified* name either
    /// way.
    pub fn build(&self, table: &str, spec: &IndexSpec) -> Result<Arc<IndexSnapshot>, FsError> {
        let built = construct(&self.store.snapshot(), table, spec)?;
        // The publication epoch is the generation: the update closure is
        // handed the epoch the new map will be stamped with, so the
        // snapshot can carry its own generation before it becomes visible.
        let name = built.name.clone();
        let (_, snapshot) = self.snapshots.update(|map, next_epoch| {
            let snapshot = Arc::new(built.into_snapshot(next_epoch.as_u64()));
            let mut next = map.clone();
            next.insert(name.clone(), Arc::clone(&snapshot));
            (next, snapshot)
        });
        if let Some(metrics) = self.metrics.lock().clone() {
            metrics.record_index_swap();
        }
        self.publish_status(&name);
        Ok(snapshot)
    }

    /// Replication: rebuild `table`'s index from the leader-shipped build
    /// instructions — pinned table version, spec with its seeds — and
    /// install it at the leader's exact `generation`, so follower search
    /// responses echo the leader's `(table_version, index_generation)`
    /// identity. The embedding version must already have been replicated.
    pub fn install_replica(
        &self,
        table: &str,
        spec: &IndexSpec,
        built_from_version: u32,
        generation: u64,
    ) -> Result<Arc<IndexSnapshot>, FsError> {
        let qualified = format!("{table}@v{built_from_version}");
        let built = construct(&self.store.snapshot(), &qualified, spec)?;
        let snapshot = Arc::new(built.into_snapshot(generation));
        let mut next = (*self.snapshots.load()).clone();
        next.insert(table.to_string(), Arc::clone(&snapshot));
        self.snapshots.restore(next, ReadEpoch(generation));
        if let Some(metrics) = self.metrics.lock().clone() {
            metrics.record_index_swap();
        }
        self.publish_status(table);
        Ok(snapshot)
    }

    /// Observe every map publication, alongside the existing observers (a
    /// leader's publication stream taps in here; see
    /// `fstore_common::snapshot::PublishHook`).
    pub fn add_publish_hook(&self, hook: impl Fn(&Versioned<IndexMap>) + Send + Sync + 'static) {
        self.snapshots.add_publish_hook(hook);
    }

    /// Kick off [`IndexCatalog::build`] on a background thread and return
    /// its handle; search traffic keeps hitting the old snapshot until the
    /// swap lands. The handle yields the new snapshot's generation.
    pub fn rebuild_in_background(
        self: &Arc<Self>,
        table: impl Into<String>,
        spec: IndexSpec,
    ) -> JoinHandle<Result<u64, FsError>> {
        let catalog = Arc::clone(self);
        let table = table.into();
        std::thread::Builder::new()
            .name(format!("fstore-index-build-{table}"))
            .spawn(move || catalog.build(&table, &spec).map(|s| s.generation))
            .expect("spawn index build thread")
    }

    /// The live snapshot for a table, if one has been built. The returned
    /// `Arc` stays valid across any number of subsequent swaps.
    pub(crate) fn snapshot(&self, table: &str) -> Option<Arc<IndexSnapshot>> {
        let name = table.rsplit_once("@v").map_or(table, |(n, _)| n);
        self.snapshots.load().get(name).cloned()
    }

    /// The full live map together with its publication epoch — replication
    /// captures a consistent set of build instructions from one call.
    pub fn current(&self) -> Versioned<IndexMap> {
        self.snapshots.read()
    }

    /// The catalog's publication epoch; bumps once per successful swap.
    pub(crate) fn epoch(&self) -> ReadEpoch {
        self.snapshots.epoch()
    }

    /// Total successful swaps across all tables (the epoch, as a count).
    pub fn swap_count(&self) -> u64 {
        self.epoch().as_u64()
    }

    /// `k` nearest stored entities to an explicit query vector.
    pub fn search(
        &self,
        table: &str,
        query: &[f32],
        k: usize,
        params: &SearchParams,
    ) -> Result<SearchOutcome, CatalogError> {
        let snapshot = self
            .snapshot(table)
            .ok_or_else(|| CatalogError::IndexNotReady {
                table: table.to_string(),
            })?;
        if query.len() != snapshot.dim() {
            return Err(CatalogError::DimensionMismatch {
                expected: snapshot.dim(),
                got: query.len(),
            });
        }
        let hits = snapshot
            .index
            .search(query, k, params)
            .map_err(CatalogError::Failed)?;
        Ok(outcome(&snapshot, hits, None))
    }

    /// A coalesced search batch: the snapshot `Arc` is resolved once and
    /// each query runs its own search against it, so every member answers
    /// from the same generation even if a swap lands mid-batch. The outer
    /// error is the table-level failure (no snapshot); inner results are
    /// per-query.
    #[allow(clippy::type_complexity)]
    pub(crate) fn search_many(
        &self,
        table: &str,
        queries: &[&[f32]],
        k: usize,
        params: &SearchParams,
    ) -> Result<Vec<Result<SearchOutcome, CatalogError>>, CatalogError> {
        let snapshot = self
            .snapshot(table)
            .ok_or_else(|| CatalogError::IndexNotReady {
                table: table.to_string(),
            })?;
        Ok(queries
            .iter()
            .map(|query| {
                if query.len() != snapshot.dim() {
                    return Err(CatalogError::DimensionMismatch {
                        expected: snapshot.dim(),
                        got: query.len(),
                    });
                }
                snapshot
                    .index
                    .search(query, k, params)
                    .map(|hits| outcome(&snapshot, hits, None))
                    .map_err(CatalogError::Failed)
            })
            .collect())
    }

    /// `k` nearest stored entities to the vector stored under `key`; the
    /// key itself is excluded from the hits.
    pub fn search_by_key(
        &self,
        table: &str,
        key: &str,
        k: usize,
        params: &SearchParams,
    ) -> Result<SearchOutcome, CatalogError> {
        let snapshot = self
            .snapshot(table)
            .ok_or_else(|| CatalogError::IndexNotReady {
                table: table.to_string(),
            })?;
        let &row = snapshot
            .key_to_row
            .get(key)
            .ok_or_else(|| CatalogError::KeyNotFound {
                table: table.to_string(),
                key: key.to_string(),
            })?;
        let query = snapshot
            .index
            .vector(row)
            .expect("key_to_row rows are in range");
        // Ask for one extra: the query's own row comes back at distance 0.
        let hits = snapshot
            .index
            .search(query, k.saturating_add(1), params)
            .map_err(CatalogError::Failed)?;
        Ok(outcome(&snapshot, hits, Some(row)))
    }

    /// Per-table status (generation, staleness vs. the live store) for one
    /// table, freshly computed from one store snapshot.
    pub fn status(&self, table: &str) -> Option<IndexStatus> {
        let snapshot = self.snapshot(table)?;
        Some(status_of(&snapshot, &self.store.snapshot()))
    }

    /// Recompute and push one table's status into the attached metrics.
    /// No-op when metrics are not attached or the table has no snapshot.
    pub(crate) fn publish_status(&self, table: &str) {
        let Some(metrics) = self.metrics.lock().clone() else {
            return;
        };
        if let Some(status) = self.status(table) {
            metrics.set_index_status(table, status);
        }
    }

    /// Refresh every table's staleness in the attached metrics — call
    /// after publishing new table versions so dashboards see the drift.
    ///
    /// All statuses are computed against *one* map snapshot and *one*
    /// store snapshot, so a swap or republish landing mid-publication
    /// cannot produce a status set that mixes two views (the old
    /// collect-names-then-relookup scheme could drop or tear a table that
    /// swapped between the two steps).
    pub fn publish_all_statuses(&self) {
        let Some(metrics) = self.metrics.lock().clone() else {
            return;
        };
        let map = self.snapshots.load();
        let store = self.store.snapshot();
        for (table, snapshot) in map.iter() {
            metrics.set_index_status(table, status_of(snapshot, &store));
        }
    }
}

impl std::fmt::Debug for IndexCatalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexCatalog")
            .field("epoch", &self.epoch())
            .field("tables", &self.snapshots.load().len())
            .finish_non_exhaustive()
    }
}

/// A fully constructed index plus its identity, not yet assigned a
/// generation (that happens at publication time).
struct Built {
    name: String,
    version: u32,
    spec: IndexSpec,
    keys: Vec<String>,
    key_to_row: FxHashMap<String, usize>,
    index: Box<dyn VectorIndex + Send + Sync>,
}

impl Built {
    fn into_snapshot(self, generation: u64) -> IndexSnapshot {
        IndexSnapshot {
            table: self.name,
            built_from_version: self.version,
            generation,
            kind: self.spec.kind(),
            spec: self.spec,
            keys: self.keys,
            key_to_row: self.key_to_row,
            index: self.index,
        }
    }
}

/// Export rows from one store snapshot and build the index — the expensive
/// part, run with no locks held. `table` may be `"name"` (latest) or
/// `"name@vN"` (pinned).
fn construct(store: &EmbeddingStore, table: &str, spec: &IndexSpec) -> Result<Built, FsError> {
    let v = store.resolve(table)?;
    let (keys, vectors) = v.table.export_rows();
    let index: Box<dyn VectorIndex + Send + Sync> = match spec {
        IndexSpec::Flat => Box::new(FlatIndex::build(vectors)?),
        IndexSpec::Ivf(cfg) => Box::new(IvfIndex::build(vectors, *cfg)?),
        IndexSpec::Hnsw(cfg) => Box::new(HnswIndex::build(vectors, *cfg)?),
    };
    let key_to_row: FxHashMap<String, usize> = keys
        .iter()
        .enumerate()
        .map(|(row, k)| (k.clone(), row))
        .collect();
    Ok(Built {
        name: v.name.clone(),
        version: v.version,
        spec: spec.clone(),
        keys,
        key_to_row,
        index,
    })
}

/// One table's status against one consistent store snapshot.
fn status_of(snapshot: &IndexSnapshot, store: &EmbeddingStore) -> IndexStatus {
    let live_version = store
        .latest(&snapshot.table)
        .map(|v| v.version)
        .unwrap_or(snapshot.built_from_version);
    IndexStatus {
        kind: snapshot.kind.to_string(),
        generation: snapshot.generation,
        built_from_version: snapshot.built_from_version,
        staleness: live_version.saturating_sub(snapshot.built_from_version),
        len: snapshot.len(),
        dim: snapshot.dim(),
    }
}

/// Translate row-id hits into keyed wire hits, dropping `exclude` and
/// trimming the k+1 over-fetch from [`IndexCatalog::search_by_key`].
fn outcome(
    snapshot: &IndexSnapshot,
    hits: Vec<(usize, f32)>,
    exclude: Option<usize>,
) -> SearchOutcome {
    let k = match exclude {
        Some(_) => hits.len().saturating_sub(1),
        None => hits.len(),
    };
    let wire: Vec<WireHit> = hits
        .into_iter()
        .filter(|&(row, _)| Some(row) != exclude)
        .take(k)
        .map(|(row, distance)| WireHit {
            key: snapshot.keys[row].clone(),
            distance,
        })
        .collect();
    SearchOutcome {
        table_version: snapshot.built_from_version,
        index_generation: snapshot.generation,
        hits: wire,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fstore_common::Timestamp;
    use fstore_embed::{EmbeddingProvenance, EmbeddingTable};

    fn store_with(name: &str, rows: &[(&str, Vec<f32>)]) -> EmbeddingDb {
        let store = EmbeddingDb::new();
        publish(&store, name, rows);
        store
    }

    fn publish(store: &EmbeddingDb, name: &str, rows: &[(&str, Vec<f32>)]) {
        let mut t = EmbeddingTable::new(rows[0].1.len()).unwrap();
        for (k, v) in rows {
            t.insert(*k, v.clone()).unwrap();
        }
        store
            .publish(name, t, EmbeddingProvenance::default(), Timestamp::EPOCH)
            .unwrap();
    }

    fn grid_rows() -> Vec<(String, Vec<f32>)> {
        (0..20)
            .map(|i| (format!("e{i:02}"), vec![i as f32, 0.0]))
            .collect()
    }

    fn grid_store() -> EmbeddingDb {
        let rows = grid_rows();
        let borrowed: Vec<(&str, Vec<f32>)> =
            rows.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
        store_with("emb", &borrowed)
    }

    #[test]
    fn build_then_search_maps_rows_to_keys() {
        let catalog = IndexCatalog::new(grid_store());
        catalog.build("emb", &IndexSpec::Flat).unwrap();
        let out = catalog
            .search("emb", &[3.1, 0.0], 3, &SearchParams::default())
            .unwrap();
        assert_eq!(out.table_version, 1);
        assert_eq!(out.index_generation, 1);
        let keys: Vec<&str> = out.hits.iter().map(|h| h.key.as_str()).collect();
        assert_eq!(keys, vec!["e03", "e04", "e02"]);
        for w in out.hits.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn search_by_key_excludes_self() {
        let catalog = IndexCatalog::new(grid_store());
        catalog.build("emb", &IndexSpec::Flat).unwrap();
        let out = catalog
            .search_by_key("emb", "e05", 2, &SearchParams::default())
            .unwrap();
        let keys: Vec<&str> = out.hits.iter().map(|h| h.key.as_str()).collect();
        assert_eq!(keys, vec!["e04", "e06"], "self excluded, neighbours kept");
        assert!(matches!(
            catalog.search_by_key("emb", "ghost", 2, &SearchParams::default()),
            Err(CatalogError::KeyNotFound { .. })
        ));
    }

    #[test]
    fn missing_snapshot_and_bad_dim_are_typed() {
        let catalog = IndexCatalog::new(grid_store());
        assert!(matches!(
            catalog.search("emb", &[0.0, 0.0], 1, &SearchParams::default()),
            Err(CatalogError::IndexNotReady { .. })
        ));
        catalog.build("emb", &IndexSpec::Flat).unwrap();
        assert!(matches!(
            catalog.search("emb", &[0.0; 5], 1, &SearchParams::default()),
            Err(CatalogError::DimensionMismatch {
                expected: 2,
                got: 5
            })
        ));
    }

    #[test]
    fn swap_advances_generation_and_old_arcs_stay_valid() {
        let catalog = Arc::new(IndexCatalog::new(grid_store()));
        catalog.build("emb", &IndexSpec::Flat).unwrap();
        let old = catalog.snapshot("emb").unwrap();
        let handle = catalog.rebuild_in_background(
            "emb",
            IndexSpec::Hnsw(HnswConfig {
                ef_search: 32,
                ..HnswConfig::default()
            }),
        );
        let new_gen = handle.join().unwrap().unwrap();
        assert_eq!(new_gen, 2);
        assert_eq!(catalog.snapshot("emb").unwrap().generation, 2);
        assert_eq!(catalog.snapshot("emb").unwrap().kind, "hnsw");
        // The pre-swap Arc still answers searches.
        assert_eq!(old.generation, 1);
        assert_eq!(old.len(), 20);
        assert_eq!(catalog.swap_count(), 2);
        assert_eq!(catalog.epoch(), ReadEpoch(2));
    }

    #[test]
    fn staleness_tracks_store_versions() {
        let store = grid_store();
        let catalog = IndexCatalog::new(store.clone());
        catalog.build("emb", &IndexSpec::Flat).unwrap();
        assert_eq!(catalog.status("emb").unwrap().staleness, 0);
        // Publish v2; the snapshot is now one version behind.
        let rows = grid_rows();
        let borrowed: Vec<(&str, Vec<f32>)> =
            rows.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
        publish(&store, "emb", &borrowed);
        let status = catalog.status("emb").unwrap();
        assert_eq!(status.built_from_version, 1);
        assert_eq!(status.staleness, 1);
        // Rebuilding catches up.
        catalog.build("emb", &IndexSpec::Flat).unwrap();
        assert_eq!(catalog.status("emb").unwrap().staleness, 0);
    }

    #[test]
    fn metrics_receive_swaps_and_status() {
        let catalog = IndexCatalog::new(grid_store());
        let metrics = Arc::new(ServingMetrics::new());
        catalog.build("emb", &IndexSpec::Flat).unwrap();
        // Attaching after a build back-publishes existing snapshots.
        catalog.attach_metrics(Arc::clone(&metrics));
        let snap = metrics.snapshot();
        assert_eq!(snap.indexes["emb"].kind, "flat");
        assert_eq!(snap.indexes["emb"].generation, 1);
        catalog
            .build("emb", &IndexSpec::Ivf(IvfConfig::default()))
            .unwrap();
        assert_eq!(metrics.index_swaps(), 1, "only post-attach swaps counted");
        assert_eq!(metrics.snapshot().indexes["emb"].kind, "ivf");
    }

    #[test]
    fn qualified_names_pin_the_build_version_but_share_the_key() {
        let store = grid_store();
        let rows = grid_rows();
        let borrowed: Vec<(&str, Vec<f32>)> =
            rows.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
        publish(&store, "emb", &borrowed); // v2
        let catalog = IndexCatalog::new(store);
        catalog.build("emb@v1", &IndexSpec::Flat).unwrap();
        let snap = catalog.snapshot("emb").unwrap();
        assert_eq!(snap.built_from_version, 1);
        // Searching with a qualified name resolves to the same snapshot.
        assert!(catalog
            .search("emb@v1", &[0.0, 0.0], 1, &SearchParams::default())
            .is_ok());
    }

    #[test]
    fn install_replica_pins_version_and_generation() {
        let store = grid_store();
        let rows = grid_rows();
        let borrowed: Vec<(&str, Vec<f32>)> =
            rows.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
        publish(&store, "emb", &borrowed); // v2
        let catalog = IndexCatalog::new(store);
        let snap = catalog
            .install_replica("emb", &IndexSpec::Flat, 1, 5)
            .unwrap();
        assert_eq!(snap.built_from_version, 1);
        assert_eq!(snap.generation, 5);
        assert_eq!(snap.spec, IndexSpec::Flat);
        assert_eq!(catalog.epoch(), ReadEpoch(5));
        let out = catalog
            .search("emb", &[3.1, 0.0], 1, &SearchParams::default())
            .unwrap();
        assert_eq!(out.index_generation, 5);
        assert_eq!(out.table_version, 1);
        // Idempotent re-install at the same generation.
        catalog
            .install_replica("emb", &IndexSpec::Flat, 1, 5)
            .unwrap();
        assert_eq!(catalog.epoch(), ReadEpoch(5));
    }

    #[test]
    fn a_replica_rebuilds_the_leaders_hnsw() {
        use fstore_common::{Rng, Xoshiro256};
        // Enough rows that the build inserts them in batches of many.
        let mut rng = Xoshiro256::seeded(9);
        let mut vector = || (0..8).map(|_| rng.normal() as f32).collect::<Vec<f32>>();
        let rows: Vec<(String, Vec<f32>)> =
            (0..1_500).map(|i| (format!("e{i}"), vector())).collect();
        let queries: Vec<Vec<f32>> = (0..64).map(|_| vector()).collect();
        let borrowed: Vec<(&str, Vec<f32>)> =
            rows.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
        let spec = IndexSpec::Hnsw(HnswConfig {
            m: 8,
            ef_construction: 32,
            ..HnswConfig::default()
        });
        let leader = IndexCatalog::new(store_with("emb", &borrowed));
        let built = leader.build("emb", &spec).unwrap();
        let follower = IndexCatalog::new(store_with("emb", &borrowed));
        follower
            .install_replica("emb", &spec, built.built_from_version, built.generation)
            .unwrap();
        for ef in [1, 16, 64] {
            let params = SearchParams::with_ef(ef);
            for q in &queries {
                let want = leader.search("emb", q, 10, &params).unwrap();
                let got = follower.search("emb", q, 10, &params).unwrap();
                assert_eq!(got.hits, want.hits, "ef {ef}");
                assert_eq!(
                    (got.table_version, got.index_generation),
                    (want.table_version, want.index_generation)
                );
            }
        }
    }

    #[test]
    fn publish_hook_observes_swaps() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let catalog = IndexCatalog::new(grid_store());
        {
            let seen = Arc::clone(&seen);
            catalog.add_publish_hook(move |v| {
                let snap = &v.value["emb"];
                seen.lock()
                    .push((v.epoch.as_u64(), snap.generation, snap.built_from_version));
            });
        }
        catalog.build("emb", &IndexSpec::Flat).unwrap();
        assert_eq!(*seen.lock(), vec![(1, 1, 1)]);
    }

    #[test]
    fn statuses_come_from_one_consistent_view() {
        // publish_all_statuses racing a swapper must always publish a
        // generation the catalog actually swapped in, computed against one
        // map view (the old collect-names-then-relookup scheme could mix
        // views).
        let store = grid_store();
        let catalog = Arc::new(IndexCatalog::new(store.clone()));
        let metrics = Arc::new(ServingMetrics::new());
        catalog.build("emb", &IndexSpec::Flat).unwrap();
        catalog.attach_metrics(Arc::clone(&metrics));

        let swapper = {
            let catalog = Arc::clone(&catalog);
            std::thread::spawn(move || {
                for _ in 0..20 {
                    catalog.build("emb", &IndexSpec::Flat).unwrap();
                }
            })
        };
        for _ in 0..50 {
            catalog.publish_all_statuses();
            let snap = metrics.snapshot();
            let status = &snap.indexes["emb"];
            assert!(status.generation >= 1 && status.generation <= 21);
            assert_eq!(status.len, 20);
        }
        swapper.join().unwrap();
    }
}
