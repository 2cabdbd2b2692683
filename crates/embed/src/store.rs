//! The embedding store: named, versioned embedding tables with provenance
//! and downstream-consumer lineage (paper §3.1.2 and §4: versioning,
//! provenance, and understanding which systems an embedding update hits).

use crate::spill::VectorPager;
use fstore_common::hash::FxHashMap;
use fstore_common::{FsError, Result, Timestamp, VectorBuf};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Provenance carried by every published embedding version.
#[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq)]
pub struct EmbeddingProvenance {
    /// Trainer identifier (e.g. `"sgns"`, `"kg-sgns"`).
    pub trainer: String,
    /// Trainer hyper-parameters as JSON.
    pub config: String,
    /// Hash of the training corpus (content fingerprint).
    pub corpus_hash: u64,
    /// Seed the trainer ran with.
    pub seed: u64,
    /// Parent version this one was derived from (e.g. by patching), if any.
    pub parent: Option<u32>,
    /// Free-form notes ("patched rows for slice X", …).
    pub notes: String,
}

/// How a table's rows are stored.
///
/// `Resident` keeps every row in memory as a shared `Arc<[f32]>` (so a
/// read and a table clone are refcount bumps, never vector copies).
/// `Spilled` keeps the rows on disk behind a [`VectorPager`] — reads
/// fault blocks through the tier cache. Tables are immutable either way;
/// mutation helpers materialize a resident copy first.
#[derive(Debug, Clone)]
enum TableRepr {
    Resident(FxHashMap<String, Arc<[f32]>>),
    Spilled(Arc<dyn VectorPager>),
}

/// One immutable embedding table: entity key → dense vector.
#[derive(Debug, Clone)]
pub struct EmbeddingTable {
    dim: usize,
    repr: TableRepr,
}

impl EmbeddingTable {
    pub fn new(dim: usize) -> Result<Self> {
        if dim == 0 {
            return Err(FsError::Embedding(
                "embedding dimension must be positive".into(),
            ));
        }
        Ok(EmbeddingTable {
            dim,
            repr: TableRepr::Resident(FxHashMap::default()),
        })
    }

    /// Wrap a spilled table around a pager (the tier crate's demotion
    /// path). The pager's row order fixes the key set; the table itself
    /// holds no vector data.
    pub fn from_pager(pager: Arc<dyn VectorPager>) -> Result<Self> {
        let dim = pager.dim();
        if dim == 0 {
            return Err(FsError::Embedding(
                "embedding dimension must be positive".into(),
            ));
        }
        Ok(EmbeddingTable {
            dim,
            repr: TableRepr::Spilled(pager),
        })
    }

    /// True when rows live on disk behind a pager.
    pub fn is_spilled(&self) -> bool {
        matches!(self.repr, TableRepr::Spilled(_))
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    pub fn len(&self) -> usize {
        match &self.repr {
            TableRepr::Resident(vectors) => vectors.len(),
            TableRepr::Spilled(pager) => pager.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident vector payload bytes (`0` for a spilled table — its cached
    /// blocks are accounted by the tier cache, not per table).
    pub fn resident_vector_bytes(&self) -> u64 {
        match &self.repr {
            TableRepr::Resident(vectors) => (vectors.len() * self.dim * 4) as u64,
            TableRepr::Spilled(_) => 0,
        }
    }

    /// The pager behind a spilled table, if any.
    pub fn pager(&self) -> Option<&Arc<dyn VectorPager>> {
        match &self.repr {
            TableRepr::Resident(_) => None,
            TableRepr::Spilled(pager) => Some(pager),
        }
    }

    pub fn insert(&mut self, key: impl Into<String>, vector: Vec<f32>) -> Result<()> {
        if vector.len() != self.dim {
            return Err(FsError::Embedding(format!(
                "vector dim {} != table dim {}",
                vector.len(),
                self.dim
            )));
        }
        self.make_resident()?;
        let TableRepr::Resident(vectors) = &mut self.repr else {
            unreachable!("make_resident leaves a resident repr");
        };
        vectors.insert(key.into(), vector.into());
        Ok(())
    }

    /// Borrow one resident row. Spilled tables return `None` — faulting a
    /// row produces a [`VectorBuf`] that cannot be lent out as a plain
    /// borrow, so paths that must work on both representations use
    /// [`EmbeddingTable::fetch`].
    pub fn get(&self, key: &str) -> Option<&[f32]> {
        match &self.repr {
            TableRepr::Resident(vectors) => vectors.get(key).map(|v| &v[..]),
            TableRepr::Spilled(_) => None,
        }
    }

    /// Read one row regardless of representation: a refcount bump on a
    /// resident row, a (possibly cached) block fault on a spilled one.
    /// `Ok(None)` means the key is absent; `Err` is an I/O or corruption
    /// failure from the pager.
    pub fn fetch(&self, key: &str) -> Result<Option<VectorBuf>> {
        match &self.repr {
            TableRepr::Resident(vectors) => Ok(vectors
                .get(key)
                .map(|v| VectorBuf::from_block(Arc::clone(v)))),
            TableRepr::Spilled(pager) => match pager.row_of(key) {
                Some(row) => pager.fetch_row(row).map(Some),
                None => Ok(None),
            },
        }
    }

    /// Entity keys in sorted order (deterministic iteration).
    pub fn keys(&self) -> Vec<&str> {
        match &self.repr {
            TableRepr::Resident(vectors) => {
                let mut ks: Vec<&str> = vectors.keys().map(String::as_str).collect();
                ks.sort_unstable();
                ks
            }
            TableRepr::Spilled(pager) => pager.keys().iter().map(String::as_str).collect(),
        }
    }

    pub(crate) fn contains(&self, key: &str) -> bool {
        match &self.repr {
            TableRepr::Resident(vectors) => vectors.contains_key(key),
            TableRepr::Spilled(pager) => pager.row_of(key).is_some(),
        }
    }

    /// f64 copy of one vector (model-input boundary). Faults through the
    /// pager on a spilled table; pager failures read as absent.
    pub fn get_f64(&self, key: &str) -> Option<Vec<f64>> {
        self.fetch(key)
            .ok()
            .flatten()
            .map(|v| v.iter().map(|&x| f64::from(x)).collect())
    }

    /// Exact k-nearest neighbours of `key` by cosine (brute force — the ANN
    /// indexes in `fstore-index` are the scale path). On a spilled table
    /// this is the exact-rerank path: the scan faults blocks through the
    /// tier cache rather than loading the version whole.
    pub(crate) fn nearest(&self, key: &str, k: usize) -> Result<Vec<(String, f64)>> {
        let q = self
            .fetch(key)?
            .ok_or_else(|| FsError::not_found("embedding", key.to_string()))?;
        let mut scored: Vec<(String, f64)> = match &self.repr {
            TableRepr::Resident(vectors) => vectors
                .iter()
                .filter(|(name, _)| name.as_str() != key)
                .map(|(name, v)| (name.clone(), cosine32(&q, v)))
                .collect(),
            TableRepr::Spilled(pager) => {
                let mut scored = Vec::with_capacity(pager.len().saturating_sub(1));
                for (row, name) in pager.keys().iter().enumerate() {
                    if name == key {
                        continue;
                    }
                    let v = pager.fetch_row(row)?;
                    scored.push((name.clone(), cosine32(&q, &v)));
                }
                scored
            }
        };
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        scored.truncate(k);
        Ok(scored)
    }

    /// All rows as parallel `(keys, vectors)` in sorted-key order — the
    /// deterministic export an ANN index build consumes (row id `i` in the
    /// index is `keys[i]` here).
    ///
    /// On a spilled table this streams every block through the pager; an
    /// unreadable segment panics, because the segment is CRC-guarded
    /// derived state whose loss is as fatal here as a failed allocation
    /// (fallible callers can use `EmbeddingTable::try_export_rows`).
    pub fn export_rows(&self) -> (Vec<String>, Vec<Vec<f32>>) {
        self.try_export_rows()
            .expect("spilled embedding segment unreadable")
    }

    /// Fallible twin of [`EmbeddingTable::export_rows`].
    pub(crate) fn try_export_rows(&self) -> Result<(Vec<String>, Vec<Vec<f32>>)> {
        match &self.repr {
            TableRepr::Resident(vectors) => {
                let mut keys: Vec<&String> = vectors.keys().collect();
                keys.sort_unstable();
                let rows = keys.iter().map(|k| vectors[*k].to_vec()).collect();
                Ok((keys.into_iter().cloned().collect(), rows))
            }
            TableRepr::Spilled(pager) => {
                let keys = pager.keys().to_vec();
                let mut rows = Vec::with_capacity(keys.len());
                for row in 0..keys.len() {
                    rows.push(pager.fetch_row(row)?.into_vec());
                }
                Ok((keys, rows))
            }
        }
    }

    /// Overwrite a row (returns the previous vector). Used by patching;
    /// note the *store* keeps tables immutable — patch a copy, then publish.
    pub fn replace(&mut self, key: &str, vector: Vec<f32>) -> Result<Option<Vec<f32>>> {
        if vector.len() != self.dim {
            return Err(FsError::Embedding(
                "replacement vector has wrong dim".into(),
            ));
        }
        self.make_resident()?;
        let TableRepr::Resident(vectors) = &mut self.repr else {
            unreachable!("make_resident leaves a resident repr");
        };
        Ok(vectors
            .insert(key.to_string(), vector.into())
            .map(|old| old.to_vec()))
    }

    /// Promote a spilled table to a fully-resident one (no-op when already
    /// resident). Mutating helpers call this so "clone an old version,
    /// patch it, publish" keeps working even when the clone was spilled.
    pub(crate) fn make_resident(&mut self) -> Result<()> {
        let TableRepr::Spilled(pager) = &self.repr else {
            return Ok(());
        };
        let mut vectors = FxHashMap::with_capacity_and_hasher(pager.len(), Default::default());
        for (row, key) in pager.keys().iter().enumerate() {
            let v = pager.fetch_row(row)?;
            vectors.insert(key.clone(), Arc::from(v.as_slice()));
        }
        self.repr = TableRepr::Resident(vectors);
        Ok(())
    }
}

fn cosine32(a: &[f32], b: &[f32]) -> f64 {
    let mut dot = 0.0f64;
    let mut na = 0.0f64;
    let mut nb = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        dot += f64::from(x) * f64::from(y);
        na += f64::from(x) * f64::from(x);
        nb += f64::from(y) * f64::from(y);
    }
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

/// A published, immutable version of an embedding.
#[derive(Debug, Clone)]
pub struct EmbeddingVersion {
    pub name: String,
    pub version: u32,
    pub created_at: Timestamp,
    pub provenance: EmbeddingProvenance,
    pub table: EmbeddingTable,
    /// Downstream consumers registered against this version (model names).
    pub consumers: Vec<String>,
}

impl EmbeddingVersion {
    pub fn qualified_name(&self) -> String {
        format!("{}@v{}", self.name, self.version)
    }
}

/// The versioned catalog of embeddings.
///
/// Versions are immutable once published and shared via `Arc`, so `Clone`
/// is O(#versions) pointer bumps — cheap enough that the serving layer
/// republishes the whole store as an immutable snapshot on every change
/// (see [`crate::EmbeddingDb`]).
#[derive(Debug, Default, Clone)]
pub struct EmbeddingStore {
    embeddings: BTreeMap<String, Vec<Arc<EmbeddingVersion>>>,
}

impl EmbeddingStore {
    pub fn new() -> Self {
        EmbeddingStore::default()
    }

    /// Publish a table as the next version of `name`.
    pub fn publish(
        &mut self,
        name: impl Into<String>,
        table: EmbeddingTable,
        provenance: EmbeddingProvenance,
        now: Timestamp,
    ) -> Result<String> {
        if table.is_empty() {
            return Err(FsError::Embedding(
                "refusing to publish an empty embedding".into(),
            ));
        }
        let name = name.into();
        let versions = self.embeddings.entry(name.clone()).or_default();
        if let Some(prev) = versions.last() {
            if prev.table.dim() != table.dim() {
                // Dimension changes are allowed but recorded loudly in notes —
                // downstream dot products against old model weights break
                // (§4's "dot product … can lose meaning").
            }
        }
        let version = versions.last().map_or(1, |v| v.version + 1);
        let v = EmbeddingVersion {
            name: name.clone(),
            version,
            created_at: now,
            provenance,
            table,
            consumers: Vec::new(),
        };
        let qualified = v.qualified_name();
        versions.push(Arc::new(v));
        Ok(qualified)
    }

    pub fn latest(&self, name: &str) -> Result<&EmbeddingVersion> {
        self.embeddings
            .get(name)
            .and_then(|v| v.last())
            .map(|v| v.as_ref())
            .ok_or_else(|| FsError::not_found("embedding", name.to_string()))
    }

    pub fn get(&self, name: &str, version: u32) -> Result<&EmbeddingVersion> {
        self.embeddings
            .get(name)
            .and_then(|v| v.iter().find(|e| e.version == version))
            .map(|v| v.as_ref())
            .ok_or_else(|| FsError::not_found("embedding version", format!("{name}@v{version}")))
    }

    /// Resolve `"name@vN"` or plain `"name"` (latest).
    pub fn resolve(&self, qualified: &str) -> Result<&EmbeddingVersion> {
        match qualified.rsplit_once("@v") {
            Some((name, v)) => {
                let version: u32 = v.parse().map_err(|_| {
                    FsError::InvalidArgument(format!("bad embedding version in `{qualified}`"))
                })?;
                self.get(name, version)
            }
            None => self.latest(qualified),
        }
    }

    pub fn list(&self) -> Vec<&EmbeddingVersion> {
        self.embeddings
            .values()
            .filter_map(|v| v.last())
            .map(|v| v.as_ref())
            .collect()
    }

    /// Replication: adopt a fully formed version — exact version number,
    /// timestamp, provenance, and consumer list — as shipped by a leader.
    /// Replaces the version if it already exists (idempotent re-apply) and
    /// keeps the per-name version list ordered.
    pub fn install_version(&mut self, version: EmbeddingVersion) -> Result<()> {
        if version.table.is_empty() {
            return Err(FsError::Embedding(
                "refusing to install an empty embedding".into(),
            ));
        }
        let versions = self.embeddings.entry(version.name.clone()).or_default();
        match versions.iter().position(|v| v.version >= version.version) {
            Some(i) if versions[i].version == version.version => {
                versions[i] = Arc::new(version);
            }
            Some(i) => versions.insert(i, Arc::new(version)),
            None => versions.push(Arc::new(version)),
        }
        Ok(())
    }

    /// Every version of every name, in (name, version) order. The tier
    /// demoter walks this to decide what is resident and what to spill;
    /// the `Arc`s let it hold candidates without borrowing the snapshot.
    pub fn iter_versions(&self) -> impl Iterator<Item = &Arc<EmbeddingVersion>> + '_ {
        self.embeddings.values().flatten()
    }

    /// Record that `model` consumes `name@vN` (lineage for E12).
    pub fn register_consumer(&mut self, qualified: &str, model: impl Into<String>) -> Result<()> {
        let (name, version) = parse_qualified(qualified)?;
        let versions = self
            .embeddings
            .get_mut(name)
            .ok_or_else(|| FsError::not_found("embedding", name.to_string()))?;
        let v = versions
            .iter_mut()
            .find(|e| e.version == version)
            .ok_or_else(|| FsError::not_found("embedding version", qualified.to_string()))?;
        // Copy-on-write: snapshots sharing this version keep their original
        // consumer list.
        Arc::make_mut(v).consumers.push(model.into());
        Ok(())
    }

    /// Consumers registered against a version.
    pub fn consumers(&self, qualified: &str) -> Result<&[String]> {
        let (name, version) = parse_qualified(qualified)?;
        Ok(&self.get(name, version)?.consumers)
    }
}

fn parse_qualified(qualified: &str) -> Result<(&str, u32)> {
    let (name, v) = qualified.rsplit_once("@v").ok_or_else(|| {
        FsError::InvalidArgument(format!("expected `name@vN`, got `{qualified}`"))
    })?;
    let version = v
        .parse()
        .map_err(|_| FsError::InvalidArgument(format!("bad version in `{qualified}`")))?;
    Ok((name, version))
}

#[cfg(test)]
impl EmbeddingTable {
    /// Cosine similarity between two stored entities: the reference the
    /// trainers' tests measure learned structure with.
    pub(crate) fn cosine(&self, a: &str, b: &str) -> Result<f64> {
        let va = self
            .fetch(a)?
            .ok_or_else(|| FsError::not_found("embedding", a.to_string()))?;
        let vb = self
            .fetch(b)?
            .ok_or_else(|| FsError::not_found("embedding", b.to_string()))?;
        Ok(cosine32(&va, &vb))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn versions(store: &EmbeddingStore, name: &str) -> Vec<u32> {
        store.embeddings[name].iter().map(|e| e.version).collect()
    }

    fn table(entries: &[(&str, Vec<f32>)]) -> EmbeddingTable {
        let mut t = EmbeddingTable::new(entries[0].1.len()).unwrap();
        for (k, v) in entries {
            t.insert(*k, v.clone()).unwrap();
        }
        t
    }

    #[test]
    fn table_insert_get_dims() {
        let mut t = EmbeddingTable::new(3).unwrap();
        t.insert("a", vec![1.0, 0.0, 0.0]).unwrap();
        assert!(t.insert("b", vec![1.0]).is_err());
        assert_eq!(t.get("a"), Some(&[1.0, 0.0, 0.0][..]));
        assert_eq!(t.get("ghost"), None);
        assert_eq!(t.get_f64("a"), Some(vec![1.0, 0.0, 0.0]));
        assert!(EmbeddingTable::new(0).is_err());
    }

    #[test]
    fn cosine_and_nearest() {
        let t = table(&[
            ("x", vec![1.0, 0.0]),
            ("same", vec![2.0, 0.0]),
            ("orth", vec![0.0, 1.0]),
            ("anti", vec![-1.0, 0.0]),
        ]);
        let nn = t.nearest("x", 2).unwrap();
        assert_eq!(nn[0].0, "same");
        assert_eq!(nn[1].0, "orth");
        assert!(t.nearest("ghost", 1).is_err());
    }

    #[test]
    fn export_rows_is_sorted_and_aligned() {
        let t = table(&[
            ("b", vec![2.0, 0.0]),
            ("a", vec![1.0, 0.0]),
            ("c", vec![3.0, 0.0]),
        ]);
        let (keys, vectors) = t.export_rows();
        assert_eq!(keys, vec!["a", "b", "c"]);
        for (k, v) in keys.iter().zip(&vectors) {
            assert_eq!(t.get(k), Some(v.as_slice()));
        }
    }

    #[test]
    fn zero_vector_cosine_is_zero() {
        assert_eq!(cosine32(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }

    #[test]
    fn publish_and_resolve_versions() {
        let mut store = EmbeddingStore::new();
        let t1 = table(&[("a", vec![1.0, 0.0])]);
        let q1 = store
            .publish(
                "words",
                t1,
                EmbeddingProvenance::default(),
                Timestamp::millis(1),
            )
            .unwrap();
        assert_eq!(q1, "words@v1");
        let t2 = table(&[("a", vec![0.0, 1.0])]);
        let q2 = store
            .publish(
                "words",
                t2,
                EmbeddingProvenance::default(),
                Timestamp::millis(2),
            )
            .unwrap();
        assert_eq!(q2, "words@v2");

        assert_eq!(store.latest("words").unwrap().version, 2);
        assert_eq!(
            store.get("words", 1).unwrap().table.get("a"),
            Some(&[1.0, 0.0][..])
        );
        assert_eq!(store.resolve("words@v1").unwrap().version, 1);
        assert_eq!(store.resolve("words").unwrap().version, 2);
        assert_eq!(versions(&store, "words"), vec![1, 2]);
        assert!(store.resolve("words@vX").is_err());
        assert!(store.latest("ghost").is_err());
    }

    #[test]
    fn empty_table_rejected() {
        let mut store = EmbeddingStore::new();
        let t = EmbeddingTable::new(2).unwrap();
        assert!(store
            .publish("e", t, EmbeddingProvenance::default(), Timestamp::EPOCH)
            .is_err());
    }

    #[test]
    fn consumer_lineage() {
        let mut store = EmbeddingStore::new();
        store
            .publish(
                "ent",
                table(&[("a", vec![1.0])]),
                EmbeddingProvenance::default(),
                Timestamp::EPOCH,
            )
            .unwrap();
        store.register_consumer("ent@v1", "search_ranker").unwrap();
        store.register_consumer("ent@v1", "dedup_model").unwrap();
        assert_eq!(store.consumers("ent@v1").unwrap().len(), 2);
        assert!(store.register_consumer("ent@v9", "m").is_err());
        assert!(
            store.register_consumer("ent", "m").is_err(),
            "must pin a version"
        );
    }

    #[test]
    fn install_version_upserts_in_order() {
        let mut store = EmbeddingStore::new();
        let v = |n: u32, val: f32| EmbeddingVersion {
            name: "e".into(),
            version: n,
            created_at: Timestamp::millis(i64::from(n)),
            provenance: EmbeddingProvenance::default(),
            table: table(&[("a", vec![val])]),
            consumers: vec![format!("m{n}")],
        };
        store.install_version(v(2, 2.0)).unwrap();
        store.install_version(v(1, 1.0)).unwrap();
        assert_eq!(versions(&store, "e"), vec![1, 2]);
        assert_eq!(store.latest("e").unwrap().version, 2);
        assert_eq!(store.consumers("e@v2").unwrap(), ["m2"]);
        // Re-install replaces in place (at-least-once replay).
        store.install_version(v(2, 9.0)).unwrap();
        assert_eq!(versions(&store, "e"), vec![1, 2]);
        assert_eq!(store.latest("e").unwrap().table.get("a"), Some(&[9.0][..]));
        // Ordinary publication continues after the installed versions.
        let q = store
            .publish(
                "e",
                table(&[("a", vec![3.0])]),
                EmbeddingProvenance::default(),
                Timestamp::millis(3),
            )
            .unwrap();
        assert_eq!(q, "e@v3");
    }

    #[test]
    fn provenance_is_preserved() {
        let mut store = EmbeddingStore::new();
        let prov = EmbeddingProvenance {
            trainer: "sgns".into(),
            config: "{\"dim\":64}".into(),
            corpus_hash: 0xdead,
            seed: 7,
            parent: None,
            notes: "initial".into(),
        };
        store
            .publish(
                "e",
                table(&[("a", vec![1.0])]),
                prov.clone(),
                Timestamp::millis(5),
            )
            .unwrap();
        let v = store.latest("e").unwrap();
        assert_eq!(v.provenance, prov);
        assert_eq!(v.created_at, Timestamp::millis(5));
    }

    /// In-memory pager: rows held as one flat block, faulted by window —
    /// the shape `fstore-tier` serves from disk, minus the disk.
    #[derive(Debug)]
    struct MemPager {
        dim: usize,
        keys: Vec<String>,
        block: Arc<[f32]>,
        fail: bool,
    }

    impl MemPager {
        fn from_table(t: &EmbeddingTable) -> MemPager {
            let (keys, rows) = t.export_rows();
            let block: Vec<f32> = rows.into_iter().flatten().collect();
            MemPager {
                dim: t.dim(),
                keys,
                block: block.into(),
                fail: false,
            }
        }
    }

    impl crate::spill::VectorPager for MemPager {
        fn dim(&self) -> usize {
            self.dim
        }
        fn len(&self) -> usize {
            self.keys.len()
        }
        fn keys(&self) -> &[String] {
            &self.keys
        }
        fn row_of(&self, key: &str) -> Option<usize> {
            self.keys.binary_search_by(|k| k.as_str().cmp(key)).ok()
        }
        fn fetch_row(&self, row: usize) -> Result<fstore_common::VectorBuf> {
            if self.fail {
                return Err(FsError::Storage("pager offline".into()));
            }
            Ok(fstore_common::VectorBuf::window(
                Arc::clone(&self.block),
                row * self.dim,
                self.dim,
            ))
        }
        fn spilled_bytes(&self) -> u64 {
            (self.block.len() * 4) as u64
        }
        fn resident_overhead_bytes(&self) -> u64 {
            self.keys.iter().map(|k| k.len() as u64).sum()
        }
    }

    fn spilled_twin(t: &EmbeddingTable) -> EmbeddingTable {
        EmbeddingTable::from_pager(Arc::new(MemPager::from_table(t))).unwrap()
    }

    #[test]
    fn spilled_table_answers_identically() {
        let resident = table(&[
            ("b", vec![2.0, 0.5]),
            ("a", vec![1.0, -1.0]),
            ("c", vec![0.0, 3.0]),
        ]);
        let spilled = spilled_twin(&resident);
        assert!(spilled.is_spilled() && !resident.is_spilled());
        assert_eq!(spilled.len(), 3);
        assert_eq!(spilled.dim(), 2);
        assert_eq!(spilled.keys(), resident.keys());
        assert_eq!(spilled.resident_vector_bytes(), 0);
        assert_eq!(resident.resident_vector_bytes(), 24);

        // `get` is resident-only; `fetch` is the unified read.
        assert_eq!(spilled.get("a"), None);
        assert_eq!(
            spilled.fetch("a").unwrap().unwrap().as_slice(),
            resident.fetch("a").unwrap().unwrap().as_slice()
        );
        assert!(spilled.fetch("ghost").unwrap().is_none());
        assert!(spilled.contains("b") && !spilled.contains("ghost"));
        assert_eq!(spilled.get_f64("c"), resident.get_f64("c"));
        assert_eq!(
            spilled.nearest("a", 2).unwrap(),
            resident.nearest("a", 2).unwrap()
        );
        assert_eq!(spilled.export_rows(), resident.export_rows());
    }

    #[test]
    fn spilled_table_mutation_materializes_first() {
        let resident = table(&[("a", vec![1.0, 0.0]), ("b", vec![0.0, 1.0])]);
        let mut patched = spilled_twin(&resident);
        let old = patched.replace("a", vec![5.0, 5.0]).unwrap();
        assert_eq!(old, Some(vec![1.0, 0.0]));
        assert!(!patched.is_spilled(), "mutation promotes to resident");
        assert_eq!(patched.get("a"), Some(&[5.0, 5.0][..]));
        assert_eq!(patched.get("b"), Some(&[0.0, 1.0][..]));

        let mut grown = spilled_twin(&resident);
        grown.insert("c", vec![2.0, 2.0]).unwrap();
        assert_eq!(grown.len(), 3);
        assert!(!grown.is_spilled());
    }

    #[test]
    fn spilled_pager_errors_surface() {
        let resident = table(&[("a", vec![1.0]), ("b", vec![2.0])]);
        let mut pager = MemPager::from_table(&resident);
        pager.fail = true;
        let t = EmbeddingTable::from_pager(Arc::new(pager)).unwrap();
        assert!(t.fetch("a").is_err());
        assert!(t.nearest("a", 1).is_err());
        assert!(t.try_export_rows().is_err());
        assert_eq!(t.get_f64("a"), None, "infallible reads degrade to absent");
    }

    #[test]
    fn iter_versions_walks_everything() {
        let mut store = EmbeddingStore::new();
        for name in ["x", "y"] {
            for val in [1.0f32, 2.0] {
                store
                    .publish(
                        name,
                        table(&[("a", vec![val])]),
                        EmbeddingProvenance::default(),
                        Timestamp::EPOCH,
                    )
                    .unwrap();
            }
        }
        let seen: Vec<String> = store.iter_versions().map(|v| v.qualified_name()).collect();
        assert_eq!(seen, vec!["x@v1", "x@v2", "y@v1", "y@v2"]);
    }

    #[test]
    fn replace_patches_rows() {
        let mut t = table(&[("a", vec![1.0, 0.0])]);
        let old = t.replace("a", vec![0.0, 1.0]).unwrap();
        assert_eq!(old, Some(vec![1.0, 0.0]));
        assert_eq!(t.get("a"), Some(&[0.0, 1.0][..]));
        assert!(t.replace("a", vec![1.0]).is_err());
        assert_eq!(t.replace("new", vec![1.0, 1.0]).unwrap(), None);
    }
}
