//! Delta and snapshot payloads: what crosses the wire *and* what lands on
//! disk.
//!
//! The publication log ([`fstore_common::PubLog`]) and the WAL both store
//! delta bodies as opaque JSON strings (one string, encoded once); this
//! module defines the per-component body types, the publish tap that diffs
//! publications into them, and the apply functions followers and crash
//! recovery use to replay them. Full snapshots — what a follower bootstraps from and what
//! a checkpoint holds — are binary (see [`encode_snapshot`]). (It lives
//! here rather than in `fstore-repl` so durability does not depend on
//! replication; `fstore-repl` re-exports it.) Three invariants keep
//! at-least-once delivery — and WAL replay over a checkpoint, which is the
//! same re-delivery problem — safe:
//!
//! * **applies are idempotent** — re-delivering a delta a follower already
//!   holds is a no-op (appends carry their start row, version installs
//!   upsert, index builds pin their generation, online puts overwrite);
//! * **epochs ride outside the body** — the follower installs each body at
//!   the leader-dictated component epoch from the [`DeltaRecord`], never a
//!   locally minted one;
//! * **indexes ship as build instructions** — an index is a deterministic
//!   function of `(table@version, spec)` because specs carry fixed seeds,
//!   so followers rebuild instead of deserializing index bytes.
//!
//! [`DeltaRecord`]: fstore_common::DeltaRecord

use crate::fseb::{decode_blob, encode_blob};
use crate::leader::LeaderParts;
use bytes::{BufMut, BytesMut};
use fstore_common::{
    ComponentKind, DeltaRecord, EntityKey, FieldDef, FsError, ReadEpoch, Result, Schema, Timestamp,
    Value, ValueType, Versioned,
};
use fstore_embed::{
    EmbeddingDb, EmbeddingProvenance, EmbeddingStore, EmbeddingTable, EmbeddingVersion,
};
use fstore_index::{HnswConfig, IvfConfig};
use fstore_serve::codec::{put_str, put_str_seq, Reader};
use fstore_serve::protocol::{put_value, take_value};
use fstore_serve::{IndexCatalog, IndexMap, IndexSpec, WireError};
use fstore_storage::{OfflineDb, OfflineStore, OnlineStore, ScanRequest, TableConfig};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Encode any body as its wire JSON.
pub fn encode<T: Serialize>(body: &T) -> Result<String> {
    serde_json::to_string(body).map_err(|e| FsError::Serde(e.to_string()))
}

/// Decode a wire JSON body.
pub(crate) fn decode<T: Deserialize>(body: &str) -> Result<T> {
    serde_json::from_str(body).map_err(|e| FsError::Serde(e.to_string()))
}

/// The CRC block envelope (`magic | crc32(body) LE | body`) every durable
/// binary artifact shares — snapshot caches, embedding blobs — re-exported
/// from the wire codec so there is exactly one implementation of the
/// framing.
pub use fstore_serve::codec::crc_block;

// ---------------------------------------------------------------------------
// Offline store
// ---------------------------------------------------------------------------

/// One schema field on the wire ([`FieldDef`] itself does not serialize).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct FieldRepr {
    pub(crate) name: String,
    pub(crate) ty: ValueType,
    pub(crate) nullable: bool,
}

/// A full offline table: configuration plus every row. Used when a table
/// is new, reconfigured, or otherwise not reachable by appending.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct TableRepr {
    pub(crate) name: String,
    pub(crate) fields: Vec<FieldRepr>,
    pub(crate) time_column: Option<String>,
    pub(crate) segment_rows: usize,
    pub(crate) rows: Vec<Vec<Value>>,
}

/// Rows appended to an existing table. `start_row` is the table's row
/// count before the append, which is what makes re-delivery idempotent:
/// an applier that already holds some or all of these rows skips them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct TableAppend {
    pub(crate) table: String,
    pub(crate) start_row: usize,
    pub(crate) rows: Vec<Vec<Value>>,
}

/// What changed between two offline-store snapshots.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub(crate) struct OfflineDelta {
    pub(crate) drops: Vec<String>,
    pub(crate) replaces: Vec<TableRepr>,
    pub(crate) appends: Vec<TableAppend>,
}

/// Capture one table wholesale.
pub(crate) fn table_repr(store: &OfflineStore, name: &str) -> Result<TableRepr> {
    let fields = store
        .schema(name)?
        .fields()
        .iter()
        .map(|f| FieldRepr {
            name: f.name.clone(),
            ty: f.ty,
            nullable: f.nullable,
        })
        .collect();
    Ok(TableRepr {
        name: name.to_string(),
        fields,
        time_column: store.time_column(name)?,
        segment_rows: store.segment_rows(name)?,
        rows: store.scan(name, &ScanRequest::all())?.rows,
    })
}

fn create_from_repr(store: &mut OfflineStore, repr: &TableRepr) -> Result<()> {
    let schema = Schema::new(
        repr.fields
            .iter()
            .map(|f| FieldDef {
                name: f.name.clone(),
                ty: f.ty,
                nullable: f.nullable,
            })
            .collect(),
    )?;
    let mut config = TableConfig::new(schema).with_segment_rows(repr.segment_rows);
    if let Some(col) = &repr.time_column {
        config = config.with_time_column(col.clone());
    }
    store.create_table(&repr.name, config)?;
    for row in &repr.rows {
        store.append(&repr.name, row)?;
    }
    Ok(())
}

fn table_config_matches(base: &OfflineStore, new: &OfflineStore, name: &str) -> Result<bool> {
    Ok(base.schema(name)? == new.schema(name)?
        && base.time_column(name)? == new.time_column(name)?
        && base.segment_rows(name)? == new.segment_rows(name)?)
}

/// Diff two offline snapshots into a replayable delta. The store is
/// append-only within a table, so a grown table whose configuration is
/// unchanged ships only its tail rows; everything else ships wholesale.
pub(crate) fn diff_offline(base: &OfflineStore, new: &OfflineStore) -> Result<OfflineDelta> {
    let mut delta = OfflineDelta::default();
    for name in base.table_names() {
        if !new.has_table(name) {
            delta.drops.push(name.to_string());
        }
    }
    for name in new.table_names() {
        if !base.has_table(name) || !table_config_matches(base, new, name)? {
            delta.replaces.push(table_repr(new, name)?);
            continue;
        }
        let base_rows = base.num_rows(name)?;
        let new_rows = new.num_rows(name)?;
        if new_rows < base_rows {
            delta.replaces.push(table_repr(new, name)?);
        } else if new_rows > base_rows {
            let rows = new.scan(name, &ScanRequest::all())?.rows;
            delta.appends.push(TableAppend {
                table: name.to_string(),
                start_row: base_rows,
                rows: rows[base_rows..].to_vec(),
            });
        }
    }
    delta.drops.sort();
    delta.replaces.sort_by(|a, b| a.name.cmp(&b.name));
    delta.appends.sort_by(|a, b| a.table.cmp(&b.table));
    Ok(delta)
}

/// Replay an offline delta. Idempotent under re-delivery; a state the
/// delta cannot possibly apply to (rows missing below an append's start
/// row) is an error — the follower treats it as corruption and falls back
/// to a full snapshot.
pub(crate) fn apply_offline(store: &mut OfflineStore, delta: &OfflineDelta) -> Result<()> {
    for name in &delta.drops {
        if store.has_table(name) {
            store.drop_table(name)?;
        }
    }
    for repr in &delta.replaces {
        if store.has_table(&repr.name) {
            store.drop_table(&repr.name)?;
        }
        create_from_repr(store, repr)?;
    }
    for append in &delta.appends {
        let have = store.num_rows(&append.table)?;
        if have < append.start_row {
            return Err(FsError::Storage(format!(
                "replica table `{}` has {have} rows but the delta starts at row {}",
                append.table, append.start_row
            )));
        }
        let already = have - append.start_row;
        for row in append.rows.iter().skip(already) {
            store.append(&append.table, row)?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Embedding catalog
// ---------------------------------------------------------------------------

/// One embedding version, flattened for the wire. Rows are exported in
/// sorted key order, so equal stores produce equal reprs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VersionRepr {
    pub name: String,
    pub version: u32,
    pub created_at: Timestamp,
    pub provenance: EmbeddingProvenance,
    pub dim: usize,
    pub keys: Vec<String>,
    pub vectors: Vec<Vec<f32>>,
    pub consumers: Vec<String>,
}

/// The embedding versions touched by one publication.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub(crate) struct EmbeddingsDelta {
    pub(crate) versions: Vec<VersionRepr>,
}

/// Flatten one version.
pub(crate) fn version_repr(v: &EmbeddingVersion) -> VersionRepr {
    let (keys, vectors) = v.table.export_rows();
    VersionRepr {
        name: v.name.clone(),
        version: v.version,
        created_at: v.created_at,
        provenance: v.provenance.clone(),
        dim: v.table.dim(),
        keys,
        vectors,
        consumers: v.consumers.clone(),
    }
}

/// Rebuild a version from its repr.
pub(crate) fn version_from_repr(r: &VersionRepr) -> Result<EmbeddingVersion> {
    if r.keys.len() != r.vectors.len() {
        return Err(FsError::Serde(format!(
            "embedding repr `{}@v{}`: {} keys but {} vectors",
            r.name,
            r.version,
            r.keys.len(),
            r.vectors.len()
        )));
    }
    let mut table = EmbeddingTable::new(r.dim)?;
    for (key, vector) in r.keys.iter().zip(&r.vectors) {
        table.insert(key.clone(), vector.clone())?;
    }
    Ok(EmbeddingVersion {
        name: r.name.clone(),
        version: r.version,
        created_at: r.created_at,
        provenance: r.provenance.clone(),
        table,
        consumers: r.consumers.clone(),
    })
}

/// Diff two embedding-store snapshots: every version present in `new` but
/// absent from — or no longer the same allocation as — `base`. Stores
/// share untouched versions by `Arc` across clone-on-write publications,
/// so pointer identity is an exact changed-or-new test; a deep copy would
/// merely over-include, which is correct (applies upsert).
pub(crate) fn diff_embeddings(base: &EmbeddingStore, new: &EmbeddingStore) -> EmbeddingsDelta {
    let mut versions: Vec<VersionRepr> = new
        .list()
        .into_iter()
        .filter(|v| {
            base.get(&v.name, v.version)
                .map_or(true, |b| !std::ptr::eq(b, *v))
        })
        .map(version_repr)
        .collect();
    versions.sort_by(|a, b| (&a.name, a.version).cmp(&(&b.name, b.version)));
    EmbeddingsDelta { versions }
}

/// Replay an embeddings delta (upsert every shipped version).
pub(crate) fn apply_embeddings(store: &mut EmbeddingStore, delta: &EmbeddingsDelta) -> Result<()> {
    for repr in &delta.versions {
        store.install_version(version_from_repr(repr)?)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Index catalog
// ---------------------------------------------------------------------------

/// Build instructions for one index snapshot: enough for a follower to
/// reconstruct it deterministically and pin both the source version and
/// the leader's swap generation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IndexBuild {
    pub table: String,
    pub spec: IndexSpec,
    pub built_from_version: u32,
    pub generation: u64,
}

/// The index snapshots swapped by one catalog publication.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub(crate) struct IndexDelta {
    pub(crate) builds: Vec<IndexBuild>,
}

/// The index snapshots in `new` that `base` does not share (by `Arc`
/// identity), as deterministic build instructions sorted by table.
pub(crate) fn diff_indexes(base: &IndexMap, new: &IndexMap) -> IndexDelta {
    let mut builds: Vec<IndexBuild> = new
        .iter()
        .filter(|(name, snap)| base.get(*name).is_none_or(|b| !Arc::ptr_eq(b, snap)))
        .map(|(name, snap)| IndexBuild {
            table: name.clone(),
            spec: snap.spec.clone(),
            built_from_version: snap.built_from_version,
            generation: snap.generation,
        })
        .collect();
    builds.sort_by(|a, b| a.table.cmp(&b.table));
    IndexDelta { builds }
}

// ---------------------------------------------------------------------------
// Online store
// ---------------------------------------------------------------------------

/// One replicated online write: a row of feature values for one entity,
/// each carrying the leader's write timestamp so follower-served ages
/// match the leader's exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineDelta {
    pub group: String,
    pub entity: String,
    pub features: Vec<(String, Value, Timestamp)>,
}

/// The encoded body of one online write — what the WAL and the
/// publication log both carry, encoded once. The bytes are exactly
/// `encode(&OnlineDelta { .. })` of the same row (what followers and
/// recovery decode), written straight from the borrowed row: the write
/// path copies no names or values into an owned delta and builds no JSON
/// tree beyond each value's own.
pub fn online_body<S: AsRef<str>>(
    group: &str,
    entity: &str,
    values: &[(S, Value)],
    now: Timestamp,
) -> Result<String> {
    let written_at = encode(&now)?;
    let mut out = String::with_capacity(64 + 48 * values.len());
    out.push_str(r#"{"group":"#);
    serde::escape_json_string(group, &mut out);
    out.push_str(r#","entity":"#);
    serde::escape_json_string(entity, &mut out);
    out.push_str(r#","features":["#);
    for (i, (feature, value)) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        serde::escape_json_string(feature.as_ref(), &mut out);
        out.push(',');
        out.push_str(&encode(value)?);
        out.push(',');
        out.push_str(&written_at);
        out.push(']');
    }
    out.push_str("]}");
    Ok(out)
}

/// Replay an online delta (puts overwrite, hence idempotent): one row write
/// — one shard lock — per run of features sharing a write timestamp.
pub(crate) fn apply_online(store: &OnlineStore, delta: &OnlineDelta) {
    let entity = EntityKey::new(delta.entity.clone());
    for run in delta.features.chunk_by(|a, b| a.2 == b.2) {
        let values: Vec<(&str, Value)> = run.iter().map(|(f, v, _)| (&f[..], v.clone())).collect();
        store.put_row(&delta.group, &entity, &values, run[0].2);
    }
}

/// Every online row as one packed row block — each feature name once in a
/// name table, then per entity its group, key, and `(feature id, value,
/// written_at)` slots: the at-rest twin of the online store's rows, carried
/// by full snapshots and checkpoints. Every feature id indexes the name
/// table; `capture` and the decoder, the only constructors, ensure it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OnlineRows {
    names: Vec<String>,
    rows: Vec<EntityRow>,
}

#[derive(Debug, Clone, PartialEq)]
struct EntityRow {
    group: String,
    entity: String,
    slots: Vec<(u32, Value, Timestamp)>,
}

impl OnlineRows {
    /// Every row of `store`, ordered by group, entity and feature, so equal
    /// stores produce equal blocks.
    pub fn capture(store: &OnlineStore) -> OnlineRows {
        let mut block = OnlineRows::default();
        let mut ids: HashMap<String, u32> = HashMap::new();
        for (group, entity, feature, entry) in store.export_rows() {
            let next = count(block.names.len());
            let id = *ids.entry(feature).or_insert_with_key(|name| {
                block.names.push(name.clone());
                next
            });
            if !block
                .rows
                .last()
                .is_some_and(|r| r.group == group && r.entity == entity)
            {
                block.rows.push(EntityRow {
                    group,
                    entity,
                    slots: Vec::new(),
                });
            }
            let row = block.rows.last_mut().expect("a row was pushed above");
            row.slots.push((id, entry.value, entry.written_at));
        }
        block
    }

    /// Make `store` hold exactly these rows: delete the entries the block
    /// lacks (a leader history it does not continue), then write every
    /// slot. An entry held on both sides is overwritten, never missing.
    pub fn install(self, store: &OnlineStore) {
        let mut ids = Vec::new();
        store.resolve_into(&self.names, &mut ids);
        // Rows are sorted (`capture`); an unsorted block's slots write back
        // whatever the search misses.
        store.retain(|group, entity, feature, _| {
            self.rows
                .binary_search_by(|r| (&r.group[..], &r.entity[..]).cmp(&(group, entity)))
                .is_ok_and(|i| {
                    let slots = &self.rows[i].slots;
                    slots
                        .iter()
                        .any(|(id, ..)| ids[*id as usize] == Some(feature))
                })
        });
        for row in self.rows {
            let entity = EntityKey::new(row.entity);
            for (id, value, written_at) in row.slots {
                let feature = &self.names[id as usize];
                store.put(&row.group, &entity, feature, value, written_at);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Publish tap
// ---------------------------------------------------------------------------

/// Hook every cell-backed component into the parts' publication stream:
/// once the stream has a sink, each publication is diffed against the one
/// before it and published — even an empty diff, since the epoch bump is
/// state a replica must reproduce. A diff or encode that fails ships the
/// component's full state instead (applies upsert).
pub(crate) fn tap_publications(parts: &LeaderParts) {
    parts.offline.add_publish_hook(tap(
        parts,
        parts.offline.snapshot(),
        ComponentKind::Offline,
        diff_offline,
    ));
    parts.embeddings.add_publish_hook(tap(
        parts,
        parts.embeddings.snapshot(),
        ComponentKind::Embeddings,
        |base, new| Ok(diff_embeddings(base, new)),
    ));
    parts.indexes.add_publish_hook(tap(
        parts,
        parts.indexes.current().value,
        ComponentKind::Index,
        |base, new| Ok(diff_indexes(base, new)),
    ));
}

fn tap<T: Default + Send + Sync + 'static, D: Serialize + 'static>(
    parts: &LeaderParts,
    base: Arc<T>,
    component: ComponentKind,
    diff: fn(&T, &T) -> Result<D>,
) -> impl Fn(&Versioned<T>) + Send + Sync + 'static {
    let stream = Arc::clone(&parts.stream);
    let base = Mutex::new(base);
    move |v| {
        // Held across the publish: a component's deltas keep their order.
        let mut base = base.lock();
        if stream.lock().live() {
            let body = diff(&base, &v.value)
                .and_then(|delta| encode(&delta))
                .or_else(|_| encode(&diff(&T::default(), &v.value)?))
                .expect("a published component's full state encodes");
            // A WAL failure fuses the stream; the hook has nobody to tell.
            let _ = stream
                .lock()
                .publish(component, v.epoch.as_u64(), vec![body], || {});
        }
        *base = Arc::clone(&v.value);
    }
}

// ---------------------------------------------------------------------------
// Full snapshot
// ---------------------------------------------------------------------------

/// File magic of an encoded [`FullSnapshot`].
pub const SNAPSHOT_MAGIC: &[u8; 4] = b"FSNP";

/// The leader's complete replicable state at one replication epoch: what a
/// follower bootstraps (or falls back) from, and what a checkpoint holds.
/// Component epochs ride along so a reader installs each cell at exactly
/// the epoch it was captured at.
#[derive(Debug, Clone)]
pub struct FullSnapshot {
    /// Replication epoch: every delta with `seq <= repl_epoch` is folded in.
    pub repl_epoch: u64,
    pub offline: OfflineStore,
    pub offline_epoch: u64,
    pub embeddings: Vec<VersionRepr>,
    pub embeddings_epoch: u64,
    pub online: OnlineRows,
    pub indexes: Vec<IndexBuild>,
    pub index_epoch: u64,
}

/// Encode a snapshot as one CRC block in the wire codec's big-endian
/// primitives (`value` is the wire's tagged value, `str` is `len u32 |
/// UTF-8`):
///
/// ```text
/// "FSNP" | crc32(body) u32 LE | body
/// body   := repl, offline, embeddings, index epoch (u64 each)
///           | len u32 | FSTB offline store | count u32, (len u32 | FSEB blob)…
///           | rows | builds
/// rows   := count u32, name str… | entities u32, then per entity: group str
///           | key str | slots u32, (feature id u32 | value | written_at i64)…
/// builds := count u32, then per build: table str | spec tag u8 (0 flat;
///           1 ivf, 2 hnsw: + 3 sizes u64 + seed u64) | version u32 | generation u64
/// ```
pub fn encode_snapshot(snapshot: &FullSnapshot) -> Result<Vec<u8>> {
    let mut buf = BytesMut::new();
    for epoch in [
        snapshot.repl_epoch,
        snapshot.offline_epoch,
        snapshot.embeddings_epoch,
        snapshot.index_epoch,
    ] {
        buf.put_u64(epoch);
    }
    put_blob(&mut buf, &snapshot.offline.encode_binary());
    buf.put_u32(count(snapshot.embeddings.len()));
    for version in &snapshot.embeddings {
        put_blob(&mut buf, &encode_blob(version)?);
    }
    put_online_rows(&mut buf, &snapshot.online);
    put_index_builds(&mut buf, &snapshot.indexes);
    Ok(crc_block::encode(SNAPSHOT_MAGIC, &buf))
}

/// Decode [`encode_snapshot`] bytes: anything but an intact snapshot is
/// [`FsError::Corruption`], and no count reserves beyond the input's length.
pub fn decode_snapshot(bytes: &[u8]) -> Result<FullSnapshot> {
    decode_block(SNAPSHOT_MAGIC, "full snapshot", bytes, |r| {
        let [repl_epoch, offline_epoch, embeddings_epoch, index_epoch] =
            [r.take_u64()?, r.take_u64()?, r.take_u64()?, r.take_u64()?];
        let offline = OfflineStore::decode_binary(&r.take_blob()?)?;
        let n = r.take_u32()? as usize;
        let mut embeddings = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            embeddings.push(decode_blob(&r.take_blob()?)?);
        }
        Ok(FullSnapshot {
            repl_epoch,
            offline,
            offline_epoch,
            embeddings,
            embeddings_epoch,
            online: take_online_rows(r)?,
            indexes: take_index_builds(r)?,
            index_epoch,
        })
    })
}

/// A binary body that failed to decode, whichever layer noticed.
pub(crate) struct Corrupt(String);

impl From<WireError> for Corrupt {
    fn from(e: WireError) -> Self {
        Corrupt(e.to_string())
    }
}

impl From<FsError> for Corrupt {
    fn from(e: FsError) -> Self {
        Corrupt(e.to_string())
    }
}

/// Open a CRC block and decode its body with `take`, which must consume
/// it exactly.
pub(crate) fn decode_block<T>(
    magic: &[u8; 4],
    what: &str,
    bytes: &[u8],
    take: impl FnOnce(&mut Reader<'_>) -> std::result::Result<T, Corrupt>,
) -> Result<T> {
    let fail = |e: String| FsError::Corruption(format!("{what}: {e}"));
    let body = crc_block::decode(magic, bytes).map_err(|e| fail(e.to_string()))?;
    let mut r = Reader::new(body);
    let value = take(&mut r).map_err(|Corrupt(e)| fail(e))?;
    r.finish().map_err(|e| fail(e.to_string()))?;
    Ok(value)
}

fn count(n: usize) -> u32 {
    u32::try_from(n).expect("memory runs out before 2^32 items")
}

fn put_blob(buf: &mut BytesMut, bytes: &[u8]) {
    buf.put_u32(count(bytes.len()));
    buf.put_slice(bytes);
}

pub(crate) fn put_online_rows(buf: &mut BytesMut, block: &OnlineRows) {
    put_str_seq(buf, &block.names);
    buf.put_u32(count(block.rows.len()));
    for row in &block.rows {
        put_str(buf, &row.group);
        put_str(buf, &row.entity);
        buf.put_u32(count(row.slots.len()));
        for (id, value, written_at) in &row.slots {
            buf.put_u32(*id);
            put_value(buf, value);
            buf.put_i64(written_at.as_millis());
        }
    }
}

pub(crate) fn take_online_rows(r: &mut Reader<'_>) -> std::result::Result<OnlineRows, Corrupt> {
    let names = r.take_str_seq()?;
    let n = r.take_u32()? as usize;
    let mut rows = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        let group = r.take_str()?;
        let entity = r.take_str()?;
        let k = r.take_u32()? as usize;
        let mut slots = Vec::with_capacity(k.min(r.remaining()));
        for _ in 0..k {
            let id = r.take_u32()?;
            if id as usize >= names.len() {
                return Err(Corrupt(format!(
                    "feature id {id} outside a {}-name table",
                    names.len()
                )));
            }
            slots.push((id, take_value(r)?, Timestamp::millis(r.take_i64()?)));
        }
        rows.push(EntityRow {
            group,
            entity,
            slots,
        });
    }
    Ok(OnlineRows { names, rows })
}

pub(crate) fn put_index_builds(buf: &mut BytesMut, builds: &[IndexBuild]) {
    buf.put_u32(count(builds.len()));
    for build in builds {
        put_str(buf, &build.table);
        let (tag, sizes, seed) = match &build.spec {
            IndexSpec::Flat => (0, None, 0),
            IndexSpec::Ivf(c) => (1, Some([c.nlist, c.nprobe, c.train_iters]), c.seed),
            IndexSpec::Hnsw(c) => (2, Some([c.m, c.ef_construction, c.ef_search]), c.seed),
        };
        buf.put_u8(tag);
        if let Some(sizes) = sizes {
            for size in sizes {
                buf.put_u64(size as u64);
            }
            buf.put_u64(seed);
        }
        buf.put_u32(build.built_from_version);
        buf.put_u64(build.generation);
    }
}

pub(crate) fn take_index_builds(
    r: &mut Reader<'_>,
) -> std::result::Result<Vec<IndexBuild>, Corrupt> {
    let sizes = |r: &mut Reader<'_>| -> std::result::Result<[usize; 3], Corrupt> {
        let mut out = [0; 3];
        for size in &mut out {
            *size = usize::try_from(r.take_u64()?)
                .map_err(|_| Corrupt("index parameter overflows usize".into()))?;
        }
        Ok(out)
    };
    let n = r.take_u32()? as usize;
    let mut builds = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        let table = r.take_str()?;
        let spec = match r.take_u8()? {
            0 => IndexSpec::Flat,
            1 => {
                let [nlist, nprobe, train_iters] = sizes(r)?;
                IndexSpec::Ivf(IvfConfig {
                    nlist,
                    nprobe,
                    train_iters,
                    seed: r.take_u64()?,
                })
            }
            2 => {
                let [m, ef_construction, ef_search] = sizes(r)?;
                IndexSpec::Hnsw(HnswConfig {
                    m,
                    ef_construction,
                    ef_search,
                    seed: r.take_u64()?,
                })
            }
            tag => {
                return Err(WireError::BadTag {
                    ty: "IndexSpec",
                    tag,
                }
                .into())
            }
        };
        builds.push(IndexBuild {
            table,
            spec,
            built_from_version: r.take_u32()?,
            generation: r.take_u64()?,
        });
    }
    Ok(builds)
}

pub(crate) fn install_build(indexes: &IndexCatalog, build: &IndexBuild) -> Result<()> {
    indexes
        .install_replica(
            &build.table,
            &build.spec,
            build.built_from_version,
            build.generation,
        )
        .map(drop)
        .map_err(|e| FsError::Storage(format!("replica index build: {e}")))
}

/// Replay one delta record into live components at its leader-dictated
/// component epoch — the shared apply path for follower sync and WAL
/// recovery (both are at-least-once redelivery of the same records).
pub fn apply_record(
    offline: &OfflineDb,
    embeddings: &EmbeddingDb,
    online: &OnlineStore,
    indexes: &IndexCatalog,
    record: &DeltaRecord,
) -> Result<()> {
    let epoch = ReadEpoch(record.component_epoch);
    match record.component {
        ComponentKind::Offline => {
            let delta: OfflineDelta = decode(&record.body)?;
            offline.apply_replica(epoch, |s| apply_offline(s, &delta))
        }
        ComponentKind::Embeddings => {
            let delta: EmbeddingsDelta = decode(&record.body)?;
            embeddings.apply_replica(epoch, |s| apply_embeddings(s, &delta))
        }
        ComponentKind::Index => {
            let delta: IndexDelta = decode(&record.body)?;
            for build in &delta.builds {
                install_build(indexes, build)?;
            }
            Ok(())
        }
        ComponentKind::Online => {
            let delta: OnlineDelta = decode(&record.body)?;
            apply_online(online, &delta);
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_table() -> TableConfig {
        TableConfig::new(Schema::of(&[("x", ValueType::Int)]))
    }

    #[test]
    fn offline_diff_ships_appends_for_grown_tables_and_reprs_for_new_ones() {
        let mut base = OfflineStore::new();
        base.create_table("t", int_table()).unwrap();
        base.append("t", &[Value::Int(1)]).unwrap();

        let mut new = base.clone();
        new.append("t", &[Value::Int(2)]).unwrap();
        new.create_table("u", int_table()).unwrap();

        let delta = diff_offline(&base, &new).unwrap();
        assert!(delta.drops.is_empty());
        assert_eq!(delta.appends.len(), 1);
        assert_eq!(delta.appends[0].start_row, 1);
        assert_eq!(delta.appends[0].rows, vec![vec![Value::Int(2)]]);
        assert_eq!(delta.replaces.len(), 1);
        assert_eq!(delta.replaces[0].name, "u");

        // Applying the delta to a copy of base reproduces new.
        let mut replica = base.clone();
        apply_offline(&mut replica, &delta).unwrap();
        assert_eq!(replica.num_rows("t").unwrap(), 2);
        assert!(replica.has_table("u"));

        // Re-applying (at-least-once delivery) changes nothing.
        apply_offline(&mut replica, &delta).unwrap();
        assert_eq!(replica.num_rows("t").unwrap(), 2);
    }

    #[test]
    fn offline_apply_rejects_an_impossible_append() {
        let mut store = OfflineStore::new();
        store.create_table("t", int_table()).unwrap();
        let delta = OfflineDelta {
            appends: vec![TableAppend {
                table: "t".into(),
                start_row: 5,
                rows: vec![vec![Value::Int(9)]],
            }],
            ..OfflineDelta::default()
        };
        assert!(apply_offline(&mut store, &delta).is_err());
    }

    #[test]
    fn offline_drop_round_trips() {
        let mut base = OfflineStore::new();
        base.create_table("gone", int_table()).unwrap();
        let new = OfflineStore::new();
        let delta = diff_offline(&base, &new).unwrap();
        assert_eq!(delta.drops, vec!["gone".to_string()]);
        apply_offline(&mut base, &delta).unwrap();
        assert!(!base.has_table("gone"));
    }

    #[test]
    fn embedding_versions_round_trip_through_reprs() {
        let mut table = EmbeddingTable::new(2).unwrap();
        table.insert("b", vec![3.0, 4.0]).unwrap();
        table.insert("a", vec![1.0, 2.0]).unwrap();
        let mut store = EmbeddingStore::new();
        store
            .publish(
                "emb",
                table,
                EmbeddingProvenance::default(),
                Timestamp::EPOCH,
            )
            .unwrap();

        let delta = diff_embeddings(&EmbeddingStore::new(), &store);
        assert_eq!(delta.versions.len(), 1);
        assert_eq!(delta.versions[0].keys, vec!["a", "b"]);

        let mut replica = EmbeddingStore::new();
        apply_embeddings(&mut replica, &delta).unwrap();
        assert_eq!(
            replica.resolve("emb").unwrap().table.get("b"),
            Some(&[3.0, 4.0][..])
        );

        // Unchanged stores diff to nothing (Arc-shared versions).
        let same = store.clone();
        assert!(diff_embeddings(&store, &same).versions.is_empty());
    }

    #[test]
    fn online_apply_matches_one_put_per_feature() {
        let t = Timestamp::millis;
        let delta = OnlineDelta {
            group: "user".into(),
            entity: "u1".into(),
            features: vec![
                ("a".into(), Value::Int(1), t(5)),
                ("b".into(), Value::Int(2), t(5)),
                ("a".into(), Value::Int(3), t(7)),
                ("c".into(), Value::Null, t(5)),
            ],
        };
        let (rows, puts) = (OnlineStore::default(), OnlineStore::default());
        apply_online(&rows, &delta);
        for (feature, value, at) in &delta.features {
            puts.put("user", &EntityKey::new("u1"), feature, value.clone(), *at);
        }
        assert_eq!(rows.export_rows(), puts.export_rows());
        assert_eq!(rows.stats().snapshot(), puts.stats().snapshot());
    }

    #[test]
    fn online_rows_install_leaves_exactly_the_captured_rows() {
        let (t, key) = (Timestamp::millis(5), EntityKey::new);
        let (leader, replica) = (OnlineStore::default(), OnlineStore::default());
        leader.put("user", &key("a"), "x", Value::Int(1), t);
        leader.put("user", &key("b"), "y", Value::Int(2), t);
        replica.put("user", &key("a"), "x", Value::Int(9), t);
        replica.put("user", &key("a"), "stale", Value::Int(9), t);
        replica.put("user", &key("gone"), "x", Value::Int(9), t);
        replica.put("other", &key("b"), "y", Value::Int(9), t);
        OnlineRows::capture(&leader).install(&replica);
        assert_eq!(replica.export_rows(), leader.export_rows());
    }

    #[test]
    fn bodies_survive_json_round_trips() {
        let body = OnlineDelta {
            group: "user".into(),
            entity: "u1".into(),
            features: vec![("score".into(), Value::Float(0.5), Timestamp::millis(7))],
        };
        let json = encode(&body).unwrap();
        assert_eq!(decode::<OnlineDelta>(&json).unwrap(), body);

        let build = IndexBuild {
            table: "emb".into(),
            spec: IndexSpec::Flat,
            built_from_version: 3,
            generation: 11,
        };
        let json = encode(&IndexDelta {
            builds: vec![build.clone()],
        })
        .unwrap();
        assert_eq!(decode::<IndexDelta>(&json).unwrap().builds, vec![build]);
    }
}
