//! The durable leader: a serving stack whose every publication is
//! write-ahead logged, periodically checkpointed, and recoverable after a
//! crash into the last *published* epoch.
//!
//! [`DurableLeader::open`] is both cold start and crash recovery — the two
//! are deliberately the same code path:
//!
//! 1. load the checkpoint the manifest names and restore every component
//!    at its recorded epoch (offline → embeddings → online → indexes, the
//!    same order a replication follower bootstraps in);
//! 2. replay the WAL's committed deltas past the checkpoint through the
//!    same idempotent apply functions follower sync uses;
//! 3. re-checkpoint at the recovered sequence and rotate the WAL, so the
//!    next restart replays nothing that this one already folded in;
//! 4. hook every component's publish path ([`add_publish_hook`], so a
//!    replication leader can hook the same cells independently) to log
//!    future publications.
//!
//! The WAL taps the identical publish path the replication `PubLog` taps:
//! a publication is diffed against the previous snapshot and appended as a
//! delta + epoch-tagged commit marker. Durability and replication are the
//! same stream, written to disk instead of shipped to followers.
//!
//! [`add_publish_hook`]: fstore_storage::OfflineDb::add_publish_hook

use crate::checkpoint::CheckpointStore;
use crate::codec::{self, FullSnapshot, OnlineRows};
use crate::wal::{FsyncPolicy, WalWriter};
use fstore_common::{ComponentKind, DeltaRecord, EntityKey, ReadEpoch, Result, Timestamp, Value};
use fstore_core::FeatureServer;
use fstore_embed::{EmbeddingDb, EmbeddingStore};
use fstore_serve::{Clock, IndexCatalog, IndexMap, ServeEngine, ServingMetrics};
use fstore_storage::{OfflineDb, OnlineStore};
use parking_lot::Mutex;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The replicable components of one serving stack — what a durable leader
/// recovers, a replication leader publishes, and a follower replicates
/// into. Clones share the components (snapshot cells and `Arc`s).
#[derive(Clone)]
pub struct LeaderParts {
    pub offline: OfflineDb,
    pub online: Arc<OnlineStore>,
    pub embeddings: EmbeddingDb,
    pub indexes: Arc<IndexCatalog>,
}

impl LeaderParts {
    /// Fresh, empty components sharing one embedding catalog between the
    /// embedding handle and the index catalog.
    pub fn new() -> Self {
        let embeddings = EmbeddingDb::new();
        LeaderParts {
            offline: OfflineDb::new(),
            online: Arc::new(OnlineStore::default()),
            indexes: Arc::new(IndexCatalog::new(embeddings.clone())),
            embeddings,
        }
    }

    /// The components a [`DurableLeader`] recovered, so a replication
    /// leader can be layered over the same cells. Pair with
    /// `ReplLeader::attach_durable` so online writes hit the WAL too.
    pub fn from_durable(durable: &DurableLeader) -> Self {
        durable.parts.clone()
    }

    /// Capture a [`FullSnapshot`] of the components at `repl_epoch`, which
    /// callers pin however their log requires (the replication leader under
    /// `PubLog::frozen`, the durable leader under its WAL lock): a
    /// publication that installs concurrently is re-delivered as a later
    /// delta, and applies are idempotent, so readers converge.
    pub fn capture(&self, repl_epoch: u64) -> FullSnapshot {
        let off = self.offline.read();
        let emb = self.embeddings.read();
        let idx = self.indexes.current();
        FullSnapshot {
            repl_epoch,
            offline: off.value.as_ref().clone(),
            offline_epoch: off.epoch.as_u64(),
            embeddings: codec::diff_embeddings(&EmbeddingStore::new(), &emb.value).versions,
            embeddings_epoch: emb.epoch.as_u64(),
            online: OnlineRows::capture(&self.online),
            indexes: codec::diff_indexes(&IndexMap::default(), &idx.value).builds,
            index_epoch: idx.epoch.as_u64(),
        }
    }

    /// Install a snapshot, each component at its captured epoch.
    /// Embeddings go in before indexes — index builds resolve their source
    /// table from the embedding catalog.
    pub fn install(&self, snapshot: FullSnapshot) -> Result<()> {
        let mut emb = EmbeddingStore::new();
        for repr in &snapshot.embeddings {
            emb.install_version(codec::version_from_repr(repr)?)?;
        }
        self.offline
            .restore(snapshot.offline, ReadEpoch(snapshot.offline_epoch));
        self.embeddings
            .restore(emb, ReadEpoch(snapshot.embeddings_epoch));
        snapshot.online.install(&self.online);
        snapshot
            .indexes
            .iter()
            .try_for_each(|build| codec::install_build(&self.indexes, build))
    }

    /// Replay one delta record ([`codec::apply_record`]).
    pub fn apply(&self, record: &DeltaRecord) -> Result<()> {
        codec::apply_record(
            &self.offline,
            &self.embeddings,
            &self.online,
            &self.indexes,
            record,
        )
    }

    /// A ready-to-start [`ServeEngine`] over the components, stamping
    /// feature vectors with the offline epoch: answers at equal epochs — on
    /// a synced follower, or across a crash-restart — are byte-identical.
    pub fn engine(&self, clock: Clock) -> ServeEngine {
        let offline = self.offline.clone();
        ServeEngine::new(
            FeatureServer::new(Arc::clone(&self.online))
                .with_epoch_source(Arc::new(move || offline.epoch())),
            clock,
        )
        .with_embeddings(self.embeddings.clone())
        .with_index_catalog(Arc::clone(&self.indexes))
    }
}

impl Default for LeaderParts {
    fn default() -> Self {
        LeaderParts::new()
    }
}

/// Durability configuration.
#[derive(Debug, Clone, Copy)]
pub struct DurableConfig {
    /// When WAL commit markers fsync. Default: [`FsyncPolicy::Always`].
    pub fsync: FsyncPolicy,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            fsync: FsyncPolicy::Always,
        }
    }
}

/// What [`DurableLeader::open`] recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// No manifest existed — a fresh directory, nothing to recover.
    pub cold_start: bool,
    /// Sequence number of the checkpoint that was loaded (0 if cold).
    pub checkpoint_epoch: u64,
    /// The last published sequence number the leader restarted into.
    pub recovered_epoch: u64,
    /// Committed WAL deltas replayed on top of the checkpoint.
    pub replayed: usize,
    /// Logged-but-uncommitted deltas dropped (never acknowledged).
    pub dropped_uncommitted: usize,
    /// Bytes truncated off the WAL tail (uncommitted, torn, or corrupt).
    pub truncated_bytes: u64,
    /// Wall-clock cost of the whole open (load + replay + re-checkpoint).
    pub recovery_ms: u64,
}

/// A leader whose components are backed by a WAL and checkpoints on disk.
pub struct DurableLeader {
    store: CheckpointStore,
    config: DurableConfig,
    parts: LeaderParts,
    wal: Arc<Wal>,
    last_recovery: RecoveryReport,
}

/// The live WAL, shared by the leader and its publish hooks.
struct Wal {
    writer: Mutex<WalWriter>,
    /// The last sequence number assigned to a publication — the leader's
    /// "published epoch" for durability purposes.
    seq: AtomicU64,
    metrics: Mutex<Option<Arc<ServingMetrics>>>,
}

impl Wal {
    /// Append a group of publications (a delta each + one commit marker,
    /// one write) and return the sequence of the commit — the group's
    /// last. Sequence assignment happens under the writer lock, so on-disk
    /// order always matches sequence order even when cells publish
    /// concurrently; a refused append takes no sequence.
    ///
    /// An `Err` means the commit marker is not known to be on disk — the
    /// write path that acknowledges clients
    /// ([`DurableLeader::log_online_many`]) must refuse to ack on it.
    /// Publish *hooks* have nowhere to surface the error and drop it; the
    /// state they described becomes durable again at the next checkpoint.
    /// (A production system would trip a fail-stop fuse there.)
    fn log_many(
        &self,
        component: ComponentKind,
        component_epoch: u64,
        bodies: &[String],
    ) -> Result<u64> {
        let mut writer = self.writer.lock();
        let first = self.seq.load(Ordering::Acquire) + 1;
        if bodies.is_empty() {
            return Ok(first - 1);
        }
        let info = writer.append_group(first, component, component_epoch, bodies)?;
        let last = first + bodies.len() as u64 - 1;
        self.seq.store(last, Ordering::Release);
        if let Some(m) = self.metrics.lock().as_ref() {
            m.record_wal_append(info.bytes, info.fsynced);
        }
        Ok(last)
    }
}

impl DurableLeader {
    /// Open (or create) the durability directory at `dir`, recovering into
    /// the last published epoch. See the module docs for the protocol.
    pub fn open(
        dir: impl Into<PathBuf>,
        config: DurableConfig,
    ) -> Result<(Arc<DurableLeader>, RecoveryReport)> {
        let started = Instant::now();
        let store = CheckpointStore::open(dir)?;
        let parts = LeaderParts::new();

        // 1. Checkpoint restore, component order matching follower bootstrap.
        let checkpoint = store.load()?;
        let cold_start = checkpoint.is_none();
        let mut checkpoint_epoch = 0u64;
        if let Some(data) = checkpoint {
            checkpoint_epoch = data.repl_epoch;
            parts.install(data)?;
        }

        // 2. WAL replay past the checkpoint.
        let replay = crate::wal::recover(&store.wal_path(checkpoint_epoch))?;
        let mut replayed = 0usize;
        for record in &replay.committed {
            if record.seq <= checkpoint_epoch {
                continue; // re-delivered below the checkpoint; already folded in
            }
            parts.apply(record)?;
            replayed += 1;
        }
        let recovered_epoch = checkpoint_epoch.max(replay.last_seq);

        // 3. Re-checkpoint at the recovered sequence and rotate the WAL, so
        // the *next* restart replays nothing this one already folded in.
        store.write(&parts.capture(recovered_epoch))?;
        let rotate = recovered_epoch != checkpoint_epoch || cold_start;
        let writer = WalWriter::open(store.wal_path(recovered_epoch), config.fsync, rotate)?;
        store.gc(recovered_epoch);

        let report = RecoveryReport {
            cold_start,
            checkpoint_epoch,
            recovered_epoch,
            replayed,
            dropped_uncommitted: replay.dropped_uncommitted,
            truncated_bytes: replay.truncated_bytes,
            recovery_ms: started.elapsed().as_millis() as u64,
        };

        let leader = Arc::new(DurableLeader {
            store,
            config,
            parts,
            wal: Arc::new(Wal {
                writer: Mutex::new(writer),
                seq: AtomicU64::new(recovered_epoch),
                metrics: Mutex::new(None),
            }),
            last_recovery: report,
        });

        // 4. Hook the publish paths — from here on, every publication is
        // logged before anyone can observe a state that contains it only
        // in memory.
        let wal = Arc::clone(&leader.wal);
        codec::tap_publications(&leader.parts, move |component, epoch, body| {
            let _ = wal.log_many(component, epoch, std::slice::from_ref(&body));
        });
        Ok((leader, report))
    }

    /// Write one entity's features to the WAL *and then* the online store,
    /// returning the WAL sequence the write committed at. The online
    /// store has no snapshot cell to hook, so durable online writes must
    /// go through here (mirroring the replication leader's rule). An
    /// `Err` means the commit marker is not known durable — callers that
    /// acknowledge clients must surface it instead of acking — and the
    /// write was not applied: nobody can read a value that is not logged.
    pub fn put_online(
        &self,
        group: &str,
        entity: &EntityKey,
        values: &[(&str, Value)],
        now: Timestamp,
    ) -> Result<u64> {
        let body = codec::online_body(group, entity.as_str(), values, now)?;
        let seq = self.log_online_many(std::slice::from_ref(&body))?;
        self.parts.online.put_row(group, entity, values, now);
        Ok(seq)
    }

    /// WAL-log a group of encoded online deltas ([`codec::online_body`])
    /// before they are applied — what a replication leader calls so its
    /// writes are durable: one write, one commit marker and (under
    /// [`FsyncPolicy::Always`]) one fsync for the whole group. Returns the
    /// WAL sequence of the commit marker; `Err` means the group is not
    /// known to be on disk and none of it may be applied or acknowledged.
    pub fn log_online_many(&self, bodies: &[String]) -> Result<u64> {
        self.wal.log_many(ComponentKind::Online, 0, bodies)
    }

    /// Take a checkpoint at the current published sequence and rotate the
    /// WAL. Capturing under the WAL lock pins the sequence: a publication
    /// that installed its cell but has not logged yet will land *after*
    /// this checkpoint's sequence and be replayed idempotently on restart.
    pub fn checkpoint(&self) -> Result<()> {
        let mut writer = self.wal.writer.lock();
        let seq = self.published_seq();
        self.store.write(&self.parts.capture(seq))?;
        *writer = WalWriter::open(self.store.wal_path(seq), self.config.fsync, true)?;
        self.store.gc(seq);
        drop(writer);
        if let Some(m) = self.wal.metrics.lock().as_ref() {
            m.record_checkpoint();
        }
        Ok(())
    }

    /// Export durability counters (and the last recovery) through serving
    /// metrics.
    pub fn attach_metrics(&self, metrics: Arc<ServingMetrics>) {
        metrics.record_recovery(
            self.last_recovery.recovery_ms,
            self.last_recovery.recovered_epoch,
        );
        *self.wal.metrics.lock() = Some(metrics);
    }

    /// The last sequence number assigned to a publication.
    pub fn published_seq(&self) -> u64 {
        self.wal.seq.load(Ordering::Acquire)
    }

    /// What the `open` that produced this leader recovered.
    pub fn last_recovery(&self) -> RecoveryReport {
        self.last_recovery
    }

    pub fn offline(&self) -> &OfflineDb {
        &self.parts.offline
    }

    pub fn online(&self) -> &Arc<OnlineStore> {
        &self.parts.online
    }

    pub fn embeddings(&self) -> &EmbeddingDb {
        &self.parts.embeddings
    }

    pub fn indexes(&self) -> &Arc<IndexCatalog> {
        &self.parts.indexes
    }

    /// A ready-to-start [`ServeEngine`] over the durable components
    /// ([`LeaderParts::engine`]).
    pub fn engine(&self, clock: Clock) -> ServeEngine {
        self.parts.engine(clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_write_the_wal_refuses_is_an_error_and_never_readable() {
        let dir = std::env::temp_dir().join(format!("fstore_leader_full_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (leader, _) = DurableLeader::open(&dir, DurableConfig::default()).unwrap();
        // Every write to /dev/full fails with ENOSPC.
        *leader.wal.writer.lock() =
            WalWriter::open("/dev/full", FsyncPolicy::Always, false).unwrap();

        let key = EntityKey::new("u1");
        let put = leader.put_online("user", &key, &[("score", Value::Int(1))], Timestamp::EPOCH);
        assert!(put.is_err(), "a failed WAL append was acknowledged");
        assert_eq!(leader.online().get("user", &key, "score"), None);
        std::fs::remove_dir_all(&dir).ok();
    }
}
