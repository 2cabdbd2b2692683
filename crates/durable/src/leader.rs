//! The durable leader: a serving stack whose publications are write-ahead
//! logged, periodically checkpointed, and recoverable after a crash into
//! the last *published* epoch.
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
//! 4. attach the WAL to the parts' publication stream at that sequence.
//!
//! **One stream per [`LeaderParts`]:** one publish tap, one sequence
//! counter, and two optional sinks (the WAL, then a `ReplLeader`'s
//! `PubLog`). Hooks fire after a cell swaps, so the contract is *logged
//! before replicated*, and fail-stop: a publication the WAL refuses never
//! reaches the log and fuses the stream, which then refuses writes,
//! publications and checkpoints until [`DurableLeader::open`].

use crate::checkpoint::CheckpointStore;
use crate::codec::{self, FullSnapshot, OnlineRows};
use crate::wal::{FsyncPolicy, WalWriter};
use fstore_common::{
    ComponentKind, DeltaRecord, EntityKey, FsError, PubLog, ReadEpoch, Result, Timestamp, Value,
};
use fstore_core::FeatureServer;
use fstore_embed::{EmbeddingDb, EmbeddingStore};
use fstore_serve::{Clock, IndexCatalog, IndexMap, OnlineWrite, ServeEngine, ServingMetrics};
use fstore_storage::{OfflineDb, OnlineStore};
use parking_lot::Mutex;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The replicable components of one serving stack — what a durable leader
/// recovers, a replication leader publishes, and a follower replicates
/// into — and their publication stream. Clones share both.
#[derive(Clone)]
pub struct LeaderParts {
    pub offline: OfflineDb,
    pub online: Arc<OnlineStore>,
    pub embeddings: EmbeddingDb,
    pub indexes: Arc<IndexCatalog>,
    pub(crate) stream: Arc<Mutex<Stream>>,
}

impl LeaderParts {
    /// Fresh, empty components sharing one embedding catalog between the
    /// embedding handle and the index catalog, on a stream with no sink.
    pub fn new() -> Self {
        let embeddings = EmbeddingDb::new();
        let parts = LeaderParts {
            offline: OfflineDb::new(),
            online: Arc::new(OnlineStore::default()),
            indexes: Arc::new(IndexCatalog::new(embeddings.clone())),
            embeddings,
            stream: Arc::default(),
        };
        codec::tap_publications(&parts);
        parts
    }

    /// The components a [`DurableLeader`] recovered, with its stream, so a
    /// `ReplLeader` built over them logs what the WAL logs.
    pub fn from_durable(durable: &DurableLeader) -> Self {
        durable.parts.clone()
    }

    /// Whether `other` publishes through this stream.
    pub fn shares_stream(&self, other: &LeaderParts) -> bool {
        Arc::ptr_eq(&self.stream, &other.stream)
    }

    /// Open the replication log, numbered on from the stream's last
    /// sequence (after a restart, the recovered one). A stream feeds one log.
    pub fn attach_log(&self, retention: usize) -> Arc<PubLog> {
        let mut state = self.stream.lock();
        assert!(state.log.is_none(), "a publication stream feeds one log");
        let log = Arc::new(PubLog::new(retention, state.seq));
        state.log = Some(Arc::clone(&log));
        log
    }

    /// Capture a [`FullSnapshot`] at the last published sequence, under the
    /// stream lock: a publication racing the capture lands at a later
    /// sequence and is re-delivered; applies are idempotent.
    pub fn capture(&self) -> FullSnapshot {
        let stream = self.stream.lock();
        self.capture_at(stream.seq)
    }

    fn capture_at(&self, repl_epoch: u64) -> FullSnapshot {
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

    /// [`put_online_many`](Self::put_online_many) with a group of one.
    pub fn put_online(
        &self,
        group: &str,
        entity: &EntityKey,
        values: &[(&str, Value)],
        now: Timestamp,
    ) -> Result<u64> {
        let write = OnlineWrite {
            group,
            entity: entity.as_str(),
            values,
        };
        let mut results = self.put_online_many(&[write], now);
        results.pop().expect("one result per write")
    }

    /// Write a group of entities' features in order — each body encoded
    /// once, then to the WAL (one write), the online store and the log —
    /// and return each write's sequence. The online store has no cell to
    /// hook, so both leaders' online writes come through here. A write that
    /// does not encode fails alone; a group the WAL refuses fails whole,
    /// unapplied.
    pub fn put_online_many<S: AsRef<str>>(
        &self,
        writes: &[OnlineWrite<'_, S>],
        now: Timestamp,
    ) -> Vec<Result<u64>> {
        let mut results: Vec<Result<u64>> = Vec::with_capacity(writes.len());
        let mut bodies = Vec::with_capacity(writes.len());
        for w in writes {
            match codec::online_body(w.group, w.entity, w.values, now) {
                Ok(body) => {
                    bodies.push(body);
                    results.push(Ok(0));
                }
                Err(e) => results.push(Err(e)),
            }
        }
        let mut stream = self.stream.lock();
        let mut published = stream.publish(ComponentKind::Online, 0, bodies, || {
            for (w, _) in writes.iter().zip(&results).filter(|(_, r)| r.is_ok()) {
                self.online
                    .put_row(w.group, &EntityKey::new(w.entity), w.values, now);
            }
        });
        drop(stream);
        for result in results.iter_mut().filter(|r| r.is_ok()) {
            *result = match &mut published {
                Ok(seqs) => Ok(seqs.next().expect("one sequence per encoded write")),
                Err(e) => Err(e.clone()),
            };
        }
        results
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

/// One leader's publication stream: the sequence counter and the sinks
/// each publication goes to, WAL first, then the replication log.
#[derive(Default)]
pub(crate) struct Stream {
    /// The last sequence number assigned to a publication.
    seq: u64,
    wal: Option<WalWriter>,
    log: Option<Arc<PubLog>>,
    /// The WAL error that lost a publication; the stream refuses with it.
    fuse: Option<FsError>,
    metrics: Option<Arc<ServingMetrics>>,
}

impl Stream {
    /// Whether a sink is attached: until one is, the tap does no diff work.
    pub(crate) fn live(&self) -> bool {
        self.wal.is_some() || self.log.is_some()
    }

    /// Publish one component's bodies at the next sequences: to the WAL,
    /// then `apply`, then to the log. A failed WAL append fuses the stream.
    pub(crate) fn publish(
        &mut self,
        component: ComponentKind,
        component_epoch: u64,
        bodies: Vec<String>,
        apply: impl FnOnce(),
    ) -> Result<Range<u64>> {
        if let Some(e) = &self.fuse {
            return Err(e.clone());
        }
        let first = self.seq + 1;
        if bodies.is_empty() {
            return Ok(first..first);
        }
        if let Some(wal) = &mut self.wal {
            let info = wal
                .append_group(first, component, component_epoch, &bodies)
                .map_err(|e| self.fuse.insert(e).clone())?;
            if let Some(m) = &self.metrics {
                m.record_wal_append(info.bytes, info.fsynced);
            }
        }
        apply();
        self.seq += bodies.len() as u64;
        if let Some(log) = &self.log {
            log.append((first..).zip(bodies).map(|(seq, body)| DeltaRecord {
                seq,
                component,
                component_epoch,
                body,
            }));
        }
        Ok(first..self.seq + 1)
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
    last_recovery: RecoveryReport,
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
        store.write(&parts.capture_at(recovered_epoch))?;
        let rotate = recovered_epoch != checkpoint_epoch || cold_start;
        let writer = WalWriter::open(store.wal_path(recovered_epoch), config.fsync, rotate)?;
        store.gc(recovered_epoch);

        // 4. From here on every publication is logged.
        *parts.stream.lock() = Stream {
            seq: recovered_epoch,
            wal: Some(writer),
            ..Stream::default()
        };

        let report = RecoveryReport {
            cold_start,
            checkpoint_epoch,
            recovered_epoch,
            replayed,
            dropped_uncommitted: replay.dropped_uncommitted,
            truncated_bytes: replay.truncated_bytes,
            recovery_ms: started.elapsed().as_millis() as u64,
        };
        let leader = DurableLeader {
            store,
            config,
            parts,
            last_recovery: report,
        };
        Ok((Arc::new(leader), report))
    }

    /// Write one entity's features to the WAL *and then* the online store
    /// ([`LeaderParts::put_online`]). An `Err` means the write is not known
    /// durable and was not applied: callers must not acknowledge it.
    pub fn put_online(
        &self,
        group: &str,
        entity: &EntityKey,
        values: &[(&str, Value)],
        now: Timestamp,
    ) -> Result<u64> {
        self.parts.put_online(group, entity, values, now)
    }

    /// Take a checkpoint at the current published sequence and rotate the
    /// WAL, under the stream lock ([`LeaderParts::capture`]). A fused stream
    /// refuses: its state holds a publication followers never received.
    pub fn checkpoint(&self) -> Result<()> {
        let mut guard = self.parts.stream.lock();
        let state = &mut *guard;
        if let Some(e) = &state.fuse {
            return Err(e.clone());
        }
        self.store.write(&self.parts.capture_at(state.seq))?;
        // Appends past a failed rotation would land in a file recovery
        // never reads: fail-stop instead.
        let rotated = WalWriter::open(self.store.wal_path(state.seq), self.config.fsync, true);
        state.wal = Some(rotated.map_err(|e| state.fuse.insert(e).clone())?);
        self.store.gc(state.seq);
        if let Some(m) = &state.metrics {
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
        self.parts.stream.lock().metrics = Some(metrics);
    }

    /// The last sequence number assigned to a publication.
    pub fn published_seq(&self) -> u64 {
        self.parts.stream.lock().seq
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
    use fstore_common::{Schema, ValueType};
    use fstore_storage::TableConfig;

    #[test]
    fn a_write_the_wal_refuses_is_an_error_and_never_readable() {
        let dir = std::env::temp_dir().join(format!("fstore_leader_full_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (leader, _) = DurableLeader::open(&dir, DurableConfig::default()).unwrap();
        // Every write to /dev/full fails with ENOSPC.
        leader.parts.stream.lock().wal =
            Some(WalWriter::open("/dev/full", FsyncPolicy::Always, false).unwrap());

        let key = EntityKey::new("u1");
        let put = leader.put_online("user", &key, &[("score", Value::Int(1))], Timestamp::EPOCH);
        assert!(put.is_err(), "a failed WAL append was acknowledged");
        assert_eq!(leader.online().get("user", &key, "score"), None);

        // The stream is fused: nothing later is applied or checkpointed,
        // even once the disk would take it again.
        leader.parts.stream.lock().wal =
            Some(WalWriter::open(dir.join("spare.log"), FsyncPolicy::Always, true).unwrap());
        let later = leader.put_online("user", &key, &[("score", Value::Int(2))], Timestamp::EPOCH);
        assert_eq!(
            later, put,
            "a fused stream answers with the error that fused it"
        );
        assert_eq!(leader.online().get("user", &key, "score"), None);
        assert!(leader.checkpoint().is_err(), "a fused stream checkpointed");
        assert_eq!(leader.published_seq(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parts_with_no_sink_publish_nothing() {
        let parts = LeaderParts::new();
        parts
            .offline
            .write(|s| s.create_table("t", TableConfig::new(Schema::of(&[("x", ValueType::Int)]))))
            .unwrap();
        assert!(!parts.stream.lock().live());
        assert_eq!(parts.stream.lock().seq, 0);

        // A log attached later numbers on from the stream and takes only
        // what is published after it.
        let log = parts.attach_log(8);
        parts
            .offline
            .write(|s| s.append("t", &[Value::Int(1)]))
            .unwrap();
        assert_eq!(log.last_seq(), 1);
        assert_eq!(parts.capture().repl_epoch, 1);
    }
}
