//! Checkpoints: the durable base state the WAL replays on top of.
//!
//! A checkpoint directory holds the four components in binary at-rest
//! forms — the offline store as columnar segments
//! ([`OfflineStore::save_binary`]), each embedding version as a raw-vector
//! blob, and online rows plus index builds as one [`encode_online_bin`]
//! file. A `MANIFEST.json` names the live checkpoint and the component
//! epochs it was captured at; it is swapped with a temp-file-plus-rename,
//! so the manifest either names a complete checkpoint or the previous one
//! — never a half-written directory. Stale checkpoint directories and
//! rotated WAL files are only garbage-collected *after* the swap.
//!
//! Layout under the durability directory:
//!
//! ```text
//! MANIFEST.json            → { version: 2, repl_epoch, component epochs }
//! checkpoint-<epoch>/      offline.bin, emb-<i>.blob, online.bin
//! wal-<epoch>.log          the WAL since that checkpoint
//! ```

use crate::codec::{
    crc_block, decode_block, put_index_builds, put_online_rows, take_index_builds,
    take_online_rows, FullSnapshot, IndexBuild, OnlineRows,
};
use crate::fseb::{decode_blob, encode_blob};
use bytes::BytesMut;
use fstore_common::{FsError, Result};
use fstore_storage::OfflineStore;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// v2: online rows and index builds moved from JSON into `online.bin`.
const MANIFEST_VERSION: u32 = 2;

/// File magic of `online.bin`.
pub const ONLINE_MAGIC: &[u8; 4] = b"FSOR";

/// Encode `online.bin`: the online row block, then the index builds, in
/// the [full snapshot](crate::codec::encode_snapshot) encodings, as one
/// CRC block.
pub fn encode_online_bin(online: &OnlineRows, indexes: &[IndexBuild]) -> Vec<u8> {
    let mut buf = BytesMut::new();
    put_online_rows(&mut buf, online);
    put_index_builds(&mut buf, indexes);
    crc_block::encode(ONLINE_MAGIC, &buf)
}

/// Decode [`encode_online_bin`] bytes; anything but an intact file is
/// [`FsError::Corruption`].
pub fn decode_online_bin(bytes: &[u8]) -> Result<(OnlineRows, Vec<IndexBuild>)> {
    decode_block(ONLINE_MAGIC, "online.bin", bytes, |r| {
        Ok((take_online_rows(r)?, take_index_builds(r)?))
    })
}

/// The durable root's commit record: which checkpoint is live and the
/// epochs its components were captured at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Manifest {
    pub(crate) version: u32,
    /// The WAL sequence number the checkpoint covers: recovery loads the
    /// checkpoint, then replays `wal-<repl_epoch>.log` past it.
    pub(crate) repl_epoch: u64,
    pub(crate) offline_epoch: u64,
    pub(crate) embeddings_epoch: u64,
    pub(crate) index_epoch: u64,
}

/// Everything a checkpoint persists (and recovery loads back): exactly a
/// full snapshot at the checkpoint's WAL sequence.
pub(crate) type CheckpointData = FullSnapshot;

fn write_file(path: &Path, bytes: &[u8]) -> Result<()> {
    std::fs::write(path, bytes)
        .map_err(|e| FsError::Storage(format!("write {}: {e}", path.display())))
}

fn read_file(path: &Path) -> Result<Vec<u8>> {
    std::fs::read(path).map_err(|e| FsError::Storage(format!("read {}: {e}", path.display())))
}

/// The on-disk root: manifest, checkpoint directories, WAL files.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Open (creating if needed) a durability directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<CheckpointStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| FsError::Storage(format!("create {}: {e}", dir.display())))?;
        Ok(CheckpointStore { dir })
    }

    /// The WAL file paired with the checkpoint at `repl_epoch`.
    pub fn wal_path(&self, repl_epoch: u64) -> PathBuf {
        self.dir.join(format!("wal-{repl_epoch}.log"))
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("MANIFEST.json")
    }

    fn checkpoint_dir(&self, repl_epoch: u64) -> PathBuf {
        self.dir.join(format!("checkpoint-{repl_epoch}"))
    }

    /// Read the manifest; `None` means a cold (never-checkpointed) root.
    pub(crate) fn load_manifest(&self) -> Result<Option<Manifest>> {
        let bytes = match std::fs::read(self.manifest_path()) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(FsError::Storage(format!("read manifest: {e}"))),
        };
        let manifest: Manifest = serde_json::from_slice(&bytes)
            .map_err(|e| FsError::Corruption(format!("unparseable manifest: {e}")))?;
        if manifest.version != MANIFEST_VERSION {
            return Err(FsError::Storage(format!(
                "unsupported manifest v{} (expected v{MANIFEST_VERSION})",
                manifest.version
            )));
        }
        Ok(Some(manifest))
    }

    /// Persist a checkpoint and swap the manifest to it. Everything lands
    /// in a temp directory first; the `rename` into place and then the
    /// manifest's own temp-file rename are the only visible transitions.
    ///
    /// A checkpoint for `repl_epoch` that already exists *and* is named by
    /// the manifest is left alone — equal epochs mean equal state (the WAL
    /// sequence totally orders publications), so rewriting it buys nothing.
    pub(crate) fn write(&self, data: &CheckpointData) -> Result<Manifest> {
        let manifest = Manifest {
            version: MANIFEST_VERSION,
            repl_epoch: data.repl_epoch,
            offline_epoch: data.offline_epoch,
            embeddings_epoch: data.embeddings_epoch,
            index_epoch: data.index_epoch,
        };
        let final_dir = self.checkpoint_dir(data.repl_epoch);
        let current = self.load_manifest().ok().flatten();
        if final_dir.exists() && current.is_some_and(|m| m.repl_epoch == data.repl_epoch) {
            return Ok(manifest);
        }

        let tmp_dir = self.dir.join(format!("checkpoint-{}.tmp", data.repl_epoch));
        if tmp_dir.exists() {
            std::fs::remove_dir_all(&tmp_dir)
                .map_err(|e| FsError::Storage(format!("clear stale tmp checkpoint: {e}")))?;
        }
        std::fs::create_dir_all(&tmp_dir)
            .map_err(|e| FsError::Storage(format!("create tmp checkpoint: {e}")))?;

        data.offline.save_binary(&tmp_dir.join("offline.bin"))?;
        for (i, version) in data.embeddings.iter().enumerate() {
            write_file(
                &tmp_dir.join(format!("emb-{i}.blob")),
                &encode_blob(version)?,
            )?;
        }
        write_file(
            &tmp_dir.join("online.bin"),
            &encode_online_bin(&data.online, &data.indexes),
        )?;

        if final_dir.exists() {
            // Not named by the manifest (interrupted earlier attempt) —
            // safe to replace.
            std::fs::remove_dir_all(&final_dir)
                .map_err(|e| FsError::Storage(format!("clear orphan checkpoint: {e}")))?;
        }
        std::fs::rename(&tmp_dir, &final_dir)
            .map_err(|e| FsError::Storage(format!("publish checkpoint: {e}")))?;

        let tmp_manifest = self.dir.join("MANIFEST.json.tmp");
        write_file(
            &tmp_manifest,
            serde_json::to_string_pretty(&manifest)
                .map_err(|e| FsError::Serde(e.to_string()))?
                .as_bytes(),
        )?;
        std::fs::rename(&tmp_manifest, self.manifest_path())
            .map_err(|e| FsError::Storage(format!("swap manifest: {e}")))?;
        Ok(manifest)
    }

    /// Load the checkpoint the manifest names (`None` on a cold root).
    pub fn load(&self) -> Result<Option<CheckpointData>> {
        let Some(manifest) = self.load_manifest()? else {
            return Ok(None);
        };
        let dir = self.checkpoint_dir(manifest.repl_epoch);
        let offline = OfflineStore::load_binary(&dir.join("offline.bin"))?;
        let mut embeddings = Vec::new();
        for i in 0.. {
            let path = dir.join(format!("emb-{i}.blob"));
            if !path.exists() {
                break;
            }
            embeddings.push(decode_blob(&read_file(&path)?)?);
        }
        let (online, indexes) = decode_online_bin(&read_file(&dir.join("online.bin"))?)?;
        Ok(Some(CheckpointData {
            repl_epoch: manifest.repl_epoch,
            offline,
            offline_epoch: manifest.offline_epoch,
            embeddings,
            embeddings_epoch: manifest.embeddings_epoch,
            online,
            indexes,
            index_epoch: manifest.index_epoch,
        }))
    }

    /// Remove checkpoint directories and WAL files other than the ones for
    /// `keep_epoch`. Called only after a manifest swap, so nothing the live
    /// manifest references is ever deleted.
    pub(crate) fn gc(&self, keep_epoch: u64) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        let keep_ckpt = format!("checkpoint-{keep_epoch}");
        let keep_wal = format!("wal-{keep_epoch}.log");
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let stale_ckpt = name.starts_with("checkpoint-") && name != keep_ckpt;
            let stale_wal = name.starts_with("wal-") && name != keep_wal;
            if stale_ckpt {
                let _ = std::fs::remove_dir_all(entry.path());
            } else if stale_wal {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::VersionRepr;
    use fstore_common::{EntityKey, Schema, Timestamp, Value, ValueType};
    use fstore_embed::EmbeddingProvenance;
    use fstore_serve::IndexSpec;
    use fstore_storage::{OnlineStore, TableConfig};

    fn tmp_root(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("fstore_ckpt_tests").join(name);
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn sample_data(repl_epoch: u64) -> CheckpointData {
        let mut offline = OfflineStore::new();
        offline
            .create_table("t", TableConfig::new(Schema::of(&[("x", ValueType::Int)])))
            .unwrap();
        offline.append("t", &[Value::Int(7)]).unwrap();
        let online = OnlineStore::default();
        online.put(
            "user",
            &EntityKey::new("u1"),
            "score",
            Value::Float(0.5),
            Timestamp::millis(9),
        );
        CheckpointData {
            repl_epoch,
            offline,
            offline_epoch: 3,
            embeddings: vec![VersionRepr {
                name: "emb".into(),
                version: 1,
                created_at: Timestamp::millis(5),
                provenance: EmbeddingProvenance::default(),
                dim: 2,
                keys: vec!["a".into(), "b".into()],
                vectors: vec![vec![1.0, 2.0], vec![3.0, -0.5]],
                consumers: vec!["ranker".into()],
            }],
            embeddings_epoch: 2,
            online: OnlineRows::capture(&online),
            indexes: vec![IndexBuild {
                table: "emb".into(),
                spec: IndexSpec::Flat,
                built_from_version: 1,
                generation: 4,
            }],
            index_epoch: 4,
        }
    }

    #[test]
    fn checkpoint_round_trips() {
        let store = CheckpointStore::open(tmp_root("round_trip")).unwrap();
        assert!(store.load().unwrap().is_none());
        let data = sample_data(11);
        let manifest = store.write(&data).unwrap();
        assert_eq!(manifest.repl_epoch, 11);

        let loaded = store.load().unwrap().unwrap();
        assert_eq!(loaded.repl_epoch, 11);
        assert_eq!(loaded.offline_epoch, 3);
        assert_eq!(loaded.offline.num_rows("t").unwrap(), 1);
        assert_eq!(loaded.embeddings, data.embeddings);
        assert_eq!(loaded.online, data.online);
        assert_eq!(loaded.indexes, data.indexes);
        assert_eq!(loaded.index_epoch, 4);
    }

    #[test]
    fn blob_round_trips_and_rejects_corruption() {
        let v = sample_data(1).embeddings.remove(0);
        let bytes = encode_blob(&v).unwrap();
        assert_eq!(decode_blob(&bytes).unwrap(), v);
        for i in [0, 5, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(
                matches!(decode_blob(&bad), Err(FsError::Corruption(_))),
                "byte {i}"
            );
        }
    }

    #[test]
    fn newer_checkpoint_supersedes_and_gc_removes_the_old_one() {
        let store = CheckpointStore::open(tmp_root("supersede")).unwrap();
        store.write(&sample_data(5)).unwrap();
        let mut newer = sample_data(9);
        newer.offline.append("t", &[Value::Int(8)]).unwrap();
        store.write(&newer).unwrap();
        std::fs::write(store.wal_path(9), b"").unwrap();
        store.gc(9);

        assert!(!store.dir.join("checkpoint-5").exists());
        assert!(store.dir.join("checkpoint-9").exists());
        assert!(store.wal_path(9).exists());
        let loaded = store.load().unwrap().unwrap();
        assert_eq!(loaded.repl_epoch, 9);
        assert_eq!(loaded.offline.num_rows("t").unwrap(), 2);
    }

    #[test]
    fn rewriting_the_live_epoch_is_a_no_op() {
        let store = CheckpointStore::open(tmp_root("same_epoch")).unwrap();
        store.write(&sample_data(5)).unwrap();
        // Same epoch again (recovery that replayed nothing) — must not fail
        // on the existing directory.
        store.write(&sample_data(5)).unwrap();
        assert_eq!(store.load().unwrap().unwrap().repl_epoch, 5);
    }

    #[test]
    fn empty_components_checkpoint_cleanly() {
        let store = CheckpointStore::open(tmp_root("empty")).unwrap();
        let data = CheckpointData {
            repl_epoch: 0,
            offline: OfflineStore::new(),
            offline_epoch: 0,
            embeddings: Vec::new(),
            embeddings_epoch: 0,
            online: OnlineRows::default(),
            indexes: Vec::new(),
            index_epoch: 0,
        };
        store.write(&data).unwrap();
        let loaded = store.load().unwrap().unwrap();
        assert!(loaded.offline.table_names().is_empty());
        assert!(loaded.embeddings.is_empty());
    }

    #[test]
    fn a_v1_root_is_an_unsupported_manifest() {
        let store = CheckpointStore::open(tmp_root("v1")).unwrap();
        store.write(&sample_data(3)).unwrap();
        let path = store.dir.join("MANIFEST.json");
        let v1 = std::fs::read_to_string(&path)
            .unwrap()
            .replace("\"version\": 2", "\"version\": 1");
        std::fs::write(&path, v1).unwrap();
        match store.load() {
            Err(FsError::Storage(e)) => assert!(e.contains("unsupported manifest v1"), "{e}"),
            other => panic!("a v1 root loaded as {other:?}"),
        }
    }
}
