//! A follower's local snapshot cache: the last full snapshot it pulled,
//! persisted so a restart can bootstrap from disk instead of re-pulling
//! the leader's entire state over the wire.
//!
//! The cache is one file, CRC-guarded and swapped atomically (temp file +
//! rename). A follower that restarts within the leader's retention window
//! installs the cached snapshot, then catches up through ordinary delta
//! sync; only a follower whose cache has lagged past retention pays for a
//! full wire transfer again.

use fstore_common::{FsError, Result};
use fstore_serve::codec::crc_block;
use std::path::PathBuf;

const MAGIC: &[u8; 4] = b"FSSC";

/// One cached full snapshot: `"FSSC" | crc u32 | repl_epoch u64 | payload`.
/// The CRC covers the epoch and payload.
#[derive(Debug, Clone)]
pub struct SnapshotCache {
    path: PathBuf,
}

impl SnapshotCache {
    pub fn new(path: impl Into<PathBuf>) -> SnapshotCache {
        SnapshotCache { path: path.into() }
    }

    /// Persist a snapshot payload captured at `repl_epoch` (atomic swap).
    pub fn store(&self, repl_epoch: u64, payload: &[u8]) -> Result<()> {
        let mut body = Vec::with_capacity(payload.len() + 8);
        body.extend_from_slice(&repl_epoch.to_le_bytes());
        body.extend_from_slice(payload);
        let out = crc_block::encode(MAGIC, &body);

        if let Some(parent) = self.path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| FsError::Storage(format!("create {}: {e}", parent.display())))?;
        }
        let tmp = self.path.with_extension("tmp");
        std::fs::write(&tmp, &out)
            .map_err(|e| FsError::Storage(format!("write snapshot cache: {e}")))?;
        std::fs::rename(&tmp, &self.path)
            .map_err(|e| FsError::Storage(format!("swap snapshot cache: {e}")))
    }

    /// Load the cached snapshot: `Ok(None)` when no cache exists,
    /// `Err(Corruption)` when one exists but fails its checksum.
    pub fn load(&self) -> Result<Option<(u64, Vec<u8>)>> {
        let bytes = match std::fs::read(&self.path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(FsError::Storage(format!("read snapshot cache: {e}"))),
        };
        let body = crc_block::decode(MAGIC, &bytes)
            .map_err(|e| FsError::Corruption(format!("snapshot cache: {e}")))?;
        if body.len() < 8 {
            return Err(FsError::Corruption("truncated snapshot cache".into()));
        }
        let repl_epoch = u64::from_le_bytes(body[0..8].try_into().unwrap());
        Ok(Some((repl_epoch, body[8..].to_vec())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("fstore_cache_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn store_load_round_trip() {
        let cache = SnapshotCache::new(tmp("round.cache"));
        cache.store(42, b"snapshot payload").unwrap();
        let (epoch, payload) = cache.load().unwrap().unwrap();
        assert_eq!(epoch, 42);
        assert_eq!(payload, b"snapshot payload");
        // Overwrites swap in cleanly.
        cache.store(43, b"newer").unwrap();
        assert_eq!(cache.load().unwrap().unwrap(), (43, b"newer".to_vec()));
    }

    #[test]
    fn missing_cache_is_none() {
        let cache = SnapshotCache::new(tmp("never_written.cache"));
        std::fs::remove_file(&cache.path).ok();
        assert!(cache.load().unwrap().is_none());
    }

    #[test]
    fn corruption_is_detected() {
        let path = tmp("corrupt.cache");
        let cache = SnapshotCache::new(&path);
        cache.store(7, b"payload").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(cache.load(), Err(FsError::Corruption(_))));
    }
}
