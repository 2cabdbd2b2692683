//! `"FSEG"` segment files: one spilled embedding version, block-aligned.
//!
//! The format derives from the `"FSEB"` checkpoint blob — the metadata
//! half *is* [`BlobHeader`] — but lays the vectors out in fixed-geometry
//! blocks so a read faults one block, not the whole version:
//!
//! ```text
//! "FSEG" | crc32(meta) u32 LE | meta_len u32 LE | meta JSON
//!        | num_blocks × u32 LE per-block CRCs
//!        | zero pad to a 4096-aligned data offset
//!        | block 0 | block 1 | … (raw LE f32 rows, last block short)
//! ```
//!
//! Block `i` holds rows `[i·rpb, min((i+1)·rpb, len))` where `rpb` is
//! `rows_per_block` from the metadata; every offset is derivable from the
//! header alone, so reads are pure `read_at` with no directory state. A
//! corrupted CRC-table entry reads as a corrupted block — either way the
//! fault fails loudly instead of serving wrong bytes. Segments are
//! derived state: recovery rebuilds them from the checkpoint + WAL, so
//! writes go through a temp file + rename but take no fsync.

use fstore_common::{crc32, FsError, Result};
use fstore_durable::fseb::BlobHeader;
use fstore_embed::EmbeddingVersion;
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File magic for tier segments.
pub(crate) const SEGMENT_MAGIC: &[u8; 4] = b"FSEG";

/// Data blocks start on this alignment.
const DATA_ALIGN: u64 = 4096;

/// The JSON metadata half of a segment: the blob identity plus block
/// geometry.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SegmentMeta {
    blob: BlobHeader,
    rows_per_block: u32,
}

/// An open segment: metadata resident, vectors on disk, blocks served
/// individually through [`Segment::read_block`].
#[derive(Debug)]
pub(crate) struct Segment {
    file: File,
    path: PathBuf,
    meta: SegmentMeta,
    block_crcs: Vec<u32>,
    data_offset: u64,
}

fn io_err(op: &str, path: &Path, e: std::io::Error) -> FsError {
    FsError::Storage(format!("{op} {}: {e}", path.display()))
}

fn blocks_for(rows: usize, rows_per_block: u32) -> usize {
    rows.div_ceil(rows_per_block as usize)
}

fn align_up(n: u64, align: u64) -> u64 {
    n.div_ceil(align) * align
}

impl Segment {
    /// Write `version` as a segment at `path` (temp file + rename, so a
    /// crash mid-write never leaves a file that opens). `block_bytes` is
    /// the target block payload size; at least one row fits per block.
    ///
    /// Rows stream out one block buffer at a time — demotion never
    /// re-materializes the version.
    pub(crate) fn write(path: &Path, version: &EmbeddingVersion, block_bytes: usize) -> Result<()> {
        let table = &version.table;
        let dim = table.dim();
        let keys: Vec<String> = table.keys().into_iter().map(str::to_string).collect();
        let row_bytes = dim * 4;
        let rows_per_block = (block_bytes / row_bytes).max(1) as u32;
        let num_blocks = blocks_for(keys.len(), rows_per_block);

        let meta = SegmentMeta {
            blob: BlobHeader {
                name: version.name.clone(),
                version: version.version,
                created_at: version.created_at,
                provenance: version.provenance.clone(),
                consumers: version.consumers.clone(),
                dim,
                keys: keys.clone(),
            },
            rows_per_block,
        };
        let meta_json = serde_json::to_string(&meta)
            .map_err(|e| FsError::Serde(e.to_string()))?
            .into_bytes();
        let data_offset = align_up(
            12 + meta_json.len() as u64 + 4 * num_blocks as u64,
            DATA_ALIGN,
        );

        let tmp = path.with_extension("seg.tmp");
        let mut file = File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
        file.write_all(SEGMENT_MAGIC)
            .and_then(|()| file.write_all(&crc32(&meta_json).to_le_bytes()))
            .and_then(|()| file.write_all(&(meta_json.len() as u32).to_le_bytes()))
            .and_then(|()| file.write_all(&meta_json))
            .map_err(|e| io_err("write header", &tmp, e))?;

        // Blocks first (streaming, CRCs computed as they go), CRC table
        // backfilled after.
        file.seek(SeekFrom::Start(data_offset))
            .map_err(|e| io_err("seek", &tmp, e))?;
        let mut block_crcs = Vec::with_capacity(num_blocks);
        let mut block = Vec::with_capacity(rows_per_block as usize * row_bytes);
        for (row, key) in keys.iter().enumerate() {
            let v = table.fetch(key)?.ok_or_else(|| {
                FsError::Embedding(format!("row `{key}` vanished during segment write"))
            })?;
            for &x in v.as_slice() {
                block.extend_from_slice(&x.to_le_bytes());
            }
            let last = row + 1 == keys.len();
            if (row + 1) % rows_per_block as usize == 0 || last {
                block_crcs.push(crc32(&block));
                file.write_all(&block)
                    .map_err(|e| io_err("write block", &tmp, e))?;
                block.clear();
            }
        }
        file.seek(SeekFrom::Start(12 + meta_json.len() as u64))
            .map_err(|e| io_err("seek", &tmp, e))?;
        for crc in &block_crcs {
            file.write_all(&crc.to_le_bytes())
                .map_err(|e| io_err("write crc table", &tmp, e))?;
        }
        file.flush().map_err(|e| io_err("flush", &tmp, e))?;
        drop(file);
        std::fs::rename(&tmp, path).map_err(|e| io_err("publish", path, e))?;
        Ok(())
    }

    /// Open a segment, validating magic, metadata CRC, and the file size
    /// against the declared geometry.
    pub(crate) fn open(path: impl Into<PathBuf>) -> Result<Segment> {
        let path = path.into();
        let file = File::open(&path).map_err(|e| io_err("open", &path, e))?;
        let mut fixed = [0u8; 12];
        file.read_exact_at(&mut fixed, 0)
            .map_err(|e| io_err("read header", &path, e))?;
        if &fixed[0..4] != SEGMENT_MAGIC {
            return Err(FsError::Corruption(format!(
                "{}: bad segment magic",
                path.display()
            )));
        }
        let meta_crc = u32::from_le_bytes(fixed[4..8].try_into().unwrap());
        let meta_len = u32::from_le_bytes(fixed[8..12].try_into().unwrap()) as usize;
        let mut meta_json = vec![0u8; meta_len];
        file.read_exact_at(&mut meta_json, 12)
            .map_err(|e| io_err("read metadata", &path, e))?;
        if crc32(&meta_json) != meta_crc {
            return Err(FsError::Corruption(format!(
                "{}: segment metadata CRC mismatch",
                path.display()
            )));
        }
        let meta: SegmentMeta = serde_json::from_slice(&meta_json).map_err(|e| {
            FsError::Corruption(format!("{}: bad segment meta: {e}", path.display()))
        })?;
        if meta.blob.dim == 0 || meta.rows_per_block == 0 {
            return Err(FsError::Corruption(format!(
                "{}: impossible segment geometry",
                path.display()
            )));
        }
        let num_blocks = blocks_for(meta.blob.keys.len(), meta.rows_per_block);
        let mut crc_table = vec![0u8; num_blocks * 4];
        file.read_exact_at(&mut crc_table, 12 + meta_len as u64)
            .map_err(|e| io_err("read crc table", &path, e))?;
        let block_crcs = crc_table
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
            .collect();
        let data_offset = align_up(12 + meta_len as u64 + 4 * num_blocks as u64, DATA_ALIGN);
        let file_len = file.metadata().map_err(|e| io_err("stat", &path, e))?.len();
        let payload = (meta.blob.keys.len() * meta.blob.dim * 4) as u64;
        if file_len < data_offset + payload {
            return Err(FsError::Corruption(format!(
                "{}: segment truncated ({file_len} bytes, need {})",
                path.display(),
                data_offset + payload
            )));
        }
        Ok(Segment {
            file,
            path,
            meta,
            block_crcs,
            data_offset,
        })
    }

    pub(crate) fn dim(&self) -> usize {
        self.meta.blob.dim
    }

    /// Number of rows (vectors) in the segment.
    pub(crate) fn len(&self) -> usize {
        self.meta.blob.keys.len()
    }

    /// Entity keys in row order.
    pub(crate) fn keys(&self) -> &[String] {
        &self.meta.blob.keys
    }

    pub(crate) fn rows_per_block(&self) -> usize {
        self.meta.rows_per_block as usize
    }

    pub(crate) fn num_blocks(&self) -> usize {
        self.block_crcs.len()
    }

    /// The block holding `row` and the row's float offset inside it.
    pub(crate) fn locate_row(&self, row: usize) -> (usize, usize) {
        let rpb = self.rows_per_block();
        (row / rpb, (row % rpb) * self.dim())
    }

    /// Rows in block `i` (the last block may be short).
    pub(crate) fn block_rows(&self, block: usize) -> usize {
        let rpb = self.rows_per_block();
        (self.len() - block * rpb).min(rpb)
    }

    /// Total on-disk vector payload bytes.
    pub(crate) fn payload_bytes(&self) -> u64 {
        (self.len() * self.dim() * 4) as u64
    }

    /// Fault one block from disk: a single `read_at` of the block's
    /// payload, CRC-verified, decoded to `f32`s straight into one shared
    /// allocation the cache can hold.
    pub(crate) fn read_block(&self, block: usize) -> Result<Arc<[f32]>> {
        if block >= self.num_blocks() {
            return Err(FsError::InvalidArgument(format!(
                "block {block} out of range ({} blocks)",
                self.num_blocks()
            )));
        }
        let rpb = self.rows_per_block();
        let row_bytes = self.dim() * 4;
        let offset = self.data_offset + (block * rpb * row_bytes) as u64;
        let nbytes = self.block_rows(block) * row_bytes;
        let mut buf = vec![0u8; nbytes];
        self.file
            .read_exact_at(&mut buf, offset)
            .map_err(|e| io_err("read block", &self.path, e))?;
        if crc32(&buf) != self.block_crcs[block] {
            return Err(FsError::Corruption(format!(
                "{}: block {block} CRC mismatch",
                self.path.display()
            )));
        }
        Ok(buf
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes(b.try_into().expect("a 4-byte chunk")))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fstore_common::Timestamp;
    use fstore_embed::{EmbeddingProvenance, EmbeddingTable};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fstore_tier_seg_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn version(rows: usize, dim: usize) -> EmbeddingVersion {
        let mut t = EmbeddingTable::new(dim).unwrap();
        for i in 0..rows {
            let v: Vec<f32> = (0..dim).map(|j| (i * dim + j) as f32 * 0.5 - 3.0).collect();
            t.insert(format!("k{i:04}"), v).unwrap();
        }
        EmbeddingVersion {
            name: "emb".into(),
            version: 7,
            created_at: Timestamp::millis(99),
            provenance: EmbeddingProvenance::default(),
            table: t,
            consumers: vec!["ranker".into()],
        }
    }

    #[test]
    fn segment_round_trips_every_row() {
        let v = version(37, 3);
        let path = tmp("round.seg");
        // 2 rows per block → 19 blocks, last one short.
        Segment::write(&path, &v, 24).unwrap();
        let seg = Segment::open(&path).unwrap();
        assert_eq!(seg.dim(), 3);
        assert_eq!(seg.len(), 37);
        assert_eq!(seg.rows_per_block(), 2);
        assert_eq!(seg.num_blocks(), 19);
        assert_eq!(seg.meta.blob.name, "emb");
        assert_eq!(seg.meta.blob.version, 7);
        assert_eq!(seg.meta.blob.consumers, vec!["ranker".to_string()]);
        for (row, key) in seg.keys().to_vec().iter().enumerate() {
            let (block, off) = seg.locate_row(row);
            let data = seg.read_block(block).unwrap();
            let got = &data[off..off + 3];
            let want = v.table.get(key).unwrap();
            assert_eq!(got, want, "row {row}");
        }
    }

    #[test]
    fn block_sized_for_target_bytes() {
        let v = version(100, 4);
        let path = tmp("sized.seg");
        Segment::write(&path, &v, 64).unwrap(); // 4 rows of 16 bytes per block
        let seg = Segment::open(&path).unwrap();
        assert_eq!(seg.rows_per_block(), 4);
        assert_eq!(seg.num_blocks(), 25);
        assert_eq!(seg.block_rows(24), 4);
        assert_eq!(seg.payload_bytes(), 100 * 16);
        // Tiny target still fits one row per block.
        let path1 = tmp("sized1.seg");
        Segment::write(&path1, &v, 1).unwrap();
        assert_eq!(Segment::open(&path1).unwrap().rows_per_block(), 1);
    }

    #[test]
    fn corruption_is_detected() {
        let v = version(8, 2);
        let path = tmp("corrupt.seg");
        Segment::write(&path, &v, 16).unwrap();
        let clean = std::fs::read(&path).unwrap();
        let seg = Segment::open(&path).unwrap();
        let data_start = {
            // Every block read works on the clean file.
            for b in 0..seg.num_blocks() {
                seg.read_block(b).unwrap();
            }
            clean.len() - seg.payload_bytes() as usize
        };

        // Flip a byte in the first data block.
        let mut bad = clean.clone();
        bad[data_start] ^= 0xff;
        std::fs::write(&path, &bad).unwrap();
        let seg = Segment::open(&path).unwrap();
        assert!(matches!(seg.read_block(0), Err(FsError::Corruption(_))));

        // Flip a byte in the metadata.
        let mut bad = clean.clone();
        bad[16] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(Segment::open(&path), Err(FsError::Corruption(_))));

        // Truncate the data region (torn write mid-demotion).
        std::fs::write(&path, &clean[..clean.len() - 5]).unwrap();
        assert!(matches!(Segment::open(&path), Err(FsError::Corruption(_))));

        // Flip a CRC-table entry: the matching block read fails.
        let mut bad = clean.clone();
        let crc_table_at = 12 + u32::from_le_bytes(clean[8..12].try_into().unwrap()) as usize;
        bad[crc_table_at] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        let seg = Segment::open(&path).unwrap();
        assert!(matches!(seg.read_block(0), Err(FsError::Corruption(_))));
        seg.read_block(1).unwrap();
    }

    #[test]
    fn bad_magic_and_out_of_range_blocks_are_rejected() {
        let path = tmp("magic.seg");
        std::fs::write(&path, b"NOPE0000000000").unwrap();
        assert!(matches!(Segment::open(&path), Err(FsError::Corruption(_))));

        let v = version(4, 2);
        let path = tmp("range.seg");
        Segment::write(&path, &v, 1024).unwrap();
        let seg = Segment::open(&path).unwrap();
        assert_eq!(seg.num_blocks(), 1);
        assert!(seg.read_block(1).is_err());
    }
}
