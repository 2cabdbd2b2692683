//! The `"FSEB"` embedding-blob codec — the at-rest form of one embedding
//! version, shared by checkpoints ([`crate::checkpoint`]) and the tiered
//! pager (`fstore-tier`), so the format lives in exactly one place (next
//! to [`crate::codec::crc_block`], which frames it).
//!
//! Layout: `"FSEB" | crc u32 | header_len u32 | header JSON |
//! keys.len()*dim raw little-endian f32s`. The CRC covers everything
//! after itself. The tier crate's `"FSEG"` segment format reuses
//! [`BlobHeader`] for its identity half and adds block geometry on top.

use crate::codec::VersionRepr;
use fstore_common::{FsError, Result, Timestamp};
use fstore_embed::EmbeddingProvenance;
use fstore_serve::codec::crc_block;
use serde::{Deserialize, Serialize};

/// File magic for embedding blobs.
pub(crate) const BLOB_MAGIC: &[u8; 4] = b"FSEB";

/// The metadata half of an embedding version: everything but the vectors,
/// which follow the JSON header as raw little-endian `f32`s in key order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlobHeader {
    pub name: String,
    pub version: u32,
    pub created_at: Timestamp,
    pub provenance: EmbeddingProvenance,
    pub consumers: Vec<String>,
    pub dim: usize,
    pub keys: Vec<String>,
}

impl BlobHeader {
    /// The metadata of `v` (vectors excluded).
    pub(crate) fn of(v: &VersionRepr) -> BlobHeader {
        BlobHeader {
            name: v.name.clone(),
            version: v.version,
            created_at: v.created_at,
            provenance: v.provenance.clone(),
            consumers: v.consumers.clone(),
            dim: v.dim,
            keys: v.keys.clone(),
        }
    }
}

/// Serialize one embedding version as a blob.
pub(crate) fn encode_blob(v: &VersionRepr) -> Result<Vec<u8>> {
    let header = serde_json::to_string(&BlobHeader::of(v))
        .map_err(|e| FsError::Serde(e.to_string()))?
        .into_bytes();
    let mut body = Vec::with_capacity(8 + header.len() + v.vectors.len() * v.dim * 4);
    body.extend_from_slice(&(header.len() as u32).to_le_bytes());
    body.extend_from_slice(&header);
    for vector in &v.vectors {
        if vector.len() != v.dim {
            return Err(FsError::Serde(format!(
                "embedding `{}@v{}` has a {}-dim vector in a {}-dim table",
                v.name,
                v.version,
                vector.len(),
                v.dim
            )));
        }
        for x in vector {
            body.extend_from_slice(&x.to_le_bytes());
        }
    }
    Ok(crc_block::encode(BLOB_MAGIC, &body))
}

/// Decode a blob back into a [`VersionRepr`], verifying magic, CRC, and
/// the vector-byte count against the header.
pub(crate) fn decode_blob(bytes: &[u8]) -> Result<VersionRepr> {
    let body = crc_block::decode(BLOB_MAGIC, bytes)
        .map_err(|e| FsError::Corruption(format!("embedding blob: {e}")))?;
    if body.len() < 4 {
        return Err(FsError::Corruption(
            "truncated embedding blob header".into(),
        ));
    }
    let header_len = u32::from_le_bytes(body[0..4].try_into().unwrap()) as usize;
    if body.len() < 4 + header_len {
        return Err(FsError::Corruption(
            "truncated embedding blob header".into(),
        ));
    }
    let header: BlobHeader = serde_json::from_slice(&body[4..4 + header_len])
        .map_err(|e| FsError::Corruption(format!("unparseable embedding blob header: {e}")))?;
    let vec_bytes = &body[4 + header_len..];
    if vec_bytes.len() != header.keys.len() * header.dim * 4 {
        return Err(FsError::Corruption(format!(
            "embedding blob `{}@v{}` has {} vector bytes, expected {}",
            header.name,
            header.version,
            vec_bytes.len(),
            header.keys.len() * header.dim * 4
        )));
    }
    let vectors = vec_bytes
        .chunks_exact(header.dim * 4)
        .map(|row| {
            row.chunks_exact(4)
                .map(|b| f32::from_le_bytes(b.try_into().unwrap()))
                .collect()
        })
        .collect();
    Ok(VersionRepr {
        name: header.name,
        version: header.version,
        created_at: header.created_at,
        provenance: header.provenance,
        dim: header.dim,
        keys: header.keys,
        vectors,
        consumers: header.consumers,
    })
}
