//! # fstore-tier
//!
//! Tiered embedding storage: larger-than-RAM embedding serving.
//!
//! The embedding store pins every published version fully in memory;
//! this crate moves cold versions to disk and serves them through a
//! bounded hot-block cache, per the MLKV / geo-distributed-serving
//! tiering argument (PAPERS.md):
//!
//! * `segment` — block-aligned `"FSEG"` files (an `"FSEB"`-derived
//!   format sharing [`fstore_durable::fseb::BlobHeader`]): a CRC-guarded
//!   metadata header plus fixed-geometry row blocks, each with its own
//!   CRC, read individually via `FileExt::read_at` — a vector fault never
//!   loads a whole version.
//! * `cache` — [`BlockCache`]: sharded, clock-evicting, byte-budgeted
//!   cache of decoded blocks with pin support and exact accounting.
//! * `pager` — `SpilledTable` (the [`fstore_embed::VectorPager`]
//!   implementation gluing segment + cache under an `EmbeddingTable`) and
//!   [`TieredEmbeddings`], the residency policy: a publication hook wakes
//!   a background demoter that spills unpinned versions when resident
//!   bytes cross the high watermark, keeping the latest version per name
//!   and any index-referenced version pinned in RAM.
//!
//! Serving integration is transparent: a demoted version is re-installed
//! into the [`fstore_embed::EmbeddingDb`] with a spilled table, so
//! `GetEmbedding`, search anchor fetches, and exact-rerank scans fault
//! blocks through the cache without code changes. Stats flow into the
//! `tier` section of `ServingMetrics` via a polled provider.

#![warn(unreachable_pub)]

mod cache;
mod pager;
mod segment;

pub use cache::{BlockCache, BlockKey, CacheStats};
pub use pager::{TierConfig, TierStats, TieredEmbeddings};
