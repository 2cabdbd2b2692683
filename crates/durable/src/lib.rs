//! # fstore-durable
//!
//! Durability for the serving stack (paper §2.2.2's operational reality:
//! a feature store's serving tier must survive restarts without serving
//! wrong answers): a write-ahead log, on-disk columnar checkpoints, and
//! crash recovery that restarts a leader into its last *published* epoch.
//!
//! * [`wal`] — length-prefixed, CRC-32-checksummed records with
//!   epoch-tagged commit markers and a configurable fsync policy; recovery
//!   replays to the last complete commit and truncates the torn tail.
//! * [`checkpoint`] — the binary at-rest forms of the four components
//!   (offline segments, embedding blobs, an online row block) under an
//!   atomically swapped manifest.
//! * `leader` — [`DurableLeader`] logs every publication of its
//!   [`LeaderParts`]; `open` is both cold start and crash recovery.
//! * [`codec`] — the delta bodies, the binary full snapshot, and the
//!   idempotent apply functions shared by replication and recovery
//!   (`fstore-repl` re-exports it).
//! * [`fseb`] — the `"FSEB"` embedding-blob codec, shared by checkpoints
//!   and the tiered pager (`fstore-tier`) so the at-rest format lives in
//!   exactly one place.
//! * `cache` — a follower's persisted last full snapshot, so restarts
//!   bootstrap from disk and catch up by delta instead of re-pulling the
//!   leader's whole state.

#![warn(unreachable_pub)]

mod cache;
pub mod checkpoint;
pub mod codec;
pub mod fseb;
mod leader;
pub mod wal;

pub use cache::SnapshotCache;
pub use checkpoint::CheckpointStore;
pub use leader::{DurableConfig, DurableLeader, LeaderParts, RecoveryReport};
pub use wal::{FsyncPolicy, WalRecord, WalReplay, WalWriter};
