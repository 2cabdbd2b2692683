//! # fstore-storage
//!
//! The dual datastore at the heart of a feature store (paper §2.2.2):
//!
//! * an **offline store** — an embedded columnar warehouse with date
//!   partitioning, per-segment zone maps and predicate pushdown, used for
//!   training-set construction and batch feature computation; and
//! * an **online store** — a sharded in-memory key-value store with per-write
//!   freshness timestamps and TTL expiry, used to serve features to deployed
//!   models at point-lookup latency.
//!
//! The two stores deliberately expose different access grains (scans vs.
//! lookups); experiment **E1** measures the latency contrast that motivates
//! keeping both.

#![warn(unreachable_pub)]

mod column;
mod db;
mod disk;
mod offline;
mod online;
mod predicate;
mod segment;

pub use db::OfflineDb;
pub use offline::{OfflineStore, ScanRequest, ScanResult, ScanStats, TableConfig};
pub use online::{FeatureId, OnlineEntry, OnlineStore, OnlineStoreStats};
pub use predicate::{CmpOp, Predicate};
