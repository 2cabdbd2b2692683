//! # fstore-common
//!
//! Shared substrate for the `fstore` workspace: typed values and schemas,
//! timestamps and partition-date arithmetic, the workspace error type, a
//! deterministic random-number generator used by every workload generator,
//! the CRC-32 checksum every durable file format is guarded with,
//! and the statistics primitives (moments, histograms, quantile sketches,
//! divergence tests, mutual information) that both the feature-quality
//! metrics and the drift monitors are built on.
//!
//! Nothing in this crate knows about features, embeddings, or stores — it is
//! the bottom layer of the dependency graph in `DESIGN.md §1`.

#![warn(unreachable_pub)]

pub mod crc;
mod error;
pub mod hash;
mod repl;
pub mod rng;
mod schema;
mod snapshot;
pub mod stats;
pub mod time;
mod value;
mod vector;

pub use crc::{crc32, crc32_update};
pub use error::{FsError, Result};
pub use repl::{ComponentKind, DeltaQuery, DeltaRecord, PubLog, DEFAULT_LOG_RETENTION};
pub use rng::{Rng, Xoshiro256, Zipf};
pub use schema::{FieldDef, Schema};
pub use snapshot::{ReadEpoch, SnapshotCell, Versioned};
pub use time::{Date, Duration, SimClock, Timestamp};
pub use value::{EntityKey, Value, ValueType};
pub use vector::VectorBuf;
