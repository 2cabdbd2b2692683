//! `fstore-repl` — snapshot-based replication with epoch-consistent
//! followers (paper §2.2.2: scaling the serving tier without giving up
//! the consistency story the epochs provide).
//!
//! The feature store's whole state already flows through epoch-versioned
//! snapshot publications (`SnapshotCell`), which makes replication a
//! matter of shipping publications rather than shipping mutations:
//!
//! * [`leader`] — [`ReplLeader`] hooks every
//!   component's publish path, diffs each new snapshot against the last,
//!   and appends epoch-tagged deltas to a bounded in-memory
//!   [`PubLog`](fstore_common::PubLog). It implements the serve crate's
//!   `ReplProvider`, so a leader is just an ordinary server with three
//!   extra endpoints.
//! * [`follower`] — [`Follower`] bootstraps from a
//!   full snapshot at replication epoch E, then replays deltas E+1..now
//!   into its own cells *at the leader's component epochs*. A follower
//!   that lags past the leader's retention window falls back to a fresh
//!   full snapshot (counted, exported via serving metrics). Because
//!   epochs are leader-dictated all the way down, a synced follower's
//!   responses are byte-identical to the leader's at the same epoch.
//!   [`Follower::bootstrap_with_cache`] restores the last pulled snapshot
//!   from a local [`SnapshotCache`] and catches up by delta, so restarts
//!   within the retention window skip the full wire transfer.
//! * [`codec`] — the JSON delta bodies, the binary full snapshot, and
//!   their idempotent apply functions; index snapshots ship as
//!   deterministic build instructions, never as index bytes. It is
//!   [`fstore_durable::codec`] re-exported (with [`LeaderParts`]): WAL
//!   recovery replays the same records and checkpoints hold the same
//!   snapshot.
//!
//! A leader's publications can be write-ahead logged by layering it over
//! a recovered [`DurableLeader`](fstore_durable::DurableLeader)
//! ([`LeaderParts::from_durable`] + [`ReplLeader::attach_durable`]);
//! replication and durability then tap the same publish hooks.

pub mod follower;
pub mod leader;

pub use follower::{Follower, SyncHandle, SyncReport};
pub use fstore_durable::codec::{
    self, EmbeddingsDelta, FullSnapshot, IndexBuild, IndexDelta, OfflineDelta, OnlineDelta,
    OnlineRows, TableAppend, TableRepr, VersionRepr,
};
pub use fstore_durable::{LeaderParts, SnapshotCache};
pub use leader::ReplLeader;
