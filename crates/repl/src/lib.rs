//! `fstore-repl` — snapshot-based replication with epoch-consistent
//! followers (paper §2.2.2: scaling the serving tier without giving up
//! the consistency story the epochs provide).
//!
//! The feature store's whole state already flows through epoch-versioned
//! snapshot publications (`SnapshotCell`), which makes replication a
//! matter of shipping publications rather than shipping mutations:
//!
//! * `leader` — [`ReplLeader`] opens a bounded in-memory
//!   [`PubLog`](fstore_common::PubLog) on its components' publication
//!   stream, whose one publish tap diffs each new snapshot against the
//!   last and appends epoch-tagged deltas. It implements the serve crate's
//!   `ReplProvider`, so a leader is just an ordinary server with three
//!   extra endpoints.
//! * `follower` — [`Follower`] bootstraps from a
//!   full snapshot at replication epoch E, then replays deltas E+1..now
//!   into its own cells *at the leader's component epochs*. A follower
//!   that lags past the leader's retention window, or finds itself ahead
//!   of a restarted leader's log, falls back to a fresh full snapshot
//!   (counted, exported via serving metrics). Because
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
//! A leader's publications are write-ahead logged when it is built over
//! a recovered [`DurableLeader`](fstore_durable::DurableLeader)'s parts
//! ([`LeaderParts::from_durable`]): the two share one publication stream,
//! so each publication is encoded once, reaches the WAL before the log,
//! and takes the same sequence in both — and a log opened after a restart
//! continues past the recovered sequence, so cached followers catch up by
//! delta. A publication the WAL refuses is never replicated: the stream
//! fail-stops until the durable leader is reopened.

#![warn(unreachable_pub)]

mod follower;
mod leader;

pub use follower::{Follower, SyncHandle, SyncReport};
pub use fstore_durable::{codec, LeaderParts, SnapshotCache};
pub use leader::ReplLeader;
