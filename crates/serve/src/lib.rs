//! `fstore-serve` — the network serving layer (paper §2.2.2: online
//! feature serving under production traffic).
//!
//! The feature store's `FeatureServer` answers in-process calls; this
//! crate puts it behind a socket with the properties a production serving
//! tier needs:
//!
//! * [`codec`] — the shared byte-level substrate: zero-copy decode
//!   cursors over pooled `Bytes` frames, a `codec::FramePool` free-list
//!   of encode buffers, vectored frame writes, and the per-connection
//!   [`codec::FrameReader`] that carries partial frames across reads
//!   without per-frame allocation.
//! * [`protocol`] — a compact length-prefixed binary wire protocol with
//!   typed error responses; decoding is total (no panics on hostile
//!   input) and oversized frames are refused before allocation.
//! * [`conn`] — the connection engine, a std-only threaded TCP server:
//!   connection threads do framing, a bounded crossbeam channel feeds a
//!   worker pool, and each worker hands its drain to a [`conn::Handler`];
//!   a lone read on an idle connection is served by its reader thread,
//!   under a free worker state. Each connection's replies leave in order
//!   through its outbox.
//! * `server` — [`ServeEngine`], the handler of a feature server, and
//!   its fenced [`WriteState`].
//! * [`catalog`] — per-table ANN index snapshots behind atomically
//!   swappable `Arc`s: background rebuild + swap while search traffic
//!   keeps flowing, with generation counters and staleness metrics.
//! * [`batch`] — workers opportunistically coalesce queued single-entity
//!   lookups that share `(group, features)` into one batch serve, and
//!   vector searches that share `(table, k, options)` into one batch
//!   whose members each run their own search over one shared snapshot.
//! * `admission` — the bounded queue *is* the admission limit; overflow
//!   is shed immediately with a distinct `Overloaded` error, and shutdown
//!   drains admitted work before the pool exits.
//! * [`metrics`] — per-endpoint counters and p50/p95/p99 latency from
//!   streaming P² estimators, dumpable as JSON.
//! * [`api`] — the unified client API: the [`api::Transport`] seam (one
//!   request in, one response out), the [`api::StoreApi`] typed request
//!   surface blanket-implemented for every transport, and the
//!   [`api::ClientBuilder`] that validates a config and builds a
//!   [`failover::FailoverClient`].
//! * [`client`] — the bare blocking client ([`client::FeatureClient`]):
//!   one connection with connect/read/write deadlines and optional
//!   per-request deadline budgets; also the E14 load generator.
//! * [`retry`] — jittered exponential backoff with idempotency-aware
//!   failure classification, pushback detection and write sealing.
//! * `failover` — [`failover::FailoverClient`], the one resilient
//!   client: an ordered endpoint list (leader first, then followers, or a
//!   single endpoint) behind per-endpoint circuit breakers, with
//!   reconnect, retry and backoff. Every burst it sends is settled by one
//!   rule, request by request.
//! * `fault` (feature `testing`) — a deterministic fault-injecting TCP
//!   proxy for chaos tests and the E18 experiment.
//! * `repl` — the [`repl::ReplProvider`] seam: a leader built with
//!   `fstore-repl` answers the `Repl*` endpoints through it, so followers
//!   can bootstrap from a snapshot and stream epoch-tagged deltas.

#![warn(unreachable_pub)]

mod admission;
pub mod api;
pub mod batch;
pub mod catalog;
pub mod client;
pub mod codec;
pub mod conn;
mod failover;
#[cfg(feature = "testing")]
pub mod fault;
pub mod metrics;
mod outbox;
pub mod protocol;
mod repl;
pub mod retry;
mod server;

pub use api::{ClientBuilder, StoreApi, Transport, WriteAck};
pub use catalog::{CatalogError, IndexCatalog, IndexMap, IndexSnapshot, IndexSpec, SearchOutcome};
pub use client::{ClientConfig, ClientError, DeltaBatch, EmbeddingRead, FeatureClient, Neighbors};
pub use codec::{put_frame, FrameEvent, FrameReader};
pub use conn::{start, ServerHandle};
pub use failover::{BreakerConfig, FailoverClient, FailoverStats, StartedBurst};
#[cfg(feature = "testing")]
pub use fault::Faults;
pub use metrics::{
    ControlSnapshot, EndpointSnapshot, IndexStatus, MetricsSnapshot, ServingMetrics, TierSnapshot,
    WireSnapshot,
};
pub use protocol::{
    write_frame, ErrorCode, Request, Response, SearchOptions, WireDelta, WireError, WireHit,
    WireVector, MAX_FRAME_LEN,
};
pub use repl::{ReplLogState, ReplProvider};
pub use retry::{classify, ErrorClass, RetryPolicy};
pub use server::{
    fixed_clock, Clock, OnlineWrite, PromoteHook, ReadScratch, ServeConfig, ServeConfigBuilder,
    ServeEngine, WriteProvider, WriteState,
};
