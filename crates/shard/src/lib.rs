//! `fstore-shard` — horizontal sharding: nothing before this crate
//! scales the *dataset*. Replication (`fstore-repl`) multiplies read
//! capacity, but every node still holds every entity and every embedding
//! table; here the key space is partitioned across shard servers and a
//! router presents them as one store.
//!
//! * `map` — the versioned [`ShardMap`]: consistent hashing over a
//!   vnode ring, balanced and movement-minimal under resharding (both
//!   properties pinned by proptests).
//! * `control` — the minimal [`ControlPlane`]: owns the map in a
//!   snapshot cell, health-checks shard leaders, and promotes a shard's
//!   first follower when its leader misses consecutive probes.
//! * `router` — the scatter-gather [`RouterClient`]: splits batches by
//!   owning shard, fans `SearchNearest` to every shard and merges the
//!   per-shard top-k into a global top-k, and fronts each shard with a
//!   `FailoverClient` (circuit breakers, retries — PR 5's machinery).
//!   It implements the serve crate's `Transport`, so the whole
//!   `StoreApi` works against a cluster unchanged.
//! * `server` — [`start_router`]: the router behind a plain TCP
//!   socket speaking the ordinary wire protocol; clients cannot tell a
//!   router from a single shard server. The front is a handler on the
//!   serve crate's connection engine (`fstore_serve::conn`), not a
//!   connection loop of its own.
//! * `cluster` — the in-process [`ShardCluster`] harness tests and
//!   experiments use to stand up N shards × (leader + followers), kill
//!   leaders, and drive promotions end to end.

#![warn(unreachable_pub)]

mod cluster;
mod control;
mod map;
mod router;
mod server;

pub use cluster::{ClusterConfig, ShardCluster};
pub use control::{ControlPlane, ControlPlaneConfig, PromotionEvent};
pub use map::{ShardId, ShardInfo, ShardMap};
pub use router::{merge_topk, RouterClient, RouterConfig};
pub use server::{start_router, RouterHandle};
