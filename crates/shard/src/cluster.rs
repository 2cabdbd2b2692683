//! An in-process sharded cluster for tests, examples, and experiments:
//! N shards, each a replication leader with optional followers, plus the
//! control plane wired over all of them.
//!
//! This is a harness, not a deployment tool — every process boundary is
//! a real TCP socket (the router cannot tell), but all servers run in
//! this process so a test can kill a leader, watch the control plane
//! promote, and then perform the data-plane promotion
//! ([`ShardCluster::promote_local`]) that turns the surviving follower
//! into a replication leader accepting writes.

use crate::control::{ControlPlane, ControlPlaneConfig};
use crate::map::{ShardId, ShardInfo, ShardMap};
use crate::router::{RouterClient, RouterConfig};
use fstore_common::{EntityKey, FsError, Result, Timestamp, Value};
use fstore_repl::{Follower, LeaderParts, ReplLeader, SyncHandle};
use fstore_serve::{
    start, Clock, ControlSnapshot, PromoteHook, ServeConfig, ServerHandle, WriteProvider,
};
use parking_lot::Mutex;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Cluster shape and tuning.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Number of shards.
    pub shards: usize,
    /// Followers per shard (0 = leaders only; promotion then impossible).
    pub followers: usize,
    /// Server tuning applied to every shard server (the bind address is
    /// always overridden to an ephemeral localhost port).
    pub serve: ServeConfig,
    /// Publication-log retention per shard leader.
    pub retention: usize,
    /// Follower delta-poll cadence.
    pub sync_interval: Duration,
    /// Control-plane probe tuning.
    pub control: ControlPlaneConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 2,
            followers: 1,
            serve: ServeConfig::default(),
            retention: 256,
            sync_interval: Duration::from_millis(5),
            control: ControlPlaneConfig::default(),
        }
    }
}

/// One shard's runtime pieces.
struct ShardNode {
    id: ShardId,
    leader: Arc<ReplLeader>,
    /// `None` after [`ShardCluster::kill_leader`].
    leader_server: Option<ServerHandle>,
    /// The leader endpoint's fixed address, so a revived leader rebinds
    /// where the map (and any pending fence) expects it.
    leader_addr: SocketAddr,
    /// The term the original leader was installed at — what a revived
    /// (crash-recovered) leader process still believes it holds.
    leader_term: u64,
    followers: Vec<FollowerNode>,
}

struct FollowerNode {
    follower: Arc<Follower>,
    /// Taken (and stopped) when the follower is promoted — shared with
    /// the serve engine's promotion hook, which fires on a wire-level
    /// `Promote` from the control plane.
    sync: Arc<Mutex<Option<SyncHandle>>>,
    /// Set once, by whichever path promotes first (wire or
    /// [`ShardCluster::promote_local`]).
    promoted: Arc<Mutex<Option<Arc<ReplLeader>>>>,
    server: ServerHandle,
}

/// Promote a follower exactly once: stop its sync loop and wrap its
/// replicated components in a fresh [`ReplLeader`]. Both promotion paths
/// (the engine's wire hook and [`ShardCluster::promote_local`]) funnel
/// here, so a double promotion returns the same leader instead of
/// wrapping the components twice.
fn promote_follower(
    follower: &Arc<Follower>,
    sync: &Arc<Mutex<Option<SyncHandle>>>,
    promoted: &Arc<Mutex<Option<Arc<ReplLeader>>>>,
    retention: usize,
) -> Arc<ReplLeader> {
    let mut slot = promoted.lock();
    if let Some(leader) = slot.as_ref() {
        return Arc::clone(leader);
    }
    if let Some(sync) = sync.lock().take() {
        sync.stop();
    }
    let leader = follower.promote(retention);
    *slot = Some(Arc::clone(&leader));
    leader
}

/// A running sharded cluster; see the module docs.
pub struct ShardCluster {
    nodes: Vec<ShardNode>,
    control: Arc<ControlPlane>,
    router_config: RouterConfig,
    config: ClusterConfig,
    clock: Clock,
}

impl ShardCluster {
    /// Start `config.shards` shard leaders (plus followers) on ephemeral
    /// ports, build the shard map, and stand up the control plane. The
    /// probe loop is *not* started — drive `probe_once` from the test.
    pub fn start(config: ClusterConfig, clock: Clock) -> Result<ShardCluster> {
        assert!(config.shards > 0, "a cluster needs at least one shard");
        let mut nodes = Vec::with_capacity(config.shards);
        let mut infos = Vec::with_capacity(config.shards);
        for i in 0..config.shards {
            let id = ShardId(i as u32);
            let leader = ReplLeader::with_retention(LeaderParts::new(), config.retention);
            // Leaders start at term 1, matching `ShardInfo::new` below — the
            // map's term and the server's term agree from the first write.
            let engine = leader
                .engine(clock.clone())
                .with_write_provider(Arc::clone(&leader) as Arc<dyn WriteProvider>, 1);
            let leader_server = start(engine, shard_config(&config.serve))
                .map_err(|e| FsError::Storage(format!("start {id} leader: {e}")))?;
            let leader_addr = leader_server.addr();

            let mut followers = Vec::with_capacity(config.followers);
            let mut endpoints = vec![leader_addr.to_string()];
            for _ in 0..config.followers {
                let follower = Arc::new(Follower::bootstrap(leader_addr.to_string())?);
                let sync = Arc::new(Mutex::new(Some(follower.start_sync(config.sync_interval))));
                let promoted: Arc<Mutex<Option<Arc<ReplLeader>>>> = Arc::new(Mutex::new(None));
                let hook: PromoteHook = {
                    let follower = Arc::clone(&follower);
                    let sync = Arc::clone(&sync);
                    let promoted = Arc::clone(&promoted);
                    let retention = config.retention;
                    Arc::new(move |_term| {
                        Ok(promote_follower(&follower, &sync, &promoted, retention)
                            as Arc<dyn WriteProvider>)
                    })
                };
                let engine = follower.engine(clock.clone()).with_promote_hook(hook);
                let server = start(engine, shard_config(&config.serve))
                    .map_err(|e| FsError::Storage(format!("start {id} follower: {e}")))?;
                endpoints.push(server.addr().to_string());
                followers.push(FollowerNode {
                    follower,
                    sync,
                    promoted,
                    server,
                });
            }

            infos.push(ShardInfo::new(id, endpoints));
            nodes.push(ShardNode {
                id,
                leader,
                leader_server: Some(leader_server),
                leader_addr,
                leader_term: 1,
                followers,
            });
        }
        let control = ControlPlane::new(ShardMap::new(infos), config.control.clone());
        // Every node's metrics JSON carries the cluster's control section,
        // so a dump from any server shows probe rounds, strikes, and terms.
        for node in &nodes {
            let servers = node
                .leader_server
                .iter()
                .chain(node.followers.iter().map(|f| &f.server));
            for server in servers {
                let control = Arc::clone(&control);
                server
                    .metrics()
                    .set_control_provider(move || control.snapshot());
            }
        }
        Ok(ShardCluster {
            nodes,
            control,
            router_config: RouterConfig::default(),
            config,
            clock,
        })
    }

    /// Override the router tuning used by [`router`](Self::router).
    pub fn set_router_config(&mut self, config: RouterConfig) {
        self.router_config = config;
    }

    pub fn control(&self) -> Arc<ControlPlane> {
        Arc::clone(&self.control)
    }

    pub fn map(&self) -> Arc<ShardMap> {
        self.control.map()
    }

    /// A fresh router over this cluster's control plane. Each router has
    /// its own per-shard connections; open one per client thread.
    pub fn router(&self) -> RouterClient {
        RouterClient::new(self.control(), self.router_config.clone())
    }

    pub fn shard_count(&self) -> usize {
        self.nodes.len()
    }

    /// The shard that owns `key` under the current map.
    pub fn shard_for(&self, key: &str) -> ShardId {
        self.map().shard_for(key)
    }

    /// The replication leader of `shard` — for seeding that shard's slice
    /// of the data. After a promotion (wire-level via the control plane,
    /// or [`promote_local`](Self::promote_local)) this is the promoted
    /// follower's leader; before any promotion it is the original leader.
    pub fn leader(&self, shard: ShardId) -> Arc<ReplLeader> {
        effective_leader(self.node(shard))
    }

    /// The leader owning `key`: route a seed write the same way the
    /// router will route the read back.
    pub(crate) fn leader_for(&self, key: &str) -> Arc<ReplLeader> {
        self.leader(self.shard_for(key))
    }

    /// Replicated online write, routed to the owning shard's leader.
    /// Returns the publication-log sequence the write committed at.
    pub fn put_online(
        &self,
        group: &str,
        entity: &EntityKey,
        values: &[(&str, Value)],
        now: Timestamp,
    ) -> Result<u64> {
        self.leader_for(entity.as_str())
            .put_online(group, entity, values, now)
    }

    /// Leader server addresses in shard order (dead leaders excluded) —
    /// what a single-connection baseline would talk to.
    pub fn leader_addrs(&self) -> Vec<SocketAddr> {
        self.nodes
            .iter()
            .filter_map(|n| n.leader_server.as_ref().map(|s| s.addr()))
            .collect()
    }

    /// Kill `shard`'s leader server (the process stays; the socket dies).
    /// Reads keep working immediately through the per-shard failover to
    /// followers; the control plane notices within its probe threshold
    /// and promotes map-level.
    pub fn kill_leader(&mut self, shard: ShardId) -> SocketAddr {
        let node = self.node_mut(shard);
        let server = node.leader_server.take().expect("leader already killed");
        let addr = server.addr();
        server.shutdown();
        addr
    }

    /// Revive a killed leader as a *zombie*: rebind its old address and
    /// serve through the original [`ReplLeader`] at the term it held when
    /// it died. If the control plane promoted a follower meanwhile, the
    /// revived server's term is stale — its writes are refused on contact
    /// and the pending fence (or any newer-term write) demotes it. This
    /// is the E23 failure mode: a crashed leader coming back believing it
    /// still leads.
    pub fn revive_leader(&mut self, shard: ShardId) -> Result<SocketAddr> {
        let serve = self.config.serve.clone();
        let clock = self.clock.clone();
        let node = self.node_mut(shard);
        assert!(
            node.leader_server.is_none(),
            "revive only after kill_leader"
        );
        let config = ServeConfig {
            addr: node.leader_addr.to_string(),
            ..serve
        };
        // The dead server's socket can linger briefly; retry the rebind.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let server = loop {
            let engine = node.leader.engine(clock.clone()).with_write_provider(
                Arc::clone(&node.leader) as Arc<dyn WriteProvider>,
                node.leader_term,
            );
            match start(engine, config.clone()) {
                Ok(server) => break server,
                Err(e) if std::time::Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => {
                    return Err(FsError::Storage(format!(
                        "revive {shard} leader on {}: {e}",
                        node.leader_addr
                    )))
                }
            }
        };
        let addr = server.addr();
        node.leader_server = Some(server);
        Ok(addr)
    }

    /// Data-plane promotion: stop the first follower's sync loop and wrap
    /// its components in a fresh [`ReplLeader`], which becomes
    /// [`leader`](Self::leader) for the shard — writes resume against the
    /// follower's replicated state. Pair with the control plane's
    /// map-level promotion (automatic via probes, or
    /// `control().promote(shard)`). Idempotent with the wire-level
    /// promotion hook: whichever runs first does the work.
    pub fn promote_local(&mut self, shard: ShardId) -> Arc<ReplLeader> {
        let retention = self.config.retention;
        let node = self.node_mut(shard);
        let candidate = node.followers.first().expect("promotion needs a follower");
        promote_follower(
            &candidate.follower,
            &candidate.sync,
            &candidate.promoted,
            retention,
        )
    }

    /// Block until every (unpromoted) follower has applied its leader's
    /// last published delta, or `timeout` elapses. Tests seed data after
    /// the cluster starts, so they call this before asserting follower
    /// answers or killing leaders.
    pub fn wait_converged(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let behind = self.nodes.iter().any(|n| {
                let target = effective_leader(n).log().last_seq();
                n.followers
                    .iter()
                    .filter(|f| f.sync.lock().is_some())
                    .any(|f| f.follower.applied_epoch() != target)
            });
            if !behind {
                return true;
            }
            if std::time::Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Cluster-wide control-plane stats — the same `control` section any
    /// node's metrics JSON reports (see [`ControlSnapshot`]).
    pub fn control_metrics(&self) -> ControlSnapshot {
        self.control.snapshot()
    }

    /// Stop everything: follower syncs, follower servers, leader servers.
    pub fn shutdown(self) {
        for node in self.nodes {
            for follower in node.followers {
                if let Some(sync) = follower.sync.lock().take() {
                    sync.stop();
                }
                follower.server.shutdown();
            }
            if let Some(server) = node.leader_server {
                server.shutdown();
            }
        }
    }

    fn node(&self, shard: ShardId) -> &ShardNode {
        self.nodes
            .iter()
            .find(|n| n.id == shard)
            .unwrap_or_else(|| panic!("unknown {shard}"))
    }

    fn node_mut(&mut self, shard: ShardId) -> &mut ShardNode {
        self.nodes
            .iter_mut()
            .find(|n| n.id == shard)
            .unwrap_or_else(|| panic!("unknown {shard}"))
    }
}

/// The shard's current write leader: the most recently promoted follower
/// if any promotion happened, else the original leader.
fn effective_leader(node: &ShardNode) -> Arc<ReplLeader> {
    node.followers
        .iter()
        .rev()
        .find_map(|f| f.promoted.lock().clone())
        .unwrap_or_else(|| Arc::clone(&node.leader))
}

/// The per-shard server config: the template with the bind address forced
/// to an ephemeral localhost port.
fn shard_config(template: &ServeConfig) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..template.clone()
    }
}
