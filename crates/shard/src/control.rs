//! The minimal control plane: owns the shard map, health-checks shard
//! leaders, and promotes a follower when a leader stops answering.
//!
//! There is deliberately no consensus here — one control plane process
//! owns the map, the same way one leader owns each component's snapshot
//! cell. The map lives in a [`SnapshotCell`], so publication is atomic
//! and versioned: routers compare [`ControlPlane::version`] against the
//! map they routed with last and resync their per-shard clients when it
//! moved (see `RouterClient::refresh`).
//!
//! Failure detection is conservative: a leader must miss
//! [`ControlPlaneConfig::failure_threshold`] *consecutive* probes before
//! its shard is promoted, so one slow probe never flips the topology.
//! Promotion is map-level — the first follower becomes the preferred
//! endpoint ([`ShardMap::promote`] rotates the dead leader to the back).
//! Making that follower a *replication* leader (so writes resume) is the
//! data-plane half, `Follower::promote`; the cluster harness wires the
//! two together and [`PromotionEvent`] records what happened for tests
//! and operators.

use crate::map::{ShardId, ShardMap};
use fstore_common::SnapshotCell;
use fstore_serve::{
    ClientConfig, ClientError, ControlSnapshot, ErrorCode, FeatureClient, StoreApi,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Control-plane tuning.
#[derive(Debug, Clone)]
pub struct ControlPlaneConfig {
    /// Consecutive failed probes before a leader is declared dead and its
    /// shard promoted.
    pub(crate) failure_threshold: u32,
    /// Socket deadlines for probe connections — tight, so a dead leader
    /// costs a probe round milliseconds, not the client default seconds.
    pub(crate) probe: ClientConfig,
}

impl Default for ControlPlaneConfig {
    fn default() -> Self {
        ControlPlaneConfig {
            failure_threshold: 2,
            probe: ClientConfig {
                connect_timeout: Some(Duration::from_millis(250)),
                read_timeout: Some(Duration::from_millis(250)),
                write_timeout: Some(Duration::from_millis(250)),
                deadline_budget: None,
            },
        }
    }
}

/// One promotion the control plane performed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromotionEvent {
    pub shard: ShardId,
    /// The leader endpoint that stopped answering.
    pub(crate) demoted: String,
    /// The follower endpoint now preferred.
    pub(crate) promoted: String,
    /// The map version the promotion published.
    pub map_version: u64,
    /// The leader term the promotion granted — every routed write to the
    /// shard now carries it, and the old leader is fenced below it.
    pub term: u64,
}

/// Owns the versioned shard map and the probe loop.
pub struct ControlPlane {
    map: SnapshotCell<ShardMap>,
    config: ControlPlaneConfig,
    /// Consecutive failed probes per shard, reset by any success.
    strikes: Mutex<HashMap<u32, u32>>,
    /// Promotions performed.
    promotions: AtomicU64,
    /// Promote commands awaiting delivery: shard id → (new leader
    /// endpoint, granted term). Retried every probe round until acked, so
    /// a promote lost to a transient connect failure still lands.
    pending_promotes: Mutex<HashMap<u32, (String, u64)>>,
    /// Demote fences awaiting delivery: demoted endpoint → fence term.
    /// Retried every probe round; a dead ex-leader is fenced the moment
    /// it revives and answers again, closing the zombie window.
    pending_fences: Mutex<HashMap<String, u64>>,
    /// Completed probe rounds.
    probe_rounds: AtomicU64,
}

impl ControlPlane {
    pub(crate) fn new(map: ShardMap, config: ControlPlaneConfig) -> Arc<Self> {
        Arc::new(ControlPlane {
            map: SnapshotCell::new(map),
            config,
            strikes: Mutex::new(HashMap::new()),
            promotions: AtomicU64::new(0),
            pending_promotes: Mutex::new(HashMap::new()),
            pending_fences: Mutex::new(HashMap::new()),
            probe_rounds: AtomicU64::new(0),
        })
    }

    /// The current map (cheap: an `Arc` clone off the snapshot cell).
    pub fn map(&self) -> Arc<ShardMap> {
        self.map.load()
    }

    /// The current map's version — what routers poll to notice changes.
    pub(crate) fn version(&self) -> u64 {
        self.map.load().version()
    }

    /// Promote `shard`'s first follower to preferred endpoint, bump its
    /// leader term, and publish the new map. Returns the event, or `None`
    /// if the shard is unknown or has no follower.
    ///
    /// Publication also queues the data-plane half for delivery: a
    /// `Promote` to the new leader (so it starts accepting writes at the
    /// granted term) and a `Demote` fence to the old one (so a revived
    /// zombie refuses writes stamped with its stale term). Both are
    /// retried every probe round until acked.
    pub(crate) fn promote(&self, shard: ShardId) -> Option<PromotionEvent> {
        // Serialize topology changes through the cell's updater so two
        // concurrent promotions cannot both derive from the same base map.
        let (_, event) = self.map.update(|map, _| {
            let Some(next) = map.promote(shard) else {
                return (map.clone(), None);
            };
            let demoted = map.shard(shard).expect("promoted from this map").leader();
            let info = next.shard(shard).expect("still present");
            let event = PromotionEvent {
                shard,
                demoted: demoted.to_string(),
                promoted: info.leader().to_string(),
                map_version: next.version(),
                term: info.term,
            };
            (next, Some(event))
        });
        if let Some(event) = &event {
            self.strikes.lock().remove(&shard.0);
            self.pending_promotes
                .lock()
                .insert(shard.0, (event.promoted.clone(), event.term));
            // A newer fence for the same endpoint supersedes an older one.
            self.pending_fences
                .lock()
                .insert(event.demoted.clone(), event.term);
            self.promotions.fetch_add(1, Ordering::AcqRel);
        }
        event
    }

    /// One probe round: health-check every shard leader *concurrently*
    /// (detection latency is one probe deadline, not shard-count of
    /// them), count strikes, promote shards whose leader crossed the
    /// failure threshold, then retry any undelivered promote/fence
    /// commands. Returns the promotions this round performed.
    pub fn probe_once(&self) -> Vec<PromotionEvent> {
        let map = self.map();
        let alive: Vec<(ShardId, bool)> = std::thread::scope(|scope| {
            let handles: Vec<_> = map
                .shards()
                .iter()
                .map(|shard| {
                    let addr = shard.leader().to_string();
                    let id = shard.id;
                    scope.spawn(move || (id, self.probe_leader(&addr)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("probe thread panicked"))
                .collect()
        });
        let mut promoted = Vec::new();
        for (id, alive) in alive {
            if alive {
                self.strikes.lock().remove(&id.0);
                continue;
            }
            let strikes = {
                let mut strikes = self.strikes.lock();
                let s = strikes.entry(id.0).or_insert(0);
                *s += 1;
                *s
            };
            if strikes >= self.config.failure_threshold {
                if let Some(event) = self.promote(id) {
                    promoted.push(event);
                }
            }
        }
        self.deliver_pending();
        self.probe_rounds.fetch_add(1, Ordering::AcqRel);
        promoted
    }

    /// Whether `addr` counts as alive. A healthy answer is alive; so is
    /// typed pushback (`Overloaded`, `ShuttingDown`) — a shedding or
    /// draining server is *up* and pushing back, and promoting it would
    /// turn load into a spurious failover. Only silence (connect/read
    /// failure) and hard protocol violations strike.
    fn probe_leader(&self, addr: &str) -> bool {
        let Some(mut client) = self.probe_client(addr) else {
            return false;
        };
        match client.health() {
            Ok(_) => true,
            Err(ClientError::Server { code, .. }) => {
                matches!(code, ErrorCode::Overloaded | ErrorCode::ShuttingDown)
            }
            Err(_) => false,
        }
    }

    /// A one-shot direct connection under the probe deadlines.
    fn probe_client(&self, addr: &str) -> Option<FeatureClient> {
        let probe = &self.config.probe;
        let config = ClientConfig {
            connect_timeout: probe.connect_timeout,
            read_timeout: probe.read_timeout,
            write_timeout: probe.write_timeout,
            ..ClientConfig::default()
        };
        FeatureClient::connect_with(addr, &config).ok()
    }

    /// Retry undelivered promote and fence commands. An entry leaves the
    /// queue when the node acks it — or answers `NotLeader` with a term
    /// at or above the command's, which proves the node already sits at
    /// (or beyond) the state the command was meant to install.
    fn deliver_pending(&self) {
        let promotes: Vec<(u32, String, u64)> = self
            .pending_promotes
            .lock()
            .iter()
            .map(|(&shard, (addr, term))| (shard, addr.clone(), *term))
            .collect();
        for (shard, addr, term) in promotes {
            if self.deliver(&addr, |c| c.promote(shard, term), term) {
                let mut pending = self.pending_promotes.lock();
                // Only clear the entry this delivery was for — a newer
                // promotion may have replaced it mid-flight.
                if pending
                    .get(&shard)
                    .is_some_and(|(a, t)| a == &addr && *t == term)
                {
                    pending.remove(&shard);
                }
            }
        }
        let fences: Vec<(String, u64)> = self
            .pending_fences
            .lock()
            .iter()
            .map(|(addr, &term)| (addr.clone(), term))
            .collect();
        for (addr, term) in fences {
            // The shard id is advisory on a demote; 0 keeps the frame valid.
            if self.deliver(&addr, |c| c.demote(0, term), term) {
                let mut pending = self.pending_fences.lock();
                if pending.get(&addr) == Some(&term) {
                    pending.remove(&addr);
                }
            }
        }
    }

    /// Run one admin command against `addr`; true when the queue entry is
    /// settled (acked, or refused by a node already at/above `term`).
    fn deliver(
        &self,
        addr: &str,
        op: impl FnOnce(&mut FeatureClient) -> Result<fstore_serve::WriteAck, ClientError>,
        term: u64,
    ) -> bool {
        let Some(mut client) = self.probe_client(addr) else {
            return false;
        };
        match op(&mut client) {
            Ok(_) => true,
            Err(ClientError::NotLeader { current_term }) => current_term >= term,
            Err(_) => false,
        }
    }

    /// Control-plane observability, merged into serving metrics via
    /// [`fstore_serve::ServingMetrics::set_control_provider`].
    pub fn snapshot(&self) -> ControlSnapshot {
        let map = self.map();
        ControlSnapshot {
            probe_rounds: self.probe_rounds.load(Ordering::Acquire),
            promotions: self.promotions.load(Ordering::Acquire),
            map_version: map.version(),
            strikes: self
                .strikes
                .lock()
                .iter()
                .map(|(&shard, &s)| (ShardId(shard).to_string(), u64::from(s)))
                .collect(),
            terms: map
                .shards()
                .iter()
                .map(|s| (s.id.to_string(), s.term))
                .collect(),
            pending_fences: (self.pending_fences.lock().len() + self.pending_promotes.lock().len())
                as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::ShardInfo;

    fn two_replica_map() -> ShardMap {
        ShardMap::new(vec![
            ShardInfo::new(ShardId(0), vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()]),
            ShardInfo::new(ShardId(1), vec!["127.0.0.1:3".into()]),
        ])
    }

    #[test]
    fn promote_publishes_a_new_version_and_records_the_event() {
        let control = ControlPlane::new(two_replica_map(), ControlPlaneConfig::default());
        let v1 = control.version();
        let event = control.promote(ShardId(0)).expect("shard 0 has a follower");
        assert_eq!(event.demoted, "127.0.0.1:1");
        assert_eq!(event.promoted, "127.0.0.1:2");
        assert_eq!(control.version(), v1 + 1);
        assert_eq!(
            control.map().shard(ShardId(0)).unwrap().leader(),
            "127.0.0.1:2"
        );
        assert_eq!(control.snapshot().promotions, 1);
    }

    #[test]
    fn promote_without_a_follower_is_refused() {
        let control = ControlPlane::new(two_replica_map(), ControlPlaneConfig::default());
        assert!(control.promote(ShardId(1)).is_none());
        assert_eq!(control.snapshot().promotions, 0);
    }

    #[test]
    fn dead_leaders_need_consecutive_strikes() {
        // Nothing listens on these ports, so every probe fails; the first
        // round must not promote (threshold 2), the second must.
        let control = ControlPlane::new(two_replica_map(), ControlPlaneConfig::default());
        assert!(control.probe_once().is_empty(), "one strike is not enough");
        let events = control.probe_once();
        assert_eq!(events.len(), 1, "second strike promotes shard 0");
        assert_eq!(events[0].shard, ShardId(0));
        // Shard 1 has no follower: probed, struck, but never promoted.
        assert!(control.probe_once().is_empty());
    }
}
