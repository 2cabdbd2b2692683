//! The versioned shard map: which shard owns which key, decided by
//! consistent hashing over a ring of virtual nodes.
//!
//! Every shard contributes [`VNODES_PER_SHARD`] deterministic points on a
//! `u64` ring (hashes of `"shard-{id}/vnode-{v}"`); a key belongs to the
//! shard owning the first ring point at or after the key's hash, wrapping
//! at the top. Two properties fall out, both pinned by proptests:
//!
//! * **Balance** — with enough vnodes the arc lengths even out, so shard
//!   loads stay within a small constant factor of each other.
//! * **Minimal movement** — adding shard N+1 inserts only that shard's
//!   points; every key that moves, moves *to* the new shard, so a reshard
//!   relocates ~1/(N+1) of keys instead of nearly all of them (what
//!   `hash % N` would do).
//!
//! A map is immutable; topology changes ([`ShardMap::promote`],
//! [`ShardMap::with_shard`]) produce a new map with a bumped
//! [`version`](ShardMap::version). The control plane publishes maps
//! through a `SnapshotCell`, and routers compare versions to notice a
//! change — the same copy-on-write discipline every other component uses.

use fstore_common::hash::fx_hash_one;

/// Virtual nodes each shard contributes to the ring. 64 keeps the
/// max/min load ratio under ~2 for realistic key counts while the ring
/// stays small enough to rebuild on every topology change.
pub(crate) const VNODES_PER_SHARD: usize = 64;

/// Identifies one shard (stable across promotions and resharding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShardId(pub u32);

impl std::fmt::Display for ShardId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard-{}", self.0)
    }
}

/// One shard's replica set: endpoints in preference order, leader first,
/// plus the leader term that fences writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardInfo {
    pub id: ShardId,
    /// `endpoints[0]` is the leader (writes and preferred reads); the rest
    /// are followers a `FailoverClient` may fall back to.
    pub(crate) endpoints: Vec<String>,
    /// The shard's leader term — bumped by every promotion, stamped onto
    /// every routed write, and checked by the serving node before it
    /// applies one. A node seeing a write with an older term than its own
    /// refuses it; a node seeing a *newer* term self-fences (it was
    /// superseded by a promotion it never heard about).
    pub term: u64,
}

impl ShardInfo {
    /// A shard starting at term 1 (the initial leader's term).
    pub fn new(id: ShardId, endpoints: Vec<String>) -> Self {
        ShardInfo {
            id,
            endpoints,
            term: 1,
        }
    }

    /// The current leader endpoint.
    pub(crate) fn leader(&self) -> &str {
        &self.endpoints[0]
    }
}

/// An immutable, versioned assignment of the key space to shards.
#[derive(Debug, Clone)]
pub struct ShardMap {
    version: u64,
    shards: Vec<ShardInfo>,
    /// `(ring point, index into shards)`, sorted by point. Rebuilt on
    /// construction — topology changes are rare, lookups are not.
    ring: Vec<(u64, u32)>,
}

impl ShardMap {
    /// Build version-1 of a map over `shards`. Panics on an empty shard
    /// list or a shard with no endpoints — an unroutable map is a
    /// construction bug, not a runtime condition.
    pub fn new(shards: Vec<ShardInfo>) -> Self {
        Self::with_version(shards, 1)
    }

    fn with_version(shards: Vec<ShardInfo>, version: u64) -> Self {
        assert!(!shards.is_empty(), "a shard map needs at least one shard");
        for s in &shards {
            assert!(!s.endpoints.is_empty(), "{} has no endpoints", s.id);
        }
        let mut ring = Vec::with_capacity(shards.len() * VNODES_PER_SHARD);
        for (i, shard) in shards.iter().enumerate() {
            for v in 0..VNODES_PER_SHARD {
                let point = fx_hash_one(&format!("shard-{}/vnode-{v}", shard.id.0));
                ring.push((point, i as u32));
            }
        }
        // Tie-break equal points by shard index so the ring order is
        // deterministic regardless of input order.
        ring.sort_unstable();
        ShardMap {
            version,
            shards,
            ring,
        }
    }

    /// Monotone map version; bumped by every topology change.
    pub fn version(&self) -> u64 {
        self.version
    }

    pub fn shards(&self) -> &[ShardInfo] {
        &self.shards
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard info for `id`, if the map knows it.
    pub(crate) fn shard(&self, id: ShardId) -> Option<&ShardInfo> {
        self.shards.iter().find(|s| s.id == id)
    }

    /// The shard owning `key`: the first ring point at or after the key's
    /// hash, wrapping past the top.
    pub fn shard_for(&self, key: &str) -> ShardId {
        self.shards[self.position_for(key)].id
    }

    /// Where in [`shards`](Self::shards) the owner of `key` sits.
    pub(crate) fn position_for(&self, key: &str) -> usize {
        let h = fx_hash_one(key);
        let i = self.ring.partition_point(|&(point, _)| point < h);
        let (_, shard_idx) = self.ring[if i == self.ring.len() { 0 } else { i }];
        shard_idx as usize
    }

    /// A new map with `shard`'s dead leader rotated to the back of its
    /// endpoint list (the first follower becomes leader), the shard's
    /// leader term bumped, and the map version bumped. Returns `None`
    /// when the shard is unknown or has no follower to promote — a
    /// one-endpoint shard stays down until its leader returns.
    pub fn promote(&self, shard: ShardId) -> Option<ShardMap> {
        let info = self.shard(shard)?;
        if info.endpoints.len() < 2 {
            return None;
        }
        let mut shards = self.shards.clone();
        let info = shards.iter_mut().find(|s| s.id == shard).expect("found");
        info.endpoints.rotate_left(1);
        info.term += 1;
        Some(ShardMap::with_version(shards, self.version + 1))
    }

    /// A new map with one more shard and the version bumped — the reshard
    /// primitive. Only keys whose ring arc the new shard's vnodes claim
    /// move, all of them to the new shard.
    pub fn with_shard(&self, shard: ShardInfo) -> ShardMap {
        assert!(
            self.shard(shard.id).is_none(),
            "{} is already in the map",
            shard.id
        );
        let mut shards = self.shards.clone();
        shards.push(shard);
        ShardMap::with_version(shards, self.version + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(n: u32) -> ShardMap {
        ShardMap::new(
            (0..n)
                .map(|i| ShardInfo::new(ShardId(i), vec![format!("127.0.0.1:{}", 7000 + i)]))
                .collect(),
        )
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        let m = map(4);
        for i in 0..1000 {
            let key = format!("user-{i}");
            let a = m.shard_for(&key);
            assert_eq!(a, m.shard_for(&key));
            assert!(m.shard(a).is_some());
        }
    }

    #[test]
    fn every_shard_owns_keys() {
        let m = map(4);
        let mut counts = [0usize; 4];
        for i in 0..4000 {
            counts[m.shard_for(&format!("user-{i}")).0 as usize] += 1;
        }
        assert!(
            counts.iter().all(|&c| c > 0),
            "a shard owns no keys: {counts:?}"
        );
    }

    #[test]
    fn promote_rotates_the_leader_and_bumps_the_version() {
        let m = ShardMap::new(vec![ShardInfo::new(
            ShardId(0),
            vec!["a".into(), "b".into(), "c".into()],
        )]);
        let m2 = m.promote(ShardId(0)).expect("has followers");
        assert_eq!(m2.version(), m.version() + 1);
        assert_eq!(m2.shard(ShardId(0)).unwrap().leader(), "b");
        assert_eq!(
            m2.shard(ShardId(0)).unwrap().term,
            m.shard(ShardId(0)).unwrap().term + 1,
            "promotion advances the shard's leader term"
        );
        assert_eq!(
            m2.shard(ShardId(0)).unwrap().endpoints,
            vec!["b".to_string(), "c".into(), "a".into()]
        );
        // Promotion never reroutes keys — the ring only sees shard ids.
        for i in 0..200 {
            let key = format!("k{i}");
            assert_eq!(m.shard_for(&key), m2.shard_for(&key));
        }
    }

    #[test]
    fn promote_refuses_a_shard_without_followers() {
        let m = map(2);
        assert!(m.promote(ShardId(0)).is_none());
        assert!(m.promote(ShardId(9)).is_none());
    }
}
