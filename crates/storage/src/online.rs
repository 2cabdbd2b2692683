//! The online store: a sharded in-memory feature KV with freshness tracking.
//!
//! Deployed models read feature vectors from here at point-lookup latency
//! (paper §2.2.2, "Online Feature Serving"). Every write records the
//! timestamp it happened at, so the serving layer can enforce staleness
//! policies and the monitors can measure feature freshness (§2.2.3).
//! Shards are guarded by `parking_lot::RwLock`, routed by a fast hash of
//! `(group, entity)`.
//!
//! # Layout
//!
//! Feature names are interned per store into an append-only
//! `name ↔ FeatureId` table, and each entity keeps its features in one
//! contiguous row of `(FeatureId, OnlineEntry)` slots: no hash table per
//! entity and no name string per stored value. A lookup walks
//! `shard → group → entity → row` on borrowed `&str`s and never allocates
//! a key. Rows are scanned linearly — feature groups hold a handful to a
//! few dozen features, where a scan of adjacent slots beats a hash probe.
//!
//! The name table only grows: an id, once handed out, stays valid for the
//! store's lifetime, so readers resolve a request's names once
//! ([`OnlineStore::resolve_into`]) and then visit any number of rows
//! ([`OnlineStore::visit_row`]) without touching a string. Its size is
//! bounded by the number of *distinct feature names* ever written (a
//! schema-sized quantity), not by entities or writes; sweeping expired
//! values does not shrink it.
//!
//! Lock order: the name table's lock is never held together with a shard
//! lock — names are resolved (or interned) first, then the shard is taken.

use fstore_common::hash::{fx_hash_one, FxHashMap};
use fstore_common::{Duration, EntityKey, Timestamp, Value};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One stored feature value and the instant it was written.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineEntry {
    pub value: Value,
    pub written_at: Timestamp,
}

impl OnlineEntry {
    /// Age of this entry at `now`.
    pub fn age(&self, now: Timestamp) -> Duration {
        now - self.written_at
    }
}

/// A feature name interned by one [`OnlineStore`]. Ids are meaningful only
/// to the store that issued them and never change or expire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FeatureId(u32);

/// The append-only `name ↔ id` table. Both directions share one `Arc<str>`
/// per name.
#[derive(Debug, Default)]
struct NameTable {
    ids: FxHashMap<Arc<str>, FeatureId>,
    names: Vec<Arc<str>>,
}

impl NameTable {
    fn id(&self, name: &str) -> Option<FeatureId> {
        self.ids.get(name).copied()
    }

    fn name(&self, id: FeatureId) -> &str {
        &self.names[id.0 as usize]
    }

    fn intern(&mut self, name: &str) -> FeatureId {
        if let Some(id) = self.id(name) {
            return id;
        }
        let id = FeatureId(u32::try_from(self.names.len()).expect("fewer than 2^32 feature names"));
        let name: Arc<str> = Arc::from(name);
        self.names.push(Arc::clone(&name));
        self.ids.insert(name, id);
        id
    }
}

#[derive(Debug, Clone)]
struct Slot {
    id: FeatureId,
    entry: OnlineEntry,
}

/// One entity's features, in first-write order.
type Row = Vec<Slot>;
/// `group → entity → row`. Nesting by group (a handful per store) keeps
/// every level a plain `&str` lookup.
type Shard = FxHashMap<Box<str>, FxHashMap<Box<str>, Row>>;

fn find(row: &[Slot], id: FeatureId) -> Option<&OnlineEntry> {
    row.iter().find(|s| s.id == id).map(|s| &s.entry)
}

/// Hit/miss/write counters (monotonic, lock-free).
#[derive(Debug, Default)]
pub struct OnlineStoreStats {
    pub(crate) hits: AtomicU64,
    pub(crate) misses: AtomicU64,
    pub(crate) writes: AtomicU64,
    pub(crate) expired: AtomicU64,
}

impl OnlineStoreStats {
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.writes.load(Ordering::Relaxed),
            self.expired.load(Ordering::Relaxed),
        )
    }
}

/// The sharded in-memory store. Keys are `(feature group, entity)`; each
/// entity row holds one [`OnlineEntry`] per written feature.
#[derive(Debug)]
pub struct OnlineStore {
    shards: Vec<RwLock<Shard>>,
    names: RwLock<NameTable>,
    stats: OnlineStoreStats,
}

impl Default for OnlineStore {
    fn default() -> Self {
        OnlineStore::new(16)
    }
}

impl OnlineStore {
    /// `shards` is rounded up to a power of two so routing is a mask.
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        OnlineStore {
            shards: (0..n).map(|_| RwLock::new(Shard::default())).collect(),
            names: RwLock::default(),
            stats: OnlineStoreStats::default(),
        }
    }

    pub fn stats(&self) -> &OnlineStoreStats {
        &self.stats
    }

    #[inline]
    fn shard_for(&self, group: &str, entity: &str) -> &RwLock<Shard> {
        let h = fx_hash_one(&(group, entity));
        &self.shards[(h as usize) & (self.shards.len() - 1)]
    }

    /// Resolve feature names to this store's ids, into a caller-owned
    /// buffer (cleared first) so a serving loop reuses one allocation. A
    /// name no write has ever used resolves to `None` — a guaranteed miss.
    pub fn resolve_into<S: AsRef<str>>(&self, features: &[S], ids: &mut Vec<Option<FeatureId>>) {
        ids.clear();
        let names = self.names.read();
        ids.extend(features.iter().map(|f| names.id(f.as_ref())));
    }

    /// Ids for names about to be written, interning the new ones. The
    /// steady state (every name already known) takes only the read lock.
    fn intern_all<'a>(&self, features: impl Iterator<Item = &'a str> + Clone) -> Vec<FeatureId> {
        {
            let names = self.names.read();
            let known: Option<Vec<FeatureId>> = features.clone().map(|f| names.id(f)).collect();
            if let Some(ids) = known {
                return ids;
            }
        }
        let mut names = self.names.write();
        features.map(|f| names.intern(f)).collect()
    }

    /// Upsert `ids[i] → values[i]` into one entity's row under a single
    /// shard write lock.
    fn write_row(
        &self,
        group: &str,
        entity: &str,
        ids: &[FeatureId],
        values: impl Iterator<Item = Value>,
        now: Timestamp,
    ) {
        let upsert = |row: &mut Row| {
            for (&id, value) in ids.iter().zip(values) {
                let entry = OnlineEntry {
                    value,
                    written_at: now,
                };
                match row.iter_mut().find(|s| s.id == id) {
                    Some(slot) => slot.entry = entry,
                    None => row.push(Slot { id, entry }),
                }
            }
        };
        if ids.is_empty() {
            // Rows are never empty (the sweep drops the ones it drains).
            return;
        }
        let mut shard = self.shard_for(group, entity).write();
        if !shard.contains_key(group) {
            shard.insert(group.into(), FxHashMap::default());
        }
        let rows = shard.get_mut(group).expect("group inserted above");
        match rows.get_mut(entity) {
            Some(row) => upsert(row),
            None => {
                let mut row = Row::with_capacity(ids.len());
                upsert(&mut row);
                rows.insert(entity.into(), row);
            }
        }
        self.stats
            .writes
            .fetch_add(ids.len() as u64, Ordering::Relaxed);
    }

    /// Write one feature value for an entity.
    pub fn put(
        &self,
        group: &str,
        entity: &EntityKey,
        feature: &str,
        value: Value,
        now: Timestamp,
    ) {
        let ids = self.intern_all(std::iter::once(feature));
        self.write_row(group, entity.as_str(), &ids, std::iter::once(value), now);
    }

    /// Write several features of one entity under a single shard lock.
    pub fn put_row<S: AsRef<str>>(
        &self,
        group: &str,
        entity: &EntityKey,
        values: &[(S, Value)],
        now: Timestamp,
    ) {
        let ids = self.intern_all(values.iter().map(|(feature, _)| feature.as_ref()));
        self.write_row(
            group,
            entity.as_str(),
            &ids,
            values.iter().map(|(_, value)| value.clone()),
            now,
        );
    }

    /// Visit the requested features of one entity under the shard read
    /// lock: `visit(i, entry)` is called once per `ids[i]`, in order, with
    /// the stored entry borrowed in place (`None` = unknown name, unknown
    /// entity, or feature never written for it). Nothing is cloned or
    /// allocated; keep `visit` short — it runs under the lock.
    pub fn visit_row(
        &self,
        group: &str,
        entity: &str,
        ids: &[Option<FeatureId>],
        mut visit: impl FnMut(usize, Option<&OnlineEntry>),
    ) {
        let mut hits = 0u64;
        {
            let shard = self.shard_for(group, entity).read();
            let row: &[Slot] = shard
                .get(group)
                .and_then(|rows| rows.get(entity))
                .map_or(&[], Vec::as_slice);
            for (i, id) in ids.iter().enumerate() {
                let entry = id.and_then(|id| find(row, id));
                hits += u64::from(entry.is_some());
                visit(i, entry);
            }
        }
        let misses = ids.len() as u64 - hits;
        if hits > 0 {
            self.stats.hits.fetch_add(hits, Ordering::Relaxed);
        }
        if misses > 0 {
            self.stats.misses.fetch_add(misses, Ordering::Relaxed);
        }
    }

    /// Point lookup of one feature.
    pub fn get(&self, group: &str, entity: &EntityKey, feature: &str) -> Option<OnlineEntry> {
        let id = self.names.read().id(feature);
        let mut found = None;
        self.visit_row(group, entity.as_str(), &[id], |_, entry| {
            found = entry.cloned()
        });
        found
    }

    /// Fetch several features of one entity under a single shard lock.
    /// Missing features come back as `None` in the same positions.
    pub fn get_many(
        &self,
        group: &str,
        entity: &EntityKey,
        features: &[&str],
    ) -> Vec<Option<OnlineEntry>> {
        let mut ids = Vec::new();
        self.resolve_into(features, &mut ids);
        let mut out = Vec::with_capacity(features.len());
        self.visit_row(group, entity.as_str(), &ids, |_, entry| {
            out.push(entry.cloned())
        });
        out
    }

    /// All feature entries of an entity (for skew monitors and debugging).
    pub fn get_row(&self, group: &str, entity: &EntityKey) -> Option<Vec<(String, OnlineEntry)>> {
        let row: Row = self
            .shard_for(group, entity.as_str())
            .read()
            .get(group)?
            .get(entity.as_str())?
            .clone();
        let names = self.names.read();
        let mut v: Vec<(String, OnlineEntry)> = row
            .into_iter()
            .map(|s| (names.name(s.id).to_string(), s.entry))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        Some(v)
    }

    /// Delete entries written before `now - ttl`; returns how many were
    /// evicted. Called by the materialization scheduler's housekeeping tick.
    pub fn sweep_expired(&self, now: Timestamp, ttl: Duration) -> usize {
        let cutoff = now - ttl;
        let evicted = self.retain(|_, _, _, entry| entry.written_at >= cutoff);
        self.stats
            .expired
            .fetch_add(evicted as u64, Ordering::Relaxed);
        evicted
    }

    /// Keep only the entries `keep(group, entity, feature, entry)` accepts,
    /// locking each shard in turn; returns how many were deleted.
    pub fn retain(
        &self,
        mut keep: impl FnMut(&str, &str, FeatureId, &OnlineEntry) -> bool,
    ) -> usize {
        let mut deleted = 0usize;
        for shard in &self.shards {
            let mut guard = shard.write();
            for (group, rows) in guard.iter_mut() {
                rows.retain(|entity, row| {
                    let before = row.len();
                    row.retain(|s| keep(group, entity, s.id, &s.entry));
                    deleted += before - row.len();
                    !row.is_empty()
                });
            }
            guard.retain(|_, rows| !rows.is_empty());
        }
        deleted
    }

    /// Total number of stored feature entries (O(entities); for tests/metrics).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .values()
                    .flat_map(|rows| rows.values())
                    .map(Vec::len)
                    .sum::<usize>()
            })
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Export every stored entry as `(group, entity, feature, entry)`,
    /// sorted, for replication bootstrap snapshots. Each shard is locked
    /// briefly in turn, so concurrent writes may land before or after the
    /// export — replication's delta replay makes that benign (puts are
    /// idempotent overwrites).
    pub fn export_rows(&self) -> Vec<(String, String, String, OnlineEntry)> {
        let mut slots = Vec::new();
        for shard in &self.shards {
            let guard = shard.read();
            for (group, rows) in guard.iter() {
                for (entity, row) in rows {
                    slots.extend(
                        row.iter()
                            .map(|s| (group.clone(), entity.clone(), s.clone())),
                    );
                }
            }
        }
        let names = self.names.read();
        let mut out: Vec<(String, String, String, OnlineEntry)> = slots
            .into_iter()
            .map(|(group, entity, s)| {
                (
                    group.into(),
                    entity.into(),
                    names.name(s.id).to_string(),
                    s.entry,
                )
            })
            .collect();
        out.sort_by(|a, b| (&a.0, &a.1, &a.2).cmp(&(&b.0, &b.1, &b.2)));
        out
    }

    /// Snapshot of all current values of one feature across entities in a
    /// group — the "live" side of training/serving-skew monitoring.
    pub fn feature_snapshot(&self, group: &str, feature: &str) -> Vec<(EntityKey, OnlineEntry)> {
        let Some(id) = self.names.read().id(feature) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for shard in &self.shards {
            let guard = shard.read();
            for (entity, row) in guard.get(group).into_iter().flatten() {
                if let Some(e) = find(row, id) {
                    out.push((EntityKey::new(&**entity), e.clone()));
                }
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> EntityKey {
        EntityKey::new(s)
    }

    #[test]
    fn put_get_round_trip() {
        let store = OnlineStore::new(4);
        store.put(
            "user",
            &k("u1"),
            "trips",
            Value::Int(5),
            Timestamp::millis(100),
        );
        let e = store.get("user", &k("u1"), "trips").unwrap();
        assert_eq!(e.value, Value::Int(5));
        assert_eq!(e.written_at, Timestamp::millis(100));
        assert!(store.get("user", &k("u1"), "ghost").is_none());
        assert!(store.get("user", &k("u2"), "trips").is_none());
        assert!(
            store.get("driver", &k("u1"), "trips").is_none(),
            "groups are namespaces"
        );
    }

    #[test]
    fn overwrite_updates_value_and_freshness() {
        let store = OnlineStore::new(1);
        store.put("g", &k("e"), "f", Value::Int(1), Timestamp::millis(10));
        store.put("g", &k("e"), "f", Value::Int(2), Timestamp::millis(20));
        let e = store.get("g", &k("e"), "f").unwrap();
        assert_eq!(e.value, Value::Int(2));
        assert_eq!(e.written_at, Timestamp::millis(20));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn put_row_and_get_many_align() {
        let store = OnlineStore::default();
        store.put_row(
            "g",
            &k("e"),
            &[("a", Value::Int(1)), ("b", Value::Float(2.0))],
            Timestamp::millis(5),
        );
        let got = store.get_many("g", &k("e"), &["b", "ghost", "a"]);
        assert_eq!(got[0].as_ref().unwrap().value, Value::Float(2.0));
        assert!(got[1].is_none());
        assert_eq!(got[2].as_ref().unwrap().value, Value::Int(1));
    }

    #[test]
    fn get_row_sorted() {
        let store = OnlineStore::default();
        store.put_row(
            "g",
            &k("e"),
            &[("z", Value::Int(1)), ("a", Value::Int(2))],
            Timestamp::EPOCH,
        );
        let row = store.get_row("g", &k("e")).unwrap();
        assert_eq!(row[0].0, "a");
        assert_eq!(row[1].0, "z");
        assert!(store.get_row("g", &k("nope")).is_none());
    }

    #[test]
    fn sweep_evicts_only_stale_entries() {
        let store = OnlineStore::new(2);
        store.put("g", &k("old"), "f", Value::Int(1), Timestamp::millis(0));
        store.put("g", &k("new"), "f", Value::Int(2), Timestamp::millis(900));
        let evicted = store.sweep_expired(Timestamp::millis(1000), Duration::millis(500));
        assert_eq!(evicted, 1);
        assert!(store.get("g", &k("old"), "f").is_none());
        assert!(store.get("g", &k("new"), "f").is_some());
        assert_eq!(store.stats().snapshot().3, 1);
    }

    #[test]
    fn entry_age() {
        let e = OnlineEntry {
            value: Value::Int(0),
            written_at: Timestamp::millis(100),
        };
        assert_eq!(e.age(Timestamp::millis(350)), Duration::millis(250));
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let store = OnlineStore::default();
        store.put("g", &k("e"), "f", Value::Int(1), Timestamp::EPOCH);
        store.get("g", &k("e"), "f");
        store.get("g", &k("e"), "nope");
        store.get_many("g", &k("e"), &["f", "nope"]);
        let (hits, misses, writes, _) = store.stats().snapshot();
        assert_eq!(hits, 2);
        assert_eq!(misses, 2);
        assert_eq!(writes, 1);
    }

    #[test]
    fn feature_snapshot_filters_group_and_feature() {
        let store = OnlineStore::new(8);
        for i in 0..10 {
            store.put(
                "user",
                &k(&format!("u{i}")),
                "score",
                Value::Int(i),
                Timestamp::EPOCH,
            );
        }
        store.put(
            "driver",
            &k("d1"),
            "score",
            Value::Int(99),
            Timestamp::EPOCH,
        );
        store.put("user", &k("u0"), "other", Value::Int(5), Timestamp::EPOCH);
        let snap = store.feature_snapshot("user", "score");
        assert_eq!(snap.len(), 10);
        assert!(snap.iter().all(|(_, e)| e.value != Value::Int(99)));
    }

    #[test]
    fn export_rows_lists_every_entry_sorted() {
        let store = OnlineStore::new(4);
        store.put("g", &k("e2"), "f", Value::Int(2), Timestamp::millis(2));
        store.put("g", &k("e1"), "f", Value::Int(1), Timestamp::millis(1));
        store.put("h", &k("e1"), "g", Value::Int(3), Timestamp::millis(3));
        let rows = store.export_rows();
        assert_eq!(
            rows.iter()
                .map(|(g, e, f, _)| (g.as_str(), e.as_str(), f.as_str()))
                .collect::<Vec<_>>(),
            vec![("g", "e1", "f"), ("g", "e2", "f"), ("h", "e1", "g")]
        );
        assert_eq!(rows[1].3.written_at, Timestamp::millis(2));
    }

    #[test]
    fn concurrent_writers_and_readers() {
        use std::sync::Arc;
        let store = Arc::new(OnlineStore::new(8));
        let mut handles = Vec::new();
        for t in 0..4 {
            let s = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..500 {
                    let entity = k(&format!("e{}", i % 50));
                    s.put(
                        "g",
                        &entity,
                        &format!("f{t}"),
                        Value::Int(i),
                        Timestamp::millis(i),
                    );
                    s.get("g", &entity, &format!("f{t}"));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // 50 entities × 4 features
        assert_eq!(store.len(), 200);
    }
}
