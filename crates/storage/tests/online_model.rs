//! Model-based property test for `OnlineStore`: random operation sequences
//! run against the store and against a plain `BTreeMap` reference, and
//! every observable must agree — values, freshness, the sorted order of
//! `export_rows`/`get_row`/`feature_snapshot` (checkpoints and replication
//! bootstrap depend on it), and the hit/miss/write/expired counters
//! (`storage.online.hit_ratio` depends on them).
//!
//! The key universe is tiny on purpose, so rows are overwritten, grown
//! feature by feature, swept empty and re-created many times per case —
//! the transitions an interned, slot-per-feature row layout has to get
//! right.

use fstore_common::{Duration, EntityKey, Timestamp, Value};
use fstore_storage::{OnlineEntry, OnlineStore};
use proptest::prelude::*;
use std::collections::BTreeMap;

const GROUPS: [&str; 2] = ["user", "item"];
const ENTITIES: usize = 5;
/// `f0..f3` get written; `ghost` never does, so it never gets an id.
const FEATURES: [&str; 5] = ["f0", "f1", "f2", "f3", "ghost"];
const WRITABLE: usize = 4;

#[derive(Debug, Clone)]
enum Op {
    Put(usize, usize, usize, Value, i64),
    PutRow(usize, usize, Vec<(usize, Value)>, i64),
    Get(usize, usize, usize),
    GetMany(usize, usize, Vec<usize>),
    VisitRow(usize, usize, Vec<usize>),
    GetRow(usize, usize),
    Sweep(i64, i64),
    ExportRows,
    FeatureSnapshot(usize, usize),
    Len,
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-5i64..5).prop_map(Value::Int),
        (0.0f64..1.0).prop_map(Value::Float),
        (0usize..2).prop_map(|b| Value::Bool(b == 1)),
        (0usize..3).prop_map(|n| Value::Str("x".repeat(n))),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    let key = || (0..GROUPS.len(), 0..ENTITIES);
    let reads = || collection::vec(0..FEATURES.len(), 0..6);
    prop_oneof![
        (key(), 0..WRITABLE, value(), 0i64..1000)
            .prop_map(|((g, e), f, v, t)| Op::Put(g, e, f, v, t)),
        (
            key(),
            collection::vec((0..WRITABLE, value()), 0..5),
            0i64..1000
        )
            .prop_map(|((g, e), row, t)| Op::PutRow(g, e, row, t)),
        (key(), 0..FEATURES.len()).prop_map(|((g, e), f)| Op::Get(g, e, f)),
        (key(), reads()).prop_map(|((g, e), fs)| Op::GetMany(g, e, fs)),
        (key(), reads()).prop_map(|((g, e), fs)| Op::VisitRow(g, e, fs)),
        key().prop_map(|(g, e)| Op::GetRow(g, e)),
        (0i64..1000, 0i64..600).prop_map(|(now, ttl)| Op::Sweep(now, ttl)),
        Just(Op::ExportRows),
        (0..GROUPS.len(), 0..FEATURES.len()).prop_map(|(g, f)| Op::FeatureSnapshot(g, f)),
        Just(Op::Len),
    ]
}

fn entity(e: usize) -> EntityKey {
    EntityKey::new(format!("e{e}"))
}

/// The reference: one flat sorted map plus the four counters.
#[derive(Default)]
struct Model {
    entries: BTreeMap<(String, String, String), OnlineEntry>,
    hits: u64,
    misses: u64,
    writes: u64,
    expired: u64,
}

impl Model {
    fn put(&mut self, g: usize, e: usize, f: usize, value: Value, t: i64) {
        self.entries.insert(
            (GROUPS[g].into(), entity(e).0, FEATURES[f].into()),
            OnlineEntry {
                value,
                written_at: Timestamp::millis(t),
            },
        );
        self.writes += 1;
    }

    fn read(&mut self, g: usize, e: usize, f: usize) -> Option<OnlineEntry> {
        let found = self
            .entries
            .get(&(GROUPS[g].into(), entity(e).0, FEATURES[f].into()))
            .cloned();
        match found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn store_agrees_with_a_plain_map(ops in collection::vec(op(), 1..60), shards in 1usize..9) {
        let store = OnlineStore::new(shards);
        let mut model = Model::default();
        for op in ops {
            match op {
                Op::Put(g, e, f, v, t) => {
                    store.put(GROUPS[g], &entity(e), FEATURES[f], v.clone(), Timestamp::millis(t));
                    model.put(g, e, f, v, t);
                }
                Op::PutRow(g, e, row, t) => {
                    let values: Vec<(&str, Value)> =
                        row.iter().map(|(f, v)| (FEATURES[*f], v.clone())).collect();
                    store.put_row(GROUPS[g], &entity(e), &values, Timestamp::millis(t));
                    // A name repeated within one row: the later value wins.
                    for (f, v) in row {
                        model.put(g, e, f, v, t);
                    }
                }
                Op::Get(g, e, f) => {
                    prop_assert_eq!(store.get(GROUPS[g], &entity(e), FEATURES[f]), model.read(g, e, f));
                }
                Op::GetMany(g, e, fs) => {
                    let names: Vec<&str> = fs.iter().map(|&f| FEATURES[f]).collect();
                    let want: Vec<_> = fs.iter().map(|&f| model.read(g, e, f)).collect();
                    prop_assert_eq!(store.get_many(GROUPS[g], &entity(e), &names), want);
                }
                Op::VisitRow(g, e, fs) => {
                    let names: Vec<&str> = fs.iter().map(|&f| FEATURES[f]).collect();
                    let mut ids = vec![None; 3]; // stale content must be cleared
                    store.resolve_into(&names, &mut ids);
                    prop_assert_eq!(ids.len(), names.len());
                    let mut got = Vec::new();
                    store.visit_row(GROUPS[g], entity(e).as_str(), &ids, |i, entry| {
                        got.push((i, entry.cloned()));
                    });
                    let want: Vec<_> =
                        fs.iter().enumerate().map(|(i, &f)| (i, model.read(g, e, f))).collect();
                    prop_assert_eq!(got, want);
                }
                Op::GetRow(g, e) => {
                    let want: Vec<(String, OnlineEntry)> = model
                        .entries
                        .iter()
                        .filter(|((mg, me, _), _)| mg == GROUPS[g] && *me == entity(e).0)
                        .map(|((_, _, f), entry)| (f.clone(), entry.clone()))
                        .collect();
                    let want = (!want.is_empty()).then_some(want);
                    prop_assert_eq!(store.get_row(GROUPS[g], &entity(e)), want);
                }
                Op::Sweep(now, ttl) => {
                    let cutoff = Timestamp::millis(now) - Duration::millis(ttl);
                    let before = model.entries.len();
                    model.entries.retain(|_, entry| entry.written_at >= cutoff);
                    let evicted = before - model.entries.len();
                    model.expired += evicted as u64;
                    prop_assert_eq!(
                        store.sweep_expired(Timestamp::millis(now), Duration::millis(ttl)),
                        evicted
                    );
                }
                Op::ExportRows => {
                    let want: Vec<(String, String, String, OnlineEntry)> = model
                        .entries
                        .iter()
                        .map(|((g, e, f), entry)| (g.clone(), e.clone(), f.clone(), entry.clone()))
                        .collect();
                    prop_assert_eq!(store.export_rows(), want);
                }
                Op::FeatureSnapshot(g, f) => {
                    let want: Vec<(EntityKey, OnlineEntry)> = model
                        .entries
                        .iter()
                        .filter(|((mg, _, mf), _)| mg == GROUPS[g] && mf == FEATURES[f])
                        .map(|((_, e, _), entry)| (EntityKey::new(e.clone()), entry.clone()))
                        .collect();
                    prop_assert_eq!(store.feature_snapshot(GROUPS[g], FEATURES[f]), want);
                }
                Op::Len => {
                    prop_assert_eq!(store.len(), model.entries.len());
                    prop_assert_eq!(store.is_empty(), model.entries.is_empty());
                }
            }
            prop_assert_eq!(
                store.stats().snapshot(),
                (model.hits, model.misses, model.writes, model.expired)
            );
        }
    }
}
