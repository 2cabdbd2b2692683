//! Online feature serving with staleness policies (paper §2.2.2: features
//! must be "continuously provided to deployed models even as the feature
//! data is updated over time").

use fstore_common::{Duration, EntityKey, FsError, ReadEpoch, Result, Timestamp, Value};
use fstore_storage::{FeatureId, OnlineStore};
use std::sync::Arc;

/// Supplies the publication epoch a served vector should be stamped with —
/// typically the offline store's [`fstore_storage::OfflineDb::epoch`], or a
/// serving stack's aggregate epoch.
pub(crate) type EpochSource = Arc<dyn Fn() -> ReadEpoch + Send + Sync>;

/// What to do when a requested feature is missing or older than the
/// configured maximum age.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StalenessPolicy {
    /// Serve whatever is there (missing features come back NULL). The
    /// freshness report still flags staleness.
    #[default]
    ServeAnyway,
    /// Replace stale/missing values with NULL (model imputes).
    NullOnStale,
    /// Fail the request — for models that cannot tolerate staleness.
    FailOnStale,
}

/// A served feature vector with its per-feature freshness.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureVector {
    pub entity: EntityKey,
    pub features: Vec<String>,
    pub values: Vec<Value>,
    /// Age of each value at serve time (`None` = missing).
    pub ages: Vec<Option<Duration>>,
    /// Names of features that were missing or over max age.
    pub stale: Vec<String>,
    /// Publication epoch this vector was answered at. Resolved once per
    /// request (once per *batch* for [`FeatureServer::serve_batch`]), so
    /// every value in one response belongs to a single consistent epoch.
    pub epoch: ReadEpoch,
}

impl FeatureVector {
    /// Dense numeric view for model input; NULL/non-numeric → `null_fill`.
    pub fn dense(&self, null_fill: f64) -> Vec<f64> {
        self.values
            .iter()
            .map(|v| v.as_f64().unwrap_or(null_fill))
            .collect()
    }
}

/// Where [`FeatureServer::read_row`] puts a served row: one call per
/// requested feature, in request order. `value` is what the staleness
/// policy decided to serve (`Null` for a missing feature, or a stale one
/// under [`StalenessPolicy::NullOnStale`]) and is borrowed from the store
/// — a sink copies or encodes it before returning; `age` is the stored
/// value's age (`None` = missing); `stale` marks missing or over max age.
pub trait RowSink {
    fn slot(&mut self, index: usize, value: &Value, age: Option<Duration>, stale: bool);
}

/// A [`FeatureVector`] whose `features` are filled in collects its own row.
impl RowSink for FeatureVector {
    fn slot(&mut self, index: usize, value: &Value, age: Option<Duration>, stale: bool) {
        self.values.push(value.clone());
        self.ages.push(age);
        if stale {
            self.stale.push(self.features[index].clone());
        }
    }
}

/// [`FeatureServer::read_row`] refused the row under
/// [`StalenessPolicy::FailOnStale`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleRefused;

/// The error a refused row is reported as, naming the stale features.
pub fn stale_error<'a>(entity: &str, stale: impl Iterator<Item = &'a str>) -> FsError {
    let names: Vec<&str> = stale.collect();
    FsError::Storage(format!(
        "stale/missing features for {entity}: {}",
        names.join(", ")
    ))
}

/// The serving layer over the online store.
#[derive(Clone)]
pub struct FeatureServer {
    online: Arc<OnlineStore>,
    max_age: Option<Duration>,
    policy: StalenessPolicy,
    epoch_source: Option<EpochSource>,
}

impl std::fmt::Debug for FeatureServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FeatureServer")
            .field("max_age", &self.max_age)
            .field("policy", &self.policy)
            .field("has_epoch_source", &self.epoch_source.is_some())
            .finish_non_exhaustive()
    }
}

impl FeatureServer {
    pub fn new(online: Arc<OnlineStore>) -> Self {
        FeatureServer {
            online,
            max_age: None,
            policy: StalenessPolicy::default(),
            epoch_source: None,
        }
    }

    /// Set the maximum tolerated feature age.
    pub fn with_max_age(mut self, age: Duration) -> Self {
        self.max_age = Some(age);
        self
    }

    pub fn with_policy(mut self, policy: StalenessPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Stamp served vectors with an epoch from this source (resolved once
    /// per `serve` call and once per `serve_batch` call). Without a source,
    /// vectors carry [`ReadEpoch::ZERO`].
    pub fn with_epoch_source(mut self, source: EpochSource) -> Self {
        self.epoch_source = Some(source);
        self
    }

    /// The epoch a read answered now should be stamped with. Serving layers
    /// resolve it once per response and pass it to every row they emit.
    pub fn current_epoch(&self) -> ReadEpoch {
        self.epoch_source.as_ref().map_or(ReadEpoch::ZERO, |f| f())
    }

    /// Resolve a request's feature names to the online store's ids, once
    /// per request, into a reusable buffer (see
    /// [`OnlineStore::resolve_into`]).
    pub fn resolve_into<S: AsRef<str>>(&self, features: &[S], ids: &mut Vec<Option<FeatureId>>) {
        self.online.resolve_into(features, ids);
    }

    /// The one read algorithm: visit `entity`'s row under the shard read
    /// lock and hand each requested feature to `sink`, in request order,
    /// with `max_age` and the staleness policy already applied. Every
    /// other read entry point — `serve_at`,
    /// `serve_batch_at`, the network server's
    /// typed and direct-to-frame paths — is this function with a
    /// different sink.
    ///
    /// `Err(StaleRefused)` means the policy is
    /// [`StalenessPolicy::FailOnStale`] and at least one slot was stale;
    /// the sink has then seen the whole row (its stale flags name the
    /// culprits for [`stale_error`]) and the caller must discard it.
    pub fn read_row<S: RowSink>(
        &self,
        group: &str,
        entity: &str,
        ids: &[Option<FeatureId>],
        now: Timestamp,
        sink: &mut S,
    ) -> std::result::Result<(), StaleRefused> {
        let mut any_stale = false;
        self.online
            .visit_row(group, entity, ids, |index, entry| match entry {
                None => {
                    any_stale = true;
                    sink.slot(index, &Value::Null, None, true);
                }
                Some(e) => {
                    let age = e.age(now);
                    let stale = self.max_age.is_some_and(|m| age > m);
                    any_stale |= stale;
                    if stale && self.policy == StalenessPolicy::NullOnStale {
                        sink.slot(index, &Value::Null, Some(age), true);
                    } else {
                        sink.slot(index, &e.value, Some(age), stale);
                    }
                }
            });
        if any_stale && self.policy == StalenessPolicy::FailOnStale {
            Err(StaleRefused)
        } else {
            Ok(())
        }
    }

    /// Assemble a feature vector for `entity` at `now`, stamped with the
    /// configured epoch source's current epoch.
    pub fn serve(
        &self,
        group: &str,
        entity: &EntityKey,
        features: &[&str],
        now: Timestamp,
    ) -> Result<FeatureVector> {
        self.serve_at(group, entity, features, now, self.current_epoch())
    }

    /// Like [`serve`](Self::serve) but answered at an explicitly supplied
    /// epoch — the entry point serving layers use to keep one network
    /// response's parts on a single epoch.
    pub(crate) fn serve_at(
        &self,
        group: &str,
        entity: &EntityKey,
        features: &[&str],
        now: Timestamp,
        epoch: ReadEpoch,
    ) -> Result<FeatureVector> {
        let mut ids = Vec::new();
        self.resolve_into(features, &mut ids);
        self.serve_resolved(group, entity, features, &ids, now, epoch)
    }

    fn serve_resolved(
        &self,
        group: &str,
        entity: &EntityKey,
        features: &[&str],
        ids: &[Option<FeatureId>],
        now: Timestamp,
        epoch: ReadEpoch,
    ) -> Result<FeatureVector> {
        let mut vector = FeatureVector {
            entity: entity.clone(),
            features: features.iter().map(|s| s.to_string()).collect(),
            values: Vec::with_capacity(features.len()),
            ages: Vec::with_capacity(features.len()),
            stale: Vec::new(),
            epoch,
        };
        match self.read_row(group, entity.as_str(), ids, now, &mut vector) {
            Ok(()) => Ok(vector),
            Err(StaleRefused) => Err(stale_error(
                entity.as_str(),
                vector.stale.iter().map(String::as_str),
            )),
        }
    }

    /// Serve many entities (batch scoring path). The epoch is resolved once,
    /// so every vector in the batch carries the same one.
    pub fn serve_batch(
        &self,
        group: &str,
        entities: &[EntityKey],
        features: &[&str],
        now: Timestamp,
    ) -> Result<Vec<FeatureVector>> {
        self.serve_batch_at(group, entities, features, now, self.current_epoch())
    }

    /// [`serve_batch`](Self::serve_batch) at an explicitly supplied epoch.
    pub(crate) fn serve_batch_at(
        &self,
        group: &str,
        entities: &[EntityKey],
        features: &[&str],
        now: Timestamp,
        epoch: ReadEpoch,
    ) -> Result<Vec<FeatureVector>> {
        let mut ids = Vec::new();
        self.resolve_into(features, &mut ids);
        entities
            .iter()
            .map(|e| self.serve_resolved(group, e, features, &ids, now, epoch))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> Arc<OnlineStore> {
        let s = Arc::new(OnlineStore::default());
        let e = EntityKey::new("u1");
        s.put("user", &e, "a", Value::Float(1.0), Timestamp::millis(1_000));
        s.put("user", &e, "b", Value::Int(7), Timestamp::millis(5_000));
        s
    }

    #[test]
    fn serves_values_with_ages() {
        let srv = FeatureServer::new(store());
        let v = srv
            .serve(
                "user",
                &EntityKey::new("u1"),
                &["a", "b"],
                Timestamp::millis(6_000),
            )
            .unwrap();
        assert_eq!(v.values, vec![Value::Float(1.0), Value::Int(7)]);
        assert_eq!(
            v.ages,
            vec![Some(Duration::millis(5_000)), Some(Duration::millis(1_000))]
        );
        assert!(v.stale.is_empty());
        assert_eq!(v.dense(0.0), vec![1.0, 7.0]);
    }

    #[test]
    fn missing_features_are_null_and_flagged() {
        let srv = FeatureServer::new(store());
        let v = srv
            .serve(
                "user",
                &EntityKey::new("u1"),
                &["a", "ghost"],
                Timestamp::millis(6_000),
            )
            .unwrap();
        assert_eq!(v.values[1], Value::Null);
        assert_eq!(v.ages[1], None);
        assert_eq!(v.stale, vec!["ghost".to_string()]);
    }

    #[test]
    fn null_on_stale_policy() {
        let srv = FeatureServer::new(store())
            .with_max_age(Duration::millis(2_000))
            .with_policy(StalenessPolicy::NullOnStale);
        let v = srv
            .serve(
                "user",
                &EntityKey::new("u1"),
                &["a", "b"],
                Timestamp::millis(6_000),
            )
            .unwrap();
        assert_eq!(v.values[0], Value::Null, "a is 5s old > 2s max age");
        assert_eq!(v.values[1], Value::Int(7));
        assert_eq!(v.stale, vec!["a".to_string()]);
    }

    #[test]
    fn serve_anyway_keeps_stale_values_but_flags_them() {
        let srv = FeatureServer::new(store()).with_max_age(Duration::millis(2_000));
        let v = srv
            .serve(
                "user",
                &EntityKey::new("u1"),
                &["a"],
                Timestamp::millis(6_000),
            )
            .unwrap();
        assert_eq!(v.values[0], Value::Float(1.0));
        assert_eq!(v.stale, vec!["a".to_string()]);
    }

    #[test]
    fn fail_on_stale_policy() {
        let srv = FeatureServer::new(store())
            .with_max_age(Duration::millis(2_000))
            .with_policy(StalenessPolicy::FailOnStale);
        let err = srv
            .serve(
                "user",
                &EntityKey::new("u1"),
                &["a", "b"],
                Timestamp::millis(6_000),
            )
            .unwrap_err();
        assert!(err.to_string().contains("a"));
        // fresh-only request succeeds
        srv.serve(
            "user",
            &EntityKey::new("u1"),
            &["b"],
            Timestamp::millis(6_000),
        )
        .unwrap();
    }

    #[test]
    fn batch_serving() {
        let s = store();
        s.put(
            "user",
            &EntityKey::new("u2"),
            "a",
            Value::Float(2.0),
            Timestamp::millis(1),
        );
        let srv = FeatureServer::new(s);
        let vs = srv
            .serve_batch(
                "user",
                &[EntityKey::new("u1"), EntityKey::new("u2")],
                &["a"],
                Timestamp::millis(9_000),
            )
            .unwrap();
        assert_eq!(vs.len(), 2);
        assert_eq!(vs[1].values[0], Value::Float(2.0));
    }
}
