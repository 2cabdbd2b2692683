//! Point-in-time (PIT) joins — "time based joins" over date-partitioned
//! features (paper §2.2.2).
//!
//! A training row for a label event at time *t* must only see feature values
//! materialized **at or before** *t*; joining the latest value instead leaks
//! future information, inflates offline accuracy, and collapses on
//! deployment. [`point_in_time_join`] implements the correct join;
//! [`naive_latest_join`] implements the leaky baseline so experiment **E2**
//! can measure the damage.

use fstore_common::hash::FxHashMap;
use fstore_common::{
    Duration, EntityKey, FieldDef, FsError, Result, Schema, Timestamp, Value, ValueType,
};
use fstore_storage::{OfflineStore, ScanRequest};

/// A labeled event to build a training row for.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelEvent {
    pub(crate) entity: EntityKey,
    pub(crate) ts: Timestamp,
    pub(crate) label: Value,
}

impl LabelEvent {
    pub fn new(entity: impl Into<EntityKey>, ts: Timestamp, label: impl Into<Value>) -> Self {
        LabelEvent {
            entity: entity.into(),
            ts,
            label: label.into(),
        }
    }
}

/// Where to find one feature's history in the offline store.
///
/// Materialized features follow the `feat__<name>_v<n>(entity, ts, value)`
/// convention (`crate::materialize::feature_log_schema`); this struct also
/// lets PIT joins run over arbitrary tables.
#[derive(Debug, Clone)]
pub struct PitFeature {
    /// Name the feature column gets in the training set.
    pub feature: String,
    pub table: String,
    pub entity_column: String,
    pub time_column: String,
    pub value_column: String,
    /// Feature values older than this at label time join as NULL
    /// (`None` = no bound).
    pub max_age: Option<Duration>,
}

impl PitFeature {
    /// Convention-based accessor for a materialized feature log table.
    pub fn materialized(feature: &str, version: u32) -> Self {
        PitFeature {
            feature: feature.to_string(),
            table: format!("feat__{feature}_v{version}"),
            entity_column: "entity".into(),
            time_column: "ts".into(),
            value_column: "value".into(),
            max_age: None,
        }
    }
}

/// A materialized training set: `entity, ts, <features…>, label`.
#[derive(Debug, Clone)]
pub struct TrainingSet {
    pub schema: Schema,
    pub rows: Vec<Vec<Value>>,
}

impl TrainingSet {
    /// Feature matrix (columns between entity/ts and label) as f64 with
    /// NULLs mapped to `null_fill` — the hand-off format to `fstore-models`.
    pub fn feature_matrix(&self, null_fill: f64) -> (Vec<Vec<f64>>, Vec<Value>) {
        let k = self.schema.len();
        let mut xs = Vec::with_capacity(self.rows.len());
        let mut ys = Vec::with_capacity(self.rows.len());
        for row in &self.rows {
            xs.push(
                row[2..k - 1]
                    .iter()
                    .map(|v| v.as_f64().unwrap_or(null_fill))
                    .collect::<Vec<f64>>(),
            );
            ys.push(row[k - 1].clone());
        }
        (xs, ys)
    }
}

/// Per-entity feature history sorted by time for binary search.
struct FeatureHistory {
    by_entity: FxHashMap<String, Vec<(Timestamp, Value)>>,
}

fn load_history(offline: &OfflineStore, feat: &PitFeature) -> Result<FeatureHistory> {
    let scan = offline.scan(
        &feat.table,
        &ScanRequest::all().project(&[&feat.entity_column, &feat.time_column, &feat.value_column]),
    )?;
    let mut by_entity: FxHashMap<String, Vec<(Timestamp, Value)>> = FxHashMap::default();
    for row in scan.rows {
        let [entity, ts, value]: [Value; 3] =
            row.try_into().expect("projection guarantees arity 3");
        let (Value::Str(e), Value::Timestamp(t)) = (&entity, &ts) else {
            return Err(FsError::Plan(format!(
                "PIT feature `{}`: entity/time columns must be Str/Timestamp",
                feat.feature
            )));
        };
        by_entity.entry(e.clone()).or_default().push((*t, value));
    }
    for hist in by_entity.values_mut() {
        hist.sort_by_key(|(t, _)| *t);
    }
    Ok(FeatureHistory { by_entity })
}

impl FeatureHistory {
    /// Latest value at or before `t` (respecting `max_age`).
    fn value_as_of(&self, entity: &str, t: Timestamp, max_age: Option<Duration>) -> Option<&Value> {
        let hist = self.by_entity.get(entity)?;
        let idx = hist.partition_point(|(ht, _)| *ht <= t);
        if idx == 0 {
            return None;
        }
        let (ht, v) = &hist[idx - 1];
        if let Some(age) = max_age {
            if t - *ht > age {
                return None;
            }
        }
        Some(v)
    }

    /// Latest value overall — the leaky baseline.
    fn latest(&self, entity: &str) -> Option<&Value> {
        self.by_entity
            .get(entity)
            .and_then(|h| h.last())
            .map(|(_, v)| v)
    }
}

fn training_schema(features: &[PitFeature]) -> Result<Schema> {
    let mut fields = vec![
        FieldDef::not_null("entity", ValueType::Str),
        FieldDef::not_null("ts", ValueType::Timestamp),
    ];
    for f in features {
        fields.push(FieldDef::new(f.feature.clone(), ValueType::Float));
    }
    fields.push(FieldDef::new("label", ValueType::Float));
    Schema::new(fields)
}

fn join_impl(
    offline: &OfflineStore,
    labels: &[LabelEvent],
    features: &[PitFeature],
    point_in_time: bool,
) -> Result<TrainingSet> {
    if features.is_empty() {
        return Err(FsError::InvalidArgument(
            "PIT join needs at least one feature".into(),
        ));
    }
    let schema = training_schema(features)?;
    let histories: Vec<FeatureHistory> = features
        .iter()
        .map(|f| load_history(offline, f))
        .collect::<Result<_>>()?;

    let mut rows = Vec::with_capacity(labels.len());
    for label in labels {
        let mut row = Vec::with_capacity(schema.len());
        row.push(Value::Str(label.entity.as_str().to_string()));
        row.push(Value::Timestamp(label.ts));
        for (feat, hist) in features.iter().zip(&histories) {
            let v = if point_in_time {
                hist.value_as_of(label.entity.as_str(), label.ts, feat.max_age)
            } else {
                hist.latest(label.entity.as_str())
            };
            row.push(v.cloned().unwrap_or(Value::Null));
        }
        row.push(label.label.clone());
        rows.push(row);
    }
    Ok(TrainingSet { schema, rows })
}

/// Leakage-free training set: each label row joins the latest feature value
/// at or before the label timestamp.
pub fn point_in_time_join(
    offline: &OfflineStore,
    labels: &[LabelEvent],
    features: &[PitFeature],
) -> Result<TrainingSet> {
    join_impl(offline, labels, features, true)
}

/// The leaky baseline: joins the latest feature value regardless of the
/// label timestamp. Exists so E2 can quantify the leakage it causes; never
/// use it to train a real model.
pub fn naive_latest_join(
    offline: &OfflineStore,
    labels: &[LabelEvent],
    features: &[PitFeature],
) -> Result<TrainingSet> {
    join_impl(offline, labels, features, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::materialize::feature_log_schema;
    use fstore_storage::TableConfig;

    fn ms(x: i64) -> Timestamp {
        Timestamp::millis(x)
    }

    /// Build `feat__score_v1` with a history of (entity, ts, value).
    fn offline_with_history(rows: &[(&str, i64, f64)]) -> OfflineStore {
        let mut off = OfflineStore::new();
        off.create_table(
            "feat__score_v1",
            TableConfig::new(feature_log_schema(ValueType::Float)).with_time_column("ts"),
        )
        .unwrap();
        for (e, t, v) in rows {
            off.append(
                "feat__score_v1",
                &[Value::from(*e), Value::Timestamp(ms(*t)), Value::Float(*v)],
            )
            .unwrap();
        }
        off
    }

    #[test]
    fn pit_join_picks_value_at_or_before_label() {
        let off = offline_with_history(&[("u1", 100, 1.0), ("u1", 200, 2.0), ("u1", 300, 3.0)]);
        let labels = vec![
            LabelEvent::new("u1", ms(250), 1.0),
            LabelEvent::new("u1", ms(200), 0.0),
            LabelEvent::new("u1", ms(50), 1.0),
        ];
        let ts =
            point_in_time_join(&off, &labels, &[PitFeature::materialized("score", 1)]).unwrap();
        assert_eq!(
            ts.rows[0][2],
            Value::Float(2.0),
            "value at 200 for label at 250"
        );
        assert_eq!(ts.rows[1][2], Value::Float(2.0), "ties are inclusive");
        assert_eq!(ts.rows[2][2], Value::Null, "no history before 50");
    }

    #[test]
    fn naive_join_leaks_future_values() {
        let off = offline_with_history(&[("u1", 100, 1.0), ("u1", 900, 9.0)]);
        let labels = vec![LabelEvent::new("u1", ms(150), 1.0)];
        let feat = [PitFeature::materialized("score", 1)];
        let pit = point_in_time_join(&off, &labels, &feat).unwrap();
        let naive = naive_latest_join(&off, &labels, &feat).unwrap();
        assert_eq!(pit.rows[0][2], Value::Float(1.0));
        assert_eq!(
            naive.rows[0][2],
            Value::Float(9.0),
            "naive join sees the future"
        );
    }

    #[test]
    fn max_age_nulls_stale_features() {
        let off = offline_with_history(&[("u1", 100, 1.0)]);
        let labels = vec![LabelEvent::new("u1", ms(100 + 5_000), 1.0)];
        let fresh_only = [PitFeature {
            max_age: Some(Duration::millis(1_000)),
            ..PitFeature::materialized("score", 1)
        }];
        let ts = point_in_time_join(&off, &labels, &fresh_only).unwrap();
        assert_eq!(ts.rows[0][2], Value::Null);
        let lenient = [PitFeature {
            max_age: Some(Duration::millis(10_000)),
            ..PitFeature::materialized("score", 1)
        }];
        let ts = point_in_time_join(&off, &labels, &lenient).unwrap();
        assert_eq!(ts.rows[0][2], Value::Float(1.0));
    }

    #[test]
    fn unknown_entities_join_null() {
        let off = offline_with_history(&[("u1", 100, 1.0)]);
        let labels = vec![LabelEvent::new("stranger", ms(500), 0.0)];
        let ts =
            point_in_time_join(&off, &labels, &[PitFeature::materialized("score", 1)]).unwrap();
        assert_eq!(ts.rows[0][2], Value::Null);
    }

    #[test]
    fn multiple_features_and_matrix_export() {
        let mut off = offline_with_history(&[("u1", 100, 1.0)]);
        off.create_table(
            "feat__other_v1",
            TableConfig::new(feature_log_schema(ValueType::Float)).with_time_column("ts"),
        )
        .unwrap();
        off.append(
            "feat__other_v1",
            &[
                Value::from("u1"),
                Value::Timestamp(ms(100)),
                Value::Float(7.0),
            ],
        )
        .unwrap();
        let labels = vec![
            LabelEvent::new("u1", ms(200), 1.0),
            LabelEvent::new("u2", ms(200), 0.0),
        ];
        let ts = point_in_time_join(
            &off,
            &labels,
            &[
                PitFeature::materialized("score", 1),
                PitFeature::materialized("other", 1),
            ],
        )
        .unwrap();
        assert_eq!(ts.schema.len(), 5);
        let (xs, ys) = ts.feature_matrix(-1.0);
        assert_eq!(xs, vec![vec![1.0, 7.0], vec![-1.0, -1.0]]);
        assert_eq!(ys, vec![Value::Float(1.0), Value::Float(0.0)]);
    }

    #[test]
    fn empty_features_rejected() {
        let off = offline_with_history(&[]);
        assert!(point_in_time_join(&off, &[], &[]).is_err());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Invariant: every joined feature value's timestamp is <= the
            /// label timestamp (no leakage), verified against the history.
            #[test]
            fn no_future_values(
                history in proptest::collection::vec((0i64..1000, -100f64..100.0), 1..50),
                label_times in proptest::collection::vec(0i64..1000, 1..20),
            ) {
                let rows: Vec<(&str, i64, f64)> =
                    history.iter().map(|(t, v)| ("u", *t, *v)).collect();
                let off = offline_with_history(&rows);
                let labels: Vec<LabelEvent> =
                    label_times.iter().map(|&t| LabelEvent::new("u", ms(t), 0.0)).collect();
                let ts = point_in_time_join(
                    &off, &labels, &[PitFeature::materialized("score", 1)]).unwrap();

                // reconstruct: for each label, expected = value with max ts <= label ts
                let mut hist = history.clone();
                hist.sort_by_key(|(t, _)| *t);
                for (row, &lt) in ts.rows.iter().zip(&label_times) {
                    let expected = hist.iter().rev().find(|(t, _)| *t <= lt)
                        .map(|(_, v)| Value::Float(*v)).unwrap_or(Value::Null);
                    // ties in ts: the store keeps append order; accept any
                    // value whose timestamp equals the winning timestamp.
                    if let Value::Float(_) = expected {
                        let win_t = hist.iter().rev().find(|(t, _)| *t <= lt).unwrap().0;
                        let candidates: Vec<Value> = hist.iter()
                            .filter(|(t, _)| *t == win_t)
                            .map(|(_, v)| Value::Float(*v)).collect();
                        prop_assert!(candidates.contains(&row[2]),
                            "label@{lt}: got {:?}, candidates {:?}", row[2], candidates);
                    } else {
                        prop_assert_eq!(&row[2], &expected);
                    }
                }
            }
        }
    }
}
