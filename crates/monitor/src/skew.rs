//! Training/serving skew (paper §2.2.3: "critical model metrics such as
//! training-deployment data skew"): compare the offline distribution a
//! model trained on against the values the online store is serving now.

use crate::drift::{DriftAlert, DriftMonitor, DriftThresholds};
use fstore_common::{FsError, Result, Value};
use fstore_storage::{OfflineStore, OnlineStore, ScanRequest};

/// Skew check result for one feature.
#[derive(Debug, Clone)]
pub struct SkewReport {
    pub training_rows: usize,
    pub serving_rows: usize,
    pub alert: DriftAlert,
}

/// Compare a feature's offline training log (`feat__<name>_v<version>`)
/// against the live values currently served from the online store.
pub fn skew_report(
    offline: &OfflineStore,
    online: &OnlineStore,
    feature: &str,
    version: u32,
    group: &str,
    thresholds: DriftThresholds,
) -> Result<SkewReport> {
    let table = format!("feat__{feature}_v{version}");
    let training: Vec<f64> = offline
        .column_values(&table, "value", &ScanRequest::all())?
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    if training.len() < 20 {
        return Err(FsError::Monitor(format!(
            "not enough training history for `{feature}` ({} rows)",
            training.len()
        )));
    }
    let serving: Vec<f64> = online
        .feature_snapshot(group, feature)
        .iter()
        .filter_map(|(_, e)| e.value.as_f64())
        .collect();
    if serving.is_empty() {
        return Err(FsError::Monitor(format!(
            "feature `{feature}` is not being served"
        )));
    }
    let monitor = DriftMonitor::fit(&training, thresholds)?;
    let alert = monitor
        .check(&serving)?
        .iter()
        .map(|r| r.alert)
        .max()
        .unwrap_or(DriftAlert::Ok);
    Ok(SkewReport {
        training_rows: training.len(),
        serving_rows: serving.len(),
        alert,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fstore_common::{EntityKey, FieldDef, Rng, Schema, Timestamp, ValueType, Xoshiro256};
    use fstore_storage::TableConfig;

    fn feature_log_schema() -> Schema {
        Schema::new(vec![
            FieldDef::not_null("entity", ValueType::Str),
            FieldDef::not_null("ts", ValueType::Timestamp),
            FieldDef::new("value", ValueType::Float),
        ])
        .unwrap()
    }

    fn setup(offline_mean: f64, online_mean: f64) -> (OfflineStore, OnlineStore) {
        let mut off = OfflineStore::new();
        off.create_table(
            "feat__score_v1",
            TableConfig::new(feature_log_schema()).with_time_column("ts"),
        )
        .unwrap();
        let mut rng = Xoshiro256::seeded(2);
        for i in 0..1000 {
            off.append(
                "feat__score_v1",
                &[
                    Value::from(format!("u{i}")),
                    Value::Timestamp(Timestamp::millis(i)),
                    Value::Float(rng.normal() + offline_mean),
                ],
            )
            .unwrap();
        }
        let online = OnlineStore::default();
        for i in 0..800 {
            online.put(
                "user",
                &EntityKey::new(format!("u{i}")),
                "score",
                Value::Float(rng.normal() + online_mean),
                Timestamp::millis(1_000),
            );
        }
        (off, online)
    }

    #[test]
    fn no_skew_is_quiet() {
        let (off, online) = setup(5.0, 5.0);
        let r = skew_report(
            &off,
            &online,
            "score",
            1,
            "user",
            DriftThresholds::default(),
        )
        .unwrap();
        assert_eq!(r.alert, DriftAlert::Ok);
        assert_eq!(r.training_rows, 1000);
        assert_eq!(r.serving_rows, 800);
    }

    #[test]
    fn skew_is_flagged() {
        let (off, online) = setup(5.0, 9.0);
        let r = skew_report(
            &off,
            &online,
            "score",
            1,
            "user",
            DriftThresholds::default(),
        )
        .unwrap();
        assert_eq!(r.alert, DriftAlert::Critical);
    }

    #[test]
    fn missing_serving_side_errors() {
        let (off, _unused) = setup(5.0, 5.0);
        let empty = OnlineStore::default();
        assert!(skew_report(&off, &empty, "score", 1, "user", DriftThresholds::default()).is_err());
    }

    #[test]
    fn missing_training_side_errors() {
        let online = OnlineStore::default();
        online.put(
            "user",
            &EntityKey::new("u"),
            "score",
            Value::Float(1.0),
            Timestamp::EPOCH,
        );
        let off = OfflineStore::new();
        assert!(skew_report(
            &off,
            &online,
            "score",
            1,
            "user",
            DriftThresholds::default()
        )
        .is_err());
    }
}
