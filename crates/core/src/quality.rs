//! Feature-quality metrics (paper §2.2.2: "FSs measure feature freshness,
//! null counts, and mutual information across features") and the detectors
//! experiment **E4** exercises: null spikes, frozen feeds, and redundant
//! (near-duplicate) features.

use fstore_common::stats::{
    discretize_equal_width, exact_quantile, normalized_mutual_information, DiscretizeSpec,
    OnlineMoments,
};
use fstore_common::{Duration, FsError, Result, Timestamp, Value};
use fstore_storage::OnlineStore;

/// Batch profile of one feature/column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnProfile {
    pub(crate) name: String,
    pub(crate) rows: usize,
    pub(crate) nulls: usize,
    pub(crate) mean: Option<f64>,
    pub(crate) std_dev: Option<f64>,
    pub(crate) min: Option<f64>,
    pub(crate) max: Option<f64>,
    pub(crate) p50: Option<f64>,
    pub(crate) p95: Option<f64>,
}

impl ColumnProfile {
    pub(crate) fn null_rate(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.nulls as f64 / self.rows as f64
        }
    }

    /// Profile an in-memory column.
    pub fn of_values(name: &str, values: &[Value]) -> ColumnProfile {
        let nulls = values.iter().filter(|v| v.is_null()).count();
        let nums: Vec<f64> = values.iter().filter_map(Value::as_f64).collect();
        let m: OnlineMoments = nums.iter().copied().collect();
        let have = m.count() > 0;
        ColumnProfile {
            name: name.to_string(),
            rows: values.len(),
            nulls,
            mean: have.then(|| m.mean()),
            std_dev: have.then(|| m.std_dev()),
            min: m.min(),
            max: m.max(),
            p50: exact_quantile(&nums, 0.5),
            p95: exact_quantile(&nums, 0.95),
        }
    }
}

/// A detected feature-quality problem.
#[derive(Debug, Clone, PartialEq)]
pub enum QualityIssue {
    /// Null rate jumped relative to the reference profile.
    NullSpike {
        feature: String,
        reference_rate: f64,
        live_rate: f64,
    },
    /// Online value is older than `tolerance × cadence`.
    FrozenFeed {
        feature: String,
        age: Duration,
        cadence: Duration,
    },
    /// Two features are near-duplicates (high normalized MI).
    RedundantPair { a: String, b: String, nmi: f64 },
}

/// Configurable thresholds for the report.
#[derive(Debug, Clone, Copy)]
pub struct QualityThresholds {
    /// Absolute null-rate increase that trips [`QualityIssue::NullSpike`].
    pub(crate) null_rate_jump: f64,
    /// Multiple of the cadence after which a feed counts as frozen.
    pub(crate) freshness_tolerance: f64,
    /// NMI above which a feature pair is reported redundant.
    pub(crate) redundancy_nmi: f64,
}

impl Default for QualityThresholds {
    fn default() -> Self {
        QualityThresholds {
            null_rate_jump: 0.10,
            freshness_tolerance: 3.0,
            redundancy_nmi: 0.95,
        }
    }
}

/// The feature-quality detectors: null spikes, frozen feeds, redundancy.
#[derive(Debug)]
pub struct FeatureQualityReport;

impl FeatureQualityReport {
    /// Compare live profiles against reference profiles (same feature
    /// names) and flag null spikes.
    pub fn check_null_spikes(
        reference: &[ColumnProfile],
        live: &[ColumnProfile],
        thresholds: &QualityThresholds,
        out: &mut Vec<QualityIssue>,
    ) {
        for live_p in live {
            if let Some(ref_p) = reference.iter().find(|p| p.name == live_p.name) {
                let (r, l) = (ref_p.null_rate(), live_p.null_rate());
                if l - r > thresholds.null_rate_jump {
                    out.push(QualityIssue::NullSpike {
                        feature: live_p.name.clone(),
                        reference_rate: r,
                        live_rate: l,
                    });
                }
            }
        }
    }

    /// Scan an online group for entries older than `tolerance × cadence`.
    pub fn check_frozen_feeds(
        online: &OnlineStore,
        group: &str,
        features: &[(&str, Duration)],
        now: Timestamp,
        thresholds: &QualityThresholds,
        out: &mut Vec<QualityIssue>,
    ) {
        for (feature, cadence) in features {
            let snap = online.feature_snapshot(group, feature);
            if snap.is_empty() {
                continue;
            }
            // worst-case (oldest) entry decides
            let oldest = snap.iter().map(|(_, e)| e.age(now)).max().unwrap();
            let limit = (cadence.as_millis() as f64 * thresholds.freshness_tolerance) as i64;
            if oldest.as_millis() > limit {
                out.push(QualityIssue::FrozenFeed {
                    feature: feature.to_string(),
                    age: oldest,
                    cadence: *cadence,
                });
            }
        }
    }

    /// Pairwise NMI over aligned numeric columns; pairs above the threshold
    /// are reported redundant. Returns the full matrix for inspection.
    pub fn check_redundancy(
        columns: &[(String, Vec<f64>)],
        thresholds: &QualityThresholds,
        out: &mut Vec<QualityIssue>,
    ) -> Result<Vec<Vec<f64>>> {
        let n = columns.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let len = columns[0].1.len();
        if columns.iter().any(|(_, c)| c.len() != len) {
            return Err(FsError::InvalidArgument(
                "redundancy check needs aligned columns".into(),
            ));
        }
        let spec = DiscretizeSpec::default();
        let discretized: Vec<Vec<usize>> = columns
            .iter()
            .map(|(_, c)| discretize_equal_width(c, spec))
            .collect::<Result<_>>()?;
        let mut matrix = vec![vec![0.0; n]; n];
        for i in 0..n {
            matrix[i][i] = 1.0;
            for j in i + 1..n {
                let nmi = normalized_mutual_information(&discretized[i], &discretized[j])?;
                matrix[i][j] = nmi;
                matrix[j][i] = nmi;
                if nmi > thresholds.redundancy_nmi {
                    out.push(QualityIssue::RedundantPair {
                        a: columns[i].0.clone(),
                        b: columns[j].0.clone(),
                        nmi,
                    });
                }
            }
        }
        Ok(matrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fstore_common::EntityKey;

    fn profile(name: &str, rows: usize, nulls: usize) -> ColumnProfile {
        let mut values: Vec<Value> = (0..rows - nulls).map(|i| Value::Float(i as f64)).collect();
        values.extend(std::iter::repeat_n(Value::Null, nulls));
        ColumnProfile::of_values(name, &values)
    }

    #[test]
    fn profile_stats() {
        let values: Vec<Value> = vec![
            Value::Float(1.0),
            Value::Float(3.0),
            Value::Null,
            Value::from("junk"),
        ];
        let p = ColumnProfile::of_values("f", &values);
        assert_eq!(p.rows, 4);
        assert_eq!(p.nulls, 1);
        assert_eq!(p.mean, Some(2.0));
        assert_eq!(p.min, Some(1.0));
        assert_eq!(p.max, Some(3.0));
        assert!((p.null_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_profile() {
        let p = ColumnProfile::of_values("f", &[]);
        assert_eq!(p.rows, 0);
        assert_eq!(p.null_rate(), 0.0);
        assert_eq!(p.mean, None);
        assert_eq!(p.p95, None);
    }

    #[test]
    fn null_spike_detection() {
        let reference = vec![profile("f", 100, 2)];
        let quiet = vec![profile("f", 100, 5)];
        let spiking = vec![profile("f", 100, 40)];
        let th = QualityThresholds::default();
        let mut issues = Vec::new();
        FeatureQualityReport::check_null_spikes(&reference, &quiet, &th, &mut issues);
        assert!(issues.is_empty());
        FeatureQualityReport::check_null_spikes(&reference, &spiking, &th, &mut issues);
        assert_eq!(issues.len(), 1);
        match &issues[0] {
            QualityIssue::NullSpike {
                feature, live_rate, ..
            } => {
                assert_eq!(feature, "f");
                assert!((live_rate - 0.4).abs() < 1e-12);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn frozen_feed_detection() {
        let online = OnlineStore::default();
        let now = Timestamp::millis(10 * 3_600_000);
        online.put(
            "g",
            &EntityKey::new("u1"),
            "fresh",
            Value::Int(1),
            now - Duration::hours(1),
        );
        online.put(
            "g",
            &EntityKey::new("u1"),
            "frozen",
            Value::Int(1),
            now - Duration::hours(9),
        );
        let mut issues = Vec::new();
        FeatureQualityReport::check_frozen_feeds(
            &online,
            "g",
            &[
                ("fresh", Duration::hours(1)),
                ("frozen", Duration::hours(1)),
                ("absent", Duration::hours(1)),
            ],
            now,
            &QualityThresholds::default(),
            &mut issues,
        );
        assert_eq!(issues.len(), 1);
        assert!(
            matches!(&issues[0], QualityIssue::FrozenFeed { feature, .. } if feature == "frozen")
        );
    }

    #[test]
    fn redundancy_detection() {
        let a: Vec<f64> = (0..500).map(|i| i as f64).collect();
        let dup: Vec<f64> = a.iter().map(|x| x * 2.0 + 1.0).collect(); // perfect copy
        let noise: Vec<f64> = (0..500).map(|i| ((i * 7919) % 500) as f64).collect();
        let mut issues = Vec::new();
        let m = FeatureQualityReport::check_redundancy(
            &[
                ("a".into(), a),
                ("dup".into(), dup),
                ("noise".into(), noise),
            ],
            &QualityThresholds::default(),
            &mut issues,
        )
        .unwrap();
        assert_eq!(issues.len(), 1);
        assert!(
            matches!(&issues[0], QualityIssue::RedundantPair { a, b, .. } if a == "a" && b == "dup")
        );
        assert!(m[0][1] > 0.95);
        assert!(m[0][2] < 0.5);
        assert_eq!(m[1][0], m[0][1], "matrix is symmetric");
    }

    #[test]
    fn redundancy_validates_alignment() {
        let mut issues = Vec::new();
        assert!(FeatureQualityReport::check_redundancy(
            &[("a".into(), vec![1.0]), ("b".into(), vec![1.0, 2.0])],
            &QualityThresholds::default(),
            &mut issues,
        )
        .is_err());
    }
}
