//! Reference-vs-live drift monitors.
//!
//! A monitor is fitted on a *reference window* (the distribution the model
//! was trained/validated on) and then fed live windows. Tabular monitors
//! run KS + PSI per numeric feature; the embedding monitor runs
//! mean-cosine-shift + MMD on vectors. E10 shows why both exist: semantic
//! drift can leave every marginal untouched.

use crate::mmd::mmd_rbf;
use fstore_common::stats::{ks_p_value, ks_statistic, population_stability_index, Histogram};
use fstore_common::{FsError, Result};
use fstore_models::linalg::cosine;

/// Alert severity, thresholded on the detector statistic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DriftAlert {
    Ok,
    Warning,
    Critical,
}

/// One detector's output for one window.
#[derive(Debug, Clone)]
pub struct DriftReport {
    pub detector: &'static str,
    pub statistic: f64,
    pub alert: DriftAlert,
}

/// Thresholds for the tabular monitor.
#[derive(Debug, Clone, Copy)]
pub struct DriftThresholds {
    /// KS p-value below which we warn / go critical.
    pub ks_warn_p: f64,
    pub ks_critical_p: f64,
    /// PSI levels (industry: 0.1 / 0.25).
    pub psi_warn: f64,
    pub psi_critical: f64,
}

impl Default for DriftThresholds {
    fn default() -> Self {
        DriftThresholds {
            ks_warn_p: 0.05,
            ks_critical_p: 0.001,
            psi_warn: 0.1,
            psi_critical: 0.25,
        }
    }
}

/// Per-feature tabular drift monitor (KS + PSI against a frozen reference).
pub struct DriftMonitor {
    reference: Vec<f64>,
    reference_hist: Histogram,
    thresholds: DriftThresholds,
}

impl DriftMonitor {
    /// Fit on the reference sample (≥ 20 points to be meaningful).
    pub fn fit(reference: &[f64], thresholds: DriftThresholds) -> Result<Self> {
        if reference.len() < 20 {
            return Err(FsError::Monitor(format!(
                "reference window too small ({} < 20)",
                reference.len()
            )));
        }
        Ok(DriftMonitor {
            reference_hist: Histogram::fit(reference, 10)?,
            reference: reference.to_vec(),
            thresholds,
        })
    }

    /// Check a live window; returns one report per detector.
    pub(crate) fn check(&self, live: &[f64]) -> Result<Vec<DriftReport>> {
        if live.is_empty() {
            return Err(FsError::Monitor("empty live window".into()));
        }
        let mut out = Vec::with_capacity(2);

        // KS
        let ks = ks_statistic(&self.reference, live)?;
        let p = ks_p_value(ks, self.reference.len(), live.len());
        let alert = if p < self.thresholds.ks_critical_p {
            DriftAlert::Critical
        } else if p < self.thresholds.ks_warn_p {
            DriftAlert::Warning
        } else {
            DriftAlert::Ok
        };
        out.push(DriftReport {
            detector: "ks",
            statistic: ks,
            alert,
        });

        // PSI over the reference histogram geometry
        let mut live_hist = self.reference_hist.empty_like();
        live_hist.add_all(live);
        let psi = population_stability_index(
            &self.reference_hist.proportions_with_tails(1e-3),
            &live_hist.proportions_with_tails(1e-3),
        )?;
        let alert = if psi > self.thresholds.psi_critical {
            DriftAlert::Critical
        } else if psi > self.thresholds.psi_warn {
            DriftAlert::Warning
        } else {
            DriftAlert::Ok
        };
        out.push(DriftReport {
            detector: "psi",
            statistic: psi,
            alert,
        });
        Ok(out)
    }

    /// Worst alert across detectors for a live window.
    pub fn alert_level(&self, live: &[f64]) -> Result<DriftAlert> {
        Ok(self
            .check(live)?
            .into_iter()
            .map(|r| r.alert)
            .max()
            .unwrap_or(DriftAlert::Ok))
    }
}

/// Thresholds for the embedding monitor.
#[derive(Debug, Clone, Copy)]
pub struct EmbeddingDriftThresholds {
    /// Mean cosine similarity of live mean-vector to reference mean-vector
    /// below which we warn / go critical.
    pub(crate) mean_cos_warn: f64,
    pub(crate) mean_cos_critical: f64,
    /// MMD² levels.
    pub(crate) mmd_warn: f64,
    pub(crate) mmd_critical: f64,
}

impl Default for EmbeddingDriftThresholds {
    fn default() -> Self {
        EmbeddingDriftThresholds {
            mean_cos_warn: 0.95,
            mean_cos_critical: 0.8,
            mmd_warn: 0.05,
            mmd_critical: 0.2,
        }
    }
}

/// Embedding-space drift monitor: mean-direction shift + MMD (paper §3.1:
/// "existing FS metrics such as null value count do not capture drifts or
/// changes in embeddings").
pub struct EmbeddingDriftMonitor {
    reference: Vec<Vec<f64>>,
    reference_mean: Vec<f64>,
    thresholds: EmbeddingDriftThresholds,
}

impl EmbeddingDriftMonitor {
    pub fn fit(reference: &[Vec<f64>], thresholds: EmbeddingDriftThresholds) -> Result<Self> {
        if reference.len() < 10 {
            return Err(FsError::Monitor(
                "embedding reference window too small".into(),
            ));
        }
        let d = reference[0].len();
        if d == 0 || reference.iter().any(|v| v.len() != d) {
            return Err(FsError::Monitor("ragged embedding reference".into()));
        }
        let mut mean = vec![0.0; d];
        for v in reference {
            for (m, &x) in mean.iter_mut().zip(v) {
                *m += x;
            }
        }
        for m in &mut mean {
            *m /= reference.len() as f64;
        }
        Ok(EmbeddingDriftMonitor {
            reference: reference.to_vec(),
            reference_mean: mean,
            thresholds,
        })
    }

    pub fn check(&self, live: &[Vec<f64>]) -> Result<Vec<DriftReport>> {
        if live.is_empty() {
            return Err(FsError::Monitor("empty live embedding window".into()));
        }
        let d = self.reference_mean.len();
        if live.iter().any(|v| v.len() != d) {
            return Err(FsError::Monitor("live embedding dim mismatch".into()));
        }
        let mut live_mean = vec![0.0; d];
        for v in live {
            for (m, &x) in live_mean.iter_mut().zip(v) {
                *m += x;
            }
        }
        for m in &mut live_mean {
            *m /= live.len() as f64;
        }
        let mean_cos = cosine(&self.reference_mean, &live_mean);
        let alert = if mean_cos < self.thresholds.mean_cos_critical {
            DriftAlert::Critical
        } else if mean_cos < self.thresholds.mean_cos_warn {
            DriftAlert::Warning
        } else {
            DriftAlert::Ok
        };
        let mut out = vec![DriftReport {
            detector: "mean_cosine",
            statistic: mean_cos,
            alert,
        }];

        let mmd = mmd_rbf(&self.reference, live, None)?;
        let alert = if mmd > self.thresholds.mmd_critical {
            DriftAlert::Critical
        } else if mmd > self.thresholds.mmd_warn {
            DriftAlert::Warning
        } else {
            DriftAlert::Ok
        };
        out.push(DriftReport {
            detector: "mmd",
            statistic: mmd,
            alert,
        });
        Ok(out)
    }

    pub fn alert_level(&self, live: &[Vec<f64>]) -> Result<DriftAlert> {
        Ok(self
            .check(live)?
            .into_iter()
            .map(|r| r.alert)
            .max()
            .unwrap_or(DriftAlert::Ok))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fstore_common::{Rng, Xoshiro256};

    fn normals(n: usize, mean: f64, seed: u64) -> Vec<f64> {
        let mut rng = Xoshiro256::seeded(seed);
        (0..n).map(|_| rng.normal() + mean).collect()
    }

    #[test]
    fn tabular_quiet_on_same_distribution() {
        let m = DriftMonitor::fit(&normals(500, 0.0, 1), DriftThresholds::default()).unwrap();
        assert_eq!(
            m.alert_level(&normals(500, 0.0, 2)).unwrap(),
            DriftAlert::Ok
        );
    }

    #[test]
    fn tabular_alarms_on_shift() {
        let m = DriftMonitor::fit(&normals(500, 0.0, 3), DriftThresholds::default()).unwrap();
        assert_eq!(
            m.alert_level(&normals(500, 2.0, 4)).unwrap(),
            DriftAlert::Critical
        );
        let reports = m.check(&normals(500, 2.0, 4)).unwrap();
        assert_eq!(reports.len(), 2);
        assert!(reports
            .iter()
            .any(|r| r.detector == "ks" && r.alert == DriftAlert::Critical));
        assert!(reports
            .iter()
            .any(|r| r.detector == "psi" && r.statistic > 0.25));
    }

    #[test]
    fn tabular_warning_band() {
        let m = DriftMonitor::fit(&normals(2000, 0.0, 5), DriftThresholds::default()).unwrap();
        // modest shift → at least a warning, exact level depends on power
        let lvl = m.alert_level(&normals(2000, 0.15, 6)).unwrap();
        assert!(
            lvl >= DriftAlert::Warning,
            "small shift should at least warn: {lvl:?}"
        );
    }

    #[test]
    fn validation() {
        assert!(DriftMonitor::fit(&[1.0; 5], DriftThresholds::default()).is_err());
        let m = DriftMonitor::fit(&normals(50, 0.0, 7), DriftThresholds::default()).unwrap();
        assert!(m.check(&[]).is_err());
    }

    fn embed_sample(n: usize, d: usize, direction: f64, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = Xoshiro256::seeded(seed);
        (0..n)
            .map(|_| {
                let mut v: Vec<f64> = (0..d).map(|_| rng.normal() * 0.3).collect();
                v[0] += direction.cos() * 2.0;
                v[1] += direction.sin() * 2.0;
                v
            })
            .collect()
    }

    #[test]
    fn embedding_quiet_on_same() {
        let m = EmbeddingDriftMonitor::fit(
            &embed_sample(100, 4, 0.0, 8),
            EmbeddingDriftThresholds::default(),
        )
        .unwrap();
        assert_eq!(
            m.alert_level(&embed_sample(100, 4, 0.0, 9)).unwrap(),
            DriftAlert::Ok
        );
    }

    #[test]
    fn embedding_alarms_on_semantic_rotation() {
        let m = EmbeddingDriftMonitor::fit(
            &embed_sample(100, 4, 0.0, 10),
            EmbeddingDriftThresholds::default(),
        )
        .unwrap();
        // rotate the dominant direction 90°
        let lvl = m
            .alert_level(&embed_sample(100, 4, std::f64::consts::FRAC_PI_2, 11))
            .unwrap();
        assert_eq!(lvl, DriftAlert::Critical);
    }

    #[test]
    fn embedding_validation() {
        assert!(EmbeddingDriftMonitor::fit(
            &embed_sample(5, 4, 0.0, 12),
            EmbeddingDriftThresholds::default()
        )
        .is_err());
        let m = EmbeddingDriftMonitor::fit(
            &embed_sample(50, 4, 0.0, 13),
            EmbeddingDriftThresholds::default(),
        )
        .unwrap();
        assert!(m.check(&[]).is_err());
        assert!(m.check(&[vec![1.0; 3]]).is_err());
    }

    #[test]
    fn alert_ordering() {
        assert!(DriftAlert::Critical > DriftAlert::Warning);
        assert!(DriftAlert::Warning > DriftAlert::Ok);
    }
}
