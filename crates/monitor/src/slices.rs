//! Fine-grained subpopulation (slice) analysis — the Robustness-Gym-style
//! monitoring of paper §3.1.3: users define slice functions, the system
//! also *discovers* underperforming slices over discrete metadata, and
//! slices are ranked by their accuracy gap against the overall population.

use fstore_common::{FsError, Result};
use std::collections::BTreeMap;

/// A named subpopulation: row indices into an evaluation set.
#[derive(Debug, Clone)]
pub(crate) struct SliceSpec {
    pub(crate) name: String,
    pub(crate) indices: Vec<usize>,
}

/// Per-slice performance relative to the full population.
#[derive(Debug, Clone)]
pub struct SliceMetrics {
    pub name: String,
    pub support: usize,
    pub accuracy: f64,
    /// `overall − slice` (positive = slice underperforms).
    pub gap: f64,
}

/// Evaluate explicit slices against predictions.
pub(crate) fn slice_metrics(
    truth: &[usize],
    preds: &[usize],
    slices: &[SliceSpec],
) -> Result<Vec<SliceMetrics>> {
    if truth.len() != preds.len() || truth.is_empty() {
        return Err(FsError::Monitor(
            "aligned non-empty truth/preds required".into(),
        ));
    }
    let overall =
        truth.iter().zip(preds).filter(|(t, p)| t == p).count() as f64 / truth.len() as f64;
    slices
        .iter()
        .map(|s| {
            if s.indices.is_empty() {
                return Err(FsError::Monitor(format!("slice `{}` is empty", s.name)));
            }
            let mut hit = 0usize;
            for &i in &s.indices {
                if i >= truth.len() {
                    return Err(FsError::Monitor(format!(
                        "slice `{}` index {i} out of range",
                        s.name
                    )));
                }
                if truth[i] == preds[i] {
                    hit += 1;
                }
            }
            let acc = hit as f64 / s.indices.len() as f64;
            Ok(SliceMetrics {
                name: s.name.clone(),
                support: s.indices.len(),
                accuracy: acc,
                gap: overall - acc,
            })
        })
        .collect()
}

/// Automatic slice discovery over discrete metadata columns: every
/// single-value slice and every two-column conjunction with support ≥
/// `min_support`, ranked by accuracy gap (worst first).
pub fn discover_slices(
    metadata: &[(String, Vec<String>)],
    truth: &[usize],
    preds: &[usize],
    min_support: usize,
) -> Result<Vec<SliceMetrics>> {
    if metadata.is_empty() {
        return Err(FsError::Monitor("no metadata columns".into()));
    }
    let n = truth.len();
    if n == 0 || preds.len() != n || metadata.iter().any(|(_, col)| col.len() != n) {
        return Err(FsError::Monitor(
            "metadata/labels must align and be non-empty".into(),
        ));
    }
    if min_support == 0 {
        return Err(FsError::Monitor("min_support must be positive".into()));
    }

    let mut specs: Vec<SliceSpec> = Vec::new();
    // order 1: column = value
    for (name, col) in metadata {
        let mut groups: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, v) in col.iter().enumerate() {
            groups.entry(v).or_default().push(i);
        }
        for (value, indices) in groups {
            if indices.len() >= min_support {
                specs.push(SliceSpec {
                    name: format!("{name}={value}"),
                    indices,
                });
            }
        }
    }
    // order 2: conjunctions of two different columns
    for a in 0..metadata.len() {
        for b in a + 1..metadata.len() {
            let (na, ca) = &metadata[a];
            let (nb, cb) = &metadata[b];
            let mut groups: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
            for i in 0..n {
                groups.entry((&ca[i], &cb[i])).or_default().push(i);
            }
            for ((va, vb), indices) in groups {
                if indices.len() >= min_support {
                    specs.push(SliceSpec {
                        name: format!("{na}={va} & {nb}={vb}"),
                        indices,
                    });
                }
            }
        }
    }

    let mut metrics = slice_metrics(truth, preds, &specs)?;
    metrics.sort_by(|x, y| y.gap.total_cmp(&x.gap).then_with(|| x.name.cmp(&y.name)));
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 100 rows; city=sf rows 0..50, nyc 50..100; model fails on nyc+night.
    type Fixture = (Vec<(String, Vec<String>)>, Vec<usize>, Vec<usize>);

    fn fixture() -> Fixture {
        let n = 100;
        let city: Vec<String> = (0..n)
            .map(|i| if i < 50 { "sf".into() } else { "nyc".into() })
            .collect();
        let time: Vec<String> = (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    "day".into()
                } else {
                    "night".into()
                }
            })
            .collect();
        let truth = vec![1usize; n];
        let preds: Vec<usize> = (0..n)
            .map(|i| {
                // nyc at night: always wrong; everything else right
                if i >= 50 && i % 2 == 1 {
                    0
                } else {
                    1
                }
            })
            .collect();
        (
            vec![("city".into(), city), ("time".into(), time)],
            truth,
            preds,
        )
    }

    #[test]
    fn explicit_slice_metrics() {
        let (_, truth, preds) = fixture();
        let slices = vec![
            SliceSpec {
                name: "first_half".into(),
                indices: (0..50).collect(),
            },
            SliceSpec {
                name: "second_half".into(),
                indices: (50..100).collect(),
            },
        ];
        let m = slice_metrics(&truth, &preds, &slices).unwrap();
        assert_eq!(m[0].accuracy, 1.0);
        assert_eq!(m[1].accuracy, 0.5);
        assert!((m[1].gap - 0.25).abs() < 1e-12, "overall 0.75 − slice 0.5");
    }

    #[test]
    fn discovery_finds_the_planted_slice() {
        let (meta, truth, preds) = fixture();
        let found = discover_slices(&meta, &truth, &preds, 10).unwrap();
        // the worst slice must be the planted conjunction
        assert_eq!(found[0].name, "city=nyc & time=night");
        assert_eq!(found[0].accuracy, 0.0);
        assert_eq!(found[0].support, 25);
        assert!(found[0].gap > 0.7);
        // one-feature parents rank below the conjunction
        let nyc = found.iter().find(|m| m.name == "city=nyc").unwrap();
        assert!(nyc.gap < found[0].gap);
    }

    #[test]
    fn min_support_prunes() {
        let (meta, truth, preds) = fixture();
        let found = discover_slices(&meta, &truth, &preds, 30).unwrap();
        assert!(found.iter().all(|m| m.support >= 30));
        assert!(
            !found.iter().any(|m| m.name.contains('&')),
            "conjunctions have support 25"
        );
    }

    #[test]
    fn validation() {
        let (meta, truth, preds) = fixture();
        assert!(discover_slices(&[], &truth, &preds, 5).is_err());
        assert!(discover_slices(&meta, &truth, &preds, 0).is_err());
        assert!(discover_slices(&meta, &truth[..50], &preds, 5).is_err());
        assert!(slice_metrics(
            &truth,
            &preds,
            &[SliceSpec {
                name: "e".into(),
                indices: vec![]
            }]
        )
        .is_err());
        assert!(slice_metrics(
            &truth,
            &preds,
            &[SliceSpec {
                name: "oob".into(),
                indices: vec![999]
            }]
        )
        .is_err());
    }
}
