//! Patching: acting on what monitoring found (paper §3.1.3 and §4,
//! "End-to-End Model Patching Through Data").
//!
//! Two data-management levers from Orr et al.'s proof of concept:
//!
//! * **targeted augmentation** — oversample an underperforming slice with
//!   feature-space jitter (ARDA/model-patching style);
//! * **slice reweighting** — per-example weights for trainers that support
//!   them (slice-based learning's cheap cousin);
//!
//! plus the embedding-ecosystem lever the paper argues is special:
//! **embedding patching** — correct the embedding rows of the bad slice
//! once and republish, so *every* downstream consumer heals together
//! (product consistency, E12).

use fstore_common::{FsError, Result, Rng, Timestamp, Xoshiro256};
use fstore_embed::store::EmbeddingProvenance;
use fstore_embed::EmbeddingStore;

/// Oversample `slice` rows `factor`× with Gaussian jitter of `jitter` per
/// dimension; returns the augmented `(xs, ys)` (originals first).
pub fn augment_slice(
    xs: &[Vec<f64>],
    ys: &[usize],
    slice: &[usize],
    factor: usize,
    jitter: f64,
    seed: u64,
) -> Result<(Vec<Vec<f64>>, Vec<usize>)> {
    if xs.len() != ys.len() || xs.is_empty() {
        return Err(FsError::Monitor(
            "aligned non-empty training data required".into(),
        ));
    }
    if factor == 0 {
        return Err(FsError::Monitor(
            "augmentation factor must be positive".into(),
        ));
    }
    if jitter < 0.0 {
        return Err(FsError::Monitor("jitter must be non-negative".into()));
    }
    let mut rng = Xoshiro256::seeded(seed);
    let mut out_x = xs.to_vec();
    let mut out_y = ys.to_vec();
    for &i in slice {
        if i >= xs.len() {
            return Err(FsError::Monitor(format!("slice index {i} out of range")));
        }
        for _ in 0..factor {
            let x: Vec<f64> = xs[i].iter().map(|&v| v + rng.normal() * jitter).collect();
            out_x.push(x);
            out_y.push(ys[i]);
        }
    }
    Ok((out_x, out_y))
}

/// Per-example weights: `weight` on slice rows, 1.0 elsewhere.
pub fn reweight_slice(n: usize, slice: &[usize], weight: f64) -> Result<Vec<f64>> {
    if weight <= 0.0 || !weight.is_finite() {
        return Err(FsError::Monitor(
            "weight must be positive and finite".into(),
        ));
    }
    let mut w = vec![1.0; n];
    for &i in slice {
        if i >= n {
            return Err(FsError::Monitor(format!("slice index {i} out of range")));
        }
        w[i] = weight;
    }
    Ok(w)
}

/// Patches embedding rows and republishes — the §3.1.3 / E12 mechanism.
pub struct EmbeddingPatcher {
    /// Blend factor: patched = (1−α)·old + α·target.
    pub alpha: f32,
}

impl Default for EmbeddingPatcher {
    fn default() -> Self {
        EmbeddingPatcher { alpha: 0.8 }
    }
}

impl EmbeddingPatcher {
    /// Move each `bad_keys` row toward the centroid of `exemplar_keys`
    /// (well-behaved entities of the same semantic class) and publish the
    /// result as a new version of `name` with `parent` provenance.
    ///
    /// Returns the new qualified version (`name@vN`).
    pub fn patch_toward_exemplars(
        &self,
        store: &mut EmbeddingStore,
        name: &str,
        bad_keys: &[String],
        exemplar_keys: &[String],
        now: Timestamp,
    ) -> Result<String> {
        if !(0.0..=1.0).contains(&self.alpha) {
            return Err(FsError::Monitor("alpha must be in [0,1]".into()));
        }
        if bad_keys.is_empty() || exemplar_keys.is_empty() {
            return Err(FsError::Monitor(
                "need both bad keys and exemplar keys".into(),
            ));
        }
        let current = store.latest(name)?;
        let parent_version = current.version;
        let table = &current.table;
        let dim = table.dim();

        // exemplar centroid
        let mut centroid = vec![0.0f32; dim];
        for k in exemplar_keys {
            let v = table
                .get(k)
                .ok_or_else(|| FsError::not_found("exemplar embedding", k.clone()))?;
            for (c, &x) in centroid.iter_mut().zip(v) {
                *c += x;
            }
        }
        for c in &mut centroid {
            *c /= exemplar_keys.len() as f32;
        }

        // copy-on-write patch
        let mut patched = table.clone();
        for k in bad_keys {
            let old = patched
                .get(k)
                .ok_or_else(|| FsError::not_found("embedding to patch", k.clone()))?
                .to_vec();
            let new: Vec<f32> = old
                .iter()
                .zip(&centroid)
                .map(|(&o, &c)| (1.0 - self.alpha) * o + self.alpha * c)
                .collect();
            patched.replace(k, new)?;
        }

        let provenance = EmbeddingProvenance {
            trainer: "patch".into(),
            config: format!("{{\"alpha\":{}}}", self.alpha),
            corpus_hash: current.provenance.corpus_hash,
            seed: current.provenance.seed,
            parent: Some(parent_version),
            notes: format!(
                "patched {} rows toward {} exemplars",
                bad_keys.len(),
                exemplar_keys.len()
            ),
        };
        store.publish(name, patched, provenance, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fstore_embed::EmbeddingTable;

    #[test]
    fn augment_grows_only_the_slice() {
        let xs = vec![vec![0.0], vec![1.0], vec![2.0]];
        let ys = vec![0, 1, 1];
        let (ax, ay) = augment_slice(&xs, &ys, &[2], 3, 0.0, 1).unwrap();
        assert_eq!(ax.len(), 6);
        assert_eq!(&ax[3..], &[vec![2.0], vec![2.0], vec![2.0]]);
        assert_eq!(&ay[3..], &[1, 1, 1]);
    }

    #[test]
    fn augment_jitters_deterministically() {
        let xs = vec![vec![0.0; 4]];
        let ys = vec![0];
        let (a, _) = augment_slice(&xs, &ys, &[0], 2, 0.5, 9).unwrap();
        let (b, _) = augment_slice(&xs, &ys, &[0], 2, 0.5, 9).unwrap();
        assert_eq!(a, b);
        assert_ne!(a[1], a[2], "distinct jitter per copy");
        assert!(a[1].iter().all(|x| x.abs() < 5.0));
    }

    #[test]
    fn augment_validation() {
        let xs = vec![vec![0.0]];
        assert!(augment_slice(&xs, &[0, 1], &[0], 1, 0.1, 0).is_err());
        assert!(augment_slice(&xs, &[0], &[5], 1, 0.1, 0).is_err());
        assert!(augment_slice(&xs, &[0], &[0], 0, 0.1, 0).is_err());
        assert!(augment_slice(&xs, &[0], &[0], 1, -0.1, 0).is_err());
    }

    #[test]
    fn reweight_basics() {
        let w = reweight_slice(4, &[1, 3], 5.0).unwrap();
        assert_eq!(w, vec![1.0, 5.0, 1.0, 5.0]);
        assert!(reweight_slice(2, &[9], 2.0).is_err());
        assert!(reweight_slice(2, &[0], 0.0).is_err());
    }

    #[test]
    fn embedding_patch_publishes_new_version() {
        let mut store = EmbeddingStore::new();
        let mut t = EmbeddingTable::new(2).unwrap();
        t.insert("bad", vec![-1.0, 0.0]).unwrap();
        t.insert("good1", vec![1.0, 0.0]).unwrap();
        t.insert("good2", vec![1.0, 0.2]).unwrap();
        store
            .publish("ent", t, EmbeddingProvenance::default(), Timestamp::EPOCH)
            .unwrap();

        let patcher = EmbeddingPatcher { alpha: 1.0 };
        let q = patcher
            .patch_toward_exemplars(
                &mut store,
                "ent",
                &["bad".into()],
                &["good1".into(), "good2".into()],
                Timestamp::millis(5),
            )
            .unwrap();
        assert_eq!(q, "ent@v2");
        let v2 = store.latest("ent").unwrap();
        assert_eq!(v2.provenance.parent, Some(1));
        assert_eq!(v2.provenance.trainer, "patch");
        let patched = v2.table.get("bad").unwrap();
        assert!((patched[0] - 1.0).abs() < 1e-6);
        assert!((patched[1] - 0.1).abs() < 1e-6);
        // v1 untouched (copy-on-write)
        assert_eq!(
            store.get("ent", 1).unwrap().table.get("bad"),
            Some(&[-1.0, 0.0][..])
        );
        // unchanged rows carried over
        assert_eq!(v2.table.get("good1"), Some(&[1.0, 0.0][..]));
    }

    #[test]
    fn embedding_patch_validation() {
        let mut store = EmbeddingStore::new();
        let mut t = EmbeddingTable::new(2).unwrap();
        t.insert("a", vec![0.0, 0.0]).unwrap();
        store
            .publish("e", t, EmbeddingProvenance::default(), Timestamp::EPOCH)
            .unwrap();
        let p = EmbeddingPatcher::default();
        assert!(p
            .patch_toward_exemplars(&mut store, "e", &[], &["a".into()], Timestamp::EPOCH)
            .is_err());
        assert!(p
            .patch_toward_exemplars(
                &mut store,
                "e",
                &["ghost".into()],
                &["a".into()],
                Timestamp::EPOCH
            )
            .is_err());
        assert!(p
            .patch_toward_exemplars(
                &mut store,
                "ghost",
                &["a".into()],
                &["a".into()],
                Timestamp::EPOCH
            )
            .is_err());
        let bad_alpha = EmbeddingPatcher { alpha: 2.0 };
        assert!(bad_alpha
            .patch_toward_exemplars(
                &mut store,
                "e",
                &["a".into()],
                &["a".into()],
                Timestamp::EPOCH
            )
            .is_err());
    }
}
