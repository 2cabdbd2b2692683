//! Model storage for provenance and reproducibility (paper §2.2.2: "relevant
//! parameters and artifacts need to be stored", integrating the ModelDB /
//! ModelKB role into the feature store).
//!
//! Artifacts record *everything needed to reproduce a model*: serialized
//! parameters, the pinned feature set, the training-data time range, the
//! seed, and evaluation metrics — serialized to JSON for durability and
//! human inspection.

use fstore_common::{FsError, Result, Timestamp};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A stored model version.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct ModelArtifact {
    pub(crate) name: String,
    pub version: u32,
    /// Model parameters as JSON (produced by `fstore-models` serializers).
    pub params: serde_json::Value,
    /// Feature set name + pinned `(feature, version)` pairs.
    pub feature_set: String,
    pub features: Vec<(String, u32)>,
    /// Embedding versions consumed, if any (`name@vN`) — the lineage used
    /// by E12's patch propagation.
    pub(crate) embeddings: Vec<String>,
    /// Training data time range `[from, to]`.
    pub training_range: (Timestamp, Timestamp),
    pub seed: u64,
    pub metrics: BTreeMap<String, f64>,
    pub(crate) created_at: Timestamp,
}

impl ModelArtifact {
    pub fn qualified_name(&self) -> String {
        format!("{}@v{}", self.name, self.version)
    }
}

/// Versioned catalog of model artifacts.
#[derive(Debug, Default)]
pub struct ModelStore {
    models: BTreeMap<String, Vec<ModelArtifact>>,
}

impl ModelStore {
    pub fn new() -> Self {
        ModelStore::default()
    }

    /// Store a new version; the artifact's `version` field is assigned here.
    pub fn save(&mut self, mut artifact: ModelArtifact) -> Result<ModelArtifact> {
        let versions = self.models.entry(artifact.name.clone()).or_default();
        artifact.version = versions.last().map_or(1, |a| a.version + 1);
        versions.push(artifact.clone());
        Ok(artifact)
    }

    pub fn latest(&self, name: &str) -> Result<&ModelArtifact> {
        self.models
            .get(name)
            .and_then(|v| v.last())
            .ok_or_else(|| FsError::not_found("model", name.to_string()))
    }

    /// Export one model's full version history as JSON.
    pub fn export_json(&self, name: &str) -> Result<String> {
        let versions = self
            .models
            .get(name)
            .ok_or_else(|| FsError::not_found("model", name.to_string()))?;
        serde_json::to_string_pretty(versions).map_err(|e| FsError::Serde(e.to_string()))
    }

    /// Import artifacts previously exported with [`ModelStore::export_json`]
    /// (replaces any existing history for that model name).
    pub fn import_json(&mut self, json: &str) -> Result<usize> {
        let versions: Vec<ModelArtifact> =
            serde_json::from_str(json).map_err(|e| FsError::Serde(e.to_string()))?;
        let Some(first) = versions.first() else {
            return Err(FsError::InvalidArgument("empty model history".into()));
        };
        let n = versions.len();
        self.models.insert(first.name.clone(), versions);
        Ok(n)
    }
}

/// Convenience constructor for tests and examples.
pub fn artifact(name: &str, params: serde_json::Value) -> ModelArtifact {
    ModelArtifact {
        name: name.to_string(),
        version: 0,
        params,
        feature_set: String::new(),
        features: Vec::new(),
        embeddings: Vec::new(),
        training_range: (Timestamp::EPOCH, Timestamp::EPOCH),
        seed: 0,
        metrics: BTreeMap::new(),
        created_at: Timestamp::EPOCH,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn save_assigns_versions() {
        let mut store = ModelStore::new();
        let a1 = store.save(artifact("eta", json!({"w": [1.0]}))).unwrap();
        let a2 = store.save(artifact("eta", json!({"w": [2.0]}))).unwrap();
        assert_eq!(a1.version, 1);
        assert_eq!(a2.version, 2);
        assert_eq!(a2.qualified_name(), "eta@v2");
        assert_eq!(store.latest("eta").unwrap().version, 2);
        assert_eq!(store.models["eta"][0].params, json!({"w": [1.0]}));
        assert_eq!(store.models["eta"].len(), 2);
        assert!(store.latest("ghost").is_err());
    }

    #[test]
    fn export_import_round_trip() {
        let mut store = ModelStore::new();
        let mut a = artifact("m", json!({"w": [0.5, -0.5]}));
        a.metrics.insert("f1".into(), 0.91);
        a.seed = 42;
        store.save(a).unwrap();
        store.save(artifact("m", json!({"w": [1.0]}))).unwrap();
        let json = store.export_json("m").unwrap();

        let mut other = ModelStore::new();
        assert_eq!(other.import_json(&json).unwrap(), 2);
        assert_eq!(other.latest("m").unwrap(), store.latest("m").unwrap());
        assert_eq!(other.models["m"][0].metrics["f1"], 0.91);

        assert!(other.import_json("[]").is_err());
        assert!(other.import_json("not json").is_err());
    }
}
