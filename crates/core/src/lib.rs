//! # fstore-core
//!
//! The feature store proper (paper §2.2): a registry for authoring and
//! publishing versioned feature definitions, a cadence-driven materializer
//! that keeps the dual datastore up to date, point-in-time joins for
//! leakage-free training sets, a low-latency serving layer with staleness
//! policies, feature-quality metrics, and a model store for provenance.
//!
//! The [`FeatureStore`] facade wires all of it together around a simulated
//! clock so every pipeline run is reproducible.

pub mod materialize;
pub mod modelstore;
pub mod pit;
pub mod quality;
pub mod registry;
pub mod serving;
pub mod store;

pub use materialize::{MaterializationRun, MaterializationScheduler, Materializer};
pub use modelstore::{ModelArtifact, ModelStore};
pub use pit::{naive_latest_join, point_in_time_join, LabelEvent, PitFeature, TrainingSet};
pub use quality::{ColumnProfile, FeatureQualityReport, QualityIssue};
pub use registry::{FeatureDef, FeatureRegistry, FeatureSetDef, FeatureSpec};
pub use serving::{
    stale_error, FeatureServer, FeatureVector, RowSink, StaleRefused, StalenessPolicy,
};
pub use store::FeatureStore;
