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

#![warn(unreachable_pub)]

mod materialize;
pub mod modelstore;
mod pit;
pub mod quality;
mod registry;
mod serving;
mod store;

pub use materialize::MaterializationRun;
pub use modelstore::{ModelArtifact, ModelStore};
pub use pit::{naive_latest_join, point_in_time_join, LabelEvent, PitFeature, TrainingSet};
pub use registry::{FeatureDef, FeatureRegistry, FeatureSetDef, FeatureSpec};
pub use serving::{
    stale_error, FeatureServer, FeatureVector, RowSink, StaleRefused, StalenessPolicy,
};
pub use store::FeatureStore;
