//! # fstore
//!
//! A feature store with first-class embedding support — a working
//! implementation of the system described in *"Managing ML Pipelines:
//! Feature Stores and the Coming Wave of Embedding Ecosystems"* (VLDB 2021).
//!
//! This facade re-exports the workspace crates:
//!
//! | module | contents |
//! |---|---|
//! | [`common`] | values, schemas, time, deterministic RNG, statistics |
//! | [`storage`] | offline columnar store + online KV store |
//! | [`query`] | the feature expression language |
//! | [`stream`] | windowed streaming features with dual-write sink |
//! | [`core`] | registry, materialization, PIT joins, serving, model store |
//! | [`embed`] | embedding store, trainers, compression, quality metrics |
//! | [`index`] | Flat / IVF / HNSW vector indexes |
//! | [`models`] | downstream classifiers + evaluation metrics |
//! | [`monitor`] | drift, skew, slice finding, patching |
//! | [`serve`] | TCP serving layer: wire protocol, batching, admission control |
//! | [`durable`] | write-ahead log, on-disk checkpoints, crash recovery |
//! | [`repl`] | snapshot-based replication: leader publication log + followers |
//! | [`shard`] | horizontal sharding: shard map, scatter-gather router, control plane |
//! | [`tier`] | larger-than-RAM embeddings: spill-to-disk pager + hot block cache |
//!
//! ## Quickstart
//!
//! ```
//! use fstore::prelude::*;
//!
//! // a feature store on a simulated clock
//! let mut fs = FeatureStore::new(Timestamp::EPOCH);
//! fs.create_source_table(
//!     "trips",
//!     TableConfig::new(Schema::of(&[
//!         ("user_id", ValueType::Str),
//!         ("ts", ValueType::Timestamp),
//!         ("fare", ValueType::Float),
//!     ]))
//!     .with_time_column("ts"),
//! )
//! .unwrap();
//! fs.ingest(
//!     "trips",
//!     &[vec![Value::from("u1"), Value::Timestamp(Timestamp::millis(1_000)), Value::Float(12.5)]],
//! )
//! .unwrap();
//!
//! // author + publish a feature, let the scheduler materialize it
//! fs.publish(FeatureSpec::new("last_fare", "user_id", "trips", "fare")).unwrap();
//! fs.advance(Duration::minutes(1)).unwrap();
//!
//! // serve it online
//! let v = fs
//!     .server()
//!     .serve("user_id", &EntityKey::new("u1"), &["last_fare"], fs.now())
//!     .unwrap();
//! assert_eq!(v.values[0], Value::Float(12.5));
//! ```

pub use fstore_common as common;
pub use fstore_core as core;
pub use fstore_durable as durable;
pub use fstore_embed as embed;
pub use fstore_index as index;
pub use fstore_models as models;
pub use fstore_monitor as monitor;
pub use fstore_query as query;
pub use fstore_repl as repl;
pub use fstore_serve as serve;
pub use fstore_shard as shard;
pub use fstore_storage as storage;
pub use fstore_stream as stream;
pub use fstore_tier as tier;

/// The most commonly used types, importable in one line.
pub mod prelude {
    pub use fstore_common::{
        Date, Duration, EntityKey, FieldDef, FsError, ReadEpoch, Result, Rng, Schema, Timestamp,
        Value, ValueType, Xoshiro256, Zipf,
    };
    pub use fstore_core::{
        naive_latest_join, point_in_time_join, FeatureServer, FeatureSpec, FeatureStore,
        LabelEvent, PitFeature,
    };
    pub use fstore_durable::{DurableConfig, DurableLeader};
    pub use fstore_embed::{
        eigenspace_overlap, knn_overlap, semantic_displacement, Corpus, CorpusConfig, EmbeddingDb,
        EmbeddingStore, EmbeddingTable, KgSgnsConfig, PcaModel, QuantizedTable, SgnsConfig,
    };
    pub use fstore_index::{
        recall_at_k, FlatIndex, HnswConfig, HnswIndex, IvfConfig, IvfIndex, SearchParams,
    };
    pub use fstore_models::{
        prediction_flips, Classifier, LogisticRegression, SoftmaxRegression, TrainConfig,
    };
    pub use fstore_monitor::{
        skew_report, DriftAlert, DriftMonitor, EmbeddingDriftMonitor, EmbeddingPatcher,
    };
    pub use fstore_query::AggFunc;
    pub use fstore_serve::{
        FeatureClient, IndexSpec, SearchOptions, ServeConfig, ServeEngine, StoreApi,
    };
    pub use fstore_shard::{ClusterConfig, RouterClient, ShardCluster};
    pub use fstore_storage::{OfflineDb, OfflineStore, OnlineStore, ScanRequest, TableConfig};
    pub use fstore_stream::{Event, StreamAggregator, StreamPipeline, StreamRuntime, WindowSpec};
}
