//! The [`FeatureStore`] facade: one object wiring the registry, the dual
//! datastore, the materialization scheduler, serving, and the model store —
//! the system of Figure 1, top row.

use crate::materialize::{MaterializationRun, MaterializationScheduler, Materializer};
use crate::modelstore::ModelStore;
use crate::pit::{point_in_time_join, LabelEvent, PitFeature, TrainingSet};
use crate::registry::{FeatureDef, FeatureRegistry, FeatureSpec};
use crate::serving::FeatureServer;
use fstore_common::{Duration, Result, SimClock, Timestamp, Value};
use fstore_storage::{OfflineDb, OfflineStore, OnlineStore, TableConfig};
use std::sync::Arc;

/// An embedded feature store instance driven by a simulated clock.
///
/// The offline side is epoch-versioned: every ingest and materialization
/// publishes a new immutable snapshot through [`OfflineDb`], and readers
/// ([`FeatureStore::training_set`], any holder of
/// [`FeatureStore::offline_snapshot`]) run lock-free against the snapshot
/// they resolved.
pub struct FeatureStore {
    offline: OfflineDb,
    online: Arc<OnlineStore>,
    registry: FeatureRegistry,
    models: ModelStore,
    scheduler: MaterializationScheduler,
    clock: SimClock,
}

impl FeatureStore {
    pub fn new(start: Timestamp) -> Self {
        FeatureStore {
            offline: OfflineDb::new(),
            online: Arc::new(OnlineStore::default()),
            registry: FeatureRegistry::new(),
            models: ModelStore::new(),
            scheduler: MaterializationScheduler::new(),
            clock: SimClock::new(start),
        }
    }

    // ---- clock ---------------------------------------------------------

    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }

    /// Advance the clock and run any materialization jobs that became due.
    pub fn advance(&mut self, d: Duration) -> Result<Vec<MaterializationRun>> {
        self.clock.advance(d);
        self.tick()
    }

    /// Run due materialization jobs at the current instant. Each job
    /// computes from a lock-free snapshot and takes the writer lock only to
    /// publish its results.
    pub(crate) fn tick(&mut self) -> Result<Vec<MaterializationRun>> {
        self.scheduler
            .tick_db(&self.offline, &self.online, self.clock.now())
    }

    // ---- raw data ------------------------------------------------------

    /// Create a raw source table in the offline store.
    pub fn create_source_table(&self, name: &str, config: TableConfig) -> Result<()> {
        self.offline.write(|off| off.create_table(name, config))
    }

    /// Ingest raw rows into a source table (one snapshot publication per
    /// batch: readers see either none or all of these rows).
    pub fn ingest(&self, table: &str, rows: &[Vec<Value>]) -> Result<()> {
        self.offline.write(|off| off.append_all(table, rows))
    }

    /// The shared offline handle (streaming pipelines and serving layers
    /// attach to this). Readers should prefer
    /// [`FeatureStore::offline_snapshot`].
    pub fn offline(&self) -> OfflineDb {
        self.offline.clone()
    }

    /// Resolve the current immutable offline snapshot; scans, joins, and
    /// profiles against it never block (and are never blocked by) writers.
    pub fn offline_snapshot(&self) -> Arc<OfflineStore> {
        self.offline.snapshot()
    }

    pub fn online(&self) -> Arc<OnlineStore> {
        Arc::clone(&self.online)
    }

    // ---- features ------------------------------------------------------

    /// Publish a feature and schedule its materialization job.
    pub fn publish(&mut self, spec: FeatureSpec) -> Result<FeatureDef> {
        let snapshot = self.offline.snapshot();
        let def = self.registry.publish(spec, &snapshot, self.clock.now())?;
        self.scheduler.schedule(def.clone());
        Ok(def)
    }

    /// Materialize one feature immediately (out of cadence). Computes from a
    /// snapshot; the offline writer lock is held only to publish.
    pub fn materialize_now(&mut self, feature: &str) -> Result<MaterializationRun> {
        let def = self.registry.get(feature)?.clone();
        Materializer::run_db(&def, &self.offline, &self.online, self.clock.now())
    }

    pub fn registry(&self) -> &FeatureRegistry {
        &self.registry
    }

    pub fn registry_mut(&mut self) -> &mut FeatureRegistry {
        &mut self.registry
    }

    // ---- serving -------------------------------------------------------

    /// A serving handle over this store's online side. Served vectors are
    /// stamped with the offline store's publication epoch at serve time.
    pub fn server(&self) -> FeatureServer {
        let db = self.offline.clone();
        FeatureServer::new(Arc::clone(&self.online)).with_epoch_source(Arc::new(move || db.epoch()))
    }

    // ---- training sets -------------------------------------------------

    /// Build a leakage-free training set for a registered feature set. Runs
    /// against one consistent snapshot, lock-free.
    pub fn training_set(&self, feature_set: &str, labels: &[LabelEvent]) -> Result<TrainingSet> {
        let defs = self.registry.resolve_set(feature_set)?;
        let feats: Vec<PitFeature> = defs
            .iter()
            .map(|d| PitFeature::materialized(&d.name, d.version))
            .collect();
        let snapshot = self.offline.snapshot();
        point_in_time_join(&snapshot, labels, &feats)
    }

    // ---- quality -------------------------------------------------------

    // ---- models --------------------------------------------------------

    pub fn models(&self) -> &ModelStore {
        &self.models
    }

    pub fn models_mut(&mut self) -> &mut ModelStore {
        &mut self.models
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fstore_common::{EntityKey, Schema, ValueType};
    use fstore_query::AggFunc;

    fn trip_row(user: &str, t: Timestamp, fare: f64) -> Vec<Value> {
        vec![Value::from(user), Value::Timestamp(t), Value::Float(fare)]
    }

    fn base_store() -> FeatureStore {
        let fs = FeatureStore::new(Timestamp::EPOCH);
        fs.create_source_table(
            "trips",
            TableConfig::new(Schema::of(&[
                ("user_id", ValueType::Str),
                ("ts", ValueType::Timestamp),
                ("fare", ValueType::Float),
            ]))
            .with_time_column("ts"),
        )
        .unwrap();
        fs
    }

    #[test]
    fn end_to_end_publish_materialize_serve() {
        let mut fs = base_store();
        fs.ingest(
            "trips",
            &[
                trip_row("u1", Timestamp::millis(1_000), 10.0),
                trip_row("u1", Timestamp::millis(2_000), 20.0),
                trip_row("u2", Timestamp::millis(1_500), 5.0),
            ],
        )
        .unwrap();
        fs.publish(
            FeatureSpec::new("avg_fare", "user_id", "trips", "fare")
                .aggregated(AggFunc::Avg, Duration::days(1))
                .cadence(Duration::hours(1)),
        )
        .unwrap();

        // first tick materializes immediately
        let runs = fs.advance(Duration::minutes(1)).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].entities, 2);

        let v = fs
            .server()
            .serve("user_id", &EntityKey::new("u1"), &["avg_fare"], fs.now())
            .unwrap();
        assert_eq!(v.values[0], Value::Float(15.0));

        // within cadence: no rerun
        assert!(fs.advance(Duration::minutes(10)).unwrap().is_empty());
        // past cadence: reruns
        assert_eq!(fs.advance(Duration::hours(1)).unwrap().len(), 1);
    }

    #[test]
    fn training_set_via_feature_set() {
        let mut fs = base_store();
        fs.ingest("trips", &[trip_row("u1", Timestamp::millis(1_000), 10.0)])
            .unwrap();
        fs.publish(FeatureSpec::new("fare_last", "user_id", "trips", "fare"))
            .unwrap();
        fs.advance(Duration::minutes(1)).unwrap(); // materializes at t=60s
        let now = fs.now();
        fs.registry_mut()
            .register_set("s", &["fare_last"], now)
            .unwrap();

        let labels = vec![
            LabelEvent::new("u1", fs.now() + Duration::minutes(1), 1.0),
            LabelEvent::new("u1", Timestamp::millis(10), 0.0), // before materialization
        ];
        let ts = fs.training_set("s", &labels).unwrap();
        assert_eq!(ts.rows[0][2], Value::Float(10.0));
        assert_eq!(ts.rows[1][2], Value::Null, "no feature value existed yet");
    }

    #[test]
    fn materialize_now_is_out_of_cadence() {
        let mut fs = base_store();
        fs.ingest("trips", &[trip_row("u1", Timestamp::millis(100), 3.0)])
            .unwrap();
        fs.clock.advance(Duration::seconds(1)); // trips at t=100ms are now in the past
        fs.publish(FeatureSpec::new("f", "user_id", "trips", "fare * 10"))
            .unwrap();
        let run = fs.materialize_now("f").unwrap();
        assert_eq!(run.entities, 1);
        let v = fs
            .server()
            .serve("user_id", &EntityKey::new("u1"), &["f"], fs.now())
            .unwrap();
        assert_eq!(v.values[0], Value::Float(30.0));
        assert!(fs.materialize_now("ghost").is_err());
    }

    #[test]
    fn clock_is_monotonic_and_shared() {
        let mut fs = base_store();
        let t0 = fs.now();
        fs.advance(Duration::hours(2)).unwrap();
        assert_eq!(fs.now(), t0 + Duration::hours(2));
    }
}
