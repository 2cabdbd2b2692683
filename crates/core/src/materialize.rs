//! Cadence-driven feature materialization (paper §2.2.1: "the FS
//! orchestrates the updates to the features based on the user-defined
//! cadence").
//!
//! A materialization run recomputes one feature from its offline source
//! as of "now", appends the fresh values to the feature's offline log table
//! (for training) and write-throughs to the online store (for serving).
//! The [`MaterializationScheduler`] runs due jobs as the simulated clock
//! advances, which is how models keep receiving up-to-date features while
//! data changes — the staleness story experiments E3/E4 measure.

use crate::registry::FeatureDef;
use fstore_common::hash::FxHashMap;
use fstore_common::{EntityKey, FieldDef, FsError, Result, Schema, Timestamp, Value, ValueType};
use fstore_query::Program;
use fstore_storage::{OfflineDb, OfflineStore, OnlineStore, ScanRequest, TableConfig};
use std::collections::BTreeMap;

/// Outcome of one materialization run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaterializationRun {
    pub feature: String,
    pub(crate) version: u32,
    pub ran_at: Timestamp,
    pub entities: usize,
    pub(crate) source_rows: usize,
}

/// Schema of the offline log table each feature materializes into.
pub(crate) fn feature_log_schema(value_type: ValueType) -> Schema {
    Schema::new(vec![
        FieldDef::not_null("entity", ValueType::Str),
        FieldDef::not_null("ts", ValueType::Timestamp),
        FieldDef::new("value", value_type),
    ])
    .expect("static schema is valid")
}

/// The computed (but not yet published) output of one materialization: one
/// value per entity, plus enough of the feature definition to publish it.
///
/// Splitting compute from publication is what lets the facade materialize
/// from a lock-free snapshot and take the offline writer lock only for the
/// append-and-publish step — see [`Materializer::run_db`].
#[derive(Debug, Clone)]
pub(crate) struct MaterializationPlan {
    def: FeatureDef,
    ran_at: Timestamp,
    source_rows: usize,
    /// `(entity, value)` in deterministic (entity-sorted) order.
    values: Vec<(String, Value)>,
}

impl MaterializationPlan {
    /// Publish the plan: append every value to the feature's offline log
    /// table (created on first use), then write each one through to the
    /// online store. The online writes come last, so an append error leaves
    /// nothing served that no training set will see; under
    /// [`OfflineDb::write`] the appends roll back too.
    pub(crate) fn apply(
        &self,
        offline: &mut OfflineStore,
        online: &OnlineStore,
    ) -> Result<MaterializationRun> {
        let log_table = self.def.log_table();
        if !offline.has_table(&log_table) {
            offline.create_table(
                &log_table,
                TableConfig::new(feature_log_schema(self.def.value_type)).with_time_column("ts"),
            )?;
        }
        for (entity, value) in &self.values {
            offline.append(
                &log_table,
                &[
                    Value::Str(entity.clone()),
                    Value::Timestamp(self.ran_at),
                    value.clone(),
                ],
            )?;
        }
        for (entity, value) in &self.values {
            online.put(
                self.def.online_group(),
                &EntityKey::new(entity.clone()),
                &self.def.name,
                value.clone(),
                self.ran_at,
            );
        }
        Ok(MaterializationRun {
            feature: self.def.name.clone(),
            version: self.def.version,
            ran_at: self.ran_at,
            entities: self.values.len(),
            source_rows: self.source_rows,
        })
    }
}

/// Stateless executor of single materialization runs.
pub(crate) struct Materializer;

impl Materializer {
    /// Compute one materialization of `def` as of `now` from a read-only
    /// view of the offline store, without publishing anything.
    ///
    /// * Latest-row features: for each entity, evaluate the expression on
    ///   the most recent source row at or before `now`.
    /// * Aggregated features: evaluate the expression on every source row
    ///   in `(now - window, now]` and fold with the aggregate function.
    pub(crate) fn plan(
        def: &FeatureDef,
        offline: &OfflineStore,
        now: Timestamp,
    ) -> Result<MaterializationPlan> {
        let source_schema = offline.schema(&def.source_table)?.clone();
        let entity_idx = source_schema.index_of(&def.entity).ok_or_else(|| {
            FsError::Plan(format!(
                "entity column `{}` vanished from source",
                def.entity
            ))
        })?;
        let program = Program::compile(&def.expression, &source_schema)?;
        let agg = def.agg_func()?;

        // Pull the relevant source rows as of now.
        let mut req = ScanRequest::all().as_of(now);
        if let Some((_, window)) = &agg {
            let from = (now - *window).date();
            req = req.with_dates(from, now.date());
        }
        let scan = offline.scan(&def.source_table, &req)?;
        let time_idx = source_schema.index_of("ts");

        // Group rows by entity.
        let mut by_entity: FxHashMap<String, Vec<&Vec<Value>>> = FxHashMap::default();
        for row in &scan.rows {
            let key = match &row[entity_idx] {
                Value::Null => continue, // entity-less rows cannot materialize
                v => v.to_string(),
            };
            by_entity.entry(key).or_default().push(row);
        }

        // Deterministic output order.
        let by_entity: BTreeMap<String, Vec<&Vec<Value>>> = by_entity.into_iter().collect();
        let mut values = Vec::with_capacity(by_entity.len());
        for (entity, mut rows) in by_entity {
            let value = match &agg {
                Some((func, window)) => {
                    let cutoff = now - *window;
                    let mut acc = func.accumulator();
                    for row in &rows {
                        // date-range pruning is day-granular; apply the exact
                        // window bound here
                        if let Some(ti) = time_idx {
                            if let Some(ts) = row[ti].as_timestamp() {
                                if ts <= cutoff {
                                    continue;
                                }
                            }
                        }
                        acc.push(&program.eval(row)?);
                    }
                    acc.finish()
                }
                None => {
                    // latest row by time column (fall back to arrival order)
                    if let Some(ti) = time_idx {
                        rows.sort_by_key(|r| r[ti].as_timestamp());
                    }
                    match rows.last() {
                        Some(r) => program.eval(r)?,
                        None => Value::Null,
                    }
                }
            };
            values.push((entity, value));
        }

        Ok(MaterializationPlan {
            def: def.clone(),
            ran_at: now,
            source_rows: scan.rows.len(),
            values,
        })
    }

    /// Run one materialization against a shared [`OfflineDb`]: the compute
    /// phase scans a lock-free snapshot; the writer lock is held only for
    /// the append-and-publish step. Concurrent readers are never blocked by
    /// the scan-and-evaluate work.
    pub(crate) fn run_db(
        def: &FeatureDef,
        offline: &OfflineDb,
        online: &OnlineStore,
        now: Timestamp,
    ) -> Result<MaterializationRun> {
        let plan = Materializer::plan(def, &offline.snapshot(), now)?;
        offline.write(|off| plan.apply(off, online))
    }
}

/// Tracks per-feature last-run times and executes due jobs on `tick_db`.
#[derive(Debug, Default)]
pub(crate) struct MaterializationScheduler {
    jobs: BTreeMap<String, ScheduledJob>,
}

#[derive(Debug)]
struct ScheduledJob {
    def: FeatureDef,
    last_run: Option<Timestamp>,
}

impl MaterializationScheduler {
    pub(crate) fn new() -> Self {
        MaterializationScheduler::default()
    }

    /// Register (or replace) the job for a feature definition.
    pub(crate) fn schedule(&mut self, def: FeatureDef) {
        self.jobs.insert(
            def.name.clone(),
            ScheduledJob {
                def,
                last_run: None,
            },
        );
    }

    /// Run every job whose cadence has elapsed (or that never ran) against a
    /// shared [`OfflineDb`], in feature-name order: each due job computes
    /// from a lock-free snapshot and takes the writer lock only to publish
    /// its results.
    pub(crate) fn tick_db(
        &mut self,
        offline: &OfflineDb,
        online: &OnlineStore,
        now: Timestamp,
    ) -> Result<Vec<MaterializationRun>> {
        let mut runs = Vec::new();
        for job in self.jobs.values_mut() {
            if Self::due(job, now) {
                runs.push(Materializer::run_db(&job.def, offline, online, now)?);
                job.last_run = Some(now);
            }
        }
        Ok(runs)
    }

    fn due(job: &ScheduledJob, now: Timestamp) -> bool {
        match job.last_run {
            None => true,
            Some(last) => now - last >= job.def.cadence,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{FeatureRegistry, FeatureSpec};
    use fstore_common::Duration;
    use fstore_query::AggFunc;

    fn setup() -> (OfflineStore, OnlineStore, FeatureRegistry) {
        let mut off = OfflineStore::new();
        off.create_table(
            "trips",
            TableConfig::new(Schema::of(&[
                ("user_id", ValueType::Str),
                ("ts", ValueType::Timestamp),
                ("fare", ValueType::Float),
            ]))
            .with_time_column("ts"),
        )
        .unwrap();
        (off, OnlineStore::default(), FeatureRegistry::new())
    }

    /// One exclusive compute-and-publish step (the plan/apply pair that
    /// `Materializer::run_db` runs against a shared store).
    fn run(
        def: &FeatureDef,
        offline: &mut OfflineStore,
        online: &OnlineStore,
        now: Timestamp,
    ) -> Result<MaterializationRun> {
        Materializer::plan(def, offline, now)?.apply(offline, online)
    }

    fn add_trip(off: &mut OfflineStore, user: &str, t: Timestamp, fare: f64) {
        off.append(
            "trips",
            &[Value::from(user), Value::Timestamp(t), Value::Float(fare)],
        )
        .unwrap();
    }

    #[test]
    fn latest_row_feature_materializes_latest_value() {
        let (mut off, online, mut reg) = setup();
        add_trip(&mut off, "u1", Timestamp::millis(1_000), 10.0);
        add_trip(&mut off, "u1", Timestamp::millis(5_000), 30.0);
        add_trip(&mut off, "u2", Timestamp::millis(2_000), 20.0);
        let def = reg
            .publish(
                FeatureSpec::new("last_fare", "user_id", "trips", "fare * 2"),
                &off,
                Timestamp::EPOCH,
            )
            .unwrap();

        let now = Timestamp::millis(10_000);
        let run = run(&def, &mut off, &online, now).unwrap();
        assert_eq!(run.entities, 2);
        assert_eq!(run.source_rows, 3);

        let e = online
            .get("user_id", &EntityKey::new("u1"), "last_fare")
            .unwrap();
        assert_eq!(e.value, Value::Float(60.0));
        assert_eq!(e.written_at, now);
        let e2 = online
            .get("user_id", &EntityKey::new("u2"), "last_fare")
            .unwrap();
        assert_eq!(e2.value, Value::Float(40.0));

        // offline log got one row per entity
        assert_eq!(off.num_rows(&def.log_table()).unwrap(), 2);
    }

    #[test]
    fn as_of_excludes_future_rows() {
        let (mut off, online, mut reg) = setup();
        add_trip(&mut off, "u1", Timestamp::millis(1_000), 10.0);
        add_trip(&mut off, "u1", Timestamp::millis(99_000), 999.0);
        let def = reg
            .publish(
                FeatureSpec::new("f", "user_id", "trips", "fare"),
                &off,
                Timestamp::EPOCH,
            )
            .unwrap();
        run(&def, &mut off, &online, Timestamp::millis(50_000)).unwrap();
        let e = online.get("user_id", &EntityKey::new("u1"), "f").unwrap();
        assert_eq!(e.value, Value::Float(10.0), "future row must not leak");
    }

    #[test]
    fn aggregated_feature_respects_window() {
        let (mut off, online, mut reg) = setup();
        // two old trips outside the window, two inside
        add_trip(&mut off, "u1", Timestamp::millis(1_000), 100.0);
        add_trip(&mut off, "u1", Timestamp::millis(2_000), 100.0);
        let day2 = Timestamp::millis(2 * 86_400_000);
        add_trip(&mut off, "u1", day2, 10.0);
        add_trip(&mut off, "u1", day2 + Duration::minutes(1), 20.0);
        let def = reg
            .publish(
                FeatureSpec::new("avg_fare_1d", "user_id", "trips", "fare")
                    .aggregated(AggFunc::Avg, Duration::days(1)),
                &off,
                Timestamp::EPOCH,
            )
            .unwrap();
        run(&def, &mut off, &online, day2 + Duration::hours(1)).unwrap();
        let e = online
            .get("user_id", &EntityKey::new("u1"), "avg_fare_1d")
            .unwrap();
        assert_eq!(e.value, Value::Float(15.0));
    }

    #[test]
    fn null_entities_are_skipped() {
        let (mut off, online, mut reg) = setup();
        off.append(
            "trips",
            &[
                Value::Null,
                Value::Timestamp(Timestamp::millis(1)),
                Value::Float(5.0),
            ],
        )
        .unwrap();
        add_trip(&mut off, "u1", Timestamp::millis(2), 7.0);
        let def = reg
            .publish(
                FeatureSpec::new("f", "user_id", "trips", "fare"),
                &off,
                Timestamp::EPOCH,
            )
            .unwrap();
        let run = run(&def, &mut off, &online, Timestamp::millis(10)).unwrap();
        assert_eq!(run.entities, 1);
    }

    #[test]
    fn scheduler_runs_on_cadence() {
        let (mut off, online, mut reg) = setup();
        add_trip(&mut off, "u1", Timestamp::millis(1), 5.0);
        let def = reg
            .publish(
                FeatureSpec::new("f", "user_id", "trips", "fare").cadence(Duration::hours(1)),
                &off,
                Timestamp::EPOCH,
            )
            .unwrap();
        let mut sched = MaterializationScheduler::new();
        sched.schedule(def);
        let db = OfflineDb::from_store(off);

        // first tick always runs
        let t0 = Timestamp::millis(10);
        assert_eq!(sched.tick_db(&db, &online, t0).unwrap().len(), 1);
        // half an hour later: not due
        let t1 = t0 + Duration::minutes(30);
        assert!(sched.tick_db(&db, &online, t1).unwrap().is_empty());
        // one hour later: due again
        let t2 = t0 + Duration::hours(1);
        assert_eq!(sched.tick_db(&db, &online, t2).unwrap().len(), 1);
    }

    #[test]
    fn a_failed_append_serves_nothing_online() {
        let (mut off, online, mut reg) = setup();
        add_trip(&mut off, "u1", Timestamp::millis(1), 5.0);
        add_trip(&mut off, "u2", Timestamp::millis(2), 7.0);
        let def = reg
            .publish(
                FeatureSpec::new("f", "user_id", "trips", "fare"),
                &off,
                Timestamp::EPOCH,
            )
            .unwrap();
        // A log table already there whose `value` column cannot take the
        // feature's Float values: every append fails.
        off.create_table(
            def.log_table(),
            TableConfig::new(feature_log_schema(ValueType::Bool)).with_time_column("ts"),
        )
        .unwrap();
        let db = OfflineDb::from_store(off);
        let epoch = db.epoch();

        let err = Materializer::run_db(&def, &db, &online, Timestamp::millis(10));
        assert!(err.is_err(), "the append must fail: {err:?}");
        for user in ["u1", "u2"] {
            assert!(
                online.get("user_id", &EntityKey::new(user), "f").is_none(),
                "{user} served a value the log never took"
            );
        }
        assert_eq!(db.epoch(), epoch, "the failed run published nothing");
        assert_eq!(db.snapshot().num_rows(&def.log_table()).unwrap(), 0);
    }

    #[test]
    fn repeated_runs_append_history() {
        let (mut off, online, mut reg) = setup();
        add_trip(&mut off, "u1", Timestamp::millis(1), 5.0);
        let def = reg
            .publish(
                FeatureSpec::new("f", "user_id", "trips", "fare"),
                &off,
                Timestamp::EPOCH,
            )
            .unwrap();
        run(&def, &mut off, &online, Timestamp::millis(100)).unwrap();
        add_trip(&mut off, "u1", Timestamp::millis(200), 9.0);
        run(&def, &mut off, &online, Timestamp::millis(300)).unwrap();
        // history has both runs — that's what PIT joins read
        assert_eq!(off.num_rows(&def.log_table()).unwrap(), 2);
        let e = online.get("user_id", &EntityKey::new("u1"), "f").unwrap();
        assert_eq!(e.value, Value::Float(9.0));
    }
}
