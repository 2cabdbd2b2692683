//! Feature authoring, publishing and versioning (paper §2.2.1).
//!
//! Users publish a [`FeatureSpec`] — entity, source table, a definitional
//! expression in the feature language, an optional window aggregation, and
//! an update cadence. Publishing validates the definition against the
//! source schema *once* and freezes it as an immutable, versioned
//! [`FeatureDef`]; re-publishing the same name bumps the version, keeping
//! every historical definition addressable (reproducibility).

use fstore_common::{Duration, FsError, Result, Timestamp, ValueType};
use fstore_query::{AggFunc, Program};
use fstore_storage::OfflineStore;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// What a user submits to publish a feature.
#[derive(Debug, Clone)]
pub struct FeatureSpec {
    /// Feature name, unique within the registry (versions stack under it).
    pub(crate) name: String,
    /// Column in the source table identifying the entity (e.g. `user_id`).
    pub(crate) entity: String,
    /// Offline table the feature is derived from.
    pub(crate) source_table: String,
    /// Row-level expression in the feature language.
    pub(crate) expression: String,
    /// Optional window aggregation applied over the expression values:
    /// `(function, window length)`. `None` = latest-row feature.
    pub(crate) aggregation: Option<(AggFunc, Duration)>,
    /// How often materialization should refresh this feature.
    pub(crate) cadence: Duration,
    pub(crate) owner: String,
    pub(crate) description: String,
    pub(crate) tags: Vec<String>,
}

impl FeatureSpec {
    pub fn new(
        name: impl Into<String>,
        entity: impl Into<String>,
        source_table: impl Into<String>,
        expression: impl Into<String>,
    ) -> Self {
        FeatureSpec {
            name: name.into(),
            entity: entity.into(),
            source_table: source_table.into(),
            expression: expression.into(),
            aggregation: None,
            cadence: Duration::hours(1),
            owner: String::new(),
            description: String::new(),
            tags: Vec::new(),
        }
    }

    pub fn aggregated(mut self, func: AggFunc, window: Duration) -> Self {
        self.aggregation = Some((func, window));
        self
    }

    pub fn cadence(mut self, cadence: Duration) -> Self {
        self.cadence = cadence;
        self
    }

    pub fn owner(mut self, owner: impl Into<String>) -> Self {
        self.owner = owner.into();
        self
    }

    pub fn describe(mut self, d: impl Into<String>) -> Self {
        self.description = d.into();
        self
    }

    pub fn tag(mut self, t: impl Into<String>) -> Self {
        self.tags.push(t.into());
        self
    }
}

/// Serializable aggregation metadata stored on the published definition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct AggregationDef {
    /// Aggregate spec in [`AggFunc::parse`] syntax (e.g. `"sum"`, `"p95"`).
    pub(crate) func: String,
    pub(crate) window: Duration,
}

/// An immutable, published, versioned feature definition.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeatureDef {
    pub name: String,
    pub(crate) version: u32,
    pub(crate) entity: String,
    pub(crate) source_table: String,
    pub expression: String,
    pub(crate) aggregation: Option<AggregationDef>,
    pub(crate) cadence: Duration,
    pub(crate) owner: String,
    pub(crate) description: String,
    pub(crate) tags: Vec<String>,
    pub(crate) created_at: Timestamp,
    /// Inferred type of the feature's values: the aggregate's output type
    /// when the feature aggregates, else the expression's. The offline log
    /// table is typed by it, so training reads what serving returns.
    pub value_type: ValueType,
    /// Source columns the expression reads (lineage).
    pub inputs: Vec<String>,
}

impl FeatureDef {
    /// Fully-qualified name `name@v<version>`.
    pub fn qualified_name(&self) -> String {
        format!("{}@v{}", self.name, self.version)
    }

    /// The aggregate function, reparsed from its stored spec.
    pub(crate) fn agg_func(&self) -> Result<Option<(AggFunc, Duration)>> {
        match &self.aggregation {
            None => Ok(None),
            Some(a) => Ok(Some((AggFunc::parse(&a.func)?, a.window))),
        }
    }

    /// Offline log table this feature materializes into.
    pub(crate) fn log_table(&self) -> String {
        format!("feat__{}_v{}", self.name, self.version)
    }

    /// Online store group this feature serves from (one namespace per
    /// entity kind, mirroring how Feast/Michelangelo group by entity).
    pub(crate) fn online_group(&self) -> &str {
        &self.entity
    }
}

fn agg_spec_string(f: &AggFunc) -> String {
    match f {
        AggFunc::Count => "count".into(),
        AggFunc::CountAll => "count_all".into(),
        AggFunc::Sum => "sum".into(),
        AggFunc::Avg => "avg".into(),
        AggFunc::Min => "min".into(),
        AggFunc::Max => "max".into(),
        AggFunc::StdDev => "stddev".into(),
        AggFunc::Quantile(q) => format!("quantile({q})"),
        AggFunc::CountDistinct => "count_distinct".into(),
        AggFunc::Last => "last".into(),
    }
}

/// A named, versioned set of features used together by a model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeatureSetDef {
    pub(crate) name: String,
    /// `(feature name, version)` pairs, in serving order.
    pub features: Vec<(String, u32)>,
    pub(crate) created_at: Timestamp,
}

/// The central catalog of feature definitions and feature sets.
#[derive(Debug, Default)]
pub struct FeatureRegistry {
    features: BTreeMap<String, Vec<FeatureDef>>,
    sets: BTreeMap<String, FeatureSetDef>,
}

impl FeatureRegistry {
    pub(crate) fn new() -> Self {
        FeatureRegistry::default()
    }

    /// Publish a spec: validate against the live source schema, compile the
    /// expression, infer types, and freeze as the next version.
    pub(crate) fn publish(
        &mut self,
        spec: FeatureSpec,
        offline: &OfflineStore,
        now: Timestamp,
    ) -> Result<FeatureDef> {
        let schema = offline.schema(&spec.source_table)?;
        if schema.index_of(&spec.entity).is_none() {
            return Err(FsError::Plan(format!(
                "entity column `{}` not in source table `{}`",
                spec.entity, spec.source_table
            )));
        }
        let program = Program::compile(&spec.expression, schema)?;
        let input_type = program.output_type().ok_or_else(|| {
            FsError::Plan(format!("feature `{}` is the constant NULL", spec.name))
        })?;
        if let Some((func, window)) = &spec.aggregation {
            if !window.is_positive() {
                return Err(FsError::InvalidArgument(format!(
                    "aggregation window for `{}` must be positive",
                    spec.name
                )));
            }
            // Numeric-only aggregates must see numeric expressions.
            let numeric_ok = matches!(input_type, ValueType::Int | ValueType::Float)
                || matches!(
                    func,
                    AggFunc::Count
                        | AggFunc::CountAll
                        | AggFunc::CountDistinct
                        | AggFunc::Last
                        | AggFunc::Min
                        | AggFunc::Max
                );
            if !numeric_ok {
                return Err(FsError::Plan(format!(
                    "aggregate over non-numeric expression in `{}`",
                    spec.name
                )));
            }
        }
        let value_type = spec
            .aggregation
            .as_ref()
            .map_or(input_type, |(func, _)| func.output_type(input_type));
        if !spec.cadence.is_positive() {
            return Err(FsError::InvalidArgument(format!(
                "cadence for `{}` must be positive",
                spec.name
            )));
        }

        let versions = self.features.entry(spec.name.clone()).or_default();
        let version = versions.last().map_or(1, |d| d.version + 1);
        let def = FeatureDef {
            name: spec.name,
            version,
            entity: spec.entity,
            source_table: spec.source_table,
            expression: spec.expression,
            aggregation: spec.aggregation.as_ref().map(|(f, w)| AggregationDef {
                func: agg_spec_string(f),
                window: *w,
            }),
            cadence: spec.cadence,
            owner: spec.owner,
            description: spec.description,
            tags: spec.tags,
            created_at: now,
            value_type,
            inputs: program.inputs().to_vec(),
        };
        versions.push(def.clone());
        Ok(def)
    }

    /// Latest version of a feature.
    pub fn get(&self, name: &str) -> Result<&FeatureDef> {
        self.features
            .get(name)
            .and_then(|v| v.last())
            .ok_or_else(|| FsError::not_found("feature", name.to_string()))
    }

    /// A specific version.
    pub(crate) fn get_version(&self, name: &str, version: u32) -> Result<&FeatureDef> {
        self.features
            .get(name)
            .and_then(|v| v.iter().find(|d| d.version == version))
            .ok_or_else(|| FsError::not_found("feature version", format!("{name}@v{version}")))
    }

    /// All latest-version features.
    pub(crate) fn list(&self) -> Vec<&FeatureDef> {
        self.features.values().filter_map(|v| v.last()).collect()
    }

    /// Register a feature set (resolves every member to its latest version).
    pub fn register_set(
        &mut self,
        name: impl Into<String>,
        features: &[&str],
        now: Timestamp,
    ) -> Result<FeatureSetDef> {
        let name = name.into();
        if self.sets.contains_key(&name) {
            return Err(FsError::already_exists("feature set", name));
        }
        let mut resolved = Vec::with_capacity(features.len());
        for f in features {
            let def = self.get(f)?;
            resolved.push((def.name.clone(), def.version));
        }
        let set = FeatureSetDef {
            name: name.clone(),
            features: resolved,
            created_at: now,
        };
        self.sets.insert(name, set.clone());
        Ok(set)
    }

    pub fn get_set(&self, name: &str) -> Result<&FeatureSetDef> {
        self.sets
            .get(name)
            .ok_or_else(|| FsError::not_found("feature set", name.to_string()))
    }

    /// Resolve a set to its pinned feature definitions.
    pub(crate) fn resolve_set(&self, name: &str) -> Result<Vec<&FeatureDef>> {
        self.get_set(name)?
            .features
            .iter()
            .map(|(f, v)| self.get_version(f, *v))
            .collect()
    }

    /// Features whose lineage includes `column` of `table` — the impact set
    /// consulted when a source column goes bad (paper §2.2.3: "detect the
    /// offending set of features").
    pub fn impacted_by(&self, table: &str, column: &str) -> Vec<&FeatureDef> {
        self.list()
            .into_iter()
            .filter(|d| d.source_table == table && d.inputs.iter().any(|c| c == column))
            .collect()
    }

    /// Export the full catalog as JSON (provenance snapshot).
    pub fn export_json(&self) -> Result<String> {
        let all: Vec<&FeatureDef> = self.features.values().flatten().collect();
        serde_json::to_string_pretty(&all).map_err(|e| FsError::Serde(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fstore_common::{Schema, ValueType};
    use fstore_storage::TableConfig;

    fn offline() -> OfflineStore {
        let mut s = OfflineStore::new();
        s.create_table(
            "trips",
            TableConfig::new(Schema::of(&[
                ("user_id", ValueType::Str),
                ("ts", ValueType::Timestamp),
                ("fare", ValueType::Float),
                ("city", ValueType::Str),
            ]))
            .with_time_column("ts"),
        )
        .unwrap();
        s
    }

    fn spec() -> FeatureSpec {
        FeatureSpec::new("avg_fare_7d", "user_id", "trips", "fare")
            .aggregated(AggFunc::Avg, Duration::days(7))
            .cadence(Duration::hours(6))
            .owner("ml-platform")
            .describe("7-day average fare per user")
            .tag("pricing")
    }

    #[test]
    fn publish_compiles_and_versions() {
        let off = offline();
        let mut reg = FeatureRegistry::new();
        let d1 = reg.publish(spec(), &off, Timestamp::millis(1)).unwrap();
        assert_eq!(d1.version, 1);
        assert_eq!(d1.value_type, ValueType::Float);
        assert_eq!(d1.inputs, vec!["fare".to_string()]);
        assert_eq!(d1.qualified_name(), "avg_fare_7d@v1");
        let d2 = reg.publish(spec(), &off, Timestamp::millis(2)).unwrap();
        assert_eq!(d2.version, 2);
        assert_eq!(reg.get("avg_fare_7d").unwrap().version, 2);
        assert_eq!(
            reg.get_version("avg_fare_7d", 1).unwrap().created_at,
            Timestamp::millis(1)
        );
    }

    #[test]
    fn publish_validates() {
        let off = offline();
        let mut reg = FeatureRegistry::new();
        // unknown table
        assert!(reg
            .publish(
                FeatureSpec::new("f", "user_id", "ghost", "fare"),
                &off,
                Timestamp::EPOCH
            )
            .is_err());
        // unknown entity column
        assert!(reg
            .publish(
                FeatureSpec::new("f", "rider_id", "trips", "fare"),
                &off,
                Timestamp::EPOCH
            )
            .is_err());
        // bad expression
        assert!(reg
            .publish(
                FeatureSpec::new("f", "user_id", "trips", "fare +"),
                &off,
                Timestamp::EPOCH
            )
            .is_err());
        // type error
        assert!(reg
            .publish(
                FeatureSpec::new("f", "user_id", "trips", "city * 2"),
                &off,
                Timestamp::EPOCH
            )
            .is_err());
        // constant NULL
        assert!(reg
            .publish(
                FeatureSpec::new("f", "user_id", "trips", "NULL"),
                &off,
                Timestamp::EPOCH
            )
            .is_err());
        // sum over a string expression
        assert!(reg
            .publish(
                FeatureSpec::new("f", "user_id", "trips", "city")
                    .aggregated(AggFunc::Sum, Duration::days(1)),
                &off,
                Timestamp::EPOCH
            )
            .is_err());
        // count over a string expression is fine
        assert!(reg
            .publish(
                FeatureSpec::new("f", "user_id", "trips", "city")
                    .aggregated(AggFunc::CountDistinct, Duration::days(1)),
                &off,
                Timestamp::EPOCH
            )
            .is_ok());
        // zero cadence
        assert!(reg
            .publish(
                FeatureSpec::new("g", "user_id", "trips", "fare").cadence(Duration::ZERO),
                &off,
                Timestamp::EPOCH
            )
            .is_err());
        // zero window
        assert!(reg
            .publish(
                FeatureSpec::new("g", "user_id", "trips", "fare")
                    .aggregated(AggFunc::Avg, Duration::ZERO),
                &off,
                Timestamp::EPOCH
            )
            .is_err());
    }

    #[test]
    fn agg_round_trips_through_def() {
        let off = offline();
        let mut reg = FeatureRegistry::new();
        let d = reg
            .publish(
                spec().aggregated(AggFunc::Quantile(0.95), Duration::days(1)),
                &off,
                Timestamp::EPOCH,
            )
            .unwrap();
        let (f, w) = d.agg_func().unwrap().unwrap();
        assert_eq!(f, AggFunc::Quantile(0.95));
        assert_eq!(w, Duration::days(1));
    }

    #[test]
    fn sets_pin_versions() {
        let off = offline();
        let mut reg = FeatureRegistry::new();
        reg.publish(spec(), &off, Timestamp::EPOCH).unwrap();
        reg.publish(
            FeatureSpec::new("fare_now", "user_id", "trips", "fare"),
            &off,
            Timestamp::EPOCH,
        )
        .unwrap();
        let set = reg
            .register_set(
                "eta_model_v1",
                &["avg_fare_7d", "fare_now"],
                Timestamp::EPOCH,
            )
            .unwrap();
        assert_eq!(
            set.features,
            vec![("avg_fare_7d".to_string(), 1), ("fare_now".to_string(), 1)]
        );

        // republish: set keeps pointing at v1
        reg.publish(spec(), &off, Timestamp::millis(9)).unwrap();
        let defs = reg.resolve_set("eta_model_v1").unwrap();
        assert_eq!(defs[0].version, 1);

        assert!(reg
            .register_set("eta_model_v1", &["fare_now"], Timestamp::EPOCH)
            .is_err());
        assert!(reg
            .register_set("other", &["ghost"], Timestamp::EPOCH)
            .is_err());
    }

    #[test]
    fn lineage_impact_set() {
        let off = offline();
        let mut reg = FeatureRegistry::new();
        reg.publish(spec(), &off, Timestamp::EPOCH).unwrap();
        reg.publish(
            FeatureSpec::new("city_len", "user_id", "trips", "length(city)"),
            &off,
            Timestamp::EPOCH,
        )
        .unwrap();
        let hit = reg.impacted_by("trips", "fare");
        assert_eq!(hit.len(), 1);
        assert_eq!(hit[0].name, "avg_fare_7d");
        assert!(reg.impacted_by("trips", "ts").is_empty());
        assert!(reg.impacted_by("other", "fare").is_empty());
    }

    #[test]
    fn tags_and_export() {
        let off = offline();
        let mut reg = FeatureRegistry::new();
        reg.publish(spec(), &off, Timestamp::EPOCH).unwrap();
        let json = reg.export_json().unwrap();
        assert!(json.contains("avg_fare_7d"));
        let parsed: Vec<FeatureDef> = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed[0].name, "avg_fare_7d");
    }
}
