//! The offline store: an embedded, date-partitioned columnar warehouse.
//!
//! Tables declare an optional *time column*; appends route rows to the
//! partition of that column's date, and scans prune partitions by date
//! range, prune segments by zone map, and filter rows by predicate — the
//! standard warehouse access path a feature store materializes features
//! from (paper §2.2.1–2.2.2). `as_of` scans (time ≤ t) are the primitive
//! point-in-time joins are built on.

use crate::predicate::{CmpOp, Predicate};
use crate::segment::{Segment, SegmentBuilder};
use fstore_common::{Date, FsError, Result, Schema, Timestamp, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Default number of rows per sealed segment.
pub(crate) const DEFAULT_SEGMENT_ROWS: usize = 4096;

/// Configuration supplied when creating a table.
#[derive(Debug, Clone)]
pub struct TableConfig {
    pub(crate) schema: Schema,
    /// Column (must be `Timestamp`-typed) used for partition routing and
    /// `as_of` filtering. Tables without one live in a single partition.
    pub(crate) time_column: Option<String>,
    /// Rows per segment before the open segment is sealed.
    pub(crate) segment_rows: usize,
}

impl TableConfig {
    pub fn new(schema: Schema) -> Self {
        TableConfig {
            schema,
            time_column: None,
            segment_rows: DEFAULT_SEGMENT_ROWS,
        }
    }

    pub fn with_time_column(mut self, col: impl Into<String>) -> Self {
        self.time_column = Some(col.into());
        self
    }

    pub fn with_segment_rows(mut self, rows: usize) -> Self {
        self.segment_rows = rows.max(1);
        self
    }
}

/// Sealed segments are shared (`Arc`) between a writer's clone and
/// every published snapshot; cloning a partition is O(#segments) pointer
/// bumps plus — only when a snapshot still references the open builder — one
/// copy-on-write clone of the open rows (bounded by `segment_rows`).
#[derive(Debug, Default, Clone)]
pub(crate) struct Partition {
    pub(crate) sealed: Vec<Arc<Segment>>,
    pub(crate) open: Option<Arc<SegmentBuilder>>,
}

#[derive(Debug, Clone)]
pub(crate) struct Table {
    pub(crate) config: TableConfig,
    pub(crate) time_idx: Option<usize>,
    pub(crate) partitions: BTreeMap<Date, Partition>,
    pub(crate) rows: usize,
}

/// A scan specification. All filters are optional; an empty request is a
/// full-table scan.
#[derive(Debug, Clone, Default)]
pub struct ScanRequest {
    /// Inclusive partition date range.
    pub(crate) date_range: Option<(Date, Date)>,
    /// Only rows whose time column is `<= as_of` (requires a time column).
    pub(crate) as_of: Option<Timestamp>,
    /// Conjunctive column predicates.
    pub(crate) predicates: Vec<Predicate>,
    /// Columns to return, in order (`None` = all).
    pub(crate) projection: Option<Vec<String>>,
}

impl ScanRequest {
    pub fn all() -> Self {
        ScanRequest::default()
    }

    pub fn with_dates(mut self, from: Date, to: Date) -> Self {
        self.date_range = Some((from, to));
        self
    }

    pub fn as_of(mut self, t: Timestamp) -> Self {
        self.as_of = Some(t);
        self
    }

    pub fn filter(mut self, p: Predicate) -> Self {
        self.predicates.push(p);
        self
    }

    pub fn project(mut self, cols: &[&str]) -> Self {
        self.projection = Some(cols.iter().map(|s| s.to_string()).collect());
        self
    }
}

/// Pruning/matching counters exposed so tests and benches can assert the
/// access path, not just the answer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    pub(crate) partitions_total: usize,
    pub(crate) partitions_scanned: usize,
    pub(crate) segments_total: usize,
    pub(crate) segments_scanned: usize,
    pub rows_scanned: usize,
    pub(crate) rows_matched: usize,
}

/// Scan output: materialized rows and access-path stats.
#[derive(Debug, Clone)]
pub struct ScanResult {
    pub rows: Vec<Vec<Value>>,
    pub stats: ScanStats,
}

/// Reclaim a builder from its `Arc` for sealing: moves it out when the writer
/// holds the only reference, clones otherwise (a snapshot is still reading it).
fn take_builder(b: Arc<SegmentBuilder>) -> SegmentBuilder {
    Arc::try_unwrap(b).unwrap_or_else(|shared| (*shared).clone())
}

/// The embedded offline warehouse: a catalog of partitioned columnar tables.
///
/// Internally every table is behind an `Arc` and sealed segments are shared,
/// so `Clone` is cheap (O(#tables) pointer bumps) — that is what makes
/// copy-on-write snapshot publication through [`crate::OfflineDb`] viable.
/// Mutation goes through [`Arc::make_mut`], so a writer never disturbs rows a
/// published snapshot already references.
#[derive(Debug, Default, Clone)]
pub struct OfflineStore {
    pub(crate) tables: BTreeMap<String, Arc<Table>>,
}

impl OfflineStore {
    pub fn new() -> Self {
        OfflineStore::default()
    }

    /// Create a table; validates the time column exists and is Timestamp-typed.
    pub fn create_table(&mut self, name: impl Into<String>, config: TableConfig) -> Result<()> {
        let name = name.into();
        if self.tables.contains_key(&name) {
            return Err(FsError::already_exists("table", name));
        }
        let time_idx = match &config.time_column {
            Some(col) => {
                let idx = config
                    .schema
                    .index_of(col)
                    .ok_or_else(|| FsError::not_found("time column", col.clone()))?;
                let f = &config.schema.fields()[idx];
                if f.ty != fstore_common::ValueType::Timestamp {
                    return Err(FsError::type_mismatch(
                        "Timestamp",
                        f.ty.to_string(),
                        format!("time column `{col}`"),
                    ));
                }
                Some(idx)
            }
            None => None,
        };
        self.tables.insert(
            name,
            Arc::new(Table {
                config,
                time_idx,
                partitions: BTreeMap::new(),
                rows: 0,
            }),
        );
        Ok(())
    }

    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        self.tables
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| FsError::not_found("table", name.to_string()))
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    pub fn schema(&self, table: &str) -> Result<&Schema> {
        Ok(&self.table(table)?.config.schema)
    }

    pub fn num_rows(&self, table: &str) -> Result<usize> {
        Ok(self.table(table)?.rows)
    }

    /// The table's configured time column, if any.
    pub fn time_column(&self, table: &str) -> Result<Option<String>> {
        Ok(self.table(table)?.config.time_column.clone())
    }

    /// The table's configured rows-per-segment threshold.
    pub fn segment_rows(&self, table: &str) -> Result<usize> {
        Ok(self.table(table)?.config.segment_rows)
    }

    fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .map(|t| t.as_ref())
            .ok_or_else(|| FsError::not_found("table", name.to_string()))
    }

    /// Copy-on-write access to a table: if a published snapshot still shares
    /// this table's `Arc`, `make_mut` clones it first so the snapshot is
    /// never disturbed.
    fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(name)
            .map(Arc::make_mut)
            .ok_or_else(|| FsError::not_found("table", name.to_string()))
    }

    /// Append one row; routes to the partition of the time column's date.
    pub fn append(&mut self, table: &str, row: &[Value]) -> Result<()> {
        let t = self.table_mut(table)?;
        t.config.schema.check_row(row)?;
        let date = match t.time_idx {
            Some(i) => match &row[i] {
                Value::Timestamp(ts) => ts.date(),
                Value::Null => {
                    return Err(FsError::Storage(format!(
                        "null time column in append to `{table}`"
                    )))
                }
                _ => unreachable!("schema check enforces Timestamp type"),
            },
            None => Date::from_days(0),
        };
        let schema = t.config.schema.clone();
        let seg_rows = t.config.segment_rows;
        let part = t.partitions.entry(date).or_default();
        // Copy-on-write: if a snapshot still shares the open builder, clone
        // it (cost bounded by `segment_rows`) before mutating.
        let builder = Arc::make_mut(
            part.open
                .get_or_insert_with(|| Arc::new(SegmentBuilder::new(schema))),
        );
        builder.push_row(row)?;
        if builder.num_rows() >= seg_rows {
            let sealed = take_builder(part.open.take().unwrap()).finish()?;
            part.sealed.push(Arc::new(sealed));
        }
        t.rows += 1;
        Ok(())
    }

    /// Append many rows (stops at the first error).
    pub fn append_all(&mut self, table: &str, rows: &[Vec<Value>]) -> Result<()> {
        for r in rows {
            self.append(table, r)?;
        }
        Ok(())
    }

    /// Seal every open segment in the table (scans already see open rows;
    /// flushing just makes zone maps available for them too).
    pub fn flush(&mut self, table: &str) -> Result<()> {
        let t = self.table_mut(table)?;
        for part in t.partitions.values_mut() {
            if let Some(b) = part.open.take() {
                if b.is_empty() {
                    continue;
                }
                part.sealed.push(Arc::new(take_builder(b).finish()?));
            }
        }
        Ok(())
    }

    /// Run a scan. Validates predicate/projection columns up front, then
    /// prunes partitions by date, segments by zone map, rows by predicate.
    pub fn scan(&self, table: &str, req: &ScanRequest) -> Result<ScanResult> {
        let t = self.table(table)?;
        let schema = &t.config.schema;

        for p in &req.predicates {
            if schema.index_of(&p.column).is_none() {
                return Err(FsError::Plan(format!(
                    "predicate references unknown column `{}` in `{table}`",
                    p.column
                )));
            }
        }
        if req.as_of.is_some() && t.time_idx.is_none() {
            return Err(FsError::Plan(format!(
                "as_of scan on `{table}` which has no time column"
            )));
        }

        // Fold as_of into the predicate set and the date range.
        let mut predicates = req.predicates.clone();
        let mut date_hi: Option<Date> = req.date_range.map(|(_, hi)| hi);
        if let Some(as_of) = req.as_of {
            let col = t.config.time_column.clone().unwrap();
            predicates.push(Predicate::new(col, CmpOp::Le, Value::Timestamp(as_of)));
            let cap = as_of.date();
            date_hi = Some(date_hi.map_or(cap, |h| h.min(cap)));
        }
        let date_lo = req.date_range.map(|(lo, _)| lo);

        let proj_idx: Vec<usize> = match &req.projection {
            Some(cols) => {
                // Refuses unknown and repeated columns before any row is read.
                let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
                schema.project(&refs)?;
                cols.iter().map(|c| schema.index_of(c).unwrap()).collect()
            }
            None => (0..schema.len()).collect(),
        };

        let mut stats = ScanStats {
            partitions_total: t.partitions.len(),
            segments_total: t
                .partitions
                .values()
                .map(|p| p.sealed.len() + usize::from(p.open.is_some()))
                .sum(),
            ..Default::default()
        };
        let mut rows = Vec::new();

        for (&date, part) in &t.partitions {
            if date_lo.is_some_and(|lo| date < lo) || date_hi.is_some_and(|hi| date > hi) {
                continue;
            }
            stats.partitions_scanned += 1;
            for seg in &part.sealed {
                if !seg.may_match(&predicates) {
                    continue;
                }
                stats.segments_scanned += 1;
                stats.rows_scanned += seg.num_rows();
                for r in seg.matching_rows(&predicates) {
                    stats.rows_matched += 1;
                    rows.push(proj_idx.iter().map(|&c| seg.column(c).get(r)).collect());
                }
            }
            if let Some(open) = &part.open {
                stats.segments_scanned += 1;
                stats.rows_scanned += open.num_rows();
                for r in 0..open.num_rows() {
                    let row = open.peek_row(r);
                    let ok = predicates
                        .iter()
                        .all(|p| p.matches(&row[schema.index_of(&p.column).unwrap()]));
                    if ok {
                        stats.rows_matched += 1;
                        rows.push(proj_idx.iter().map(|&c| row[c].clone()).collect());
                    }
                }
            }
        }
        Ok(ScanResult { rows, stats })
    }

    /// Convenience: all values of one column (post-filter), for profilers.
    pub fn column_values(
        &self,
        table: &str,
        column: &str,
        req: &ScanRequest,
    ) -> Result<Vec<Value>> {
        let mut req = req.clone();
        req.projection = Some(vec![column.to_string()]);
        Ok(self
            .scan(table, &req)?
            .rows
            .into_iter()
            .map(|mut r| r.pop().unwrap())
            .collect())
    }
}

#[cfg(test)]
impl OfflineStore {
    /// The table's partitions, for tests that check how rows were placed.
    pub(crate) fn partition_dates(&self, table: &str) -> Result<Vec<Date>> {
        Ok(self.table(table)?.partitions.keys().copied().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fstore_common::{Duration, ValueType};

    fn trip_schema() -> Schema {
        Schema::of(&[
            ("trip_id", ValueType::Int),
            ("ts", ValueType::Timestamp),
            ("fare", ValueType::Float),
        ])
    }

    fn store_with_days(days: i32, per_day: usize) -> OfflineStore {
        let mut s = OfflineStore::new();
        s.create_table(
            "trips",
            TableConfig::new(trip_schema())
                .with_time_column("ts")
                .with_segment_rows(8),
        )
        .unwrap();
        let mut id = 0i64;
        for d in 0..days {
            let base = Date::from_days(d).start();
            for i in 0..per_day {
                let ts = base + Duration::minutes(i as i64);
                s.append(
                    "trips",
                    &[
                        Value::Int(id),
                        Value::Timestamp(ts),
                        Value::Float(id as f64),
                    ],
                )
                .unwrap();
                id += 1;
            }
        }
        s
    }

    #[test]
    fn create_validates_time_column() {
        let mut s = OfflineStore::new();
        assert!(s
            .create_table(
                "t",
                TableConfig::new(trip_schema()).with_time_column("ghost")
            )
            .is_err());
        assert!(s
            .create_table(
                "t",
                TableConfig::new(trip_schema()).with_time_column("fare")
            )
            .is_err());
        s.create_table("t", TableConfig::new(trip_schema()).with_time_column("ts"))
            .unwrap();
        assert!(
            s.create_table("t", TableConfig::new(trip_schema()))
                .is_err(),
            "duplicate"
        );
    }

    #[test]
    fn append_partitions_by_date() {
        let s = store_with_days(3, 10);
        assert_eq!(s.num_rows("trips").unwrap(), 30);
        assert_eq!(
            s.partition_dates("trips").unwrap(),
            vec![Date::from_days(0), Date::from_days(1), Date::from_days(2)]
        );
    }

    #[test]
    fn append_rejects_null_time() {
        let mut s = store_with_days(1, 1);
        let err = s
            .append("trips", &[Value::Int(9), Value::Null, Value::Float(0.0)])
            .unwrap_err();
        assert!(err.to_string().contains("null time column"));
    }

    #[test]
    fn full_scan_sees_open_and_sealed_segments() {
        let s = store_with_days(1, 10); // segment_rows=8 → 1 sealed + 1 open
        let res = s.scan("trips", &ScanRequest::all()).unwrap();
        assert_eq!(res.rows.len(), 10);
        assert_eq!(res.stats.segments_total, 2);
    }

    #[test]
    fn date_range_prunes_partitions() {
        let s = store_with_days(5, 4);
        let req = ScanRequest::all().with_dates(Date::from_days(1), Date::from_days(2));
        let res = s.scan("trips", &req).unwrap();
        assert_eq!(res.rows.len(), 8);
        assert_eq!(res.stats.partitions_scanned, 2);
        assert_eq!(res.stats.partitions_total, 5);
    }

    #[test]
    fn as_of_filters_rows_and_caps_dates() {
        let s = store_with_days(5, 4);
        // as_of = end of day 1's 2nd minute
        let as_of = Date::from_days(1).start() + Duration::minutes(1);
        let res = s.scan("trips", &ScanRequest::all().as_of(as_of)).unwrap();
        // day 0: all 4 rows; day 1: minutes 0 and 1 → 2 rows
        assert_eq!(res.rows.len(), 6);
        assert!(
            res.stats.partitions_scanned <= 2,
            "future partitions must be pruned"
        );
        for row in &res.rows {
            assert!(row[1].as_timestamp().unwrap() <= as_of);
        }
    }

    #[test]
    fn as_of_requires_time_column() {
        let mut s = OfflineStore::new();
        s.create_table(
            "plain",
            TableConfig::new(Schema::of(&[("x", ValueType::Int)])),
        )
        .unwrap();
        let err = s
            .scan("plain", &ScanRequest::all().as_of(Timestamp::EPOCH))
            .unwrap_err();
        assert!(err.to_string().contains("no time column"));
    }

    #[test]
    fn predicates_filter_and_zone_maps_prune() {
        let mut s = store_with_days(2, 16); // 2 sealed segments/day, ids ordered
        s.flush("trips").unwrap();
        let req = ScanRequest::all().filter(Predicate::new("trip_id", CmpOp::Ge, 24i64));
        let res = s.scan("trips", &req).unwrap();
        assert_eq!(res.rows.len(), 8);
        assert!(
            res.stats.segments_scanned < res.stats.segments_total,
            "zone maps should prune segments: {:?}",
            res.stats
        );
    }

    #[test]
    fn unknown_predicate_column_is_a_plan_error() {
        let s = store_with_days(1, 2);
        let err = s.scan(
            "trips",
            &ScanRequest::all().filter(Predicate::new("ghost", CmpOp::Eq, 1i64)),
        );
        assert!(err.is_err());
    }

    #[test]
    fn projection_orders_columns() {
        let s = store_with_days(1, 2);
        let res = s
            .scan("trips", &ScanRequest::all().project(&["fare", "trip_id"]))
            .unwrap();
        assert_eq!(res.rows[0], vec![Value::Float(0.0), Value::Int(0)]);
        assert!(s
            .scan("trips", &ScanRequest::all().project(&["ghost"]))
            .is_err());
    }

    #[test]
    fn column_values_helper() {
        let s = store_with_days(1, 3);
        let vals = s
            .column_values("trips", "fare", &ScanRequest::all())
            .unwrap();
        assert_eq!(
            vals,
            vec![Value::Float(0.0), Value::Float(1.0), Value::Float(2.0)]
        );
    }

    #[test]
    fn flush_then_scan_unchanged() {
        let mut s = store_with_days(2, 10);
        let before = s.scan("trips", &ScanRequest::all()).unwrap().rows;
        s.flush("trips").unwrap();
        let after = s.scan("trips", &ScanRequest::all()).unwrap().rows;
        assert_eq!(before, after);
    }

    #[test]
    fn drop_table() {
        let mut s = store_with_days(1, 1);
        s.drop_table("trips").unwrap();
        assert!(!s.has_table("trips"));
        assert!(s.drop_table("trips").is_err());
    }
}
