//! Immutable columnar segments with zone maps.
//!
//! A segment is the unit of storage inside a partition: a batch of rows laid
//! out column-wise, sealed with per-column min/max/null statistics (the zone
//! map) that scans use to skip whole segments without touching data.

use crate::column::Column;
use crate::predicate::Predicate;
use fstore_common::{FsError, Result, Schema, Value};

/// Per-column min/max (by [`Value::total_cmp`], ignoring nulls) + null count.
#[derive(Debug, Clone)]
pub(crate) struct ZoneMap {
    pub(crate) min: Option<Value>,
    pub(crate) max: Option<Value>,
    pub(crate) null_count: usize,
}

/// An immutable, sealed batch of rows. Fields are crate-visible so the
/// on-disk segment format (`crate::disk`) can persist columns and zone maps
/// and reconstruct a sealed segment without replaying rows.
#[derive(Debug, Clone)]
pub(crate) struct Segment {
    pub(crate) schema: Schema,
    pub(crate) columns: Vec<Column>,
    pub(crate) zone_maps: Vec<ZoneMap>,
    pub(crate) rows: usize,
}

impl Segment {
    pub(crate) fn num_rows(&self) -> usize {
        self.rows
    }

    pub(crate) fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Can this segment possibly contain a row matching all `predicates`?
    /// Unknown predicate columns are ignored (conservative).
    pub(crate) fn may_match(&self, predicates: &[Predicate]) -> bool {
        predicates
            .iter()
            .all(|p| match self.schema.index_of(&p.column) {
                Some(i) => {
                    let zm = &self.zone_maps[i];
                    p.may_match_range(zm.min.as_ref(), zm.max.as_ref())
                }
                None => true,
            })
    }

    /// Indices of rows matching all predicates (row-level evaluation).
    pub(crate) fn matching_rows(&self, predicates: &[Predicate]) -> Vec<usize> {
        let bound: Vec<(usize, &Predicate)> = predicates
            .iter()
            .filter_map(|p| self.schema.index_of(&p.column).map(|i| (i, p)))
            .collect();
        // Predicates naming unknown columns match nothing (they were already
        // validated at the store level; this is defense in depth).
        if bound.len() != predicates.len() {
            return Vec::new();
        }
        (0..self.rows)
            .filter(|&r| {
                bound
                    .iter()
                    .all(|(ci, p)| p.matches(&self.columns[*ci].get(r)))
            })
            .collect()
    }
}

/// Accumulates rows and seals them into a [`Segment`].
///
/// `Clone` exists for the offline store's copy-on-write publication: a
/// snapshot may share the open builder with the writer, which then clones it
/// before mutating (cost bounded by the table's `segment_rows`).
#[derive(Debug, Clone)]
pub(crate) struct SegmentBuilder {
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
}

impl SegmentBuilder {
    pub(crate) fn new(schema: Schema) -> Self {
        let columns = schema.fields().iter().map(|f| Column::new(f.ty)).collect();
        SegmentBuilder {
            schema,
            columns,
            rows: 0,
        }
    }

    pub(crate) fn num_rows(&self) -> usize {
        self.rows
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Read back row `i` from the (still open) builder — lets scans see
    /// not-yet-sealed rows without forcing a flush.
    pub(crate) fn peek_row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(i)).collect()
    }

    /// Append a schema-checked row. On error the builder is unchanged.
    pub(crate) fn push_row(&mut self, row: &[Value]) -> Result<()> {
        self.schema.check_row(row)?;
        for (c, v) in self.columns.iter_mut().zip(row) {
            c.push(v).expect("schema check guarantees pushes succeed");
        }
        self.rows += 1;
        Ok(())
    }

    /// Seal into an immutable segment, computing zone maps.
    pub(crate) fn finish(self) -> Result<Segment> {
        if self.rows == 0 {
            return Err(FsError::Storage("refusing to seal an empty segment".into()));
        }
        let zone_maps = self
            .columns
            .iter()
            .map(|col| {
                let mut min: Option<Value> = None;
                let mut max: Option<Value> = None;
                for i in 0..col.len() {
                    let v = col.get(i);
                    if v.is_null() {
                        continue;
                    }
                    match &min {
                        Some(m) if v.total_cmp(m) != std::cmp::Ordering::Less => {}
                        _ => min = Some(v.clone()),
                    }
                    match &max {
                        Some(m) if v.total_cmp(m) != std::cmp::Ordering::Greater => {}
                        _ => max = Some(v),
                    }
                }
                ZoneMap {
                    min,
                    max,
                    null_count: col.null_count(),
                }
            })
            .collect();
        Ok(Segment {
            schema: self.schema,
            columns: self.columns,
            zone_maps,
            rows: self.rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use fstore_common::ValueType;

    fn schema() -> Schema {
        Schema::of(&[
            ("id", ValueType::Int),
            ("fare", ValueType::Float),
            ("city", ValueType::Str),
        ])
    }

    fn sample_segment() -> Segment {
        let mut b = SegmentBuilder::new(schema());
        b.push_row(&[Value::Int(1), Value::Float(10.0), Value::from("sf")])
            .unwrap();
        b.push_row(&[Value::Int(2), Value::Null, Value::from("nyc")])
            .unwrap();
        b.push_row(&[Value::Int(3), Value::Float(30.0), Value::from("sf")])
            .unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn builder_round_trip() {
        let s = sample_segment();
        assert_eq!(s.num_rows(), 3);
        assert_eq!(
            s.columns.iter().map(|c| c.get(1)).collect::<Vec<_>>(),
            vec![Value::Int(2), Value::Null, Value::from("nyc")]
        );
    }

    #[test]
    fn rejects_bad_rows_atomically() {
        let mut b = SegmentBuilder::new(schema());
        assert!(b.push_row(&[Value::Int(1)]).is_err());
        assert!(b
            .push_row(&[Value::from("x"), Value::Null, Value::Null])
            .is_err());
        assert_eq!(b.num_rows(), 0);
    }

    #[test]
    fn empty_segment_rejected() {
        assert!(SegmentBuilder::new(schema()).finish().is_err());
    }

    #[test]
    fn zone_maps_computed() {
        let s = sample_segment();
        let zm_id = &s.zone_maps[0];
        assert_eq!(zm_id.min, Some(Value::Int(1)));
        assert_eq!(zm_id.max, Some(Value::Int(3)));
        assert_eq!(zm_id.null_count, 0);
        let zm_fare = &s.zone_maps[1];
        assert_eq!(zm_fare.min, Some(Value::Float(10.0)));
        assert_eq!(zm_fare.max, Some(Value::Float(30.0)));
        assert_eq!(zm_fare.null_count, 1);
        let zm_city = &s.zone_maps[2];
        assert_eq!(zm_city.min, Some(Value::from("nyc")));
        assert_eq!(zm_city.max, Some(Value::from("sf")));
    }

    #[test]
    fn may_match_prunes_out_of_range() {
        let s = sample_segment();
        assert!(!s.may_match(&[Predicate::new("id", CmpOp::Gt, 100i64)]));
        assert!(s.may_match(&[Predicate::new("id", CmpOp::Gt, 2i64)]));
        // unknown column: conservative
        assert!(s.may_match(&[Predicate::new("ghost", CmpOp::Eq, 1i64)]));
    }

    #[test]
    fn matching_rows_applies_all_predicates() {
        let s = sample_segment();
        let rows = s.matching_rows(&[
            Predicate::new("city", CmpOp::Eq, "sf"),
            Predicate::new("fare", CmpOp::Ge, 20.0),
        ]);
        assert_eq!(rows, vec![2]);
        // null fare row never matches numeric predicate
        let rows = s.matching_rows(&[Predicate::new("fare", CmpOp::Le, 1e9)]);
        assert_eq!(rows, vec![0, 2]);
    }

    #[test]
    fn matching_rows_unknown_column_matches_nothing() {
        let s = sample_segment();
        assert!(s
            .matching_rows(&[Predicate::new("ghost", CmpOp::Eq, 1i64)])
            .is_empty());
    }

    #[test]
    fn all_null_column_zone_map() {
        let schema = Schema::of(&[("x", ValueType::Int)]);
        let mut b = SegmentBuilder::new(schema);
        b.push_row(&[Value::Null]).unwrap();
        let s = b.finish().unwrap();
        assert_eq!(s.zone_maps[0].min, None);
        assert_eq!(s.zone_maps[0].max, None);
        assert_eq!(s.zone_maps[0].null_count, 1);
        // pruning on an all-null column: no bounds → conservative true,
        // but row-level match is false.
        let p = Predicate::new("x", CmpOp::Eq, 1i64);
        assert!(s.may_match(std::slice::from_ref(&p)));
        assert!(s.matching_rows(&[p]).is_empty());
    }
}
