//! The binary on-disk format for the offline store: columnar segments with
//! zone maps, CRC-guarded.
//!
//! It persists the *physical* layout rather than replaying rows through
//! the append path: typed column vectors, packed null bitmaps, and the
//! sealed segments' zone maps, so a restore is a straight memcpy-shaped
//! decode plus `Arc` wrapping instead of re-checking schemas, re-routing
//! partitions, and recomputing zone maps for data that was validated when
//! it was first written. The open (unsealed) builder of each partition is
//! the one part replayed through `push_row`, bounded by `segment_rows`.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! "FSTB" | version u32 | payload_len u64 | crc32(payload) u32 | payload
//! payload := table_count u32, then per table:
//!   name, schema, time_column?, segment_rows u64, rows u64,
//!   partition_count u32, then per partition:
//!     date_days i32, sealed_count u32, sealed segments..., open rows?
//! segment := rows u64, columns (data + null bitmap), zone maps (min/max/nulls)
//! ```
//!
//! Floats are stored as raw IEEE-754 bits, so round-trips are bit-exact by
//! construction.

use crate::column::{Column, NullBitmap};
use crate::offline::{OfflineStore, Partition, Table, TableConfig};
use crate::segment::{Segment, SegmentBuilder, ZoneMap};
use fstore_common::{crc32, Date, FieldDef, FsError, Result, Schema, Timestamp, Value, ValueType};
use std::collections::BTreeMap;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"FSTB";
const FORMAT_VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// Primitive writers / readers
// ---------------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked reader over the payload; every failure is a
/// [`FsError::Corruption`] naming the offset.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn corrupt(&self, what: &str) -> FsError {
        FsError::Corruption(format!(
            "segment file truncated reading {what} at byte {}",
            self.pos
        ))
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(self.corrupt(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn i64(&mut self, what: &str) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn i32(&mut self, what: &str) -> Result<i32> {
        Ok(i32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn f64(&mut self, what: &str) -> Result<f64> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn str(&mut self, what: &str) -> Result<String> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| FsError::Corruption(format!("non-UTF-8 string in {what}")))
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ---------------------------------------------------------------------------
// Values, schemas
// ---------------------------------------------------------------------------

fn type_tag(ty: ValueType) -> u8 {
    match ty {
        ValueType::Int => 1,
        ValueType::Float => 2,
        ValueType::Bool => 3,
        ValueType::Str => 4,
        ValueType::Timestamp => 5,
    }
}

fn tag_type(tag: u8) -> Result<ValueType> {
    Ok(match tag {
        1 => ValueType::Int,
        2 => ValueType::Float,
        3 => ValueType::Bool,
        4 => ValueType::Str,
        5 => ValueType::Timestamp,
        t => return Err(FsError::Corruption(format!("unknown value-type tag {t}"))),
    })
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => put_u8(out, 0),
        Value::Int(i) => {
            put_u8(out, 1);
            put_i64(out, *i);
        }
        Value::Float(f) => {
            put_u8(out, 2);
            put_f64(out, *f);
        }
        Value::Bool(b) => {
            put_u8(out, 3);
            put_u8(out, u8::from(*b));
        }
        Value::Str(s) => {
            put_u8(out, 4);
            put_str(out, s);
        }
        Value::Timestamp(t) => {
            put_u8(out, 5);
            put_i64(out, t.as_millis());
        }
    }
}

fn get_value(c: &mut Cursor<'_>) -> Result<Value> {
    Ok(match c.u8("value tag")? {
        0 => Value::Null,
        1 => Value::Int(c.i64("int value")?),
        2 => Value::Float(c.f64("float value")?),
        3 => Value::Bool(c.u8("bool value")? != 0),
        4 => Value::Str(c.str("string value")?),
        5 => Value::Timestamp(Timestamp::millis(c.i64("timestamp value")?)),
        t => return Err(FsError::Corruption(format!("unknown value tag {t}"))),
    })
}

fn put_opt_value(out: &mut Vec<u8>, v: &Option<Value>) {
    match v {
        None => put_u8(out, 0),
        Some(v) => {
            put_u8(out, 1);
            put_value(out, v);
        }
    }
}

fn get_opt_value(c: &mut Cursor<'_>) -> Result<Option<Value>> {
    Ok(match c.u8("option flag")? {
        0 => None,
        1 => Some(get_value(c)?),
        t => return Err(FsError::Corruption(format!("bad option flag {t}"))),
    })
}

fn put_schema(out: &mut Vec<u8>, schema: &Schema) {
    put_u32(out, schema.len() as u32);
    for f in schema.fields() {
        put_str(out, &f.name);
        put_u8(out, type_tag(f.ty));
        put_u8(out, u8::from(f.nullable));
    }
}

fn get_schema(c: &mut Cursor<'_>) -> Result<Schema> {
    let n = c.u32("field count")? as usize;
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        let name = c.str("field name")?;
        let ty = tag_type(c.u8("field type")?)?;
        let nullable = c.u8("field nullable")? != 0;
        fields.push(FieldDef { name, ty, nullable });
    }
    Schema::new(fields)
}

// ---------------------------------------------------------------------------
// Columns, segments
// ---------------------------------------------------------------------------

fn put_bitmap(out: &mut Vec<u8>, b: &NullBitmap) {
    put_u64(out, b.len as u64);
    put_u64(out, b.null_count as u64);
    put_u32(out, b.words.len() as u32);
    for w in &b.words {
        put_u64(out, *w);
    }
}

fn get_bitmap(c: &mut Cursor<'_>) -> Result<NullBitmap> {
    let len = c.u64("bitmap len")? as usize;
    let null_count = c.u64("bitmap null count")? as usize;
    let n_words = c.u32("bitmap word count")? as usize;
    if n_words != len.div_ceil(64) || null_count > len {
        return Err(FsError::Corruption(format!(
            "bitmap claims {len} rows, {null_count} nulls in {n_words} words"
        )));
    }
    let mut words = Vec::with_capacity(n_words);
    for _ in 0..n_words {
        words.push(c.u64("bitmap word")?);
    }
    Ok(NullBitmap {
        words,
        len,
        null_count,
    })
}

fn put_column(out: &mut Vec<u8>, col: &Column) {
    put_u8(out, type_tag(col.value_type()));
    match col {
        Column::Int { data, nulls } | Column::Timestamp { data, nulls } => {
            put_bitmap(out, nulls);
            for v in data {
                put_i64(out, *v);
            }
        }
        Column::Float { data, nulls } => {
            put_bitmap(out, nulls);
            for v in data {
                put_f64(out, *v);
            }
        }
        Column::Bool { data, nulls } => {
            put_bitmap(out, nulls);
            for v in data {
                put_u8(out, u8::from(*v));
            }
        }
        Column::Str { data, nulls } => {
            put_bitmap(out, nulls);
            for v in data {
                put_str(out, v);
            }
        }
    }
}

fn get_column(c: &mut Cursor<'_>, rows: usize) -> Result<Column> {
    let ty = tag_type(c.u8("column type")?)?;
    let nulls = get_bitmap(c)?;
    if nulls.len() != rows {
        return Err(FsError::Corruption(format!(
            "column bitmap has {} rows, segment claims {rows}",
            nulls.len()
        )));
    }
    Ok(match ty {
        ValueType::Int | ValueType::Timestamp => {
            let mut data = Vec::with_capacity(rows);
            for _ in 0..rows {
                data.push(c.i64("int cell")?);
            }
            if ty == ValueType::Int {
                Column::Int { data, nulls }
            } else {
                Column::Timestamp { data, nulls }
            }
        }
        ValueType::Float => {
            let mut data = Vec::with_capacity(rows);
            for _ in 0..rows {
                data.push(c.f64("float cell")?);
            }
            Column::Float { data, nulls }
        }
        ValueType::Bool => {
            let mut data = Vec::with_capacity(rows);
            for _ in 0..rows {
                data.push(c.u8("bool cell")? != 0);
            }
            Column::Bool { data, nulls }
        }
        ValueType::Str => {
            let mut data = Vec::with_capacity(rows);
            for _ in 0..rows {
                data.push(c.str("string cell")?);
            }
            Column::Str { data, nulls }
        }
    })
}

fn put_segment(out: &mut Vec<u8>, seg: &Segment) {
    put_u64(out, seg.rows as u64);
    for col in &seg.columns {
        put_column(out, col);
    }
    for zm in &seg.zone_maps {
        put_opt_value(out, &zm.min);
        put_opt_value(out, &zm.max);
        put_u64(out, zm.null_count as u64);
    }
}

fn get_segment(c: &mut Cursor<'_>, schema: &Schema) -> Result<Segment> {
    let rows = c.u64("segment row count")? as usize;
    if rows == 0 {
        return Err(FsError::Corruption("sealed segment with zero rows".into()));
    }
    let mut columns = Vec::with_capacity(schema.len());
    for field in schema.fields() {
        let col = get_column(c, rows)?;
        if col.value_type() != field.ty {
            return Err(FsError::Corruption(format!(
                "column `{}` decoded as {} but schema says {}",
                field.name,
                col.value_type(),
                field.ty
            )));
        }
        columns.push(col);
    }
    let mut zone_maps = Vec::with_capacity(schema.len());
    for _ in 0..schema.len() {
        zone_maps.push(ZoneMap {
            min: get_opt_value(c)?,
            max: get_opt_value(c)?,
            null_count: c.u64("zone map null count")? as usize,
        });
    }
    Ok(Segment {
        schema: schema.clone(),
        columns,
        zone_maps,
        rows,
    })
}

// ---------------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------------

impl OfflineStore {
    /// Serialize the whole store in the binary columnar format.
    pub fn encode_binary(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        put_u32(&mut payload, self.tables.len() as u32);
        for (name, table) in &self.tables {
            put_str(&mut payload, name);
            put_schema(&mut payload, &table.config.schema);
            match &table.config.time_column {
                None => put_u8(&mut payload, 0),
                Some(col) => {
                    put_u8(&mut payload, 1);
                    put_str(&mut payload, col);
                }
            }
            put_u64(&mut payload, table.config.segment_rows as u64);
            put_u64(&mut payload, table.rows as u64);
            put_u32(&mut payload, table.partitions.len() as u32);
            for (date, part) in &table.partitions {
                put_i32(&mut payload, date.days_since_epoch());
                put_u32(&mut payload, part.sealed.len() as u32);
                for seg in &part.sealed {
                    put_segment(&mut payload, seg);
                }
                match &part.open {
                    None => put_u8(&mut payload, 0),
                    Some(open) => {
                        put_u8(&mut payload, 1);
                        put_u32(&mut payload, open.num_rows() as u32);
                        for r in 0..open.num_rows() {
                            for v in open.peek_row(r) {
                                put_value(&mut payload, &v);
                            }
                        }
                    }
                }
            }
        }

        let mut out = Vec::with_capacity(payload.len() + 20);
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, FORMAT_VERSION);
        put_u64(&mut out, payload.len() as u64);
        put_u32(&mut out, crc32(&payload));
        out.extend_from_slice(&payload);
        out
    }

    /// Rebuild a store from [`Self::encode_binary`] bytes. Sealed segments
    /// are installed directly (columns, bitmaps, and zone maps come off the
    /// disk); only each partition's open builder is replayed through the
    /// validated append path.
    pub fn decode_binary(bytes: &[u8]) -> Result<OfflineStore> {
        if bytes.len() < 20 || &bytes[..4] != MAGIC {
            return Err(FsError::Corruption("bad magic in segment file".into()));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(FsError::Storage(format!(
                "unsupported segment format v{version} (expected v{FORMAT_VERSION})"
            )));
        }
        let payload_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        let want_crc = u32::from_le_bytes(bytes[16..20].try_into().unwrap());
        let payload = &bytes[20..];
        if payload.len() != payload_len {
            return Err(FsError::Corruption(format!(
                "segment file payload is {} bytes, header claims {payload_len}",
                payload.len()
            )));
        }
        let got_crc = crc32(payload);
        if got_crc != want_crc {
            return Err(FsError::Corruption(format!(
                "segment file checksum mismatch: stored {want_crc:#010x}, computed {got_crc:#010x}"
            )));
        }

        let mut c = Cursor::new(payload);
        let table_count = c.u32("table count")? as usize;
        let mut tables = BTreeMap::new();
        for _ in 0..table_count {
            let name = c.str("table name")?;
            let schema = get_schema(&mut c)?;
            let time_column = match c.u8("time column flag")? {
                0 => None,
                _ => Some(c.str("time column")?),
            };
            let segment_rows = c.u64("segment rows")? as usize;
            let rows = c.u64("table row count")? as usize;

            let mut config = TableConfig::new(schema.clone()).with_segment_rows(segment_rows);
            let time_idx = match &time_column {
                Some(col) => {
                    let idx = schema.index_of(col).ok_or_else(|| {
                        FsError::Corruption(format!(
                            "table `{name}` names time column `{col}` missing from its schema"
                        ))
                    })?;
                    config = config.with_time_column(col.clone());
                    Some(idx)
                }
                None => None,
            };

            let partition_count = c.u32("partition count")? as usize;
            let mut partitions = BTreeMap::new();
            let mut decoded_rows = 0usize;
            for _ in 0..partition_count {
                let date = Date::from_days(c.i32("partition date")?);
                let sealed_count = c.u32("sealed segment count")? as usize;
                let mut part = Partition::default();
                for _ in 0..sealed_count {
                    let seg = get_segment(&mut c, &schema)?;
                    decoded_rows += seg.num_rows();
                    part.sealed.push(Arc::new(seg));
                }
                if c.u8("open builder flag")? != 0 {
                    let open_rows = c.u32("open row count")? as usize;
                    let mut builder = SegmentBuilder::new(schema.clone());
                    for _ in 0..open_rows {
                        let row: Vec<Value> = (0..schema.len())
                            .map(|_| get_value(&mut c))
                            .collect::<Result<_>>()?;
                        builder.push_row(&row)?;
                    }
                    decoded_rows += open_rows;
                    part.open = Some(Arc::new(builder));
                }
                partitions.insert(date, part);
            }
            if decoded_rows != rows {
                return Err(FsError::Corruption(format!(
                    "table `{name}` decoded {decoded_rows} rows, header claims {rows}"
                )));
            }
            tables.insert(
                name,
                Arc::new(Table {
                    config,
                    time_idx,
                    partitions,
                    rows,
                }),
            );
        }
        if !c.done() {
            return Err(FsError::Corruption(format!(
                "{} trailing bytes after the last table",
                payload.len() - c.pos
            )));
        }
        Ok(OfflineStore { tables })
    }

    /// Write the binary encoding to `path` (no atomicity — callers that
    /// need crash safety write a temp file and rename, as the checkpoint
    /// manifest in `fstore-durable` does).
    pub fn save_binary(&self, path: &std::path::Path) -> Result<()> {
        std::fs::write(path, self.encode_binary())
            .map_err(|e| FsError::Storage(format!("write segment file: {e}")))
    }

    /// Load a store from a [`Self::save_binary`] file.
    pub fn load_binary(path: &std::path::Path) -> Result<OfflineStore> {
        let bytes =
            std::fs::read(path).map_err(|e| FsError::Storage(format!("read segment file: {e}")))?;
        Self::decode_binary(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::ScanRequest;
    use crate::predicate::{CmpOp, Predicate};

    fn sample_store() -> OfflineStore {
        let mut s = OfflineStore::new();
        s.create_table(
            "trips",
            TableConfig::new(Schema::of(&[
                ("user", ValueType::Str),
                ("ts", ValueType::Timestamp),
                ("fare", ValueType::Float),
                ("ok", ValueType::Bool),
            ]))
            .with_time_column("ts")
            .with_segment_rows(4),
        )
        .unwrap();
        for i in 0..11i64 {
            s.append(
                "trips",
                &[
                    Value::from(format!("u{}", i % 3)),
                    Value::Timestamp(Timestamp::millis(i * 3_600_000)),
                    if i == 5 {
                        Value::Null
                    } else {
                        Value::Float(i as f64 + 0.25)
                    },
                    Value::Bool(i % 2 == 0),
                ],
            )
            .unwrap();
        }
        s.create_table(
            "plain",
            TableConfig::new(Schema::of(&[("x", ValueType::Int)])),
        )
        .unwrap();
        s.append("plain", &[Value::Int(7)]).unwrap();
        s.create_table(
            "empty",
            TableConfig::new(Schema::of(&[("y", ValueType::Int)])),
        )
        .unwrap();
        s
    }

    #[test]
    fn binary_round_trip_preserves_everything() {
        let original = sample_store();
        let restored = OfflineStore::decode_binary(&original.encode_binary()).unwrap();

        assert_eq!(restored.table_names(), original.table_names());
        for t in original.table_names() {
            assert_eq!(restored.num_rows(t).unwrap(), original.num_rows(t).unwrap());
            assert_eq!(restored.schema(t).unwrap(), original.schema(t).unwrap());
            assert_eq!(
                restored.partition_dates(t).unwrap(),
                original.partition_dates(t).unwrap()
            );
            assert_eq!(
                restored.time_column(t).unwrap(),
                original.time_column(t).unwrap()
            );
            assert_eq!(
                restored.segment_rows(t).unwrap(),
                original.segment_rows(t).unwrap()
            );
            let a = original.scan(t, &ScanRequest::all()).unwrap();
            let b = restored.scan(t, &ScanRequest::all()).unwrap();
            assert_eq!(a.rows, b.rows, "table {t}");
            // Same physical layout: identical segment/partition counts mean
            // identical pruning behaviour, not just identical answers.
            assert_eq!(a.stats, b.stats, "table {t}");
        }
    }

    #[test]
    fn zone_maps_survive_and_still_prune() {
        let mut s = OfflineStore::new();
        s.create_table(
            "t",
            TableConfig::new(Schema::of(&[("x", ValueType::Int)])).with_segment_rows(8),
        )
        .unwrap();
        for i in 0..32i64 {
            s.append("t", &[Value::Int(i)]).unwrap();
        }
        s.flush("t").unwrap();
        let restored = OfflineStore::decode_binary(&s.encode_binary()).unwrap();
        let req = ScanRequest::all().filter(Predicate::new("x", CmpOp::Ge, 24i64));
        let res = restored.scan("t", &req).unwrap();
        assert_eq!(res.rows.len(), 8);
        assert!(
            res.stats.segments_scanned < res.stats.segments_total,
            "persisted zone maps must keep pruning: {:?}",
            res.stats
        );
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        let hostile = 27.912_789_275_389_894_f64;
        let mut s = OfflineStore::new();
        s.create_table(
            "t",
            TableConfig::new(Schema::of(&[("x", ValueType::Float)])),
        )
        .unwrap();
        s.append("t", &[Value::Float(hostile)]).unwrap();
        let restored = OfflineStore::decode_binary(&s.encode_binary()).unwrap();
        let rows = restored.scan("t", &ScanRequest::all()).unwrap().rows;
        assert_eq!(rows[0][0], Value::Float(hostile));
    }

    #[test]
    fn restored_store_accepts_further_appends() {
        let original = sample_store();
        let mut restored = OfflineStore::decode_binary(&original.encode_binary()).unwrap();
        // Partition routing, segment sealing, and schema checks must all
        // still work on reconstructed tables.
        restored
            .append(
                "trips",
                &[
                    Value::from("u9"),
                    Value::Timestamp(Timestamp::millis(99 * 3_600_000)),
                    Value::Float(1.0),
                    Value::Bool(true),
                ],
            )
            .unwrap();
        assert_eq!(restored.num_rows("trips").unwrap(), 12);
        assert!(restored.append("plain", &[Value::from("wrong")]).is_err());
    }

    #[test]
    fn corruption_is_detected() {
        let s = sample_store();
        let good = s.encode_binary();

        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            OfflineStore::decode_binary(&bad),
            Err(FsError::Corruption(_))
        ));

        // Any single corrupted payload byte fails the CRC.
        let mut bad = good.clone();
        let mid = 20 + (bad.len() - 20) / 2;
        bad[mid] ^= 0x01;
        let err = OfflineStore::decode_binary(&bad).unwrap_err();
        assert!(
            matches!(err, FsError::Corruption(ref m) if m.contains("checksum")),
            "{err}"
        );

        // Truncation fails the length check before any parsing.
        let err = OfflineStore::decode_binary(&good[..good.len() - 3]).unwrap_err();
        assert!(matches!(err, FsError::Corruption(_)), "{err}");

        // Unsupported version is an upgrade error, not corruption.
        let mut bad = good.clone();
        bad[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            OfflineStore::decode_binary(&bad),
            Err(FsError::Storage(_))
        ));
    }

    #[test]
    fn empty_store_round_trips() {
        let s = OfflineStore::new();
        let restored = OfflineStore::decode_binary(&s.encode_binary()).unwrap();
        assert!(restored.table_names().is_empty());
    }

    #[test]
    fn file_round_trip() {
        let original = sample_store();
        let dir = std::env::temp_dir().join("fstore_disk_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.fstb");
        original.save_binary(&path).unwrap();
        let restored = OfflineStore::load_binary(&path).unwrap();
        assert_eq!(restored.num_rows("trips").unwrap(), 11);
        std::fs::remove_file(&path).ok();
    }
}
