//! The dual-write sink: finalized windows are persisted to the online store
//! (for serving) and logged to the offline store (for training) — the exact
//! contract the paper gives for streaming features (§2.2.1).

use crate::aggregator::{StreamAggregator, WindowEmit};
use crate::event::Event;
use fstore_common::{FieldDef, Result, Schema, Value, ValueType};
use fstore_storage::{OfflineDb, OnlineStore, TableConfig};
use std::sync::Arc;

/// Schema of the offline log every streaming feature writes to.
pub(crate) fn stream_log_schema() -> Schema {
    Schema::new(vec![
        FieldDef::not_null("entity", ValueType::Str),
        FieldDef::not_null("window_start", ValueType::Timestamp),
        FieldDef::not_null("window_end", ValueType::Timestamp),
        FieldDef::new("value", ValueType::Float),
        FieldDef::not_null("events", ValueType::Int),
    ])
    .expect("static schema is valid")
}

/// Counters describing what a pipeline has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamPipelineReport {
    pub events_in: u64,
    pub windows_emitted: u64,
    pub late_dropped: u64,
    pub online_writes: u64,
    pub(crate) offline_rows: u64,
}

/// Wires a [`StreamAggregator`] to the dual datastore.
///
/// * online: `put(group, entity, feature, value, window_end)` — the feature
///   becomes servable the instant its window closes, stamped with the window
///   end (its logical freshness).
/// * offline: appended to table `stream_log_<feature>` partitioned by
///   `window_end`, for later training-set construction.
pub struct StreamPipeline {
    aggregator: StreamAggregator,
    group: String,
    log_table: String,
    online: Arc<OnlineStore>,
    offline: OfflineDb,
    report: StreamPipelineReport,
}

impl StreamPipeline {
    pub fn new(
        aggregator: StreamAggregator,
        group: impl Into<String>,
        online: Arc<OnlineStore>,
        offline: OfflineDb,
    ) -> Result<Self> {
        let log_table = format!("stream_log_{}", aggregator.feature());
        if !offline.snapshot().has_table(&log_table) {
            offline.write(|off| {
                if off.has_table(&log_table) {
                    return Ok(());
                }
                off.create_table(
                    &log_table,
                    TableConfig::new(stream_log_schema()).with_time_column("window_end"),
                )
            })?;
        }
        Ok(StreamPipeline {
            aggregator,
            group: group.into(),
            log_table,
            online,
            offline,
            report: StreamPipelineReport::default(),
        })
    }

    pub fn report(&self) -> StreamPipelineReport {
        self.report
    }

    /// Ingest one event; performs the dual write for any closed windows and
    /// returns them.
    pub fn push(&mut self, event: &Event) -> Result<Vec<WindowEmit>> {
        self.report.events_in += 1;
        let emits = self.aggregator.push(event);
        self.sink(&emits)?;
        self.report.late_dropped = self.aggregator.late_dropped();
        Ok(emits)
    }

    /// Close all open windows (end of stream) and sink them.
    pub fn flush(&mut self) -> Result<Vec<WindowEmit>> {
        let emits = self.aggregator.flush();
        self.sink(&emits)?;
        Ok(emits)
    }

    fn sink(&mut self, emits: &[WindowEmit]) -> Result<()> {
        if emits.is_empty() {
            return Ok(());
        }
        for e in emits {
            self.online.put(
                &self.group,
                &e.entity,
                &e.feature,
                e.value.clone(),
                e.window_end,
            );
            self.report.online_writes += 1;
        }
        // One publication per emit batch: readers see either none or all of
        // this batch's log rows.
        self.offline.write(|off| {
            for e in emits {
                off.append(
                    &self.log_table,
                    &[
                        Value::Str(e.entity.as_str().to_string()),
                        Value::Timestamp(e.window_start),
                        Value::Timestamp(e.window_end),
                        e.value.clone(),
                        Value::Int(e.events as i64),
                    ],
                )?;
            }
            Ok(())
        })?;
        self.report.offline_rows += emits.len() as u64;
        self.report.windows_emitted += emits.len() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::WindowSpec;
    use fstore_common::{Duration, EntityKey, Timestamp};
    use fstore_query::AggFunc;
    use fstore_storage::ScanRequest;

    fn ms(x: i64) -> Timestamp {
        Timestamp::millis(x)
    }

    fn pipeline() -> StreamPipeline {
        let agg = StreamAggregator::new(
            "trip_count_1m",
            AggFunc::Count,
            WindowSpec::tumbling(Duration::minutes(1)),
            Duration::ZERO,
        )
        .unwrap();
        StreamPipeline::new(
            agg,
            "user",
            Arc::new(OnlineStore::default()),
            OfflineDb::new(),
        )
        .unwrap()
    }

    #[test]
    fn dual_write_happens_on_window_close() {
        let mut p = pipeline();
        p.push(&Event::new("u1", ms(1_000), 1.0)).unwrap();
        p.push(&Event::new("u1", ms(2_000), 1.0)).unwrap();
        // advance past the first minute
        let emits = p.push(&Event::new("u1", ms(61_000), 1.0)).unwrap();
        assert_eq!(emits.len(), 1);

        // online: value servable, freshness = window end
        let e = p
            .online
            .get("user", &EntityKey::new("u1"), "trip_count_1m")
            .unwrap();
        assert_eq!(e.value, Value::Int(2));
        assert_eq!(e.written_at, ms(60_000));

        // offline: one log row
        let off = p.offline.snapshot();
        let res = off
            .scan("stream_log_trip_count_1m", &ScanRequest::all())
            .unwrap();
        assert_eq!(res.rows.len(), 1);
        assert_eq!(res.rows[0][0], Value::from("u1"));
        assert_eq!(res.rows[0][4], Value::Int(2));
    }

    #[test]
    fn flush_sinks_open_windows() {
        let mut p = pipeline();
        p.push(&Event::new("u1", ms(5), 1.0)).unwrap();
        let emits = p.flush().unwrap();
        assert_eq!(emits.len(), 1);
        let rep = p.report();
        assert_eq!(rep.events_in, 1);
        assert_eq!(rep.windows_emitted, 1);
        assert_eq!(rep.online_writes, 1);
        assert_eq!(rep.offline_rows, 1);
    }

    #[test]
    fn online_value_refreshes_as_windows_roll() {
        let mut p = pipeline();
        for minute in 0..3 {
            for i in 0..=minute {
                p.push(&Event::new("u", ms(minute * 60_000 + i * 100), 1.0))
                    .unwrap();
            }
        }
        p.push(&Event::new("u", ms(200_000), 1.0)).unwrap();
        let e = p
            .online
            .get("user", &EntityKey::new("u"), "trip_count_1m")
            .unwrap();
        assert_eq!(
            e.value,
            Value::Int(3),
            "latest closed window (minute 2) serves"
        );
        assert_eq!(e.written_at, ms(180_000));
    }

    #[test]
    fn reuses_existing_log_table() {
        let online = Arc::new(OnlineStore::default());
        let offline = OfflineDb::new();
        let mk = || {
            StreamAggregator::new(
                "f",
                AggFunc::Count,
                WindowSpec::tumbling(Duration::minutes(1)),
                Duration::ZERO,
            )
            .unwrap()
        };
        let _p1 = StreamPipeline::new(mk(), "g", Arc::clone(&online), offline.clone()).unwrap();
        // second pipeline on the same feature shares the log table
        let _p2 = StreamPipeline::new(mk(), "g", online, offline).unwrap();
    }
}
