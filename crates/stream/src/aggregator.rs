//! Watermarked, per-entity window aggregation.

use crate::event::Event;
use crate::window::WindowSpec;
use fstore_common::hash::FxHashMap;
use fstore_common::{Duration, EntityKey, Result, Timestamp, Value};
use fstore_query::{AggAccumulator, AggFunc};
use std::collections::BTreeMap;

/// A finalized window value, ready for the dual write.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowEmit {
    pub(crate) feature: String,
    pub(crate) entity: EntityKey,
    pub(crate) window_start: Timestamp,
    pub(crate) window_end: Timestamp,
    pub(crate) value: Value,
    /// Number of events that contributed.
    pub(crate) events: u64,
}

struct OpenWindow {
    accs: FxHashMap<EntityKey, (AggAccumulator, u64)>,
}

/// Applies one aggregate function over one window spec, per entity, with a
/// watermark that trails the maximum seen event time by the allowed
/// lateness. Windows are finalized (emitted exactly once) when the
/// watermark passes their end; events arriving after their window closed
/// are counted in `StreamAggregator::late_dropped` and discarded.
pub struct StreamAggregator {
    feature: String,
    func: AggFunc,
    window: WindowSpec,
    allowed_lateness: Duration,
    /// open windows keyed by (end, start) so finalization pops in end order
    open: BTreeMap<(Timestamp, Timestamp), OpenWindow>,
    max_event_time: Option<Timestamp>,
    late_dropped: u64,
}

impl StreamAggregator {
    pub fn new(
        feature: impl Into<String>,
        func: AggFunc,
        window: WindowSpec,
        allowed_lateness: Duration,
    ) -> Result<Self> {
        window.validate()?;
        Ok(StreamAggregator {
            feature: feature.into(),
            func,
            window,
            allowed_lateness,
            open: BTreeMap::new(),
            max_event_time: None,
            late_dropped: 0,
        })
    }

    pub(crate) fn feature(&self) -> &str {
        &self.feature
    }

    /// Current watermark: max event time minus allowed lateness.
    pub(crate) fn watermark(&self) -> Option<Timestamp> {
        self.max_event_time.map(|t| t - self.allowed_lateness)
    }

    pub(crate) fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    /// Ingest one event; returns any windows the advancing watermark closed.
    pub(crate) fn push(&mut self, event: &Event) -> Vec<WindowEmit> {
        // Drop events already behind the watermark's closed windows.
        if let Some(w) = self.watermark() {
            if self
                .window
                .assign(event.event_time)
                .iter()
                .all(|&s| self.window.end_of(s) <= w)
            {
                self.late_dropped += 1;
                return Vec::new();
            }
        }
        for start in self.window.assign(event.event_time) {
            let end = self.window.end_of(start);
            // Skip sub-windows that already closed (partial lateness).
            if self.watermark().is_some_and(|w| end <= w) {
                continue;
            }
            let win = self.open.entry((end, start)).or_insert_with(|| OpenWindow {
                accs: FxHashMap::default(),
            });
            let (acc, n) = win
                .accs
                .entry(event.entity.clone())
                .or_insert_with(|| (self.func.accumulator(), 0));
            acc.push(&event.value);
            *n += 1;
        }
        // Advance the watermark and finalize.
        let advanced = self.max_event_time.is_none_or(|m| event.event_time > m);
        if advanced {
            self.max_event_time = Some(event.event_time);
        }
        self.finalize_up_to_watermark()
    }

    fn finalize_up_to_watermark(&mut self) -> Vec<WindowEmit> {
        let Some(wm) = self.watermark() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        while let Some((&(end, start), _)) = self.open.first_key_value() {
            if end > wm {
                break;
            }
            let win = self.open.remove(&(end, start)).unwrap();
            self.emit_window(start, end, win, &mut out);
        }
        out
    }

    /// Force-close every open window (end of stream).
    pub(crate) fn flush(&mut self) -> Vec<WindowEmit> {
        let mut out = Vec::new();
        let open = std::mem::take(&mut self.open);
        for ((end, start), win) in open {
            self.emit_window(start, end, win, &mut out);
        }
        out
    }

    fn emit_window(
        &self,
        start: Timestamp,
        end: Timestamp,
        win: OpenWindow,
        out: &mut Vec<WindowEmit>,
    ) {
        let mut emits: Vec<WindowEmit> = win
            .accs
            .into_iter()
            .map(|(entity, (acc, events))| WindowEmit {
                feature: self.feature.clone(),
                entity,
                window_start: start,
                window_end: end,
                value: acc.finish(),
                events,
            })
            .collect();
        emits.sort_by(|a, b| a.entity.cmp(&b.entity));
        out.extend(emits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: i64) -> Timestamp {
        Timestamp::millis(x)
    }

    fn agg(func: AggFunc, size: i64, lateness: i64) -> StreamAggregator {
        StreamAggregator::new(
            "f",
            func,
            WindowSpec::tumbling(Duration::millis(size)),
            Duration::millis(lateness),
        )
        .unwrap()
    }

    #[test]
    fn tumbling_sum_per_entity() {
        let mut a = agg(AggFunc::Sum, 10, 0);
        assert!(a.push(&Event::new("u1", ms(1), 1.0)).is_empty());
        assert!(a.push(&Event::new("u2", ms(2), 2.0)).is_empty());
        assert!(a.push(&Event::new("u1", ms(5), 3.0)).is_empty());
        // event at t=12 advances watermark to 12 → window [0,10) closes
        let emits = a.push(&Event::new("u1", ms(12), 9.0));
        assert_eq!(emits.len(), 2);
        assert_eq!(emits[0].entity.as_str(), "u1");
        assert_eq!(emits[0].value, Value::Float(4.0));
        assert_eq!(emits[0].events, 2);
        assert_eq!(emits[1].entity.as_str(), "u2");
        assert_eq!(emits[1].value, Value::Float(2.0));
        assert_eq!(
            (emits[0].window_start, emits[0].window_end),
            (ms(0), ms(10))
        );
    }

    #[test]
    fn lateness_holds_windows_open() {
        let mut a = agg(AggFunc::Count, 10, 5);
        a.push(&Event::new("u", ms(1), 1.0));
        // t=12: watermark 7 < 10 → window still open
        assert!(a.push(&Event::new("u", ms(12), 1.0)).is_empty());
        // out-of-order event for the old window is still accepted
        assert!(a.push(&Event::new("u", ms(9), 1.0)).is_empty());
        assert_eq!(a.late_dropped(), 0);
        // t=15: watermark 10 → closes [0,10) with 2 events
        let emits = a.push(&Event::new("u", ms(15), 1.0));
        assert_eq!(emits.len(), 1);
        assert_eq!(emits[0].value, Value::Int(2));
    }

    #[test]
    fn too_late_events_are_dropped_and_counted() {
        let mut a = agg(AggFunc::Count, 10, 0);
        a.push(&Event::new("u", ms(1), 1.0));
        a.push(&Event::new("u", ms(25), 1.0)); // closes [0,10), watermark 25
        let emits = a.push(&Event::new("u", ms(3), 1.0)); // for closed window
        assert!(emits.is_empty());
        assert_eq!(a.late_dropped(), 1);
        // flush emits only the open [20,30) window
        let emits = a.flush();
        assert_eq!(emits.len(), 1);
        assert_eq!(emits[0].window_start, ms(20));
        assert_eq!(emits[0].value, Value::Int(1));
    }

    #[test]
    fn sliding_windows_emit_overlapping_counts() {
        let mut a = StreamAggregator::new(
            "f",
            AggFunc::Count,
            WindowSpec::sliding(Duration::millis(10), Duration::millis(5)),
            Duration::ZERO,
        )
        .unwrap();
        let mut emits = Vec::new();
        emits.extend(a.push(&Event::new("u", ms(3), 1.0))); // windows [-5,5) and [0,10)
        emits.extend(a.push(&Event::new("u", ms(7), 1.0))); // windows [0,10) and [5,15)
        emits.extend(a.push(&Event::new("u", ms(20), 1.0)));
        emits.extend(a.flush());
        let find = |start: i64| {
            emits
                .iter()
                .find(|e| e.window_start == ms(start))
                .map(|e| e.value.clone())
        };
        assert_eq!(find(-5), Some(Value::Int(1)));
        assert_eq!(find(0), Some(Value::Int(2)));
        assert_eq!(find(5), Some(Value::Int(1)));
    }

    #[test]
    fn watermark_never_regresses() {
        let mut a = agg(AggFunc::Count, 10, 0);
        a.push(&Event::new("u", ms(50), 1.0));
        a.push(&Event::new("u", ms(45), 1.0)); // older event, watermark stays 50
        assert_eq!(a.watermark(), Some(ms(50)));
    }

    #[test]
    fn emits_are_exactly_once_per_window_entity() {
        let mut a = agg(AggFunc::Count, 10, 0);
        let mut all = Vec::new();
        for t in 0..100 {
            all.extend(a.push(&Event::new("u", ms(t), 1.0)));
        }
        all.extend(a.flush());
        let mut starts: Vec<i64> = all.iter().map(|e| e.window_start.as_millis()).collect();
        starts.sort_unstable();
        let mut dedup = starts.clone();
        dedup.dedup();
        assert_eq!(starts, dedup, "duplicate window emission");
        assert_eq!(starts.len(), 10);
        assert!(all.iter().all(|e| e.value == Value::Int(10)));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Streaming emission ≡ naive batch recomputation per window
            /// when no events are dropped (lateness covers the shuffle).
            #[test]
            fn streaming_equals_batch(times in proptest::collection::vec(0i64..200, 1..120)) {
                let mut a = agg(AggFunc::Count, 20, 300); // lateness > horizon: nothing drops
                let mut emitted = Vec::new();
                for &t in &times {
                    emitted.extend(a.push(&Event::new("u", ms(t), 1.0)));
                }
                emitted.extend(a.flush());
                prop_assert_eq!(a.late_dropped(), 0);
                // naive recomputation
                let mut counts = std::collections::BTreeMap::new();
                for &t in &times {
                    *counts.entry(t.div_euclid(20) * 20).or_insert(0i64) += 1;
                }
                let mut got: Vec<(i64, i64)> = emitted
                    .iter()
                    .map(|e| (e.window_start.as_millis(), e.value.as_i64().unwrap()))
                    .collect();
                got.sort_unstable();
                let want: Vec<(i64, i64)> = counts.into_iter().collect();
                prop_assert_eq!(got, want);
            }

            /// Every event is either aggregated or counted as dropped.
            #[test]
            fn conservation(times in proptest::collection::vec(0i64..500, 1..150)) {
                let mut a = agg(AggFunc::Count, 25, 10);
                let mut emitted = Vec::new();
                for &t in &times {
                    emitted.extend(a.push(&Event::new("u", ms(t), 1.0)));
                }
                emitted.extend(a.flush());
                let counted: i64 = emitted.iter().map(|e| e.value.as_i64().unwrap()).sum();
                prop_assert_eq!(counted as u64 + a.late_dropped(), times.len() as u64);
            }
        }
    }
}
