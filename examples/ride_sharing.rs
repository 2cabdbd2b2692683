//! Ride-sharing feature store scenario (the workload class the paper's
//! authors built Michelangelo for).
//!
//! Demonstrates, on one synthetic ride-sharing dataset:
//!  1. streaming features with the dual-write sink (online + offline log);
//!  2. why point-in-time joins matter: a naive latest-value join leaks the
//!     future and inflates offline accuracy;
//!  3. feature-quality monitoring catching an injected null storm and a
//!     frozen feed.
//!
//! Run with: `cargo run --example ride_sharing`

use fstore::core::quality::ColumnProfile;
use fstore::core::quality::{FeatureQualityReport, QualityThresholds};
use fstore::monitor::drift::DriftThresholds;
use fstore::prelude::*;
use std::sync::Arc;

fn main() -> Result<()> {
    // ------------------------------------------------------------------
    // 1. Streaming features: trip events → windowed counts, dual-written
    // ------------------------------------------------------------------
    println!("== streaming features ==");
    let online = Arc::new(OnlineStore::default());
    let offline = OfflineDb::new();
    let agg = StreamAggregator::new(
        "trips_15m",
        AggFunc::Count,
        WindowSpec::sliding(Duration::minutes(15), Duration::minutes(5)),
        Duration::minutes(1),
    )?;
    let pipeline = StreamPipeline::new(agg, "driver", Arc::clone(&online), offline.clone())?;
    let rt = StreamRuntime::spawn(pipeline, 256);

    let mut rng = Xoshiro256::seeded(42);
    let tx = rt.sender();
    let mut t = Timestamp::EPOCH;
    for _ in 0..4_000 {
        t += Duration::seconds(rng.exponential(1.0 / 30.0) as i64 + 1); // ~1 trip / 30 s
        let driver = format!("d{}", rng.below(40));
        tx.send(Event::new(driver, t, 1.0))
            .map_err(|_| FsError::Stream("send".into()))?;
    }
    drop(tx);
    let report = rt.shutdown()?;
    println!(
        "    {} events → {} windows emitted, {} late-dropped, {} online writes",
        report.events_in, report.windows_emitted, report.late_dropped, report.online_writes
    );
    let e = online.get("driver", &EntityKey::new("d0"), "trips_15m");
    println!("    d0 current 15m trip count: {:?}", e.map(|e| e.value));

    // ------------------------------------------------------------------
    // 2. PIT vs naive join: a feature that drifts upward over time
    // ------------------------------------------------------------------
    println!("\n== point-in-time join vs naive latest join ==");
    offline.write(|off| {
        off.create_table(
            "feat__driver_rating_v1",
            TableConfig::new(
                Schema::new(vec![
                    FieldDef::not_null("entity", ValueType::Str),
                    FieldDef::not_null("ts", ValueType::Timestamp),
                    FieldDef::new("value", ValueType::Float),
                ])
                .unwrap(),
            )
            .with_time_column("ts"),
        )?;
        // rating trends upward: late values are systematically higher
        for day in 0..30 {
            for d in 0..40 {
                let base = 3.0 + day as f64 * 0.05;
                off.append(
                    "feat__driver_rating_v1",
                    &[
                        Value::from(format!("d{d}")),
                        Value::Timestamp(Date::from_days(day).start()),
                        Value::Float(base + rng.normal() * 0.1),
                    ],
                )?;
            }
        }
        Ok(())
    })?;
    // labels live at day 10; "future" ratings exist up to day 29
    let labels: Vec<LabelEvent> = (0..40)
        .map(|d| {
            LabelEvent::new(
                format!("d{d}"),
                Date::from_days(10).end(),
                f64::from(u8::from(d % 2 == 0)),
            )
        })
        .collect();
    let feats = [PitFeature::materialized("driver_rating", 1)];
    let off = offline.snapshot();
    let pit = point_in_time_join(&off, &labels, &feats)?;
    let naive = naive_latest_join(&off, &labels, &feats)?;
    let mean = |ts: &fstore::core::TrainingSet| {
        let (xs, _) = ts.feature_matrix(0.0);
        xs.iter().map(|r| r[0]).sum::<f64>() / xs.len() as f64
    };
    println!("    mean joined rating at day-10 labels:");
    println!(
        "      PIT   join: {:.3}  (values as of day 10 — correct)",
        mean(&pit)
    );
    println!(
        "      naive join: {:.3}  (day-29 values leaked into day-10 rows!)",
        mean(&naive)
    );
    drop(off);

    // ------------------------------------------------------------------
    // 3. Feature quality: null storm + frozen feed detection
    // ------------------------------------------------------------------
    println!("\n== feature-quality monitoring ==");
    let healthy: Vec<Value> = (0..500).map(|i| Value::Float(f64::from(i % 50))).collect();
    let mut storm = healthy.clone();
    for v in storm.iter_mut().take(200) {
        *v = Value::Null; // upstream feed broke: 40% nulls
    }
    let reference = vec![ColumnProfile::of_values("eta_gps_quality", &healthy)];
    let live = vec![ColumnProfile::of_values("eta_gps_quality", &storm)];
    let mut issues = Vec::new();
    FeatureQualityReport::check_null_spikes(
        &reference,
        &live,
        &QualityThresholds::default(),
        &mut issues,
    );

    // frozen feed: one feature stopped updating 12 hours ago
    let now = Timestamp::EPOCH + Duration::hours(24);
    online.put(
        "driver",
        &EntityKey::new("d0"),
        "license_check",
        Value::Bool(true),
        now - Duration::hours(12),
    );
    FeatureQualityReport::check_frozen_feeds(
        &online,
        "driver",
        &[
            ("license_check", Duration::hours(1)),
            ("trips_15m", Duration::days(30)),
        ],
        now,
        &QualityThresholds::default(),
        &mut issues,
    );
    for issue in &issues {
        println!("    ALERT: {issue:?}");
    }

    // and a tabular drift monitor over the same feed
    let ref_vals: Vec<f64> = (0..500).map(|i| f64::from(i % 50)).collect();
    let drifted: Vec<f64> = ref_vals.iter().map(|v| v * 1.8 + 10.0).collect();
    let monitor = DriftMonitor::fit(&ref_vals, DriftThresholds::default())?;
    println!(
        "    drift on healthy window:  {:?}",
        monitor.alert_level(&ref_vals)?
    );
    println!(
        "    drift on drifted window:  {:?}",
        monitor.alert_level(&drifted)?
    );

    Ok(())
}
