//! Training/serving parity (paper §2.2.2–§2.2.3): at every materialization
//! tick, the point-in-time training row for a label taken at that instant
//! holds exactly the values — same variant, same bits — that the online
//! server returns for the same entity at the same instant. A model must
//! train on what it will be served; an `Int(2)` online beside a
//! `Float(2.0)` offline is training/serving skew.

use fstore::prelude::*;

const USERS: usize = 20;
const TICKS: usize = 16;
const FEATURES: [&str; 3] = ["avg_fare_1h", "fare_per_km", "trips_2h"];

fn trips_schema() -> Schema {
    Schema::of(&[
        ("user_id", ValueType::Str),
        ("ts", ValueType::Timestamp),
        ("fare", ValueType::Float),
        ("distance_km", ValueType::Float),
    ])
}

/// 20 users, each with trips at seeded times over the 16 ticks' span, so
/// windows hold varying counts (including none) from tick to tick.
fn store() -> FeatureStore {
    let mut fs = FeatureStore::new(Timestamp::EPOCH);
    fs.create_source_table(
        "trips",
        TableConfig::new(trips_schema()).with_time_column("ts"),
    )
    .unwrap();
    let mut rng = Xoshiro256::seeded(7);
    let span_ms = (TICKS as i64) * Duration::minutes(20).as_millis();
    let mut rows = Vec::new();
    for u in 0..USERS {
        for _ in 0..12 {
            let ts = Timestamp::millis(rng.range_i64(0, span_ms));
            let dist = 1.0 + rng.exponential(0.3);
            rows.push(vec![
                Value::from(format!("u{u}")),
                Value::Timestamp(ts),
                Value::Float(2.5 + 1.8 * dist + rng.normal() * 0.5),
                Value::Float(dist),
            ]);
        }
    }
    rows.sort_by_key(|r| match r[1] {
        Value::Timestamp(ts) => ts,
        _ => unreachable!("ts column"),
    });
    fs.ingest("trips", &rows).unwrap();

    let every = Duration::minutes(20);
    fs.publish(
        FeatureSpec::new(FEATURES[0], "user_id", "trips", "fare")
            .aggregated(AggFunc::Avg, Duration::hours(1))
            .cadence(every),
    )
    .unwrap();
    fs.publish(
        FeatureSpec::new(FEATURES[1], "user_id", "trips", "fare / distance_km").cadence(every),
    )
    .unwrap();
    fs.publish(
        FeatureSpec::new(FEATURES[2], "user_id", "trips", "fare")
            .aggregated(AggFunc::Count, Duration::hours(2))
            .cadence(every),
    )
    .unwrap();
    let now = fs.now();
    fs.registry_mut()
        .register_set("parity", &FEATURES, now)
        .unwrap();
    fs
}

#[test]
fn training_rows_equal_served_vectors_in_value_and_type() {
    let mut fs = store();
    let mut cells = 0;
    let mut differing = Vec::new();
    for tick in 0..TICKS {
        fs.advance(Duration::minutes(20)).unwrap();
        let now = fs.now();
        let labels: Vec<LabelEvent> = (0..USERS)
            .map(|u| LabelEvent::new(format!("u{u}"), now, 0.0))
            .collect();
        let training = fs.training_set("parity", &labels).unwrap();
        assert_eq!(training.rows.len(), USERS);
        let server = fs.server();
        for row in &training.rows {
            let Value::Str(user) = &row[0] else {
                panic!("entity column holds {:?}", row[0]);
            };
            let served = server
                .serve("user_id", &EntityKey::new(user.clone()), &FEATURES, now)
                .unwrap();
            // Columns: entity, ts, the features in set order, label.
            for (f, (trained, online)) in row[2..2 + FEATURES.len()]
                .iter()
                .zip(&served.values)
                .enumerate()
            {
                cells += 1;
                let same = trained.value_type() == online.value_type() && trained == online;
                if !same {
                    differing.push(format!(
                        "tick {tick} {user} {}: trained {trained:?}, served {online:?}",
                        FEATURES[f]
                    ));
                }
            }
        }
    }
    assert_eq!(cells, TICKS * USERS * FEATURES.len());
    assert!(
        differing.is_empty(),
        "{} of {cells} cells differ, first: {:?}",
        differing.len(),
        &differing[..differing.len().min(3)]
    );
}

/// The neighbour of the `Count` case: an average over an `Int` column is a
/// `Float`. A log table typed by the expression (`Int`) refused that value
/// after the online write had already landed, so the run failed and the
/// two sides parted.
#[test]
fn an_average_over_an_int_column_materializes_on_both_sides() {
    let mut fs = FeatureStore::new(Timestamp::EPOCH);
    let schema = Schema::of(&[
        ("user_id", ValueType::Str),
        ("ts", ValueType::Timestamp),
        ("passengers", ValueType::Int),
    ]);
    fs.create_source_table("rides", TableConfig::new(schema).with_time_column("ts"))
        .unwrap();
    let ride = |ms, n| {
        vec![
            Value::from("u0"),
            Value::Timestamp(Timestamp::millis(ms)),
            Value::Int(n),
        ]
    };
    fs.ingest("rides", &[ride(1, 3), ride(2, 4)]).unwrap();
    fs.publish(
        FeatureSpec::new("avg_passengers_1h", "user_id", "rides", "passengers")
            .aggregated(AggFunc::Avg, Duration::hours(1))
            .cadence(Duration::minutes(20)),
    )
    .unwrap();
    assert_eq!(fs.advance(Duration::minutes(20)).unwrap().len(), 1);
    let now = fs.now();
    fs.registry_mut()
        .register_set("rides", &["avg_passengers_1h"], now)
        .unwrap();
    let training = fs
        .training_set("rides", &[LabelEvent::new("u0", now, 0.0)])
        .unwrap();
    let served = fs
        .server()
        .serve(
            "user_id",
            &EntityKey::new("u0"),
            &["avg_passengers_1h"],
            now,
        )
        .unwrap();
    assert_eq!(training.rows[0][2], Value::Float(3.5));
    assert_eq!(served.values, vec![Value::Float(3.5)]);
}
