//! Property tests for pipelined connections: random burst schedules of
//! mixed request types, sent through the fault-injecting proxy with
//! random mid-frame cut probabilities. The ordering contract under test
//! is the one the protocol stakes its lack of correlation IDs on — a
//! burst either comes back as in-order, correctly-typed responses (each
//! `Features` answer names the entity its slot asked for) or fails as a
//! clean typed error; a crossed response is never acceptable, with or
//! without faults.
//!
//! A third property runs on four workers behind a queue of two, where a
//! burst's requests complete out of order across workers and some are
//! shed as `Overloaded` by the connection reader mid-burst: the cases
//! that would break the ordering if anything but the sequence number
//! carried it.
//!
//! The runner is hand-rolled (one deterministic [`TestRng`], strategies
//! generated per case) so a single server + proxy pair is shared across
//! every case instead of rebinding loopback sockets 48 times.

mod common;

use fstore_common::{EntityKey, Timestamp, Value};
use fstore_core::FeatureServer;
use fstore_serve::fault::FaultyProxy;
use fstore_serve::{
    fixed_clock, start, ClientConfig, ErrorCode, FeatureClient, Request, Response, ServeConfig,
    ServeEngine, ServerHandle, WireVector,
};
use fstore_storage::OnlineStore;
use proptest::prelude::*;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

const NOW: Timestamp = Timestamp(10_000);
const ENTITIES: usize = 32;

fn start_server() -> ServerHandle {
    let config = ServeConfig::builder()
        .addr("127.0.0.1:0")
        .workers(2)
        .queue_depth(128)
        .max_batch(8)
        .build()
        .unwrap();
    start_server_with(config)
}

fn start_server_with(config: ServeConfig) -> ServerHandle {
    let online = Arc::new(OnlineStore::default());
    for i in 0..ENTITIES {
        online.put(
            "user",
            &EntityKey::new(format!("u{i}")),
            "score",
            Value::Float(i as f64 * 0.5),
            Timestamp::millis(100),
        );
    }
    let engine = ServeEngine::new(FeatureServer::new(online), fixed_clock(NOW));
    start(engine, config).unwrap()
}

fn connect(addr: SocketAddr) -> Option<FeatureClient> {
    FeatureClient::connect_with(
        addr,
        &ClientConfig {
            connect_timeout: Some(Duration::from_millis(250)),
            // Bounded reads: a cut or stalled proxy must cost a timeout,
            // never a hang.
            read_timeout: Some(Duration::from_millis(500)),
            write_timeout: Some(Duration::from_millis(500)),
            deadline_budget: None,
            ..ClientConfig::default()
        },
    )
    .ok()
}

/// Slot of a `GetFeaturesBatch` over every entity.
const BATCH: usize = ENTITIES + 1;

/// One slot of a burst: `ENTITIES` means `Health`, [`BATCH`] a batch read
/// of every entity, anything below is a `GetFeatures` for that entity.
fn to_request(slot: usize) -> Request {
    match slot {
        ENTITIES => Request::Health,
        BATCH => Request::GetFeaturesBatch {
            group: "user".to_string(),
            entities: (0..ENTITIES).map(|e| format!("u{e}")).collect(),
            features: vec!["score".to_string()],
        },
        entity => Request::GetFeatures {
            group: "user".to_string(),
            entity: format!("u{entity}"),
            features: vec!["score".to_string()],
        },
    }
}

/// Entity `i`'s stored row, as a feature read answers it.
fn is_row(i: usize, vector: &WireVector) -> bool {
    vector.entity == format!("u{i}") && vector.values == vec![Value::Float(i as f64 * 0.5)]
}

/// The response in slot `i` of a burst must answer request slot `i` — the
/// wrong type or the wrong entity is a crossed response.
fn matches_request(slot: usize, response: &Response) -> bool {
    match response {
        Response::Health { .. } => slot == ENTITIES,
        Response::Features(vector) => slot < ENTITIES && is_row(slot, vector),
        Response::FeaturesBatch(vectors) => {
            slot == BATCH
                && vectors.len() == ENTITIES
                && vectors.iter().enumerate().all(|(i, v)| is_row(i, v))
        }
        _ => false,
    }
}

/// A schedule is a list of bursts; each burst is a list of request slots.
fn schedule_strategy(max_burst: usize) -> impl Strategy<Value = Vec<Vec<usize>>> {
    schedule_over(ENTITIES + 1, max_burst)
}

/// Bursts over the first `kinds` slot values.
fn schedule_over(kinds: usize, max_burst: usize) -> impl Strategy<Value = Vec<Vec<usize>>> {
    collection::vec(collection::vec(0usize..kinds, 1..max_burst), 1..5)
}

#[test]
fn pipelined_bursts_answer_in_order_or_fail_typed_under_cuts() {
    let _watchdog = common::watchdog("pipelined_bursts_answer_in_order_or_fail_typed_under_cuts");
    let server = start_server();
    let proxy = FaultyProxy::start(server.addr(), 0xE21_0001).unwrap();
    let faults = proxy.faults();
    let proxy_addr = proxy.addr();

    let schedules = schedule_strategy(12);
    // Per-frame probability the proxy drops the connection halfway
    // through a response; zero keeps a fault-free control in the mix.
    let cuts = prop_oneof![Just(0.0f64), 0.05f64..0.6];

    let mut rng = TestRng::deterministic("pipeline_props::cuts");
    for _case in 0..48 {
        let schedule = schedules.generate(&mut rng);
        let cut = cuts.generate(&mut rng);
        faults.clear();
        faults.set_drop_midframe_probability(cut);

        let mut client = connect(proxy_addr);
        for burst in &schedule {
            let Some(conn) = client.as_mut() else {
                // A refused reconnect right after a cut: acceptable
                // transient, try again for the next burst.
                client = connect(proxy_addr);
                continue;
            };
            let requests: Vec<Request> = burst.iter().map(|&s| to_request(s)).collect();
            match conn.call_many(&requests) {
                Ok(responses) => {
                    // In order, correctly typed, right entity per slot.
                    prop_assert_eq!(responses.len(), burst.len());
                    for (&slot, response) in burst.iter().zip(&responses) {
                        prop_assert!(
                            matches_request(slot, response),
                            "crossed response: slot {} answered by {:?}",
                            slot,
                            response
                        );
                    }
                }
                Err(_) => {
                    // A cut burst must fail as a typed client error —
                    // reaching here (rather than hanging or panicking)
                    // is the property. The connection is poisoned; open
                    // a fresh one for the next burst.
                    client = connect(proxy_addr);
                }
            }
        }
    }
    faults.clear();

    proxy.shutdown();
    server.shutdown();
}

/// With no faults at all, every burst must succeed end-to-end — the
/// pipelined path has no probabilistic behavior of its own.
#[test]
fn pipelined_bursts_roundtrip_cleanly_without_faults() {
    let _watchdog = common::watchdog("pipelined_bursts_roundtrip_cleanly_without_faults");
    let server = start_server();
    let addr = server.addr();

    let schedules = schedule_strategy(20);
    let mut rng = TestRng::deterministic("pipeline_props::clean");
    for _case in 0..32 {
        let schedule = schedules.generate(&mut rng);
        let mut client = connect(addr).expect("connect to loopback server");
        for burst in &schedule {
            let requests: Vec<Request> = burst.iter().map(|&s| to_request(s)).collect();
            let responses = client.call_many(&requests).expect("clean burst");
            prop_assert_eq!(responses.len(), burst.len());
            for (&slot, response) in burst.iter().zip(&responses) {
                prop_assert!(matches_request(slot, response));
            }
        }
    }

    server.shutdown();
}

/// Four workers behind a queue of two, each pausing before its drain: a
/// burst's replies are deposited out of order across workers, and the
/// reader sheds requests as `Overloaded` mid-burst, into their own slots.
/// Every slot must still hold its own request's answer or that refusal.
#[test]
fn out_of_order_completions_and_mid_burst_sheds_keep_every_slot_in_place() {
    let _watchdog =
        common::watchdog("out_of_order_completions_and_mid_burst_sheds_keep_every_slot_in_place");
    let config = ServeConfig::builder()
        .addr("127.0.0.1:0")
        .workers(4)
        .queue_depth(2)
        .max_batch(8)
        .handler_delay(Duration::from_micros(50))
        .build()
        .unwrap();
    let server = start_server_with(config);
    let addr = server.addr();

    let schedules = schedule_over(BATCH + 1, 40);
    let mut rng = TestRng::deterministic("pipeline_props::shed");
    let (mut answered, mut shed) = (0, 0);
    for _case in 0..32 {
        let schedule = schedules.generate(&mut rng);
        let mut client = connect(addr).expect("connect to loopback server");
        for burst in &schedule {
            let requests: Vec<Request> = burst.iter().map(|&s| to_request(s)).collect();
            let responses = client.call_many(&requests).expect("a burst with sheds");
            prop_assert_eq!(responses.len(), burst.len());
            for (&slot, response) in burst.iter().zip(&responses) {
                if matches!(
                    response,
                    Response::Error {
                        code: ErrorCode::Overloaded,
                        ..
                    }
                ) {
                    shed += 1;
                    continue;
                }
                prop_assert!(
                    matches_request(slot, response),
                    "crossed response: slot {} answered by {:?}",
                    slot,
                    response
                );
                answered += 1;
            }
        }
    }
    // Both kinds of slot were exercised.
    assert!(shed > 0, "no request was shed");
    assert!(answered > 0, "every request was shed");
    println!("{answered} answered, {shed} shed");

    server.shutdown();
}
