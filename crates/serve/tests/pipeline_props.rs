//! Property tests for pipelined connections: random burst schedules of
//! mixed request types, sent through the fault-injecting proxy with
//! random mid-frame cut probabilities. The ordering contract under test
//! is the one the protocol stakes its lack of correlation IDs on — a
//! burst either comes back as in-order, correctly-typed responses (each
//! `Features` answer names the entity its slot asked for) or fails as a
//! clean typed error; a crossed response is never acceptable, with or
//! without faults.
//!
//! The runner is hand-rolled (one deterministic [`TestRng`], strategies
//! generated per case) so a single server + proxy pair is shared across
//! every case instead of rebinding loopback sockets 48 times.

mod common;

use fstore_common::{EntityKey, Timestamp, Value};
use fstore_core::FeatureServer;
use fstore_serve::fault::FaultyProxy;
use fstore_serve::{
    fixed_clock, start, ClientConfig, FeatureClient, Request, Response, ServeConfig, ServeEngine,
    ServerHandle,
};
use fstore_storage::OnlineStore;
use proptest::prelude::*;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

const NOW: Timestamp = Timestamp(10_000);
const ENTITIES: usize = 32;

fn start_server() -> ServerHandle {
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
    let config = ServeConfig::builder()
        .addr("127.0.0.1:0")
        .workers(2)
        .queue_depth(128)
        .max_batch(8)
        .build()
        .unwrap();
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

/// One slot of a burst: `ENTITIES` means `Health`, anything below is a
/// `GetFeatures` for that entity.
fn to_request(slot: usize) -> Request {
    if slot >= ENTITIES {
        Request::Health
    } else {
        Request::GetFeatures {
            group: "user".to_string(),
            entity: format!("u{slot}"),
            features: vec!["score".to_string()],
        }
    }
}

/// The response in slot `i` of a burst must answer request slot `i` — the
/// wrong type or the wrong entity is a crossed response.
fn matches_request(slot: usize, response: &Response) -> bool {
    match response {
        Response::Health { .. } => slot >= ENTITIES,
        Response::Features(vector) => {
            slot < ENTITIES
                && vector.entity == format!("u{slot}")
                && vector.values == vec![Value::Float(slot as f64 * 0.5)]
        }
        _ => false,
    }
}

/// A schedule is a list of bursts; each burst is a list of request slots.
fn schedule_strategy(max_burst: usize) -> impl Strategy<Value = Vec<Vec<usize>>> {
    collection::vec(collection::vec(0usize..(ENTITIES + 1), 1..max_burst), 1..5)
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
