//! Chaos loopback tests: real servers on 127.0.0.1 behind the
//! fault-injecting proxy, exercising the resilience stack — failover
//! across a server kill + restart, typed errors (not hangs) under frame
//! corruption, and bounded waits against stalled peers on both sides of
//! the wire.

mod common;

use fstore_common::{EntityKey, Timestamp, Value};
use fstore_core::FeatureServer;
use fstore_serve::fault::FaultyProxy;
use fstore_serve::{
    fixed_clock, start, BreakerConfig, ClientConfig, ClientError, ErrorCode, FailoverClient,
    FeatureClient, Request, Response, RetryPolicy, ServeConfig, ServeEngine, ServerHandle,
};
use fstore_storage::OnlineStore;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const NOW: Timestamp = Timestamp(10_000);

fn online_store() -> Arc<OnlineStore> {
    let online = Arc::new(OnlineStore::default());
    for i in 0..50 {
        online.put(
            "user",
            &EntityKey::new(format!("u{i}")),
            "score",
            Value::Float(i as f64 * 0.5),
            Timestamp::millis(100 + i as i64),
        );
    }
    online
}

fn start_server(addr: &str) -> ServerHandle {
    let engine = ServeEngine::new(FeatureServer::new(online_store()), fixed_clock(NOW));
    let config = ServeConfig::builder()
        .addr(addr)
        .workers(2)
        .queue_depth(64)
        .max_batch(8)
        .build()
        .unwrap();
    start(engine, config).unwrap()
}

fn fast_client_config() -> ClientConfig {
    ClientConfig {
        connect_timeout: Some(Duration::from_millis(250)),
        read_timeout: Some(Duration::from_millis(500)),
        write_timeout: Some(Duration::from_millis(500)),
        deadline_budget: None,
    }
}

fn eager_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 6,
        base_backoff: Duration::from_millis(10),
        multiplier: 2.0,
        max_backoff: Duration::from_millis(200),
        jitter: 0.25,
    }
}

fn get_u1() -> Request {
    Request::GetFeatures {
        group: "user".into(),
        entity: "u1".into(),
        features: vec!["score".into()],
    }
}

/// The server dies mid-stream and comes back on the same port; a
/// FailoverClient rides it out without a caller-visible error, where a
/// bare FeatureClient on the dead connection fails.
#[test]
fn failover_client_survives_a_server_kill_and_restart() {
    let _watchdog = common::watchdog("failover_client_survives_a_server_kill_and_restart");
    let handle = start_server("127.0.0.1:0");
    let addr = handle.addr().to_string();

    let mut bare = FeatureClient::connect_with(addr.as_str(), &fast_client_config()).unwrap();
    let mut failover = FailoverClient::connect(
        &[addr.as_str()],
        fast_client_config(),
        eager_retry(),
        BreakerConfig {
            failure_threshold: 10,
            open_cooldown: Duration::from_millis(50),
        },
    );

    // Clean traffic first, establishing both connections.
    assert!(matches!(bare.call(&get_u1()), Ok(Response::Features(_))));
    assert!(matches!(
        failover.call(&get_u1()),
        Ok(Response::Features(_))
    ));

    // Kill the server and bring it back on the same port (std listeners
    // set SO_REUSEADDR on Unix, so the rebind is immediate).
    handle.shutdown();
    let handle = start_server(&addr);

    // The bare client holds a dead connection: its next call must error
    // (that is the degradation failover exists to absorb).
    assert!(
        bare.call(&get_u1()).is_err(),
        "bare client's dead connection should surface an error"
    );

    // The failover client reconnects and retries internally: no
    // caller-visible error.
    match failover.call(&get_u1()) {
        Ok(Response::Features(v)) => assert_eq!(v.values, vec![Value::Float(0.5)]),
        other => panic!("failover client surfaced a failure across restart: {other:?}"),
    }

    handle.shutdown();
}

/// With the leader gone for good, reads fail over to a follower endpoint
/// serving identical data, and the leader's breaker opens so later calls
/// skip the dead endpoint.
#[test]
fn reads_fail_over_to_a_follower_when_the_leader_stays_down() {
    let _watchdog = common::watchdog("reads_fail_over_to_a_follower_when_the_leader_stays_down");
    let leader = start_server("127.0.0.1:0");
    let follower = start_server("127.0.0.1:0");
    let leader_addr = leader.addr().to_string();
    let follower_addr = follower.addr().to_string();

    let mut client = FailoverClient::connect(
        &[leader_addr.as_str(), follower_addr.as_str()],
        fast_client_config(),
        eager_retry(),
        BreakerConfig {
            failure_threshold: 2,
            open_cooldown: Duration::from_secs(30),
        },
    );

    // Healthy leader answers.
    assert!(matches!(client.call(&get_u1()), Ok(Response::Features(_))));
    assert_eq!(client.stats().failed_over_calls, 0);

    // Leader dies and stays dead.
    leader.shutdown();
    for _ in 0..5 {
        match client.call(&get_u1()) {
            Ok(Response::Features(v)) => assert_eq!(v.values, vec![Value::Float(0.5)]),
            other => panic!("read failed despite a live follower: {other:?}"),
        }
    }
    let stats = client.stats();
    assert!(
        stats.failed_over_calls >= 5,
        "answers must have come from the follower: {stats:?}"
    );
    assert_eq!(stats.exhausted_calls, 0);

    follower.shutdown();
}

/// Corrupted response frames (valid framing, garbage payload) surface as
/// typed wire errors — never a hang, a panic, or a wrong answer.
#[test]
fn garbage_frames_yield_typed_decode_errors_not_hangs() {
    let _watchdog = common::watchdog("garbage_frames_yield_typed_decode_errors_not_hangs");
    let handle = start_server("127.0.0.1:0");
    let proxy = FaultyProxy::start(handle.addr(), 0xc0_44_07).unwrap();
    let faults = proxy.faults();
    faults.set_corrupt_probability(1.0);

    let mut client =
        FeatureClient::connect_with(proxy.addr().to_string().as_str(), &fast_client_config())
            .unwrap();
    let started = Instant::now();
    match client.call(&get_u1()) {
        Err(ClientError::Wire(_)) => {}
        Err(ClientError::UnexpectedResponse(_)) => {
            // A corrupt payload that still parses as *some* frame is
            // astronomically unlikely but typed all the same.
        }
        other => panic!("corrupt frame produced {other:?}, expected a typed wire error"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "decode error must be prompt, not a timeout"
    );
    assert!(faults.frames_corrupted() >= 1);

    // Clearing the fault makes the same proxy transparent again.
    faults.clear();
    let mut clean =
        FeatureClient::connect_with(proxy.addr().to_string().as_str(), &fast_client_config())
            .unwrap();
    assert!(matches!(clean.call(&get_u1()), Ok(Response::Features(_))));

    proxy.shutdown();
    handle.shutdown();
}

/// A peer that stops sending mid-frame is cut off by the server's frame
/// deadline (and counted), while other clients keep being served — the
/// slow-loris containment property.
#[test]
fn stalled_sender_is_cut_off_and_does_not_wedge_the_server() {
    let _watchdog = common::watchdog("stalled_sender_is_cut_off_and_does_not_wedge_the_server");
    let engine = ServeEngine::new(FeatureServer::new(online_store()), fixed_clock(NOW));
    let config = ServeConfig::builder()
        .addr("127.0.0.1:0")
        .workers(2)
        .queue_depth(64)
        .frame_timeout(Some(Duration::from_millis(150)))
        .build()
        .unwrap();
    let handle = start(engine, config).unwrap();
    let addr = handle.addr();

    // A slow-loris peer: declares a 10-byte frame, sends 2 bytes, stalls.
    let mut loris = TcpStream::connect(addr).unwrap();
    loris
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    loris.write_all(&[0, 0, 0, 10, 1, 2]).unwrap();

    // Meanwhile real traffic flows unimpeded.
    let mut client = FeatureClient::connect(addr).unwrap();
    for _ in 0..10 {
        assert!(matches!(client.call(&get_u1()), Ok(Response::Features(_))));
    }

    // The server's frame deadline fires: the loris sees EOF, promptly.
    let started = Instant::now();
    let mut buf = [0u8; 8];
    let n = loris.read(&mut buf).expect("read after stall");
    assert_eq!(n, 0, "stalled connection must be closed by the server");
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "frame deadline must fire in bounded time"
    );
    assert!(
        handle.metrics().frame_timeout_count() >= 1,
        "the cut must be counted"
    );

    handle.shutdown();
}

/// A server that accepts a request and then stalls forever cannot hang
/// the client: its read timeout fires in bounded time.
#[test]
fn stalled_server_trips_the_client_read_timeout() {
    let _watchdog = common::watchdog("stalled_server_trips_the_client_read_timeout");
    let handle = start_server("127.0.0.1:0");
    let proxy = FaultyProxy::start(handle.addr(), 0x57a11).unwrap();
    let faults = proxy.faults();

    let mut client =
        FeatureClient::connect_with(proxy.addr().to_string().as_str(), &fast_client_config())
            .unwrap();
    // Warm call proves the path works before the stall.
    assert!(matches!(client.call(&get_u1()), Ok(Response::Features(_))));

    faults.set_stall(true);
    let started = Instant::now();
    let result = client.call(&get_u1());
    let elapsed = started.elapsed();
    match result {
        Err(e) => assert!(
            e.is_timeout(),
            "stalled server should surface a timeout, got {e}"
        ),
        Ok(r) => panic!("call through a stalled proxy somehow answered: {r:?}"),
    }
    assert!(
        elapsed < Duration::from_secs(3),
        "client read timeout must bound the stall, took {elapsed:?}"
    );

    faults.set_stall(false);
    proxy.shutdown();
    handle.shutdown();
}

/// An expired deadline budget is shed by the server with a typed
/// `DeadlineExceeded`, and the shed is counted. A zero budget expires at
/// admission, so every request must come back shed — deterministically.
#[test]
fn expired_deadline_budgets_are_shed_with_a_typed_error() {
    let _watchdog = common::watchdog("expired_deadline_budgets_are_shed_with_a_typed_error");
    let handle = start_server("127.0.0.1:0");
    let addr = handle.addr().to_string();

    let mut config = fast_client_config();
    config.deadline_budget = Some(Duration::ZERO);
    let mut client = FeatureClient::connect_with(addr.as_str(), &config).unwrap();

    let mut shed = 0u64;
    for _ in 0..20 {
        match client.call(&get_u1()) {
            Ok(Response::Error {
                code: ErrorCode::DeadlineExceeded,
                ..
            }) => shed += 1,
            other => panic!("zero-budget request was not shed: {other:?}"),
        }
    }
    assert_eq!(shed, 20);
    assert_eq!(
        handle.metrics().deadline_shed_count(),
        shed,
        "every DeadlineExceeded answer is one counted shed"
    );

    // A sane budget on the same server serves normally.
    let mut config = fast_client_config();
    config.deadline_budget = Some(Duration::from_secs(5));
    let mut client = FeatureClient::connect_with(addr.as_str(), &config).unwrap();
    assert!(matches!(client.call(&get_u1()), Ok(Response::Features(_))));

    handle.shutdown();
}
