//! A peer of the router front that pipelines requests and never reads its
//! responses must not hold the front's one routing worker. The front runs
//! on the serve crate's connection engine: its worker sends without
//! blocking, and a run the socket cannot take goes to the connection's
//! stall flusher, which alone waits on the peer. So another client's
//! reads through the front keep being answered promptly while the
//! stalled peer's socket buffers are full.

#[path = "../../serve/tests/common/mod.rs"]
mod common;

use fstore_common::{EntityKey, Timestamp, Value};
use fstore_serve::{fixed_clock, write_frame, ClientConfig, FeatureClient, Request, Response};
use fstore_shard::{start_router, ClusterConfig, RouterConfig, ShardCluster};
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

const NOW: Timestamp = Timestamp(10_000);
/// Each of the stalled peer's requests reads the 64 KiB value this many
/// times: a 512 KiB response.
const COPIES: usize = 8;
/// The stalled peer's requests: 20 MiB of responses, far more than both
/// loopback socket buffers hold.
const REQUESTS: usize = 40;

#[test]
fn a_peer_that_never_reads_does_not_hold_the_routing_worker() {
    let _watchdog = common::watchdog("a_peer_that_never_reads_does_not_hold_the_routing_worker");
    let cluster = ShardCluster::start(
        ClusterConfig {
            followers: 0,
            ..ClusterConfig::default()
        },
        fixed_clock(NOW),
    )
    .expect("cluster starts");
    let big = [("blob", Value::Str("x".repeat(64 * 1024)))];
    cluster
        .put_online("user", &EntityKey::new("big"), &big, NOW)
        .expect("seed the big value");
    let score = [("score", Value::Float(0.5))];
    cluster
        .put_online("user", &EntityKey::new("u1"), &score, NOW)
        .expect("seed the score");
    let front = start_router("127.0.0.1:0", cluster.control(), RouterConfig::default())
        .expect("router front");

    // The stalled peer: pipelined 512 KiB reads, never a byte read back.
    // Its writes may block once the front stops reading, so they run on
    // their own thread until the socket is shut down.
    let peer = TcpStream::connect(front.addr()).unwrap();
    let writer = {
        let mut peer = peer.try_clone().unwrap();
        std::thread::spawn(move || {
            let request = Request::GetFeaturesBatch {
                group: "user".into(),
                entities: vec!["big".into(); COPIES],
                features: vec!["blob".into()],
            };
            let payload = request.encode();
            let mut burst = Vec::new();
            for _ in 0..REQUESTS {
                write_frame(&mut burst, &payload).unwrap();
            }
            let _ = peer.write_all(&burst);
        })
    };
    // Let the peer's replies fill both socket buffers.
    std::thread::sleep(Duration::from_millis(500));

    let mut client = FeatureClient::connect_with(
        front.addr(),
        &ClientConfig {
            read_timeout: Some(Duration::from_secs(2)),
            ..ClientConfig::default()
        },
    )
    .unwrap();
    let read = Request::GetFeatures {
        group: "user".into(),
        entity: "u1".into(),
        features: vec!["score".into()],
    };
    let mut worst = Duration::ZERO;
    for _ in 0..50 {
        let started = Instant::now();
        let response = client
            .call(&read)
            .unwrap_or_else(|e| panic!("a read behind a stalled peer failed: {e}"));
        let took = started.elapsed();
        assert!(
            matches!(&response, Response::Features(v) if v.values == [Value::Float(0.5)]),
            "unexpected {response:?}"
        );
        assert!(
            took < Duration::from_secs(1),
            "a read took {took:?} behind a stalled peer"
        );
        worst = worst.max(took);
        std::thread::sleep(Duration::from_millis(20));
    }
    println!("worst read through the front behind a stalled peer: {worst:?}");

    let _ = peer.shutdown(Shutdown::Both);
    writer.join().unwrap();
    front.shutdown();
    cluster.shutdown();
}
