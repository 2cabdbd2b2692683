//! A peer that pipelines requests and never reads its responses must not
//! hold the server's workers. Workers send without blocking; a run the
//! socket cannot take goes to the connection's stall flusher, which alone
//! waits on the peer, for at most the write timeout. So with a single
//! worker, another client's reads keep being answered promptly while the
//! stalled peer's socket buffers are full.

mod common;

use fstore_common::{EntityKey, Timestamp, Value};
use fstore_core::FeatureServer;
use fstore_serve::{
    fixed_clock, put_frame, start, ClientConfig, FeatureClient, Request, Response, ServeConfig,
    ServeEngine,
};
use fstore_storage::OnlineStore;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NOW: Timestamp = Timestamp(10_000);
/// Each of the stalled peer's requests reads the 64 KiB value this many
/// times: a 1 MiB response.
const COPIES: usize = 16;

#[test]
fn a_peer_that_never_reads_does_not_hold_the_worker() {
    let _watchdog = common::watchdog("a_peer_that_never_reads_does_not_hold_the_worker");
    let online = Arc::new(OnlineStore::default());
    online.put(
        "user",
        &EntityKey::new("big"),
        "blob",
        Value::Str("x".repeat(64 * 1024)),
        Timestamp::millis(100),
    );
    online.put(
        "user",
        &EntityKey::new("u1"),
        "score",
        Value::Float(0.5),
        Timestamp::millis(100),
    );
    let engine = ServeEngine::new(FeatureServer::new(online), fixed_clock(NOW));
    let config = ServeConfig::builder()
        .workers(1)
        .write_timeout(Some(Duration::from_secs(5)))
        // Keeps the replies parked on the stalled connection to 16 MiB.
        .pipeline_depth(16)
        .build()
        .unwrap();
    let server = start(engine, config).unwrap();

    // The stalled peer: 2,000 pipelined 1 MiB reads, never a byte read
    // back. Its writes block once the server stops reading, so they run
    // on their own thread until the socket is shut down.
    let peer = TcpStream::connect(server.addr()).unwrap();
    let writer = {
        let mut peer = peer.try_clone().unwrap();
        std::thread::spawn(move || {
            let request = Request::GetFeaturesBatch {
                group: "user".into(),
                entities: vec!["big".into(); COPIES],
                features: vec!["blob".into()],
            };
            let mut burst = bytes::BytesMut::new();
            for _ in 0..2_000 {
                put_frame(&mut burst, |buf| request.encode_into(buf));
            }
            let _ = peer.write_all(burst.as_slice());
        })
    };
    // Let the peer's replies fill both socket buffers.
    std::thread::sleep(Duration::from_millis(300));

    let mut client = FeatureClient::connect_with(
        server.addr(),
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
    println!("worst read behind a stalled peer: {worst:?}");

    let _ = peer.shutdown(Shutdown::Both);
    writer.join().unwrap();
    server.shutdown();
}
