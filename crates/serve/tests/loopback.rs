//! End-to-end loopback tests: a real server on 127.0.0.1, concurrent
//! clients over real sockets, responses checked against direct in-process
//! `FeatureServer` / `EmbeddingTable` calls.

mod common;

use fstore_common::{EntityKey, Timestamp, Value};
use fstore_core::FeatureServer;
use fstore_embed::{EmbeddingDb, EmbeddingProvenance, EmbeddingTable};
use fstore_serve::{
    fixed_clock, start, ErrorCode, FeatureClient, Request, Response, ServeConfig, ServeEngine,
    StoreApi,
};
use fstore_storage::OnlineStore;
use std::sync::Arc;

const ENTITIES: usize = 100;
const EMBED_KEYS: usize = 20;
const EMBED_DIM: usize = 8;
const NOW: Timestamp = Timestamp(10_000);

fn online_store() -> Arc<OnlineStore> {
    let online = Arc::new(OnlineStore::default());
    for i in 0..ENTITIES {
        let key = EntityKey::new(format!("u{i}"));
        online.put(
            "user",
            &key,
            "score",
            Value::Float(i as f64 * 0.5),
            Timestamp::millis(100 + i as i64),
        );
        online.put(
            "user",
            &key,
            "clicks",
            Value::Int(i as i64),
            Timestamp::millis(200 + i as i64),
        );
    }
    online
}

fn embedding_db() -> EmbeddingDb {
    let mut table = EmbeddingTable::new(EMBED_DIM).unwrap();
    for i in 0..EMBED_KEYS {
        let v: Vec<f32> = (0..EMBED_DIM)
            .map(|d| (i * EMBED_DIM + d) as f32 * 0.25)
            .collect();
        table.insert(format!("u{i}"), v).unwrap();
    }
    let store = EmbeddingDb::new();
    store
        .publish("emb", table, EmbeddingProvenance::default(), NOW)
        .unwrap();
    store
}

#[test]
fn concurrent_clients_match_direct_calls_and_shutdown_is_graceful() {
    let _watchdog =
        common::watchdog("concurrent_clients_match_direct_calls_and_shutdown_is_graceful");
    let online = online_store();
    let direct = FeatureServer::new(Arc::clone(&online));
    let embeddings = embedding_db();
    let engine = ServeEngine::new(FeatureServer::new(online), fixed_clock(NOW))
        .with_embeddings(embeddings.clone());
    let handle = start(
        engine,
        ServeConfig {
            workers: 4,
            queue_depth: 256,
            max_batch: 16,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    const THREADS: usize = 8;
    const PER_THREAD: usize = 125; // 8 × 125 = 1000 requests

    let direct = Arc::new(direct);
    let embeddings_ref = embeddings.clone();
    let threads: Vec<_> = (0..THREADS)
        .map(|t| {
            let direct = Arc::clone(&direct);
            let embeddings = embeddings_ref.clone();
            std::thread::spawn(move || {
                let mut client = FeatureClient::connect(addr).unwrap();
                for i in 0..PER_THREAD {
                    let pick = (t * PER_THREAD + i) % 5;
                    match pick {
                        0 | 1 => {
                            // Single-entity lookup, both feature orders;
                            // includes entities that do not exist.
                            let id = (t * 31 + i * 7) % (ENTITIES + 5);
                            let entity = format!("u{id}");
                            let features: &[&str] = if pick == 0 {
                                &["score", "clicks"]
                            } else {
                                &["clicks"]
                            };
                            let got = client.get_features("user", &entity, features).unwrap();
                            let want = direct
                                .serve("user", &EntityKey::new(entity.clone()), features, NOW)
                                .unwrap();
                            assert_eq!(got.entity, entity);
                            assert_eq!(got.values, want.values);
                            assert_eq!(
                                got.ages_ms,
                                want.ages
                                    .iter()
                                    .map(|a| a.map(|d| d.as_millis()))
                                    .collect::<Vec<_>>()
                            );
                            assert_eq!(got.stale, want.stale);
                        }
                        2 => {
                            let ids = [
                                (t + i) % ENTITIES,
                                (t + i + 1) % ENTITIES,
                                (t + i + 2) % ENTITIES,
                            ];
                            let names: Vec<String> =
                                ids.iter().map(|id| format!("u{id}")).collect();
                            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                            let got = client
                                .get_features_batch("user", &refs, &["score"])
                                .unwrap();
                            let keys: Vec<EntityKey> =
                                names.iter().map(|n| EntityKey::new(n.clone())).collect();
                            let want = direct.serve_batch("user", &keys, &["score"], NOW).unwrap();
                            assert_eq!(got.len(), want.len());
                            for (g, w) in got.iter().zip(&want) {
                                assert_eq!(g.values, w.values);
                            }
                        }
                        3 => {
                            let id = (t + i) % EMBED_KEYS;
                            let key = format!("u{id}");
                            let got = client.get_embedding("emb", &key).unwrap();
                            let catalog = embeddings.snapshot();
                            let want = catalog
                                .latest("emb")
                                .unwrap()
                                .table
                                .get(&key)
                                .unwrap()
                                .to_vec();
                            assert_eq!(got.vector, want);
                            assert_eq!(got.dim, EMBED_DIM);
                            assert_eq!(got.version, 1, "served from emb@v1");
                            assert_eq!(got.epoch, 1, "one publication before serving");
                        }
                        _ => {
                            let (_depth, draining) = client.health().unwrap();
                            assert!(!draining);
                        }
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    let metrics = handle.metrics();
    let snapshot = metrics.snapshot();
    assert_eq!(
        metrics.total_requests(),
        (THREADS * PER_THREAD) as u64,
        "every request was handled exactly once: {snapshot:?}"
    );
    assert_eq!(snapshot.shed, 0, "no shedding expected at this queue depth");
    for (name, ep) in &snapshot.endpoints {
        assert_eq!(ep.errors, 0, "endpoint {name} saw errors");
        if ep.requests > 0 {
            assert!(ep.p50_ms.is_some(), "endpoint {name} has latency quantiles");
        }
    }
    // Graceful shutdown joins the acceptor, connection threads and
    // workers; reaching the next line is the assertion.
    handle.shutdown();

    // Every client waits for each answer before its next request: at
    // depth 1 each reply is a socket write of its own. (Counted after
    // the join: a writer records a write once it returns.)
    let wire = metrics.snapshot().wire;
    assert_eq!(wire.frames_tx, (THREADS * PER_THREAD) as u64);
    assert_eq!(wire.writes_tx, wire.frames_tx);
}

#[test]
fn pipelined_replies_ready_together_share_socket_writes() {
    let _watchdog = common::watchdog("pipelined_replies_ready_together_share_socket_writes");
    let engine = ServeEngine::new(FeatureServer::new(online_store()), fixed_clock(NOW));
    // One worker that pauses before each claim: a whole burst queues up,
    // is drained as one, and its replies are answered back to back.
    let handle = start(
        engine,
        ServeConfig {
            workers: 1,
            handler_delay: Some(std::time::Duration::from_millis(2)),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = FeatureClient::connect(handle.addr()).unwrap();
    const BURST: usize = 32;
    const ROUNDS: usize = 8;
    let burst: Vec<Request> = (0..BURST)
        .map(|i| Request::GetFeatures {
            group: "user".into(),
            entity: format!("u{i}"),
            features: vec!["score".into()],
        })
        .collect();
    for _ in 0..ROUNDS {
        let responses = client.call_many(&burst).unwrap();
        for (i, response) in responses.iter().enumerate() {
            match response {
                Response::Features(v) => assert_eq!(v.entity, format!("u{i}")),
                other => panic!("reply {i} out of order or failed: {other:?}"),
            }
        }
    }
    // A writer counts a write once it returns, which may be after the
    // client has read it: join the connection threads before counting.
    let metrics = handle.metrics();
    handle.shutdown();
    let wire = metrics.snapshot().wire;
    assert_eq!(wire.frames_tx, (BURST * ROUNDS) as u64);
    assert!(
        wire.writes_tx < wire.frames_tx,
        "no two ready replies shared a write: {wire:?}"
    );
}

#[test]
fn unknown_embedding_and_bad_requests_get_typed_errors() {
    let _watchdog = common::watchdog("unknown_embedding_and_bad_requests_get_typed_errors");
    let online = online_store();
    let engine = ServeEngine::new(FeatureServer::new(online), fixed_clock(NOW));
    let handle = start(engine, ServeConfig::default()).unwrap();
    let mut client = FeatureClient::connect(handle.addr()).unwrap();

    let err = client.get_embedding("nope", "k").unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::NotFound));

    // The connection survives a typed error and keeps serving.
    let v = client.get_features("user", "u1", &["score"]).unwrap();
    assert_eq!(v.values, vec![Value::Float(0.5)]);

    handle.shutdown();
}

#[test]
fn load_shedding_returns_overloaded_and_counts_sheds() {
    let _watchdog = common::watchdog("load_shedding_returns_overloaded_and_counts_sheds");
    let online = online_store();
    let engine = ServeEngine::new(FeatureServer::new(online), fixed_clock(NOW));
    // Queue depth 1, a single slow worker: concurrent clients must
    // overflow admission and get Overloaded immediately instead of
    // queuing or hanging.
    let handle = start(
        engine,
        ServeConfig {
            workers: 1,
            queue_depth: 1,
            max_batch: 1,
            handler_delay: Some(std::time::Duration::from_millis(25)),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    const THREADS: usize = 6;
    const PER_THREAD: usize = 4;
    let threads: Vec<_> = (0..THREADS)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = FeatureClient::connect(addr).unwrap();
                let mut ok = 0u64;
                let mut overloaded = 0u64;
                for i in 0..PER_THREAD {
                    match client.get_features("user", &format!("u{i}"), &["score"]) {
                        Ok(_) => ok += 1,
                        Err(e) => {
                            assert_eq!(
                                e.code(),
                                Some(ErrorCode::Overloaded),
                                "only Overloaded is acceptable here: {e}"
                            );
                            overloaded += 1;
                        }
                    }
                }
                (ok, overloaded)
            })
        })
        .collect();

    let mut ok_total = 0;
    let mut overloaded_total = 0;
    for t in threads {
        let (ok, overloaded) = t.join().unwrap();
        ok_total += ok;
        overloaded_total += overloaded;
    }
    assert_eq!(ok_total + overloaded_total, (THREADS * PER_THREAD) as u64);
    assert!(
        overloaded_total > 0,
        "6 concurrent clients must overflow a depth-1 queue"
    );

    let metrics = handle.metrics();
    assert_eq!(
        metrics.shed_count(),
        overloaded_total,
        "every Overloaded reply is one shed"
    );
    let dump = metrics.dump_json();
    let parsed: serde_json::Value = serde_json::from_str(&dump).unwrap();
    assert_eq!(
        parsed["shed"].as_u64(),
        Some(overloaded_total),
        "shed count in the JSON dump"
    );

    handle.shutdown();
}

/// Malformed input at the raw socket: oversized declared lengths must close
/// the connection promptly (the registered shutdown handle must not keep the
/// fd open after the connection thread exits), garbage payloads must get a
/// typed error frame, and a half-written frame followed by disconnect must
/// not wedge the server.
#[test]
fn malformed_frames_close_or_error_without_wedging_the_server() {
    let _watchdog = common::watchdog("malformed_frames_close_or_error_without_wedging_the_server");
    use fstore_serve::{write_frame, FrameEvent, FrameReader, Response, MAX_FRAME_LEN};
    use std::io::Write;
    use std::net::TcpStream;
    use std::time::Duration as StdDuration;

    let online = online_store();
    let engine = ServeEngine::new(FeatureServer::new(online), fixed_clock(NOW));
    let handle = start(engine, ServeConfig::default()).unwrap();
    let addr = handle.addr();
    let timeout = Some(StdDuration::from_secs(5));

    // Oversized declared length: refused before allocation with a typed
    // FrameTooLarge error, then the connection is closed — the client
    // must observe the error and EOF, not a hang.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&u32::MAX.to_be_bytes()).unwrap();
    let mut r = FrameReader::new();
    match r.read_frame(&s, MAX_FRAME_LEN, timeout, timeout).unwrap() {
        FrameEvent::Frame(payload) => match Response::decode(payload).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::FrameTooLarge),
            other => panic!("expected FrameTooLarge error, got {other:?}"),
        },
        other => panic!("expected a typed refusal frame, got {other:?}"),
    }
    match r.read_frame(&s, MAX_FRAME_LEN, timeout, timeout).unwrap() {
        FrameEvent::Eof => {}
        other => panic!(
            "server must close the connection after refusing an oversized frame, got {other:?}"
        ),
    }

    // Well-framed garbage payload: a typed BadRequest error frame back on
    // the same connection.
    let mut s = TcpStream::connect(addr).unwrap();
    write_frame(&mut s, &[0xde, 0xad, 0xbe, 0xef, 0x42]).unwrap();
    let mut r = FrameReader::new();
    match r.read_frame(&s, MAX_FRAME_LEN, timeout, timeout).unwrap() {
        FrameEvent::Frame(payload) => match Response::decode(payload).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("expected error response, got {other:?}"),
        },
        other => panic!("expected an error frame, got {other:?}"),
    }

    // Half-written frame then disconnect: the server must shrug it off.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&[0, 0, 0, 10, 1, 2]).unwrap();
    drop(s);

    // And a fresh client is still served after all of that.
    let mut client = FeatureClient::connect(addr).unwrap();
    let v = client.get_features("user", "u1", &["score"]).unwrap();
    assert_eq!(v.values, vec![Value::Float(0.5)]);

    handle.shutdown();
}
