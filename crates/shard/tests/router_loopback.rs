//! Router loopback tests over a real in-process cluster: every shard
//! server is a live TCP endpoint, the router scatters over real sockets.
//!
//! The headline test kills a shard leader mid-traffic and requires the
//! combination of per-shard failover (instant, read-path) and
//! control-plane promotion (map-level, within the probe threshold) to
//! produce **zero wrong answers** — every read during the outage either
//! returns the correct seeded value via a follower or (never, with the
//! default retry budget) fails loudly; silently wrong data is the one
//! outcome the design must rule out.

#[path = "../../serve/tests/common/mod.rs"]
mod common;

use fstore_common::{EntityKey, Timestamp, Value};
use fstore_embed::{EmbeddingProvenance, EmbeddingTable};
use fstore_repl::{LeaderParts, ReplLeader};
use fstore_serve::{
    fixed_clock, start, write_frame, ClientError, ErrorCode, FeatureClient, FrameEvent,
    FrameReader, IndexSpec, Request, Response, ServeConfig, StoreApi, WireHit, MAX_FRAME_LEN,
};
use fstore_shard::{ClusterConfig, ShardCluster, ShardId};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const NOW: Timestamp = Timestamp(60_000);
const DIM: usize = 8;
const EMB_KEYS: usize = 40;
const USERS: usize = 20;

fn vector_for(i: usize) -> Vec<f32> {
    (0..DIM).map(|d| i as f32 * 0.1 + d as f32 * 0.01).collect()
}

fn score_for(u: usize) -> f64 {
    u as f64 * 0.25 + 1.0
}

/// Seed users and a partitioned embedding table: each shard's leader gets
/// exactly the keys the map assigns it, then an index over its slice.
fn seed(cluster: &ShardCluster) {
    for u in 0..USERS {
        cluster
            .put_online(
                "user",
                &EntityKey::new(format!("u{u}")),
                &[("score", Value::Float(score_for(u)))],
                NOW,
            )
            .unwrap();
    }
    for shard in cluster.map().shards() {
        let mut table = EmbeddingTable::new(DIM).expect("dim > 0");
        for i in 0..EMB_KEYS {
            let key = format!("e{i:04}");
            if cluster.shard_for(&key) == shard.id {
                table.insert(key, vector_for(i)).expect("insert");
            }
        }
        let leader = cluster.leader(shard.id);
        leader
            .parts()
            .embeddings
            .publish("emb", table, EmbeddingProvenance::default(), NOW)
            .expect("publish");
        leader
            .parts()
            .indexes
            .build("emb", &IndexSpec::Flat)
            .expect("index");
    }
    assert!(
        cluster.wait_converged(Duration::from_secs(10)),
        "followers never converged after seeding"
    );
}

fn two_shard_cluster() -> ShardCluster {
    let cluster = ShardCluster::start(
        ClusterConfig {
            shards: 2,
            followers: 1,
            ..ClusterConfig::default()
        },
        fixed_clock(NOW),
    )
    .expect("cluster starts");
    seed(&cluster);
    cluster
}

/// Hit content for byte-comparison: key plus the exact distance bits.
fn sig(hits: &[WireHit]) -> Vec<(String, u32)> {
    hits.iter()
        .map(|h| (h.key.clone(), h.distance.to_bits()))
        .collect()
}

#[test]
fn point_reads_and_batches_route_by_shard() {
    let _watchdog = common::watchdog("point_reads_and_batches_route_by_shard");
    let cluster = two_shard_cluster();
    let mut router = cluster.router();

    // Every user answers with its seeded value, wherever it lives.
    for u in 0..USERS {
        let v = router
            .get_features("user", &format!("u{u}"), &["score"])
            .expect("routed read");
        assert_eq!(v.values, vec![Value::Float(score_for(u))], "u{u}");
    }

    // A batch spanning both shards comes back in caller order.
    let entities: Vec<String> = (0..USERS).map(|u| format!("u{u}")).collect();
    let refs: Vec<&str> = entities.iter().map(String::as_str).collect();
    let batch = router
        .get_features_batch("user", &refs, &["score"])
        .expect("routed batch");
    assert_eq!(batch.len(), USERS);
    for (u, v) in batch.iter().enumerate() {
        assert_eq!(v.entity, format!("u{u}"), "batch order broken at {u}");
        assert_eq!(v.values, vec![Value::Float(score_for(u))]);
    }

    // Embeddings route by key too.
    for i in [0usize, 7, 23, EMB_KEYS - 1] {
        let e = router
            .get_embedding("emb", &format!("e{i:04}"))
            .expect("routed embedding");
        assert_eq!(e.vector, vector_for(i), "e{i:04}");
    }

    // An entity that exists nowhere serves nulls — exactly the
    // single-node semantics, just routed to whichever shard owns the key.
    let missing = router
        .get_features("user", "no-such-user", &["score"])
        .expect("missing entities serve nulls, not errors");
    assert_eq!(missing.values, vec![Value::Null]);
    cluster.shutdown();
}

#[test]
fn scattered_search_matches_a_single_node_oracle() {
    let _watchdog = common::watchdog("scattered_search_matches_a_single_node_oracle");
    let cluster = two_shard_cluster();
    let mut router = cluster.router();

    // The oracle: one server holding the WHOLE table.
    let oracle = ReplLeader::with_retention(LeaderParts::new(), 64);
    let mut full = EmbeddingTable::new(DIM).expect("dim > 0");
    for i in 0..EMB_KEYS {
        full.insert(format!("e{i:04}"), vector_for(i))
            .expect("insert");
    }
    oracle
        .parts()
        .embeddings
        .publish("emb", full, EmbeddingProvenance::default(), NOW)
        .expect("publish");
    oracle
        .parts()
        .indexes
        .build("emb", &IndexSpec::Flat)
        .expect("index");
    let oracle_handle =
        start(oracle.engine(fixed_clock(NOW)), ServeConfig::default()).expect("oracle server");
    let mut oracle_client = FeatureClient::connect(oracle_handle.addr()).expect("connect");

    // Explicit-vector searches across a spread of query points.
    for j in 0..10 {
        let query: Vec<f32> = (0..DIM)
            .map(|d| j as f32 * 0.37 + 0.003 + d as f32 * 0.01)
            .collect();
        let ours = router
            .search_nearest("emb", &query, 10, Default::default())
            .expect("routed search");
        let truth = oracle_client
            .search_nearest("emb", &query, 10, Default::default())
            .expect("oracle search");
        assert_eq!(
            sig(&ours.hits),
            sig(&truth.hits),
            "merged top-k diverged from the oracle for query {j}"
        );
    }

    // By-key searches: the anchor must be excluded globally, not just on
    // its home shard.
    for key in ["e0000", "e0007", "e0019", "e0039"] {
        let ours = router
            .search_nearest_by_key("emb", key, 5, Default::default())
            .expect("routed by-key search");
        let truth = oracle_client
            .search_nearest_by_key("emb", key, 5, Default::default())
            .expect("oracle by-key search");
        assert!(
            ours.hits.iter().all(|h| h.key != key),
            "anchor {key} leaked into its own neighbours"
        );
        assert_eq!(
            sig(&ours.hits),
            sig(&truth.hits),
            "by-key diverged at {key}"
        );
    }

    oracle_handle.shutdown();
    cluster.shutdown();
}

#[test]
fn leader_kill_promotes_a_follower_with_zero_wrong_answers() {
    let _watchdog = common::watchdog("leader_kill_promotes_a_follower_with_zero_wrong_answers");
    let mut cluster = two_shard_cluster();
    let control = cluster.control();
    let victim = ShardId(0);

    // Traffic: a dedicated router hammers every user, checking every answer
    // against the seeded truth. Wrong answers and errors are counted
    // separately — an error is an availability miss, a wrong answer is a
    // correctness bug.
    let stop = Arc::new(AtomicBool::new(false));
    let traffic = {
        let stop = Arc::clone(&stop);
        let mut router = cluster.router();
        std::thread::spawn(move || -> (u64, u64, u64, Vec<String>) {
            let (mut ok, mut wrong, mut errors) = (0u64, 0u64, 0u64);
            let mut samples: Vec<String> = Vec::new();
            let mut u = 0usize;
            while !stop.load(Ordering::Acquire) {
                let entity = format!("u{}", u % USERS);
                match router.get_features("user", &entity, &["score"]) {
                    Ok(v) => {
                        if v.values == vec![Value::Float(score_for(u % USERS))] {
                            ok += 1;
                        } else {
                            wrong += 1;
                        }
                    }
                    Err(e) => {
                        errors += 1;
                        if samples.len() < 6 {
                            samples.push(format!("{e:?} stats={:?}", router.shard_stats()));
                        }
                    }
                }
                u += 1;
            }
            (ok, wrong, errors, samples)
        })
    };

    std::thread::sleep(Duration::from_millis(100));
    cluster.kill_leader(victim);

    // The control plane needs `failure_threshold` consecutive missed
    // probes (default 2) before it publishes the promoted map.
    assert!(
        control.probe_once().is_empty(),
        "one strike must not promote"
    );
    let events = control.probe_once();
    assert_eq!(events.len(), 1, "second strike promotes the dead leader");
    assert_eq!(events[0].shard, victim);
    assert_eq!(control.map().version(), events[0].map_version);

    // Keep traffic flowing against the promoted map for a while.
    std::thread::sleep(Duration::from_millis(200));
    stop.store(true, Ordering::Release);
    let (ok, wrong, errors, samples) = traffic.join().expect("traffic thread");
    assert!(ok > 0, "no reads completed at all");
    assert_eq!(wrong, 0, "a read returned silently wrong data");
    assert_eq!(
        errors, 0,
        "failover + retries should have absorbed the outage ({ok} ok, samples: {samples:?})"
    );

    // Data-plane promotion: the surviving follower becomes a replication
    // leader, writes resume, and the router sees them.
    cluster.promote_local(victim);
    let moved: usize = (0..USERS)
        .find(|u| cluster.shard_for(&format!("u{u}")) == victim)
        .expect("the victim shard owns at least one seeded user");
    cluster
        .put_online(
            "user",
            &EntityKey::new(format!("u{moved}")),
            &[("score", Value::Float(99.5))],
            NOW,
        )
        .unwrap();
    let mut router = cluster.router();
    let v = router
        .get_features("user", &format!("u{moved}"), &["score"])
        .expect("post-promotion read");
    assert_eq!(
        v.values,
        vec![Value::Float(99.5)],
        "a write to the promoted leader must be readable through the router"
    );
    cluster.shutdown();
}

#[test]
fn routed_writes_read_back_byte_identical() {
    let _watchdog = common::watchdog("routed_writes_read_back_byte_identical");
    let cluster = two_shard_cluster();
    let mut router = cluster.router();

    for u in 0..USERS {
        let entity = format!("u{u}");
        // A float with a deliberately awkward bit pattern and a unicode
        // string: the values must survive write → WAL-backed apply →
        // routed read bit-for-bit.
        let score = f64::from_bits(0x3FF8_0000_0000_0001 + u as u64);
        let values = [
            ("score", Value::Float(score)),
            ("label", Value::Str(format!("écrit-🦀-{u}"))),
        ];
        // The router stamps the authoritative term from its map; the
        // caller's term is irrelevant on the routed path.
        let ack = router
            .put_online("user", &entity, &values, 0)
            .expect("routed write");
        assert_eq!(ack.term, 1, "fresh cluster leaders hold term 1");

        let v = router
            .get_features("user", &entity, &["score", "label"])
            .expect("routed read-back");
        let expected: Vec<Value> = values.iter().map(|(_, v)| v.clone()).collect();
        assert_eq!(v.values, expected, "u{u} read back differently");
        let Value::Float(read) = v.values[0] else {
            panic!("score came back as {:?}", v.values[0]);
        };
        assert_eq!(
            read.to_bits(),
            score.to_bits(),
            "float bits mangled on the write path"
        );
    }
    cluster.shutdown();
}

#[test]
fn automatic_failover_routes_writes_and_fences_the_revived_zombie() {
    let _watchdog =
        common::watchdog("automatic_failover_routes_writes_and_fences_the_revived_zombie");
    let mut cluster = two_shard_cluster();
    let control = cluster.control();
    let victim = ShardId(0);
    let moved: usize = (0..USERS)
        .find(|u| cluster.shard_for(&format!("u{u}")) == victim)
        .expect("the victim shard owns at least one seeded user");

    cluster.kill_leader(victim);

    // Two missed probes promote the follower — map-level (endpoint
    // rotation + term bump) and, via the wire-level `Promote` the control
    // plane sends, data-plane: the follower's engine runs its promotion
    // hook and starts accepting writes. No local intervention.
    assert!(control.probe_once().is_empty(), "one strike must not act");
    let events = control.probe_once();
    assert_eq!(events.len(), 1, "second strike promotes");
    assert_eq!(events[0].shard, victim);
    assert_eq!(events[0].term, 2, "promotion bumps the leader term");

    let mut router = cluster.router();
    let ack = router
        .put_online(
            "user",
            &format!("u{moved}"),
            &[("score", Value::Float(123.5))],
            0,
        )
        .expect("routed write lands on the promoted follower");
    assert_eq!(ack.term, 2, "the ack carries the post-failover term");
    let v = router
        .get_features("user", &format!("u{moved}"), &["score"])
        .expect("routed read");
    assert_eq!(v.values, vec![Value::Float(123.5)]);

    // The dead leader comes back believing it still leads at term 1 — a
    // zombie. Before the control plane reaches it, a *stale-term* write
    // sent straight at it would be accepted; the fence must close that.
    let zombie_addr = cluster.revive_leader(victim).expect("revive");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let fenced = loop {
        // Each probe round retries the pending fence until the revived
        // node acknowledges it.
        control.probe_once();
        if control.snapshot().pending_fences == 0 {
            break true;
        }
        if std::time::Instant::now() > deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(fenced, "the pending fence never reached the revived leader");

    let mut direct = FeatureClient::connect(zombie_addr).expect("connect to zombie");
    let err = direct
        .put_online(
            "user",
            &format!("u{moved}"),
            &[("score", Value::Float(666.0))],
            1,
        )
        .expect_err("a fenced zombie must refuse its old term");
    match err {
        ClientError::NotLeader { current_term } => {
            assert_eq!(current_term, 2, "the refusal names the fencing term")
        }
        other => panic!("expected NotLeader, got {other:?}"),
    }

    // Nothing the zombie did (or was prevented from doing) disturbed the
    // acknowledged post-failover write.
    let v = router
        .get_features("user", &format!("u{moved}"), &["score"])
        .expect("routed read after fencing");
    assert_eq!(v.values, vec![Value::Float(123.5)]);

    // The control section of any node's metrics records the episode.
    let snap = cluster.control_metrics();
    assert_eq!(snap.promotions, 1);
    assert_eq!(snap.terms.get("shard-0"), Some(&2));
    cluster.shutdown();
}

#[test]
fn router_tcp_front_speaks_the_wire_protocol() {
    let _watchdog = common::watchdog("router_tcp_front_speaks_the_wire_protocol");
    let cluster = two_shard_cluster();
    let handle = fstore_shard::start_router("127.0.0.1:0", cluster.control(), Default::default())
        .expect("router server");

    // An ordinary FeatureClient cannot tell the router from a shard.
    let mut client = FeatureClient::connect(handle.addr()).expect("connect to router");
    let v = client
        .get_features("user", "u3", &["score"])
        .expect("read through the TCP router");
    assert_eq!(v.values, vec![Value::Float(score_for(3))]);
    let n = client
        .search_nearest("emb", &vector_for(5), 3, Default::default())
        .expect("search through the TCP router");
    assert_eq!(n.hits.len(), 3);
    assert_eq!(n.hits[0].key, "e0005");
    let (queue_depth, draining) = client.health().expect("aggregated health");
    assert_eq!(queue_depth, 0);
    assert!(!draining);

    // Replication endpoints are per-shard by design.
    match client.call(&Request::ReplSubscribe).expect("typed refusal") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected a BadRequest refusal, got {other:?}"),
    }

    // An undecodable frame in the middle of a pipelined burst answers
    // BadRequest in its own slot; its neighbours answer normally.
    let timeout = Some(Duration::from_secs(5));
    let mut raw = TcpStream::connect(handle.addr()).expect("connect to router");
    let read = |u: usize| Request::GetFeatures {
        group: "user".into(),
        entity: format!("u{u}"),
        features: vec!["score".into()],
    };
    let mut burst = Vec::new();
    write_frame(&mut burst, &read(1).encode()).unwrap();
    write_frame(&mut burst, &[0xde, 0xad, 0xbe, 0xef, 0x42]).unwrap();
    write_frame(&mut burst, &read(2).encode()).unwrap();
    raw.write_all(&burst).unwrap();
    let mut reader = FrameReader::new();
    let mut next = |raw: &TcpStream| match reader.read_frame(raw, MAX_FRAME_LEN, timeout, timeout) {
        Ok(FrameEvent::Frame(payload)) => Some(Response::decode(payload).expect("a response")),
        Ok(FrameEvent::Eof) => None,
        other => panic!("expected a frame or EOF, got {other:?}"),
    };
    for slot in [Some(1), None, Some(2)] {
        match (slot, next(&raw)) {
            (Some(u), Some(Response::Features(v))) => {
                assert_eq!(v.values, vec![Value::Float(score_for(u))])
            }
            (None, Some(Response::Error { code, .. })) => assert_eq!(code, ErrorCode::BadRequest),
            (slot, other) => panic!("slot {slot:?}: unexpected {other:?}"),
        }
    }

    // A frame declaring more than MAX_FRAME_LEN answers FrameTooLarge, and
    // then the front closes the connection.
    raw.write_all(&u32::MAX.to_be_bytes()).unwrap();
    match next(&raw) {
        Some(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::FrameTooLarge),
        other => panic!("expected a FrameTooLarge refusal, got {other:?}"),
    }
    assert!(
        next(&raw).is_none(),
        "the front must close after the refusal"
    );

    handle.shutdown();
    cluster.shutdown();
}
