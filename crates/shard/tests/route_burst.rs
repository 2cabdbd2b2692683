//! Router bursts over a live two-shard cluster.
//!
//! * **Equivalence.** A burst routed as one flight — split into per-shard
//!   sub-bursts, written whole, answered per request — must answer
//!   byte-for-byte what routing each request on its own answers, for
//!   every request kind, in process and through the TCP front. Bursts
//!   are generated from a fixed seed: point reads, batches (empty, with
//!   duplicate keys, across both shards), searches (including `k = 0`),
//!   by-key searches, `Health`, unknown groups and tables, and writes.
//!   Writes go to keys no read touches, so the only state a burst can
//!   observe is what per-shard caller order already fixes.
//! * **Caller order.** On shards with several workers, a burst that
//!   writes, reads and rewrites the same keys answers what routing each
//!   request alone answers: no request changes places with a write to an
//!   entity it names.
//! * **Failure isolation.** A burst whose keys span a live shard and one
//!   whose endpoints are unreachable gets right answers from the live
//!   shard and typed errors for the dead one's requests only.
//! * **Per-request pushback.** A shard that sheds a read beside a write
//!   it applied reports the write's ack, not the shed.

#[path = "../../serve/tests/common/mod.rs"]
mod common;
mod seeded;

use fstore_common::Value;
use fstore_serve::{
    ClientError, ErrorCode, FeatureClient, Request, Response, SearchOptions, ServeConfig, Transport,
};
use fstore_shard::{start_router, ClusterConfig, RouterConfig, ShardCluster, ShardId};
use proptest::prelude::TestRng;
use seeded::{score_for, seeded_cluster, vector_for, EMB_KEYS, USERS};

const CASES: usize = 48;

fn user(rng: &mut TestRng) -> String {
    // A few past the seeded range: entities that exist nowhere.
    format!("u{}", rng.below(USERS + 4))
}

fn group(rng: &mut TestRng) -> String {
    if rng.below(8) == 0 { "nogroup" } else { "user" }.to_string()
}

fn table(rng: &mut TestRng) -> String {
    if rng.below(8) == 0 { "notable" } else { "emb" }.to_string()
}

fn features(rng: &mut TestRng) -> Vec<String> {
    match rng.below(3) {
        0 => vec!["score".into()],
        1 => vec!["score".into(), "nope".into()],
        _ => Vec::new(),
    }
}

/// One request of any kind; `writes` numbers the write keys (`w…`), which
/// no read ever names.
fn any_request(rng: &mut TestRng, writes: &mut u32) -> Request {
    match rng.below(8) {
        0 | 1 => Request::GetFeatures {
            group: group(rng),
            entity: user(rng),
            features: features(rng),
        },
        2 => Request::GetEmbedding {
            table: table(rng),
            key: format!("e{:04}", rng.below(EMB_KEYS + 4)),
        },
        3 => {
            // 0..8 keys from a small range, so duplicates are common.
            let n = rng.below(8);
            Request::GetFeaturesBatch {
                group: group(rng),
                entities: (0..n).map(|_| user(rng)).collect(),
                features: features(rng),
            }
        }
        4 => Request::SearchNearest {
            table: table(rng),
            query: vector_for(rng.below(EMB_KEYS))
                .iter()
                .map(|x| x + 0.003)
                .collect(),
            k: rng.below(6) as u32,
            options: SearchOptions::default(),
        },
        5 => Request::SearchNearestByKey {
            table: table(rng),
            key: format!("e{:04}", rng.below(EMB_KEYS)),
            k: rng.below(5) as u32,
            options: SearchOptions::default(),
        },
        6 => Request::Health,
        _ => {
            *writes += 1;
            Request::PutOnline {
                group: "user".into(),
                entity: format!("w{}", *writes),
                values: vec![("score".into(), Value::Float(f64::from(*writes) * 0.5))],
                term: 0,
            }
        }
    }
}

fn bytes(responses: Vec<Response>) -> Vec<Vec<u8>> {
    responses.iter().map(|r| r.encode().to_vec()).collect()
}

#[test]
fn a_routed_burst_answers_exactly_what_routing_each_request_alone_does() {
    let _watchdog =
        common::watchdog("a_routed_burst_answers_exactly_what_routing_each_request_alone_does");
    // Two identically seeded clusters take the same writes in the same
    // per-shard order — one as bursts, one request at a time — so write
    // acks (publication sequences) must match too. A shard server answers
    // a pipelined burst in order but runs it on its workers in any order;
    // with one worker its writes apply in arrival order, which is what
    // makes the sequences comparable. No followers: nothing but the test
    // touches a shard, so `Health` queue depths are exact.
    let (bursts, singles) = (seeded_cluster(0, 1), seeded_cluster(0, 1));
    let front_for = |cluster: &ShardCluster| {
        start_router("127.0.0.1:0", cluster.control(), RouterConfig::default())
            .expect("router front")
    };
    let (burst_front, single_front) = (front_for(&bursts), front_for(&singles));
    let mut burst_router = bursts.router();
    let mut single_router = singles.router();
    let mut burst_wire = FeatureClient::connect(burst_front.addr()).expect("connect");
    let mut single_wire = FeatureClient::connect(single_front.addr()).expect("connect");

    let mut rng = TestRng::deterministic("route_burst::equivalence");
    let mut writes = 0u32;
    for case in 0..CASES {
        let n = 1 + rng.below(16);
        let burst: Vec<Request> = (0..n).map(|_| any_request(&mut rng, &mut writes)).collect();

        let flown = burst_router.call_many(&burst).expect("burst routes");
        let alone: Vec<Response> = burst
            .iter()
            .map(|r| single_router.call(r).expect("request routes"))
            .collect();
        assert_eq!(
            bytes(flown),
            bytes(alone),
            "in process, case {case}: {burst:?}"
        );

        let flown = burst_wire.call_many(&burst).expect("front burst");
        let alone: Vec<Response> = burst
            .iter()
            .map(|r| single_wire.call(r).expect("front request"))
            .collect();
        assert_eq!(
            bytes(flown),
            bytes(alone),
            "through the front, case {case}: {burst:?}"
        );
    }
    assert!(writes > 0, "the generator wrote nothing");
    burst_front.shutdown();
    single_front.shutdown();
    bursts.shutdown();
    singles.shutdown();
}

/// Users on `shard`, with their seeded scores.
fn users_on(cluster: &ShardCluster, shard: ShardId) -> Vec<usize> {
    (0..USERS)
        .filter(|u| cluster.shard_for(&format!("u{u}")) == shard)
        .collect()
}

fn read(u: usize) -> Request {
    Request::GetFeatures {
        group: "user".into(),
        entity: format!("u{u}"),
        features: vec!["score".into()],
    }
}

fn is_score(response: &Response, u: usize) -> bool {
    matches!(response, Response::Features(v) if v.values == vec![Value::Float(score_for(u))])
}

#[test]
fn a_dead_shard_fails_only_its_own_requests_in_a_burst() {
    let _watchdog = common::watchdog("a_dead_shard_fails_only_its_own_requests_in_a_burst");
    // No followers: once its leader dies, shard 1 has no endpoint left.
    let mut cluster = seeded_cluster(0, ServeConfig::default().workers);
    let (live, dead) = (ShardId(0), ShardId(1));
    let (live_users, dead_users) = (users_on(&cluster, live), users_on(&cluster, dead));
    assert!(!live_users.is_empty() && !dead_users.is_empty());
    cluster.kill_leader(dead);
    let front = start_router("127.0.0.1:0", cluster.control(), RouterConfig::default())
        .expect("router front");

    // Interleave the two shards' reads, add a batch on the live shard and
    // a write to each.
    let mut burst: Vec<Request> = live_users
        .iter()
        .zip(&dead_users)
        .flat_map(|(&l, &d)| [read(l), read(d)])
        .collect();
    burst.push(Request::GetFeaturesBatch {
        group: "user".into(),
        entities: live_users.iter().map(|u| format!("u{u}")).collect(),
        features: vec!["score".into()],
    });
    let write = |u: usize| Request::PutOnline {
        group: "user".into(),
        entity: format!("u{u}"),
        values: vec![("score".into(), Value::Float(score_for(u)))],
        term: 0,
    };
    burst.push(write(live_users[0]));
    burst.push(write(dead_users[0]));
    let on_dead = |request: &Request| match request {
        Request::GetFeatures { entity, .. } | Request::PutOnline { entity, .. } => {
            cluster.shard_for(entity) == dead
        }
        _ => false,
    };

    // In process: one result per request.
    let mut router = cluster.router();
    let results = router.route_burst(&burst);
    for (request, result) in burst.iter().zip(&results) {
        match (request, result) {
            (r, Err(e)) if on_dead(r) => {
                let sealed = matches!(r, Request::PutOnline { .. });
                assert_eq!(
                    matches!(
                        e,
                        ClientError::WriteFailed {
                            applied: Some(false),
                            ..
                        }
                    ),
                    sealed,
                    "{r:?}: {e}"
                );
            }
            (Request::GetFeatures { entity, .. }, Ok(response)) => {
                let u: usize = entity[1..].parse().unwrap();
                assert!(is_score(response, u), "{entity}: {response:?}");
            }
            (Request::GetFeaturesBatch { .. }, Ok(Response::FeaturesBatch(rows))) => {
                assert_eq!(rows.len(), live_users.len());
            }
            (Request::PutOnline { .. }, Ok(Response::PutAck { term, .. })) => assert_eq!(*term, 1),
            (request, result) => panic!("{request:?} answered {result:?}"),
        }
    }

    // Through the front: the same split, as typed error frames.
    let mut client = FeatureClient::connect(front.addr()).expect("connect to the front");
    let responses = client
        .call_many(&burst)
        .expect("the front answers every frame");
    assert_eq!(responses.len(), burst.len());
    for (request, response) in burst.iter().zip(&responses) {
        if on_dead(request) {
            assert!(
                matches!(
                    response,
                    Response::Error {
                        code: ErrorCode::Internal,
                        ..
                    }
                ),
                "{request:?} answered {response:?}"
            );
        } else {
            assert!(
                !matches!(response, Response::Error { .. }),
                "{request:?} answered {response:?}"
            );
        }
    }
    front.shutdown();
    cluster.shutdown();
}

/// A burst over a few fresh keys in which every key is written before it
/// is read: each key's requests are a write, then writes, reads and
/// batches of it, and the keys' sequences interleave at random. Batches
/// name one key and a seeded user, so they span both shards.
fn same_key_burst(rng: &mut TestRng, case: usize) -> Vec<Request> {
    let keys: Vec<String> = (0..3).map(|k| format!("o{case}_{k}")).collect();
    let mut pending: Vec<Vec<Request>> = keys
        .iter()
        .enumerate()
        .map(|(k, key)| {
            let n = 2 + rng.below(5);
            (0..n)
                .map(|j| match if j == 0 { 0 } else { rng.below(3) } {
                    0 => Request::PutOnline {
                        group: "user".into(),
                        entity: key.clone(),
                        values: vec![("score".into(), Value::Float((k * 10 + j) as f64))],
                        term: 0,
                    },
                    1 => Request::GetFeatures {
                        group: "user".into(),
                        entity: key.clone(),
                        features: vec!["score".into()],
                    },
                    _ => Request::GetFeaturesBatch {
                        group: "user".into(),
                        entities: vec![format!("u{}", rng.below(USERS)), key.clone()],
                        features: vec!["score".into()],
                    },
                })
                .rev()
                .collect()
        })
        .collect();
    let mut burst = Vec::new();
    while pending.iter().any(|p| !p.is_empty()) {
        let k = rng.below(pending.len());
        if let Some(request) = pending[k].pop() {
            burst.push(request);
        }
    }
    burst
}

#[test]
fn a_burst_never_reorders_requests_on_one_entity() {
    let _watchdog = common::watchdog("a_burst_never_reorders_requests_on_one_entity");
    let workers = ServeConfig::default().workers;
    assert!(
        workers > 1,
        "the check needs shards that run jobs in parallel"
    );
    let (bursts, singles) = (seeded_cluster(0, workers), seeded_cluster(0, workers));
    let mut burst_router = bursts.router();
    let mut single_router = singles.router();
    let front = start_router("127.0.0.1:0", bursts.control(), RouterConfig::default())
        .expect("router front");
    let mut wire = FeatureClient::connect(front.addr()).expect("connect");

    let mut rng = TestRng::deterministic("route_burst::same_key");
    for case in 0..CASES {
        // Even cases go through the front, odd ones in process; each case
        // writes its own keys, so the single-call cluster needs one pass.
        let burst = same_key_burst(&mut rng, case);
        let flown = if case % 2 == 0 {
            wire.call_many(&burst).expect("front burst")
        } else {
            burst_router.call_many(&burst).expect("burst routes")
        };
        let alone: Vec<Response> = burst
            .iter()
            .map(|r| single_router.call(r).expect("request routes"))
            .collect();
        // Reads must match byte for byte. Writes to different keys may
        // apply in either order, so their publication sequences differ
        // between the clusters; writes to one key must ascend.
        let mut last_epoch: Vec<(&str, u64)> = Vec::new();
        for ((request, got), want) in burst.iter().zip(&flown).zip(&alone) {
            match (request, got) {
                (Request::PutOnline { entity, .. }, Response::PutAck { epoch, term }) => {
                    assert_eq!(*term, 1, "case {case}");
                    if let Some((_, last)) = last_epoch.iter_mut().find(|(e, _)| e == entity) {
                        assert!(*epoch > *last, "case {case}: {entity} overtaken: {burst:?}");
                        *last = *epoch;
                    } else {
                        last_epoch.push((entity, *epoch));
                    }
                }
                (Request::PutOnline { .. }, other) => panic!("case {case}: write got {other:?}"),
                _ => assert_eq!(
                    got.encode(),
                    want.encode(),
                    "case {case}: {request:?} in {burst:?}"
                ),
            }
        }
    }
    front.shutdown();
    bursts.shutdown();
    singles.shutdown();
}

#[test]
fn a_shed_read_beside_an_applied_write_leaves_the_write_acked() {
    let _watchdog = common::watchdog("a_shed_read_beside_an_applied_write_leaves_the_write_acked");
    // One worker that naps on every job, and a queue of one: the first job
    // of a burst is admitted and claimed at once, and of the reads queued
    // behind it at least one is shed.
    let cluster = ShardCluster::start(
        ClusterConfig {
            shards: 2,
            followers: 0,
            serve: ServeConfig {
                workers: 1,
                queue_depth: 1,
                max_batch: 1,
                handler_delay: Some(std::time::Duration::from_millis(150)),
                ..ServeConfig::default()
            },
            ..ClusterConfig::default()
        },
        fstore_serve::fixed_clock(seeded::NOW),
    )
    .expect("cluster starts");
    let shard = ShardId(0);
    let on_shard: Vec<String> = (0..)
        .map(|u| format!("u{u}"))
        .filter(|e| cluster.shard_for(e) == shard)
        .take(4)
        .collect();
    let write = |n: u32| Request::PutOnline {
        group: "user".into(),
        entity: on_shard[0].clone(),
        values: vec![("score".into(), Value::Float(f64::from(n)))],
        term: 1,
    };
    let burst = |n: u32| -> Vec<Request> {
        let mut burst = vec![write(n)];
        burst.extend(on_shard[1..].iter().map(|e| Request::GetFeatures {
            group: "user".into(),
            entity: e.clone(),
            features: vec!["score".into()],
        }));
        burst
    };

    // The shape sheds: sent straight to the shard leader, the write is
    // acked and a read beside it is refused.
    let leader = cluster.leader_addrs()[0];
    let raw = FeatureClient::connect(leader)
        .expect("connect to the leader")
        .call_many(&burst(1))
        .expect("the leader answers every frame");
    assert!(matches!(raw[0], Response::PutAck { .. }), "{raw:?}");
    assert!(
        raw[1..].iter().any(|r| matches!(
            r,
            Response::Error {
                code: ErrorCode::Overloaded,
                ..
            }
        )),
        "the set-up should shed a read: {raw:?}"
    );

    // Routed, the write keeps its ack and the shed reads are re-sent.
    let mut router = cluster.router();
    let results = router.route_burst(&burst(2));
    assert!(
        matches!(results[0], Ok(Response::PutAck { term: 1, .. })),
        "the applied write must report its ack: {:?}",
        results[0]
    );
    for result in &results[1..] {
        assert!(
            matches!(result, Ok(Response::Features(_)))
                || matches!(
                    result,
                    Err(ClientError::Server {
                        code: ErrorCode::Overloaded,
                        ..
                    })
                ),
            "a read is answered or refused by type: {result:?}"
        );
    }

    // Through the front, the write's frame is its ack.
    let front = start_router("127.0.0.1:0", cluster.control(), RouterConfig::default())
        .expect("router front");
    let framed = FeatureClient::connect(front.addr())
        .expect("connect to the front")
        .call_many(&burst(3))
        .expect("the front answers every frame");
    assert!(matches!(framed[0], Response::PutAck { .. }), "{framed:?}");

    let got = router
        .call(&Request::GetFeatures {
            group: "user".into(),
            entity: on_shard[0].clone(),
            features: vec!["score".into()],
        })
        .expect("read back");
    assert!(
        matches!(&got, Response::Features(v) if v.values == vec![Value::Float(3.0)]),
        "{got:?}"
    );
    front.shutdown();
    cluster.shutdown();
}
