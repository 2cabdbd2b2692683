//! Property test for how a resilient client settles mixed bursts: random
//! bursts of writes and reads, some of them to the same entity, sent
//! through the fault-injecting proxy to a server that sheds mid-burst
//! (one worker, a queue of one, a 2 ms nap per job), with or without
//! mid-frame cuts. Each burst goes out twice — once pipelined through
//! `call_many`, once request by request through `call` — on a client
//! built by `ClientBuilder` with a retry policy.
//!
//! The property is about what the client *claims* of each write, checked
//! against what the server's write provider actually applied:
//!
//! * a write reported as a typed refusal — a `Response::Error` in its
//!   slot, `Err(Server)`, `Err(NotLeader)` or `Err(WriteFailed { applied:
//!   Some(false) })` — was never applied (admission sheds job by job, so a
//!   shed read beside a write says nothing about the write);
//! * a write answered `PutAck` was applied;
//! * every answered read slot holds the right entity's vector or typed
//!   pushback, and with no cuts a failed read is typed pushback too.
//!
//! The runner is hand-rolled like `pipeline_props.rs`: one deterministic
//! [`TestRng`], one server + proxy pair shared by every case.

mod common;

use fstore_common::{EntityKey, Timestamp, Value};
use fstore_core::FeatureServer;
use fstore_serve::fault::FaultyProxy;
use fstore_serve::retry::pushback;
use fstore_serve::{
    classify, fixed_clock, start, ClientBuilder, ClientError, ErrorClass, OnlineWrite, Request,
    Response, RetryPolicy, ServeConfig, ServeEngine, ServerHandle, Transport, WriteProvider,
};
use fstore_storage::OnlineStore;
use proptest::prelude::*;
use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const NOW: Timestamp = Timestamp(10_000);
const ENTITIES: usize = 4;
const CASES: usize = 64;

fn score(entity: usize) -> Value {
    Value::Float(entity as f64 + 0.25)
}

/// A write sink that records the unique `Value::Int` every applied write
/// carries, so the test can tell which writes really landed.
#[derive(Default)]
struct Recorder {
    applied: Mutex<HashSet<i64>>,
    seq: AtomicU64,
}

impl WriteProvider for Recorder {
    fn put_online_many(
        &self,
        writes: &[OnlineWrite<'_>],
        _now: Timestamp,
    ) -> Vec<fstore_common::Result<u64>> {
        let mut applied = self.applied.lock().unwrap();
        writes
            .iter()
            .map(|write| {
                for (_, value) in write.values {
                    if let Value::Int(id) = value {
                        applied.insert(*id);
                    }
                }
                Ok(self.seq.fetch_add(1, Ordering::SeqCst) + 1)
            })
            .collect()
    }
}

impl Recorder {
    fn applied(&self, id: i64) -> bool {
        self.applied.lock().unwrap().contains(&id)
    }
}

fn start_server(recorder: &Arc<Recorder>) -> ServerHandle {
    let online = Arc::new(OnlineStore::default());
    for i in 0..ENTITIES {
        online.put(
            "user",
            &EntityKey::new(format!("u{i}")),
            "score",
            score(i),
            Timestamp::millis(100),
        );
    }
    let engine = ServeEngine::new(FeatureServer::new(online), fixed_clock(NOW))
        .with_write_provider(Arc::clone(recorder) as Arc<dyn WriteProvider>, 1);
    // One worker that naps on every job and a queue of one: a burst of
    // more than two requests is shed somewhere in the middle.
    let config = ServeConfig::builder()
        .addr("127.0.0.1:0")
        .workers(1)
        .queue_depth(1)
        .max_batch(1)
        .handler_delay(Duration::from_millis(2))
        .build()
        .unwrap();
    start(engine, config).unwrap()
}

/// One request of a burst: a read of `entity`, or a write of `entity`
/// carrying the unique id `write`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    entity: usize,
    write: Option<i64>,
}

impl Slot {
    fn request(&self) -> Request {
        let entity = format!("u{}", self.entity);
        match self.write {
            Some(id) => Request::PutOnline {
                group: "user".into(),
                entity,
                values: vec![("score".into(), Value::Int(id))],
                term: 1,
            },
            None => Request::GetFeatures {
                group: "user".into(),
                entity,
                features: vec!["score".into()],
            },
        }
    }
}

/// 1–8 slots, 40 % writes; half the slots after the first repeat the
/// previous slot's entity, so same-entity pairs are common.
fn burst(rng: &mut TestRng, next_id: &mut i64) -> Vec<Slot> {
    let len = 1 + rng.below(8);
    let mut slots: Vec<Slot> = Vec::with_capacity(len);
    for _ in 0..len {
        let entity = match slots.last() {
            Some(prev) if rng.below(2) == 0 => prev.entity,
            _ => rng.below(ENTITIES),
        };
        let write = (rng.below(5) < 2).then(|| {
            *next_id += 1;
            *next_id
        });
        slots.push(Slot { entity, write });
    }
    slots
}

/// What the client claims of one write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Claim {
    Applied,
    Refused,
    Unknown,
}

fn claim_of_answer(response: &Response) -> Claim {
    match response {
        Response::PutAck { .. } => Claim::Applied,
        Response::Error { .. } => Claim::Refused,
        other => panic!("a write answered {other:?}"),
    }
}

fn claim_of_error(error: &ClientError) -> Claim {
    match error {
        ClientError::Server { .. }
        | ClientError::NotLeader { .. }
        | ClientError::WriteFailed {
            applied: Some(false),
            ..
        } => Claim::Refused,
        _ => Claim::Unknown,
    }
}

/// Checks every slot of one settled call (`outcome` answers `slots`).
struct Checker<'a> {
    recorder: &'a Recorder,
    cut: f64,
    case: usize,
}

impl Checker<'_> {
    fn settle(&self, how: &str, slots: &[Slot], outcome: &Result<Vec<Response>, ClientError>) {
        let context = format!("case {} ({how}, cut {:.2}): {slots:?}", self.case, self.cut);
        if let Ok(answers) = outcome {
            assert_eq!(answers.len(), slots.len(), "{context}");
        }
        for (i, slot) in slots.iter().enumerate() {
            let answer = outcome.as_ref().map(|answers| &answers[i]);
            match slot.write {
                Some(id) => {
                    let claim = match answer {
                        Ok(response) => claim_of_answer(response),
                        Err(error) => claim_of_error(error),
                    };
                    let applied = self.recorder.applied(id);
                    assert!(
                        claim == Claim::Unknown || (claim == Claim::Applied) == applied,
                        "write {id} in slot {i} claimed {claim:?} but applied={applied}; \
                         outcome {outcome:?}; {context}"
                    );
                }
                None => match answer {
                    Ok(Response::Features(vector)) => assert!(
                        vector.entity == format!("u{}", slot.entity)
                            && vector.values == vec![score(slot.entity)],
                        "read slot {i} crossed: {vector:?}; {context}"
                    ),
                    Ok(response) => assert!(
                        pushback(response).is_some(),
                        "read slot {i} answered {response:?}; {context}"
                    ),
                    Err(error) => assert!(
                        self.cut > 0.0 || classify(error) == ErrorClass::Backoff,
                        "read slot {i} failed untyped without cuts: {error:?}; {context}"
                    ),
                },
            }
        }
    }
}

/// A fresh client per call, so one call's retries and breaker history
/// never decide the next call's answer.
fn client(proxy: SocketAddr) -> impl Transport {
    ClientBuilder::new()
        .endpoint(proxy.to_string())
        .connect_timeout(Some(Duration::from_millis(250)))
        .read_timeout(Some(Duration::from_secs(2)))
        .write_timeout(Some(Duration::from_secs(2)))
        .retry(RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
            ..RetryPolicy::default()
        })
        .build()
        .expect("valid client config")
}

#[test]
fn mixed_bursts_never_claim_a_refused_write_that_was_applied() {
    let _watchdog = common::watchdog("mixed_bursts_never_claim_a_refused_write_that_was_applied");
    let recorder = Arc::new(Recorder::default());
    let server = start_server(&recorder);
    let proxy = FaultyProxy::start(server.addr(), 0xB5_5E77).unwrap();
    let faults = proxy.faults();

    let mut rng = TestRng::deterministic("burst_settle::mixed");
    let mut next_id = 0i64;
    let (mut acked, mut refused) = (0usize, 0usize);
    for case in 0..CASES {
        // Half the cases run clean; the rest cut response frames mid-way
        // with a probability drawn from [0.05, 0.5).
        let cut = if rng.below(2) == 0 {
            0.0
        } else {
            0.05 + 0.45 * rng.next_f64()
        };
        faults.set_drop_midframe_probability(cut);
        let check = Checker {
            recorder: &recorder,
            cut,
            case,
        };

        let slots = burst(&mut rng, &mut next_id);
        let requests: Vec<Request> = slots.iter().map(Slot::request).collect();
        let outcome = Transport::call_many(&mut client(proxy.addr()), &requests);
        check.settle("call_many", &slots, &outcome);
        if let Ok(answers) = &outcome {
            for (slot, answer) in slots.iter().zip(answers) {
                if slot.write.is_some() {
                    match claim_of_answer(answer) {
                        Claim::Applied => acked += 1,
                        _ => refused += 1,
                    }
                }
            }
        }

        // The same burst request by request, with fresh write ids.
        let singles = burst_again(&slots, &mut next_id);
        for slot in singles {
            let outcome =
                Transport::call(&mut client(proxy.addr()), &slot.request()).map(|r| vec![r]);
            check.settle("call", &[slot], &outcome);
        }
    }
    faults.clear();
    // The schedule must actually exercise both sides of the rule.
    assert!(acked > 0, "no write in a burst was acked");
    assert!(refused > 0, "no write in a burst was shed");

    proxy.shutdown();
    server.shutdown();
}

/// `slots` with every write given a new unique id.
fn burst_again(slots: &[Slot], next_id: &mut i64) -> Vec<Slot> {
    slots
        .iter()
        .map(|slot| Slot {
            entity: slot.entity,
            write: slot.write.map(|_| {
                *next_id += 1;
                *next_id
            }),
        })
        .collect()
}
