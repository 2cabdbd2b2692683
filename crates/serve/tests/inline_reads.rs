//! Which thread serves a request. A lone request on an idle connection
//! that the handler answers inline runs on the connection's reader
//! thread, under a free worker state; a pipelined burst, a request the
//! handler keeps off the reader, and anything arriving while every state
//! is taken go through the queue to a worker. The worker states bound the
//! `serve` calls running at once, whichever threads run them — and so
//! the write commits, since `ServeEngine` commits a lone write inline.

mod common;

use fstore_common::{EntityKey, Timestamp, Value};
use fstore_core::FeatureServer;
use fstore_serve::batch::Job;
use fstore_serve::conn::{Drain, Handler};
use fstore_serve::{
    fixed_clock, start, FeatureClient, OnlineWrite, ReadScratch, Request, Response, SearchOptions,
    ServeConfig, ServeEngine, WriteProvider,
};
use fstore_storage::OnlineStore;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const READER: &str = "fstore-serve-conn";
const WORKER: &str = "fstore-serve-worker-";

/// The name of the thread running this.
fn thread_name() -> String {
    std::thread::current().name().unwrap_or("").to_string()
}

/// What a handler saw: the thread each request was served on, and the
/// most `serve` calls it saw running at once.
#[derive(Default)]
struct Seen {
    threads: Mutex<Vec<String>>,
    running: AtomicUsize,
    most_running: AtomicUsize,
}

impl Seen {
    fn threads(&self) -> Vec<String> {
        self.threads.lock().unwrap().clone()
    }

    /// Count one `serve` call in while `body` runs.
    fn serving<T>(&self, requests: usize, body: impl FnOnce() -> T) -> T {
        let now = self.running.fetch_add(1, Ordering::SeqCst) + 1;
        self.most_running.fetch_max(now, Ordering::SeqCst);
        let name = thread_name();
        self.threads
            .lock()
            .unwrap()
            .extend(std::iter::repeat_n(name, requests));
        let out = body();
        self.running.fetch_sub(1, Ordering::SeqCst);
        out
    }
}

/// Answers every request with an ack after `hold` of busy work, and
/// answers everything inline except `Promote`.
struct Recording {
    seen: Arc<Seen>,
    hold: Duration,
}

impl Handler for Recording {
    type Worker = ();

    fn worker(&self) {}

    fn answers_inline(&self, request: &Request) -> bool {
        !matches!(request, Request::Promote { .. })
    }

    fn serve(&self, _: &mut (), jobs: Vec<Job>, out: &mut Drain<'_>) {
        self.seen.serving(jobs.len(), || {
            let until = Instant::now() + self.hold;
            while Instant::now() < until {
                std::hint::spin_loop();
            }
            for job in jobs {
                out.answer_typed(job, Response::PutAck { epoch: 0, term: 0 });
            }
        });
    }
}

fn recording(workers: usize, hold: Duration) -> (fstore_serve::ServerHandle, Arc<Seen>) {
    let seen = Arc::new(Seen::default());
    let handler = Recording {
        seen: Arc::clone(&seen),
        hold,
    };
    let config = ServeConfig::builder().workers(workers).build().unwrap();
    (start(handler, config).unwrap(), seen)
}

fn promote() -> Request {
    Request::Promote { shard: 0, term: 1 }
}

#[test]
fn a_lone_request_is_served_on_its_reader_thread() {
    let _watchdog = common::watchdog("a_lone_request_is_served_on_its_reader_thread");
    let (server, seen) = recording(2, Duration::ZERO);
    let mut client = FeatureClient::connect(server.addr()).unwrap();
    for _ in 0..20 {
        client.call(&Request::Health).unwrap();
    }
    server.shutdown();
    assert_eq!(seen.threads(), vec![READER; 20]);
}

#[test]
fn a_pipelined_burst_is_served_by_workers() {
    let _watchdog = common::watchdog("a_pipelined_burst_is_served_by_workers");
    // More states than requests, so one is always free: only the burst
    // keeps its requests off the reader. Every request but the last has
    // more buffered behind it, and each drain holds its worker for 20 ms,
    // so the last still finds the requests before it unanswered.
    let (server, seen) = recording(16, Duration::from_millis(20));
    let mut client = FeatureClient::connect(server.addr()).unwrap();
    let burst = vec![Request::Health; 8];
    assert_eq!(client.call_many(&burst).unwrap().len(), 8);
    server.shutdown();
    let threads = seen.threads();
    assert_eq!(threads.len(), 8);
    assert!(threads.iter().all(|t| t.starts_with(WORKER)), "{threads:?}");
}

#[test]
fn a_request_the_handler_refuses_inline_goes_to_a_worker() {
    let _watchdog = common::watchdog("a_request_the_handler_refuses_inline_goes_to_a_worker");
    let (server, seen) = recording(2, Duration::ZERO);
    let mut client = FeatureClient::connect(server.addr()).unwrap();
    client.call(&promote()).unwrap();
    client.call(&Request::Health).unwrap();
    server.shutdown();
    let threads = seen.threads();
    assert!(threads[0].starts_with(WORKER), "{threads:?}");
    assert_eq!(threads[1], READER);
}

#[test]
fn one_worker_state_runs_one_serve_at_a_time() {
    let _watchdog = common::watchdog("one_worker_state_runs_one_serve_at_a_time");
    let (server, seen) = recording(1, Duration::from_micros(20));
    let addr = server.addr();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(move || {
                let mut client = FeatureClient::connect(addr).unwrap();
                for _ in 0..2_000 {
                    client.call(&Request::Health).unwrap();
                }
            });
        }
    });
    server.shutdown();
    let threads = seen.threads();
    assert_eq!(threads.len(), 8_000);
    assert_eq!(seen.most_running.load(Ordering::SeqCst), 1);
    let inline = threads.iter().filter(|t| *t == READER).count();
    let queued = threads.iter().filter(|t| t.starts_with(WORKER)).count();
    println!("{inline} served inline, {queued} by the worker");
    assert!(inline > 0, "no request was served inline");
    assert!(queued > 0, "no request reached the worker");
    assert_eq!(inline + queued, threads.len());
}

/// A write leader over the store the engine reads: every write applies to
/// the online store at once.
struct Apply {
    online: Arc<OnlineStore>,
    seq: AtomicU64,
}

impl WriteProvider for Apply {
    fn put_online_many(
        &self,
        writes: &[OnlineWrite<'_>],
        now: Timestamp,
    ) -> Vec<fstore_common::Result<u64>> {
        writes
            .iter()
            .map(|write| {
                for (feature, value) in write.values {
                    self.online.put(
                        write.group,
                        &EntityKey::new(write.entity),
                        feature,
                        value.clone(),
                        now,
                    );
                }
                Ok(self.seq.fetch_add(1, Ordering::SeqCst) + 1)
            })
            .collect()
    }
}

/// [`ServeEngine`] as it is, recording which thread serves each request.
struct Traced {
    engine: ServeEngine,
    seen: Arc<Seen>,
}

impl Handler for Traced {
    type Worker = ReadScratch;

    fn worker(&self) -> ReadScratch {
        self.engine.worker()
    }

    fn answers_inline(&self, request: &Request) -> bool {
        self.engine.answers_inline(request)
    }

    fn serve(&self, scratch: &mut ReadScratch, jobs: Vec<Job>, out: &mut Drain<'_>) {
        self.seen
            .serving(jobs.len(), || self.engine.serve(scratch, jobs, out));
    }
}

const NOW: Timestamp = Timestamp(10_000);

fn engine() -> ServeEngine {
    let online = Arc::new(OnlineStore::default());
    online.put(
        "user",
        &EntityKey::new("u1"),
        "score",
        Value::Float(0.5),
        Timestamp::millis(100),
    );
    let writes = Arc::new(Apply {
        online: Arc::clone(&online),
        seq: AtomicU64::new(0),
    });
    ServeEngine::new(FeatureServer::new(online), fixed_clock(NOW))
        .with_write_provider(writes as Arc<dyn WriteProvider>, 1)
}

fn traced(config: ServeConfig) -> (fstore_serve::ServerHandle, Arc<Seen>) {
    let seen = Arc::new(Seen::default());
    let handler = Traced {
        engine: engine(),
        seen: Arc::clone(&seen),
    };
    (start(handler, config).unwrap(), seen)
}

fn write(score: f64) -> Request {
    Request::PutOnline {
        group: "user".into(),
        entity: "u1".into(),
        values: vec![("score".into(), Value::Float(score))],
        term: 1,
    }
}

fn read() -> Request {
    Request::GetFeatures {
        group: "user".into(),
        entity: "u1".into(),
        features: vec!["score".into()],
    }
}

fn score(response: &Response) -> Value {
    match response {
        Response::Features(v) => v.values[0].clone(),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn a_pipelined_write_then_read_reads_the_write() {
    let _watchdog = common::watchdog("a_pipelined_write_then_read_reads_the_write");
    // One worker claiming one job at a time executes a connection's
    // pipelined requests in arrival order; the read must not overtake
    // the queued write on the reader thread.
    let config = ServeConfig::builder()
        .workers(1)
        .max_batch(1)
        .build()
        .unwrap();
    let (server, _) = traced(config);
    let mut client = FeatureClient::connect(server.addr()).unwrap();
    for i in 0..50 {
        let score_now = f64::from(i);
        let answers = client.call_many(&[write(score_now), read()]).unwrap();
        assert!(matches!(answers[0], Response::PutAck { .. }), "{answers:?}");
        assert_eq!(score(&answers[1]), Value::Float(score_now));
    }
    server.shutdown();
}

#[test]
fn a_depth_one_write_and_the_read_after_it_are_both_inline() {
    let _watchdog = common::watchdog("a_depth_one_write_and_the_read_after_it_are_both_inline");
    let (server, seen) = traced(ServeConfig::default());
    let mut client = FeatureClient::connect(server.addr()).unwrap();
    for i in 0..20 {
        let score_now = f64::from(i);
        assert!(matches!(
            client.call(&write(score_now)).unwrap(),
            Response::PutAck { .. }
        ));
        assert_eq!(
            score(&client.call(&read()).unwrap()),
            Value::Float(score_now)
        );
    }
    server.shutdown();
    assert_eq!(seen.threads(), vec![READER; 40]);
}

/// A write leader that counts the commits running at once. Its sequence
/// counter is deliberately not atomic: two commits at once could hand
/// out one sequence number twice.
#[derive(Default)]
struct Counting {
    in_flight: AtomicUsize,
    most_in_flight: AtomicUsize,
    seq: AtomicU64,
}

impl WriteProvider for Counting {
    fn put_online_many(
        &self,
        writes: &[OnlineWrite<'_>],
        _now: Timestamp,
    ) -> Vec<fstore_common::Result<u64>> {
        let now = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        self.most_in_flight.fetch_max(now, Ordering::SeqCst);
        let until = Instant::now() + Duration::from_micros(20);
        while Instant::now() < until {
            std::hint::spin_loop();
        }
        let answers = writes
            .iter()
            .map(|_| {
                let seq = self.seq.load(Ordering::SeqCst) + 1;
                self.seq.store(seq, Ordering::SeqCst);
                Ok(seq)
            })
            .collect();
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        answers
    }
}

#[test]
fn one_worker_state_runs_one_commit_at_a_time() {
    let _watchdog = common::watchdog("one_worker_state_runs_one_commit_at_a_time");
    const CLIENTS: usize = 4;
    const WRITES: usize = 500;
    let counting = Arc::new(Counting::default());
    let engine = ServeEngine::new(
        FeatureServer::new(Arc::new(OnlineStore::default())),
        fixed_clock(NOW),
    )
    .with_write_provider(Arc::clone(&counting) as Arc<dyn WriteProvider>, 1);
    let seen = Arc::new(Seen::default());
    let handler = Traced {
        engine,
        seen: Arc::clone(&seen),
    };
    let server = start(handler, ServeConfig::builder().workers(1).build().unwrap()).unwrap();
    let addr = server.addr();
    let acks: Vec<u64> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = FeatureClient::connect(addr).unwrap();
                    (0..WRITES)
                        .map(|i| match client.call(&write(i as f64)).unwrap() {
                            Response::PutAck { epoch, .. } => epoch,
                            other => panic!("unexpected {other:?}"),
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect()
    });
    server.shutdown();
    assert_eq!(counting.most_in_flight.load(Ordering::SeqCst), 1);
    assert_eq!(seen.most_running.load(Ordering::SeqCst), 1);
    let mut distinct = acks.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), CLIENTS * WRITES, "an ack's seq repeats");
    let threads = seen.threads();
    let inline = threads.iter().filter(|t| *t == READER).count();
    let queued = threads.iter().filter(|t| t.starts_with(WORKER)).count();
    println!("{inline} committed inline, {queued} by the worker");
    assert!(inline > 0, "no write committed inline");
    assert!(queued > 0, "no write reached the worker");
    assert_eq!(inline + queued, CLIENTS * WRITES);
}

#[test]
fn the_serve_engine_answers_reads_and_writes_inline_and_nothing_else() {
    let engine = engine();
    let inner = Request::Health;
    let table: Vec<(Request, bool)> = vec![
        (Request::Health, true),
        (read(), true),
        (
            Request::GetFeaturesBatch {
                group: "user".into(),
                entities: vec!["u1".into()],
                features: vec!["score".into()],
            },
            true,
        ),
        (
            Request::GetEmbedding {
                table: "emb".into(),
                key: "k".into(),
            },
            true,
        ),
        (
            Request::SearchNearest {
                table: "emb".into(),
                query: vec![0.0; 4],
                k: 3,
                options: SearchOptions::default(),
            },
            true,
        ),
        (
            Request::SearchNearestByKey {
                table: "emb".into(),
                key: "k".into(),
                k: 3,
                options: SearchOptions::default(),
            },
            true,
        ),
        (Request::ReplSubscribe, false),
        (Request::ReplSnapshot, false),
        (Request::ReplDeltas { from_epoch: 0 }, false),
        (
            Request::WithDeadline {
                budget_ms: 10,
                inner: Box::new(inner),
            },
            false,
        ),
        (write(1.0), true),
        (promote(), false),
        (Request::Demote { shard: 0, term: 1 }, false),
    ];
    for (request, inline) in &table {
        // No wildcard: a new request variant must join the table.
        match request {
            Request::Health
            | Request::GetFeatures { .. }
            | Request::GetFeaturesBatch { .. }
            | Request::GetEmbedding { .. }
            | Request::SearchNearest { .. }
            | Request::SearchNearestByKey { .. }
            | Request::ReplSubscribe
            | Request::ReplSnapshot
            | Request::ReplDeltas { .. }
            | Request::WithDeadline { .. }
            | Request::PutOnline { .. }
            | Request::Promote { .. }
            | Request::Demote { .. } => {}
        }
        assert_eq!(engine.answers_inline(request), *inline, "{request:?}");
    }
    assert_eq!(table.len(), 13);
}
