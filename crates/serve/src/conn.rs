//! The connection engine: the one connection loop every TCP server of the
//! workspace runs on, whatever answers its requests. A [`Handler`] answers
//! one drain of jobs at a time; [`ServeEngine`](crate::ServeEngine) is
//! one handler, the shard router's TCP front is another.
//!
//! Architecture (std threads only — no async runtime):
//!
//! ```text
//!   acceptor ──spawns──▶ connection reader threads (one per socket):
//!       │                  frame in ─▶ reserve seq in the outbox ─▶ admit
//!       │                        │ a lone read or write on an idle
//!       │                        │ connection, with a worker state free:
//!       │                        │ served right here, one-job drain ──┐
//!       │                        │ otherwise: submit (admission:      │
//!       │                        │ bounded, non-blocking)             │
//!       │                        ▼                                    │
//!       │               bounded crossbeam channel                     │
//!       │                        │ recv + opportunistic drain         │
//!       │                        ▼                                    │
//!       └──────────────▶ worker pool: take a worker state, then ◀─────┘
//!                        the drain: shed jobs whose deadline lapsed,
//!                        Handler::serve, deposit each reply in slot
//!                        `seq` (Drain), flush every connection answered
//!                                ▼
//!                        per-connection outbox: frame every ready reply
//!                        from the head ─▶ one non-blocking send per run
//!                                │ only if the socket would block
//!                                ▼
//!                        stall flusher (spawned at the first stall):
//!                        finishes the run with blocking writes
//! ```
//!
//! Each connection is a *pipeline*: the reader keeps admitting frames (up
//! to [`ServeConfig::pipeline_depth`] in flight) and responses leave **in
//! request order** — every request takes the next sequence number of its
//! connection's outbox, and replies leave from the head of the outbox
//! only, so the wire needs no correlation IDs (DESIGN §2.16). Workers
//! claim a job plus whatever else is queued (up to
//! [`ServeConfig::max_batch`]) and hand the drain to the handler whole;
//! whoever completes the head reply sends it itself.
//!
//! The handler's worker states are the execution permits: `start` makes
//! [`ServeConfig::workers`] of them, and every drain runs under one, so at
//! most that many [`Handler::serve`] calls run at once. A reader serves a
//! request itself — no thread hop at all — only when the request is its
//! connection's one unsent request (everything before it has been
//! answered and taken for sending, so per-connection execution order is
//! the queue path's), nothing more is buffered behind it, the server is
//! not draining, the handler [answers it inline](Handler::answers_inline),
//! and a worker state is free on the first try. Everything else — pipelined
//! bursts (so a burst of writes still commits as one group), admin and
//! replication requests, a busy server — goes through admission and the
//! queue.
//!
//! Nobody blocks on a peer's socket: a send that would block hands the
//! rest of its run to the connection's stall flusher. Shutdown is
//! graceful: admission flips to draining, open sockets are shut down, and
//! workers finish every admitted job before exiting.

use crate::admission::{AdmissionController, AdmitReject};
use crate::batch::{self, Job, Reply};
use crate::codec::{FrameEvent, FramePool, FrameReader};
use crate::metrics::ServingMetrics;
use crate::outbox::Outbox;
pub(crate) use crate::outbox::Ticket;
use crate::protocol::{ErrorCode, Request, Response, MAX_FRAME_LEN};
use crate::server::ServeConfig;
use crossbeam::channel::{bounded, Receiver};
use parking_lot::Mutex;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// What a server does with its requests. The engine calls [`serve`]
/// once per drain — every job a worker claimed at once, in arrival order,
/// minus those whose deadline lapsed in the queue — so a handler can
/// coalesce a drain (batch reads, one group commit, one routed burst).
///
/// [`serve`]: Handler::serve
pub trait Handler: Send + Sync + 'static {
    /// The state one drain runs with (scratch buffers, a client). [`start`]
    /// makes [`ServeConfig::workers`] of them up front, and a drain holds
    /// one for its whole run, on whichever thread runs it — a worker or a
    /// connection's reader — so at most that many drains run at once.
    type Worker: Send;

    /// Called once by [`start`], before any worker runs.
    fn attach_metrics(&self, _metrics: &Arc<ServingMetrics>) {}

    /// Make one worker state; [`start`] calls this once per worker.
    fn worker(&self) -> Self::Worker;

    /// Whether `request`, arriving alone on an idle connection, may be
    /// served on that connection's reader thread (a one-job drain under a
    /// free worker state) instead of going through the queue to a worker.
    /// That saves the thread hop, but it moves the request's allocations
    /// to the reader thread, and glibc gives every allocating thread an
    /// arena of its own: a heap block that outlives the request (a
    /// buffer that grows per connection, one allocation per retained
    /// record) then pins pages in one arena per connection and raises
    /// resident memory. So say yes only for requests whose allocations
    /// die with their reply or land in buffers that stop growing.
    fn answers_inline(&self, request: &Request) -> bool;

    /// Answer every job of one drain through `out`. The engine flushes
    /// what is still unsent when this returns.
    fn serve(&self, worker: &mut Self::Worker, jobs: Vec<Job>, out: &mut Drain<'_>);
}

/// One thread's outlet for its drains — a worker's, or a reader's when
/// it serves inline: it records each finished job, deposits its reply in
/// the job's outbox slot, and sends on `flush`.
pub struct Drain<'a> {
    rx: &'a Receiver<Job>,
    metrics: &'a ServingMetrics,
    draining: &'a AtomicBool,
    pool: Arc<FramePool>,
    /// The connections answered since the last flush.
    touched: Vec<Arc<Outbox>>,
}

impl Drain<'_> {
    /// Record one finished job and deposit its reply; it is sent at the
    /// next flush.
    pub(crate) fn answer(&mut self, job: Job, reply: Reply, ok: bool) {
        let latency_ms = job.accepted_at.elapsed().as_secs_f64() * 1e3;
        self.metrics.record(job.request.endpoint(), latency_ms, ok);
        if let Some(outbox) = job.ticket.answer(reply) {
            if !self.touched.iter().any(|o| Arc::ptr_eq(o, &outbox)) {
                self.touched.push(outbox);
            }
        }
    }

    /// `answer` with a typed response.
    pub fn answer_typed(&mut self, job: Job, response: Response) {
        // E21's embedding phase asserts this stays flat: a response whose
        // vector owns a private buffer means the store path copied.
        if let Response::Embedding { vector, .. } = &response {
            if !vector.is_shared() {
                self.metrics.record_embed_copy();
            }
        }
        let ok = !matches!(response, Response::Error { .. });
        self.answer(job, Reply::Typed(response), ok);
    }

    /// Send what was answered since the last flush, connection by
    /// connection.
    pub(crate) fn flush(&mut self) {
        for outbox in self.touched.drain(..) {
            outbox.flush();
        }
    }

    /// The server's pool for [`Reply::Frame`] buffers.
    pub(crate) fn pool(&self) -> &FramePool {
        &self.pool
    }

    pub(crate) fn metrics(&self) -> &ServingMetrics {
        self.metrics
    }

    /// Jobs admitted but not yet claimed by a worker. Reading it locks
    /// the job queue.
    pub(crate) fn queue_depth(&self) -> u32 {
        self.rx.len() as u32
    }

    /// Whether the server is draining toward shutdown.
    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] aborts ungracefully (threads detach).
pub struct ServerHandle {
    addr: SocketAddr,
    metrics: Arc<ServingMetrics>,
    admission: Option<AdmissionController>,
    draining: Arc<AtomicBool>,
    /// Returns the connection threads it has not joined, and whether one
    /// it joined had panicked.
    acceptor: Option<JoinHandle<(Vec<JoinHandle<()>>, bool)>>,
    workers: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<(u64, TcpStream)>>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn metrics(&self) -> Arc<ServingMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Graceful shutdown: refuse new work, finish every admitted job, then
    /// join the acceptor, all connection threads, and all workers.
    pub fn shutdown(mut self) {
        self.draining.store(true, Ordering::Release);
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let (threads, mut panicked) = self
            .acceptor
            .take()
            .map(|acceptor| acceptor.join().expect("acceptor thread panicked"))
            .unwrap_or_default();
        // Shut sockets down so connection threads fall out of read_frame.
        for (_, conn) in self.conns.lock().drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
        for t in threads {
            panicked |= t.join().is_err();
        }
        assert!(!panicked, "connection thread panicked");
        // Last senders go away here; workers drain the queue and exit.
        drop(self.admission.take());
        for w in self.workers.drain(..) {
            w.join().expect("worker thread panicked");
        }
    }
}

/// Bind, spawn the acceptor and worker pool, and return a handle. Fails
/// if the bind or one of those spawns fails.
pub fn start<H: Handler>(handler: H, config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let metrics = Arc::new(ServingMetrics::new());
    let draining = Arc::new(AtomicBool::new(false));
    let (tx, rx) = bounded::<Job>(config.queue_depth.max(1));
    let admission = AdmissionController::new(tx, Arc::clone(&draining), Arc::clone(&metrics));
    handler.attach_metrics(&metrics);
    let pool_size = config.workers.max(1);
    let engine = Arc::new(Engine {
        states: States::new((0..pool_size).map(|_| handler.worker()).collect()),
        handler,
        rx,
        metrics: Arc::clone(&metrics),
        draining: Arc::clone(&draining),
        config,
    });

    // On a failed spawn the workers already running exit by themselves:
    // returning drops `admission`, the queue's last sender.
    let workers = (0..pool_size)
        .map(|i| {
            let engine = Arc::clone(&engine);
            std::thread::Builder::new()
                .name(format!("fstore-serve-worker-{i}"))
                .spawn(move || engine.work())
        })
        .collect::<std::io::Result<Vec<JoinHandle<()>>>>()?;

    let conns: Arc<Mutex<Vec<(u64, TcpStream)>>> = Arc::new(Mutex::new(Vec::new()));

    let acceptor = {
        let admission = admission.clone();
        let conns = Arc::clone(&conns);
        std::thread::Builder::new()
            .name("fstore-serve-acceptor".to_string())
            .spawn(move || {
                let mut threads: Vec<JoinHandle<()>> = Vec::new();
                let mut panicked = false;
                let mut next_conn_id: u64 = 0;
                for stream in listener.incoming() {
                    if admission.is_draining() {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // Small request/response frames: Nagle + delayed ACK
                    // would add milliseconds per round trip.
                    let _ = stream.set_nodelay(true);
                    let conn_id = next_conn_id;
                    next_conn_id += 1;
                    if let Ok(registered) = stream.try_clone() {
                        conns.lock().push((conn_id, registered));
                    }
                    // Join the threads whose connection has ended, before
                    // spawning another: an unjoined thread keeps its stack
                    // mapped, and some 32 k of them exhaust
                    // `vm.max_map_count`.
                    for done in threads.extract_if(.., |t| t.is_finished()) {
                        panicked |= done.join().is_err();
                    }
                    let spawned = {
                        let admission = admission.clone();
                        let conns = Arc::clone(&conns);
                        let engine = Arc::clone(&engine);
                        std::thread::Builder::new()
                            .name("fstore-serve-conn".to_string())
                            .spawn(move || {
                                engine.connection_loop(stream, &admission);
                                // Deregister so the clone doesn't hold the
                                // fd open after the connection is done —
                                // the peer must see EOF, and dead sockets
                                // must not pile up until shutdown.
                                conns.lock().retain(|(id, _)| *id != conn_id);
                            })
                    };
                    match spawned {
                        Ok(handle) => threads.push(handle),
                        // Out of threads or memory: close this one
                        // connection unanswered (the failed spawn dropped
                        // its stream; deregistering drops the clone) and
                        // keep accepting.
                        Err(_) => {
                            conns.lock().retain(|(id, _)| *id != conn_id);
                            engine.metrics.record_spawn_refusal();
                        }
                    }
                }
                (threads, panicked)
            })?
    };

    Ok(ServerHandle {
        addr,
        metrics,
        admission: Some(admission),
        draining,
        acceptor: Some(acceptor),
        workers,
        conns,
    })
}

/// What the worker threads and connection readers of one server share.
struct Engine<H: Handler> {
    handler: H,
    states: States<H::Worker>,
    rx: Receiver<Job>,
    metrics: Arc<ServingMetrics>,
    draining: Arc<AtomicBool>,
    config: ServeConfig,
}

impl<H: Handler> Engine<H> {
    /// A fresh outlet for one thread's drains.
    fn outlet(&self) -> Drain<'_> {
        Drain {
            rx: &self.rx,
            metrics: &self.metrics,
            draining: &self.draining,
            pool: self.metrics.frame_pool(),
            touched: Vec::new(),
        }
    }

    /// One worker thread: claim a job, take a worker state, and run the
    /// drain — until the queue closes.
    fn work(&self) {
        let mut out = self.outlet();
        let max_batch = self.config.max_batch.max(1);
        while let Ok(first) = self.rx.recv() {
            let mut worker = self.states.take();
            self.run(&mut worker, first, max_batch, &mut out);
            self.states.put(worker);
        }
    }

    /// One drain, on a worker or inline on a reader: claim up to `max`
    /// jobs starting at `first` (the queued ones without waiting), shed
    /// those whose deadline lapsed, hand the rest to the handler, and
    /// send whatever is still unsent.
    fn run(&self, worker: &mut H::Worker, first: Job, max: usize, out: &mut Drain<'_>) {
        #[cfg(feature = "testing")]
        if let Some(delay) = self.config.handler_delay {
            std::thread::sleep(delay);
        }
        let mut jobs = batch::drain(&self.rx, first, max);
        // Deadline check at dequeue: a job whose budget lapsed while it
        // sat in the queue is shed unexecuted — its caller has already
        // timed out, so running it would only delay live requests.
        let now = Instant::now();
        for job in jobs.extract_if(.., |j| j.deadline.is_some_and(|d| d <= now)) {
            out.metrics.record_deadline_shed();
            out.answer_typed(
                job,
                Response::error(
                    ErrorCode::DeadlineExceeded,
                    "deadline budget expired before a worker dequeued the request",
                ),
            );
        }
        if !jobs.is_empty() {
            self.handler.serve(worker, jobs, out);
        }
        out.flush();
    }

    /// Per-socket reader: frame in, reserve the request's sequence number
    /// in the connection's [`Outbox`], then serve it here or admit it. The
    /// outbox holds at most [`ServeConfig::pipeline_depth`] replies not
    /// yet taken for sending, and `reserve` waits at that ceiling, so a
    /// client pumping requests faster than workers answer them is
    /// backpressured through TCP rather than queuing without limit.
    /// Refusals decided here (bad frames, admission rejects) go into their
    /// own slot and are sent from here.
    fn connection_loop(&self, stream: TcpStream, admission: &AdmissionController) {
        let config = &self.config;
        let Ok(write_half) = stream.try_clone() else {
            return;
        };
        let _ = write_half.set_write_timeout(config.write_timeout);
        let metrics = &self.metrics;
        let outbox = Outbox::new(
            Box::new(write_half),
            Arc::clone(metrics),
            config.pipeline_depth,
        );
        let mut out = self.outlet();
        let mut reader = FrameReader::new();
        let refuse = |seq: u64, response: Response| {
            outbox.deposit(seq, Reply::Typed(response));
            outbox.flush();
        };
        loop {
            if admission.is_draining() {
                break;
            }
            // Idle bound: none (a keep-alive connection may sit quiet
            // forever); frame bound: once a frame starts, it must finish or
            // the peer is a slow-loris and the connection is cut.
            let decoded = match reader.read_frame(
                &stream,
                MAX_FRAME_LEN,
                None,
                config.frame_timeout,
            ) {
                Ok(FrameEvent::Frame(payload)) => Request::decode(payload),
                Ok(FrameEvent::TooLarge { declared }) => {
                    // Refuse with a typed error, then close: the payload was
                    // never read, so the stream position is unrecoverable.
                    // The refusal still takes its place in the outbox,
                    // behind every response already in flight.
                    metrics.record_frame_too_large();
                    if let Some(ticket) = outbox.reserve() {
                        refuse(
                            ticket.disarm(),
                            Response::error(
                                ErrorCode::FrameTooLarge,
                                format!(
                                    "request frame of {declared} bytes exceeds the {MAX_FRAME_LEN} byte ceiling"
                                ),
                            ),
                        );
                    }
                    break;
                }
                Ok(FrameEvent::TimedOut) => {
                    // The peer started a frame and stalled; it is not
                    // reading responses either, so cut the connection
                    // silently.
                    metrics.record_frame_timeout();
                    break;
                }
                Ok(FrameEvent::Eof) | Err(_) => break,
            };
            metrics.record_wire_rx(reader.take_bytes_rx(), 1, reader.take_allocs());
            let Some(ticket) = outbox.reserve() else {
                // A send failed; the peer is gone.
                break;
            };
            let request = match decoded {
                Ok(request) => request,
                Err(e) => {
                    refuse(
                        ticket.disarm(),
                        Response::error(ErrorCode::BadRequest, e.to_string()),
                    );
                    continue;
                }
            };
            let accepted_at = Instant::now();
            // Unwrap the deadline envelope here so workers and the batch
            // planner only ever see plain requests.
            let (request, deadline) = match request {
                Request::WithDeadline { budget_ms, inner } => (
                    *inner,
                    Some(accepted_at + std::time::Duration::from_millis(u64::from(budget_ms))),
                ),
                other => (other, None),
            };
            let seq = ticket.seq();
            let inline = reader.buffered() == 0
                && outbox.only_unsent(seq)
                && !admission.is_draining()
                && self.handler.answers_inline(&request);
            let job = Job {
                request,
                ticket,
                accepted_at,
                deadline,
            };
            if let Some(mut worker) = inline.then(|| self.states.try_take()).flatten() {
                self.run(&mut worker, job, 1, &mut out);
                self.states.put(worker);
                continue;
            }
            match admission.submit(job) {
                Ok(()) => {}
                Err(AdmitReject::Overloaded) => refuse(
                    seq,
                    Response::error(ErrorCode::Overloaded, "serving queue is full"),
                ),
                Err(AdmitReject::Draining) => refuse(
                    seq,
                    Response::error(ErrorCode::ShuttingDown, "server is draining"),
                ),
            }
        }
        // The socket must outlive every reply still owed on it.
        outbox.close();
    }
}

/// The handler's worker states: the execution permits. A worker thread
/// waits for one; a reader only tries, and queues its request when none
/// is free or a worker thread is already waiting — queued work goes
/// first, so readers cannot starve it.
struct States<W> {
    state: std::sync::Mutex<Free<W>>,
    /// A worker thread waits here for a state to come back.
    returned: Condvar,
}

struct Free<W> {
    states: Vec<W>,
    /// Worker threads parked on `returned` (a return wakes one only then).
    waiting: usize,
}

impl<W> States<W> {
    fn new(states: Vec<W>) -> States<W> {
        States {
            state: std::sync::Mutex::new(Free { states, waiting: 0 }),
            returned: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Free<W>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Take a state, waiting until one is free.
    fn take(&self) -> W {
        let mut free = self.lock();
        loop {
            if let Some(state) = free.states.pop() {
                return state;
            }
            free.waiting += 1;
            free = self
                .returned
                .wait(free)
                .unwrap_or_else(PoisonError::into_inner);
            free.waiting -= 1;
        }
    }

    /// Take a state if one is free now and no worker thread waits for it.
    fn try_take(&self) -> Option<W> {
        let mut free = self.lock();
        if free.waiting > 0 {
            return None;
        }
        free.states.pop()
    }

    fn put(&self, state: W) {
        let mut free = self.lock();
        free.states.push(state);
        if free.waiting > 0 {
            self.returned.notify_one();
        }
    }
}
