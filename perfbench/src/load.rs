//! The load driver: two client threads over two connections, closed loop.
//!
//! Closed loop with a fixed client count, because a feature store's
//! callers wait for their reply, and an open loop from two threads on two
//! cores would mostly measure sleep jitter. A `probe` phase keeps one
//! request in flight per client (latency comes from here); a `saturate`
//! phase sends pipelined bursts of [`BURST`] (throughput comes from here).
//! Timed phases are cut into equal segments and every reported number is
//! the median over segments of that segment's value, so one noisy second
//! on a shared box moves nothing.

use crate::hist::{median, Hist};
use crate::trace::Tracer;
use fstore_serve::{Request, Response, Transport};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Requests per pipelined burst in the saturate phase.
pub const BURST: usize = 32;

/// What a request is, for the purpose of which latency it reports into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// `GetFeatures` / `GetEmbedding`.
    Read = 0,
    /// `GetFeaturesBatch`.
    Batch = 1,
    /// `SearchNearest` / `SearchNearestByKey`.
    Search = 2,
    /// `PutOnline`.
    Write = 3,
}

impl Class {
    pub const ALL: [Class; 4] = [Class::Read, Class::Batch, Class::Search, Class::Write];

    pub fn name(self) -> &'static str {
        match self {
            Class::Read => "read",
            Class::Batch => "batch",
            Class::Search => "search",
            Class::Write => "write",
        }
    }

    fn span_name(self) -> &'static str {
        match self {
            Class::Read => "wire.read",
            Class::Batch => "wire.batch",
            Class::Search => "wire.search",
            Class::Write => "wire.write",
        }
    }
}

/// Outcomes a generator accumulates that no single response decides:
/// approximate searches are judged by recall over the whole run.
#[derive(Clone, Copy, Default)]
pub struct Summary {
    pub approx_searches: u64,
    pub recall_found: u64,
    pub recall_wanted: u64,
}

/// One client's request generator and oracle. `slot` is the position in
/// the current burst (always 0 at depth 1); a generator keeps what it
/// expects per slot and `verify` compares the response with it. Inputs
/// come from the seed alone — the servers never see it.
pub trait Traffic: Send {
    fn next(&mut self, slot: usize) -> (Request, Class);
    /// True when the response is the right answer. Errors, refusals and
    /// mismatches are all `false` and count into the failure ratio.
    fn verify(&mut self, slot: usize, response: &Response) -> bool;
    fn summary(&self) -> Summary {
        Summary::default()
    }
}

pub struct Client {
    pub conn: Box<dyn Transport + Send>,
    pub traffic: Box<dyn Traffic>,
    pub attempted: u64,
    pub failed: u64,
    /// Set when the transport itself failed; the run cannot be correct.
    pub broken: Option<String>,
    /// Present on a traced run: one root span per wire request.
    pub tracer: Option<Tracer>,
    sent: u64,
    lane: u64,
}

impl Client {
    pub fn new(lane: u32, conn: Box<dyn Transport + Send>, traffic: Box<dyn Traffic>) -> Client {
        Client {
            conn,
            traffic,
            attempted: 0,
            failed: 0,
            broken: None,
            tracer: None,
            sent: 0,
            lane: u64::from(lane),
        }
    }

    fn request_id(&mut self) -> u64 {
        self.sent += 1;
        (self.lane << 40) | self.sent
    }

    /// Say what the first few wrong answers were; a count alone cannot be
    /// debugged.
    fn report_wrong(&self, request: &Request, response: &Response) {
        if self.failed < 3 {
            let clip = |s: String| s.chars().take(400).collect::<String>();
            eprintln!(
                "# WRONG ANSWER client {}: {} -> {}",
                self.lane,
                clip(format!("{request:?}")),
                clip(format!("{response:?}"))
            );
        }
    }

    /// One request at depth 1; `Some(latency)` when the answer was right.
    pub fn call_one(&mut self) -> Option<(Class, u64)> {
        let (request, class) = self.traffic.next(0);
        let id = self.request_id();
        let start = Instant::now();
        let start_ns = self.tracer.as_ref().map(Tracer::now_ns);
        let result = self.conn.call(&request);
        let nanos = start.elapsed().as_nanos() as u64;
        if let (Some(tracer), Some(start_ns)) = (self.tracer.as_mut(), start_ns) {
            tracer.record(class.span_name(), id, 0, start_ns, start_ns + nanos);
        }
        self.attempted += 1;
        let ok = match result {
            Ok(response) => {
                let right = self.traffic.verify(0, &response);
                if !right {
                    self.report_wrong(&request, &response);
                }
                right
            }
            Err(e) => {
                self.broken = Some(e.to_string());
                false
            }
        };
        if !ok {
            self.failed += 1;
            return None;
        }
        Some((class, nanos))
    }

    /// One pipelined burst; leaves the classes of the right answers in
    /// `classes` and returns how many there were.
    pub fn call_burst(&mut self, requests: &mut Vec<Request>, classes: &mut Vec<Class>) -> usize {
        requests.clear();
        classes.clear();
        for slot in 0..BURST {
            let (request, class) = self.traffic.next(slot);
            requests.push(request);
            classes.push(class);
        }
        let first_id = self.sent + 1;
        self.sent += BURST as u64;
        let start_ns = self.tracer.as_ref().map(Tracer::now_ns);
        let result = self.conn.call_many(requests);
        if let (Some(tracer), Some(start_ns)) = (self.tracer.as_mut(), start_ns) {
            let end_ns = tracer.now_ns();
            for (i, class) in classes.iter().enumerate() {
                let id = (self.lane << 40) | (first_id + i as u64);
                tracer.record(class.span_name(), id, 0, start_ns, end_ns);
            }
        }
        self.attempted += BURST as u64;
        let mut right = 0;
        match result {
            Ok(responses) => {
                for (slot, response) in responses.iter().enumerate() {
                    if self.traffic.verify(slot, response) {
                        classes[right] = classes[slot];
                        right += 1;
                    } else {
                        self.report_wrong(&requests[slot], response);
                        self.failed += 1;
                    }
                }
                // A short reply leaves requests unanswered.
                self.failed += (BURST - responses.len().min(BURST)) as u64;
            }
            Err(e) => {
                self.broken = Some(e.to_string());
                self.failed += BURST as u64;
            }
        }
        classes.truncate(right);
        right
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Both clients at depth 1.
    Probe,
    /// Both clients sending bursts of [`BURST`].
    Saturate,
}

#[derive(Clone, Default)]
pub struct SegmentStats {
    /// Latency of right answers by class (probe phase only).
    pub hist: [Hist; 4],
    /// Right answers by class.
    pub ok: [u64; 4],
}

impl SegmentStats {
    fn merge(&mut self, other: &SegmentStats) {
        for c in 0..4 {
            self.hist[c].merge(&other.hist[c]);
            self.ok[c] += other.ok[c];
        }
    }
}

/// Both clients' per-segment results added together.
pub struct PhaseStats {
    pub seg_secs: f64,
    pub segments: Vec<SegmentStats>,
}

impl PhaseStats {
    pub fn new(seg: Duration) -> PhaseStats {
        PhaseStats {
            seg_secs: seg.as_secs_f64(),
            segments: Vec::new(),
        }
    }

    /// Median over segments of the segment's `q`-quantile, in µs, with the
    /// total sample count behind it. Segments without a sample of this
    /// class are skipped.
    pub fn latency_us(&self, class: Class, q: f64) -> (f64, u64) {
        let c = class as usize;
        let per_segment: Vec<f64> = self
            .segments
            .iter()
            .filter(|s| s.hist[c].count() > 0)
            .map(|s| s.hist[c].quantile_us(q))
            .collect();
        let samples = self.segments.iter().map(|s| s.hist[c].count()).sum();
        (median(&per_segment), samples)
    }

    /// Median over segments of right answers per second in `classes`.
    pub fn rate(&self, classes: &[Class]) -> f64 {
        let per_segment: Vec<f64> = self
            .segments
            .iter()
            .map(|s| classes.iter().map(|&c| s.ok[c as usize]).sum::<u64>() as f64 / self.seg_secs)
            .collect();
        median(&per_segment)
    }

    #[cfg(test)]
    pub fn total_ok(&self) -> u64 {
        self.segments.iter().flat_map(|s| s.ok).sum()
    }
}

/// Run one timed phase on every client at once, `segments` segments of
/// `seg` each. Work that completes after the last segment ends is still
/// verified and counted as attempted, but lands in no segment.
pub fn run_phase(clients: &mut [Client], mode: Mode, segments: usize, seg: Duration) -> PhaseStats {
    let barrier = Barrier::new(clients.len());
    let per_client: Vec<Vec<SegmentStats>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut stats = vec![SegmentStats::default(); segments];
                    let mut requests = Vec::with_capacity(BURST);
                    let mut classes = Vec::with_capacity(BURST);
                    barrier.wait();
                    let begin = Instant::now();
                    let total = seg * segments as u32;
                    while begin.elapsed() < total && client.broken.is_none() {
                        match mode {
                            Mode::Probe => {
                                let Some((class, nanos)) = client.call_one() else {
                                    continue;
                                };
                                let at = (begin.elapsed().as_nanos() / seg.as_nanos()) as usize;
                                if let Some(s) = stats.get_mut(at) {
                                    s.hist[class as usize].record(nanos);
                                    s.ok[class as usize] += 1;
                                }
                            }
                            Mode::Saturate => {
                                client.call_burst(&mut requests, &mut classes);
                                let at = (begin.elapsed().as_nanos() / seg.as_nanos()) as usize;
                                if let Some(s) = stats.get_mut(at) {
                                    for &class in &classes {
                                        s.ok[class as usize] += 1;
                                    }
                                }
                            }
                        }
                    }
                    stats
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut merged = vec![SegmentStats::default(); segments];
    for stats in &per_client {
        for (into, from) in merged.iter_mut().zip(stats) {
            into.merge(from);
        }
    }
    PhaseStats {
        seg_secs: seg.as_secs_f64(),
        segments: merged,
    }
}

/// Untimed traffic that fills caches, connections and frame buffers:
/// half at depth 1, half in bursts.
pub fn warm_up(clients: &mut [Client], total: Duration) {
    run_phase(clients, Mode::Probe, 1, total / 2);
    run_phase(clients, Mode::Saturate, 1, total / 2);
}

pub struct PacedStats {
    /// Completion time minus the time the request was *due*, so a stall
    /// charges every request queued behind it.
    pub from_due: Hist,
    /// How late the generator itself sent each request.
    pub gen_late: Hist,
}

/// Open-loop stage: every client sends one request each `interval` on a
/// fixed schedule for `duration`, whatever the replies do.
pub fn run_paced(clients: &mut [Client], interval: Duration, duration: Duration) -> PacedStats {
    let barrier = Barrier::new(clients.len());
    let per_client: Vec<(Hist, Hist)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let (mut from_due, mut gen_late) = (Hist::new(), Hist::new());
                    barrier.wait();
                    let begin = Instant::now();
                    let mut tick = 0u32;
                    while client.broken.is_none() {
                        let due = interval * tick;
                        if due >= duration {
                            break;
                        }
                        tick += 1;
                        if let Some(wait) = due.checked_sub(begin.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        let late = begin.elapsed().saturating_sub(due);
                        gen_late.record(late.as_nanos() as u64);
                        if client.call_one().is_some() {
                            let done = begin.elapsed().saturating_sub(due);
                            from_due.record(done.as_nanos() as u64);
                        }
                    }
                    (from_due, gen_late)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("paced thread panicked"))
            .collect()
    });
    let mut out = PacedStats {
        from_due: Hist::new(),
        gen_late: Hist::new(),
    };
    for (from_due, gen_late) in &per_client {
        out.from_due.merge(from_due);
        out.gen_late.merge(gen_late);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fstore_serve::ClientError;

    /// Answers `Health` with the queue depth it was asked to echo.
    struct Echo;
    impl Transport for Echo {
        fn call(&mut self, _request: &Request) -> Result<Response, ClientError> {
            Ok(Response::Health {
                queue_depth: 7,
                draining: false,
            })
        }
    }

    /// Expects depth 7 except every `wrong_every`-th request.
    struct Expect {
        n: u64,
        wrong_every: u64,
        want: [u32; BURST],
    }
    impl Traffic for Expect {
        fn next(&mut self, slot: usize) -> (Request, Class) {
            self.n += 1;
            self.want[slot] = if self.n.is_multiple_of(self.wrong_every) {
                8
            } else {
                7
            };
            (Request::Health, Class::Read)
        }
        fn verify(&mut self, slot: usize, response: &Response) -> bool {
            matches!(response, Response::Health { queue_depth, .. } if *queue_depth == self.want[slot])
        }
    }

    fn client(wrong_every: u64) -> Client {
        Client::new(
            0,
            Box::new(Echo),
            Box::new(Expect {
                n: 0,
                wrong_every,
                want: [0; BURST],
            }),
        )
    }

    #[test]
    fn wrong_answers_are_counted_and_keep_no_latency() {
        let mut clients = vec![client(10), client(u64::MAX)];
        let probe = run_phase(&mut clients, Mode::Probe, 2, Duration::from_millis(20));
        let burst = run_phase(&mut clients, Mode::Saturate, 2, Duration::from_millis(20));
        let attempted: u64 = clients.iter().map(|c| c.attempted).sum();
        let failed: u64 = clients.iter().map(|c| c.failed).sum();
        assert!(attempted > 100);
        assert_eq!(clients[1].failed, 0);
        assert_eq!(failed, clients[0].attempted / 10);
        // Every right answer either landed in a segment or ran past the end.
        assert!(probe.total_ok() + burst.total_ok() <= attempted - failed);
        assert!(probe.total_ok() + burst.total_ok() + 4 * BURST as u64 >= attempted - failed);
        let (p50, samples) = probe.latency_us(Class::Read, 0.5);
        assert!(p50 > 0.0 && samples == probe.total_ok());
        assert!(burst.rate(&[Class::Read]) > 0.0);
        assert_eq!(burst.rate(&[Class::Write]), 0.0);
    }

    #[test]
    fn paced_stage_sends_on_schedule() {
        let mut clients = vec![client(u64::MAX)];
        let paced = run_paced(
            &mut clients,
            Duration::from_millis(1),
            Duration::from_millis(30),
        );
        assert_eq!(paced.gen_late.count(), 30);
        assert_eq!(paced.from_due.count(), 30);
    }
}
