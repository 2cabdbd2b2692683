//! Client-side failover across an ordered endpoint list.
//!
//! A [`FailoverClient`] holds the leader first and any followers after it.
//! Reads go to the healthiest endpoint in list order; each endpoint sits
//! behind its own [`CircuitBreaker`], so an endpoint that keeps failing is
//! taken out of rotation for a cooldown instead of eating a connect
//! timeout on every call. After the cooldown the breaker goes half-open
//! and admits a single probe: success closes the circuit, failure re-opens
//! it. Because followers converge to byte-identical snapshot answers
//! (PR 6's replication invariant), failing a read over to a follower can
//! change staleness but never correctness. A list of one endpoint is the
//! resilient single-node client: it reconnects, retries idempotent
//! requests with [`RetryPolicy`] backoff, and seals write failures.
//!
//! The breaker takes `Instant`s as arguments rather than reading the
//! clock itself, which keeps the closed → open → half-open → closed walk
//! unit-testable without sleeps.

use crate::api::Transport;
use crate::client::{ClientConfig, ClientError, FeatureClient};
use crate::protocol::{Request, Response};
use crate::retry::{classify, ErrorClass, RetryPolicy};
use fstore_common::rng::{Rng, Xoshiro256};
use std::borrow::Borrow;
use std::time::{Duration, Instant};

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long an open breaker refuses traffic before allowing a
    /// half-open probe.
    pub open_cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            open_cooldown: Duration::from_millis(500),
        }
    }
}

/// Observable breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BreakerState {
    /// Healthy: traffic flows, failures are counted.
    Closed,
    /// Tripped: traffic is refused until the cooldown elapses.
    Open,
    /// Cooldown elapsed: exactly one probe is in flight; its outcome
    /// decides between `Closed` and `Open`.
    HalfOpen,
}

/// A per-endpoint circuit breaker (closed → open → half-open → closed).
#[derive(Debug)]
pub(crate) struct CircuitBreaker {
    config: BreakerConfig,
    consecutive_failures: u32,
    /// `Some(when)` while open/half-open: the instant the breaker tripped.
    opened_at: Option<Instant>,
    /// True while a half-open probe is outstanding.
    probing: bool,
}

impl CircuitBreaker {
    pub(crate) fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            consecutive_failures: 0,
            opened_at: None,
            probing: false,
        }
    }

    /// The state as of `now`.
    pub(crate) fn state(&self, now: Instant) -> BreakerState {
        match self.opened_at {
            None => BreakerState::Closed,
            Some(at) if now.duration_since(at) >= self.config.open_cooldown => {
                BreakerState::HalfOpen
            }
            Some(_) => BreakerState::Open,
        }
    }

    /// Whether a call may proceed at `now`. Half-open admits only one
    /// probe at a time; callers that get `true` must report the outcome
    /// via [`CircuitBreaker::record_success`] / [`CircuitBreaker::record_failure`].
    pub(crate) fn allow(&mut self, now: Instant) -> bool {
        match self.state(now) {
            BreakerState::Closed => true,
            BreakerState::Open => false,
            BreakerState::HalfOpen => {
                if self.probing {
                    false
                } else {
                    self.probing = true;
                    true
                }
            }
        }
    }

    /// A call succeeded: close the circuit and forget past failures.
    pub(crate) fn record_success(&mut self) {
        self.consecutive_failures = 0;
        self.opened_at = None;
        self.probing = false;
    }

    /// A call failed at `now`: count it, trip the breaker at the
    /// threshold, and re-open on a failed half-open probe.
    pub(crate) fn record_failure(&mut self, now: Instant) {
        self.probing = false;
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        if self.consecutive_failures >= self.config.failure_threshold || self.opened_at.is_some() {
            // Tripping (or re-tripping after a failed probe) restarts the
            // cooldown from this failure.
            self.opened_at = Some(now);
        }
    }
}

struct Endpoint {
    addr: String,
    breaker: CircuitBreaker,
    conn: Option<FeatureClient>,
}

/// Counters a chaos experiment reads to show the failover actually fired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailoverStats {
    /// Calls answered by an endpoint other than the first (the leader).
    pub failed_over_calls: u64,
    /// Retries across all endpoints (beyond each call's first attempt).
    pub retries: u64,
    /// Calls that exhausted every endpoint and the retry budget.
    pub exhausted_calls: u64,
}

/// An attempt made on endpoint `.0`: its value, or the failure and
/// whether the request was dispatched before it.
type Attempt<T> = (usize, Result<T, (ClientError, bool)>);

/// A burst [`FailoverClient::start_many`] put on the wire (or could not),
/// awaiting [`FailoverClient::finish_many`].
#[must_use = "a started burst must be finished to read its responses"]
pub struct StartedBurst {
    /// The endpoint written to and how the write went; `None` when the
    /// burst was empty or no breaker admitted a call.
    sent: Option<Attempt<()>>,
}

/// A client over an ordered endpoint list with per-endpoint circuit
/// breakers and retry/backoff between rounds.
pub struct FailoverClient {
    endpoints: Vec<Endpoint>,
    config: ClientConfig,
    policy: RetryPolicy,
    breaker_config: BreakerConfig,
    rng: Xoshiro256,
    stats: FailoverStats,
}

impl FailoverClient {
    /// `addrs` in preference order — leader first, then followers.
    /// [`ClientBuilder`](crate::ClientBuilder) is the validated path to
    /// the same type: it checks the retry policy first.
    #[doc(hidden)]
    pub fn connect(
        addrs: &[&str],
        config: ClientConfig,
        policy: RetryPolicy,
        breaker_config: BreakerConfig,
    ) -> Self {
        assert!(
            !addrs.is_empty(),
            "FailoverClient needs at least one endpoint"
        );
        FailoverClient {
            endpoints: addrs
                .iter()
                .map(|addr| Endpoint {
                    addr: addr.to_string(),
                    breaker: CircuitBreaker::new(breaker_config),
                    conn: None,
                })
                .collect(),
            config,
            policy,
            breaker_config,
            rng: Xoshiro256::seeded(0xfa11_04e2_9e37_79b9),
            stats: FailoverStats::default(),
        }
    }

    pub fn stats(&self) -> FailoverStats {
        self.stats
    }

    /// Pick the healthiest endpoint that will accept a call right now:
    /// first closed breaker in list order, else first half-open breaker
    /// willing to probe.
    fn pick(&mut self, now: Instant) -> Option<usize> {
        let closed = self
            .endpoints
            .iter()
            .position(|e| e.breaker.state(now) == BreakerState::Closed);
        if let Some(i) = closed {
            // Closed breakers always allow.
            self.endpoints[i].breaker.allow(now);
            return Some(i);
        }
        (0..self.endpoints.len()).find(|&i| self.endpoints[i].breaker.allow(now))
    }

    /// Run `op` against endpoint `i`'s connection, establishing it first
    /// if needed and poisoning it on a transport-class failure (the
    /// stream may hold half a frame; never reuse it). The error side
    /// carries whether the request was ever dispatched: a connect failure
    /// proves the peer saw nothing, which is what lets a write failure be
    /// sealed as provably-not-applied.
    fn with_endpoint<T>(
        &mut self,
        i: usize,
        op: impl FnOnce(&mut FeatureClient) -> Result<T, ClientError>,
    ) -> Result<T, (ClientError, bool)> {
        let config = self.config.clone();
        let endpoint = &mut self.endpoints[i];
        if endpoint.conn.is_none() {
            match FeatureClient::connect_with(endpoint.addr.as_str(), &config) {
                Ok(conn) => endpoint.conn = Some(conn),
                Err(e) => return Err((ClientError::Io(e), false)),
            }
        }
        let result = op(endpoint.conn.as_mut().expect("just connected"));
        result.map_err(|e| {
            if classify(&e) == ErrorClass::Transport {
                endpoint.conn = None;
            }
            (e, true)
        })
    }

    /// The shared endpoint walk behind [`FailoverClient::call`] and
    /// [`FailoverClient::finish_many`]: pick the healthiest endpoint, run
    /// `op` against it, and classify the outcome. A definitive answer
    /// (including a typed fatal error) returns immediately; transport
    /// failures and typed pushback (`Overloaded`, `ShuttingDown` —
    /// well-formed responses on the wire, but refusals all the same) trip
    /// the breaker and move on, retrying with backoff while `retryable`
    /// and the attempt budget allow. `first` is an attempt the caller
    /// already made on endpoint `i` (a split burst): it is settled as
    /// attempt 0 instead of picking and running `op`.
    fn run<T>(
        &mut self,
        mut first: Option<Attempt<T>>,
        retryable: bool,
        mut op: impl FnMut(&mut FeatureClient) -> Result<T, ClientError>,
        outcome_pushback: impl Fn(&T) -> Option<ClientError>,
        seal: impl Fn(bool, ClientError) -> ClientError,
    ) -> Result<T, ClientError> {
        let mut attempt: u32 = 0;
        let mut last_err: Option<(ClientError, bool)> = None;
        loop {
            let tried = match first.take() {
                Some(made) => Some(made),
                None => self
                    .pick(Instant::now())
                    .map(|i| (i, self.with_endpoint(i, &mut op))),
            };
            match tried {
                Some((i, outcome)) => match outcome {
                    Ok(value) => match outcome_pushback(&value) {
                        Some(error) => {
                            self.endpoints[i].breaker.record_failure(Instant::now());
                            last_err = Some((error, true));
                        }
                        None => {
                            self.endpoints[i].breaker.record_success();
                            if i != 0 {
                                self.stats.failed_over_calls += 1;
                            }
                            return Ok(value);
                        }
                    },
                    Err((error, dispatched)) => {
                        self.endpoints[i].breaker.record_failure(Instant::now());
                        if classify(&error) == ErrorClass::Fatal {
                            // A definitive server answer; another endpoint
                            // would (byte-identically) say the same.
                            return Err(error);
                        }
                        last_err = Some((error, dispatched));
                    }
                },
                None => {
                    // Every breaker is open; treat it like a shed and back
                    // off until a cooldown admits a probe. Nothing was
                    // dispatched this round.
                    if last_err.is_none() {
                        last_err = Some((
                            ClientError::Io(std::io::Error::new(
                                std::io::ErrorKind::ConnectionRefused,
                                "all endpoints circuit-broken",
                            )),
                            false,
                        ));
                    }
                }
            }
            if !retryable || attempt + 1 >= self.policy.max_attempts {
                self.stats.exhausted_calls += 1;
                let (error, dispatched) =
                    last_err.expect("loop always records an error before exiting");
                return Err(seal(dispatched, error));
            }
            let unit = self.rng.next_f64();
            std::thread::sleep(self.policy.backoff(attempt, unit));
            self.stats.retries += 1;
            attempt += 1;
        }
    }

    /// Send one request, walking endpoints healthiest-first with retries
    /// and backoff (the private `run` loop holds the outcome rules).
    /// Non-idempotent requests get exactly one attempt, and a transport
    /// failure of one is sealed as [`ClientError::WriteFailed`] (see
    /// `crate::retry::seal_write_failure`).
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.run(
            None,
            request.is_idempotent(),
            |conn| conn.call(request),
            crate::retry::pushback,
            |dispatched, error| crate::retry::seal_write_failure(request, dispatched, error),
        )
    }

    /// Pipeline a burst on the healthiest endpoint
    /// ([`FeatureClient::call_many`]) with the same endpoint walk as
    /// [`FailoverClient::call`]: exactly [`start_many`](Self::start_many)
    /// then [`finish_many`](Self::finish_many), so a burst is settled by
    /// one rule whether or not the caller split it. Accepts borrowed or
    /// owned requests alike.
    pub fn call_many<R: Borrow<Request>>(
        &mut self,
        requests: &[R],
    ) -> Result<Vec<Response>, ClientError> {
        let started = self.start_many(requests);
        self.finish_many(started, requests)
    }

    /// The write half of [`call_many`](Self::call_many): pick the
    /// healthiest endpoint and put the whole burst on its connection
    /// (`FeatureClient::send_many`) without waiting for an answer. The
    /// returned token must go to [`finish_many`](Self::finish_many) with
    /// the same requests, with no other call on this client in between
    /// (the token names an endpoint by its place in the list). A caller
    /// that starts bursts on several clients before finishing any has
    /// every server working at once from one thread.
    pub fn start_many<R: Borrow<Request>>(&mut self, requests: &[R]) -> StartedBurst {
        if requests.is_empty() {
            return StartedBurst { sent: None };
        }
        let sent = self
            .pick(Instant::now())
            .map(|i| (i, self.with_endpoint(i, |conn| conn.send_many(requests))));
        StartedBurst { sent }
    }

    /// The read half of [`call_many`](Self::call_many): read the
    /// responses of a [`start_many`](Self::start_many) burst and settle
    /// them. The started attempt counts as the first of the endpoint walk.
    ///
    /// * An all-idempotent burst is the retry unit: typed pushback
    ///   anywhere in it, or any transport failure, fails it over — backoff,
    ///   retry, next endpoint — since re-sending reads is always safe.
    /// * A burst holding a write is never re-sent. If the server answered,
    ///   it comes back as answered, a shed read staying in its slot as
    ///   typed pushback: admission sheds job by job, so a shed read can sit
    ///   beside an applied write, and each answer belongs to its own
    ///   request. If the burst was lost, the failure is sealed
    ///   (`crate::retry::seal_write_failure`).
    pub fn finish_many<R: Borrow<Request>>(
        &mut self,
        started: StartedBurst,
        requests: &[R],
    ) -> Result<Vec<Response>, ClientError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let first = started.sent.map(|(i, sent)| {
            let received = sent.and_then(|()| {
                // A sent burst leaves its connection in place; a missing
                // one would mean reading answers to requests never sent.
                if self.endpoints[i].conn.is_none() {
                    return Err((ClientError::ConnectionClosed, true));
                }
                self.with_endpoint(i, |conn| conn.recv_many(requests.len()))
            });
            (i, received)
        });
        let write = requests
            .iter()
            .map(Borrow::borrow)
            .find(|r| !r.is_idempotent());
        self.run(
            first,
            write.is_none(),
            |conn| {
                conn.send_many(requests)?;
                conn.recv_many(requests.len())
            },
            |responses| match write {
                Some(_) => None,
                None => responses.iter().find_map(crate::retry::pushback),
            },
            |dispatched, error| match write {
                Some(w) => crate::retry::seal_write_failure(w, dispatched, error),
                None => error,
            },
        )
    }

    /// Replace the endpoint list (leader first). Endpoints that stay in
    /// the list keep their live connection and breaker history; new ones
    /// start with a fresh closed breaker. The shard router calls this when
    /// the control plane publishes a new shard map — e.g. after a
    /// promotion rotates a dead leader behind its followers.
    pub fn set_endpoints(&mut self, addrs: &[&str]) {
        assert!(
            !addrs.is_empty(),
            "FailoverClient needs at least one endpoint"
        );
        let mut old: Vec<Endpoint> = std::mem::take(&mut self.endpoints);
        self.endpoints = addrs
            .iter()
            .map(|addr| match old.iter().position(|e| e.addr == *addr) {
                Some(i) => old.swap_remove(i),
                None => Endpoint {
                    addr: addr.to_string(),
                    breaker: CircuitBreaker::new(self.breaker_config),
                    conn: None,
                },
            })
            .collect();
    }
}

impl Transport for FailoverClient {
    fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        FailoverClient::call(self, request)
    }

    fn call_many(&mut self, requests: &[Request]) -> Result<Vec<Response>, ClientError> {
        FailoverClient::call_many(self, requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(threshold: u32, cooldown_ms: u64) -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            failure_threshold: threshold,
            open_cooldown: Duration::from_millis(cooldown_ms),
        })
    }

    #[test]
    fn walks_closed_open_half_open_closed() {
        let t0 = Instant::now();
        let mut b = breaker(2, 100);
        assert_eq!(b.state(t0), BreakerState::Closed);
        assert!(b.allow(t0));
        b.record_failure(t0);
        assert_eq!(
            b.state(t0),
            BreakerState::Closed,
            "one failure under threshold"
        );
        b.record_failure(t0);
        assert_eq!(
            b.state(t0),
            BreakerState::Open,
            "threshold trips the breaker"
        );
        assert!(!b.allow(t0), "open refuses traffic");

        let later = t0 + Duration::from_millis(100);
        assert_eq!(b.state(later), BreakerState::HalfOpen);
        assert!(b.allow(later), "half-open admits one probe");
        assert!(!b.allow(later), "…but only one");
        b.record_success();
        assert_eq!(b.state(later), BreakerState::Closed);
        assert_eq!(b.consecutive_failures, 0);
    }

    #[test]
    fn failed_probe_reopens_with_a_fresh_cooldown() {
        let t0 = Instant::now();
        let mut b = breaker(1, 100);
        b.record_failure(t0);
        assert_eq!(b.state(t0), BreakerState::Open);

        let probe_at = t0 + Duration::from_millis(150);
        assert!(b.allow(probe_at));
        b.record_failure(probe_at);
        assert_eq!(
            b.state(probe_at + Duration::from_millis(60)),
            BreakerState::Open,
            "cooldown restarts from the failed probe, not the original trip"
        );
        assert_eq!(
            b.state(probe_at + Duration::from_millis(100)),
            BreakerState::HalfOpen
        );
    }

    #[test]
    fn success_resets_the_failure_count() {
        let t0 = Instant::now();
        let mut b = breaker(3, 100);
        b.record_failure(t0);
        b.record_failure(t0);
        b.record_success();
        b.record_failure(t0);
        assert_eq!(
            b.state(t0),
            BreakerState::Closed,
            "streak broken by a success never trips"
        );
    }

    #[test]
    fn builder_keeps_endpoints_in_given_order() {
        let client = crate::ClientBuilder::new()
            .endpoint("127.0.0.1:2")
            .endpoint("127.0.0.1:1")
            .build()
            .unwrap();
        let addrs: Vec<&str> = client.endpoints.iter().map(|e| e.addr.as_str()).collect();
        assert_eq!(addrs, ["127.0.0.1:2", "127.0.0.1:1"], "leader first");
    }

    /// An endpoint that accepts one connection, reads the first bytes of
    /// whatever is sent, then dies — listener and connection both — so
    /// every later connect is refused. Join the handle to know it is dead.
    fn dying_endpoint() -> (String, std::thread::JoinHandle<()>) {
        use std::io::Read;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let dies = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            drop(listener);
            let _ = conn.read(&mut [0u8; 64]);
        });
        (addr, dies)
    }

    /// A live endpoint serving `user/u1`, with no write leadership.
    fn follower() -> crate::conn::ServerHandle {
        serving(crate::server::ServeConfig::default())
    }

    /// [`follower`] with its server tuned by `config`.
    fn serving(config: crate::server::ServeConfig) -> crate::conn::ServerHandle {
        use fstore_common::{EntityKey, Timestamp, Value};
        let online = std::sync::Arc::new(fstore_storage::OnlineStore::default());
        online.put(
            "user",
            &EntityKey::new("u1"),
            "score",
            Value::Float(0.5),
            Timestamp::millis(100),
        );
        let engine = crate::server::ServeEngine::new(
            fstore_core::FeatureServer::new(online),
            crate::server::fixed_clock(Timestamp::millis(1_000)),
        );
        crate::conn::start(engine, config).unwrap()
    }

    fn client(addrs: &[&str]) -> FailoverClient {
        FailoverClient::connect(
            addrs,
            ClientConfig::default(),
            RetryPolicy {
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(5),
                ..RetryPolicy::default()
            },
            BreakerConfig {
                failure_threshold: 1,
                open_cooldown: Duration::from_secs(60),
            },
        )
    }

    fn read(entity: &str) -> Request {
        Request::GetFeatures {
            group: "user".into(),
            entity: entity.into(),
            features: vec!["score".into()],
        }
    }

    #[test]
    fn a_split_read_burst_fails_over_exactly_like_call_many() {
        let follower = follower();
        let follower_addr = follower.addr().to_string();
        let burst = vec![read("u1"), read("u2"), read("u1")];

        // The reference: the leader dies while `call_many` waits.
        let (dead, dies) = dying_endpoint();
        let mut whole = client(&[&dead, &follower_addr]);
        let expected = whole.call_many(&burst).expect("fails over to the follower");
        dies.join().unwrap();

        // The same death, between the two halves of a split call.
        let (dead, dies) = dying_endpoint();
        let mut split = client(&[&dead, &follower_addr]);
        let started = split.start_many(&burst);
        dies.join().unwrap();
        let answers = split
            .finish_many(started, &burst)
            .expect("fails over to the follower");

        assert_eq!(answers, expected);
        assert!(matches!(answers[0], Response::Features(_)));
        assert_eq!(split.stats(), whole.stats());
        assert_eq!(split.stats().failed_over_calls, 1);
        assert_eq!(split.stats().retries, 1);
        follower.shutdown();
    }

    #[test]
    fn a_split_burst_holding_a_write_is_sealed_and_never_resent() {
        let follower = follower();
        let follower_addr = follower.addr().to_string();
        let burst = vec![
            read("u1"),
            Request::PutOnline {
                group: "user".into(),
                entity: "u9".into(),
                values: vec![("score".into(), fstore_common::Value::Float(1.0))],
                term: 1,
            },
        ];
        let (dead, dies) = dying_endpoint();
        let mut split = client(&[&dead, &follower_addr]);
        let started = split.start_many(&burst);
        dies.join().unwrap();
        // Re-sent to the follower, the write would come back as a typed
        // `NotLeader` answer instead of an error.
        match split.finish_many(started, &burst) {
            Err(ClientError::WriteFailed {
                applied: None,
                cause,
            }) => assert!(crate::retry::classify(&cause) == crate::retry::ErrorClass::Transport),
            other => panic!("expected a sealed write failure, got {other:?}"),
        }
        let stats = split.stats();
        assert_eq!((stats.retries, stats.failed_over_calls), (0, 0));
        assert_eq!(stats.exhausted_calls, 1);
        follower.shutdown();
    }

    #[test]
    fn a_split_burst_holding_a_write_is_answered_request_by_request() {
        // One worker that naps on every job and a queue of one: the write
        // (first in) is admitted, and at least one read behind it is shed.
        let server = serving(crate::server::ServeConfig {
            workers: 1,
            queue_depth: 1,
            max_batch: 1,
            handler_delay: Some(Duration::from_millis(200)),
            ..crate::server::ServeConfig::default()
        });
        let addr = server.addr().to_string();
        let burst = vec![
            Request::PutOnline {
                group: "user".into(),
                entity: "u9".into(),
                values: vec![("score".into(), fstore_common::Value::Float(1.0))],
                term: 1,
            },
            read("u1"),
            read("u1"),
            read("u1"),
        ];
        let mut burster = client(&[&addr]);
        // Split into its two halves, then whole: one rule settles both.
        let started = burster.start_many(&burst);
        let split = burster.finish_many(started, &burst);
        let whole = burster.call_many(&burst);
        for outcome in [split, whole] {
            let answers = outcome.expect("a shed read does not fail the burst");
            assert_eq!(answers.len(), burst.len());
            assert!(
                crate::retry::pushback(&answers[0]).is_none(),
                "the write keeps its own answer: {:?}",
                answers[0]
            );
            assert!(
                answers[1..]
                    .iter()
                    .any(|a| crate::retry::pushback(a).is_some()),
                "expected a shed read: {answers:?}"
            );
        }
        assert_eq!(burster.stats(), FailoverStats::default());
        server.shutdown();
    }
}
