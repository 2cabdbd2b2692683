//! Client-side retries: jittered exponential backoff plus an
//! idempotency-aware classification of failures.
//!
//! The policy is deliberately split into pure functions —
//! [`RetryPolicy::backoff`] maps `(attempt, unit-uniform)` to a delay and
//! [`classify`] maps a [`ClientError`] to an [`ErrorClass`] — so property
//! tests can pin down the retry behaviour without sockets or sleeps.
//! [`FailoverClient`](crate::FailoverClient) — one endpoint or many — and
//! the shard router glue them to real connections: they reconnect after
//! transport failures, back off before every retry (crucially including
//! `Overloaded`, so a shedding server is never hammered by its own
//! rejects), and refuse to retry anything that is not idempotent or not
//! transient.

use crate::client::ClientError;
use crate::protocol::{ErrorCode, Request, Response};
use std::time::Duration;

/// How a failed call should be treated by a retry loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Connection-level trouble (I/O error, peer hang-up, undecodable
    /// bytes): the connection is poisoned, reconnect and retry.
    Transport,
    /// The server explicitly pushed back (`Overloaded`, `ShuttingDown`):
    /// retry, but only after backing off — retrying immediately feeds the
    /// very overload that caused the refusal.
    Backoff,
    /// A definitive answer (`NotFound`, `BadRequest`, dimension errors,
    /// an expired deadline budget, …): retrying cannot change it.
    Fatal,
}

/// Classify a client failure for retry purposes.
pub fn classify(error: &ClientError) -> ErrorClass {
    match error {
        ClientError::Io(_) | ClientError::ConnectionClosed | ClientError::Wire(_) => {
            ErrorClass::Transport
        }
        ClientError::Server { code, .. } => match code {
            ErrorCode::Overloaded | ErrorCode::ShuttingDown => ErrorClass::Backoff,
            _ => ErrorClass::Fatal,
        },
        ClientError::UnexpectedResponse(_) => ErrorClass::Fatal,
        // A fencing refusal is definitive for *this* endpoint — only a
        // router holding a fresher shard map can act on it.
        ClientError::NotLeader { .. } => ErrorClass::Fatal,
        // Already the sealed verdict on a non-idempotent request; retrying
        // it is exactly what the wrapper exists to prevent.
        ClientError::WriteFailed { .. } => ErrorClass::Fatal,
    }
}

/// Seal the failure of a non-idempotent request so no outer layer
/// blind-retries it: transport-class failures are wrapped in
/// [`ClientError::WriteFailed`] (classified [`ErrorClass::Fatal`]),
/// recording whether the request was ever dispatched — `dispatched =
/// false` (e.g. the connect failed) proves the write was not applied,
/// while a failure after dispatch leaves the outcome unknown. Idempotent
/// requests and typed server refusals (which prove non-application by
/// themselves) pass through untouched.
pub(crate) fn seal_write_failure(
    request: &Request,
    dispatched: bool,
    error: ClientError,
) -> ClientError {
    if request.is_idempotent() || classify(&error) != ErrorClass::Transport {
        return error;
    }
    ClientError::WriteFailed {
        applied: if dispatched { None } else { Some(false) },
        cause: Box::new(error),
    }
}

/// Server pushback hidden inside a *successful* wire exchange: on the
/// wire, `Overloaded` and `ShuttingDown` are ordinary `Response::Error`
/// frames, so a transport-level `call` returns them as `Ok`. Retry loops
/// must treat them as failures — otherwise a draining or shedding server
/// "answers" and the retry/breaker machinery never fires. Returns the
/// pushback as a [`ClientError::Server`] so it flows through [`classify`]
/// like any other failure; definitive errors (`NotFound`, …) return
/// `None` and pass through as responses.
pub fn pushback(response: &Response) -> Option<ClientError> {
    match response {
        Response::Error { code, message }
            if matches!(code, ErrorCode::Overloaded | ErrorCode::ShuttingDown) =>
        {
            Some(ClientError::Server {
                code: *code,
                message: message.clone(),
            })
        }
        _ => None,
    }
}

/// Jittered exponential backoff with a retry budget.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total tries including the first (so `1` disables retries).
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub base_backoff: Duration,
    /// Growth factor per retry (≥ 1).
    pub multiplier: f64,
    /// Ceiling on any single delay.
    pub max_backoff: Duration,
    /// Fraction of the delay that jitter may subtract, in `[0, 1]`.
    /// `0.25` means each delay is uniform in `[0.75·d, d]` — spreading
    /// out retries from clients that failed at the same instant.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            multiplier: 2.0,
            max_backoff: Duration::from_secs(1),
            jitter: 0.25,
        }
    }
}

impl RetryPolicy {
    /// The delay before retry number `attempt` (0-based), given a uniform
    /// draw `unit` in `[0, 1)` for jitter. Pure: the policy never touches
    /// a clock or an RNG itself.
    pub fn backoff(&self, attempt: u32, unit: f64) -> Duration {
        let unit = unit.clamp(0.0, 1.0);
        let jitter = self.jitter.clamp(0.0, 1.0);
        // Work in float seconds and cap before constructing the Duration:
        // multiplier^attempt overflows Duration arithmetic long before it
        // overflows f64 (which saturates harmlessly to infinity here).
        let exp = self
            .multiplier
            .max(1.0)
            .powi(attempt.min(i32::MAX as u32) as i32);
        let full_s = (self.base_backoff.as_secs_f64() * exp).min(self.max_backoff.as_secs_f64());
        let full = Duration::from_secs_f64(full_s).min(self.max_backoff);
        full.mul_f64(1.0 - jitter * unit)
    }

    /// The delay with jitter disabled — the upper envelope of
    /// [`RetryPolicy::backoff`], useful for bounding total retry time.
    pub fn backoff_ceiling(&self, attempt: u32) -> Duration {
        self.backoff(attempt, 0.0)
    }

    /// Whether a retry loop should try again: the request must be
    /// idempotent, the failure transient, and the budget not exhausted.
    /// `attempt` is 0-based (the try that just failed).
    pub fn should_retry(&self, request: &Request, error: &ClientError, attempt: u32) -> bool {
        request.is_idempotent()
            && attempt + 1 < self.max_attempts
            && classify(error) != ErrorClass::Fatal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn err(code: ErrorCode) -> ClientError {
        ClientError::Server {
            code,
            message: String::new(),
        }
    }

    #[test]
    fn classification_matches_the_failure_table() {
        let io = ClientError::Io(std::io::Error::new(std::io::ErrorKind::TimedOut, "t"));
        assert_eq!(classify(&io), ErrorClass::Transport);
        assert_eq!(
            classify(&ClientError::ConnectionClosed),
            ErrorClass::Transport
        );
        assert_eq!(classify(&err(ErrorCode::Overloaded)), ErrorClass::Backoff);
        assert_eq!(classify(&err(ErrorCode::ShuttingDown)), ErrorClass::Backoff);
        assert_eq!(classify(&err(ErrorCode::NotFound)), ErrorClass::Fatal);
        assert_eq!(
            classify(&err(ErrorCode::DeadlineExceeded)),
            ErrorClass::Fatal
        );
        assert_eq!(
            classify(&ClientError::UnexpectedResponse("x")),
            ErrorClass::Fatal
        );
        assert_eq!(
            classify(&ClientError::NotLeader { current_term: 3 }),
            ErrorClass::Fatal
        );
        assert_eq!(
            classify(&ClientError::WriteFailed {
                applied: None,
                cause: Box::new(ClientError::ConnectionClosed),
            }),
            ErrorClass::Fatal
        );
    }

    #[test]
    fn write_failures_are_sealed_and_never_retried() {
        let write = Request::PutOnline {
            group: "g".into(),
            entity: "e".into(),
            values: vec![],
            term: 1,
        };
        // Connect failure: provably never dispatched.
        let refused = ClientError::Io(std::io::Error::new(
            std::io::ErrorKind::ConnectionRefused,
            "refused",
        ));
        let sealed = seal_write_failure(&write, false, refused);
        assert!(matches!(
            sealed,
            ClientError::WriteFailed {
                applied: Some(false),
                ..
            }
        ));
        // Failure after dispatch: outcome unknown.
        let sealed = seal_write_failure(&write, true, ClientError::ConnectionClosed);
        assert!(matches!(
            sealed,
            ClientError::WriteFailed { applied: None, .. }
        ));
        // The sealed verdict classifies Fatal, so no retry loop touches it.
        assert_eq!(classify(&sealed), ErrorClass::Fatal);
        assert!(!RetryPolicy::default().should_retry(&write, &sealed, 0));
        // A typed refusal proves non-application by itself: untouched.
        let not_leader = ClientError::NotLeader { current_term: 2 };
        assert!(matches!(
            seal_write_failure(&write, true, not_leader),
            ClientError::NotLeader { current_term: 2 }
        ));
        // Idempotent requests pass through unchanged.
        assert!(matches!(
            seal_write_failure(&Request::Health, true, ClientError::ConnectionClosed),
            ClientError::ConnectionClosed
        ));
    }

    #[test]
    fn pushback_surfaces_only_backoff_class_responses() {
        let shed = Response::error(ErrorCode::Overloaded, "queue full");
        let drain = Response::error(ErrorCode::ShuttingDown, "draining");
        for response in [&shed, &drain] {
            let error = pushback(response).expect("pushback is a failure");
            assert_eq!(classify(&error), ErrorClass::Backoff);
        }
        // Definitive errors and real answers pass through untouched.
        assert!(pushback(&Response::error(ErrorCode::NotFound, "nope")).is_none());
        assert!(pushback(&Response::Health {
            queue_depth: 0,
            draining: true
        })
        .is_none());
    }

    #[test]
    fn backoff_caps_at_the_ceiling() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.backoff_ceiling(30), policy.max_backoff);
    }

    #[test]
    fn exhausted_budget_stops_retrying() {
        let policy = RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        };
        let request = Request::Health;
        let overload = err(ErrorCode::Overloaded);
        assert!(policy.should_retry(&request, &overload, 0));
        assert!(!policy.should_retry(&request, &overload, 1));
    }
}
