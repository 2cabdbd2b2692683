//! Admission control: a bounded queue in front of the worker pool.
//!
//! Load shedding happens at submission time — if the queue is full the
//! request is refused immediately with a distinct `Overloaded` wire error
//! rather than queuing without bound (tail latency) or blocking the
//! connection thread (head-of-line stalls). During shutdown the controller
//! flips to draining: new work is refused with `ShuttingDown` while
//! already-admitted jobs run to completion.

use crate::batch::Job;
use crate::metrics::ServingMetrics;
use crossbeam::channel::{Sender, TrySendError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Why a request was refused admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AdmitReject {
    /// The bounded queue is full; the request was shed.
    Overloaded,
    /// The server is draining toward shutdown.
    Draining,
}

/// The submission side of the worker queue. Cheap to clone; one per
/// connection thread.
#[derive(Clone)]
pub(crate) struct AdmissionController {
    tx: Sender<Job>,
    draining: Arc<AtomicBool>,
    metrics: Arc<ServingMetrics>,
}

impl AdmissionController {
    pub(crate) fn new(
        tx: Sender<Job>,
        draining: Arc<AtomicBool>,
        metrics: Arc<ServingMetrics>,
    ) -> Self {
        AdmissionController {
            tx,
            draining,
            metrics,
        }
    }

    /// Admit `job` or refuse it without blocking. A refused job's ticket
    /// is disarmed, not answered: the caller answers the slot with the
    /// refusal.
    pub(crate) fn submit(&self, job: Job) -> Result<(), AdmitReject> {
        if self.draining.load(Ordering::Acquire) {
            self.metrics.record_rejected_draining();
            job.ticket.disarm();
            return Err(AdmitReject::Draining);
        }
        match self.tx.try_send(job) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(job)) => {
                self.metrics.record_shed();
                job.ticket.disarm();
                Err(AdmitReject::Overloaded)
            }
            Err(TrySendError::Disconnected(job)) => {
                self.metrics.record_rejected_draining();
                job.ticket.disarm();
                Err(AdmitReject::Draining)
            }
        }
    }

    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::Ticket;
    use crate::protocol::Request;
    use std::time::Instant;

    fn job() -> Job {
        Job {
            request: Request::Health,
            ticket: Ticket::detached(),
            accepted_at: Instant::now(),
            deadline: None,
        }
    }

    #[test]
    fn sheds_when_queue_is_full() {
        let (tx, _rx) = crossbeam::channel::bounded(1);
        let metrics = Arc::new(ServingMetrics::new());
        let ctl = AdmissionController::new(tx, Arc::new(AtomicBool::new(false)), metrics.clone());
        assert_eq!(ctl.submit(job()), Ok(()));
        assert_eq!(ctl.submit(job()), Err(AdmitReject::Overloaded));
        assert_eq!(metrics.shed_count(), 1);
        assert_eq!(ctl.tx.len(), 1);
    }

    #[test]
    fn refuses_new_work_while_draining() {
        let (tx, _rx) = crossbeam::channel::bounded(4);
        let draining = Arc::new(AtomicBool::new(true));
        let ctl = AdmissionController::new(tx, draining, Arc::new(ServingMetrics::new()));
        assert_eq!(ctl.submit(job()), Err(AdmitReject::Draining));
    }
}
