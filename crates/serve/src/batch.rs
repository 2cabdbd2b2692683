//! Opportunistic request batching.
//!
//! When a worker claims a job it also drains whatever else is already
//! queued (up to a cap) and coalesces single-entity `GetFeatures` lookups
//! that share a `(group, feature-list)` key: the worker resolves the
//! feature ids, the clock and the epoch once for the group, then encodes
//! each member's row straight into its own response frame. `SearchNearest`
//! requests coalesce the same way on `(table, k, options)`: the worker
//! resolves the index snapshot `Arc` once and runs each member's search
//! against it in turn, so a swap cannot land between members of a batch. Every `PutOnline` of a drain
//! forms one write group, answered with one fenced group commit (one
//! lock, one WAL write, one publication-log append). Under light load the
//! drain comes back empty and requests run singly with no added latency;
//! no timers are involved.

use crate::conn::Ticket;
use crate::protocol::{Request, Response, SearchOptions};
use bytes::BytesMut;
use crossbeam::channel::Receiver;
use std::time::Instant;

/// A finished job's answer, waiting in its slot of the connection's
/// outbox until it reaches the head.
pub(crate) enum Reply {
    /// A feature read, encoded by the worker straight from the store into
    /// a frame from the server's pool; whoever sends it copies it into
    /// the run and returns the buffer. Read frames are small and uniform,
    /// so the pooled buffers stay small.
    Frame(BytesMut),
    /// Everything else, encoded straight into the connection's send
    /// buffer by whoever sends it (a worker, the reader or the stall
    /// flusher) — bulk answers (replication deltas, snapshots) grow the
    /// buffer of the connection that asked for them, never the shared
    /// pool.
    Typed(Response),
}

/// One admitted request plus the outbox slot its response goes into.
pub struct Job {
    pub request: Request,
    /// The reply slot reserved for this request on its connection.
    pub(crate) ticket: Ticket,
    /// When admission accepted the job; latency is measured from here so
    /// queue wait shows up in the percentiles.
    pub(crate) accepted_at: Instant,
    /// The client's deadline for this job, if it sent a budget
    /// (`Request::WithDeadline`). A worker that dequeues the job after
    /// this instant sheds it with `DeadlineExceeded` instead of running
    /// it — the caller has already given up.
    pub(crate) deadline: Option<Instant>,
}

/// A coalesced group of single-entity lookups: same group, same features.
/// The key is not copied out — it is read off the first member.
pub(crate) struct FeatureBatch {
    /// The member jobs (never empty); every request is `GetFeatures` for
    /// this batch's `(group, features)`.
    pub(crate) jobs: Vec<Job>,
}

impl FeatureBatch {
    /// The `(group, features)` every member shares.
    pub(crate) fn key(&self) -> (&str, &[String]) {
        match &self.jobs[0].request {
            Request::GetFeatures {
                group, features, ..
            } => (group, features),
            _ => unreachable!("plan() only batches GetFeatures"),
        }
    }
}

/// A coalesced group of vector searches: same table, same k, same options.
/// The batch resolves one index snapshot, and each member runs its own
/// search against it.
pub(crate) struct SearchBatch {
    /// The member jobs (never empty); every request is `SearchNearest` for
    /// this batch's `(table, k, options)`.
    pub(crate) jobs: Vec<Job>,
}

impl SearchBatch {
    /// The `(table, k, options)` every member shares.
    pub(crate) fn key(&self) -> (&str, u32, SearchOptions) {
        match &self.jobs[0].request {
            Request::SearchNearest {
                table, k, options, ..
            } => (table, *k, *options),
            _ => unreachable!("plan() only batches SearchNearest"),
        }
    }
}

/// The worker's execution plan for one drain.
pub(crate) struct Plan {
    /// Coalesced `GetFeatures` groups of two or more.
    pub(crate) batches: Vec<FeatureBatch>,
    /// Coalesced `SearchNearest` groups of two or more.
    pub(crate) searches: Vec<SearchBatch>,
    /// Every `PutOnline`, in arrival order: one write group, of any size.
    pub(crate) writes: Vec<Job>,
    /// Everything else, executed one by one.
    pub(crate) singles: Vec<Job>,
}

/// Claim up to `max - 1` additional queued jobs without blocking.
pub(crate) fn drain(rx: &Receiver<Job>, first: Job, max: usize) -> Vec<Job> {
    let mut jobs = vec![first];
    while jobs.len() < max {
        match rx.try_recv() {
            Ok(job) => jobs.push(job),
            Err(_) => break,
        }
    }
    jobs
}

/// Partition drained jobs into coalesced batches, the write group and
/// singles. Groups form in first-arrival order and keep arrival order
/// within. A job joins the group whose first member's key equals its own,
/// compared in place: a drain is at most `max_batch` jobs over a handful
/// of distinct keys, so the scan is short and planning allocates per
/// group, not per job.
pub(crate) fn plan(jobs: Vec<Job>) -> Plan {
    let mut batches: Vec<FeatureBatch> = Vec::new();
    let mut searches: Vec<SearchBatch> = Vec::new();
    let mut writes = Vec::new();
    let mut singles = Vec::new();
    for job in jobs {
        match &job.request {
            Request::GetFeatures {
                group, features, ..
            } => {
                let key = (group.as_str(), features.as_slice());
                match batches.iter_mut().find(|b| b.key() == key) {
                    Some(batch) => batch.jobs.push(job),
                    None => batches.push(FeatureBatch { jobs: vec![job] }),
                }
            }
            Request::SearchNearest {
                table, k, options, ..
            } => {
                let key = (table.as_str(), *k, *options);
                match searches.iter_mut().find(|b| b.key() == key) {
                    Some(batch) => batch.jobs.push(job),
                    None => searches.push(SearchBatch { jobs: vec![job] }),
                }
            }
            Request::PutOnline { .. } => writes.push(job),
            _ => singles.push(job),
        }
    }
    // A batch of one gains nothing; keep the single-request path.
    let (batches, lone): (Vec<_>, Vec<_>) = batches.into_iter().partition(|b| b.jobs.len() >= 2);
    singles.extend(lone.into_iter().flat_map(|b| b.jobs));
    let (searches, lone): (Vec<_>, Vec<_>) = searches.into_iter().partition(|b| b.jobs.len() >= 2);
    singles.extend(lone.into_iter().flat_map(|b| b.jobs));
    Plan {
        batches,
        searches,
        writes,
        singles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::bounded;

    fn job(request: Request) -> Job {
        // These tests only inspect requests.
        Job {
            request,
            ticket: Ticket::detached(),
            accepted_at: Instant::now(),
            deadline: None,
        }
    }

    fn get(group: &str, entity: &str, features: &[&str]) -> Request {
        Request::GetFeatures {
            group: group.into(),
            entity: entity.into(),
            features: features.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn coalesces_matching_lookups_and_keeps_mismatches_single() {
        let jobs = vec![
            job(get("user", "u1", &["a", "b"])),
            job(get("user", "u2", &["a", "b"])),
            job(get("user", "u3", &["a"])), // different feature list
            job(get("item", "i1", &["a", "b"])), // different group
            job(Request::Health),
        ];
        let plan = plan(jobs);
        assert_eq!(plan.batches.len(), 1);
        let (group, features) = plan.batches[0].key();
        assert_eq!(group, "user");
        assert_eq!(features, ["a", "b"]);
        assert_eq!(plan.batches[0].jobs.len(), 2);
        assert_eq!(plan.singles.len(), 3);
    }

    fn search(table: &str, k: u32, options: SearchOptions) -> Request {
        Request::SearchNearest {
            table: table.into(),
            query: vec![0.0, 0.0],
            k,
            options,
        }
    }

    #[test]
    fn coalesces_searches_on_table_k_and_options() {
        let ef = SearchOptions {
            ef: 64,
            ..SearchOptions::default()
        };
        let jobs = vec![
            job(search("emb", 10, ef)),
            job(search("emb", 10, ef)),
            job(search("emb", 10, SearchOptions::default())), // different options
            job(search("emb", 5, ef)),                        // different k
            job(search("other", 10, ef)),                     // different table
            job(Request::SearchNearestByKey {
                table: "emb".into(),
                key: "a".into(),
                k: 10,
                options: ef,
            }), // by-key never coalesces
        ];
        let plan = plan(jobs);
        assert_eq!(plan.searches.len(), 1);
        assert_eq!(plan.searches[0].key(), ("emb", 10, ef));
        assert_eq!(plan.searches[0].jobs.len(), 2);
        assert_eq!(plan.singles.len(), 4);
        assert!(plan.batches.is_empty());
    }

    #[test]
    fn every_write_of_a_drain_joins_one_group_in_arrival_order() {
        let put = |entity: &str, term| Request::PutOnline {
            group: "user".into(),
            entity: entity.into(),
            values: Vec::new(),
            term,
        };
        let jobs = vec![
            job(put("u1", 3)),
            job(get("user", "u1", &["a"])),
            job(put("u2", 4)), // a different term still joins the group
            job(Request::Health),
            job(put("u3", 3)),
        ];
        let plan = plan(jobs);
        let entities: Vec<&str> = plan
            .writes
            .iter()
            .map(|j| match &j.request {
                Request::PutOnline { entity, .. } => entity.as_str(),
                _ => unreachable!("plan() only groups PutOnline as writes"),
            })
            .collect();
        assert_eq!(entities, ["u1", "u2", "u3"]);
        assert_eq!(plan.singles.len(), 2);
    }

    #[test]
    fn drain_takes_queued_jobs_up_to_cap() {
        let (tx, rx) = bounded(8);
        for i in 0..5 {
            assert!(tx.send(job(get("user", &format!("u{i}"), &["a"]))).is_ok());
        }
        let first = job(Request::Health);
        let jobs = drain(&rx, first, 4);
        assert_eq!(jobs.len(), 4, "first + three drained");
        assert_eq!(rx.len(), 2, "two left queued");
    }
}
