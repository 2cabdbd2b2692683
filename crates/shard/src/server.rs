//! A TCP front for the router: accepts ordinary wire-protocol
//! connections and answers them through a [`RouterClient`].
//!
//! The front is a [`Handler`] on the serve crate's connection engine, so
//! it runs on the same reader, ordered outbox, admission, deadline
//! shedding, frame and write timeouts, metrics and graceful drain as
//! every shard server. Only routing is its own: each drain the engine
//! hands it flies as one routed burst. All real work (batching, store
//! reads, group commits) happens on the shard servers; all routing logic
//! lives in [`RouterClient`].

use crate::control::ControlPlane;
use crate::router::{RouterClient, RouterConfig};
use fstore_serve::api::Transport;
use fstore_serve::batch::Job;
use fstore_serve::conn::{Drain, Handler};
use fstore_serve::{
    ClientError, ErrorCode, Request, Response, ServeConfig, ServerHandle, WireError,
};
use std::net::SocketAddr;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

/// Routing workers behind the front: one, so the drains of a connection
/// route one after another. With two, two drains of one connection could
/// route at once and reorder a write and a read on the same entity;
/// [`RouterClient::route_burst`] keeps order only inside one burst. The
/// price: every front connection shares this worker's `RouterClient` —
/// its shard connections and breakers — so a hung shard can hold the
/// other connections for up to one client `read_timeout` before its
/// breaker opens.
const ROUTING_WORKERS: usize = 1;

/// A running router front; dropping it (or calling
/// [`shutdown`](RouterHandle::shutdown)) refuses new work, cuts open
/// connections, and joins every thread.
pub struct RouterHandle {
    addr: SocketAddr,
    server: Option<ServerHandle>,
}

impl RouterHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the front; panics, as [`ServerHandle::shutdown`] does, if one
    /// of its threads panicked.
    pub fn shutdown(mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            // A panic must not leave `drop`: during an unwind it aborts.
            let _ = std::panic::catch_unwind(AssertUnwindSafe(|| server.shutdown()));
        }
    }
}

/// Start a router server on `addr` (port 0 picks a free port).
pub fn start_router(
    addr: &str,
    control: Arc<ControlPlane>,
    config: RouterConfig,
) -> std::io::Result<RouterHandle> {
    let serve = ServeConfig {
        addr: addr.to_string(),
        workers: ROUTING_WORKERS,
        ..ServeConfig::default()
    };
    let server = fstore_serve::start(Front { control, config }, serve)?;
    Ok(RouterHandle {
        addr: server.addr(),
        server: Some(server),
    })
}

/// The router as a connection-engine handler.
struct Front {
    control: Arc<ControlPlane>,
    config: RouterConfig,
}

impl Handler for Front {
    type Worker = RouterClient;

    fn worker(&self) -> RouterClient {
        RouterClient::new(Arc::clone(&self.control), self.config.clone())
    }

    /// Never: routing on a reader thread would grow the `RouterClient`'s
    /// connection and frame buffers in that thread's allocator arena, one
    /// arena per front connection (`sharded_mix` `peak_rss_mb` rose from
    /// 113.5 to 131.5 MiB in the median of three runs with the front
    /// inline). Those buffers live as long as the worker state, not the
    /// request, so unlike the engine's writes this holds however the
    /// shards keep their logs. Every request goes to the routing worker.
    fn answers_inline(&self, _request: &Request) -> bool {
        false
    }

    /// A lone request goes through `router.call`; a drain of several flies
    /// as one burst ([`RouterClient::route_burst`]: one flight, each
    /// request answered on its own). A drain is at most
    /// `ServeConfig::max_batch` (32) requests, within the 128 a shard
    /// connection queues (`ServeConfig::pipeline_depth`).
    fn serve(&self, router: &mut RouterClient, mut jobs: Vec<Job>, out: &mut Drain<'_>) {
        if jobs.len() == 1 {
            let job = jobs.pop().expect("one job this drain");
            let response = router
                .call(&job.request)
                .unwrap_or_else(|error| error_response(&error));
            return out.answer_typed(job, response);
        }
        let requests: Vec<&Request> = jobs.iter().map(|job| &job.request).collect();
        let routed = router.route_burst(&requests);
        for (job, result) in jobs.into_iter().zip(routed) {
            out.answer_typed(job, result.unwrap_or_else(|error| error_response(&error)));
        }
    }
}

/// Map a router-side client failure onto a wire error response. A typed
/// server error passes through untouched (the shard already said why);
/// everything else means the shard could not be reached at all.
fn error_response(error: &ClientError) -> Response {
    match error {
        ClientError::Server { code, message } => Response::Error {
            code: *code,
            message: message.clone(),
        },
        // Re-encode the typed refusal exactly as a shard would, so a
        // client behind the router front can parse the term back out.
        ClientError::NotLeader { current_term } => {
            Response::error(ErrorCode::NotLeader, format!("current_term={current_term}"))
        }
        ClientError::WriteFailed { .. } => Response::error(ErrorCode::Internal, format!("{error}")),
        ClientError::Wire(WireError::Oversized(n)) => Response::error(
            ErrorCode::FrameTooLarge,
            format!("shard response declared {n} bytes"),
        ),
        other => Response::error(ErrorCode::Internal, format!("shard unreachable: {other}")),
    }
}
