//! A TCP front for the router: accepts ordinary wire-protocol
//! connections and answers them through a [`RouterClient`].
//!
//! The router tier is deliberately thin — framing, decode, route, encode.
//! All real work (admission, batching, deadline shedding) happens on the
//! shard servers; all routing logic lives in [`RouterClient`]. Each
//! connection gets its own router (and therefore its own per-shard
//! connections), so concurrent clients scatter in parallel without a
//! shared lock, the same way each client connection to a shard server is
//! independent.

use crate::control::ControlPlane;
use crate::router::{RouterClient, RouterConfig};
use fstore_serve::api::Transport;
use fstore_serve::{
    put_frame, ClientError, ErrorCode, FrameEvent, FramePool, FrameReader, Request, Response,
    WireError, MAX_FRAME_LEN,
};
use parking_lot::Mutex;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running router server; dropping it (or calling
/// [`shutdown`](RouterHandle::shutdown)) stops the acceptor, cuts open
/// connections, and joins every thread.
pub struct RouterHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    acceptor: Option<JoinHandle<()>>,
}

impl RouterHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn shutdown(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Release);
        for conn in self.conns.lock().drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Start a router server on `addr` (port 0 picks a free port).
pub fn start_router(
    addr: &str,
    control: Arc<ControlPlane>,
    config: RouterConfig,
) -> std::io::Result<RouterHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));

    let acceptor = {
        let stop = Arc::clone(&stop);
        let conns = Arc::clone(&conns);
        // One encode-buffer pool for the whole router tier; every
        // connection's responses are serialized out of recycled buffers.
        let pool = Arc::new(FramePool::default());
        std::thread::spawn(move || {
            let mut workers: Vec<JoinHandle<()>> = Vec::new();
            for incoming in listener.incoming() {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok(socket) = incoming else { continue };
                if socket.set_nodelay(true).is_err() {
                    continue;
                }
                if let Ok(registered) = socket.try_clone() {
                    conns.lock().push(registered);
                }
                let router = RouterClient::new(Arc::clone(&control), config.clone());
                let pool = Arc::clone(&pool);
                workers.push(std::thread::spawn(move || {
                    connection_loop(socket, router, &pool);
                }));
            }
            for worker in workers {
                let _ = worker.join();
            }
        })
    };

    Ok(RouterHandle {
        addr,
        stop,
        conns,
        acceptor: Some(acceptor),
    })
}

/// Requests one router connection keeps decoded and waiting while earlier
/// ones are still being routed — the front's pipeline depth.
const ROUTER_PIPELINE: usize = 64;

/// Serve one connection: a reader thread keeps decoding frames ahead
/// (up to [`ROUTER_PIPELINE`] in flight) while this thread routes them.
/// It blocks for one request, then takes whatever else is already
/// queued: a lone request goes through `router.call`, several go out as
/// one burst ([`RouterClient::route_burst`] — one flight, each request
/// answered on its own). Every response of the round is encoded, in
/// arrival order, into one pooled buffer and written with one call, so
/// frame I/O overlaps the routing work.
fn connection_loop(socket: TcpStream, mut router: RouterClient, pool: &FramePool) {
    let Ok(read_half) = socket.try_clone() else {
        return;
    };
    let (tx, rx) = std::sync::mpsc::sync_channel::<Result<Request, Response>>(ROUTER_PIPELINE);
    let reader_thread = std::thread::spawn(move || {
        let mut reader = FrameReader::new();
        loop {
            let decoded = match reader.read_frame(&read_half, MAX_FRAME_LEN, None, None) {
                // Undecodable payload → typed refusal that must still go
                // out in order.
                Ok(FrameEvent::Frame(payload)) => Request::decode(payload).map_err(|e| {
                    Response::error(ErrorCode::BadRequest, format!("undecodable request: {e}"))
                }),
                Ok(FrameEvent::TooLarge { declared }) => {
                    // Refuse, then stop: the payload was never read, so
                    // the stream position is unrecoverable.
                    let _ = tx.send(Err(Response::error(
                        ErrorCode::FrameTooLarge,
                        format!("request frame declared {declared} bytes"),
                    )));
                    return;
                }
                _ => return, // EOF, cut by shutdown, or dead peer
            };
            if tx.send(decoded).is_err() {
                return; // the writer side died on a socket error
            }
        }
    });
    let mut writer = &socket;
    let mut round: Vec<Result<Request, Response>> = Vec::with_capacity(ROUTER_PIPELINE);
    let mut requests: Vec<Request> = Vec::with_capacity(ROUTER_PIPELINE);
    while let Ok(first) = rx.recv() {
        round.push(first);
        round.extend(rx.try_iter().take(ROUTER_PIPELINE - 1));
        let mut buf = pool.get();
        if round.len() == 1 {
            let response = match round.pop().expect("one request this round") {
                Ok(request) => router
                    .call(&request)
                    .unwrap_or_else(|error| error_response(&error)),
                Err(refusal) => refusal,
            };
            put_frame(&mut buf, |buf| response.encode_into(buf));
        } else {
            // Refusals keep their slot; everything decodable flies as one
            // burst.
            let refusals: Vec<Option<Response>> = round
                .drain(..)
                .map(|decoded| match decoded {
                    Ok(request) => {
                        requests.push(request);
                        None
                    }
                    Err(refusal) => Some(refusal),
                })
                .collect();
            let mut routed = router.route_burst(&requests).into_iter();
            for refusal in refusals {
                let response = refusal.unwrap_or_else(|| {
                    routed
                        .next()
                        .expect("one result per routed request")
                        .unwrap_or_else(|error| error_response(&error))
                });
                put_frame(&mut buf, |buf| response.encode_into(buf));
            }
            requests.clear();
        }
        let ok = writer.write_all(buf.as_slice()).is_ok();
        pool.put(buf);
        if !ok {
            break;
        }
    }
    // Unblock the reader (it may be parked waiting for a frame) and join.
    let _ = socket.shutdown(Shutdown::Both);
    let _ = reader_thread.join();
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
