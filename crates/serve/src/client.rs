//! A blocking client for the wire protocol.
//!
//! [`FeatureClient::call`] keeps one request in flight;
//! [`FeatureClient::call_many`] pipelines a whole slice of requests on the
//! same socket — every frame is written before the first response is
//! read, and responses come back in request order (the server guarantees
//! in-order responses per connection, see DESIGN §2.16). Both paths reuse
//! one encode buffer and one [`FrameReader`], so a warmed-up client does
//! zero per-request payload allocations.

use crate::api::Transport;
use crate::codec::{
    put_frame, write_frame_vectored, FrameEvent, FrameReader, OwnedFrameEvent, MAX_FRAME_LEN,
};
use crate::protocol::{ErrorCode, Request, Response, WireDelta, WireError, WireHit};
use crate::repl::ReplLogState;
use bytes::{BufMut, Bytes, BytesMut};
use std::borrow::Borrow;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Socket deadlines and frame bounds for a [`FeatureClient`] connection.
/// The timeout defaults are deliberately generous — they exist to turn a
/// dead or wedged peer into a typed error instead of an unbounded wait,
/// not to enforce latency SLOs (that is what [`Request::WithDeadline`]
/// budgets are for).
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// TCP connect bound; `None` falls back to the OS default (which can
    /// be minutes).
    pub connect_timeout: Option<Duration>,
    /// Bound on waiting for a response to arrive.
    pub read_timeout: Option<Duration>,
    /// Bound on pushing a request onto the socket.
    pub write_timeout: Option<Duration>,
    /// When set, every request is wrapped in a
    /// [`Request::WithDeadline`] envelope with this budget, letting the
    /// server shed it once the caller must have given up.
    pub deadline_budget: Option<Duration>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Some(Duration::from_secs(5)),
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            deadline_budget: None,
        }
    }
}

/// One embedding vector read over the wire, carrying the table version it
/// was served from — without the version a client cannot tell whether two
/// reads straddled a republish (the paper's §4 cross-version dot-product
/// hazard).
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingRead {
    pub vector: Vec<f32>,
    pub dim: usize,
    /// The embedding-table version that answered the read.
    pub version: u32,
    /// The embedding store's publication epoch at serve time; version and
    /// vector were resolved from that single snapshot, so an epoch that
    /// never decreases across reads proves the server's snapshot swaps are
    /// monotone.
    pub epoch: u64,
}

/// A nearest-neighbour answer, stamped with the snapshot identity that
/// produced it (see [`Response::Neighbors`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Neighbors {
    /// The embedding-table version the index snapshot was built from.
    pub table_version: u32,
    /// The snapshot's swap generation (the catalog's publication epoch);
    /// a jump between calls means an index rebuild landed in between.
    pub index_generation: u64,
    /// Hits ascending by squared-L2 distance.
    pub hits: Vec<WireHit>,
}

/// One `ReplDeltas` exchange: the leader's epoch at answer time, whether
/// the requested range had already been evicted (`lagged`), and the
/// deltas themselves (empty when lagged — re-bootstrap instead).
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaBatch {
    pub leader_epoch: u64,
    pub lagged: bool,
    pub deltas: Vec<WireDelta>,
}

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    Io(std::io::Error),
    /// The peer sent bytes that do not decode.
    Wire(WireError),
    /// The server refused or failed the request.
    Server {
        code: ErrorCode,
        message: String,
    },
    /// The server closed the connection mid-exchange.
    ConnectionClosed,
    /// The server answered with a different response type than the
    /// request calls for.
    UnexpectedResponse(&'static str),
    /// A write (or leadership admin request) was refused because the
    /// target is not the leader at the request's term. Carries the
    /// refusing node's current term so a router can refresh its map and
    /// re-route with the right term.
    NotLeader {
        /// The refusing node's leader term at the time of refusal.
        current_term: u64,
    },
    /// A non-idempotent request failed in transit and was **not**
    /// blind-retried. `applied` says what the client can prove:
    /// `Some(false)` means the request provably never reached a server
    /// (e.g. the connect failed), `None` means the outcome is unknown —
    /// the request was dispatched and the failure arrived before a
    /// response, so the write may or may not have been applied.
    WriteFailed {
        /// `Some(false)` = provably not applied; `None` = unknown.
        applied: Option<bool>,
        /// The underlying transport failure.
        cause: Box<ClientError>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error {code:?}: {message}")
            }
            ClientError::ConnectionClosed => write!(f, "connection closed by server"),
            ClientError::UnexpectedResponse(expected) => {
                write!(f, "unexpected response type, expected {expected}")
            }
            ClientError::NotLeader { current_term } => {
                write!(f, "not the leader (current_term={current_term})")
            }
            ClientError::WriteFailed { applied, cause } => {
                let outcome = match applied {
                    Some(false) => "not applied",
                    Some(true) => "applied",
                    None => "outcome unknown",
                };
                write!(f, "write failed ({outcome}): {cause}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// The server-side error code, if this failure carries one.
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server { code, .. } => Some(*code),
            ClientError::NotLeader { .. } => Some(ErrorCode::NotLeader),
            ClientError::WriteFailed { cause, .. } => cause.code(),
            _ => None,
        }
    }

    /// Whether this failure is a connect/read/write timeout (a deadline
    /// fired, as opposed to a refusal or a protocol violation).
    pub fn is_timeout(&self) -> bool {
        match self {
            ClientError::Io(e) => matches!(
                e.kind(),
                std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
            ),
            ClientError::WriteFailed { cause, .. } => cause.is_timeout(),
            _ => false,
        }
    }
}

/// Append `request` to `buf`, wrapping it in a [`Request::WithDeadline`]
/// envelope when a `budget` is configured (and the caller did not wrap it
/// already). Writes the envelope tag inline so no request clone is ever
/// made.
fn encode_wrapped(buf: &mut BytesMut, budget: Option<Duration>, request: &Request) {
    match budget {
        Some(budget) if !matches!(request, Request::WithDeadline { .. }) => {
            buf.put_u8(9);
            buf.put_u32(u32::try_from(budget.as_millis()).unwrap_or(u32::MAX));
            request.encode_into(buf);
        }
        _ => request.encode_into(buf),
    }
}

/// A blocking connection to a feature server.
///
/// The typed request surface (`get_features`, `search_nearest`, …) comes
/// from the [`StoreApi`](crate::StoreApi) trait, shared with every other
/// client in the crate; bring it into scope to use those methods.
pub struct FeatureClient {
    stream: TcpStream,
    reader: FrameReader,
    /// Reusable encode buffer: grows to the connection's working request
    /// size once, then serves every call without allocating.
    buf: BytesMut,
    deadline_budget: Option<Duration>,
    read_timeout: Option<Duration>,
}

impl FeatureClient {
    /// Connect with the default [`ClientConfig`] — bounded connect, read,
    /// and write, no per-request deadline budget.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::connect_with(addr, &ClientConfig::default())
    }

    /// The bare client's constructor: one eager connection with explicit
    /// socket deadlines and (optionally) a per-request deadline budget —
    /// no reconnect, no retry, no breaker. For those, build a
    /// [`FailoverClient`](crate::FailoverClient) with
    /// [`ClientBuilder`](crate::ClientBuilder).
    pub fn connect_with(addr: impl ToSocketAddrs, config: &ClientConfig) -> std::io::Result<Self> {
        let stream = match config.connect_timeout {
            Some(bound) => {
                // connect_timeout wants a resolved address; try each one
                // and keep the last error for the caller.
                let mut last_err = None;
                let mut connected = None;
                for addr in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&addr, bound) {
                        Ok(s) => {
                            connected = Some(s);
                            break;
                        }
                        Err(e) => last_err = Some(e),
                    }
                }
                connected.ok_or_else(|| {
                    last_err.unwrap_or_else(|| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidInput,
                            "address resolved to no endpoints",
                        )
                    })
                })?
            }
            None => TcpStream::connect(addr)?,
        };
        stream.set_nodelay(true)?;
        stream.set_write_timeout(config.write_timeout)?;
        Ok(FeatureClient {
            stream,
            reader: FrameReader::new(),
            buf: BytesMut::new(),
            deadline_budget: config.deadline_budget,
            read_timeout: config.read_timeout,
        })
    }

    /// Read and decode one response frame off the connection's reader.
    fn read_response(&mut self) -> Result<Response, ClientError> {
        match self.reader.read_frame(
            &self.stream,
            MAX_FRAME_LEN,
            self.read_timeout,
            self.read_timeout,
        )? {
            FrameEvent::Frame(payload) => Response::decode(payload).map_err(ClientError::Wire),
            FrameEvent::Eof => Err(ClientError::ConnectionClosed),
            FrameEvent::TooLarge { declared } => {
                Err(ClientError::Wire(WireError::Oversized(declared)))
            }
            FrameEvent::TimedOut => Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "response frame stalled mid-read",
            ))),
        }
    }

    /// Send one request and wait for its response. A configured deadline
    /// budget wraps the request in a [`Request::WithDeadline`] envelope
    /// (unless the caller already wrapped it).
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.buf.clear();
        encode_wrapped(&mut self.buf, self.deadline_budget, request);
        let mut w = &self.stream;
        write_frame_vectored(&mut w, self.buf.as_slice())?;
        self.read_response()
    }

    /// Pipeline `requests` on this connection: write every frame before
    /// reading the first response, then read the responses back in
    /// request order. One syscall writes the whole burst in the common
    /// case. Any transport failure poisons the connection (responses for
    /// in-flight requests are lost) — callers that retry must treat the
    /// batch as a unit.
    pub fn call_many(&mut self, requests: &[Request]) -> Result<Vec<Response>, ClientError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        self.send_many(requests)?;
        self.recv_many(requests.len())
    }

    /// The write half of [`call_many`](Self::call_many): encode every
    /// frame into the connection's buffer and put the burst on the wire
    /// with one write, reading nothing. Pair it with
    /// [`recv_many`](Self::recv_many) for the same count; in between, the
    /// caller may start bursts on other connections, which is how one
    /// thread keeps several servers busy at once. Accepts borrowed or
    /// owned requests alike.
    pub(crate) fn send_many<R: Borrow<Request>>(
        &mut self,
        requests: &[R],
    ) -> Result<(), ClientError> {
        self.buf.clear();
        let budget = self.deadline_budget;
        for request in requests {
            put_frame(&mut self.buf, |buf| {
                encode_wrapped(buf, budget, request.borrow())
            });
        }
        let mut w = &self.stream;
        w.write_all(self.buf.as_slice())?;
        w.flush()?;
        Ok(())
    }

    /// The read half of [`call_many`](Self::call_many): read `count`
    /// responses in request order.
    pub(crate) fn recv_many(&mut self, count: usize) -> Result<Vec<Response>, ClientError> {
        let mut responses = Vec::with_capacity(count);
        for _ in 0..count {
            responses.push(self.read_response()?);
        }
        Ok(responses)
    }

    /// Liveness probe; returns `(queue_depth, draining)`.
    pub fn health(&mut self) -> Result<(u32, bool), ClientError> {
        match self.call(&Request::Health)? {
            Response::Health {
                queue_depth,
                draining,
            } => Ok((queue_depth, draining)),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::UnexpectedResponse("Health")),
        }
    }

    /// A full leader snapshot as `(repl_epoch, payload)`; every delta with
    /// `seq <= repl_epoch` is already folded into the payload.
    ///
    /// The frame is read into one owned buffer and the payload sliced out
    /// of it zero-copy (`Response::decode_frame`) — a multi-megabyte
    /// bootstrap costs one allocation, not frame-plus-payload copies.
    pub fn repl_snapshot(&mut self) -> Result<(u64, Bytes), ClientError> {
        self.buf.clear();
        encode_wrapped(&mut self.buf, self.deadline_budget, &Request::ReplSnapshot);
        let mut w = &self.stream;
        write_frame_vectored(&mut w, self.buf.as_slice())?;
        let frame = match self.reader.read_frame_owned(
            &self.stream,
            MAX_FRAME_LEN,
            self.read_timeout,
            self.read_timeout,
        )? {
            OwnedFrameEvent::Frame(frame) => frame,
            OwnedFrameEvent::Eof => return Err(ClientError::ConnectionClosed),
            OwnedFrameEvent::TooLarge { declared } => {
                return Err(ClientError::Wire(WireError::Oversized(declared)))
            }
            OwnedFrameEvent::TimedOut => {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "snapshot frame stalled mid-read",
                )))
            }
        };
        match Response::decode_frame(&frame).map_err(ClientError::Wire)? {
            Response::ReplSnapshot {
                repl_epoch,
                payload,
            } => Ok((repl_epoch, payload)),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::UnexpectedResponse("ReplSnapshot")),
        }
    }

    /// One pipelined replication round: `ReplSubscribe` and
    /// `ReplDeltas { from_epoch }` go out in a single write and both
    /// responses come back in order on the same connection — the follower
    /// learns the leader's log state *and* picks up new deltas in one
    /// network round trip instead of two.
    pub fn repl_sync(
        &mut self,
        from_epoch: u64,
    ) -> Result<(ReplLogState, DeltaBatch), ClientError> {
        let responses =
            self.call_many(&[Request::ReplSubscribe, Request::ReplDeltas { from_epoch }])?;
        let mut responses = responses.into_iter();
        let state = match responses.next() {
            Some(Response::ReplState {
                leader_epoch,
                oldest_retained,
                retention,
            }) => ReplLogState {
                leader_epoch,
                oldest_retained,
                retention,
            },
            Some(Response::Error { code, message }) => {
                return Err(ClientError::Server { code, message })
            }
            _ => return Err(ClientError::UnexpectedResponse("ReplState")),
        };
        let batch = match responses.next() {
            Some(Response::ReplDeltas {
                leader_epoch,
                lagged,
                deltas,
            }) => DeltaBatch {
                leader_epoch,
                lagged,
                deltas,
            },
            Some(Response::Error { code, message }) => {
                return Err(ClientError::Server { code, message })
            }
            _ => return Err(ClientError::UnexpectedResponse("ReplDeltas")),
        };
        Ok((state, batch))
    }
}

impl Transport for FeatureClient {
    fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        FeatureClient::call(self, request)
    }

    fn call_many(&mut self, requests: &[Request]) -> Result<Vec<Response>, ClientError> {
        FeatureClient::call_many(self, requests)
    }
}
