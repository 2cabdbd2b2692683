//! The TCP feature-serving server.
//!
//! Architecture (std threads only — no async runtime):
//!
//! ```text
//!   acceptor ──spawns──▶ connection reader threads (one per socket):
//!       │                  frame in ─▶ reserve seq in the outbox ─▶ admit
//!       │                        │ submit (admission: bounded, non-blocking)
//!       │                        ▼
//!       │               bounded crossbeam channel
//!       │                        │ recv + opportunistic drain
//!       │                        ▼
//!       └──────────────▶ worker pool (batch coalescing, FeatureServer /
//!                                     EmbeddingStore, metrics; feature
//!                                     reads encoded store ─▶ pooled frame)
//!                                │ deposit reply in slot `seq`; after the
//!                                │ drain's reads and its write group,
//!                                │ flush every connection it answered
//!                                ▼
//!                        per-connection outbox: frame every ready reply
//!                        from the head ─▶ one non-blocking send per run
//!                                │ only if the socket would block
//!                                ▼
//!                        stall flusher (spawned at the first stall):
//!                        finishes the run with blocking writes
//! ```
//!
//! Connection threads never execute store code. Each connection is a
//! *pipeline*: the reader keeps admitting frames (up to
//! [`ServeConfig::pipeline_depth`] in flight) and responses leave **in
//! request order** — every request takes the next sequence number of its
//! connection's outbox, and replies leave from the head of the outbox
//! only, so the wire needs no correlation IDs (DESIGN §2.16). A worker
//! that completes the head reply sends it itself: a depth-1 request wakes
//! one server thread besides its reader. Workers claim a job plus whatever
//! else is queued, coalesce compatible lookups into one batch serve, and
//! answer the drain's writes as one fenced group commit
//! ([`WriteState::put_online_many`]). A worker never blocks on a peer's
//! socket: a send that would block hands the rest of its run to the
//! connection's stall flusher. Shutdown is graceful: admission flips to
//! draining, open sockets are shut down, and workers finish every admitted
//! job before exiting.

use crate::admission::{AdmissionController, AdmitReject};
use crate::batch::{self, Job, Reply};
use crate::catalog::{CatalogError, IndexCatalog, SearchOutcome};
use crate::codec::{put_frame, FrameEvent, FramePool, FrameReader};
use crate::metrics::ServingMetrics;
use crate::protocol::{ErrorCode, Request, Response, RowEncoder, WireDelta, WireVector};
use crate::repl::{check_snapshot_len, ReplProvider};
use bytes::{BufMut, BytesMut};
use crossbeam::channel::{bounded, Receiver};
use fstore_common::DeltaQuery;
use fstore_common::{FsError, Timestamp, Value};
use fstore_core::{stale_error, FeatureServer, StaleRefused};
use fstore_embed::{EmbeddingDb, EmbeddingStore};
use fstore_storage::FeatureId;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Condvar, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (see [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads executing requests.
    pub workers: usize,
    /// Bounded queue depth between connections and workers — the admission
    /// control limit. Submissions beyond this are shed as `Overloaded`.
    pub queue_depth: usize,
    /// Most jobs one worker claims per drain (batch ceiling).
    pub max_batch: usize,
    /// Artificial per-claim delay — fault injection for load-shedding
    /// tests and experiments (feature `testing`).
    #[cfg(feature = "testing")]
    pub handler_delay: Option<std::time::Duration>,
    /// Once a request frame has *started*, the rest of it must arrive
    /// within this bound or the connection is cut — a slow-loris peer can
    /// hold only its own connection thread, never a worker. Waiting for a
    /// frame to start (an idle keep-alive connection) is unbounded.
    pub frame_timeout: Option<std::time::Duration>,
    /// Bound on the blocking writes of a connection's stall flusher, the
    /// only thread that waits on a peer's socket (workers send without
    /// blocking): a peer that stops reading its responses has its
    /// connection cut after this long instead of holding it forever.
    pub write_timeout: Option<std::time::Duration>,
    /// Per-request frame ceiling; frames declaring more are refused with
    /// a typed `FrameTooLarge` error before any payload is read. Clamped
    /// by the protocol-wide [`crate::protocol::MAX_FRAME_LEN`].
    pub max_request_frame: usize,
    /// Most requests one connection may have in flight (reserved in its
    /// outbox but not yet taken for sending). The connection reader
    /// stalls at the ceiling, which backpressures a pipelining client
    /// through TCP itself.
    pub pipeline_depth: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 256,
            max_batch: 32,
            #[cfg(feature = "testing")]
            handler_delay: None,
            frame_timeout: Some(std::time::Duration::from_secs(10)),
            write_timeout: Some(std::time::Duration::from_secs(10)),
            max_request_frame: crate::protocol::MAX_FRAME_LEN,
            pipeline_depth: 128,
        }
    }
}

impl ServeConfig {
    /// A validated builder seeded with the defaults. Unlike struct-literal
    /// construction, the builder refuses configurations that would
    /// silently degenerate (zero workers, zero queue depth, zero batch).
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            config: ServeConfig::default(),
        }
    }
}

/// Builder for [`ServeConfig`]; see [`ServeConfig::builder`].
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    config: ServeConfig,
}

impl ServeConfigBuilder {
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.config.addr = addr.into();
        self
    }

    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    pub fn queue_depth(mut self, queue_depth: usize) -> Self {
        self.config.queue_depth = queue_depth;
        self
    }

    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.config.max_batch = max_batch;
        self
    }

    /// Sleep this long before every drain (feature `testing`).
    #[cfg(feature = "testing")]
    pub fn handler_delay(mut self, delay: std::time::Duration) -> Self {
        self.config.handler_delay = Some(delay);
        self
    }

    /// Bound on finishing a request frame once it has started (`None`
    /// disables the bound — not recommended outside loopback tests).
    pub fn frame_timeout(mut self, timeout: Option<std::time::Duration>) -> Self {
        self.config.frame_timeout = timeout;
        self
    }

    /// Socket write timeout per connection (`None` disables it).
    pub fn write_timeout(mut self, timeout: Option<std::time::Duration>) -> Self {
        self.config.write_timeout = timeout;
        self
    }

    /// Per-request frame ceiling in bytes.
    pub fn max_request_frame(mut self, bytes: usize) -> Self {
        self.config.max_request_frame = bytes;
        self
    }

    /// Most requests one connection may have in flight at once.
    pub fn pipeline_depth(mut self, depth: usize) -> Self {
        self.config.pipeline_depth = depth;
        self
    }

    /// Validate and produce the config. Zero workers, zero queue depth,
    /// and zero max batch are each rejected: a server built from them
    /// would deadlock (no workers), shed everything (no queue), or stall
    /// its drain loop (no batch budget).
    pub fn build(self) -> fstore_common::Result<ServeConfig> {
        if self.config.workers == 0 {
            return Err(FsError::InvalidArgument(
                "serve config needs at least one worker".into(),
            ));
        }
        if self.config.queue_depth == 0 {
            return Err(FsError::InvalidArgument(
                "serve config needs a positive queue depth".into(),
            ));
        }
        if self.config.max_batch == 0 {
            return Err(FsError::InvalidArgument(
                "serve config needs a positive max batch".into(),
            ));
        }
        if self.config.max_request_frame == 0
            || self.config.max_request_frame > crate::protocol::MAX_FRAME_LEN
        {
            return Err(FsError::InvalidArgument(format!(
                "max_request_frame must be in 1..={}",
                crate::protocol::MAX_FRAME_LEN
            )));
        }
        if self.config.pipeline_depth == 0 {
            return Err(FsError::InvalidArgument(
                "serve config needs a positive pipeline depth".into(),
            ));
        }
        Ok(self.config)
    }
}

/// The clock requests are served at (the workspace simulates time; wall
/// clocks would make freshness nondeterministic).
pub type Clock = Arc<dyn Fn() -> Timestamp + Send + Sync>;

/// A clock pinned to one instant.
pub fn fixed_clock(now: Timestamp) -> Clock {
    Arc::new(move || now)
}

/// A clock backed by a shared atomic; advance it from outside the server.
pub fn atomic_clock(millis: Arc<AtomicI64>) -> Clock {
    Arc::new(move || Timestamp::millis(millis.load(Ordering::Acquire)))
}

/// One entity's feature values on their way into the online store,
/// borrowed from whoever holds them (a `PutOnline` request, a caller's
/// slice of `(&str, Value)` pairs).
#[derive(Debug)]
pub struct OnlineWrite<'a, S = String> {
    pub group: &'a str,
    pub entity: &'a str,
    pub values: &'a [(S, Value)],
}

// Borrows only, whatever the name type: copyable without `S: Copy`.
impl<S> Clone for OnlineWrite<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S> Copy for OnlineWrite<'_, S> {}

/// The engine-side sink for fenced online writes. A replication leader
/// implements this by applying the rows, appending them to its
/// publication log, and — when durability is attached — returning only
/// after the group's WAL commit point, so a `PutAck` always names a
/// committed write.
pub trait WriteProvider: Send + Sync {
    /// Apply a group of writes in order and return, per write, the
    /// replication sequence number it was published at. A single write is
    /// a group of one.
    fn put_online_many(
        &self,
        writes: &[OnlineWrite<'_>],
        now: Timestamp,
    ) -> Vec<fstore_common::Result<u64>>;
}

/// The fenced write a `PutOnline` request carries: the leader term it is
/// stamped with, and its row.
fn fenced_write(request: &Request) -> Option<(u64, OnlineWrite<'_>)> {
    match request {
        Request::PutOnline {
            group,
            entity,
            values,
            term,
        } => Some((
            *term,
            OnlineWrite {
                group,
                entity,
                values,
            },
        )),
        _ => None,
    }
}

/// What a promotion hook does: turn this node into a write leader (stop
/// follower sync, wrap the replicated components in a fresh leader) and
/// hand back the provider writes should flow through.
pub type PromoteHook =
    Arc<dyn Fn(u64) -> fstore_common::Result<Arc<dyn WriteProvider>> + Send + Sync>;

struct WriteInner {
    /// The leader term this node currently operates under. 0 = never
    /// promoted (a read replica or a plain read-only server).
    term: u64,
    /// Present iff this node is the write leader at `term`.
    provider: Option<Arc<dyn WriteProvider>>,
}

/// A node's fenced write state: its leader term plus the provider writes
/// flow through. One mutex serializes every write, promotion, and fence,
/// so term checks and row application are atomic — a concurrent demotion
/// can never interleave between "term matched" and "row applied", which
/// is exactly the window a zombie acknowledgment would need.
pub struct WriteState {
    inner: Mutex<WriteInner>,
    promote_hook: Mutex<Option<PromoteHook>>,
}

impl WriteState {
    fn new() -> Arc<WriteState> {
        Arc::new(WriteState {
            inner: Mutex::new(WriteInner {
                term: 0,
                provider: None,
            }),
            promote_hook: Mutex::new(None),
        })
    }

    fn not_leader(current: u64) -> Response {
        // Fixed message shape: clients parse the current term back out
        // into the typed `ClientError::NotLeader`.
        Response::error(ErrorCode::NotLeader, format!("current_term={current}"))
    }

    /// Install a write provider at `term` (startup wiring for a node that
    /// begins life as the leader).
    pub fn install(&self, provider: Arc<dyn WriteProvider>, term: u64) {
        let mut inner = self.inner.lock();
        inner.provider = Some(provider);
        inner.term = term;
    }

    /// Register the hook [`Request::Promote`] runs to turn this node into
    /// a leader.
    pub fn set_promote_hook(&self, hook: PromoteHook) {
        *self.promote_hook.lock() = Some(hook);
    }

    /// The node's current leader term (0 = never promoted).
    pub fn current_term(&self) -> u64 {
        self.inner.lock().term
    }

    /// Whether this node currently holds a write provider.
    pub fn is_leader(&self) -> bool {
        self.inner.lock().provider.is_some()
    }

    /// Handle a group of fenced writes, each stamped with its term, and
    /// answer each in order. A write applies only when its term equals the
    /// node's current term and a provider is installed; a *newer* term
    /// proves this node was superseded by a promotion it never heard
    /// about, so it self-fences (drops its provider) before refusing.
    ///
    /// The whole group holds the lock once. Accepted writes collect into a
    /// run that the provider commits as one group; a fence met mid-group
    /// first commits the run accepted so far, under the old term, so every
    /// answer equals what running the writes one at a time would give.
    pub fn put_online_many(
        &self,
        writes: &[(u64, OnlineWrite<'_>)],
        now: Timestamp,
    ) -> Vec<Response> {
        let mut inner = self.inner.lock();
        let mut answers: Vec<Option<Response>> = Vec::with_capacity(writes.len());
        let mut run: Vec<OnlineWrite<'_>> = Vec::new();
        for &(term, write) in writes {
            if term > inner.term {
                // Someone holds a map from a later promotion: this node's
                // leadership (if any) is over. Commit what was accepted
                // before the news, then fence, then refuse.
                Self::commit(&inner, &mut run, &mut answers, now);
                inner.term = term;
                inner.provider = None;
            }
            if inner.provider.is_some() && term == inner.term {
                run.push(write);
                answers.push(None);
            } else {
                answers.push(Some(Self::not_leader(inner.term)));
            }
        }
        Self::commit(&inner, &mut run, &mut answers, now);
        answers
            .into_iter()
            .map(|answer| answer.expect("every accepted write was committed"))
            .collect()
    }

    /// Commit the accepted `run` through the provider and fill in the
    /// answers it left open, in order. Applying under the lock keeps "term
    /// matched" and "row applied" one atomic step; the provider returns
    /// only after the group is in the WAL (when durability is attached),
    /// so every ack names a committed write.
    fn commit(
        inner: &WriteInner,
        run: &mut Vec<OnlineWrite<'_>>,
        answers: &mut [Option<Response>],
        now: Timestamp,
    ) {
        if run.is_empty() {
            return;
        }
        let provider = inner
            .provider
            .as_ref()
            .expect("a run only forms under an installed provider");
        let results = provider.put_online_many(run, now);
        run.clear();
        let open = answers.iter_mut().filter(|a| a.is_none());
        for (answer, result) in open.zip(results) {
            *answer = Some(match result {
                Ok(epoch) => Response::PutAck {
                    epoch,
                    term: inner.term,
                },
                Err(e) => Response::error(
                    ErrorCode::Internal,
                    format!("write not committed (retry may duplicate): {e}"),
                ),
            });
        }
    }

    /// Handle [`Request::Promote`]: become (or remain) the leader at
    /// `term`. Idempotent for a node already leading at `term` or above;
    /// a stale term is refused so a delayed promote frame can never
    /// regress leadership.
    pub fn promote(&self, term: u64) -> Response {
        let mut inner = self.inner.lock();
        if term < inner.term {
            return Self::not_leader(inner.term);
        }
        if inner.provider.is_some() {
            inner.term = term;
            return Response::PutAck {
                epoch: 0,
                term: inner.term,
            };
        }
        let hook = self.promote_hook.lock().clone();
        let Some(hook) = hook else {
            return Response::error(
                ErrorCode::BadRequest,
                "this node has no promotion hook (not a promotable replica)",
            );
        };
        match hook(term) {
            Ok(provider) => {
                inner.provider = Some(provider);
                inner.term = term;
                Response::PutAck {
                    epoch: 0,
                    term: inner.term,
                }
            }
            Err(e) => Response::error(ErrorCode::Internal, format!("promotion failed: {e}")),
        }
    }

    /// Handle [`Request::Demote`]: fence this node at `term` — drop any
    /// provider and refuse every write below the fenced term from now on.
    /// A demote carrying a term *below* the node's current one is stale
    /// (it predates a newer promotion) and is refused without touching
    /// the provider.
    pub fn demote(&self, term: u64) -> Response {
        let mut inner = self.inner.lock();
        if term < inner.term {
            return Self::not_leader(inner.term);
        }
        inner.term = term;
        inner.provider = None;
        Response::PutAck {
            epoch: 0,
            term: inner.term,
        }
    }
}

/// The per-response constants of a feature read.
#[derive(Debug, Default)]
struct ReadContext {
    ids: Vec<Option<FeatureId>>,
    now: Timestamp,
    epoch: u64,
}

/// A worker's reusable state for [`ServeEngine::read_into`]: the resolved
/// request and the row encoder's scratch. It grows to the widest request
/// seen and is then reused, which is what makes the read path
/// allocation-free at steady state.
#[derive(Debug, Default)]
pub struct ReadScratch {
    read: ReadContext,
    rows: RowEncoder,
}

/// Everything a worker needs to answer requests.
pub struct ServeEngine {
    server: FeatureServer,
    embeddings: Option<EmbeddingDb>,
    indexes: Option<Arc<IndexCatalog>>,
    repl: Option<Arc<dyn ReplProvider>>,
    writes: Arc<WriteState>,
    clock: Clock,
}

impl ServeEngine {
    pub fn new(server: FeatureServer, clock: Clock) -> Self {
        ServeEngine {
            server,
            embeddings: None,
            indexes: None,
            repl: None,
            writes: WriteState::new(),
            clock,
        }
    }

    /// Attach an embedding catalog for `GetEmbedding`. Each read resolves
    /// one immutable snapshot — a republish never blocks it — and the
    /// response is stamped with that snapshot's epoch.
    pub fn with_embeddings(mut self, embeddings: EmbeddingDb) -> Self {
        self.embeddings = Some(embeddings);
        self
    }

    /// Convenience for a catalog the server owns outright.
    pub fn with_embedding_catalog(self, catalog: EmbeddingStore) -> Self {
        self.with_embeddings(EmbeddingDb::from_store(catalog))
    }

    /// Attach an ANN index catalog for the `SearchNearest` endpoints; also
    /// attaches the catalog's embedding store for `GetEmbedding` if none
    /// was set yet.
    pub fn with_index_catalog(mut self, catalog: Arc<IndexCatalog>) -> Self {
        if self.embeddings.is_none() {
            self.embeddings = Some(catalog.store());
        }
        self.indexes = Some(catalog);
        self
    }

    /// The attached index catalog, if any.
    pub fn index_catalog(&self) -> Option<&Arc<IndexCatalog>> {
        self.indexes.as_ref()
    }

    /// Make this server a replication leader: the provider answers the
    /// `ReplSubscribe` / `ReplSnapshot` / `ReplDeltas` endpoints. Without
    /// one, those requests get a typed `BadRequest` error.
    pub fn with_replication(mut self, provider: Arc<dyn ReplProvider>) -> Self {
        self.repl = Some(provider);
        self
    }

    /// Make this server the write leader at `term`: `PutOnline` requests
    /// carrying exactly that term flow through `provider`; every other
    /// term is refused with [`ErrorCode::NotLeader`].
    pub fn with_write_provider(self, provider: Arc<dyn WriteProvider>, term: u64) -> Self {
        self.writes.install(provider, term);
        self
    }

    /// Make this server promotable: [`Request::Promote`] runs `hook` to
    /// turn the node into a write leader in place (the serving threads
    /// keep running throughout).
    pub fn with_promote_hook(self, hook: PromoteHook) -> Self {
        self.writes.set_promote_hook(hook);
        self
    }

    /// The node's fenced write state — shared with the running server, so
    /// a harness (or the control plane, over the wire) can observe terms
    /// and leadership after `start()` consumed the engine.
    pub fn write_state(&self) -> Arc<WriteState> {
        Arc::clone(&self.writes)
    }

    pub fn now(&self) -> Timestamp {
        (self.clock)()
    }

    /// Fix what every row of one read response shares — the feature ids,
    /// the clock and the epoch are each resolved exactly once, so a
    /// response (single, wire batch or coalesced batch) is internally
    /// consistent.
    fn begin_read(&self, features: &[String], read: &mut ReadContext) {
        self.server.resolve_into(features, &mut read.ids);
        read.now = self.now();
        read.epoch = self.server.current_epoch().as_u64();
    }

    /// One row as a typed [`WireVector`] (the vector is its own sink).
    fn wire_vector(
        &self,
        group: &str,
        entity: &str,
        features: &[String],
        read: &ReadContext,
    ) -> Result<WireVector, FsError> {
        let mut vector = WireVector {
            entity: entity.to_string(),
            features: features.to_vec(),
            values: Vec::with_capacity(features.len()),
            ages_ms: Vec::with_capacity(features.len()),
            stale: Vec::new(),
            epoch: read.epoch,
        };
        match self
            .server
            .read_row(group, entity, &read.ids, read.now, &mut vector)
        {
            Ok(()) => Ok(vector),
            Err(StaleRefused) => Err(stale_error(entity, vector.stale.iter().map(String::as_str))),
        }
    }

    /// One row encoded straight from the store into `buf`. On a refusal
    /// `buf` holds a partial row for the caller to truncate.
    fn put_row(
        &self,
        group: &str,
        entity: &str,
        features: &[String],
        scratch: &mut ReadScratch,
        buf: &mut BytesMut,
    ) -> Result<(), FsError> {
        let ReadScratch { read, rows } = scratch;
        rows.put_row(buf, entity, read.epoch, features, |row| {
            self.server
                .read_row(group, entity, &read.ids, read.now, row)
        })
        .map_err(|StaleRefused| stale_error(entity, rows.stale_names(features)))
    }

    /// Answer a feature read as encoded response bytes appended to `buf`,
    /// in one pass from the store's shard memory to the frame: no
    /// `FeatureVector`, no `WireVector`, and — once `scratch` has warmed
    /// up — no allocation. The bytes equal
    /// `self.handle(request, ..).encode_into(buf)` exactly. Returns whether
    /// the answer is a success (`false` = an error response was written).
    /// Requests other than `GetFeatures`/`GetFeaturesBatch` take the typed
    /// path.
    pub fn read_into(
        &self,
        request: &Request,
        scratch: &mut ReadScratch,
        buf: &mut BytesMut,
    ) -> bool {
        match request {
            Request::GetFeatures {
                group,
                entity,
                features,
            } => {
                self.begin_read_into(features, scratch);
                self.put_features(group, entity, features, scratch, buf)
            }
            Request::GetFeaturesBatch {
                group,
                entities,
                features,
            } => {
                self.begin_read_into(features, scratch);
                let start = buf.len();
                buf.put_u8(2);
                buf.put_u32(entities.len() as u32);
                let written = entities
                    .iter()
                    .try_for_each(|entity| self.put_row(group, entity, features, scratch, buf));
                rows_or_error(buf, start, written)
            }
            other => {
                let response = self.handle(other, 0, false);
                response.encode_into(buf);
                !matches!(response, Response::Error { .. })
            }
        }
    }

    /// One whole `Features` response for a read already begun in
    /// `scratch` — what a single `GetFeatures` and each member of a
    /// coalesced batch both are.
    fn put_features(
        &self,
        group: &str,
        entity: &str,
        features: &[String],
        scratch: &mut ReadScratch,
        buf: &mut BytesMut,
    ) -> bool {
        let start = buf.len();
        buf.put_u8(1);
        let written = self.put_row(group, entity, features, scratch, buf);
        rows_or_error(buf, start, written)
    }

    /// Start a read response in a worker's reusable scratch.
    fn begin_read_into(&self, features: &[String], scratch: &mut ReadScratch) {
        self.begin_read(features, &mut scratch.read);
        scratch.rows.begin(features);
    }

    /// Answer one request. Total: every failure becomes a wire error.
    pub fn handle(&self, request: &Request, queue_depth: u32, draining: bool) -> Response {
        match request {
            Request::Health => Response::Health {
                queue_depth,
                draining,
            },
            Request::GetFeatures {
                group,
                entity,
                features,
            } => {
                let mut read = ReadContext::default();
                self.begin_read(features, &mut read);
                match self.wire_vector(group, entity, features, &read) {
                    Ok(v) => Response::Features(v),
                    Err(e) => fs_error_response(&e),
                }
            }
            Request::GetFeaturesBatch {
                group,
                entities,
                features,
            } => {
                let mut read = ReadContext::default();
                self.begin_read(features, &mut read);
                match entities
                    .iter()
                    .map(|entity| self.wire_vector(group, entity, features, &read))
                    .collect()
                {
                    Ok(vs) => Response::FeaturesBatch(vs),
                    Err(e) => fs_error_response(&e),
                }
            }
            Request::GetEmbedding { table, key } => {
                let Some(embeddings) = &self.embeddings else {
                    return Response::error(
                        ErrorCode::NotFound,
                        "no embedding catalog attached to this server",
                    );
                };
                // One consistent (snapshot, epoch) pair answers the whole
                // request; a concurrent republish cannot tear it.
                let view = embeddings.read();
                match view.value.resolve(table) {
                    // `fetch` is zero-copy on a resident table (the row is
                    // a shared block) and faults through the tier cache on
                    // a spilled one — either way the response aliases the
                    // stored bytes instead of copying them per request.
                    Ok(version) => match version.table.fetch(key) {
                        Ok(Some(vector)) => Response::Embedding {
                            dim: version.table.dim() as u32,
                            version: version.version,
                            epoch: view.epoch.as_u64(),
                            vector,
                        },
                        Ok(None) => Response::error(
                            ErrorCode::NotFound,
                            format!(
                                "key `{key}` not in embedding `{}`",
                                version.qualified_name()
                            ),
                        ),
                        Err(e) => fs_error_response(&e),
                    },
                    Err(e) => fs_error_response(&e),
                }
            }
            Request::SearchNearest {
                table,
                query,
                k,
                options,
            } => {
                let Some(catalog) = &self.indexes else {
                    return no_index_catalog();
                };
                search_response(catalog.search(table, query, *k as usize, &options.to_params()))
            }
            Request::SearchNearestByKey {
                table,
                key,
                k,
                options,
            } => {
                let Some(catalog) = &self.indexes else {
                    return no_index_catalog();
                };
                search_response(catalog.search_by_key(
                    table,
                    key,
                    *k as usize,
                    &options.to_params(),
                ))
            }
            Request::ReplSubscribe => {
                let Some(repl) = &self.repl else {
                    return no_replication();
                };
                let state = repl.log_state();
                Response::ReplState {
                    leader_epoch: state.leader_epoch,
                    oldest_retained: state.oldest_retained,
                    retention: state.retention,
                }
            }
            Request::ReplSnapshot => {
                let Some(repl) = &self.repl else {
                    return no_replication();
                };
                match repl.full_snapshot().and_then(|(epoch, payload)| {
                    check_snapshot_len(&payload).map(|()| (epoch, payload))
                }) {
                    Ok((repl_epoch, payload)) => Response::ReplSnapshot {
                        repl_epoch,
                        payload: payload.into(),
                    },
                    Err(e) => Response::error(ErrorCode::Internal, e.to_string()),
                }
            }
            // Workers never see the envelope (the connection thread
            // unwraps it), but `handle` stays total for direct callers:
            // the budget is meaningless without an admission timestamp,
            // so execute the inner request.
            Request::WithDeadline { inner, .. } => self.handle(inner, queue_depth, draining),
            Request::ReplDeltas { from_epoch } => {
                let Some(repl) = &self.repl else {
                    return no_replication();
                };
                let (leader_epoch, query) = repl.deltas_since(*from_epoch);
                match query {
                    DeltaQuery::Deltas(records) => Response::ReplDeltas {
                        leader_epoch,
                        lagged: false,
                        deltas: records.iter().map(WireDelta::from).collect(),
                    },
                    // The follower fell past retention; an empty delta set
                    // with `lagged` raised tells it to re-bootstrap from a
                    // full snapshot.
                    DeltaQuery::Lagged { .. } => Response::ReplDeltas {
                        leader_epoch,
                        lagged: true,
                        deltas: Vec::new(),
                    },
                }
            }
            Request::PutOnline { .. } => {
                let write = fenced_write(request).expect("the arm matched a PutOnline");
                let mut answers = self.writes.put_online_many(&[write], self.now());
                answers.pop().expect("one answer per write")
            }
            Request::Promote { shard: _, term } => self.writes.promote(*term),
            Request::Demote { shard: _, term } => self.writes.demote(*term),
        }
    }
}

fn no_replication() -> Response {
    Response::error(
        ErrorCode::BadRequest,
        "this server is not a replication leader",
    )
}

fn no_index_catalog() -> Response {
    Response::error(
        ErrorCode::IndexNotReady,
        "no index catalog attached to this server",
    )
}

/// Map a catalog search result onto the wire.
fn search_response(result: Result<SearchOutcome, CatalogError>) -> Response {
    match result {
        Ok(outcome) => Response::Neighbors {
            table_version: outcome.table_version,
            index_generation: outcome.index_generation,
            hits: outcome.hits,
        },
        Err(e) => {
            let code = match &e {
                CatalogError::IndexNotReady { .. } => ErrorCode::IndexNotReady,
                CatalogError::DimensionMismatch { .. } => ErrorCode::DimensionMismatch,
                CatalogError::KeyNotFound { .. } => ErrorCode::NotFound,
                CatalogError::Failed(_) => ErrorCode::BadRequest,
            };
            Response::error(code, e.to_string())
        }
    }
}

/// Close a directly encoded read response: on a refusal, replace whatever
/// rows were written since `start` with the error response.
fn rows_or_error(buf: &mut BytesMut, start: usize, written: Result<(), FsError>) -> bool {
    match written {
        Ok(()) => true,
        Err(e) => {
            buf.truncate(start);
            fs_error_response(&e).encode_into(buf);
            false
        }
    }
}

/// Map a store error onto a wire error code.
fn fs_error_response(e: &FsError) -> Response {
    let code = match e {
        FsError::NotFound { .. } => ErrorCode::NotFound,
        FsError::InvalidArgument(_) => ErrorCode::BadRequest,
        // The serving path's only Storage error is the FailOnStale refusal.
        FsError::Storage(_) => ErrorCode::Stale,
        _ => ErrorCode::Internal,
    };
    Response::error(code, e.to_string())
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] aborts ungracefully (threads detach).
pub struct ServerHandle {
    addr: SocketAddr,
    metrics: Arc<ServingMetrics>,
    admission: Option<AdmissionController>,
    draining: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
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

    /// Jobs admitted but not yet claimed by a worker.
    pub fn queue_depth(&self) -> usize {
        self.admission
            .as_ref()
            .map_or(0, AdmissionController::queue_depth)
    }

    /// Graceful shutdown: refuse new work, finish every admitted job, then
    /// join the acceptor, all connection threads, and all workers.
    pub fn shutdown(mut self) {
        self.draining.store(true, Ordering::Release);
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            acceptor.join().expect("acceptor thread panicked");
        }
        // Shut sockets down so connection threads fall out of read_frame.
        for (_, conn) in self.conns.lock().drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let conn_threads: Vec<_> = std::mem::take(&mut *self.conn_threads.lock());
        for t in conn_threads {
            t.join().expect("connection thread panicked");
        }
        // Last senders go away here; workers drain the queue and exit.
        drop(self.admission.take());
        for w in self.workers.drain(..) {
            w.join().expect("worker thread panicked");
        }
    }
}

/// Bind, spawn the acceptor and worker pool, and return a handle.
pub fn start(engine: ServeEngine, config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let metrics = Arc::new(ServingMetrics::new());
    let draining = Arc::new(AtomicBool::new(false));
    let (tx, rx) = bounded::<Job>(config.queue_depth.max(1));
    let admission = AdmissionController::new(tx, Arc::clone(&draining), Arc::clone(&metrics));
    let engine = Arc::new(engine);
    if let Some(catalog) = engine.index_catalog() {
        catalog.attach_metrics(Arc::clone(&metrics));
    }

    let workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
        .map(|i| {
            let rx = rx.clone();
            let engine = Arc::clone(&engine);
            let metrics = Arc::clone(&metrics);
            let draining = Arc::clone(&draining);
            let config = config.clone();
            std::thread::Builder::new()
                .name(format!("fstore-serve-worker-{i}"))
                .spawn(move || {
                    Worker {
                        rx: &rx,
                        engine: &engine,
                        metrics: &metrics,
                        draining: &draining,
                        pool: metrics.frame_pool(),
                        scratch: ReadScratch::default(),
                        touched: Vec::new(),
                    }
                    .run(&config)
                })
                .expect("spawn worker")
        })
        .collect();

    let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let conns: Arc<Mutex<Vec<(u64, TcpStream)>>> = Arc::new(Mutex::new(Vec::new()));

    let acceptor = {
        let draining = Arc::clone(&draining);
        let admission = admission.clone();
        let conn_threads = Arc::clone(&conn_threads);
        let conns = Arc::clone(&conns);
        let config = config.clone();
        std::thread::Builder::new()
            .name("fstore-serve-acceptor".to_string())
            .spawn(move || {
                let mut next_conn_id: u64 = 0;
                for stream in listener.incoming() {
                    if draining.load(Ordering::Acquire) {
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
                    let admission = admission.clone();
                    let draining = Arc::clone(&draining);
                    let conns = Arc::clone(&conns);
                    let config = config.clone();
                    let handle = std::thread::Builder::new()
                        .name("fstore-serve-conn".to_string())
                        .spawn(move || {
                            connection_loop(stream, &admission, &draining, &config);
                            // Deregister so the clone doesn't hold the fd
                            // open after the connection is done — the peer
                            // must see EOF, and dead sockets must not pile
                            // up until shutdown.
                            conns.lock().retain(|(id, _)| *id != conn_id);
                        })
                        .expect("spawn connection thread");
                    conn_threads.lock().push(handle);
                }
            })
            .expect("spawn acceptor")
    };

    Ok(ServerHandle {
        addr,
        metrics,
        admission: Some(admission),
        draining,
        acceptor: Some(acceptor),
        workers,
        conn_threads,
        conns,
    })
}

/// Per-socket reader: frame in, reserve the request's sequence number in
/// the connection's [`Outbox`], admit. The outbox holds at most
/// [`ServeConfig::pipeline_depth`] replies not yet taken for sending, and
/// `reserve` waits at that ceiling, so a client pumping requests faster
/// than workers answer them is backpressured through TCP rather than
/// queuing without limit. Refusals decided here (bad frames, admission
/// rejects) go into their own slot and are sent from here.
fn connection_loop(
    stream: TcpStream,
    admission: &AdmissionController,
    draining: &AtomicBool,
    config: &ServeConfig,
) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let _ = write_half.set_write_timeout(config.write_timeout);
    let outbox = Outbox::new(
        Box::new(write_half),
        admission.shared_metrics(),
        config.pipeline_depth,
    );
    let metrics = admission.metrics();
    let mut reader = FrameReader::new();
    let refuse = |seq: u64, response: Response| {
        outbox.deposit(seq, Reply::Typed(response));
        outbox.flush();
    };
    loop {
        if draining.load(Ordering::Acquire) {
            break;
        }
        // Idle bound: none (a keep-alive connection may sit quiet forever);
        // frame bound: once a frame starts, it must finish or the peer is
        // a slow-loris and the connection is cut.
        let decoded = match reader.read_frame(
            &stream,
            config.max_request_frame,
            None,
            config.frame_timeout,
        ) {
            Ok(FrameEvent::Frame(payload)) => Request::decode(payload),
            Ok(FrameEvent::TooLarge { declared }) => {
                // Refuse with a typed error, then close: the payload was
                // never read, so the stream position is unrecoverable. The
                // refusal still takes its place in the outbox, behind every
                // response already in flight.
                metrics.record_frame_too_large();
                if let Some(ticket) = outbox.reserve() {
                    refuse(
                        ticket.disarm(),
                        Response::error(
                            ErrorCode::FrameTooLarge,
                            format!(
                                "request frame of {declared} bytes exceeds the {} byte ceiling",
                                config.max_request_frame
                            ),
                        ),
                    );
                }
                break;
            }
            Ok(FrameEvent::TimedOut) => {
                // The peer started a frame and stalled; it is not reading
                // responses either, so cut the connection silently.
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
        let job = Job {
            request,
            ticket,
            accepted_at,
            deadline,
        };
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

/// The socket side of an [`Outbox`].
trait Sink: Send + Sync {
    /// Send as much of `buf` as the socket takes without waiting;
    /// `WouldBlock` when it takes nothing.
    fn send_now(&self, buf: &[u8]) -> std::io::Result<usize>;

    /// Send all of `buf`, waiting as long as the write timeout allows.
    fn send_all(&self, buf: &[u8]) -> std::io::Result<()>;
}

impl Sink for TcpStream {
    fn send_now(&self, buf: &[u8]) -> std::io::Result<usize> {
        send_nonblocking(self, buf)
    }

    fn send_all(&self, buf: &[u8]) -> std::io::Result<()> {
        let mut socket = self;
        socket.write_all(buf)
    }
}

/// One `send(2)` with `MSG_DONTWAIT`: std has no per-call non-blocking
/// send, and `set_nonblocking` would change the file description the
/// reader's blocking `read` shares.
#[cfg(target_os = "linux")]
fn send_nonblocking(socket: &TcpStream, buf: &[u8]) -> std::io::Result<usize> {
    use std::ffi::{c_int, c_void};
    use std::os::fd::AsRawFd;
    const MSG_DONTWAIT: c_int = 0x40;
    const MSG_NOSIGNAL: c_int = 0x4000;
    extern "C" {
        fn send(fd: c_int, buf: *const c_void, len: usize, flags: c_int) -> isize;
    }
    loop {
        // SAFETY: `buf` is a live, initialised slice of `buf.len()` bytes
        // that `send` only reads, and the descriptor belongs to `socket`,
        // which outlives the call.
        let sent = unsafe {
            send(
                socket.as_raw_fd(),
                buf.as_ptr().cast(),
                buf.len(),
                MSG_DONTWAIT | MSG_NOSIGNAL,
            )
        };
        if sent >= 0 {
            return Ok(sent as usize);
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Elsewhere there is no portable non-blocking send: every run goes to
/// the stall flusher.
#[cfg(not(target_os = "linux"))]
fn send_nonblocking(_: &TcpStream, _: &[u8]) -> std::io::Result<usize> {
    Err(std::io::ErrorKind::WouldBlock.into())
}

/// A connection's ordered outbox: one reply slot per request, indexed by
/// the sequence number the reader reserved for it, under one lock with
/// the head index. Replies are deposited in any order (a drain may
/// finish request 3 before request 0, and four workers certainly do) and
/// leave only from the head, so responses reach the socket in exactly the
/// order requests arrived.
///
/// Sending is a role, not a thread. Whoever flushes — a worker after its
/// drain, or the reader after a refusal — takes the writer role if it is
/// free, and with it the connection's send buffer, frames every
/// consecutive ready reply from the head (up to 64 KiB) into it, and
/// sends the run with one non-blocking send; it keeps the role while the
/// head is ready. A flush that finds the role taken returns at once: the
/// holder sees the new reply before it lets go. Only a send that would
/// block passes the rest of its run, and the role, to the connection's
/// stall flusher, which finishes it with blocking writes under
/// [`ServeConfig::write_timeout`].
pub(crate) struct Outbox {
    state: std::sync::Mutex<OutboxState>,
    /// The reader waits here for room, and at the end for the last write.
    room: Condvar,
    /// The stall flusher waits here for a run to finish.
    stall: Condvar,
    socket: Box<dyn Sink>,
    metrics: Arc<ServingMetrics>,
    pool: Arc<FramePool>,
    depth: usize,
}

#[derive(Default)]
struct OutboxState {
    /// Slots from `head` on: slot `seq` sits at `seq - head`, `None`
    /// until answered.
    slots: VecDeque<Option<Reply>>,
    /// The sequence number of the first slot not yet taken for sending.
    head: u64,
    /// Someone holds the writer role; only the holder takes replies off
    /// the head and sends them.
    writing: bool,
    /// The connection's send buffer, out with the writer role's holder.
    /// One buffer per connection, as a connection writer thread had, so a
    /// bulk answer grows it on the connection that asked for it.
    buf: BytesMut,
    /// A send failed: the peer is gone and replies go nowhere.
    broken: bool,
    /// The reader is done; the stall flusher exits.
    closed: bool,
    /// The reader is parked on `room` (a flush wakes it only then).
    reader_waits: bool,
    /// A run a non-blocking send could not finish.
    stalled: Option<Run>,
    /// The stall flusher, spawned at the connection's first stall.
    flusher: Option<JoinHandle<()>>,
}

/// [`Condvar::wait`], ignoring poison as [`Outbox::lock`] does.
fn wait<'a>(cv: &Condvar, state: MutexGuard<'a, OutboxState>) -> MutexGuard<'a, OutboxState> {
    cv.wait(state).unwrap_or_else(PoisonError::into_inner)
}

impl OutboxState {
    fn head_ready(&self) -> bool {
        matches!(self.slots.front(), Some(Some(_)))
    }
}

/// Framed replies on their way to the socket.
struct Run {
    bytes: BytesMut,
    /// How many of `bytes` already left.
    sent: usize,
    frames: u64,
}

impl Outbox {
    fn new(socket: Box<dyn Sink>, metrics: Arc<ServingMetrics>, depth: usize) -> Arc<Outbox> {
        Arc::new(Outbox {
            state: Default::default(),
            room: Condvar::new(),
            stall: Condvar::new(),
            socket,
            pool: metrics.frame_pool(),
            metrics,
            depth: depth.max(1),
        })
    }

    fn lock(&self) -> MutexGuard<'_, OutboxState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Reserve the next sequence number, waiting while `depth` replies are
    /// outstanding. `None` once a send has failed.
    fn reserve(self: &Arc<Self>) -> Option<Ticket> {
        let mut state = self.lock();
        while state.slots.len() >= self.depth && !state.broken {
            state.reader_waits = true;
            state = wait(&self.room, state);
        }
        state.reader_waits = false;
        if state.broken {
            return None;
        }
        let seq = state.head + state.slots.len() as u64;
        state.slots.push_back(None);
        Some(Ticket {
            outbox: Some(Arc::clone(self)),
            seq,
        })
    }

    /// Put the reply for `seq` in its slot. It leaves at the next flush
    /// that finds it at the head.
    fn deposit(&self, seq: u64, reply: Reply) {
        let mut state = self.lock();
        if state.broken {
            drop(state);
            self.recycle(reply);
            return;
        }
        let at = (seq - state.head) as usize;
        state.slots[at] = Some(reply);
    }

    /// Send every ready reply from the head, unless the writer role is
    /// taken (its holder sends them) or the head is still pending.
    fn flush(self: &Arc<Self>) {
        let mut out = {
            let mut state = self.lock();
            if state.writing || !state.head_ready() {
                return;
            }
            state.writing = true;
            std::mem::take(&mut state.buf)
        };
        loop {
            let frames = self.take_run(&mut out);
            let sent = match self.socket.send_now(out.as_slice()) {
                Ok(sent) => sent,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => 0,
                Err(_) => return self.break_off(),
            };
            if sent < out.len() {
                return self.hand_to_flusher(Run {
                    bytes: out,
                    sent,
                    frames,
                });
            }
            self.metrics.record_wire_tx(out.len() as u64, frames, 1);
            if !self.keep_role(&mut out) {
                return;
            }
        }
    }

    /// Frame the ready replies from the head into `out`, up to
    /// [`MAX_COALESCED_WRITE`] bytes, and return how many. The caller
    /// holds the writer role. The lock is released while each reply is
    /// framed, so a bulk encode never holds up the reader or a depositing
    /// worker.
    fn take_run(&self, out: &mut BytesMut) -> u64 {
        out.clear();
        let mut frames = 0;
        while out.len() < MAX_COALESCED_WRITE {
            let reply = {
                let mut state = self.lock();
                if !state.head_ready() {
                    break;
                }
                state.head += 1;
                if state.reader_waits {
                    self.room.notify_one();
                }
                state.slots.pop_front().flatten()
            };
            put_reply(out, reply.expect("the head was ready"), &self.pool);
            frames += 1;
        }
        frames
    }

    /// After a run is sent: keep the writer role if the head is ready
    /// again, else give it up and return the send buffer `out`.
    fn keep_role(&self, out: &mut BytesMut) -> bool {
        let mut state = self.lock();
        if state.head_ready() {
            return true;
        }
        state.writing = false;
        // One huge answer (a snapshot) must not pin its buffer to an
        // otherwise quiet connection forever.
        if out.capacity() <= MAX_RETAINED_WRITE_BUFFER {
            state.buf = std::mem::take(out);
        }
        if state.reader_waits {
            self.room.notify_one();
        }
        false
    }

    /// Pass an unfinished run, and the writer role with it, to the stall
    /// flusher, spawning it at the connection's first stall.
    fn hand_to_flusher(self: &Arc<Self>, run: Run) {
        let mut state = self.lock();
        state.stalled = Some(run);
        if state.flusher.is_some() {
            self.stall.notify_one();
            return;
        }
        let outbox = Arc::clone(self);
        let spawned = std::thread::Builder::new()
            .name("fstore-serve-conn-flusher".to_string())
            .spawn(move || outbox.flusher_loop());
        match spawned {
            Ok(flusher) => state.flusher = Some(flusher),
            Err(_) => {
                state.stalled = None;
                drop(state);
                self.break_off();
            }
        }
    }

    /// The stall flusher: finish each stalled run with blocking writes,
    /// then keep sending from the head until it is not ready.
    fn flusher_loop(&self) {
        loop {
            let Run {
                mut bytes,
                mut sent,
                mut frames,
            } = {
                let mut state = self.lock();
                loop {
                    if let Some(run) = state.stalled.take() {
                        break run;
                    }
                    if state.closed {
                        return;
                    }
                    state = wait(&self.stall, state);
                }
            };
            loop {
                if self.socket.send_all(&bytes.as_slice()[sent..]).is_err() {
                    self.break_off();
                    break;
                }
                self.metrics.record_wire_tx(bytes.len() as u64, frames, 1);
                if !self.keep_role(&mut bytes) {
                    break;
                }
                frames = self.take_run(&mut bytes);
                sent = 0;
            }
        }
    }

    /// A send failed: drop every reply still held and give up the writer
    /// role, so the reader stops waiting and later deposits go nowhere.
    fn break_off(&self) {
        let replies = {
            let mut state = self.lock();
            state.broken = true;
            state.writing = false;
            state.head += state.slots.len() as u64;
            if state.reader_waits {
                self.room.notify_one();
            }
            std::mem::take(&mut state.slots)
        };
        replies.into_iter().flatten().for_each(|r| self.recycle(r));
    }

    /// The reader is done: wait until every reserved slot has been sent,
    /// or a send failed, then stop the stall flusher.
    fn close(&self) {
        let flusher = {
            let mut state = self.lock();
            while !state.broken && (state.writing || !state.slots.is_empty()) {
                state.reader_waits = true;
                state = wait(&self.room, state);
            }
            state.reader_waits = false;
            state.closed = true;
            self.stall.notify_one();
            state.flusher.take()
        };
        if let Some(flusher) = flusher {
            let _ = flusher.join();
        }
    }

    /// A reply that will never be sent still owes its frame to the pool.
    fn recycle(&self, reply: Reply) {
        if let Reply::Frame(frame) = reply {
            self.pool.put(frame);
        }
    }
}

/// A reserved reply slot, carried by its [`Job`]. Answer it once; a
/// ticket dropped unanswered answers `Internal "worker dropped the
/// request"` in its slot, so a lost job never stalls the replies behind
/// it.
pub struct Ticket {
    outbox: Option<Arc<Outbox>>,
    seq: u64,
}

impl Ticket {
    /// The slot's sequence number on its connection.
    pub(crate) fn seq(&self) -> u64 {
        self.seq
    }

    /// Deposit `reply` in the slot and return the outbox, for the caller
    /// to flush once its drain is done.
    pub(crate) fn answer(mut self, reply: Reply) -> Option<Arc<Outbox>> {
        let outbox = self.outbox.take()?;
        outbox.deposit(self.seq, reply);
        Some(outbox)
    }

    /// Give the slot up unanswered, returning its sequence number: the
    /// caller answers it (admission refused the job).
    pub(crate) fn disarm(mut self) -> u64 {
        self.outbox = None;
        self.seq
    }

    /// A ticket with no connection behind it: answering it sends nothing.
    #[cfg(test)]
    pub(crate) fn detached() -> Ticket {
        Ticket {
            outbox: None,
            seq: 0,
        }
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        if let Some(outbox) = self.outbox.take() {
            outbox.deposit(
                self.seq,
                Reply::Typed(Response::error(
                    ErrorCode::Internal,
                    "worker dropped the request",
                )),
            );
            outbox.flush();
        }
    }
}

/// Append one reply to `out` as a whole frame.
fn put_reply(out: &mut BytesMut, reply: Reply, pool: &FramePool) {
    match reply {
        Reply::Frame(frame) => {
            put_frame(out, |buf| buf.extend_from_slice(frame.as_slice()));
            pool.put(frame);
        }
        Reply::Typed(response) => put_frame(out, |buf| response.encode_into(buf)),
    }
}

/// Bytes past which a flush stops appending ready replies to the run it
/// is about to send.
const MAX_COALESCED_WRITE: usize = 64 * 1024;

/// Most capacity a connection's send buffer keeps between runs.
const MAX_RETAINED_WRITE_BUFFER: usize = 1024 * 1024;

/// One worker thread's state.
struct Worker<'a> {
    rx: &'a Receiver<Job>,
    engine: &'a ServeEngine,
    metrics: &'a ServingMetrics,
    draining: &'a AtomicBool,
    pool: Arc<FramePool>,
    scratch: ReadScratch,
    /// The connections this drain has answered on, flushed after its reads
    /// and again after its write group.
    touched: Vec<Arc<Outbox>>,
}

impl Worker<'_> {
    /// Claim one job, drain the queue opportunistically, coalesce,
    /// execute, reply, record — until the queue closes.
    fn run(&mut self, config: &ServeConfig) {
        while let Ok(first) = self.rx.recv() {
            #[cfg(feature = "testing")]
            if let Some(delay) = config.handler_delay {
                std::thread::sleep(delay);
            }
            let jobs = batch::drain(self.rx, first, config.max_batch.max(1));
            // Deadline check at dequeue: a job whose budget lapsed while it
            // sat in the queue is shed unexecuted — its caller has already
            // timed out, so running it would only delay live requests.
            let now = Instant::now();
            let (jobs, expired): (Vec<Job>, Vec<Job>) = jobs
                .into_iter()
                .partition(|j| j.deadline.is_none_or(|d| d > now));
            for job in expired {
                self.metrics.record_deadline_shed();
                self.finish_typed(
                    job,
                    Response::error(
                        ErrorCode::DeadlineExceeded,
                        "deadline budget expired before a worker dequeued the request",
                    ),
                );
            }
            let plan = batch::plan(jobs);

            for batch in plan.batches {
                self.metrics.record_batch(batch.jobs.len());
                // Ids, clock and epoch are fixed once for the group; each
                // member then gets its own frame, so one member's
                // FailOnStale refusal never touches the others' answers.
                self.engine
                    .begin_read_into(batch.key().1, &mut self.scratch);
                for job in batch.jobs {
                    let Request::GetFeatures {
                        group,
                        entity,
                        features,
                    } = &job.request
                    else {
                        unreachable!("plan() only batches GetFeatures")
                    };
                    let mut frame = self.pool.get();
                    let ok = self.engine.put_features(
                        group,
                        entity,
                        features,
                        &mut self.scratch,
                        &mut frame,
                    );
                    self.finish(job, Reply::Frame(frame), ok);
                }
            }
            for batch in plan.searches {
                self.metrics.record_batch(batch.jobs.len());
                let (table, k, options) = batch.key();
                let outcome = self.engine.index_catalog().and_then(|catalog| {
                    let queries: Vec<&[f32]> = batch
                        .jobs
                        .iter()
                        .map(|j| match &j.request {
                            Request::SearchNearest { query, .. } => query.as_slice(),
                            _ => unreachable!("plan() only batches SearchNearest"),
                        })
                        .collect();
                    catalog
                        .search_many(table, &queries, k as usize, &options.to_params())
                        .ok()
                });
                match outcome {
                    Some(results) => {
                        for (job, result) in batch.jobs.into_iter().zip(results) {
                            self.finish_typed(job, search_response(result));
                        }
                    }
                    // No catalog or no snapshot: re-serve singly so each
                    // job gets the same typed error the single path
                    // produces.
                    None => batch.jobs.into_iter().for_each(|job| self.answer(job)),
                }
            }
            plan.singles.into_iter().for_each(|job| self.answer(job));
            self.flush();
            // Writes go last, so no read of the drain waits behind the
            // group commit's WAL write.
            if !plan.writes.is_empty() {
                self.commit_writes(plan.writes);
                self.flush();
            }
        }
    }

    /// Answer a drain's `PutOnline` jobs as one fenced group commit.
    fn commit_writes(&mut self, jobs: Vec<Job>) {
        if jobs.len() >= 2 {
            self.metrics.record_batch(jobs.len());
        }
        let answers = {
            let writes: Vec<(u64, OnlineWrite<'_>)> = jobs
                .iter()
                .map(|job| {
                    fenced_write(&job.request).expect("plan() only groups PutOnline as writes")
                })
                .collect();
            self.engine
                .writes
                .put_online_many(&writes, self.engine.now())
        };
        for (job, response) in jobs.into_iter().zip(answers) {
            self.finish_typed(job, response);
        }
    }

    /// Execute one job on its own. Feature reads encode straight into the
    /// frame; everything else goes through the typed `handle`.
    fn answer(&mut self, job: Job) {
        match &job.request {
            Request::GetFeatures { .. } | Request::GetFeaturesBatch { .. } => {
                let mut frame = self.pool.get();
                let ok = self
                    .engine
                    .read_into(&job.request, &mut self.scratch, &mut frame);
                self.finish(job, Reply::Frame(frame), ok);
            }
            request => {
                // Only `Health` reports the queue depth, and reading it
                // locks the job queue — nothing else pays for that.
                let queue_depth = match request {
                    Request::Health => self.rx.len() as u32,
                    _ => 0,
                };
                let draining = self.draining.load(Ordering::Acquire);
                let response = self.engine.handle(request, queue_depth, draining);
                self.finish_typed(job, response);
            }
        }
    }

    /// Record one finished job and deposit its reply; it is sent at the
    /// drain's next flush.
    fn finish(&mut self, job: Job, reply: Reply, ok: bool) {
        let latency_ms = job.accepted_at.elapsed().as_secs_f64() * 1e3;
        self.metrics.record(job.request.endpoint(), latency_ms, ok);
        if let Some(outbox) = job.ticket.answer(reply) {
            if !self.touched.iter().any(|o| Arc::ptr_eq(o, &outbox)) {
                self.touched.push(outbox);
            }
        }
    }

    /// [`finish`](Self::finish) for a typed response.
    fn finish_typed(&mut self, job: Job, response: Response) {
        // E21's embedding phase asserts this stays flat: a response whose
        // vector owns a private buffer means the store path copied.
        if let Response::Embedding { vector, .. } = &response {
            if !vector.is_shared() {
                self.metrics.record_embed_copy();
            }
        }
        let ok = !matches!(response, Response::Error { .. });
        self.finish(job, Reply::Typed(response), ok);
    }

    /// Send what this drain answered, connection by connection.
    fn flush(&mut self) {
        for outbox in self.touched.drain(..) {
            outbox.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::write_frame_vectored;
    use fstore_common::{EntityKey, Value};
    use fstore_storage::OnlineStore;
    use std::io::ErrorKind;

    /// A socket stand-in that keeps every send apart. While `stalled`, a
    /// non-blocking send takes nothing, so every run goes to the stall
    /// flusher.
    #[derive(Clone, Default)]
    struct Writes {
        sends: Arc<Mutex<Vec<Vec<u8>>>>,
        stalled: bool,
    }

    impl Sink for Writes {
        fn send_now(&self, buf: &[u8]) -> std::io::Result<usize> {
            if self.stalled {
                return Err(ErrorKind::WouldBlock.into());
            }
            self.sends.lock().push(buf.to_vec());
            Ok(buf.len())
        }

        fn send_all(&self, buf: &[u8]) -> std::io::Result<()> {
            self.sends.lock().push(buf.to_vec());
            Ok(())
        }
    }

    impl Writes {
        fn count(&self) -> usize {
            self.sends.lock().len()
        }

        fn bytes(&self) -> Vec<u8> {
            self.sends.lock().concat()
        }
    }

    /// An outbox over `socket` with `n` reserved slots.
    fn outbox(socket: &Writes, n: u64) -> (Arc<Outbox>, Arc<ServingMetrics>, Vec<Ticket>) {
        let metrics = Arc::new(ServingMetrics::new());
        let outbox = Outbox::new(Box::new(socket.clone()), Arc::clone(&metrics), 128);
        let tickets = (0..n).map(|_| outbox.reserve().unwrap()).collect();
        (outbox, metrics, tickets)
    }

    /// Reply `i`: a pooled frame for even `i`, a typed response for odd.
    fn reply(i: u64, pool: &FramePool) -> Reply {
        let response = Response::PutAck { epoch: i, term: 1 };
        if i.is_multiple_of(2) {
            let mut frame = pool.get();
            response.encode_into(&mut frame);
            Reply::Frame(frame)
        } else {
            Reply::Typed(response)
        }
    }

    /// Answer ticket `i` with [`reply`]`(i)`, then flush as a worker does.
    fn answer(tickets: &mut [Option<Ticket>], i: u64, metrics: &ServingMetrics) {
        let ticket = tickets[i as usize].take().unwrap();
        let outbox = ticket.answer(reply(i, &metrics.frame_pool())).unwrap();
        outbox.flush();
    }

    /// The wire bytes of replies `range`, one vectored frame each.
    fn frames(range: std::ops::Range<u64>) -> Vec<u8> {
        let mut wire = Vec::new();
        for i in range {
            let mut payload = BytesMut::new();
            Response::PutAck { epoch: i, term: 1 }.encode_into(&mut payload);
            write_frame_vectored(&mut wire, payload.as_slice()).unwrap();
        }
        wire
    }

    #[test]
    fn ready_replies_leave_in_one_write_of_the_same_bytes() {
        let socket = Writes::default();
        let (outbox, metrics, tickets) = outbox(&socket, 6);
        for (i, ticket) in tickets.into_iter().enumerate() {
            ticket.answer(reply(i as u64, &metrics.frame_pool()));
        }
        outbox.flush();
        assert_eq!(socket.count(), 1);
        assert_eq!(socket.bytes(), frames(0..6));
        let wire = metrics.snapshot().wire;
        assert_eq!((wire.frames_tx, wire.writes_tx), (6, 1));
        assert_eq!(wire.bytes_tx, frames(0..6).len() as u64);
    }

    #[test]
    fn the_writer_sends_what_is_ready_before_waiting_on_a_pending_reply() {
        let socket = Writes::default();
        let (_outbox, metrics, tickets) = outbox(&socket, 5);
        let mut tickets: Vec<Option<Ticket>> = tickets.into_iter().map(Some).collect();
        // Frames 0 and 1 reach the socket while reply 2 is still pending.
        answer(&mut tickets, 0, &metrics);
        answer(&mut tickets, 1, &metrics);
        assert_eq!(socket.bytes(), frames(0..2));
        answer(&mut tickets, 3, &metrics);
        answer(&mut tickets, 4, &metrics);
        assert_eq!(socket.bytes(), frames(0..2), "3 and 4 wait behind 2");
        answer(&mut tickets, 2, &metrics);
        assert_eq!(socket.bytes(), frames(0..5));
        assert_eq!(socket.count(), 3, "frames 2..5 were ready together");
    }

    #[test]
    fn replies_deposited_out_of_order_leave_in_order_in_one_write() {
        let socket = Writes::default();
        let (_outbox, metrics, tickets) = outbox(&socket, 4);
        let mut tickets: Vec<Option<Ticket>> = tickets.into_iter().map(Some).collect();
        for i in [3, 1, 2] {
            answer(&mut tickets, i, &metrics);
            assert_eq!(socket.count(), 0, "the head is still pending");
        }
        answer(&mut tickets, 0, &metrics);
        assert_eq!(socket.count(), 1);
        assert_eq!(socket.bytes(), frames(0..4));
    }

    #[test]
    fn a_dropped_ticket_answers_internal_in_its_slot() {
        let socket = Writes::default();
        let (_outbox, metrics, tickets) = outbox(&socket, 3);
        let mut tickets: Vec<Option<Ticket>> = tickets.into_iter().map(Some).collect();
        answer(&mut tickets, 0, &metrics);
        drop(tickets[1].take());
        answer(&mut tickets, 2, &metrics);
        let mut expected = frames(0..1);
        let mut payload = BytesMut::new();
        Response::error(ErrorCode::Internal, "worker dropped the request")
            .encode_into(&mut payload);
        write_frame_vectored(&mut expected, payload.as_slice()).unwrap();
        expected.extend(frames(2..3));
        assert_eq!(socket.bytes(), expected);
    }

    #[test]
    fn a_send_that_would_block_is_finished_by_the_stall_flusher() {
        let socket = Writes {
            stalled: true,
            ..Writes::default()
        };
        let (outbox, metrics, tickets) = outbox(&socket, 3);
        let mut tickets: Vec<Option<Ticket>> = tickets.into_iter().map(Some).collect();
        answer(&mut tickets, 0, &metrics);
        answer(&mut tickets, 1, &metrics);
        answer(&mut tickets, 2, &metrics);
        // `close` waits for every reserved slot, then joins the flusher.
        outbox.close();
        assert_eq!(socket.bytes(), frames(0..3));
        let wire = metrics.snapshot().wire;
        assert_eq!(wire.frames_tx, 3);
        assert!(wire.writes_tx <= wire.frames_tx);
    }

    #[test]
    fn the_reader_waits_at_the_pipeline_depth() {
        let socket = Writes::default();
        let metrics = Arc::new(ServingMetrics::new());
        let outbox = Outbox::new(Box::new(socket.clone()), Arc::clone(&metrics), 2);
        let first = outbox.reserve().unwrap();
        let _second = outbox.reserve().unwrap();
        let third = {
            let outbox = Arc::clone(&outbox);
            std::thread::spawn(move || outbox.reserve().unwrap().seq())
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(!third.is_finished(), "two replies are outstanding");
        first
            .answer(reply(0, &metrics.frame_pool()))
            .unwrap()
            .flush();
        assert_eq!(third.join().unwrap(), 2);
    }

    fn engine() -> ServeEngine {
        let online = Arc::new(OnlineStore::default());
        online.put(
            "user",
            &EntityKey::new("u1"),
            "score",
            Value::Float(0.5),
            Timestamp::millis(100),
        );
        ServeEngine::new(
            FeatureServer::new(online),
            fixed_clock(Timestamp::millis(1_000)),
        )
    }

    #[test]
    fn engine_serves_features_and_maps_missing_groups_to_nulls() {
        let e = engine();
        let resp = e.handle(
            &Request::GetFeatures {
                group: "user".into(),
                entity: "u1".into(),
                features: vec!["score".into()],
            },
            0,
            false,
        );
        match resp {
            Response::Features(v) => {
                assert_eq!(v.values, vec![Value::Float(0.5)]);
                assert_eq!(v.ages_ms, vec![Some(900)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn engine_reports_missing_embedding_catalog() {
        let e = engine();
        let resp = e.handle(
            &Request::GetEmbedding {
                table: "emb".into(),
                key: "k".into(),
            },
            0,
            false,
        );
        assert!(matches!(
            resp,
            Response::Error {
                code: ErrorCode::NotFound,
                ..
            }
        ));
    }

    #[test]
    fn builder_rejects_degenerate_configs_and_keeps_defaults() {
        assert!(ServeConfig::builder().workers(0).build().is_err());
        assert!(ServeConfig::builder().queue_depth(0).build().is_err());
        assert!(ServeConfig::builder().max_batch(0).build().is_err());
        assert!(ServeConfig::builder().pipeline_depth(0).build().is_err());
        let config = ServeConfig::builder()
            .addr("127.0.0.1:0")
            .workers(2)
            .queue_depth(8)
            .max_batch(4)
            .handler_delay(std::time::Duration::from_millis(1))
            .build()
            .unwrap();
        assert_eq!(config.workers, 2);
        assert_eq!(config.queue_depth, 8);
        assert_eq!(config.max_batch, 4);
        assert!(config.handler_delay.is_some());
        // Default-seeded builder passes validation untouched.
        assert!(ServeConfig::builder().build().is_ok());
    }

    #[test]
    fn engine_without_index_catalog_reports_index_not_ready() {
        let e = engine();
        let resp = e.handle(
            &Request::SearchNearest {
                table: "emb".into(),
                query: vec![0.0],
                k: 1,
                options: crate::protocol::SearchOptions::default(),
            },
            0,
            false,
        );
        assert!(matches!(
            resp,
            Response::Error {
                code: ErrorCode::IndexNotReady,
                ..
            }
        ));
    }

    #[test]
    fn engine_serves_search_through_an_attached_catalog() {
        use crate::catalog::IndexSpec;
        use fstore_common::Timestamp;
        use fstore_embed::{EmbeddingProvenance, EmbeddingStore, EmbeddingTable};

        let mut table = EmbeddingTable::new(2).unwrap();
        for i in 0..8 {
            table.insert(format!("e{i}"), vec![i as f32, 0.0]).unwrap();
        }
        let mut store = EmbeddingStore::new();
        store
            .publish(
                "emb",
                table,
                EmbeddingProvenance::default(),
                Timestamp::EPOCH,
            )
            .unwrap();
        let catalog = Arc::new(crate::catalog::IndexCatalog::new(EmbeddingDb::from_store(
            store,
        )));
        catalog.build("emb", &IndexSpec::Flat).unwrap();
        let e = engine().with_index_catalog(Arc::clone(&catalog));

        let resp = e.handle(
            &Request::SearchNearest {
                table: "emb".into(),
                query: vec![2.2, 0.0],
                k: 2,
                options: crate::protocol::SearchOptions::default(),
            },
            0,
            false,
        );
        match resp {
            Response::Neighbors {
                table_version,
                index_generation,
                hits,
            } => {
                assert_eq!(table_version, 1);
                assert_eq!(index_generation, 1);
                assert_eq!(hits[0].key, "e2");
            }
            other => panic!("unexpected {other:?}"),
        }

        // By-key excludes the query entity; wrong dim is typed.
        let resp = e.handle(
            &Request::SearchNearestByKey {
                table: "emb".into(),
                key: "e3".into(),
                k: 2,
                options: crate::protocol::SearchOptions::default(),
            },
            0,
            false,
        );
        match resp {
            Response::Neighbors { hits, .. } => {
                assert!(hits.iter().all(|h| h.key != "e3"));
                assert_eq!(hits.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        let resp = e.handle(
            &Request::SearchNearest {
                table: "emb".into(),
                query: vec![0.0; 7],
                k: 1,
                options: crate::protocol::SearchOptions::default(),
            },
            0,
            false,
        );
        assert!(matches!(
            resp,
            Response::Error {
                code: ErrorCode::DimensionMismatch,
                ..
            }
        ));

        // GetEmbedding rides the catalog's store and reports the version.
        let resp = e.handle(
            &Request::GetEmbedding {
                table: "emb".into(),
                key: "e1".into(),
            },
            0,
            false,
        );
        assert_eq!(
            resp,
            Response::Embedding {
                dim: 2,
                version: 1,
                epoch: 0,
                vector: vec![1.0, 0.0].into(),
            }
        );
        // Served straight from the store's shared row — no copy.
        if let Response::Embedding { vector, .. } = &resp {
            assert!(vector.is_shared());
        }
    }

    #[test]
    fn health_reflects_queue_and_drain_state() {
        let e = engine();
        let resp = e.handle(&Request::Health, 7, true);
        assert_eq!(
            resp,
            Response::Health {
                queue_depth: 7,
                draining: true
            }
        );
    }
}
