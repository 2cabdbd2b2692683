//! The TCP feature-serving server.
//!
//! Architecture (std threads only — no async runtime):
//!
//! ```text
//!   acceptor ──spawns──▶ connection reader threads (one per socket):
//!       │                  frame in ─▶ admit ─▶ push reply-slot, in order
//!       │                        │ submit (admission: bounded, non-blocking)
//!       │                        ▼
//!       │               bounded crossbeam channel
//!       │                        │ recv + opportunistic drain
//!       │                        ▼
//!       └──────────────▶ worker pool (batch coalescing, FeatureServer /
//!                                     EmbeddingStore, metrics; feature
//!                                     reads encoded store ─▶ pooled frame)
//!                                │ reply (per-request slot)
//!                                ▼
//!                        connection writer threads (one per socket):
//!                          pop slots in order ─▶ (encode the rest) ─▶ frame out
//! ```
//!
//! Connection threads never execute store code. Each connection is a
//! *pipeline*: the reader keeps admitting frames (up to
//! [`ServeConfig::pipeline_depth`] in flight) while the writer streams
//! responses back **in request order** — ordering is carried by the queue
//! of reply slots, so the wire needs no correlation IDs (DESIGN §2.16).
//! Workers claim a job plus whatever else is queued and coalesce
//! compatible lookups into one batch serve. Shutdown is graceful:
//! admission flips to draining, open sockets are shut down, and workers
//! finish every admitted job before exiting.

use crate::admission::{AdmissionController, AdmitReject};
use crate::batch::{self, Job, Reply};
use crate::catalog::{CatalogError, IndexCatalog, SearchOutcome};
use crate::codec::{write_frame_vectored, FrameEvent, FramePool, FrameReader};
use crate::metrics::ServingMetrics;
use crate::protocol::{ErrorCode, Request, Response, RowEncoder, WireDelta, WireVector};
use crate::repl::{check_snapshot_len, ReplProvider};
use bytes::{BufMut, BytesMut};
use crossbeam::channel::{bounded, Receiver};
use fstore_common::DeltaQuery;
use fstore_common::{EntityKey, FsError, Timestamp, Value};
use fstore_core::{stale_error, FeatureServer, StaleRefused};
use fstore_embed::{EmbeddingDb, EmbeddingStore};
use fstore_storage::FeatureId;
use parking_lot::Mutex;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
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
    /// tests and experiments. `None` in production configurations.
    pub handler_delay: Option<std::time::Duration>,
    /// Once a request frame has *started*, the rest of it must arrive
    /// within this bound or the connection is cut — a slow-loris peer can
    /// hold only its own connection thread, never a worker. Waiting for a
    /// frame to start (an idle keep-alive connection) is unbounded.
    pub frame_timeout: Option<std::time::Duration>,
    /// Write timeout on every connection socket: a peer that stops
    /// reading its responses cannot wedge a connection thread forever.
    pub write_timeout: Option<std::time::Duration>,
    /// Per-request frame ceiling; frames declaring more are refused with
    /// a typed `FrameTooLarge` error before any payload is read. Clamped
    /// by the protocol-wide [`crate::protocol::MAX_FRAME_LEN`].
    pub max_request_frame: usize,
    /// Most requests one connection may have in flight (admitted but not
    /// yet answered). The connection reader stalls at the ceiling, which
    /// backpressures a pipelining client through TCP itself.
    pub pipeline_depth: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 256,
            max_batch: 32,
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

/// The engine-side sink for fenced online writes. A replication leader
/// implements this by applying the row, appending it to its publication
/// log, and — when durability is attached — returning only after the
/// delta's WAL commit point, so a `PutAck` always names a committed write.
pub trait WriteProvider: Send + Sync {
    /// Apply one entity's features and return the replication sequence
    /// number the write was published at.
    fn put_online(
        &self,
        group: &str,
        entity: &EntityKey,
        values: &[(String, Value)],
        now: Timestamp,
    ) -> fstore_common::Result<u64>;
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

    /// Handle one fenced write. The write applies only when `term` equals
    /// the node's current term and a provider is installed; a *newer*
    /// term proves this node was superseded by a promotion it never heard
    /// about, so it self-fences (drops its provider) before refusing.
    pub fn put_online(
        &self,
        group: &str,
        entity: &str,
        values: &[(String, Value)],
        term: u64,
        now: Timestamp,
    ) -> Response {
        let mut inner = self.inner.lock();
        if term > inner.term {
            // Someone holds a map from a later promotion: this node's
            // leadership (if any) is over. Fence first, then refuse.
            inner.term = term;
            inner.provider = None;
            return Self::not_leader(inner.term);
        }
        let Some(provider) = inner.provider.clone() else {
            return Self::not_leader(inner.term);
        };
        if term < inner.term {
            return Self::not_leader(inner.term);
        }
        // Applying under the lock keeps "term matched" and "row applied"
        // one atomic step; the provider returns only after the write is
        // in the WAL (when durability is attached), so the ack below
        // always names a committed write.
        match provider.put_online(group, &EntityKey::new(entity), values, now) {
            Ok(epoch) => Response::PutAck {
                epoch,
                term: inner.term,
            },
            Err(e) => Response::error(
                ErrorCode::Internal,
                format!("write not committed (retry may duplicate): {e}"),
            ),
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
            Request::PutOnline {
                group,
                entity,
                values,
                term,
            } => self
                .writes
                .put_online(group, entity, values, *term, self.now()),
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

/// A reply slot already holding its response — used for refusals decided
/// on the reader thread (bad frames, admission rejects), which must still
/// flow through the writer's ordered queue so responses never reorder.
fn ready(response: Response) -> Receiver<Reply> {
    let (tx, rx) = bounded(1);
    let _ = tx.send(Reply::Typed(response));
    rx
}

/// Per-socket reader: frame in, admit, push the request's reply slot onto
/// the writer's ordered queue. The queue is bounded by
/// [`ServeConfig::pipeline_depth`], so a client pumping requests faster
/// than workers answer them is backpressured through TCP rather than
/// queuing without limit.
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
    let (slot_tx, slot_rx) = bounded::<Receiver<Reply>>(config.pipeline_depth.max(1));
    let writer = {
        let metrics = admission.shared_metrics();
        std::thread::Builder::new()
            .name("fstore-serve-conn-writer".to_string())
            .spawn(move || writer_loop(&write_half, &slot_rx, &metrics))
            .expect("spawn connection writer")
    };
    let metrics = admission.metrics();
    let mut reader = FrameReader::new();
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
                // refusal still rides the ordered queue, behind every
                // response already in flight.
                metrics.record_frame_too_large();
                let _ = slot_tx.send(ready(Response::error(
                    ErrorCode::FrameTooLarge,
                    format!(
                        "request frame of {declared} bytes exceeds the {} byte ceiling",
                        config.max_request_frame
                    ),
                )));
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
        let slot = match decoded {
            Err(e) => ready(Response::error(ErrorCode::BadRequest, e.to_string())),
            Ok(request) => {
                let accepted_at = Instant::now();
                // Unwrap the deadline envelope here so workers and the
                // batch planner only ever see plain requests.
                let (request, deadline) = match request {
                    Request::WithDeadline { budget_ms, inner } => (
                        *inner,
                        Some(accepted_at + std::time::Duration::from_millis(u64::from(budget_ms))),
                    ),
                    other => (other, None),
                };
                let (reply_tx, reply_rx) = bounded(1);
                let job = Job {
                    request,
                    reply: reply_tx,
                    accepted_at,
                    deadline,
                };
                match admission.submit(job) {
                    Ok(()) => reply_rx,
                    Err(AdmitReject::Overloaded) => ready(Response::error(
                        ErrorCode::Overloaded,
                        "serving queue is full",
                    )),
                    Err(AdmitReject::Draining) => ready(Response::error(
                        ErrorCode::ShuttingDown,
                        "server is draining",
                    )),
                }
            }
        };
        if slot_tx.send(slot).is_err() {
            // The writer died on a socket error; the peer is gone.
            break;
        }
    }
    // Closing the queue lets the writer drain whatever is still in flight
    // and exit; join so the socket outlives every pending write.
    drop(slot_tx);
    let _ = writer.join();
}

/// Per-socket writer: pop reply slots in request order, wait on each one,
/// and write its frame vectored (header + payload, one syscall, no copy).
/// A feature read arrives already encoded in a pooled frame, which goes
/// back to the pool here; any other response is encoded into this
/// connection's own reusable buffer. Popping in push order is the entire
/// ordering guarantee — responses leave the socket in exactly the order
/// requests arrived, so the wire needs no correlation IDs.
fn writer_loop(stream: &TcpStream, slots: &Receiver<Receiver<Reply>>, metrics: &ServingMetrics) {
    let pool = metrics.frame_pool();
    let mut own = BytesMut::new();
    let mut w = stream;
    for slot in slots.iter() {
        let reply = slot.recv().unwrap_or_else(|_| {
            Reply::Typed(Response::error(
                ErrorCode::Internal,
                "worker dropped the request",
            ))
        });
        let pooled = match reply {
            Reply::Frame(frame) => Some(frame),
            Reply::Typed(response) => {
                own.clear();
                response.encode_into(&mut own);
                None
            }
        };
        let payload = pooled.as_ref().unwrap_or(&own);
        let result = write_frame_vectored(&mut w, payload.as_slice());
        metrics.record_wire_tx(4 + payload.len() as u64, 1);
        match pooled {
            Some(frame) => pool.put(frame),
            // One huge answer (a snapshot) must not pin its buffer to an
            // otherwise quiet connection forever.
            None if own.capacity() > MAX_RETAINED_WRITE_BUFFER => own = BytesMut::new(),
            None => {}
        }
        if result.is_err() {
            // Peer stopped reading; drop the remaining slots (their
            // workers' replies go nowhere) and let the reader find out
            // via the closed queue.
            break;
        }
    }
}

/// Most capacity a connection writer keeps between responses.
const MAX_RETAINED_WRITE_BUFFER: usize = 1024 * 1024;

/// One worker thread's state.
struct Worker<'a> {
    rx: &'a Receiver<Job>,
    engine: &'a ServeEngine,
    metrics: &'a ServingMetrics,
    draining: &'a AtomicBool,
    pool: Arc<FramePool>,
    scratch: ReadScratch,
}

impl Worker<'_> {
    /// Claim one job, drain the queue opportunistically, coalesce,
    /// execute, reply, record — until the queue closes.
    fn run(&mut self, config: &ServeConfig) {
        while let Ok(first) = self.rx.recv() {
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

    /// Reply and record one finished job.
    fn finish(&self, job: Job, reply: Reply, ok: bool) {
        let latency_ms = job.accepted_at.elapsed().as_secs_f64() * 1e3;
        self.metrics.record(job.request.endpoint(), latency_ms, ok);
        // The connection may already be gone; its loss is not the worker's
        // problem, but a frame still belongs to the pool.
        if let Err(crossbeam::channel::SendError(Reply::Frame(frame))) = job.reply.send(reply) {
            self.pool.put(frame);
        }
    }

    /// [`finish`](Self::finish) for a typed response.
    fn finish_typed(&self, job: Job, response: Response) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use fstore_common::Value;
    use fstore_storage::OnlineStore;

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
