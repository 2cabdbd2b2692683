//! The feature-serving engine: [`ServeConfig`], the fenced [`WriteState`]
//! and the [`ServeEngine`] that answers requests — the [`Handler`] the
//! connection engine ([`crate::conn`]) runs for a feature server.

use crate::batch::{self, Job, Reply};
use crate::catalog::{CatalogError, IndexCatalog, SearchOutcome};
use crate::conn::{Drain, Handler};
use crate::metrics::ServingMetrics;
use crate::protocol::{ErrorCode, Request, Response, RowEncoder, WireDelta, WireVector};
use crate::repl::{check_snapshot_len, ReplProvider};
use bytes::{BufMut, BytesMut};
use fstore_common::DeltaQuery;
use fstore_common::{FsError, Timestamp, Value};
use fstore_core::{stale_error, FeatureServer, StaleRefused};
use fstore_embed::{EmbeddingDb, EmbeddingStore};
use fstore_storage::FeatureId;
use parking_lot::Mutex;

use std::sync::Arc;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`ServerHandle::addr`](crate::ServerHandle::addr)).
    pub addr: String,
    /// Worker threads executing requests, and the most requests executing
    /// at once (a connection reader answering a lone read takes one of
    /// the workers' states).
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
    pub(crate) fn install(&self, provider: Arc<dyn WriteProvider>, term: u64) {
        let mut inner = self.inner.lock();
        inner.provider = Some(provider);
        inner.term = term;
    }

    /// Register the hook [`Request::Promote`] runs to turn this node into
    /// a leader.
    pub(crate) fn set_promote_hook(&self, hook: PromoteHook) {
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
    pub(crate) fn promote(&self, term: u64) -> Response {
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
    pub(crate) fn demote(&self, term: u64) -> Response {
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

    pub(crate) fn now(&self) -> Timestamp {
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

/// The serve engine as a connection-engine handler. Each drain is
/// planned: lookups that share `(group, features)` coalesce into one batch
/// read, searches that share `(table, k, options)` into one batch of
/// searches over one shared snapshot, and the drain's writes answer last,
/// as one fenced group commit.
impl Handler for ServeEngine {
    type Worker = ReadScratch;

    fn attach_metrics(&self, metrics: &Arc<ServingMetrics>) {
        if let Some(catalog) = &self.indexes {
            catalog.attach_metrics(Arc::clone(metrics));
        }
    }

    fn worker(&self) -> ReadScratch {
        ReadScratch::default()
    }

    /// Reads, searches, `Health` and writes. A read's allocations die
    /// with its reply. A write's long-lived memory is the publication
    /// log, whose bodies are copied into one byte buffer that stops
    /// growing once the log is full, so which thread commits no longer
    /// moves resident memory: on `durable_write` a lone write's p50 fell
    /// ×0.53 with `peak_rss_mb` ×1.02 (medians of 11 pairs), where a log
    /// of one heap string per record had cost `peak_rss_mb` ×1.20. A
    /// lone write commits as a group of one, as it would on a worker; a
    /// pipelined burst still reaches a worker as one group commit.
    /// `Promote` and `Demote` are rare admin calls, and the `Repl*`
    /// requests build bulk delta and snapshot replies: those keep to the
    /// workers.
    fn answers_inline(&self, request: &Request) -> bool {
        match request {
            Request::Health
            | Request::GetFeatures { .. }
            | Request::GetFeaturesBatch { .. }
            | Request::GetEmbedding { .. }
            | Request::SearchNearest { .. }
            | Request::SearchNearestByKey { .. }
            | Request::PutOnline { .. } => true,
            Request::Promote { .. }
            | Request::Demote { .. }
            | Request::ReplSubscribe
            | Request::ReplSnapshot
            | Request::ReplDeltas { .. }
            | Request::WithDeadline { .. } => false,
        }
    }

    fn serve(&self, scratch: &mut ReadScratch, jobs: Vec<Job>, out: &mut Drain<'_>) {
        let plan = batch::plan(jobs);
        for batch in plan.batches {
            out.metrics().record_batch(batch.jobs.len());
            // Ids, clock and epoch are fixed once for the group; each
            // member then gets its own frame, so one member's FailOnStale
            // refusal never touches the others' answers.
            self.begin_read_into(batch.key().1, scratch);
            for job in batch.jobs {
                let Request::GetFeatures {
                    group,
                    entity,
                    features,
                } = &job.request
                else {
                    unreachable!("plan() only batches GetFeatures")
                };
                let mut frame = out.pool().get();
                let ok = self.put_features(group, entity, features, scratch, &mut frame);
                out.answer(job, Reply::Frame(frame), ok);
            }
        }
        for batch in plan.searches {
            out.metrics().record_batch(batch.jobs.len());
            let (table, k, options) = batch.key();
            let outcome = self.indexes.as_ref().and_then(|catalog| {
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
                        out.answer_typed(job, search_response(result));
                    }
                }
                // No catalog or no snapshot: re-serve singly so each job
                // gets the same typed error the single path produces.
                None => batch
                    .jobs
                    .into_iter()
                    .for_each(|job| self.answer(job, scratch, out)),
            }
        }
        plan.singles
            .into_iter()
            .for_each(|job| self.answer(job, scratch, out));
        // Writes go last, and the reads leave first, so no read of the
        // drain waits behind the group commit's WAL write.
        if !plan.writes.is_empty() {
            out.flush();
            self.commit_writes(plan.writes, out);
        }
    }
}

impl ServeEngine {
    /// Answer a drain's `PutOnline` jobs as one fenced group commit.
    fn commit_writes(&self, jobs: Vec<Job>, out: &mut Drain<'_>) {
        if jobs.len() >= 2 {
            out.metrics().record_batch(jobs.len());
        }
        let answers = {
            let writes: Vec<(u64, OnlineWrite<'_>)> = jobs
                .iter()
                .map(|job| {
                    fenced_write(&job.request).expect("plan() only groups PutOnline as writes")
                })
                .collect();
            self.writes.put_online_many(&writes, self.now())
        };
        for (job, response) in jobs.into_iter().zip(answers) {
            out.answer_typed(job, response);
        }
    }

    /// Execute one job on its own. Feature reads encode straight into the
    /// frame; everything else goes through the typed `handle`.
    fn answer(&self, job: Job, scratch: &mut ReadScratch, out: &mut Drain<'_>) {
        match &job.request {
            Request::GetFeatures { .. } | Request::GetFeaturesBatch { .. } => {
                let mut frame = out.pool().get();
                let ok = self.read_into(&job.request, scratch, &mut frame);
                out.answer(job, Reply::Frame(frame), ok);
            }
            request => {
                // Only `Health` reports the queue depth, and reading it
                // locks the job queue — nothing else pays for that.
                let queue_depth = match request {
                    Request::Health => out.queue_depth(),
                    _ => 0,
                };
                let response = self.handle(request, queue_depth, out.draining());
                out.answer_typed(job, response);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fstore_common::{EntityKey, Value};
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
