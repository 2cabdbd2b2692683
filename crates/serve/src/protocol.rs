//! The wire protocol: a compact length-prefixed binary encoding for
//! feature-serving requests and responses.
//!
//! Framing is a 4-byte big-endian payload length followed by the payload;
//! frames above [`MAX_FRAME_LEN`] are rejected before allocation so a
//! corrupt or hostile peer cannot balloon server memory. Payloads are
//! tag-prefixed structs: `u8` discriminant, then fields in order. Strings
//! and sequences carry a `u32` length. All integers are big-endian.
//!
//! Decoding is total: every error is a typed [`WireError`], never a panic,
//! and a payload must be consumed exactly (trailing bytes are an error) so
//! a round-trip is byte-identical. The byte-level primitives live in
//! [`crate::codec`]; this module defines the request/response grammar on
//! top of them. Hot paths encode with [`Request::encode_into`] /
//! [`Response::encode_into`] into pooled buffers and write frames with
//! [`write_frame`]'s vectored path, so a serialized frame is never
//! memcpy'd again before the socket.

use crate::codec::{put_str, put_str_seq, Reader};
use bytes::{BufMut, Bytes, BytesMut};
use fstore_common::{ComponentKind, DeltaRecord, Duration, Timestamp, Value, VectorBuf};
use fstore_core::{FeatureVector, RowSink};

pub(crate) use crate::codec::write_frame_vectored;
pub use crate::codec::{FrameEvent, FrameReader, WireError, MAX_FRAME_LEN};

/// Why a request was refused, carried on the wire inside
/// [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed or unsupported request.
    BadRequest = 1,
    /// Entity group, embedding table, or key does not exist.
    NotFound = 2,
    /// The staleness policy refused to serve over-age features.
    Stale = 3,
    /// Admission control shed the request: the queue is full.
    Overloaded = 4,
    /// The server is draining and no longer admits work.
    ShuttingDown = 5,
    /// Anything else that went wrong while handling the request.
    Internal = 6,
    /// No ANN index snapshot is live for the requested table (not built
    /// yet, or still building for the first time).
    IndexNotReady = 7,
    /// The query vector's dimension does not match the index.
    DimensionMismatch = 8,
    /// The request's deadline budget expired before a worker reached it;
    /// the server shed it unexecuted rather than burn a worker on an
    /// answer nobody is waiting for.
    DeadlineExceeded = 9,
    /// The request frame's declared length exceeds the server's
    /// configured per-request ceiling.
    FrameTooLarge = 10,
    /// A write (or admin request) carried a leader term this node cannot
    /// honour: either the node was never promoted for the shard, or the
    /// term does not match its current one. The message is always
    /// `current_term=N` so clients recover the node's term in typed form
    /// ([`ClientError::NotLeader`]) and re-route through a fresh map.
    ///
    /// [`ClientError::NotLeader`]: crate::ClientError::NotLeader
    NotLeader = 11,
}

impl ErrorCode {
    fn from_u8(tag: u8) -> Result<Self, WireError> {
        Ok(match tag {
            1 => ErrorCode::BadRequest,
            2 => ErrorCode::NotFound,
            3 => ErrorCode::Stale,
            4 => ErrorCode::Overloaded,
            5 => ErrorCode::ShuttingDown,
            6 => ErrorCode::Internal,
            7 => ErrorCode::IndexNotReady,
            8 => ErrorCode::DimensionMismatch,
            9 => ErrorCode::DeadlineExceeded,
            10 => ErrorCode::FrameTooLarge,
            11 => ErrorCode::NotLeader,
            tag => {
                return Err(WireError::BadTag {
                    ty: "ErrorCode",
                    tag,
                })
            }
        })
    }
}

/// Per-query ANN search knobs in wire form; `0` means "use the index's
/// configured default". Mirrors [`fstore_index::SearchParams`] but stays
/// fixed-width and totally ordered so batch coalescing can key on it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SearchOptions {
    /// HNSW beam width (0 = index default).
    pub ef: u32,
    /// IVF cells scanned (0 = index default).
    pub nprobe: u32,
    /// Force an exact scan regardless of index family.
    pub exhaustive: bool,
}

impl SearchOptions {
    /// The engine-side param struct this wire form denotes.
    pub fn to_params(self) -> fstore_index::SearchParams {
        fstore_index::SearchParams {
            ef: (self.ef > 0).then_some(self.ef as usize),
            nprobe: (self.nprobe > 0).then_some(self.nprobe as usize),
            exhaustive: self.exhaustive,
        }
    }

    fn encode(self, buf: &mut BytesMut) {
        buf.put_u32(self.ef);
        buf.put_u32(self.nprobe);
        buf.put_u8(u8::from(self.exhaustive));
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SearchOptions {
            ef: r.take_u32()?,
            nprobe: r.take_u32()?,
            exhaustive: r.take_u8()? != 0,
        })
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; also reports queue depth.
    Health,
    /// One entity's feature vector from a group.
    GetFeatures {
        group: String,
        entity: String,
        features: Vec<String>,
    },
    /// Many entities, same group and feature list (batch scoring).
    GetFeaturesBatch {
        group: String,
        entities: Vec<String>,
        features: Vec<String>,
    },
    /// One embedding vector; `table` is `"name"` (latest) or `"name@vN"`.
    GetEmbedding { table: String, key: String },
    /// `k` nearest stored entities to an explicit query vector, via the
    /// server's ANN index snapshot for `table`.
    SearchNearest {
        table: String,
        query: Vec<f32>,
        k: u32,
        options: SearchOptions,
    },
    /// `k` nearest stored entities to the vector stored under `key`
    /// (the key itself is excluded from the hits).
    SearchNearestByKey {
        table: String,
        key: String,
        k: u32,
        options: SearchOptions,
    },
    /// Replication: probe the leader's publication-log state (a follower's
    /// first call, and its heartbeat).
    ReplSubscribe,
    /// Replication: full state snapshot for follower bootstrap.
    ReplSnapshot,
    /// Replication: every publication strictly after sequence number
    /// `from_epoch` (the replication epoch the follower has applied).
    ReplDeltas { from_epoch: u64 },
    /// A deadline budget wrapped around another request: the client gives
    /// the server `budget_ms` from admission to finish the inner request;
    /// a worker that dequeues it after the budget lapsed sheds it with
    /// [`ErrorCode::DeadlineExceeded`] instead of executing it. Wrappers
    /// never nest.
    WithDeadline { budget_ms: u32, inner: Box<Request> },
    /// Write one entity's online features, fenced by a leader term: the
    /// server applies the row only when `term` equals its current term
    /// (and it holds a write provider), answering [`Response::PutAck`]
    /// after the write reaches the WAL commit point; any term mismatch is
    /// refused with [`ErrorCode::NotLeader`]. Non-idempotent: clients
    /// never blind-retry it.
    PutOnline {
        group: String,
        entity: String,
        values: Vec<(String, Value)>,
        term: u64,
    },
    /// Admin (control plane → data plane): become the write leader for
    /// `shard` at leader term `term`. A follower stops syncing and wraps
    /// its replicated components in a fresh leader; a node already leading
    /// at `term` or above answers idempotently. A stale `term` is refused
    /// with [`ErrorCode::NotLeader`].
    Promote { shard: u32, term: u64 },
    /// Admin (control plane → data plane): fence this node for `shard` at
    /// `term` — drop any write provider and refuse every write below (or
    /// at) the fenced term from now on. Sent to demoted endpoints after a
    /// promotion so a revived zombie leader cannot accept stale-term
    /// writes. Idempotent for equal-or-lower terms.
    Demote { shard: u32, term: u64 },
}

impl Request {
    /// Endpoint label for metrics.
    pub(crate) fn endpoint(&self) -> crate::metrics::Endpoint {
        use crate::metrics::Endpoint;
        match self {
            Request::Health => Endpoint::Health,
            Request::GetFeatures { .. } => Endpoint::GetFeatures,
            Request::GetFeaturesBatch { .. } => Endpoint::GetFeaturesBatch,
            Request::GetEmbedding { .. } => Endpoint::GetEmbedding,
            Request::SearchNearest { .. } => Endpoint::SearchNearest,
            Request::SearchNearestByKey { .. } => Endpoint::SearchNearestByKey,
            Request::ReplSubscribe => Endpoint::ReplSubscribe,
            Request::ReplSnapshot => Endpoint::ReplSnapshot,
            Request::ReplDeltas { .. } => Endpoint::ReplDeltas,
            Request::WithDeadline { inner, .. } => inner.endpoint(),
            Request::PutOnline { .. } => Endpoint::PutOnline,
            Request::Promote { .. } | Request::Demote { .. } => Endpoint::Promote,
        }
    }

    /// Whether re-sending this request cannot change server state — the
    /// precondition for a client to retry it on another connection or
    /// endpoint. Reads are idempotent; [`Request::PutOnline`] mutates the
    /// online store and [`Request::Promote`]/[`Request::Demote`] mutate a
    /// node's leadership, so none of them is ever blind-retried.
    pub fn is_idempotent(&self) -> bool {
        match self {
            Request::Health
            | Request::GetFeatures { .. }
            | Request::GetFeaturesBatch { .. }
            | Request::GetEmbedding { .. }
            | Request::SearchNearest { .. }
            | Request::SearchNearestByKey { .. }
            | Request::ReplSubscribe
            | Request::ReplSnapshot
            | Request::ReplDeltas { .. } => true,
            Request::WithDeadline { inner, .. } => inner.is_idempotent(),
            Request::PutOnline { .. } | Request::Promote { .. } | Request::Demote { .. } => false,
        }
    }

    /// Encode into a fresh buffer. Hot paths prefer
    /// [`encode_into`](Request::encode_into) with a pooled buffer.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Append this request's payload to `buf` (typically a pooled,
    /// cleared [`BytesMut`]), so the bytes can be written out vectored
    /// and the buffer reused without ever freezing it.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        match self {
            Request::Health => buf.put_u8(0),
            Request::GetFeatures {
                group,
                entity,
                features,
            } => {
                buf.put_u8(1);
                put_str(buf, group);
                put_str(buf, entity);
                put_str_seq(buf, features);
            }
            Request::GetFeaturesBatch {
                group,
                entities,
                features,
            } => {
                buf.put_u8(2);
                put_str(buf, group);
                put_str_seq(buf, entities);
                put_str_seq(buf, features);
            }
            Request::GetEmbedding { table, key } => {
                buf.put_u8(3);
                put_str(buf, table);
                put_str(buf, key);
            }
            Request::SearchNearest {
                table,
                query,
                k,
                options,
            } => {
                buf.put_u8(4);
                put_str(buf, table);
                buf.put_u32(query.len() as u32);
                for &x in query {
                    buf.put_f32(x);
                }
                buf.put_u32(*k);
                options.encode(buf);
            }
            Request::SearchNearestByKey {
                table,
                key,
                k,
                options,
            } => {
                buf.put_u8(5);
                put_str(buf, table);
                put_str(buf, key);
                buf.put_u32(*k);
                options.encode(buf);
            }
            Request::ReplSubscribe => buf.put_u8(6),
            Request::ReplSnapshot => buf.put_u8(7),
            Request::ReplDeltas { from_epoch } => {
                buf.put_u8(8);
                buf.put_u64(*from_epoch);
            }
            Request::WithDeadline { budget_ms, inner } => {
                buf.put_u8(9);
                buf.put_u32(*budget_ms);
                inner.encode_into(buf);
            }
            Request::PutOnline {
                group,
                entity,
                values,
                term,
            } => {
                buf.put_u8(10);
                buf.put_u64(*term);
                put_str(buf, group);
                put_str(buf, entity);
                buf.put_u32(values.len() as u32);
                for (feature, value) in values {
                    put_str(buf, feature);
                    put_value(buf, value);
                }
            }
            Request::Promote { shard, term } => {
                buf.put_u8(11);
                buf.put_u32(*shard);
                buf.put_u64(*term);
            }
            Request::Demote { shard, term } => {
                buf.put_u8(12);
                buf.put_u32(*shard);
                buf.put_u64(*term);
            }
        }
    }

    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let request = Self::decode_tagged(&mut r, true)?;
        r.finish()?;
        Ok(request)
    }

    /// Decode one tagged request. `allow_deadline` is false inside a
    /// [`Request::WithDeadline`] body: wrappers never nest, so a nested
    /// tag is a [`WireError::BadTag`], not a stack hazard.
    fn decode_tagged(r: &mut Reader<'_>, allow_deadline: bool) -> Result<Self, WireError> {
        let request = match r.take_u8()? {
            0 => Request::Health,
            1 => Request::GetFeatures {
                group: r.take_str()?,
                entity: r.take_str()?,
                features: r.take_str_seq()?,
            },
            2 => Request::GetFeaturesBatch {
                group: r.take_str()?,
                entities: r.take_str_seq()?,
                features: r.take_str_seq()?,
            },
            3 => Request::GetEmbedding {
                table: r.take_str()?,
                key: r.take_str()?,
            },
            4 => Request::SearchNearest {
                table: r.take_str()?,
                query: r.take_f32_seq()?,
                k: r.take_u32()?,
                options: SearchOptions::decode(r)?,
            },
            5 => Request::SearchNearestByKey {
                table: r.take_str()?,
                key: r.take_str()?,
                k: r.take_u32()?,
                options: SearchOptions::decode(r)?,
            },
            6 => Request::ReplSubscribe,
            7 => Request::ReplSnapshot,
            8 => Request::ReplDeltas {
                from_epoch: r.take_u64()?,
            },
            9 if allow_deadline => Request::WithDeadline {
                budget_ms: r.take_u32()?,
                inner: Box::new(Self::decode_tagged(r, false)?),
            },
            10 => {
                let term = r.take_u64()?;
                let group = r.take_str()?;
                let entity = r.take_str()?;
                let n = r.take_len()?;
                let mut values = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let feature = r.take_str()?;
                    values.push((feature, take_value(r)?));
                }
                Request::PutOnline {
                    group,
                    entity,
                    values,
                    term,
                }
            }
            11 => Request::Promote {
                shard: r.take_u32()?,
                term: r.take_u64()?,
            },
            12 => Request::Demote {
                shard: r.take_u32()?,
                term: r.take_u64()?,
            },
            tag => return Err(WireError::BadTag { ty: "Request", tag }),
        };
        Ok(request)
    }
}

/// A served feature vector in wire form (ages in milliseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct WireVector {
    pub entity: String,
    pub features: Vec<String>,
    pub values: Vec<Value>,
    pub ages_ms: Vec<Option<i64>>,
    pub stale: Vec<String>,
    /// The store publication epoch the vector was served at. Every member
    /// of a batch carries the same epoch (the server resolves it once per
    /// batch), so clients can assert a response is internally consistent.
    pub epoch: u64,
}

impl From<&FeatureVector> for WireVector {
    fn from(v: &FeatureVector) -> Self {
        WireVector {
            entity: v.entity.0.clone(),
            features: v.features.clone(),
            values: v.values.clone(),
            ages_ms: v.ages.iter().map(|a| a.map(Duration::as_millis)).collect(),
            stale: v.stale.clone(),
            epoch: v.epoch.as_u64(),
        }
    }
}

/// A [`WireVector`] whose `features` are filled in collects its own row —
/// the typed twin of `RowEncoder`.
impl RowSink for WireVector {
    fn slot(&mut self, index: usize, value: &Value, age: Option<Duration>, stale: bool) {
        self.values.push(value.clone());
        self.ages_ms.push(age.map(Duration::as_millis));
        if stale {
            self.stale.push(self.features[index].clone());
        }
    }
}

/// One nearest-neighbour hit on the wire: entity key plus squared-L2
/// distance, ascending by distance within a [`Response::Neighbors`].
#[derive(Debug, Clone, PartialEq)]
pub struct WireHit {
    pub key: String,
    pub distance: f32,
}

/// One publication delta on the wire — the transport form of a
/// [`DeltaRecord`] from the leader's publication log. The component rides as
/// its stable `u8` tag; unknown tags are rejected at decode time.
#[derive(Debug, Clone, PartialEq)]
pub struct WireDelta {
    /// Leader-wide replication sequence number.
    pub seq: u64,
    /// Which component published.
    pub component: ComponentKind,
    /// Component cell epoch the publication was stamped with.
    pub component_epoch: u64,
    /// Component-defined serialized payload.
    pub body: String,
}

impl From<&DeltaRecord> for WireDelta {
    fn from(r: &DeltaRecord) -> Self {
        WireDelta {
            seq: r.seq,
            component: r.component,
            component_epoch: r.component_epoch,
            body: r.body.clone(),
        }
    }
}

impl WireDelta {
    /// Back to the log-side record form.
    pub fn to_record(&self) -> DeltaRecord {
        DeltaRecord {
            seq: self.seq,
            component: self.component,
            component_epoch: self.component_epoch,
            body: self.body.clone(),
        }
    }

    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64(self.seq);
        buf.put_u8(self.component.as_u8());
        buf.put_u64(self.component_epoch);
        put_str(buf, &self.body);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let seq = r.take_u64()?;
        let tag = r.take_u8()?;
        let component = ComponentKind::from_u8(tag).ok_or(WireError::BadTag {
            ty: "ComponentKind",
            tag,
        })?;
        Ok(WireDelta {
            seq,
            component,
            component_epoch: r.take_u64()?,
            body: r.take_str()?,
        })
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Health {
        queue_depth: u32,
        draining: bool,
    },
    Features(WireVector),
    FeaturesBatch(Vec<WireVector>),
    /// One embedding vector plus the table version it was served from, so
    /// clients can detect cross-version reads during snapshot swaps (§4's
    /// "dot product loses meaning" hazard). `epoch` is the embedding
    /// store's publication epoch at serve time — version and vector come
    /// from that single snapshot. The vector is a [`VectorBuf`] so the
    /// server encodes straight from the store's shared row (or the tier
    /// cache's block) without a per-request copy; the wire bytes are
    /// unchanged from the `Vec<f32>` era (pinned by the golden frames).
    Embedding {
        dim: u32,
        version: u32,
        epoch: u64,
        vector: VectorBuf,
    },
    /// Nearest-neighbour hits, stamped with the embedding-table version
    /// the index snapshot was built from and the snapshot's generation
    /// counter (the catalog's publication epoch) — enough for a client to
    /// notice a mid-stream index swap.
    Neighbors {
        table_version: u32,
        index_generation: u64,
        hits: Vec<WireHit>,
    },
    Error {
        code: ErrorCode,
        message: String,
    },
    /// Replication: the leader's publication-log state, answering
    /// [`Request::ReplSubscribe`].
    ReplState {
        /// Sequence number of the leader's most recent publication.
        leader_epoch: u64,
        /// Oldest sequence number the delta ring still retains.
        oldest_retained: u64,
        /// The ring's retention bound (number of records).
        retention: u32,
    },
    /// Replication: a full state snapshot (opaque, `fstore-repl`-encoded)
    /// captured at replication epoch `repl_epoch`. The payload is [`Bytes`]
    /// so a snapshot decoded from an owned frame
    /// (`Response::decode_frame`) aliases that frame instead of copying
    /// multiple megabytes.
    ReplSnapshot {
        repl_epoch: u64,
        payload: Bytes,
    },
    /// Replication: publications after the requested epoch. `lagged` means
    /// the follower fell past the retention window and `deltas` is empty —
    /// it must re-bootstrap via [`Request::ReplSnapshot`].
    ReplDeltas {
        leader_epoch: u64,
        lagged: bool,
        deltas: Vec<WireDelta>,
    },
    /// A fenced write (or admin request) was accepted. For
    /// [`Request::PutOnline`], `epoch` is the replication sequence number
    /// the write committed at (it is in the WAL before this frame leaves
    /// the server) and `term` echoes the leader term it was accepted
    /// under; for `Promote`/`Demote`, `epoch` is 0 and `term` is the
    /// node's term after the transition.
    PutAck {
        epoch: u64,
        term: u64,
    },
}

impl Response {
    pub fn error(code: ErrorCode, message: impl Into<String>) -> Self {
        Response::Error {
            code,
            message: message.into(),
        }
    }

    /// Encode into a fresh buffer. Hot paths prefer
    /// [`encode_into`](Response::encode_into) with a pooled buffer.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Append this response's payload to `buf` (typically a pooled,
    /// cleared [`BytesMut`]).
    pub fn encode_into(&self, buf: &mut BytesMut) {
        match self {
            Response::Health {
                queue_depth,
                draining,
            } => {
                buf.put_u8(0);
                buf.put_u32(*queue_depth);
                buf.put_u8(u8::from(*draining));
            }
            Response::Features(v) => {
                buf.put_u8(1);
                put_vector(buf, v);
            }
            Response::FeaturesBatch(vs) => {
                buf.put_u8(2);
                buf.put_u32(vs.len() as u32);
                for v in vs {
                    put_vector(buf, v);
                }
            }
            Response::Embedding {
                dim,
                version,
                epoch,
                vector,
            } => {
                buf.put_u8(3);
                buf.put_u32(*dim);
                buf.put_u32(*version);
                buf.put_u64(*epoch);
                buf.put_u32(vector.len() as u32);
                for &x in vector.as_slice() {
                    buf.put_f32(x);
                }
            }
            Response::Error { code, message } => {
                buf.put_u8(4);
                buf.put_u8(*code as u8);
                put_str(buf, message);
            }
            Response::Neighbors {
                table_version,
                index_generation,
                hits,
            } => {
                buf.put_u8(5);
                buf.put_u32(*table_version);
                buf.put_u64(*index_generation);
                buf.put_u32(hits.len() as u32);
                for hit in hits {
                    put_str(buf, &hit.key);
                    buf.put_f32(hit.distance);
                }
            }
            Response::ReplState {
                leader_epoch,
                oldest_retained,
                retention,
            } => {
                buf.put_u8(6);
                buf.put_u64(*leader_epoch);
                buf.put_u64(*oldest_retained);
                buf.put_u32(*retention);
            }
            Response::ReplSnapshot {
                repl_epoch,
                payload,
            } => {
                buf.put_u8(7);
                buf.put_u64(*repl_epoch);
                buf.put_u32(payload.len() as u32);
                buf.put_slice(payload);
            }
            Response::ReplDeltas {
                leader_epoch,
                lagged,
                deltas,
            } => {
                buf.put_u8(8);
                buf.put_u64(*leader_epoch);
                buf.put_u8(u8::from(*lagged));
                buf.put_u32(deltas.len() as u32);
                for d in deltas {
                    d.encode(buf);
                }
            }
            Response::PutAck { epoch, term } => {
                buf.put_u8(9);
                buf.put_u64(*epoch);
                buf.put_u64(*term);
            }
        }
    }

    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        Self::decode_reader(Reader::new(payload))
    }

    /// Decode from a shared frame: blob fields (the [`ReplSnapshot`]
    /// payload) alias the frame's storage instead of copying.
    ///
    /// [`ReplSnapshot`]: Response::ReplSnapshot
    pub(crate) fn decode_frame(frame: &Bytes) -> Result<Self, WireError> {
        Self::decode_reader(Reader::shared(frame))
    }

    fn decode_reader(mut r: Reader<'_>) -> Result<Self, WireError> {
        let response = match r.take_u8()? {
            0 => Response::Health {
                queue_depth: r.take_u32()?,
                draining: r.take_u8()? != 0,
            },
            1 => Response::Features(take_vector(&mut r)?),
            2 => {
                let n = r.take_len()?;
                let mut vs = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    vs.push(take_vector(&mut r)?);
                }
                Response::FeaturesBatch(vs)
            }
            3 => {
                let dim = r.take_u32()?;
                let version = r.take_u32()?;
                let epoch = r.take_u64()?;
                let vector = r.take_f32_seq()?.into();
                Response::Embedding {
                    dim,
                    version,
                    epoch,
                    vector,
                }
            }
            4 => {
                let code = ErrorCode::from_u8(r.take_u8()?)?;
                Response::Error {
                    code,
                    message: r.take_str()?,
                }
            }
            5 => {
                let table_version = r.take_u32()?;
                let index_generation = r.take_u64()?;
                let n = r.take_len()?;
                let mut hits = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    hits.push(WireHit {
                        key: r.take_str()?,
                        distance: r.take_f32()?,
                    });
                }
                Response::Neighbors {
                    table_version,
                    index_generation,
                    hits,
                }
            }
            6 => Response::ReplState {
                leader_epoch: r.take_u64()?,
                oldest_retained: r.take_u64()?,
                retention: r.take_u32()?,
            },
            7 => Response::ReplSnapshot {
                repl_epoch: r.take_u64()?,
                payload: r.take_blob()?,
            },
            8 => {
                let leader_epoch = r.take_u64()?;
                let lagged = r.take_u8()? != 0;
                let n = r.take_len()?;
                let mut deltas = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    deltas.push(WireDelta::decode(&mut r)?);
                }
                Response::ReplDeltas {
                    leader_epoch,
                    lagged,
                    deltas,
                }
            }
            9 => Response::PutAck {
                epoch: r.take_u64()?,
                term: r.take_u64()?,
            },
            tag => {
                return Err(WireError::BadTag {
                    ty: "Response",
                    tag,
                })
            }
        };
        r.finish()?;
        Ok(response)
    }
}

// ---------------------------------------------------------------- framing

/// Write `payload` as one frame: `u32` big-endian length, then bytes.
/// One vectored syscall in the common case.
pub fn write_frame<W: std::io::Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    write_frame_vectored(w, payload)
}

// ------------------------------------------------------------- composites

/// One tagged [`Value`]: tag `u8` (0 null, 1 int, 2 float, 3 bool, 4 str,
/// 5 timestamp), then its payload.
pub fn put_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Null => buf.put_u8(0),
        Value::Int(i) => {
            buf.put_u8(1);
            buf.put_i64(*i);
        }
        Value::Float(f) => {
            buf.put_u8(2);
            buf.put_f64(*f);
        }
        Value::Bool(b) => {
            buf.put_u8(3);
            buf.put_u8(u8::from(*b));
        }
        Value::Str(s) => {
            buf.put_u8(4);
            put_str(buf, s);
        }
        Value::Timestamp(t) => {
            buf.put_u8(5);
            buf.put_i64(t.as_millis());
        }
    }
}

fn put_vector(buf: &mut BytesMut, v: &WireVector) {
    put_str(buf, &v.entity);
    buf.put_u64(v.epoch);
    put_str_seq(buf, &v.features);
    buf.put_u32(v.values.len() as u32);
    for value in &v.values {
        put_value(buf, value);
    }
    buf.put_u32(v.ages_ms.len() as u32);
    for age in &v.ages_ms {
        put_age(buf, *age);
    }
    put_str_seq(buf, &v.stale);
}

fn put_age(buf: &mut BytesMut, age_ms: Option<i64>) {
    match age_ms {
        None => buf.put_u8(0),
        Some(ms) => {
            buf.put_u8(1);
            buf.put_i64(ms);
        }
    }
}

/// Streams served rows into a response frame in exactly the byte layout a
/// [`WireVector`] encodes to, without building one: values are encoded
/// straight from the store's memory as the row is visited, while the age
/// bytes and stale indices — which the layout places *after* all values —
/// wait in reusable scratch. One encoder per worker; at steady state it
/// allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct RowEncoder {
    /// `put_str_seq(features)` + the value count: identical for every row
    /// of one request, so encoded once in [`begin`](RowEncoder::begin).
    feature_block: BytesMut,
    ages: BytesMut,
    stale: Vec<u32>,
}

impl RowEncoder {
    /// Start a request for `features`; every following
    /// [`put_row`](RowEncoder::put_row) must pass the same list.
    pub(crate) fn begin(&mut self, features: &[String]) {
        self.feature_block.clear();
        put_str_seq(&mut self.feature_block, features);
        self.feature_block.put_u32(features.len() as u32);
    }

    /// Append one row to `buf`. `fill` must call [`RowSink::slot`] exactly
    /// once per feature, in order; when it fails, `buf` is left holding a
    /// partial row (the caller truncates it) and
    /// [`stale_names`](RowEncoder::stale_names) still names the slots
    /// flagged so far.
    pub(crate) fn put_row<E>(
        &mut self,
        buf: &mut BytesMut,
        entity: &str,
        epoch: u64,
        features: &[String],
        fill: impl FnOnce(&mut RowWriter<'_>) -> Result<(), E>,
    ) -> Result<(), E> {
        put_str(buf, entity);
        buf.put_u64(epoch);
        buf.put_slice(&self.feature_block);
        self.ages.clear();
        self.stale.clear();
        fill(&mut RowWriter {
            buf,
            ages: &mut self.ages,
            stale: &mut self.stale,
        })?;
        buf.put_u32(features.len() as u32);
        buf.put_slice(&self.ages);
        buf.put_u32(self.stale.len() as u32);
        for name in self.stale_names(features) {
            put_str(buf, name);
        }
        Ok(())
    }

    /// The features the last row flagged stale.
    pub(crate) fn stale_names<'a>(
        &'a self,
        features: &'a [String],
    ) -> impl Iterator<Item = &'a str> {
        self.stale.iter().map(|&i| features[i as usize].as_str())
    }
}

/// The [`RowSink`] half of a [`RowEncoder`]: one row being written.
pub(crate) struct RowWriter<'a> {
    buf: &'a mut BytesMut,
    ages: &'a mut BytesMut,
    stale: &'a mut Vec<u32>,
}

impl RowSink for RowWriter<'_> {
    fn slot(&mut self, index: usize, value: &Value, age: Option<Duration>, stale: bool) {
        put_value(self.buf, value);
        put_age(self.ages, age.map(Duration::as_millis));
        if stale {
            self.stale.push(index as u32);
        }
    }
}

/// Decode a [`put_value`] encoding.
pub fn take_value(r: &mut Reader<'_>) -> Result<Value, WireError> {
    Ok(match r.take_u8()? {
        0 => Value::Null,
        1 => Value::Int(r.take_i64()?),
        2 => Value::Float(r.take_f64()?),
        3 => Value::Bool(r.take_u8()? != 0),
        4 => Value::Str(r.take_str()?),
        5 => Value::Timestamp(Timestamp::millis(r.take_i64()?)),
        tag => return Err(WireError::BadTag { ty: "Value", tag }),
    })
}

fn take_vector(r: &mut Reader<'_>) -> Result<WireVector, WireError> {
    let entity = r.take_str()?;
    let epoch = r.take_u64()?;
    let features = r.take_str_seq()?;
    let n_values = r.take_len()?;
    let mut values = Vec::with_capacity(n_values.min(1024));
    for _ in 0..n_values {
        values.push(take_value(r)?);
    }
    let n_ages = r.take_len()?;
    let mut ages_ms = Vec::with_capacity(n_ages.min(1024));
    for _ in 0..n_ages {
        ages_ms.push(match r.take_u8()? {
            0 => None,
            _ => Some(r.take_i64()?),
        });
    }
    let stale = r.take_str_seq()?;
    Ok(WireVector {
        entity,
        features,
        values,
        ages_ms,
        stale,
        epoch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_layout_is_length_prefixed_big_endian() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        assert_eq!(&wire[..4], &5u32.to_be_bytes());
        assert_eq!(&wire[4..9], b"hello");
        assert_eq!(&wire[9..13], &0u32.to_be_bytes());
        assert_eq!(wire.len(), 13);
    }

    #[test]
    fn request_round_trips() {
        let req = Request::GetFeatures {
            group: "user".into(),
            entity: "u1".into(),
            features: vec!["a".into(), "b".into()],
        };
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    #[test]
    fn encode_into_matches_encode_and_appends() {
        let req = Request::GetEmbedding {
            table: "emb".into(),
            key: "k".into(),
        };
        let mut buf = BytesMut::new();
        buf.put_u8(0xAA); // pre-existing byte: encode_into appends
        req.encode_into(&mut buf);
        assert_eq!(buf.as_slice()[0], 0xAA);
        assert_eq!(&buf.as_slice()[1..], &req.encode()[..]);
    }

    #[test]
    fn response_error_round_trips() {
        let resp = Response::error(ErrorCode::Overloaded, "queue full");
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn search_request_and_neighbors_round_trip() {
        let req = Request::SearchNearest {
            table: "emb".into(),
            query: vec![0.5, -1.25, 3.0],
            k: 10,
            options: SearchOptions {
                ef: 64,
                nprobe: 0,
                exhaustive: false,
            },
        };
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);

        let by_key = Request::SearchNearestByKey {
            table: "emb@v2".into(),
            key: "u7".into(),
            k: 5,
            options: SearchOptions {
                ef: 0,
                nprobe: 16,
                exhaustive: true,
            },
        };
        assert_eq!(Request::decode(&by_key.encode()).unwrap(), by_key);

        let resp = Response::Neighbors {
            table_version: 3,
            index_generation: u64::MAX,
            hits: vec![
                WireHit {
                    key: "a".into(),
                    distance: 0.0,
                },
                WireHit {
                    key: "b".into(),
                    distance: 1.5,
                },
            ],
        };
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn index_error_codes_round_trip() {
        for code in [ErrorCode::IndexNotReady, ErrorCode::DimensionMismatch] {
            let resp = Response::error(code, "index");
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn repl_frames_round_trip() {
        for req in [
            Request::ReplSubscribe,
            Request::ReplSnapshot,
            Request::ReplDeltas { from_epoch: 42 },
        ] {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
        let state = Response::ReplState {
            leader_epoch: 9,
            oldest_retained: 3,
            retention: 64,
        };
        assert_eq!(Response::decode(&state.encode()).unwrap(), state);
        let snap = Response::ReplSnapshot {
            repl_epoch: 5,
            payload: vec![0, 1, 2, 255].into(),
        };
        assert_eq!(Response::decode(&snap.encode()).unwrap(), snap);
        let deltas = Response::ReplDeltas {
            leader_epoch: 7,
            lagged: false,
            deltas: vec![WireDelta {
                seq: 6,
                component: ComponentKind::Embeddings,
                component_epoch: 4,
                body: "{\"versions\":[]}".into(),
            }],
        };
        assert_eq!(Response::decode(&deltas.encode()).unwrap(), deltas);
    }

    #[test]
    fn snapshot_payload_decoded_from_a_shared_frame_is_zero_copy() {
        let snap = Response::ReplSnapshot {
            repl_epoch: 5,
            payload: vec![7u8; 1024].into(),
        };
        let frame = snap.encode();
        let decoded = Response::decode_frame(&frame).unwrap();
        assert_eq!(decoded, snap);
        let Response::ReplSnapshot { payload, .. } = decoded else {
            unreachable!()
        };
        // The payload view points into the frame's storage: its slice
        // sits inside the frame's slice address range.
        let frame_range = frame.as_slice().as_ptr_range();
        assert!(frame_range.contains(&payload.as_slice().as_ptr()));
    }

    #[test]
    fn unknown_component_tag_is_rejected() {
        let good = Response::ReplDeltas {
            leader_epoch: 1,
            lagged: false,
            deltas: vec![WireDelta {
                seq: 1,
                component: ComponentKind::Offline,
                component_epoch: 1,
                body: String::new(),
            }],
        };
        let mut bytes = good.encode().to_vec();
        // The component tag sits right after the response tag (1), the
        // leader epoch (8), the lagged flag (1), the count (4), and the
        // delta's seq (8).
        let tag_at = 1 + 8 + 1 + 4 + 8;
        assert_eq!(bytes[tag_at], ComponentKind::Offline.as_u8());
        bytes[tag_at] = 77;
        assert_eq!(
            Response::decode(&bytes),
            Err(WireError::BadTag {
                ty: "ComponentKind",
                tag: 77
            })
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = Request::Health.encode().to_vec();
        payload.push(0);
        assert_eq!(Request::decode(&payload), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn bad_tags_are_rejected() {
        assert!(matches!(
            Request::decode(&[13]),
            Err(WireError::BadTag {
                ty: "Request",
                tag: 13
            })
        ));
        assert!(matches!(
            Response::decode(&[10]),
            Err(WireError::BadTag { .. })
        ));
    }

    #[test]
    fn write_and_admin_frames_round_trip() {
        let put = Request::PutOnline {
            group: "user".into(),
            entity: "u42".into(),
            values: vec![
                ("clicks".into(), Value::Int(7)),
                ("ctr".into(), Value::Float(0.25)),
                ("vip".into(), Value::Bool(true)),
                ("country".into(), Value::Str("de".into())),
                ("seen".into(), Value::Timestamp(Timestamp::millis(60_000))),
                ("gone".into(), Value::Null),
            ],
            term: 3,
        };
        assert_eq!(Request::decode(&put.encode()).unwrap(), put);
        assert!(!put.is_idempotent());
        assert_eq!(put.endpoint(), crate::metrics::Endpoint::PutOnline);

        for req in [
            Request::Promote { shard: 2, term: 5 },
            Request::Demote { shard: 2, term: 5 },
        ] {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
            assert!(!req.is_idempotent());
            assert_eq!(req.endpoint(), crate::metrics::Endpoint::Promote);
        }

        // A deadline-wrapped write keeps the write's retry classification.
        let wrapped = Request::WithDeadline {
            budget_ms: 100,
            inner: Box::new(put),
        };
        assert_eq!(Request::decode(&wrapped.encode()).unwrap(), wrapped);
        assert!(!wrapped.is_idempotent());

        let ack = Response::PutAck { epoch: 17, term: 3 };
        assert_eq!(Response::decode(&ack.encode()).unwrap(), ack);
        let fenced = Response::error(ErrorCode::NotLeader, "current_term=4");
        assert_eq!(Response::decode(&fenced.encode()).unwrap(), fenced);
    }

    #[test]
    fn deadline_wrapper_round_trips_and_never_nests() {
        let req = Request::WithDeadline {
            budget_ms: 250,
            inner: Box::new(Request::GetEmbedding {
                table: "emb".into(),
                key: "k1".into(),
            }),
        };
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        assert_eq!(req.endpoint(), crate::metrics::Endpoint::GetEmbedding);
        assert!(req.is_idempotent());

        // A wrapper inside a wrapper is a protocol violation, not a
        // recursion: the inner tag 9 is rejected as unknown.
        let nested = Request::WithDeadline {
            budget_ms: 1,
            inner: Box::new(Request::Health),
        };
        let mut bytes = vec![9u8, 0, 0, 0, 5];
        bytes.extend_from_slice(&nested.encode());
        assert_eq!(
            Request::decode(&bytes),
            Err(WireError::BadTag {
                ty: "Request",
                tag: 9
            })
        );
    }

    #[test]
    fn new_error_codes_round_trip() {
        for code in [ErrorCode::DeadlineExceeded, ErrorCode::FrameTooLarge] {
            let resp = Response::error(code, "deadline/frame");
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }
}
