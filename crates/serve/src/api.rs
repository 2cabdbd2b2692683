//! The unified client API: one trait covering the full request surface,
//! one builder for the resilient client.
//!
//! Behind [`Transport`] sit exactly two client types in this crate: the
//! bare [`FeatureClient`](crate::FeatureClient) (one connection, no
//! retries) and [`FailoverClient`] (one or many endpoints, with reconnect,
//! retry, backoff and circuit breakers); the shard router is a third
//! implementor. The split here is:
//!
//! * [`Transport`] — the one thing a concrete client must provide: send a
//!   [`Request`], produce a [`Response`]. Retry loops, circuit breakers,
//!   and the shard router all live behind this seam.
//! * [`StoreApi`] — the typed request surface (`get_features{,_batch}`,
//!   `get_embedding`, `search_nearest{,_by_key}`, writes and admin),
//!   blanket-implemented for every [`Transport`] via the shared response
//!   decoders, so the encode/decode logic exists exactly once.
//! * [`ClientBuilder`] — the validated way to construct a
//!   [`FailoverClient`]: endpoints → socket timeouts → retry policy.
//!   Validation mirrors
//!   [`ServeConfig::builder`]: a configuration that would silently
//!   degenerate is refused instead of constructed.
//!
//! [`ServeConfig::builder`]: crate::server::ServeConfig::builder

use crate::client::{ClientConfig, ClientError, EmbeddingRead, Neighbors};
use crate::failover::{BreakerConfig, FailoverClient};
use crate::protocol::{ErrorCode, Request, Response, SearchOptions, WireVector};
use crate::retry::RetryPolicy;
use fstore_common::{FsError, Value};
use std::time::Duration;

/// A server's acknowledgement of a write or leadership admin request.
/// An ack means the write is *durable*: the leader appended it (and its
/// commit record) to the WAL before answering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteAck {
    /// The publication epoch (log sequence) the write landed at; `0` for
    /// admin acks (promote/demote), which publish nothing.
    pub(crate) epoch: u64,
    /// The leader term the acknowledging node held when it applied the
    /// request.
    pub term: u64,
}

/// The one operation a concrete client must implement: one request in,
/// one response out. Everything typed rides on top via [`StoreApi`]'s
/// blanket implementation.
pub trait Transport {
    /// Send one request and wait for its response.
    fn call(&mut self, request: &Request) -> Result<Response, ClientError>;

    /// Send a slice of requests and collect their responses in request
    /// order. The default implementation is sequential (one round trip
    /// per request); transports that own a socket override it to
    /// pipeline — all frames written before the first response is read,
    /// as [`FeatureClient::call_many`](crate::FeatureClient::call_many)
    /// does. A transport failure fails the whole batch: responses are
    /// positional, so a partial result would leave the caller unable to
    /// say which request each response answers.
    fn call_many(&mut self, requests: &[Request]) -> Result<Vec<Response>, ClientError> {
        requests.iter().map(|r| self.call(r)).collect()
    }
}

/// The full typed request surface of a feature store endpoint — local
/// server, failover group, or sharded cluster behind a router. Implemented
/// for free by every [`Transport`].
pub trait StoreApi {
    /// One entity's feature vector.
    fn get_features(
        &mut self,
        group: &str,
        entity: &str,
        features: &[&str],
    ) -> Result<WireVector, ClientError>;

    /// Many entities, one group and feature list.
    fn get_features_batch(
        &mut self,
        group: &str,
        entities: &[&str],
        features: &[&str],
    ) -> Result<Vec<WireVector>, ClientError>;

    /// One embedding vector; `table` is `"name"` (latest) or `"name@vN"`.
    fn get_embedding(&mut self, table: &str, key: &str) -> Result<EmbeddingRead, ClientError>;

    /// `k` nearest stored entities to an explicit query vector.
    fn search_nearest(
        &mut self,
        table: &str,
        query: &[f32],
        k: u32,
        options: SearchOptions,
    ) -> Result<Neighbors, ClientError>;

    /// `k` nearest stored entities to the vector stored under `key` (the
    /// key itself is excluded from the hits).
    fn search_nearest_by_key(
        &mut self,
        table: &str,
        key: &str,
        k: u32,
        options: SearchOptions,
    ) -> Result<Neighbors, ClientError>;

    /// Write one entity's feature values through the leader at `term`.
    /// Non-idempotent: layered clients never blind-retry it (see
    /// [`ClientError::WriteFailed`]), and a node whose leader term does
    /// not match answers [`ClientError::NotLeader`] instead of applying.
    fn put_online(
        &mut self,
        group: &str,
        entity: &str,
        values: &[(&str, Value)],
        term: u64,
    ) -> Result<WriteAck, ClientError>;

    /// Tell the node serving `shard` to assume leadership at `term`
    /// (control-plane admin; a sitting leader treats an equal-or-newer
    /// term as a no-op re-affirmation).
    fn promote(&mut self, shard: u32, term: u64) -> Result<WriteAck, ClientError>;

    /// Fence the node serving `shard`: drop its write authority and fast-
    /// forward it to `term` so writes stamped with any older term are
    /// refused (control-plane admin, sent to demoted ex-leaders).
    fn demote(&mut self, shard: u32, term: u64) -> Result<WriteAck, ClientError>;
}

impl<T: Transport + ?Sized> StoreApi for T {
    fn get_features(
        &mut self,
        group: &str,
        entity: &str,
        features: &[&str],
    ) -> Result<WireVector, ClientError> {
        let request = Request::GetFeatures {
            group: group.to_string(),
            entity: entity.to_string(),
            features: features.iter().map(|s| s.to_string()).collect(),
        };
        expect_features(self.call(&request)?)
    }

    fn get_features_batch(
        &mut self,
        group: &str,
        entities: &[&str],
        features: &[&str],
    ) -> Result<Vec<WireVector>, ClientError> {
        let request = Request::GetFeaturesBatch {
            group: group.to_string(),
            entities: entities.iter().map(|s| s.to_string()).collect(),
            features: features.iter().map(|s| s.to_string()).collect(),
        };
        expect_features_batch(self.call(&request)?)
    }

    fn get_embedding(&mut self, table: &str, key: &str) -> Result<EmbeddingRead, ClientError> {
        let request = Request::GetEmbedding {
            table: table.to_string(),
            key: key.to_string(),
        };
        expect_embedding(self.call(&request)?)
    }

    fn search_nearest(
        &mut self,
        table: &str,
        query: &[f32],
        k: u32,
        options: SearchOptions,
    ) -> Result<Neighbors, ClientError> {
        let request = Request::SearchNearest {
            table: table.to_string(),
            query: query.to_vec(),
            k,
            options,
        };
        expect_neighbors(self.call(&request)?)
    }

    fn search_nearest_by_key(
        &mut self,
        table: &str,
        key: &str,
        k: u32,
        options: SearchOptions,
    ) -> Result<Neighbors, ClientError> {
        let request = Request::SearchNearestByKey {
            table: table.to_string(),
            key: key.to_string(),
            k,
            options,
        };
        expect_neighbors(self.call(&request)?)
    }

    fn put_online(
        &mut self,
        group: &str,
        entity: &str,
        values: &[(&str, Value)],
        term: u64,
    ) -> Result<WriteAck, ClientError> {
        let request = Request::PutOnline {
            group: group.to_string(),
            entity: entity.to_string(),
            values: values
                .iter()
                .map(|(f, v)| (f.to_string(), v.clone()))
                .collect(),
            term,
        };
        expect_put_ack(self.call(&request)?)
    }

    fn promote(&mut self, shard: u32, term: u64) -> Result<WriteAck, ClientError> {
        expect_put_ack(self.call(&Request::Promote { shard, term })?)
    }

    fn demote(&mut self, shard: u32, term: u64) -> Result<WriteAck, ClientError> {
        expect_put_ack(self.call(&Request::Demote { shard, term })?)
    }
}

// ------------------------------------------------------- response decoders
//
// The single home of "this request type expects that response type" — every
// StoreApi implementor (blanket or hand-rolled, like the shard router's
// scatter-gather paths) decodes through these.

/// Decode a [`Response::Features`] answer.
pub(crate) fn expect_features(response: Response) -> Result<WireVector, ClientError> {
    match response {
        Response::Features(v) => Ok(v),
        Response::Error { code, message } => Err(ClientError::Server { code, message }),
        _ => Err(ClientError::UnexpectedResponse("Features")),
    }
}

/// Decode a [`Response::FeaturesBatch`] answer.
pub(crate) fn expect_features_batch(response: Response) -> Result<Vec<WireVector>, ClientError> {
    match response {
        Response::FeaturesBatch(vs) => Ok(vs),
        Response::Error { code, message } => Err(ClientError::Server { code, message }),
        _ => Err(ClientError::UnexpectedResponse("FeaturesBatch")),
    }
}

/// Decode a [`Response::Embedding`] answer.
pub fn expect_embedding(response: Response) -> Result<EmbeddingRead, ClientError> {
    match response {
        Response::Embedding {
            dim,
            version,
            epoch,
            vector,
        } => Ok(EmbeddingRead {
            vector: vector.into_vec(),
            dim: dim as usize,
            version,
            epoch,
        }),
        Response::Error { code, message } => Err(ClientError::Server { code, message }),
        _ => Err(ClientError::UnexpectedResponse("Embedding")),
    }
}

/// Decode a [`Response::PutAck`] answer. A `NotLeader` error frame is
/// lifted into the typed [`ClientError::NotLeader`] — the server encodes
/// its current term as the error message (`current_term=N`), and this is
/// the one place that parses it back out.
pub(crate) fn expect_put_ack(response: Response) -> Result<WriteAck, ClientError> {
    match response {
        Response::PutAck { epoch, term } => Ok(WriteAck { epoch, term }),
        Response::Error {
            code: ErrorCode::NotLeader,
            message,
        } => {
            let current_term = message
                .strip_prefix("current_term=")
                .and_then(|t| t.parse().ok())
                .unwrap_or(0);
            Err(ClientError::NotLeader { current_term })
        }
        Response::Error { code, message } => Err(ClientError::Server { code, message }),
        _ => Err(ClientError::UnexpectedResponse("PutAck")),
    }
}

/// Decode a [`Response::Neighbors`] answer.
pub(crate) fn expect_neighbors(response: Response) -> Result<Neighbors, ClientError> {
    match response {
        Response::Neighbors {
            table_version,
            index_generation,
            hits,
        } => Ok(Neighbors {
            table_version,
            index_generation,
            hits,
        }),
        Response::Error { code, message } => Err(ClientError::Server { code, message }),
        _ => Err(ClientError::UnexpectedResponse("Neighbors")),
    }
}

// ------------------------------------------------------------ the builder

/// The validated way to construct a [`FailoverClient`] — endpoints, then
/// socket timeouts, then retry policy. One endpoint or several (leader
/// first), the result is the same type: it connects lazily, retries
/// idempotent requests per the retry policy ([`RetryPolicy::default`]
/// unless set), and keeps a circuit breaker per endpoint
/// ([`BreakerConfig::default`]). A bare
/// connection with no retries is
/// [`FeatureClient::connect_with`](crate::FeatureClient::connect_with).
///
/// ```no_run
/// use fstore_serve::{ClientBuilder, RetryPolicy, StoreApi};
///
/// let mut client = ClientBuilder::new()
///     .endpoint("127.0.0.1:7600")
///     .endpoint("127.0.0.1:7601") // follower: reads fail over to it
///     .retry(RetryPolicy::default())
///     .build()
///     .unwrap();
/// let v = client.get_features("user", "u1", &["score"]).unwrap();
/// # let _ = v;
/// ```
#[derive(Debug, Clone, Default)]
pub struct ClientBuilder {
    endpoints: Vec<String>,
    config: ClientConfig,
    retry: Option<RetryPolicy>,
}

impl ClientBuilder {
    pub fn new() -> Self {
        ClientBuilder::default()
    }

    /// Append one endpoint. Order is preference order: leader first,
    /// followers after.
    pub fn endpoint(mut self, addr: impl Into<String>) -> Self {
        self.endpoints.push(addr.into());
        self
    }

    /// TCP connect bound (`None` falls back to the OS default).
    pub fn connect_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.config.connect_timeout = timeout;
        self
    }

    /// Bound on waiting for a response to arrive.
    pub fn read_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.config.read_timeout = timeout;
        self
    }

    /// Bound on pushing a request onto the socket.
    pub fn write_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.config.write_timeout = timeout;
        self
    }

    /// Retry transient failures of idempotent requests per `policy`.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Validate and construct. Refused configurations (mirroring
    /// [`ServeConfig::builder`](crate::ServeConfig::builder)'s stance on
    /// degenerate configs):
    ///
    /// * no endpoints — nothing to connect to;
    /// * a retry policy with zero attempts, a multiplier below 1, jitter
    ///   outside `[0, 1]`, or an inverted backoff envelope
    ///   (`base > max`) — the backoff curve would be nonsense.
    pub fn build(self) -> fstore_common::Result<FailoverClient> {
        if self.endpoints.is_empty() {
            return Err(FsError::InvalidArgument(
                "client builder needs at least one endpoint".into(),
            ));
        }
        if let Some(policy) = &self.retry {
            if policy.max_attempts == 0 {
                return Err(FsError::InvalidArgument(
                    "retry policy needs at least one attempt".into(),
                ));
            }
            if policy.multiplier < 1.0 {
                return Err(FsError::InvalidArgument(
                    "retry multiplier must be >= 1".into(),
                ));
            }
            if !(0.0..=1.0).contains(&policy.jitter) {
                return Err(FsError::InvalidArgument(
                    "retry jitter must be in [0, 1]".into(),
                ));
            }
            if policy.base_backoff > policy.max_backoff {
                return Err(FsError::InvalidArgument(
                    "retry base backoff exceeds its max backoff".into(),
                ));
            }
        }
        let addrs: Vec<&str> = self.endpoints.iter().map(String::as_str).collect();
        Ok(FailoverClient::connect(
            &addrs,
            self.config,
            self.retry.unwrap_or_default(),
            BreakerConfig::default(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ErrorCode;

    #[test]
    fn builder_refuses_degenerate_configs() {
        assert!(ClientBuilder::new().build().is_err(), "no endpoints");
        assert!(ClientBuilder::new()
            .endpoint("127.0.0.1:1")
            .retry(RetryPolicy {
                max_attempts: 0,
                ..RetryPolicy::default()
            })
            .build()
            .is_err());
        assert!(ClientBuilder::new()
            .endpoint("127.0.0.1:1")
            .retry(RetryPolicy {
                multiplier: 0.5,
                ..RetryPolicy::default()
            })
            .build()
            .is_err());
        assert!(ClientBuilder::new()
            .endpoint("127.0.0.1:1")
            .retry(RetryPolicy {
                jitter: 1.5,
                ..RetryPolicy::default()
            })
            .build()
            .is_err());
        assert!(ClientBuilder::new()
            .endpoint("127.0.0.1:1")
            .retry(RetryPolicy {
                base_backoff: Duration::from_secs(2),
                max_backoff: Duration::from_secs(1),
                ..RetryPolicy::default()
            })
            .build()
            .is_err());
    }

    #[test]
    fn every_valid_builder_config_yields_a_failover_client() {
        // The client connects lazily, so every shape builds without a
        // live server.
        let configs = [
            ClientBuilder::new().endpoint("127.0.0.1:1"),
            ClientBuilder::new()
                .endpoint("127.0.0.1:1")
                .retry(RetryPolicy::default()),
            ClientBuilder::new()
                .endpoint("127.0.0.1:1")
                .endpoint("127.0.0.1:2")
                .retry(RetryPolicy::default()),
        ];
        for builder in configs {
            let _: FailoverClient = builder.build().unwrap();
        }
    }

    #[test]
    fn put_ack_decoder_lifts_not_leader_into_typed_error() {
        let ack = expect_put_ack(Response::PutAck { epoch: 7, term: 3 }).unwrap();
        assert_eq!(ack, WriteAck { epoch: 7, term: 3 });
        let err =
            expect_put_ack(Response::error(ErrorCode::NotLeader, "current_term=5")).unwrap_err();
        assert!(matches!(err, ClientError::NotLeader { current_term: 5 }));
        assert_eq!(err.code(), Some(ErrorCode::NotLeader));
        // A malformed message still yields the typed refusal, with an
        // unknown (zero) term rather than a decode failure.
        let err = expect_put_ack(Response::error(ErrorCode::NotLeader, "???")).unwrap_err();
        assert!(matches!(err, ClientError::NotLeader { current_term: 0 }));
        // Other server errors pass through untyped.
        let err = expect_put_ack(Response::error(ErrorCode::Internal, "wal")).unwrap_err();
        assert_eq!(err.code(), Some(ErrorCode::Internal));
    }

    #[test]
    fn decoders_map_server_errors_and_type_mismatches() {
        let err = expect_features(Response::error(ErrorCode::NotFound, "missing")).unwrap_err();
        assert_eq!(err.code(), Some(ErrorCode::NotFound));
        assert!(matches!(
            expect_features(Response::Health {
                queue_depth: 0,
                draining: false
            }),
            Err(ClientError::UnexpectedResponse("Features"))
        ));
        assert!(matches!(
            expect_neighbors(Response::Features(WireVector {
                entity: String::new(),
                features: vec![],
                values: vec![],
                ages_ms: vec![],
                stale: vec![],
                epoch: 0,
            })),
            Err(ClientError::UnexpectedResponse("Neighbors"))
        ));
    }
}
