//! The scatter-gather router: one client that speaks the ordinary wire
//! protocol but fans requests out over a sharded cluster.
//!
//! A [`RouterClient`] holds one `FailoverClient` per shard (leader-first
//! endpoints, per-endpoint circuit breakers — PR 5's machinery, reused
//! unchanged) and routes by request shape:
//!
//! * point reads (`GetFeatures`, `GetEmbedding`) go to the owning shard,
//!   decided by the map's consistent hash;
//! * `PutOnline` goes to the owning shard's leader, stamped with the
//!   shard's current term from the map;
//! * `GetFeaturesBatch` splits by shard into one sub-batch per owner and
//!   reassembles the response in the caller's entity order;
//! * `SearchNearest` goes to *every* shard (each holds a disjoint slice
//!   of the table) and the per-shard top-k merge into a global top-k —
//!   ascending `(distance, key)`, so the merge is deterministic even
//!   under distance ties;
//! * `SearchNearestByKey` first fetches the anchor vector from its home
//!   shard, then searches every shard with `k+1` and drops the anchor
//!   from the merged hits (only its home shard excludes it natively).
//!
//! Everything that touches more than one shard — and every pipelined
//! burst ([`Transport::call_many`], [`RouterClient::route_burst`]) — flies
//! as a *flight*: each request becomes parts on per-shard sub-bursts (in
//! caller order), every shard's sub-burst is written before any answer
//! is read ([`FailoverClient::start_many`]), then each shard's answers
//! are read in turn ([`FailoverClient::finish_many`]) and folded back
//! per request. The shards work concurrently while the router's own
//! thread does all of it: no thread is spawned per request. A burst
//! splits into several flights only where caller order demands it: at a
//! request routed alone, and at a request sharing an entity with an
//! earlier request of the flight when either one writes it.
//!
//! Because [`RouterClient`] implements the same [`Transport`] trait as
//! every single-node client, the entire `StoreApi` surface works against
//! a sharded cluster unchanged — and [`start_router`](crate::start_router)
//! puts the router behind a plain TCP socket, routing each drain of its
//! connection engine as one burst.
//!
//! Before every call the router compares the control plane's map version
//! with the one it routed with last; on a change it rebinds each shard's
//! endpoint list in place ([`FailoverClient::set_endpoints`]), keeping
//! live connections and breaker history for endpoints that stayed.

use crate::control::ControlPlane;
use crate::map::{ShardId, ShardMap};
use fstore_common::Value;
use fstore_serve::api::{expect_embedding, Transport};
use fstore_serve::retry::pushback;
use fstore_serve::{
    BreakerConfig, ClientConfig, ClientError, ErrorCode, FailoverClient, FailoverStats, Request,
    Response, RetryPolicy, StartedBurst, WireHit,
};
use std::borrow::{Borrow, Cow};
use std::collections::HashMap;
use std::sync::Arc;

/// Per-shard client tuning for a router.
#[derive(Debug, Clone, Default)]
pub struct RouterConfig {
    /// Socket deadlines (and optional per-hop deadline budget) for every
    /// shard connection.
    pub client: ClientConfig,
    /// Retry policy each per-shard `FailoverClient` applies across its
    /// endpoint rounds.
    pub retry: RetryPolicy,
    /// Circuit-breaker tuning per shard endpoint.
    pub breakers: BreakerConfig,
}

/// A client over a sharded cluster; see the module docs for routing.
pub struct RouterClient {
    control: Arc<ControlPlane>,
    map: Arc<ShardMap>,
    clients: HashMap<u32, FailoverClient>,
    config: RouterConfig,
}

/// Where one part of a request landed: (position of its shard in the
/// map, index in that shard's sub-burst).
type PartAt = (usize, usize);

/// One part's answer, taken exactly once when its request is settled.
type Answer = Option<Result<Response, ClientError>>;

/// A planned flight: one sub-burst per shard, in map order, each holding
/// parts in caller order — forwarded by reference where the caller's
/// request is the part, built for the shard where it is not.
struct Flight<'a> {
    subs: Vec<Vec<Cow<'a, Request>>>,
}

/// How one request of a flight is answered.
enum Plan {
    /// One part, answered as-is (point reads and writes).
    One(PartAt),
    /// A batch split by owner: each part with the caller slots it holds.
    Batch {
        len: usize,
        parts: Vec<(PartAt, Vec<usize>)>,
    },
    /// A search on every shard, merged to `k`.
    Search { k: u32, parts: Vec<PartAt> },
    /// A health check on every shard, aggregated.
    Health(Vec<PartAt>),
}

/// Whether a request travels in a burst's flight; the rest are routed
/// alone, between flights. `Health` stays out so its queue depths are
/// read with no sub-burst queued behind it.
fn joins_flight(request: &Request) -> bool {
    matches!(
        request,
        Request::GetFeatures { .. }
            | Request::GetEmbedding { .. }
            | Request::PutOnline { .. }
            | Request::GetFeaturesBatch { .. }
            | Request::SearchNearest { .. }
    )
}

/// The entities whose online features a request reads or writes.
fn entities(request: &Request) -> &[String] {
    match request {
        Request::GetFeatures { entity, .. } | Request::PutOnline { entity, .. } => {
            std::slice::from_ref(entity)
        }
        Request::GetFeaturesBatch { entities, .. } => entities,
        _ => &[],
    }
}

/// Whether `later` must wait for `earlier` to be answered: one of them
/// writes an entity the other names. A shard runs a pipelined sub-burst
/// on whichever workers take its jobs, so in one flight the two could
/// apply in either order.
fn conflicts(earlier: &Request, later: &Request) -> bool {
    let writes = |r: &Request| matches!(r, Request::PutOnline { .. });
    (writes(earlier) || writes(later))
        && entities(later)
            .iter()
            .any(|e| entities(earlier).contains(e))
}

impl<'a> Flight<'a> {
    fn new(shards: usize) -> Self {
        Flight {
            subs: (0..shards).map(|_| Vec::new()).collect(),
        }
    }

    fn add(&mut self, shard: usize, part: Cow<'a, Request>) -> PartAt {
        let sub = &mut self.subs[shard];
        sub.push(part);
        (shard, sub.len() - 1)
    }

    fn everywhere(&mut self, request: &'a Request) -> Vec<PartAt> {
        (0..self.subs.len())
            .map(|shard| self.add(shard, Cow::Borrowed(request)))
            .collect()
    }

    /// Add `request`'s parts to the sub-bursts of the shards that answer
    /// it under `map`.
    fn plan(&mut self, map: &ShardMap, request: &'a Request) -> Plan {
        match request {
            Request::GetFeatures { entity, .. } => {
                Plan::One(self.add(map.position_for(entity), Cow::Borrowed(request)))
            }
            Request::GetEmbedding { key, .. } => {
                Plan::One(self.add(map.position_for(key), Cow::Borrowed(request)))
            }
            Request::PutOnline {
                group,
                entity,
                values,
                ..
            } => {
                let (shard, put) = owner_put(map, group, entity, values);
                Plan::One(self.add(shard, Cow::Owned(put)))
            }
            Request::GetFeaturesBatch {
                group,
                entities,
                features,
            } => {
                let owners: Vec<usize> = entities.iter().map(|e| map.position_for(e)).collect();
                let len = entities.len();
                // Every key on one shard: the caller's batch is the part.
                if let Some(&owner) = owners.first() {
                    if owners.iter().all(|&o| o == owner) {
                        let at = self.add(owner, Cow::Borrowed(request));
                        return Plan::Batch {
                            len,
                            parts: vec![(at, (0..len).collect())],
                        };
                    }
                }
                let mut parts = Vec::new();
                for shard in 0..self.subs.len() {
                    let slots: Vec<usize> =
                        (0..owners.len()).filter(|&i| owners[i] == shard).collect();
                    if slots.is_empty() {
                        continue;
                    }
                    let part = Request::GetFeaturesBatch {
                        group: group.clone(),
                        entities: slots.iter().map(|&i| entities[i].clone()).collect(),
                        features: features.clone(),
                    };
                    parts.push((self.add(shard, Cow::Owned(part)), slots));
                }
                Plan::Batch { len, parts }
            }
            Request::SearchNearest { k, .. } => Plan::Search {
                k: *k,
                parts: self.everywhere(request),
            },
            Request::Health => Plan::Health(self.everywhere(request)),
            _ => unreachable!("requests routed alone never join a flight"),
        }
    }
}

/// Fold a request's part answers into its response. The first part (in
/// shard order) that failed or was refused stands for the whole request,
/// matching single-node semantics.
fn settle(plan: Plan, answers: &mut [Vec<Answer>]) -> Result<Response, ClientError> {
    let mut take = |(shard, part): PartAt| {
        answers[shard][part]
            .take()
            .expect("every part is answered once")
    };
    match plan {
        Plan::One(at) => take(at),
        Plan::Batch { len, parts } => {
            let mut merged = vec![None; len];
            for (at, slots) in parts {
                match take(at)? {
                    Response::FeaturesBatch(vectors) if vectors.len() == slots.len() => {
                        for (slot, vector) in slots.into_iter().zip(vectors) {
                            merged[slot] = Some(vector);
                        }
                    }
                    Response::FeaturesBatch(_) => {
                        return Err(ClientError::UnexpectedResponse("FeaturesBatch"))
                    }
                    other => return Ok(other),
                }
            }
            Ok(Response::FeaturesBatch(
                merged
                    .into_iter()
                    .map(|v| v.expect("every slot was assigned to exactly one shard"))
                    .collect(),
            ))
        }
        Plan::Search { k, parts } => {
            let mut all_hits: Vec<WireHit> = Vec::new();
            let mut table_version = 0u32;
            let mut index_generation = 0u64;
            for at in parts {
                match take(at)? {
                    Response::Neighbors {
                        table_version: tv,
                        index_generation: ig,
                        hits,
                    } => {
                        // Shards publish independently, so these counters
                        // are per-shard; report the furthest-along one.
                        table_version = table_version.max(tv);
                        index_generation = index_generation.max(ig);
                        all_hits.extend(hits);
                    }
                    other => return Ok(other),
                }
            }
            Ok(Response::Neighbors {
                table_version,
                index_generation,
                hits: merge_topk(all_hits, k as usize),
            })
        }
        Plan::Health(parts) => {
            let mut queue_depth = 0u32;
            let mut draining = false;
            for at in parts {
                match take(at)? {
                    Response::Health {
                        queue_depth: q,
                        draining: d,
                    } => {
                        queue_depth = queue_depth.saturating_add(q);
                        draining |= d;
                    }
                    other => return Ok(other),
                }
            }
            Ok(Response::Health {
                queue_depth,
                draining,
            })
        }
    }
}

/// A write for the owning shard's leader, stamped with that shard's
/// current term under `map`, and where in the map the shard sits.
fn owner_put(
    map: &ShardMap,
    group: &str,
    entity: &str,
    values: &[(String, Value)],
) -> (usize, Request) {
    let shard = map.position_for(entity);
    let put = Request::PutOnline {
        group: group.to_string(),
        entity: entity.to_string(),
        values: values.to_vec(),
        term: map.shards()[shard].term,
    };
    (shard, put)
}

/// A copy of one shard failure for each request it touched
/// (`ClientError` owns an `io::Error`, so it is not `Clone`).
fn copy_error(error: &ClientError) -> ClientError {
    match error {
        ClientError::Io(e) => ClientError::Io(std::io::Error::new(e.kind(), e.to_string())),
        ClientError::Wire(e) => ClientError::Wire(e.clone()),
        ClientError::Server { code, message } => ClientError::Server {
            code: *code,
            message: message.clone(),
        },
        ClientError::ConnectionClosed => ClientError::ConnectionClosed,
        ClientError::UnexpectedResponse(expected) => ClientError::UnexpectedResponse(expected),
        ClientError::NotLeader { current_term } => ClientError::NotLeader {
            current_term: *current_term,
        },
        ClientError::WriteFailed { applied, cause } => ClientError::WriteFailed {
            applied: *applied,
            cause: Box::new(copy_error(cause)),
        },
    }
}

/// Answer each part of one shard's sub-burst. An all-read sub-burst
/// has had its failover walk already ([`FailoverClient::finish_many`]
/// retries it whole), so its outcome stands for every part. In a
/// sub-burst holding a write, each write keeps its own answer — an ack,
/// a typed refusal, or the seal of a lost burst — and is never re-sent,
/// while reads that were shed beside it, or lost with it, are re-sent
/// through the failover walk they would have had on their own.
fn answer_parts(
    client: &mut FailoverClient,
    parts: &[Cow<'_, Request>],
    outcome: Result<Vec<Response>, ClientError>,
) -> Vec<Answer> {
    let mut answers: Vec<Answer> = match outcome {
        Ok(responses) => responses
            .into_iter()
            .map(|r| Some(pushback(&r).map_or(Ok(r), Err)))
            .collect(),
        Err(error) => parts
            .iter()
            .map(|_| Some(Err(copy_error(&error))))
            .collect(),
    };
    if parts.iter().all(|p| p.is_idempotent()) {
        return answers;
    }
    let failed_reads: Vec<usize> = (0..parts.len())
        .filter(|&i| parts[i].is_idempotent() && matches!(answers[i], Some(Err(_))))
        .collect();
    if failed_reads.is_empty() {
        return answers;
    }
    let reads: Vec<&Request> = failed_reads.iter().map(|&i| parts[i].as_ref()).collect();
    match client.call_many(&reads) {
        Ok(responses) => {
            for (i, response) in failed_reads.into_iter().zip(responses) {
                answers[i] = Some(Ok(response));
            }
        }
        Err(error) => {
            for i in failed_reads {
                answers[i] = Some(Err(copy_error(&error)));
            }
        }
    }
    answers
}

impl RouterClient {
    pub(crate) fn new(control: Arc<ControlPlane>, config: RouterConfig) -> Self {
        let mut router = RouterClient {
            map: control.map(),
            control,
            clients: HashMap::new(),
            config,
        };
        router.bind_clients();
        router
    }

    /// Failover counters per shard (ascending shard id) — how often reads
    /// were answered by a non-preferred endpoint, retried, or exhausted.
    pub fn shard_stats(&self) -> Vec<(ShardId, FailoverStats)> {
        let mut stats: Vec<(ShardId, FailoverStats)> = self
            .clients
            .iter()
            .map(|(&id, c)| (ShardId(id), c.stats()))
            .collect();
        stats.sort_by_key(|(id, _)| *id);
        stats
    }

    /// Adopt the control plane's current map if it moved. Shards present
    /// in both maps keep their client (connections, breaker history);
    /// their endpoint order is rebound to the new map.
    pub(crate) fn refresh(&mut self) {
        if self.control.version() == self.map.version() {
            return;
        }
        self.map = self.control.map();
        self.bind_clients();
    }

    fn bind_clients(&mut self) {
        let live: Vec<u32> = self.map.shards().iter().map(|s| s.id.0).collect();
        self.clients.retain(|id, _| live.contains(id));
        for shard in self.map.shards() {
            let addrs: Vec<&str> = shard.endpoints.iter().map(String::as_str).collect();
            match self.clients.get_mut(&shard.id.0) {
                Some(client) => client.set_endpoints(&addrs),
                None => {
                    self.clients.insert(
                        shard.id.0,
                        FailoverClient::connect(
                            &addrs,
                            self.config.client.clone(),
                            self.config.retry,
                            self.config.breakers,
                        ),
                    );
                }
            }
        }
    }

    fn shard_client(&mut self, shard: ShardId) -> &mut FailoverClient {
        self.clients
            .get_mut(&shard.0)
            .expect("bind_clients covers every mapped shard")
    }

    /// Route a burst and answer each request on its own: one `Result`
    /// per request, in request order, so a shard that fails costs only
    /// the requests it holds. Point reads, writes, batches and searches
    /// ride one pipelined sub-burst per shard, in caller order — the
    /// guarantee a pipelined burst to one node gives: answers in order,
    /// execution as the shard's workers take the jobs. The other kinds
    /// are routed alone, in caller order between flights, and a request
    /// sharing an entity with an earlier one, either of them a write,
    /// waits for the next flight. A sub-burst is written whole before its
    /// answers are read, so keep a burst within what a shard server
    /// queues per connection (`ServeConfig::pipeline_depth`); the TCP
    /// front routes one drain at a time, at most `ServeConfig::max_batch`
    /// requests.
    pub fn route_burst<R: Borrow<Request>>(
        &mut self,
        requests: &[R],
    ) -> Vec<Result<Response, ClientError>> {
        self.refresh();
        self.burst(requests)
    }

    /// [`route_burst`](Self::route_burst) on the map as it stands.
    ///
    /// The burst flies as few flights as caller order allows. A flight
    /// lands (every answer read, refused writes re-sent) before a
    /// request routed alone, and before a request that shares an entity
    /// with a request of the flight when either one writes it — so two
    /// requests whose order could show apply in caller order.
    fn burst<R: Borrow<Request>>(&mut self, requests: &[R]) -> Vec<Result<Response, ClientError>> {
        let mut results = Vec::with_capacity(requests.len());
        let mut map = Arc::clone(&self.map);
        let mut flight = Flight::new(0);
        let mut plans: Vec<Plan> = Vec::with_capacity(requests.len());
        // The first request of the flight being planned.
        let mut start = 0;
        for (i, request) in requests.iter().enumerate() {
            let request = request.borrow();
            let alone = !joins_flight(request);
            let flying = &requests[start..i];
            if !plans.is_empty() && (alone || flying.iter().any(|e| conflicts(e.borrow(), request)))
            {
                self.land(&flight, plans.drain(..), flying, &mut results);
            }
            if alone {
                results.push(self.route(request));
                continue;
            }
            if plans.is_empty() {
                // Plan on the map this flight will fly with: a request
                // routed alone, or a re-sent write, may have moved it.
                map = Arc::clone(&self.map);
                flight = Flight::new(map.shard_count());
                start = i;
            }
            plans.push(flight.plan(&map, request));
        }
        if !plans.is_empty() {
            self.land(&flight, plans.drain(..), &requests[start..], &mut results);
        }
        results
    }

    /// Fly `flight` and settle its `requests` (with their `plans`) into
    /// `results`, in caller order.
    fn land<R: Borrow<Request>>(
        &mut self,
        flight: &Flight<'_>,
        plans: impl Iterator<Item = Plan>,
        requests: &[R],
        results: &mut Vec<Result<Response, ClientError>>,
    ) {
        let mut answers = self.fly(flight);
        for (plan, request) in plans.zip(requests) {
            let result = settle(plan, &mut answers);
            results.push(match request.borrow() {
                Request::PutOnline {
                    group,
                    entity,
                    values,
                    ..
                } => self.resend_if_not_leader(result, group, entity, values),
                _ => result,
            });
        }
    }

    /// Fly a planned burst: write every shard's sub-burst, then read each
    /// shard's answers in turn. Answers come back per part, in the
    /// flight's shape.
    fn fly(&mut self, flight: &Flight<'_>) -> Vec<Vec<Answer>> {
        let map = Arc::clone(&self.map);
        let started: Vec<StartedBurst> = flight
            .subs
            .iter()
            .zip(map.shards())
            .map(|(parts, shard)| self.shard_client(shard.id).start_many(parts))
            .collect();
        started
            .into_iter()
            .zip(&flight.subs)
            .zip(map.shards())
            .map(|((started, parts), shard)| {
                let client = self.shard_client(shard.id);
                let outcome = client.finish_many(started, parts);
                answer_parts(client, parts, outcome)
            })
            .collect()
    }

    /// One request as a flight of its own.
    fn fly_one(&mut self, request: &Request) -> Result<Response, ClientError> {
        let map = Arc::clone(&self.map);
        let mut flight = Flight::new(map.shard_count());
        let plan = flight.plan(&map, request);
        let mut answers = self.fly(&flight);
        settle(plan, &mut answers)
    }

    fn route(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.refresh();
        match request {
            Request::Health | Request::GetFeaturesBatch { .. } | Request::SearchNearest { .. } => {
                self.fly_one(request)
            }
            Request::GetFeatures { entity, .. } => {
                let shard = self.map.shard_for(entity);
                self.shard_client(shard).call(request)
            }
            Request::GetEmbedding { key, .. } => {
                let shard = self.map.shard_for(key);
                self.shard_client(shard).call(request)
            }
            Request::SearchNearestByKey {
                table,
                key,
                k,
                options,
            } => self.search_by_key(table, key, *k, *options),
            Request::ReplSubscribe | Request::ReplSnapshot | Request::ReplDeltas { .. } => {
                Ok(Response::error(
                    ErrorCode::BadRequest,
                    "replication endpoints are per-shard; subscribe to a shard leader directly",
                ))
            }
            Request::PutOnline {
                group,
                entity,
                values,
                ..
            } => self.put_online_routed(group, entity, values),
            // Leadership admin targets a shard by id, not by key.
            Request::Promote { shard, .. } | Request::Demote { shard, .. } => {
                let id = ShardId(*shard);
                if self.map.shard(id).is_none() {
                    return Ok(Response::error(
                        ErrorCode::BadRequest,
                        format!("unknown shard {shard}"),
                    ));
                }
                self.shard_client(id).call(request)
            }
            // The per-shard clients apply their own configured budget per
            // hop; the envelope's budget routes with the inner request.
            Request::WithDeadline { inner, .. } => self.route(inner),
        }
    }

    /// Route a write to the owning shard's leader, stamped with the
    /// shard's *current* leader term from the map — whatever term the
    /// caller wrote is replaced, because the router (not the caller) is
    /// the party tracking promotions.
    fn put_online_routed(
        &mut self,
        group: &str,
        entity: &str,
        values: &[(String, Value)],
    ) -> Result<Response, ClientError> {
        let first = self.send_put(group, entity, values);
        self.resend_if_not_leader(first, group, entity, values)
    }

    /// The one re-send rule for writes, single or in a flight. A
    /// `NotLeader` refusal means the map moved under us; adopt the
    /// control plane's newer map and re-route exactly once with the fresh
    /// term and endpoint order. One retry is safe — a refusal proves the
    /// write was not applied — and bounded, so a flapping shard cannot
    /// trap the router in a loop.
    fn resend_if_not_leader(
        &mut self,
        first: Result<Response, ClientError>,
        group: &str,
        entity: &str,
        values: &[(String, Value)],
    ) -> Result<Response, ClientError> {
        if !matches!(
            first,
            Ok(Response::Error {
                code: ErrorCode::NotLeader,
                ..
            })
        ) {
            return first;
        }
        self.refresh();
        self.send_put(group, entity, values)
    }

    fn send_put(
        &mut self,
        group: &str,
        entity: &str,
        values: &[(String, Value)],
    ) -> Result<Response, ClientError> {
        let (shard, put) = owner_put(&self.map, group, entity, values);
        let id = self.map.shards()[shard].id;
        self.shard_client(id).call(&put)
    }

    /// By-key search: resolve the anchor vector on its home shard, then
    /// search every shard for `k+1`. The anchor is excluded from the merge
    /// explicitly because only its home shard stores (and natively
    /// excludes) it; shards hold disjoint keys, so dropping it from the
    /// merged top-`k+1` leaves the global top-`k` without it.
    fn search_by_key(
        &mut self,
        table: &str,
        key: &str,
        k: u32,
        options: fstore_serve::SearchOptions,
    ) -> Result<Response, ClientError> {
        let home = self.map.shard_for(key);
        let anchor = self.shard_client(home).call(&Request::GetEmbedding {
            table: table.to_string(),
            key: key.to_string(),
        })?;
        let embedding = match expect_embedding(anchor) {
            Ok(e) => e,
            Err(ClientError::Server { code, message }) => {
                return Ok(Response::Error { code, message })
            }
            Err(e) => return Err(e),
        };
        let search = Request::SearchNearest {
            table: table.to_string(),
            query: embedding.vector,
            k: k.saturating_add(1),
            options,
        };
        match self.fly_one(&search)? {
            Response::Neighbors {
                table_version,
                index_generation,
                mut hits,
            } => {
                hits.retain(|h| h.key != key);
                hits.truncate(k as usize);
                Ok(Response::Neighbors {
                    table_version,
                    index_generation,
                    hits,
                })
            }
            other => Ok(other),
        }
    }
}

impl Transport for RouterClient {
    fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.route(request)
    }

    /// One flight for the whole burst ([`RouterClient::route_burst`]);
    /// any request's failure fails the burst, as on every transport.
    fn call_many(&mut self, requests: &[Request]) -> Result<Vec<Response>, ClientError> {
        self.route_burst(requests).into_iter().collect()
    }
}

/// Merge scattered hits into a global top-k: ascending distance
/// (`total_cmp`, so NaNs order deterministically too), ties broken by
/// key. Shards hold disjoint key sets, so no deduplication is needed.
pub fn merge_topk(mut hits: Vec<WireHit>, k: usize) -> Vec<WireHit> {
    hits.sort_by(|a, b| {
        a.distance
            .total_cmp(&b.distance)
            .then_with(|| a.key.cmp(&b.key))
    });
    hits.truncate(k);
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(key: &str, distance: f32) -> WireHit {
        WireHit {
            key: key.to_string(),
            distance,
        }
    }

    #[test]
    fn merge_sorts_truncates_and_breaks_ties_by_key() {
        let merged = merge_topk(
            vec![hit("c", 2.0), hit("b", 1.0), hit("a", 1.0), hit("d", 3.0)],
            3,
        );
        assert_eq!(merged, vec![hit("a", 1.0), hit("b", 1.0), hit("c", 2.0)]);
    }

    #[test]
    fn merge_handles_fewer_hits_than_k() {
        assert_eq!(merge_topk(vec![hit("a", 0.5)], 10), vec![hit("a", 0.5)]);
        assert!(merge_topk(Vec::new(), 10).is_empty());
    }

    /// A burst flown on a map the control plane has since replaced: its
    /// write reaches the fenced old leader at the old term, is refused
    /// `NotLeader`, and is re-sent once — on the promoted follower, at the
    /// new term — while the read beside it is answered in the same flight.
    #[test]
    fn a_refused_burst_write_is_resent_once_under_the_new_term() {
        use crate::cluster::{ClusterConfig, ShardCluster};
        use fstore_common::Timestamp;
        let cluster = ShardCluster::start(
            ClusterConfig {
                shards: 2,
                followers: 1,
                ..ClusterConfig::default()
            },
            fstore_serve::fixed_clock(Timestamp(60_000)),
        )
        .expect("cluster starts");
        let victim = ShardId(0);
        let key_on = |shard: ShardId| {
            (0..)
                .map(|u| format!("u{u}"))
                .find(|e| cluster.shard_for(e) == shard)
                .expect("every shard owns keys")
        };
        let (written, read) = (key_on(victim), key_on(ShardId(1)));
        let mut router = cluster.router();

        // Promote the follower and deliver both halves: the follower now
        // writes at term 2 and the old leader is fenced at term 2.
        let control = cluster.control();
        let event = control.promote(victim).expect("the shard has a follower");
        assert_eq!(event.term, 2);
        control.probe_once();
        assert_eq!(control.snapshot().pending_fences, 0, "fence delivered");

        let burst = [
            Request::PutOnline {
                group: "user".into(),
                entity: written.clone(),
                values: vec![("score".into(), Value::Float(7.5))],
                term: 0,
            },
            Request::GetFeatures {
                group: "user".into(),
                entity: read,
                features: vec!["score".into()],
            },
        ];
        assert_eq!(
            router.map.version(),
            1,
            "the router still holds the old map"
        );
        let results = router.burst(&burst);
        assert!(
            matches!(results[0], Ok(Response::PutAck { term: 2, .. })),
            "expected one ack at the new term, got {:?}",
            results[0]
        );
        assert!(matches!(results[1], Ok(Response::Features(_))));
        assert_eq!(
            router.map.version(),
            event.map_version,
            "re-sent on the new map"
        );

        let got = router
            .call(&Request::GetFeatures {
                group: "user".into(),
                entity: written,
                features: vec!["score".into()],
            })
            .expect("read back");
        match got {
            Response::Features(v) => assert_eq!(v.values, vec![Value::Float(7.5)]),
            other => panic!("expected features, got {other:?}"),
        }
        cluster.shutdown();
    }
}
