//! `sharded_mix`: `ShardCluster::start` with 2 shards × (leader + 1
//! follower). Client A uses `cluster.router()` in process, client B a
//! `FeatureClient` through the `start_router` TCP front.
//!
//! Mix: 70 % `GetFeatures`, 10 % `GetFeaturesBatch`(32, split by shard),
//! 10 % routed `PutOnline`, 5 % scattered `SearchNearest` k=10, 5 %
//! `GetEmbedding`. The only workload where `shard` (map lookup, batch
//! split and merge, scatter + `merge_topk`, per-shard `FailoverClient`,
//! the router front) and live follower sync run under traffic; per-node
//! work is small, so routing is most of each request. Every answer is
//! compared with a single-node oracle.

use crate::data::{
    cluster_centers, clustered, entity_name, exact_top_k, feature_names, feature_value, is_row,
    mix, same_hits, text, GROUP, NOW,
};
use crate::hist::Hist;
use crate::layers::{
    median_ns, p50, replay, rtt_floor_us, set_serve_costs, set_store_rows, ReadLayers,
};
use crate::load::{Class, Client, Traffic, BURST};
use crate::run::{explain, Ctx, Deep, System, Tally};
use fstore_common::{EntityKey, Rng, Value, Xoshiro256};
use fstore_embed::{EmbeddingProvenance, EmbeddingTable};
use fstore_serve::{
    fixed_clock, ClientError, FeatureClient, IndexSpec, Request, Response, SearchOptions,
    ServeConfig, ServeEngine, StoreApi, Transport, WireVector, WriteProvider,
};
use fstore_shard::{
    merge_topk, start_router, ClusterConfig, RouterClient, RouterConfig, RouterHandle,
    ShardCluster, ShardId, ShardMap,
};
use fstore_storage::OnlineStore;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
const ENTITIES: usize = 50_000;
const FEATURES: usize = 4;
/// Small, because publishing a table ships it to the follower as one JSON
/// delta and the repo's JSON parser is quadratic in a document's size.
const VECTORS: usize = 3_000;
const DIM: usize = 32;
const CENTERS: usize = 32;
const BATCH_KEYS: usize = 32;
const K: usize = 10;
const POOL: usize = 128;
const REPLAYED: usize = 5_000;
/// Entities `e` with `e % 8 == lane` are written by that lane alone and
/// read by nobody else, so every client knows the current value of every
/// key it touches. Lanes: client A, client B, the in-process replay.
const LANES: u32 = 3;

struct Shared {
    seed: u64,
    entities: u32,
    names: Vec<String>,
    vectors: Vec<Vec<f32>>,
    queries: Vec<Vec<f32>>,
    truth: Vec<Vec<(String, f32)>>,
}

fn vector_key(row: usize) -> String {
    format!("v{row:05}")
}

/// The in-process router behind a lock the system also holds, so its
/// failover counters can be read after the run. Only its own client
/// thread ever takes the lock while traffic flows.
struct SharedRouter(Arc<Mutex<RouterClient>>);

impl Transport for SharedRouter {
    fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.0.lock().expect("router lock").call(request)
    }

    fn call_many(&mut self, requests: &[Request]) -> Result<Vec<Response>, ClientError> {
        self.0.lock().expect("router lock").call_many(requests)
    }
}

struct ShardedMix {
    shared: Arc<Shared>,
    cluster: Option<ShardCluster>,
    front: Option<RouterHandle>,
    router: Arc<Mutex<RouterClient>>,
    oracle_s: f64,
}

pub fn setup(ctx: &Ctx) -> Result<Box<dyn System>, String> {
    let entities = ctx.scaled(ENTITIES) as u32;
    let vectors = ctx.scaled(VECTORS);
    let config = ClusterConfig {
        shards: SHARDS,
        followers: 1,
        serve: ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        // Followers start empty and take the seed as deltas; the log must
        // hold a shard's share of it, or they fall back to full JSON
        // snapshots.
        retention: 1 << 16,
        sync_interval: Duration::from_millis(5),
        ..ClusterConfig::default()
    };
    let cluster = ShardCluster::start(config, fixed_clock(NOW)).map_err(text)?;
    let names = feature_names(FEATURES);
    for e in 0..entities {
        let values: Vec<(&str, Value)> = names
            .iter()
            .enumerate()
            .map(|(j, name)| (name.as_str(), feature_value(ctx.seed, e, j)))
            .collect();
        cluster
            .put_online(GROUP, &EntityKey::new(entity_name(e)), &values, NOW)
            .map_err(text)?;
    }
    let mut rng = Xoshiro256::seeded(mix(ctx.seed, 0x7368617264, 0));
    let centers = cluster_centers(&mut rng, CENTERS, DIM);
    let data = clustered(&mut rng, vectors, DIM, &centers);
    for shard in cluster.map().shards() {
        let mut table = EmbeddingTable::new(DIM).map_err(text)?;
        for (row, v) in data.iter().enumerate() {
            let key = vector_key(row);
            if cluster.shard_for(&key) == shard.id {
                table.insert(key, v.clone()).map_err(text)?;
            }
        }
        let leader = cluster.leader(shard.id);
        leader
            .parts()
            .embeddings
            .publish("emb", table, EmbeddingProvenance::default(), NOW)
            .map_err(text)?;
        leader
            .parts()
            .indexes
            .build("emb", &IndexSpec::Flat)
            .map_err(text)?;
    }
    if !cluster.wait_converged(Duration::from_secs(60)) {
        return Err("followers never caught up with the seed".into());
    }
    let front = start_router("127.0.0.1:0", cluster.control(), RouterConfig::default())
        .map_err(|e| format!("start router front: {e}"))?;
    let router = Arc::new(Mutex::new(cluster.router()));

    // The single-node oracle's truth; its time is taken out of `setup_s`.
    let started = Instant::now();
    let queries = clustered(&mut rng, POOL, DIM, &centers);
    let truth = queries
        .iter()
        .map(|q| {
            exact_top_k(&data, q, K, None)
                .into_iter()
                .map(|(row, d)| (vector_key(row), d))
                .collect()
        })
        .collect();
    let oracle_s = started.elapsed().as_secs_f64();

    Ok(Box::new(ShardedMix {
        shared: Arc::new(Shared {
            seed: ctx.seed,
            entities,
            names,
            vectors: data,
            queries,
            truth,
        }),
        cluster: Some(cluster),
        front: Some(front),
        router,
        oracle_s,
    }))
}

enum Want {
    One(u32),
    Many(Vec<u32>),
    Ack,
    Search(usize),
    Vector(usize),
}

struct MixTraffic {
    shared: Arc<Shared>,
    lane: u32,
    rng: Xoshiro256,
    /// Entities this lane has written, with the sequence of the last write.
    own: HashMap<u32, u64>,
    writes: u64,
    /// Entities written in the burst being built, and this lane's own
    /// entities read in it. A router applies a burst's writes and reads
    /// in its own order, so within one burst no entity is both.
    in_flight: Vec<u32>,
    read_own: Vec<u32>,
    want: Vec<Want>,
}

impl MixTraffic {
    fn written_value(&self, e: u32, seq: u64, j: usize) -> Value {
        feature_value(mix(self.shared.seed, seq, u64::from(self.lane) + 1), e, j)
    }

    fn right(&self, got: &WireVector, e: u32) -> bool {
        is_row(got, e, &self.shared.names, |j| match self.own.get(&e) {
            Some(&seq) => self.written_value(e, seq, j),
            None => feature_value(self.shared.seed, e, j),
        })
    }

    fn readable(&mut self) -> u32 {
        loop {
            let e = self.rng.below(u64::from(self.shared.entities)) as u32;
            let foreign = e % 8 < LANES && e % 8 != self.lane;
            if !foreign && !self.in_flight.contains(&e) {
                if e % 8 == self.lane {
                    self.read_own.push(e);
                }
                return e;
            }
        }
    }

    fn writable(&mut self) -> u32 {
        loop {
            let e = self.rng.below(u64::from(self.shared.entities / 8)) as u32 * 8 + self.lane;
            if !self.in_flight.contains(&e) && !self.read_own.contains(&e) {
                return e;
            }
        }
    }
}

impl Traffic for MixTraffic {
    fn next(&mut self, slot: usize) -> (Request, Class) {
        if slot == 0 {
            self.in_flight.clear();
            self.read_own.clear();
        }
        let roll = self.rng.below(100);
        let (request, want, class) = if roll < 70 {
            let e = self.readable();
            let request = Request::GetFeatures {
                group: GROUP.to_string(),
                entity: entity_name(e),
                features: self.shared.names.clone(),
            };
            (request, Want::One(e), Class::Read)
        } else if roll < 80 {
            let keys: Vec<u32> = (0..BATCH_KEYS).map(|_| self.readable()).collect();
            let request = Request::GetFeaturesBatch {
                group: GROUP.to_string(),
                entities: keys.iter().map(|&e| entity_name(e)).collect(),
                features: self.shared.names.clone(),
            };
            (request, Want::Many(keys), Class::Batch)
        } else if roll < 90 {
            let e = self.writable();
            self.writes += 1;
            let seq = self.writes;
            let values = (0..FEATURES)
                .map(|j| (self.shared.names[j].clone(), self.written_value(e, seq, j)))
                .collect();
            self.own.insert(e, seq);
            self.in_flight.push(e);
            let request = Request::PutOnline {
                group: GROUP.to_string(),
                entity: entity_name(e),
                values,
                // The router stamps the shard's current term itself.
                term: 0,
            };
            (request, Want::Ack, Class::Write)
        } else if roll < 95 {
            let q = self.rng.below(self.shared.queries.len() as u64) as usize;
            let request = Request::SearchNearest {
                table: "emb".to_string(),
                query: self.shared.queries[q].clone(),
                k: K as u32,
                options: SearchOptions::default(),
            };
            (request, Want::Search(q), Class::Search)
        } else {
            let row = self.rng.below(self.shared.vectors.len() as u64) as usize;
            let request = Request::GetEmbedding {
                table: "emb".to_string(),
                key: vector_key(row),
            };
            (request, Want::Vector(row), Class::Read)
        };
        self.want[slot] = want;
        (request, class)
    }

    fn verify(&mut self, slot: usize, response: &Response) -> bool {
        match (&self.want[slot], response) {
            (Want::One(e), Response::Features(got)) => self.right(got, *e),
            (Want::Many(keys), Response::FeaturesBatch(got)) => {
                got.len() == keys.len() && got.iter().zip(keys).all(|(g, &e)| self.right(g, e))
            }
            (Want::Ack, Response::PutAck { epoch, term }) => *epoch > 0 && *term > 0,
            (Want::Search(q), Response::Neighbors { hits, .. }) => {
                same_hits(hits, &self.shared.truth[*q])
            }
            (Want::Vector(row), Response::Embedding { dim, vector, .. }) => {
                *dim as usize == DIM && vector.as_slice() == self.shared.vectors[*row]
            }
            _ => false,
        }
    }
}

/// What a router does for one request, spelled out over per-shard engines
/// in process: the map lookup, the batch split and merge, the scatter and
/// `merge_topk`. Only the engines' own work and the shard functions are
/// inside; sockets are not.
struct LocalShards {
    map: Arc<ShardMap>,
    engines: Vec<ServeEngine>,
    lookup: Hist,
    merge: Hist,
}

impl LocalShards {
    fn shard_of(&mut self, key: &str) -> usize {
        let t = Instant::now();
        let shard = self.map.shard_for(key);
        self.lookup.record(t.elapsed().as_nanos() as u64);
        shard.0 as usize
    }

    fn handle(&mut self, request: &Request) -> Response {
        match request {
            Request::GetFeatures { entity, .. } | Request::PutOnline { entity, .. } => {
                let shard = self.shard_of(entity);
                let request = match request {
                    Request::PutOnline {
                        group,
                        entity,
                        values,
                        ..
                    } => Request::PutOnline {
                        group: group.clone(),
                        entity: entity.clone(),
                        values: values.clone(),
                        term: self.map.shards()[shard].term,
                    },
                    other => other.clone(),
                };
                self.engines[shard].handle(&request, 0, false)
            }
            Request::GetEmbedding { key, .. } => {
                let shard = self.shard_of(key);
                self.engines[shard].handle(request, 0, false)
            }
            Request::GetFeaturesBatch {
                group,
                entities,
                features,
            } => {
                let mut slots: Vec<Option<WireVector>> = vec![None; entities.len()];
                let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.engines.len()];
                for (i, entity) in entities.iter().enumerate() {
                    let shard = self.shard_of(entity);
                    by_shard[shard].push(i);
                }
                for (shard, idxs) in by_shard.iter().enumerate().filter(|(_, i)| !i.is_empty()) {
                    let part = Request::GetFeaturesBatch {
                        group: group.clone(),
                        entities: idxs.iter().map(|&i| entities[i].clone()).collect(),
                        features: features.clone(),
                    };
                    match self.engines[shard].handle(&part, 0, false) {
                        Response::FeaturesBatch(vs) if vs.len() == idxs.len() => {
                            for (&i, v) in idxs.iter().zip(vs) {
                                slots[i] = Some(v);
                            }
                        }
                        other => return other,
                    }
                }
                Response::FeaturesBatch(slots.into_iter().flatten().collect())
            }
            Request::SearchNearest { k, .. } => {
                let mut all = Vec::new();
                let mut stamp = (0, 0);
                for engine in &self.engines {
                    match engine.handle(request, 0, false) {
                        Response::Neighbors {
                            table_version,
                            index_generation,
                            hits,
                        } => {
                            stamp = (table_version, index_generation);
                            all.extend(hits);
                        }
                        other => return other,
                    }
                }
                let t = Instant::now();
                let hits = merge_topk(all, *k as usize);
                self.merge.record(t.elapsed().as_nanos() as u64);
                Response::Neighbors {
                    table_version: stamp.0,
                    index_generation: stamp.1,
                    hits,
                }
            }
            other => self.engines[0].handle(other, 0, false),
        }
    }
}

/// p50 of `rounds` depth-1 calls, in µs.
fn round_trip_us(rounds: usize, mut call: impl FnMut(usize) -> bool) -> Result<f64, String> {
    let mut h = Hist::new();
    for i in 0..rounds {
        let t = Instant::now();
        if !call(i) {
            return Err("a round-trip probe got a wrong answer".into());
        }
        h.record(t.elapsed().as_nanos() as u64);
    }
    Ok(p50(&h) / 1e3)
}

impl ShardedMix {
    fn cluster(&self) -> &ShardCluster {
        self.cluster.as_ref().expect("cluster runs until teardown")
    }

    fn traffic(&self, lane: u32) -> MixTraffic {
        MixTraffic {
            shared: Arc::clone(&self.shared),
            lane,
            rng: Xoshiro256::seeded(mix(self.shared.seed, u64::from(lane), 0x6d6978)),
            own: HashMap::new(),
            writes: 0,
            in_flight: Vec::new(),
            read_own: Vec::new(),
            want: (0..BURST).map(|_| Want::Ack).collect(),
        }
    }

    fn layers(&self, ctx: &Ctx, tally: &mut Tally, deep: &mut Deep) -> Result<(), String> {
        let cluster = self.cluster();
        let map = cluster.map();
        let leaders = cluster.leader_addrs();
        let rtt = rtt_floor_us(leaders[0])?;
        deep.layers.set("serve.rtt_floor_us", rtt);

        let engines: Vec<ServeEngine> = (0..SHARDS)
            .map(|i| {
                let leader = cluster.leader(ShardId(i as u32));
                let term = map.shards()[i].term;
                leader
                    .engine(fixed_clock(NOW))
                    .with_write_provider(Arc::clone(&leader) as Arc<dyn WriteProvider>, term)
            })
            .collect();
        let mut local = LocalShards {
            map: Arc::clone(&map),
            engines,
            lookup: Hist::new(),
            merge: Hist::new(),
        };
        let parts: Vec<_> = (0..SHARDS)
            .map(|i| cluster.leader(ShardId(i as u32)).parts().clone())
            .collect();
        let (mut reads, mut flat, mut resident) = (ReadLayers::new(), Hist::new(), Hist::new());
        let mut traffic = self.traffic(2);
        let replayed = replay(
            &mut traffic,
            ctx.scaled(REPLAYED),
            &mut deep.tracer,
            &mut |request| local.handle(request),
            &mut |request, _class, id, parent, tracer| match request {
                Request::GetFeatures {
                    group,
                    entity,
                    features,
                } => {
                    let online = &parts[map.shard_for(entity).0 as usize].online;
                    reads.time(tracer, (id, parent), online, (group, entity, features));
                }
                Request::SearchNearest {
                    table,
                    query,
                    k,
                    options,
                } => {
                    let (_, ns) = tracer.time("index.flat.search", id, parent, || {
                        parts[0]
                            .indexes
                            .search(table, query, *k as usize, &options.to_params())
                    });
                    flat.record(ns);
                }
                Request::GetEmbedding { table, key } => {
                    let db = &parts[map.shard_for(key).0 as usize].embeddings;
                    let (_, ns) = tracer.time("embed.fetch", id, parent, || {
                        let view = db.read();
                        view.value
                            .resolve(table)
                            .ok()
                            .and_then(|v| v.table.fetch(key).ok().flatten())
                            .is_some()
                    });
                    resident.record(ns);
                }
                _ => {}
            },
        );
        tally.attempted += replayed.attempted;
        tally.failed += replayed.failed;
        set_serve_costs(&mut deep.layers, &replayed);
        reads.set(&mut deep.layers);
        deep.layers.set("index.flat.search_us", p50(&flat) / 1e3);
        deep.layers.set("embed.get_resident_ns", p50(&resident));
        deep.layers.set("shard.merge_topk_ns", p50(&local.merge));
        deep.layers.set("shard.scatter.fanout", SHARDS as f64);
        let keys: Vec<String> = (0..1_000).map(entity_name).collect();
        let lookups = median_ns(200, || {
            for key in &keys {
                std::hint::black_box(map.shard_for(key));
            }
        });
        deep.layers
            .set("shard.map.lookup_ns", lookups / keys.len() as f64);
        let stores: Vec<&OnlineStore> = parts.iter().map(|p| p.online.as_ref()).collect();
        set_store_rows(&mut deep.layers, &stores, None);

        // The same read by three routes: straight to the owning leader,
        // through the in-process router, through the TCP front. Keys no
        // lane writes, so the seeded value is the right answer.
        let shared = &self.shared;
        let features: Vec<&str> = shared.names.iter().map(String::as_str).collect();
        let read_only = |i: usize| ((i as u32 * 37) % (shared.entities / 8)) * 8 + 5;
        let right = |e: u32, got: Result<WireVector, ClientError>| {
            got.is_ok_and(|g| is_row(&g, e, &shared.names, |j| feature_value(shared.seed, e, j)))
        };
        let mut direct: Vec<FeatureClient> = leaders
            .iter()
            .map(|addr| FeatureClient::connect(addr).map_err(text))
            .collect::<Result<_, _>>()?;
        let front_addr = self.front.as_ref().expect("front runs").addr();
        let mut via_front = FeatureClient::connect(front_addr).map_err(text)?;
        let mut router = cluster.router();
        let direct_us = round_trip_us(2_000, |i| {
            let e = read_only(i);
            let name = entity_name(e);
            let owner = map.shard_for(&name).0 as usize;
            right(e, direct[owner].get_features(GROUP, &name, &features))
        })?;
        let router_us = round_trip_us(2_000, |i| {
            let e = read_only(i);
            right(e, router.get_features(GROUP, &entity_name(e), &features))
        })?;
        let front_us = round_trip_us(2_000, |i| {
            let e = read_only(i);
            right(e, via_front.get_features(GROUP, &entity_name(e), &features))
        })?;
        deep.layers
            .set("shard.router.overhead_us", router_us - direct_us);
        deep.layers
            .set("shard.front.overhead_us", front_us - router_us);

        // A 32-key batch on one shard, straight to its leader, against a
        // 32-key batch the router must split over both shards and merge.
        let on_shard_zero: Vec<String> = (0..shared.entities)
            .map(|i| entity_name(read_only(i as usize)))
            .filter(|name| map.shard_for(name).0 == 0)
            .take(BATCH_KEYS)
            .collect();
        let mixed: Vec<String> = (0..BATCH_KEYS).map(|i| entity_name(read_only(i))).collect();
        let whole = |got: Result<Vec<WireVector>, ClientError>| {
            got.is_ok_and(|vs| vs.len() == BATCH_KEYS && vs.iter().all(|v| v.stale.is_empty()))
        };
        let one_shard: Vec<&str> = on_shard_zero.iter().map(String::as_str).collect();
        let both_shards: Vec<&str> = mixed.iter().map(String::as_str).collect();
        let direct_batch_us = round_trip_us(1_000, |_| {
            whole(direct[0].get_features_batch(GROUP, &one_shard, &features))
        })?;
        let split_batch_us = round_trip_us(1_000, |_| {
            whole(router.get_features_batch(GROUP, &both_shards, &features))
        })?;
        deep.layers.set(
            "shard.router.batch_split_us",
            split_batch_us - direct_batch_us,
        );

        let control = cluster.control();
        let probe_ns = median_ns(20, || {
            std::hint::black_box(control.probe_once());
        });
        deep.layers
            .set("shard.control.probe_round_us", probe_ns / 1e3);
        let retries: u64 = self
            .router
            .lock()
            .expect("router lock")
            .shard_stats()
            .iter()
            .map(|(_, s)| s.retries)
            .sum();
        deep.layers.set("shard.failover.retries", retries as f64);

        // `ShardCluster` keeps its servers private and the wire has no
        // stats endpoint, so a node's server-side p50, batch sizes and
        // frame-pool counters cannot be read from outside: those rows
        // stay 0 on this workload.
        explain(
            deep,
            "sharded_mix",
            Class::Read,
            rtt,
            replayed.codec_ns(Class::Read),
            &[
                (
                    "shard lookup + serve.engine.handle",
                    p50(&replayed.class(Class::Read).handle),
                ),
                ("core.serve", p50(&reads.core)),
                ("storage.online.get_many", p50(&reads.get_many)),
            ],
        );
        explain(
            deep,
            "sharded_mix",
            Class::Search,
            rtt,
            replayed.codec_ns(Class::Search),
            &[
                (
                    "scatter handle x2 + merge_topk",
                    p50(&replayed.class(Class::Search).handle),
                ),
                ("index.flat.search (one shard)", p50(&flat)),
            ],
        );
        explain(
            deep,
            "sharded_mix",
            Class::Write,
            rtt,
            replayed.codec_ns(Class::Write),
            &[(
                "shard lookup + serve.engine.handle",
                p50(&replayed.class(Class::Write).handle),
            )],
        );
        deep.table.push(format!(
            "    routes for one read: direct {direct_us:.1} us, in-process router {router_us:.1} us, TCP front {front_us:.1} us"
        ));
        Ok(())
    }
}

impl System for ShardedMix {
    fn clients(&mut self, _ctx: &Ctx) -> Result<Vec<Client>, String> {
        let front_addr = self.front.as_ref().expect("front runs").addr();
        let via_front = FeatureClient::connect(front_addr).map_err(|e| format!("connect: {e}"))?;
        Ok(vec![
            Client::new(
                0,
                Box::new(SharedRouter(Arc::clone(&self.router))),
                Box::new(self.traffic(0)),
            ),
            Client::new(1, Box::new(via_front), Box::new(self.traffic(1))),
        ])
    }

    fn focus(&self) -> Class {
        Class::Write
    }

    fn oracle_secs(&self) -> f64 {
        self.oracle_s
    }

    fn finish(
        &mut self,
        ctx: &Ctx,
        _clients: &mut [Client],
        tally: &mut Tally,
        deep: Option<&mut Deep>,
    ) {
        if !self.cluster().wait_converged(Duration::from_secs(10)) {
            tally.problem("a follower never converged on its leader");
        }
        let exhausted: u64 = self
            .router
            .lock()
            .expect("router lock")
            .shard_stats()
            .iter()
            .map(|(_, s)| s.exhausted_calls + s.failed_over_calls)
            .sum();
        if exhausted > 0 {
            tally.problem(format!(
                "{exhausted} routed calls failed over on a healthy cluster"
            ));
        }
        if let Some(deep) = deep {
            if let Err(e) = self.layers(ctx, tally, deep) {
                tally.problem(e);
            }
        }
    }

    fn teardown(mut self: Box<Self>) {
        if let Some(front) = self.front.take() {
            front.shutdown();
        }
        if let Some(cluster) = self.cluster.take() {
            cluster.shutdown();
        }
    }
}
