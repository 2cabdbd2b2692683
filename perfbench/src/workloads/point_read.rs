//! `point_read`: one `ServeEngine` over TCP, Zipf(0.99) keys, `GetFeatures`
//! of 4 features, every 16th request a `GetFeaturesBatch` of 32 keys.
//!
//! `serve` (codec, connection loop, batching, admission, metrics), `core`
//! and `storage` do all the work; `index`, `tier`, `durable`, `repl` and
//! `shard` do none. It is the showcase for codec, metrics-lock and
//! connection-engine changes and the no-change control for kernel, WAL
//! and router changes.

use crate::data::{entity_name, feature_names, feature_value, is_row, mix, GROUP, NOW};
use crate::hist::Hist;
use crate::layers::{
    p50, replay, rtt_floor_us, set_serve_costs, set_server_counters, set_server_latency,
    set_store_rows, Contention, ReadLayers,
};
use crate::load::{Class, Client, Traffic, BURST};
use crate::run::{explain, paced_stage, Ctx, Deep, System, Tally};
use fstore_common::{EntityKey, Rng, Value, Xoshiro256, Zipf};
use fstore_core::FeatureServer;
use fstore_serve::{
    fixed_clock, start, FeatureClient, Request, Response, ServeConfig, ServeEngine, ServerHandle,
    WireVector,
};
use fstore_storage::OnlineStore;
use std::sync::Arc;

const ENTITIES: usize = 100_000;
const STORED_FEATURES: usize = 8;
const READ_FEATURES: usize = 4;
const BATCH_KEYS: usize = 32;
const BATCH_EVERY: u64 = 16;
const REPLAYED: usize = 10_000;

struct PointRead {
    seed: u64,
    corrupt: bool,
    entities: u32,
    online: Arc<OnlineStore>,
    zipf: Arc<Zipf>,
    handle: Option<ServerHandle>,
}

pub fn setup(ctx: &Ctx) -> Result<Box<dyn System>, String> {
    let entities = ctx.scaled(ENTITIES) as u32;
    let online = Arc::new(OnlineStore::new(64));
    let names = feature_names(STORED_FEATURES);
    for e in 0..entities {
        let values: Vec<(&str, Value)> = names
            .iter()
            .enumerate()
            .map(|(j, name)| (name.as_str(), feature_value(ctx.seed, e, j)))
            .collect();
        online.put_row(GROUP, &EntityKey::new(entity_name(e)), &values, NOW);
    }
    let engine = ServeEngine::new(FeatureServer::new(Arc::clone(&online)), fixed_clock(NOW));
    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let handle = start(engine, config).map_err(|e| format!("start server: {e}"))?;
    Ok(Box::new(PointRead {
        seed: ctx.seed,
        corrupt: ctx.corrupt,
        entities,
        online,
        zipf: Arc::new(Zipf::new(entities as usize, 0.99)),
        handle: Some(handle),
    }))
}

enum Want {
    One(u32),
    Many(Vec<u32>),
}

struct PointTraffic {
    seed: u64,
    corrupt: bool,
    entities: u32,
    zipf: Arc<Zipf>,
    rng: Xoshiro256,
    features: Vec<String>,
    sent: u64,
    want: Vec<Want>,
}

impl PointTraffic {
    /// Zipf rank → entity through a fixed bijection, so the hot keys are
    /// spread over the key space (and the store's shards).
    fn draw(&mut self) -> u32 {
        let rank = self.zipf.sample(&mut self.rng) as u64;
        ((rank * 7919 + self.seed % 1009) % u64::from(self.entities)) as u32
    }

    fn right(&self, got: &WireVector, e: u32) -> bool {
        is_row(got, e, &self.features, |j| {
            if self.corrupt && e.is_multiple_of(7) && j == 0 {
                Value::Int(-1)
            } else {
                feature_value(self.seed, e, j)
            }
        })
    }
}

impl Traffic for PointTraffic {
    fn next(&mut self, slot: usize) -> (Request, Class) {
        self.sent += 1;
        if self.sent.is_multiple_of(BATCH_EVERY) {
            let keys: Vec<u32> = (0..BATCH_KEYS).map(|_| self.draw()).collect();
            let request = Request::GetFeaturesBatch {
                group: GROUP.to_string(),
                entities: keys.iter().map(|&e| entity_name(e)).collect(),
                features: self.features.clone(),
            };
            self.want[slot] = Want::Many(keys);
            (request, Class::Batch)
        } else {
            let e = self.draw();
            self.want[slot] = Want::One(e);
            let request = Request::GetFeatures {
                group: GROUP.to_string(),
                entity: entity_name(e),
                features: self.features.clone(),
            };
            (request, Class::Read)
        }
    }

    fn verify(&mut self, slot: usize, response: &Response) -> bool {
        match (&self.want[slot], response) {
            (Want::One(e), Response::Features(got)) => self.right(got, *e),
            (Want::Many(keys), Response::FeaturesBatch(got)) => {
                got.len() == keys.len() && got.iter().zip(keys).all(|(g, &e)| self.right(g, e))
            }
            _ => false,
        }
    }
}

impl PointRead {
    fn traffic(&self, lane: u64) -> PointTraffic {
        PointTraffic {
            seed: self.seed,
            corrupt: self.corrupt,
            entities: self.entities,
            zipf: Arc::clone(&self.zipf),
            rng: Xoshiro256::seeded(mix(self.seed, lane, 0x706f696e74)),
            features: feature_names(READ_FEATURES),
            sent: 0,
            want: (0..BURST).map(|_| Want::One(0)).collect(),
        }
    }

    fn handle(&self) -> &ServerHandle {
        self.handle.as_ref().expect("server runs until teardown")
    }

    fn layers(
        &self,
        ctx: &Ctx,
        clients: &mut [Client],
        tally: &mut Tally,
        deep: &mut Deep,
    ) -> Result<(), String> {
        let rtt = rtt_floor_us(self.handle().addr())?;
        deep.layers.set("serve.rtt_floor_us", rtt);

        // The same components behind a second engine, called in process.
        let server = FeatureServer::new(Arc::clone(&self.online));
        let engine = ServeEngine::new(server.clone(), fixed_clock(NOW));
        let online = &self.online;
        let (mut reads, mut core_batch) = (ReadLayers::new(), Hist::new());
        let mut traffic = self.traffic(2);
        let replayed = replay(
            &mut traffic,
            ctx.scaled(REPLAYED),
            &mut deep.tracer,
            &mut |request| engine.handle(request, 0, false),
            &mut |request, _class, id, parent, tracer| match request {
                Request::GetFeatures {
                    group,
                    entity,
                    features,
                } => reads.time(tracer, (id, parent), online, (group, entity, features)),
                Request::GetFeaturesBatch {
                    group,
                    entities,
                    features,
                } => {
                    let keys: Vec<EntityKey> =
                        entities.iter().map(|e| EntityKey::new(e.clone())).collect();
                    let refs: Vec<&str> = features.iter().map(String::as_str).collect();
                    let (_, ns) = tracer.time("core.serve_batch", id, parent, || {
                        server.serve_batch(group, &keys, &refs, NOW)
                    });
                    core_batch.record(ns);
                }
                _ => {}
            },
        );
        tally.attempted += replayed.attempted;
        tally.failed += replayed.failed;
        set_serve_costs(&mut deep.layers, &replayed);
        reads.set(&mut deep.layers);
        deep.layers.set(
            "core.serve_batch_ns_per_key",
            p50(&core_batch) / BATCH_KEYS as f64,
        );

        // Rewriting a row with the value it already holds leaves the
        // oracle's expectations true.
        let names = feature_names(STORED_FEATURES);
        let (seed, entities) = (self.seed, u64::from(self.entities));
        let rewrite = |e: u32| {
            let values: Vec<(&str, Value)> = names
                .iter()
                .enumerate()
                .map(|(j, name)| (name.as_str(), feature_value(seed, e, j)))
                .collect();
            online.put_row(GROUP, &EntityKey::new(entity_name(e)), &values, NOW);
        };
        let mut put_row = Hist::new();
        let mut rng = Xoshiro256::seeded(mix(self.seed, 3, 0));
        for _ in 0..2_000 {
            let e = rng.below(entities) as u32;
            let t = std::time::Instant::now();
            rewrite(e);
            put_row.record(t.elapsed().as_nanos() as u64);
        }
        deep.layers.set("storage.online.put_row_ns", p50(&put_row));

        set_store_rows(
            &mut deep.layers,
            &[online.as_ref()],
            Some(Contention {
                features: &feature_names(READ_FEATURES),
                entities,
                rewrite: &rewrite,
            }),
        );

        paced_stage(ctx, clients, &mut deep.layers);

        let snapshot = self.handle().metrics().snapshot();
        set_server_counters(&mut deep.layers, &snapshot);
        explain(
            deep,
            "point_read",
            Class::Read,
            rtt,
            replayed.codec_ns(Class::Read),
            &[
                (
                    "serve.engine.handle",
                    p50(&replayed.class(Class::Read).handle),
                ),
                ("core.serve", p50(&reads.core)),
                ("storage.online.get_many", p50(&reads.get_many)),
            ],
        );
        explain(
            deep,
            "point_read",
            Class::Batch,
            rtt,
            replayed.codec_ns(Class::Batch),
            &[
                (
                    "serve.engine.handle",
                    p50(&replayed.class(Class::Batch).handle),
                ),
                ("core.serve_batch", p50(&core_batch)),
            ],
        );
        Ok(())
    }
}

impl System for PointRead {
    fn clients(&mut self, _ctx: &Ctx) -> Result<Vec<Client>, String> {
        (0..2)
            .map(|lane| {
                let conn = FeatureClient::connect(self.handle().addr())
                    .map_err(|e| format!("connect: {e}"))?;
                Ok(Client::new(
                    lane,
                    Box::new(conn),
                    Box::new(self.traffic(u64::from(lane))),
                ))
            })
            .collect()
    }

    fn focus(&self) -> Class {
        Class::Batch
    }

    fn after_probe(&mut self, deep: &mut Deep) {
        let snapshot = self.handle().metrics().snapshot();
        let client_p50 = deep.probe.latency_us(Class::Read, 0.5).0;
        set_server_latency(&mut deep.layers, &snapshot, "get_features", client_p50);
    }

    fn finish(
        &mut self,
        ctx: &Ctx,
        clients: &mut [Client],
        tally: &mut Tally,
        deep: Option<&mut Deep>,
    ) {
        let rows = self.online.len();
        if rows != self.entities as usize * STORED_FEATURES {
            tally.problem(format!(
                "online store holds {rows} values after a read-only run"
            ));
        }
        if self.handle().metrics().shed_count() > 0 {
            tally.problem("the server shed requests under two closed-loop clients");
        }
        if let Some(deep) = deep {
            if let Err(e) = self.layers(ctx, clients, tally, deep) {
                tally.problem(e);
            }
        }
    }

    fn teardown(mut self: Box<Self>) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}
