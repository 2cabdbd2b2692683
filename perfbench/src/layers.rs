//! Per-layer measurement shared by the workloads: generated requests are
//! replayed in process through each layer's public function *separately*
//! (`Request::decode` → `ServeEngine::handle` → … → `Response::encode_into`),
//! each call under its own span. A layer's self time is its figure minus
//! the figure of the layer it calls.

use crate::hist::Hist;
use crate::load::{Class, Traffic};
use crate::metrics::Values;
use crate::trace::Tracer;
use bytes::BytesMut;
use fstore_serve::{Request, Response};

/// What the serve layer cost for one class of replayed requests.
#[derive(Default)]
pub struct ServeCost {
    pub req_encode: Hist,
    pub req_decode: Hist,
    pub handle: Hist,
    pub resp_encode: Hist,
    pub resp_decode: Hist,
    pub resp_bytes: u64,
    pub count: u64,
}

pub struct Replay {
    pub by_class: [ServeCost; 4],
    pub attempted: u64,
    pub failed: u64,
}

impl Replay {
    pub fn class(&self, class: Class) -> &ServeCost {
        &self.by_class[class as usize]
    }

    /// Median codec cost of one request/response pair, ns (not part of a
    /// `Health` round trip, so printed beside the round-trip floor).
    pub fn codec_ns(&self, class: Class) -> f64 {
        let c = self.class(class);
        p50(&c.req_encode) + p50(&c.req_decode) + p50(&c.resp_encode) + p50(&c.resp_decode)
    }
}

pub fn p50(h: &Hist) -> f64 {
    h.quantile(0.5).unwrap_or(0.0)
}

/// Replay the next `count` generated requests of `traffic` through the
/// serve layer in process. `handle` is `ServeEngine::handle` on an engine
/// over the same components the wire server uses; `deeper` times the
/// layers below it for the same request under the same root span. Every
/// in-process answer is checked by the oracle like a wire answer.
pub fn replay(
    traffic: &mut dyn Traffic,
    count: usize,
    tracer: &mut Tracer,
    handle: &mut dyn FnMut(&Request) -> Response,
    deeper: &mut dyn FnMut(&Request, Class, u64, u32, &mut Tracer),
) -> Replay {
    let mut out = Replay {
        by_class: Default::default(),
        attempted: 0,
        failed: 0,
    };
    let mut wire = BytesMut::new();
    let mut reply = BytesMut::new();
    for i in 0..count {
        let (request, class) = traffic.next(0);
        let id = (0xfu64 << 40) | i as u64;
        let root_start = tracer.now_ns();
        let cost = &mut out.by_class[class as usize];

        wire.clear();
        let ((), ns) = tracer.time("serve.codec.req_encode", id, 0, || {
            request.encode_into(&mut wire)
        });
        cost.req_encode.record(ns);
        let (decoded, ns) = tracer.time("serve.codec.req_decode", id, 0, || {
            Request::decode(wire.as_slice())
        });
        cost.req_decode.record(ns);
        let decoded = decoded.expect("a request this binary encoded decodes");

        let (response, ns) = tracer.time("serve.engine.handle", id, 0, || handle(&decoded));
        cost.handle.record(ns);

        reply.clear();
        let ((), ns) = tracer.time("serve.codec.resp_encode", id, 0, || {
            response.encode_into(&mut reply)
        });
        cost.resp_encode.record(ns);
        let (back, ns) = tracer.time("serve.codec.resp_decode", id, 0, || {
            Response::decode(reply.as_slice())
        });
        cost.resp_decode.record(ns);
        cost.resp_bytes += reply.len() as u64;
        cost.count += 1;

        out.attempted += 1;
        let back = back.expect("a response this binary encoded decodes");
        if !traffic.verify(0, &back) {
            out.failed += 1;
        }
        deeper(&decoded, class, id, 0, tracer);
        tracer.record("replay", id, 0, root_start, tracer.now_ns());
    }
    out
}

/// The serve-layer rows every workload fills from a replay.
pub fn set_serve_costs(layers: &mut Values, replay: &Replay) {
    let mut all = ServeCost::default();
    for c in &replay.by_class {
        all.req_encode.merge(&c.req_encode);
        all.req_decode.merge(&c.req_decode);
        all.resp_encode.merge(&c.resp_encode);
        all.resp_decode.merge(&c.resp_decode);
        all.resp_bytes += c.resp_bytes;
        all.count += c.count;
    }
    layers.set("serve.codec.req_encode_ns", p50(&all.req_encode));
    layers.set("serve.codec.req_decode_ns", p50(&all.req_decode));
    layers.set("serve.codec.resp_encode_ns", p50(&all.resp_encode));
    layers.set("serve.codec.resp_decode_ns", p50(&all.resp_decode));
    layers.set(
        "serve.codec.resp_bytes",
        all.resp_bytes as f64 / all.count.max(1) as f64,
    );
    layers.set(
        "serve.engine.handle_ns",
        p50(&replay.class(Class::Read).handle),
    );
    layers.set(
        "serve.engine.handle_batch_ns",
        p50(&replay.class(Class::Batch).handle),
    );
    layers.set(
        "serve.engine.handle_search_ns",
        p50(&replay.class(Class::Search).handle),
    );
    layers.set(
        "serve.engine.handle_write_ns",
        p50(&replay.class(Class::Write).handle),
    );
}

/// Median of `rounds` timings of `f`, in nanoseconds.
pub fn median_ns(rounds: usize, mut f: impl FnMut()) -> f64 {
    let mut h = Hist::new();
    for _ in 0..rounds {
        let t = std::time::Instant::now();
        f();
        h.record(t.elapsed().as_nanos() as u64);
    }
    p50(&h)
}

/// `Health` round trips: socket, connection loop, queue and worker, with
/// no store work. Two connections at once, like the probe phase it is set
/// beside — a server whose threads never go idle answers faster than one
/// woken for every request. p50 in µs.
pub fn rtt_floor_us(addr: std::net::SocketAddr) -> Result<f64, String> {
    let one = || -> Result<Hist, String> {
        let mut client = fstore_serve::FeatureClient::connect(addr)
            .map_err(|e| format!("connect {addr}: {e}"))?;
        let mut h = Hist::new();
        for i in 0..4_400 {
            let t = std::time::Instant::now();
            client.health().map_err(|e| format!("health: {e}"))?;
            if i >= 400 {
                h.record(t.elapsed().as_nanos() as u64);
            }
        }
        Ok(h)
    };
    let (a, b) = std::thread::scope(|scope| {
        let other = scope.spawn(one);
        (one(), other.join().expect("health thread panicked"))
    });
    let mut both = a?;
    both.merge(&b?);
    Ok(p50(&both) / 1e3)
}

/// The server's own p50 for `endpoint` beside the client's, read from its
/// public metrics snapshot right after the probe phase.
pub fn set_server_latency(
    layers: &mut Values,
    snapshot: &fstore_serve::MetricsSnapshot,
    endpoint: &str,
    client_p50_us: f64,
) {
    let server_p50_us = snapshot
        .endpoints
        .get(endpoint)
        .and_then(|e| e.p50_ms)
        .map_or(0.0, |ms| ms * 1e3);
    layers.set("serve.server_p50_us", server_p50_us);
    layers.set("serve.net_gap_us", client_p50_us - server_p50_us);
}

/// The whole-run counters of a server's public metrics snapshot.
pub fn set_server_counters(layers: &mut Values, snapshot: &fstore_serve::MetricsSnapshot) {
    layers.set(
        "serve.batch.mean_size",
        snapshot.batched_requests as f64 / snapshot.batches.max(1) as f64,
    );
    layers.set("serve.admission.shed", snapshot.shed as f64);
    layers.set(
        "serve.wire.payload_allocs",
        snapshot.wire.payload_allocs as f64,
    );
    layers.set(
        "serve.wire.pool_hit_rate",
        snapshot.wire.pool_hit_rate.unwrap_or(0.0),
    );
}

/// A feature read's layers below the engine, each called on its own for
/// the same request: `FeatureServer::serve`, then `OnlineStore::get_many`.
pub struct ReadLayers {
    pub core: Hist,
    pub get_many: Hist,
}

impl ReadLayers {
    pub fn new() -> ReadLayers {
        ReadLayers {
            core: Hist::new(),
            get_many: Hist::new(),
        }
    }

    pub fn time(
        &mut self,
        tracer: &mut Tracer,
        (id, parent): (u64, u32),
        online: &std::sync::Arc<fstore_storage::OnlineStore>,
        (group, entity, features): (&str, &str, &[String]),
    ) {
        let server = fstore_core::FeatureServer::new(std::sync::Arc::clone(online));
        let key = fstore_common::EntityKey::new(entity.to_string());
        let refs: Vec<&str> = features.iter().map(String::as_str).collect();
        let (_, ns) = tracer.time("core.serve", id, parent, || {
            server.serve(group, &key, &refs, crate::data::NOW)
        });
        self.core.record(ns);
        let (_, ns) = tracer.time("storage.online.get_many", id, parent, || {
            online.get_many(group, &key, &refs)
        });
        self.get_many.record(ns);
    }

    pub fn set(&self, layers: &mut Values) {
        layers.set("core.serve_ns", p50(&self.core));
        layers.set("storage.online.get_many_ns", p50(&self.get_many));
    }
}

/// `storage.online.hit_ratio` over the stores a workload reads, and
/// `storage.online.get_many_contended_ns`: `get_many` on random entities of
/// the first store while a second thread keeps calling `rewrite` (a
/// `put_row` of the value a row already holds, so no expectation moves).
pub struct Contention<'a> {
    /// The features each contended read asks for.
    pub features: &'a [String],
    /// Reads and rewrites draw from entities `0..entities`.
    pub entities: u64,
    pub rewrite: &'a (dyn Fn(u32) + Sync),
}

pub fn set_store_rows(
    layers: &mut Values,
    stores: &[&fstore_storage::OnlineStore],
    contended: Option<Contention>,
) {
    use fstore_common::Rng;
    if let Some(Contention {
        features,
        entities,
        rewrite,
    }) = contended
    {
        let refs: Vec<&str> = features.iter().map(String::as_str).collect();
        let stop = std::sync::atomic::AtomicBool::new(false);
        let mut h = Hist::new();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut rng = fstore_common::Xoshiro256::seeded(7);
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    rewrite(rng.below(entities) as u32);
                }
            });
            let mut rng = fstore_common::Xoshiro256::seeded(8);
            for _ in 0..20_000 {
                let e = rng.below(entities) as u32;
                let key = fstore_common::EntityKey::new(crate::data::entity_name(e));
                let t = std::time::Instant::now();
                std::hint::black_box(stores[0].get_many(crate::data::GROUP, &key, &refs));
                h.record(t.elapsed().as_nanos() as u64);
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        layers.set("storage.online.get_many_contended_ns", p50(&h));
    }
    let (hits, misses) = stores.iter().fold((0, 0), |acc, store| {
        let (h, m, _, _) = store.stats().snapshot();
        (acc.0 + h, acc.1 + m)
    });
    layers.set(
        "storage.online.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
}
