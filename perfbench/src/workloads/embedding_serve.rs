//! `embedding_serve`: one node with `EmbeddingDb` + `IndexCatalog` +
//! `TieredEmbeddings`. Table `items` (HNSW, ef 64) fits the tier budget;
//! table `hist` keeps 8 versions whose payload is several times the
//! budget, so all but the latest are spilled to 16 KiB-block segments.
//!
//! Mix: 60 % `SearchNearest` k=10 (HNSW), 10 % `SearchNearest` exhaustive
//! (exact scan), 10 % `SearchNearestByKey`, 20 % `GetEmbedding` — half on
//! `hist` latest (resident), half uniform over the spilled versions.
//! `index` distance math and `tier` faults dominate; `storage`, `durable`,
//! `repl` and `shard` are idle. One search in eight is exhaustive, so the
//! search p99 sits in the flat-scan tail while the p50 is the HNSW walk.

use crate::data::{
    ascending, cluster_centers, clustered, exact_top_k, mix, overlap, same_hits, text,
    versioned_vector, NOW,
};
use crate::hist::Hist;
use crate::layers::{
    median_ns, p50, replay, rtt_floor_us, set_serve_costs, set_server_counters, set_server_latency,
};
use crate::load::{Class, Client, Summary, Traffic, BURST};
use crate::run::{explain, Ctx, Deep, System, Tally};
use fstore_common::{Rng, Xoshiro256};
use fstore_core::FeatureServer;
use fstore_embed::{EmbeddingDb, EmbeddingProvenance, EmbeddingTable};
use fstore_index::{l2_sq, HnswConfig};
use fstore_serve::{
    fixed_clock, start, FeatureClient, IndexCatalog, IndexSpec, Request, Response, SearchOptions,
    ServeConfig, ServeEngine, ServerHandle, WireHit,
};
use fstore_storage::OnlineStore;
use fstore_tier::{TierConfig, TieredEmbeddings};
use std::sync::Arc;
use std::time::Instant;

const DIM: usize = 64;
const ITEMS: usize = 6_000;
const CENTERS: usize = 64;
const HIST_VERSIONS: u32 = 8;
const HIST_ROWS: usize = 8_192;
/// `items` (1.5 MiB) and `hist` latest (2 MiB) stay resident; what is
/// left of the budget caches blocks of the 14 MiB that spilled.
const BUDGET_BYTES: u64 = 5 << 20;
const BLOCK_BYTES: usize = 16 * 1024;
const SERVER_WORKERS: usize = 2;
const K: usize = 10;
const POOL: usize = 256;
const REPLAYED: usize = 3_000;

/// The oracle: a fixed pool of queries with their exact neighbours,
/// computed by the benchmark's own scan before any request is sent.
struct Pools {
    queries: Vec<Vec<f32>>,
    query_truth: Vec<Vec<(String, f32)>>,
    anchors: Vec<String>,
    anchor_truth: Vec<Vec<(String, f32)>>,
}

struct EmbeddingServe {
    seed: u64,
    hist_rows: u32,
    db: EmbeddingDb,
    catalog: Arc<IndexCatalog>,
    tier: TieredEmbeddings,
    pools: Arc<Pools>,
    handle: Option<ServerHandle>,
    hnsw_build_s: f64,
    demote_s: f64,
    oracle_s: f64,
}

fn item_key(row: usize) -> String {
    format!("i{row:05}")
}

fn hist_key(row: u32) -> String {
    format!("h{row:05}")
}

pub fn setup(ctx: &Ctx) -> Result<Box<dyn System>, String> {
    let items = ctx.scaled(ITEMS);
    let hist_rows = ctx.scaled(HIST_ROWS);
    let mut rng = Xoshiro256::seeded(mix(ctx.seed, 0x656d62, 0));
    let centers = cluster_centers(&mut rng, CENTERS, DIM);
    let data = clustered(&mut rng, items, DIM, &centers);

    let db = EmbeddingDb::new();
    let mut table = EmbeddingTable::new(DIM).map_err(text)?;
    for (row, v) in data.iter().enumerate() {
        table.insert(item_key(row), v.clone()).map_err(text)?;
    }
    db.publish("items", table, EmbeddingProvenance::default(), NOW)
        .map_err(text)?;
    let catalog = Arc::new(IndexCatalog::new(db.clone()));
    let started = Instant::now();
    catalog
        .build(
            "items",
            &IndexSpec::Hnsw(HnswConfig {
                ef_construction: 64,
                ef_search: 64,
                ..HnswConfig::default()
            }),
        )
        .map_err(text)?;
    let hnsw_build_s = started.elapsed().as_secs_f64();

    for version in 1..=HIST_VERSIONS {
        let mut table = EmbeddingTable::new(DIM).map_err(text)?;
        for row in 0..hist_rows as u32 {
            table
                .insert(hist_key(row), versioned_vector(ctx.seed, version, row, DIM))
                .map_err(text)?;
        }
        db.publish("hist", table, EmbeddingProvenance::default(), NOW)
            .map_err(text)?;
    }
    let budget = if ctx.quick {
        BUDGET_BYTES / 4
    } else {
        BUDGET_BYTES
    };
    let mut config = TierConfig::new(ctx.run_dir.join("tier"), budget);
    config.block_bytes = BLOCK_BYTES;
    let tier = TieredEmbeddings::attach(&db, config).map_err(text)?;
    tier.attach_catalog(Arc::clone(&catalog));
    let started = Instant::now();
    tier.demote_now().map_err(text)?;
    let demote_s = started.elapsed().as_secs_f64();

    let engine = ServeEngine::new(
        FeatureServer::new(Arc::new(OnlineStore::default())),
        fixed_clock(NOW),
    )
    .with_embeddings(db.clone())
    .with_index_catalog(Arc::clone(&catalog));
    let config = ServeConfig {
        workers: SERVER_WORKERS,
        ..ServeConfig::default()
    };
    let handle = start(engine, config).map_err(|e| format!("start server: {e}"))?;
    tier.attach_metrics(&handle.metrics());

    // The oracle's truth is the benchmark's work, not the system's: its
    // time is taken out of `setup_s`.
    let started = Instant::now();
    let keyed = |hits: Vec<(usize, f32)>| -> Vec<(String, f32)> {
        hits.into_iter()
            .map(|(row, d)| (item_key(row), d))
            .collect()
    };
    let queries = clustered(&mut rng, POOL, DIM, &centers);
    let query_truth = queries
        .iter()
        .map(|q| keyed(exact_top_k(&data, q, K, None)))
        .collect();
    let anchor_rows: Vec<usize> = (0..POOL)
        .map(|_| rng.below(items as u64) as usize)
        .collect();
    let anchor_truth = anchor_rows
        .iter()
        .map(|&row| keyed(exact_top_k(&data, &data[row], K, Some(row))))
        .collect();
    let pools = Arc::new(Pools {
        queries,
        query_truth,
        anchors: anchor_rows.iter().map(|&row| item_key(row)).collect(),
        anchor_truth,
    });
    let oracle_s = started.elapsed().as_secs_f64();

    Ok(Box::new(EmbeddingServe {
        seed: ctx.seed,
        hist_rows: hist_rows as u32,
        db,
        catalog,
        tier,
        pools,
        handle: Some(handle),
        hnsw_build_s,
        demote_s,
        oracle_s,
    }))
}

#[derive(Clone, Copy)]
enum Want {
    Exact(usize),
    Approx(usize),
    ByKey(usize),
    Hist { version: u32, row: u32 },
}

struct EmbedTraffic {
    seed: u64,
    hist_rows: u32,
    pools: Arc<Pools>,
    rng: Xoshiro256,
    want: [Want; BURST],
    summary: Summary,
}

/// An approximate search must return `K` hits nearest first; how many of
/// the true neighbours it found is settled over the whole run.
fn judge_approx(summary: &mut Summary, hits: &[WireHit], truth: &[(String, f32)]) -> bool {
    if hits.len() != K || !ascending(hits) {
        return false;
    }
    summary.approx_searches += 1;
    summary.recall_found += overlap(hits, truth);
    summary.recall_wanted += truth.len() as u64;
    true
}

impl Traffic for EmbedTraffic {
    fn next(&mut self, slot: usize) -> (Request, Class) {
        let roll = self.rng.below(100);
        let pick = self.rng.below(POOL as u64) as usize;
        let search = |query: &[f32], exhaustive: bool| Request::SearchNearest {
            table: "items".to_string(),
            query: query.to_vec(),
            k: K as u32,
            options: SearchOptions {
                exhaustive,
                ..SearchOptions::default()
            },
        };
        let (request, want, class) = if roll < 60 {
            let r = search(&self.pools.queries[pick], false);
            (r, Want::Approx(pick), Class::Search)
        } else if roll < 70 {
            let r = search(&self.pools.queries[pick], true);
            (r, Want::Exact(pick), Class::Search)
        } else if roll < 80 {
            let r = Request::SearchNearestByKey {
                table: "items".to_string(),
                key: self.pools.anchors[pick].clone(),
                k: K as u32,
                options: SearchOptions::default(),
            };
            (r, Want::ByKey(pick), Class::Search)
        } else {
            let row = self.rng.below(u64::from(self.hist_rows)) as u32;
            let (table, version) = if roll < 90 {
                ("hist".to_string(), HIST_VERSIONS)
            } else {
                let v = 1 + self.rng.below(u64::from(HIST_VERSIONS) - 1) as u32;
                (format!("hist@v{v}"), v)
            };
            let r = Request::GetEmbedding {
                table,
                key: hist_key(row),
            };
            (r, Want::Hist { version, row }, Class::Read)
        };
        self.want[slot] = want;
        (request, class)
    }

    fn verify(&mut self, slot: usize, response: &Response) -> bool {
        let pools = &self.pools;
        match (self.want[slot], response) {
            (Want::Exact(q), Response::Neighbors { hits, .. }) => {
                same_hits(hits, &pools.query_truth[q])
            }
            (Want::Approx(q), Response::Neighbors { hits, .. }) => {
                judge_approx(&mut self.summary, hits, &pools.query_truth[q])
            }
            (Want::ByKey(a), Response::Neighbors { hits, .. }) => {
                judge_approx(&mut self.summary, hits, &pools.anchor_truth[a])
            }
            (
                Want::Hist { version, row },
                Response::Embedding {
                    dim,
                    version: got_version,
                    vector,
                    ..
                },
            ) => {
                *dim as usize == DIM
                    && *got_version == version
                    && vector.as_slice() == versioned_vector(self.seed, version, row, DIM)
            }
            _ => false,
        }
    }

    fn summary(&self) -> Summary {
        self.summary
    }
}

impl EmbeddingServe {
    fn traffic(&self, lane: u64) -> EmbedTraffic {
        EmbedTraffic {
            seed: self.seed,
            hist_rows: self.hist_rows,
            pools: Arc::clone(&self.pools),
            rng: Xoshiro256::seeded(mix(self.seed, lane, 0x656d6265)),
            want: [Want::Exact(0); BURST],
            summary: Summary::default(),
        }
    }

    fn handle(&self) -> &ServerHandle {
        self.handle.as_ref().expect("server runs until teardown")
    }

    /// One `fetch` through the public path a `GetEmbedding` takes.
    fn fetch(&self, table: &str, key: &str) -> bool {
        let view = self.db.read();
        view.value
            .resolve(table)
            .ok()
            .and_then(|v| v.table.fetch(key).ok().flatten())
            .is_some()
    }

    fn layers(&self, ctx: &Ctx, tally: &mut Tally, deep: &mut Deep) -> Result<(), String> {
        let rtt = rtt_floor_us(self.handle().addr())?;
        deep.layers.set("serve.rtt_floor_us", rtt);
        deep.layers.set("index.hnsw.build_s", self.hnsw_build_s);
        deep.layers.set("tier.demote_s", self.demote_s);

        let engine = ServeEngine::new(
            FeatureServer::new(Arc::new(OnlineStore::default())),
            fixed_clock(NOW),
        )
        .with_embeddings(self.db.clone())
        .with_index_catalog(Arc::clone(&self.catalog));
        let (mut flat, mut hnsw, mut fetch) = (Hist::new(), Hist::new(), Hist::new());
        let mut traffic = self.traffic(2);
        let replayed = replay(
            &mut traffic,
            ctx.scaled(REPLAYED),
            &mut deep.tracer,
            &mut |request| engine.handle(request, 0, false),
            &mut |request, _class, id, parent, tracer| match request {
                Request::SearchNearest {
                    table,
                    query,
                    k,
                    options,
                } => {
                    let (name, into) = if options.exhaustive {
                        ("index.flat.search", &mut flat)
                    } else {
                        ("index.hnsw.search", &mut hnsw)
                    };
                    let (_, ns) = tracer.time(name, id, parent, || {
                        self.catalog
                            .search(table, query, *k as usize, &options.to_params())
                    });
                    into.record(ns);
                }
                Request::SearchNearestByKey {
                    table,
                    key,
                    k,
                    options,
                } => {
                    let (_, ns) = tracer.time("index.hnsw.search", id, parent, || {
                        self.catalog
                            .search_by_key(table, key, *k as usize, &options.to_params())
                    });
                    hnsw.record(ns);
                }
                Request::GetEmbedding { table, key } => {
                    let (_, ns) = tracer.time("embed.fetch", id, parent, || self.fetch(table, key));
                    fetch.record(ns);
                }
                _ => {}
            },
        );
        tally.attempted += replayed.attempted;
        tally.failed += replayed.failed;
        let summary = traffic.summary();
        if summary.recall_found * 100 < summary.recall_wanted * 95 {
            tally.failed += summary.approx_searches;
        }
        set_serve_costs(&mut deep.layers, &replayed);
        deep.layers.set("index.flat.search_us", p50(&flat) / 1e3);
        deep.layers.set("index.hnsw.search_us", p50(&hnsw) / 1e3);

        let (a, b) = (&self.pools.queries[0], &self.pools.queries[1]);
        let l2_batch = median_ns(200, || {
            for _ in 0..100 {
                std::hint::black_box(l2_sq(std::hint::black_box(a), std::hint::black_box(b)));
            }
        });
        deep.layers.set("index.l2_sq_ns", l2_batch / 100.0);

        // Resident, cached and faulting reads apart: a first read of a
        // random spilled row usually faults its block in, an immediate
        // second read of the same row finds it cached. The cache's own
        // miss counter says which was which.
        let cache = self.tier.cache();
        let mut rng = Xoshiro256::seeded(mix(self.seed, 5, 0));
        let (mut resident, mut hit, mut fault) = (Hist::new(), Hist::new(), Hist::new());
        for _ in 0..1_000 {
            let key = hist_key(rng.below(u64::from(self.hist_rows)) as u32);
            let t = Instant::now();
            self.fetch("hist", &key);
            resident.record(t.elapsed().as_nanos() as u64);
            let table = format!("hist@v{}", 1 + rng.below(u64::from(HIST_VERSIONS) - 1));
            for _ in 0..2 {
                let misses = cache.stats().misses;
                let t = Instant::now();
                self.fetch(&table, &key);
                let ns = t.elapsed().as_nanos() as u64;
                if cache.stats().misses > misses {
                    fault.record(ns);
                } else {
                    hit.record(ns);
                }
            }
        }
        deep.layers.set("embed.get_resident_ns", p50(&resident));
        deep.layers.set("tier.get_hit_ns", p50(&hit));
        deep.layers.set("tier.get_fault_us", p50(&fault) / 1e3);

        let snapshot = self.handle().metrics().snapshot();
        set_server_counters(&mut deep.layers, &snapshot);
        explain(
            deep,
            "embedding_serve",
            Class::Read,
            rtt,
            replayed.codec_ns(Class::Read),
            &[
                (
                    "serve.engine.handle",
                    p50(&replayed.class(Class::Read).handle),
                ),
                ("embed/tier fetch (resident and spilled)", p50(&fetch)),
            ],
        );
        let mut searches = Hist::new();
        searches.merge(&flat);
        searches.merge(&hnsw);
        explain(
            deep,
            "embedding_serve",
            Class::Search,
            rtt,
            replayed.codec_ns(Class::Search),
            &[
                (
                    "serve.engine.handle",
                    p50(&replayed.class(Class::Search).handle),
                ),
                ("index search (catalog, HNSW and flat)", p50(&searches)),
            ],
        );
        Ok(())
    }
}

impl System for EmbeddingServe {
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
        Class::Search
    }

    fn oracle_secs(&self) -> f64 {
        self.oracle_s
    }

    fn after_probe(&mut self, deep: &mut Deep) {
        let snapshot = self.handle().metrics().snapshot();
        let client_p50 = deep.probe.latency_us(Class::Read, 0.5).0;
        set_server_latency(&mut deep.layers, &snapshot, "get_embedding", client_p50);
    }

    fn finish(
        &mut self,
        ctx: &Ctx,
        _clients: &mut [Client],
        tally: &mut Tally,
        deep: Option<&mut Deep>,
    ) {
        if let Some(deep) = deep {
            if let Err(e) = self.layers(ctx, tally, deep) {
                tally.problem(e);
            }
            let tier = self.tier.stats().snapshot();
            deep.layers
                .set("tier.hit_ratio", tier.hit_rate.unwrap_or(0.0));
            deep.layers.set("tier.evictions", tier.evictions as f64);
            deep.layers
                .set("tier.peak_resident_bytes", tier.peak_resident_bytes as f64);
        }
        // The cache makes room and then inserts, and the two steps are not
        // one: two workers faulting at once can each see room and both
        // insert. The run fails past that one-block-per-extra-worker
        // overshoot; `tier.peak_resident_bytes` reports the real peak.
        let tier = self.tier.stats().snapshot();
        let allowed = tier.budget_bytes + (SERVER_WORKERS as u64 - 1) * BLOCK_BYTES as u64;
        if tier.peak_resident_bytes > allowed {
            tally.problem(format!(
                "tier held {} resident bytes against a budget of {}",
                tier.peak_resident_bytes, tier.budget_bytes
            ));
        }
        if tier.spilled_versions != u64::from(HIST_VERSIONS) - 1 {
            tally.problem(format!(
                "{} versions spilled, want {}",
                tier.spilled_versions,
                HIST_VERSIONS - 1
            ));
        }
        if let Some(e) = self.tier.last_error() {
            tally.problem(format!("tier demoter: {e}"));
        }
    }

    fn teardown(mut self: Box<Self>) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
        self.tier.shutdown();
    }
}
