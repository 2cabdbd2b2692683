//! Loopback tests for the ANN serving path: search endpoints end to end,
//! typed index errors, and — the one that matters — concurrent clients
//! hammering `SearchNearest` while the catalog rebuilds and swaps the
//! index under them. The swap must be invisible: no request may fail with
//! anything other than an explicit `Overloaded`, and recall after the
//! swap must not be worse than before it.

mod common;

use fstore_common::{Rng, Timestamp, Xoshiro256};
use fstore_core::FeatureServer;
use fstore_embed::{EmbeddingDb, EmbeddingProvenance, EmbeddingTable};
use fstore_index::{HnswConfig, IvfConfig};
use fstore_serve::{
    fixed_clock, start, ErrorCode, FeatureClient, IndexCatalog, IndexSpec, SearchOptions,
    ServeConfig, ServeEngine, StoreApi,
};
use fstore_storage::OnlineStore;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const N: usize = 2_000;
const DIM: usize = 8;
const K: usize = 10;
const NOW: Timestamp = Timestamp(10_000);

/// Clustered vectors (so IVF/HNSW have structure to exploit) keyed `e{i}`.
fn make_table(seed: u64) -> EmbeddingTable {
    let mut rng = Xoshiro256::seeded(seed);
    let centers: Vec<Vec<f32>> = (0..16)
        .map(|_| (0..DIM).map(|_| rng.normal() as f32 * 4.0).collect())
        .collect();
    let mut table = EmbeddingTable::new(DIM).unwrap();
    for i in 0..N {
        let c = &centers[i % centers.len()];
        let v: Vec<f32> = c.iter().map(|&x| x + rng.normal() as f32 * 0.5).collect();
        table.insert(format!("e{i}"), v).unwrap();
    }
    table
}

fn serving_stack() -> (EmbeddingDb, Arc<IndexCatalog>, ServeEngine) {
    let store = EmbeddingDb::new();
    store
        .publish("emb", make_table(42), EmbeddingProvenance::default(), NOW)
        .unwrap();
    let catalog = Arc::new(IndexCatalog::new(store.clone()));
    let engine = ServeEngine::new(
        FeatureServer::new(Arc::new(OnlineStore::default())),
        fixed_clock(NOW),
    )
    .with_index_catalog(Arc::clone(&catalog));
    (store, catalog, engine)
}

/// Exact top-k keys for `query` against the live table, for recall checks.
fn exact_top_k(store: &EmbeddingDb, query: &[f32], k: usize) -> Vec<String> {
    let snapshot = store.snapshot();
    let version = snapshot.latest("emb").unwrap();
    let (keys, vectors) = version.table.export_rows();
    let mut scored: Vec<(usize, f32)> = vectors
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let d: f32 = v.iter().zip(query).map(|(a, b)| (a - b) * (a - b)).sum();
            (i, d)
        })
        .collect();
    scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    scored
        .into_iter()
        .take(k)
        .map(|(i, _)| keys[i].clone())
        .collect()
}

fn query_points(seed: u64, count: usize, store: &EmbeddingDb) -> Vec<Vec<f32>> {
    // Perturbed copies of stored rows: queries that have meaningful
    // neighbours under every index family.
    let snapshot = store.snapshot();
    let (_, vectors) = snapshot.latest("emb").unwrap().table.export_rows();
    let mut rng = Xoshiro256::seeded(seed);
    (0..count)
        .map(|_| {
            let row = &vectors[(rng.next_u64() as usize) % vectors.len()];
            row.iter().map(|&x| x + rng.normal() as f32 * 0.1).collect()
        })
        .collect()
}

#[test]
fn search_endpoints_answer_over_the_wire_with_typed_errors() {
    let _watchdog = common::watchdog("search_endpoints_answer_over_the_wire_with_typed_errors");
    let (_store, catalog, engine) = serving_stack();
    let handle = start(engine, ServeConfig::default()).unwrap();
    let mut client = FeatureClient::connect(handle.addr()).unwrap();

    // Before any build: typed IndexNotReady, connection survives.
    let err = client
        .search_nearest("emb", &[0.0; DIM], K as u32, SearchOptions::default())
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::IndexNotReady));

    catalog.build("emb", &IndexSpec::Flat).unwrap();

    // Wrong dimension: typed DimensionMismatch.
    let err = client
        .search_nearest("emb", &[0.0; 3], K as u32, SearchOptions::default())
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::DimensionMismatch));

    // Unknown key on the by-key endpoint: NotFound.
    let err = client
        .search_nearest_by_key("emb", "ghost", K as u32, SearchOptions::default())
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::NotFound));

    // A real search answers sorted hits stamped with version+generation.
    let got = client
        .search_nearest("emb", &[0.0; DIM], K as u32, SearchOptions::default())
        .unwrap();
    assert_eq!(got.table_version, 1);
    assert_eq!(got.index_generation, 1);
    assert_eq!(got.hits.len(), K);
    for w in got.hits.windows(2) {
        assert!(w[0].distance <= w[1].distance);
    }

    // By-key excludes the query entity and returns k hits.
    let got = client
        .search_nearest_by_key("emb", "e7", K as u32, SearchOptions::default())
        .unwrap();
    assert_eq!(got.hits.len(), K);
    assert!(got.hits.iter().all(|h| h.key != "e7"));

    let metrics = handle.metrics();
    let snap = metrics.snapshot();
    assert!(snap.endpoints["search_nearest"].requests >= 3);
    assert!(snap.endpoints["search_nearest_by_key"].requests >= 2);
    assert_eq!(snap.indexes["emb"].kind, "flat");
    handle.shutdown();
}

#[test]
fn a_huge_k_is_answered_with_every_row_by_every_family() {
    // `k` is a u32 off the wire; nothing may be sized by it before it is
    // clamped to the row count (a flat scan once reserved a k-entry heap).
    let _watchdog = common::watchdog("a_huge_k_is_answered_with_every_row_by_every_family");
    let (store, catalog, engine) = serving_stack();
    let handle = start(engine, ServeConfig::default()).unwrap();
    let mut client = FeatureClient::connect(handle.addr()).unwrap();
    let query = &query_points(3, 1, &store)[0];
    let exhaustive = SearchOptions {
        exhaustive: true,
        ..SearchOptions::default()
    };
    for spec in [
        IndexSpec::Flat,
        IndexSpec::Ivf(IvfConfig {
            nprobe: 64,
            ..IvfConfig::default()
        }),
        IndexSpec::Hnsw(HnswConfig::default()),
    ] {
        catalog.build("emb", &spec).unwrap();
        for options in [SearchOptions::default(), exhaustive] {
            let got = client
                .search_nearest("emb", query, u32::MAX, options)
                .unwrap();
            assert_eq!(got.hits.len(), N, "{} {options:?}", spec.kind());
            let got = client
                .search_nearest_by_key("emb", "e7", u32::MAX, options)
                .unwrap();
            assert_eq!(got.hits.len(), N - 1, "{} {options:?} by key", spec.kind());
        }
    }
    handle.shutdown();
}

#[test]
fn concurrent_searches_survive_two_index_swaps_without_dropped_requests() {
    let _watchdog =
        common::watchdog("concurrent_searches_survive_two_index_swaps_without_dropped_requests");
    let (store, catalog, engine) = serving_stack();
    // Start on a deliberately low-recall IVF so the post-swap indexes have
    // headroom to improve on the baseline.
    catalog
        .build(
            "emb",
            &IndexSpec::Ivf(IvfConfig {
                nlist: 64,
                nprobe: 1,
                ..IvfConfig::default()
            }),
        )
        .unwrap();
    let handle = start(
        engine,
        ServeConfig::builder()
            .workers(4)
            .queue_depth(1024)
            .build()
            .unwrap(),
    )
    .unwrap();
    let addr = handle.addr();

    let queries = Arc::new(query_points(7, 64, &store));
    let truth: Arc<Vec<Vec<String>>> =
        Arc::new(queries.iter().map(|q| exact_top_k(&store, q, K)).collect());

    let recall_of = |hits: &[fstore_serve::WireHit], want: &[String]| -> f64 {
        let got: Vec<&str> = hits.iter().map(|h| h.key.as_str()).collect();
        want.iter().filter(|w| got.contains(&w.as_str())).count() as f64 / want.len() as f64
    };

    // Pre-swap baseline recall, measured over the wire.
    let baseline = {
        let mut client = FeatureClient::connect(addr).unwrap();
        let mut acc = 0.0;
        for (q, want) in queries.iter().zip(truth.iter()) {
            let got = client
                .search_nearest("emb", q, K as u32, SearchOptions::default())
                .unwrap();
            acc += recall_of(&got.hits, want);
        }
        acc / queries.len() as f64
    };
    assert!(
        baseline < 0.999,
        "nprobe=1 baseline should be approximate, got {baseline}"
    );

    // Hammer the search endpoint from N threads while two rebuilds land.
    let stop = Arc::new(AtomicBool::new(false));
    const THREADS: usize = 4;
    let hammers: Vec<_> = (0..THREADS)
        .map(|t| {
            let stop = Arc::clone(&stop);
            let queries = Arc::clone(&queries);
            std::thread::spawn(move || {
                let mut client = FeatureClient::connect(addr).unwrap();
                let mut ok = 0u64;
                let mut overloaded = 0u64;
                let mut generations = Vec::new();
                let mut i = t;
                while !stop.load(Ordering::Acquire) {
                    let q = &queries[i % queries.len()];
                    i += 1;
                    match client.search_nearest("emb", q, K as u32, SearchOptions::default()) {
                        Ok(n) => {
                            ok += 1;
                            if generations.last() != Some(&n.index_generation) {
                                generations.push(n.index_generation);
                            }
                        }
                        Err(e) if e.code() == Some(ErrorCode::Overloaded) => overloaded += 1,
                        Err(e) => panic!("request dropped during swap: {e}"),
                    }
                }
                (ok, overloaded, generations)
            })
        })
        .collect();

    // Two rebuild+swap cycles while the hammers run: IVF→HNSW→Flat.
    let h1 = catalog.rebuild_in_background(
        "emb",
        IndexSpec::Hnsw(HnswConfig {
            ef_search: 64,
            ..HnswConfig::default()
        }),
    );
    h1.join().unwrap().unwrap();
    let h2 = catalog.rebuild_in_background("emb", IndexSpec::Flat);
    h2.join().unwrap().unwrap();
    // Let traffic observe the final generation before stopping.
    std::thread::sleep(std::time::Duration::from_millis(50));
    stop.store(true, Ordering::Release);

    let mut total_ok = 0u64;
    let mut seen_generations: Vec<u64> = Vec::new();
    for h in hammers {
        let (ok, _overloaded, generations) = h.join().unwrap();
        total_ok += ok;
        // Generations observed by one client never go backwards.
        for w in generations.windows(2) {
            assert!(w[0] < w[1], "generation went backwards: {w:?}");
        }
        seen_generations.extend(generations);
    }
    assert!(total_ok > 0, "hammer threads made progress");
    assert!(
        seen_generations.contains(&3),
        "final generation observed over the wire: {seen_generations:?}"
    );
    assert_eq!(catalog.swap_count(), 3, "initial build + two rebuilds");

    // Post-swap the index is exact (Flat): recall must beat the nprobe=1
    // baseline.
    let post = {
        let mut client = FeatureClient::connect(addr).unwrap();
        let mut acc = 0.0;
        for (q, want) in queries.iter().zip(truth.iter()) {
            let got = client
                .search_nearest("emb", q, K as u32, SearchOptions::default())
                .unwrap();
            assert_eq!(got.index_generation, 3);
            acc += recall_of(&got.hits, want);
        }
        acc / queries.len() as f64
    };
    assert!(
        post >= baseline,
        "post-swap recall {post} regressed below baseline {baseline}"
    );
    assert!((post - 1.0).abs() < 1e-12, "flat index is exact");

    let metrics = handle.metrics();
    // The initial build predates the server (and its metrics); only the
    // two mid-traffic rebuilds are counted as swaps.
    assert_eq!(metrics.index_swaps(), 2);
    let snap = metrics.snapshot();
    assert_eq!(snap.indexes["emb"].kind, "flat");
    assert_eq!(snap.indexes["emb"].generation, 3);
    assert_eq!(snap.indexes["emb"].staleness, 0);
    assert_eq!(snap.endpoints["search_nearest"].errors, 0);
    handle.shutdown();
}

#[test]
fn coalesced_search_batches_agree_with_single_requests() {
    let _watchdog = common::watchdog("coalesced_search_batches_agree_with_single_requests");
    let (store, catalog, engine) = serving_stack();
    catalog.build("emb", &IndexSpec::Flat).unwrap();
    // One slow worker forces concurrent identical-(table,k,options)
    // searches to pile up in the queue and coalesce.
    let handle = start(
        engine,
        ServeConfig::builder()
            .workers(1)
            .queue_depth(256)
            .max_batch(16)
            .handler_delay(std::time::Duration::from_millis(5))
            .build()
            .unwrap(),
    )
    .unwrap();
    let addr = handle.addr();

    let queries = Arc::new(query_points(11, 24, &store));
    let threads: Vec<_> = (0..queries.len())
        .map(|i| {
            let queries = Arc::clone(&queries);
            std::thread::spawn(move || {
                let mut client = FeatureClient::connect(addr).unwrap();
                let got = client
                    .search_nearest("emb", &queries[i], K as u32, SearchOptions::default())
                    .unwrap();
                (i, got)
            })
        })
        .collect();
    let mut results: HashMap<usize, Vec<String>> = HashMap::new();
    for t in threads {
        let (i, got) = t.join().unwrap();
        assert_eq!(got.hits.len(), K);
        results.insert(i, got.hits.into_iter().map(|h| h.key).collect());
    }

    // Every coalesced answer matches exact ground truth (Flat index).
    for (i, keys) in &results {
        let want = exact_top_k(&store, &queries[*i], K);
        assert_eq!(keys, &want, "query {i} diverged under batching");
    }

    let snap = handle.metrics().snapshot();
    assert!(
        snap.batches > 0,
        "a slow single worker must have coalesced at least one search batch"
    );
    handle.shutdown();
}
