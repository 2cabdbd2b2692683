//! E15 — ANN serving over the wire with hot index swap (paper §4).
//!
//! Claim: serving embeddings "at industrial scale" needs (a) approximate
//! indexes behind the search endpoint — an exact scan per query does not
//! survive production load — and (b) the ability to rebuild and swap the
//! index while traffic flows, because embedding tables republish and an
//! offline reindex window is exactly the operational burden the paper
//! warns about. We measure both:
//!
//! 1. **Family sweep** — the same search workload over the network against
//!    Flat, IVF, and HNSW snapshots: recall@10 against exact ground truth
//!    plus client-observed p50/p95/p99.
//! 2. **Hot swap** — hammer threads drive `SearchNearest` continuously
//!    while the catalog rebuilds the index twice (low-recall IVF → HNSW →
//!    Flat) from a freshly republished table version. We count requests
//!    dropped during the swaps (target: zero besides explicit
//!    `Overloaded`) and confirm recall after the swap beats the degraded
//!    baseline.
//!
//! Results are also written to `BENCH_ann_serve.json` by
//! [`write_artifact`](super::write_artifact).

use crate::table::{f1, f3, Table};
use crate::workloads::clustered_vectors;
use fstore_common::{Result, Rng, Timestamp, Xoshiro256};
use fstore_core::FeatureServer;
use fstore_embed::{EmbeddingDb, EmbeddingProvenance, EmbeddingTable};
use fstore_index::{HnswConfig, IvfConfig};
use fstore_serve::{
    fixed_clock, start, ErrorCode, FeatureClient, IndexCatalog, IndexSpec, SearchOptions,
    ServeConfig, ServeEngine, StoreApi, WireHit,
};
use fstore_storage::OnlineStore;
use serde::Serialize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

const NOW: Timestamp = Timestamp(60_000);
const K: usize = 10;

#[derive(Serialize)]
struct FamilyResult {
    family: String,
    params: String,
    recall_at_10: f64,
    queries: usize,
    p50_ms: Option<f64>,
    p95_ms: Option<f64>,
    p99_ms: Option<f64>,
    speedup_vs_flat: f64,
}

#[derive(Serialize)]
struct SwapResult {
    hammer_threads: usize,
    requests_ok: u64,
    requests_overloaded: u64,
    requests_dropped: u64,
    swaps_during_traffic: u64,
    generations_observed: Vec<u64>,
    baseline_recall: f64,
    post_swap_recall: f64,
    table_version_before: u32,
    table_version_after: u32,
}

#[derive(Serialize)]
struct Artifact {
    experiment: String,
    n_vectors: usize,
    dim: usize,
    families: Vec<FamilyResult>,
    swap: SwapResult,
}

/// Clustered vectors published as `emb@v1`, keys `e{row}` aligned with
/// `export_rows` order (row i ↔ `keys[i]` is checked by construction).
fn publish_table(store: &EmbeddingDb, data: &[Vec<f32>], dim: usize) -> Result<()> {
    let mut table = EmbeddingTable::new(dim)?;
    for (i, v) in data.iter().enumerate() {
        table.insert(format!("e{i:06}"), v.clone())?;
    }
    store.publish("emb", table, EmbeddingProvenance::default(), NOW)?;
    Ok(())
}

/// Exact top-k keys per query, computed once in-process as ground truth.
fn exact_truth(data: &[Vec<f32>], queries: &[Vec<f32>], k: usize) -> Vec<Vec<String>> {
    queries
        .iter()
        .map(|q| {
            let mut scored: Vec<(usize, f32)> = data
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    let d: f32 = v.iter().zip(q).map(|(a, b)| (a - b) * (a - b)).sum();
                    (i, d)
                })
                .collect();
            scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            scored
                .into_iter()
                .take(k)
                .map(|(i, _)| format!("e{i:06}"))
                .collect()
        })
        .collect()
}

fn recall_of(hits: &[WireHit], want: &[String]) -> f64 {
    let got: Vec<&str> = hits.iter().map(|h| h.key.as_str()).collect();
    want.iter().filter(|w| got.contains(&w.as_str())).count() as f64 / want.len() as f64
}

/// Run `queries` over the wire from `threads` clients; mean recall comes
/// back with the server's endpoint latency snapshot.
fn drive_queries(
    addr: std::net::SocketAddr,
    queries: Arc<Vec<Vec<f32>>>,
    truth: Arc<Vec<Vec<String>>>,
    threads: usize,
) -> (f64, f64) {
    let started = Instant::now();
    let joins: Vec<_> = (0..threads)
        .map(|t| {
            let queries = Arc::clone(&queries);
            let truth = Arc::clone(&truth);
            std::thread::spawn(move || {
                let mut client = FeatureClient::connect(addr).expect("connect");
                let mut acc = 0.0;
                let mut count = 0usize;
                for (i, q) in queries.iter().enumerate() {
                    if i % threads != t {
                        continue;
                    }
                    let got = client
                        .search_nearest("emb", q, K as u32, SearchOptions::default())
                        .expect("search");
                    acc += recall_of(&got.hits, &truth[i]);
                    count += 1;
                }
                (acc, count)
            })
        })
        .collect();
    let mut acc = 0.0;
    let mut count = 0usize;
    for j in joins {
        let (a, c) = j.join().expect("query thread panicked");
        acc += a;
        count += c;
    }
    (acc / count as f64, started.elapsed().as_secs_f64())
}

pub fn run(quick: bool) -> Result<()> {
    let n = if quick { 6_000 } else { 30_000 };
    let dim = if quick { 16 } else { 32 };
    let n_queries = if quick { 200 } else { 600 };
    let clusters = 32;

    let mut data = clustered_vectors(n + n_queries, dim, clusters, 0.4, 15);
    let queries = Arc::new(data.split_off(n));
    let truth = Arc::new(exact_truth(&data, &queries, K));

    println!(
        "{n} vectors × {dim} dims ({clusters} latent clusters), {} queries over TCP, k={K}\n",
        queries.len()
    );

    // ------------------------------------------------------------------
    // Phase 1: family sweep — one server per family, identical workload.
    // ------------------------------------------------------------------
    let families: Vec<(IndexSpec, String)> = vec![
        (IndexSpec::Flat, "-".to_string()),
        (
            IndexSpec::Ivf(IvfConfig {
                nlist: (n as f64).sqrt() as usize,
                nprobe: 16,
                train_iters: 8,
                ..IvfConfig::default()
            }),
            "nprobe=16".to_string(),
        ),
        (
            IndexSpec::Hnsw(HnswConfig {
                ef_search: 64,
                ef_construction: if quick { 48 } else { 100 },
                ..HnswConfig::default()
            }),
            "ef=64".to_string(),
        ),
    ];

    let mut table = Table::new(&[
        "index",
        "params",
        "recall@10",
        "p50 ms",
        "p95 ms",
        "p99 ms",
        "speedup",
    ]);
    let mut family_results: Vec<FamilyResult> = Vec::new();
    let mut flat_wall: Option<f64> = None;
    for (spec, params_label) in &families {
        let store = EmbeddingDb::new();
        publish_table(&store, &data, dim)?;
        let catalog = Arc::new(IndexCatalog::new(store.clone()));
        catalog.build("emb", spec)?;
        let engine = ServeEngine::new(
            FeatureServer::new(Arc::new(OnlineStore::default())),
            fixed_clock(NOW),
        )
        .with_index_catalog(Arc::clone(&catalog));
        let handle = start(engine, ServeConfig::default())
            .map_err(|e| fstore_common::FsError::Storage(format!("bind loopback: {e}")))?;

        let (recall, wall_s) =
            drive_queries(handle.addr(), Arc::clone(&queries), Arc::clone(&truth), 4);
        let snapshot = handle.metrics().snapshot();
        let ep = &snapshot.endpoints["search_nearest"];
        let speedup = match flat_wall {
            None => {
                flat_wall = Some(wall_s);
                1.0
            }
            Some(flat) => flat / wall_s,
        };
        table.row(vec![
            spec.kind().to_string(),
            params_label.clone(),
            f3(recall),
            ep.p50_ms.map_or("-".into(), f1),
            ep.p95_ms.map_or("-".into(), f1),
            ep.p99_ms.map_or("-".into(), f1),
            format!("{speedup:.1}x"),
        ]);
        family_results.push(FamilyResult {
            family: spec.kind().to_string(),
            params: params_label.clone(),
            recall_at_10: recall,
            queries: queries.len(),
            p50_ms: ep.p50_ms,
            p95_ms: ep.p95_ms,
            p99_ms: ep.p99_ms,
            speedup_vs_flat: speedup,
        });
        handle.shutdown();
    }
    table.print();

    // ------------------------------------------------------------------
    // Phase 2: hot swap under continuous traffic.
    // ------------------------------------------------------------------
    println!("\n-- hot swap under load --");
    let store = EmbeddingDb::new();
    publish_table(&store, &data, dim)?;
    let catalog = Arc::new(IndexCatalog::new(store.clone()));
    // Deliberately degraded baseline: nprobe=1 leaves recall headroom the
    // post-swap index must recover.
    catalog.build(
        "emb",
        &IndexSpec::Ivf(IvfConfig {
            nlist: (n as f64).sqrt() as usize,
            nprobe: 1,
            train_iters: 8,
            ..IvfConfig::default()
        }),
    )?;
    let engine = ServeEngine::new(
        FeatureServer::new(Arc::new(OnlineStore::default())),
        fixed_clock(NOW),
    )
    .with_index_catalog(Arc::clone(&catalog));
    let handle = start(
        engine,
        ServeConfig::builder()
            .workers(4)
            .queue_depth(1024)
            .build()?,
    )
    .map_err(|e| fstore_common::FsError::Storage(format!("bind loopback: {e}")))?;
    let addr = handle.addr();

    let (baseline_recall, _) = drive_queries(addr, Arc::clone(&queries), Arc::clone(&truth), 2);
    println!("baseline recall@10 (ivf nprobe=1): {baseline_recall:.3}");

    // Republish the identical rows as emb@v2 mid-run: the ground truth is
    // unchanged, but the snapshot's staleness becomes visible and the
    // rebuilt index reports table_version 2 — a client can watch the
    // cross-version cutover happen (§4's alignment hazard, instrumented).
    publish_table(&store, &data, dim)?;
    catalog.publish_all_statuses();

    let stop = Arc::new(AtomicBool::new(false));
    let threads = 4usize;
    let hammers: Vec<_> = (0..threads)
        .map(|t| {
            let stop = Arc::clone(&stop);
            let queries = Arc::clone(&queries);
            std::thread::spawn(move || {
                let mut client = FeatureClient::connect(addr).expect("connect");
                let mut rng = Xoshiro256::seeded(77 + t as u64);
                let (mut ok, mut overloaded, mut dropped) = (0u64, 0u64, 0u64);
                let mut generations: Vec<u64> = Vec::new();
                while !stop.load(Ordering::Acquire) {
                    let q = &queries[rng.below(queries.len() as u64) as usize];
                    match client.search_nearest("emb", q, K as u32, SearchOptions::default()) {
                        Ok(res) => {
                            ok += 1;
                            if generations.last() != Some(&res.index_generation) {
                                generations.push(res.index_generation);
                            }
                        }
                        Err(e) if e.code() == Some(ErrorCode::Overloaded) => overloaded += 1,
                        Err(_) => dropped += 1,
                    }
                }
                (ok, overloaded, dropped, generations)
            })
        })
        .collect();

    // Two rebuild+swap cycles while the hammers run.
    let swap_started = Instant::now();
    catalog
        .rebuild_in_background(
            "emb",
            IndexSpec::Hnsw(HnswConfig {
                ef_search: 64,
                ef_construction: if quick { 48 } else { 100 },
                ..HnswConfig::default()
            }),
        )
        .join()
        .expect("hnsw build thread")?;
    catalog
        .rebuild_in_background("emb", IndexSpec::Flat)
        .join()
        .expect("flat build thread")?;
    let swap_wall = swap_started.elapsed().as_secs_f64();
    std::thread::sleep(std::time::Duration::from_millis(50));
    stop.store(true, Ordering::Release);

    let (mut ok, mut overloaded, mut dropped) = (0u64, 0u64, 0u64);
    let mut generations_observed: Vec<u64> = Vec::new();
    for h in hammers {
        let (o, v, d, gens) = h.join().expect("hammer thread panicked");
        ok += o;
        overloaded += v;
        dropped += d;
        for g in gens {
            if !generations_observed.contains(&g) {
                generations_observed.push(g);
            }
        }
    }
    generations_observed.sort_unstable();

    let (post_recall, _) = drive_queries(addr, Arc::clone(&queries), Arc::clone(&truth), 2);
    let final_status = catalog.status("emb").expect("emb snapshot");
    let snapshot = handle.metrics().snapshot();

    println!(
        "swap phase: {ok} ok, {overloaded} overloaded, {dropped} dropped across \
         2 rebuilds ({swap_wall:.2}s); generations observed {generations_observed:?}"
    );
    println!(
        "post-swap recall@10 (flat, built from emb@v{}): {post_recall:.3}",
        final_status.built_from_version
    );

    let swap = SwapResult {
        hammer_threads: threads,
        requests_ok: ok,
        requests_overloaded: overloaded,
        requests_dropped: dropped,
        swaps_during_traffic: snapshot.index_swaps,
        generations_observed: generations_observed.clone(),
        baseline_recall,
        post_swap_recall: post_recall,
        table_version_before: 1,
        table_version_after: final_status.built_from_version,
    };
    handle.shutdown();

    // The experiment's hard claims, asserted so regressions fail loudly.
    assert_eq!(swap.requests_dropped, 0, "requests dropped during swap");
    assert!(
        swap.post_swap_recall >= swap.baseline_recall,
        "post-swap recall regressed: {} < {}",
        swap.post_swap_recall,
        swap.baseline_recall
    );
    assert_eq!(swap.table_version_after, 2, "rebuild picked up emb@v2");
    assert_eq!(final_status.staleness, 0, "final snapshot is fresh");

    let artifact = Artifact {
        experiment: "e15_ann_serving".to_string(),
        n_vectors: n,
        dim,
        families: family_results,
        swap,
    };
    super::write_artifact("BENCH_ann_serve.json", &artifact)?;
    println!(
        "\nShape check: IVF and HNSW hold recall@10 ≥ ~0.9 at a measurable\n\
         speedup over the exact scan, over a real socket. During two mid-\n\
         traffic rebuilds every request is answered — zero drops beyond\n\
         explicit Overloaded — the generation counter steps 1→2→3 in client-\n\
         visible responses, and the final snapshot serves the republished\n\
         emb@v2 with staleness 0."
    );
    Ok(())
}
