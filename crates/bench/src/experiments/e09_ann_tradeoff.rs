//! E9 — embedding serving at scale needs ANN indexes (paper §4: "users
//! need tools for searching and querying these embeddings … performing
//! these operations at industrial scale will be non-trivial").
//!
//! The classic recall/latency frontier: Flat (exact) vs IVF (nprobe sweep)
//! vs HNSW (ef sweep) on one vector set. Every sweep point goes through
//! the one generic entry point — `VectorIndex::search` with
//! [`SearchParams`] — so the harness below never names a concrete index
//! type after construction.
//!
//! Verdict: HNSW recall@10 at the largest `ef` must reach 0.99,
//! and every stored row must be reachable in its graph.

use crate::table::{f1, f3, Table};
use crate::workloads::clustered_vectors;
use fstore_common::{FsError, Result};
use fstore_index::{
    recall_at_k, FlatIndex, HnswConfig, HnswIndex, IvfConfig, IvfIndex, SearchParams, VectorIndex,
};
use std::time::Instant;

/// The recall@10 EXPERIMENTS.md states for HNSW at its largest `ef`.
const MIN_RECALL: f64 = 0.99;

/// Mean per-query latency (µs) of one `(index, params)` sweep point.
fn mean_query_us(
    index: &dyn VectorIndex,
    queries: &[Vec<f32>],
    k: usize,
    params: &SearchParams,
) -> Result<f64> {
    let start = Instant::now();
    for q in queries {
        index.search(q, k, params)?;
    }
    Ok(start.elapsed().as_secs_f64() * 1e6 / queries.len() as f64)
}

pub fn run(quick: bool) -> Result<()> {
    let n = if quick { 20_000 } else { 100_000 };
    let dim = 32;
    let clusters = 64;
    let n_queries = if quick { 100 } else { 300 };
    let k = 10;

    // Clustered vectors: the distributional shape of real embedding tables
    // (and the structure a coarse quantizer exploits).
    let mut data = clustered_vectors(n + n_queries, dim, clusters, 0.4, 91);
    let queries = data.split_off(n);

    println!(
        "{n} vectors × {dim} dims ({clusters} latent clusters), {n_queries} queries, recall@{k}\n"
    );

    let build_start = Instant::now();
    let flat = FlatIndex::build(data.clone())?;
    let flat_build = build_start.elapsed();

    let build_start = Instant::now();
    let ivf = IvfIndex::build(
        data.clone(),
        IvfConfig {
            nlist: (n as f64).sqrt() as usize,
            train_iters: 10,
            ..IvfConfig::default()
        },
    )?;
    let ivf_build = build_start.elapsed();

    let build_start = Instant::now();
    let hnsw = HnswIndex::build(
        data.clone(),
        HnswConfig {
            m: 16,
            ef_construction: if quick { 64 } else { 100 },
            ..HnswConfig::default()
        },
    )?;
    let hnsw_build = build_start.elapsed();

    let mut table = Table::new(&[
        "index",
        "param",
        "recall@10",
        "query µs",
        "speedup",
        "build s",
    ]);

    // exact baseline latency
    let flat_us = mean_query_us(&flat, &queries, k, &SearchParams::default())?;
    table.row(vec![
        "flat (exact)".into(),
        "-".into(),
        f3(1.0),
        f1(flat_us),
        "1.0x".into(),
        f1(flat_build.as_secs_f64()),
    ]);

    // Every sweep point is the same generic (index, params) pair; only the
    // knob differs. Label and build time ride along per family.
    let mut sweep: Vec<(&dyn VectorIndex, SearchParams, String, f64)> = Vec::new();
    for nprobe in [1usize, 2, 4, 8, 16, 32] {
        sweep.push((
            &ivf,
            SearchParams::with_nprobe(nprobe),
            format!("nprobe={nprobe}"),
            ivf_build.as_secs_f64(),
        ));
    }
    for ef in [16usize, 32, 64, 128, 256] {
        sweep.push((
            &hnsw,
            SearchParams::with_ef(ef),
            format!("ef={ef}"),
            hnsw_build.as_secs_f64(),
        ));
    }

    // The sweep ends on HNSW's largest ef.
    let mut hnsw_recall = 0.0;
    for (index, params, label, build_s) in sweep {
        let us = mean_query_us(index, &queries, k, &params)?;
        let recall = recall_at_k(index, &flat, &queries, k, &params)?;
        let family = if label.starts_with("nprobe") {
            "ivf"
        } else {
            hnsw_recall = recall;
            "hnsw"
        };
        table.row(vec![
            family.into(),
            label,
            f3(recall),
            f1(us),
            format!("{:.1}x", flat_us / us),
            f1(build_s),
        ]);
    }

    table.print();
    let unreached = hnsw.unreached();
    println!(
        "\nHNSW rows unreachable from the entry point: {}",
        unreached.len()
    );
    println!(
        "\nShape check: both ANN families sweep out a recall/latency frontier —\n\
         ~0.9+ recall at a large speedup over exact scan; recall → 1 as\n\
         nprobe/ef grow; HNSW pays its cost at build time."
    );
    if hnsw_recall < MIN_RECALL {
        return Err(FsError::Index(format!(
            "HNSW recall@{k} at its largest ef is {hnsw_recall:.4}, under {MIN_RECALL}"
        )));
    }
    if !unreached.is_empty() {
        return Err(FsError::Index(format!(
            "{} HNSW rows are unreachable, first {}",
            unreached.len(),
            unreached[0]
        )));
    }
    Ok(())
}
