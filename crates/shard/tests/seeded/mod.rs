//! A seeded two-shard cluster, shared by the router burst tests.

use fstore_common::{EntityKey, Timestamp, Value};
use fstore_embed::{EmbeddingProvenance, EmbeddingTable};
use fstore_serve::{fixed_clock, IndexSpec, ServeConfig};
use fstore_shard::{ClusterConfig, ShardCluster};
use std::time::Duration;

pub const NOW: Timestamp = Timestamp(60_000);
pub const DIM: usize = 8;
pub const EMB_KEYS: usize = 40;
pub const USERS: usize = 20;

pub fn vector_for(i: usize) -> Vec<f32> {
    (0..DIM).map(|d| i as f32 * 0.1 + d as f32 * 0.01).collect()
}

pub fn score_for(u: usize) -> f64 {
    u as f64 * 0.25 + 1.0
}

/// Two shards with `followers` each and `workers` threads per server:
/// users `u0..u19` with a `score`, and an embedding table `emb`
/// (`e0000..e0039`) partitioned by the map, with a flat index on every
/// shard's slice.
pub fn seeded_cluster(followers: usize, workers: usize) -> ShardCluster {
    let cluster = ShardCluster::start(
        ClusterConfig {
            shards: 2,
            followers,
            serve: ServeConfig {
                workers,
                ..ServeConfig::default()
            },
            ..ClusterConfig::default()
        },
        fixed_clock(NOW),
    )
    .expect("cluster starts");
    for u in 0..USERS {
        cluster
            .put_online(
                "user",
                &EntityKey::new(format!("u{u}")),
                &[("score", Value::Float(score_for(u)))],
                NOW,
            )
            .expect("seed write");
    }
    for shard in cluster.map().shards() {
        let mut table = EmbeddingTable::new(DIM).expect("dim > 0");
        for i in 0..EMB_KEYS {
            let key = format!("e{i:04}");
            if cluster.shard_for(&key) == shard.id {
                table.insert(key, vector_for(i)).expect("insert");
            }
        }
        let leader = cluster.leader(shard.id);
        leader
            .parts()
            .embeddings
            .publish("emb", table, EmbeddingProvenance::default(), NOW)
            .expect("publish");
        leader
            .parts()
            .indexes
            .build("emb", &IndexSpec::Flat)
            .expect("index");
    }
    assert!(
        cluster.wait_converged(Duration::from_secs(10)),
        "followers never converged after seeding"
    );
    cluster
}
