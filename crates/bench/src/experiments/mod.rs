//! The derived experiment suite E1–E23 (DESIGN.md §3). Each module
//! regenerates one table; `run_all` drives them from the `experiments`
//! binary.

pub mod e01_serving_latency;
pub mod e02_pit_leakage;
pub mod e03_streaming_freshness;
pub mod e04_quality_detectors;
pub mod e05_rare_entity_kg;
pub mod e06_instability_budget;
pub mod e07_eigenspace_predicts;
pub mod e08_knn_stability;
pub mod e09_ann_tradeoff;
pub mod e10_embedding_drift;
pub mod e11_slice_patching;
pub mod e12_patch_propagation;
pub mod e13_version_alignment;
pub mod e14_network_serving;
pub mod e15_ann_serving;
pub mod e16_epoch_reads;
pub mod e17_replication;
pub mod e18_chaos;
pub mod e19_durability;
pub mod e20_sharding;
pub mod e21_wire_pipelining;
pub mod e22_tiered_embeddings;
pub mod e23_write_failover;

use fstore_common::{FsError, Result};
use serde::Serialize;

/// One runnable experiment.
pub struct Experiment {
    pub id: &'static str,
    pub title: &'static str,
    pub run: fn(quick: bool) -> Result<()>,
}

/// The registry, in paper order.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "e1",
            title: "E1  Online vs offline feature serving latency (§2.2.2)",
            run: e01_serving_latency::run,
        },
        Experiment {
            id: "e2",
            title: "E2  Point-in-time joins prevent feature leakage (§2.2.2)",
            run: e02_pit_leakage::run,
        },
        Experiment {
            id: "e3",
            title: "E3  Streaming vs batch feature freshness (§2.2.1)",
            run: e03_streaming_freshness::run,
        },
        Experiment {
            id: "e4",
            title: "E4  Feature-quality detectors catch injected faults (§2.2.2)",
            run: e04_quality_detectors::run,
        },
        Experiment {
            id: "e5",
            title: "E5  KG signals rescue rare entities (§3.1.1, Bootleg)",
            run: e05_rare_entity_kg::run,
        },
        Experiment {
            id: "e6",
            title: "E6  Downstream instability vs memory budget (§3.1.2, Leszczynski)",
            run: e06_instability_budget::run,
        },
        Experiment {
            id: "e7",
            title: "E7  Eigenspace overlap predicts downstream accuracy (§3.1.2, May)",
            run: e07_eigenspace_predicts::run,
        },
        Experiment {
            id: "e8",
            title: "E8  k-NN neighborhood stability across retrains (§3.1.2, Wendlandt)",
            run: e08_knn_stability::run,
        },
        Experiment {
            id: "e9",
            title: "E9  ANN recall/latency trade-off (§4 scale claim)",
            run: e09_ann_tradeoff::run,
        },
        Experiment {
            id: "e10",
            title: "E10 Tabular monitors miss embedding drift; MMD catches it (§3.1)",
            run: e10_embedding_drift::run,
        },
        Experiment {
            id: "e11",
            title: "E11 Slice discovery + patching closes subgroup gaps (§3.1.3, Goel)",
            run: e11_slice_patching::run,
        },
        Experiment {
            id: "e12",
            title: "E12 One embedding patch heals all downstream consumers (§3.1.3)",
            run: e12_patch_propagation::run,
        },
        Experiment {
            id: "e13",
            title: "E13 Version alignment keeps deployed models working (§4)",
            run: e13_version_alignment::run,
        },
        Experiment {
            id: "e14",
            title: "E14 Network serving under open-loop load (§2.2.2)",
            run: e14_network_serving::run,
        },
        Experiment {
            id: "e15",
            title: "E15 ANN serving over the wire with hot index swap (§4)",
            run: e15_ann_serving::run,
        },
        Experiment {
            id: "e16",
            title: "E16 Epoch snapshot reads vs locks under republish (§2.2.2, §4)",
            run: e16_epoch_reads::run,
        },
        Experiment {
            id: "e17",
            title: "E17 Snapshot replication with epoch-consistent followers (§4)",
            run: e17_replication::run,
        },
        Experiment {
            id: "e18",
            title: "E18 Chaos: client-side failover under fault injection (§2.2.2, §4)",
            run: e18_chaos::run,
        },
        Experiment {
            id: "e19",
            title: "E19 Durability: SIGKILL mid-storm, recover the published epoch (§2.2.2)",
            run: e19_durability::run,
        },
        Experiment {
            id: "e20",
            title: "E20 Horizontal sharding: scatter-gather router over N shards (§4)",
            run: e20_sharding::run,
        },
        Experiment {
            id: "e21",
            title: "E21 Zero-copy wire stack: pipelined connections vs request-per-RTT (§2.2.2)",
            run: e21_wire_pipelining::run,
        },
        Experiment {
            id: "e22",
            title: "E22 Tiered embeddings: 4x-RAM working set, bounded memory (§4)",
            run: e22_tiered_embeddings::run,
        },
        Experiment {
            id: "e23",
            title: "E23 Routed writes: leader fencing + automatic failover (§2.2.2, §4)",
            run: e23_write_failover::run,
        },
    ]
}

/// Run experiments whose id is in `ids` (all when `ids` is empty).
pub fn run_selected(ids: &[String], quick: bool) -> Result<()> {
    for e in all() {
        if ids.is_empty() || ids.iter().any(|i| i.eq_ignore_ascii_case(e.id)) {
            println!("\n=== {} ===\n", e.title);
            let start = std::time::Instant::now();
            (e.run)(quick)?;
            println!(
                "\n[{} finished in {:.1}s]",
                e.id,
                start.elapsed().as_secs_f64()
            );
        }
    }
    Ok(())
}

/// Write one experiment's JSON artifact to `experiment-artifacts/<name>`
/// beside the running binary (`target/release/experiment-artifacts/` for
/// a release run), never into the source tree, and print where it went.
/// The binary itself is `target/release/experiments`, so the directory
/// cannot take that name.
pub fn write_artifact(name: &str, artifact: &impl Serialize) -> Result<()> {
    let exe = std::env::current_exe().map_err(|e| FsError::Storage(format!("current_exe: {e}")))?;
    let dir = exe.with_file_name("experiment-artifacts");
    std::fs::create_dir_all(&dir)
        .map_err(|e| FsError::Storage(format!("mkdir {}: {e}", dir.display())))?;
    let path = dir.join(name);
    let json = serde_json::to_string_pretty(artifact).expect("artifact serializes");
    std::fs::write(&path, json)
        .map_err(|e| FsError::Storage(format!("write {}: {e}", path.display())))?;
    println!("\nwrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn registry_is_complete_and_unique() {
        let exps = super::all();
        assert_eq!(exps.len(), 23);
        let mut ids: Vec<&str> = exps.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 23);
    }
}
