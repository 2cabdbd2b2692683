//! Every metric the benchmark prints, by name — the same list
//! `BENCHMARK.json` declares (a unit test holds the two together).

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a larger value is the better one. `BENCHMARK.json`
    /// carries the direction for the driver; the test below holds the two
    /// together and is this field's only reader.
    #[cfg_attr(not(test), allow(dead_code))]
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// What a caller of the system sees. Every workload reports every one of
/// these; `focus_*` is the operation the workload exists for (see README).
/// Bounds live in `BENCHMARK.json`.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("ops_per_s", "1/s"),
    higher("focus_ops_per_s", "1/s"),
    lower("read_p50_us", "us"),
    lower("focus_p50_us", "us"),
    lower("peak_rss_mb", "MiB"),
];

/// Single layers, `<crate>.<part>.<metric>`, measured from outside. A
/// workload whose traffic never enters a layer reports 0 for it.
pub const PER_LAYER: &[MetricDef] = &[
    lower("serve.codec.req_encode_ns", "ns"),
    lower("serve.codec.req_decode_ns", "ns"),
    lower("serve.codec.resp_encode_ns", "ns"),
    lower("serve.codec.resp_decode_ns", "ns"),
    lower("serve.codec.resp_bytes", "B"),
    lower("serve.engine.handle_ns", "ns"),
    lower("serve.engine.handle_batch_ns", "ns"),
    lower("serve.engine.handle_search_ns", "ns"),
    lower("serve.engine.handle_write_ns", "ns"),
    lower("serve.rtt_floor_us", "us"),
    higher("serve.batch.mean_size", "count"),
    lower("serve.admission.shed", "count"),
    lower("serve.wire.payload_allocs", "count"),
    higher("serve.wire.pool_hit_rate", "ratio"),
    lower("serve.server_p50_us", "us"),
    lower("serve.net_gap_us", "us"),
    lower("core.serve_ns", "ns"),
    lower("core.serve_batch_ns_per_key", "ns"),
    lower("storage.online.get_many_ns", "ns"),
    lower("storage.online.put_row_ns", "ns"),
    higher("storage.online.hit_ratio", "ratio"),
    lower("storage.online.get_many_contended_ns", "ns"),
    lower("embed.get_resident_ns", "ns"),
    lower("index.l2_sq_ns", "ns"),
    lower("index.flat.search_us", "us"),
    lower("index.hnsw.search_us", "us"),
    higher("index.hnsw.recall_at_10", "ratio"),
    lower("index.hnsw.build_s", "s"),
    lower("tier.get_hit_ns", "ns"),
    lower("tier.get_fault_us", "us"),
    higher("tier.hit_ratio", "ratio"),
    lower("tier.evictions", "count"),
    lower("tier.peak_resident_bytes", "B"),
    lower("tier.demote_s", "s"),
    lower("durable.codec.delta_encode_ns", "ns"),
    lower("durable.codec.delta_bytes", "B"),
    lower("durable.wal.append_nosync_us", "us"),
    lower("durable.wal.append_fsync_us", "us"),
    lower("durable.wal.bytes_per_user_byte", "ratio"),
    lower("durable.wal.fsyncs", "count"),
    lower("durable.put_online_us", "us"),
    lower("durable.checkpoint_write_ms", "ms"),
    lower("durable.checkpoint_bytes", "B"),
    lower("durable.checkpoint_load_ms", "ms"),
    lower("durable.recover_wal_ms", "ms"),
    lower("repl.leader.put_online_us", "us"),
    lower("repl.follower.sync_once_us_per_delta", "us"),
    lower("repl.bootstrap_ms", "ms"),
    lower("repl.bootstrap_bytes", "B"),
    lower("repl.visibility_p50_us", "us"),
    lower("repl.visibility_p99_us", "us"),
    lower("repl.lag_max_epochs", "count"),
    lower("repl.fallbacks", "count"),
    lower("shard.map.lookup_ns", "ns"),
    lower("shard.router.overhead_us", "us"),
    lower("shard.router.batch_split_us", "us"),
    lower("shard.front.overhead_us", "us"),
    lower("shard.merge_topk_ns", "ns"),
    lower("shard.scatter.fanout", "count"),
    lower("shard.failover.retries", "count"),
    lower("shard.control.probe_round_us", "us"),
    lower("client.read_unexplained_us", "us"),
    lower("client.search_unexplained_us", "us"),
    lower("client.write_unexplained_us", "us"),
    higher("client.read_only_ops_per_s", "1/s"),
    higher("client.write_only_ops_per_s", "1/s"),
    higher("client.trace_overhead_ratio", "ratio"),
    lower("client.paced_p50_us", "us"),
    lower("client.paced_p99_us", "us"),
    lower("client.gen_late_p99_us", "us"),
    // Demoted from the end-to-end list: on the shared box two runs of one
    // build moved the depth-1 p99s by more than any bound the contract
    // allows (see README, "What was demoted").
    lower("client.read_p99_us", "us"),
    lower("client.focus_p99_us", "us"),
    // The issue's end-to-end names that only some workloads can report;
    // the run contract wants every workload to report every end-to-end
    // metric, so they are kept here, unbounded, and 0 where absent.
    lower("client.search_p50_us", "us"),
    lower("client.search_p99_us", "us"),
    lower("client.write_p50_us", "us"),
    lower("client.write_p99_us", "us"),
    higher("client.write_ops_per_s", "1/s"),
    lower("client.recovery_s", "s"),
    lower("client.disk_amp", "ratio"),
    lower("client.fail_ratio", "ratio"),
];

/// Metric values of one run, one per definition of a list.
pub struct Values {
    defs: &'static [MetricDef],
    values: Vec<f64>,
}

impl Values {
    /// Every metric of `defs` starts at 0.
    pub fn new(defs: &'static [MetricDef]) -> Values {
        Values {
            defs,
            values: vec![0.0; defs.len()],
        }
    }

    /// Panics on a name the list does not declare: a typo must not
    /// silently drop a metric.
    fn slot(&self, name: &str) -> usize {
        self.defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("undeclared metric `{name}`"))
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self.slot(name);
        self.values[slot] = value;
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> f64 {
        self.values[self.slot(name)]
    }

    /// `(definition, value)` in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.defs.iter().zip(self.values.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &serde_json::Value) -> Vec<(String, String, String)> {
        section
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn listed(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| {
                let better = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                (d.name.to_string(), d.unit.to_string(), better.to_string())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let manifest: serde_json::Value =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        assert_eq!(
            declared(manifest.get("end_to_end").unwrap()),
            listed(END_TO_END)
        );
        assert_eq!(
            declared(manifest.get("per_layer").unwrap()),
            listed(PER_LAYER)
        );
        for m in manifest.get("end_to_end").unwrap().as_array().unwrap() {
            let bound = m.get("bound").and_then(|b| b.as_f64()).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
        let workloads: Vec<&str> = manifest
            .get("workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|n| n.as_str()).unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn names_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(d.name.len() <= 64 && seen.insert(d.name), "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    #[should_panic(expected = "undeclared metric")]
    fn a_typo_in_a_metric_name_panics() {
        Values::new(END_TO_END).set("setup_secs", 1.0);
    }
}
