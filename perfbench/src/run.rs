//! The shape of one run, shared by all four workloads.
//!
//! Untraced (`--trace 0`): three rounds, each of which sets the system up
//! afresh, probes and saturates it by turns and runs the end checks; the
//! end-to-end metrics are medians over the rounds. Traced (`--trace 1`): one set-up, shorter wire
//! phases with a root span per request, then the layer replay and the
//! per-layer table. End-to-end numbers never come from a traced run.

use crate::hist::median;
use crate::load::{run_paced, run_phase, warm_up, Class, Client, Mode, PhaseStats, Summary};
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::trace::{write_jsonl, Tracer};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// An untraced run is this many rounds, each on a system built afresh:
/// `setup_s` is the median of their set-up times, and every other number
/// is a median over the segments of all rounds. The box's speed drifts
/// over seconds and minutes; spreading each kind of segment over the whole
/// run, on three sets of threads, keeps one slow stretch or one unlucky
/// thread placement from owning a metric.
const ROUNDS: usize = 3;
/// One round's segments, probe and saturate by turns.
const ROUND_PLAN: [Mode; 5] = [
    Mode::Probe,
    Mode::Saturate,
    Mode::Probe,
    Mode::Saturate,
    Mode::Probe,
];
/// Segments per run: at `--seconds 15` a segment is one second.
const SEGMENTS: usize = ROUNDS * ROUND_PLAN.len();
/// Approximate searches must find this share of the exact neighbours.
const MIN_RECALL: f64 = 0.95;

pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smaller data and shorter phases, for the smoke test.
    pub quick: bool,
    /// `--selftest`: the oracle expects wrong values for some keys, so a
    /// run that reports no failure has a blind oracle.
    pub corrupt: bool,
    /// Scratch for WAL files, checkpoints and tier segments; removed when
    /// the run ends.
    pub run_dir: PathBuf,
    /// Where result files and traces are kept.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// `full`, or a quarter of it on a `--quick` run.
    pub fn scaled(&self, full: usize) -> usize {
        if self.quick {
            (full / 4).max(1)
        } else {
            full
        }
    }

    fn segment(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / SEGMENTS as f64)
    }
}

/// What the traced run collects beyond the wire phases.
pub struct Deep<'a> {
    pub tracer: Tracer,
    pub layers: Values,
    /// The traced probe phase: end-to-end p50 per class for the layer table.
    pub probe: &'a PhaseStats,
    /// Lines of the layer table, printed after the metrics.
    pub table: Vec<String>,
}

/// What the end-of-run checks and the in-process replay add to the run's
/// failure accounting.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Count one checked answer.
    pub fn check(&mut self, right: bool) {
        self.attempted += 1;
        self.failed += u64::from(!right);
    }

    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }
}

/// One workload's system under test, built and running.
pub trait System {
    /// The two load clients, each with its own connection and generator.
    fn clients(&mut self, ctx: &Ctx) -> Result<Vec<Client>, String>;
    /// The class `focus_*` reports: the operation this workload exists for.
    fn focus(&self) -> Class;
    /// Seconds of the set-up spent building the oracle's truth: the
    /// benchmark's own work, taken out of `setup_s`.
    fn oracle_secs(&self) -> f64 {
        0.0
    }
    /// Traced run only, straight after the probe phase: read what a
    /// server's snapshot says about depth-1 traffic before bursts blur it.
    fn after_probe(&mut self, _deep: &mut Deep) {}
    /// After the wire phases, with traffic stopped: the checks that need
    /// the whole system (follower equals leader, resident bytes within
    /// budget, acknowledged writes survive a restart) and, on a traced
    /// run, the per-layer measurements.
    fn finish(
        &mut self,
        ctx: &Ctx,
        clients: &mut [Client],
        tally: &mut Tally,
        deep: Option<&mut Deep>,
    );
    /// Stop every thread and server the set-up started.
    fn teardown(self: Box<Self>);
}

pub type Setup = fn(&Ctx) -> Result<Box<dyn System>, String>;

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub values: Values,
    pub table: Vec<String>,
}

fn fresh_dir(ctx: &Ctx) -> Result<(), String> {
    std::fs::remove_dir_all(&ctx.run_dir).ok();
    std::fs::create_dir_all(&ctx.run_dir).map_err(|e| format!("create {:?}: {e}", ctx.run_dir))
}

/// Build the system, connect its clients and warm everything up.
fn set_up(ctx: &Ctx, setup: Setup) -> Result<(Box<dyn System>, Vec<Client>), String> {
    fresh_dir(ctx)?;
    let mut system = setup(ctx)?;
    let mut clients = system.clients(ctx)?;
    if ctx.trace {
        // Depth 1 only: the servers' own latency estimators should have
        // seen nothing but probe-shaped traffic when the probe ends.
        run_phase(&mut clients, Mode::Probe, 1, ctx.segment() / 2);
    } else {
        warm_up(&mut clients, ctx.segment() / 2);
    }
    Ok((system, clients))
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Fold the clients' counts into `tally`, judge approximate searches by
/// their recall over the whole run, and return that recall.
fn settle(clients: &[Client], tally: &mut Tally) -> Option<f64> {
    let mut summary = Summary::default();
    for (i, c) in clients.iter().enumerate() {
        tally.attempted += c.attempted;
        tally.failed += c.failed;
        if let Some(e) = &c.broken {
            tally.problem(format!("client {i} transport failed: {e}"));
        }
        let s = c.traffic.summary();
        summary.approx_searches += s.approx_searches;
        summary.recall_found += s.recall_found;
        summary.recall_wanted += s.recall_wanted;
    }
    if summary.recall_wanted == 0 {
        return None;
    }
    let recall = summary.recall_found as f64 / summary.recall_wanted as f64;
    if recall < MIN_RECALL {
        tally.failed += summary.approx_searches;
        tally.problem(format!("recall@10 {recall:.3} < {MIN_RECALL}"));
    }
    Some(recall)
}

fn outcome(tally: Tally, values: Values, table: Vec<String>) -> Outcome {
    Outcome {
        correct: tally.failed == 0 && tally.problems.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        problems: tally.problems,
        values,
        table,
    }
}

pub fn run(ctx: &Ctx, setup: Setup) -> Result<Outcome, String> {
    let outcome = if ctx.trace {
        run_traced(ctx, setup)
    } else {
        run_untraced(ctx, setup)
    };
    std::fs::remove_dir_all(&ctx.run_dir).ok();
    outcome
}

fn run_untraced(ctx: &Ctx, setup: Setup) -> Result<Outcome, String> {
    let mut setup_secs = Vec::new();
    let mut probe = PhaseStats::new(ctx.segment());
    let mut saturate = PhaseStats::new(ctx.segment());
    let mut tally = Tally::default();
    let mut focus = Class::Read;
    for _ in 0..ROUNDS {
        let started = Instant::now();
        let (mut system, mut clients) = set_up(ctx, setup)?;
        setup_secs.push(started.elapsed().as_secs_f64() - system.oracle_secs());
        focus = system.focus();
        for mode in ROUND_PLAN {
            let one = run_phase(&mut clients, mode, 1, ctx.segment());
            match mode {
                Mode::Probe => probe.segments.extend(one.segments),
                Mode::Saturate => saturate.segments.extend(one.segments),
            }
        }
        system.finish(ctx, &mut clients, &mut tally, None);
        settle(&clients, &mut tally);
        drop(clients);
        system.teardown();
    }

    let mut values = Values::new(END_TO_END);
    values.set("setup_s", median(&setup_secs));
    values.set("ops_per_s", saturate.rate(&Class::ALL));
    values.set("focus_ops_per_s", saturate.rate(&[focus]));
    values.set("read_p50_us", probe.latency_us(Class::Read, 0.5).0);
    values.set("focus_p50_us", probe.latency_us(focus, 0.5).0);
    values.set("peak_rss_mb", peak_rss_mb());
    for class in [Class::Read, focus] {
        let (_, samples) = probe.latency_us(class, 0.5);
        eprintln!(
            "# {} latency from {samples} samples over {} segments of {:.2} s",
            class.name(),
            probe.segments.len(),
            probe.seg_secs
        );
    }
    Ok(outcome(tally, values, Vec::new()))
}

fn run_traced(ctx: &Ctx, setup: Setup) -> Result<Outcome, String> {
    let origin = Instant::now();
    let (mut system, mut clients) = set_up(ctx, setup)?;
    let seg = ctx.segment();

    for (lane, c) in clients.iter_mut().enumerate() {
        c.tracer = Some(Tracer::new(origin, lane as u32 + 1));
    }
    let probe = run_phase(&mut clients, Mode::Probe, 4, seg);
    let mut deep = Deep {
        tracer: Tracer::new(origin, 0),
        layers: Values::new(PER_LAYER),
        probe: &probe,
        table: Vec::new(),
    };
    system.after_probe(&mut deep);

    // Tracing overhead: the same saturate phase without and with spans.
    let tracers: Vec<Option<Tracer>> = clients.iter_mut().map(|c| c.tracer.take()).collect();
    let plain = run_phase(&mut clients, Mode::Saturate, 2, seg);
    for (c, tracer) in clients.iter_mut().zip(tracers) {
        c.tracer = tracer;
    }
    let traced = run_phase(&mut clients, Mode::Saturate, 2, seg);

    let mut tally = Tally::default();
    system.finish(ctx, &mut clients, &mut tally, Some(&mut deep));
    let Deep {
        tracer,
        mut layers,
        table,
        ..
    } = deep;

    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    layers.set(
        "client.trace_overhead_ratio",
        ratio(traced.rate(&Class::ALL), plain.rate(&Class::ALL)),
    );
    let reads = [Class::Read, Class::Batch, Class::Search];
    layers.set("client.read_only_ops_per_s", traced.rate(&reads));
    layers.set("client.write_only_ops_per_s", traced.rate(&[Class::Write]));
    layers.set("client.write_ops_per_s", plain.rate(&[Class::Write]));
    let focus = system.focus();
    layers.set("client.read_p99_us", probe.latency_us(Class::Read, 0.99).0);
    layers.set("client.focus_p99_us", probe.latency_us(focus, 0.99).0);
    layers.set(
        "client.search_p50_us",
        probe.latency_us(Class::Search, 0.5).0,
    );
    layers.set(
        "client.search_p99_us",
        probe.latency_us(Class::Search, 0.99).0,
    );
    layers.set("client.write_p50_us", probe.latency_us(Class::Write, 0.5).0);
    layers.set(
        "client.write_p99_us",
        probe.latency_us(Class::Write, 0.99).0,
    );

    layers.set(
        "index.hnsw.recall_at_10",
        settle(&clients, &mut tally).unwrap_or(0.0),
    );
    layers.set(
        "client.fail_ratio",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );

    let mut tracers: Vec<&Tracer> = vec![&tracer];
    tracers.extend(clients.iter().filter_map(|c| c.tracer.as_ref()));
    let path = ctx.out_dir.join(format!("trace-{}.jsonl", ctx.workload));
    match write_jsonl(&path, &tracers) {
        Ok(spans) => eprintln!("# wrote {spans} spans to {}", path.display()),
        Err(e) => tally.problem(format!("write {}: {e}", path.display())),
    }
    drop(clients);
    system.teardown();
    Ok(outcome(tally, layers, table))
}

/// The paced open-loop stage (a satellite of `point_read`): every client
/// sends 2,500 requests a second on a fixed schedule for three segments.
pub fn paced_stage(ctx: &Ctx, clients: &mut [Client], layers: &mut Values) {
    let paced = run_paced(clients, Duration::from_micros(400), ctx.segment() * 3);
    layers.set("client.paced_p50_us", paced.from_due.quantile_us(0.5));
    layers.set("client.paced_p99_us", paced.from_due.quantile_us(0.99));
    layers.set("client.gen_late_p99_us", paced.gen_late.quantile_us(0.99));
}

/// `end-to-end p50 − round-trip floor − handle`, the remainder the layer
/// table prints; also the table's lines for one class.
pub fn explain(
    deep: &mut Deep,
    workload: &str,
    class: Class,
    rtt_floor_us: f64,
    codec_ns: f64,
    layer_ns: &[(&str, f64)],
) {
    let (e2e, samples) = deep.probe.latency_us(class, 0.5);
    if samples == 0 {
        return;
    }
    // `layer_ns` lists each layer's own figure, outermost first; a layer's
    // self time is its figure minus the next one's.
    let handle_us = layer_ns.first().map_or(0.0, |l| l.1 / 1e3);
    let unexplained = e2e - rtt_floor_us - handle_us;
    let name = match class {
        Class::Read | Class::Batch => "client.read_unexplained_us",
        Class::Search => "client.search_unexplained_us",
        Class::Write => "client.write_unexplained_us",
    };
    if class != Class::Batch {
        deep.layers.set(name, unexplained);
    }
    let t = &mut deep.table;
    t.push(format!(
        "layer table  {workload} / {:<6} end-to-end p50 {e2e:>9.1} us  ({samples} samples)",
        class.name()
    ));
    t.push(format!(
        "    {:<44}{rtt_floor_us:>9.1} us",
        "serve.rtt_floor (Health round trip)"
    ));
    for (i, (layer, ns)) in layer_ns.iter().enumerate() {
        let below = layer_ns.get(i + 1).map_or(0.0, |l| l.1);
        t.push(format!(
            "    {:<44}{:>9.2} us  (whole call {:.2} us)",
            format!("{layer} self"),
            (ns - below).max(0.0) / 1e3,
            ns / 1e3
        ));
    }
    t.push(format!(
        "    {:<44}{:>9.2} us  (wire requests only; inside the remainder)",
        "serve.codec req+resp encode+decode",
        codec_ns / 1e3
    ));
    t.push(format!(
        "    {:<44}{unexplained:>9.1} us",
        "unexplained remainder"
    ));
}
