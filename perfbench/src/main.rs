//! `perf` — the repo's one benchmark. See `README.md` beside this crate's
//! manifest for the workloads, every metric and how they interact.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! perf --all [--trace] [--seed <n>] [--seconds <s>] [--quick]
//! perf check [--seed <n>] [--seconds <s>] [--quick]
//! perf diff <a.json> <b.json>
//! perf --selftest
//! ```
//!
//! The last line of standard output of a single-workload run is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`.

mod data;
mod hist;
mod layers;
mod load;
mod metrics;
mod run;
mod trace;
mod workloads {
    pub mod durable_write;
    pub mod embedding_serve;
    pub mod point_read;
    pub mod sharded_mix;
}

use run::{Ctx, Outcome, Setup};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

pub const WORKLOADS: [&str; 4] = [
    "point_read",
    "embedding_serve",
    "durable_write",
    "sharded_mix",
];

fn setup_of(workload: &str) -> Option<Setup> {
    match workload {
        "point_read" => Some(workloads::point_read::setup),
        "embedding_serve" => Some(workloads::embedding_serve::setup),
        "durable_write" => Some(workloads::durable_write::setup),
        "sharded_mix" => Some(workloads::sharded_mix::setup),
        _ => None,
    }
}

/// Results, traces and scratch files live under the build directory, so
/// nothing is written outside the checkout.
fn perf_dir() -> PathBuf {
    let base =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    base.join("perf")
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    all: bool,
    selftest: bool,
    command: Option<String>,
    files: Vec<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        all: false,
        selftest: false,
        command: None,
        files: Vec::new(),
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or(format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => out.workload = Some(value(&mut i, "--workload")?),
            "--seed" => {
                out.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value(&mut i, "--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is out of range"));
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                // `--trace 0|1` for the driver, bare `--trace` by hand.
                out.trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => out.quick = true,
            "--all" => out.all = true,
            "--selftest" => out.selftest = true,
            "check" | "diff" if out.command.is_none() => out.command = Some(args[i].clone()),
            other if out.command.as_deref() == Some("diff") => out.files.push(other.to_string()),
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(out)
}

/// `BENCHMARK.json` in the working directory: the bounds and the run
/// length are declared there and nowhere else.
fn manifest() -> Result<serde_json::Value, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json in the working directory: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse BENCHMARK.json: {e}"))
}

fn default_seconds(quick: bool) -> f64 {
    if quick {
        return 1.5;
    }
    manifest()
        .ok()
        .and_then(|m| m.get("run_seconds").and_then(|s| s.as_f64()))
        .unwrap_or(15.0)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .values
        .iter()
        .map(|(d, v)| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                d.name,
                json_number(v),
                d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    )
}

/// Run one workload in this process and print its result.
fn run_one(ctx: &Ctx) -> Result<Outcome, String> {
    let setup = setup_of(&ctx.workload).ok_or(format!(
        "unknown workload `{}`; known: {}",
        ctx.workload,
        WORKLOADS.join(", ")
    ))?;
    let outcome = run::run(ctx, setup)?;
    for (d, v) in outcome.values.iter() {
        println!("{} {} {} {}", ctx.workload, d.name, json_number(v), d.unit);
    }
    for line in &outcome.table {
        println!("{line}");
    }
    for problem in &outcome.problems {
        eprintln!("# PROBLEM {}: {problem}", ctx.workload);
    }
    let fail_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    eprintln!(
        "# {} attempted {} failed {} fail_ratio {fail_ratio}",
        ctx.workload, outcome.attempted, outcome.failed
    );
    let line = result_json(&outcome);
    let kind = if ctx.trace { "layers" } else { "result" };
    let saved = ctx.out_dir.join(format!("{}.{kind}.json", ctx.workload));
    let wrapped = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"result\":{line}}}\n",
        ctx.workload,
        ctx.seed,
        json_number(ctx.seconds),
        u8::from(ctx.trace)
    );
    std::fs::create_dir_all(&ctx.out_dir)
        .and_then(|()| std::fs::write(&saved, wrapped))
        .map_err(|e| format!("write {}: {e}", saved.display()))?;
    println!("{line}");
    Ok(outcome)
}

fn ctx_for(workload: &str, args: &Args) -> Ctx {
    let out_dir = perf_dir();
    Ctx {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds.unwrap_or_else(|| default_seconds(args.quick)),
        trace: args.trace,
        quick: args.quick,
        corrupt: args.selftest,
        run_dir: out_dir.join(format!("run-{}", std::process::id())),
        out_dir,
    }
}

/// One child process per workload, so that `peak_rss_mb` is the
/// workload's own. Returns each child's parsed result line.
fn run_children(args: &Args, seed: u64) -> Result<Vec<(String, serde_json::Value)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seconds = args.seconds.unwrap_or_else(|| default_seconds(args.quick));
    let mut results = Vec::new();
    for workload in WORKLOADS {
        let mut command = Command::new(&exe);
        command
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.quick {
            command.arg("--quick");
        }
        let output = command
            .output()
            .map_err(|e| format!("spawn {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        if !output.status.success() {
            return Err(format!("{workload} exited with {}", output.status));
        }
        let parsed: serde_json::Value =
            serde_json::from_str(last).map_err(|e| format!("{workload} printed no result: {e}"))?;
        results.push((workload.to_string(), parsed));
    }
    Ok(results)
}

fn all_correct(results: &[(String, serde_json::Value)]) -> bool {
    results
        .iter()
        .all(|(_, r)| r.get("correct").and_then(|c| c.as_bool()) == Some(true))
}

fn metric_of(result: &serde_json::Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Compare two results of one workload under the bounds `BENCHMARK.json`
/// declares; prints one row per end-to-end metric and returns the number
/// of breaches. A breach is a change in either direction beyond the
/// bound: two runs of one build should agree both ways.
fn compare(workload: &str, a: &serde_json::Value, b: &serde_json::Value) -> Result<usize, String> {
    let manifest = manifest()?;
    let declared = manifest
        .get("end_to_end")
        .and_then(|m| m.as_array())
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut breaches = 0;
    for metric in declared {
        let name = metric
            .get("name")
            .and_then(|n| n.as_str())
            .ok_or("metric without a name")?;
        let bound = metric
            .get("bound")
            .and_then(|b| b.as_f64())
            .ok_or("metric without a bound")?;
        let (Some(va), Some(vb)) = (metric_of(a, name), metric_of(b, name)) else {
            return Err(format!("{workload} result lacks `{name}`"));
        };
        let delta = (vb - va).abs() / va.abs().max(f64::MIN_POSITIVE);
        let breach = delta > bound;
        breaches += usize::from(breach);
        println!(
            "{workload:<16} {name:<16} {va:>14.4} {vb:>14.4}  |delta| {:>6.2}%  bound {:>5.1}%  {}",
            delta * 100.0,
            bound * 100.0,
            if breach { "BREACH" } else { "ok" }
        );
    }
    Ok(breaches)
}

fn check(args: &Args) -> Result<bool, String> {
    let first = run_children(args, args.seed)?;
    let second = run_children(args, args.seed + 1)?;
    let mut breaches = 0;
    for ((workload, a), (_, b)) in first.iter().zip(&second) {
        breaches += compare(workload, a, b)?;
    }
    println!(
        "perf check: {breaches} breach(es) over {} workloads",
        first.len()
    );
    Ok(breaches == 0 && all_correct(&first) && all_correct(&second))
}

fn diff(files: &[String]) -> Result<bool, String> {
    let [a, b] = files else {
        return Err("usage: perf diff <a.json> <b.json>".into());
    };
    let load = |path: &String| -> Result<serde_json::Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))
    };
    let (a, b) = (load(a)?, load(b)?);
    let workload =
        |v: &serde_json::Value| v.get("workload").and_then(|w| w.as_str()).map(String::from);
    let (Some(wa), Some(wb)) = (workload(&a), workload(&b)) else {
        return Err("not result files written by perf".into());
    };
    if wa != wb {
        return Err(format!("cannot compare `{wa}` with `{wb}`"));
    }
    let (Some(ra), Some(rb)) = (a.get("result"), b.get("result")) else {
        return Err("result files lack a `result`".into());
    };
    Ok(compare(&wa, ra, rb)? == 0)
}

fn exit_on(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    let verdict = if args.selftest {
        // A corrupted oracle must see failures; a run that sees none
        // proves the checks are blind.
        args.quick = true;
        run_one(&ctx_for("point_read", &args)).map(|outcome| {
            if outcome.failed == 0 {
                eprintln!("perf: SELFTEST BROKEN: a corrupted oracle reported no failure");
                return ExitCode::from(3);
            }
            eprintln!(
                "perf: selftest saw {} failures, as it must; exiting non-zero",
                outcome.failed
            );
            ExitCode::from(1)
        })
    } else if args.command.as_deref() == Some("check") {
        check(&args).map(exit_on)
    } else if args.command.as_deref() == Some("diff") {
        diff(&args.files).map(exit_on)
    } else if args.all {
        run_children(&args, args.seed).map(|results| exit_on(all_correct(&results)))
    } else if let Some(workload) = &args.workload {
        // The result line says whether the run was correct; the exit code
        // says whether there is a result line.
        run_one(&ctx_for(workload, &args)).map(|_| ExitCode::SUCCESS)
    } else {
        Err("nothing to do: pass --workload <name>, --all, check, diff or --selftest".into())
    };
    verdict.unwrap_or_else(|e| {
        eprintln!("perf: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool, corrupt: bool) -> Outcome {
        let out_dir = perf_dir().join("test");
        let ctx = Ctx {
            workload: workload.to_string(),
            seed: 7,
            seconds: 1.5,
            trace,
            quick: true,
            corrupt,
            run_dir: out_dir.join(format!("run-{workload}-{trace}-{corrupt}")),
            out_dir,
        };
        run::run(&ctx, setup_of(workload).unwrap()).unwrap()
    }

    #[test]
    fn every_workload_runs_correct_and_reports_every_metric() {
        for workload in WORKLOADS {
            let untraced = smoke(workload, false, false);
            assert!(untraced.correct, "{workload}: {:?}", untraced.problems);
            for (d, v) in untraced.values.iter() {
                assert!(v > 0.0, "{workload} {} = {v}", d.name);
            }
            let traced = smoke(workload, true, false);
            assert!(traced.correct, "{workload} traced: {:?}", traced.problems);
            assert_eq!(traced.values.iter().count(), metrics::PER_LAYER.len());
            assert!(traced.values.get("serve.engine.handle_ns") > 0.0);
            assert!(!traced.table.is_empty());
        }
    }

    #[test]
    fn a_corrupted_oracle_reports_failures() {
        let outcome = smoke("point_read", false, true);
        assert!(outcome.failed > 0 && !outcome.correct);
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut values = metrics::Values::new(metrics::END_TO_END);
        values.set("setup_s", 0.8127);
        let outcome = Outcome {
            correct: true,
            attempted: 1000,
            failed: 0,
            problems: Vec::new(),
            values,
            table: Vec::new(),
        };
        let v: serde_json::Value = serde_json::from_str(&result_json(&outcome)).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(metric_of(&v, "setup_s"), Some(0.8127));
        assert_eq!(
            v.get("metrics").unwrap().as_object().unwrap().len(),
            metrics::END_TO_END.len()
        );
    }

    #[test]
    fn arguments_parse_the_way_the_driver_passes_them() {
        let argv: Vec<String> = "--workload point_read --seed 9 --seconds 15 --trace 0"
            .split(' ')
            .map(String::from)
            .collect();
        let args = parse(&argv).unwrap();
        assert_eq!(args.workload.as_deref(), Some("point_read"));
        assert_eq!(
            (args.seed, args.seconds, args.trace),
            (9, Some(15.0), false)
        );
        let argv: Vec<String> = ["--all", "--trace", "--quick"].map(String::from).to_vec();
        let args = parse(&argv).unwrap();
        assert!(args.all && args.trace && args.quick);
        assert!(parse(&["--bogus".to_string()]).is_err());
        assert!(parse(&["--seconds".to_string(), "0".to_string()]).is_err());
    }
}
