//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <train_pokec|serve_hot|serve_churn> --seed N --seconds S --trace 0|1
//! perfbench compare <result.json> <result.json>
//! ```
//!
//! A run prints each metric by name with its unit, then, as its last line,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. It also writes
//! a result record with the host and build fingerprint, and with
//! `--trace 1` the recorded spans, under `.perfbench/` in the working
//! directory. The exit code is 1 when any output was wrong and 3 when the
//! harness's own accounting failed. A run whose load generator could not
//! keep its schedule is marked invalid in its record, which `compare`
//! then refuses.

mod catalog;
mod common;
mod load;
mod serve;
mod stats;
mod trace;
mod train;
mod zipf;

use catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::{Budget, Tracer};

/// The largest share of the traced time the layer self times plus the
/// unattributed time may miss it by.
const RECONCILE_TOLERANCE: f64 = 0.01;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace,
    })
}

/// What a result was measured on. Results are comparable only when every
/// field but the revision agrees.
struct Fingerprint {
    nproc: usize,
    pool_threads: usize,
    obs: bool,
    rustc: &'static str,
    revision: String,
}

impl Fingerprint {
    fn take() -> Self {
        let revision = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .env("GIT_DIR", ".git")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            pool_threads: sigma_parallel::current_threads(),
            obs: sigma_obs::ENABLED,
            rustc: env!("PERFBENCH_RUSTC"),
            revision,
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"pool_threads\": {}, \"obs\": {}, \"rustc\": {}, \"revision\": {}}}",
            self.nproc,
            self.pool_threads,
            self.obs,
            sigma_daemon::json::quote(self.rustc),
            sigma_daemon::json::quote(&self.revision)
        )
    }
}

/// `(steal, total)` CPU ticks over all CPUs, from `/proc/stat`.
fn cpu_times() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().unwrap_or(0))
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn run(args: &Args) -> ExitCode {
    let root = Path::new(".perfbench");
    let scratch = root.join("tmp");
    for dir in [root.join("results"), root.join("spans"), scratch.clone()] {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("perfbench: cannot create {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }
    let tracer = Tracer::new(args.trace);
    let fingerprint = Fingerprint::take();
    let cpu_before = cpu_times();
    println!("fingerprint: {}", fingerprint.json());
    let facts = match args.workload.as_str() {
        "train_pokec" => train::facts(),
        "serve_hot" => serve::hot_facts(),
        _ => serve::churn_facts(),
    };
    println!(
        "workload {} ({}) seed {} seconds {} trace {}",
        args.workload,
        facts.join(", "),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut report = match args.workload.as_str() {
        "train_pokec" => train::run(args.seed, args.seconds, &tracer, &scratch),
        "serve_hot" => serve::run(serve::Kind::Hot, args.seed, args.seconds, &tracer, &scratch),
        "serve_churn" => serve::run(
            serve::Kind::Churn,
            args.seed,
            args.seconds,
            &tracer,
            &scratch,
        ),
        _ => unreachable!("workload validated by parse_args"),
    };
    report.set("ok_frac", report.ok_frac());
    // Time the hypervisor gave this machine's CPUs to someone else: a
    // loaded host shows up here before it shows up as noisy latencies.
    let steal_frac = match (cpu_before, cpu_times()) {
        (Some((steal0, total0)), Some((steal1, total1))) => {
            (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64
        }
        _ => 0.0,
    };
    println!("host cpu steal during the run: {:.2}%", 100.0 * steal_frac);

    if args.trace {
        let budget = Budget::of(&tracer.spans());
        budget.print(&args.workload);
        report.set(
            "trace.unattributed_frac",
            budget.unattributed_ns() as f64 / budget.root_ns.max(1) as f64,
        );
        if budget.reconcile_error() > RECONCILE_TOLERANCE {
            eprintln!(
                "perfbench: layer self times do not reconcile with the traced time (error {:.3})",
                budget.reconcile_error()
            );
            return ExitCode::from(3);
        }
        let spans = root
            .join("spans")
            .join(format!("{}-seed{}.tsv", args.workload, args.seed));
        if let Err(e) = tracer.write_tsv(&spans) {
            eprintln!("perfbench: cannot write {}: {e}", spans.display());
        } else {
            println!("spans: {}", spans.display());
        }
    }

    let mut metrics = Vec::new();
    if args.trace {
        println!("per-layer metrics (-> the end-to-end metric @ workload each should move):");
        for &(name, unit, _, moves) in PER_LAYER {
            let value = report.metrics.get(name).copied();
            let shown = value.map_or("n/a".to_string(), |v| format!("{v:.6}"));
            println!("  {name:<26} {shown:>16} {unit:<8} -> {moves}");
            metrics.push((name, value.unwrap_or(0.0), unit));
        }
    } else {
        println!("end-to-end metrics:");
        for &(name, unit, _) in END_TO_END {
            let value = *report
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("workload did not report {name}"));
            println!("  {name:<16} {value:>16.6} {unit}");
            metrics.push((name, value, unit));
        }
    }
    for problem in &report.problems {
        println!("FAILED: {problem}");
    }
    assert!(metrics
        .iter()
        .all(|(name, _, _)| stats::valid_metric_name(name)));
    if let Some(&(name, _, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("perfbench: metric {name} is not a finite number");
        return ExitCode::from(3);
    }
    if let Some(reason) = &report.invalid {
        println!("RUN MARKED INVALID: {reason}");
    }

    let correct = report.failed == 0;
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted,
        report.failed,
        metrics_json(&metrics)
    );
    let record: PathBuf = root.join("results").join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let body = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"valid\": {}, \"steal_frac\": {steal_frac}, \"fingerprint\": {}, \"result\": {result}}}\n",
        args.workload,
        args.seed,
        args.trace,
        report.invalid.is_none(),
        fingerprint.json()
    );
    if let Err(e) = std::fs::write(&record, body) {
        eprintln!("perfbench: cannot write {}: {e}", record.display());
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Compares two result records, refusing when their fingerprints differ.
fn compare(paths: &[String]) -> ExitCode {
    use sigma_daemon::Json;
    let [a, b] = paths else {
        eprintln!("usage: perfbench compare <result.json> <result.json>");
        return ExitCode::from(2);
    };
    let load = |path: &String| -> Result<Json, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
        sigma_daemon::json::parse(&bytes).map_err(|e| format!("{path}: {e}"))
    };
    let (a_json, b_json) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench compare: {e}");
            return ExitCode::from(2);
        }
    };
    for key in ["nproc", "pool_threads", "obs", "rustc"] {
        let field = |j: &Json| j.get("fingerprint").and_then(|f| f.get(key)).cloned();
        if field(&a_json) != field(&b_json) {
            eprintln!(
                "perfbench compare: refusing to compare: fingerprint field {key} differs ({:?} vs {:?})",
                field(&a_json),
                field(&b_json)
            );
            return ExitCode::from(2);
        }
    }
    for (path, json) in [(a, &a_json), (b, &b_json)] {
        if json.get("valid") != Some(&Json::Bool(true)) {
            eprintln!("perfbench compare: refusing to compare: {path} was marked invalid");
            return ExitCode::from(2);
        }
    }
    for key in ["workload", "trace"] {
        if a_json.get(key) != b_json.get(key) {
            eprintln!("perfbench compare: refusing to compare results of different {key}");
            return ExitCode::from(2);
        }
    }
    let revision = |j: &Json| {
        j.get("fingerprint")
            .and_then(|f| f.get("revision"))
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    println!(
        "A = {a} ({})\nB = {b} ({})",
        revision(&a_json),
        revision(&b_json)
    );
    let metrics = |j: &Json| match j.get("result").and_then(|r| r.get("metrics")) {
        Some(Json::Obj(members)) => members.clone(),
        _ => Vec::new(),
    };
    let b_metrics = metrics(&b_json);
    println!("{:<26} {:>14} {:>14} {:>9}", "metric", "A", "B", "B/A-1");
    for (name, a_metric) in metrics(&a_json) {
        let value = |m: &Json| m.get("value").and_then(Json::as_num);
        let b_value = b_metrics
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, m)| value(m));
        if let (Some(x), Some(y)) = (value(&a_metric), b_value) {
            let change = if x != 0.0 {
                format!("{:+.2}%", 100.0 * (y / x - 1.0))
            } else {
                "-".into()
            };
            println!("{name:<26} {x:>14.4} {y:>14.4} {change:>9}");
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare(&args[1..]);
    }
    match parse_args(&args) {
        Ok(args) => run(&args),
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            ExitCode::from(2)
        }
    }
}
