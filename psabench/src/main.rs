//! `psa-bench` — end-to-end and per-layer benchmark of the analyzer.
//!
//! ```text
//! psa-bench run [--workload W] [--seed S] [--seconds N] [--trace [0|1]]
//!               [--out FILE] [--smoke]
//! psa-bench spread --runs N [--workload W] [--seed S] [--seconds N]
//! ```
//!
//! `run --workload W` measures one workload in this process and prints one
//! `workload metric value unit` line per metric, then a JSON result line.
//! `run` without `--workload` runs every workload, each in a child process
//! of its own. `spread` repeats `run` with seeds S, S+1, ... and prints the
//! median, quartiles and extremes of every end-to-end metric.

use psa_bench::calibrate::{Calibration, NOMINAL_MS};
use psa_bench::machine::Fingerprint;
use psa_bench::metrics::{result_line, END_TO_END, PER_LAYER};
use psa_bench::serve_edit::Plan;
use psa_bench::stats::{median, quartiles};
use psa_bench::workload::{batch_jobs, Job, RunConfig, Workload};
use psa_bench::{batch, serve_edit, OpRecord, Outcome};
use psa_core::json::Json;
use psa_core::serve::{ServeOptions, Server};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 7;

const USAGE: &str =
    "usage:\n  psa-bench run [--workload W] [--seed S] [--seconds N] [--trace [0|1]] \
                     [--out FILE] [--smoke]\n  psa-bench spread --runs N [--workload W] [--seed S] \
                     [--seconds N]\nworkloads: table1, olden, paradox, serve_edit";

/// The benchmark definition, for the bounds `spread` checks against.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    smoke: bool,
    runs: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        out: None,
        smoke: false,
        runs: 5,
    };
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--workload" => {
                let v = value(i)?;
                a.workload = Some(Workload::from_name(v).ok_or(format!("unknown workload `{v}`"))?);
                i += 1;
            }
            "--seed" => {
                a.seed = value(i)?.parse().map_err(|_| "--seed: not a number")?;
                i += 1;
            }
            "--seconds" => {
                a.seconds = value(i)?.parse().map_err(|_| "--seconds: not a number")?;
                i += 1;
            }
            "--runs" => {
                a.runs = value(i)?.parse().map_err(|_| "--runs: not a number")?;
                i += 1;
            }
            "--out" => {
                a.out = Some(value(i)?.clone());
                i += 1;
            }
            "--trace" => {
                a.trace = true;
                match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        a.trace = false;
                        i += 1;
                    }
                    Some("1") => i += 1,
                    _ => {}
                }
            }
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match args.first().map(String::as_str) {
        Some(cmd @ ("run" | "spread")) => parse_args(&args[1..]).map(|a| (cmd, a)),
        _ => Err("missing command".to_string()),
    };
    match parsed {
        Ok(("run", a)) => match a.workload {
            Some(w) => run_workload(&a, w),
            None => run_all(&args[1..], &a),
        },
        Ok((_, a)) => spread(&a),
        Err(msg) => {
            eprintln!("psa-bench: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

enum Prepared {
    Batch(Vec<Job>),
    Serve(Plan),
}

/// Everything a run does before its first timed call: generate the
/// sources and the job list and check that every source compiles, or
/// build the request plan (whose sources and edits are checked the same
/// way) and a server.
fn prepare(cfg: &RunConfig) -> Result<Prepared, String> {
    match batch_jobs(cfg.workload, cfg.seed, cfg.smoke) {
        Some(jobs) => {
            for job in &jobs {
                let (program, types) = psa_cfront::parse_and_type(&job.source)
                    .map_err(|e| format!("{}: {e}", job.name))?;
                psa_ir::lower_program(&program, &types, "main")
                    .map_err(|e| format!("{}: {e}", job.name))?;
            }
            Ok(Prepared::Batch(jobs))
        }
        None => {
            let plan = Plan::build(cfg.seed, cfg.smoke)?;
            drop(Server::new(ServeOptions::default()));
            Ok(Prepared::Serve(plan))
        }
    }
}

fn run_workload(a: &Args, workload: Workload) -> ExitCode {
    let cfg = RunConfig {
        workload,
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        smoke: a.smoke,
    };
    let fingerprint = Fingerprint::collect();
    let mut cal = Calibration::new();
    // When each set-up repetition started and ended.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        cal.bracket();
        let t = Instant::now();
        match prepare(&cfg) {
            Ok(p) => prepared = Some(p),
            Err(e) => {
                eprintln!(
                    "psa-bench: {}: input does not compile: {e}",
                    workload.name()
                );
                return ExitCode::FAILURE;
            }
        }
        setups.push((t, Instant::now()));
    }
    let Outcome {
        mut metrics,
        failures,
        ops,
        passes,
        traced_passes,
    } = match prepared.expect("set-up ran at least once") {
        Prepared::Batch(jobs) => batch::run(&cfg, &jobs, &mut cal),
        Prepared::Serve(plan) => serve_edit::run(&cfg, &plan, &mut cal),
    };
    let setups: Vec<f64> = setups
        .iter()
        .map(|&(s, e)| (e - s).as_secs_f64() * cal.factor(s, e))
        .collect();
    let kernel_ms = cal.kernel_samples();
    let registry = if cfg.trace { PER_LAYER } else { END_TO_END };
    if !cfg.trace {
        metrics.set(END_TO_END, "setup_s", median(&setups));
    }
    let metrics = metrics.complete(registry);

    let name = workload.name();
    println!(
        "# machine nproc={} cpu=\"{}\" rustc=\"{}\" git={} loadavg={}",
        fingerprint.nproc,
        fingerprint.cpu,
        fingerprint.rustc,
        fingerprint.git_rev,
        fingerprint.loadavg
    );
    println!(
        "# inputs workload={name} seed={} seconds={} trace={} smoke={} ops={} passes={passes} \
         traced_passes={traced_passes} attempted={} failed={}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.smoke,
        ops.len(),
        failures.attempted,
        failures.failed
    );
    let [lo, hi] = [f64::min, f64::max].map(|pick| kernel_ms.iter().copied().reduce(pick));
    println!(
        "# calibration kernel_ms median={} min={} max={} nominal={NOMINAL_MS} runs={}",
        median(&kernel_ms),
        lo.unwrap_or(0.0),
        hi.unwrap_or(0.0),
        kernel_ms.len()
    );
    for why in &failures.reasons {
        println!("# FAILED {why}");
        eprintln!("psa-bench: {name}: failed: {why}");
    }
    for (metric, unit, value) in metrics.iter() {
        println!("{name} {metric} {value} {unit}");
    }
    if let Some(path) = &a.out {
        let floats = |xs: &[f64]| xs.iter().map(|&x| Json::from(x)).collect::<Json>();
        let mut doc = Json::obj();
        doc.set("workload", name);
        doc.set("seed", cfg.seed as f64);
        doc.set("seconds", cfg.seconds);
        doc.set("trace", cfg.trace);
        doc.set("smoke", cfg.smoke);
        doc.set("fingerprint", fingerprint.to_json());
        doc.set("setup_s_samples", floats(&setups));
        doc.set("passes", passes as f64);
        doc.set("traced_passes", traced_passes as f64);
        doc.set("kernel_ms", floats(&kernel_ms));
        doc.set("attempted", failures.attempted as f64);
        doc.set("failed", failures.failed as f64);
        let reasons = failures.reasons.iter().map(String::as_str);
        doc.set("failures", reasons.collect::<Json>());
        doc.set("metrics", metrics.to_json());
        let op_json = |o: &OpRecord| {
            let mut j = Json::obj();
            j.set("name", o.name.as_str());
            j.set("median_ms", o.median_ms);
            j.set("samples_ms", floats(&o.samples_ms));
            j.set("factors", floats(&o.factors));
            j.set("digest", format!("{:016x}", o.digest));
            j
        };
        doc.set("ops", ops.iter().map(op_json).collect::<Json>());
        if let Err(e) = std::fs::write(path, doc.pretty()) {
            eprintln!("psa-bench: {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "{}",
        result_line(failures.attempted, failures.failed, &metrics)
    );
    if failures.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `run` over every workload, each in its own child process so that peak
/// RSS and allocator state belong to one workload.
fn run_all(args: &[String], a: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of the running executable");
    let mut ok = true;
    for w in Workload::ALL {
        let mut child_args: Vec<String> = vec!["run".into(), "--workload".into(), w.name().into()];
        let mut i = 0;
        while i < args.len() {
            if args[i] == "--out" {
                child_args.push("--out".into());
                child_args.push(format!("{}.{}", a.out.as_deref().unwrap_or(""), w.name()));
                i += 1;
            } else {
                child_args.push(args[i].clone());
            }
            i += 1;
        }
        match Command::new(&exe).args(&child_args).status() {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("psa-bench: workload {} exited with {s}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("psa-bench: cannot start workload {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `bound` of every end-to-end metric in `BENCHMARK.json`.
fn bounds() -> Vec<(String, f64)> {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_string();
            Some((name, m.get("bound")?.as_f64()?))
        })
        .collect()
}

/// Repeat `run` with consecutive seeds and summarize each end-to-end
/// metric: median, quartiles (Python's `statistics.quantiles` method),
/// extremes, and the spread (interquartile range over median) against the
/// metric's bound.
fn spread(a: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of the running executable");
    let bounds = bounds();
    let workloads = a.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut ok = true;
    println!(
        "{:<11} {:<15} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "median", "q1", "q3", "min", "max", "spread", "bound"
    );
    for w in workloads {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for r in 0..a.runs {
            let seed = a.seed + r as u64;
            let out = Command::new(&exe)
                .args(["run", "--workload", w.name(), "--trace", "0"])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &a.seconds.to_string()])
                .stderr(Stdio::inherit())
                .output();
            let line = match &out {
                Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout)
                    .lines()
                    .last()
                    .map(str::to_string),
                _ => None,
            };
            let Some(result) = line.and_then(|l| Json::parse(&l).ok()) else {
                eprintln!("psa-bench: {} seed {seed} failed", w.name());
                ok = false;
                continue;
            };
            for (k, (name, _)) in END_TO_END.iter().enumerate() {
                if let Some(v) = result
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                {
                    values[k].push(v);
                }
            }
        }
        for ((name, _), xs) in END_TO_END.iter().zip(&values) {
            let Some([q1, q2, q3]) = quartiles(xs) else {
                continue;
            };
            let spread = (q3 - q1) / q2;
            let bound = bounds
                .iter()
                .find(|(n, _)| n == name)
                .map_or(f64::NAN, |(_, b)| *b);
            let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            println!(
                "{:<11} {:<15} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>8.4} {:>6.3}{}",
                w.name(),
                name,
                q2,
                q1,
                q3,
                lo,
                hi,
                spread,
                bound,
                if spread > bound { "  SPREAD>BOUND" } else { "" }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
