//! Smoke checks of the benchmark at its `--smoke` size: the printed metrics
//! match `BENCHMARK.json`, outputs check clean, injected failures are
//! counted, and traced self-times account for the timed engine call.

use psa_bench::batch::run_job;
use psa_bench::calibrate::Calibration;
use psa_bench::metrics::{END_TO_END, PER_LAYER};
use psa_bench::serve_edit::Plan;
use psa_bench::workload::{validator_seeds, Job, RunConfig, Workload};
use psa_core::json::Json;
use psa_core::stats::Budget;
use psa_rsg::Level;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of one metric list of `BENCHMARK.json`.
fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn owned(registry: &[(&str, &str)]) -> Vec<(String, String)> {
    registry
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn registry_matches_benchmark_json() {
    let doc = benchmark_json();
    assert_eq!(listed(&doc, "end_to_end"), owned(END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), owned(PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

/// Run the binary on one workload at smoke size and return its metric
/// lines `(metric, value, unit)` and its result line.
fn smoke_run(workload: &str, trace: bool) -> (Vec<(String, f64, String)>, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_psa-bench"))
        .args(["run", "--workload", workload, "--smoke", "--seed", "7"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("psa-bench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut lines: Vec<&str> = stdout.lines().filter(|l| !l.starts_with('#')).collect();
    let result = Json::parse(lines.pop().expect("result line")).expect("result line is JSON");
    let metrics = lines
        .iter()
        .map(|l| {
            let f: Vec<&str> = l.split(' ').collect();
            assert_eq!(f.len(), 4, "metric line `{l}`");
            assert_eq!(f[0], workload);
            let value = f[2].parse().expect("metric value is a number");
            (f[1].to_string(), value, f[3].to_string())
        })
        .collect();
    (metrics, result)
}

#[test]
fn every_workload_prints_exactly_its_registry_and_checks_clean() {
    let doc = benchmark_json();
    for w in Workload::ALL {
        for trace in [false, true] {
            let (metrics, result) = smoke_run(w.name(), trace);
            let want = listed(&doc, if trace { "per_layer" } else { "end_to_end" });
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(n, _, u)| (n.clone(), u.clone()))
                .collect();
            assert_eq!(got, want, "{} trace={trace}", w.name());
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Json::as_i64), Some(0));
            assert!(result.get("attempted").and_then(Json::as_i64).unwrap() >= 1);
            let json_metrics = result.get("metrics").expect("metrics");
            for (name, value, unit) in &metrics {
                let m = json_metrics.get(name).expect("metric in result line");
                assert_eq!(m.get("value").and_then(Json::as_f64), Some(*value));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
                if !trace {
                    assert!(*value > 0.0, "{} {name} is 0", w.name());
                }
            }
        }
    }
}

fn matvec(level: Level) -> Job {
    Job::new(
        "matvec",
        psa_codes::sparse_matvec(psa_codes::Sizes::default()),
        level,
        false,
    )
}

#[test]
fn injected_failure_is_counted() {
    let mut starved = matvec(Level::L1);
    starved.budget = Budget {
        max_rsgs: Some(1),
        ..Budget::default()
    };
    let cfg = RunConfig {
        workload: Workload::Table1,
        seed: 7,
        seconds: 0.0,
        trace: false,
        smoke: true,
    };
    let jobs = [matvec(Level::L1), starved];
    let outcome = psa_bench::batch::run(&cfg, &jobs, &mut Calibration::new());
    // One timed pass plus the checking pass, two jobs each; every run of
    // the starved job fails.
    assert_eq!(outcome.failures.attempted, 4);
    assert_eq!(outcome.failures.failed, 2);
    assert!(outcome
        .failures
        .reasons
        .iter()
        .all(|r| r.starts_with("matvec/L1: analysis stopped")));
}

#[test]
fn traced_self_times_account_for_the_timed_engine_run() {
    let r = run_job(&matvec(Level::L2), &validator_seeds(7), true, false);
    assert!(r.failure.is_none(), "{:?}", r.failure);
    let st = r.self_times.expect("traced run has self-times");
    // Self-times partition the outermost spans exactly ...
    assert_eq!(st.self_ns.iter().sum::<u64>(), st.root_ns);
    // ... and, with the unattributed residual, add up to the engine call
    // timed from outside; the residual stays within 2% of it.
    let engine_ms = r.ms.engine;
    let unattributed_ms = engine_ms - st.total_ms();
    assert!(
        (0.0..=0.02 * engine_ms).contains(&unattributed_ms),
        "engine {engine_ms} ms, spans {} ms",
        st.total_ms()
    );
}

#[test]
fn full_serve_session_leaves_ten_samples_above_p95() {
    let plan = Plan::build(7, false).expect("plan builds");
    let samples = plan.requests.len() * plan.min_sessions();
    let p95_rank = (0.95 * samples as f64).ceil() as usize;
    assert!(
        samples - p95_rank >= 10,
        "{samples} samples leave {} above p95",
        samples - p95_rank
    );
}
