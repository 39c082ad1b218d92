//! Machine-readable fixpoint benchmark: the incremental engine (transfer
//! memo + delta worklist + interned state) vs the recompute-everything
//! baseline ([`EngineConfig::reference`]), per code and level, written to `BENCH_fixpoint.json` so the
//! perf trajectory is tracked from PR 2 on.
//!
//! ```text
//! cargo run --release --example bench_report            # full sizes
//! cargo run --release --example bench_report -- --quick # CI smoke sizes
//! cargo run --release --example bench_report -- --threads 1,2,4,8
//! ```
//!
//! `--quick` writes `BENCH_fixpoint_quick.json` instead, so the committed
//! quick reference survives a CI run and `scripts/bench_diff` always
//! compares reports produced at the same sizes.
//!
//! `--threads N,N,...` appends a thread-scaling sweep: the incremental
//! engine with the parallel fan-out pinned to each worker count
//! ([`EngineConfig::parallel_threads`]), at L2 and L3 where the fan-out
//! actually runs wide. Sweep rows carry a `"threads"` field so
//! `scripts/bench_diff` keys them separately from the sequential rows.
//!
//! Every row records its cache state: `"cache": "cold"` rows start from
//! fresh shared tables (the historical configuration), `"cache": "warm"`
//! rows re-run over tables already populated by a prior run of the same
//! code and level — the warm-start daemon / `--load-cache` configuration.
//! Warm rows are **medians over `--repeat N` samples** (default 5; warm
//! runs are fast enough that a single sample is noise), with a same-size
//! cold median alongside for the p50 warm-vs-cold ratio that
//! `scripts/bench_diff --warm` tracks.

use psa::core::engine::{AnalysisResult, Engine, EngineConfig};
use psa::core::json::Json;
use psa::core::report::ops_to_json;
use psa::ir::FuncIr;
use psa::rsg::Level;
use std::time::{Duration, Instant};

fn ir_for(src: &str) -> FuncIr {
    // Full interprocedural lowering: non-recursive helpers inline, the
    // recursive Olden codes keep callees and go through the summary path.
    let (p, t) = psa::cfront::parse_and_type(src).expect("parse");
    psa::ir::lower_program(&p, &t, "main").expect("lower")
}

/// The default engine, or the reference oracle as the baseline.
fn config(level: Level, incremental: bool) -> EngineConfig {
    if incremental {
        EngineConfig::at_level(level)
    } else {
        EngineConfig::reference(level)
    }
}

/// Best-of-N wall time plus the (deterministic) run result. Each rep uses a
/// fresh engine and fresh tables, so the memo never carries across reps —
/// this times a cold run, the configuration the fixpoint always starts in.
fn time_run(
    ir: &FuncIr,
    level: Level,
    incremental: bool,
    reps: usize,
) -> (
    Duration,
    Result<AnalysisResult, psa::core::engine::AnalysisError>,
) {
    let mut best = Duration::MAX;
    let mut out = None;
    for _ in 0..reps {
        let start = Instant::now();
        let res = Engine::new(ir, config(level, incremental)).run();
        best = best.min(start.elapsed());
        out = Some(res);
    }
    (best, out.unwrap())
}

/// Best-of-N wall time for the incremental engine with the parallel
/// fan-out pinned to `threads` workers. Fresh engine and tables per rep,
/// like [`time_run`].
fn time_parallel_run(
    ir: &FuncIr,
    level: Level,
    threads: usize,
    reps: usize,
) -> (
    Duration,
    Result<AnalysisResult, psa::core::engine::AnalysisError>,
) {
    let mut best = Duration::MAX;
    let mut out = None;
    for _ in 0..reps {
        let cfg = EngineConfig {
            level,
            parallel_threads: Some(threads),
            ..Default::default()
        };
        let start = Instant::now();
        let res = Engine::new(ir, cfg).run();
        best = best.min(start.elapsed());
        out = Some(res);
    }
    (best, out.unwrap())
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

/// Warm-start timing. One untimed warming run populates fresh shared
/// tables; each timed warm sample then runs a fresh engine over a fresh
/// session of those tables (fresh per-request metrics, shared memos —
/// exactly what a daemon request sees). Cold samples get fresh tables per
/// run. Both sides report the median over `samples` runs.
fn time_warm_vs_cold(
    ir: &FuncIr,
    level: Level,
    samples: usize,
) -> (Duration, Duration, AnalysisResult) {
    let cfg = || EngineConfig::at_level(level);
    let warming = Engine::new(ir, cfg());
    let base_ctx = warming.ctx().clone();
    warming.run().expect("warming run");
    let mut warm_walls = Vec::with_capacity(samples);
    let mut out = None;
    for _ in 0..samples {
        let session = std::sync::Arc::new(base_ctx.tables.session());
        let ctx = base_ctx.clone().with_tables(session);
        let start = Instant::now();
        let res = Engine::with_shape_ctx(ir, cfg(), ctx)
            .run()
            .expect("warm run");
        warm_walls.push(start.elapsed());
        out = Some(res);
    }
    let mut cold_walls = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        let _ = Engine::new(ir, cfg()).run().expect("cold run");
        cold_walls.push(start.elapsed());
    }
    (median(cold_walls), median(warm_walls), out.unwrap())
}

/// One extra *untimed* run with the trace journal enabled: the per-kernel
/// span totals (join/compress/divide/prune/canon/subsume plus statement
/// transfers) land in the report without perturbing the timed reps, which
/// always run with tracing disabled.
fn kernel_breakdown(ir: &FuncIr, level: Level) -> Json {
    let engine = Engine::new(ir, EngineConfig::at_level(level));
    engine.ctx().tables.tracer.enable();
    let _ = engine.run();
    let events = engine.ctx().tables.tracer.drain();
    let summary = psa::core::trace::summarize(&events, Some(ir));
    let mut j = Json::obj();
    for (kind, st) in &summary.spans {
        let mut e = Json::obj();
        e.set("count", st.count);
        e.set("total_ns", st.total_ns);
        e.set("mean_ns", st.mean_ns());
        e.set("max_ns", st.max_ns);
        j.set(kind.name(), e);
    }
    j
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let threads: Vec<usize> = args
        .iter()
        .position(|a| a == "--threads")
        .map(|i| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("--threads needs a comma-separated list, e.g. 1,2,4,8"))
                .split(',')
                .map(|t| {
                    t.trim()
                        .parse::<usize>()
                        .unwrap_or_else(|_| panic!("--threads: `{t}` is not a number"))
                        .max(1)
                })
                .collect()
        })
        .unwrap_or_default();
    let repeat: usize = args
        .iter()
        .position(|a| a == "--repeat")
        .map(|i| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("--repeat needs a sample count"))
                .parse::<usize>()
                .unwrap_or_else(|_| panic!("--repeat: not a number"))
                .max(1)
        })
        .unwrap_or(5);
    let sizes = if quick {
        psa::codes::Sizes::tiny()
    } else {
        psa::codes::Sizes::default()
    };
    let reps = if quick { 1 } else { 3 };
    let codes = [
        ("barnes-hut", psa::codes::barnes_hut(sizes)),
        ("sparse-lu", psa::codes::sparse_lu(sizes)),
        (
            "dll",
            psa::codes::generators::dll_program(if quick { 6 } else { 12 }),
        ),
        // Olden extension rows — informational for now (bench_diff gates
        // only on rows present in the committed reference; new names pass
        // through until the reference is regenerated with them).
        ("health", psa::codes::olden::health(sizes)),
        ("perimeter", psa::codes::olden::perimeter(sizes)),
        ("voronoi", psa::codes::olden::voronoi(sizes)),
    ];

    println!(
        "{:<12} {:<4} {:>12} {:>12} {:>8} {:>9} {:>22} {:>12}",
        "code",
        "lvl",
        "incremental",
        "baseline",
        "speedup",
        "hit-rate",
        "delta(hit/ext/full)",
        "peak-bytes"
    );
    let mut rows: Vec<Json> = Vec::new();
    for (name, src) in &codes {
        let ir = ir_for(src);
        for level in Level::ALL {
            let (incr, res_incr) = time_run(&ir, level, true, reps);
            let (base, res_base) = time_run(&ir, level, false, reps);
            let mut row = Json::obj();
            row.set("code", *name);
            row.set("level", level.to_string());
            row.set("cache", "cold");
            match (&res_incr, &res_base) {
                (Ok(a), Ok(b)) => {
                    assert!(a.exit.same_as(&b.exit), "differential violation");
                    let ops = &a.stats.ops;
                    let speedup = base.as_secs_f64() / incr.as_secs_f64();
                    println!(
                        "{:<12} {:<4} {:>12.2?} {:>12.2?} {:>7.2}x {:>8.1}% {:>10}/{:>4}/{:>5} {:>12}",
                        name,
                        level.to_string(),
                        incr,
                        base,
                        speedup,
                        ops.transfer_memo_hit_rate() * 100.0,
                        ops.delta_stmt_hits,
                        ops.delta_stmt_extends,
                        ops.delta_stmt_fulls,
                        a.stats.peak_bytes
                    );
                    row.set("wall_ms_incremental", incr.as_secs_f64() * 1e3);
                    row.set("wall_ms_baseline", base.as_secs_f64() * 1e3);
                    row.set("speedup", speedup);
                    row.set("iterations", a.stats.iterations as u64);
                    row.set("peak_bytes_incremental", a.stats.peak_bytes as u64);
                    row.set("peak_bytes_baseline", b.stats.peak_bytes as u64);
                    row.set("degraded", a.any_degraded());
                    row.set("ops", ops_to_json(ops));
                    row.set("kernels", kernel_breakdown(&ir, level));
                }
                (ri, rb) => {
                    // e.g. the paper's Sparse LU out-of-memory outcome under
                    // a byte budget — record that both engines agree.
                    println!(
                        "{:<12} {:<4} incremental err={} baseline err={}",
                        name,
                        level.to_string(),
                        ri.is_err(),
                        rb.is_err()
                    );
                    row.set("failed", true);
                    row.set("agree", ri.is_err() == rb.is_err());
                }
            }
            let cold_ok = res_incr.is_ok();
            let cold_exit = res_incr.as_ref().ok().map(|a| a.exit.clone());
            rows.push(row);

            // Warm-start row: the daemon / --load-cache configuration,
            // medians over `repeat` samples per side.
            if cold_ok {
                let (cold_p50, warm_p50, res_warm) = time_warm_vs_cold(&ir, level, repeat);
                if let Some(exit) = &cold_exit {
                    assert!(res_warm.exit.same_as(exit), "warm-start changed the result");
                }
                let ratio = cold_p50.as_secs_f64() / warm_p50.as_secs_f64();
                let wops = &res_warm.stats.ops;
                println!(
                    "{:<12} {:<4} {:>12.2?} {:>12.2?} {:>7.2}x {:>8.1}%   (warm p50 over {} reps)",
                    name,
                    level.to_string(),
                    warm_p50,
                    cold_p50,
                    ratio,
                    wops.transfer_memo_hit_rate() * 100.0,
                    repeat,
                );
                let mut wrow = Json::obj();
                wrow.set("code", *name);
                wrow.set("level", level.to_string());
                wrow.set("cache", "warm");
                wrow.set("repeat", repeat as u64);
                wrow.set("wall_ms_incremental", warm_p50.as_secs_f64() * 1e3);
                wrow.set("wall_ms_cold_p50", cold_p50.as_secs_f64() * 1e3);
                wrow.set("speedup_vs_cold", ratio);
                wrow.set("degraded", res_warm.any_degraded());
                wrow.set("ops", ops_to_json(wops));
                rows.push(wrow);
            }
        }
    }

    if !threads.is_empty() {
        // L2/L3 only: L1 RSRSGs are narrow enough that the fan-out never
        // exceeds a couple of graphs, so a thread sweep there times noise.
        println!(
            "\nthread-scaling sweep (incremental engine, pinned fan-out):\n\
             {:<12} {:<4} {:>7} {:>12} {:>8} {:>14} {:>10}",
            "code", "lvl", "threads", "wall", "vs-1T", "lock-wait", "contended"
        );
        for (name, src) in &codes {
            let ir = ir_for(src);
            for level in [Level::L2, Level::L3] {
                let mut one_thread: Option<(Duration, AnalysisResult)> = None;
                for &n in &threads {
                    let (wall, res) = time_parallel_run(&ir, level, n, reps);
                    let mut row = Json::obj();
                    row.set("code", *name);
                    row.set("level", level.to_string());
                    row.set("threads", n as u64);
                    row.set("cache", "cold");
                    match res {
                        Ok(a) => {
                            if let Some((base, ref res1)) = one_thread {
                                assert!(
                                    a.exit.same_as(&res1.exit),
                                    "thread-count changed the result"
                                );
                                row.set(
                                    "speedup_vs_1thread",
                                    base.as_secs_f64() / wall.as_secs_f64(),
                                );
                            }
                            let ops = &a.stats.ops;
                            println!(
                                "{:<12} {:<4} {:>7} {:>12.2?} {:>7.2}x {:>14} {:>10}",
                                name,
                                level.to_string(),
                                n,
                                wall,
                                one_thread
                                    .as_ref()
                                    .map(|(base, _)| base.as_secs_f64() / wall.as_secs_f64())
                                    .unwrap_or(1.0),
                                format!("{:.2?}", Duration::from_nanos(ops.lock_wait_ns())),
                                ops.lock_contended(),
                            );
                            row.set("wall_ms_incremental", wall.as_secs_f64() * 1e3);
                            row.set("ops", ops_to_json(ops));
                            if n == 1 {
                                one_thread = Some((wall, a));
                            }
                        }
                        Err(_) => {
                            println!("{:<12} {:<4} {:>7} err", name, level.to_string(), n);
                            row.set("failed", true);
                        }
                    }
                    rows.push(row);
                }
            }
        }
    }

    let mut root = Json::obj();
    root.set("benchmark", "fixpoint");
    root.set("quick", quick);
    root.set("reps", reps as u64);
    root.set("repeat_warm", repeat as u64);
    root.set(
        "threads_swept",
        threads.iter().map(|n| *n as u64).collect::<Json>(),
    );
    root.set("rows", rows);
    let path = if quick {
        "BENCH_fixpoint_quick.json"
    } else {
        "BENCH_fixpoint.json"
    };
    std::fs::write(path, root.pretty()).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\nwrote {path}");
}
