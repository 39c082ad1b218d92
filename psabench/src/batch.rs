//! Batch workloads: every job runs the analyzer's public chain
//! `parse_and_type` → `lower_program` → `Engine::run` (fresh tables per
//! job, like the CLI) → [`memory_report`] → [`validate_memory_report`]
//! (memory-checked jobs only) → `build_report(..).to_json_string()`, with
//! each call timed from outside.

use crate::calibrate::Calibration;
use crate::machine::peak_rss_mib;
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::selftime::{self_times, SelfTimes};
use crate::stats::{geomean, median, percentile};
use crate::workload::{validator_seeds, Job, RunConfig};
use crate::{report_digest, Failures, OpRecord, Outcome};
use psa_concrete::cover::any_covers;
use psa_concrete::{validate_memory_report, InterpConfig, Interpreter};
use psa_core::engine::{AnalysisResult, Engine, EngineConfig};
use psa_core::memsafe::memory_report;
use psa_core::report::build_report;
use psa_core::stats::OpStats;
use psa_ir::{FuncIr, Stmt};
use psa_rsg::trace::TraceKind;
use psa_rsg::ShapeCtx;
use std::time::Instant;

/// Step cap for the coverage replay. Every recorded step snapshots the
/// whole heap, so a full 20k-step run of a Table 1 code would cost more
/// memory than the analysis; a prefix of an execution is still a set of
/// concrete states its RSRSGs must cover.
const COVER_STEPS: usize = 2_000;

/// Milliseconds spent in each layer of one job's chain.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerMs {
    /// `psa_cfront::parse_and_type`.
    pub parse: f64,
    /// `psa_ir::lower_program`.
    pub lower: f64,
    /// Fresh `ShapeCtx` plus `Engine::run`.
    pub engine: f64,
    /// Dropping the engine with its per-job tables.
    pub teardown: f64,
    /// `psa_core::memsafe::memory_report`.
    pub memsafe: f64,
    /// `psa_concrete::validate_memory_report`.
    pub validate: f64,
    /// `build_report(..).to_json_string()`.
    pub report: f64,
    /// Source text to report text.
    pub total: f64,
}

impl LayerMs {
    /// Every time multiplied by `f` (a calibration factor).
    pub fn scaled(&self, f: f64) -> LayerMs {
        LayerMs {
            parse: self.parse * f,
            lower: self.lower * f,
            engine: self.engine * f,
            teardown: self.teardown * f,
            memsafe: self.memsafe * f,
            validate: self.validate * f,
            report: self.report * f,
            total: self.total * f,
        }
    }

    /// The part of `total` outside every timed layer call.
    pub fn unattributed(&self) -> f64 {
        self.total
            - (self.parse
                + self.lower
                + self.engine
                + self.teardown
                + self.memsafe
                + self.validate
                + self.report)
    }
}

/// Sizes and counters of one job's chain (deterministic per job).
#[derive(Debug, Clone, Copy, Default)]
pub struct JobCounts {
    /// Source bytes.
    pub src_bytes: usize,
    /// Lowered statements, callee bodies included.
    pub stmts: usize,
    /// `Call` statements left after inlining (the recursive ones).
    pub call_sites: usize,
    /// Worklist iterations.
    pub iterations: usize,
    /// Peak structural bytes of the RSRSGs.
    pub peak_bytes: usize,
    /// Memory-checker sites.
    pub memsafe_sites: usize,
    /// Memory-checker `violation` verdicts.
    pub memsafe_violations: usize,
    /// Concrete validator executions.
    pub validate_runs: usize,
    /// Report JSON bytes.
    pub report_bytes: usize,
    /// Engine op counters.
    pub ops: OpStats,
}

/// What one execution of a job's chain produced.
#[derive(Debug, Default)]
pub struct JobRun {
    /// Layer times.
    pub ms: LayerMs,
    /// Why the job failed, if it did.
    pub failure: Option<String>,
    /// Digest of the report without its `stats`.
    pub digest: u64,
    /// Sizes and counters.
    pub counts: JobCounts,
    /// Exclusive span times of the engine run (traced runs only).
    pub self_times: Option<SelfTimes>,
    /// The lowered program and its analysis, when asked to keep them.
    pub analysis: Option<(FuncIr, AnalysisResult)>,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Run one job's chain once. `traced` enables the engine's trace journal
/// and derives self-times from it; `keep` returns the analysis for the
/// coverage check. Output checks other than coverage run after the timed
/// chain and land in [`JobRun::failure`].
pub fn run_job(job: &Job, seeds: &[u64], traced: bool, keep: bool) -> JobRun {
    let mut run = JobRun::default();
    let t0 = Instant::now();
    let chained = chain(job, seeds, traced, &mut run);
    run.ms.total = ms_since(t0);
    match chained {
        Err(e) => run.failure = Some(e),
        Ok((ir, result, report)) => {
            run.failure = if let Some(which) = result.stopped {
                Some(format!("analysis stopped: {which}"))
            } else if result.any_degraded() {
                Some("analysis degraded statements".into())
            } else if run.counts.memsafe_violations > 0 {
                Some(format!(
                    "{} memory violation verdict(s)",
                    run.counts.memsafe_violations
                ))
            } else {
                run.failure.take()
            };
            run.digest = report_digest(report.to_json());
            if keep {
                run.analysis = Some((ir, result));
            }
        }
    }
    run
}

fn chain(
    job: &Job,
    seeds: &[u64],
    traced: bool,
    run: &mut JobRun,
) -> Result<(FuncIr, AnalysisResult, psa_core::report::AnalysisReport), String> {
    run.counts.src_bytes = job.source.len();
    let t = Instant::now();
    let (program, types) =
        psa_cfront::parse_and_type(&job.source).map_err(|e| format!("parse: {e}"))?;
    run.ms.parse = ms_since(t);

    let t = Instant::now();
    let ir = psa_ir::lower_program(&program, &types, "main").map_err(|e| format!("lower: {e}"))?;
    run.ms.lower = ms_since(t);

    let config = EngineConfig {
        level: job.level,
        budget: job.budget,
        ..EngineConfig::default()
    };
    let t = Instant::now();
    let ctx = ShapeCtx::from_ir(&ir);
    if traced {
        ctx.tables.tracer.enable();
    }
    let engine = Engine::with_shape_ctx(&ir, config, ctx);
    let result = engine.run();
    run.ms.engine = ms_since(t);
    if traced {
        let tracer = &engine.ctx().tables.tracer;
        tracer.disable();
        run.self_times = Some(self_times(&tracer.drain()));
    }
    let t = Instant::now();
    drop(engine);
    run.ms.teardown = ms_since(t);
    let result = result.map_err(|e| format!("engine: {e}"))?;

    if job.check_memory {
        let t = Instant::now();
        let abs = memory_report(&ir, &result);
        run.ms.memsafe = ms_since(t);
        let t = Instant::now();
        let diff = validate_memory_report(&ir, &abs, InterpConfig::default(), seeds);
        run.ms.validate = ms_since(t);
        run.counts.memsafe_sites = abs.sites.len();
        run.counts.memsafe_violations = abs.num_violations();
        run.counts.validate_runs = diff.runs;
        if let Some(m) = diff.mismatches.first() {
            run.failure = Some(format!("memory `safe` claim refuted concretely: {m}"));
        }
    }

    let t = Instant::now();
    let report = build_report(&ir, &result);
    let text = report.to_json_string();
    run.ms.report = ms_since(t);

    (run.counts.stmts, run.counts.call_sites) = stmt_counts(&ir);
    run.counts.iterations = result.stats.iterations;
    run.counts.peak_bytes = result.stats.peak_bytes;
    run.counts.report_bytes = text.len();
    run.counts.ops = result.stats.ops;
    Ok((ir, result, report))
}

/// Statements and `Call` statements of a lowered program, callee bodies
/// included.
pub fn stmt_counts(ir: &FuncIr) -> (usize, usize) {
    std::iter::once(ir)
        .chain(ir.callees.iter().map(|c| &c.ir))
        .fold((0, 0), |(stmts, calls), body| {
            let c = body
                .stmts
                .iter()
                .filter(|s| matches!(s.stmt, Stmt::Call(_)))
                .count();
            (stmts + body.stmts.len(), calls + c)
        })
}

/// Replay seeded concrete executions and check that the RSRSG after every
/// executed statement covers the concrete state there.
pub fn coverage_failure(ir: &FuncIr, result: &AnalysisResult, seeds: &[u64]) -> Option<String> {
    for &seed in seeds {
        let exec = Interpreter::new(
            ir,
            InterpConfig {
                seed,
                max_steps: COVER_STEPS,
                ..InterpConfig::default()
            },
        )
        .run();
        for point in &exec.trace {
            if !any_covers(result.at(point.stmt).iter(), &point.state, result.level) {
                return Some(format!(
                    "concrete state after {} (seed {seed}) not covered by its RSRSG",
                    point.stmt
                ));
            }
        }
    }
    None
}

/// Run a batch workload: timed passes over `jobs` until `cfg.seconds` is
/// spent, then one untimed checking pass. In a traced run untraced and
/// traced passes alternate. Times are calibrated with brackets taken on
/// `cal`.
pub fn run(cfg: &RunConfig, jobs: &[Job], cal: &mut Calibration) -> Outcome {
    let seeds = validator_seeds(cfg.seed);
    let n = jobs.len();
    // Raw samples per job with the interval each was taken in.
    let mut plain: Vec<Vec<(LayerMs, Instant, Instant)>> = vec![Vec::new(); n];
    let mut traced: Vec<Vec<(f64, SelfTimes, Instant, Instant)>> = vec![Vec::new(); n];
    let mut digests: Vec<Vec<u64>> = vec![Vec::new(); n];
    let mut counts = vec![JobCounts::default(); n];
    let mut failures = Failures::default();

    let start = Instant::now();
    // Peak RSS after the first pass: later passes repeat its work.
    let mut peak_rss = 0.0;
    for round in 0.. {
        let tracing = cfg.trace && round % 2 == 1;
        let t = Instant::now();
        for (j, job) in jobs.iter().enumerate() {
            cal.bracket_if_due();
            let t0 = Instant::now();
            let r = run_job(job, &seeds, tracing, false);
            let t1 = Instant::now();
            failures.attempt(&job.name, r.failure);
            digests[j].push(r.digest);
            if tracing {
                let st = r.self_times.unwrap_or_default();
                traced[j].push((r.ms.engine, st, t0, t1));
            } else {
                plain[j].push((r.ms, t0, t1));
                counts[j] = r.counts;
            }
        }
        if round == 0 {
            peak_rss = peak_rss_mib();
        }
        let min_rounds = if cfg.trace { 2 } else { 1 };
        let elapsed = start.elapsed().as_secs_f64();
        let next_fits = elapsed + t.elapsed().as_secs_f64() <= cfg.seconds;
        if round + 1 >= min_rounds && (cfg.smoke || !next_fits) {
            break;
        }
    }
    cal.bracket();

    let factors: Vec<Vec<f64>> = plain
        .iter()
        .map(|p| p.iter().map(|&(_, s, e)| cal.factor(s, e)).collect())
        .collect();
    let plain: Vec<Vec<LayerMs>> = plain
        .iter()
        .zip(&factors)
        .map(|(p, f)| p.iter().zip(f).map(|((m, _, _), &f)| m.scaled(f)).collect())
        .collect();
    let traced: Vec<Vec<(f64, SelfTimes, f64)>> = traced
        .iter()
        .map(|t| {
            t.iter()
                .map(|&(ms, st, s, e)| (ms, st, cal.factor(s, e)))
                .collect()
        })
        .collect();

    // Checking pass: coverage against concrete replays, and report
    // digests that must not change from pass to pass.
    for (j, job) in jobs.iter().enumerate() {
        let r = run_job(job, &seeds, false, true);
        digests[j].push(r.digest);
        let why = r.failure.or_else(|| {
            let (ir, result) = r.analysis.as_ref()?;
            coverage_failure(ir, result, &seeds)
        });
        let why = why.or_else(|| {
            digests[j]
                .windows(2)
                .any(|w| w[0] != w[1])
                .then(|| "report differs across passes".to_string())
        });
        failures.attempt(&job.name, why);
    }

    let job_ms: Vec<f64> = plain
        .iter()
        .map(|p| median(&p.iter().map(|m| m.total).collect::<Vec<_>>()))
        .collect();
    let mut metrics = Metrics::default();
    if cfg.trace {
        layer_metrics(&mut metrics, &plain, &traced, &counts);
    } else {
        let e = END_TO_END;
        metrics.set(e, "wall_s", job_ms.iter().sum::<f64>() / 1e3);
        metrics.set(e, "geomean_op_ms", geomean(&job_ms));
        metrics.set(e, "op_p50_ms", percentile(&job_ms, 0.5));
        metrics.set(e, "op_p95_ms", percentile(&job_ms, 0.95));
        metrics.set(e, "peak_rss_mib", peak_rss);
        let peak = counts.iter().map(|c| c.peak_bytes).max().unwrap_or(0);
        metrics.set(e, "peak_rsrsg_mib", peak as f64 / (1024.0 * 1024.0));
    }
    Outcome {
        metrics,
        failures,
        ops: (0..n)
            .map(|j| OpRecord {
                name: jobs[j].name.clone(),
                median_ms: job_ms[j],
                samples_ms: plain[j].iter().map(|m| m.total).collect(),
                factors: factors[j].clone(),
                digest: digests[j][0],
            })
            .collect(),
        passes: plain[0].len(),
        traced_passes: traced[0].len(),
    }
}

/// Per-layer metrics: layer times are sums over jobs of per-job medians
/// (calibrated milliseconds per pass), counters are per-pass sums.
fn layer_metrics(
    m: &mut Metrics,
    plain: &[Vec<LayerMs>],
    traced: &[Vec<(f64, SelfTimes, f64)>],
    counts: &[JobCounts],
) {
    let l = PER_LAYER;
    let per_pass = |f: &dyn Fn(&LayerMs) -> f64| -> f64 {
        plain
            .iter()
            .map(|p| median(&p.iter().map(f).collect::<Vec<_>>()))
            .sum()
    };
    // Traced samples carry their raw engine time and self-times, scaled
    // here by their pass's calibration factor.
    let traced_sum = |g: &dyn Fn(f64, &SelfTimes) -> f64| -> f64 {
        traced
            .iter()
            .map(|t| {
                let xs: Vec<f64> = t.iter().map(|(ms, st, f)| g(*ms, st) * f).collect();
                median(&xs)
            })
            .sum()
    };
    let sum = |f: &dyn Fn(&JobCounts) -> f64| -> f64 { counts.iter().map(f).sum() };
    // Gauges (table sizes, peak width) accumulate as maxima.
    let ops = counts
        .iter()
        .fold(OpStats::default(), |acc, c| acc.accumulate(&c.ops));

    m.set(l, "cfront.parse_ms", per_pass(&|x| x.parse));
    m.set(l, "cfront.src_kib", sum(&|c| c.src_bytes as f64) / 1024.0);
    m.set(l, "ir.lower_ms", per_pass(&|x| x.lower));
    m.set(l, "ir.stmts", sum(&|c| c.stmts as f64));
    m.set(l, "ir.call_sites", sum(&|c| c.call_sites as f64));

    let engine_ms = per_pass(&|x| x.engine);
    m.set(l, "engine.run_ms", engine_ms);
    m.set(l, "engine.teardown_ms", per_pass(&|x| x.teardown));
    m.set(l, "op.unattributed_ms", per_pass(&LayerMs::unattributed));
    m.set(l, "engine.iterations", sum(&|c| c.iterations as f64));
    let kinds = [
        ("engine.run_self_ms", TraceKind::Run),
        ("engine.transfer_self_ms", TraceKind::StmtTransfer),
        ("rsg.join_self_ms", TraceKind::Join),
        ("rsg.compress_self_ms", TraceKind::Compress),
        ("rsg.divide_self_ms", TraceKind::Divide),
        ("rsg.prune_self_ms", TraceKind::Prune),
        ("rsg.canon_self_ms", TraceKind::Canon),
        ("rsg.subsume_self_ms", TraceKind::Subsume),
    ];
    for (name, kind) in kinds {
        m.set(l, name, traced_sum(&|_, st| st.ms(kind)));
    }
    m.set(
        l,
        "engine.unattributed_ms",
        traced_sum(&|ms, st| ms - st.total_ms()),
    );
    let traced_engine_ms = traced_sum(&|ms, _| ms);
    m.set(
        l,
        "trace.overhead_pct",
        (traced_engine_ms / engine_ms - 1.0) * 100.0,
    );
    op_metrics(m, &ops);
    // Every job has tables of its own: a pass holds their sum.
    m.set(
        l,
        "tables.interner_forms",
        sum(&|c| c.ops.interner_size as f64),
    );
    m.set(
        l,
        "tables.transfer_entries",
        sum(&|c| c.ops.transfer_cache_size as f64),
    );

    m.set(l, "memsafe.report_ms", per_pass(&|x| x.memsafe));
    m.set(l, "memsafe.sites", sum(&|c| c.memsafe_sites as f64));
    m.set(l, "concrete.validate_ms", per_pass(&|x| x.validate));
    m.set(l, "concrete.runs", sum(&|c| c.validate_runs as f64));
    m.set(l, "report.build_ms", per_pass(&|x| x.report));
    m.set(l, "report.kib", sum(&|c| c.report_bytes as f64) / 1024.0);
}

/// Layer metrics read off summed engine op counters; shared with
/// `serve_edit`, which sees the same counters in its responses.
pub fn op_metrics(m: &mut Metrics, ops: &OpStats) {
    let l = PER_LAYER;
    let ratio = |num: u64, den: u64| {
        if den > 0 {
            num as f64 / den as f64
        } else {
            0.0
        }
    };
    let visits = ops.delta_stmt_hits + ops.delta_stmt_extends + ops.delta_stmt_fulls;
    m.set(
        l,
        "engine.transfer_hit_rate",
        ratio(ops.transfer_memo_hits, ops.transfer_queries),
    );
    m.set(
        l,
        "engine.delta_full_share",
        ratio(ops.delta_stmt_fulls, visits),
    );
    m.set(l, "engine.delta_visits", visits as f64);
    m.set(l, "rsg.join_calls", ops.join_calls as f64);
    m.set(l, "rsg.compress_calls", ops.compress_calls as f64);
    m.set(l, "rsg.subsume_queries", ops.subsume_queries as f64);
    m.set(
        l,
        "rsg.subsume_search_share",
        ratio(ops.subsume_searches, ops.subsume_queries),
    );
    m.set(
        l,
        "rsg.intern_hit_rate",
        ratio(ops.intern_hits, ops.intern_hits + ops.intern_misses),
    );
    m.set(l, "rsg.peak_width", ops.peak_set_width as f64);
    m.set(l, "tables.lock_wait_ms", ops.lock_wait_ns() as f64 / 1e6);
    m.set(l, "tables.lock_contended", ops.lock_contended() as f64);
    m.set(l, "interproc.summary_queries", ops.summary_queries as f64);
    m.set(
        l,
        "interproc.summary_hit_rate",
        ratio(ops.summary_hits, ops.summary_queries),
    );
}
