//! `psa` — command-line driver for the progressive shape analyzer.
//!
//! ```text
//! psa analyze <file.c> [--level L1|L2|L3|auto] [--function NAME]
//!             [--dot DIR] [--stmt-dump] [--parallel-report] [--annotate]
//!             [--json] [--stats]
//!             [--budget-nodes N] [--budget-rsgs N] [--budget-ms N]
//!             [--trace FILE] [--check asserts,memory] [--seeds N]
//! psa ir <file.c> [--function NAME]
//! psa bench-code <matvec|matmat|lu|barnes-hut|treeadd|power|em3d|bisort|tsp|health|perimeter|voronoi> [flags]
//! psa serve
//! ```
//!
//! `--json` prints exactly one JSON document on stdout; the files that
//! `--dot` and `--trace` write are announced on stderr. The text views
//! `--stmt-dump`, `--parallel-report` and `--annotate` cannot be combined
//! with `--json`: the command fails naming the flag. `psa serve` takes
//! no flags: it reads newline-delimited JSON requests on stdin
//! (`psa_core::serve`, DESIGN.md §13).
//!
//! Inputs may define multiple functions: non-recursive calls are inlined
//! automatically, recursive functions are analyzed through per-entry call
//! summaries (DESIGN.md §15). `--stats` reports the summary-cache traffic
//! and `--json` adds a `"calls"` section with one row per call site.
//!
//! Budget flags degrade gracefully: `--budget-nodes` forces coarser
//! summarization instead of failing, while `--budget-rsgs` / `--budget-ms`
//! stop the fixed point early and report the partial result before exiting
//! with a nonzero status.
//!
//! `--trace FILE` records a run-wide event journal (statement transfers,
//! graph kernels, cache traffic, budget events) and writes it as Chrome
//! trace JSON loadable in Perfetto / `chrome://tracing`; the CLI summary
//! then includes a compact text timeline, `--stats` gains the exclusive
//! self-time ledger and latency histograms, and the `--json` report gains
//! a `"trace"` section.
//!
//! `--check asserts` evaluates `// @assert` comments (`shape`, `shared`,
//! `reach`, `alias`, `acyclic`, each optionally negated) both abstractly
//! against the analysis and concretely against `--seeds N` interpreter
//! runs; a concretely refuted assertion exits nonzero, and the `--json`
//! report gains an `"asserts"` section.
//!
//! `--check memory` derives three-valued null-deref / use-after-free /
//! double-free / leak verdicts per statement from the fixed-point RSRSGs
//! and validates every abstract `safe` and `violation` claim against
//! `--seeds N` concrete executions; a `violation` verdict or a refuted
//! claim exits nonzero. The `--json` report always carries the same
//! verdicts in its `"memory"` section. `--check` accepts a comma-separated
//! list (`--check asserts,memory`).

use psa_core::api::{AnalysisOptions, Analyzer};
use psa_core::engine::AnalysisResult;
use psa_core::json::Json;
use psa_core::stats::Budget;
use psa_core::{parallel, queries};
use psa_rsg::dot;
use psa_rsg::Level;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("psa: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// One `--check` kind. Kept as an ordered, deduplicated list on
/// [`Flags`] so `--check memory,memory` (or `--check memory --check
/// memory`) runs each checker once and emits each report section once.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Check {
    Asserts,
    Memory,
}

struct Flags {
    level: Option<Level>,
    progressive: bool,
    function: String,
    dot_dir: Option<String>,
    stmt_dump: bool,
    parallel_report: bool,
    annotate: bool,
    json: bool,
    stats: bool,
    budget: Budget,
    trace: Option<String>,
    checks: Vec<Check>,
    seeds: usize,
}

impl Flags {
    fn check_asserts(&self) -> bool {
        self.checks.contains(&Check::Asserts)
    }

    fn check_memory(&self) -> bool {
        self.checks.contains(&Check::Memory)
    }
}

fn parse_count(args: &[String], i: usize, flag: &str) -> Result<usize, String> {
    let v = args
        .get(i)
        .ok_or_else(|| format!("{flag} needs a number"))?;
    v.parse::<usize>()
        .map_err(|_| format!("{flag}: `{v}` is not a number"))
}

/// Parse a command's flags. `only` names the flags the command takes
/// (`None`: every `analyze` flag); any other flag is an error rather than
/// silently ignored.
fn parse_flags(args: &[String], only: Option<&[&str]>) -> Result<Flags, String> {
    let mut f = Flags {
        level: Some(Level::L1),
        progressive: false,
        function: "main".to_string(),
        dot_dir: None,
        stmt_dump: false,
        parallel_report: false,
        annotate: false,
        json: false,
        stats: false,
        budget: Budget::default(),
        trace: None,
        checks: Vec::new(),
        seeds: 3,
    };
    let mut i = 0;
    while i < args.len() {
        if only.is_some_and(|o| !o.contains(&args[i].as_str())) {
            return Err(format!("unknown flag `{}`", args[i]));
        }
        match args[i].as_str() {
            "--level" => {
                i += 1;
                let v = args.get(i).ok_or("--level needs a value")?;
                f.level = match v.as_str() {
                    "auto" => {
                        f.progressive = true;
                        None
                    }
                    level => Some(level.parse()?),
                };
            }
            "--function" => {
                i += 1;
                f.function = args.get(i).ok_or("--function needs a value")?.clone();
            }
            "--dot" => {
                i += 1;
                f.dot_dir = Some(args.get(i).ok_or("--dot needs a directory")?.clone());
            }
            "--budget-nodes" => {
                i += 1;
                f.budget.max_nodes = Some(parse_count(args, i, "--budget-nodes")?);
            }
            "--budget-rsgs" => {
                i += 1;
                f.budget.max_rsgs = Some(parse_count(args, i, "--budget-rsgs")?);
            }
            "--budget-ms" => {
                i += 1;
                let ms = parse_count(args, i, "--budget-ms")?;
                f.budget.deadline = Some(std::time::Duration::from_millis(ms as u64));
            }
            "--trace" => {
                i += 1;
                f.trace = Some(args.get(i).ok_or("--trace needs an output file")?.clone());
            }
            "--check" => {
                i += 1;
                // Comma-separated list of checks: `--check asserts,memory`.
                let v = args
                    .get(i)
                    .filter(|v| v.split(',').any(|c| !c.trim().is_empty()))
                    .ok_or("--check needs a value (asserts, memory, or a comma-separated list)")?;
                for check in v.split(',').map(str::trim).filter(|c| !c.is_empty()) {
                    let kind = match check {
                        "asserts" => Check::Asserts,
                        "memory" => Check::Memory,
                        other => {
                            return Err(format!("unknown check `{other}` (valid: asserts, memory)"))
                        }
                    };
                    // Dedupe while preserving first-mention order.
                    if !f.checks.contains(&kind) {
                        f.checks.push(kind);
                    }
                }
            }
            "--seeds" => {
                i += 1;
                f.seeds = parse_count(args, i, "--seeds")?.max(1);
            }
            "--stmt-dump" => f.stmt_dump = true,
            "--parallel-report" => f.parallel_report = true,
            "--annotate" => f.annotate = true,
            "--json" => f.json = true,
            "--stats" => f.stats = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    // `--json` owns stdout; these flags print text there.
    if f.json {
        for (set, flag) in [
            (f.annotate, "--annotate"),
            (f.parallel_report, "--parallel-report"),
            (f.stmt_dump, "--stmt-dump"),
        ] {
            if set {
                return Err(format!(
                    "`{flag}` prints text and cannot be combined with `--json`"
                ));
            }
        }
    }
    Ok(f)
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    match cmd.as_str() {
        "analyze" => {
            let file = args.get(1).ok_or("analyze needs a file")?;
            let src = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
            let flags = parse_flags(&args[2..], None)?;
            analyze(&src, file, flags)
        }
        "ir" => {
            let file = args.get(1).ok_or("ir needs a file")?;
            let src = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
            let flags = parse_flags(&args[2..], Some(&["--function"]))?;
            let options = AnalysisOptions {
                function: flags.function.clone(),
                ..Default::default()
            };
            let analyzer = Analyzer::new(&src, options).map_err(|e| e.to_string())?;
            print!("{}", psa_ir::pretty::func(analyzer.ir()));
            Ok(())
        }
        "bench-code" => {
            let which = args.get(1).ok_or("bench-code needs a name")?;
            let sizes = psa_codes::Sizes::default();
            let src = match which.as_str() {
                "matvec" => psa_codes::sparse_matvec(sizes),
                "matmat" => psa_codes::sparse_matmat(sizes),
                "lu" => psa_codes::sparse_lu(sizes),
                "barnes-hut" => psa_codes::barnes_hut(sizes),
                "treeadd" => psa_codes::olden::treeadd(sizes),
                "power" => psa_codes::olden::power(sizes),
                "em3d" => psa_codes::olden::em3d(sizes),
                "bisort" => psa_codes::olden::bisort(sizes),
                "tsp" => psa_codes::olden::tsp(sizes),
                "health" => psa_codes::olden::health(sizes),
                "perimeter" => psa_codes::olden::perimeter(sizes),
                "voronoi" => psa_codes::olden::voronoi(sizes),
                other => return Err(format!("unknown benchmark code `{other}`")),
            };
            let flags = parse_flags(&args[2..], None)?;
            analyze(&src, which, flags)
        }
        "serve" => {
            parse_flags(&args[1..], Some(&[]))?;
            serve()
        }
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn usage() -> String {
    "usage:\n  psa analyze <file.c> [--level L1|L2|L3|auto] [--function NAME] \
     [--dot DIR] [--stmt-dump] [--parallel-report] [--annotate] [--json] [--stats]\n  \
     \x20            [--budget-nodes N] [--budget-rsgs N] [--budget-ms N] [--trace FILE]\n  \
     \x20            [--check asserts,memory] [--seeds N]\n  \
     \x20            (--json prints one JSON document and rejects --stmt-dump,\n  \
     \x20             --parallel-report and --annotate)\n  \
     psa ir <file.c> [--function NAME]\n  \
     psa bench-code <matvec|matmat|lu|barnes-hut|treeadd|power|em3d|bisort|tsp|health|perimeter|voronoi> [flags]\n  \
     psa serve\n  \
     \x20       (newline-delimited JSON requests on stdin; see DESIGN.md \u{00a7}13)"
        .to_string()
}

/// `psa serve`: resident daemon on stdin/stdout until EOF or a `shutdown`
/// request. Its tables start cold and stay warm for the process's life.
fn serve() -> Result<(), String> {
    let server = psa_core::serve::Server::new(psa_core::serve::ServeOptions::default());
    let stdin = std::io::stdin();
    // `Stdout` (not `StdoutLock`) is `Send`, which the per-request handler
    // threads need; the serve loop serializes writes under its own lock.
    server
        .serve(stdin.lock(), std::io::stdout())
        .map_err(|e| format!("serve I/O: {e}"))
}

fn print_op_stats(ops: &psa_core::stats::OpStats) {
    println!("engine op statistics:");
    println!(
        "  inserts: {} calls ({} duplicates, {} subsumed, {} replaced members)",
        ops.insert_calls, ops.insert_dups, ops.insert_subsumed, ops.insert_replaced
    );
    println!(
        "  subsumption: {} queries — {} memo hits, {} pre-filter rejects, {} searches \
         ({:.1}% avoided the search)",
        ops.subsume_queries,
        ops.subsume_cache_hits,
        ops.subsume_prefilter_rejects,
        ops.subsume_searches,
        ops.cache_hit_rate() * 100.0
    );
    println!(
        "  interner: {} distinct forms, {} canonical bytes ({} hits, {} misses); \
         memo table: {} pairs",
        ops.interner_size, ops.interner_bytes, ops.intern_hits, ops.intern_misses, ops.cache_size
    );
    println!(
        "  transfer memo: {} queries — {} hits, {} misses ({:.1}% hit rate); {} entries",
        ops.transfer_queries,
        ops.transfer_memo_hits,
        ops.transfer_memo_misses,
        ops.transfer_memo_hit_rate() * 100.0,
        ops.transfer_cache_size
    );
    println!(
        "  delta worklist: {} stmt replays, {} suffix extends, {} full re-transfers; \
         {} graphs reused, {} transferred",
        ops.delta_stmt_hits,
        ops.delta_stmt_extends,
        ops.delta_stmt_fulls,
        ops.delta_graphs_reused,
        ops.delta_graphs_transferred
    );
    if ops.summary_queries > 0 {
        println!(
            "  summary cache: {} queries — {} finalized hits, {} recursive (in-progress) hits, \
             {} misses ({:.1}% hit rate)",
            ops.summary_queries,
            ops.summary_hits,
            ops.summary_recursive_hits,
            ops.summary_misses,
            ops.summary_hit_rate() * 100.0
        );
    }
    println!(
        "  graph ops: {} joins, {} forced widening joins ({} JOIN-memo hits, {} JOIN-memo \
         entries), {} compress, {} prune, {} divide, {} materialize, {} unions",
        ops.join_calls,
        ops.widen_forced_joins,
        ops.join_memo_hits,
        ops.join_cache_size,
        ops.compress_calls,
        ops.prune_calls,
        ops.divide_calls,
        ops.materialize_calls,
        ops.union_calls
    );
    println!("  peak RSRSG width: {} graphs", ops.peak_set_width);
    println!(
        "  shared-table locks: {} contended acquisitions, {:.2?} total wait \
         (intern {:.2?}, subsume {:.2?}, transfer {:.2?}, join {:.2?})",
        ops.lock_contended(),
        std::time::Duration::from_nanos(ops.lock_wait_ns()),
        std::time::Duration::from_nanos(ops.intern_lock_wait_ns),
        std::time::Duration::from_nanos(ops.subsume_lock_wait_ns),
        std::time::Duration::from_nanos(ops.transfer_lock_wait_ns),
        std::time::Duration::from_nanos(ops.join_lock_wait_ns),
    );
}

fn analyze(src: &str, name: &str, flags: Flags) -> Result<(), String> {
    let options = AnalysisOptions {
        function: flags.function.clone(),
        level: flags.level,
        budget: flags.budget,
        trace: flags.trace.is_some(),
        ..Default::default()
    };
    let analyzer = Analyzer::new(src, options).map_err(|e| e.to_string())?;

    // The progressive driver's verdict is part of the human summary only,
    // so a `--json` stdout stays one document.
    let (result, progressive_line): (AnalysisResult, _) = if flags.progressive {
        let outcome = analyzer.run_progressive(vec![]);
        let line = format!(
            "progressive analysis satisfied at {}",
            outcome
                .satisfied_at
                .map(|l| l.to_string())
                .unwrap_or_else(|| "none (L3 reached)".to_string())
        );
        match outcome.best() {
            Some(best) => (best.clone(), Some(line)),
            None => return Err("no level produced a result".into()),
        }
    } else {
        (analyzer.run().map_err(|e| e.to_string())?, None)
    };

    // Files go out before any report path, each announced on stderr, so
    // `--json` leaves stdout one document.
    if let Some(dir) = &flags.dot_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
        let path = format!("{dir}/exit.dot");
        let dot_text = dot::rsrsg_to_dot(result.exit.graphs(), &analyzer.shape_ctx(), "exit");
        std::fs::write(&path, dot_text).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("psa: wrote {path}");
    }
    // Drain the journal once (after every run, so progressive timelines
    // span all levels).
    let trace_events = match &flags.trace {
        Some(path) => {
            let events = analyzer.trace_events();
            // Streamed, not built as a `Json` tree: big runs journal
            // hundreds of thousands of events.
            let mut doc = String::new();
            psa_core::trace::chrome_trace_write(&events, &mut doc);
            std::fs::write(path, doc).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("psa: wrote trace with {} events to {path}", events.len());
            Some(events)
        }
        None => None,
    };

    // `--check`: `// @assert` comments are evaluated abstractly against the
    // analysis result, memory-safety verdicts are built from the fixed
    // point, and both are checked against one set of seeded interpreter
    // runs. An inconclusive memory report needs no runs of its own.
    let asserts = if flags.check_asserts() {
        Some(psa_ir::asserts_of_source(src, analyzer.ir()).map_err(|e| e.to_string())?)
    } else {
        None
    };
    let memory_abs = flags
        .check_memory()
        .then(|| psa_core::memsafe::memory_report(analyzer.ir(), &result));
    let needs_runs = asserts.is_some()
        || memory_abs
            .as_ref()
            .is_some_and(|abs| abs.inconclusive.is_none());
    let execs = if needs_runs {
        let seeds: Vec<u64> = (1..=flags.seeds as u64).collect();
        psa_concrete::execute(
            analyzer.ir(),
            &psa_concrete::InterpConfig::default(),
            &seeds,
        )
    } else {
        Vec::new()
    };
    let assert_report = asserts
        .map(|asserts| psa_concrete::evaluate_asserts_on(analyzer.ir(), &result, &asserts, &execs));
    let memory_reports = memory_abs.map(|abs| {
        let diff = psa_concrete::validate_memory_on(analyzer.ir(), &abs, &execs);
        (abs, diff)
    });

    // Soft budget caps yield a *partial* result: report everything we have,
    // then exit nonzero (but cleanly — no panic) so scripts notice. A
    // concretely refuted assertion, a memory `violation` verdict or a
    // concretely refuted memory verdict also fails the run.
    let stopped = result.stopped;
    let refuted = assert_report.as_ref().and_then(|r| {
        r.outcomes
            .iter()
            .find(|o| o.verdict == psa_concrete::Verdict::ConcreteViolation)
    });
    let refuted_text = refuted.map(|o| o.assertion.text.clone());
    let memory_failure = memory_reports.as_ref().and_then(|(abs, diff)| {
        if let Some(m) = diff.mismatches.first() {
            Some(format!("memory verdict refuted concretely: {m}"))
        } else if abs.num_violations() > 0 {
            Some(format!(
                "{} memory violation verdict(s) (program faults on every path reaching them)",
                abs.num_violations()
            ))
        } else {
            None
        }
    });
    let finish = move |stopped: Option<psa_core::BudgetKind>| {
        if let Some(text) = &refuted_text {
            return Err(format!("assertion refuted concretely: {text}"));
        }
        if let Some(why) = &memory_failure {
            return Err(why.clone());
        }
        match stopped {
            Some(which) => Err(format!("analysis stopped early: {which}")),
            None => Ok(()),
        }
    };

    if flags.json {
        let mut report = psa_core::report::build_report(analyzer.ir(), &result);
        if let Some(events) = &trace_events {
            report.set_trace(&psa_core::trace::summarize(events, Some(analyzer.ir())));
        }
        if let Some(ar) = &assert_report {
            report.set_asserts(
                ar.outcomes
                    .iter()
                    .map(|o| {
                        let mut row = Json::obj();
                        row.set("text", o.assertion.text.as_str());
                        row.set("line", o.assertion.line);
                        row.set("verdict", o.verdict.to_string());
                        row.set("abstract_verdict", o.abstract_verdict.to_string());
                        row.set("concrete_checked", o.concrete_checked);
                        row.set("concrete_violations", o.concrete_violations);
                        row
                    })
                    .collect(),
            );
        }
        println!("{}", report.to_json_string());
        return finish(stopped);
    }

    if let Some(line) = progressive_line {
        println!("{line}");
    }
    println!(
        "{name}: level {} — {} statements, {} iterations, {:.2?} wall, \
         peak {:.2} MiB, exit RSRSG: {} graphs / {} nodes / {} links{}",
        result.level,
        result.stats.num_stmts,
        result.stats.iterations,
        result.stats.elapsed,
        result.stats.peak_mib(),
        result.exit.len(),
        result.exit.total_nodes(),
        result.exit.total_links(),
        if result.any_degraded() {
            " [degraded]"
        } else {
            ""
        },
    );
    for w in &result.stats.warnings {
        println!("warning: {w}");
    }
    if result.any_degraded() {
        let stmts: Vec<String> = result.degraded_stmts().map(|s| s.to_string()).collect();
        println!(
            "degraded statements ({}): {}",
            stmts.len(),
            stmts.join(", ")
        );
    }
    if let Some(which) = stopped {
        println!("partial result: budget cap hit — {which}");
    }

    if let Some(events) = &trace_events {
        print!("{}", psa_core::trace::render_timeline(events, 64));
    }

    if flags.stats {
        print_op_stats(&result.stats.ops);
        println!(
            "  budget: degraded {} statements, stopped: {}",
            result.degraded_stmts().count(),
            stopped
                .map(|k| k.to_string())
                .unwrap_or_else(|| "no".to_string())
        );
        if let Some(events) = &trace_events {
            print!(
                "{}",
                psa_core::trace::summarize(events, Some(analyzer.ir())).render()
            );
        }
        if let Some((abs, _)) = &memory_reports {
            let c = abs.counts();
            println!("  memory verdicts:");
            for (i, check) in psa_core::memsafe::MemCheck::ALL.iter().enumerate() {
                println!(
                    "    {}: {} safe, {} may-fail, {} violation",
                    check.name(),
                    c[i][0],
                    c[i][1],
                    c[i][2]
                );
            }
        }
    }

    // Per-pvar structure reports (program pvars only).
    let ir = analyzer.ir();
    for (i, pv) in ir.pvars.iter().enumerate() {
        if pv.is_temp {
            continue;
        }
        let p = psa_ir::PvarId(i as u32);
        let rep = queries::structure_report(&result.exit, p);
        if !rep.always_null {
            println!("  {}: {}", pv.name, rep);
        }
    }

    if let Some(ar) = &assert_report {
        println!(
            "assertion verdicts ({} assertions, {} concrete runs):",
            ar.outcomes.len(),
            ar.runs
        );
        if let Some(reason) = &ar.inconclusive {
            println!("  note: {reason} — abstract verdicts downgraded to may-fail");
        }
        for o in &ar.outcomes {
            println!(
                "  line {}: {} — {} (abstract {}; {} concrete states, {} violations)",
                o.assertion.line,
                o.assertion.text,
                o.verdict,
                o.abstract_verdict,
                o.concrete_checked,
                o.concrete_violations
            );
        }
        for o in ar.soundness_mismatches() {
            println!(
                "  SOUNDNESS MISMATCH: `{}` certified abstractly but refuted concretely",
                o.assertion.text
            );
        }
    }

    if let Some((abs, diff)) = &memory_reports {
        println!("memory-safety report ({} concrete runs):", diff.runs);
        print!("{abs}");
        println!(
            "  differential: {} fault(s), {} leak event(s) observed concretely, {} mismatch(es)",
            diff.concrete_faults,
            diff.concrete_leaks,
            diff.mismatches.len()
        );
        for m in &diff.mismatches {
            println!("  SOUNDNESS MISMATCH: {m}");
        }
    }

    if flags.parallel_report {
        println!("loop parallelism report:");
        for rep in parallel::loop_reports(ir, &result) {
            print!("  {rep}");
        }
    }

    if flags.annotate {
        let anns = psa_core::annotate::loop_annotations(ir, &result);
        print!("{}", psa_core::annotate::annotate_source(src, &anns));
    }

    if flags.stmt_dump {
        for (i, rsrsg) in result.after_stmt.iter().enumerate() {
            let sid = psa_ir::StmtId(i as u32);
            println!(
                "  {}: {} — {} graphs, {} nodes",
                sid,
                psa_ir::pretty::stmt(ir, &ir.stmt(sid).stmt),
                rsrsg.len(),
                rsrsg.total_nodes()
            );
        }
    }
    finish(stopped)
}
