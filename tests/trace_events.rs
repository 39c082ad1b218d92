//! Integration tests for the run-wide tracing subsystem: Chrome-trace
//! schema on the Fig. 1 doubly-linked list program, disabled-trace
//! bit-identity, the self-time ledger and its event-count invariants, and
//! cancel-cause attribution.

use psa::core::trace::{chrome_trace_write, summarize};
use psa::core::{AnalysisOptions, Analyzer, BudgetKind};
use psa::rsg::{Level, TraceKind};

fn dll_source() -> String {
    psa::codes::generators::dll_program(6)
}

fn options(trace: bool) -> AnalysisOptions {
    AnalysisOptions {
        trace,
        ..AnalysisOptions::at_level(Level::L2)
    }
}

#[test]
fn chrome_trace_schema_on_fig1_dll() {
    let src = dll_source();
    let analyzer = Analyzer::new(&src, options(true)).unwrap();
    let res = analyzer.run().unwrap();
    let events = analyzer.trace_events();
    assert!(!events.is_empty(), "traced run must record events");

    // Every executed statement transfer has exactly one span.
    let stmt_spans = events
        .iter()
        .filter(|e| e.kind == TraceKind::StmtTransfer && e.dur_ns > 0)
        .count();
    assert_eq!(
        stmt_spans, res.stats.stmt_transfers,
        "one StmtTransfer span per executed transfer"
    );
    // One Run span per engine run, carrying the level ordinal.
    let runs: Vec<_> = events.iter().filter(|e| e.kind == TraceKind::Run).collect();
    assert_eq!(runs.len(), 1);
    assert_eq!(runs[0].arg, 2, "L2 run ordinal");
    // Worklist instants match the iteration counter.
    assert_eq!(
        events
            .iter()
            .filter(|e| e.kind == TraceKind::WorklistIter)
            .count(),
        res.stats.iterations
    );

    // The export is well-formed Chrome trace JSON: a traceEvents array
    // whose complete events carry name/cat/ts/dur and whose instants
    // carry a scope, all round-trippable through the in-tree parser.
    let mut text = String::new();
    chrome_trace_write(&events, &mut text);
    let parsed = psa::core::json::Json::parse(&text).unwrap();
    let te = parsed.get("traceEvents").unwrap().as_array().unwrap();
    assert!(te.len() >= events.len());
    for e in te {
        let ph = e.get("ph").unwrap().as_str().unwrap();
        assert!(matches!(ph, "X" | "i" | "M"), "unexpected phase {ph}");
        assert!(e.get("name").unwrap().as_str().is_some());
        assert!(e.get("pid").is_some());
        assert!(e.get("tid").is_some());
        match ph {
            "X" => {
                assert!(e.get("ts").unwrap().as_f64().is_some());
                assert!(e.get("dur").unwrap().as_f64().unwrap() > 0.0);
            }
            "i" => {
                assert!(e.get("ts").unwrap().as_f64().is_some());
                assert_eq!(e.get("s").unwrap().as_str(), Some("t"));
            }
            _ => {}
        }
    }
}

/// Each kernel call is one span that ends before the next call of its kind
/// starts on that track.
#[test]
fn kernel_spans_of_one_kind_never_overlap_on_a_track() {
    let src = dll_source();
    let analyzer = Analyzer::new(&src, options(true)).unwrap();
    analyzer.run().unwrap();
    let events = analyzer.trace_events();
    for kind in [
        TraceKind::Join,
        TraceKind::Compress,
        TraceKind::Divide,
        TraceKind::Prune,
        TraceKind::Canon,
        TraceKind::Subsume,
    ] {
        let mut spans: Vec<_> = events
            .iter()
            .filter(|e| e.kind == kind && e.dur_ns > 0)
            .collect();
        assert!(!spans.is_empty(), "no {kind:?} spans");
        spans.sort_by_key(|e| (e.tid, e.ts_ns));
        for w in spans.windows(2) {
            assert!(
                w[0].tid != w[1].tid || w[0].ts_ns + w[0].dur_ns <= w[1].ts_ns,
                "{kind:?} spans overlap: {:?} and {:?}",
                w[0],
                w[1]
            );
        }
    }
}

/// The ledger adds up: on one track the kinds' self-times partition the
/// outermost spans exactly, and the unattributed residual closes the gap
/// to the journal's wall extent.
#[test]
fn sequential_self_times_add_up_to_the_wall() {
    let src = dll_source();
    let analyzer = Analyzer::new(&src, options(true)).unwrap();
    let res = analyzer.run().unwrap();
    let events = analyzer.trace_events();
    // The drained journal is time-sorted and the summary counts all of it.
    assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    let s = summarize(&events, Some(analyzer.ir()));
    assert_eq!(s.events, events.len());
    assert_eq!(s.threads, 1);
    // Per-statement latency covers every traced statement.
    let spanned: usize = s.per_stmt.values().map(|st| st.count as usize).sum();
    assert_eq!(spanned, res.stats.stmt_transfers);
    assert!(s.root_ns > 0);
    assert_eq!(s.spans.iter().map(|l| l.self_ns).sum::<u64>(), s.root_ns);
    assert_eq!(s.root_ns + s.unattributed_ns, s.wall_ns);
    let run = events.iter().find(|e| e.kind == TraceKind::Run).unwrap();
    assert!(
        s.root_ns >= run.dur_ns,
        "the engine run is an outermost span"
    );
    // The ledger is sorted by self-time.
    assert!(s.spans.windows(2).all(|w| w[0].self_ns >= w[1].self_ns));
}

#[test]
fn disabled_trace_changes_nothing() {
    let src = dll_source();
    let traced = Analyzer::new(&src, options(true)).unwrap();
    let plain = Analyzer::new(&src, options(false)).unwrap();
    let rt = traced.run().unwrap();
    let rp = plain.run().unwrap();

    // No journal without the option; a journal with it.
    assert!(plain.trace_events().is_empty());
    assert!(!traced.trace_events().is_empty());

    // Tracing must not perturb the analysis: identical exit sets,
    // identical per-statement sets, identical op counters.
    assert!(rt.exit.same_as(&rp.exit));
    for (a, b) in rt.after_stmt.iter().zip(&rp.after_stmt) {
        assert!(a.same_as(b));
    }
    assert_eq!(rt.stats.stmt_transfers, rp.stats.stmt_transfers);
    assert_eq!(rt.stats.iterations, rp.stats.iterations);
    assert_eq!(rt.stats.ops.join_calls, rp.stats.ops.join_calls);
    assert_eq!(rt.stats.ops.compress_calls, rp.stats.ops.compress_calls);
    assert_eq!(rt.stats.ops.intern_misses, rp.stats.ops.intern_misses);

    // The untraced report has no "trace" key at all (bit-identity with
    // pre-tracing output); the traced one gains it only when the caller
    // attaches a summary.
    let rep = psa::core::report::build_report(plain.ir(), &rp);
    let json = rep.to_json_string();
    assert!(!json.contains("\"trace\""));
    let mut rep_t = psa::core::report::build_report(traced.ir(), &rt);
    rep_t.set_trace(&summarize(&traced.trace_events(), Some(traced.ir())));
    assert!(rep_t.to_json_string().contains("\"trace\""));
}

#[test]
fn progressive_trace_spans_all_levels() {
    let src = dll_source();
    let analyzer = Analyzer::new(
        &src,
        AnalysisOptions {
            trace: true,
            ..AnalysisOptions::progressive()
        },
    )
    .unwrap();
    let outcome = analyzer.run_progressive(vec![]);
    assert!(outcome.best().is_some());
    let events = analyzer.trace_events();
    let level_marks: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == TraceKind::LevelStart)
        .map(|e| e.arg)
        .collect();
    // No goals: L1 suffices, so exactly one level marker with ordinal 1,
    // and the run span agrees.
    assert_eq!(level_marks, vec![1]);
    let runs: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == TraceKind::Run)
        .map(|e| e.arg)
        .collect();
    assert_eq!(runs, vec![1]);
}

#[test]
fn cancelled_run_records_the_cause() {
    let src = dll_source();
    let analyzer = Analyzer::new(
        &src,
        AnalysisOptions {
            trace: true,
            budget: psa::core::Budget {
                max_rsgs: Some(1),
                ..psa::core::Budget::default()
            },
            ..AnalysisOptions::at_level(Level::L1)
        },
    )
    .unwrap();
    let res = analyzer.run().unwrap();
    assert!(matches!(res.stopped, Some(BudgetKind::Rsgs { .. })));
    let events = analyzer.trace_events();
    let cancels: Vec<_> = events
        .iter()
        .filter(|e| e.kind == TraceKind::Cancel)
        .collect();
    assert_eq!(cancels.len(), 1, "exactly one stop is journaled");
    assert_eq!(Some(cancels[0].arg), res.stopped.unwrap().stop_code());
}

/// Every COMPRESS kernel run is traced: a `compress` span, or the `join`
/// span that wraps the COMPRESS after a JOIN. The recursive codes reach
/// `Rsrsg::insert`'s COMPRESS through the call glue, so they check it.
#[test]
fn every_compress_run_is_one_span() {
    use psa::codes::{olden, Sizes};
    for (code, src) in [
        ("treeadd", olden::treeadd(Sizes::default())),
        ("bisort", olden::bisort(Sizes::default())),
    ] {
        let analyzer = Analyzer::new(&src, options(true)).unwrap();
        let res = analyzer.run().unwrap();
        let spans = analyzer
            .trace_events()
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::Compress | TraceKind::Join))
            .count() as u64;
        assert_eq!(spans, res.stats.ops.compress_calls, "{code}");
    }
}
