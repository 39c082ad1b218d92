//! Resident analysis daemon: many requests, one warm set of shared tables.
//!
//! `psa serve` reads newline-delimited JSON requests from stdin and writes
//! one compact JSON response line per request to stdout (in completion
//! order — responses carry the request's `id`, and concurrent requests may
//! complete out of submission order). All requests share one
//! [`SharedTables`]: the interner, subsumption memo and transfer memo stay
//! hot across requests, so a request that resubmits — or edits — a
//! previously analyzed program replays memoized transfers instead of
//! recomputing them. Per-request observers (metrics, trace journal) are
//! isolated through [`SharedTables::session`], so per-request reports never
//! accumulate another request's counters; a budget stop is a value its own
//! engine run returns, so one request's budget cannot stop another.
//!
//! # Protocol
//!
//! Requests: `{"id": <any>, "method": "<name>", "params": {...}}`.
//!
//! | method       | params                                            |
//! |--------------|---------------------------------------------------|
//! | `analyze`    | `source` (required), `function`, `level` (`"L1"`/`"L2"`/`"L3"`), `key`, `budget_ms`, `budget_nodes`, `budget_rsgs`, `trace` |
//! | `reanalyze`  | like `analyze`; diffs against the last program submitted under the same `key` |
//! | `stats`      | — (cumulative `server` section only)              |
//! | `shutdown`   | — (acknowledges, then exits the loop)             |
//!
//! Responses: `{"id": ..., "result": {...}}` on success, else
//! `{"id": ..., "error": {"kind": ..., "message": ...}}`. Analysis
//! results carry the full JSON report (identical to the CLI's `--json`
//! document) plus the `server` section with process-lifetime totals.
//!
//! # Incremental re-analysis
//!
//! `reanalyze` lowers the resubmitted source and diffs it statement-by-
//! statement against the cached signature of the previous version under
//! the same `key`. When the analysis universe (pvars/selectors/structs,
//! [`psa_rsg::ShapeCtx::universe_key`]) and the block structure are
//! unchanged, the run is *incremental*: the transfer memo is keyed by
//! statement content ([`SharedTables::stmt_slot_for`]), so every
//! unchanged statement replays its memoized transfers and only the edited
//! statements' transfers are recomputed. A structural change (different
//! universe or control flow) falls back to a full analysis — a different
//! memo epoch, nothing replayed unsoundly.

use crate::api::{AnalysisOptions, Analyzer, Error};
use crate::json::Json;
use crate::report::{build_report, ops_to_json};
use crate::stats::{Budget, OpStats};
use psa_rsg::{Level, SharedTables};
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Server-lifetime options. There are none: every knob (level, budget,
/// trace) arrives in each request's params. The type is kept so that
/// [`Server::new`] keeps its signature for existing callers (the psa-bench
/// harness among them).
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {}

/// Signature of the last program analyzed under a `key`, for `reanalyze`
/// diffing. Statement signatures use the same content rendering as the
/// engine's memo slots, so "unchanged here" and "memo hit there" agree.
struct CachedProgram {
    universe: u64,
    block_sig: String,
    stmt_sigs: Vec<String>,
}

struct ServerTotals {
    requests: u64,
    ops: OpStats,
}

/// The resident analysis service. [`Server::serve`] runs the read loop;
/// [`Server::handle`] processes one already-parsed request (the unit tests
/// and the in-process session tests drive it directly). The server owns its
/// shared tables for its whole life; each request analyzes on a session of
/// them.
pub struct Server {
    tables: SharedTables,
    programs: Mutex<HashMap<String, CachedProgram>>,
    totals: Mutex<ServerTotals>,
}

impl Server {
    /// A server over fresh (cold) tables.
    pub fn new(_options: ServeOptions) -> Server {
        Server {
            tables: SharedTables::new(),
            programs: Mutex::new(HashMap::new()),
            totals: Mutex::new(ServerTotals {
                requests: 0,
                ops: OpStats::default(),
            }),
        }
    }

    /// Run the newline-delimited request loop until EOF or `shutdown`.
    /// Requests are handled on their own threads, so long analyses don't
    /// block short ones behind them; each response is written as one line
    /// under a shared writer lock.
    pub fn serve<R: BufRead, W: Write + Send>(&self, reader: R, writer: W) -> std::io::Result<()> {
        let writer = Mutex::new(writer);
        let mut io_err: Option<std::io::Error> = None;
        std::thread::scope(|scope| {
            for line in reader.lines() {
                let line = match line {
                    Ok(l) => l,
                    Err(e) => {
                        io_err = Some(e);
                        break;
                    }
                };
                if line.trim().is_empty() {
                    continue;
                }
                let req = match Json::parse(&line) {
                    Ok(j) => j,
                    Err(e) => {
                        let resp =
                            error_response(Json::Null, "protocol", &format!("bad request: {e}"));
                        if write_line(&writer, &resp).is_err() {
                            break;
                        }
                        continue;
                    }
                };
                let is_shutdown = req.get("method").and_then(Json::as_str) == Some("shutdown");
                if is_shutdown {
                    let id = req.get("id").cloned().unwrap_or(Json::Null);
                    let mut result = Json::obj();
                    result.set("ok", true);
                    let _ = write_line(&writer, &ok_response(id, result));
                    break;
                }
                scope.spawn(|| {
                    let resp = self.handle(req);
                    let _ = write_line(&writer, &resp);
                });
            }
            // Scope joins in-flight requests before the writer is dropped.
        });
        match io_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Process one request, returning the response document.
    pub fn handle(&self, req: Json) -> Json {
        let id = req.get("id").cloned().unwrap_or(Json::Null);
        let Some(method) = req.get("method").and_then(Json::as_str) else {
            return error_response(id, "protocol", "missing \"method\"");
        };
        let empty = Json::obj();
        let params = req.get("params").unwrap_or(&empty);
        let outcome = match method {
            "analyze" => self.analyze(params, false),
            "reanalyze" => self.analyze(params, true),
            "stats" => Ok(self.stats_result()),
            other => Err(("protocol".to_string(), format!("unknown method `{other}`"))),
        };
        match outcome {
            Ok(result) => ok_response(id, result),
            Err((kind, message)) => error_response(id, &kind, &message),
        }
    }

    /// `analyze` / `reanalyze`. Both run on a fresh per-request session of
    /// the warm tables; `reanalyze` additionally diffs against the cached
    /// previous program under the same key and reports what changed.
    fn analyze(&self, params: &Json, diff: bool) -> Result<Json, (String, String)> {
        let Some(source) = params.get("source").and_then(Json::as_str) else {
            return Err(("protocol".into(), "missing params.source".into()));
        };
        let function = params
            .get("function")
            .and_then(Json::as_str)
            .unwrap_or("main")
            .to_string();
        let level = match params.get("level").and_then(Json::as_str) {
            None => Level::L2,
            Some(l) => l.parse().map_err(|e| ("protocol".to_string(), e))?,
        };
        let key = params
            .get("key")
            .and_then(Json::as_str)
            .unwrap_or(&function)
            .to_string();
        let mut budget = Budget::default();
        if let Some(ms) = params.get("budget_ms").and_then(Json::as_i64) {
            budget.deadline = Some(Duration::from_millis(ms.max(0) as u64));
        }
        if let Some(n) = params.get("budget_nodes").and_then(Json::as_i64) {
            budget.max_nodes = Some(n.max(0) as usize);
        }
        if let Some(n) = params.get("budget_rsgs").and_then(Json::as_i64) {
            budget.max_rsgs = Some(n.max(0) as usize);
        }
        let trace = params.get("trace").and_then(Json::as_bool).unwrap_or(false);

        // Per-request isolation: interner and memos are shared, but this
        // request gets its own metrics and tracer.
        let session = Arc::new(self.tables.session());
        let analysis_options = AnalysisOptions {
            function,
            level: Some(level),
            budget,
            trace,
            tables: Some(Arc::clone(&session)),
        };
        let analyzer = Analyzer::new(source, analysis_options).map_err(|e| match e {
            Error::Frontend(d) => ("frontend".to_string(), d.to_string()),
            Error::Analysis(a) => ("analysis".to_string(), a.to_string()),
        })?;

        // Diff against the cached previous version before running, so the
        // response can say whether the warm memos actually apply.
        let sig = CachedProgram {
            universe: analyzer.shape_ctx().universe_key(),
            block_sig: format!("{:?}", analyzer.ir().blocks),
            stmt_sigs: analyzer
                .ir()
                .stmts
                .iter()
                .map(|s| format!("{:?}", s.stmt))
                .collect(),
        };
        let delta = if diff {
            Some(self.diff_against_cached(&key, &sig))
        } else {
            None
        };
        psa_rsg::lock_recover(&self.programs).insert(key, sig);

        let result = analyzer
            .run()
            .map_err(|e| ("analysis".to_string(), e.to_string()))?;
        let mut report = build_report(analyzer.ir(), &result);
        if trace {
            let events = analyzer.trace_events();
            report.set_trace(&crate::trace::summarize(&events, Some(analyzer.ir())));
        }

        // Cumulative process-lifetime totals, separate from the
        // per-request ops that the report itself carries.
        {
            let mut totals = psa_rsg::lock_recover(&self.totals);
            totals.requests += 1;
            totals.ops = totals.ops.accumulate(&result.stats.ops);
        }

        let mut out = Json::obj();
        out.set("report", report.to_json());
        if let Some(delta) = delta {
            out.set("incremental", delta.incremental);
            out.set(
                "changed_stmts",
                delta.changed_stmts.iter().copied().collect::<Json>(),
            );
            if let Some(reason) = delta.fallback_reason {
                out.set("fallback", reason);
            }
        }
        out.set("server", self.server_section());
        Ok(out)
    }

    fn diff_against_cached(&self, key: &str, new: &CachedProgram) -> ProgramDelta {
        let programs = psa_rsg::lock_recover(&self.programs);
        let Some(old) = programs.get(key) else {
            return ProgramDelta::fallback("no cached baseline for key");
        };
        if old.universe != new.universe {
            return ProgramDelta::fallback("analysis universe changed (types/pvars/selectors)");
        }
        if old.block_sig != new.block_sig || old.stmt_sigs.len() != new.stmt_sigs.len() {
            return ProgramDelta::fallback("control-flow structure changed");
        }
        let changed: Vec<u32> = old
            .stmt_sigs
            .iter()
            .zip(&new.stmt_sigs)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i as u32)
            .collect();
        ProgramDelta {
            incremental: true,
            changed_stmts: changed,
            fallback_reason: None,
        }
    }

    fn stats_result(&self) -> Json {
        let mut out = Json::obj();
        out.set("server", self.server_section());
        out
    }

    /// The cumulative `server` section: request count, live warm-table
    /// sizes, and process-lifetime op totals (counters summed across
    /// requests, gauges kept at their observed peaks).
    fn server_section(&self) -> Json {
        let totals = psa_rsg::lock_recover(&self.totals);
        let sizes = self.tables.snapshot();
        let mut j = Json::obj();
        j.set("requests", totals.requests);
        j.set("interner_size", sizes.interner_size);
        j.set("subsume_entries", sizes.cache_size);
        j.set("transfer_entries", sizes.transfer_cache_size);
        j.set("ops", ops_to_json(&totals.ops));
        j
    }
}

struct ProgramDelta {
    incremental: bool,
    changed_stmts: Vec<u32>,
    fallback_reason: Option<&'static str>,
}

impl ProgramDelta {
    fn fallback(reason: &'static str) -> ProgramDelta {
        ProgramDelta {
            incremental: false,
            changed_stmts: Vec::new(),
            fallback_reason: Some(reason),
        }
    }
}

fn ok_response(id: Json, result: Json) -> Json {
    let mut resp = Json::obj();
    resp.set("id", id);
    resp.set("result", result);
    resp
}

fn error_response(id: Json, kind: &str, message: &str) -> Json {
    let mut err = Json::obj();
    err.set("kind", kind);
    err.set("message", message);
    let mut resp = Json::obj();
    resp.set("id", id);
    resp.set("error", err);
    resp
}

fn write_line<W: Write>(writer: &Mutex<W>, resp: &Json) -> std::io::Result<()> {
    let mut w = psa_rsg::lock_recover(writer);
    w.write_all(resp.compact().as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
        struct node { int v; struct node *nxt; };
        int main() {
            struct node *list; struct node *p; int i;
            list = NULL;
            for (i = 0; i < 5; i++) {
                p = (struct node *) malloc(sizeof(struct node));
                p->nxt = list;
                list = p;
            }
            return 0;
        }
    "#;

    fn request(id: i64, method: &str, params: Json) -> Json {
        let mut r = Json::obj();
        r.set("id", id);
        r.set("method", method);
        r.set("params", params);
        r
    }

    fn analyze_params(source: &str) -> Json {
        let mut p = Json::obj();
        p.set("source", source);
        p.set("level", "L2");
        p
    }

    #[test]
    fn analyze_request_returns_report_and_server_section() {
        let server = Server::new(ServeOptions::default());
        let resp = server.handle(request(1, "analyze", analyze_params(SRC)));
        assert_eq!(resp.get("id").and_then(Json::as_i64), Some(1));
        let result = resp.get("result").expect("ok response");
        let report = result.get("report").expect("report");
        assert!(report.get("exit_graphs").and_then(Json::as_i64).unwrap() > 0);
        let server_section = result.get("server").expect("server section");
        assert_eq!(
            server_section.get("requests").and_then(Json::as_i64),
            Some(1)
        );
    }

    #[test]
    fn second_identical_request_is_warm_and_metrics_do_not_accumulate() {
        let server = Server::new(ServeOptions::default());
        let cold = server.handle(request(1, "analyze", analyze_params(SRC)));
        let warm = server.handle(request(2, "analyze", analyze_params(SRC)));
        let ops = |resp: &Json| -> Json {
            resp.get("result")
                .unwrap()
                .get("report")
                .unwrap()
                .get("stats")
                .unwrap()
                .get("ops")
                .unwrap()
                .clone()
        };
        let cold_ops = ops(&cold);
        let warm_ops = ops(&warm);
        // Warm request replays memoized transfers.
        let hits = warm_ops
            .get("transfer_memo_hits")
            .and_then(Json::as_i64)
            .unwrap();
        let misses = warm_ops
            .get("transfer_memo_misses")
            .and_then(Json::as_i64)
            .unwrap();
        assert!(hits > 0, "warm request must hit the transfer memo");
        assert_eq!(misses, 0, "identical resubmission misses nothing");
        // Per-request counters reset between requests: the warm request's
        // queries are its own, not cold+warm.
        let cold_q = cold_ops
            .get("transfer_queries")
            .and_then(Json::as_i64)
            .unwrap();
        let warm_q = warm_ops
            .get("transfer_queries")
            .and_then(Json::as_i64)
            .unwrap();
        assert!(
            warm_q <= cold_q,
            "per-request ops accumulated: warm {warm_q} > cold {cold_q}"
        );
        // ... while the server section accumulates.
        let cum = warm
            .get("result")
            .unwrap()
            .get("server")
            .unwrap()
            .get("ops")
            .unwrap()
            .get("transfer_queries")
            .and_then(Json::as_i64)
            .unwrap();
        assert!(cum >= cold_q + warm_q);
    }

    #[test]
    fn reanalyze_unedited_is_incremental_with_no_changes() {
        let server = Server::new(ServeOptions::default());
        let mut p = analyze_params(SRC);
        p.set("key", "prog");
        server.handle(request(1, "analyze", p.clone()));
        let resp = server.handle(request(2, "reanalyze", p));
        let result = resp.get("result").expect("ok");
        assert_eq!(
            result.get("incremental").and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(
            result
                .get("changed_stmts")
                .and_then(Json::as_array)
                .unwrap()
                .len(),
            0
        );
    }

    #[test]
    fn reanalyze_edited_reports_changed_stmts() {
        let server = Server::new(ServeOptions::default());
        let mut p = analyze_params(SRC);
        p.set("key", "prog");
        server.handle(request(1, "analyze", p));
        // Same shape of program, one statement edited (list -> p self link).
        let edited = SRC.replace("p->nxt = list;", "p->nxt = p;");
        let mut p2 = analyze_params(&edited);
        p2.set("key", "prog");
        let resp = server.handle(request(2, "reanalyze", p2));
        let result = resp.get("result").expect("ok");
        assert_eq!(
            result.get("incremental").and_then(Json::as_bool),
            Some(true)
        );
        assert!(
            !result
                .get("changed_stmts")
                .and_then(Json::as_array)
                .unwrap()
                .is_empty(),
            "the edited statement must be reported"
        );
    }

    #[test]
    fn reanalyze_structural_change_falls_back() {
        let server = Server::new(ServeOptions::default());
        let mut p = analyze_params(SRC);
        p.set("key", "prog");
        server.handle(request(1, "analyze", p));
        let structural = SRC.replace(
            "struct node { int v; struct node *nxt; };",
            "struct node { int v; struct node *nxt; struct node *prv; };",
        );
        let mut p2 = analyze_params(&structural);
        p2.set("key", "prog");
        let resp = server.handle(request(2, "reanalyze", p2));
        let result = resp.get("result").expect("ok");
        assert_eq!(
            result.get("incremental").and_then(Json::as_bool),
            Some(false)
        );
        assert!(result.get("fallback").is_some());
    }

    #[test]
    fn frontend_and_protocol_errors_are_responses_not_panics() {
        let server = Server::new(ServeOptions::default());
        let bad = server.handle(request(1, "analyze", analyze_params("int main( {")));
        assert_eq!(
            bad.get("error").unwrap().get("kind").and_then(Json::as_str),
            Some("frontend")
        );
        let unknown = server.handle(request(2, "frobnicate", Json::obj()));
        assert_eq!(
            unknown
                .get("error")
                .unwrap()
                .get("kind")
                .and_then(Json::as_str),
            Some("protocol")
        );
        let missing = server.handle(request(3, "analyze", Json::obj()));
        assert_eq!(
            missing
                .get("error")
                .unwrap()
                .get("kind")
                .and_then(Json::as_str),
            Some("protocol")
        );
        // No method saves or loads the tables: the server owns them for
        // its whole life.
        for (id, method) in [(4, "save_cache"), (5, "load_cache")] {
            let resp = server.handle(request(id, method, {
                let mut p = Json::obj();
                p.set("path", "psa.cache");
                p
            }));
            let err = resp.get("error").expect("error response");
            assert_eq!(err.get("kind").and_then(Json::as_str), Some("protocol"));
            let message = err.get("message").and_then(Json::as_str).unwrap();
            assert!(message.contains("unknown method"), "{message}");
        }
    }

    #[test]
    fn serve_loop_over_buffers() {
        let server = Server::new(ServeOptions::default());
        let mut input = String::new();
        input.push_str(&request(1, "analyze", analyze_params(SRC)).compact());
        input.push('\n');
        input.push_str("this is not json\n");
        input.push_str(&request(2, "stats", Json::obj()).compact());
        input.push('\n');
        input.push_str(&request(3, "shutdown", Json::obj()).compact());
        input.push('\n');
        // Lines after shutdown must not be processed.
        input.push_str(&request(4, "analyze", analyze_params(SRC)).compact());
        input.push('\n');

        let mut out: Vec<u8> = Vec::new();
        server
            .serve(std::io::Cursor::new(input), &mut out)
            .expect("serve");
        let text = String::from_utf8(out).unwrap();
        let responses: Vec<Json> = text
            .lines()
            .map(|l| Json::parse(l).expect("response line parses"))
            .collect();
        assert_eq!(responses.len(), 4, "4 responses, got: {text}");
        let by_id = |want: i64| {
            responses
                .iter()
                .find(|r| r.get("id").and_then(Json::as_i64) == Some(want))
        };
        assert!(by_id(1).unwrap().get("result").is_some());
        assert!(by_id(2).unwrap().get("result").is_some());
        assert!(by_id(3).unwrap().get("result").is_some(), "shutdown ack");
        assert!(by_id(4).is_none(), "post-shutdown request ignored");
        assert!(
            responses
                .iter()
                .any(|r| r.get("id") == Some(&Json::Null) && r.get("error").is_some()),
            "bad JSON line answered with a protocol error"
        );
    }
}
