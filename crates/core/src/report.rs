//! Machine-readable analysis reports (JSON) — the CLI's `--json` output and
//! the format downstream tooling (e.g. a parallelizing code generator, the
//! paper's stated end goal) would consume.
//!
//! [`build_report`] writes every section straight from the analysis type
//! that holds it into one in-tree [`crate::json`] document (the build
//! environment has no registry access for `serde`); the emitted layout
//! matches what `serde_json::to_string_pretty` produced, so existing
//! consumers keep parsing.

use crate::engine::AnalysisResult;
use crate::json::Json;
use crate::memsafe::{self, MemCheck, MemReport};
use crate::parallel::{self, LoopReport};
use crate::queries;
use crate::stats::{CallSiteInfo, OpStats};
use crate::trace::TraceSummary;
use psa_ir::{FuncIr, PvarId};

/// The top-level keys after `loops`, in report order. `trace` and `asserts`
/// are optional sections their setters insert in place, so the key order
/// does not depend on the order of the calls.
const TAIL: [&str; 3] = ["trace", "asserts", "memory"];

/// The JSON report of one finished analysis: `function`, `stats`, the exit
/// RSRSG size, `pvars`, `loops`, the optional `trace` and `asserts`
/// sections, `memory`, and `calls` when the program has recursive call
/// sites.
#[derive(Debug, Clone)]
pub struct AnalysisReport(Json);

impl AnalysisReport {
    /// Attach the trace digest. Untraced reports have no `"trace"` key, so
    /// their output stays bit-identical.
    pub fn set_trace(&mut self, trace: &TraceSummary) {
        self.insert("trace", trace.to_json());
    }

    /// Attach the per-assertion verdict rows (the CLI's `--check asserts`).
    /// An empty list adds no `"asserts"` key.
    pub fn set_asserts(&mut self, rows: Vec<Json>) {
        if !rows.is_empty() {
            self.insert("asserts", Json::Arr(rows));
        }
    }

    fn insert(&mut self, key: &str, value: Json) {
        self.0.remove(key);
        let Json::Obj(fields) = &mut self.0 else {
            unreachable!("build_report writes an object")
        };
        let later = &TAIL[TAIL.iter().position(|k| *k == key).expect("a TAIL key") + 1..];
        let at = fields
            .iter()
            .position(|(k, _)| later.contains(&k.as_str()))
            .unwrap_or(fields.len());
        fields.insert(at, (key.to_string(), value));
    }

    /// The report as a JSON document.
    pub fn to_json(&self) -> Json {
        self.0.clone()
    }

    /// Pretty-printed JSON (the CLI's `--json` payload).
    pub fn to_json_string(&self) -> String {
        self.0.pretty()
    }
}

/// Render op-level counters as a JSON object (shared by the report and the
/// CLI's `--stats` output): every counter and gauge under its field name,
/// in declaration order, then the three derived hit rates.
pub fn ops_to_json(ops: &OpStats) -> Json {
    let mut j = Json::obj();
    for (name, value) in ops.fields() {
        j.set(name, value);
    }
    j.set("cache_hit_rate", ops.cache_hit_rate());
    j.set("transfer_memo_hit_rate", ops.transfer_memo_hit_rate());
    j.set("summary_hit_rate", ops.summary_hit_rate());
    j
}

/// Build the report for a finished analysis. The `memory` section is always
/// present: it carries the memory-safety verdicts of
/// [`memsafe::memory_report`].
pub fn build_report(ir: &FuncIr, result: &AnalysisResult) -> AnalysisReport {
    let mut j = Json::obj();
    j.set("function", ir.name.as_str());
    j.set("stats", stats_json(result));
    j.set("exit_graphs", result.exit.len());
    j.set("exit_nodes", result.exit.total_nodes());
    j.set("exit_links", result.exit.total_links());
    j.set("pvars", pvars_json(ir, result));
    j.set(
        "loops",
        parallel::loop_reports(ir, result)
            .iter()
            .map(|l| loop_json(ir, l))
            .collect::<Json>(),
    );
    j.set("memory", memory_json(&memsafe::memory_report(ir, result)));
    if !result.stats.call_sites.is_empty() {
        j.set(
            "calls",
            result
                .stats
                .call_sites
                .iter()
                .map(|(&sid, info)| call_json(sid, info))
                .collect::<Json>(),
        );
    }
    AnalysisReport(j)
}

fn stats_json(result: &AnalysisResult) -> Json {
    let stats = &result.stats;
    let mut j = Json::obj();
    j.set("level", result.level.to_string());
    j.set("elapsed_ms", stats.elapsed.as_millis());
    j.set("peak_bytes", stats.peak_bytes);
    j.set("iterations", stats.iterations);
    j.set("stmt_transfers", stats.stmt_transfers);
    j.set("max_graphs_per_stmt", stats.max_graphs_per_stmt);
    j.set("max_nodes_per_graph", stats.max_nodes_per_graph);
    j.set(
        "warnings",
        stats.warnings.iter().map(String::as_str).collect::<Json>(),
    );
    j.set("degraded", result.any_degraded());
    j.set(
        "degraded_stmts",
        result.degraded_stmts().map(|s| s.0).collect::<Json>(),
    );
    j.set(
        "stopped",
        result.stopped.map_or(Json::Null, |k| k.to_string().into()),
    );
    j.set("ops", ops_to_json(&stats.ops));
    j
}

/// One structure summary per program pvar bound at exit.
fn pvars_json(ir: &FuncIr, result: &AnalysisResult) -> Json {
    let mut rows = Vec::new();
    for (i, pv) in ir.pvars.iter().enumerate() {
        if pv.is_temp {
            continue;
        }
        let rep = queries::structure_report(&result.exit, PvarId(i as u32));
        if rep.always_null && rep.max_nodes == 0 && !rep.may_be_null {
            continue;
        }
        let mut j = Json::obj();
        j.set("name", pv.name.as_str());
        j.set("class", format!("{:?}", rep.class));
        j.set("max_nodes", rep.max_nodes);
        j.set("any_shared", rep.any_shared);
        j.set(
            "shared_selectors",
            rep.shared_selectors
                .iter()
                .map(|s| ir.types.selector_name(s))
                .collect::<Json>(),
        );
        j.set("has_cycle_links", rep.has_cycle_links);
        j.set("may_be_null", rep.may_be_null);
        j.set("always_null", rep.always_null);
        rows.push(j);
    }
    Json::Arr(rows)
}

fn loop_json(ir: &FuncIr, l: &LoopReport) -> Json {
    let mut j = Json::obj();
    j.set("loop_id", l.loop_id.0);
    j.set(
        "ipvars",
        l.ipvars.iter().map(|&p| ir.pvar_name(p)).collect::<Json>(),
    );
    j.set("heap_writes", l.heap_writes.len());
    j.set("parallelizable", l.parallelizable);
    j.set(
        "reasons",
        l.reasons.iter().map(String::as_str).collect::<Json>(),
    );
    j
}

/// Per-check verdict counts plus every non-`Safe` site.
fn memory_json(rep: &MemReport) -> Json {
    let mut counts = Json::obj();
    for (k, [safe, may_fail, violation]) in MemCheck::ALL.iter().zip(rep.counts()) {
        let mut row = Json::obj();
        row.set("safe", safe);
        row.set("may_fail", may_fail);
        row.set("violation", violation);
        counts.set(k.name(), row);
    }
    let mut j = Json::obj();
    j.set("counts", counts);
    j.set(
        "sites",
        rep.flagged()
            .map(|s| {
                let mut row = Json::obj();
                row.set("stmt", s.stmt.0);
                row.set("check", s.check.name());
                row.set("verdict", s.verdict.name());
                row.set("rendered", s.rendered.as_str());
                row.set("detail", s.detail.as_str());
                row
            })
            .collect::<Json>(),
    );
    j.set(
        "downgraded",
        rep.sites.iter().filter(|s| s.degraded).count(),
    );
    j.set(
        "inconclusive",
        rep.inconclusive.as_deref().map_or(Json::Null, Json::from),
    );
    j
}

/// One `Call` statement that survived inlining (the recursive core).
fn call_json(stmt: u32, info: &CallSiteInfo) -> Json {
    let mut j = Json::obj();
    j.set("stmt", stmt);
    j.set("callee", info.callee.as_str());
    j.set("recursive", info.recursive);
    j.set("warned", info.warned);
    j.set("may_leak", info.may_leak);
    j.set("may_free", info.may_free);
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{AnalysisOptions, Analyzer};

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
            p = list;
            while (p != NULL) { p->v = 0; p = p->nxt; }
            return 0;
        }
    "#;

    /// The report of `SRC` under `options`, re-parsed from its printed form.
    fn parsed_report(options: AnalysisOptions) -> (AnalysisReport, Json) {
        let a = Analyzer::new(SRC, options).unwrap();
        let res = a.run().unwrap();
        let rep = build_report(a.ir(), &res);
        let parsed = Json::parse(&rep.to_json_string()).unwrap();
        (rep, parsed)
    }

    fn pvar<'a>(report: &'a Json, name: &str) -> &'a Json {
        report
            .get("pvars")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .find(|p| p.get("name").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("no pvar row for `{name}`"))
    }

    #[test]
    fn report_builds_and_serializes() {
        let (rep, parsed) = parsed_report(AnalysisOptions::default());
        // The payload round-trips through the in-tree parser.
        assert_eq!(parsed, rep.to_json());
        assert_eq!(parsed.get("function").unwrap().as_str(), Some("main"));
        pvar(&parsed, "list");
        let loops = parsed.get("loops").unwrap().as_array().unwrap();
        assert_eq!(loops.len(), 2);
        assert!(loops.iter().all(|l| l.get("parallelizable").is_some()));
        let ops = parsed.get("stats").unwrap().get("ops").unwrap();
        assert!(ops.get("subsume_queries").is_some());
        assert!(ops.get("insert_calls").unwrap().as_i64().unwrap() > 0);
    }

    #[test]
    fn optional_sections_keep_their_place_whatever_the_call_order() {
        let a = Analyzer::new(SRC, AnalysisOptions::default()).unwrap();
        let res = a.run().unwrap();
        let keys = |rep: &AnalysisReport| match rep.to_json() {
            Json::Obj(fields) => fields.into_iter().map(|(k, _)| k).collect::<Vec<_>>(),
            _ => unreachable!(),
        };
        let mut first = build_report(a.ir(), &res);
        first.set_trace(&TraceSummary::default());
        first.set_asserts(vec![Json::obj()]);
        let mut second = build_report(a.ir(), &res);
        second.set_asserts(vec![Json::obj()]);
        second.set_trace(&TraceSummary::default());
        assert_eq!(
            keys(&first),
            [
                "function",
                "stats",
                "exit_graphs",
                "exit_nodes",
                "exit_links",
                "pvars",
                "loops",
                "trace",
                "asserts",
                "memory"
            ]
        );
        assert_eq!(keys(&second), keys(&first));
    }

    #[test]
    fn report_marks_degraded_statements() {
        let (rep, parsed) = parsed_report(AnalysisOptions {
            budget: crate::stats::Budget {
                max_nodes: Some(2),
                ..crate::stats::Budget::default()
            },
            ..AnalysisOptions::default()
        });
        let json = rep.to_json_string();
        assert!(json.contains("\"degraded\": true"));
        // The node cap degrades without cancelling.
        assert!(json.contains("\"stopped\": null"));
        let stats = parsed.get("stats").unwrap();
        assert!(!stats
            .get("degraded_stmts")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn report_pvar_classes_match_queries() {
        let (_, parsed) = parsed_report(AnalysisOptions::default());
        let list = pvar(&parsed, "list");
        assert_eq!(list.get("any_shared").unwrap().as_bool(), Some(false));
        assert!(list
            .get("shared_selectors")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());
    }
}
