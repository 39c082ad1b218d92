//! Machine-readable analysis reports (JSON) — the CLI's `--json` output and
//! the format downstream tooling (e.g. a parallelizing code generator, the
//! paper's stated end goal) would consume.
//!
//! Serialization goes through the in-tree [`crate::json`] document model
//! (the build environment has no registry access for `serde`); the emitted
//! layout matches what `serde_json::to_string_pretty` produced, so existing
//! consumers keep parsing.

use crate::engine::AnalysisResult;
use crate::json::Json;
use crate::parallel;
use crate::queries;
use crate::stats::OpStats;
use psa_ir::{FuncIr, PvarId};

/// Structure summary for one pointer variable.
#[derive(Debug, Clone)]
pub struct PvarReport {
    /// Source name.
    pub name: String,
    /// Heuristic classification (`List`, `Tree`, `DoublyLinked`, `Dag`,
    /// `Cyclic`, `Empty`).
    pub class: String,
    /// Largest reachable-region node count over exit graphs.
    pub max_nodes: usize,
    /// Any reachable node may be heap-shared.
    pub any_shared: bool,
    /// Selector names with per-selector sharing.
    pub shared_selectors: Vec<String>,
    /// Confirmed cycle-link pairs present in the region.
    pub has_cycle_links: bool,
    /// NULL in some configuration.
    pub may_be_null: bool,
    /// NULL in every configuration.
    pub always_null: bool,
}

impl PvarReport {
    fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("name", self.name.as_str());
        j.set("class", self.class.as_str());
        j.set("max_nodes", self.max_nodes);
        j.set("any_shared", self.any_shared);
        j.set(
            "shared_selectors",
            self.shared_selectors
                .iter()
                .map(String::as_str)
                .collect::<Json>(),
        );
        j.set("has_cycle_links", self.has_cycle_links);
        j.set("may_be_null", self.may_be_null);
        j.set("always_null", self.always_null);
        j
    }
}

/// Verdict for one loop.
#[derive(Debug, Clone)]
pub struct LoopVerdict {
    /// Loop index.
    pub loop_id: u32,
    /// Induction pointer names.
    pub ipvars: Vec<String>,
    /// Number of heap-writing statements in the body.
    pub heap_writes: usize,
    /// The verdict.
    pub parallelizable: bool,
    /// Blockers, empty when parallelizable.
    pub reasons: Vec<String>,
}

impl LoopVerdict {
    fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("loop_id", self.loop_id);
        j.set(
            "ipvars",
            self.ipvars.iter().map(String::as_str).collect::<Json>(),
        );
        j.set("heap_writes", self.heap_writes);
        j.set("parallelizable", self.parallelizable);
        j.set(
            "reasons",
            self.reasons.iter().map(String::as_str).collect::<Json>(),
        );
        j
    }
}

/// Engine statistics, serializable subset.
#[derive(Debug, Clone)]
pub struct StatsReport {
    /// Level the analysis ran at.
    pub level: String,
    /// Wall-clock milliseconds.
    pub elapsed_ms: u128,
    /// Peak structural bytes.
    pub peak_bytes: usize,
    /// Worklist iterations.
    pub iterations: usize,
    /// Statement transfers executed.
    pub stmt_transfers: usize,
    /// Largest RSRSG seen.
    pub max_graphs_per_stmt: usize,
    /// Largest RSG seen.
    pub max_nodes_per_graph: usize,
    /// Analysis warnings (possible NULL dereferences etc.).
    pub warnings: Vec<String>,
    /// Op-level counters (interner, subsumption cache, graph ops).
    pub ops: OpStats,
    /// True when any statement was degraded (forced summarization or
    /// budget cancellation); see [`AnalysisResult::degraded`].
    pub degraded: bool,
    /// Statement ids marked degraded.
    pub degraded_stmts: Vec<u32>,
    /// Human-readable budget cap that cancelled the run, when partial.
    pub stopped: Option<String>,
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

impl StatsReport {
    fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("level", self.level.as_str());
        j.set("elapsed_ms", self.elapsed_ms);
        j.set("peak_bytes", self.peak_bytes);
        j.set("iterations", self.iterations);
        j.set("stmt_transfers", self.stmt_transfers);
        j.set("max_graphs_per_stmt", self.max_graphs_per_stmt);
        j.set("max_nodes_per_graph", self.max_nodes_per_graph);
        j.set(
            "warnings",
            self.warnings.iter().map(String::as_str).collect::<Json>(),
        );
        j.set("degraded", self.degraded);
        j.set(
            "degraded_stmts",
            self.degraded_stmts.iter().copied().collect::<Json>(),
        );
        match &self.stopped {
            Some(s) => {
                j.set("stopped", s.as_str());
            }
            None => {
                j.set("stopped", Json::Null);
            }
        }
        j.set("ops", ops_to_json(&self.ops));
        j
    }
}

/// The full report.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Analyzed function.
    pub function: String,
    /// Statistics.
    pub stats: StatsReport,
    /// Exit RSRSG size (graphs / nodes / links).
    pub exit_graphs: usize,
    /// Total nodes at exit.
    pub exit_nodes: usize,
    /// Total links at exit.
    pub exit_links: usize,
    /// Per-pvar structure summaries (program pvars bound at exit).
    pub pvars: Vec<PvarReport>,
    /// Per-loop parallelism verdicts.
    pub loops: Vec<LoopVerdict>,
    /// Trace digest, present only when the run recorded a trace journal;
    /// the `"trace"` key is absent from the JSON otherwise, keeping
    /// untraced output bit-identical.
    pub trace: Option<crate::trace::TraceSummary>,
    /// Per-assertion verdict rows, filled by the CLI's `--check asserts`;
    /// like `trace`, the `"asserts"` key is absent when empty so plain
    /// reports stay bit-identical.
    pub asserts: Vec<AssertRow>,
    /// Memory-safety section (`--check memory`); the `"memory"` key is
    /// absent when the check did not run.
    pub memory: Option<MemorySection>,
    /// Per-call-site facts for the `Call` statements that survived
    /// inlining (the recursive core); the `"calls"` key is absent when
    /// the program has none, keeping call-free reports bit-identical.
    pub calls: Vec<CallRow>,
}

/// One recursive call site, serializable.
#[derive(Debug, Clone)]
pub struct CallRow {
    /// The `Call` statement's id.
    pub stmt: u32,
    /// Callee function name.
    pub callee: String,
    /// Went through the summary path (vs. inlined away before analysis).
    pub recursive: bool,
    /// The callee body may fault on some path from this entry.
    pub warned: bool,
    /// The call may leak cells only the callee's frame kept alive.
    pub may_leak: bool,
    /// The callee (transitively) frees memory.
    pub may_free: bool,
}

impl CallRow {
    fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("stmt", self.stmt);
        j.set("callee", self.callee.as_str());
        j.set("recursive", self.recursive);
        j.set("warned", self.warned);
        j.set("may_leak", self.may_leak);
        j.set("may_free", self.may_free);
        j
    }
}

/// Serializable memory-safety report: per-check verdict counts plus every
/// non-`Safe` site.
#[derive(Debug, Clone)]
pub struct MemorySection {
    /// `(check name, safe, may_fail, violation)` per check kind.
    pub counts: Vec<(String, usize, usize, usize)>,
    /// Flagged sites: `(stmt id, check, verdict, rendered, detail)`.
    pub sites: Vec<(u32, String, String, String, String)>,
    /// Sites downgraded because their statements were budget-degraded.
    pub downgraded: usize,
    /// `Some(reason)` when the analysis stopped early (no verdicts).
    pub inconclusive: Option<String>,
}

impl MemorySection {
    /// Build from a checker report.
    pub fn from_report(rep: &crate::memsafe::MemReport) -> MemorySection {
        use crate::memsafe::MemCheck;
        let c = rep.counts();
        MemorySection {
            counts: MemCheck::ALL
                .iter()
                .enumerate()
                .map(|(i, k)| (k.name().to_string(), c[i][0], c[i][1], c[i][2]))
                .collect(),
            sites: rep
                .flagged()
                .map(|s| {
                    (
                        s.stmt.0,
                        s.check.name().to_string(),
                        s.verdict.name().to_string(),
                        s.rendered.clone(),
                        s.detail.clone(),
                    )
                })
                .collect(),
            downgraded: rep.sites.iter().filter(|s| s.degraded).count(),
            inconclusive: rep.inconclusive.clone(),
        }
    }

    fn to_json(&self) -> Json {
        let mut j = Json::obj();
        let mut counts = Json::obj();
        for (name, safe, may_fail, violation) in &self.counts {
            let mut row = Json::obj();
            row.set("safe", *safe);
            row.set("may_fail", *may_fail);
            row.set("violation", *violation);
            counts.set(name.as_str(), row);
        }
        j.set("counts", counts);
        j.set(
            "sites",
            self.sites
                .iter()
                .map(|(sid, check, verdict, rendered, detail)| {
                    let mut row = Json::obj();
                    row.set("stmt", *sid);
                    row.set("check", check.as_str());
                    row.set("verdict", verdict.as_str());
                    row.set("rendered", rendered.as_str());
                    row.set("detail", detail.as_str());
                    row
                })
                .collect::<Json>(),
        );
        j.set("downgraded", self.downgraded);
        match &self.inconclusive {
            Some(s) => {
                j.set("inconclusive", s.as_str());
            }
            None => {
                j.set("inconclusive", Json::Null);
            }
        }
        j
    }
}

/// One checked shape assertion, serializable.
#[derive(Debug, Clone)]
pub struct AssertRow {
    /// Canonical rendering, e.g. `!shared(x->nxt)`.
    pub text: String,
    /// 1-based source line of the `@assert` comment (0 for synthesized).
    pub line: u32,
    /// Combined verdict: `holds` / `may-fail` / `concrete-violation`.
    pub verdict: String,
    /// What the abstraction alone concluded.
    pub abstract_verdict: String,
    /// Concrete states inspected at the assertion's program point.
    pub concrete_checked: usize,
    /// How many refuted the assertion.
    pub concrete_violations: usize,
}

impl AssertRow {
    fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("text", self.text.as_str());
        j.set("line", self.line);
        j.set("verdict", self.verdict.as_str());
        j.set("abstract_verdict", self.abstract_verdict.as_str());
        j.set("concrete_checked", self.concrete_checked);
        j.set("concrete_violations", self.concrete_violations);
        j
    }
}

impl AnalysisReport {
    /// The report as a JSON document.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("function", self.function.as_str());
        j.set("stats", self.stats.to_json());
        j.set("exit_graphs", self.exit_graphs);
        j.set("exit_nodes", self.exit_nodes);
        j.set("exit_links", self.exit_links);
        j.set(
            "pvars",
            self.pvars.iter().map(|p| p.to_json()).collect::<Json>(),
        );
        j.set(
            "loops",
            self.loops.iter().map(|l| l.to_json()).collect::<Json>(),
        );
        if let Some(t) = &self.trace {
            j.set("trace", t.to_json());
        }
        if !self.asserts.is_empty() {
            j.set(
                "asserts",
                self.asserts.iter().map(|a| a.to_json()).collect::<Json>(),
            );
        }
        if let Some(m) = &self.memory {
            j.set("memory", m.to_json());
        }
        if !self.calls.is_empty() {
            j.set(
                "calls",
                self.calls.iter().map(|c| c.to_json()).collect::<Json>(),
            );
        }
        j
    }

    /// Pretty-printed JSON (the CLI's `--json` payload).
    pub fn to_json_string(&self) -> String {
        self.to_json().pretty()
    }
}

/// Build the report for a finished analysis.
pub fn build_report(ir: &FuncIr, result: &AnalysisResult) -> AnalysisReport {
    let mut pvars = Vec::new();
    for (i, pv) in ir.pvars.iter().enumerate() {
        if pv.is_temp {
            continue;
        }
        let p = PvarId(i as u32);
        let rep = queries::structure_report(&result.exit, p);
        if rep.always_null && rep.max_nodes == 0 && !rep.may_be_null {
            continue;
        }
        pvars.push(PvarReport {
            name: pv.name.clone(),
            class: format!("{:?}", rep.class),
            max_nodes: rep.max_nodes,
            any_shared: rep.any_shared,
            shared_selectors: rep
                .shared_selectors
                .iter()
                .map(|s| ir.types.selector_name(s).to_string())
                .collect(),
            has_cycle_links: rep.has_cycle_links,
            may_be_null: rep.may_be_null,
            always_null: rep.always_null,
        });
    }
    let loops = parallel::loop_reports(ir, result)
        .into_iter()
        .map(|l| LoopVerdict {
            loop_id: l.loop_id.0,
            ipvars: l
                .ipvars
                .iter()
                .map(|p| ir.pvar_name(*p).to_string())
                .collect(),
            heap_writes: l.heap_writes.len(),
            parallelizable: l.parallelizable,
            reasons: l.reasons,
        })
        .collect();
    AnalysisReport {
        function: ir.name.clone(),
        stats: StatsReport {
            level: result.level.to_string(),
            elapsed_ms: result.stats.elapsed.as_millis(),
            peak_bytes: result.stats.peak_bytes,
            iterations: result.stats.iterations,
            stmt_transfers: result.stats.stmt_transfers,
            max_graphs_per_stmt: result.stats.max_graphs_per_stmt,
            max_nodes_per_graph: result.stats.max_nodes_per_graph,
            warnings: result.stats.warnings.clone(),
            ops: result.stats.ops,
            degraded: result.any_degraded(),
            degraded_stmts: result.degraded_stmts().map(|s| s.0).collect(),
            stopped: result.stopped.map(|k| k.to_string()),
        },
        exit_graphs: result.exit.len(),
        exit_nodes: result.exit.total_nodes(),
        exit_links: result.exit.total_links(),
        pvars,
        loops,
        trace: None,
        asserts: Vec::new(),
        memory: Some(MemorySection::from_report(&crate::memsafe::memory_report(
            ir, result,
        ))),
        calls: result
            .stats
            .call_sites
            .iter()
            .map(|(&sid, info)| CallRow {
                stmt: sid,
                callee: info.callee.clone(),
                recursive: info.recursive,
                warned: info.warned,
                may_leak: info.may_leak,
                may_free: info.may_free,
            })
            .collect(),
    }
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

    #[test]
    fn report_builds_and_serializes() {
        let a = Analyzer::new(SRC, AnalysisOptions::default()).unwrap();
        let res = a.run().unwrap();
        let rep = build_report(a.ir(), &res);
        assert_eq!(rep.function, "main");
        assert!(rep.pvars.iter().any(|p| p.name == "list"));
        assert_eq!(rep.loops.len(), 2);
        let json = rep.to_json_string();
        assert!(json.contains("\"function\": \"main\""));
        assert!(json.contains("\"parallelizable\""));
        assert!(json.contains("\"subsume_queries\""));
        // The payload round-trips through the in-tree parser.
        let parsed = Json::parse(&json).unwrap();
        assert_eq!(parsed.get("function").unwrap().as_str(), Some("main"));
        let ops = parsed.get("stats").unwrap().get("ops").unwrap();
        assert!(ops.get("insert_calls").unwrap().as_i64().unwrap() > 0);
    }

    #[test]
    fn report_marks_degraded_statements() {
        let a = Analyzer::new(
            SRC,
            AnalysisOptions {
                budget: crate::stats::Budget {
                    max_nodes: Some(2),
                    ..crate::stats::Budget::default()
                },
                ..AnalysisOptions::default()
            },
        )
        .unwrap();
        let res = a.run().unwrap();
        assert!(res.is_complete(), "node cap degrades without cancelling");
        let rep = build_report(a.ir(), &res);
        assert!(rep.stats.degraded);
        assert!(!rep.stats.degraded_stmts.is_empty());
        assert!(rep.stats.stopped.is_none());
        let json = rep.to_json_string();
        assert!(json.contains("\"degraded\": true"));
        assert!(json.contains("\"stopped\": null"));
        let parsed = Json::parse(&json).unwrap();
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
        let a = Analyzer::new(SRC, AnalysisOptions::default()).unwrap();
        let res = a.run().unwrap();
        let rep = build_report(a.ir(), &res);
        let list = rep.pvars.iter().find(|p| p.name == "list").unwrap();
        assert!(!list.any_shared);
        assert!(list.shared_selectors.is_empty());
    }
}
