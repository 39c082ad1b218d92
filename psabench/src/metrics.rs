//! The metric registry and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names and units;
//! the smoke test keeps the two in step.

use psa_core::json::Json;

/// End-to-end metrics: printed by every untraced run, for every workload.
/// An *op* is one batch job (source text to JSON report) or one `psa
/// serve` request (request line to response line).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("geomean_op_ms", "ms"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("peak_rsrsg_mib", "MiB"),
];

/// Per-layer metrics: printed by every traced run, for every workload
/// (0 where the workload bypasses the layer).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cfront.parse_ms", "ms"),
    ("cfront.src_kib", "KiB"),
    ("ir.lower_ms", "ms"),
    ("ir.stmts", "count"),
    ("ir.call_sites", "count"),
    ("engine.run_ms", "ms"),
    ("engine.teardown_ms", "ms"),
    ("engine.iterations", "count"),
    ("engine.run_self_ms", "ms"),
    ("engine.transfer_self_ms", "ms"),
    ("engine.unattributed_ms", "ms"),
    ("engine.transfer_hit_rate", "ratio"),
    ("engine.delta_full_share", "ratio"),
    ("engine.delta_visits", "count"),
    ("rsg.join_self_ms", "ms"),
    ("rsg.compress_self_ms", "ms"),
    ("rsg.divide_self_ms", "ms"),
    ("rsg.prune_self_ms", "ms"),
    ("rsg.canon_self_ms", "ms"),
    ("rsg.subsume_self_ms", "ms"),
    ("rsg.join_calls", "count"),
    ("rsg.compress_calls", "count"),
    ("rsg.subsume_queries", "count"),
    ("rsg.subsume_search_share", "ratio"),
    ("rsg.intern_hit_rate", "ratio"),
    ("rsg.peak_width", "count"),
    ("tables.lock_wait_ms", "ms"),
    ("tables.lock_contended", "count"),
    ("tables.interner_forms", "count"),
    ("tables.transfer_entries", "count"),
    ("interproc.summary_queries", "count"),
    ("interproc.summary_hit_rate", "ratio"),
    ("memsafe.report_ms", "ms"),
    ("memsafe.sites", "count"),
    ("concrete.validate_ms", "ms"),
    ("concrete.runs", "count"),
    ("report.build_ms", "ms"),
    ("report.kib", "KiB"),
    ("serve.json_parse_ms", "ms"),
    ("serve.json_encode_ms", "ms"),
    ("serve.handle_cold_p50_ms", "ms"),
    ("serve.handle_edit_p50_ms", "ms"),
    ("serve.handle_resubmit_p50_ms", "ms"),
    ("serve.incremental_share", "ratio"),
    ("serve.resubmit_hit_rate", "ratio"),
    ("op.unattributed_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Metric values in registry order.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    values: Vec<(&'static str, &'static str, f64)>,
}

impl Metrics {
    /// Record `name`, which must be in `registry`.
    pub fn set(&mut self, registry: &[(&'static str, &'static str)], name: &str, value: f64) {
        let &(name, unit) = registry
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not registered"));
        match self.values.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => slot.2 = value,
            None => self.values.push((name, unit, value)),
        }
    }

    /// Value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, _, v)| *v)
    }

    /// `(name, unit, value)` in the order of `registry`, with unset
    /// metrics filled in as 0 so every run prints the whole registry.
    pub fn complete(&self, registry: &[(&'static str, &'static str)]) -> Metrics {
        Metrics {
            values: registry
                .iter()
                .map(|&(n, u)| (n, u, self.get(n).unwrap_or(0.0)))
                .collect(),
        }
    }

    /// Iterate `(name, unit, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.values.iter().copied()
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        for (name, unit, value) in self.iter() {
            let mut m = Json::obj();
            m.set("value", value);
            m.set("unit", unit);
            j.set(name, m);
        }
        j
    }
}

/// The last stdout line of a run: correctness verdict, operation counts
/// and metrics.
pub fn result_line(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut j = Json::obj();
    j.set("correct", failed == 0);
    j.set("attempted", Json::Int(attempted.into()));
    j.set("failed", Json::Int(failed.into()));
    j.set("metrics", metrics.to_json());
    j.compact()
}
