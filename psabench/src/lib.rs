//! `psa-bench`: the end-to-end and per-layer benchmark of the progressive
//! shape analyzer. See `README.md` for the workloads and every metric.
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions; per-layer self-times come from a separate traced run that
//! enables the engine's trace journal.

pub mod batch;
pub mod calibrate;
pub mod machine;
pub mod metrics;
pub mod selftime;
pub mod serve_edit;
pub mod stats;
pub mod workload;

use psa_core::json::Json;

/// Operations attempted and failed in one run, with the first reasons.
#[derive(Debug, Clone, Default)]
pub struct Failures {
    /// Operations attempted: job executions or requests.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// `op: reason` for the first failures.
    pub reasons: Vec<String>,
}

impl Failures {
    /// Count one attempted operation, failed when `failure` is set.
    pub fn attempt(&mut self, op: &str, failure: Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failed += 1;
            if self.reasons.len() < 16 {
                self.reasons.push(format!("{op}: {why}"));
            }
        }
    }
}

/// One job or request of a run, for the `--out` file.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Job name, or `program/kind#index` for a request.
    pub name: String,
    /// Median time over the run's passes or sessions.
    pub median_ms: f64,
    /// Every timed sample (calibrated), in the order taken.
    pub samples_ms: Vec<f64>,
    /// The calibration factor of each sample: raw = sample / factor.
    pub factors: Vec<f64>,
    /// Digest of its report without timing (`stats`) or trace sections.
    pub digest: u64,
}

/// Everything one workload run measured and checked.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run),
    /// except `setup_s`, which the caller measures.
    pub metrics: metrics::Metrics,
    /// Output-check results.
    pub failures: Failures,
    /// Per-operation medians, calibrated samples and digests.
    pub ops: Vec<OpRecord>,
    /// Untraced passes (batch) or sessions (`serve_edit`) measured.
    pub passes: usize,
    /// Traced passes or sessions measured.
    pub traced_passes: usize,
}

/// FNV-1a digest of a report with its timing-bearing `stats` and `trace`
/// sections removed: equal digests mean equal analysis output.
pub fn report_digest(mut report: Json) -> u64 {
    report.remove("stats");
    report.remove("trace");
    report
        .compact()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
}
