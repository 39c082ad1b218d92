//! Analysis statistics and budgets — the measurement substrate behind the
//! Table 1 reproduction.
//!
//! The paper reports wall-clock time and the compiler's memory pool in MB on
//! a Pentium III. Absolute 2001 numbers are not reproducible; instead we
//! account the *structural bytes* of all live RSRSG state (every node with
//! its property sets, every link, every PL entry, every cached canonical
//! form) and track the peak. A configurable budget turns "peak exceeded"
//! into the paper's "compiler runs out of memory" outcome (Sparse LU at
//! L2/L3 on 128 MB).
//!
//! Beyond the paper's coarse numbers, each run carries [`OpStats`]: op-level
//! work counters (insert/subsume/join/compress/prune calls, memo-hit vs.
//! search fallbacks, interner occupancy, peak set widths) snapshotted from
//! the run-wide [`psa_rsg::intern::SharedTables`]. They are deltas over the
//! run, so a progressive driver sharing one table set still reports
//! per-level numbers. They hold no kernel times: where the time went is the
//! trace journal's exclusive self-time ledger ([`crate::trace`]).

pub use psa_rsg::intern::OpStats;
use std::time::Duration;

/// Counters collected during one engine run.
#[derive(Debug, Clone, Default)]
pub struct AnalysisStats {
    /// Wall-clock time of the fixed-point run.
    pub elapsed: Duration,
    /// Peak structural bytes of all per-statement RSRSGs plus in-flight
    /// state.
    pub peak_bytes: usize,
    /// Structural bytes at the fixed point.
    pub final_bytes: usize,
    /// Number of block-transfer worklist iterations.
    pub iterations: usize,
    /// Statement transfers executed (statements × visits).
    pub stmt_transfers: usize,
    /// Largest RSRSG (graph count) seen at any statement.
    pub max_graphs_per_stmt: usize,
    /// Largest single RSG (node count) seen.
    pub max_nodes_per_graph: usize,
    /// Total statements in the analyzed function.
    pub num_stmts: usize,
    /// Diagnostics emitted during analysis (e.g. possible NULL dereference).
    pub warnings: Vec<String>,
    /// Induction pvars that, at L3, ever re-visited a node already carrying
    /// their TOUCH mark — evidence that the traversal may revisit locations
    /// (e.g. a cyclic structure). The parallelism client requires the
    /// written cursor's loop to be revisit-free.
    pub revisits: std::collections::BTreeSet<psa_ir::PvarId>,
    /// Op-level counters for this run (delta of the shared tables between
    /// run start and end; gauges like interner size are end-of-run values).
    pub ops: OpStats,
    /// Per-call-site summary facts, keyed by the `Call` statement's id.
    /// Flags are OR-accumulated across worklist revisits of the site; the
    /// memory-safety and leak clients read them to place verdicts at call
    /// statements without re-walking callee bodies.
    pub call_sites: std::collections::BTreeMap<u32, CallSiteInfo>,
    /// Index of `warnings` for O(1) duplicate checks; the vector keeps
    /// first-occurrence order, this set answers membership.
    pub(crate) warned: std::collections::HashSet<String>,
}

impl AnalysisStats {
    /// Peak bytes in mebibytes, for Table 1 style reporting.
    pub fn peak_mib(&self) -> f64 {
        self.peak_bytes as f64 / (1024.0 * 1024.0)
    }

    /// Record a warning, deduplicating exact repeats. First-occurrence
    /// order is preserved; membership is answered by a hash set so
    /// warning-heavy runs do not pay a linear scan per emission.
    pub fn warn(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        if self.warned.insert(msg.clone()) {
            self.warnings.push(msg);
        }
    }
}

/// What one call site's summaries established, for downstream clients.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CallSiteInfo {
    /// Callee source name.
    pub callee: String,
    /// The callee's nested analysis emitted warnings (possible NULL
    /// dereference inside the callee body, transitively).
    pub warned: bool,
    /// Exit-graph cleanup dropped cells only the callee's locals kept
    /// alive — the callee may leak (independent of the return value; a
    /// discarded returned structure is reported by the caller-side rebind
    /// check instead).
    pub may_leak: bool,
    /// The callee (or anything it calls) contains `free`.
    pub may_free: bool,
    /// At least one application of this site went through the
    /// recursive-summary fixpoint rather than plain exits replay.
    pub recursive: bool,
}

/// Resource budgets for one engine run.
///
/// Two families with different failure modes:
///
/// * **Hard caps** (`max_bytes`, `max_graphs`) abort the run with
///   [`AnalysisError::BudgetExceeded`](crate::AnalysisError) — the paper's
///   "compiler runs out of memory" outcome. The engine's fixed block-visit
///   safety net aborts the same way.
/// * **Degradation caps** (`max_nodes`, `max_rsgs`, `deadline`) never
///   abort. `max_nodes` triggers forced summarization (sound but coarser
///   graphs, statements marked degraded); the others stop the run and
///   return a partial result with
///   [`AnalysisResult::stopped`](crate::AnalysisResult) set.
///
/// All new caps default to `None`/unset, in which case the engine's
/// behaviour (and its output, bit for bit) is unchanged.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Abort when peak structural bytes exceed this.
    pub max_bytes: Option<usize>,
    /// Abort when a statement's RSRSG exceeds this many graphs.
    pub max_graphs: usize,
    /// Force-summarize any RSG above this many nodes (k-limiting COMPRESS
    /// with relaxed compatibility); the affected statement is marked
    /// degraded but the fixed point still completes.
    pub max_nodes: Option<usize>,
    /// Stop the run when a statement's RSRSG exceeds this many graphs
    /// (softer than `max_graphs`: partial result, not an error).
    pub max_rsgs: Option<usize>,
    /// Stop the run after this much wall-clock time.
    pub deadline: Option<Duration>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_bytes: None,
            max_graphs: 512,
            max_nodes: None,
            max_rsgs: None,
            deadline: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mib_conversion() {
        let s = AnalysisStats {
            peak_bytes: 3 * 1024 * 1024,
            ..Default::default()
        };
        assert!((s.peak_mib() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn warn_dedups() {
        let mut s = AnalysisStats::default();
        s.warn("possible NULL dereference at 3:1");
        s.warn("possible NULL dereference at 3:1");
        s.warn("other");
        assert_eq!(s.warnings.len(), 2);
    }

    #[test]
    fn warn_keeps_first_occurrence_order() {
        let mut s = AnalysisStats::default();
        s.warn("z sorts last but arrived first");
        s.warn("a sorts first but arrived second");
        s.warn("z sorts last but arrived first");
        assert_eq!(
            s.warnings,
            vec![
                "z sorts last but arrived first".to_string(),
                "a sorts first but arrived second".to_string(),
            ]
        );
    }

    #[test]
    fn warn_dedup_scales_past_quadratic_sizes() {
        // 20k distinct + 20k duplicate warnings; the old linear
        // `contains` scan made this take O(n^2) string comparisons.
        let mut s = AnalysisStats::default();
        for i in 0..20_000 {
            s.warn(format!("warning {i}"));
            s.warn(format!("warning {i}"));
        }
        assert_eq!(s.warnings.len(), 20_000);
        assert_eq!(s.warnings[0], "warning 0");
        assert_eq!(s.warnings[19_999], "warning 19999");
    }

    #[test]
    fn degradation_caps_default_unset() {
        let b = Budget::default();
        assert_eq!(b.max_nodes, None);
        assert_eq!(b.max_rsgs, None);
        assert_eq!(b.deadline, None);
    }
}
