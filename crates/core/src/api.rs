//! High-level facade: from C source text to analysis results in one call.

use crate::engine::{AnalysisError, AnalysisResult, Engine, EngineConfig};
use crate::progressive::{Goal, ProgressiveOutcome, ProgressiveRunner};
use crate::stats::Budget;
use psa_cfront::diag::Diagnostic;
use psa_ir::{lower_program, FuncIr};
use psa_rsg::{Level, ShapeCtx, SharedTables};
use std::sync::Arc;

/// Options for [`analyze_source`] / [`Analyzer`].
#[derive(Debug, Clone)]
pub struct AnalysisOptions {
    /// Function to analyze (the paper inlines everything into one).
    pub function: String,
    /// Fixed level, or `None` for the progressive driver.
    pub level: Option<Level>,
    /// Resource budget.
    pub budget: Budget,
    /// Record a run-wide trace journal ([`psa_rsg::trace::Tracer`]);
    /// retrieve it with [`Analyzer::trace_events`]. Off by default:
    /// disabled tracing leaves every analysis output bit-identical.
    pub trace: bool,
    /// Warm shared tables to analyze against: the resident daemon passes a
    /// fresh [`SharedTables::session`] of its tables per request. `None`
    /// (the default) starts cold. Interned forms and memos carry over;
    /// per-handle observers (metrics, tracer) are whatever the supplied
    /// handle holds.
    pub tables: Option<Arc<SharedTables>>,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            function: "main".to_string(),
            level: Some(Level::L1),
            budget: Budget::default(),
            trace: false,
            tables: None,
        }
    }
}

impl AnalysisOptions {
    /// Options fixed at one level.
    pub fn at_level(level: Level) -> AnalysisOptions {
        AnalysisOptions {
            level: Some(level),
            ..Default::default()
        }
    }

    /// Options for the progressive driver.
    pub fn progressive() -> AnalysisOptions {
        AnalysisOptions {
            level: None,
            ..Default::default()
        }
    }
}

/// Errors spanning frontend and analysis — the full error taxonomy as the
/// CLI sees it: `Frontend` for parse/type/lowering diagnostics (upstream of
/// the engine), `Analysis` for engine failures
/// ([`AnalysisError::BudgetExceeded`] on a hard cap,
/// [`AnalysisError::Internal`] for a contained panic). Soft degradation
/// caps are *not* errors: they return `Ok` with
/// [`AnalysisResult::stopped`] set; see [`Budget`].
#[derive(Debug)]
pub enum Error {
    /// Parse/type/lowering problem.
    Frontend(Diagnostic),
    /// Engine resource problem.
    Analysis(AnalysisError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Frontend(d) => write!(f, "{d}"),
            Error::Analysis(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<Diagnostic> for Error {
    fn from(d: Diagnostic) -> Self {
        Error::Frontend(d)
    }
}

impl From<AnalysisError> for Error {
    fn from(e: AnalysisError) -> Self {
        Error::Analysis(e)
    }
}

/// A prepared analyzer: parsed, typed, lowered; ready to run at any level.
///
/// All runs of one `Analyzer` share one [`ShapeCtx`] (and through it one
/// interner, memo table set and trace journal), so a `--trace` session
/// covering several levels lands in a single timeline.
pub struct Analyzer {
    ir: FuncIr,
    options: AnalysisOptions,
    shape: ShapeCtx,
}

impl Analyzer {
    /// Parse and lower `src` under `options`. The whole program is lowered
    /// through [`psa_ir::lower_program`]: non-recursive calls are inlined
    /// away and recursive functions survive as [`psa_ir::Stmt::Call`]
    /// statements the engine analyzes with entry-graph summaries.
    pub fn new(src: &str, options: AnalysisOptions) -> Result<Analyzer, Error> {
        let (program, table) = psa_cfront::parse_and_type(src)?;
        let ir = lower_program(&program, &table, &options.function)?;
        let mut shape = ShapeCtx::from_ir(&ir);
        if let Some(tables) = &options.tables {
            shape = shape.with_tables(Arc::clone(tables));
        }
        if options.trace {
            shape.tables.tracer.enable();
        }
        Ok(Analyzer { ir, options, shape })
    }

    /// The lowered function.
    pub fn ir(&self) -> &FuncIr {
        &self.ir
    }

    /// The analysis universe shared by every run of this analyzer.
    pub fn shape_ctx(&self) -> ShapeCtx {
        self.shape.clone()
    }

    /// Drain the trace journal recorded so far (empty unless
    /// [`AnalysisOptions::trace`] was set), sorted by start time.
    pub fn trace_events(&self) -> Vec<psa_rsg::TraceEvent> {
        self.shape.tables.tracer.drain()
    }

    fn engine_config(&self, level: Level) -> EngineConfig {
        EngineConfig {
            budget: self.options.budget,
            ..EngineConfig::at_level(level)
        }
    }

    /// Run at a fixed level.
    pub fn run_at(&self, level: Level) -> Result<AnalysisResult, AnalysisError> {
        Engine::with_shape_ctx(&self.ir, self.engine_config(level), self.shape.clone()).run()
    }

    /// Run at the configured level (default `L1`).
    pub fn run(&self) -> Result<AnalysisResult, AnalysisError> {
        self.run_at(self.options.level.unwrap_or(Level::L1))
    }

    /// Run the progressive driver with client goals. The driver records
    /// into this analyzer's trace journal, so one timeline spans L1→L3.
    pub fn run_progressive(&self, goals: Vec<Goal>) -> ProgressiveOutcome {
        ProgressiveRunner::new(&self.ir, goals)
            .with_config(self.engine_config(Level::L1))
            .with_shape_ctx(self.shape.clone())
            .run()
    }
}

/// One-shot analysis of `src` at `options.level` (or L1).
pub fn analyze_source(src: &str, options: AnalysisOptions) -> Result<AnalysisResult, Error> {
    let analyzer = Analyzer::new(src, options)?;
    analyzer.run().map_err(Error::from)
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

    #[test]
    fn one_shot_analysis() {
        let res = analyze_source(SRC, AnalysisOptions::default()).unwrap();
        assert!(!res.exit.is_empty());
        assert_eq!(res.level, Level::L1);
    }

    #[test]
    fn analyzer_reuse_across_levels() {
        let a = Analyzer::new(SRC, AnalysisOptions::default()).unwrap();
        for level in Level::ALL {
            let res = a.run_at(level).unwrap();
            assert!(!res.exit.is_empty(), "level {level}");
        }
    }

    #[test]
    fn frontend_errors_surface() {
        let bad = "int main() { this is not C;; }";
        assert!(matches!(
            analyze_source(bad, AnalysisOptions::default()),
            Err(Error::Frontend(_))
        ));
    }

    #[test]
    fn missing_function_is_frontend_error() {
        let opts = AnalysisOptions {
            function: "nope".to_string(),
            ..AnalysisOptions::default()
        };
        assert!(matches!(analyze_source(SRC, opts), Err(Error::Frontend(_))));
    }

    #[test]
    fn deadline_budget_threads_through_api() {
        let opts = AnalysisOptions {
            budget: Budget {
                deadline: Some(std::time::Duration::ZERO),
                ..Budget::default()
            },
            ..AnalysisOptions::default()
        };
        let res = analyze_source(SRC, opts).unwrap();
        assert!(!res.is_complete(), "zero deadline yields a partial result");
        assert!(res.stopped.is_some());
    }

    #[test]
    fn progressive_via_api() {
        let a = Analyzer::new(SRC, AnalysisOptions::progressive()).unwrap();
        let outcome = a.run_progressive(vec![]);
        assert_eq!(outcome.satisfied_at, Some(Level::L1));
    }
}
