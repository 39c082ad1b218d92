//! The progressive analysis driver (§5).
//!
//! "The compiler carries out a progressive analysis which starts with fewer
//! constraints to summarize nodes, but, when necessary, these constraints
//! are increased to reach a better approximation."
//!
//! The driver runs `L1`, evaluates the client **goals** (the external
//! knowledge the paper's authors applied by hand — e.g. *the body list must
//! not be SHSEL-shared through `body`*), and escalates to `L2` and then `L3`
//! only while some goal is unmet. Every level's result and statistics are
//! kept, which is exactly what Table 1 reports.

use crate::engine::{AnalysisError, AnalysisResult, Engine, EngineConfig};
use crate::queries;
use psa_cfront::types::SelectorId;
use psa_ir::{FuncIr, PvarId};
use psa_rsg::Level;

/// A client goal: a property the analysis result should establish. When a
/// goal is not met at some level, the driver escalates.
#[derive(Debug, Clone)]
pub enum Goal {
    /// No node reachable from `pvar` at exit may be SHSEL-shared through
    /// `sel` (Barnes-Hut: `SHSEL(n6, body) = false`).
    NotShselInRegion {
        /// Region root.
        pvar: PvarId,
        /// Selector that must not be shared.
        sel: SelectorId,
    },
    /// No node reachable from `pvar` at exit may be SHARED at all.
    NotSharedInRegion {
        /// Region root.
        pvar: PvarId,
    },
    /// The given loop must be reported parallelizable by the parallelism
    /// client (Barnes-Hut step (iii) at L3).
    LoopParallel {
        /// Loop index.
        loop_id: psa_ir::LoopId,
    },
    /// `p` and `q` must not alias at exit.
    NoAlias {
        /// First pvar.
        p: PvarId,
        /// Second pvar.
        q: PvarId,
    },
}

impl Goal {
    /// Evaluate against a finished analysis.
    pub fn met(&self, ir: &FuncIr, result: &AnalysisResult) -> bool {
        match *self {
            Goal::NotShselInRegion { pvar, sel } => {
                !queries::shsel_in_region(&result.exit, pvar, sel)
            }
            Goal::NotSharedInRegion { pvar } => !queries::shared_in_region(&result.exit, pvar),
            Goal::LoopParallel { loop_id } => {
                crate::parallel::loop_report(ir, result, loop_id).parallelizable
            }
            Goal::NoAlias { p, q } => !queries::may_alias(&result.exit, p, q),
        }
    }

    /// Short description for reports.
    pub fn describe(&self, ir: &FuncIr) -> String {
        match *self {
            Goal::NotShselInRegion { pvar, sel } => format!(
                "no SHSEL({}) in region of `{}`",
                ir.types.selector_name(sel),
                ir.pvar_name(pvar)
            ),
            Goal::NotSharedInRegion { pvar } => {
                format!("no SHARED in region of `{}`", ir.pvar_name(pvar))
            }
            Goal::LoopParallel { loop_id } => format!("loop {loop_id} parallelizable"),
            Goal::NoAlias { p, q } => {
                format!(
                    "`{}` and `{}` never alias",
                    ir.pvar_name(p),
                    ir.pvar_name(q)
                )
            }
        }
    }
}

/// One level's outcome within a progressive run.
#[derive(Debug)]
pub struct LevelOutcome {
    /// The level.
    pub level: Level,
    /// Its result, or the resource error that stopped it.
    pub result: Result<AnalysisResult, AnalysisError>,
    /// Which goals were met (aligned with the runner's goal list; empty if
    /// the level errored).
    pub goals_met: Vec<bool>,
}

/// The progressive run's product.
#[derive(Debug)]
pub struct ProgressiveOutcome {
    /// Outcomes per attempted level, in order.
    pub levels: Vec<LevelOutcome>,
    /// The level whose result satisfied every goal, if any.
    pub satisfied_at: Option<Level>,
}

impl ProgressiveOutcome {
    /// The most precise successful result. Complete results win over
    /// partial (budget-cancelled) ones regardless of level; a partial
    /// result is returned only when no level completed.
    pub fn best(&self) -> Option<&AnalysisResult> {
        self.levels
            .iter()
            .rev()
            .filter_map(|l| l.result.as_ref().ok())
            .find(|r| r.is_complete())
            .or_else(|| {
                self.levels
                    .iter()
                    .rev()
                    .find_map(|l| l.result.as_ref().ok())
            })
    }
}

/// The driver itself.
pub struct ProgressiveRunner<'a> {
    ir: &'a FuncIr,
    goals: Vec<Goal>,
    base_config: EngineConfig,
    shape: Option<psa_rsg::ShapeCtx>,
}

impl<'a> ProgressiveRunner<'a> {
    /// Create a runner with goals. An empty goal list means "L1 is always
    /// enough", mirroring the sparse codes of §5.
    pub fn new(ir: &'a FuncIr, goals: Vec<Goal>) -> ProgressiveRunner<'a> {
        ProgressiveRunner {
            ir,
            goals,
            base_config: EngineConfig::default(),
            shape: None,
        }
    }

    /// Override the engine configuration template (level is set per stage).
    pub fn with_config(mut self, config: EngineConfig) -> Self {
        self.base_config = config;
        self
    }

    /// Use a caller-provided analysis universe instead of building a fresh
    /// one: the driver then shares the caller's interner, memo tables and
    /// trace journal (so one `--trace` timeline spans every level).
    pub fn with_shape_ctx(mut self, shape: psa_rsg::ShapeCtx) -> Self {
        self.shape = Some(shape);
        self
    }

    /// Run L1 → L2 → L3 until every goal is met.
    ///
    /// All levels share one [`psa_rsg::ShapeCtx`], and through it one
    /// interner, subsumption memo, and transfer memo: the canonical forms
    /// and subsumption verdicts computed at L1 are re-hit when L2/L3
    /// re-analyze the same code (graph properties only grow with the level,
    /// so lower-level shapes recur verbatim early in the higher-level fixed
    /// point). Transfer memo entries are keyed by a config epoch that
    /// includes the level — a transfer is only replayed at the level that
    /// computed it — but a re-run at the *same* level (e.g. a goal re-check)
    /// answers every transfer from the cache.
    pub fn run(&self) -> ProgressiveOutcome {
        let mut outcome = ProgressiveOutcome {
            levels: Vec::new(),
            satisfied_at: None,
        };
        let mut level = Level::L1;
        let shape = self
            .shape
            .clone()
            .unwrap_or_else(|| psa_rsg::ShapeCtx::from_ir(self.ir));
        loop {
            shape.tables.tracer.instant(
                psa_rsg::TraceKind::LevelStart,
                crate::trace::level_ordinal(level),
                0,
            );
            let config = EngineConfig {
                level,
                ..self.base_config.clone()
            };
            let result = Engine::with_shape_ctx(self.ir, config, shape.clone()).run();
            // A cancelled (partial) result has not reached the fixed point:
            // its RSRSGs under-approximate the real one, so goals must not
            // be evaluated against it — the driver escalates instead.
            let complete = matches!(&result, Ok(res) if res.is_complete());
            let goals_met: Vec<bool> = match &result {
                Ok(res) if complete => self.goals.iter().map(|g| g.met(self.ir, res)).collect(),
                _ => Vec::new(),
            };
            let all_met = complete
                && (self.goals.is_empty()
                    || (!goals_met.is_empty() && goals_met.iter().all(|&m| m)));
            outcome.levels.push(LevelOutcome {
                level,
                result,
                goals_met,
            });
            if all_met {
                outcome.satisfied_at = Some(level);
                return outcome;
            }
            match level.next() {
                Some(next) => level = next,
                None => return outcome,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_cfront::parse_and_type;
    use psa_ir::lower_program;

    const SLL: &str = r#"
        struct node { int v; struct node *nxt; };
        int main() {
            struct node *list; struct node *p; int i;
            list = NULL;
            for (i = 0; i < 9; i++) {
                p = (struct node *) malloc(sizeof(struct node));
                p->nxt = list;
                list = p;
            }
            return 0;
        }
    "#;

    #[test]
    fn no_goals_stops_at_l1() {
        let (p, t) = parse_and_type(SLL).unwrap();
        let ir = lower_program(&p, &t, "main").unwrap();
        let outcome = ProgressiveRunner::new(&ir, vec![]).run();
        assert_eq!(outcome.satisfied_at, Some(Level::L1));
        assert_eq!(outcome.levels.len(), 1);
    }

    #[test]
    fn satisfiable_goal_stops_at_l1() {
        let (p, t) = parse_and_type(SLL).unwrap();
        let ir = lower_program(&p, &t, "main").unwrap();
        let list = ir.pvar_id("list").unwrap();
        let outcome =
            ProgressiveRunner::new(&ir, vec![Goal::NotSharedInRegion { pvar: list }]).run();
        assert_eq!(outcome.satisfied_at, Some(Level::L1));
    }

    #[test]
    fn unsatisfiable_goal_escalates_to_l3() {
        // Genuine sharing can never be analyzed away: the driver tries all
        // three levels and reports no satisfying level.
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *a; struct node *b; struct node *c;
                a = (struct node *) malloc(sizeof(struct node));
                b = (struct node *) malloc(sizeof(struct node));
                c = (struct node *) malloc(sizeof(struct node));
                a->nxt = c;
                b->nxt = c;
                return 0;
            }
        "#;
        let (p, t) = parse_and_type(src).unwrap();
        let ir = lower_program(&p, &t, "main").unwrap();
        let a = ir.pvar_id("a").unwrap();
        let outcome = ProgressiveRunner::new(&ir, vec![Goal::NotSharedInRegion { pvar: a }]).run();
        assert_eq!(outcome.satisfied_at, None);
        assert_eq!(outcome.levels.len(), 3, "all three levels attempted");
        assert!(outcome.best().is_some());
    }

    #[test]
    fn partial_results_do_not_satisfy_goals() {
        // A zero deadline cancels every level: no level may claim the
        // goals are met (even the empty goal list), and best() surfaces a
        // partial result only because nothing completed.
        let (p, t) = parse_and_type(SLL).unwrap();
        let ir = lower_program(&p, &t, "main").unwrap();
        let cfg = EngineConfig {
            budget: crate::stats::Budget {
                deadline: Some(std::time::Duration::ZERO),
                ..crate::stats::Budget::default()
            },
            ..EngineConfig::default()
        };
        let outcome = ProgressiveRunner::new(&ir, vec![]).with_config(cfg).run();
        assert_eq!(outcome.satisfied_at, None);
        assert_eq!(outcome.levels.len(), 3, "driver escalates past partials");
        assert!(outcome.best().is_some_and(|r| !r.is_complete()));
    }

    #[test]
    fn goal_descriptions_render() {
        let (p, t) = parse_and_type(SLL).unwrap();
        let ir = lower_program(&p, &t, "main").unwrap();
        let list = ir.pvar_id("list").unwrap();
        let nxt = ir.types.selector_id("nxt").unwrap();
        let g = Goal::NotShselInRegion {
            pvar: list,
            sel: nxt,
        };
        assert!(g.describe(&ir).contains("nxt"));
        assert!(g.describe(&ir).contains("list"));
    }
}
