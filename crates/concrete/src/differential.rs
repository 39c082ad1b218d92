//! End-to-end differential soundness harness: analyze a program, execute it
//! concretely under several seeds, and check that the RSRSG at every
//! statement covers every concrete state observed there.

use crate::cover::{any_covers, violation};
use crate::heap::ConcreteState;
use crate::interp::{execute, ExecResult, InterpConfig};
use psa_core::engine::{AnalysisResult, Engine, EngineConfig};
use psa_core::rsrsg::Rsrsg;
use psa_ir::FuncIr;
use psa_rsg::Level;

/// Three-valued outcome of a differential check: a budget-stopped analysis
/// has proven nothing either way, and must be distinguishable from both a
/// pass and a genuine soundness violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffVerdict {
    /// Analysis completed and every checked point was covered.
    Pass,
    /// At least one concrete state was not covered by its RSRSG — an
    /// analyzer bug.
    Violation,
    /// The analysis was cancelled on a resource budget before its fixed
    /// point; the partial result under-approximates by construction, so no
    /// coverage was checked.
    Inconclusive,
}

/// Outcome of one differential check.
#[derive(Debug, Default)]
pub struct DifferentialReport {
    /// Executions performed.
    pub runs: usize,
    /// Trace points checked.
    pub checked_points: usize,
    /// Descriptions of soundness violations (empty = sound on these runs).
    pub violations: Vec<String>,
    /// How many runs crashed on a NULL dereference (their prefixes still
    /// count as checked points).
    pub crashed_runs: usize,
    /// `Some(reason)` when the analysis stopped on a budget cap before
    /// reaching its fixed point. Such runs are neither passes nor
    /// violations — nothing was checked.
    pub inconclusive: Option<String>,
}

impl DifferentialReport {
    /// True only for a full pass: fixed point reached, no violation. An
    /// inconclusive (budget-stopped) run is *not* sound — it is unchecked.
    pub fn is_sound(&self) -> bool {
        self.verdict() == DiffVerdict::Pass
    }

    /// The three-valued verdict. Violations dominate: a run that produced
    /// evidence of unsoundness stays a violation even if it also hit a
    /// budget later.
    pub fn verdict(&self) -> DiffVerdict {
        if !self.violations.is_empty() {
            DiffVerdict::Violation
        } else if self.inconclusive.is_some() {
            DiffVerdict::Inconclusive
        } else {
            DiffVerdict::Pass
        }
    }
}

/// Analyze `src` at `level` and validate against concrete executions driven
/// by `seeds`.
///
/// # Panics
/// On frontend errors (the inputs are test programs). An analysis that
/// aborts on a hard budget cap is inconclusive; any other analysis error is
/// surfaced as a violation entry, so a failing run does not silently pass.
pub fn check_soundness(src: &str, level: Level, seeds: &[u64]) -> DifferentialReport {
    check_soundness_with(src, EngineConfig::at_level(level), seeds)
}

/// [`check_soundness`] with full control over the engine configuration —
/// used to validate that budget-degraded (forced-summarization) results are
/// still sound over-approximations.
///
/// A *cancelled* (partial) result has not reached its fixed point and
/// under-approximates by construction; it is reported as **inconclusive**
/// rather than checked, so a budget that stops the engine is neither a
/// soundness pass nor folded into the violation count.
pub fn check_soundness_with(src: &str, config: EngineConfig, seeds: &[u64]) -> DifferentialReport {
    let (program, table) = psa_cfront::parse_and_type(src).expect("differential input parses");
    let ir = psa_ir::lower_program(&program, &table, "main").expect("differential input lowers");
    match Engine::new(&ir, config).run() {
        Ok(result) => {
            let execs = execute(&ir, &InterpConfig::default(), seeds);
            check_coverage(&ir, &result, &execs)
        }
        Err(e @ psa_core::engine::AnalysisError::BudgetExceeded { .. }) => DifferentialReport {
            inconclusive: Some(format!("analysis aborted on budget: {e}")),
            ..DifferentialReport::default()
        },
        Err(e) => DifferentialReport {
            violations: vec![format!("analysis failed: {e}")],
            ..DifferentialReport::default()
        },
    }
}

/// Check a finished analysis of `ir`: every concrete state reached by the
/// seeded executions `execs` (see [`execute`]) must be covered by the
/// RSRSG after its statement. A budget-stopped result is inconclusive and
/// not checked. The fuzzing farm executes with a reduced step budget:
/// generated programs can loop over cyclic structures until the cap, and
/// snapshotting a growing heap 20k times per run would dominate the batch.
pub fn check_coverage(
    ir: &FuncIr,
    result: &AnalysisResult,
    execs: &[(u64, ExecResult)],
) -> DifferentialReport {
    let level = result.level;
    let mut report = DifferentialReport::default();
    if let Some(which) = result.stopped {
        report.inconclusive = Some(format!("analysis stopped early: {which}"));
        return report;
    }

    for (seed, exec) in execs {
        report.runs += 1;
        if exec.outcome.fault_stmt().is_some() {
            report.crashed_runs += 1;
        }
        for point in &exec.trace {
            report.checked_points += 1;
            let rsrsg = result.at(point.stmt);
            if !any_covers(rsrsg.iter(), &point.state, level) {
                report.violations.push(format!(
                    "seed {seed}, after {} ({}): {} [{} graphs in RSRSG]",
                    point.stmt,
                    psa_ir::pretty::stmt(ir, &ir.stmt(point.stmt).stmt),
                    uncovered_reasons(rsrsg, &point.state, level),
                    rsrsg.len(),
                ));
                if report.violations.len() > 10 {
                    return report; // enough evidence
                }
            }
        }
    }
    report
}

/// Members whose mismatch an uncovered state's message spells out.
const MAX_REASONS: usize = 4;

/// Why no member of `rsrsg` covers `state`: each member's first mismatch,
/// for the first [`MAX_REASONS`] members, then how many members are left.
fn uncovered_reasons(rsrsg: &Rsrsg, state: &ConcreteState, level: Level) -> String {
    if rsrsg.is_empty() {
        return "empty RSRSG at a reached statement".to_string();
    }
    let mut why: Vec<String> = rsrsg
        .iter()
        .take(MAX_REASONS)
        .enumerate()
        .filter_map(|(i, g)| Some(format!("member {i}: {}", violation(g, state, level)?)))
        .collect();
    if rsrsg.len() > MAX_REASONS {
        why.push(format!("… and {} more", rsrsg.len() - MAX_REASONS));
    }
    why.join("; ")
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIST: &str = r#"
        struct node { int v; struct node *nxt; };
        int main() {
            struct node *list; struct node *p; int i;
            list = NULL;
            for (i = 0; i < 6; i++) {
                p = (struct node *) malloc(sizeof(struct node));
                p->nxt = list;
                list = p;
            }
            p = list;
            while (p != NULL) { p->v = 1; p = p->nxt; }
            return 0;
        }
    "#;

    #[test]
    fn list_program_is_sound_at_all_levels() {
        for level in Level::ALL {
            let rep = check_soundness(LIST, level, &[1, 2, 3]);
            assert!(
                rep.is_sound(),
                "level {level} violations: {:#?}",
                rep.violations
            );
            assert!(rep.checked_points > 10);
        }
    }

    #[test]
    fn dll_program_is_sound() {
        let src = psa_codes::generators::dll_program(6);
        for level in [Level::L1, Level::L3] {
            let rep = check_soundness(&src, level, &[5, 9]);
            assert!(rep.is_sound(), "{level}: {:#?}", rep.violations);
        }
    }

    #[test]
    fn tree_program_is_sound() {
        let src = psa_codes::generators::tree_program(7);
        let rep = check_soundness(&src, Level::L1, &[0, 1]);
        assert!(rep.is_sound(), "{:#?}", rep.violations);
    }

    #[test]
    fn crashing_program_prefix_is_checked() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *p;
                p = (struct node *) malloc(sizeof(struct node));
                p = p->nxt;
                p->nxt = NULL;
                return 0;
            }
        "#;
        let rep = check_soundness(src, Level::L1, &[0]);
        assert!(rep.is_sound(), "{:#?}", rep.violations);
        assert_eq!(rep.crashed_runs, 1);
        assert!(rep.checked_points >= 2);
    }

    #[test]
    fn node_capped_degraded_result_is_still_sound() {
        // Forced summarization coarsens the RSGs but must keep them
        // over-approximations of every concrete state, at every level: L3
        // compares TOUCH exactly, and the doubly-linked list gives the
        // k-limit members with differing SHARED/SHSEL to fold.
        let dll = include_str!("../../../tests/corpus/dll_fig1.c");
        for (name, src, cap) in [("list", LIST, 3), ("dll_fig1", dll, 5)] {
            for level in Level::ALL {
                let config = EngineConfig {
                    level,
                    budget: psa_core::stats::Budget {
                        max_nodes: Some(cap),
                        ..psa_core::stats::Budget::default()
                    },
                };
                let rep = check_soundness_with(src, config, &[1, 2, 3]);
                assert!(
                    rep.is_sound(),
                    "{name} at {level}, cap {cap}: {:#?}",
                    rep.violations
                );
                assert!(rep.checked_points > 10);
            }
        }
    }

    #[test]
    fn cancelled_partial_result_reports_not_passes() {
        let config = EngineConfig {
            budget: psa_core::stats::Budget {
                deadline: Some(std::time::Duration::ZERO),
                ..psa_core::stats::Budget::default()
            },
            ..EngineConfig::at_level(Level::L1)
        };
        let rep = check_soundness_with(LIST, config, &[1]);
        assert!(!rep.is_sound(), "partial result must not pass as sound");
        assert_eq!(rep.verdict(), DiffVerdict::Inconclusive);
        assert!(rep
            .inconclusive
            .as_deref()
            .unwrap()
            .contains("stopped early"));
    }

    #[test]
    fn budget_stop_is_not_a_violation() {
        // Regression: a budget-cancelled analysis used to be folded into
        // the violation count, inflating "unsound" tallies in batch runs.
        // It must be inconclusive: zero violations, zero checked points.
        let config = EngineConfig {
            budget: psa_core::stats::Budget {
                deadline: Some(std::time::Duration::ZERO),
                ..psa_core::stats::Budget::default()
            },
            ..EngineConfig::at_level(Level::L1)
        };
        let rep = check_soundness_with(LIST, config, &[1]);
        assert!(rep.violations.is_empty(), "{:#?}", rep.violations);
        assert_eq!(rep.checked_points, 0);
        assert_eq!(rep.verdict(), DiffVerdict::Inconclusive);
    }

    #[test]
    fn uncovered_state_names_every_members_mismatch() {
        // Replace the RSRSG after the last statement by members that each
        // miss the concrete state: the first on a scalar fact unrelated to
        // the heap, the second on the heap. The message names both.
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *p; int flag;
                flag = 1;
                p = (struct node *) malloc(sizeof(struct node));
                p->nxt = NULL;
                return 0;
            }
        "#;
        let (program, table) = psa_cfront::parse_and_type(src).unwrap();
        let ir = psa_ir::lower_program(&program, &table, "main").unwrap();
        let mut result = Engine::new(&ir, EngineConfig::at_level(Level::L1))
            .run()
            .unwrap();
        let execs = execute(&ir, &InterpConfig::default(), &[1]);
        let last = execs[0].1.trace.last().expect("a traced run").stmt;
        let covering = result.at(last).iter().next().unwrap().clone();
        let flag = ir.scalars.iter().position(|s| s == "flag").unwrap() as u32;
        let p = ir.pvars.iter().position(|v| v.name == "p").unwrap() as u32;
        let with_flag = |k: i64| {
            let mut g = covering.clone();
            g.set_scalar(flag, k);
            g
        };
        let mut heap_miss = covering.clone();
        let pn = heap_miss.pl(psa_ir::PvarId(p)).unwrap();
        heap_miss
            .node_mut(pn)
            .set_must_in(psa_cfront::types::SelectorId(0));

        let ctx = psa_rsg::ShapeCtx::from_ir(&ir);
        let mut two = Rsrsg::new();
        two.push_raw(with_flag(7), &ctx);
        two.push_raw(heap_miss.clone(), &ctx);
        result.after_stmt[last.0 as usize] = two;
        let rep = check_coverage(&ir, &result, &execs);
        assert_eq!(rep.violations.len(), 1, "{:#?}", rep.violations);
        let msg = &rep.violations[0];
        assert!(
            msg.contains("member 0: scalar sc") && msg.contains("but 7 abstractly"),
            "{msg}"
        );
        assert!(
            msg.contains("member 1: location") && msg.contains("admits no abstract node"),
            "{msg}"
        );
        assert!(msg.ends_with("[2 graphs in RSRSG]"), "{msg}");

        let mut six = Rsrsg::new();
        six.push_raw(with_flag(7), &ctx);
        six.push_raw(heap_miss, &ctx);
        for k in 8..12 {
            six.push_raw(with_flag(k), &ctx);
        }
        result.after_stmt[last.0 as usize] = six;
        let rep = check_coverage(&ir, &result, &execs);
        let msg = &rep.violations[0];
        assert!(msg.contains("member 3: scalar"), "{msg}");
        assert!(!msg.contains("member 4"), "{msg}");
        assert!(msg.contains("; … and 2 more [6 graphs in RSRSG]"), "{msg}");
    }

    #[test]
    fn random_programs_sound_sample() {
        for seed in 0..8u64 {
            let src = psa_codes::generators::random_program(seed, 18, 3);
            let rep = check_soundness(&src, Level::L1, &[seed, seed + 100]);
            assert!(
                rep.is_sound(),
                "generator seed {seed}: {:#?}\nprogram:\n{src}",
                rep.violations
            );
        }
    }
}
