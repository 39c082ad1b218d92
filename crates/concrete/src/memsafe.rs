//! Differential validation of the memory-safety checker: every abstract
//! **`Safe`** and **`Violation`** claim must survive concrete execution.
//!
//! A `MayFail` is never refutable (the admitted fault may live on a path
//! no seed drives). The other two verdicts are *proof claims*, and a
//! concrete execution contradicting one is an analyzer bug, reported as a
//! mismatch:
//!
//! * `Safe` — a concrete execution faulting at a statement the checker
//!   called safe, or leaking a cell at a rebind the checker called
//!   leak-safe, refutes it.
//! * `Violation` — every execution reaching the statement faults there.
//!   A root-frame trace point at the statement means the interpreter ran
//!   it without faulting, which refutes a null-deref, use-after-free or
//!   double-free violation there.

use crate::heap::Loc;
use crate::interp::{execute, ExecOutcome, ExecResult, InterpConfig};
use psa_core::engine::{Engine, EngineConfig};
use psa_core::memsafe::{memory_report, MemCheck, MemReport, MemVerdict};
use psa_ir::StmtId;
use std::collections::BTreeSet;

/// Outcome of one memory-safety differential check.
#[derive(Debug, Default)]
pub struct MemDiffReport {
    /// Executions performed.
    pub runs: usize,
    /// Concrete faults observed (null-deref / UAF / double-free), per run.
    pub concrete_faults: usize,
    /// Concrete leak events observed (cells that became unreachable while
    /// still allocated), across all runs.
    pub concrete_leaks: usize,
    /// Descriptions of refuted `Safe` and `Violation` claims (empty =
    /// validated).
    pub mismatches: Vec<String>,
    /// `Some(reason)` when the analysis stopped on a budget: the abstract
    /// report carries no claims, so nothing was validated.
    pub inconclusive: Option<String>,
}

impl MemDiffReport {
    /// True when analysis completed and no claim was refuted.
    pub fn is_validated(&self) -> bool {
        self.inconclusive.is_none() && self.mismatches.is_empty()
    }
}

/// Map a faulting concrete outcome to the abstract check it refutes.
fn fault_check(outcome: &ExecOutcome) -> Option<(StmtId, MemCheck)> {
    match *outcome {
        ExecOutcome::NullDeref(s) => Some((s, MemCheck::NullDeref)),
        ExecOutcome::UseAfterFree(s) => Some((s, MemCheck::UseAfterFree)),
        ExecOutcome::DoubleFree(s) => Some((s, MemCheck::DoubleFree)),
        ExecOutcome::Returned | ExecOutcome::StepBudget => None,
    }
}

/// Analyze `src`, build the abstract memory report, then execute under
/// `seeds` and refute `Safe` claims against observed faults and leaks and
/// `Violation` claims against statements that ran without faulting.
///
/// # Panics
/// On frontend errors (inputs are test programs). Budget-stopped analyses
/// are reported as inconclusive, not checked.
pub fn check_memory(
    src: &str,
    config: EngineConfig,
    interp: InterpConfig,
    seeds: &[u64],
) -> MemDiffReport {
    let (program, table) = psa_cfront::parse_and_type(src).expect("memsafe input parses");
    let ir = psa_ir::lower_program(&program, &table, "main").expect("memsafe input lowers");

    let result = match Engine::new(&ir, config).run() {
        Ok(r) => r,
        Err(e) => {
            return MemDiffReport {
                inconclusive: Some(format!("analysis failed: {e}")),
                ..MemDiffReport::default()
            };
        }
    };
    let abs = memory_report(&ir, &result);
    validate_memory_report(&ir, &abs, interp, seeds)
}

/// Validate an already-built abstract memory report against executions of
/// `ir` under `seeds` (on top of the base config `interp`), for a caller
/// with an analysis in hand that must not re-run the engine. An
/// inconclusive report executes nothing.
pub fn validate_memory_report(
    ir: &psa_ir::FuncIr,
    abs: &MemReport,
    interp: InterpConfig,
    seeds: &[u64],
) -> MemDiffReport {
    let execs = match abs.inconclusive {
        None => execute(ir, &interp, seeds),
        Some(_) => Vec::new(),
    };
    validate_memory_on(ir, abs, &execs)
}

/// [`validate_memory_report`] over seeded executions already in hand (see
/// [`execute`]): the memory oracle of the fuzzing farm and of the CLI's
/// `--check`, which share their runs with the other oracles.
pub fn validate_memory_on(
    ir: &psa_ir::FuncIr,
    abs: &MemReport,
    execs: &[(u64, ExecResult)],
) -> MemDiffReport {
    let mut report = MemDiffReport::default();
    if let Some(reason) = &abs.inconclusive {
        report.inconclusive = Some(reason.clone());
        return report;
    }
    // Statements claimed to fault on every execution that reaches them.
    let must_fault: BTreeSet<StmtId> = abs
        .sites
        .iter()
        .filter(|s| s.verdict == MemVerdict::Violation && s.check != MemCheck::Leak)
        .map(|s| s.stmt)
        .collect();

    for &(seed, ref exec) in execs {
        report.runs += 1;
        if let Some((sid, check)) = fault_check(&exec.outcome) {
            report.concrete_faults += 1;
            refute_safe(abs, sid, check, seed, ir, &mut report.mismatches);
        }

        // Leak events: cells that turned unreachable-but-allocated between
        // consecutive trace points, attributed to the statement executed.
        let mut prev_leaked: BTreeSet<Loc> = BTreeSet::new();
        let mut ran_clean: BTreeSet<StmtId> = BTreeSet::new();
        for point in &exec.trace {
            if must_fault.contains(&point.stmt) {
                ran_clean.insert(point.stmt);
            }
            let now: BTreeSet<Loc> = point.state.leaked().into_iter().collect();
            let fresh = now.difference(&prev_leaked).count();
            if fresh > 0 {
                report.concrete_leaks += fresh;
                refute_safe(
                    abs,
                    point.stmt,
                    MemCheck::Leak,
                    seed,
                    ir,
                    &mut report.mismatches,
                );
            }
            prev_leaked = now;
        }
        for sid in ran_clean {
            report.mismatches.push(format!(
                "seed {seed}: {sid} ({}) ran without faulting, refuting abstract `violation` claim",
                psa_ir::pretty::stmt(ir, &ir.stmt(sid).stmt),
            ));
        }
    }
    report
}

/// If the abstract report claims `Safe` at (`sid`, `check`), the concrete
/// observation refutes it — record the mismatch.
fn refute_safe(
    abs: &MemReport,
    sid: StmtId,
    check: MemCheck,
    seed: u64,
    ir: &psa_ir::FuncIr,
    mismatches: &mut Vec<String>,
) {
    if abs.verdict_at(sid, check) == Some(MemVerdict::Safe) {
        mismatches.push(format!(
            "seed {seed}: concrete {} at {} ({}) refutes abstract `safe` claim",
            check.name(),
            sid,
            psa_ir::pretty::stmt(ir, &ir.stmt(sid).stmt),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_rsg::Level;

    fn check(src: &str) -> MemDiffReport {
        check_memory(
            src,
            EngineConfig::at_level(Level::L2),
            InterpConfig::default(),
            &[1, 2, 3],
        )
    }

    #[test]
    fn clean_free_chain_validates() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *list; struct node *p; int i;
                list = NULL;
                for (i = 0; i < 5; i++) {
                    p = (struct node *) malloc(sizeof(struct node));
                    p->nxt = list;
                    list = p;
                }
                while (list != NULL) {
                    p = list;
                    list = list->nxt;
                    free(p);
                }
                return 0;
            }
        "#;
        let rep = check(src);
        assert!(rep.is_validated(), "{:#?}", rep.mismatches);
        assert_eq!(rep.concrete_faults, 0);
    }

    #[test]
    fn concrete_uaf_is_observed_and_abstract_agrees() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *p;
                p = (struct node *) malloc(sizeof(struct node));
                free(p);
                p->v = 1;
                return 0;
            }
        "#;
        let rep = check(src);
        // The interpreter faults; the abstract checker flags it too, so the
        // safe-claim validation still passes.
        assert!(rep.concrete_faults > 0);
        assert!(rep.is_validated(), "{:#?}", rep.mismatches);
    }

    #[test]
    fn concrete_double_free_is_observed() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *a; struct node *b;
                a = (struct node *) malloc(sizeof(struct node));
                b = a;
                free(a);
                free(b);
                return 0;
            }
        "#;
        let rep = check(src);
        assert!(rep.concrete_faults > 0, "alias double-free must fault");
        assert!(rep.is_validated(), "{:#?}", rep.mismatches);
    }

    #[test]
    fn concrete_leak_is_observed() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *p;
                p = (struct node *) malloc(sizeof(struct node));
                p = NULL;
                return 0;
            }
        "#;
        let rep = check(src);
        assert!(
            rep.concrete_leaks > 0,
            "dropped cell must register as leaked"
        );
        assert!(rep.is_validated(), "{:#?}", rep.mismatches);
    }

    #[test]
    fn forged_violation_at_an_executed_statement_is_refuted() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *p;
                p = (struct node *) malloc(sizeof(struct node));
                p->v = 1;
                free(p);
                return 0;
            }
        "#;
        let (program, table) = psa_cfront::parse_and_type(src).unwrap();
        let ir = psa_ir::lower_program(&program, &table, "main").unwrap();
        let result = Engine::new(&ir, EngineConfig::at_level(Level::L1))
            .run()
            .unwrap();
        let mut abs = memory_report(&ir, &result);
        let honest = validate_memory_report(&ir, &abs, InterpConfig::default(), &[1]);
        assert!(honest.is_validated(), "{:#?}", honest.mismatches);

        // `p->v = 1` dereferences a fresh cell: every run executes it.
        let store = abs
            .sites
            .iter_mut()
            .find(|s| s.check == MemCheck::NullDeref)
            .expect("the store is null-deref checked");
        assert_eq!(store.verdict, MemVerdict::Safe);
        store.verdict = MemVerdict::Violation;
        let forged = validate_memory_report(&ir, &abs, InterpConfig::default(), &[1, 2]);
        assert_eq!(forged.mismatches.len(), 2, "{:#?}", forged.mismatches);
        assert!(
            forged.mismatches[0].contains("refuting abstract `violation` claim"),
            "{:#?}",
            forged.mismatches
        );
    }

    #[test]
    fn budget_stop_is_inconclusive() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *p;
                p = (struct node *) malloc(sizeof(struct node));
                free(p);
                return 0;
            }
        "#;
        let config = EngineConfig {
            budget: psa_core::stats::Budget {
                deadline: Some(std::time::Duration::ZERO),
                ..psa_core::stats::Budget::default()
            },
            ..EngineConfig::at_level(Level::L1)
        };
        let rep = check_memory(src, config, InterpConfig::default(), &[1]);
        assert!(rep.inconclusive.is_some());
        assert!(!rep.is_validated());
    }
}
