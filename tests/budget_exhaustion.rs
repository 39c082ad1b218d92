//! Budget-exhaustion behaviour end to end: every cap trips individually,
//! degraded output stays sound, cancellation leaves no poisoned shared
//! state, and — crucially — an *unset* budget is perfectly inert (results
//! bit-identical to an unbudgeted run on the paper codes).

use psa::codes::{barnes_hut, sparse_lu, sparse_matvec, table1_codes, Sizes};
use psa::core::api::{AnalysisOptions, Analyzer};
use psa::core::engine::{AnalysisError, BudgetKind, Engine, EngineConfig};
use psa::core::memsafe::{memory_report, nodes_dropped_in_graph, MemCheck, MemVerdict};
use psa::core::stats::Budget;
use psa::rsg::Level;
use std::time::Duration;

fn analyzer_with_budget(src: &str, budget: Budget) -> Analyzer {
    Analyzer::new(
        src,
        AnalysisOptions {
            budget,
            ..AnalysisOptions::default()
        },
    )
    .expect("paper code lowers")
}

/// With no degradation cap set, the budget layer must not perturb the
/// analysis: exit and per-statement RSRSGs are identical to a plain run on
/// every paper code.
#[test]
fn unset_budgets_are_bit_identical_on_paper_codes() {
    for (name, src) in table1_codes(Sizes::default()) {
        let plain = Analyzer::new(&src, AnalysisOptions::default())
            .expect("lowers")
            .run_at(Level::L1)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let huge = Budget {
            max_nodes: Some(1 << 20),
            max_rsgs: Some(1 << 20),
            deadline: Some(Duration::from_secs(3600)),
            ..Budget::default()
        };
        let capped = analyzer_with_budget(&src, huge)
            .run_at(Level::L1)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(capped.is_complete(), "{name}");
        assert!(!capped.any_degraded(), "{name}");
        assert!(plain.exit.same_as(&capped.exit), "{name}: exit differs");
        for (i, (a, b)) in plain.after_stmt.iter().zip(&capped.after_stmt).enumerate() {
            assert!(a.same_as(b), "{name}: after_stmt[{i}] differs");
        }
    }
}

/// Barnes-Hut at L3 under a low node cap: the run completes (no panic, no
/// cancellation), the affected statements are marked degraded, and every
/// retained RSG either respects the cap or sits at the sound k-limiting
/// floor — pvar-pointed singletons (the singularity invariant forbids
/// merging them) plus at most one summary per struct type.
#[test]
fn barnes_hut_l3_completes_under_node_cap() {
    const CAP: usize = 6;
    let budget = Budget {
        max_nodes: Some(CAP),
        ..Budget::default()
    };
    let res = analyzer_with_budget(&barnes_hut(Sizes::default()), budget)
        .run_at(Level::L3)
        .expect("node cap degrades, never errors");
    assert!(res.is_complete(), "forced summarization must not cancel");
    assert!(
        res.any_degraded(),
        "a {CAP}-node cap must coarsen the octree"
    );
    assert!(!res.exit.is_empty());
    let mut over_cap_at_floor = 0usize;
    for (i, s) in res.after_stmt.iter().enumerate() {
        for g in s.iter() {
            if g.num_nodes() <= CAP {
                continue;
            }
            // Over the cap: no further sound merge may exist, i.e. all
            // non-pointed nodes carry pairwise-distinct struct types.
            over_cap_at_floor += 1;
            let pointed: std::collections::BTreeSet<_> = g.pl_iter().map(|(_, n)| n).collect();
            let mut seen_types = std::collections::BTreeSet::new();
            for n in g.node_ids() {
                if pointed.contains(&n) {
                    continue;
                }
                assert!(
                    seen_types.insert(g.node(n).ty),
                    "after_stmt[{i}]: an over-cap RSG ({} nodes, cap {CAP}) still \
                     holds two mergeable non-pointed nodes",
                    g.num_nodes()
                );
            }
        }
    }
    // The cap must have had teeth somewhere.
    assert!(
        res.degraded_stmts().count() > 0 || over_cap_at_floor > 0,
        "cap never tripped"
    );
}

/// Regression for the memory client's degradation discipline: under a
/// node cap that forces summarization on Barnes-Hut, every verdict on a
/// budget-degraded statement is a `may_fail` flagged `degraded` — never a
/// `safe` or `violation` claim, never a leak claim with evidence. Degraded
/// state is sound but too coarse to certify anything.
#[test]
fn node_capped_barnes_hut_withholds_claims_on_degraded_statements() {
    let budget = Budget {
        max_nodes: Some(6),
        ..Budget::default()
    };
    let a = analyzer_with_budget(&barnes_hut(Sizes::default()), budget);
    let res = a
        .run_at(Level::L3)
        .expect("node cap degrades, never errors");
    assert!(res.any_degraded(), "cap must bite for this regression test");

    let mem = memory_report(a.ir(), &res);
    assert!(mem.inconclusive.is_none(), "completed run is conclusive");
    let mut degraded_sites = 0;
    for site in &mem.sites {
        if res.degraded[site.stmt.0 as usize] {
            degraded_sites += 1;
            assert!(site.degraded, "{}: degraded flag missing", site.stmt);
            assert_eq!(
                site.verdict,
                MemVerdict::MayFail,
                "{}: {} claim on a degraded statement",
                site.stmt,
                site.verdict.name()
            );
        } else {
            assert!(!site.degraded, "{}: spurious degraded flag", site.stmt);
        }
    }
    assert!(degraded_sites > 0, "some degraded statement is checked");
}

/// A budget-stopped (not merely degraded) run yields an inconclusive
/// memory report with zero sites — never-visited statements have empty
/// RSRSGs that mean "not analyzed", not "unreachable", and a partial
/// result under-approximates: no leak, no crash, no `safe` claim.
#[test]
fn stopped_run_leak_report_is_inconclusive_with_no_claims() {
    let budget = Budget {
        deadline: Some(Duration::ZERO),
        ..Budget::default()
    };
    let a = analyzer_with_budget(&barnes_hut(Sizes::default()), budget);
    let res = a.run_at(Level::L1).expect("deadline stops softly");
    assert!(res.stopped.is_some(), "zero deadline must stop the engine");
    let rep = memory_report(a.ir(), &res);
    assert!(rep.inconclusive.is_some());
    assert!(rep.sites.is_empty(), "{rep}");
}

/// Differential check on the leak verdicts' arithmetic: the drop count in
/// every rebind leak site's detail must equal a direct recomputation from
/// the statement's fixed-point inputs (`AnalysisResult::input_at`), so the
/// report can never go stale against the engine's stored states.
#[test]
fn leak_drop_counts_match_direct_recomputation() {
    let src = r#"
        struct node { int v; struct node *nxt; };
        int main() {
            struct node *list; struct node *p; int i;
            list = NULL;
            for (i = 0; i < 6; i++) {
                p = (struct node *) malloc(sizeof(struct node));
                p->nxt = list;
                list = p;
            }
            p = NULL;
            list = NULL;
            return 0;
        }
    "#;
    let a = Analyzer::new(src, AnalysisOptions::default()).unwrap();
    let res = a.run_at(Level::L1).unwrap();
    let rep = memory_report(a.ir(), &res);
    let ir = a.ir();
    let mut checked = 0;
    for site in rep.flagged().filter(|s| s.check == MemCheck::Leak) {
        let reported: usize = site
            .detail
            .split("may drop up to ")
            .nth(1)
            .and_then(|rest| rest.split(' ').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("{}: no drop count in `{}`", site.stmt, site.detail));
        let (bid, pos) = ir
            .blocks
            .iter()
            .enumerate()
            .find_map(|(bi, b)| {
                b.stmts
                    .iter()
                    .position(|&s| s == site.stmt)
                    .map(|pos| (psa::ir::BlockId(bi as u32), pos))
            })
            .expect("leak site is in some block");
        let info = ir.stmt(site.stmt);
        let x = match info.stmt {
            psa::ir::Stmt::Ptr(psa::ir::PtrStmt::Nil(x))
            | psa::ir::Stmt::Ptr(psa::ir::PtrStmt::Malloc(x, _))
            | psa::ir::Stmt::Ptr(psa::ir::PtrStmt::Load(x, _, _))
            | psa::ir::Stmt::Ptr(psa::ir::PtrStmt::Copy(x, _)) => x,
            _ => panic!("leak site is not a rebind"),
        };
        let recomputed = res
            .input_at(ir, bid, pos)
            .iter()
            .map(|g| nodes_dropped_in_graph(&info.stmt, g, x))
            .max()
            .unwrap_or(0);
        assert_eq!(
            reported, recomputed,
            "{}: reported drop count diverges from recomputation",
            site.stmt
        );
        checked += 1;
    }
    assert!(checked > 0, "the head drop must be reported: {rep}");
}

/// A 1 ms deadline on sparse LU yields a partial result, not an error and
/// not a panic.
#[test]
fn sparse_lu_millisecond_deadline_returns_partial() {
    let budget = Budget {
        deadline: Some(Duration::from_millis(1)),
        ..Budget::default()
    };
    let res = analyzer_with_budget(&sparse_lu(Sizes::default()), budget)
        .run_at(Level::L2)
        .expect("deadline is a soft cap");
    // The deadline fires somewhere inside the fixed point on any realistic
    // machine; if the box is impossibly fast the result is simply complete.
    if let Some(which) = res.stopped {
        assert!(matches!(which, BudgetKind::Deadline { limit_ms: 1 }));
        assert!(res.any_degraded(), "pending statements are marked");
    }
}

#[test]
fn rsg_cap_stops_matvec_softly() {
    let budget = Budget {
        max_rsgs: Some(1),
        ..Budget::default()
    };
    let res = analyzer_with_budget(&sparse_matvec(Sizes::default()), budget)
        .run_at(Level::L1)
        .expect("RSG cap is a soft cap");
    assert!(matches!(
        res.stopped,
        Some(BudgetKind::Rsgs { limit: 1, .. })
    ));
    assert!(res.any_degraded());
}

/// A stopped run marks every statement it cannot vouch for: the pending
/// blocks and everything downstream of them, including the statements the
/// run never reached, whose empty RSRSGs would otherwise read as
/// "unreachable". The statements before the first loop ran to their fixed
/// point and stay unmarked.
#[test]
fn rsg_capped_matvec_marks_every_unreached_statement() {
    let budget = Budget {
        max_rsgs: Some(1),
        ..Budget::default()
    };
    let res = analyzer_with_budget(&sparse_matvec(Sizes::default()), budget)
        .run_at(Level::L1)
        .expect("RSG cap is a soft cap");
    assert!(res.stopped.is_some());
    let mut empty = 0;
    for (i, s) in res.after_stmt.iter().enumerate() {
        if s.is_empty() {
            empty += 1;
            assert!(res.degraded[i], "st{i} holds no graph but is unmarked");
        }
    }
    assert!(empty > 0, "the cap must stop matvec before its end");
    assert!(
        !res.degraded[0] && !res.degraded[1],
        "st0 and st1 are final"
    );
}

/// The hard byte cap stays an error (Table 1's OOM semantics), now through
/// the typed taxonomy.
#[test]
fn hard_byte_cap_is_a_typed_error() {
    let budget = Budget {
        max_bytes: Some(1),
        ..Budget::default()
    };
    let err = analyzer_with_budget(&sparse_matvec(Sizes::default()), budget)
        .run_at(Level::L1)
        .expect_err("1 structural byte cannot hold an RSRSG");
    assert!(matches!(
        err,
        AnalysisError::BudgetExceeded {
            which: BudgetKind::Bytes { limit: 1, .. },
            ..
        }
    ));
}

/// Deadline cancellation leaves the shared tables usable: a fresh engine on
/// the same `ShapeCtx` (exactly what the progressive driver does) reaches
/// the full fixed point afterwards.
#[test]
fn deadline_cancellation_leaves_shared_state_clean() {
    let (program, table) = psa::cfront::parse_and_type(&sparse_matvec(Sizes::default())).unwrap();
    let ir = psa::ir::lower_program(&program, &table, "main").unwrap();
    let cancelled_cfg = EngineConfig {
        budget: Budget {
            deadline: Some(Duration::ZERO),
            ..Budget::default()
        },
        ..EngineConfig::at_level(Level::L1)
    };
    let engine = Engine::new(&ir, cancelled_cfg);
    let partial = engine.run().unwrap();
    assert!(matches!(partial.stopped, Some(BudgetKind::Deadline { .. })));

    let full = Engine::with_shape_ctx(&ir, EngineConfig::at_level(Level::L1), engine.ctx().clone())
        .run()
        .unwrap();
    assert!(full.is_complete());
    assert!(!full.any_degraded());
    assert!(!full.exit.is_empty());
}
