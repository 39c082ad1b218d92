//! Loop-parallelism client — the paper's "subsequent analysis \[that\] can
//! state that the tree can be traversed and updated in parallel" (§5.1,
//! listed as future work in §6).
//!
//! For every loop, the client inspects the RSRSGs at its heap-writing
//! statements and decides whether distinct iterations can write the same
//! location. The criterion reconstructs the paper's reasoning:
//!
//! * a loop with **no heap writes** (pointer stores or scalar stores through
//!   pointers) is trivially parallelizable;
//! * a heap write through pvar `x` is **iteration-private** when, in every
//!   graph at that statement, the written node is either not SHARED at all,
//!   or is distinguished as *the current element* of this loop's traversal —
//!   it carries a TOUCH mark of one of the loop's induction pointers while
//!   the rest of the structure does not (this is exactly what L3's TOUCH
//!   property adds over L2: the stack may still reference the unvisited part
//!   of the octree, but the node being updated is provably the one the
//!   cursor just reached);
//! * otherwise the write may conflict across iterations and the loop is
//!   reported sequential, with the offending statements as reasons.
//!
//! Like every other client, the verdict obeys the degradation rule: a run
//! that stopped early ([`AnalysisResult::stopped`]) reports every loop
//! sequential, and a degraded statement in the loop body
//! ([`AnalysisResult::degraded`]) blocks the claim.

use crate::engine::AnalysisResult;
use psa_ir::{FuncIr, LoopId, PtrStmt, PvarId, Stmt, StmtId};

/// Verdict for one loop.
#[derive(Debug, Clone)]
pub struct LoopReport {
    /// Which loop.
    pub loop_id: LoopId,
    /// Induction pointers of the loop.
    pub ipvars: Vec<PvarId>,
    /// Heap-writing statements found in the body.
    pub heap_writes: Vec<StmtId>,
    /// The verdict.
    pub parallelizable: bool,
    /// Human-readable blockers (empty when parallelizable).
    pub reasons: Vec<String>,
}

/// Analyze every loop of `ir` against `result`.
pub fn loop_reports(ir: &FuncIr, result: &AnalysisResult) -> Vec<LoopReport> {
    (0..ir.loops.len())
        .map(|i| loop_report(ir, result, LoopId(i as u32)))
        .collect()
}

/// Analyze a single loop.
pub fn loop_report(ir: &FuncIr, result: &AnalysisResult, l: LoopId) -> LoopReport {
    let ipvars = ir.loops[l.0 as usize].ipvars.clone();
    let mut heap_writes = Vec::new();
    let mut reasons = Vec::new();
    // A partial fixed point under-approximates the loop's states, so no
    // write-set argument over it is sound.
    if let Some(which) = &result.stopped {
        reasons.push(format!("analysis stopped early: {which}"));
    }

    for (idx, info) in ir.stmts.iter().enumerate() {
        if !info.loops.contains(&l) {
            continue;
        }
        let sid = StmtId(idx as u32);
        // On a stopped run most of the body is stale; the stop reason
        // above already covers it.
        if result.stopped.is_none() && result.degraded[idx] {
            reasons.push(format!(
                "{sid}: degraded by a budget cap; its RSRSG cannot vouch for the loop"
            ));
        }
        // A call inside the loop body may read and write arbitrary heap
        // reachable from its arguments; without a per-callee effect
        // analysis that disqualifies the loop outright.
        if let Stmt::Call(c) = &info.stmt {
            let callee = ir
                .callees
                .get(c.callee as usize)
                .map(|f| f.name.as_str())
                .unwrap_or("?");
            heap_writes.push(sid);
            reasons.push(format!(
                "{sid}: calls `{callee}`, which may touch heap shared across iterations"
            ));
            continue;
        }
        let written: Option<PvarId> = match &info.stmt {
            Stmt::Ptr(PtrStmt::Store(x, _, _)) | Stmt::Ptr(PtrStmt::StoreNil(x, _)) => Some(*x),
            Stmt::ScalarStore(x, _) => Some(*x),
            _ => None,
        };
        let Some(x) = written else { continue };
        heap_writes.push(sid);

        // A write is iteration-private when the target is provably unshared,
        // or when (at L3) the written pvar is one of this loop's traversal
        // cursors and the whole traversal is revisit-free: TOUCH marks every
        // visited element, loop-entry marking covers the starting element,
        // and any return to a marked element is recorded in
        // `stats.revisits`. Sharing from outside the iteration space (e.g.
        // the Barnes-Hut octree referenced by the traversal stack) then
        // cannot produce a cross-iteration write conflict.
        let cursor_write =
            result.level.use_touch() && ipvars.contains(&x) && !result.stats.revisits.contains(&x);
        if cursor_write {
            continue;
        }
        let rsrsg = result.at(sid);
        for g in rsrsg.iter() {
            let Some(n) = g.pl(x) else { continue };
            let nd = g.node(n);
            if nd.shared {
                reasons.push(format!(
                    "{}: writes through `{}` whose target may be shared",
                    sid,
                    ir.pvar_name(x)
                ));
                break;
            }
        }
    }

    // Deduplicate while preserving first-occurrence (statement) order:
    // the reasons were generated by walking `ir.stmts` in program order
    // and sorting them would re-order blockers away from source order.
    let mut seen = std::collections::HashSet::new();
    reasons.retain(|r| seen.insert(r.clone()));
    LoopReport {
        loop_id: l,
        ipvars,
        heap_writes,
        parallelizable: reasons.is_empty(),
        reasons,
    }
}

impl std::fmt::Display for LoopReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "loop {}: {} (ipvars: {}, heap writes: {})",
            self.loop_id,
            if self.parallelizable {
                "PARALLELIZABLE"
            } else {
                "sequential"
            },
            self.ipvars.len(),
            self.heap_writes.len()
        )?;
        for r in &self.reasons {
            writeln!(f, "  blocked by {r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use psa_cfront::parse_and_type;
    use psa_ir::lower_program;
    use psa_rsg::Level;

    fn analyze(src: &str, level: Level) -> (FuncIr, AnalysisResult) {
        let (p, t) = parse_and_type(src).unwrap();
        let ir = lower_program(&p, &t, "main").unwrap();
        let res = Engine::new(&ir, EngineConfig::at_level(level))
            .run()
            .unwrap();
        (ir, res)
    }

    #[test]
    fn readonly_traversal_is_parallel() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *list; struct node *p; int i; int s;
                list = NULL;
                for (i = 0; i < 9; i++) {
                    p = (struct node *) malloc(sizeof(struct node));
                    p->nxt = list;
                    list = p;
                }
                p = list;
                while (p != NULL) {
                    s = s + p->v;
                    p = p->nxt;
                }
                return 0;
            }
        "#;
        let (ir, res) = analyze(src, Level::L1);
        let reports = loop_reports(&ir, &res);
        // Loop 1 is the traversal: no heap writes at all.
        let traversal = &reports[1];
        assert!(traversal.heap_writes.is_empty());
        assert!(traversal.parallelizable);
    }

    #[test]
    fn unshared_update_traversal_is_parallel() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *list; struct node *p; int i;
                list = NULL;
                for (i = 0; i < 9; i++) {
                    p = (struct node *) malloc(sizeof(struct node));
                    p->nxt = list;
                    list = p;
                }
                p = list;
                while (p != NULL) {
                    p->v = 0;
                    p = p->nxt;
                }
                return 0;
            }
        "#;
        let (ir, res) = analyze(src, Level::L1);
        let reports = loop_reports(&ir, &res);
        let traversal = &reports[1];
        assert_eq!(traversal.heap_writes.len(), 1);
        assert!(
            traversal.parallelizable,
            "list nodes are unshared: updates are iteration-private; reasons: {:?}",
            traversal.reasons
        );
    }

    #[test]
    fn shared_target_update_is_sequential() {
        // Every list element points at a common hub through `dat`; the
        // traversal writes the hub each iteration.
        let src = r#"
            struct node { int v; struct node *nxt; struct node *dat; };
            int main() {
                struct node *list; struct node *p; struct node *hub; int i;
                hub = (struct node *) malloc(sizeof(struct node));
                list = NULL;
                for (i = 0; i < 9; i++) {
                    p = (struct node *) malloc(sizeof(struct node));
                    p->nxt = list;
                    p->dat = hub;
                    list = p;
                }
                p = list;
                while (p != NULL) {
                    p->dat->v = 1;
                    p = p->nxt;
                }
                return 0;
            }
        "#;
        let (ir, res) = analyze(src, Level::L1);
        let reports = loop_reports(&ir, &res);
        let traversal = &reports[1];
        assert!(
            !traversal.parallelizable,
            "writes land on the shared hub node"
        );
        assert!(!traversal.reasons.is_empty());
    }

    #[test]
    fn reasons_keep_statement_order() {
        // Two shared-target writes in one loop body, engineered so the
        // first write's statement id has one digit and the second's two:
        // the old `reasons.sort()` ordered "st10..." before "st9...",
        // breaking source order.
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *a; struct node *x; struct node *y; int i;
                a = (struct node *) malloc(sizeof(struct node));
                x = (struct node *) malloc(sizeof(struct node));
                y = (struct node *) malloc(sizeof(struct node));
                x->nxt = a;
                y->nxt = a;
                for (i = 0; i < 9; i++) {
                    x->nxt->v = 1;
                    i = i + 1;
                    i = i + 1;
                    i = i + 1;
                    i = i + 1;
                    i = i + 1;
                    i = i + 1;
                    i = i + 1;
                    i = i + 1;
                    y->nxt->v = 2;
                }
                return 0;
            }
        "#;
        let (ir, res) = analyze(src, Level::L1);
        let reports = loop_reports(&ir, &res);
        let r = &reports[0];
        assert!(!r.parallelizable);
        assert!(
            r.reasons.len() >= 2,
            "expected 2+ blockers: {:?}",
            r.reasons
        );
        let sids: Vec<u32> = r
            .reasons
            .iter()
            .map(|s| {
                s.trim_start_matches("st")
                    .split(':')
                    .next()
                    .unwrap()
                    .parse()
                    .unwrap()
            })
            .collect();
        assert!(
            sids.windows(2).all(|w| w[0] < w[1]),
            "reasons out of statement order: {sids:?}"
        );
        assert!(
            sids[0] < 10 && sids[sids.len() - 1] >= 10,
            "test needs ids straddling the 1/2-digit boundary to catch \
             lexical re-sorting, got {sids:?}"
        );
    }

    #[test]
    fn construction_loop_with_private_writes_is_parallelizable() {
        // The builder loop only writes the freshly malloc'd node.
        let src = r#"
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
        let (ir, res) = analyze(src, Level::L1);
        let reports = loop_reports(&ir, &res);
        assert!(reports[0].parallelizable);
        assert_eq!(reports[0].heap_writes.len(), 1);
    }

    /// A list builder followed by an in-place update traversal: both loops
    /// are parallel on a complete run.
    const BUILD_THEN_UPDATE: &str = r#"
        struct node { int v; struct node *nxt; };
        int main() {
            struct node *list; struct node *p; int i;
            list = NULL;
            for (i = 0; i < 9; i++) {
                p = (struct node *) malloc(sizeof(struct node));
                p->nxt = list;
                list = p;
            }
            p = list;
            while (p != NULL) {
                p->v = 0;
                p = p->nxt;
            }
            return 0;
        }
    "#;

    fn analyze_with_budget(level: Level, budget: crate::stats::Budget) -> (FuncIr, AnalysisResult) {
        let (p, t) = parse_and_type(BUILD_THEN_UPDATE).unwrap();
        let ir = lower_program(&p, &t, "main").unwrap();
        let config = EngineConfig {
            budget,
            ..EngineConfig::at_level(level)
        };
        let res = Engine::new(&ir, config).run().unwrap();
        (ir, res)
    }

    #[test]
    fn stopped_run_claims_no_loop_parallel() {
        let (ir, full) = analyze_with_budget(Level::L1, crate::stats::Budget::default());
        assert!(loop_reports(&ir, &full).iter().all(|r| r.parallelizable));

        let (ir, res) = analyze_with_budget(
            Level::L1,
            crate::stats::Budget {
                max_rsgs: Some(1),
                ..Default::default()
            },
        );
        assert!(res.stopped.is_some(), "a one-graph cap must stop the run");
        let reports = loop_reports(&ir, &res);
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert!(!r.parallelizable, "stopped run claimed {r}");
            assert!(
                r.reasons[0].starts_with("analysis stopped early: "),
                "{:?}",
                r.reasons
            );
        }
    }

    #[test]
    fn degraded_body_statement_blocks_the_claim() {
        let (ir, full) = analyze_with_budget(Level::L2, crate::stats::Budget::default());
        assert!(loop_reports(&ir, &full)[0].parallelizable);

        let (ir, res) = analyze_with_budget(
            Level::L2,
            crate::stats::Budget {
                max_nodes: Some(2),
                ..Default::default()
            },
        );
        assert!(res.stopped.is_none(), "forced summarization completes");
        let builder = LoopId(0);
        assert!(
            res.degraded_stmts()
                .any(|s| ir.stmt(s).loops.contains(&builder)),
            "the node cap must coarsen a builder statement"
        );
        let r = loop_report(&ir, &res, builder);
        assert!(!r.parallelizable, "degraded loop claimed {r}");
        assert!(
            r.reasons.iter().any(|s| s.contains("degraded")),
            "{:?}",
            r.reasons
        );
    }
}
