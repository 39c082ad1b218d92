//! Memory-safety verdicts — the "subsequent analysis" client that reads
//! leaks and crashes off the per-statement RSRSGs (next to loop
//! parallelization): per-statement **null-dereference**,
//! **use-after-free**, **double-free** and **leak** verdicts, each
//! three-valued like the assertion verdicts.
//!
//! # Verdict lattice
//!
//! * [`MemVerdict::Safe`] — proven on the fixed point: no execution
//!   reaching the statement can fault here. Claimed only from facts the
//!   over-approximation can prove (see each check below) and only on
//!   non-degraded statements of a completed analysis.
//! * [`MemVerdict::MayFail`] — the abstraction admits a faulting
//!   configuration (or the statement is degraded and nothing is provable).
//! * [`MemVerdict::Violation`] — every represented configuration faults:
//!   the statement crashes on all executions that reach it.
//!
//! # The four checks
//!
//! * **Null-deref** (at `x->sel = …`, `… = x->sel`, scalar stores): NULL
//!   is PL-absence, so `pl(x)` across the input RSRSG decides — bound in
//!   all graphs ⇒ `Safe`, in none ⇒ `Violation`, otherwise `MayFail`.
//! * **Use-after-free / double-free**: a forward dataflow over the CFG
//!   tracking *possibly-dangling* (may, union-join) and
//!   *definitely-dangling* (must, intersection-join) pvars plus a sticky
//!   *heap-taint* bit. `free(x)` marks `x` and — using per-graph PL
//!   equality on the input RSRSG — every may-alias of `x`; when the freed
//!   node has heap in-links in some graph, the taint bit is raised and
//!   every subsequent `Load` result is possibly dangling (a dangling
//!   pointer may sit in a heap field). Rebinding (`NULL`, `malloc`) clears
//!   a pvar; `x = y` copies `y`'s status. A dereference of a
//!   possibly-dangling pvar is a `MayFail`, of a definitely-dangling one a
//!   `Violation`; `free` of one is the double-free analogue.
//! * **Leak** (at non-temp rebinds): per input graph, the nodes
//!   exclusively reachable through the rebound pvar
//!   ([`nodes_dropped_in_graph`]). Dropped nodes in some graph ⇒
//!   `MayFail`. `Safe` is claimed only when provable — `x` NULL in every
//!   graph, so nothing can be dropped. A rebind that drops nothing
//!   but has `x` possibly bound gets **no verdict**: may-edges
//!   over-approximate reachability, so "still reachable elsewhere" in the
//!   abstraction is not a proof that the concrete cell is.
//!
//! # Degradation discipline
//!
//! A budget-*stopped* analysis under-approximates: the whole report is
//! inconclusive and carries no verdicts at all. A completed analysis with
//! [`crate::engine::AnalysisResult::degraded`] statements downgrades every
//! verdict on those statements to `MayFail` (never `Safe`, never
//! `Violation`), marking the site so clients can tell "proven may-fail"
//! from "unproven because coarsened".

use crate::engine::AnalysisResult;
use crate::queries::reachable_from;
use crate::rsrsg::Rsrsg;
use psa_ir::{BlockId, FuncIr, PtrStmt, PvarId, Stmt, StmtId};
use std::collections::BTreeSet;

/// Three-valued per-statement verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MemVerdict {
    /// Proven safe on the fixed point.
    Safe,
    /// A faulting configuration is admitted (or nothing is provable).
    MayFail,
    /// Every represented configuration faults.
    Violation,
}

impl MemVerdict {
    /// Stable lowercase name (report/JSON key).
    pub fn name(&self) -> &'static str {
        match self {
            MemVerdict::Safe => "safe",
            MemVerdict::MayFail => "may_fail",
            MemVerdict::Violation => "violation",
        }
    }
}

/// Which memory-safety property a site checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MemCheck {
    /// Dereference of a NULL pointer.
    NullDeref,
    /// Dereference of a freed cell.
    UseAfterFree,
    /// `free` of an already-freed cell.
    DoubleFree,
    /// Heap cells made unreachable without `free`.
    Leak,
}

impl MemCheck {
    /// All checks, report order.
    pub const ALL: [MemCheck; 4] = [
        MemCheck::NullDeref,
        MemCheck::UseAfterFree,
        MemCheck::DoubleFree,
        MemCheck::Leak,
    ];

    /// Stable kebab-case name (report/JSON key).
    pub fn name(&self) -> &'static str {
        match self {
            MemCheck::NullDeref => "null-deref",
            MemCheck::UseAfterFree => "use-after-free",
            MemCheck::DoubleFree => "double-free",
            MemCheck::Leak => "leak",
        }
    }
}

/// One checked site: a statement × check with its verdict.
#[derive(Debug, Clone)]
pub struct MemSite {
    /// The checked statement.
    pub stmt: StmtId,
    /// Which property was checked.
    pub check: MemCheck,
    /// The verdict.
    pub verdict: MemVerdict,
    /// Rendered statement.
    pub rendered: String,
    /// Human-readable evidence (why this verdict).
    pub detail: String,
    /// True when the verdict was downgraded because the statement's RSRSG
    /// is degraded (force-summarized or stale under a budget).
    pub degraded: bool,
}

/// Per-check verdict counts (`[check][verdict]` in the order of
/// [`MemCheck::ALL`] × safe/may-fail/violation).
pub type MemCounts = [[usize; 3]; 4];

/// The memory-safety report.
#[derive(Debug, Clone, Default)]
pub struct MemReport {
    /// Every checked site with its verdict (including `Safe` — the
    /// differential harness validates the `Safe` and `Violation` claims).
    pub sites: Vec<MemSite>,
    /// `Some(reason)` when the analysis stopped on a budget before its
    /// fixed point: no verdicts are derivable from the partial result.
    pub inconclusive: Option<String>,
}

impl MemReport {
    /// The verdict recorded for `stmt` under `check`, if that site was
    /// checked. Absence of a site is *no claim*, not a `Safe` claim.
    pub fn verdict_at(&self, stmt: StmtId, check: MemCheck) -> Option<MemVerdict> {
        self.sites
            .iter()
            .find(|s| s.stmt == stmt && s.check == check)
            .map(|s| s.verdict)
    }

    /// Counts per `[check][verdict]`.
    pub fn counts(&self) -> MemCounts {
        let mut c = MemCounts::default();
        for s in &self.sites {
            let ci = MemCheck::ALL.iter().position(|k| *k == s.check).unwrap();
            let vi = match s.verdict {
                MemVerdict::Safe => 0,
                MemVerdict::MayFail => 1,
                MemVerdict::Violation => 2,
            };
            c[ci][vi] += 1;
        }
        c
    }

    /// Sites whose verdict is not `Safe`.
    pub fn flagged(&self) -> impl Iterator<Item = &MemSite> {
        self.sites.iter().filter(|s| s.verdict != MemVerdict::Safe)
    }

    /// Number of `Violation` verdicts.
    pub fn num_violations(&self) -> usize {
        self.sites
            .iter()
            .filter(|s| s.verdict == MemVerdict::Violation)
            .count()
    }
}

impl std::fmt::Display for MemReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(reason) = &self.inconclusive {
            return writeln!(f, "memory report inconclusive: {reason}");
        }
        let c = self.counts();
        for (i, check) in MemCheck::ALL.iter().enumerate() {
            writeln!(
                f,
                "{:>14}: {} safe, {} may-fail, {} violation",
                check.name(),
                c[i][0],
                c[i][1],
                c[i][2]
            )?;
        }
        for s in self.flagged() {
            writeln!(
                f,
                "{} {} at {}: {}{}{}",
                s.check.name(),
                s.verdict.name(),
                s.stmt,
                s.rendered,
                if s.detail.is_empty() { "" } else { " — " },
                s.detail
            )?;
        }
        Ok(())
    }
}

/// Dangling-pointer dataflow state at one program point.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DanglingState {
    /// Pvars that *may* hold a pointer to a freed cell.
    may: BTreeSet<PvarId>,
    /// Pvars that *must* hold a pointer to a freed cell (⊆ `may`).
    must: BTreeSet<PvarId>,
    /// A freed cell may be referenced from a heap field: every `Load`
    /// result is possibly dangling from here on. Sticky.
    taint: bool,
}

impl DanglingState {
    fn empty() -> DanglingState {
        DanglingState {
            may: BTreeSet::new(),
            must: BTreeSet::new(),
            taint: false,
        }
    }

    /// Join (CFG merge): may ∪, must ∩, taint ∨.
    fn join(&mut self, other: &DanglingState) -> bool {
        let before = self.clone();
        self.may.extend(other.may.iter().copied());
        self.must = self.must.intersection(&other.must).copied().collect();
        self.taint |= other.taint;
        *self != before
    }
}

/// Build the memory-safety report for a finished analysis.
pub fn memory_report(ir: &FuncIr, result: &AnalysisResult) -> MemReport {
    let mut report = MemReport::default();
    if let Some(which) = &result.stopped {
        report.inconclusive = Some(format!("analysis stopped early: {which}"));
        return report;
    }

    let dangling = dangling_fixpoint(ir, result);

    for (bi, block) in ir.blocks.iter().enumerate() {
        let bid = BlockId(bi as u32);
        let Some(entry) = dangling[bi].clone() else {
            // Block unreachable in the dangling CFG walk (and hence in the
            // shape fixed point): nothing executes here, nothing to check.
            continue;
        };
        let mut st = entry;
        for (pos, &sid) in block.stmts.iter().enumerate() {
            let pre = result.input_at(ir, bid, pos);
            let degraded = result.degraded[sid.0 as usize];
            let call_info = result.stats.call_sites.get(&sid.0);
            check_stmt(ir, sid, pre, &st, degraded, call_info, &mut report.sites);
            transfer_dangling(ir, sid, pre, &mut st);
        }
    }
    report
}

/// Run the dangling dataflow to its fixed point; returns each block's
/// entry state (`None` = unreached).
fn dangling_fixpoint(ir: &FuncIr, result: &AnalysisResult) -> Vec<Option<DanglingState>> {
    let mut states: Vec<Option<DanglingState>> = vec![None; ir.blocks.len()];
    states[ir.entry.0 as usize] = Some(DanglingState::empty());
    let mut work: Vec<BlockId> = vec![ir.entry];
    while let Some(b) = work.pop() {
        let Some(mut st) = states[b.0 as usize].clone() else {
            continue;
        };
        let block = ir.block(b);
        for (pos, &sid) in block.stmts.iter().enumerate() {
            let pre = result.input_at(ir, b, pos);
            transfer_dangling(ir, sid, pre, &mut st);
        }
        for succ in block.term.successors() {
            let slot = &mut states[succ.0 as usize];
            let changed = match slot {
                Some(cur) => cur.join(&st),
                None => {
                    *slot = Some(st.clone());
                    true
                }
            };
            if changed {
                work.push(succ);
            }
        }
    }
    states
}

/// One statement's effect on the dangling state. `pre` is the statement's
/// input RSRSG on the shape fixed point, consulted for PL-equality
/// aliasing and heap in-links at `free` sites.
fn transfer_dangling(ir: &FuncIr, sid: StmtId, pre: &Rsrsg, st: &mut DanglingState) {
    match &ir.stmt(sid).stmt {
        Stmt::Free(x) => {
            let x = *x;
            let mut bound_somewhere = false;
            let mut bound_everywhere = !pre.is_empty();
            let mut aliases_may: BTreeSet<PvarId> = BTreeSet::new();
            let mut aliases_must: Option<BTreeSet<PvarId>> = None;
            for g in pre.iter() {
                match g.pl(x) {
                    None => bound_everywhere = false,
                    Some(n) => {
                        bound_somewhere = true;
                        let mut here = BTreeSet::new();
                        for (q, m) in g.pl_iter() {
                            if q != x && m == n {
                                aliases_may.insert(q);
                                here.insert(q);
                            }
                        }
                        aliases_must = Some(match aliases_must.take() {
                            None => here,
                            Some(acc) => acc.intersection(&here).copied().collect(),
                        });
                        // A heap in-link into the freed node means a heap
                        // field may keep referencing the freed cell.
                        if !g.in_links(n).is_empty() {
                            st.taint = true;
                        }
                    }
                }
            }
            if bound_somewhere {
                st.may.insert(x);
                st.may.extend(aliases_may.iter().copied());
            }
            if bound_everywhere {
                st.must.insert(x);
                for q in aliases_must.unwrap_or_default() {
                    st.must.insert(q);
                }
            }
        }
        Stmt::Ptr(PtrStmt::Nil(x)) | Stmt::Ptr(PtrStmt::Malloc(x, _)) => {
            st.may.remove(x);
            st.must.remove(x);
        }
        Stmt::Ptr(PtrStmt::Copy(x, y)) => {
            if st.may.contains(y) {
                st.may.insert(*x);
            } else {
                st.may.remove(x);
            }
            if st.must.contains(y) {
                st.must.insert(*x);
            } else {
                st.must.remove(x);
            }
        }
        Stmt::Ptr(PtrStmt::Load(x, _, _)) => {
            // The loaded value comes from a heap field: dangling only when
            // a freed cell may be referenced from the heap.
            if st.taint {
                st.may.insert(*x);
            } else {
                st.may.remove(x);
            }
            st.must.remove(x);
        }
        Stmt::Ptr(PtrStmt::Store(_, _, y)) => {
            // Storing a possibly-dangling pointer plants it in the heap.
            if st.may.contains(y) {
                st.taint = true;
            }
        }
        Stmt::Call(c) => {
            // A callee that (transitively) contains `free` may free any
            // cell reachable from the caller's heap: conservatively taint
            // the heap and mark every pvar possibly dangling.
            let may_free = ir
                .callees
                .get(c.callee as usize)
                .is_some_and(|f| f.may_free);
            if may_free {
                st.taint = true;
                for i in 0..ir.num_pvars() {
                    st.may.insert(PvarId(i as u32));
                }
                st.must.clear();
            }
            if let Some(dest) = c.ret_ptr {
                // The returned pointer comes out of the callee's heap
                // traffic: dangling only under taint, like a `Load`.
                if st.taint {
                    st.may.insert(dest);
                } else {
                    st.may.remove(&dest);
                }
                st.must.remove(&dest);
            }
        }
        Stmt::Ptr(PtrStmt::StoreNil(_, _))
        | Stmt::ScalarStore(_, _)
        | Stmt::ScalarConst(_, _)
        | Stmt::ScalarHavoc(_, _)
        | Stmt::Scalar(_) => {}
    }
}

/// Emit the verdicts for one statement given its input RSRSG and dangling
/// state. Degraded statements downgrade everything to `MayFail`.
fn check_stmt(
    ir: &FuncIr,
    sid: StmtId,
    pre: &Rsrsg,
    st: &DanglingState,
    degraded: bool,
    call_info: Option<&crate::stats::CallSiteInfo>,
    sites: &mut Vec<MemSite>,
) {
    let info = ir.stmt(sid);
    // An empty input on a completed analysis means the statement is
    // unreachable — there is nothing to fault.
    if pre.is_empty() && !degraded {
        return;
    }
    let rendered = psa_ir::pretty::stmt(ir, &info.stmt);
    let mut push = |check: MemCheck, verdict: MemVerdict, detail: String| {
        let (verdict, detail) = if degraded {
            (
                MemVerdict::MayFail,
                "statement degraded under a budget; nothing provable".to_string(),
            )
        } else {
            (verdict, detail)
        };
        sites.push(MemSite {
            stmt: sid,
            check,
            verdict,
            rendered: rendered.clone(),
            detail,
            degraded,
        });
    };

    // The dereferenced base pvar, if this statement dereferences one.
    let deref_base = match &info.stmt {
        Stmt::Ptr(PtrStmt::StoreNil(x, _)) | Stmt::Ptr(PtrStmt::Store(x, _, _)) => Some(*x),
        Stmt::Ptr(PtrStmt::Load(_, y, _)) => Some(*y),
        Stmt::ScalarStore(x, _) => Some(*x),
        _ => None,
    };
    if let Some(base) = deref_base {
        let bound = pre.iter().filter(|g| g.pl(base).is_some()).count();
        let total = pre.len();
        let name = ir.pvar_name(base);
        let verdict = if bound == 0 {
            MemVerdict::Violation
        } else if bound < total {
            MemVerdict::MayFail
        } else {
            MemVerdict::Safe
        };
        let detail = match verdict {
            MemVerdict::Safe => format!("`{name}` is non-NULL in all {total} input graphs"),
            MemVerdict::MayFail => {
                format!(
                    "`{name}` is NULL in {} of {total} input graphs",
                    total - bound
                )
            }
            MemVerdict::Violation => format!("`{name}` is NULL in every input graph"),
        };
        push(MemCheck::NullDeref, verdict, detail);

        let (verdict, detail) = dangling_verdict(st, base, name);
        push(MemCheck::UseAfterFree, verdict, detail);
    }

    if let Stmt::Free(x) = &info.stmt {
        let (verdict, detail) = dangling_verdict(st, *x, ir.pvar_name(*x));
        push(MemCheck::DoubleFree, verdict, detail);
    }

    // Call sites surface the callee summary's soundness flags. No `Safe`
    // is ever claimed here: the summary's warning bit covers pointer
    // loads/stores but not every callee-internal fault class, and a claim
    // the differential harness could refute is worse than no claim.
    if let (Stmt::Call(_), Some(ci)) = (&info.stmt, call_info) {
        if ci.warned {
            push(
                MemCheck::NullDeref,
                MemVerdict::MayFail,
                format!("callee `{}` may dereference NULL", ci.callee),
            );
        }
        if ci.may_leak {
            push(
                MemCheck::Leak,
                MemVerdict::MayFail,
                format!("callee `{}` may drop unreachable cells", ci.callee),
            );
        }
    }

    // Leak verdicts at non-temp rebinds (including a call's discarded old
    // return-destination binding).
    let rebinds = match info.stmt {
        Stmt::Ptr(PtrStmt::Nil(x))
        | Stmt::Ptr(PtrStmt::Malloc(x, _))
        | Stmt::Ptr(PtrStmt::Load(x, _, _))
        | Stmt::Ptr(PtrStmt::Copy(x, _)) => Some(x),
        Stmt::Call(ref c) => c.ret_ptr,
        _ => None,
    };
    if let Some(x) = rebinds {
        if !ir.pvar(x).is_temp {
            let max_dropped = pre
                .iter()
                .map(|g| nodes_dropped_in_graph(&info.stmt, g, x))
                .max()
                .unwrap_or(0);
            let never_bound = pre.iter().all(|g| g.pl(x).is_none());
            if max_dropped > 0 {
                push(
                    MemCheck::Leak,
                    MemVerdict::MayFail,
                    format!(
                        "rebinding `{}` may drop up to {max_dropped} node(s)",
                        ir.pvar_name(x)
                    ),
                );
            } else if never_bound {
                // Provably nothing to drop: x is NULL in every graph.
                push(
                    MemCheck::Leak,
                    MemVerdict::Safe,
                    format!("`{}` is NULL in every input graph", ir.pvar_name(x)),
                );
            }
            // Bound somewhere but nothing dropped: may-edges make the
            // "kept alive elsewhere" evidence unsound as a proof — no
            // claim either way.
        }
    }
}

/// Nodes of one input graph `g` that the rebind of `x` by `stmt` makes
/// unreachable: `x`'s old region minus everything reachable through the
/// other pvars or the statement's new root. The leak check's kernel, also
/// used by the differential recomputation test.
pub fn nodes_dropped_in_graph(stmt: &Stmt, g: &psa_rsg::Rsg, x: PvarId) -> usize {
    let Some(old) = g.pl(x) else { return 0 };
    let region = reachable_from(g, old);
    let mut reachable_elsewhere = BTreeSet::new();
    for (p, root) in g.pl_iter() {
        if p == x {
            continue;
        }
        reachable_elsewhere.extend(reachable_from(g, root));
    }
    // x = x->sel / x = y: the new binding also keeps its region alive.
    let new_root = match *stmt {
        Stmt::Ptr(PtrStmt::Copy(_, y)) => g.pl(y),
        Stmt::Ptr(PtrStmt::Load(_, y, sel)) => g.pl(y).and_then(|ny| g.succs(ny, sel).first()),
        _ => None,
    };
    if let Some(nr) = new_root {
        reachable_elsewhere.extend(reachable_from(g, nr));
    }
    region
        .iter()
        .filter(|n| !reachable_elsewhere.contains(n))
        .count()
}

/// UAF/double-free verdict for using pvar `p` under dangling state `st`.
fn dangling_verdict(st: &DanglingState, p: PvarId, name: &str) -> (MemVerdict, String) {
    if st.must.contains(&p) {
        (
            MemVerdict::Violation,
            format!("`{name}` points to a freed cell on every path"),
        )
    } else if st.may.contains(&p) {
        (
            MemVerdict::MayFail,
            format!("`{name}` may point to a freed cell"),
        )
    } else if st.taint {
        (
            MemVerdict::Safe,
            format!("`{name}` is never loaded from tainted heap"),
        )
    } else {
        (
            MemVerdict::Safe,
            format!("no freed cell can reach `{name}`"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{AnalysisOptions, Analyzer};
    use crate::stats::Budget;

    fn analyze(src: &str) -> (Analyzer, AnalysisResult) {
        let a = Analyzer::new(src, AnalysisOptions::default()).unwrap();
        let r = a.run().unwrap();
        (a, r)
    }

    fn verdicts_of(src: &str, check: MemCheck) -> Vec<MemVerdict> {
        let (a, r) = analyze(src);
        let rep = memory_report(a.ir(), &r);
        rep.sites
            .iter()
            .filter(|s| s.check == check)
            .map(|s| s.verdict)
            .collect()
    }

    #[test]
    fn clean_list_is_all_safe() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *list; struct node *p; int i;
                list = NULL;
                for (i = 0; i < 4; i++) {
                    p = (struct node *) malloc(sizeof(struct node));
                    p->nxt = list;
                    list = p;
                }
                p = list;
                while (p != NULL) { p = p->nxt; }
                return 0;
            }
        "#;
        let (a, r) = analyze(src);
        let rep = memory_report(a.ir(), &r);
        assert!(rep.inconclusive.is_none());
        assert_eq!(rep.num_violations(), 0, "{rep}");
        assert!(
            rep.sites
                .iter()
                .filter(|s| s.check == MemCheck::UseAfterFree)
                .all(|s| s.verdict == MemVerdict::Safe),
            "{rep}"
        );
        assert!(rep.flagged().all(|s| s.check != MemCheck::Leak), "{rep}");
    }

    #[test]
    fn definite_null_deref_is_a_violation() {
        // The crash site is the violation; nothing after it is reached, so
        // the following rebind carries no verdict at all.
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *p;
                p = NULL;
                p->nxt = NULL;
                p = (struct node *) malloc(sizeof(struct node));
                return 0;
            }
        "#;
        let (a, r) = analyze(src);
        let rep = memory_report(a.ir(), &r);
        let crash = rep
            .sites
            .iter()
            .find(|s| s.verdict == MemVerdict::Violation)
            .unwrap_or_else(|| panic!("definite NULL dereference: {rep}"));
        assert_eq!(crash.check, MemCheck::NullDeref, "{rep}");
        assert!(
            rep.sites.iter().all(|s| s.stmt <= crash.stmt),
            "statements after a certain crash get no verdict: {rep}"
        );
    }

    #[test]
    fn use_after_free_is_flagged() {
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
        let vs = verdicts_of(src, MemCheck::UseAfterFree);
        assert!(vs.contains(&MemVerdict::Violation), "{vs:?}");
    }

    #[test]
    fn double_free_is_flagged() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *p;
                p = (struct node *) malloc(sizeof(struct node));
                free(p);
                free(p);
                return 0;
            }
        "#;
        let (a, r) = analyze(src);
        let rep = memory_report(a.ir(), &r);
        let df: Vec<_> = rep
            .sites
            .iter()
            .filter(|s| s.check == MemCheck::DoubleFree)
            .collect();
        assert_eq!(df.len(), 2, "{rep}");
        assert_eq!(df[0].verdict, MemVerdict::Safe, "first free is fine");
        assert_eq!(df[1].verdict, MemVerdict::Violation, "second free faults");
    }

    #[test]
    fn free_of_alias_flags_the_other_pvar() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *a; struct node *b;
                a = (struct node *) malloc(sizeof(struct node));
                b = a;
                free(a);
                b->v = 1;
                return 0;
            }
        "#;
        let vs = verdicts_of(src, MemCheck::UseAfterFree);
        assert!(
            vs.contains(&MemVerdict::Violation) || vs.contains(&MemVerdict::MayFail),
            "use through the alias must be flagged: {vs:?}"
        );
    }

    #[test]
    fn conditional_free_is_may_fail_not_violation() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *p; int c;
                p = (struct node *) malloc(sizeof(struct node));
                if (c > 0) { free(p); }
                p->v = 1;
                return 0;
            }
        "#;
        let vs = verdicts_of(src, MemCheck::UseAfterFree);
        assert!(vs.contains(&MemVerdict::MayFail), "{vs:?}");
        assert!(!vs.contains(&MemVerdict::Violation), "{vs:?}");
    }

    #[test]
    fn dangling_pointer_through_heap_is_caught() {
        // free(x) while y->nxt still points at the cell, then reload it.
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *x; struct node *y; struct node *z;
                y = (struct node *) malloc(sizeof(struct node));
                x = (struct node *) malloc(sizeof(struct node));
                y->nxt = x;
                free(x);
                z = y->nxt;
                z->v = 1;
                return 0;
            }
        "#;
        let (a, r) = analyze(src);
        let rep = memory_report(a.ir(), &r);
        let z = a.ir().pvar_id("z").unwrap();
        let bad = rep.sites.iter().any(|s| {
            s.check == MemCheck::UseAfterFree
                && s.verdict != MemVerdict::Safe
                && matches!(a.ir().stmt(s.stmt).stmt, Stmt::ScalarStore(p, _) if p == z)
        });
        assert!(bad, "deref of heap-recovered dangling pointer: {rep}");
    }

    #[test]
    fn free_then_null_then_fresh_malloc_is_safe_again() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *p;
                p = (struct node *) malloc(sizeof(struct node));
                free(p);
                p = (struct node *) malloc(sizeof(struct node));
                p->v = 1;
                free(p);
                return 0;
            }
        "#;
        let (a, r) = analyze(src);
        let rep = memory_report(a.ir(), &r);
        assert_eq!(rep.num_violations(), 0, "{rep}");
        assert!(
            rep.sites
                .iter()
                .filter(|s| s.check != MemCheck::Leak)
                .all(|s| s.verdict == MemVerdict::Safe),
            "rebinding clears the dangling mark: {rep}"
        );
    }

    #[test]
    fn leak_site_is_may_fail() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *p;
                p = (struct node *) malloc(sizeof(struct node));
                p = NULL;
                return 0;
            }
        "#;
        let (a, r) = analyze(src);
        let rep = memory_report(a.ir(), &r);
        assert!(
            rep.sites
                .iter()
                .any(|s| s.check == MemCheck::Leak && s.verdict == MemVerdict::MayFail),
            "{rep}"
        );
    }

    #[test]
    fn dropping_the_only_head_reference_is_flagged() {
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
                list = NULL;   /* whole list leaks here */
                return 0;
            }
        "#;
        let (a, r) = analyze(src);
        let rep = memory_report(a.ir(), &r);
        assert!(
            rep.flagged()
                .any(|s| s.check == MemCheck::Leak && s.rendered.contains("list = NULL")),
            "{rep}"
        );
    }

    #[test]
    fn rebinding_with_other_references_is_not_flagged() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *a; struct node *b;
                a = (struct node *) malloc(sizeof(struct node));
                b = a;
                a = NULL;   /* b still holds it: no leak */
                return 0;
            }
        "#;
        let (an, r) = analyze(src);
        let rep = memory_report(an.ir(), &r);
        assert!(rep.flagged().all(|s| s.check != MemCheck::Leak), "{rep}");
    }

    #[test]
    fn freed_then_nulled_does_not_leak() {
        // free(p); p = NULL — the cell is freed, not leaked; and the NULL
        // rebind of an always-NULL pvar elsewhere is provably leak-safe.
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *p; struct node *q;
                q = NULL;
                p = (struct node *) malloc(sizeof(struct node));
                free(p);
                p = NULL;
                q = NULL;
                return 0;
            }
        "#;
        let (a, r) = analyze(src);
        let rep = memory_report(a.ir(), &r);
        // q = NULL with q always NULL: provably safe.
        assert!(
            rep.sites
                .iter()
                .any(|s| s.check == MemCheck::Leak && s.verdict == MemVerdict::Safe),
            "{rep}"
        );
    }

    #[test]
    fn stopped_analysis_is_inconclusive_with_no_sites() {
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
        let a = Analyzer::new(
            src,
            AnalysisOptions {
                budget: Budget {
                    deadline: Some(std::time::Duration::ZERO),
                    ..Budget::default()
                },
                ..AnalysisOptions::default()
            },
        )
        .unwrap();
        let r = a.run().unwrap();
        assert!(r.stopped.is_some());
        let rep = memory_report(a.ir(), &r);
        assert!(rep.inconclusive.is_some());
        assert!(rep.sites.is_empty(), "no claims from a partial result");
    }

    #[test]
    fn degraded_statements_never_claim_safe() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *list; struct node *p; int i;
                list = NULL;
                for (i = 0; i < 8; i++) {
                    p = (struct node *) malloc(sizeof(struct node));
                    p->nxt = list;
                    list = p;
                }
                free(list);
                return 0;
            }
        "#;
        let a = Analyzer::new(
            src,
            AnalysisOptions {
                budget: Budget {
                    max_nodes: Some(2),
                    ..Budget::default()
                },
                ..AnalysisOptions::default()
            },
        )
        .unwrap();
        let r = a.run().unwrap();
        assert!(r.is_complete(), "node cap completes");
        let rep = memory_report(a.ir(), &r);
        for s in &rep.sites {
            if s.degraded {
                assert_eq!(
                    s.verdict,
                    MemVerdict::MayFail,
                    "degraded {} site at {} must be may-fail: {rep}",
                    s.check.name(),
                    s.stmt
                );
            }
        }
    }
}
