//! Abstract semantics of the six simple pointer statements (§2), of the
//! loop-edge TOUCH and scalar edits, and of branch-condition refinement.
//!
//! Each statement transforms one RSG into a set of RSGs following the
//! pipeline of Fig. 2: *divide* (recover a single `x->sel` target per
//! graph) → *prune* (drop contradicted nodes/links) → *interpret*
//! (materializing summary targets into singular nodes first, Fig. 1(d)) →
//! sharing relaxation. The caller compresses and unions the results into
//! the output RSRSG.
//!
//! NULL-ness is encoded by PL absence, so `x->sel = …` on an unbound `x`
//! yields no output graph (the configuration crashes) and is reported as a
//! possible NULL dereference.

use crate::rsrsg::Rsrsg;
use crate::stats::AnalysisStats;
use psa_cfront::types::SelectorId;
use psa_ir::{Cond, PtrStmt, PvarId};
use psa_rsg::compress::compress;
use psa_rsg::divide::divide_with;
use psa_rsg::intern::{CanonEntry, TransferOutcome};
use psa_rsg::materialize::materialize;
use psa_rsg::prune::prune_with;
use psa_rsg::scratch;
use psa_rsg::trace::TraceKind;
use psa_rsg::{Level, NodeId, Rsg, ShapeCtx};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Per-statement transfer context.
pub struct TransferCtx<'a> {
    /// The analysis universe.
    pub ctx: &'a ShapeCtx,
    /// Current compilation level.
    pub level: Level,
    /// Induction pvars of the loops enclosing the current statement —
    /// the only pvars eligible for TOUCH (empty below L3).
    pub active_ipvars: &'a [PvarId],
    /// Route every PRUNE through the whole-graph rescan reference
    /// implementation instead of the worklist. Set only by the reference
    /// oracle ([`crate::engine::EngineConfig::reference`]); see
    /// [`psa_rsg::prune::prune_reference`].
    pub reference_prune: bool,
    /// Wall-clock point after which the per-graph fold loops stop
    /// transferring (see [`TransferCtx::deadline_passed`]); `None` (the
    /// default) disables the check entirely.
    pub deadline: Option<Instant>,
    /// The statement being transferred, used to attribute kernel trace
    /// spans to program points (`0` outside a statement context).
    pub stmt: u32,
}

impl<'a> TransferCtx<'a> {
    /// A default-configured context (worklist PRUNE, no deadline).
    pub fn new(ctx: &'a ShapeCtx, level: Level, active_ipvars: &'a [PvarId]) -> Self {
        TransferCtx {
            ctx,
            level,
            active_ipvars,
            reference_prune: false,
            deadline: None,
            stmt: 0,
        }
    }

    /// Has the deadline passed? The per-graph fold loops poll this between
    /// member graphs and stop at the first graph after it; the engine's
    /// post-statement deadline check then records the stop.
    pub fn deadline_passed(&self) -> bool {
        self.deadline.is_some_and(|dl| Instant::now() >= dl)
    }

    /// Should `x` be recorded in TOUCH sets here?
    fn touches(&self, x: PvarId) -> bool {
        self.level.use_touch() && self.active_ipvars.contains(&x)
    }

    /// Bump an op counter on the run-wide metrics tables.
    fn count(&self, counter: impl Fn(&psa_rsg::intern::OpMetrics) -> &AtomicU64) {
        counter(&self.ctx.tables.metrics).fetch_add(1, Ordering::Relaxed);
    }

    /// Prune through the configured implementation, as a traced span.
    fn prune(&self, g: &Rsg) -> Option<Rsg> {
        self.count(|m| &m.prune_calls);
        let tracer = &self.ctx.tables.tracer;
        let t0 = tracer.enabled().then(Instant::now);
        let out = prune_with(g, self.reference_prune);
        tracer.span_since(TraceKind::Prune, t0, self.stmt as u64, 0);
        out
    }

    /// Divide through the configured prune implementation, as a traced
    /// span.
    fn divide(&self, g: &Rsg, x: PvarId, sel: SelectorId) -> Vec<Rsg> {
        self.count(|m| &m.divide_calls);
        let tracer = &self.ctx.tables.tracer;
        let t0 = tracer.enabled().then(Instant::now);
        let out = divide_with(g, x, sel, self.reference_prune);
        tracer.span_since(TraceKind::Divide, t0, self.stmt as u64, 0);
        out
    }
}

/// Transfer one graph action over a whole RSRSG with no memo: every member
/// through `GraphAction::apply`, every output inserted (COMPRESS and the
/// reduction loop). This is the reference oracle's path for statements and
/// loop edges alike. Stops at the first member graph after the deadline,
/// like the engine's memoized fold (see [`crate::stats::Budget`]).
pub fn transfer_rsrsg(
    input: &Rsrsg,
    action: &GraphAction<'_>,
    tcx: &TransferCtx<'_>,
    stats: &mut AnalysisStats,
) -> Rsrsg {
    let mut out = Rsrsg::new();
    for g in input.iter() {
        if tcx.deadline_passed() {
            break;
        }
        for gi in action.apply(g, tcx, stats) {
            out.insert(gi, tcx.ctx, tcx.level);
        }
    }
    out
}

/// One per-graph abstract action, as the memoized transfer layer sees it:
/// a statement's, or a CFG edge's edit. Identity statements
/// (`Stmt::Scalar`, `Stmt::ScalarStore`, `Stmt::Free`) never reach this
/// layer — the engine passes the input set through unchanged.
#[derive(Debug, Clone, Copy)]
pub enum GraphAction<'a> {
    /// Pointer statement: the divide → prune → materialize → relaxation
    /// pipeline of Fig. 2.
    Ptr(&'a PtrStmt),
    /// Tracked-scalar update: set the scalar to a known constant, or clear
    /// it (havoc). Also the `ScalarEq` true edge, which learns the
    /// constant (narrowing is sound: the edge's configurations satisfy
    /// it).
    Scalar(psa_ir::ScalarId, Option<i64>),
    /// Loop-entry edge: mark the bound targets of these induction pvars as
    /// TOUCHED. The location a traversal cursor starts on is the first
    /// iteration's visited element; without the mark, a cyclic traversal
    /// that returns to its starting location would evade revisit
    /// detection.
    EnterTouch(&'a [PvarId]),
    /// Loop-exit edge: clear these induction pvars' TOUCH marks on every
    /// node ("after exiting a loop body the TOUCH information regarding
    /// the ipvars of this loop are not needed any more").
    ClearTouch(&'a [PvarId]),
}

impl GraphAction<'_> {
    /// The raw per-graph transfer (uncompressed outputs): the one
    /// implementation of every statement and edge edit.
    fn apply(&self, g: &Rsg, tcx: &TransferCtx<'_>, stats: &mut AnalysisStats) -> Vec<Rsg> {
        match *self {
            GraphAction::Ptr(stmt) => transfer_one(g, stmt, tcx, stats),
            GraphAction::Scalar(var, value) => {
                let mut g = g.clone();
                match value {
                    Some(k) => g.set_scalar(var.0, k),
                    None => g.clear_scalar(var.0),
                }
                vec![g]
            }
            GraphAction::EnterTouch(ipvars) => {
                let mut g = g.clone();
                for &p in ipvars {
                    if let Some(n) = g.pl(p) {
                        g.node_mut(n).touch.insert(p);
                    }
                }
                vec![g]
            }
            GraphAction::ClearTouch(ipvars) => {
                let mut g = g.clone();
                for n in g.node_ids().collect::<Vec<_>>() {
                    g.node_mut(n).touch.remove_all(ipvars);
                }
                vec![g]
            }
        }
    }
}

/// Memoized per-graph transfer: the `(config-epoch, slot, CanonId) →
/// interned outputs` map, for statements and loop-edge edits alike.
///
/// `slot` is the dense id [`psa_rsg::SharedTables::stmt_slot_for`] minted
/// from the statement's *content* (not its position), or from an edge
/// action's content under a key disjoint from every statement's, so identical
/// statements share memoized transfers across function versions and daemon
/// requests. Trace events still carry the positional statement index
/// (`tcx.stmt`) for human-facing timelines.
///
/// Outputs are compressed and interned *here*, so a memo hit shares the
/// interner's representative graphs (an `Arc` handle each, no arena copy)
/// and the caller inserts them through [`Rsrsg::insert_compressed`],
/// skipping both the pipeline and the COMPRESS. The miss path interns the
/// outputs in production order, so ids mint in that order. Warnings and
/// revisits observed on the miss are stored in the [`TransferOutcome`]
/// and replayed verbatim on every hit — `AnalysisStats::warn`
/// deduplicates and `revisits` is a set, so replay is exactly what a
/// recompute would have reported.
#[allow(clippy::too_many_arguments)]
pub fn transfer_one_cached(
    g: &Rsg,
    e: &CanonEntry,
    action: &GraphAction<'_>,
    slot: u32,
    epoch: u32,
    tcx: &TransferCtx<'_>,
    stats: &mut AnalysisStats,
) -> Vec<(Arc<Rsg>, CanonEntry)> {
    let t = &tcx.ctx.tables;
    let m = &t.metrics;
    m.transfer_queries.fetch_add(1, Ordering::Relaxed);
    if let Some(hit) = t.transfer_lookup(epoch, slot, e.id) {
        m.transfer_memo_hits.fetch_add(1, Ordering::Relaxed);
        t.tracer
            .instant(TraceKind::TransferMemoHit, tcx.stmt as u64, e.id.0 as u64);
        for w in hit.warnings() {
            stats.warn(w.clone());
        }
        stats.revisits.extend(hit.revisits().iter().copied());
        return hit
            .outs
            .iter()
            .map(|&id| {
                let (oe, og) = t.interner.resolve(id);
                (og, oe)
            })
            .collect();
    }
    m.transfer_memo_misses.fetch_add(1, Ordering::Relaxed);
    t.tracer
        .instant(TraceKind::TransferMemoMiss, tcx.stmt as u64, e.id.0 as u64);
    let mut scratch = AnalysisStats::default();
    let raw = action.apply(g, tcx, &mut scratch);
    let outs: Vec<(Arc<Rsg>, CanonEntry)> = raw
        .into_iter()
        .map(|o| {
            let c0 = t.tracer.enabled().then(Instant::now);
            let c = Arc::new(compress(o, tcx.ctx, tcx.level));
            m.compress_calls.fetch_add(1, Ordering::Relaxed);
            t.tracer
                .span_since(TraceKind::Compress, c0, tcx.stmt as u64, 0);
            let e = t.intern(&c);
            (c, e)
        })
        .collect();
    let outcome = TransferOutcome::new(
        outs.iter().map(|(_, oe)| oe.id).collect(),
        scratch.warnings.clone(),
        scratch.revisits.iter().copied().collect(),
    );
    t.transfer_store(epoch, slot, e.id, outcome);
    for w in scratch.warnings {
        stats.warn(w);
    }
    stats.revisits.extend(scratch.revisits);
    outs
}

/// Transfer one pointer statement over one RSG, producing the set of
/// post-state graphs (before compression/union). Every output is
/// normalized: provable sharing flags relaxed and unwitnessed must-in
/// claims weakened (see [`Rsg::weaken_unwitnessed_ins`]).
pub fn transfer_one(
    g: &Rsg,
    stmt: &PtrStmt,
    tcx: &TransferCtx<'_>,
    stats: &mut AnalysisStats,
) -> Vec<Rsg> {
    let mut outs = transfer_one_raw(g, stmt, tcx, stats);
    for o in &mut outs {
        o.weaken_unwitnessed_ins();
    }
    outs
}

fn transfer_one_raw(
    g: &Rsg,
    stmt: &PtrStmt,
    tcx: &TransferCtx<'_>,
    stats: &mut AnalysisStats,
) -> Vec<Rsg> {
    match *stmt {
        PtrStmt::Nil(x) => {
            let mut g = g.clone();
            g.clear_pl(x);
            g.gc();
            vec![g]
        }
        PtrStmt::Malloc(x, ty) => {
            let mut g = g.clone();
            g.clear_pl(x);
            g.gc();
            let n = g.add_fresh(ty);
            g.set_pl(x, n);
            vec![g]
        }
        PtrStmt::Copy(x, y) => {
            let mut g = g.clone();
            match g.pl(y) {
                None => {
                    g.clear_pl(x);
                    g.gc();
                }
                Some(n) => {
                    g.set_pl(x, n);
                    if tcx.touches(x) {
                        if g.node(n).touch.contains(x) {
                            stats.revisits.insert(x);
                        }
                        g.node_mut(n).touch.insert(x);
                    }
                    g.gc();
                }
            }
            vec![g]
        }
        PtrStmt::StoreNil(x, sel) => store(g, x, sel, None, tcx, stats),
        PtrStmt::Store(x, sel, y) => store(g, x, sel, Some(y), tcx, stats),
        PtrStmt::Load(x, y, sel) => load(g, x, y, sel, tcx, stats),
    }
}

/// `x->sel = NULL` / `x->sel = y`.
fn store(
    g: &Rsg,
    x: PvarId,
    sel: SelectorId,
    y: Option<PvarId>,
    tcx: &TransferCtx<'_>,
    stats: &mut AnalysisStats,
) -> Vec<Rsg> {
    if g.pl(x).is_none() {
        stats.warn(format!(
            "possible NULL dereference: store through `{}`",
            tcx.ctx.pvar_names[x.0 as usize]
        ));
        return vec![];
    }
    let mut out = Vec::new();
    for mut gd in tcx.divide(g, x, sel) {
        let n_x = gd.pl(x).expect("divide keeps x bound");
        // Remove the (unique) existing sel link, materializing its summary
        // target first so the removal is a strong update on one location.
        debug_assert!(
            gd.succs(n_x, sel).len() <= 1,
            "divide leaves at most one sel target"
        );
        let t0_opt = gd.succs(n_x, sel).first();
        if let Some(t0) = t0_opt {
            let n_t = if gd.node(t0).summary {
                tcx.count(|m| &m.materialize_calls);
                let m = materialize(&mut gd, n_x, sel, t0);
                match tcx.prune(&gd) {
                    Some(p) => gd = p,
                    None => continue,
                }
                if !gd.is_live(m) {
                    // Materialization collapsed under pruning: no such
                    // configuration exists.
                    continue;
                }
                m
            } else {
                t0
            };
            gd.remove_link(n_x, sel, n_t);
            {
                let mut nx = gd.node_mut(n_x);
                nx.clear_out(sel);
                nx.cyclelinks.drop_first(sel);
            }
            if gd.is_live(n_t) {
                let remaining_empty = gd.preds(n_t, sel).is_empty();
                let mut nt = gd.node_mut(n_t);
                nt.cyclelinks.drop_second(sel);
                if remaining_empty {
                    nt.clear_in(sel);
                } else {
                    nt.weaken_in(sel);
                }
            }
        } else {
            // No sel link: x->sel was already NULL in this variant.
            gd.node_mut(n_x).clear_out(sel);
        }

        // The write part of `x->sel = y`.
        if let Some(y) = y {
            if let Some(n_y) = gd.pl(y) {
                // Does the target already carry other references? (Checked
                // against the in-links as they stood *before* the new link.)
                let other_sel = gd.in_links(n_y).iter().any(|&(_, s)| s == sel);
                let any_other = !gd.in_links(n_y).is_empty();
                gd.add_link(n_x, sel, n_y);
                gd.node_mut(n_x).set_must_out(sel);
                {
                    let mut ny = gd.node_mut(n_y);
                    ny.set_must_in(sel);
                    if other_sel {
                        ny.shsel.insert(sel);
                    }
                    if any_other {
                        *ny.shared = true;
                    }
                }
                // CYCLELINKS: if y definitely points back at x through some
                // s2, assert the cycle pair on both ends. The cyclelink
                // inserts do not affect presence or link structure, so the
                // definite-link predicate can be evaluated up front against
                // one shared presence snapshot.
                let present = gd.present_nodes();
                let mut back = scratch::out_buf();
                back.extend(gd.out_links(n_y).iter().copied().filter(|&(s2, b)| {
                    b == n_x && gd.is_definite_link_with(&present, n_y, s2, n_x)
                }));
                for &(s2, _) in back.iter() {
                    gd.node_mut(n_x).cyclelinks.insert(sel, s2);
                    gd.node_mut(n_y).cyclelinks.insert(s2, sel);
                }
            }
            // Storing NULL into the field was already handled above.
        }

        gd.gc();
        if let Some(mut p) = tcx.prune(&gd) {
            p.relax_sharing();
            out.push(p);
        }
    }
    out
}

/// `x = y->sel`.
fn load(
    g: &Rsg,
    x: PvarId,
    y: PvarId,
    sel: SelectorId,
    tcx: &TransferCtx<'_>,
    stats: &mut AnalysisStats,
) -> Vec<Rsg> {
    if g.pl(y).is_none() {
        stats.warn(format!(
            "possible NULL dereference: load through `{}`",
            tcx.ctx.pvar_names[y.0 as usize]
        ));
        return vec![];
    }
    let mut out = Vec::new();
    for mut gd in tcx.divide(g, y, sel) {
        let n_y = gd.pl(y).expect("divide keeps y bound");
        debug_assert!(gd.succs(n_y, sel).len() <= 1);
        let t0_opt = gd.succs(n_y, sel).first();
        match t0_opt {
            None => {
                // y->sel == NULL in this variant: x becomes NULL.
                gd.clear_pl(x);
                gd.gc();
                out.push(gd);
            }
            Some(t0) => {
                let n_t: NodeId = if gd.node(t0).summary {
                    tcx.count(|m| &m.materialize_calls);
                    let m = materialize(&mut gd, n_y, sel, t0);
                    match tcx.prune(&gd) {
                        Some(p) => gd = p,
                        None => continue,
                    }
                    if !gd.is_live(m) {
                        continue;
                    }
                    m
                } else {
                    t0
                };
                gd.set_pl(x, n_t);
                if tcx.touches(x) {
                    if gd.node(n_t).touch.contains(x) {
                        stats.revisits.insert(x);
                    }
                    gd.node_mut(n_t).touch.insert(x);
                }
                gd.gc();
                if let Some(mut p) = tcx.prune(&gd) {
                    p.relax_sharing();
                    out.push(p);
                }
            }
        }
    }
    out
}

/// Refine an RSRSG by a branch condition: a pure filter, so the result is
/// still reduced. `taken` selects the edge: `true` for the condition-holds
/// successor.
///
/// * `PtrNull(x)`: PL absence encodes NULL exactly, so both edges filter
///   exactly.
/// * `PtrEq(x, y)`: within one RSG, two distinct nodes represent distinct
///   locations and pvar-pointed nodes are singular, so node equality decides
///   pointer equality exactly.
/// * `ScalarEq(v, k)`: graphs knowing `v`'s constant filter exactly; graphs
///   that do not know it pass through. The engine then lets the true edge
///   learn the constant with [`GraphAction::Scalar`].
/// * `Opaque`: no refinement.
pub fn refine_by_cond(input: &Rsrsg, cond: &Cond, taken: bool) -> Rsrsg {
    match *cond {
        Cond::Opaque => input.clone(),
        Cond::PtrNull(x) => input.filter(|g| (g.pl(x).is_none()) == taken),
        Cond::PtrEq(x, y) => input.filter(|g| (g.pl(x) == g.pl(y)) == taken),
        Cond::ScalarEq(v, k) => input.filter(|g| match g.scalar(v.0) {
            Some(actual) => (actual == k) == taken,
            None => true,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_cfront::types::StructId;
    use psa_rsg::builder;
    use psa_rsg::compress::compress;

    fn sel(i: u32) -> SelectorId {
        SelectorId(i)
    }

    fn tcx<'a>(ctx: &'a ShapeCtx, level: Level, ipvars: &'a [PvarId]) -> TransferCtx<'a> {
        TransferCtx::new(ctx, level, ipvars)
    }

    fn run(g: &Rsg, stmt: PtrStmt, ctx: &ShapeCtx, level: Level) -> Vec<Rsg> {
        let t = tcx(ctx, level, &[]);
        let mut stats = AnalysisStats::default();
        transfer_one(g, &stmt, &t, &mut stats)
    }

    /// §4.2's precision lever: a LOAD that materializes out of a list's
    /// summary node. With the built sharing flags pruning keeps one link
    /// per selector; with every SHARED and SHSEL flag forced true (stale
    /// sharing, as the paper describes its L1) the materialized node keeps
    /// the extra may-links the aggressive pruning rules would have dropped.
    #[test]
    fn stale_sharing_flags_keep_extra_links_after_a_materializing_load() {
        let (x, y, nxt) = (PvarId(0), PvarId(1), sel(0));
        let ctx = ShapeCtx::synthetic(2, 1);
        let list = compress(builder::singly_linked_list(8, 2, x, nxt), &ctx, Level::L1);
        let mut stale = list.clone();
        for n in stale.node_ids().collect::<Vec<_>>() {
            let node = stale.node_mut(n);
            *node.shared = true;
            node.shsel.insert(nxt);
        }
        let shape = |g: &Rsg| {
            let outs = run(g, PtrStmt::Load(y, x, nxt), &ctx, Level::L1);
            (
                outs.len(),
                outs.iter().map(Rsg::num_nodes).sum::<usize>(),
                outs.iter().map(Rsg::num_links).sum::<usize>(),
            )
        };
        assert_eq!(shape(&list), (1, 4, 5));
        assert_eq!(shape(&stale), (1, 4, 7));
    }

    #[test]
    fn malloc_creates_fresh_singular() {
        let ctx = ShapeCtx::synthetic(1, 1);
        let g = Rsg::empty(1);
        let out = run(&g, PtrStmt::Malloc(PvarId(0), StructId(0)), &ctx, Level::L1);
        assert_eq!(out.len(), 1);
        let n = out[0].pl(PvarId(0)).unwrap();
        assert!(!out[0].node(n).summary);
        assert!(!out[0].node(n).shared);
        assert_eq!(out[0].num_links(), 0);
    }

    #[test]
    fn nil_collects_garbage() {
        let ctx = ShapeCtx::synthetic(1, 1);
        let g = builder::singly_linked_list(3, 1, PvarId(0), sel(0));
        let out = run(&g, PtrStmt::Nil(PvarId(0)), &ctx, Level::L1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].num_nodes(), 0, "whole list unreachable");
    }

    #[test]
    fn copy_binds_same_node() {
        let ctx = ShapeCtx::synthetic(2, 1);
        let g = builder::singly_linked_list(3, 2, PvarId(0), sel(0));
        let out = run(&g, PtrStmt::Copy(PvarId(1), PvarId(0)), &ctx, Level::L1);
        assert_eq!(out[0].pl(PvarId(1)), out[0].pl(PvarId(0)));
    }

    #[test]
    fn copy_of_null_clears() {
        let ctx = ShapeCtx::synthetic(2, 1);
        let mut g = builder::singly_linked_list(3, 2, PvarId(0), sel(0));
        // p1 points somewhere, p0 is then set from NULL p1... use reversed:
        g.clear_pl(PvarId(1));
        let out = run(&g, PtrStmt::Copy(PvarId(0), PvarId(1)), &ctx, Level::L1);
        assert_eq!(out[0].pl(PvarId(0)), None);
        assert_eq!(out[0].num_nodes(), 0, "list garbage-collected");
    }

    #[test]
    fn store_links_and_sets_properties() {
        // x = malloc; y = malloc; x->s0 = y.
        let ctx = ShapeCtx::synthetic(2, 1);
        let mut g = Rsg::empty(2);
        let a = g.add_fresh(StructId(0));
        let b = g.add_fresh(StructId(0));
        g.set_pl(PvarId(0), a);
        g.set_pl(PvarId(1), b);
        let out = run(
            &g,
            PtrStmt::Store(PvarId(0), sel(0), PvarId(1)),
            &ctx,
            Level::L1,
        );
        assert_eq!(out.len(), 1);
        let o = &out[0];
        let na = o.pl(PvarId(0)).unwrap();
        let nb = o.pl(PvarId(1)).unwrap();
        assert!(o.has_link(na, sel(0), nb));
        assert!(o.node(na).selout.contains(sel(0)));
        assert!(o.node(nb).selin.contains(sel(0)));
        assert!(!o.node(nb).shared, "first reference is not sharing");
    }

    #[test]
    fn second_store_makes_target_shared() {
        // a->s0 = c after b->s0 = c: c referenced twice through s0.
        let ctx = ShapeCtx::synthetic(3, 1);
        let mut g = Rsg::empty(3);
        let a = g.add_fresh(StructId(0));
        let b = g.add_fresh(StructId(0));
        let c = g.add_fresh(StructId(0));
        g.set_pl(PvarId(0), a);
        g.set_pl(PvarId(1), b);
        g.set_pl(PvarId(2), c);
        g.add_link(b, sel(0), c);
        g.node_mut(b).set_must_out(sel(0));
        g.node_mut(c).set_must_in(sel(0));
        let out = run(
            &g,
            PtrStmt::Store(PvarId(0), sel(0), PvarId(2)),
            &ctx,
            Level::L1,
        );
        assert_eq!(out.len(), 1);
        let o = &out[0];
        let nc = o.pl(PvarId(2)).unwrap();
        assert!(o.node(nc).shared);
        assert!(o.node(nc).shsel.contains(sel(0)));
    }

    #[test]
    fn store_null_unlinks_and_relaxes() {
        let ctx = ShapeCtx::synthetic(2, 1);
        let g = builder::singly_linked_list(2, 2, PvarId(0), sel(0));
        let out = run(&g, PtrStmt::StoreNil(PvarId(0), sel(0)), &ctx, Level::L1);
        assert_eq!(out.len(), 1);
        let o = &out[0];
        let head = o.pl(PvarId(0)).unwrap();
        assert!(o.succs(head, sel(0)).is_empty());
        assert!(!o.node(head).selout.contains(sel(0)));
        assert_eq!(o.num_nodes(), 1, "tail garbage-collected");
    }

    #[test]
    fn store_builds_cyclelinks_for_back_link() {
        // DLL insertion: b->prv = a when a->nxt = b already definite.
        let ctx = ShapeCtx::synthetic(2, 2);
        let mut g = Rsg::empty(2);
        let a = g.add_fresh(StructId(0));
        let b = g.add_fresh(StructId(0));
        g.set_pl(PvarId(0), a);
        g.set_pl(PvarId(1), b);
        g.add_link(a, sel(0), b);
        g.node_mut(a).set_must_out(sel(0));
        g.node_mut(b).set_must_in(sel(0));
        let out = run(
            &g,
            PtrStmt::Store(PvarId(1), sel(1), PvarId(0)),
            &ctx,
            Level::L1,
        );
        assert_eq!(out.len(), 1);
        let o = &out[0];
        let na = o.pl(PvarId(0)).unwrap();
        let nb = o.pl(PvarId(1)).unwrap();
        // b -prv-> a answered by a -nxt-> b.
        assert!(o.node(nb).cyclelinks.contains(sel(1), sel(0)));
        assert!(o.node(na).cyclelinks.contains(sel(0), sel(1)));
    }

    #[test]
    fn fig1_store_nil_pipeline() {
        // The complete Fig. 1 example: x->nxt = NULL on the summarized DLL.
        let ctx = ShapeCtx::synthetic(1, 2);
        let (g, _) = builder::fig1_dll(PvarId(0), 1, sel(0), sel(1));
        let out = run(&g, PtrStmt::StoreNil(PvarId(0), sel(0)), &ctx, Level::L1);
        // Two final graphs (rsg1, rsg2 of Fig. 1(e)).
        assert_eq!(out.len(), 2);
        for o in &out {
            let n1 = o.pl(PvarId(0)).unwrap();
            assert!(o.succs(n1, sel(0)).is_empty(), "x->nxt removed");
            assert!(!o.node(n1).selout.contains(sel(0)));
        }
        // One graph came from the 2-element list: after unlinking, only the
        // detached single element remains reachable... it is unreachable
        // (nothing points to it) so it is collected: 1 node. The other kept
        // the materialized node + summary rest; the detached tail segment is
        // also unreachable and collected.
        let mut sizes: Vec<usize> = out.iter().map(|o| o.num_nodes()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 1]);
    }

    #[test]
    fn load_advances_and_materializes() {
        // p1 = p0->s0 over the compressed 5-list: the middle summary is
        // materialized; p1 lands on a singular node.
        let ctx = ShapeCtx::synthetic(2, 1);
        let g0 = builder::singly_linked_list(5, 2, PvarId(0), sel(0));
        let g = compress(g0.clone(), &ctx, Level::L1);
        assert_eq!(g.num_nodes(), 3);
        let out = run(
            &g,
            PtrStmt::Load(PvarId(1), PvarId(0), sel(0)),
            &ctx,
            Level::L1,
        );
        assert_eq!(out.len(), 1);
        let o = &out[0];
        let n1 = o.pl(PvarId(1)).unwrap();
        assert!(!o.node(n1).summary, "loaded target is singular");
        ctx_check(&ctx, o);
    }

    fn ctx_check(ctx: &ShapeCtx, g: &Rsg) {
        g.check_invariants(ctx).unwrap();
    }

    #[test]
    fn load_of_null_field_gives_null() {
        let ctx = ShapeCtx::synthetic(2, 1);
        let mut g = Rsg::empty(2);
        let a = g.add_fresh(StructId(0));
        g.set_pl(PvarId(0), a);
        g.set_pl(PvarId(1), a);
        let out = run(
            &g,
            PtrStmt::Load(PvarId(1), PvarId(0), sel(0)),
            &ctx,
            Level::L1,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].pl(PvarId(1)), None);
    }

    #[test]
    fn load_through_null_warns_and_drops() {
        let ctx = ShapeCtx::synthetic(2, 1);
        let g = Rsg::empty(2);
        let t = tcx(&ctx, Level::L1, &[]);
        let mut stats = AnalysisStats::default();
        let out = transfer_one(
            &g,
            &PtrStmt::Load(PvarId(1), PvarId(0), sel(0)),
            &t,
            &mut stats,
        );
        assert!(out.is_empty());
        assert_eq!(stats.warnings.len(), 1);
    }

    #[test]
    fn touch_recorded_for_ipvars_at_l3_only() {
        let ctx = ShapeCtx::synthetic(2, 1);
        let g = builder::singly_linked_list(3, 2, PvarId(0), sel(0));
        let ipvars = [PvarId(1)];
        let mut stats = AnalysisStats::default();
        // L3: touch recorded.
        let t3 = tcx(&ctx, Level::L3, &ipvars);
        let out = transfer_one(
            &g,
            &PtrStmt::Load(PvarId(1), PvarId(0), sel(0)),
            &t3,
            &mut stats,
        );
        let o = &out[0];
        let n = o.pl(PvarId(1)).unwrap();
        assert!(o.node(n).touch.contains(PvarId(1)));
        // L2: not recorded.
        let t2 = tcx(&ctx, Level::L2, &ipvars);
        let out2 = transfer_one(
            &g,
            &PtrStmt::Load(PvarId(1), PvarId(0), sel(0)),
            &t2,
            &mut stats,
        );
        let o2 = &out2[0];
        let n2 = o2.pl(PvarId(1)).unwrap();
        assert!(o2.node(n2).touch.is_empty());
        // L3 but not an ipvar: not recorded.
        let t3b = tcx(&ctx, Level::L3, &[]);
        let out3 = transfer_one(
            &g,
            &PtrStmt::Load(PvarId(1), PvarId(0), sel(0)),
            &t3b,
            &mut stats,
        );
        let o3 = &out3[0];
        let n3 = o3.pl(PvarId(1)).unwrap();
        assert!(o3.node(n3).touch.is_empty());
    }

    #[test]
    fn refine_null_condition() {
        let ctx = ShapeCtx::synthetic(1, 1);
        let mut s = Rsrsg::new();
        s.insert(
            builder::singly_linked_list(3, 1, PvarId(0), sel(0)),
            &ctx,
            Level::L1,
        );
        s.insert(Rsg::empty(1), &ctx, Level::L1);
        assert_eq!(s.len(), 2);
        let null_side = refine_by_cond(&s, &Cond::PtrNull(PvarId(0)), true);
        assert_eq!(null_side.len(), 1);
        assert!(null_side.graphs()[0].pl(PvarId(0)).is_none());
        let nonnull_side = refine_by_cond(&s, &Cond::PtrNull(PvarId(0)), false);
        assert_eq!(nonnull_side.len(), 1);
        assert!(nonnull_side.graphs()[0].pl(PvarId(0)).is_some());
    }

    #[test]
    fn refine_eq_condition() {
        let ctx = ShapeCtx::synthetic(2, 1);
        // Graph 1: p0 == p1 (alias); Graph 2: different nodes.
        let mut g1 = Rsg::empty(2);
        let a = g1.add_fresh(StructId(0));
        g1.set_pl(PvarId(0), a);
        g1.set_pl(PvarId(1), a);
        let mut g2 = Rsg::empty(2);
        let b = g2.add_fresh(StructId(0));
        let c = g2.add_fresh(StructId(0));
        g2.set_pl(PvarId(0), b);
        g2.set_pl(PvarId(1), c);
        let mut s = Rsrsg::new();
        s.insert(g1, &ctx, Level::L1);
        s.insert(g2, &ctx, Level::L1);
        let eq = refine_by_cond(&s, &Cond::PtrEq(PvarId(0), PvarId(1)), true);
        assert_eq!(eq.len(), 1);
        let ne = refine_by_cond(&s, &Cond::PtrEq(PvarId(0), PvarId(1)), false);
        assert_eq!(ne.len(), 1);
    }

    #[test]
    fn clear_touch_erases_marks() {
        let ctx = ShapeCtx::synthetic(2, 1);
        let mut g = builder::singly_linked_list(3, 2, PvarId(0), sel(0));
        let ids: Vec<_> = g.node_ids().collect();
        g.node_mut(ids[1]).touch.insert(PvarId(1));
        let mut s = Rsrsg::new();
        s.insert(g, &ctx, Level::L3);
        let ipvars = [PvarId(1)];
        let cleared = transfer_rsrsg(
            &s,
            &GraphAction::ClearTouch(&ipvars),
            &tcx(&ctx, Level::L3, &[]),
            &mut AnalysisStats::default(),
        );
        for g in cleared.iter() {
            for n in g.node_ids() {
                assert!(g.node(n).touch.is_empty());
            }
        }
    }

    #[test]
    fn list_append_loop_body_shape() {
        // One iteration of list construction: p = malloc; p->s0 = l; l = p.
        let ctx = ShapeCtx::synthetic(2, 1);
        let l = PvarId(0);
        let p = PvarId(1);
        let mut cur = vec![Rsg::empty(2)];
        let t = tcx(&ctx, Level::L1, &[]);
        let mut stats = AnalysisStats::default();
        for _ in 0..3 {
            let mut next = Vec::new();
            for g in &cur {
                for g1 in transfer_one(g, &PtrStmt::Malloc(p, StructId(0)), &t, &mut stats) {
                    for g2 in transfer_one(&g1, &PtrStmt::Store(p, sel(0), l), &t, &mut stats) {
                        for g3 in transfer_one(&g2, &PtrStmt::Copy(l, p), &t, &mut stats) {
                            next.push(g3);
                        }
                    }
                }
            }
            cur = next;
        }
        assert_eq!(cur.len(), 1);
        let g = &cur[0];
        // A 3-list, l and p both at the head, nothing shared.
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.pl(l), g.pl(p));
        for n in g.node_ids() {
            assert!(!g.node(n).shared);
            assert!(g.node(n).shsel.is_empty());
        }
        g.check_invariants(&ctx).unwrap();
    }
}
