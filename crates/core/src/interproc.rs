//! Interprocedural call transfer via entry/exit summaries (DESIGN.md §15).
//!
//! Non-recursive calls never reach this module — [`psa_ir::lower_program`]
//! inlines them away, exactly as the paper's authors did by hand. What
//! survives lowering is the recursive core: a [`psa_ir::Stmt::Call`] whose
//! callee body shares the root function's pvar/scalar universe. That
//! sharing is what keeps the transfer simple and sound:
//!
//! * **Entry (localization)**: the callee sees only the sub-heap reachable
//!   from its pointer arguments. The caller's graph is cloned, *every*
//!   pvar binding and scalar value cleared, the callee's formals — and the
//!   never-assigned anchor pvars — bound to the argument targets, and the
//!   rest collected ([`Rsg::gc`] weakens must-in claims whose witnesses
//!   came from the caller's frame). The interned result keys the summary;
//!   because the caller's frame is stripped, the same recursive call on
//!   structurally equal arguments hits the same entry at every depth.
//!   Scalar formals deliberately start *unknown* (clearing them keeps the
//!   entry space small and convergent; the concrete interpreter evaluates
//!   the real values).
//! * **Cutpoints**: the caller's frame may reference the passed region
//!   only at the argument targets themselves (where the anchors name the
//!   cell through the callee's execution). Any other frame reference into
//!   the region — a pvar bound mid-structure, a frame cell's field
//!   pointing past a target — is a cutpoint the glue cannot re-attach;
//!   the transfer gives up soundly with [`InterprocReason::Cutpoint`].
//! * **Body**: a nested [`Engine`] runs the callee body from the prepared
//!   entry over the same shared tables — same interner, same transfer
//!   memo, same summary cache. The caller's frame never enters the callee,
//!   so a *recursive* call cannot clobber the live locals of the very
//!   frame that issued it.
//! * **Exit (glue)**: per caller graph, the passed region is detached (its
//!   severed frame edges and bindings removed, the region collected) and
//!   the exit heap imported wholesale ([`Rsg::absorb`]). The anchors name
//!   where each argument target ended up: severed frame edges are re-added
//!   there, frame pvars that pointed at a target are re-bound, the return
//!   slot is bound to the destination, and a final collection drops
//!   whatever only the callee's dead frame kept alive (drops here mean the
//!   callee may leak).
//!
//! Recursion is handled by tabulation over the shared
//! [`psa_rsg::intern::SummaryCache`]: a first lookup seeds a *bottom*
//! (empty-exit) entry, the body is re-run until neither its own exits nor
//! anything deeper in the cache changes in a full round, and the whole
//! subtree of entries created by the outermost computation is finalized
//! together — an entry computed against an ancestor's still-growing
//! summary is never served as final. Bottom exits mid-iteration are the
//! standard sound-at-fixpoint under-approximation. Every cap (rounds,
//! distinct entries, nesting depth) and every nested degradation stops the
//! computation with [`InterprocReason`]; the engine then marks the call
//! degraded and soft-stops, so clients clamp everything downstream to
//! may-fail — a budget-stopped summary can never launder a `safe` claim.

use crate::engine::{Engine, InterprocReason};
use crate::rsrsg::Rsrsg;
use crate::stats::{AnalysisStats, CallSiteInfo};
use psa_cfront::types::SelectorId;
use psa_ir::{CallArg, CallStmt, CalleeFunc, PvarId, StmtId};
use psa_rsg::intern::{CanonId, SummaryEntry};
use psa_rsg::{Node, NodeId, Rsg, ShapeCtx};
use std::cell::RefCell;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Re-runs of one callee body before the summary fixpoint gives up.
const MAX_SUMMARY_ROUNDS: usize = 64;
/// Distinct entry graphs one (body, epoch) may accumulate.
const MAX_SUMMARY_ENTRIES: usize = 64;
/// Nesting depth of in-flight summary computations.
const MAX_SUMMARY_DEPTH: usize = 48;
/// Divide/materialize focus steps one call transfer may spend making
/// frame references anchorable before giving up.
const MAX_FOCUS_STEPS: usize = 64;

type Key = (u64, u32, CanonId);

/// One in-flight summary computation on this thread's stack.
struct Frame {
    key: Key,
    /// A deeper lookup answered from this or an ancestor's non-final
    /// entry: this computation's result must not be finalized on its own —
    /// only together with the whole subtree, by the outermost frame.
    used_nonfinal: bool,
}

#[derive(Default)]
struct Driver {
    stack: Vec<Frame>,
    /// Keys seeded by the current outermost computation, finalized (or
    /// removed, on abort) when it completes.
    created: Vec<Key>,
}

thread_local! {
    static DRIVER: RefCell<Driver> = RefCell::new(Driver::default());
}

/// Transfer one `Call` statement over the caller's RSRSG. On a summary
/// give-up the caller's input is passed through unchanged with the stop
/// reason — sound only because `run_inner` then marks the statement
/// degraded and soft-stops the run.
pub(crate) fn transfer_call(
    eng: &Engine<'_>,
    cs: &CallStmt,
    cur: &Rsrsg,
    sid: StmtId,
    deadline: Option<Instant>,
    stats: &mut AnalysisStats,
) -> (Rsrsg, Option<InterprocReason>) {
    let callees = eng.callees();
    let callee = &callees[cs.callee as usize];
    let ctx = eng.ctx();
    let level = eng.config().level;
    let epoch = ctx.tables.epoch_for(eng.config_key());

    let mut out = Rsrsg::new();
    let mut info = CallSiteInfo {
        callee: callee.name.clone(),
        may_free: callee.may_free,
        ..CallSiteInfo::default()
    };
    // Distinct caller graphs frequently localize to the same entry (the
    // frame strip erases most of the difference); memoize the summary per
    // entry locally, but glue exits back per caller graph — the glue
    // depends on the frame the entry deliberately forgot.
    let mut seen: Vec<(CanonId, SummaryEntry)> = Vec::new();
    // Caller graphs whose frame edges land on summary nodes inside the
    // region are first *focused* (divide + materialize) so every frame
    // reference has a singular, anchorable target; each focus step is a
    // sound case split, so the variants just rejoin the worklist.
    let mut work: Vec<Rsg> = cur.iter().cloned().collect();
    let mut focus_steps = 0usize;
    while let Some(g) = work.pop() {
        let region = match localize(callee, cs, &g) {
            Ok(r) => r,
            Err(LocalizeStop::Split(s, in_region)) => {
                focus_steps += 1;
                if focus_steps > MAX_FOCUS_STEPS {
                    record_site(stats, sid, info);
                    return (cur.clone(), Some(InterprocReason::Cutpoint));
                }
                work.push(split_summary(&g, s, &in_region));
                continue;
            }
            Err(LocalizeStop::Focus(src, sel)) => {
                focus_steps += 1;
                if focus_steps > MAX_FOCUS_STEPS {
                    record_site(stats, sid, info);
                    return (cur.clone(), Some(InterprocReason::Cutpoint));
                }
                for mut v in psa_rsg::divide::divide_at(&g, src, sel, false) {
                    if let Some(t) = v.succs(src, sel).first() {
                        if v.node(t).summary {
                            let m = psa_rsg::materialize::materialize(&mut v, src, sel, t);
                            match psa_rsg::prune::prune_with(&v, false) {
                                Some(p) => v = p,
                                None => continue,
                            }
                            if !v.is_live(m) {
                                continue;
                            }
                        }
                    }
                    work.push(v);
                }
                continue;
            }
            Err(LocalizeStop::Give(reason)) => {
                record_site(stats, sid, info);
                return (cur.clone(), Some(reason));
            }
        };
        let prepared = prepare_entry(callee, &g, &region);
        let mut entry_set = Rsrsg::new();
        entry_set.push_raw(prepared, ctx);
        let entry_id = entry_set.canon_ids()[0];
        let summary = match seen.iter().find(|(id, _)| *id == entry_id) {
            Some((_, s)) => s.clone(),
            None => match ensure_summary(eng, callee, epoch, entry_id, entry_set, deadline) {
                Ok(s) => {
                    seen.push((entry_id, s.clone()));
                    s
                }
                Err(reason) => {
                    record_site(stats, sid, info);
                    return (cur.clone(), Some(reason));
                }
            },
        };
        info.warned |= summary.warned;
        info.may_leak |= summary.may_leak;
        if summary.warned {
            stats.warn(format!(
                "call to `{}` may fault inside the callee body",
                callee.name
            ));
        }
        for &xid in &summary.exits {
            let (_, xg) = ctx.tables.interner.resolve(xid);
            let (bound, dropped) = apply_exit(callee, cs, &g, &region, &xg);
            if dropped > 0 {
                info.may_leak = true;
            }
            out.insert(bound, ctx, level);
        }
    }
    info.recursive = true;
    record_site(stats, sid, info);
    (out, None)
}

fn record_site(stats: &mut AnalysisStats, sid: StmtId, info: CallSiteInfo) {
    let slot = stats.call_sites.entry(sid.0).or_default();
    slot.callee = info.callee;
    slot.warned |= info.warned;
    slot.may_leak |= info.may_leak;
    slot.may_free |= info.may_free;
    slot.recursive |= info.recursive;
}

/// Why [`localize`] could not produce a region for this caller graph.
enum LocalizeStop {
    /// A frame edge `<src, sel, ·>` lands on a summary node inside the
    /// region. The caller must divide + materialize that edge's target
    /// into a singular (anchorable) cell and retry on the variants.
    Focus(NodeId, SelectorId),
    /// A frame edge lands on an *unshared* summary node inside the
    /// region. Because `SHARED == false` promises in-degree ≤ 1 for
    /// every concrete cell the node stands for, its concretization
    /// partitions cleanly between the region and the frame: the caller
    /// must [`split_summary`] it and retry. (Focusing here would regress:
    /// each materialized frame cell still points into the summary.)
    Split(NodeId, Vec<bool>),
    /// Give up soundly — the call site needs more cutpoint anchors than
    /// the callee reserves.
    Give(InterprocReason),
}

/// The localized view of one caller graph at one call: which nodes the
/// callee will see, and everything the glue needs to stitch the exit heap
/// back into the frame it was cut from.
struct Region {
    /// The argument target node per pointer formal (`None` for NULL or
    /// unbound arguments).
    targets: Vec<Option<NodeId>>,
    /// Every externally-referenced region node and the reserved slot that
    /// pins it through the callee analysis: argument targets get the
    /// formal anchors, everything else a cutpoint anchor.
    anchored: Vec<(NodeId, PvarId)>,
    /// Frame edges into the region, each landing on an anchored node:
    /// `(frame source, selector, region node)`. Severed for the entry,
    /// re-added to the tracked cell at glue time.
    severed: Vec<(NodeId, SelectorId, NodeId)>,
    /// Caller pvars bound into the region (including the argument pvars
    /// themselves), re-bound through the anchors at glue time.
    rebinds: Vec<(PvarId, NodeId)>,
}

/// Compute the region of `g` passed to the callee and assign anchors under
/// the cutpoint discipline: every frame reference into the region must
/// land on an anchored cell. Argument targets are anchored by the formal
/// anchors; other referenced cells consume cutpoint anchors — if they are
/// summary nodes, the caller is asked to focus them first; if the reserve
/// runs out, the transfer gives up.
fn localize(callee: &CalleeFunc, cs: &CallStmt, g: &Rsg) -> Result<Region, LocalizeStop> {
    let targets: Vec<Option<NodeId>> = callee
        .params_ptr
        .iter()
        .enumerate()
        .map(|(i, _)| match cs.ptr_args.get(i) {
            Some(CallArg::Pvar(a)) => g.pl(*a),
            _ => None,
        })
        .collect();
    let mut anchored: Vec<(NodeId, PvarId)> = Vec::new();
    for (i, &t) in targets.iter().enumerate() {
        if let Some(t) = t {
            if !anchored.iter().any(|&(n, _)| n == t) {
                anchored.push((t, callee.anchors[i]));
            }
        }
    }
    let mut cuts_used = 0usize;
    let mut in_region = vec![false; g.num_slots()];
    let mut stack: Vec<NodeId> = Vec::new();
    for &(n, _) in &anchored {
        if !in_region[n.0 as usize] {
            in_region[n.0 as usize] = true;
            stack.push(n);
        }
    }
    loop {
        while let Some(n) = stack.pop() {
            for &(_, b) in g.out_links(n) {
                if !in_region[b.0 as usize] {
                    in_region[b.0 as usize] = true;
                    stack.push(b);
                }
            }
        }
        // Find an external reference into an unanchored region node. Each
        // round anchors one cell (growing the region by its reach) or asks
        // for a focus; the loop re-scans until the boundary is clean.
        let mut pending: Option<NodeId> = None;
        'scan: for n in g.node_ids() {
            if !in_region[n.0 as usize] || anchored.iter().any(|&(a, _)| a == n) {
                continue;
            }
            for &(src, sel) in g.in_links(n) {
                if in_region[src.0 as usize] {
                    continue;
                }
                if g.node(n).summary {
                    if !g.node(n).shared {
                        return Err(LocalizeStop::Split(n, in_region.clone()));
                    }
                    return Err(LocalizeStop::Focus(src, sel));
                }
                pending = Some(n);
                break 'scan;
            }
            if g.pvars_of(n).is_empty() {
                continue;
            }
            // A pvar binding into the region (singular by invariant).
            pending = Some(n);
            break 'scan;
        }
        let Some(n) = pending else { break };
        let Some(&slot) = callee.cut_anchors.get(cuts_used) else {
            return Err(LocalizeStop::Give(InterprocReason::Cutpoint));
        };
        cuts_used += 1;
        anchored.push((n, slot));
        stack.push(n);
    }
    let mut severed = Vec::new();
    let mut rebinds = Vec::new();
    for n in g.node_ids().filter(|n| in_region[n.0 as usize]) {
        for &(src, sel) in g.in_links(n) {
            if !in_region[src.0 as usize] {
                severed.push((src, sel, n));
            }
        }
    }
    for (p, n) in g.pl_iter() {
        if in_region[n.0 as usize] {
            rebinds.push((p, n));
        }
    }
    Ok(Region {
        targets,
        anchored,
        severed,
        rebinds,
    })
}

/// Split every *unshared* summary region node the frame references into
/// a region half (keeps its slot and the in-edges from region sources)
/// and a frame half (a fresh clone that takes the in-edges from frame
/// sources) — in one pass, closed over the links between them.
///
/// `SHARED == false` means every concrete cell such a node stands for
/// has at most one heap in-link, so each cell's unique back-trace
/// through the union of split nodes crosses exactly one boundary edge —
/// partitioning the concretization by *which side* that edge comes from
/// is well defined and link-closed (a cell's half is its unique
/// parent's half). Links between split nodes are therefore mirrored
/// between the clones and never cross the halves; that closure is why
/// the whole frame-reachable unshared subgraph must split together —
/// cloning one node at a time would hand its clone out-links back into
/// the region and regress. Out-links to singular or shared nodes are
/// duplicated onto the clones as may-links (at most one of the two is
/// concretely real, which existing node properties already permit).
/// All node properties hold per half because they held for the union.
///
/// This is what makes `treeadd(t->l)` analyzable: the frame's `t->r`
/// edge and the region's interior land on the same abstract summary
/// even though the concrete subtrees are disjoint.
fn split_summary(g: &Rsg, seed: NodeId, in_region: &[bool]) -> Rsg {
    let splits = |n: NodeId| g.node(n).summary && !g.node(n).shared && in_region[n.0 as usize];
    debug_assert!(splits(seed));
    // Seeds: every splittable region node the frame references directly.
    let mut in_w = vec![false; g.num_slots()];
    let mut w: Vec<NodeId> = Vec::new();
    for n in g.node_ids().filter(|&n| splits(n)) {
        let external = g
            .in_links(n)
            .iter()
            .any(|&(src, _)| !in_region[src.0 as usize]);
        if external {
            in_w[n.0 as usize] = true;
            w.push(n);
        }
    }
    // Closure: the frame half reaches whatever its members reach.
    let mut i = 0;
    while i < w.len() {
        let n = w[i];
        i += 1;
        for &(_, b) in g.out_links(n) {
            if splits(b) && !in_w[b.0 as usize] {
                in_w[b.0 as usize] = true;
                w.push(b);
            }
        }
    }
    let mut r = g.clone();
    let mut clone_of: Vec<Option<NodeId>> = vec![None; g.num_slots()];
    for &n in &w {
        let nr = g.node(n);
        clone_of[n.0 as usize] = Some(r.add_node(Node {
            ty: nr.ty,
            shared: nr.shared,
            summary: nr.summary,
            shsel: nr.shsel,
            selin: nr.selin,
            selout: nr.selout,
            pos_selin: nr.pos_selin,
            pos_selout: nr.pos_selout,
            cyclelinks: nr.cyclelinks.clone(),
            touch: nr.touch.clone(),
        }));
    }
    for &n in &w {
        let n2 = clone_of[n.0 as usize].expect("clone exists");
        for (src, sel) in g.in_links(n).to_vec() {
            if !in_region[src.0 as usize] {
                r.remove_link(src, sel, n);
                r.add_link(src, sel, n2);
            }
        }
        for &(sel, b) in g.out_links(n) {
            r.add_link(n2, sel, clone_of[b.0 as usize].unwrap_or(b));
        }
    }
    r
}

/// The callee's entry graph: the caller's frame stripped (every pvar
/// binding and scalar value cleared), formals bound to the argument
/// targets, the anchors pinning every externally-referenced cell, and
/// everything outside the region collected. The gc weakens must-in claims
/// whose only witnesses were frame edges, so the entry makes no claim the
/// callee's sub-heap cannot honour.
fn prepare_entry(callee: &CalleeFunc, g: &Rsg, region: &Region) -> Rsg {
    let mut e = g.clone();
    let bound: Vec<PvarId> = g.pl_iter().map(|(p, _)| p).collect();
    for p in bound {
        e.clear_pl(p);
    }
    let held: Vec<u32> = g.scalars().iter().map(|(&v, _)| v).collect();
    for v in held {
        e.clear_scalar(v);
    }
    for &(src, sel, n) in &region.severed {
        e.remove_link(src, sel, n);
    }
    for (i, &formal) in callee.params_ptr.iter().enumerate() {
        if let Some(t) = region.targets[i] {
            e.set_pl(formal, t);
        }
    }
    for &(n, slot) in &region.anchored {
        e.set_pl(slot, n);
    }
    e.gc();
    // The severed frame edges were real references: weaken the must-in
    // claims they witnessed (gc only handles witnesses lost to collected
    // nodes, and a severed source may itself have been collected earlier
    // in a different order).
    for &(_, sel, n) in &region.severed {
        if e.is_live(n) {
            let witnessed = e
                .preds(n, sel)
                .iter()
                .any(|a| e.is_definite_link(a, sel, n));
            if !witnessed {
                e.node_mut(n).weaken_in(sel);
            }
        }
    }
    e
}

/// Stitch one exit graph back into one caller graph: detach the region the
/// entry was cut from, import the exit heap, re-attach the severed frame
/// edges and bindings at the anchored cells, and bind the return slots.
/// Returns the rebuilt graph and the count of nodes only the callee's dead
/// frame kept alive (> 0 means the callee may leak).
fn apply_exit(
    callee: &CalleeFunc,
    cs: &CallStmt,
    g: &Rsg,
    region: &Region,
    xg: &Rsg,
) -> (Rsg, usize) {
    let mut r = g.clone();
    // Detach the passed region: the cutpoint discipline guarantees these
    // severs and unbindings are its only external references.
    for &(p, _) in &region.rebinds {
        r.clear_pl(p);
    }
    for &(src, sel, n) in &region.severed {
        r.remove_link(src, sel, n);
    }
    r.gc();
    let map = r.absorb(xg);
    let tracked = |n: NodeId| -> Option<NodeId> {
        region
            .anchored
            .iter()
            .find(|&&(a, _)| a == n)
            .and_then(|&(_, slot)| xg.pl(slot))
            .and_then(|old| map[old.0 as usize])
    };
    for &(src, sel, n) in &region.severed {
        let Some(t) = tracked(n) else { continue };
        r.add_link(src, sel, t);
        // The re-attached edge is a fresh heap reference the exit region
        // never saw: record it as possible-in and re-derive sharing.
        let ins = r.in_links(t).len();
        let same = r.preds(t, sel).len();
        let src_many = r.node(src).summary;
        let nm = r.node_mut(t);
        nm.pos_selin.insert(sel);
        if ins >= 2 || src_many {
            *nm.shared = true;
        }
        if same >= 2 || src_many {
            nm.shsel.insert(sel);
        }
    }
    for &(p, n) in &region.rebinds {
        match tracked(n) {
            Some(t) => r.set_pl(p, t),
            None => r.clear_pl(p),
        }
    }
    if let Some(dest) = cs.ret_ptr {
        match callee
            .ret_ptr
            .and_then(|slot| xg.pl(slot))
            .and_then(|old| map[old.0 as usize])
        {
            Some(n) => r.set_pl(dest, n),
            None => r.clear_pl(dest),
        }
    }
    if let Some(dest) = cs.ret_scalar {
        match callee.ret_scalar.and_then(|slot| xg.scalar(slot.0)) {
            Some(k) => r.set_scalar(dest.0, k),
            None => r.clear_scalar(dest.0),
        }
    }
    let dropped = r.gc();
    (r, dropped)
}

/// The summary for `(callee, epoch, entry)`: served from the cache when
/// finalized, computed by tabulation otherwise.
fn ensure_summary(
    eng: &Engine<'_>,
    callee: &CalleeFunc,
    epoch: u32,
    entry_id: CanonId,
    entry_set: Rsrsg,
    deadline: Option<Instant>,
) -> Result<SummaryEntry, InterprocReason> {
    let tables = &eng.ctx().tables;
    let cache = &tables.summaries;
    let m = &tables.metrics;
    let key: Key = (callee.body_hash, epoch, entry_id);
    m.summary_queries.fetch_add(1, Ordering::Relaxed);

    let mut adopted = false;
    if let Some(e) = cache.get(key.0, key.1, key.2) {
        if e.finalized {
            m.summary_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(e);
        }
        let on_stack = DRIVER.with(|d| {
            let mut d = d.borrow_mut();
            if d.stack.iter().any(|f| f.key == key) {
                if let Some(top) = d.stack.last_mut() {
                    top.used_nonfinal = true;
                }
                true
            } else {
                false
            }
        });
        if on_stack {
            // The in-progress computation higher up this stack owns the
            // entry; its current exits are the fixpoint iterate.
            m.summary_recursive_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(e);
        }
        // Non-final but not ours (left by an aborted run or a concurrent
        // serve request): adopt it and iterate it to a fixpoint ourselves.
        adopted = true;
    }
    m.summary_misses.fetch_add(1, Ordering::Relaxed);
    if !adopted {
        if cache.entries_for(key.0, key.1) >= MAX_SUMMARY_ENTRIES {
            return Err(InterprocReason::SummaryEntries);
        }
        cache.put(key.0, key.1, key.2, SummaryEntry::default());
        DRIVER.with(|d| d.borrow_mut().created.push(key));
    }
    let depth = DRIVER.with(|d| {
        let mut d = d.borrow_mut();
        d.stack.push(Frame {
            key,
            used_nonfinal: false,
        });
        d.stack.len()
    });
    let result = if depth > MAX_SUMMARY_DEPTH {
        Err(InterprocReason::Depth)
    } else {
        iterate(eng, callee, cache, key, &entry_set, deadline)
    };
    let (used_nonfinal, outermost) = DRIVER.with(|d| {
        let mut d = d.borrow_mut();
        let frame = d.stack.pop().expect("summary frame stack underflow");
        if let (true, Some(parent)) = (frame.used_nonfinal, d.stack.last_mut()) {
            parent.used_nonfinal = true;
        }
        (frame.used_nonfinal, d.stack.is_empty())
    });
    match result {
        Ok(()) => {
            if outermost {
                // The whole subtree reached a joint fixpoint: every entry
                // seeded under this computation is now exact, including the
                // mutually-recursive ones that individually consumed
                // non-final iterates.
                DRIVER.with(|d| {
                    for k in d.borrow_mut().created.drain(..) {
                        cache.finalize(k.0, k.1, k.2);
                    }
                });
            } else if !used_nonfinal {
                cache.finalize(key.0, key.1, key.2);
            }
            Ok(cache
                .get(key.0, key.1, key.2)
                .expect("summary entry vanished mid-computation"))
        }
        Err(reason) => {
            if outermost {
                // Scrub the bottom seeds: a later run must recompute, not
                // consume an aborted iterate.
                DRIVER.with(|d| {
                    for k in d.borrow_mut().created.drain(..) {
                        cache.remove(k.0, k.1, k.2);
                    }
                });
            }
            Err(reason)
        }
    }
}

/// Re-run the callee body from `entry_set` until neither this entry's
/// exits nor anything deeper in the summary cache changes in a round.
fn iterate(
    eng: &Engine<'_>,
    callee: &CalleeFunc,
    cache: &psa_rsg::intern::SummaryCache,
    key: Key,
    entry_set: &Rsrsg,
    deadline: Option<Instant>,
) -> Result<(), InterprocReason> {
    for _ in 0..MAX_SUMMARY_ROUNDS {
        let v0 = cache.version();
        let result = run_callee_once(eng, callee, entry_set.clone(), deadline)?;
        let mut exits: Vec<CanonId> = result.exit.canon_ids();
        exits.sort();
        exits.dedup();
        let warned =
            !result.stats.warnings.is_empty() || result.stats.call_sites.values().any(|c| c.warned);
        let may_leak = internal_leak(callee, &exits, eng.ctx())
            || result.stats.call_sites.values().any(|c| c.may_leak);
        // Monotone union with whatever iterate is already cached (a
        // concurrent serve request may have contributed exits of its own).
        let prev = cache.get(key.0, key.1, key.2).unwrap_or_default();
        let mut merged = prev.clone();
        for x in exits {
            if !merged.exits.contains(&x) {
                merged.exits.push(x);
            }
        }
        merged.exits.sort();
        merged.warned |= warned;
        merged.may_leak |= may_leak;
        let changed = merged != prev && cache.put(key.0, key.1, key.2, merged);
        if !changed && cache.version() == v0 {
            return Ok(());
        }
    }
    Err(InterprocReason::SummaryRounds)
}

/// Does clearing the callee frame (return slot and anchors kept — the
/// caller re-attaches through them) drop nodes in any exit graph? If so
/// the callee holds cells nothing else reaches — a leak no caller-side
/// binding can prevent.
fn internal_leak(callee: &CalleeFunc, exits: &[CanonId], ctx: &ShapeCtx) -> bool {
    exits.iter().any(|&xid| {
        let (_, xg) = ctx.tables.interner.resolve(xid);
        let mut r = (*xg).clone();
        for &p in &callee.owned_pvars {
            if callee.ret_ptr != Some(p)
                && !callee.anchors.contains(&p)
                && !callee.cut_anchors.contains(&p)
            {
                r.clear_pl(p);
            }
        }
        r.gc() > 0
    })
}

/// One pass of the nested engine over the callee body. Sequential, on the
/// shared tables, bounded by the wall-clock remaining of the outer
/// deadline. Any degradation, stop, or hard budget error inside the callee
/// surfaces as [`InterprocReason::NestedStop`] — a partial exit set is an
/// under-approximation the caller must never consume.
fn run_callee_once(
    eng: &Engine<'_>,
    callee: &CalleeFunc,
    entry: Rsrsg,
    deadline: Option<Instant>,
) -> Result<crate::engine::AnalysisResult, InterprocReason> {
    let mut config = eng.config().clone();
    if let Some(dl) = deadline {
        let remaining = dl.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(InterprocReason::NestedStop);
        }
        config.budget.deadline = Some(remaining);
    }
    let nested = Engine::nested(
        &callee.ir,
        eng.callees(),
        config,
        eng.ctx().clone(),
        entry,
        eng.call_depth() + 1,
    );
    match nested.run_inner() {
        Ok(res) => {
            if res.stopped.is_some() || res.any_degraded() {
                Err(InterprocReason::NestedStop)
            } else {
                Ok(res)
            }
        }
        Err(_) => Err(InterprocReason::NestedStop),
    }
}
