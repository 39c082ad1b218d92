//! COMPRESS (§3.1): summarization of compatible nodes within one RSG.
//!
//! `C_NODES_RSG(n1, n2)` holds when TYPE, STRUCTURE, SHARED, SHSEL (every
//! selector), TOUCH coincide, the reference patterns are compatible
//! (`C_REFPAT`: neither node's must-sets contradict the other's may-sets,
//! see [`Node::refpat_compatible`]) and the simple paths are compatible
//! (`C_SPATH0`/`C_SPATH1` depending on the level). Compatible nodes merge via
//! `MERGE_NODES`, which intersects the must reference-pattern sets, widens
//! the possible sets, and keeps a cycle link only when the other node cannot
//! contradict it (paper's CYCLELINKS merge rule).

use crate::ctx::{Level, ShapeCtx};
use crate::graph::Rsg;
use crate::node::{Node, NodeId, NodeRef};
use crate::scratch;
use crate::sets::{CycleSet, SelSet};
use crate::spath::{self, SPath};
use psa_cfront::types::SelectorId;
use std::cmp::Ordering;

/// MERGE_NODES (§3.1) of nodes `a` and `b`, given for each whether it has
/// an out-link through a selector (`a_out`, `b_out`). The one copy of the
/// set algebra: [`merge_nodes`], JOIN across its two graphs and
/// `merge_group`'s fold call it.
///
/// Preconditions (checked in debug builds): equal TYPE and TOUCH. The
/// must-sets intersect and the possible sets widen. SHARED and SHSEL are
/// may-flags and take the OR: exact when they are equal, as C_NODES and
/// the widening's pinning signature require, and sound when the k-limit
/// merges differing flags. CYCLELINKS keeps the common
/// pairs, and a one-sided pair when the other node has no out-link through
/// the pair's first selector (so it cannot witness a violation). `summary`
/// is the flag for the result.
pub(crate) fn merge(
    a: NodeRef<'_>,
    a_out: impl Fn(SelectorId) -> bool,
    b: NodeRef<'_>,
    b_out: impl Fn(SelectorId) -> bool,
    summary: bool,
) -> Node {
    debug_assert_eq!(a.ty, b.ty);
    debug_assert_eq!(a.touch, b.touch);
    let selin = a.selin.inter(b.selin);
    let selout = a.selout.inter(b.selout);
    let mut pairs = Vec::new();
    for (s1, s2) in a.cyclelinks.iter() {
        if b.cyclelinks.contains(s1, s2) || !b_out(s1) {
            pairs.push((s1, s2));
        }
    }
    for (s1, s2) in b.cyclelinks.iter() {
        if !a.cyclelinks.contains(s1, s2) && !a_out(s1) {
            pairs.push((s1, s2));
        }
    }
    Node {
        ty: a.ty,
        shared: a.shared || b.shared,
        shsel: a.shsel.union(b.shsel),
        selin,
        selout,
        pos_selin: a.may_selin().union(b.may_selin()).diff(selin),
        pos_selout: a.may_selout().union(b.may_selout()).diff(selout),
        cyclelinks: CycleSet::from_pairs(pairs),
        touch: a.touch.clone(),
        summary,
    }
}

/// Does `n` have an out-link through a selector in `g`? ([`merge`]'s test.)
pub(crate) fn has_out(g: &Rsg, n: NodeId) -> impl Fn(SelectorId) -> bool + '_ {
    move |s| !g.succs(n, s).is_empty()
}

/// [`merge`] of nodes `a` and `b` of one graph `g`.
pub(crate) fn merge_nodes(g: &Rsg, a: NodeId, b: NodeId, summary: bool) -> Node {
    merge(g.node(a), has_out(g, a), g.node(b), has_out(g, b), summary)
}

/// Merge a whole group by folding [`merge`] left to right. The paper's
/// MERGE_COMP_NODES is a right fold; merging is associative up to the
/// conservative CYCLELINKS rule, and a left fold keeps the code iterative.
/// Every step reads the original graph's links, as in the paper (the
/// formulas reference `NL(rsg)`), and the accumulated node counts as
/// having every out-link, so a later member's one-sided CYCLELINKS pair
/// never survives.
fn merge_group(g: &Rsg, group: &[NodeId]) -> Node {
    debug_assert!(group.len() >= 2);
    let mut acc = merge_nodes(g, group[0], group[1], true);
    for &n in &group[2..] {
        acc = merge(NodeRef::of(&acc), |_| true, g.node(n), has_out(g, n), true);
    }
    acc
}

/// The equality part of the `C_NODES_RSG` signature as an order over node
/// ids: TYPE, STRUCTURE, SHARED, SHSEL, TOUCH, zero-length SPATH, field by
/// field, each set lexicographically. One sort by it leaves every class
/// contiguous and the classes in key order.
fn class_order(g: &Rsg, labels: &[u32], sps: &[SPath], a: u32, b: u32) -> Ordering {
    let (na, nb) = (g.node(NodeId(a)), g.node(NodeId(b)));
    let (a, b) = (a as usize, b as usize);
    na.ty
        .0
        .cmp(&nb.ty.0)
        .then(labels[a].cmp(&labels[b]))
        .then(na.shared.cmp(&nb.shared))
        .then(na.shsel.0.cmp(&nb.shsel.0))
        .then_with(|| na.touch.cmp(nb.touch))
        .then_with(|| sps[a].zero.cmp(&sps[b].zero))
}

/// A group under construction in [`compress_once`]'s greedy pass: its
/// number in output order and its members' accumulated reference pattern
/// (intersection of musts, union of mays).
struct View {
    group: u32,
    selin: SelSet,
    selout: SelSet,
    may_in: SelSet,
    may_out: SelSet,
    /// No member has a one-length SPATH.
    one_empty: bool,
}

scratch::pool!(@impl VIEW_POOL, View);

impl View {
    fn new(group: u32, n: NodeRef<'_>, one_empty: bool) -> View {
        View {
            group,
            selin: n.selin,
            selout: n.selout,
            may_in: n.may_selin(),
            may_out: n.may_selout(),
            one_empty,
        }
    }

    /// `C_REFPAT` against the accumulated view.
    fn refpat_ok(&self, n: NodeRef<'_>) -> bool {
        self.selin.diff(n.may_selin()).is_empty()
            && n.selin.diff(self.may_in).is_empty()
            && self.selout.diff(n.may_selout()).is_empty()
            && n.selout.diff(self.may_out).is_empty()
    }

    fn absorb(&mut self, n: NodeRef<'_>, one_empty: bool) {
        self.selin = self.selin.inter(n.selin);
        self.selout = self.selout.inter(n.selout);
        self.may_in = self.may_in.union(n.may_selin());
        self.may_out = self.may_out.union(n.may_selout());
        self.one_empty &= one_empty;
    }
}

/// One COMPRESS pass: partition by the equality signature, then greedily
/// sub-partition each class by the non-transitive compatibilities —
/// `C_REFPAT` (musts ⊆ mays both ways, against the accumulated group view)
/// and `C_SPATH1` when the level requires it. Merge groups, rebuild.
/// Returns `None` when no group has two members.
///
/// The partition is one `(group, node)` pair per node in a pooled buffer:
/// a stable sort by [`class_order`] orders the classes, the greedy pass
/// numbers the groups, and only a merging pass sorts by group to rebuild.
/// A pass that merges nothing allocates nothing beyond the STRUCTURE
/// labels and the SPATHs.
fn compress_once(g: &Rsg, level: Level) -> Option<Rsg> {
    let labels = g.structure_labels();
    let sps = spath::spaths(g);
    let class = |a: u32, b: u32| class_order(g, &labels, &sps, a, b);

    let mut part = scratch::span_buf();
    part.extend(g.node_ids().map(|id| (0, id.0)));
    part.sort_by(|x, y| class(x.1, y.1));

    let mut views = scratch::buf::<View>();
    let mut groups = 0u32;
    let mut merged_any = false;
    let mut lo = 0;
    while lo < part.len() {
        let mut hi = lo + 1;
        while hi < part.len() && class(part[lo].1, part[hi].1).is_eq() {
            hi += 1;
        }
        views.clear();
        for i in lo..hi {
            let n = g.node(NodeId(part[i].1));
            let one = &sps[part[i].1 as usize].one;
            // A view's one-length paths are its members' (the earlier
            // positions of this class carrying its group number).
            let shares_one = |group: u32| {
                part[lo..i].iter().any(|&(grp, m)| {
                    grp == group && sps[m as usize].one.iter().any(|x| one.contains(x))
                })
            };
            let fit = views.iter_mut().find(|v| {
                v.refpat_ok(n)
                    && (!level.use_spath1()
                        || (one.is_empty() && v.one_empty)
                        || shares_one(v.group))
            });
            part[i].0 = match fit {
                Some(v) => {
                    v.absorb(n, one.is_empty());
                    merged_any = true;
                    v.group
                }
                None => {
                    let group = groups;
                    groups += 1;
                    views.push(View::new(group, n, one.is_empty()));
                    group
                }
            };
        }
        lo = hi;
    }
    if !merged_any {
        return None;
    }

    // Group order, members in id order within each group: JOIN pairs
    // nodes by id, so the output numbering is part of the result.
    part.sort_unstable();
    let mut members = scratch::node_buf();
    members.extend(part.iter().map(|&(_, id)| NodeId(id)));
    let mut rest = &members[..];
    let groups = part.chunk_by(|x, y| x.0 == y.0).map(|run| {
        let (grp, tail) = rest.split_at(run.len());
        rest = tail;
        grp
    });
    Some(rebuild(g, groups))
}

/// Rebuild `g` with each group merged into one node, in group order.
/// Singleton groups copy their node; PL and NL follow the node map.
fn rebuild<'a>(g: &Rsg, groups: impl IntoIterator<Item = &'a [NodeId]>) -> Rsg {
    let mut map: Vec<Option<NodeId>> = vec![None; g.num_slots()];
    let mut out = Rsg::empty(g.num_pvar_slots());
    for grp in groups {
        let node = if grp.len() == 1 {
            g.node(grp[0]).to_node()
        } else {
            merge_group(g, grp)
        };
        let new_id = out.add_node(node);
        for &old in grp {
            map[old.0 as usize] = Some(new_id);
        }
    }
    for (p, n) in g.pl_iter() {
        out.set_pl(p, map[n.0 as usize].expect("mapped"));
    }
    for (a, sel, b) in g.links() {
        out.add_link(
            map[a.0 as usize].expect("mapped"),
            sel,
            map[b.0 as usize].expect("mapped"),
        );
    }
    out
}

/// COMPRESS to a fixed point: merging can expose further compatible pairs
/// (structure labels and SPATHs change), so iterate until stable. The node
/// count strictly decreases on every merging pass, so this terminates.
///
/// Takes the graph by value: garbage is collected in place, each merging
/// pass rebuilds a fresh graph, and the output is one final `clone()`, the
/// rebuild boundary (freed slots become allocatable, capacity is trimmed
/// for a graph that lives on in the tables).
pub fn compress(mut g: Rsg, _ctx: &ShapeCtx, level: Level) -> Rsg {
    g.gc();
    while let Some(next) = compress_once(&g, level) {
        g = next;
    }
    g.clone()
}

/// Forced summarization (k-limiting): COMPRESS with the `C_NODES_RSG`
/// compatibility relaxed to the merge preconditions alone — equal TYPE and
/// TOUCH — so the node count falls under a budget cap even when the precise
/// predicate keeps nodes apart. Pvar-pointed nodes stay singular (the
/// representation's singularity invariant forbids a pvar pointing at a
/// summary node, and their PL precision drives DIVIDE/materialization);
/// everything else of one (TYPE, TOUCH) class collapses into a single
/// summary node. The result is sound but coarser: may-sets union,
/// must-sets intersect, SHARED/SHSEL take the OR over every member,
/// CYCLELINKS keep only pairs no member can contradict.
///
/// Best effort: the reachable floor is one singleton per pvar-pointed node
/// plus one summary per (TYPE, TOUCH) class; a graph still over the cap at
/// that floor is returned anyway.
pub fn force_compress(g: &Rsg, ctx: &ShapeCtx, level: Level, max_nodes: usize) -> Rsg {
    let cur = compress(g.clone(), ctx, level);
    if cur.num_nodes() <= max_nodes {
        return cur;
    }
    match force_round(&cur) {
        // Coarsening can expose ordinary compatibilities; re-establish the
        // normal COMPRESS fixpoint on the coarsened graph.
        Some(next) => compress(next, ctx, level),
        None => cur,
    }
}

/// [`force_compress`]'s merge: pinned nodes first, in id order, then one
/// group per (TYPE, TOUCH) class of the others, in key order. `None` when
/// no class has two members.
fn force_round(cur: &Rsg) -> Option<Rsg> {
    let mut is_pinned = vec![false; cur.num_slots()];
    for (_, n) in cur.pl_iter() {
        is_pinned[n.0 as usize] = true;
    }
    let (pinned, mut rest): (Vec<NodeId>, Vec<NodeId>) =
        cur.node_ids().partition(|n| is_pinned[n.0 as usize]);
    let key = |n: &NodeId| {
        let n = cur.node(*n);
        (n.ty.0, n.touch)
    };
    rest.sort_by(|a, b| key(a).cmp(&key(b)));
    if rest.windows(2).all(|w| key(&w[0]) != key(&w[1])) {
        return None;
    }
    let classes = rest.chunk_by(|a, b| key(a) == key(b));
    Some(rebuild(cur, pinned.chunks(1).chain(classes)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;
    use psa_cfront::types::{SelectorId, StructId};
    use psa_ir::PvarId;

    fn sel(i: u32) -> SelectorId {
        SelectorId(i)
    }

    /// p0 -> n0 -s0-> n1 -s0-> n2 -s0-> n3, with must in/out sets as a
    /// concrete singly-linked list would have.
    fn list4() -> Rsg {
        builder::singly_linked_list(4, 1, PvarId(0), sel(0))
    }

    #[test]
    fn list_middle_nodes_summarize_at_l1() {
        let ctx = ShapeCtx::synthetic(1, 1);
        let g = list4();
        assert_eq!(g.num_nodes(), 4);
        let c = compress(g.clone(), &ctx, Level::L1);
        // head (pvar-pointed, selin ∅), middle (selin {s0}, selout {s0}),
        // tail (selout ∅): 3 classes.
        assert_eq!(c.num_nodes(), 3);
        c.check_invariants(&ctx).unwrap();
        // The merged middle node is a summary with a self link.
        let summary: Vec<_> = c.node_ids().filter(|&n| c.node(n).summary).collect();
        assert_eq!(summary.len(), 1);
        let s = summary[0];
        assert!(c.has_link(s, sel(0), s));
    }

    #[test]
    fn spath1_keeps_one_hop_node_separate() {
        let ctx = ShapeCtx::synthetic(1, 1);
        let g = list4();
        let c = compress(g.clone(), &ctx, Level::L2);
        // At L2, the node one hop from p0 cannot merge with the deeper
        // middle node: head, second, middle(third), tail = 4 nodes.
        assert_eq!(c.num_nodes(), 4);
    }

    #[test]
    fn longer_list_compresses_same_at_l1() {
        let ctx = ShapeCtx::synthetic(1, 1);
        let g = builder::singly_linked_list(10, 1, PvarId(0), sel(0));
        let c = compress(g.clone(), &ctx, Level::L1);
        assert_eq!(c.num_nodes(), 3, "any length ≥ 3 collapses to 3 nodes");
    }

    #[test]
    fn shared_flag_blocks_merge() {
        let ctx = ShapeCtx::synthetic(1, 1);
        let mut g = list4();
        // Mark one middle node as shared: it can no longer merge with the
        // other middle node.
        let ids: Vec<_> = g.node_ids().collect();
        *g.node_mut(ids[1]).shared = true;
        let c = compress(g.clone(), &ctx, Level::L1);
        assert_eq!(c.num_nodes(), 4);
    }

    #[test]
    fn touch_blocks_merge_at_l3_only() {
        let ctx = ShapeCtx::synthetic(2, 1);
        let mut g = list4();
        let ids: Vec<_> = g.node_ids().collect();
        g.node_mut(ids[1]).touch.insert(PvarId(1));
        // At L3 the touched middle differs from the untouched middle.
        let c3 = compress(g.clone(), &ctx, Level::L3);
        assert_eq!(c3.num_nodes(), 4);
        // The compatibility predicate always compares TOUCH, but at L1 the
        // engine never populates it; simulate by clearing.
        let mut g1 = g.clone();
        for id in g1.node_ids().collect::<Vec<_>>() {
            *g1.node_mut(id).touch = crate::sets::TouchSet::new();
        }
        let c1 = compress(g1.clone(), &ctx, Level::L1);
        assert_eq!(c1.num_nodes(), 3);
    }

    #[test]
    fn disjoint_structures_never_merge() {
        let ctx = ShapeCtx::synthetic(2, 1);
        // Two disjoint 3-lists pointed by p0 and p1.
        let mut g = builder::singly_linked_list(3, 2, PvarId(0), sel(0));
        let heads: Vec<_> = g.node_ids().collect();
        let _ = heads;
        let a = g.add_fresh(StructId(0));
        let b = g.add_fresh(StructId(0));
        let c = g.add_fresh(StructId(0));
        g.set_pl(PvarId(1), a);
        g.add_link(a, sel(0), b);
        g.add_link(b, sel(0), c);
        g.node_mut(a).set_must_out(sel(0));
        g.node_mut(b).set_must_in(sel(0));
        g.node_mut(b).set_must_out(sel(0));
        g.node_mut(c).set_must_in(sel(0));
        let before = g.num_nodes();
        let out = compress(g.clone(), &ctx, Level::L1);
        // STRUCTURE forbids cross-structure merges; within each list nothing
        // merges either (lists of 3 have distinct head/middle/tail).
        assert_eq!(out.num_nodes(), before);
    }

    #[test]
    fn merge_nodes_reference_patterns() {
        let mut g = Rsg::empty(1);
        let a = g.add_fresh(StructId(0));
        let b = g.add_fresh(StructId(0));
        g.node_mut(a).set_must_in(sel(0));
        g.node_mut(a).set_must_out(sel(0));
        g.node_mut(b).set_must_in(sel(0));
        let m = merge_nodes(&g, a, b, true);
        assert_eq!(m.selin, crate::sets::SelSet::single(sel(0)));
        assert!(m.selout.is_empty());
        // a's must-out becomes possible in the merge.
        assert!(m.pos_selout.contains(sel(0)));
        assert!(m.summary);
    }

    #[test]
    fn merge_nodes_cyclelinks_one_sided() {
        let mut g = Rsg::empty(1);
        let a = g.add_fresh(StructId(0));
        let b = g.add_fresh(StructId(0));
        let t = g.add_fresh(StructId(0));
        g.node_mut(a).cyclelinks.insert(sel(0), sel(1));
        // b has no s0 out-link: a's pair survives.
        let m = merge_nodes(&g, a, b, true);
        assert!(m.cyclelinks.contains(sel(0), sel(1)));
        // Give b an s0 link: the pair is dropped (b cannot guarantee it).
        g.add_link(b, sel(0), t);
        let m2 = merge_nodes(&g, a, b, true);
        assert!(!m2.cyclelinks.contains(sel(0), sel(1)));
    }

    #[test]
    fn compress_idempotent() {
        let ctx = ShapeCtx::synthetic(1, 1);
        let g = list4();
        let c1 = compress(g.clone(), &ctx, Level::L1);
        let c2 = compress(c1.clone(), &ctx, Level::L1);
        assert_eq!(c1.num_nodes(), c2.num_nodes());
        assert_eq!(c1.num_links(), c2.num_links());
    }

    #[test]
    fn force_compress_noop_under_cap() {
        let ctx = ShapeCtx::synthetic(1, 1);
        let g = list4();
        let normal = compress(g.clone(), &ctx, Level::L1);
        let forced = force_compress(&g, &ctx, Level::L1, 8);
        assert_eq!(forced.num_nodes(), normal.num_nodes());
        assert_eq!(forced.num_links(), normal.num_links());
    }

    #[test]
    fn force_compress_collapses_below_spath_precision() {
        let ctx = ShapeCtx::synthetic(1, 1);
        let g = list4();
        // L2 keeps 4 nodes apart (C_SPATH1); the relaxed merge collapses
        // all non-pvar-pointed nodes of the single list type into one
        // summary, leaving head + summary.
        let normal = compress(g.clone(), &ctx, Level::L2);
        assert_eq!(normal.num_nodes(), 4);
        let forced = force_compress(&g, &ctx, Level::L2, 3);
        assert!(forced.num_nodes() <= 3);
        forced.check_invariants(&ctx).unwrap();
        // The coarsened graph still covers the precise one.
        assert!(crate::subsume::subsumes(&forced, &normal));
    }

    #[test]
    fn force_compress_keeps_pvar_pointed_nodes_singular() {
        let ctx = ShapeCtx::synthetic(2, 1);
        let mut g = builder::singly_linked_list(4, 2, PvarId(0), sel(0));
        let tail = g.node_ids().last().unwrap();
        g.set_pl(PvarId(1), tail);
        // Cap 3 is reachable: p0's head, p1's tail, collapsed middles.
        let forced3 = force_compress(&g, &ctx, Level::L2, 3);
        assert_eq!(forced3.num_nodes(), 3);
        forced3.check_invariants(&ctx).unwrap();
        // Cap 2 is *not* reachable — the singularity invariant keeps both
        // pointed nodes singular; best effort returns the 3-node floor.
        let forced2 = force_compress(&g, &ctx, Level::L2, 2);
        assert_eq!(forced2.num_nodes(), 3);
        forced2.check_invariants(&ctx).unwrap();
    }

    #[test]
    fn force_compress_keeps_every_members_may_flags() {
        // One SHARED, SHSEL(sel 0) node behind the head of a 6-list, at each
        // position: the k-limit folds it into the one summary with the
        // other non-head nodes, and the fold must OR the may-flags of every
        // member, not only of the first two.
        let ctx = ShapeCtx::synthetic(1, 1);
        for pos in 1..6 {
            let mut g = builder::singly_linked_list(6, 1, PvarId(0), sel(0));
            let n = g.node_ids().nth(pos).unwrap();
            *g.node_mut(n).shared = true;
            g.node_mut(n).shsel.insert(sel(0));
            for level in Level::ALL {
                let forced = force_compress(&g, &ctx, level, 2);
                forced.check_invariants(&ctx).unwrap();
                let nodes: Vec<_> = forced.node_ids().map(|m| forced.node(m)).collect();
                assert!(
                    nodes.iter().any(|m| m.shared),
                    "SHARED lost at {level}, position {pos}"
                );
                assert!(
                    nodes.iter().any(|m| m.shsel.contains(sel(0))),
                    "SHSEL(sel 0) lost at {level}, position {pos}"
                );
            }
        }
    }

    #[test]
    fn doubly_linked_list_compress_preserves_cycles() {
        let ctx = ShapeCtx::synthetic(1, 2);
        let g = builder::doubly_linked_list(5, 1, PvarId(0), sel(0), sel(1));
        let c = compress(g.clone(), &ctx, Level::L1);
        // head, middle summary, tail.
        assert_eq!(c.num_nodes(), 3);
        // Middle summary keeps the <nxt,prv> and <prv,nxt> cycle pairs.
        let mid = c
            .node_ids()
            .find(|&n| c.node(n).summary)
            .expect("summary node");
        assert!(c.node(mid).cyclelinks.contains(sel(0), sel(1)));
        assert!(c.node(mid).cyclelinks.contains(sel(1), sel(0)));
    }
}
