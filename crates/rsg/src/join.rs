//! JOIN (§4.3): union of two compatible RSGs into one.
//!
//! `COMPATIBLE(rsg1, rsg2)` requires (i) equal alias relations between pvars
//! (we additionally require the same *set* of non-NULL pvars, so that PL
//! absence — NULL-ness — is preserved exactly and branch conditions can
//! filter on it), and (ii) `C_NODES` compatibility of the nodes pointed to
//! by each pvar: equal TYPE, SHARED, SHSEL and TOUCH, compatible reference
//! patterns and compatible simple paths.
//!
//! The joined graph keeps every node and link of both inputs; nodes pointed
//! to by the same pvar are merged (MERGE_NODES), and remaining cross-graph
//! compatible pairs merge greedily. Keeping unmerged nodes separate is
//! always sound — the union over-approximates both inputs — so the greedy
//! pairing affects only precision and size, never soundness.

use crate::compress::merge_nodes;
use crate::ctx::Level;
use crate::graph::Rsg;
use crate::node::{NodeId, NodeRef};
use crate::scratch;
use crate::spath::{self, SPath};
use psa_ir::PvarId;

/// The SPATH-free part of C_NODES: equal TYPE, SHARED, SHSEL and TOUCH,
/// and compatible reference patterns.
fn same_props(a: NodeRef<'_>, b: NodeRef<'_>) -> bool {
    a.ty == b.ty
        && a.shared == b.shared
        && a.shsel == b.shsel
        && a.touch == b.touch
        && a.refpat_compatible(b)
}

/// C_NODES (§4): node compatibility across graphs (no STRUCTURE — that is
/// the intra-graph `C_NODES_RSG` extra).
pub fn c_nodes(
    g1: &Rsg,
    n1: NodeId,
    g2: &Rsg,
    n2: NodeId,
    sp1: &SPath,
    sp2: &SPath,
    level: Level,
) -> bool {
    same_props(g1.node(n1), g2.node(n2)) && spath::c_spath(sp1, sp2, level.use_spath1())
}

/// No bound pvar seen yet for a node slot.
const UNBOUND: u32 = u32::MAX;

/// COMPATIBLE (§4): may `g1` and `g2` be joined?
///
/// Reads only the pinned nodes. One pass over the PL slots checks equal
/// NULL-ness and equal alias relations: each pvar must see, in both
/// graphs, the same first (lowest) pvar bound to its node. C_NODES then
/// runs once per alias class on the class's pair of nodes. The class fixes
/// their zero-length SPATHs (C_SPATH0), and their one-length SPATHs come
/// from the nodes' in-links out of pinned nodes, so no whole-graph SPATH
/// is built.
pub fn compatible(g1: &Rsg, g2: &Rsg, level: Level) -> bool {
    debug_assert_eq!(g1.num_pvar_slots(), g2.num_pvar_slots());
    // Same known scalar facts: merging configs with different flag values
    // would erase exactly the distinctions flag tracking exists for.
    if g1.scalars() != g2.scalars() {
        return false;
    }
    let mut first1 = scratch::idx_buf();
    let mut first2 = scratch::idx_buf();
    first1.resize(g1.num_slots(), UNBOUND);
    first2.resize(g2.num_slots(), UNBOUND);
    for p in 0..g1.num_pvar_slots() {
        let p = PvarId(p as u32);
        match (g1.pl(p), g2.pl(p)) {
            (None, None) => {}
            (Some(n1), Some(n2)) => {
                let (f1, f2) = (&mut first1[n1.0 as usize], &mut first2[n2.0 as usize]);
                if *f1 == UNBOUND {
                    *f1 = p.0;
                }
                if *f2 == UNBOUND {
                    *f2 = p.0;
                }
                if f1 != f2 {
                    return false;
                }
            }
            _ => return false,
        }
    }
    g1.pl_iter()
        .filter(|&(p, n1)| first1[n1.0 as usize] == p.0)
        .all(|(p, n1)| {
            let n2 = g2.pl(p).expect("same domain");
            same_props(g1.node(n1), g2.node(n2))
                && (!level.use_spath1() || one_paths_compatible(g1, n1, &first1, g2, n2, &first2))
        })
}

/// C_SPATH1's one-length part for a pair of nodes pinned by the same alias
/// class, given equal alias relations: both nodes lack one-length SPATHs,
/// or some `<q, sel>` reaches both. `<q, sel>` reaches `n1` when `n1` has
/// an in-link `sel` from the node `q` is bound to; that node's alias class
/// is bound to one node in `g2` too, found through the class's first pvar.
fn one_paths_compatible(
    g1: &Rsg,
    n1: NodeId,
    first1: &[u32],
    g2: &Rsg,
    n2: NodeId,
    first2: &[u32],
) -> bool {
    let pinned = |first: &[u32], m: NodeId| first[m.0 as usize] != UNBOUND;
    let mut pinned_in1 = g1
        .in_links(n1)
        .iter()
        .filter(|&&(m1, _)| pinned(first1, m1))
        .peekable();
    if pinned_in1.peek().is_none() {
        return !g2.in_links(n2).iter().any(|&(m2, _)| pinned(first2, m2));
    }
    pinned_in1.any(|&(m1, sel)| {
        let q = PvarId(first1[m1.0 as usize]);
        let m2 = g2.pl(q).expect("same domain");
        g2.has_link(m2, sel, n2)
    })
}

/// JOIN (§4.3). Callers must ensure [`compatible`] holds.
pub fn join(g1: &Rsg, g2: &Rsg, level: Level) -> Rsg {
    // 1. Disjoint union.
    let mut combined = Rsg::empty(g1.num_pvar_slots());
    let map = |g: &Rsg, out: &mut Rsg| -> Vec<Option<NodeId>> {
        let cap = g.node_ids().map(|n| n.0 as usize + 1).max().unwrap_or(0);
        let mut m: Vec<Option<NodeId>> = vec![None; cap];
        for id in g.node_ids() {
            m[id.0 as usize] = Some(out.add_node(g.node(id).to_node()));
        }
        m
    };
    let m1 = map(g1, &mut combined);
    let m2 = map(g2, &mut combined);
    for (a, s, b) in g1.links() {
        combined.add_link(m1[a.0 as usize].unwrap(), s, m1[b.0 as usize].unwrap());
    }
    for (a, s, b) in g2.links() {
        combined.add_link(m2[a.0 as usize].unwrap(), s, m2[b.0 as usize].unwrap());
    }

    // 2. Merge pairs: same-pvar targets always; then greedy C_NODES pairs.
    let total = combined
        .node_ids()
        .map(|n| n.0 as usize + 1)
        .max()
        .unwrap_or(0);
    let mut uf: Vec<usize> = (0..total).collect();
    fn find(uf: &mut [usize], mut x: usize) -> usize {
        while uf[x] != x {
            uf[x] = uf[uf[x]];
            x = uf[x];
        }
        x
    }
    let union = |uf: &mut Vec<usize>, a: NodeId, b: NodeId| {
        let ra = find(uf, a.0 as usize);
        let rb = find(uf, b.0 as usize);
        if ra != rb {
            uf[ra.max(rb)] = ra.min(rb);
        }
    };
    for (p, n1) in g1.pl_iter() {
        if let Some(n2) = g2.pl(p) {
            union(
                &mut uf,
                m1[n1.0 as usize].unwrap(),
                m2[n2.0 as usize].unwrap(),
            );
        }
    }
    let sp1 = spath::spaths(g1);
    let sp2 = spath::spaths(g2);
    // Nodes already merged through a pvar pair are out of the greedy pass.
    let mut group_size = vec![0usize; total];
    for i in 0..total {
        let r = find(&mut uf, i);
        group_size[r] += 1;
    }
    let ungrouped = |uf: &mut Vec<usize>, group_size: &[usize], id: NodeId| {
        group_size[find(uf, id.0 as usize)] == 1
    };
    let mut matched2: Vec<bool> =
        vec![false; g2.node_ids().map(|n| n.0 as usize + 1).max().unwrap_or(0)];
    for n1 in g1.node_ids() {
        let c1 = m1[n1.0 as usize].unwrap();
        if !ungrouped(&mut uf, &group_size, c1) {
            continue;
        }
        for n2 in g2.node_ids() {
            if matched2[n2.0 as usize] {
                continue;
            }
            let c2 = m2[n2.0 as usize].unwrap();
            if !ungrouped(&mut uf, &group_size, c2) {
                continue;
            }
            if c_nodes(
                g1,
                n1,
                g2,
                n2,
                &sp1[n1.0 as usize],
                &sp2[n2.0 as usize],
                level,
            ) {
                union(&mut uf, c1, c2);
                matched2[n2.0 as usize] = true;
                break;
            }
        }
    }

    // 3. Build the output with merged nodes.
    let mut groups: std::collections::BTreeMap<usize, Vec<NodeId>> =
        std::collections::BTreeMap::new();
    for id in combined.node_ids().collect::<Vec<_>>() {
        let r = find(&mut uf, id.0 as usize);
        groups.entry(r).or_default().push(id);
    }
    let mut out = Rsg::empty(g1.num_pvar_slots());
    let mut final_map: Vec<Option<NodeId>> = vec![None; total];
    for members in groups.values() {
        let new_id = if members.len() == 1 {
            out.add_node(combined.node(members[0]).to_node())
        } else {
            // Fold MERGE_NODES pairwise over the combined graph (whose NL is
            // the union, giving the conservative cyclelinks rule the right
            // visibility). Cross-graph merges are summaries only if a member
            // already was one. The fold mutates only this group's own
            // accumulator node and `merge_nodes` reads only the two merged
            // nodes plus the (unchanged) adjacency, so folding in place on
            // `combined` is exact — groups are disjoint and never observe
            // another group's accumulator.
            let acc_id = members[0];
            for &m in &members[1..] {
                let summary = combined.node(acc_id).summary || combined.node(m).summary;
                let merged = merge_nodes(&combined, acc_id, m, summary);
                combined.node_mut(acc_id).assign(merged);
            }
            out.add_node(combined.node(acc_id).to_node())
        };
        for &m in members {
            final_map[m.0 as usize] = Some(new_id);
        }
    }
    for (a, s, b) in combined.links() {
        out.add_link(
            final_map[a.0 as usize].unwrap(),
            s,
            final_map[b.0 as usize].unwrap(),
        );
    }
    for (p, n1) in g1.pl_iter() {
        let c = m1[n1.0 as usize].unwrap();
        out.set_pl(p, final_map[c.0 as usize].unwrap());
    }
    // Keep the facts both sides agree on (equal under COMPATIBLE; the
    // widening join may merge differing maps, where intersection is the
    // sound lattice join).
    for (v, k) in g1.scalars() {
        if g2.scalars().get(*v) == Some(*k) {
            out.set_scalar(*v, *k);
        }
    }
    out.gc();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;
    use crate::compress::compress;
    use crate::ctx::ShapeCtx;
    use psa_cfront::types::{SelectorId, StructId};

    fn sel(i: u32) -> SelectorId {
        SelectorId(i)
    }

    #[test]
    fn alias_partition_decides_compatibility_not_node_ids() {
        // g1 binds {p0, p1} and {p2}; g2 the same classes on nodes made in
        // the other order; g3 binds {p0} and {p1, p2}.
        let mut g1 = Rsg::empty(3);
        let a = g1.add_fresh(StructId(0));
        let b = g1.add_fresh(StructId(0));
        g1.set_pl(PvarId(0), a);
        g1.set_pl(PvarId(1), a);
        g1.set_pl(PvarId(2), b);
        let mut g2 = Rsg::empty(3);
        let b2 = g2.add_fresh(StructId(0));
        let a2 = g2.add_fresh(StructId(0));
        g2.set_pl(PvarId(0), a2);
        g2.set_pl(PvarId(1), a2);
        g2.set_pl(PvarId(2), b2);
        let mut g3 = Rsg::empty(3);
        let c = g3.add_fresh(StructId(0));
        let d = g3.add_fresh(StructId(0));
        g3.set_pl(PvarId(0), c);
        g3.set_pl(PvarId(1), d);
        g3.set_pl(PvarId(2), d);
        assert!(compatible(&g1, &g2, Level::L1));
        assert!(!compatible(&g1, &g3, Level::L1));
        assert!(!compatible(&g3, &g2, Level::L1));
    }

    #[test]
    fn different_domains_incompatible() {
        let mut g1 = Rsg::empty(2);
        let a = g1.add_fresh(StructId(0));
        g1.set_pl(PvarId(0), a);
        let mut g2 = Rsg::empty(2);
        let b = g2.add_fresh(StructId(0));
        g2.set_pl(PvarId(1), b);
        assert!(!compatible(&g1, &g2, Level::L1));
    }

    #[test]
    fn different_alias_incompatible() {
        let mut g1 = Rsg::empty(2);
        let a = g1.add_fresh(StructId(0));
        g1.set_pl(PvarId(0), a);
        g1.set_pl(PvarId(1), a);
        let mut g2 = Rsg::empty(2);
        let b = g2.add_fresh(StructId(0));
        let c = g2.add_fresh(StructId(0));
        g2.set_pl(PvarId(0), b);
        g2.set_pl(PvarId(1), c);
        assert!(!compatible(&g1, &g2, Level::L1));
    }

    #[test]
    fn identical_graphs_compatible_and_join_to_same_shape() {
        let ctx = ShapeCtx::synthetic(1, 1);
        let g = compress(
            builder::singly_linked_list(5, 1, PvarId(0), sel(0)),
            &ctx,
            Level::L1,
        );
        assert!(compatible(&g, &g, Level::L1));
        let j = join(&g, &g, Level::L1);
        let jc = compress(j.clone(), &ctx, Level::L1);
        assert_eq!(jc.num_nodes(), g.num_nodes());
        assert_eq!(jc.num_links(), g.num_links());
    }

    #[test]
    fn join_lists_of_different_length() {
        // A 3-list and a 5-list (both compressed) join into the generic
        // "2+ list" shape.
        let ctx = ShapeCtx::synthetic(1, 1);
        let g3 = compress(
            builder::singly_linked_list(4, 1, PvarId(0), sel(0)),
            &ctx,
            Level::L1,
        );
        let g5 = compress(
            builder::singly_linked_list(6, 1, PvarId(0), sel(0)),
            &ctx,
            Level::L1,
        );
        assert!(compatible(&g3, &g5, Level::L1));
        let j = compress(join(&g3, &g5, Level::L1), &ctx, Level::L1);
        assert_eq!(j.num_nodes(), 3, "head / middle summary / tail");
        let head = j.pl(PvarId(0)).unwrap();
        assert!(!j.node(head).summary);
    }

    #[test]
    fn incompatible_pvar_nodes_block_join() {
        // g1: p0 -> node with must-out sel0; g2: p0 -> node without.
        let mut g1 = Rsg::empty(1);
        let a = g1.add_fresh(StructId(0));
        let a2 = g1.add_fresh(StructId(0));
        g1.set_pl(PvarId(0), a);
        g1.add_link(a, sel(0), a2);
        g1.node_mut(a).set_must_out(sel(0));
        g1.node_mut(a2).set_must_in(sel(0));
        let mut g2 = Rsg::empty(1);
        let b = g2.add_fresh(StructId(0));
        g2.set_pl(PvarId(0), b);
        assert!(!compatible(&g1, &g2, Level::L1));
    }

    #[test]
    fn join_keeps_union_of_links() {
        // Same alias structure, one graph has an extra tail node.
        let ctx = ShapeCtx::synthetic(1, 1);
        let mut g1 = Rsg::empty(1);
        let a1 = g1.add_fresh(StructId(0));
        g1.set_pl(PvarId(0), a1);
        let mut g2 = Rsg::empty(1);
        let a2 = g2.add_fresh(StructId(0));
        let b2 = g2.add_fresh(StructId(0));
        g2.set_pl(PvarId(0), a2);
        g2.add_link(a2, sel(0), b2);
        g2.node_mut(a2).pos_selout.insert(sel(0));
        g2.node_mut(b2).pos_selin.insert(sel(0));
        // The pvar nodes differ in refpat? a1: empty; a2: pos out only —
        // must-sets both empty => refpat-compatible => joinable.
        assert!(compatible(&g1, &g2, Level::L1));
        let j = join(&g1, &g2, Level::L1);
        assert_eq!(j.num_links(), 1);
        let h = j.pl(PvarId(0)).unwrap();
        // Out-selector became possible, not must, after the merge.
        assert!(!j.node(h).selout.contains(sel(0)));
        assert!(j.node(h).pos_selout.contains(sel(0)));
        j.check_invariants(&ctx).unwrap();
    }

    #[test]
    fn join_never_marks_pvar_nodes_summary() {
        let ctx = ShapeCtx::synthetic(1, 1);
        let g3 = compress(
            builder::singly_linked_list(3, 1, PvarId(0), sel(0)),
            &ctx,
            Level::L1,
        );
        let g4 = compress(
            builder::singly_linked_list(4, 1, PvarId(0), sel(0)),
            &ctx,
            Level::L1,
        );
        let j = join(&g3, &g4, Level::L1);
        j.check_invariants(&ctx).unwrap();
    }
}
