//! JOIN (§4.3): union of two compatible RSGs into one.
//!
//! `COMPATIBLE(rsg1, rsg2)` requires (i) equal alias relations between pvars
//! (we additionally require the same *set* of non-NULL pvars, so that PL
//! absence — NULL-ness — is preserved exactly and branch conditions can
//! filter on it), and (ii) `C_NODES` compatibility of the nodes pointed to
//! by each pvar: equal TYPE, SHARED, SHSEL and TOUCH, compatible reference
//! patterns and compatible simple paths.
//!
//! Both kernels read one pvar pairing, `pin_pairs`: the one-to-one map
//! between the nodes that the same pvars are bound to. COMPATIBLE runs
//! C_NODES on each pair. JOIN merges each pair (MERGE_NODES), pairs every
//! remaining `g1` node, in node-id order, with the first remaining `g2`
//! node it is C_NODES-compatible with, and keeps every node and link of
//! both inputs. Keeping unmerged nodes separate is always sound — the union
//! over-approximates both inputs — so the greedy pairing affects only
//! precision and size, never soundness. No whole-graph SPATH is built: the
//! pairing fixes the zero-length SPATHs, and a node's one-length SPATHs are
//! its in-links from pinned nodes.

use crate::compress::{has_out, merge};
use crate::ctx::Level;
use crate::graph::Rsg;
use crate::node::NodeId;
use crate::scratch::{self, ScratchBuf};
use psa_ir::PvarId;

/// No partner for a node slot.
const UNPAIRED: u32 = u32::MAX;

/// The pvar pairing of two graphs, per node slot: `of1[n1]` is the `g2`
/// node bound to the same pvars as `g1`'s `n1`, `of2` the inverse, and
/// [`UNPAIRED`] marks a node no pvar is bound to.
pub(crate) struct PinPairs {
    of1: ScratchBuf<u32>,
    of2: ScratchBuf<u32>,
}

impl PinPairs {
    /// The `g2` node bound to the same pvars as `n1`.
    fn partner(&self, n1: NodeId) -> Option<NodeId> {
        Some(self.of1[n1.0 as usize])
            .filter(|&m| m != UNPAIRED)
            .map(NodeId)
    }

    /// Is some pvar bound to `g2`'s `n2`?
    fn pinned2(&self, n2: NodeId) -> bool {
        self.of2[n2.0 as usize] != UNPAIRED
    }
}

/// The one-to-one map between the nodes of `g1` and `g2` bound to the same
/// pvars, or `None` when NULL-ness or the alias partitions differ: each
/// pvar must be bound in both graphs or in neither, and the pvars bound to
/// one node must be bound to one node in the other graph too.
pub(crate) fn pin_pairs(g1: &Rsg, g2: &Rsg) -> Option<PinPairs> {
    debug_assert_eq!(g1.num_pvar_slots(), g2.num_pvar_slots());
    let mut of1 = scratch::idx_buf();
    let mut of2 = scratch::idx_buf();
    of1.resize(g1.num_slots(), UNPAIRED);
    of2.resize(g2.num_slots(), UNPAIRED);
    for p in 0..g1.num_pvar_slots() {
        let p = PvarId(p as u32);
        match (g1.pl(p), g2.pl(p)) {
            (None, None) => {}
            (Some(n1), Some(n2)) => {
                let (f1, f2) = (&mut of1[n1.0 as usize], &mut of2[n2.0 as usize]);
                if *f1 == UNPAIRED && *f2 == UNPAIRED {
                    (*f1, *f2) = (n2.0, n1.0);
                } else if *f1 != n2.0 || *f2 != n1.0 {
                    return None;
                }
            }
            _ => return None,
        }
    }
    Some(PinPairs { of1, of2 })
}

/// C_NODES (§4) across graphs: equal TYPE, SHARED, SHSEL and TOUCH,
/// compatible reference patterns and compatible SPATHs (no STRUCTURE: that
/// is the intra-graph `C_NODES_RSG` extra). The nodes are a
/// pair of [`pin_pairs`] or two nodes no pvar is bound to, so their
/// zero-length SPATHs are equal (C_SPATH0) and only C_SPATH1's one-length
/// part is left to check.
fn c_nodes(g1: &Rsg, n1: NodeId, g2: &Rsg, n2: NodeId, pairs: &PinPairs, level: Level) -> bool {
    let (a, b) = (g1.node(n1), g2.node(n2));
    a.ty == b.ty
        && a.shared == b.shared
        && a.shsel == b.shsel
        && a.touch == b.touch
        && a.refpat_compatible(b)
        && (!level.use_spath1() || one_paths_compatible(g1, n1, g2, n2, pairs))
}

/// C_SPATH1's one-length part: both nodes lack one-length SPATHs, or some
/// `<q, sel>` reaches both. `<q, sel>` reaches `n1` when `n1` has an
/// in-link `sel` from the node `q` is bound to, and `q` is bound in `g2` to
/// that node's partner.
fn one_paths_compatible(g1: &Rsg, n1: NodeId, g2: &Rsg, n2: NodeId, pairs: &PinPairs) -> bool {
    let mut pinned_in1 = g1
        .in_links(n1)
        .iter()
        .filter_map(|&(m1, sel)| Some((pairs.partner(m1)?, sel)))
        .peekable();
    if pinned_in1.peek().is_none() {
        return !g2.in_links(n2).iter().any(|&(m2, _)| pairs.pinned2(m2));
    }
    pinned_in1.any(|(m2, sel)| g2.has_link(m2, sel, n2))
}

/// COMPATIBLE (§4): may `g1` and `g2` be joined?
///
/// Reads only the pinned nodes: equal scalar facts, a `pin_pairs`
/// pairing, and C_NODES on each pair.
pub fn compatible(g1: &Rsg, g2: &Rsg, level: Level) -> bool {
    // Same known scalar facts: merging configs with different flag values
    // would erase exactly the distinctions flag tracking exists for.
    if g1.scalars() != g2.scalars() {
        return false;
    }
    let Some(pairs) = pin_pairs(g1, g2) else {
        return false;
    };
    g1.node_ids().all(|n1| {
        pairs
            .partner(n1)
            .is_none_or(|n2| c_nodes(g1, n1, g2, n2, &pairs, level))
    })
}

/// JOIN (§4.3). Callers must ensure [`compatible`] holds, or at least that
/// the graphs have equal [`PinSignature`](crate::intern::PinSignature)s, as
/// the widening's forced JOIN does: the pvar pairing must exist.
///
/// The output is written in one pass: `g1`'s nodes in id order, each
/// merged with its partner; then `g2`'s unpaired nodes in id order; then
/// every link of both inputs.
pub fn join(g1: &Rsg, g2: &Rsg, level: Level) -> Rsg {
    let pairs = pin_pairs(g1, g2).expect("JOIN inputs have equal NULL-ness and alias partitions");
    // Each slot holds its node's partner in the other graph until the node
    // is written, then its output id.
    let mut map1 = scratch::idx_buf();
    let mut map2 = scratch::idx_buf();
    map1.extend_from_slice(&pairs.of1);
    map2.extend_from_slice(&pairs.of2);
    // The greedy pass over the unpinned nodes: a `g2` node is taken once
    // it has a partner.
    for n1 in g1.node_ids() {
        if map1[n1.0 as usize] != UNPAIRED {
            continue;
        }
        let partner = g2
            .node_ids()
            .filter(|n2| map2[n2.0 as usize] == UNPAIRED)
            .find(|&n2| c_nodes(g1, n1, g2, n2, &pairs, level));
        if let Some(n2) = partner {
            map1[n1.0 as usize] = n2.0;
            map2[n2.0 as usize] = n1.0;
        }
    }

    let mut out = Rsg::empty(g1.num_pvar_slots());
    for n1 in g1.node_ids() {
        let a = g1.node(n1);
        let slot = &mut map1[n1.0 as usize];
        let node = match *slot {
            UNPAIRED => a.to_node(),
            m => {
                let n2 = NodeId(m);
                let b = g2.node(n2);
                let summary = a.summary || b.summary;
                merge(a, has_out(g1, n1), b, has_out(g2, n2), summary)
            }
        };
        *slot = out.add_node(node).0;
    }
    for n2 in g2.node_ids() {
        let slot = &mut map2[n2.0 as usize];
        *slot = match *slot {
            UNPAIRED => out.add_node(g2.node(n2).to_node()).0,
            n1 => map1[n1 as usize],
        };
    }
    for (g, map) in [(g1, &map1), (g2, &map2)] {
        for (a, s, b) in g.links() {
            out.add_link(NodeId(map[a.0 as usize]), s, NodeId(map[b.0 as usize]));
        }
    }
    for (p, n1) in g1.pl_iter() {
        out.set_pl(p, NodeId(map1[n1.0 as usize]));
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
