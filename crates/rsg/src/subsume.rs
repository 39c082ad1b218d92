//! Subsumption between RSGs: does one graph represent every memory
//! configuration another represents?
//!
//! `subsumes(general, specific)` searches for an *embedding* — a total
//! mapping from `specific`'s nodes onto `general`'s nodes such that every
//! configuration admitted by `specific` is admitted by `general`:
//!
//! * pvar bindings agree (`map(pl_s(p)) = pl_g(p)`, same NULL-ness);
//! * TYPE and TOUCH are equal; SHARED/SHSEL may only grow
//!   (`specific ⇒ general`);
//! * `general`'s *must*-sets are weaker (`selin_g ⊆ selin_s`, same for
//!   out) and its *may*-sets wider;
//! * `general`'s CYCLELINKS pairs are a subset of `specific`'s (a must-pair
//!   the general graph promises must hold in everything it represents);
//! * every NL link of `specific` maps onto a link of `general`;
//! * a *singular* general node hosts at most one specific node, and never
//!   a summary one.
//!
//! The search backtracks, so a positive answer is exact — dropping a
//! subsumed graph from an RSRSG never loses configurations. This is what
//! makes the engine's accumulation idempotent: re-presenting an
//! already-joined contribution is recognized and discarded instead of
//! churning the set forever.
//!
//! The check runs in two stages, and [`subsumes`] is their conjunction.
//! Pvar bindings pin each pvar-pointed specific node to exactly one general
//! host, so the **pinned stage** (`pinned_stage`) compares pvar domains,
//! scalar promises and those pinned pairs with the node-local test alone;
//! most failing queries end there. Only a pair that passes it reaches the
//! **embedding stage** (`embedding_stage`), the backtracking search. The
//! memoized front end ([`crate::intern::SharedTables::subsumes_interned`])
//! runs the pinned stage before its memo, so the memo holds embedding
//! verdicts only.
//!
//! The search runs tens of thousands of times per fixpoint, so all of its
//! working state — specific node ids, the slot → row table, per-node
//! candidate sets (a flat buffer plus `(start, len)` spans, mirrored as one
//! bitset row per specific node for the arc-consistency probes), the
//! assignment order and the partial assignment — checks out of the
//! thread-local [`crate::scratch`] pools instead of allocating per call.

use crate::graph::Rsg;
use crate::node::{NodeId, NodeRef};
use psa_ir::PvarId;

/// Sentinel for "not yet assigned" in the pooled assignment buffer (a real
/// node id never reaches `u32::MAX`).
const UNASSIGNED: NodeId = NodeId(u32::MAX);

/// Does `general` represent every configuration of `specific`? The
/// conjunction of the two stages: `pinned_stage`, then `embedding_stage`.
pub fn subsumes(general: &Rsg, specific: &Rsg) -> bool {
    pinned_stage(general, specific) && embedding_stage(general, specific)
}

/// The first stage of [`subsumes`], node-local and cheap: equal pvar
/// domains, every scalar fact `general` promises holds in `specific`, and
/// each pvar-pointed specific node is [`node_weaker`] than the same pvar's
/// general node (the only host an embedding may give it). `false` proves
/// `subsumes` false.
pub(crate) fn pinned_stage(general: &Rsg, specific: &Rsg) -> bool {
    debug_assert_eq!(general.num_pvar_slots(), specific.num_pvar_slots());
    // Pvar domains must agree exactly (PL is must information), and each
    // pvar-pointed specific node can only map onto the same pvar's general
    // node: one pass over the pvar slots checks both.
    let pins_weaker = (0..specific.num_pvar_slots() as u32).map(PvarId).all(|p| {
        match (general.pl(p), specific.pl(p)) {
            (None, None) => true,
            (Some(gn), Some(sn)) => node_weaker(general.node(gn), specific.node(sn)),
            _ => false,
        }
    });
    // Every scalar fact the general graph promises must hold in the
    // specific one (extra facts in `specific` are fine — they only narrow).
    pins_weaker
        && general
            .scalars()
            .iter()
            .all(|(v, k)| specific.scalars().get(*v) == Some(*k))
}

/// The second stage of [`subsumes`]: the backtracking embedding search.
/// Only meaningful for a pair that passed [`pinned_stage`] (it takes each
/// pvar-pointed node's pinned host as that node's only candidate).
pub(crate) fn embedding_stage(general: &Rsg, specific: &Rsg) -> bool {
    let mut s_ids = crate::scratch::node_buf();
    s_ids.extend(specific.node_ids());
    if s_ids.is_empty() {
        // The empty heap: general must have no *present* obligations; since
        // domains agree (no pvars bound), it represents the empty heap iff
        // it has no pvar-pinned nodes — which it cannot have. Accept.
        return true;
    }
    // Row of each specific slot: its index in `s_ids`, which also indexes
    // `spans`, `cands` and `assign`.
    let mut row_of = crate::scratch::idx_buf();
    row_of.resize(specific.num_slots(), u32::MAX);
    for (i, &sn) in s_ids.iter().enumerate() {
        row_of[sn.0 as usize] = i as u32;
    }
    let index_of = |n: NodeId| row_of[n.0 as usize] as usize;

    // Candidate sets filtered by node-local conditions and pvar pinning:
    // one flat buffer, with `spans[i] = (start, len)` delimiting specific
    // node `i`'s segment.
    let mut cand_flat = crate::scratch::node_buf();
    let mut spans = crate::scratch::span_buf();
    for &sn in s_ids.iter() {
        let start = cand_flat.len();
        let mut pins = specific
            .pl_iter()
            .filter(|&(_, target)| target == sn)
            .map(|(p, _)| general.pl(p).expect("domains agree"));
        if let Some(pin) = pins.next() {
            // The pinned pair passed `node_weaker` in the pinned stage;
            // aliased pvars must also agree on their general node.
            if pins.any(|other| other != pin) {
                return false;
            }
            cand_flat.push(pin);
        } else {
            let s = specific.node(sn);
            cand_flat.extend(
                general
                    .node_ids()
                    .filter(|&gn| node_weaker(general.node(gn), s)),
            );
            if cand_flat.len() == start {
                return false;
            }
        }
        spans.push((start as u32, (cand_flat.len() - start) as u32));
    }

    fn seg(flat: &[NodeId], sp: (u32, u32)) -> &[NodeId] {
        &flat[sp.0 as usize..(sp.0 + sp.1) as usize]
    }
    fn set_bit(row: &mut [u64], g: NodeId) {
        row[g.0 as usize / 64] |= 1 << (g.0 % 64);
    }
    fn has_bit(row: &[u64], g: NodeId) -> bool {
        (row[g.0 as usize / 64] >> (g.0 % 64)) & 1 != 0
    }

    // The same candidate sets as bitset rows over `general`'s slots, one
    // row per specific node, so the prepass's "is `g` a candidate of `t`?"
    // is one bit test.
    let words = general.num_slots().div_ceil(64);
    let row = |i: usize| i * words..(i + 1) * words;
    let mut cands = crate::scratch::word_buf();
    cands.resize(s_ids.len() * words, 0);
    for (i, &sp) in spans.iter().enumerate() {
        for &gn in seg(&cand_flat, sp) {
            set_bit(&mut cands[row(i)], gn);
        }
    }

    // Arc-consistency prepass: a candidate must be able to simulate every
    // link of the specific node with *some* candidate of the neighbour.
    // Cheap, and it usually collapses the search space to (near) singleton
    // candidate sets. The filter for node `i` reads the candidate sets —
    // including its own row for self-links — before any of this node's
    // removals apply, so survivors are collected into a pooled side buffer
    // first and copied back over the segment start (segments only shrink).
    let mut kept = crate::scratch::node_buf();
    loop {
        let mut changed = false;
        for (i, &sn) in s_ids.iter().enumerate() {
            let outs = specific.out_links(sn);
            let ins = specific.in_links(sn);
            let (start, len) = spans[i];
            kept.clear();
            kept.extend(seg(&cand_flat, (start, len)).iter().copied().filter(|&gn| {
                outs.iter().all(|&(sel, t)| {
                    general
                        .succs(gn, sel)
                        .iter()
                        .any(|gt| has_bit(&cands[row(index_of(t))], gt))
                }) && ins.iter().all(|&(f, sel)| {
                    general
                        .preds(gn, sel)
                        .iter()
                        .any(|gf| has_bit(&cands[row(index_of(f))], gf))
                })
            }));
            if kept.is_empty() {
                return false;
            }
            if kept.len() != len as usize {
                changed = true;
                cand_flat[start as usize..start as usize + kept.len()].copy_from_slice(&kept);
                spans[i].1 = kept.len() as u32;
                let bits = &mut cands[row(i)];
                bits.fill(0);
                for &gn in kept.iter() {
                    set_bit(bits, gn);
                }
            }
        }
        if !changed {
            break;
        }
    }
    drop(kept);

    // Backtracking assignment with link-consistency checks against already
    // assigned neighbours. Order nodes by candidate count (most constrained
    // first).
    let mut order = crate::scratch::idx_buf();
    order.extend(0..s_ids.len() as u32);
    order.sort_by_key(|&i| spans[i as usize].1);
    let mut assign = crate::scratch::node_buf();
    assign.resize(s_ids.len(), UNASSIGNED);

    fn consistent(
        general: &Rsg,
        specific: &Rsg,
        s_ids: &[NodeId],
        assign: &[NodeId],
        idx: usize,
        gn: NodeId,
        index_of: &dyn Fn(NodeId) -> usize,
    ) -> bool {
        let sn = s_ids[idx];
        // Singular general nodes host at most one specific node.
        if !general.node(gn).summary {
            for (j, &a) in assign.iter().enumerate() {
                if j != idx && a == gn {
                    return false;
                }
            }
        }
        // Links to/from already-assigned specifics must be simulated.
        for &(sel, t) in specific.out_links(sn) {
            let gt = assign[index_of(t)];
            if gt != UNASSIGNED {
                if !general.has_link(gn, sel, gt) {
                    return false;
                }
            } else if general.succs(gn, sel).is_empty() {
                return false; // no possible target at all
            }
        }
        for &(f, sel) in specific.in_links(sn) {
            let gf = assign[index_of(f)];
            if gf != UNASSIGNED {
                if !general.has_link(gf, sel, gn) {
                    return false;
                }
            } else if general.preds(gn, sel).is_empty() {
                return false;
            }
        }
        true
    }

    #[allow(clippy::too_many_arguments)]
    fn search(
        general: &Rsg,
        specific: &Rsg,
        s_ids: &[NodeId],
        cand_flat: &[NodeId],
        spans: &[(u32, u32)],
        order: &[u32],
        assign: &mut [NodeId],
        depth: usize,
        index_of: &dyn Fn(NodeId) -> usize,
        budget: &mut usize,
    ) -> bool {
        if depth == order.len() {
            return true;
        }
        if *budget == 0 {
            return false; // give up: treat as not subsumed (sound)
        }
        let idx = order[depth] as usize;
        for &gn in seg(cand_flat, spans[idx]) {
            *budget -= 1;
            if *budget == 0 {
                return false;
            }
            if consistent(general, specific, s_ids, assign, idx, gn, index_of) {
                assign[idx] = gn;
                if search(
                    general,
                    specific,
                    s_ids,
                    cand_flat,
                    spans,
                    order,
                    assign,
                    depth + 1,
                    index_of,
                    budget,
                ) {
                    return true;
                }
                assign[idx] = UNASSIGNED;
            }
        }
        false
    }

    let mut budget = 4_000usize;
    search(
        general,
        specific,
        &s_ids,
        &cand_flat,
        &spans,
        &order,
        &mut assign,
        0,
        &index_of,
        &mut budget,
    )
}

/// Node-local check: can general node `g` represent everything specific
/// node `s` represents?
fn node_weaker(g: NodeRef<'_>, s: NodeRef<'_>) -> bool {
    g.ty == s.ty
        && g.touch == s.touch
        && (!s.shared || g.shared)
        && s.shsel.diff(g.shsel).is_empty()
        && g.selin.diff(s.selin).is_empty()          // g's musts ⊆ s's musts
        && g.selout.diff(s.selout).is_empty()
        && s.may_selin().diff(g.may_selin()).is_empty() // s's mays ⊆ g's mays
        && s.may_selout().diff(g.may_selout()).is_empty()
        && (!s.summary || g.summary)
        && g.cyclelinks.iter().all(|(a, b)| s.cyclelinks.contains(a, b))
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;
    use crate::compress::compress;
    use crate::ctx::{Level, ShapeCtx};
    use psa_cfront::types::{SelectorId, StructId};
    use psa_ir::PvarId;

    fn sel(i: u32) -> SelectorId {
        SelectorId(i)
    }

    #[test]
    fn graph_subsumes_itself() {
        let g = builder::singly_linked_list(4, 1, PvarId(0), sel(0));
        assert!(subsumes(&g, &g));
        let (f, _) = builder::fig1_dll(PvarId(0), 1, sel(0), sel(1));
        assert!(subsumes(&f, &f));
    }

    #[test]
    fn summary_subsumes_longer_lists() {
        let ctx = ShapeCtx::synthetic(1, 1);
        let summary = compress(
            builder::singly_linked_list(5, 1, PvarId(0), sel(0)),
            &ctx,
            Level::L1,
        );
        for n in [4, 5, 6, 9] {
            let concrete = builder::singly_linked_list(n, 1, PvarId(0), sel(0));
            assert!(
                subsumes(&summary, &concrete),
                "summary must cover length {n}"
            );
        }
        // But not the 1-element list (its node has no out-link while every
        // summary path requires the head to point onward).
        let one = builder::singly_linked_list(1, 1, PvarId(0), sel(0));
        assert!(!subsumes(&summary, &one));
    }

    #[test]
    fn specific_does_not_subsume_general() {
        let ctx = ShapeCtx::synthetic(1, 1);
        let summary = compress(
            builder::singly_linked_list(5, 1, PvarId(0), sel(0)),
            &ctx,
            Level::L1,
        );
        let concrete = builder::singly_linked_list(4, 1, PvarId(0), sel(0));
        assert!(
            !subsumes(&concrete, &summary),
            "a concrete list cannot cover a summary"
        );
    }

    #[test]
    fn different_domains_never_subsume() {
        let mut a = Rsg::empty(2);
        let n = a.add_fresh(StructId(0));
        a.set_pl(PvarId(0), n);
        let b = Rsg::empty(2);
        assert!(!subsumes(&a, &b));
        assert!(!subsumes(&b, &a));
    }

    #[test]
    fn sharing_direction_matters() {
        let mut a = Rsg::empty(1);
        let n = a.add_fresh(StructId(0));
        a.set_pl(PvarId(0), n);
        let mut b = a.clone();
        *b.node_mut(n).shared = true;
        // Shared-general covers unshared-specific, not vice versa.
        assert!(subsumes(&b, &a));
        assert!(!subsumes(&a, &b));
    }

    #[test]
    fn must_set_direction_matters() {
        // general with fewer must-outs covers specific with more.
        let mut gen = Rsg::empty(1);
        let a1 = gen.add_fresh(StructId(0));
        let a2 = gen.add_fresh(StructId(0));
        gen.set_pl(PvarId(0), a1);
        gen.add_link(a1, sel(0), a2);
        gen.node_mut(a1).pos_selout.insert(sel(0)); // possible only
        gen.node_mut(a2).pos_selin.insert(sel(0));
        let mut spec = Rsg::empty(1);
        let b1 = spec.add_fresh(StructId(0));
        let b2 = spec.add_fresh(StructId(0));
        spec.set_pl(PvarId(0), b1);
        spec.add_link(b1, sel(0), b2);
        spec.node_mut(b1).set_must_out(sel(0));
        spec.node_mut(b2).set_must_in(sel(0));
        assert!(subsumes(&gen, &spec));
        assert!(
            !subsumes(&spec, &gen),
            "must-out promise cannot cover a maybe"
        );
    }

    #[test]
    fn cyclelinks_direction() {
        let dll = builder::doubly_linked_list(3, 1, PvarId(0), sel(0), sel(1));
        let mut weak = dll.clone();
        for n in weak.node_ids().collect::<Vec<_>>() {
            *weak.node_mut(n).cyclelinks = crate::sets::CycleSet::new();
        }
        assert!(
            subsumes(&weak, &dll),
            "promising fewer cycle pairs is weaker"
        );
        assert!(
            !subsumes(&dll, &weak),
            "cycle promises cannot cover their absence"
        );
    }

    #[test]
    fn link_structure_checked() {
        // Same nodes, no links in the general graph: cannot host a linked
        // specific.
        let spec = builder::singly_linked_list(2, 1, PvarId(0), sel(0));
        let mut gen = Rsg::empty(1);
        let n1 = gen.add_fresh(StructId(0));
        let n2 = gen.add_fresh(StructId(0));
        gen.set_pl(PvarId(0), n1);
        let _ = n2;
        assert!(!subsumes(&gen, &spec));
    }

    #[test]
    fn empty_graphs_subsume() {
        assert!(subsumes(&Rsg::empty(2), &Rsg::empty(2)));
    }

    #[test]
    fn singular_cardinality_enforced() {
        // general: p -> a -s-> b (all singular).
        // specific: 3-chain. The middle+tail cannot both map to b.
        let gen = builder::singly_linked_list(2, 1, PvarId(0), sel(0));
        let spec = builder::singly_linked_list(3, 1, PvarId(0), sel(0));
        assert!(!subsumes(&gen, &spec));
    }
}
