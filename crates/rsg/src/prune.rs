//! PRUNE (§4.2): iterative removal of nodes and links that contradict the
//! graph's must-properties.
//!
//! Rules applied to a fixed point:
//!
//! 1. *N_PRUNE* — a node with a must in/out selector that has no
//!    corresponding NL link is impossible; remove it (with its links and
//!    pvar references).
//! 2. *NL_PRUNE* — a link `<n1, sel_i, n2>` contradicting a cycle pair
//!    `<sel_i, sel_j> ∈ CYCLELINKS(n1)` (no `<n2, sel_j, n1>` back link) is
//!    impossible; remove it.
//! 3. *pattern rule* — a link whose selector is neither a must nor a
//!    possible out-selector of its source (or in-selector of its target)
//!    contradicts the reference pattern; remove it.
//! 4. *sharing rule* (the paper's "false share attributes lead to a more
//!    aggressive pruning") — when a singular node is *definitely* referenced
//!    through `sel` by one source and `SHSEL(n, sel) = false`, every other
//!    incoming `sel` link is impossible; when additionally
//!    `SHARED(n) = false`, *every* other incoming link is impossible.
//! 5. unreachable nodes are garbage-collected (the paper's "node n2 cannot
//!    be reached and is therefore removed").
//!
//! If a pvar-pointed node is pruned the whole graph is contradictory — it
//! described no real memory configuration — and `None` is returned.
//!
//! Each round evaluates rules 2–4 over the whole graph on the round-start
//! state and removes the doomed links as one batch, then evaluates rule 1
//! on the post-link-removal state and removes its nodes in ascending id
//! order, then collects garbage. Rounds repeat until one changes nothing.
//! After round 0, a round that removed no link and no node skips the
//! collection: the previous round's collection left no garbage, so this
//! one would be a no-op.

use crate::graph::Rsg;
use crate::node::NodeId;
use crate::scratch;
use psa_cfront::types::SelectorId;

/// Prune `g` to a fixed point. Returns `None` when the graph turns out to
/// be contradictory (a pvar-pointed node was removed).
pub fn prune(g: &Rsg) -> Option<Rsg> {
    let mut g = g.clone();
    let mut doomed_links = scratch::link_buf();
    let mut round0 = true;
    loop {
        // Rules 2 + 3: collect doomed links.
        doomed_links.clear();
        for (a, sel, b) in g.links() {
            check_link_rules(&g, a, sel, b, &mut doomed_links);
        }

        // Rule 4: sharing exclusivity. Definiteness requires the link
        // source to be *present* in every configuration (see
        // `Rsg::present_nodes`) — otherwise joined graphs holding
        // alternative substructures would prune each other's links away.
        let present = g.present_nodes();
        for n in g.node_ids() {
            rule4_at(&g, &present, n, &mut doomed_links);
        }

        doomed_links.sort_unstable();
        doomed_links.dedup();
        let mut changed = false;
        for &(a, sel, b) in doomed_links.iter() {
            changed |= g.remove_link(a, sel, b);
        }

        // Rule 1: N_PRUNE.
        let doomed_nodes: Vec<NodeId> = g.node_ids().filter(|&n| rule1_fires(&g, n)).collect();
        for n in doomed_nodes {
            if !g.pvars_of(n).is_empty() {
                // A pvar-pointed node is impossible: the whole graph is.
                return None;
            }
            g.remove_node(n);
            changed = true;
        }

        // Rule 5: garbage.
        if (round0 || changed) && g.gc() > 0 {
            changed = true;
        }

        if !changed {
            return Some(g);
        }
        round0 = false;
    }
}

/// Rules 2 + 3 for a single link, pushing it onto `doomed` when it fires.
fn check_link_rules(
    g: &Rsg,
    a: NodeId,
    sel: SelectorId,
    b: NodeId,
    doomed: &mut Vec<(NodeId, SelectorId, NodeId)>,
) {
    let na = g.node(a);
    let nb = g.node(b);
    // Pattern rule.
    if !na.may_selout().contains(sel) || !nb.may_selin().contains(sel) {
        doomed.push((a, sel, b));
        return;
    }
    // NL_PRUNE: cycle-link contradiction.
    let cyc_bad = na
        .cyclelinks
        .iter()
        .any(|(s1, s2)| s1 == sel && !g.has_link(b, s2, a));
    if cyc_bad {
        doomed.push((a, sel, b));
    }
}

/// Rule 4 (sharing exclusivity) at one candidate target node.
fn rule4_at(g: &Rsg, present: &[bool], n: NodeId, doomed: &mut Vec<(NodeId, SelectorId, NodeId)>) {
    if g.node(n).summary {
        return;
    }
    let in_links = g.in_links(n);
    // Find definite incoming links per selector.
    for &(a, sel) in in_links {
        if !g.is_definite_link_with(present, a, sel, n) {
            continue;
        }
        if !g.node(n).shsel.contains(sel) {
            for &(b, s2) in in_links {
                if s2 == sel && b != a {
                    doomed.push((b, s2, n));
                }
            }
        }
        if !g.node(n).shared {
            for &(b, s2) in in_links {
                if (b, s2) != (a, sel) {
                    doomed.push((b, s2, n));
                }
            }
        }
    }
}

/// Rule 1 (N_PRUNE) predicate: a must selector with no witnessing link.
fn rule1_fires(g: &Rsg, n: NodeId) -> bool {
    let nd = g.node(n);
    nd.selout.iter().any(|sel| g.succs(n, sel).is_empty())
        || nd.selin.iter().any(|sel| g.preds(n, sel).is_empty())
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

    #[test]
    fn consistent_graph_unchanged() {
        let g = builder::doubly_linked_list(4, 1, PvarId(0), sel(0), sel(1));
        let p = prune(&g).expect("consistent");
        assert_eq!(p.num_nodes(), 4);
        assert_eq!(p.num_links(), 6);
    }

    #[test]
    fn cyclelink_violation_removes_link() {
        // a -nxt-> b with cyclelinks <nxt,prv> on a, but b has no prv back.
        let mut g = Rsg::empty(1);
        let a = g.add_fresh(StructId(0));
        let b = g.add_fresh(StructId(0));
        g.set_pl(PvarId(0), a);
        g.add_link(a, sel(0), b);
        g.node_mut(a).pos_selout.insert(sel(0));
        g.node_mut(b).pos_selin.insert(sel(0));
        g.node_mut(a).cyclelinks.insert(sel(0), sel(1));
        let p = prune(&g).expect("a stays");
        // Link dropped, b garbage-collected.
        assert_eq!(p.num_links(), 0);
        assert_eq!(p.num_nodes(), 1);
    }

    #[test]
    fn must_out_without_link_is_contradiction() {
        let mut g = Rsg::empty(1);
        let a = g.add_fresh(StructId(0));
        g.set_pl(PvarId(0), a);
        g.node_mut(a).set_must_out(sel(0));
        assert!(
            prune(&g).is_none(),
            "pvar-pointed node pruned => graph impossible"
        );
    }

    #[test]
    fn must_in_without_link_prunes_node() {
        let mut g = Rsg::empty(1);
        let a = g.add_fresh(StructId(0));
        let b = g.add_fresh(StructId(0));
        g.set_pl(PvarId(0), a);
        g.add_link(a, sel(0), b);
        g.node_mut(a).pos_selout.insert(sel(0));
        g.node_mut(b).pos_selin.insert(sel(0));
        // b claims a must-in through sel 1 that no link provides.
        g.node_mut(b).set_must_in(sel(1));
        let p = prune(&g).expect("a survives");
        assert_eq!(p.num_nodes(), 1);
        assert_eq!(p.num_links(), 0);
    }

    #[test]
    fn pattern_rule_removes_undeclared_link() {
        let mut g = Rsg::empty(1);
        let a = g.add_fresh(StructId(0));
        let b = g.add_fresh(StructId(0));
        g.set_pl(PvarId(0), a);
        g.set_pl(PvarId(0), a);
        // Link exists but sel(0) is not even a possible out of a.
        g.add_link(a, sel(0), b);
        g.node_mut(b).pos_selin.insert(sel(0));
        let p = prune(&g).expect("consistent");
        assert_eq!(p.num_links(), 0);
        assert_eq!(p.num_nodes(), 1, "b becomes unreachable");
    }

    #[test]
    fn sharing_rule_removes_second_in_link() {
        // Paper example (§4.2): n3 not shared by nxt, <n1,nxt,n3> definite
        // => <n2,nxt,n3> removed.
        let mut g = Rsg::empty(2);
        let n1 = g.add_fresh(StructId(0));
        let n2 = g.add_fresh(StructId(0));
        let n3 = g.add_fresh(StructId(0));
        g.set_pl(PvarId(0), n1);
        g.set_pl(PvarId(1), n2);
        g.add_link(n1, sel(0), n3);
        g.add_link(n2, sel(0), n3);
        g.node_mut(n1).set_must_out(sel(0)); // definite: unique succ + must
        g.node_mut(n2).pos_selout.insert(sel(0));
        g.node_mut(n3).set_must_in(sel(0));
        // n3 not shared by sel0.
        assert!(!g.node(n3).shsel.contains(sel(0)));
        let p = prune(&g).expect("consistent");
        let n3_live: Vec<_> = p.node_ids().filter(|&n| p.in_links(n).len() == 1).collect();
        assert_eq!(p.num_links(), 1);
        assert!(!n3_live.is_empty());
        // The surviving link comes from n1 (the definite one).
        let (a, s, _b) = p.links().next().unwrap();
        assert_eq!(s, sel(0));
        assert_eq!(p.pl(PvarId(0)), Some(a));
    }

    #[test]
    fn shared_true_blocks_sharing_rule() {
        let mut g = Rsg::empty(2);
        let n1 = g.add_fresh(StructId(0));
        let n2 = g.add_fresh(StructId(0));
        let n3 = g.add_fresh(StructId(0));
        g.set_pl(PvarId(0), n1);
        g.set_pl(PvarId(1), n2);
        g.add_link(n1, sel(0), n3);
        g.add_link(n2, sel(0), n3);
        g.node_mut(n1).set_must_out(sel(0));
        g.node_mut(n2).pos_selout.insert(sel(0));
        g.node_mut(n3).set_must_in(sel(0));
        g.node_mut(n3).shsel.insert(sel(0));
        *g.node_mut(n3).shared = true;
        let p = prune(&g).expect("consistent");
        assert_eq!(p.num_links(), 2, "shared target keeps both in-links");
    }

    #[test]
    fn summary_target_blocks_sharing_rule() {
        let mut g = Rsg::empty(2);
        let n1 = g.add_fresh(StructId(0));
        let n2 = g.add_fresh(StructId(0));
        let n3 = g.add_fresh(StructId(0));
        g.set_pl(PvarId(0), n1);
        g.set_pl(PvarId(1), n2);
        g.add_link(n1, sel(0), n3);
        g.add_link(n2, sel(0), n3);
        g.node_mut(n1).set_must_out(sel(0));
        g.node_mut(n2).pos_selout.insert(sel(0));
        g.node_mut(n3).pos_selin.insert(sel(0));
        *g.node_mut(n3).summary = true;
        let p = prune(&g).expect("consistent");
        assert_eq!(
            p.num_links(),
            2,
            "summary target may hold distinct locations"
        );
    }

    #[test]
    fn cascade_prune_fig1_style() {
        // Chain: removing one link makes a node unreachable, which kills
        // more links.
        let mut g = Rsg::empty(1);
        let a = g.add_fresh(StructId(0));
        let b = g.add_fresh(StructId(0));
        let c = g.add_fresh(StructId(0));
        g.set_pl(PvarId(0), a);
        g.add_link(a, sel(0), b);
        g.add_link(b, sel(0), c);
        g.node_mut(b).pos_selin.insert(sel(0));
        g.node_mut(b).pos_selout.insert(sel(0));
        g.node_mut(c).pos_selin.insert(sel(0));
        // a's pattern forbids the out-link (neither must nor pos).
        let p = prune(&g).expect("a survives");
        assert_eq!(p.num_nodes(), 1);
        assert_eq!(p.num_links(), 0);
    }

    #[test]
    fn prune_is_idempotent() {
        let (g, _) = builder::fig1_dll(PvarId(0), 1, sel(0), sel(1));
        let p1 = prune(&g).expect("consistent");
        let p2 = prune(&p1).expect("consistent");
        assert_eq!(p1, p2);
    }
}
