//! DIVIDE (§4.1): split a graph so that `x->sel` has a single, definite
//! target in each resulting graph.
//!
//! For the node `n` pointed to by `x`, one output graph is produced per
//! `sel`-successor `n_i`, keeping only the link `<n, sel, n_i>` (which
//! becomes *definite*: `sel` is promoted to a must-out selector of `n`, and
//! to a must-in selector of `n_i` when `n_i` is singular). When `sel` is not
//! already a must-out selector, an additional graph represents the
//! `x->sel == NULL` configurations (no `sel` link at all). Every output is
//! pruned; contradictory outputs are dropped.

use crate::graph::Rsg;
use crate::prune::prune;
use psa_cfront::types::SelectorId;
use psa_ir::PvarId;

/// Divide `g` with respect to `x` and `sel`.
///
/// Returns the (possibly empty) list of consistent divided graphs. If `x`
/// is unbound (NULL) the input graph is returned unchanged — the caller
/// decides how to treat the null dereference.
pub fn divide(g: &Rsg, x: PvarId, sel: SelectorId) -> Vec<Rsg> {
    let Some(n) = g.pl(x) else {
        return vec![g.clone()];
    };
    divide_at(g, n, sel)
}

/// Divide `g` with respect to a *node* and `sel` — the pvar-free core of
/// [`divide`]. The interprocedural localization uses this to resolve a
/// caller-frame edge `<n, sel, ·>` to a single definite target before
/// materializing that target out of a summary node.
pub fn divide_at(g: &Rsg, n: crate::node::NodeId, sel: SelectorId) -> Vec<Rsg> {
    let succs = g.succs(n, sel);
    let must = g.node(n).selout.contains(sel);
    let mut out = Vec::with_capacity(succs.len() + 1);

    for target in succs {
        let mut gi = g.clone();
        for other in succs {
            if other != target {
                gi.remove_link(n, sel, other);
            }
        }
        // The surviving link is definite in this branch.
        gi.node_mut(n).set_must_out(sel);
        if !gi.node(target).summary {
            gi.node_mut(target).set_must_in(sel);
        }
        if let Some(p) = prune(&gi) {
            out.push(p);
        }
    }

    if !must {
        // The x->sel == NULL variant.
        let mut gn = g.clone();
        for other in succs {
            gn.remove_link(n, sel, other);
        }
        gn.node_mut(n).clear_out(sel);
        if let Some(p) = prune(&gn) {
            out.push(p);
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;
    use psa_cfront::types::{SelectorId, StructId};

    fn sel(i: u32) -> SelectorId {
        SelectorId(i)
    }

    #[test]
    fn fig1_division_yields_two_graphs() {
        // Fig. 1(a) -> Fig. 1(c): dividing the summarized DLL on (x, nxt)
        // gives rsg''1 (x->nxt = middle summary) and rsg''2 (x->nxt = last).
        let (g, [n1, _n2, _n3]) = builder::fig1_dll(PvarId(0), 1, sel(0), sel(1));
        let parts = divide(&g, PvarId(0), sel(0));
        assert_eq!(parts.len(), 2, "x->nxt is a must link: no NULL variant");
        for p in &parts {
            let n = p.pl(PvarId(0)).unwrap();
            assert_eq!(n, n1);
            assert_eq!(p.succs(n, sel(0)).len(), 1, "single nxt target");
        }
        // One part keeps the 3-node chain, the other prunes the middle
        // summary away entirely (the 2-element list): the paper's rsg''2.
        let mut sizes: Vec<usize> = parts.iter().map(|p| p.num_nodes()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 3]);
    }

    #[test]
    fn fig1_pruning_removes_contradicting_prv() {
        // In the 2-element variant, <n3,prv,n1> must survive and the link
        // <n2,...> chain disappears; in the 3-element variant the link
        // <n3, prv, n1> is removed by NL_PRUNE (n1 does not nxt-point to n3
        // there... it does in the may graph; after division it points only
        // to n2), matching Fig. 1(c).
        let (g, [n1, n2, n3]) = builder::fig1_dll(PvarId(0), 1, sel(0), sel(1));
        let parts = divide(&g, PvarId(0), sel(0));
        let three = parts.iter().find(|p| p.num_nodes() == 3).unwrap();
        assert!(three.has_link(n1, sel(0), n2));
        assert!(!three.has_link(n3, sel(1), n1), "prv shortcut pruned");
        let two = parts.iter().find(|p| p.num_nodes() == 2).unwrap();
        assert!(two.has_link(n1, sel(0), n3));
        assert!(two.has_link(n3, sel(1), n1));
        assert!(
            !two.is_live(n2),
            "middle summary pruned in 2-element variant"
        );
    }

    #[test]
    fn non_must_selector_adds_null_variant() {
        let mut g = Rsg::empty(1);
        let a = g.add_fresh(StructId(0));
        let b = g.add_fresh(StructId(0));
        g.set_pl(PvarId(0), a);
        g.add_link(a, sel(0), b);
        g.node_mut(a).pos_selout.insert(sel(0)); // possible, not must
        g.node_mut(b).pos_selin.insert(sel(0));
        let parts = divide(&g, PvarId(0), sel(0));
        assert_eq!(parts.len(), 2);
        let with_link = parts.iter().filter(|p| p.num_links() == 1).count();
        let without = parts.iter().filter(|p| p.num_links() == 0).count();
        assert_eq!((with_link, without), (1, 1));
        // The no-link variant garbage-collects b.
        let empty = parts.iter().find(|p| p.num_links() == 0).unwrap();
        assert_eq!(empty.num_nodes(), 1);
    }

    #[test]
    fn null_pvar_returns_input() {
        let g = Rsg::empty(1);
        let parts = divide(&g, PvarId(0), sel(0));
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0], g);
    }

    #[test]
    fn division_promotes_must_sets() {
        let mut g = Rsg::empty(1);
        let a = g.add_fresh(StructId(0));
        let b = g.add_fresh(StructId(0));
        g.set_pl(PvarId(0), a);
        g.add_link(a, sel(0), b);
        g.node_mut(a).pos_selout.insert(sel(0));
        g.node_mut(b).pos_selin.insert(sel(0));
        let parts = divide(&g, PvarId(0), sel(0));
        let with_link = parts.iter().find(|p| p.num_links() == 1).unwrap();
        let na = with_link.pl(PvarId(0)).unwrap();
        assert!(with_link.node(na).selout.contains(sel(0)));
        let nb = with_link.succs(na, sel(0))[0];
        assert!(with_link.node(nb).selin.contains(sel(0)));
    }

    #[test]
    fn divide_on_self_loop_summary() {
        // Summary node with a self loop: division on a pvar pointing at a
        // singular head whose sel goes to the summary.
        let ctx = crate::ctx::ShapeCtx::synthetic(1, 1);
        let g0 = builder::singly_linked_list(5, 1, PvarId(0), sel(0));
        let g = crate::compress::compress(g0.clone(), &ctx, crate::ctx::Level::L1);
        assert_eq!(g.num_nodes(), 3);
        let parts = divide(&g, PvarId(0), sel(0));
        // Head's nxt goes only to the middle summary (list of length 5):
        // a single divided graph.
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].num_nodes(), 3);
    }
}
