//! Materialization — the *focus* step of Fig. 1(d): extract the single
//! location designated by a definite link `<n_y, sel, n_s>` out of the
//! summary node `n_s` into a fresh *singular* node `n_m`.
//!
//! The residual `n_s` keeps representing the remaining locations. Links are
//! distributed conservatively:
//!
//! * the focused link is redirected: `<n_y, sel, n_m>` replaces
//!   `<n_y, sel, n_s>`;
//! * every outgoing may-link of `n_s` is copied onto `n_m`; self-links
//!   `<n_s, s, n_s>` unroll into `<n_m, s, n_s>`, `<n_s, s, n_m>` *and*
//!   `<n_m, s, n_m>` (the extracted location may point to a sibling, be
//!   pointed by one, or point at itself);
//! * other incoming may-links of `n_s` are copied onto `n_m` *unless* the
//!   sharing properties forbid them: with `SHSEL(n_s, sel) = false` the
//!   extracted location has no second incoming `sel` link, and with
//!   `SHARED(n_s) = false` it has no other incoming link at all — this is
//!   where `false` sharing pays off (§4.2, §5.1).
//!
//! The caller prunes afterwards; pruning removes whatever the copied
//! may-links contradict.

use crate::graph::Rsg;
use crate::node::NodeId;
use crate::scratch;
use psa_cfront::types::SelectorId;

/// Materialize the target of `<n_y, sel, n_s>` out of summary node `n_s`.
/// Returns the new singular node. `g` must contain that link, and after
/// division it must be the only `sel` link of `n_y`.
pub fn materialize(g: &mut Rsg, n_y: NodeId, sel: SelectorId, n_s: NodeId) -> NodeId {
    debug_assert!(g.has_link(n_y, sel, n_s));
    debug_assert!(g.node(n_s).summary);

    let shared = g.node(n_s).shared;
    let shsel_focus = g.node(n_s).shsel.contains(sel);

    // The extracted node: same properties, singular, definitely referenced
    // through `sel` (the focused link is definite by division).
    let mut node = g.node(n_s).to_node();
    node.summary = false;
    node.set_must_in(sel);
    let n_m = g.add_node(node);

    // Redirect the focused link.
    g.remove_link(n_y, sel, n_s);
    g.add_link(n_y, sel, n_m);

    // Distribute n_s's links. The accessors borrow the graph we are about
    // to mutate, so snapshot the neighborhood into pooled scratch buffers.
    let mut outs = scratch::out_buf();
    outs.extend_from_slice(g.out_links(n_s));
    let mut ins = scratch::in_buf();
    ins.extend_from_slice(g.in_links(n_s));
    for &(s, b) in outs.iter() {
        if b == n_s {
            // Self link: unroll every combination. The extracted location
            // may point to a sibling still in the summary…
            g.add_link(n_m, s, n_s);
            // …and may be pointed at by a sibling, or by itself, but only
            // when the sharing properties admit a second incoming link.
            if may_accept_in(shared, shsel_focus, s, sel) {
                g.add_link(n_s, s, n_m);
                g.add_link(n_m, s, n_m);
            }
        } else {
            g.add_link(n_m, s, b);
        }
    }
    for &(a, s) in ins.iter() {
        if a == n_s {
            continue; // handled by the self-link unrolling above
        }
        if a == n_y && s == sel {
            continue; // the focused link, already redirected
        }
        if may_accept_in(shared, shsel_focus, s, sel) {
            g.add_link(a, s, n_m);
        }
    }

    // The residual summary may have lost its last incoming reference; the
    // caller's prune/gc pass cleans that up. Weaken nothing on n_s: its
    // must-properties still hold for the remaining locations.
    n_m
}

/// May the extracted location accept an additional incoming link through
/// `s`, given it already has the focused `sel` link?
fn may_accept_in(shared: bool, shsel_focus: bool, s: SelectorId, sel: SelectorId) -> bool {
    if !shared {
        // At most one incoming reference in total — and that is the focused
        // link.
        return false;
    }
    if s == sel && !shsel_focus {
        // At most one incoming `sel` reference — the focused link.
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;
    use crate::compress::compress;
    use crate::ctx::{Level, ShapeCtx};
    use crate::prune::prune;
    use psa_ir::PvarId;

    fn sel(i: u32) -> SelectorId {
        SelectorId(i)
    }

    /// Compressed 6-element list: head -> middle summary -> tail.
    fn compressed_list() -> (Rsg, NodeId, NodeId) {
        let ctx = ShapeCtx::synthetic(1, 1);
        let g0 = builder::singly_linked_list(6, 1, PvarId(0), sel(0));
        let g = compress(g0.clone(), &ctx, Level::L1);
        let head = g.pl(PvarId(0)).unwrap();
        let mid = g.succs(head, sel(0))[0];
        assert!(g.node(mid).summary);
        (g, head, mid)
    }

    #[test]
    fn materialized_node_is_singular_with_must_in() {
        let (mut g, head, mid) = compressed_list();
        let m = materialize(&mut g, head, sel(0), mid);
        assert!(!g.node(m).summary);
        assert!(g.node(m).selin.contains(sel(0)));
        assert_eq!(g.succs(head, sel(0)), vec![m]);
    }

    #[test]
    fn unshared_list_materialization_keeps_single_in_link() {
        let (mut g, head, mid) = compressed_list();
        let m = materialize(&mut g, head, sel(0), mid);
        // The list is unshared: the extracted location has exactly the
        // focused in-link; the residual summary must NOT link back into it.
        assert_eq!(g.in_links(m), vec![(head, sel(0))]);
        // The extracted node still points onwards into the summary (and
        // possibly itself, cleaned by prune).
        assert!(g.has_link(m, sel(0), mid));
        let p = prune(&g).expect("consistent");
        assert!(p.num_nodes() >= 3);
    }

    #[test]
    fn shared_summary_gets_extra_in_links() {
        let (mut g, head, mid) = compressed_list();
        // Pretend the middle may be shared through sel0.
        *g.node_mut(mid).shared = true;
        g.node_mut(mid).shsel.insert(sel(0));
        let m = materialize(&mut g, head, sel(0), mid);
        // Now the residual summary may also reference the extracted node.
        assert!(g.has_link(mid, sel(0), m));
        assert!(g.in_links(m).len() > 1);
    }

    #[test]
    fn materialize_preserves_outgoing_targets() {
        let (mut g, head, mid) = compressed_list();
        let tail = g
            .succs(mid, sel(0))
            .into_iter()
            .find(|&t| t != mid)
            .expect("tail");
        let m = materialize(&mut g, head, sel(0), mid);
        // The extracted location may be the one pointing at the tail.
        assert!(g.has_link(m, sel(0), tail));
    }

    #[test]
    fn end_to_end_load_semantics_shape() {
        // Simulate `y = x->nxt` on the compressed list: divide is a no-op
        // (single target), materialize, then prune; the result is a 4-node
        // chain head -> m -> summary -> tail with m singular.
        let (mut g, head, mid) = compressed_list();
        let m = materialize(&mut g, head, sel(0), mid);
        let g = prune(&g).expect("consistent");
        assert!(g.is_live(m));
        assert!(!g.node(m).summary);
        // m reaches the tail through the residual summary.
        let ctx = ShapeCtx::synthetic(1, 1);
        g.check_invariants(&ctx).unwrap();
    }
}
