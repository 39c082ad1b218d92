//! SPATH — simple paths of length ≤ 1 from pvars to nodes (§3).
//!
//! A node's simple paths are derived from PL and NL rather than stored:
//!
//! * `<p, ∅>` (length 0) when `<p, n> ∈ PL`;
//! * `<p, sel>` (length 1) when `<p, m> ∈ PL` and `<m, sel, n> ∈ NL`.
//!
//! `C_SPATH(n1, n2, m)` compatibility:
//!
//! * `m = 0` (**C_SPATH0**): the zero-length simple paths must be equal —
//!   i.e. the same set of pvars points directly at both nodes. (Since each
//!   pvar has one target, two *distinct* nodes are compatible only when
//!   neither is directly pointed to.)
//! * `m = 1` (**C_SPATH1**): additionally the paper requires the nodes to
//!   "share at least 1 one-length simple path". We read this as: nodes with
//!   no one-length paths at all are mutually compatible, and nodes with
//!   one-length paths must have a common one. This keeps locations reachable
//!   in one hop from a pvar (e.g. the current `tmp->child` child during
//!   octree construction) separate from the anonymous middle of a structure,
//!   which is exactly what fixes the Barnes-Hut `SHSEL(body)` imprecision at
//!   L2 (§5.1).
//!
//! Only COMPRESS materializes SPATHs ([`spaths`]): the zero-length paths
//! are part of its class key and the one-length paths gate its greedy
//! pass. COMPATIBLE and JOIN build none. Their pvar pairing
//! (`join::pin_pairs`) fixes the zero-length paths, and a one-length path
//! into a node is an in-link from a pinned node.

use crate::graph::Rsg;
use psa_cfront::types::SelectorId;
use psa_ir::PvarId;

/// The simple paths of one node, sorted.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SPath {
    /// Pvars pointing directly at the node (`<p, ∅>` paths).
    pub zero: Vec<PvarId>,
    /// `(p, sel)` pairs with `pl(p) -sel-> n`.
    pub one: Vec<(PvarId, SelectorId)>,
}

/// Compute the SPATHs of every node slot of a graph.
pub fn spaths(g: &Rsg) -> Vec<SPath> {
    let cap = g.node_ids().map(|n| n.0 as usize + 1).max().unwrap_or(0);
    let mut out = vec![SPath::default(); cap];
    for (p, n) in g.pl_iter() {
        out[n.0 as usize].zero.push(p);
        for &(sel, b) in g.out_links(n) {
            out[b.0 as usize].one.push((p, sel));
        }
    }
    for sp in &mut out {
        sp.zero.sort_unstable();
        sp.zero.dedup();
        sp.one.sort_unstable();
        sp.one.dedup();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;
    use psa_cfront::types::StructId;

    fn sel(i: u32) -> SelectorId {
        SelectorId(i)
    }

    /// p0 -> a -s0-> b -s0-> c
    fn chain() -> (Rsg, NodeId, NodeId, NodeId) {
        let mut g = Rsg::empty(3);
        let a = g.add_fresh(StructId(0));
        let b = g.add_fresh(StructId(0));
        let c = g.add_fresh(StructId(0));
        g.add_link(a, sel(0), b);
        g.add_link(b, sel(0), c);
        g.set_pl(PvarId(0), a);
        (g, a, b, c)
    }

    #[test]
    fn spath_zero_and_one() {
        let (g, a, b, c) = chain();
        let sp = spaths(&g);
        assert_eq!(sp[a.0 as usize].zero, vec![PvarId(0)]);
        assert!(sp[a.0 as usize].one.is_empty());
        assert!(sp[b.0 as usize].zero.is_empty());
        assert_eq!(sp[b.0 as usize].one, vec![(PvarId(0), sel(0))]);
        assert!(sp[c.0 as usize].zero.is_empty());
        assert!(sp[c.0 as usize].one.is_empty());
    }
}
