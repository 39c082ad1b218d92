//! Canonical forms for RSGs.
//!
//! The fixed-point engine must decide whether an RSRSG changed across an
//! iteration. Graphs are rebuilt by every operation, so node ids are
//! meaningless; equality must be isomorphism up to node renaming (pvars and
//! selectors are globally named and fixed).
//!
//! One search computes the canonical labelling. Node colors are u64
//! hashes, seeded from each node's property fields and the pvars pointing
//! at it, then refined Weisfeiler–Leman style (each round folds a node's
//! color with its hash-sorted `(direction, selector, neighbor color)`
//! terms) until the partition is discrete or stops splitting. A discrete
//! partition ranks nodes by hash. A stalled one (a symmetry or a hash
//! collision) individualizes each member of its smallest tied class in
//! turn with a fresh color and recurses; the lexicographically smallest
//! encoding wins. After COMPRESS an RSG's nodes are pairwise
//! property-distinct, so the search almost never branches.
//!
//! Colors depend on node ids only through id-independent inputs, and the
//! branch tries every member of a class chosen by hash value, so the result
//! is isomorphism-invariant; a collision only merges classes, which moves
//! an individualization earlier. The bytes encode the whole graph under a
//! total node order in a self-delimiting varint layout (see
//! [`canonical_bytes`]), so equal bytes imply isomorphic graphs. Past
//! `MAX_INDIVIDUALIZE_DEPTH`, ties are ranked by node id: isomorphic graphs
//! may then compare unequal (one extra engine iteration), never the
//! reverse. The working set lives in a reused thread-local `CanonScratch`,
//! so a graph that refines to a discrete partition allocates only its
//! output.

use crate::graph::Rsg;
use crate::node::NodeId;
use psa_ir::{splitmix64 as mix, WordHasher};
use std::cell::RefCell;
use std::hash::Hasher;

/// Reusable buffers for canonicalization.
#[derive(Default)]
struct CanonScratch {
    /// Live node ids of the graph being encoded, ascending.
    ids: Vec<NodeId>,
    /// Current hash colors, indexed by raw node id.
    h: Vec<u64>,
    /// Next-iteration hash colors.
    next: Vec<u64>,
    /// Per-node neighbor signature accumulator.
    sig: Vec<u64>,
    /// Distinct-class counting buffer.
    seen: Vec<u64>,
    /// Indices into `ids` in rank order.
    order: Vec<u32>,
    /// Dense `raw node id → rank` under `order`.
    rank: Vec<u32>,
    /// Ranked-link sort buffer for the serialization.
    links: Vec<(u32, u32, u32)>,
}

thread_local! {
    static SCRATCH: RefCell<CanonScratch> = RefCell::new(CanonScratch::default());
}

/// A canonical byte encoding: equal bytes ⇔ isomorphic graphs (over fixed
/// pvar/selector universes).
///
/// Every number is an unsigned LEB128 varint (7 bits per byte, the high bit
/// set on all but the last), so the encoding is self-delimiting:
///
/// * the node count, then the pvar-slot count;
/// * one record per node in rank order: TYPE, one flag byte (bit 0 SHARED,
///   bit 1 summary), the SHSEL, SELIN, SELOUT, posSELIN and posSELOUT
///   masks, then CYCLELINKS and TOUCH, each a count and its entries;
/// * the link count, then the sorted `(source rank, selector, target rank)`
///   triples;
/// * the PL count, then `(pvar, rank)` pairs in pvar order;
/// * the scalar count, then `(variable, zigzag value)` pairs.
///
/// The empty graph uses the same layout with zero nodes.
pub fn canonical_bytes(g: &Rsg) -> Vec<u8> {
    SCRATCH.with(|s| match s.try_borrow_mut() {
        Ok(mut scratch) => canonical_bytes_scratch(g, &mut scratch),
        // Re-entrant call (defensive; nothing below recurses into this
        // entry point): fall back to a throwaway scratch.
        Err(_) => canonical_bytes_scratch(g, &mut CanonScratch::default()),
    })
}

fn canonical_bytes_scratch(g: &Rsg, s: &mut CanonScratch) -> Vec<u8> {
    s.ids.clear();
    s.ids.extend(g.node_ids());
    seed_colors(g, s);
    search(g, s, 0)
}

/// Salt of a pvar folded into the seed color of the node it points at.
const PVAR_SEED: u64 = 0x9F1A_5EED_0000_0000;

/// Seed `s.h` for the nodes in `s.ids`: a word hash of each node's
/// property fields, then each bound pvar folded into its node's color in
/// pvar order.
fn seed_colors(g: &Rsg, s: &mut CanonScratch) {
    s.h.clear();
    s.h.resize(s.ids.last().map_or(0, |id| id.0 as usize + 1), 0);
    for &id in &s.ids {
        let nd = g.node(id);
        let mut w = WordHasher::default();
        w.write_u32(nd.ty.0);
        w.write_u8(nd.shared as u8 | (nd.summary as u8) << 1);
        for set in [nd.shsel, nd.selin, nd.selout, nd.pos_selin, nd.pos_selout] {
            w.write_u64(set.0);
        }
        w.write_usize(nd.cyclelinks.len());
        for (a, b) in nd.cyclelinks.iter() {
            w.write_u64(u64::from(a.0) << 32 | u64::from(b.0));
        }
        w.write_usize(nd.touch.len());
        for p in nd.touch.iter() {
            w.write_u32(p.0);
        }
        s.h[id.0 as usize] = w.finish();
    }
    for (p, n) in g.pl_iter() {
        let h = &mut s.h[n.0 as usize];
        *h = mix(*h ^ PVAR_SEED ^ u64::from(p.0));
    }
}

/// Are two graphs isomorphic (as RSGs)?
pub fn isomorphic(a: &Rsg, b: &Rsg) -> bool {
    canonical_bytes(a) == canonical_bytes(b)
}

/// Nested individualizations before ties are ranked by node id.
const MAX_INDIVIDUALIZE_DEPTH: usize = 8;

/// Salt of the fresh color an individualized node gets from its class
/// color and the search depth. Without the depth, a member of a class that
/// stalls again right away would get the same fresh color one level down
/// and merge with the member individualized above it: fans of 5 identical
/// children then ran the search to `MAX_INDIVIDUALIZE_DEPTH`.
const INDIVIDUALIZED: u64 = 0x1D1D_1A11_2EDC_0101;

/// Refine the colors in `s.h`, then branch: serialize a discrete partition
/// under its hash ranks, or individualize each member of the smallest tied
/// class and keep the smallest bytes.
fn search(g: &Rsg, s: &mut CanonScratch, depth: usize) -> Vec<u8> {
    wl_hash_colors(g, s);
    rank_by_color(s);
    let color = |i: &u32| s.h[s.ids[*i as usize].0 as usize];
    let tie = s
        .order
        .windows(2)
        .position(|w| color(&w[0]) == color(&w[1]));
    let Some(at) = tie.filter(|_| depth < MAX_INDIVIDUALIZE_DEPTH) else {
        // Discrete — or at the depth cap, where ties stay ranked by node
        // id: isomorphic graphs may then compare unequal, which costs one
        // extra engine iteration, never unsoundness.
        return serialize_from_scratch(g, s);
    };
    let target = color(&s.order[at]);
    let members: Vec<NodeId> = s.order[at..]
        .iter()
        .take_while(|i| color(i) == target)
        .map(|&i| s.ids[i as usize])
        .collect();
    let saved = s.h.clone();
    members
        .into_iter()
        .map(|m| {
            s.h.clone_from(&saved);
            s.h[m.0 as usize] = mix(target ^ INDIVIDUALIZED ^ depth as u64);
            search(g, s, depth + 1)
        })
        .min()
        .expect("a tied class has members")
}

/// Distinct hash colors among the live ids, counted through the reusable
/// `seen` buffer.
fn count_classes(ids: &[NodeId], h: &[u64], seen: &mut Vec<u64>) -> usize {
    seen.clear();
    seen.extend(ids.iter().map(|id| h[id.0 as usize]));
    seen.sort_unstable();
    seen.dedup();
    seen.len()
}

/// WL refinement of `s.h` in place, in the scratch buffers, until the
/// partition is discrete or stops splitting (a symmetry, or a collision
/// merging classes); `s.h` keeps the last colors that lost no class.
fn wl_hash_colors(g: &Rsg, s: &mut CanonScratch) {
    let (ids, h, next) = (&s.ids, &mut s.h, &mut s.next);
    let (sig, seen) = (&mut s.sig, &mut s.seen);
    let n = ids.len();
    let mut classes = count_classes(ids, h, seen);
    while classes < n {
        next.clear();
        next.resize(h.len(), 0);
        for &id in ids.iter() {
            sig.clear();
            for &(s, b) in g.out_links(id) {
                sig.push(mix(0xA11C_E5ED ^ (u64::from(s.0) << 1)) ^ h[b.0 as usize]);
            }
            // Out entries are sorted by (sel, target id); re-sort by hash so
            // the fold is independent of node ids.
            sig.sort_unstable();
            let mut acc = h[id.0 as usize];
            for &v in sig.iter() {
                acc = mix(acc ^ v);
            }
            sig.clear();
            for &(a, s) in g.in_links(id) {
                sig.push(mix(0xB0B5_1ED5 ^ (u64::from(s.0) << 1)) ^ h[a.0 as usize]);
            }
            sig.sort_unstable();
            for &v in sig.iter() {
                acc = mix(acc ^ v);
            }
            next[id.0 as usize] = acc;
        }
        let next_classes = count_classes(ids, next, seen);
        if next_classes <= classes {
            // Folding in the old color otherwise only splits classes.
            return;
        }
        std::mem::swap(h, next);
        classes = next_classes;
    }
}

/// Order the nodes by hash color, ties by node id, and fill the dense
/// `rank` inverse. On a discrete partition the id key never decides.
fn rank_by_color(s: &mut CanonScratch) {
    let (ids, h, order) = (&s.ids, &s.h, &mut s.order);
    order.clear();
    order.extend(0..ids.len() as u32);
    order.sort_unstable_by_key(|&i| (h[ids[i as usize].0 as usize], i));
    s.rank.clear();
    s.rank.resize(h.len(), 0);
    for (r, &i) in order.iter().enumerate() {
        s.rank[ids[i as usize].0 as usize] = r as u32;
    }
}

/// Append `v` to `out` as an unsigned LEB128 varint.
fn put(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// The canonical-form writer ([`canonical_bytes`] documents the layout):
/// nodes in `order`, link and pvar ranks from the dense `rank` vector
/// ([`rank_by_color`] fills both).
fn serialize_from_scratch(g: &Rsg, s: &mut CanonScratch) -> Vec<u8> {
    let (order, rank, links) = (&s.order, &s.rank, &mut s.links);
    let mut out = Vec::with_capacity(8 + order.len() * 12 + g.num_links() * 3);
    put(&mut out, order.len() as u64);
    // The slot count is part of the form even when the trailing slots are
    // unbound: the shared interner serves many universes (the warm
    // daemon), and the minted representative's PL vector must
    // be indexable by every pvar of the universe that interned it.
    put(&mut out, g.num_pvar_slots() as u64);
    for &i in order.iter() {
        let nd = g.node(s.ids[i as usize]);
        put(&mut out, u64::from(nd.ty.0));
        out.push(nd.shared as u8 | (nd.summary as u8) << 1);
        for set in [nd.shsel, nd.selin, nd.selout, nd.pos_selin, nd.pos_selout] {
            put(&mut out, set.0);
        }
        put(&mut out, nd.cyclelinks.len() as u64);
        for (a, b) in nd.cyclelinks.iter() {
            put(&mut out, u64::from(a.0));
            put(&mut out, u64::from(b.0));
        }
        put(&mut out, nd.touch.len() as u64);
        for p in nd.touch.iter() {
            put(&mut out, u64::from(p.0));
        }
    }
    links.clear();
    links.extend(
        g.links()
            .map(|(a, sl, b)| (rank[a.0 as usize], sl.0, rank[b.0 as usize])),
    );
    links.sort_unstable();
    put(&mut out, links.len() as u64);
    for &(a, sl, b) in links.iter() {
        put(&mut out, u64::from(a));
        put(&mut out, u64::from(sl));
        put(&mut out, u64::from(b));
    }
    put(&mut out, g.pl_iter().count() as u64);
    for (p, n) in g.pl_iter() {
        put(&mut out, u64::from(p.0));
        put(&mut out, u64::from(rank[n.0 as usize]));
    }
    put(&mut out, g.scalars().len() as u64);
    for (&v, &k) in g.scalars() {
        put(&mut out, u64::from(v));
        put(&mut out, ((k << 1) ^ (k >> 63)) as u64);
    }
    out
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
    fn identical_graphs_equal() {
        let g = builder::singly_linked_list(4, 1, PvarId(0), sel(0));
        assert!(isomorphic(&g, &g.clone()));
    }

    #[test]
    fn permuted_construction_is_isomorphic() {
        // Build the same 3-list with its nodes created in two orders.
        let list = |reversed: bool| {
            let mut g = Rsg::empty(1);
            let mut n: Vec<NodeId> = (0..3).map(|_| g.add_fresh(StructId(0))).collect();
            if reversed {
                n.reverse();
            }
            g.set_pl(PvarId(0), n[0]);
            for w in n.windows(2) {
                g.add_link(w[0], sel(0), w[1]);
                g.node_mut(w[0]).set_must_out(sel(0));
                g.node_mut(w[1]).set_must_in(sel(0));
            }
            g
        };
        assert!(isomorphic(&list(false), &list(true)));
    }

    #[test]
    fn different_length_lists_differ() {
        let g3 = builder::singly_linked_list(3, 1, PvarId(0), sel(0));
        let g4 = builder::singly_linked_list(4, 1, PvarId(0), sel(0));
        assert!(!isomorphic(&g3, &g4));
    }

    #[test]
    fn property_differences_detected() {
        let g1 = builder::singly_linked_list(3, 1, PvarId(0), sel(0));
        let mut g2 = g1.clone();
        let last = g2.node_ids().last().unwrap();
        *g2.node_mut(last).shared = true;
        assert!(!isomorphic(&g1, &g2));
    }

    #[test]
    fn pl_differences_detected() {
        let g1 = builder::singly_linked_list(3, 2, PvarId(0), sel(0));
        let mut g2 = g1.clone();
        let head = g2.pl(PvarId(0)).unwrap();
        g2.set_pl(PvarId(1), head);
        assert!(!isomorphic(&g1, &g2));
    }

    #[test]
    fn symmetric_graph_canonicalizes() {
        // A root with two identical children, created in either order: a
        // symmetric case requiring individualization.
        let fan = |swapped: bool| {
            let mut g = Rsg::empty(1);
            let r = g.add_fresh(StructId(0));
            let mut kids = [g.add_fresh(StructId(0)), g.add_fresh(StructId(0))];
            if swapped {
                kids.reverse();
            }
            g.set_pl(PvarId(0), r);
            g.node_mut(r).pos_selout.insert(sel(0));
            for k in kids {
                g.add_link(r, sel(0), k);
                g.node_mut(k).pos_selin.insert(sel(0));
            }
            g
        };
        assert!(isomorphic(&fan(false), &fan(true)));
    }

    #[test]
    fn empty_graphs_equal() {
        assert!(isomorphic(&Rsg::empty(3), &Rsg::empty(3)));
    }

    #[test]
    fn circular_lists_of_different_size_differ() {
        let a = builder::circular_list(3, 1, PvarId(0), sel(0));
        let b = builder::circular_list(4, 1, PvarId(0), sel(0));
        assert!(!isomorphic(&a, &b));
    }

    #[test]
    fn circular_list_stalls_the_refinement() {
        // The fold XORs a node's own color into each neighbor term, so in
        // circ(3) the pinned head's `h ^ M ^ t` equals the tail's
        // `t ^ M ^ h`: refinement stops at two classes, and only
        // individualization tells the graph from a 3-list.
        let g = builder::circular_list(3, 1, PvarId(0), sel(0));
        let mut s = CanonScratch::default();
        s.ids.extend(g.node_ids());
        seed_colors(&g, &mut s);
        wl_hash_colors(&g, &mut s);
        assert_eq!(count_classes(&s.ids, &s.h, &mut Vec::new()), 2);
        let sll = builder::singly_linked_list(3, 1, PvarId(0), sel(0));
        assert!(!isomorphic(&g, &sll));
    }

    #[test]
    fn cyclelink_differences_detected() {
        let g1 = builder::doubly_linked_list(3, 1, PvarId(0), sel(0), sel(1));
        let mut g2 = g1.clone();
        let head = g2.pl(PvarId(0)).unwrap();
        g2.node_mut(head).cyclelinks.drop_first(sel(0));
        assert!(!isomorphic(&g1, &g2));
    }
}
