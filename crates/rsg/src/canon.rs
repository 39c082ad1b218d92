//! Canonical forms for RSGs.
//!
//! The fixed-point engine must decide whether an RSRSG changed across an
//! iteration. Graphs are rebuilt by every operation, so node ids are
//! meaningless; equality must be isomorphism up to node renaming (pvars and
//! selectors are globally named and fixed).
//!
//! We compute a canonical labelling by partition refinement (Weisfeiler–
//! Leman style, seeded with the full node property vector and the pvars
//! pointing at each node) followed by individualization with backtracking:
//! when refinement stalls with a non-discrete partition, each member of the
//! first ambiguous class is tried and the lexicographically smallest
//! serialization wins. RSGs are small (tens of nodes) and, after COMPRESS,
//! contain pairwise property-distinct nodes, so backtracking almost never
//! triggers.
//!
//! # The hash-color fast path
//!
//! The exact refinement carries full byte/`Vec<u32>` signatures through
//! `BTreeMap` palettes — correct, but allocation-heavy, and it dominates
//! interning time. [`canonical_bytes`] therefore first runs the same
//! refinement over *u64 hash colors* (splitmix-style mixing of the
//! initial color bytes, then of the sorted neighbor color multisets):
//!
//! * if the hash partition becomes *discrete* (all `n` hashes distinct),
//!   ordering nodes by hash is an isomorphism-invariant total order —
//!   hashes are computed from ids only through id-independent inputs — so
//!   serialization under the hash ranks is canonical. A u64 collision can
//!   only *merge* classes, never split them, so a collision can never
//!   smuggle a non-discrete partition through this gate;
//! * if refinement *stalls* (class count stops growing, whether from a
//!   genuine symmetry or a hash collision), we fall back to the exact
//!   byte-color refinement with individualization above. Stalling is itself
//!   isomorphism-invariant, so isomorphic graphs always take the same path
//!   and compare equal.
//!
//! # Scratch reuse
//!
//! The fast path's working set — the id list, the per-node initial color
//! bytes (stored as one flat arena plus spans instead of a per-node
//! `BTreeMap<NodeId, Vec<u8>>`), and the u64 hash/signature vectors — lives
//! in a thread-local `CanonScratch` reused across calls, so steady-state
//! canonicalization allocates only the output vector. The exact fallback
//! path (refinement stalled) reconstructs the `BTreeMap` form for
//! refinement and individualization. Both paths write their bytes through
//! one serializer, `serialize_from_scratch`, under the node order each one
//! found.

use crate::graph::Rsg;
use crate::node::NodeId;
use psa_ir::{fnv1a, splitmix64 as mix};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Reusable buffers for the hash-color fast path.
#[derive(Default)]
struct CanonScratch {
    /// Live node ids of the graph being encoded.
    ids: Vec<NodeId>,
    /// Flat arena of initial-color bytes, one span per node in `ids` order.
    init_bytes: Vec<u8>,
    /// `(start, end)` byte offsets into `init_bytes`, parallel to `ids`.
    init_spans: Vec<(u32, u32)>,
    /// Current hash colors, indexed by raw node id.
    h: Vec<u64>,
    /// Next-iteration hash colors.
    next: Vec<u64>,
    /// Per-node neighbor signature accumulator.
    sig: Vec<u64>,
    /// Distinct-class counting buffer.
    seen: Vec<u64>,
    /// Node order under the final hash ranks.
    order: Vec<NodeId>,
    /// Dense `raw node id → rank` under `order` (fast-path serialization).
    rank: Vec<u32>,
    /// Dense `raw node id → index into ids/init_spans`.
    span_of: Vec<u32>,
    /// Ranked-link sort buffer for the fast-path serialization.
    links: Vec<(u32, u32, u32)>,
}

thread_local! {
    static SCRATCH: RefCell<CanonScratch> = RefCell::new(CanonScratch::default());
}

/// A canonical byte serialization: equal bytes ⇔ isomorphic graphs (over
/// fixed pvar/selector universes).
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
    if s.ids.is_empty() {
        let mut out = b"empty;".to_vec();
        // Even an empty graph records which pvars are NULL (none bound)
        // and the known scalar facts.
        out.extend_from_slice(&(g.num_pvar_slots() as u32).to_le_bytes());
        for (v, k) in g.scalars() {
            out.extend_from_slice(&v.to_le_bytes());
            out.extend_from_slice(&k.to_le_bytes());
        }
        return out;
    }
    // Initial colors into the flat arena (one span per node).
    s.init_bytes.clear();
    s.init_spans.clear();
    for i in 0..s.ids.len() {
        let start = s.init_bytes.len() as u32;
        initial_color_into(g, s.ids[i], &mut s.init_bytes);
        s.init_spans.push((start, s.init_bytes.len() as u32));
    }
    if wl_hash_colors(g, s) {
        return serialize_from_scratch(g, s);
    }
    // Exact fallback: rebuild the per-node byte-color map the refinement
    // and individualization machinery expects.
    let ids = s.ids.clone();
    let init: BTreeMap<NodeId, Vec<u8>> = ids
        .iter()
        .zip(&s.init_spans)
        .map(|(&n, &(a, b))| (n, s.init_bytes[a as usize..b as usize].to_vec()))
        .collect();
    let colors = best_coloring(g, &ids, &init, 0, s);
    serialize_colored(g, &colors, s)
}

/// Are two graphs isomorphic (as RSGs)?
pub fn isomorphic(a: &Rsg, b: &Rsg) -> bool {
    canonical_bytes(a) == canonical_bytes(b)
}

/// Append a node's initial color to `c`: every property plus the sorted
/// pvar set pointing at it.
fn initial_color_into(g: &Rsg, n: NodeId, c: &mut Vec<u8>) {
    let nd = g.node(n);
    c.extend_from_slice(&nd.ty.0.to_le_bytes());
    c.push(nd.shared as u8);
    c.push(nd.summary as u8);
    c.extend_from_slice(&nd.shsel.0.to_le_bytes());
    c.extend_from_slice(&nd.selin.0.to_le_bytes());
    c.extend_from_slice(&nd.selout.0.to_le_bytes());
    c.extend_from_slice(&nd.pos_selin.0.to_le_bytes());
    c.extend_from_slice(&nd.pos_selout.0.to_le_bytes());
    for (a, b) in nd.cyclelinks.iter() {
        c.extend_from_slice(&a.0.to_le_bytes());
        c.extend_from_slice(&b.0.to_le_bytes());
    }
    c.push(0xfe);
    for p in nd.touch.iter() {
        c.extend_from_slice(&p.0.to_le_bytes());
    }
    c.push(0xfd);
    for p in g.pvars_of(n) {
        c.extend_from_slice(&p.0.to_le_bytes());
    }
}

/// Refine colors until stable; returns a stable coloring (possibly with
/// ties).
fn refine(g: &Rsg, ids: &[NodeId], init: &BTreeMap<NodeId, Vec<u8>>) -> BTreeMap<NodeId, u32> {
    // Convert initial byte colors to dense ints, assigned in sorted key
    // order so that color values are independent of node id order.
    let keys: std::collections::BTreeSet<&Vec<u8>> = ids.iter().map(|n| &init[n]).collect();
    let palette: BTreeMap<&Vec<u8>, u32> = keys
        .into_iter()
        .enumerate()
        .map(|(i, k)| (k, i as u32))
        .collect();
    let mut color: BTreeMap<NodeId, u32> = ids.iter().map(|&n| (n, palette[&init[&n]])).collect();
    loop {
        let mut sigs: BTreeMap<NodeId, Vec<u32>> = BTreeMap::new();
        for &n in ids {
            let mut sig = vec![color[&n]];
            let mut outs: Vec<(u32, u32)> = g
                .out_links(n)
                .iter()
                .map(|&(s, b)| (s.0, color[&b]))
                .collect();
            outs.sort_unstable();
            sig.push(u32::MAX); // separator
            for (s, c) in outs {
                sig.push(s);
                sig.push(c);
            }
            let mut ins: Vec<(u32, u32)> = g
                .in_links(n)
                .iter()
                .map(|&(a, s)| (s.0, color[&a]))
                .collect();
            ins.sort_unstable();
            sig.push(u32::MAX - 1);
            for (s, c) in ins {
                sig.push(s);
                sig.push(c);
            }
            sigs.insert(n, sig);
        }
        let sig_keys: std::collections::BTreeSet<&Vec<u32>> =
            ids.iter().map(|n| &sigs[n]).collect();
        let sig_palette: BTreeMap<&Vec<u32>, u32> = sig_keys
            .into_iter()
            .enumerate()
            .map(|(i, k)| (k, i as u32))
            .collect();
        let next_color: BTreeMap<NodeId, u32> =
            ids.iter().map(|&n| (n, sig_palette[&sigs[&n]])).collect();
        let old_classes = color
            .values()
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        let new_classes = next_color
            .values()
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        let stable = new_classes == old_classes;
        color = next_color;
        if stable {
            return color;
        }
    }
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

/// WL refinement over u64 hash colors, working entirely in the scratch
/// buffers (initial hashes come from the flat color arena). On success the
/// partition is discrete: `scratch.order` holds the nodes sorted by hash
/// (the canonical order) and `scratch.rank` the dense inverse, and the
/// caller serializes straight from the scratch. Returns `false` when the
/// partition stalls before discreteness (genuine symmetry or hash
/// collision) — the caller then runs the exact path.
fn wl_hash_colors(g: &Rsg, scratch: &mut CanonScratch) -> bool {
    let CanonScratch {
        ids,
        init_bytes,
        init_spans,
        h,
        next,
        sig,
        seen,
        order,
        rank,
        ..
    } = scratch;
    let n = ids.len();
    let cap = ids.iter().map(|id| id.0 as usize + 1).max().unwrap_or(0);
    h.clear();
    h.resize(cap, 0);
    for (i, &id) in ids.iter().enumerate() {
        let (a, b) = init_spans[i];
        h[id.0 as usize] = mix(fnv1a(&init_bytes[a as usize..b as usize]));
    }
    let mut classes = count_classes(ids, h, seen);
    while classes < n {
        next.clear();
        next.resize(cap, 0);
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
            // Stalled short of discreteness — or a collision merged classes
            // (refinement with the old color folded in can otherwise only
            // split). Either way the exact path decides.
            return false;
        }
        std::mem::swap(h, next);
        classes = next_classes;
    }
    // Discrete: rank nodes by hash value.
    order.clear();
    order.extend_from_slice(ids);
    order.sort_unstable_by_key(|id| h[id.0 as usize]);
    rank.clear();
    rank.resize(cap, 0);
    for (i, &id) in order.iter().enumerate() {
        rank[id.0 as usize] = i as u32;
    }
    true
}

/// The one canonical-form writer: nodes in `order`, initial-color bytes
/// from the flat arena, link/pvar ranks from the dense `rank` vector. The
/// fast path leaves `order` and `rank` behind from a successful
/// [`wl_hash_colors`] run; the exact path fills them in
/// [`serialize_colored`].
fn serialize_from_scratch(g: &Rsg, s: &mut CanonScratch) -> Vec<u8> {
    let CanonScratch {
        ids,
        init_bytes,
        init_spans,
        order,
        rank,
        span_of,
        links,
        ..
    } = s;
    let cap = rank.len();
    span_of.clear();
    span_of.resize(cap, 0);
    for (i, &id) in ids.iter().enumerate() {
        span_of[id.0 as usize] = i as u32;
    }
    let mut out = Vec::with_capacity(order.len() * 48);
    out.extend_from_slice(&(order.len() as u32).to_le_bytes());
    // The slot count is part of the form even when the trailing slots are
    // unbound: the shared interner serves many universes (the warm
    // daemon), and the minted representative's PL vector must
    // be indexable by every pvar of the universe that interned it.
    out.extend_from_slice(&(g.num_pvar_slots() as u32).to_le_bytes());
    for &n in order.iter() {
        let (a, b) = init_spans[span_of[n.0 as usize] as usize];
        out.extend_from_slice(&init_bytes[a as usize..b as usize]);
        out.push(0xFF);
    }
    links.clear();
    links.extend(
        g.links()
            .map(|(a, sl, b)| (rank[a.0 as usize], sl.0, rank[b.0 as usize])),
    );
    links.sort_unstable();
    for &(a, sl, b) in links.iter() {
        out.extend_from_slice(&a.to_le_bytes());
        out.extend_from_slice(&sl.to_le_bytes());
        out.extend_from_slice(&b.to_le_bytes());
    }
    out.push(0xFC);
    for (p, n) in g.pl_iter() {
        out.extend_from_slice(&p.0.to_le_bytes());
        out.extend_from_slice(&rank[n.0 as usize].to_le_bytes());
    }
    out.push(0xFB);
    for (v, k) in g.scalars() {
        out.extend_from_slice(&v.to_le_bytes());
        out.extend_from_slice(&k.to_le_bytes());
    }
    out
}

const MAX_INDIVIDUALIZE_DEPTH: usize = 8;

fn best_coloring(
    g: &Rsg,
    ids: &[NodeId],
    init: &BTreeMap<NodeId, Vec<u8>>,
    depth: usize,
    s: &mut CanonScratch,
) -> BTreeMap<NodeId, u32> {
    let colors = refine(g, ids, init);
    // Find the first ambiguous class (smallest color with ≥ 2 members).
    let mut by_color: BTreeMap<u32, Vec<NodeId>> = BTreeMap::new();
    for &n in ids {
        by_color.entry(colors[&n]).or_default().push(n);
    }
    let ambiguous = by_color.values().find(|v| v.len() >= 2);
    let Some(class) = ambiguous else {
        return colors;
    };
    if depth >= MAX_INDIVIDUALIZE_DEPTH {
        // Give up on perfect canonicalization; break ties by node id. This
        // can only cause spurious inequality between isomorphic graphs,
        // which costs one extra engine iteration, never unsoundness.
        let mut out = colors;
        let n = ids.len() as u32;
        for (i, &id) in ids.iter().enumerate() {
            out.insert(id, out[&id] * n + i as u32);
        }
        return out;
    }
    // Individualize each candidate; keep the lexicographically smallest
    // serialization.
    let mut best: Option<(Vec<u8>, BTreeMap<NodeId, u32>)> = None;
    for &cand in class {
        let mut init2 = init.clone();
        init2.get_mut(&cand).unwrap().push(0xAA); // distinguish
        let colors2 = best_coloring(g, ids, &init2, depth + 1, s);
        let ser = serialize_colored(g, &colors2, s);
        if best.as_ref().map(|(b, _)| ser < *b).unwrap_or(true) {
            best = Some((ser, colors2));
        }
    }
    best.unwrap().1
}

/// Serialize a graph under a total node coloring (every coloring
/// [`best_coloring`] returns is one): order the scratch's nodes by color,
/// fill the dense `rank`, and write through [`serialize_from_scratch`].
fn serialize_colored(g: &Rsg, colors: &BTreeMap<NodeId, u32>, s: &mut CanonScratch) -> Vec<u8> {
    s.order.clear();
    s.order.extend_from_slice(&s.ids);
    s.order.sort_by_key(|n| colors[n]);
    let cap = s.ids.iter().map(|id| id.0 as usize + 1).max().unwrap_or(0);
    s.rank.clear();
    s.rank.resize(cap, 0);
    for (i, &id) in s.order.iter().enumerate() {
        s.rank[id.0 as usize] = i as u32;
    }
    serialize_from_scratch(g, s)
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
        // Build the same 3-list in two different node orders.
        let mut g1 = Rsg::empty(1);
        let a = g1.add_fresh(StructId(0));
        let b = g1.add_fresh(StructId(0));
        let c = g1.add_fresh(StructId(0));
        g1.set_pl(PvarId(0), a);
        g1.add_link(a, sel(0), b);
        g1.add_link(b, sel(0), c);
        g1.node_mut(a).set_must_out(sel(0));
        g1.node_mut(b).set_must_in(sel(0));
        g1.node_mut(b).set_must_out(sel(0));
        g1.node_mut(c).set_must_in(sel(0));

        let mut g2 = Rsg::empty(1);
        let c2 = g2.add_fresh(StructId(0));
        let b2 = g2.add_fresh(StructId(0));
        let a2 = g2.add_fresh(StructId(0));
        g2.set_pl(PvarId(0), a2);
        g2.add_link(a2, sel(0), b2);
        g2.add_link(b2, sel(0), c2);
        g2.node_mut(a2).set_must_out(sel(0));
        g2.node_mut(b2).set_must_in(sel(0));
        g2.node_mut(b2).set_must_out(sel(0));
        g2.node_mut(c2).set_must_in(sel(0));

        assert!(isomorphic(&g1, &g2));
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
        // Two identical unreached... two identical parallel children: a
        // symmetric case requiring individualization.
        let mut g1 = Rsg::empty(1);
        let r = g1.add_fresh(StructId(0));
        let x = g1.add_fresh(StructId(0));
        let y = g1.add_fresh(StructId(0));
        g1.set_pl(PvarId(0), r);
        g1.add_link(r, sel(0), x);
        g1.add_link(r, sel(0), y);
        g1.node_mut(x).pos_selin.insert(sel(0));
        g1.node_mut(y).pos_selin.insert(sel(0));
        g1.node_mut(r).pos_selout.insert(sel(0));

        // Same graph with x/y created in the opposite order.
        let mut g2 = Rsg::empty(1);
        let r2 = g2.add_fresh(StructId(0));
        let y2 = g2.add_fresh(StructId(0));
        let x2 = g2.add_fresh(StructId(0));
        g2.set_pl(PvarId(0), r2);
        g2.add_link(r2, sel(0), x2);
        g2.add_link(r2, sel(0), y2);
        g2.node_mut(x2).pos_selin.insert(sel(0));
        g2.node_mut(y2).pos_selin.insert(sel(0));
        g2.node_mut(r2).pos_selout.insert(sel(0));

        assert!(isomorphic(&g1, &g2));
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
    fn cyclelink_differences_detected() {
        let g1 = builder::doubly_linked_list(3, 1, PvarId(0), sel(0), sel(1));
        let mut g2 = g1.clone();
        let head = g2.pl(PvarId(0)).unwrap();
        g2.node_mut(head).cyclelinks.drop_first(sel(0));
        assert!(!isomorphic(&g1, &g2));
    }
}
