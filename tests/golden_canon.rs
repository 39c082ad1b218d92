//! Golden tests pinning the canonical byte encoding (ISSUE satellite).
//!
//! The interner keys storage, duplicate detection and the subsumption memo
//! on `canonical_bytes`, and the differential suites compare RSRSGs by
//! those bytes across engines. An accidental change to the encoding would
//! silently invalidate every persisted id and golden signature, so this
//! suite pins an FNV-1a hash of the encoding for a small fixed corpus. If
//! a test here fails after an *intentional* encoding change, regenerate the
//! constants with `cargo test --test golden_canon -- --nocapture` (each
//! failure prints the new hash) and mention the format break in DESIGN.md.

use psa::ir::PvarId;
use psa::rsg::canon::canonical_bytes;
use psa::rsg::{builder, NodeId, Rsg};
use psa_cfront::types::{SelectorId, StructId};

/// FNV-1a, 64-bit: stable, dependency-free, good enough to pin bytes.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn check(name: &str, g: &Rsg, expected: u64) {
    let bytes = canonical_bytes(g);
    let got = fnv64(&bytes);
    assert_eq!(
        got,
        expected,
        "{name}: canonical encoding changed \
         (got 0x{got:016x}, pinned 0x{expected:016x}, {} bytes)",
        bytes.len()
    );
}

const P0: PvarId = PvarId(0);
const NXT: SelectorId = SelectorId(0);
const PRV: SelectorId = SelectorId(1);

#[test]
fn golden_singly_linked_lists() {
    check(
        "sll(1)",
        &builder::singly_linked_list(1, 2, P0, NXT),
        0x1ce72a54038d012b,
    );
    check(
        "sll(2)",
        &builder::singly_linked_list(2, 2, P0, NXT),
        0xcd7e18c5dd7207c7,
    );
    check(
        "sll(3)",
        &builder::singly_linked_list(3, 2, P0, NXT),
        0x7a3043e123f9e47d,
    );
}

#[test]
fn golden_circular_list() {
    // circ(3) stalls the hash-color refinement, so its pin is the one the
    // individualization search decides (DESIGN.md §7).
    check(
        "circ(3)",
        &builder::circular_list(3, 2, P0, NXT),
        0x2eed74ff6edc3663,
    );
}

#[test]
fn golden_doubly_linked_list() {
    check(
        "dll(3)",
        &builder::doubly_linked_list(3, 2, P0, NXT, PRV),
        0x0485c3e58d20349c,
    );
}

#[test]
fn golden_fig1_dll() {
    let (g, _) = builder::fig1_dll(P0, 3, NXT, PRV);
    check("fig1", &g, 0x88e7d3540bd695a7);
}

#[test]
fn golden_binary_tree() {
    check(
        "tree(2)",
        &builder::binary_tree(2, 2, P0, NXT, PRV),
        0x41180e36ed6b7a8f,
    );
}

#[test]
fn golden_shared_hub() {
    // Two list heads converging on one shared hub node — exercises the
    // shared/touch encoding that plain lists do not.
    let mut g = builder::singly_linked_list(2, 3, P0, NXT);
    let hub = g.pl(P0).unwrap();
    let spoke = builder::singly_linked_list(2, 3, PvarId(1), NXT);
    let mut map = std::collections::BTreeMap::new();
    for n in spoke.node_ids() {
        map.insert(n, g.add_node(spoke.node(n).to_node()));
    }
    for (a, s, b) in spoke.links() {
        g.add_link(map[&a], s, map[&b]);
    }
    g.set_pl(PvarId(1), map[&spoke.pl(PvarId(1)).unwrap()]);
    // Point the tail of the second list at the first list's head.
    let tail = map[&spoke.node_ids().last().unwrap()];
    g.add_link(tail, NXT, hub);
    g.node_mut(tail).pos_selout.insert(NXT);
    g.node_mut(hub).pos_selin.insert(NXT);
    check("hub", &g, 0x0cc490ff17f95ef5);
}

#[test]
fn golden_empty_graph() {
    check("empty", &Rsg::empty(2), 0xa4c6f7c878c0702d);
}

#[test]
fn encoding_depends_on_pvar_bindings() {
    // Sanity for the pins above: moving a pvar changes the bytes even when
    // the underlying store graph is identical.
    let a = builder::singly_linked_list(2, 2, P0, NXT);
    let mut b = a.clone();
    let head = b.pl(P0).unwrap();
    b.set_pl(PvarId(1), head);
    assert_ne!(fnv64(&canonical_bytes(&a)), fnv64(&canonical_bytes(&b)));
}

/// `g` rebuilt with its nodes created in the order `perm` gives (`perm[i]`
/// is the position of `g`'s `i`-th node), so node ids are renumbered while
/// properties, links and pvar bindings stay the same.
fn renumbered(g: &Rsg, perm: &[usize]) -> Rsg {
    let old: Vec<NodeId> = g.node_ids().collect();
    let mut by_pos = vec![0; old.len()];
    for (i, &p) in perm.iter().enumerate() {
        by_pos[p] = i;
    }
    let mut out = Rsg::empty(g.num_pvar_slots());
    let mut map = std::collections::BTreeMap::new();
    for &i in &by_pos {
        map.insert(old[i], out.add_node(g.node(old[i]).to_node()));
    }
    for (a, s, b) in g.links() {
        out.add_link(map[&a], s, map[&b]);
    }
    for (p, n) in g.pl_iter() {
        out.set_pl(p, map[&n]);
    }
    out
}

/// Twenty node-creation orders of `n` nodes: identity, reversal and 18
/// seeded Fisher–Yates shuffles.
fn creation_orders(n: usize) -> Vec<Vec<usize>> {
    let mut orders = vec![(0..n).collect::<Vec<_>>(), (0..n).rev().collect()];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    while orders.len() < 20 {
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            perm.swap(i, (x % (i as u64 + 1)) as usize);
        }
        orders.push(perm);
    }
    orders
}

/// The canonical bytes of `g`, asserted equal under every creation order.
fn order_independent_bytes(name: &str, g: &Rsg) -> Vec<u8> {
    let bytes = canonical_bytes(g);
    for perm in creation_orders(g.num_nodes()) {
        assert_eq!(
            canonical_bytes(&renumbered(g, &perm)),
            bytes,
            "{name}: creation order {perm:?} changed the canonical bytes"
        );
    }
    bytes
}

/// A root pinned by `P0` with `k` identical `NXT` children.
fn fan(k: usize) -> Rsg {
    let mut g = Rsg::empty(2);
    let root = g.add_fresh(StructId(0));
    g.set_pl(P0, root);
    g.node_mut(root).pos_selout.insert(NXT);
    for _ in 0..k {
        let c = g.add_fresh(StructId(0));
        g.add_link(root, NXT, c);
        g.node_mut(c).pos_selin.insert(NXT);
    }
    g
}

#[test]
fn stalled_graphs_canonicalize_under_relabeling() {
    // Rings and fans of identical nodes stall the hash-color refinement
    // (circ(3) does), so these exercise the individualization search.
    for pinned in [true, false] {
        let mut rings = Vec::new();
        for len in 1..=7 {
            let mut g = builder::circular_list(len, 2, P0, NXT);
            if !pinned {
                g.clear_pl(P0);
            }
            rings.push(order_independent_bytes(
                &format!("ring({len}, pinned={pinned})"),
                &g,
            ));
        }
        for (i, a) in rings.iter().enumerate() {
            for b in &rings[i + 1..] {
                assert_ne!(a, b, "rings of different lengths must differ");
            }
        }
    }
    for k in 2..=5 {
        order_independent_bytes(&format!("fan({k})"), &fan(k));
    }
}
