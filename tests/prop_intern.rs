//! Property-based tests for the canonical-form interner and the memoized
//! subsumption front-end: interning must be a bijection between canonical
//! byte strings and ids, invariant under graph renumbering, the entry's
//! pinning keys (its fingerprint) must be sound filters, and the
//! memo/pre-filter path must agree with the raw backtracking search on
//! every pair.

use proptest::prelude::*;
use psa::core::rsrsg::Rsrsg;
use psa::ir::PvarId;
use psa::rsg::canon::canonical_bytes;
use psa::rsg::compress::compress;
use psa::rsg::intern::{CanonEntry, SharedTables};
use psa::rsg::join::compatible;
use psa::rsg::subsume::subsumes;
use psa::rsg::{builder, Level, Rsg, ShapeCtx};
use psa_cfront::types::{SelectorId, StructId};
use std::sync::Arc;

/// A list with an optional tree spliced in, mirroring `tests/prop_rsg.rs`:
/// list length, tree depth (0 = no tree), and whether `p1` binds the root.
type Shape = (usize, usize, bool);

fn arb_shape() -> impl Strategy<Value = Shape> {
    (2usize..6, 0usize..3, any::<bool>())
}

/// Pinning decorations as a bit mask over the list head (`p0`'s node), so
/// the entry's pinning keys see every input they hash: bit 0 aliases
/// `p2` with `p0`, bit 1 sets SHARED, bit 2 SHSEL(s0), bit 3 TOUCH{p1},
/// bit 4 records the scalar fact `v0 == (bit 5)`.
fn arb_pinning() -> impl Strategy<Value = u8> {
    0u8..64
}

fn build(shape: Shape, pinning: u8) -> Rsg {
    let (len, depth, second) = shape;
    let mut g = builder::singly_linked_list(len, 3, PvarId(0), SelectorId(0));
    if depth > 0 {
        let t = builder::binary_tree(depth, 1, PvarId(0), SelectorId(0), SelectorId(1));
        let mut map = std::collections::BTreeMap::new();
        for n in t.node_ids() {
            map.insert(n, g.add_node(t.node(n).to_node()));
        }
        for (a, s, b) in t.links() {
            g.add_link(map[&a], s, map[&b]);
        }
        if second {
            g.set_pl(PvarId(1), map[&t.pl(PvarId(0)).unwrap()]);
        }
    }
    g.gc();
    let head = g.pl(PvarId(0)).unwrap();
    if pinning & 1 != 0 {
        g.set_pl(PvarId(2), head);
    }
    let n = g.node_mut(head);
    *n.shared |= pinning & 2 != 0;
    if pinning & 4 != 0 {
        n.shsel.insert(SelectorId(0));
    }
    if pinning & 8 != 0 {
        n.touch.insert(PvarId(1));
    }
    if pinning & 16 != 0 {
        g.set_scalar(0, i64::from(pinning >> 5));
    }
    g
}

/// Random structurally valid RSG with random pinning decorations.
fn arb_rsg() -> impl Strategy<Value = Rsg> {
    (arb_shape(), arb_pinning()).prop_map(|(shape, pinning)| build(shape, pinning))
}

/// Two random graphs whose pinning decorations are equal or differ in one
/// bit, and whose shapes are equal half of the time, so COMPATIBLE and
/// subsumption hold, or fail on a single decoration, often enough for the
/// keys' soundness properties to bite.
fn arb_pair() -> impl Strategy<Value = (Rsg, Rsg)> {
    (
        arb_shape(),
        arb_shape(),
        any::<bool>(),
        arb_pinning(),
        0u8..12,
    )
        .prop_map(|(sa, sb, same_shape, pinning, flip)| {
            let other = if flip < 6 {
                pinning ^ (1 << flip)
            } else {
                pinning
            };
            let sb = if same_shape { sa } else { sb };
            (build(sa, pinning), build(sb, other))
        })
}

/// The interned entry of `g` in a fresh table set: its id and pinning keys.
fn entry(g: &Rsg) -> CanonEntry {
    SharedTables::new().intern(&Arc::new(g.clone()))
}

/// The same graph rebuilt with node ids permuted (reverse insertion order).
fn renumbered(g: &Rsg) -> Rsg {
    let ids: Vec<_> = g.node_ids().collect();
    let mut map = std::collections::BTreeMap::new();
    let mut h = Rsg::empty(g.num_pvar_slots());
    for &n in ids.iter().rev() {
        map.insert(n, h.add_node(g.node(n).to_node()));
    }
    for (a, s, b) in g.links() {
        h.add_link(map[&a], s, map[&b]);
    }
    for (p, n) in g.pl_iter() {
        h.set_pl(p, map[&n]);
    }
    for (v, k) in g.scalars() {
        h.set_scalar(*v, *k);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn intern_roundtrips_canonical_bytes(g in arb_rsg()) {
        let t = SharedTables::new();
        let g = Arc::new(g);
        let e = t.intern(&g);
        // The id resolves to a graph with the same canonical bytes, and
        // interning that graph again hits the same entry.
        let (resolved, rep) = t.interner.resolve(e.id);
        prop_assert_eq!(resolved, e);
        prop_assert_eq!(canonical_bytes(&rep), canonical_bytes(&g));
        prop_assert_eq!(t.intern(&rep), e);
        prop_assert_eq!(t.snapshot().intern_hits, 1);
    }

    #[test]
    fn isomorphic_graphs_intern_to_the_same_id(g in arb_rsg()) {
        let t = SharedTables::new();
        let b = Arc::new(renumbered(&g));
        let a = t.intern(&Arc::new(g));
        let b = t.intern(&b);
        prop_assert_eq!(a, b);
        prop_assert_eq!(t.interner.len(), 1);
        let s = t.snapshot();
        prop_assert_eq!(s.intern_misses, 1);
        prop_assert_eq!(s.intern_hits, 1);
    }

    #[test]
    fn distinct_canonical_forms_get_distinct_ids(a in arb_rsg(), b in arb_rsg()) {
        let t = SharedTables::new();
        let same = canonical_bytes(&a) == canonical_bytes(&b);
        let ea = t.intern(&Arc::new(a));
        let eb = t.intern(&Arc::new(b));
        prop_assert_eq!(ea.id == eb.id, same);
        prop_assert!(t.interner.len() <= 2);
    }

    #[test]
    fn memoized_path_agrees_with_raw_search(a in arb_rsg(), b in arb_rsg()) {
        let ctx = ShapeCtx::synthetic(3, 2);
        let (a, b) = (compress(a.clone(), &ctx, Level::L1), compress(b.clone(), &ctx, Level::L1));
        let (a, b) = (Arc::new(a), Arc::new(b));
        let t = SharedTables::new();
        let ea = t.intern(&a);
        let eb = t.intern(&b);
        let expect = subsumes(&a, &b);
        // First query computes (or pre-filter rejects), second must be served
        // without a fresh search; both agree with the reference.
        prop_assert_eq!(t.subsumes_interned((&ea, &a), (&eb, &b)), expect);
        let searches_after_first = t.snapshot().subsume_searches;
        prop_assert_eq!(t.subsumes_interned((&ea, &a), (&eb, &b)), expect);
        let s = t.snapshot();
        prop_assert_eq!(s.subsume_searches, searches_after_first);
        prop_assert_eq!(s.subsume_queries, 2);
        prop_assert!(s.subsume_cache_hits + s.subsume_prefilter_rejects >= 1);
    }

    #[test]
    fn self_subsumption_is_cached_true(g in arb_rsg()) {
        let ctx = ShapeCtx::synthetic(3, 2);
        let g = Arc::new(compress(g.clone(), &ctx, Level::L1));
        let t = SharedTables::new();
        let e = t.intern(&g);
        prop_assert!(t.subsumes_interned((&e, &g), (&e, &g)));
        prop_assert_eq!(t.subsume_lookup(e.id, e.id), Some(true));
        prop_assert!(t.subsumes_interned((&e, &g), (&e, &g)));
        prop_assert_eq!(t.snapshot().subsume_cache_hits, 1);
    }
}

proptest! {
    // The key properties hold or fail on single decorations; more cases
    // make every decoration bit meet a subsuming or compatible pair.
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn fingerprint_is_a_sound_prefilter(pair in arb_pair()) {
        // The pinning group may only exclude pairs the raw search also
        // rejects: subsumes(a, b) must imply equal pin_hash. Compressed
        // forms cover longer lists, so true subsumptions occur too.
        let ctx = ShapeCtx::synthetic(3, 2);
        let (a, b) = pair;
        let ca = compress(a.clone(), &ctx, Level::L1);
        let cb = compress(b.clone(), &ctx, Level::L1);
        for (x, y) in [(&a, &b), (&b, &a), (&ca, &b), (&cb, &a), (&ca, &cb), (&cb, &ca)] {
            if subsumes(x, y) {
                prop_assert_eq!(entry(x).pin_hash, entry(y).pin_hash);
            }
        }
    }

    #[test]
    fn fingerprint_is_a_sound_compatibility_filter(pair in arb_pair()) {
        // compatible(a, b, L) must imply equal pin_hash and sig_key at
        // every level, on raw and on compressed forms.
        let ctx = ShapeCtx::synthetic(3, 2);
        let (a, b) = pair;
        for level in [Level::L1, Level::L2, Level::L3] {
            let (ca, cb) = (compress(a.clone(), &ctx, level), compress(b.clone(), &ctx, level));
            for (x, y) in [(&a, &b), (&ca, &cb)] {
                if compatible(x, y, level) {
                    let (ex, ey) = (entry(x), entry(y));
                    prop_assert_eq!((ex.pin_hash, ex.sig_key), (ey.pin_hash, ey.sig_key));
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reduction_keeps_member_order(
        graphs in proptest::collection::vec(arb_rsg(), 1..12),
        level in 0usize..3,
    ) {
        // The default path queries only the candidate's pinning group and
        // runs the pinned-node stage before its memo; the reference oracle
        // queries every member with the raw search. Both must build the
        // same members in the same order, because the engine's delta
        // worklist and the first-compatible JOIN depend on that order.
        // `arb_rsg`'s decorations spread the graphs over several groups.
        let level = Level::ALL[level];
        let default_ctx = ShapeCtx::synthetic(3, 2);
        let reference_ctx =
            ShapeCtx::synthetic(3, 2).with_tables(Arc::new(SharedTables::without_cache()));
        let (mut a, mut b) = (Rsrsg::new(), Rsrsg::new());
        for g in graphs {
            a.insert(g.clone(), &default_ctx, level);
            b.insert(g, &reference_ctx, level);
        }
        let members = |s: &Rsrsg| -> Vec<Vec<u8>> { s.iter().map(canonical_bytes).collect() };
        prop_assert_eq!(members(&a), members(&b));
        let (sa, sb) = (default_ctx.tables.snapshot(), reference_ctx.tables.snapshot());
        prop_assert_eq!(sa.insert_dups, sb.insert_dups);
        prop_assert_eq!(sa.insert_subsumed, sb.insert_subsumed);
        prop_assert_eq!(sa.insert_replaced, sb.insert_replaced);
    }
}

#[test]
fn interner_is_shared_across_shape_ctx_clones() {
    let ctx = ShapeCtx::synthetic(3, 2);
    let clone = ctx.clone();
    let g = Arc::new(builder::singly_linked_list(3, 2, PvarId(0), SelectorId(0)));
    let a = ctx.tables.intern(&g);
    let b = clone.tables.intern(&g);
    assert_eq!(a.id, b.id);
    assert_eq!(ctx.tables.interner.len(), 1);
    assert_eq!(ctx.tables.snapshot().intern_hits, 1);
}

#[test]
fn fingerprint_distinguishes_node_types() {
    // Same shape, different struct type: the pvar-pointed node's TYPE is
    // part of the pinning hash, so the graphs fall in different pinning
    // groups and neither subsumes the other.
    let a = builder::singly_linked_list(3, 2, PvarId(0), SelectorId(0));
    let mut b = a.clone();
    for n in b.node_ids().collect::<Vec<_>>() {
        *b.node_mut(n).ty = StructId(7);
    }
    let (ea, eb) = (entry(&a), entry(&b));
    assert_ne!(ea.pin_hash, eb.pin_hash);
    assert!(!ea.may_be_compatible(&eb));
    assert!(!subsumes(&a, &b) && !subsumes(&b, &a));
}
