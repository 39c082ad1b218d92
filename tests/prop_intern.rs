//! Property-based tests for the canonical-form interner and the memoized
//! subsumption front-end: the canonical encoding must decode back to an
//! isomorphic graph (so equal bytes imply isomorphic graphs), interning
//! must be a bijection between canonical byte strings and ids, invariant
//! under graph renumbering, the entry's pinning keys (its fingerprint) must
//! be sound filters, and the memo/pre-filter path must agree with the raw
//! backtracking search on every pair.

use proptest::prelude::*;
use psa::core::rsrsg::Rsrsg;
use psa::ir::PvarId;
use psa::rsg::canon::canonical_bytes;
use psa::rsg::compress::compress;
use psa::rsg::intern::{CanonEntry, SharedTables};
use psa::rsg::join::compatible;
use psa::rsg::subsume::subsumes;
use psa::rsg::{builder, CycleSet, Level, Node, NodeId, Rsg, SelSet, ShapeCtx};
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

/// A cursor over canonical bytes for [`decode`].
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn byte(&mut self) -> u8 {
        let b = self.bytes[self.at];
        self.at += 1;
        b
    }

    /// One unsigned LEB128 varint.
    fn varint(&mut self) -> u64 {
        let (mut v, mut shift) = (0u64, 0);
        loop {
            let b = self.byte();
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return v;
            }
            shift += 7;
        }
    }

    fn u32(&mut self) -> u32 {
        u32::try_from(self.varint()).expect("a u32 field")
    }

    /// A count-prefixed list of `item`s.
    fn list<T>(&mut self, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let n = self.varint();
        (0..n).map(|_| item(self)).collect()
    }
}

/// Test-only decoder of `canonical_bytes` (its doc comment gives the
/// layout): the graph the bytes describe, node `i` from the `i`-th record.
/// Panics on trailing bytes.
fn decode(bytes: &[u8]) -> Rsg {
    let mut r = Reader { bytes, at: 0 };
    let nodes = r.varint();
    let mut g = Rsg::empty(r.varint() as usize);
    let ids: Vec<NodeId> = (0..nodes)
        .map(|_| {
            let ty = StructId(r.u32());
            let flags = r.byte();
            assert!(flags < 4, "flag byte {flags:#x}");
            let mut sets = [SelSet::EMPTY; 5];
            for set in &mut sets {
                *set = SelSet(r.varint());
            }
            let [shsel, selin, selout, pos_selin, pos_selout] = sets;
            let pairs = r.list(|r| (SelectorId(r.u32()), SelectorId(r.u32())));
            let touch = r.list(|r| PvarId(r.u32()));
            g.add_node(Node {
                ty,
                shared: flags & 1 != 0,
                summary: flags & 2 != 0,
                shsel,
                selin,
                selout,
                pos_selin,
                pos_selout,
                cyclelinks: CycleSet::from_pairs(pairs),
                touch: touch.into_iter().collect(),
            })
        })
        .collect();
    for (a, sel, b) in r.list(|r| (r.u32(), SelectorId(r.u32()), r.u32())) {
        g.add_link(ids[a as usize], sel, ids[b as usize]);
    }
    for (p, n) in r.list(|r| (PvarId(r.u32()), r.u32())) {
        g.set_pl(p, ids[n as usize]);
    }
    for (v, z) in r.list(|r| (r.u32(), r.varint())) {
        g.set_scalar(v, (z >> 1) as i64 ^ -((z & 1) as i64));
    }
    assert_eq!(r.at, bytes.len(), "trailing bytes");
    g
}

/// Brute-force RSG isomorphism: some bijection of the nodes preserves
/// every node property, pvar binding and link. Nodes are matched in id
/// order, pruning a partial map as soon as a property or a link between
/// mapped nodes disagrees.
fn isomorphic_brute(a: &Rsg, b: &Rsg) -> bool {
    let (na, nb): (Vec<NodeId>, Vec<NodeId>) = (a.node_ids().collect(), b.node_ids().collect());
    if na.len() != nb.len()
        || a.num_links() != b.num_links()
        || a.num_pvar_slots() != b.num_pvar_slots()
        || a.scalars() != b.scalars()
    {
        return false;
    }
    // `map[i]` is the index into `nb` of `na[i]`'s image.
    fn extend(a: &Rsg, b: &Rsg, na: &[NodeId], nb: &[NodeId], map: &mut Vec<usize>) -> bool {
        let i = map.len();
        if i == na.len() {
            return true;
        }
        let x = na[i];
        for (j, &y) in nb.iter().enumerate() {
            if map.contains(&j)
                || a.node(x).to_node() != b.node(y).to_node()
                || a.pvars_of(x) != b.pvars_of(y)
            {
                continue;
            }
            map.push(j);
            // Links among the mapped nodes, `x`'s own included, agree both
            // ways (equal totals then make the whole link sets agree).
            let image = |k: usize| nb[map[k]];
            let links_agree = (0..=i).all(|k| {
                let sels = |g: &Rsg, s: NodeId, t: NodeId| -> Vec<SelectorId> {
                    g.out_links(s)
                        .iter()
                        .filter(|l| l.1 == t)
                        .map(|l| l.0)
                        .collect()
                };
                sels(a, x, na[k]) == sels(b, y, image(k))
                    && sels(a, na[k], x) == sels(b, image(k), y)
            });
            if links_agree && extend(a, b, na, nb, map) {
                return true;
            }
            map.pop();
        }
        false
    }
    extend(a, b, &na, &nb, &mut Vec::new())
}

/// The decoder property: `g`'s canonical bytes decode to a graph that
/// re-encodes to the same bytes and is isomorphic to `g`. Since equal bytes
/// decode to one graph, equal bytes imply isomorphic graphs: the encoding
/// is injective on isomorphism classes.
fn check_decodes(g: &Rsg) {
    let bytes = canonical_bytes(g);
    let back = decode(&bytes);
    assert_eq!(canonical_bytes(&back), bytes, "re-encoding {g:?}");
    assert!(isomorphic_brute(&back, g), "decoded {back:?}\nfrom {g:?}");
}

#[test]
fn builder_shapes_decode_to_isomorphic_graphs() {
    let (p0, nxt, prv) = (PvarId(0), SelectorId(0), SelectorId(1));
    let mut shapes = vec![Rsg::empty(2), builder::fig1_dll(p0, 3, nxt, prv).0];
    for len in 1..=7 {
        shapes.push(builder::singly_linked_list(len, 2, p0, nxt));
        let ring = builder::circular_list(len, 2, p0, nxt);
        let mut unpinned = ring.clone();
        unpinned.clear_pl(p0);
        shapes.extend([ring, unpinned]);
        if len >= 2 {
            shapes.push(builder::doubly_linked_list(len, 2, p0, nxt, prv));
        }
    }
    for depth in 0..=2 {
        shapes.push(builder::binary_tree(depth, 2, p0, nxt, prv));
    }
    for g in &shapes {
        check_decodes(g);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn canonical_bytes_decode_to_an_isomorphic_graph(g in arb_rsg()) {
        check_decodes(&g);
        // COMPRESS makes summary nodes and possible-link sets.
        let ctx = ShapeCtx::synthetic(3, 2);
        check_decodes(&compress(g.clone(), &ctx, Level::L1));
        let mut scalars = g;
        scalars.set_scalar(3, -5);
        scalars.set_scalar(9, i64::MIN);
        check_decodes(&scalars);
    }

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
