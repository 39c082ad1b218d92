//! Property-based tests (proptest) on the core shape-graph invariants.

use proptest::prelude::*;
use psa::ir::PvarId;
use psa::rsg::canon::{canonical_bytes, isomorphic};
use psa::rsg::compress::compress;
use psa::rsg::divide::divide;
use psa::rsg::intern::PinSignature;
use psa::rsg::join::{compatible, join};
use psa::rsg::prune::prune;
use psa::rsg::subsume::subsumes;
use psa::rsg::{builder, Level, NodeId, Rsg, ShapeCtx};
use psa_cfront::types::{SelectorId, StructId};

/// A random but structurally valid RSG: a forest of lists and trees over one
/// struct with two selectors, with a few pvars.
fn arb_rsg() -> impl Strategy<Value = Rsg> {
    (
        2usize..6,     // list length
        0usize..3,     // tree depth
        any::<bool>(), // second pvar bound?
        any::<bool>(), // extra cross link?
    )
        .prop_map(|(len, depth, second, cross)| {
            let mut g = builder::singly_linked_list(len, 3, PvarId(0), SelectorId(0));
            if depth > 0 {
                // Attach a small tree under a second pvar.
                let t = builder::binary_tree(depth, 1, PvarId(0), SelectorId(0), SelectorId(1));
                // Splice tree nodes into g with fresh ids.
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
            if cross {
                // A benign extra possible link between the heads.
                let ids: Vec<_> = g.node_ids().collect();
                if ids.len() >= 2 {
                    let (a, b) = (ids[0], ids[ids.len() - 1]);
                    if g.node(a).ty == StructId(0) {
                        g.add_link(a, SelectorId(1), b);
                        g.node_mut(a).pos_selout.insert(SelectorId(1));
                        g.node_mut(b).pos_selin.insert(SelectorId(1));
                    }
                }
            }
            g.gc();
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn canonical_form_is_reconstruction_invariant(g in arb_rsg()) {
        // Rebuild the same graph with node ids permuted (reverse insertion).
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
        prop_assert!(isomorphic(&g, &h));
        prop_assert_eq!(canonical_bytes(&g), canonical_bytes(&h));
    }

    #[test]
    fn compress_is_idempotent(g in arb_rsg()) {
        let ctx = ShapeCtx::synthetic(3, 2);
        for level in [Level::L1, Level::L2] {
            let c1 = compress(g.clone(), &ctx, level);
            let c2 = compress(c1.clone(), &ctx, level);
            prop_assert!(isomorphic(&c1, &c2), "compress must be idempotent at {}", level);
        }
    }

    #[test]
    fn compress_never_increases_size(g in arb_rsg()) {
        let ctx = ShapeCtx::synthetic(3, 2);
        let c = compress(g.clone(), &ctx, Level::L1);
        prop_assert!(c.num_nodes() <= g.num_nodes());
    }

    #[test]
    fn compressed_graph_subsumes_original(g in arb_rsg()) {
        let ctx = ShapeCtx::synthetic(3, 2);
        let c = compress(g.clone(), &ctx, Level::L1);
        prop_assert!(subsumes(&c, &g), "summarization only generalizes");
    }

    #[test]
    fn prune_is_idempotent(g in arb_rsg()) {
        if let Some(p1) = prune(&g) {
            let p2 = prune(&p1).expect("pruned graph stays consistent");
            prop_assert!(isomorphic(&p1, &p2));
        }
    }

    #[test]
    fn worklist_prune_matches_reference(g in arb_rsg(), muts in proptest::collection::vec((any::<u8>(), any::<u8>(), 0u8..2), 0..6)) {
        // Inject property/link violations so the rules actually fire, then
        // require PRUNE and the test-only copy of its earlier rescan
        // (`reference::prune`) to produce bit-identical results (same
        // `Option`, same node slots, same links, same properties).
        let mut g = g;
        for (kind, x, s) in muts {
            let ids: Vec<_> = g.node_ids().collect();
            if ids.is_empty() { break; }
            let n = ids[x as usize % ids.len()];
            let sel = SelectorId(u32::from(s));
            match kind % 4 {
                0 => g.node_mut(n).set_must_out(sel),
                1 => g.node_mut(n).set_must_in(sel),
                2 => {
                    if let Some(&(s2, b)) = g.out_links(n).first() {
                        g.remove_link(n, s2, b);
                    }
                }
                _ => {
                    g.node_mut(n).pos_selin.remove(sel);
                    g.node_mut(n).pos_selout.remove(sel);
                }
            }
        }
        prop_assert_eq!(prune(&g), reference::prune(&g), "PRUNE must be bit-identical to the rescan reference");
    }

    #[test]
    fn worklist_prune_matches_reference_after_divide(g in arb_rsg()) {
        // Division removes links and promotes must-sets before it prunes,
        // which leaves garbage and rule premises the synthetic mutations
        // above do not: DIVIDE through PRUNE must match DIVIDE through the
        // rescan reference.
        for sel in [SelectorId(0), SelectorId(1)] {
            prop_assert_eq!(
                divide(&g, PvarId(0), sel),
                reference::divide(&g, PvarId(0), sel),
                "divide output must match the rescan reference"
            );
        }
    }

    #[test]
    fn join_subsumes_both_inputs(a in arb_rsg(), b in arb_rsg()) {
        let _ctx = ShapeCtx::synthetic(3, 2);
        if compatible(&a, &b, Level::L1) {
            let j = join(&a, &b, Level::L1);
            prop_assert!(subsumes(&j, &a), "join must cover its first input");
            prop_assert!(subsumes(&j, &b), "join must cover its second input");
        }
    }

    #[test]
    fn join_is_commutative_up_to_iso(a in arb_rsg(), b in arb_rsg()) {
        if compatible(&a, &b, Level::L1) {
            let ctx = ShapeCtx::synthetic(3, 2);
            let ab = compress(join(&a, &b, Level::L1), &ctx, Level::L1);
            let ba = compress(join(&b, &a, Level::L1), &ctx, Level::L1);
            // Both joins must subsume both inputs; exact isomorphism is not
            // guaranteed (greedy pairing), so check mutual subsumption of
            // the inputs instead.
            prop_assert!(subsumes(&ab, &a) && subsumes(&ab, &b));
            prop_assert!(subsumes(&ba, &a) && subsumes(&ba, &b));
        }
    }

    #[test]
    fn subsumption_is_reflexive(g in arb_rsg()) {
        prop_assert!(subsumes(&g, &g));
    }

    #[test]
    fn divide_parts_are_subsumed(g in arb_rsg()) {
        // Every divided part describes a subset of the original's
        // configurations... conversely each part must be subsumed by the
        // original graph (which may additionally describe others).
        let parts = divide(&g, PvarId(0), SelectorId(0));
        for part in &parts {
            prop_assert!(
                subsumes(&g, part),
                "division only specializes; part must embed into the input"
            );
        }
    }

    #[test]
    fn invariants_preserved_by_ops(g in arb_rsg()) {
        let ctx = ShapeCtx::synthetic(3, 2);
        compress(g.clone(), &ctx, Level::L1).check_invariants(&ctx).unwrap();
        if let Some(p) = prune(&g) {
            p.check_invariants(&ctx).unwrap();
        }
        for part in divide(&g, PvarId(0), SelectorId(0)) {
            part.check_invariants(&ctx).unwrap();
        }
    }
}

/// One edit of [`mutate`]: `(kind, node, value)`, each taken modulo what it
/// indexes.
type Mutation = (u8, u8, u8);

fn mutations() -> impl Strategy<Value = Vec<Mutation>> {
    proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..6)
}

/// Edit node properties, links, scalar facts and (kind 7 only) PL, so that
/// the kernels' key fields, reference patterns and one-length SPATHs vary.
fn mutate(mut g: Rsg, muts: &[Mutation]) -> Rsg {
    for &(kind, x, v) in muts {
        let ids: Vec<NodeId> = g.node_ids().collect();
        if ids.is_empty() {
            break;
        }
        let n = ids[x as usize % ids.len()];
        let sel = SelectorId(u32::from(v % 2));
        let p = PvarId(u32::from(v % 3));
        match kind % 8 {
            0 => g.node_mut(n).set_must_out(sel),
            1 => g.node_mut(n).set_must_in(sel),
            2 => {
                if let Some(&(s2, b)) = g.out_links(n).first() {
                    g.remove_link(n, s2, b);
                }
            }
            3 => {
                let shared = !g.node(n).shared;
                *g.node_mut(n).shared = shared;
            }
            4 => g.node_mut(n).shsel.insert(sel),
            5 => g.node_mut(n).touch.insert(p),
            6 => {
                // A possible link out of a pinned node: a new one-length
                // SPATH for `n`.
                if let Some(m) = g.pl(p) {
                    g.add_link(m, sel, n);
                    g.node_mut(m).pos_selout.insert(sel);
                    g.node_mut(n).pos_selin.insert(sel);
                }
            }
            _ => g.set_scalar(u32::from(v % 2), i64::from(x % 2)),
        }
    }
    g
}

/// The same graph with node ids assigned in reverse order.
fn renumbered(g: &Rsg) -> Rsg {
    let ids: Vec<NodeId> = g.node_ids().collect();
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
    for (&v, &k) in g.scalars().iter() {
        h.set_scalar(v, k);
    }
    h
}

/// Bind pvar 2 to node `x` (mod the node count): two pvars then share a
/// node, so alias classes have more than one member.
fn bind_alias(mut g: Rsg, x: u8) -> Rsg {
    let ids: Vec<NodeId> = g.node_ids().collect();
    g.set_pl(PvarId(2), ids[x as usize % ids.len()]);
    g
}

/// Test-only copies of the kernels as they were before they were
/// rewritten: COMPATIBLE over whole-graph SPATHs and alias-class maps,
/// COMPRESS partitioning through a `BTreeMap`, JOIN through a disjoint
/// union and a union-find, each MERGE_NODES written out, and PRUNE as a
/// rescan that collects garbage every round (with DIVIDE over it). The
/// kernels must match them bit for bit.
mod reference {
    use psa::ir::PvarId;
    use psa::rsg::spath::{self, SPath};
    use psa::rsg::{CycleSet, Level, Node, NodeId, Rsg, SelSet};
    use psa_cfront::types::SelectorId;
    use std::collections::BTreeMap;

    fn check_link_rules(
        g: &Rsg,
        a: NodeId,
        sel: SelectorId,
        b: NodeId,
        doomed: &mut Vec<(NodeId, SelectorId, NodeId)>,
    ) {
        let na = g.node(a);
        let nb = g.node(b);
        if !na.may_selout().contains(sel) || !nb.may_selin().contains(sel) {
            doomed.push((a, sel, b));
            return;
        }
        let cyc_bad = na
            .cyclelinks
            .iter()
            .any(|(s1, s2)| s1 == sel && !g.has_link(b, s2, a));
        if cyc_bad {
            doomed.push((a, sel, b));
        }
    }

    fn rule4_at(
        g: &Rsg,
        present: &[bool],
        n: NodeId,
        doomed: &mut Vec<(NodeId, SelectorId, NodeId)>,
    ) {
        if g.node(n).summary {
            return;
        }
        let in_links = g.in_links(n);
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

    fn rule1_fires(g: &Rsg, n: NodeId) -> bool {
        let nd = g.node(n);
        nd.selout.iter().any(|sel| g.succs(n, sel).is_empty())
            || nd.selin.iter().any(|sel| g.preds(n, sel).is_empty())
    }

    pub fn prune(g: &Rsg) -> Option<Rsg> {
        let mut g = g.clone();
        loop {
            let mut changed = false;
            let mut doomed_links: Vec<(NodeId, SelectorId, NodeId)> = Vec::new();
            for (a, sel, b) in g.links() {
                check_link_rules(&g, a, sel, b, &mut doomed_links);
            }
            let present = g.present_nodes();
            for n in g.node_ids().collect::<Vec<_>>() {
                rule4_at(&g, &present, n, &mut doomed_links);
            }
            doomed_links.sort_unstable();
            doomed_links.dedup();
            for (a, sel, b) in doomed_links {
                if g.remove_link(a, sel, b) {
                    changed = true;
                }
            }
            let doomed_nodes: Vec<NodeId> = g.node_ids().filter(|&n| rule1_fires(&g, n)).collect();
            for n in doomed_nodes {
                if !g.pvars_of(n).is_empty() {
                    return None;
                }
                g.remove_node(n);
                changed = true;
            }
            if g.gc() > 0 {
                changed = true;
            }
            if !changed {
                return Some(g);
            }
        }
    }

    pub fn divide(g: &Rsg, x: PvarId, sel: SelectorId) -> Vec<Rsg> {
        let Some(n) = g.pl(x) else {
            return vec![g.clone()];
        };
        let succs = g.succs(n, sel);
        let must = g.node(n).selout.contains(sel);
        let mut out = Vec::new();
        for target in succs {
            let mut gi = g.clone();
            for other in succs {
                if other != target {
                    gi.remove_link(n, sel, other);
                }
            }
            gi.node_mut(n).set_must_out(sel);
            if !gi.node(target).summary {
                gi.node_mut(target).set_must_in(sel);
            }
            out.extend(prune(&gi));
        }
        if !must {
            let mut gn = g.clone();
            for other in succs {
                gn.remove_link(n, sel, other);
            }
            gn.node_mut(n).clear_out(sel);
            out.extend(prune(&gn));
        }
        out
    }

    fn alias_classes(g: &Rsg) -> Vec<Vec<PvarId>> {
        let mut by_node: BTreeMap<NodeId, Vec<PvarId>> = BTreeMap::new();
        for (p, n) in g.pl_iter() {
            by_node.entry(n).or_default().push(p);
        }
        let mut classes: Vec<Vec<PvarId>> = by_node.into_values().collect();
        for c in &mut classes {
            c.sort_unstable();
        }
        classes.sort();
        classes
    }

    fn c_nodes(
        g1: &Rsg,
        n1: NodeId,
        g2: &Rsg,
        n2: NodeId,
        sp1: &SPath,
        sp2: &SPath,
        level: Level,
    ) -> bool {
        let (a, b) = (g1.node(n1), g2.node(n2));
        a.ty == b.ty
            && a.shared == b.shared
            && a.shsel == b.shsel
            && a.touch == b.touch
            && a.refpat_compatible(b)
            && c_spath(sp1, sp2, level)
    }

    /// C_SPATH0, and at SPATH1 levels C_SPATH1: equal zero-length paths,
    /// and one-length paths both empty or sharing an element.
    fn c_spath(a: &SPath, b: &SPath, level: Level) -> bool {
        a.zero == b.zero
            && (!level.use_spath1()
                || (a.one.is_empty() && b.one.is_empty())
                || a.one.iter().any(|x| b.one.binary_search(x).is_ok()))
    }

    pub fn compatible(g1: &Rsg, g2: &Rsg, level: Level) -> bool {
        let dom1: Vec<PvarId> = g1.pl_iter().map(|(p, _)| p).collect();
        let dom2: Vec<PvarId> = g2.pl_iter().map(|(p, _)| p).collect();
        if dom1 != dom2 || g1.scalars() != g2.scalars() {
            return false;
        }
        if alias_classes(g1) != alias_classes(g2) {
            return false;
        }
        let sp1 = spath::spaths(g1);
        let sp2 = spath::spaths(g2);
        g1.pl_iter().all(|(p, n1)| {
            let n2 = g2.pl(p).unwrap();
            c_nodes(
                g1,
                n1,
                g2,
                n2,
                &sp1[n1.0 as usize],
                &sp2[n2.0 as usize],
                level,
            )
        })
    }

    fn merge_nodes(g: &Rsg, aid: NodeId, bid: NodeId, summary: bool) -> Node {
        let (a, b) = (g.node(aid), g.node(bid));
        let selin = a.selin.inter(b.selin);
        let selout = a.selout.inter(b.selout);
        let mut pairs = Vec::new();
        for (s1, s2) in a.cyclelinks.iter() {
            if b.cyclelinks.contains(s1, s2) || g.succs(bid, s1).is_empty() {
                pairs.push((s1, s2));
            }
        }
        for (s1, s2) in b.cyclelinks.iter() {
            if !a.cyclelinks.contains(s1, s2) && g.succs(aid, s1).is_empty() {
                pairs.push((s1, s2));
            }
        }
        Node {
            ty: a.ty,
            shared: a.shared || b.shared,
            shsel: a.shsel.union(b.shsel),
            selin,
            selout,
            pos_selin: a
                .selin
                .union(b.selin)
                .union(a.pos_selin)
                .union(b.pos_selin)
                .diff(selin),
            pos_selout: a
                .selout
                .union(b.selout)
                .union(a.pos_selout)
                .union(b.pos_selout)
                .diff(selout),
            cyclelinks: CycleSet::from_pairs(pairs),
            touch: a.touch.clone(),
            summary,
        }
    }

    pub fn join(g1: &Rsg, g2: &Rsg, level: Level) -> Rsg {
        // 1. Disjoint union.
        let mut combined = Rsg::empty(g1.num_pvar_slots());
        let map = |g: &Rsg, out: &mut Rsg| -> Vec<Option<NodeId>> {
            let mut m: Vec<Option<NodeId>> = vec![None; g.num_slots()];
            for id in g.node_ids() {
                m[id.0 as usize] = Some(out.add_node(g.node(id).to_node()));
            }
            m
        };
        let m1 = map(g1, &mut combined);
        let m2 = map(g2, &mut combined);
        for (a, s, b) in g1.links() {
            combined.add_link(m1[a.0 as usize].unwrap(), s, m1[b.0 as usize].unwrap());
        }
        for (a, s, b) in g2.links() {
            combined.add_link(m2[a.0 as usize].unwrap(), s, m2[b.0 as usize].unwrap());
        }

        // 2. Union same-pvar targets, then greedy C_NODES pairs.
        let total = combined.num_slots();
        let mut uf: Vec<usize> = (0..total).collect();
        fn find(uf: &mut [usize], mut x: usize) -> usize {
            while uf[x] != x {
                uf[x] = uf[uf[x]];
                x = uf[x];
            }
            x
        }
        let union = |uf: &mut Vec<usize>, a: NodeId, b: NodeId| {
            let ra = find(uf, a.0 as usize);
            let rb = find(uf, b.0 as usize);
            if ra != rb {
                uf[ra.max(rb)] = ra.min(rb);
            }
        };
        for (p, n1) in g1.pl_iter() {
            if let Some(n2) = g2.pl(p) {
                union(
                    &mut uf,
                    m1[n1.0 as usize].unwrap(),
                    m2[n2.0 as usize].unwrap(),
                );
            }
        }
        let sp1 = spath::spaths(g1);
        let sp2 = spath::spaths(g2);
        let mut group_size = vec![0usize; total];
        for i in 0..total {
            let r = find(&mut uf, i);
            group_size[r] += 1;
        }
        let ungrouped = |uf: &mut Vec<usize>, id: NodeId| group_size[find(uf, id.0 as usize)] == 1;
        let mut matched2 = vec![false; g2.num_slots()];
        for n1 in g1.node_ids() {
            let c1 = m1[n1.0 as usize].unwrap();
            if !ungrouped(&mut uf, c1) {
                continue;
            }
            for n2 in g2.node_ids() {
                let c2 = m2[n2.0 as usize].unwrap();
                if matched2[n2.0 as usize] || !ungrouped(&mut uf, c2) {
                    continue;
                }
                let (a, b) = (&sp1[n1.0 as usize], &sp2[n2.0 as usize]);
                if c_nodes(g1, n1, g2, n2, a, b, level) {
                    union(&mut uf, c1, c2);
                    matched2[n2.0 as usize] = true;
                    break;
                }
            }
        }

        // 3. One output node per group, folding MERGE_NODES in place.
        let mut groups: BTreeMap<usize, Vec<NodeId>> = BTreeMap::new();
        for id in combined.node_ids().collect::<Vec<_>>() {
            let r = find(&mut uf, id.0 as usize);
            groups.entry(r).or_default().push(id);
        }
        let mut out = Rsg::empty(g1.num_pvar_slots());
        let mut final_map: Vec<Option<NodeId>> = vec![None; total];
        for members in groups.values() {
            let acc = members[0];
            for &m in &members[1..] {
                let summary = combined.node(acc).summary || combined.node(m).summary;
                let merged = merge_nodes(&combined, acc, m, summary);
                combined.node_mut(acc).assign(merged);
            }
            let new_id = out.add_node(combined.node(acc).to_node());
            for &m in members {
                final_map[m.0 as usize] = Some(new_id);
            }
        }
        for (a, s, b) in combined.links() {
            out.add_link(
                final_map[a.0 as usize].unwrap(),
                s,
                final_map[b.0 as usize].unwrap(),
            );
        }
        for (p, n1) in g1.pl_iter() {
            let c = m1[n1.0 as usize].unwrap();
            out.set_pl(p, final_map[c.0 as usize].unwrap());
        }
        for (v, k) in g1.scalars() {
            if g2.scalars().get(*v) == Some(*k) {
                out.set_scalar(*v, *k);
            }
        }
        out.gc();
        out
    }

    fn merge_group(g: &Rsg, group: &[NodeId]) -> Node {
        let mut acc = merge_nodes(g, group[0], group[1], true);
        for &nid in &group[2..] {
            let n = g.node(nid);
            let selin = acc.selin.inter(n.selin);
            let selout = acc.selout.inter(n.selout);
            let pos_selin = acc
                .selin
                .union(n.selin)
                .union(acc.pos_selin)
                .union(n.pos_selin)
                .diff(selin);
            let pos_selout = acc
                .selout
                .union(n.selout)
                .union(acc.pos_selout)
                .union(n.pos_selout)
                .diff(selout);
            let pairs: Vec<_> = acc
                .cyclelinks
                .iter()
                .filter(|&(s1, s2)| n.cyclelinks.contains(s1, s2) || g.succs(nid, s1).is_empty())
                .collect();
            acc = Node {
                selin,
                selout,
                pos_selin,
                pos_selout,
                cyclelinks: CycleSet::from_pairs(pairs),
                summary: true,
                ..acc
            };
        }
        acc
    }

    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    struct GroupKey {
        ty: u32,
        structure: u32,
        shared: bool,
        shsel: u64,
        touch: Vec<u32>,
        zero_spath: Vec<u32>,
    }

    struct GroupView {
        members: Vec<NodeId>,
        selin: SelSet,
        selout: SelSet,
        may_in: SelSet,
        may_out: SelSet,
        one: Vec<(PvarId, psa_cfront::types::SelectorId)>,
        one_empty_ok: bool,
    }

    fn compress_once(g: &Rsg, level: Level) -> (Rsg, bool) {
        let labels = g.structure_labels();
        let sps = spath::spaths(g);
        let mut parts: BTreeMap<GroupKey, Vec<NodeId>> = BTreeMap::new();
        for id in g.node_ids() {
            let n = g.node(id);
            let key = GroupKey {
                ty: n.ty.0,
                structure: labels[id.0 as usize],
                shared: n.shared,
                shsel: n.shsel.0,
                touch: n.touch.iter().map(|p| p.0).collect(),
                zero_spath: sps[id.0 as usize].zero.iter().map(|p| p.0).collect(),
            };
            parts.entry(key).or_default().push(id);
        }
        let mut groups: Vec<Vec<NodeId>> = Vec::new();
        for (_, members) in parts {
            let mut sub: Vec<GroupView> = Vec::new();
            'member: for id in members {
                let n = g.node(id);
                let sp = &sps[id.0 as usize];
                for view in sub.iter_mut() {
                    let refpat_ok = view.selin.diff(n.may_selin()).is_empty()
                        && n.selin.diff(view.may_in).is_empty()
                        && view.selout.diff(n.may_selout()).is_empty()
                        && n.selout.diff(view.may_out).is_empty();
                    let spath_ok = !level.use_spath1()
                        || (sp.one.is_empty() && view.one_empty_ok)
                        || sp.one.iter().any(|x| view.one.contains(x));
                    if refpat_ok && spath_ok {
                        view.members.push(id);
                        view.selin = view.selin.inter(n.selin);
                        view.selout = view.selout.inter(n.selout);
                        view.may_in = view.may_in.union(n.may_selin());
                        view.may_out = view.may_out.union(n.may_selout());
                        view.one_empty_ok &= sp.one.is_empty();
                        for x in &sp.one {
                            if !view.one.contains(x) {
                                view.one.push(*x);
                            }
                        }
                        continue 'member;
                    }
                }
                sub.push(GroupView {
                    members: vec![id],
                    selin: n.selin,
                    selout: n.selout,
                    may_in: n.may_selin(),
                    may_out: n.may_selout(),
                    one: sp.one.clone(),
                    one_empty_ok: sp.one.is_empty(),
                });
            }
            groups.extend(sub.into_iter().map(|v| v.members));
        }
        if groups.iter().all(|grp| grp.len() < 2) {
            return (g.clone(), false);
        }
        let mut map: Vec<Option<NodeId>> = vec![None; g.num_slots()];
        let mut out = Rsg::empty(g.num_pvar_slots());
        for grp in &groups {
            let node = if grp.len() == 1 {
                g.node(grp[0]).to_node()
            } else {
                merge_group(g, grp)
            };
            let new_id = out.add_node(node);
            for &old in grp {
                map[old.0 as usize] = Some(new_id);
            }
        }
        for (p, n) in g.pl_iter() {
            out.set_pl(p, map[n.0 as usize].unwrap());
        }
        for (a, sel, b) in g.links() {
            out.add_link(map[a.0 as usize].unwrap(), sel, map[b.0 as usize].unwrap());
        }
        (out, true)
    }

    pub fn compress(g: &Rsg, level: Level) -> Rsg {
        let mut cur = g.clone();
        cur.gc();
        loop {
            let (next, merged) = compress_once(&cur, level);
            if !merged {
                return next;
            }
            cur = next;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compatible_matches_whole_graph_reference(
        a in arb_rsg(),
        b in arb_rsg(),
        alias in any::<u8>(),
        muts in mutations(),
        rebind in any::<u8>(),
        renumber in any::<bool>(),
    ) {
        // Independent pairs mostly fail the domain check; a mutated copy
        // keeps the PL and reaches C_NODES' reference-pattern and SPATH
        // parts, and rebinding pvar 2 in the copy splits or moves an alias
        // class while keeping the domain.
        let a = bind_alias(a, alias);
        let b = bind_alias(b, alias);
        let copy = mutate(if renumber { renumbered(&a) } else { a.clone() }, &muts);
        let moved = bind_alias(copy.clone(), rebind);
        for level in Level::ALL {
            for (x, y) in [(&a, &b), (&a, &copy), (&copy, &a), (&a, &moved)] {
                prop_assert_eq!(
                    compatible(x, y, level),
                    reference::compatible(x, y, level),
                    "COMPATIBLE must match the whole-graph reference at {}", level
                );
            }
        }
    }

    #[test]
    fn compress_matches_btreemap_reference(g in arb_rsg(), muts in mutations(), alias in any::<u8>()) {
        // `Rsg: PartialEq` compares every column slot by slot, so this
        // pins the output node order as well as the merges.
        let ctx = ShapeCtx::synthetic(3, 2);
        for g in [mutate(g.clone(), &muts), bind_alias(mutate(g, &muts), alias)] {
            for level in Level::ALL {
                prop_assert_eq!(
                    compress(g.clone(), &ctx, level),
                    reference::compress(&g, level),
                    "COMPRESS must match the BTreeMap reference at {}", level
                );
            }
        }
    }

    #[test]
    fn join_matches_union_find_reference(
        a in arb_rsg(),
        b in arb_rsg(),
        alias in any::<u8>(),
        muts in mutations(),
        renumber in any::<bool>(),
    ) {
        // JOIN's inputs are COMPATIBLE pairs (the reduction loop) or pairs
        // with equal pinning signatures (the widening's forced JOIN). A
        // mutated copy keeps the PL, so it reaches both kinds and the
        // greedy pass; `Rsg: PartialEq` pins the output node order.
        let a = bind_alias(a, alias);
        let b = bind_alias(b, alias);
        let copy = mutate(if renumber { renumbered(&a) } else { a.clone() }, &muts);
        for level in Level::ALL {
            for (x, y) in [(&a, &b), (&a, &copy), (&copy, &a)] {
                if compatible(x, y, level) || PinSignature::of(x).bytes == PinSignature::of(y).bytes {
                    prop_assert_eq!(
                        join(x, y, level),
                        reference::join(x, y, level),
                        "JOIN must match the union-find reference at {}", level
                    );
                }
            }
        }
    }
}
