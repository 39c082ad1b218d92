//! The coverage (embedding) check: does an RSG admit a property-respecting
//! homomorphism from a concrete state?
//!
//! The check is a *violation detector*: it may accept over-coarse matches
//! (arc-consistency instead of a full homomorphism search), but whenever it
//! rejects, no embedding exists — a genuine soundness violation. Rules:
//!
//! * pvar NULL-ness must agree; pvar-pointed locations map to `pl(p)`;
//! * a location can map to a node only with equal TYPE, satisfied must
//!   sets, allowed may sets, satisfied sharing bounds, satisfied cycle
//!   pairs, and (at L3) equal TOUCH;
//! * arc-consistency over NL in both directions;
//! * a *singular* node can be forced by at most one location.

use crate::heap::{ConcreteState, Loc};
use psa_cfront::types::SelectorId;
use psa_rsg::{Level, NodeId, Rsg};
use std::collections::BTreeMap;

/// Does `g` cover `state`?
pub fn covers(g: &Rsg, state: &ConcreteState, level: Level) -> bool {
    violation(g, state, level).is_none()
}

/// Like [`covers`], returning a human-readable reason on failure.
pub fn violation(g: &Rsg, state: &ConcreteState, level: Level) -> Option<String> {
    let reachable = state.reachable();

    // Known scalar facts must hold in the concrete environment. (A fact on
    // a variable the run never touched cannot arise: the analysis only
    // learns facts from statements and branches the execution also passed.)
    for (v, k) in g.scalars() {
        if let Some(actual) = state.ints.get(&psa_ir::ScalarId(*v)) {
            if actual != k {
                return Some(format!(
                    "scalar sc{v} is {actual} concretely but {k} abstractly"
                ));
            }
        }
    }

    // Pvar domains must agree.
    for p in 0..g.num_pvar_slots() {
        let p = psa_ir::PvarId(p as u32);
        match (state.pvar(p), g.pl(p)) {
            (Some(_), None) => {
                return Some(format!("pvar {} bound concretely but NULL abstractly", p.0));
            }
            (None, Some(_)) => {
                return Some(format!("pvar {} NULL concretely but bound abstractly", p.0));
            }
            _ => {}
        }
    }

    // Initial candidates by node-local properties.
    let mut cand: BTreeMap<Loc, Vec<NodeId>> = BTreeMap::new();
    for &l in &reachable {
        let mut cs: Vec<NodeId> = g
            .node_ids()
            .filter(|&n| node_admits(g, n, state, l, &reachable, level))
            .collect();
        // Pvar-pointed locations are pinned.
        for (p, pl_loc) in state.pvars() {
            if pl_loc == l {
                let target = g.pl(p).expect("domain checked");
                cs.retain(|&n| n == target);
            }
        }
        if cs.is_empty() {
            return Some(format!(
                "location {l} admits no abstract node (type/properties/pvar pinning)"
            ));
        }
        cand.insert(l, cs);
    }

    // Arc consistency over links, both directions.
    loop {
        let mut changed = false;
        for &l in &reachable {
            let obj = state.object(l);
            let mut cs = cand[&l].clone();
            cs.retain(|&n| {
                // Every populated field must be simulated by a link into a
                // candidate of the target.
                for (&sel, &v) in &obj.fields {
                    if let Some(t) = v {
                        let ok = g.succs(n, sel).into_iter().any(|n2| cand[&t].contains(&n2));
                        if !ok {
                            return false;
                        }
                    }
                }
                // Every reachable in-reference must be simulated.
                for (src, sel) in state.in_refs(l, &reachable) {
                    let ok = g
                        .preds(n, sel)
                        .into_iter()
                        .any(|n1| cand[&src].contains(&n1));
                    if !ok {
                        return false;
                    }
                }
                true
            });
            if cs.is_empty() {
                return Some(format!(
                    "location {l}: candidates emptied by link structure"
                ));
            }
            if cs.len() != cand[&l].len() {
                cand.insert(l, cs);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Singularity: a singular node can be forced by at most one location.
    let mut forced: BTreeMap<NodeId, usize> = BTreeMap::new();
    for cs in cand.values() {
        if cs.len() == 1 {
            *forced.entry(cs[0]).or_default() += 1;
        }
    }
    for (n, count) in forced {
        if count > 1 && !g.node(n).summary {
            return Some(format!(
                "singular node {n} is forced to represent {count} locations"
            ));
        }
    }
    None
}

/// Node-local admissibility of mapping `l` to `n`.
fn node_admits(
    g: &Rsg,
    n: NodeId,
    state: &ConcreteState,
    l: Loc,
    reachable: &[Loc],
    level: Level,
) -> bool {
    let node = g.node(n);
    let obj = state.object(l);
    if node.ty != obj.ty {
        return false;
    }
    // Populated fields vs out patterns.
    let mut out_sels: Vec<SelectorId> = Vec::new();
    for (&sel, &v) in &obj.fields {
        if v.is_some() {
            out_sels.push(sel);
            if !node.may_selout().contains(sel) {
                return false;
            }
        }
    }
    for sel in node.selout.iter() {
        if !out_sels.contains(&sel) {
            return false; // must-out unsatisfied
        }
    }
    // In references vs in patterns and sharing.
    let in_refs = state.in_refs(l, reachable);
    let mut per_sel: BTreeMap<SelectorId, usize> = BTreeMap::new();
    for &(_, s) in &in_refs {
        *per_sel.entry(s).or_default() += 1;
        if !node.may_selin().contains(s) {
            return false;
        }
    }
    for sel in node.selin.iter() {
        if !per_sel.contains_key(&sel) {
            return false; // must-in unsatisfied
        }
    }
    if !node.shared && in_refs.len() >= 2 {
        return false;
    }
    for (&s, &count) in &per_sel {
        if !node.shsel.contains(s) && count >= 2 {
            return false;
        }
    }
    // Cycle pairs must hold concretely.
    for (s1, s2) in node.cyclelinks.iter() {
        if let Some(mid) = state.load(l, s1) {
            if state.load(mid, s2) != Some(l) {
                return false;
            }
        }
    }
    // TOUCH (exactness matters only when the level tracks it).
    if level.use_touch() {
        let empty = Vec::new();
        let marks = state.touch.get(&l).unwrap_or(&empty);
        let node_touch: Vec<psa_ir::PvarId> = node.touch.iter().collect();
        if &node_touch != marks {
            return false;
        }
    }
    true
}

/// Does any member of `graphs` cover `state`?
pub fn any_covers<'a>(
    graphs: impl IntoIterator<Item = &'a Rsg>,
    state: &ConcreteState,
    level: Level,
) -> bool {
    graphs.into_iter().any(|g| covers(g, state, level))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alpha::alpha;
    use psa_cfront::types::StructId;
    use psa_ir::PvarId;
    use psa_rsg::builder;
    use psa_rsg::compress::compress;
    use psa_rsg::ShapeCtx;

    fn sel(i: u32) -> SelectorId {
        SelectorId(i)
    }

    fn concrete_list(n: usize) -> ConcreteState {
        let mut st = ConcreteState::new();
        let locs: Vec<Loc> = (0..n).map(|_| st.alloc(StructId(0))).collect();
        for w in locs.windows(2) {
            st.store(w[0], sel(0), Some(w[1]));
        }
        st.set_pvar(PvarId(0), Some(locs[0]));
        st
    }

    #[test]
    fn alpha_covers_itself() {
        let st = concrete_list(4);
        let (g, _) = alpha(&st, 1);
        assert!(covers(&g, &st, Level::L1));
    }

    #[test]
    fn compressed_abstraction_covers_concrete() {
        // The 3-node compressed list shape covers concrete lists of many
        // lengths.
        let ctx = ShapeCtx::synthetic(1, 1);
        let summary = compress(
            builder::singly_linked_list(5, 1, PvarId(0), sel(0)),
            &ctx,
            Level::L1,
        );
        for n in [3, 4, 5, 8, 20] {
            let st = concrete_list(n);
            assert!(
                covers(&summary, &st, Level::L1),
                "length {n} must be covered"
            );
        }
    }

    #[test]
    fn wrong_nullness_rejected() {
        let st = concrete_list(3);
        let g = Rsg::empty(1); // claims p0 == NULL
        assert!(violation(&g, &st, Level::L1).is_some());
    }

    #[test]
    fn too_small_shape_rejected() {
        // A 2-node abstraction with singular nodes cannot cover a 3-list.
        let g2 = builder::singly_linked_list(2, 1, PvarId(0), sel(0));
        let st = concrete_list(3);
        let v = violation(&g2, &st, Level::L1);
        assert!(v.is_some(), "2 singular nodes cannot embed 3 locations");
    }

    #[test]
    fn sharing_bound_rejects() {
        // Concrete: two refs into hub; abstract claims unshared.
        let mut st = ConcreteState::new();
        let a = st.alloc(StructId(0));
        let b = st.alloc(StructId(0));
        let hub = st.alloc(StructId(0));
        st.store(a, sel(0), Some(hub));
        st.store(b, sel(0), Some(hub));
        st.set_pvar(PvarId(0), Some(a));
        st.set_pvar(PvarId(1), Some(b));
        let (mut g, map) = alpha(&st, 2);
        // Tamper: claim the hub unshared.
        let nh = map[&hub];
        *g.node_mut(nh).shared = false;
        assert!(violation(&g, &st, Level::L1).is_some());
    }

    #[test]
    fn cyclelink_mismatch_rejects() {
        let st = concrete_list(3);
        let (mut g, _) = alpha(&st, 1);
        // Tamper: claim <s0,s0> cycles on the head node.
        let head = g.pl(PvarId(0)).unwrap();
        g.node_mut(head).cyclelinks.insert(sel(0), sel(0));
        assert!(violation(&g, &st, Level::L1).is_some());
    }

    #[test]
    fn touch_mismatch_rejects_only_at_l3() {
        let mut st = concrete_list(3);
        let l1 = st.reachable()[1];
        st.touch(l1, PvarId(0));
        let (g, _) = alpha(&st, 1);
        // Remove the touch mark from the abstract node.
        let mut g2 = g.clone();
        for n in g2.node_ids().collect::<Vec<_>>() {
            *g2.node_mut(n).touch = psa_rsg::TouchSet::new();
        }
        assert!(covers(&g2, &st, Level::L1), "L1 ignores TOUCH");
        assert!(!covers(&g2, &st, Level::L3), "L3 compares TOUCH");
    }

    #[test]
    fn any_covers_over_set() {
        let st = concrete_list(3);
        let (good, _) = alpha(&st, 1);
        let bad = Rsg::empty(1);
        assert!(any_covers([&bad, &good], &st, Level::L1));
        assert!(!any_covers([&bad], &st, Level::L1));
    }
}
