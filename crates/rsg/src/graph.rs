//! The RSG graph: nodes, pvar references (PL) and selector links (NL).
//!
//! NL links are stored as *per-node indexed adjacency*: every node slot
//! carries a sorted out-link list (`(sel, target)` order) and a sorted
//! in-link list (`(source, sel)` order), kept mirror-consistent by
//! [`Rsg::add_link`] / [`Rsg::remove_link`]. The accessors
//! ([`Rsg::succs`], [`Rsg::preds`], [`Rsg::out_links`], [`Rsg::in_links`])
//! borrow directly from those lists in O(degree), so the kernels that
//! dominate the fixpoint (COMPRESS, PRUNE, DIVIDE, JOIN, subsumption) never
//! pay an O(total-links) scan or allocate a `Vec` just to look at a
//! neighborhood. Kernels that genuinely need owned collections draw reusable
//! buffers from [`crate::scratch`].

use crate::ctx::ShapeCtx;
use crate::node::{Node, NodeId, NodeMut, NodeRef};
use crate::sets::{CycleSet, SelSet, TouchSet};
use psa_cfront::types::{SelectorId, StructId};
use psa_ir::PvarId;

/// Known constant values of tracked scalar (flag) variables, stored as an
/// inline sorted vec — the environment almost always holds 0–3 entries and
/// is cloned on every graph copy, so a `BTreeMap`'s pointer-chased tree
/// nodes cost more than they organize (ISSUE 7 satellite).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScalarMap(Vec<(u32, i64)>);

impl ScalarMap {
    /// The empty environment.
    pub fn new() -> ScalarMap {
        ScalarMap(Vec::new())
    }

    /// The known constant of scalar `v`, if any.
    pub fn get(&self, v: u32) -> Option<i64> {
        self.0
            .binary_search_by_key(&v, |&(k, _)| k)
            .ok()
            .map(|i| self.0[i].1)
    }

    /// Record `v ↦ k`, replacing any previous fact.
    pub fn insert(&mut self, v: u32, k: i64) {
        match self.0.binary_search_by_key(&v, |&(k, _)| k) {
            Ok(i) => self.0[i].1 = k,
            Err(i) => self.0.insert(i, (v, k)),
        }
    }

    /// Forget scalar `v`.
    pub fn remove(&mut self, v: u32) {
        if let Ok(i) = self.0.binary_search_by_key(&v, |&(k, _)| k) {
            self.0.remove(i);
        }
    }

    /// Iterate `(&var, &value)` in ascending variable order (the same shape
    /// the previous `BTreeMap` iteration produced, so canonical encodings
    /// are unchanged).
    pub fn iter(&self) -> impl Iterator<Item = (&u32, &i64)> + '_ {
        self.0.iter().map(|kv| (&kv.0, &kv.1))
    }

    /// Number of known facts.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when nothing is known.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Keep only facts present and equal in both environments.
    pub fn intersect(&mut self, other: &ScalarMap) {
        self.0.retain(|&(k, v)| other.get(k) == Some(v));
    }
}

impl<'a> IntoIterator for &'a ScalarMap {
    type Item = (&'a u32, &'a i64);
    type IntoIter =
        std::iter::Map<std::slice::Iter<'a, (u32, i64)>, fn(&(u32, i64)) -> (&u32, &i64)>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter().map(|kv| (&kv.0, &kv.1))
    }
}

/// Per-node adjacency mirrors. `out` is sorted by `(sel, target)`, `inn` by
/// `(source, sel)`; each NL link `<a, s, b>` appears exactly once in
/// `adj[a].out` and once in `adj[b].inn` (twice in the same slot for
/// self-links).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Adj {
    out: Vec<(SelectorId, NodeId)>,
    inn: Vec<(NodeId, SelectorId)>,
}

/// A borrowed view of the `sel`-successors of a node: a contiguous,
/// ascending sub-slice of its out-link list. `Copy`, so it can be passed
/// around freely; dereference into node ids via [`Succs::iter`],
/// indexing, or the `Option` helpers.
#[derive(Clone, Copy)]
pub struct Succs<'a>(&'a [(SelectorId, NodeId)]);

impl<'a> Succs<'a> {
    /// Number of successors.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when there is no successor.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The smallest successor, if any.
    pub fn first(&self) -> Option<NodeId> {
        self.0.first().map(|&(_, b)| b)
    }

    /// The successor, if there is *exactly one*.
    pub fn unique(&self) -> Option<NodeId> {
        match self.0 {
            [(_, b)] => Some(*b),
            _ => None,
        }
    }

    /// Is `n` among the successors?
    pub fn contains(&self, n: NodeId) -> bool {
        self.0.iter().any(|&(_, b)| b == n)
    }

    /// Iterate the successor ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.0.iter().map(|&(_, b)| b)
    }

    /// Owned copy of the successor ids.
    pub fn to_vec(&self) -> Vec<NodeId> {
        self.iter().collect()
    }
}

impl std::ops::Index<usize> for Succs<'_> {
    type Output = NodeId;
    fn index(&self, i: usize) -> &NodeId {
        &self.0[i].1
    }
}

impl<'a> IntoIterator for Succs<'a> {
    type Item = NodeId;
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, (SelectorId, NodeId)>,
        fn(&(SelectorId, NodeId)) -> NodeId,
    >;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter().map(|&(_, b)| b)
    }
}

impl std::fmt::Debug for Succs<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq<Vec<NodeId>> for Succs<'_> {
    fn eq(&self, other: &Vec<NodeId>) -> bool {
        self.iter().eq(other.iter().copied())
    }
}

impl PartialEq<Succs<'_>> for Vec<NodeId> {
    fn eq(&self, other: &Succs<'_>) -> bool {
        other == self
    }
}

impl PartialEq for Succs<'_> {
    fn eq(&self, other: &Succs<'_>) -> bool {
        self.0 == other.0
    }
}

/// A borrowed view of the `sel`-predecessors of a node: a filter over its
/// in-link list (sorted by source, so ids come out ascending).
#[derive(Clone, Copy)]
pub struct Preds<'a> {
    inn: &'a [(NodeId, SelectorId)],
    sel: SelectorId,
}

/// Iterator over [`Preds`].
pub struct PredsIter<'a> {
    inner: std::slice::Iter<'a, (NodeId, SelectorId)>,
    sel: SelectorId,
}

impl Iterator for PredsIter<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        for &(a, s) in self.inner.by_ref() {
            if s == self.sel {
                return Some(a);
            }
        }
        None
    }
}

impl<'a> Preds<'a> {
    /// Iterate the predecessor ids in ascending order.
    pub fn iter(&self) -> PredsIter<'a> {
        PredsIter {
            inner: self.inn.iter(),
            sel: self.sel,
        }
    }

    /// True when there is no predecessor through the selector.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    /// Number of predecessors.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// The smallest predecessor, if any.
    pub fn first(&self) -> Option<NodeId> {
        self.iter().next()
    }

    /// Is `n` among the predecessors?
    pub fn contains(&self, n: NodeId) -> bool {
        self.iter().any(|a| a == n)
    }

    /// Owned copy of the predecessor ids.
    pub fn to_vec(&self) -> Vec<NodeId> {
        self.iter().collect()
    }
}

impl<'a> IntoIterator for Preds<'a> {
    type Item = NodeId;
    type IntoIter = PredsIter<'a>;
    fn into_iter(self) -> PredsIter<'a> {
        self.iter()
    }
}

impl std::fmt::Debug for Preds<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq<Vec<NodeId>> for Preds<'_> {
    fn eq(&self, other: &Vec<NodeId>) -> bool {
        self.iter().eq(other.iter().copied())
    }
}

impl PartialEq<Preds<'_>> for Vec<NodeId> {
    fn eq(&self, other: &Preds<'_>) -> bool {
        other == self
    }
}

/// A Reference Shape Graph.
///
/// Invariants maintained by the operations in this crate:
///
/// * *one PL target per pvar* — a single control path binds each pvar to
///   at most one location, so `pl[p]` is an `Option`;
/// * *pvar-pointed nodes are singular* — a pvar designates exactly one
///   location, and the SPATH property prevents its node from being merged
///   with any location not pointed to by the same pvar;
/// * NL links are *may* information; the node property must-sets
///   (`selin`/`selout`/`cyclelinks`) carry the *must* information that
///   pruning exploits;
/// * *adjacency mirrors* — `adj[a].out` and `adj[b].inn` record exactly
///   the same link set, each list sorted; `num_links` counts the links.
///   [`Rsg::check_invariants`] verifies the mirrors.
/// * *struct-of-arrays arena* — node properties live in parallel
///   columns indexed by `NodeId`; the `live` column marks occupancy and
///   `free` lists recyclable slots. Freed slots are reset to defaults so
///   equality and hashing never see stale residue, and they are handed out
///   again only after a whole-graph rebuild boundary ([`Rsg::clone`]),
///   never inside the operation that freed them.
#[derive(Debug)]
pub struct Rsg {
    // ----- node columns (struct-of-arrays; all indexed by NodeId) -----
    ty: Vec<StructId>,
    live: Vec<bool>,
    shared: Vec<bool>,
    summary: Vec<bool>,
    shsel: Vec<SelSet>,
    selin: Vec<SelSet>,
    selout: Vec<SelSet>,
    pos_selin: Vec<SelSet>,
    pos_selout: Vec<SelSet>,
    cyclelinks: Vec<CycleSet>,
    touch: Vec<TouchSet>,
    /// Live-node count (maintained incrementally).
    num_live: usize,
    /// Slots allocatable by [`Rsg::add_node`] (freed before the last
    /// rebuild boundary).
    free: Vec<u32>,
    /// Slots freed since the last rebuild boundary; promoted into `free`
    /// on [`Rsg::clone`] so ids held by a running kernel stay dead rather
    /// than silently aliasing a recycled slot.
    pending_free: Vec<u32>,
    // ----- references and links -----
    pl: Vec<Option<NodeId>>,
    adj: Vec<Adj>,
    num_links: usize,
    /// Known constant values of tracked scalar (flag) variables: an entry
    /// `v ↦ k` asserts that in *every* configuration this graph
    /// represents, scalar `v` holds `k`. Maintained by the engine from
    /// `ScalarConst`/`ScalarHavoc` statements and `ScalarEq` branch
    /// refinement; keeps flag-guarded loops (`done`-style) precise.
    scalars: ScalarMap,
}

impl Clone for Rsg {
    /// Cloning is the rebuild boundary: the copy's pending frees become
    /// allocatable, and the hot columns (`ty`, flags, the five `SelSet`
    /// bitsets) are plain `memcpy`s — only `cyclelinks`/`touch` entries
    /// that actually hold data cost per-element work.
    fn clone(&self) -> Rsg {
        let mut free = self.free.clone();
        free.extend_from_slice(&self.pending_free);
        Rsg {
            ty: self.ty.clone(),
            live: self.live.clone(),
            shared: self.shared.clone(),
            summary: self.summary.clone(),
            shsel: self.shsel.clone(),
            selin: self.selin.clone(),
            selout: self.selout.clone(),
            pos_selin: self.pos_selin.clone(),
            pos_selout: self.pos_selout.clone(),
            cyclelinks: self.cyclelinks.clone(),
            touch: self.touch.clone(),
            num_live: self.num_live,
            free,
            pending_free: Vec::new(),
            pl: self.pl.clone(),
            adj: self.adj.clone(),
            num_links: self.num_links,
            scalars: self.scalars.clone(),
        }
    }
}

impl PartialEq for Rsg {
    /// Equality ignores the free-list bookkeeping (which records removal
    /// *order*, not graph content) — matching the previous
    /// `Vec<Option<Node>>` semantics where any dead slot was simply `None`.
    /// Freed slots are reset to defaults, so comparing whole columns is
    /// residue-free.
    fn eq(&self, other: &Rsg) -> bool {
        self.live == other.live
            && self.ty == other.ty
            && self.shared == other.shared
            && self.summary == other.summary
            && self.shsel == other.shsel
            && self.selin == other.selin
            && self.selout == other.selout
            && self.pos_selin == other.pos_selin
            && self.pos_selout == other.pos_selout
            && self.cyclelinks == other.cyclelinks
            && self.touch == other.touch
            && self.pl == other.pl
            && self.adj == other.adj
            && self.num_links == other.num_links
            && self.scalars == other.scalars
    }
}

impl Eq for Rsg {}

impl Rsg {
    /// An empty graph over `num_pvars` pointer variables.
    pub fn empty(num_pvars: usize) -> Rsg {
        Rsg {
            ty: Vec::new(),
            live: Vec::new(),
            shared: Vec::new(),
            summary: Vec::new(),
            shsel: Vec::new(),
            selin: Vec::new(),
            selout: Vec::new(),
            pos_selin: Vec::new(),
            pos_selout: Vec::new(),
            cyclelinks: Vec::new(),
            touch: Vec::new(),
            num_live: 0,
            free: Vec::new(),
            pending_free: Vec::new(),
            pl: vec![None; num_pvars],
            adj: Vec::new(),
            num_links: 0,
            scalars: ScalarMap::new(),
        }
    }

    // ---------------------------------------------------------- scalars

    /// The known constant of tracked scalar `v`, if any.
    pub fn scalar(&self, v: u32) -> Option<i64> {
        self.scalars.get(v)
    }

    /// Record that scalar `v` holds `k` in every represented configuration.
    pub fn set_scalar(&mut self, v: u32, k: i64) {
        self.scalars.insert(v, k);
    }

    /// Forget scalar `v`'s value (havoc).
    pub fn clear_scalar(&mut self, v: u32) {
        self.scalars.remove(v);
    }

    /// The full known-scalar environment.
    pub fn scalars(&self) -> &ScalarMap {
        &self.scalars
    }

    /// Keep only the facts present and equal in both environments (the
    /// join of the flat constant lattice).
    pub fn intersect_scalars(&mut self, other: &Rsg) {
        self.scalars.intersect(&other.scalars);
    }

    // ------------------------------------------------------------- nodes

    /// Insert a node, returning its id — from the free list when a
    /// recyclable slot exists, otherwise by growing every column.
    pub fn add_node(&mut self, node: Node) -> NodeId {
        self.num_live += 1;
        if let Some(slot) = self.free.pop() {
            let i = slot as usize;
            self.ty[i] = node.ty;
            self.live[i] = true;
            self.shared[i] = node.shared;
            self.summary[i] = node.summary;
            self.shsel[i] = node.shsel;
            self.selin[i] = node.selin;
            self.selout[i] = node.selout;
            self.pos_selin[i] = node.pos_selin;
            self.pos_selout[i] = node.pos_selout;
            self.cyclelinks[i] = node.cyclelinks;
            self.touch[i] = node.touch;
            debug_assert!(self.adj[i].out.is_empty() && self.adj[i].inn.is_empty());
            return NodeId(slot);
        }
        let id = NodeId(self.ty.len() as u32);
        self.ty.push(node.ty);
        self.live.push(true);
        self.shared.push(node.shared);
        self.summary.push(node.summary);
        self.shsel.push(node.shsel);
        self.selin.push(node.selin);
        self.selout.push(node.selout);
        self.pos_selin.push(node.pos_selin);
        self.pos_selout.push(node.pos_selout);
        self.cyclelinks.push(node.cyclelinks);
        self.touch.push(node.touch);
        self.adj.push(Adj::default());
        id
    }

    /// Access a node as a borrowed column view.
    ///
    /// # Panics
    /// If the node was removed.
    pub fn node(&self, id: NodeId) -> NodeRef<'_> {
        let i = id.0 as usize;
        assert!(self.live[i], "dead node");
        NodeRef {
            ty: self.ty[i],
            shared: self.shared[i],
            summary: self.summary[i],
            shsel: self.shsel[i],
            selin: self.selin[i],
            selout: self.selout[i],
            pos_selin: self.pos_selin[i],
            pos_selout: self.pos_selout[i],
            cyclelinks: &self.cyclelinks[i],
            touch: &self.touch[i],
        }
    }

    /// Mutable column view of a node.
    pub fn node_mut(&mut self, id: NodeId) -> NodeMut<'_> {
        let i = id.0 as usize;
        assert!(self.live[i], "dead node");
        NodeMut {
            ty: &mut self.ty[i],
            shared: &mut self.shared[i],
            summary: &mut self.summary[i],
            shsel: &mut self.shsel[i],
            selin: &mut self.selin[i],
            selout: &mut self.selout[i],
            pos_selin: &mut self.pos_selin[i],
            pos_selout: &mut self.pos_selout[i],
            cyclelinks: &mut self.cyclelinks[i],
            touch: &mut self.touch[i],
        }
    }

    /// True if the id refers to a live node.
    pub fn is_live(&self, id: NodeId) -> bool {
        (id.0 as usize) < self.live.len() && self.live[id.0 as usize]
    }

    /// Reset a slot's columns to defaults and queue it for reuse after the
    /// next rebuild boundary. Clearing drops any `cyclelinks`/`touch`
    /// allocations and keeps dead slots equality- and residue-free.
    fn free_slot(&mut self, id: NodeId) {
        let i = id.0 as usize;
        self.ty[i] = StructId(0);
        self.live[i] = false;
        self.shared[i] = false;
        self.summary[i] = false;
        self.shsel[i] = SelSet::EMPTY;
        self.selin[i] = SelSet::EMPTY;
        self.selout[i] = SelSet::EMPTY;
        self.pos_selin[i] = SelSet::EMPTY;
        self.pos_selout[i] = SelSet::EMPTY;
        self.cyclelinks[i] = CycleSet::new();
        self.touch[i] = TouchSet::new();
        self.num_live -= 1;
        self.pending_free.push(id.0);
    }

    /// Remove a node together with its links and pvar references.
    pub fn remove_node(&mut self, id: NodeId) {
        let adj = std::mem::take(&mut self.adj[id.0 as usize]);
        // Every removed link appears in `out` except pure in-links from
        // other nodes; a self-link sits in both lists but is one link.
        self.num_links -= adj.out.len();
        for &(s, b) in &adj.out {
            if b != id {
                let inn = &mut self.adj[b.0 as usize].inn;
                if let Ok(pos) = inn.binary_search(&(id, s)) {
                    inn.remove(pos);
                }
            }
        }
        for &(a, s) in &adj.inn {
            if a != id {
                self.num_links -= 1;
                let out = &mut self.adj[a.0 as usize].out;
                if let Ok(pos) = out.binary_search(&(s, id)) {
                    out.remove(pos);
                }
            }
        }
        self.free_slot(id);
        for slot in self.pl.iter_mut() {
            if *slot == Some(id) {
                *slot = None;
            }
        }
    }

    /// Iterate live node ids in increasing order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.live
            .iter()
            .enumerate()
            .filter(|(_, l)| **l)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Number of live nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_live
    }

    /// Number of node slots (live or dead): `NodeId`s are always below
    /// this, so it sizes dense per-node scratch vectors (visited bitsets).
    pub fn num_slots(&self) -> usize {
        self.live.len()
    }

    // ------------------------------------------------------------- PL

    /// The node pointed to by `p`, if bound (absence encodes NULL).
    pub fn pl(&self, p: PvarId) -> Option<NodeId> {
        self.pl[p.0 as usize]
    }

    /// Bind `p` to `n`.
    pub fn set_pl(&mut self, p: PvarId, n: NodeId) {
        debug_assert!(self.is_live(n));
        self.pl[p.0 as usize] = Some(n);
    }

    /// Unbind `p` (NULL).
    pub fn clear_pl(&mut self, p: PvarId) {
        self.pl[p.0 as usize] = None;
    }

    /// Iterate `(pvar, node)` bindings.
    pub fn pl_iter(&self) -> impl Iterator<Item = (PvarId, NodeId)> + '_ {
        self.pl
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.map(|n| (PvarId(i as u32), n)))
    }

    /// Number of pvar slots (bound or not).
    pub fn num_pvar_slots(&self) -> usize {
        self.pl.len()
    }

    /// The pvars bound to node `n`, sorted.
    pub fn pvars_of(&self, n: NodeId) -> Vec<PvarId> {
        self.pl_iter()
            .filter(|&(_, m)| m == n)
            .map(|(p, _)| p)
            .collect()
    }

    // ------------------------------------------------------------- NL

    /// Add link `<a, sel, b>`; returns true if it was new.
    pub fn add_link(&mut self, a: NodeId, sel: SelectorId, b: NodeId) -> bool {
        debug_assert!(self.is_live(a) && self.is_live(b));
        let out = &mut self.adj[a.0 as usize].out;
        match out.binary_search(&(sel, b)) {
            Ok(_) => false,
            Err(pos) => {
                out.insert(pos, (sel, b));
                let inn = &mut self.adj[b.0 as usize].inn;
                let ipos = inn
                    .binary_search(&(a, sel))
                    .expect_err("out/in mirrors out of sync");
                inn.insert(ipos, (a, sel));
                self.num_links += 1;
                true
            }
        }
    }

    /// Remove link `<a, sel, b>`; returns true if it existed.
    pub fn remove_link(&mut self, a: NodeId, sel: SelectorId, b: NodeId) -> bool {
        let out = &mut self.adj[a.0 as usize].out;
        match out.binary_search(&(sel, b)) {
            Ok(pos) => {
                out.remove(pos);
                let inn = &mut self.adj[b.0 as usize].inn;
                let ipos = inn
                    .binary_search(&(a, sel))
                    .expect("out/in mirrors out of sync");
                inn.remove(ipos);
                self.num_links -= 1;
                true
            }
            Err(_) => false,
        }
    }

    /// Does link `<a, sel, b>` exist?
    pub fn has_link(&self, a: NodeId, sel: SelectorId, b: NodeId) -> bool {
        self.adj[a.0 as usize].out.binary_search(&(sel, b)).is_ok()
    }

    /// All links, sorted by `(source, sel, target)`.
    pub fn links(&self) -> impl Iterator<Item = (NodeId, SelectorId, NodeId)> + '_ {
        self.adj
            .iter()
            .enumerate()
            .flat_map(|(i, adj)| adj.out.iter().map(move |&(s, b)| (NodeId(i as u32), s, b)))
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.num_links
    }

    /// Targets of `a` through `sel`, ascending — a borrowed O(degree) view.
    pub fn succs(&self, a: NodeId, sel: SelectorId) -> Succs<'_> {
        let out = &self.adj[a.0 as usize].out;
        let lo = out.partition_point(|&(s, _)| s < sel);
        let hi = lo + out[lo..].partition_point(|&(s, _)| s == sel);
        Succs(&out[lo..hi])
    }

    /// All outgoing links of `a`, sorted by `(sel, target)` — a borrowed
    /// slice of the adjacency list.
    pub fn out_links(&self, a: NodeId) -> &[(SelectorId, NodeId)] {
        &self.adj[a.0 as usize].out
    }

    /// All incoming links of `b`, sorted by `(source, sel)` — a borrowed
    /// slice of the adjacency list.
    pub fn in_links(&self, b: NodeId) -> &[(NodeId, SelectorId)] {
        &self.adj[b.0 as usize].inn
    }

    /// Incoming links of `b` through `sel`, ascending — a borrowed
    /// O(in-degree) view.
    pub fn preds(&self, b: NodeId, sel: SelectorId) -> Preds<'_> {
        Preds {
            inn: &self.adj[b.0 as usize].inn,
            sel,
        }
    }

    /// Nodes *definitely present* in every configuration the graph
    /// represents. A node can be "empty" in some configurations — joined
    /// graphs keep alternative substructures side by side (Fig. 1(a):
    /// `n1-nxt->{n2,n3}`), and a node contributed by only one alternative
    /// represents no location in the others. Presence propagates from pvar
    /// targets (a bound pvar designates a real location) along definite
    /// links: a present *singular* node with a must-out selector and a
    /// unique successor definitely populates that link.
    pub fn present_nodes(&self) -> Vec<bool> {
        let mut present = vec![false; self.num_slots()];
        let mut stack: Vec<NodeId> = Vec::new();
        for (_, n) in self.pl_iter() {
            if !present[n.0 as usize] {
                present[n.0 as usize] = true;
                stack.push(n);
            }
        }
        while let Some(a) = stack.pop() {
            let na = self.node(a);
            if na.summary {
                continue; // cannot single out which location holds the link
            }
            for sel in na.selout.iter() {
                if let Some(b) = self.succs(a, sel).unique() {
                    if !present[b.0 as usize] {
                        present[b.0 as usize] = true;
                        stack.push(b);
                    }
                }
            }
        }
        present
    }

    /// A link `<a, sel, b>` is *definite* when it must exist in every
    /// represented configuration: `a` is definitely present and singular,
    /// `sel` is a must-out selector of `a`, and `b` is `a`'s only `sel`
    /// successor. Callers iterating many links should use
    /// [`Rsg::present_nodes`] once and
    /// [`Rsg::is_definite_link_with`] instead.
    pub fn is_definite_link(&self, a: NodeId, sel: SelectorId, b: NodeId) -> bool {
        self.is_definite_link_with(&self.present_nodes(), a, sel, b)
    }

    /// [`Rsg::is_definite_link`] with a precomputed presence vector.
    pub fn is_definite_link_with(
        &self,
        present: &[bool],
        a: NodeId,
        sel: SelectorId,
        b: NodeId,
    ) -> bool {
        let na = self.node(a);
        present[a.0 as usize]
            && !na.summary
            && na.selout.contains(sel)
            && self.succs(a, sel).unique() == Some(b)
    }

    // ------------------------------------------------------- maintenance

    /// Remove nodes unreachable from every pvar (garbage). Returns the
    /// number of nodes dropped.
    ///
    /// Garbage may still hold links *into* surviving nodes (a detached
    /// list element keeps its `prv` back-pointer). The analysis models the
    /// reachable sub-heap — garbage can never be named again, so dropping it
    /// is sound — but survivors' must-in selectors whose only witnesses came
    /// from garbage are weakened to *possible*, otherwise `N_PRUNE` would
    /// wrongly declare the graph contradictory. (The reverse direction needs
    /// no care: a survivor linking *to* a node makes that node reachable, so
    /// survivor→garbage links cannot exist.)
    pub fn gc(&mut self) -> usize {
        let mut reachable = vec![false; self.num_slots()];
        let mut stack: Vec<NodeId> = self.pl.iter().flatten().copied().collect();
        for &n in &stack {
            reachable[n.0 as usize] = true;
        }
        while let Some(n) = stack.pop() {
            for &(_, b) in self.out_links(n) {
                if !reachable[b.0 as usize] {
                    reachable[b.0 as usize] = true;
                    stack.push(b);
                }
            }
        }
        let dead: Vec<NodeId> = self
            .node_ids()
            .filter(|n| !reachable[n.0 as usize])
            .collect();
        if dead.is_empty() {
            return 0;
        }
        // Links from garbage into survivors: the survivors lose in-links
        // and may need their must-in claims weakened.
        let mut crossing: Vec<(SelectorId, NodeId)> = Vec::new();
        for &d in &dead {
            let adj = std::mem::take(&mut self.adj[d.0 as usize]);
            self.num_links -= adj.out.len();
            for &(s, b) in &adj.out {
                if reachable[b.0 as usize] {
                    crossing.push((s, b));
                    let inn = &mut self.adj[b.0 as usize].inn;
                    if let Ok(pos) = inn.binary_search(&(d, s)) {
                        inn.remove(pos);
                    }
                }
                // Garbage targets lose their whole adjacency anyway; and
                // survivor→garbage links cannot exist (see above), so no
                // out-list of a survivor needs cleaning.
            }
            self.free_slot(d);
        }
        if !crossing.is_empty() {
            // A surviving must-in claim needs a *definite* witness: remaining
            // may-links through the same selector can be alternatives from
            // other configurations — the dropped garbage link may have been
            // this configuration's only reference (found by the differential
            // harness on Barnes-Hut: popping the traversal stack).
            let present = self.present_nodes();
            for &(s, b) in &crossing {
                let witnessed = self
                    .preds(b, s)
                    .iter()
                    .any(|a| self.is_definite_link_with(&present, a, s, b));
                if !witnessed {
                    self.node_mut(b).weaken_in(s);
                }
            }
        }
        dead.len()
    }

    /// Import every live node and link of `other` into this graph, keeping
    /// all node properties. Returns the node map, indexed by `other`'s
    /// slot: `map[old.0] == Some(new)` for live nodes.
    ///
    /// Pvar bindings and scalar values are deliberately **not** imported —
    /// the caller decides which of `other`'s roots survive in the merged
    /// graph (the interprocedural glue binds return slots and anchored
    /// argument targets explicitly).
    pub fn absorb(&mut self, other: &Rsg) -> Vec<Option<NodeId>> {
        let mut map: Vec<Option<NodeId>> = vec![None; other.num_slots()];
        for id in other.node_ids() {
            let n = other.node(id);
            let node = Node {
                ty: n.ty,
                shared: n.shared,
                summary: n.summary,
                shsel: n.shsel,
                selin: n.selin,
                selout: n.selout,
                pos_selin: n.pos_selin,
                pos_selout: n.pos_selout,
                cyclelinks: n.cyclelinks.clone(),
                touch: n.touch.clone(),
            };
            map[id.0 as usize] = Some(self.add_node(node));
        }
        for (a, sel, b) in other.links() {
            let (Some(na), Some(nb)) = (map[a.0 as usize], map[b.0 as usize]) else {
                continue;
            };
            self.add_link(na, sel, nb);
        }
        map
    }

    /// STRUCTURE labels: the canonical label of each node's weakly-connected
    /// component, defined as the smallest pvar bound into the component.
    /// Call after [`Rsg::gc`] so every component has at least one pvar.
    /// Returns `u32::MAX` for nodes in components no pvar reaches (pending
    /// garbage).
    pub fn structure_labels(&self) -> Vec<u32> {
        let n = self.num_slots();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for (a, _, b) in self.links() {
            let ra = find(&mut parent, a.0 as usize);
            let rb = find(&mut parent, b.0 as usize);
            if ra != rb {
                parent[ra.max(rb)] = ra.min(rb);
            }
        }
        let mut label = vec![u32::MAX; n];
        for (p, nd) in self.pl_iter() {
            let r = find(&mut parent, nd.0 as usize);
            if p.0 < label[r] {
                label[r] = p.0;
            }
        }
        let mut out = vec![u32::MAX; n];
        for id in self.node_ids() {
            let r = find(&mut parent, id.0 as usize);
            out[id.0 as usize] = label[r];
        }
        out
    }

    /// Relax SHARED/SHSEL downward where provable (§4.2 relies on `false`
    /// sharing values for aggressive pruning):
    ///
    /// * a *singular* node with no incoming `sel` links, or exactly one
    ///   incoming `sel` link from a singular source, is not `sel`-shared;
    /// * a singular node whose total incoming concrete references are
    ///   provably ≤ 1 is not shared.
    ///
    /// Links from summary sources may stand for several concrete links, so
    /// they block the relaxation.
    pub fn relax_sharing(&mut self) {
        let ids: Vec<NodeId> = self.node_ids().collect();
        for id in ids {
            if self.node(id).summary {
                continue;
            }
            let mut new_shsel = self.node(id).shsel;
            let mut provable_total = 0usize; // ≥2 means "cannot relax shared"
            let mut unknown = false;
            // Consider every selector that is flagged shared or has in-links.
            let relevant: SelSet = self
                .in_links(id)
                .iter()
                .map(|&(_, s)| s)
                .collect::<SelSet>()
                .union(new_shsel);
            for sel in relevant.iter() {
                let mut sources = self.preds(id, sel).iter();
                match (sources.next(), sources.next()) {
                    (None, _) => {
                        new_shsel.remove(sel);
                    }
                    (Some(a), None) if !self.node(a).summary => {
                        new_shsel.remove(sel);
                        provable_total += 1;
                    }
                    _ => {
                        unknown = true;
                    }
                }
            }
            let node = self.node_mut(id);
            *node.shsel = new_shsel;
            if !unknown && provable_total <= 1 {
                *node.shared = false;
            }
        }
    }

    /// Weaken must-in selectors that lost every *definitely-present*
    /// witness: `selin(b) ∋ s` asserts that in every configuration some
    /// location references `b` through `s`, and that assertion outlives its
    /// witness when the referencing node becomes reachable only through
    /// may-links (e.g. the popped Barnes-Hut stack entry still chained
    /// through `sp->prev` alternatives). Demoting the claim to *possible*
    /// is always sound; called at the end of every statement transfer.
    ///
    /// A present predecessor holding a may-link still counts as a witness:
    /// such configurations arise from JOIN, which preserves the per-config
    /// truth of the merged must-ins.
    pub fn weaken_unwitnessed_ins(&mut self) {
        let present = self.present_nodes();
        let ids: Vec<NodeId> = self.node_ids().collect();
        for b in ids {
            let must_in = self.node(b).selin;
            for s in must_in.iter() {
                let witnessed = self.preds(b, s).iter().any(|a| present[a.0 as usize]);
                if !witnessed {
                    self.node_mut(b).weaken_in(s);
                }
            }
        }
    }

    /// Approximate structural size in bytes (nodes + links + PL), the unit
    /// of the Table 1 "Space" column.
    pub fn approx_bytes(&self) -> usize {
        let node_bytes: usize = self.node_ids().map(|n| self.node(n).approx_bytes()).sum();
        node_bytes
            + self.num_links * std::mem::size_of::<(NodeId, SelectorId, NodeId)>()
            + self.pl.len() * std::mem::size_of::<Option<NodeId>>()
            + self.scalars.len() * std::mem::size_of::<(u32, i64)>()
    }

    /// Debug invariant check: PL targets live and singular, link endpoints
    /// live, link selectors declared by the source node's type, adjacency
    /// mirrors sorted and consistent, link counter exact.
    pub fn check_invariants(&self, ctx: &ShapeCtx) -> Result<(), String> {
        for (p, n) in self.pl_iter() {
            if !self.is_live(n) {
                return Err(format!("pvar {} bound to dead node {}", p.0, n));
            }
            if self.node(n).summary {
                return Err(format!(
                    "pvar {} points at summary node {} (singularity invariant)",
                    p.0, n
                ));
            }
        }
        for (a, sel, b) in self.links() {
            if !self.is_live(a) || !self.is_live(b) {
                return Err(format!("dangling link <{a},{},{b}>", sel.0));
            }
            let ta = self.node(a).ty;
            if !ctx.struct_selectors(ta).contains(sel) {
                return Err(format!(
                    "link <{a},{},{b}>: struct {} does not declare the selector",
                    sel.0, ctx.struct_names[ta.0 as usize]
                ));
            }
            if let Some(target) = ctx.target_of(ta, sel) {
                if self.node(b).ty != target {
                    return Err(format!("link <{a},{},{b}>: target type mismatch", sel.0));
                }
            }
        }
        self.check_adjacency()
    }

    /// Verify the adjacency mirrors: both lists sorted and duplicate-free,
    /// every out entry mirrored by an in entry and vice versa, `num_links`
    /// equal to the total out-degree.
    pub fn check_adjacency(&self) -> Result<(), String> {
        if self.adj.len() != self.num_slots() {
            return Err("adjacency table length != node table length".into());
        }
        let mut total = 0usize;
        for (i, adj) in self.adj.iter().enumerate() {
            let id = NodeId(i as u32);
            if !self.live[i] && (!adj.out.is_empty() || !adj.inn.is_empty()) {
                return Err(format!("dead node {id} still has adjacency"));
            }
            if !adj.out.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("out-links of {id} not strictly sorted"));
            }
            if !adj.inn.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("in-links of {id} not strictly sorted"));
            }
            total += adj.out.len();
            for &(s, b) in &adj.out {
                if self.adj[b.0 as usize].inn.binary_search(&(id, s)).is_err() {
                    return Err(format!("link <{id},{},{b}> missing its in-mirror", s.0));
                }
            }
            for &(a, s) in &adj.inn {
                if self.adj[a.0 as usize].out.binary_search(&(s, id)).is_err() {
                    return Err(format!("in-link <{a},{},{id}> missing its out-mirror", s.0));
                }
            }
        }
        if total != self.num_links {
            return Err(format!(
                "num_links counter {} != actual link count {total}",
                self.num_links
            ));
        }
        Ok(())
    }

    /// Fresh-node helper: add a `malloc` node of struct `ty`.
    pub fn add_fresh(&mut self, ty: StructId) -> NodeId {
        self.add_node(Node::fresh(ty))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(i: u32) -> SelectorId {
        SelectorId(i)
    }

    fn two_node_graph() -> (Rsg, NodeId, NodeId) {
        let mut g = Rsg::empty(2);
        let a = g.add_fresh(StructId(0));
        let b = g.add_fresh(StructId(0));
        g.set_pl(PvarId(0), a);
        g.add_link(a, sel(0), b);
        g.node_mut(a).set_must_out(sel(0));
        g.node_mut(b).set_must_in(sel(0));
        (g, a, b)
    }

    #[test]
    fn add_query_remove_links() {
        let (mut g, a, b) = two_node_graph();
        assert!(g.has_link(a, sel(0), b));
        assert_eq!(g.succs(a, sel(0)), vec![b]);
        assert_eq!(g.preds(b, sel(0)), vec![a]);
        assert_eq!(g.out_links(a), vec![(sel(0), b)]);
        assert_eq!(g.in_links(b), vec![(a, sel(0))]);
        assert!(g.remove_link(a, sel(0), b));
        assert!(!g.remove_link(a, sel(0), b));
        assert_eq!(g.num_links(), 0);
        assert!(g.check_adjacency().is_ok());
    }

    #[test]
    fn self_links_count_once() {
        let mut g = Rsg::empty(1);
        let a = g.add_fresh(StructId(0));
        g.set_pl(PvarId(0), a);
        assert!(g.add_link(a, sel(0), a));
        assert!(!g.add_link(a, sel(0), a));
        assert_eq!(g.num_links(), 1);
        assert_eq!(g.succs(a, sel(0)), vec![a]);
        assert_eq!(g.preds(a, sel(0)), vec![a]);
        assert!(g.check_adjacency().is_ok());
        g.remove_node(a);
        assert_eq!(g.num_links(), 0);
        assert!(g.check_adjacency().is_ok());
    }

    #[test]
    fn remove_node_cleans_links_and_pl() {
        let (mut g, a, b) = two_node_graph();
        g.set_pl(PvarId(1), b);
        g.remove_node(b);
        assert!(!g.is_live(b));
        assert_eq!(g.num_links(), 0);
        assert_eq!(g.pl(PvarId(1)), None);
        assert_eq!(g.pl(PvarId(0)), Some(a));
        assert!(g.check_adjacency().is_ok());
    }

    #[test]
    fn links_iterate_in_global_sorted_order() {
        let mut g = Rsg::empty(1);
        let a = g.add_fresh(StructId(0));
        let b = g.add_fresh(StructId(0));
        let c = g.add_fresh(StructId(0));
        g.set_pl(PvarId(0), a);
        g.add_link(b, sel(1), c);
        g.add_link(a, sel(1), b);
        g.add_link(a, sel(0), c);
        g.add_link(b, sel(0), a);
        let got: Vec<_> = g.links().collect();
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(got, sorted);
        assert_eq!(got.len(), g.num_links());
    }

    #[test]
    fn gc_drops_unreachable() {
        let (mut g, _a, _b) = two_node_graph();
        let orphan = g.add_fresh(StructId(0));
        let orphan2 = g.add_fresh(StructId(0));
        g.add_link(orphan, sel(0), orphan2);
        assert_eq!(g.gc(), 2);
        assert!(!g.is_live(orphan));
        assert_eq!(g.num_nodes(), 2);
        assert!(g.check_adjacency().is_ok());
    }

    #[test]
    fn gc_follows_directed_reachability() {
        let mut g = Rsg::empty(1);
        let a = g.add_fresh(StructId(0));
        let b = g.add_fresh(StructId(0));
        // b -> a, pvar on a: b unreachable even though connected.
        g.add_link(b, sel(0), a);
        g.set_pl(PvarId(0), a);
        assert_eq!(g.gc(), 1);
        assert!(g.is_live(a));
        assert!(!g.is_live(b));
        assert!(g.check_adjacency().is_ok());
    }

    #[test]
    fn gc_weakens_must_in_witnessed_only_by_garbage() {
        let mut g = Rsg::empty(1);
        let a = g.add_fresh(StructId(0));
        let b = g.add_fresh(StructId(0));
        g.add_link(b, sel(0), a);
        g.node_mut(a).set_must_in(sel(0));
        g.set_pl(PvarId(0), a);
        assert_eq!(g.gc(), 1);
        assert!(g.in_links(a).is_empty(), "garbage's link is gone");
        assert!(!g.node(a).selin.contains(sel(0)), "must-in weakened");
        assert!(g.node(a).pos_selin.contains(sel(0)));
    }

    #[test]
    fn structure_labels_distinguish_components() {
        let mut g = Rsg::empty(3);
        let a = g.add_fresh(StructId(0));
        let b = g.add_fresh(StructId(0));
        let c = g.add_fresh(StructId(0));
        g.add_link(a, sel(0), b);
        g.set_pl(PvarId(0), a);
        g.set_pl(PvarId(2), c);
        let labels = g.structure_labels();
        assert_eq!(labels[a.0 as usize], 0);
        assert_eq!(labels[b.0 as usize], 0);
        assert_eq!(labels[c.0 as usize], 2);
    }

    #[test]
    fn structure_labels_use_weak_connectivity() {
        let mut g = Rsg::empty(2);
        let a = g.add_fresh(StructId(0));
        let b = g.add_fresh(StructId(0));
        let m = g.add_fresh(StructId(0));
        // a -> m <- b : same component even though a and b do not reach
        // each other.
        g.add_link(a, sel(0), m);
        g.add_link(b, sel(0), m);
        g.set_pl(PvarId(0), a);
        g.set_pl(PvarId(1), b);
        let labels = g.structure_labels();
        assert_eq!(labels[a.0 as usize], labels[b.0 as usize]);
        assert_eq!(labels[m.0 as usize], 0);
    }

    #[test]
    fn definite_link_detection() {
        let (mut g, a, b) = two_node_graph();
        assert!(g.is_definite_link(a, sel(0), b));
        // Another possible target makes it indefinite.
        let c = g.add_fresh(StructId(0));
        g.add_link(a, sel(0), c);
        assert!(!g.is_definite_link(a, sel(0), b));
        g.remove_link(a, sel(0), c);
        g.remove_node(c);
        // A summary source also blocks definiteness.
        *g.node_mut(a).summary = true;
        assert!(!g.is_definite_link(a, sel(0), b));
    }

    #[test]
    fn relax_sharing_lowers_flags() {
        let (mut g, _a, b) = two_node_graph();
        // Claim sharing, then relax: single in-link from a singular source.
        *g.node_mut(b).shared = true;
        g.node_mut(b).shsel.insert(sel(0));
        g.relax_sharing();
        assert!(!g.node(b).shared);
        assert!(!g.node(b).shsel.contains(sel(0)));
    }

    #[test]
    fn relax_sharing_keeps_flags_with_summary_source() {
        let (mut g, a, b) = two_node_graph();
        *g.node_mut(a).summary = true;
        g.clear_pl(PvarId(0)); // keep pvar-singularity invariant
        *g.node_mut(b).shared = true;
        g.node_mut(b).shsel.insert(sel(0));
        g.relax_sharing();
        // Source is summary: the single abstract link may stand for many.
        assert!(g.node(b).shared);
        assert!(g.node(b).shsel.contains(sel(0)));
    }

    #[test]
    fn relax_sharing_two_sources_keep_shsel() {
        let (mut g, _a, b) = two_node_graph();
        let c = g.add_fresh(StructId(0));
        g.set_pl(PvarId(1), c);
        g.add_link(c, sel(0), b);
        *g.node_mut(b).shared = true;
        g.node_mut(b).shsel.insert(sel(0));
        g.relax_sharing();
        assert!(g.node(b).shsel.contains(sel(0)));
        assert!(g.node(b).shared);
    }

    #[test]
    fn invariants_catch_summary_pl_target() {
        let ctx = ShapeCtx::synthetic(2, 2);
        let (mut g, a, _b) = two_node_graph();
        assert!(g.check_invariants(&ctx).is_ok());
        *g.node_mut(a).summary = true;
        assert!(g.check_invariants(&ctx).is_err());
    }

    #[test]
    fn approx_bytes_monotone() {
        let (g, _, _) = two_node_graph();
        let before = g.approx_bytes();
        let mut g2 = g.clone();
        let c = g2.add_fresh(StructId(0));
        g2.add_link(c, sel(1), c);
        assert!(g2.approx_bytes() > before);
    }
}

#[cfg(test)]
mod presence_tests {
    use super::*;
    use crate::builder;
    use psa_cfront::types::{SelectorId, StructId};
    use psa_ir::PvarId;

    fn sel(i: u32) -> SelectorId {
        SelectorId(i)
    }

    #[test]
    fn presence_propagates_along_definite_chains() {
        let g = builder::singly_linked_list(4, 1, PvarId(0), sel(0));
        let present = g.present_nodes();
        // Every node of a concrete chain is present: pvar target, then
        // unique must-out links all the way down.
        for n in g.node_ids() {
            assert!(present[n.0 as usize], "{n} must be present");
        }
    }

    #[test]
    fn presence_stops_at_summaries_and_forks() {
        let ctx = crate::ctx::ShapeCtx::synthetic(1, 1);
        let g = crate::compress::compress(
            builder::singly_linked_list(6, 1, PvarId(0), sel(0)),
            &ctx,
            crate::ctx::Level::L1,
        );
        let present = g.present_nodes();
        let head = g.pl(PvarId(0)).unwrap();
        assert!(present[head.0 as usize]);
        let mid = g.succs(head, sel(0))[0];
        // The summary itself is present (the head definitely points into
        // it) but propagation does not continue past it.
        assert!(present[mid.0 as usize]);
        let tail = g
            .succs(mid, sel(0))
            .into_iter()
            .find(|&t| t != mid)
            .expect("tail");
        assert!(
            !present[tail.0 as usize],
            "beyond a summary nothing is definite"
        );
    }

    #[test]
    fn fork_blocks_presence() {
        let mut g = Rsg::empty(1);
        let a = g.add_fresh(StructId(0));
        let b = g.add_fresh(StructId(0));
        let c = g.add_fresh(StructId(0));
        g.set_pl(PvarId(0), a);
        g.add_link(a, sel(0), b);
        g.add_link(a, sel(0), c);
        g.node_mut(a).set_must_out(sel(0));
        g.node_mut(b).pos_selin.insert(sel(0));
        g.node_mut(c).pos_selin.insert(sel(0));
        let present = g.present_nodes();
        assert!(present[a.0 as usize]);
        assert!(
            !present[b.0 as usize],
            "two alternatives: neither is definite"
        );
        assert!(!present[c.0 as usize]);
    }

    #[test]
    fn weaken_unwitnessed_ins_demotes_stale_claims() {
        // b claims must-in through sel(0) but its only witness is a
        // non-present node.
        let mut g = Rsg::empty(2);
        let root = g.add_fresh(StructId(0));
        let ghost = g.add_fresh(StructId(0));
        let b = g.add_fresh(StructId(0));
        g.set_pl(PvarId(0), root);
        // root may point at ghost (possible only), ghost points at b.
        g.add_link(root, sel(0), ghost);
        g.node_mut(root).pos_selout.insert(sel(0));
        g.node_mut(ghost).pos_selin.insert(sel(0));
        g.add_link(ghost, sel(0), b);
        g.node_mut(ghost).pos_selout.insert(sel(0));
        g.node_mut(b).set_must_in(sel(0));
        g.weaken_unwitnessed_ins();
        assert!(!g.node(b).selin.contains(sel(0)), "stale must-in demoted");
        assert!(g.node(b).pos_selin.contains(sel(0)), "…to possible");
    }

    #[test]
    fn weaken_keeps_witnessed_claims() {
        let g0 = builder::singly_linked_list(3, 1, PvarId(0), sel(0));
        let mut g = g0.clone();
        g.weaken_unwitnessed_ins();
        assert_eq!(g, g0, "fully witnessed chains are untouched");
    }
}
