//! The Reduced Set of Reference Shape Graphs (§4).
//!
//! An RSRSG holds the RSGs describing every memory configuration that can
//! reach a program point. Insertion keeps the set *reduced*: a graph
//! COMPATIBLE with an existing member is JOINed into it (re-inserted
//! recursively, since the join may become compatible with another member),
//! and exact duplicates (canonical-form equality) are dropped. The result is
//! a set of pairwise-incompatible graphs, which both bounds the set and
//! matches the paper's construction.
//!
//! Canonical forms are hash-consed through the run-wide
//! [`psa_rsg::intern::Interner`] carried by [`ShapeCtx`]: each member is
//! its graph plus a 16-byte [`CanonEntry`] (id + two pinning keys),
//! duplicate detection is an id comparison, and subsumption queries stay
//! inside the candidate's pinning group and go through the pinned-node
//! stage and memo table of [`psa_rsg::intern::SharedTables`]. A
//! member is the very graph the interner keeps as its form's
//! representative when it was the first to mint that form. Both JOINs, the
//! reduction loop's and the widening's, go through one helper and the
//! tables' JOIN memo.

use psa_rsg::canon::canonical_bytes;
use psa_rsg::compress::compress;
use psa_rsg::intern::{CanonEntry, CanonId, PinSignature};
use psa_rsg::join::{compatible, join};
use psa_rsg::trace::TraceKind;
use psa_rsg::{Level, Rsg, ShapeCtx};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// A reduced set of RSGs with hash-consed canonical-form bookkeeping.
///
/// Members are held behind [`Arc`] so that materializing a set from the
/// interner ([`Rsrsg::from_interned`]), replaying memoized transfer outputs,
/// and unioning one set into another all share the interner's representative
/// graphs instead of deep-copying the node arenas — cloning a whole RSRSG is
/// a handle copy. Members are immutable once inserted (every kernel builds
/// new graphs), so sharing is safe.
#[derive(Debug, Clone, Default)]
pub struct Rsrsg {
    graphs: Vec<Arc<Rsg>>,
    /// Interned canonical entry of each graph, kept aligned with `graphs`.
    canon: Vec<CanonEntry>,
}

impl Rsrsg {
    /// The empty set (bottom: no reachable configuration).
    pub fn new() -> Rsrsg {
        Rsrsg::default()
    }

    /// The initial RSRSG of a program entry: one empty heap.
    pub fn entry(num_pvars: usize, ctx: &ShapeCtx) -> Rsrsg {
        let mut s = Rsrsg::new();
        s.push_raw(Rsg::empty(num_pvars), ctx);
        s
    }

    /// Number of member graphs.
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// True when no configuration reaches this point.
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }

    /// The member graphs (shared handles into the run-wide interner).
    pub fn graphs(&self) -> &[Arc<Rsg>] {
        &self.graphs
    }

    /// Iterate member graphs.
    pub fn iter(&self) -> impl Iterator<Item = &Rsg> {
        self.graphs.iter().map(|g| &**g)
    }

    /// Whether an isomorphic graph is already a member.
    fn contains_id(&self, e: &CanonEntry) -> bool {
        self.canon.iter().any(|m| m.id == e.id)
    }

    /// Insert without compatibility merging (caller guarantees reduction or
    /// does not care — e.g. the entry set).
    pub fn push_raw(&mut self, g: Rsg, ctx: &ShapeCtx) {
        let t = &ctx.tables;
        t.metrics.push_raw_calls.fetch_add(1, Ordering::Relaxed);
        let g = Arc::new(g);
        let e = t.intern(&g);
        if self.contains_id(&e) {
            return;
        }
        self.graphs.push(g);
        self.canon.push(e);
    }

    /// Insert a graph, compressing it and JOINing with compatible members
    /// until the set is reduced again.
    ///
    /// A candidate already **subsumed** by a member is dropped, and members
    /// subsumed by the candidate are replaced — this is what makes repeated
    /// insertion of covered contributions a no-op, so the engine's
    /// accumulation reaches a fixed point instead of churning joined forms.
    pub fn insert(&mut self, g: Rsg, ctx: &ShapeCtx, level: Level) {
        let t = &ctx.tables;
        let m = &t.metrics;
        m.insert_calls.fetch_add(1, Ordering::Relaxed);
        let c0 = t.tracer.enabled().then(Instant::now);
        let cand = compress(g, ctx, level);
        m.compress_calls.fetch_add(1, Ordering::Relaxed);
        t.tracer.span_since(TraceKind::Compress, c0, 0, 0);
        self.reduce_in(Arc::new(cand), None, ctx, level);
    }

    /// [`Rsrsg::insert`] for a graph that is already compressed and interned
    /// — e.g. a memoized transfer output materialized from the interner.
    /// Skips the initial COMPRESS (insert's pending loop starts with
    /// `compress(g)`, and compression is idempotent) and reuses the known
    /// canonical entry instead of re-interning. Takes the shared handle, so
    /// replaying an interned output never copies the node arena.
    pub fn insert_compressed(&mut self, g: Arc<Rsg>, e: CanonEntry, ctx: &ShapeCtx, level: Level) {
        ctx.tables
            .metrics
            .insert_calls
            .fetch_add(1, Ordering::Relaxed);
        self.reduce_in(g, Some(e), ctx, level);
    }

    /// The reduction loop shared by [`Rsrsg::insert`] and
    /// [`Rsrsg::insert_compressed`]: JOIN with compatible members, drop
    /// subsumed candidates, replace subsumed members, until reduced.
    ///
    /// Both subsumption scans query only the candidate's **pinning group**,
    /// the members whose [`CanonEntry::pin_hash`] equals its own: an
    /// embedding preserves everything that key hashes, so skipping the
    /// other members changes no verdict. The scans still walk members in
    /// order, so member order, the duplicate check and the first-compatible
    /// JOIN are unchanged. The reference oracle queries every member.
    fn reduce_in(
        &mut self,
        first: Arc<Rsg>,
        first_entry: Option<CanonEntry>,
        ctx: &ShapeCtx,
        level: Level,
    ) {
        let t = &ctx.tables;
        let m = &t.metrics;
        let keyed = t.cache_enabled();
        let mut pending: Vec<(Arc<Rsg>, Option<CanonEntry>)> = vec![(first, first_entry)];
        while let Some((cand, known)) = pending.pop() {
            let e = known.unwrap_or_else(|| t.intern(&cand));
            if self.contains_id(&e) {
                m.insert_dups.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let in_group = |me: &CanonEntry| !keyed || me.pin_hash == e.pin_hash;
            if self
                .canon
                .iter()
                .zip(&self.graphs)
                .any(|(me, mg)| in_group(me) && t.subsumes_interned((me, &**mg), (&e, &*cand)))
            {
                m.insert_subsumed.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            // Drop members the candidate strictly generalizes.
            let mut i = 0;
            while i < self.graphs.len() {
                if in_group(&self.canon[i])
                    && t.subsumes_interned((&e, &*cand), (&self.canon[i], &*self.graphs[i]))
                {
                    self.graphs.remove(i);
                    self.canon.remove(i);
                    m.insert_replaced.fetch_add(1, Ordering::Relaxed);
                } else {
                    i += 1;
                }
            }
            // COMPATIBLE requires equal pinning signatures, which the
            // entry keys hash: gate the structural check (alias relation +
            // C_NODES on the pinned nodes) on them, except in the
            // reference oracle.
            if let Some(i) = self.canon.iter().zip(&self.graphs).position(|(me, mg)| {
                (!keyed || me.may_be_compatible(&e)) && compatible(mg, &cand, level)
            }) {
                let member = self.graphs.remove(i);
                let member_entry = self.canon.remove(i);
                m.join_calls.fetch_add(1, Ordering::Relaxed);
                let (joined, je) =
                    join_compressed((&member_entry, &member), (&e, &cand), ctx, level);
                pending.push((joined, Some(je)));
            } else {
                self.graphs.push(cand);
                self.canon.push(e);
            }
        }
        m.observe_width(self.graphs.len());
    }

    /// Union another RSRSG into this one. Returns true if this set changed.
    ///
    /// Members of a reduced set are already compressed and interned, so each
    /// is folded in through [`Rsrsg::insert_compressed`] — a handle copy plus
    /// the reduction loop, with no re-COMPRESS and no arena deep-copy.
    pub fn union_with(&mut self, other: &Rsrsg, ctx: &ShapeCtx, level: Level) -> bool {
        ctx.tables
            .metrics
            .union_calls
            .fetch_add(1, Ordering::Relaxed);
        let before = self.sorted_ids();
        for (g, e) in other.graphs.iter().zip(&other.canon) {
            self.insert_compressed(g.clone(), *e, ctx, level);
        }
        self.sorted_ids() != before
    }

    /// Interned canonical ids of the members, sorted: the set's change
    /// test. Within one interner, id multisets and byte-form multisets are
    /// in bijection, so comparing these matches a [`Rsrsg::signature`]
    /// comparison without re-encoding a graph.
    pub(crate) fn sorted_ids(&self) -> Vec<CanonId> {
        let mut ids = self.canon_ids();
        ids.sort_unstable();
        ids
    }

    /// Interned canonical ids of the members, **in member order** (not
    /// sorted). The engine's delta worklist, which every run except the
    /// reference oracle (cache-less tables, see
    /// [`crate::engine::Engine::with_shape_ctx`]) takes, relies on
    /// this order: a set that only grew by appends has its old id vector as
    /// a strict prefix.
    pub fn canon_ids(&self) -> Vec<CanonId> {
        self.canon.iter().map(|e| e.id).collect()
    }

    /// Interned canonical entries, aligned with [`Rsrsg::graphs`].
    pub fn canon_entries(&self) -> &[CanonEntry] {
        &self.canon
    }

    /// Rebuild a set from interned ids by **sharing** each id's
    /// representative graph with the run-wide interner (a handle copy, not
    /// an arena clone — this runs on every block visit). The ids must come
    /// from [`Rsrsg::canon_ids`] of a reduced set — membership is restored
    /// verbatim (same order), no reduction is re-run. Representatives are
    /// isomorphic to (possibly relabelings of) the graphs that produced the
    /// ids; every downstream operation is isomorphism-invariant.
    pub fn from_interned(ids: &[CanonId], ctx: &ShapeCtx) -> Rsrsg {
        let mut s = Rsrsg::new();
        for &id in ids {
            let (e, g) = ctx.tables.interner.resolve(id);
            s.graphs.push(g);
            s.canon.push(e);
        }
        s
    }

    /// A canonical signature of the whole set: its members' canonical
    /// bytes, re-encoded from the graphs and sorted. Signatures compare by
    /// content, so they stay meaningful across different interners (e.g.
    /// cache-on vs. cache-off engines in the differential suite). Within
    /// one interner, comparing sorted ids is the same test without the
    /// encoding.
    pub fn signature(&self) -> Vec<Vec<u8>> {
        let mut s: Vec<Vec<u8>> = self.iter().map(canonical_bytes).collect();
        s.sort();
        s
    }

    /// Set equality up to graph isomorphism and ordering.
    pub fn same_as(&self, other: &Rsrsg) -> bool {
        self.signature() == other.signature()
    }

    /// Keep only graphs satisfying `pred` (used by branch-condition
    /// refinement; filtering preserves reduction).
    pub fn filter(&self, pred: impl Fn(&Rsg) -> bool) -> Rsrsg {
        let mut out = Rsrsg::new();
        for (g, c) in self.graphs.iter().zip(&self.canon) {
            if pred(g) {
                out.graphs.push(Arc::clone(g));
                out.canon.push(*c);
            }
        }
        out
    }

    /// Widening: while the set holds more than `soft_cap` graphs, force-join
    /// pairs sharing a widening signature ([`PinSignature`]); each round
    /// joins the first two members of the lexicographically smallest
    /// signature group with two or more members. This is the lattice
    /// widening that keeps the paper's analysis practicable on codes whose
    /// control flow would otherwise fragment the RSRSG combinatorially; it
    /// only coarsens (join over-approximates both inputs), never drops
    /// configurations. The joined graph comes out of the JOIN helper
    /// compressed and interned, so it is re-inserted without a second
    /// COMPRESS.
    pub fn widen(&mut self, ctx: &ShapeCtx, level: Level, soft_cap: usize) {
        // Signatures computed so far in this call. The set changes between
        // rounds, but a surviving member keeps its id and its signature.
        let mut sigs: HashMap<CanonId, Vec<u8>> = HashMap::new();
        let keyed = ctx.tables.cache_enabled();
        while self.len() > soft_cap {
            // Equal signatures have equal keys, so a member whose key no
            // other member shares is alone in its group and never needs its
            // signature. The reference oracle computes every member's.
            let mut key_count: HashMap<u32, usize> = HashMap::new();
            if keyed {
                for e in &self.canon {
                    *key_count.entry(e.sig_key).or_default() += 1;
                }
            }
            for (e, g) in self.canon.iter().zip(&self.graphs) {
                if !keyed || key_count[&e.sig_key] > 1 {
                    sigs.entry(e.id)
                        .or_insert_with(|| PinSignature::of(g).bytes);
                }
            }
            // Group indices by widening signature.
            let mut groups: BTreeMap<&[u8], Vec<usize>> = BTreeMap::new();
            for (i, e) in self.canon.iter().enumerate() {
                if let Some(sig) = sigs.get(&e.id) {
                    groups.entry(sig).or_default().push(i);
                }
            }
            let Some(pair) = groups.values().find(|v| v.len() >= 2) else {
                return; // nothing joinable: give up (budget may trip later)
            };
            let (i, j) = (pair[0], pair[1]);
            debug_assert!(i < j);
            let b = self.graphs.remove(j);
            let eb = self.canon.remove(j);
            let a = self.graphs.remove(i);
            let ea = self.canon.remove(i);
            ctx.tables
                .metrics
                .widen_forced_joins
                .fetch_add(1, Ordering::Relaxed);
            let (joined, e) = join_compressed((&ea, &a), (&eb, &b), ctx, level);
            self.insert_compressed(joined, e, ctx, level);
        }
    }

    /// Forced summarization under a node budget: any member above
    /// `max_nodes` is re-compressed with relaxed compatibility
    /// ([`psa_rsg::compress::force_compress`], k-limiting) and the whole set
    /// re-reduced. Returns `true` when any member was coarsened — the
    /// caller marks the statement degraded. Sound: force-compression only
    /// widens each member, and re-insertion only joins.
    pub fn force_summarize(&mut self, ctx: &ShapeCtx, level: Level, max_nodes: usize) -> bool {
        if self.graphs.iter().all(|g| g.num_nodes() <= max_nodes) {
            return false;
        }
        let old = std::mem::take(self);
        for (g, e) in old.graphs.into_iter().zip(old.canon) {
            if g.num_nodes() <= max_nodes {
                self.insert_compressed(g, e, ctx, level);
            } else {
                let coarse = psa_rsg::compress::force_compress(&g, ctx, level, max_nodes);
                self.insert(coarse, ctx, level);
            }
        }
        true
    }

    /// Approximate structural bytes of the whole set: the member graphs
    /// plus one [`CanonEntry`] each. Canonical bytes live only in the
    /// interner, so members count none.
    pub fn approx_bytes(&self) -> usize {
        self.graphs.iter().map(|g| g.approx_bytes()).sum::<usize>()
            + self.canon.len() * std::mem::size_of::<CanonEntry>()
    }

    /// Total node count across members (reporting).
    pub fn total_nodes(&self) -> usize {
        self.graphs.iter().map(|g| g.num_nodes()).sum()
    }

    /// Total link count across members (reporting).
    pub fn total_links(&self) -> usize {
        self.graphs.iter().map(|g| g.num_links()).sum()
    }
}

/// `compress(join(a, b))`, interned: the one JOIN of the reduction loop and
/// the widening, answered from the tables' JOIN memo by the pair's
/// canonical ids. A miss runs both kernels as one `Join` span, interns the
/// result and stores its id; a hit returns the interner's representative,
/// as a transfer-memo hit does. The reference oracle (cache disabled)
/// always runs the kernels and stores nothing.
///
/// JOIN pairs nodes greedily in node-id order, so two numberings of the
/// same input forms can join to different canonical forms; the memo
/// answers with the result first computed for the pair of ids (DESIGN.md
/// §5).
fn join_compressed(
    a: (&CanonEntry, &Rsg),
    b: (&CanonEntry, &Rsg),
    ctx: &ShapeCtx,
    level: Level,
) -> (Arc<Rsg>, CanonEntry) {
    let t = &ctx.tables;
    let m = &t.metrics;
    let memo = t.cache_enabled();
    if memo {
        if let Some(id) = t.join_lookup(level, a.0.id, b.0.id) {
            m.join_memo_hits.fetch_add(1, Ordering::Relaxed);
            let (e, g) = t.interner.resolve(id);
            return (g, e);
        }
    }
    m.compress_calls.fetch_add(1, Ordering::Relaxed);
    let j0 = t.tracer.enabled().then(Instant::now);
    let joined = Arc::new(compress(join(a.1, b.1, level), ctx, level));
    t.tracer.span_since(TraceKind::Join, j0, 0, 0);
    let e = t.intern(&joined);
    if memo {
        t.join_store(level, a.0.id, b.0.id, e.id);
    }
    (joined, e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_cfront::types::SelectorId;
    use psa_ir::PvarId;
    use psa_rsg::builder;

    fn sel(i: u32) -> SelectorId {
        SelectorId(i)
    }

    #[test]
    fn entry_is_single_empty_graph() {
        let ctx = ShapeCtx::synthetic(3, 1);
        let s = Rsrsg::entry(3, &ctx);
        assert_eq!(s.len(), 1);
        assert_eq!(s.graphs()[0].num_nodes(), 0);
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let ctx = ShapeCtx::synthetic(1, 1);
        let g = builder::singly_linked_list(3, 1, PvarId(0), sel(0));
        let mut s = Rsrsg::new();
        s.insert(g.clone(), &ctx, Level::L1);
        s.insert(g, &ctx, Level::L1);
        assert_eq!(s.len(), 1);
        let snap = ctx.tables.snapshot();
        assert_eq!(snap.insert_calls, 2);
        assert_eq!(snap.insert_dups, 1, "second insert drops on id equality");
    }

    #[test]
    fn compatible_graphs_join_on_insert() {
        let ctx = ShapeCtx::synthetic(1, 1);
        // 4-list and 6-list compress to compatible shapes that join.
        let mut s = Rsrsg::new();
        s.insert(
            builder::singly_linked_list(4, 1, PvarId(0), sel(0)),
            &ctx,
            Level::L1,
        );
        s.insert(
            builder::singly_linked_list(6, 1, PvarId(0), sel(0)),
            &ctx,
            Level::L1,
        );
        assert_eq!(s.len(), 1, "compatible lists join into the 2+-list shape");
    }

    #[test]
    fn incompatible_graphs_stay_separate() {
        let ctx = ShapeCtx::synthetic(2, 1);
        // One graph binds p0, the other binds p1: different domains.
        let mut s = Rsrsg::new();
        s.insert(
            builder::singly_linked_list(3, 2, PvarId(0), sel(0)),
            &ctx,
            Level::L1,
        );
        s.insert(
            builder::singly_linked_list(3, 2, PvarId(1), sel(0)),
            &ctx,
            Level::L1,
        );
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn union_reports_change() {
        let ctx = ShapeCtx::synthetic(2, 1);
        let mut a = Rsrsg::new();
        a.insert(
            builder::singly_linked_list(3, 2, PvarId(0), sel(0)),
            &ctx,
            Level::L1,
        );
        let mut b = Rsrsg::new();
        b.insert(
            builder::singly_linked_list(3, 2, PvarId(1), sel(0)),
            &ctx,
            Level::L1,
        );
        assert!(a.union_with(&b, &ctx, Level::L1));
        assert!(!a.union_with(&b, &ctx, Level::L1), "idempotent");
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn same_as_ignores_order() {
        let ctx = ShapeCtx::synthetic(2, 1);
        let g1 = builder::singly_linked_list(3, 2, PvarId(0), sel(0));
        let g2 = builder::singly_linked_list(3, 2, PvarId(1), sel(0));
        let mut a = Rsrsg::new();
        a.insert(g1.clone(), &ctx, Level::L1);
        a.insert(g2.clone(), &ctx, Level::L1);
        let mut b = Rsrsg::new();
        b.insert(g2, &ctx, Level::L1);
        b.insert(g1, &ctx, Level::L1);
        assert!(a.same_as(&b));
    }

    #[test]
    fn same_as_holds_across_interners() {
        // Two contexts, two interners: signatures still compare by content.
        let ctx1 = ShapeCtx::synthetic(1, 1);
        let ctx2 = ShapeCtx::synthetic(1, 1);
        let g = builder::singly_linked_list(3, 1, PvarId(0), sel(0));
        let mut a = Rsrsg::new();
        a.insert(g.clone(), &ctx1, Level::L1);
        let mut b = Rsrsg::new();
        b.insert(g, &ctx2, Level::L1);
        assert!(a.same_as(&b));
    }

    #[test]
    fn filter_keeps_matching() {
        let ctx = ShapeCtx::synthetic(2, 1);
        let mut s = Rsrsg::new();
        s.insert(
            builder::singly_linked_list(3, 2, PvarId(0), sel(0)),
            &ctx,
            Level::L1,
        );
        s.insert(
            builder::singly_linked_list(3, 2, PvarId(1), sel(0)),
            &ctx,
            Level::L1,
        );
        let only_p0 = s.filter(|g| g.pl(PvarId(0)).is_some());
        assert_eq!(only_p0.len(), 1);
        let none = s.filter(|_| false);
        assert!(none.is_empty());
    }

    #[test]
    fn bytes_grow_with_members() {
        let ctx = ShapeCtx::synthetic(2, 1);
        let mut s = Rsrsg::new();
        s.insert(
            builder::singly_linked_list(3, 2, PvarId(0), sel(0)),
            &ctx,
            Level::L1,
        );
        let one = s.approx_bytes();
        s.insert(
            builder::singly_linked_list(3, 2, PvarId(1), sel(0)),
            &ctx,
            Level::L1,
        );
        assert!(s.approx_bytes() > one);
        assert!(s.total_nodes() >= 6);
    }

    #[test]
    fn from_interned_round_trips() {
        let ctx = ShapeCtx::synthetic(2, 1);
        let mut s = Rsrsg::new();
        s.insert(
            builder::singly_linked_list(3, 2, PvarId(0), sel(0)),
            &ctx,
            Level::L1,
        );
        s.insert(
            builder::singly_linked_list(3, 2, PvarId(1), sel(0)),
            &ctx,
            Level::L1,
        );
        let ids = s.canon_ids();
        assert_eq!(ids.len(), 2);
        let back = Rsrsg::from_interned(&ids, &ctx);
        assert!(back.same_as(&s));
        assert_eq!(back.canon_ids(), ids, "member order is preserved");
    }

    #[test]
    fn insert_compressed_matches_insert() {
        // insert(g) == insert_compressed(compress(g)) for any g: the pending
        // loop starts from the compressed form either way.
        let ctx1 = ShapeCtx::synthetic(1, 1);
        let ctx2 = ShapeCtx::synthetic(1, 1);
        let mut a = Rsrsg::new();
        let mut b = Rsrsg::new();
        for n in [3usize, 4, 5, 6] {
            let g = builder::singly_linked_list(n, 1, PvarId(0), sel(0));
            a.insert(g.clone(), &ctx1, Level::L1);
            let c = Arc::new(psa_rsg::compress::compress(g.clone(), &ctx2, Level::L1));
            let e = ctx2.tables.intern(&c);
            b.insert_compressed(c, e, &ctx2, Level::L1);
        }
        assert!(a.same_as(&b));
    }

    #[test]
    fn force_summarize_caps_node_counts() {
        let ctx = ShapeCtx::synthetic(1, 1);
        let mut s = Rsrsg::new();
        s.insert(
            builder::singly_linked_list(6, 1, PvarId(0), sel(0)),
            &ctx,
            Level::L2,
        );
        // L2's C_SPATH1 keeps per-hop precision: more than 3 nodes survive.
        assert!(s.iter().any(|g| g.num_nodes() > 3));
        assert!(s.force_summarize(&ctx, Level::L2, 3));
        assert!(s.iter().all(|g| g.num_nodes() <= 3));
        assert!(!s.force_summarize(&ctx, Level::L2, 3), "second pass no-op");
    }

    #[test]
    fn insert_metrics_count_subsume_traffic() {
        let ctx = ShapeCtx::synthetic(1, 1);
        let mut s = Rsrsg::new();
        for n in [3usize, 4, 5, 6] {
            s.insert(
                builder::singly_linked_list(n, 1, PvarId(0), sel(0)),
                &ctx,
                Level::L1,
            );
        }
        let snap = ctx.tables.snapshot();
        assert_eq!(snap.insert_calls, 4);
        assert!(
            snap.subsume_queries > 0,
            "insertion issues subsumption queries"
        );
        assert!(snap.interner_size > 0);
        assert!(snap.peak_set_width >= 1);
    }
}
