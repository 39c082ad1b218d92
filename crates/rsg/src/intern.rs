//! Hash-consed canonical-form interning and memoized subsumption.
//!
//! The fixed-point engine re-serializes candidate graphs, scans member
//! lists linearly, and re-runs the backtracking embedding search
//! ([`crate::subsume::subsumes`]) for the same graph pairs on every
//! worklist revisit. This module removes all three costs with the
//! canonical-form sharing that Predator and Marron's structural analysis
//! credit for their scalability:
//!
//! * [`Interner`] — a run-wide table mapping canonical bytes to a compact
//!   [`CanonId`], so duplicate detection is a hash lookup and an RSRSG
//!   member carries a 16-byte [`CanonEntry`]: the id plus its two pinning
//!   keys. Each minted form keeps the only copy of its canonical bytes.
//!   Each entry also retains a representative of its canonical form (the
//!   caller's `Arc<Rsg>` that minted it, shared rather than copied), so an
//!   id can be resolved back into a graph — this is what lets the engine
//!   keep its per-statement state as id vectors and the transfer memo
//!   return interned output ids;
//! * the **transfer memo** — `(config-epoch, statement, CanonId) → outputs`
//!   for abstract statement transfer. Transfer is deterministic per input
//!   graph, so any graph already transferred under a statement (in a
//!   previous worklist iteration, or by an earlier engine run or a
//!   concurrent serve request sharing the tables) is answered by lookup.
//!   Entries record the diagnostics (warnings, TOUCH revisits) the
//!   original transfer produced so a hit replays them;
//! * the **pinning keys** of a [`CanonEntry`] — `pin_hash` and `sig_key`,
//!   hashes of the graph's [`PinSignature`]. Equal `pin_hash` is
//!   necessary for subsumption and equal keys for COMPATIBLE, so an RSRSG
//!   insert queries only the members that share them;
//! * the **subsumption memo** — `(CanonId, CanonId) → bool` embedding
//!   verdicts, so a subsumption query for a pair of canonical forms runs
//!   the backtracking search at most once per analysis run;
//! * the **JOIN memo** — `(level, CanonId, CanonId) → CanonId`, the
//!   interned id of `compress(join(a, b))`, shared by RSRSG insertion and
//!   the widening join, so a pair of canonical forms is joined at most once
//!   per table set;
//! * [`OpMetrics`] / [`OpStats`] — atomic op-level work counters
//!   (insert/subsume/join/compress/prune calls, cache hits vs. search
//!   fallbacks, interner size, peak set widths, stripe-lock contention)
//!   that the engine snapshots into its per-run statistics;
//! * [`SharedTables`] — the bundle of all of them, carried by
//!   [`crate::ShapeCtx`] behind an `Arc` so the engine worklist, the
//!   progressive L1→L2→L3 driver and every `psa serve` request share one
//!   table set. It owns each memo's one lookup and one store.
//!
//! # Lock striping (DESIGN.md §12)
//!
//! The interner's dedup index and the three memos are instances of one
//! lock-striped map, `Striped`: entries are distributed over
//! `STRIPES` segments by key hash, each behind its own `Mutex`, so
//! concurrent serve requests interning or memoizing different keys do not
//! convoy on one global lock. Every map hashes with [`WordBuildHasher`],
//! and the interner hashes each canonical byte string once, with
//! [`word_hash`]: that one value picks the stripe and is the map's key.
//! The interner additionally resolves ids **without any lock**: minted
//! entries go into an append-only segmented slab of `OnceLock` slots,
//! filled *before* the id is published (inserted into the dedup index /
//! returned to a caller), so every id a reader can legitimately hold names
//! an already-initialized slot.
//!
//! Every stripe-lock acquisition goes through `Striped::lock`: an
//! uncontended `try_lock` costs nothing extra, while a contended fall-back
//! to a blocking lock is timed into the [`LockTable`]'s `*_lock_wait_ns` /
//! `*_lock_contended` counters and journaled as a
//! [`TraceKind::LockWait`] instant when tracing is enabled.
//!
//! Everything is guarded by `std::sync` primitives (the build environment
//! has no registry access for `parking_lot`).

use crate::canon::canonical_bytes;
use crate::ctx::Level;
use crate::graph::Rsg;
use crate::subsume::{embedding_stage, pinned_stage, subsumes};
use crate::trace::{TraceKind, Tracer};
use psa_ir::{splitmix64 as mix, word_hash, WordBuildHasher};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};
use std::time::Instant;

/// Number of lock stripes per shared table. A power of two so stripe
/// selection is a mask; 16 covers any plausible number of concurrent
/// serve requests while keeping the per-table footprint trivial.
const STRIPES: usize = 16;

/// The shared table a stripe lock belongs to. Its code (the discriminant)
/// is the `arg` of a [`TraceKind::LockWait`] event, and it picks the
/// table's `*_lock_*` counters in [`OpMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockTable {
    /// The canonical-form interner's dedup index.
    Intern = 0,
    /// The subsumption memo.
    Subsume = 1,
    /// The transfer memo.
    Transfer = 2,
    /// The JOIN memo.
    Join = 3,
}

impl LockTable {
    /// The table's `(wait_ns, contended)` counters.
    fn counters(self, m: &OpMetrics) -> (&AtomicU64, &AtomicU64) {
        match self {
            LockTable::Intern => (&m.intern_lock_wait_ns, &m.intern_lock_contended),
            LockTable::Subsume => (&m.subsume_lock_wait_ns, &m.subsume_lock_contended),
            LockTable::Transfer => (&m.transfer_lock_wait_ns, &m.transfer_lock_contended),
            LockTable::Join => (&m.join_lock_wait_ns, &m.join_lock_contended),
        }
    }
}

/// Compact identifier of an interned canonical form. Equal ids ⇔ equal
/// canonical bytes ⇔ isomorphic graphs (within one [`Interner`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CanonId(pub u32);

/// The **pvar-pinning signature** of a graph: everything
/// [`crate::join::compatible`] compares before it builds simple paths.
/// That is the known scalar facts, the alias partition of the bound pvars,
/// and each pvar-pointed node's TYPE / SHARED / SHSEL / TOUCH.
///
/// Equal signatures are necessary for COMPATIBLE, and the forced widening
/// join groups RSRSG members by them. Graphs agreeing on it can always be
/// joined: `MERGE_NODES` reconciles differing reference patterns by
/// intersecting must-sets and widening possible-sets. Sharing flags stay in
/// the signature: joining an "already linked" state into a "not yet linked"
/// one plants alternative may-links whose sharing evidence later stores
/// cannot distinguish from real second references (this is precisely the
/// Barnes-Hut `SHSEL(body)` story of §5.1). Known scalar facts stay too:
/// widening must not merge configurations that a tracked flag distinguishes
/// (`done == 0` vs `done == 1`), or the flag tracking would be erased
/// exactly where it matters.
#[derive(Debug, Clone)]
pub struct PinSignature {
    /// The full signature. Node identities are canonicalized by first
    /// occurrence among the (sorted) PL entries, so isomorphic graphs get
    /// equal bytes.
    pub bytes: Vec<u8>,
    /// Hash of the part that subsumption preserves as well: the pvar
    /// domain, the alias partition and each pinned node's TYPE/TOUCH. An
    /// embedding maps every pvar's node onto the same pvar's node, and
    /// pvar-pointed nodes are singular (an [`Rsg`] invariant), so a general
    /// graph covers a specific one only if both agree on this part.
    /// SHARED/SHSEL may grow and scalar facts may shrink from specific to
    /// general, so they are left out.
    pub pin_hash: u64,
}

impl PinSignature {
    /// Compute the signature of a graph.
    pub fn of(g: &Rsg) -> PinSignature {
        let mut bytes = Vec::new();
        for (v, k) in g.scalars() {
            bytes.extend_from_slice(&v.to_le_bytes());
            bytes.extend_from_slice(&k.to_le_bytes());
        }
        bytes.push(0xFE);
        let mut pin_hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut seen: Vec<crate::NodeId> = Vec::new();
        for (p, n) in g.pl_iter() {
            let class = match seen.iter().position(|&m| m == n) {
                Some(i) => i,
                None => {
                    seen.push(n);
                    seen.len() - 1
                }
            } as u32;
            let nd = g.node(n);
            bytes.extend_from_slice(&p.0.to_le_bytes());
            bytes.extend_from_slice(&class.to_le_bytes());
            bytes.extend_from_slice(&nd.ty.0.to_le_bytes());
            bytes.push(nd.shared as u8);
            bytes.extend_from_slice(&nd.shsel.0.to_le_bytes());
            pin_hash = mix(pin_hash ^ (u64::from(p.0) << 32 | u64::from(class)));
            pin_hash = mix(pin_hash ^ u64::from(nd.ty.0));
            for t in nd.touch.iter() {
                bytes.extend_from_slice(&t.0.to_le_bytes());
                pin_hash = mix(pin_hash ^ (u64::from(t.0) + 0x1000));
            }
            bytes.push(0xFF);
            pin_hash = mix(pin_hash ^ 0xFF);
        }
        PinSignature { bytes, pin_hash }
    }

    /// 32-bit hash of the full signature [`PinSignature::bytes`]: graphs
    /// with different keys have different signatures.
    pub fn sig_key(&self) -> u32 {
        let h = word_hash(&self.bytes);
        (h ^ (h >> 32)) as u32
    }
}

/// One interned canonical form as an RSRSG member carries it: the id and
/// the two keys of the graph's [`PinSignature`], both isomorphism-invariant
/// so all graphs sharing an id share them. `Copy`, 16 bytes (asserted
/// below): its size is part of each RSRSG's `approx_bytes`, so growing it
/// moves the reported peak RSRSG bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CanonEntry {
    /// Compact id, unique per canonical form within one interner.
    pub id: CanonId,
    /// [`PinSignature::sig_key`]. COMPATIBLE requires equal signatures,
    /// so it requires equal keys.
    pub sig_key: u32,
    /// [`PinSignature::pin_hash`], the graph's **pinning group**:
    /// subsumption holds only within one group, so an RSRSG insert queries
    /// only the members whose key equals the candidate's.
    pub pin_hash: u64,
}

const _: () = assert!(std::mem::size_of::<CanonEntry>() == 16);

impl CanonEntry {
    /// Necessary condition for `compatible(a, b)` (see
    /// [`crate::join::compatible`]): COMPATIBLE requires equal
    /// [`PinSignature`]s, so differing keys prove the structural check
    /// would fail. `true` is inconclusive.
    pub fn may_be_compatible(&self, other: &CanonEntry) -> bool {
        self.pin_hash == other.pin_hash && self.sig_key == other.sig_key
    }
}

/// The immutable payload of one minted canonical form, stored in the
/// lock-free slab.
#[derive(Debug)]
struct InternedForm {
    entry: CanonEntry,
    graph: Arc<Rsg>,
    /// The form's canonical bytes: the interner's only copy.
    bytes: Box<[u8]>,
    /// The form minted before this one under the same byte hash: the next
    /// link of the hash's collision chain, which the dedup index enters
    /// at its newest form.
    same_hash: Option<CanonId>,
}

/// One lazily materialized slab segment of published forms.
type SlabSegment = Box<[OnceLock<InternedForm>]>;

/// Entries per slab segment (power of two: the low bits index the slot).
const SLAB_SEG_LEN: usize = 1 << 10;
/// Maximum segments, bounding the interner at ~4M canonical forms — far
/// above any real run; exceeding it is a hard panic, not silent loss.
const SLAB_MAX_SEGS: usize = 1 << 12;

/// A [`WordBuildHasher`] map: the shape of every shared table.
type WordMap<K, V> = HashMap<K, V, WordBuildHasher>;

/// A hash map split over [`STRIPES`] mutex-guarded stripes, picked by a
/// mixed 64-bit key hash, so threads touching different keys do not convoy
/// on one lock. The interner's dedup index and the three memos are instances;
/// the [`LockTable`] tag says which, for contention accounting.
#[derive(Debug)]
pub(crate) struct Striped<K, V> {
    table: LockTable,
    stripes: Box<[Mutex<WordMap<K, V>>]>,
}

impl<K: Eq + Hash, V> Striped<K, V> {
    fn new(table: LockTable) -> Self {
        Striped {
            table,
            stripes: (0..STRIPES).map(|_| Mutex::default()).collect(),
        }
    }

    /// Lock the stripe of `hash` with contention accounting: an
    /// uncontended `try_lock` returns immediately (no clock read), while a
    /// contended acquisition falls back to the blocking lock, adds the wait
    /// to the table's `*_lock_wait_ns` / `*_lock_contended` counters in
    /// `metrics`, and journals a [`TraceKind::LockWait`] instant (`arg` =
    /// table code, `arg2` = nanoseconds waited) when tracing is on.
    /// Poisoning recovers exactly like [`lock_recover`]. Equal keys must
    /// pass equal hashes.
    fn lock(
        &self,
        hash: u64,
        metrics: &OpMetrics,
        tracer: &Tracer,
    ) -> MutexGuard<'_, WordMap<K, V>> {
        let stripe = &self.stripes[(mix(hash) & (STRIPES as u64 - 1)) as usize];
        match stripe.try_lock() {
            Ok(g) => return g,
            Err(TryLockError::Poisoned(p)) => return p.into_inner(),
            Err(TryLockError::WouldBlock) => {}
        }
        let start = Instant::now();
        let g = lock_recover(stripe);
        let ns = start.elapsed().as_nanos() as u64;
        let (wait_ns, contended) = self.table.counters(metrics);
        wait_ns.fetch_add(ns, Ordering::Relaxed);
        contended.fetch_add(1, Ordering::Relaxed);
        tracer.instant(TraceKind::LockWait, self.table as u64, ns);
        g
    }

    /// Number of entries (sums the stripes).
    pub(crate) fn len(&self) -> usize {
        self.stripes.iter().map(|s| lock_recover(s).len()).sum()
    }
}

/// Run-wide hash-consing table for canonical forms.
///
/// The dedup index is a `Striped` map from the [`word_hash`] of the
/// canonical bytes to the newest form minted under that hash; the forms
/// themselves, bytes included, live in an append-only segmented slab
/// whose slots are filled before their ids are published, so id → entry
/// resolution is lock-free. Forms whose bytes share a hash are chained
/// through `InternedForm::same_hash`, and a lookup compares bytes along
/// the chain. Graphs are interned through [`SharedTables::intern`].
#[derive(Debug)]
pub struct Interner {
    /// `byte hash → newest id under it`, striped by that hash.
    index: Striped<u64, CanonId>,
    /// Append-only id → form slab. Segments materialize on demand; each
    /// slot is written exactly once, before its id escapes the minting
    /// thread, so readers never observe an empty slot for a valid id.
    segments: Box<[OnceLock<SlabSegment>]>,
    /// Next id to mint.
    next: AtomicU32,
    /// Count of fully published entries (the `len()` gauge).
    published: AtomicU64,
    /// Canonical bytes held, summed over minted forms (the `bytes()`
    /// gauge).
    stored_bytes: AtomicU64,
}

impl Default for Interner {
    fn default() -> Self {
        Interner {
            index: Striped::new(LockTable::Intern),
            segments: (0..SLAB_MAX_SEGS).map(|_| OnceLock::new()).collect(),
            next: AtomicU32::new(0),
            published: AtomicU64::new(0),
            stored_bytes: AtomicU64::new(0),
        }
    }
}

/// Lock a mutex, recovering from poisoning. A panic on one analysis (caught
/// by `Engine::run`, or a serve request thread's) must not wedge later
/// analyses on the same tables: every critical section in the shared
/// tables is a single map operation, so the protected data stays consistent
/// even when the panic unwound through it. All lock sites in the analysis —
/// here and in downstream crates — go through this helper or
/// `Striped::lock` so the recovery policy cannot drift per call site.
pub fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Fill the slab slot for a freshly minted id. Must happen before the
    /// id is inserted into the dedup index or handed to a caller
    /// (fill-before-publish).
    fn publish(&self, id: u32, form: InternedForm) {
        let seg = id as usize / SLAB_SEG_LEN;
        assert!(
            seg < SLAB_MAX_SEGS,
            "interner slab exhausted ({id} canonical forms)"
        );
        let slots = self.segments[seg].get_or_init(|| {
            (0..SLAB_SEG_LEN)
                .map(|_| OnceLock::new())
                .collect::<Vec<_>>()
                .into_boxed_slice()
        });
        slots[id as usize % SLAB_SEG_LEN]
            .set(form)
            .unwrap_or_else(|_| panic!("canonical id {id} minted twice"));
        self.published.fetch_add(1, Ordering::Release);
    }

    /// Resolve an id to its slab slot, lock-free.
    ///
    /// # Panics
    /// If `id` was not minted by this interner: ids only escape after
    /// their slot is filled, so an empty slot means a foreign id.
    fn form(&self, id: CanonId) -> &InternedForm {
        let seg = id.0 as usize / SLAB_SEG_LEN;
        self.segments
            .get(seg)
            .and_then(|s| s.get())
            .and_then(|slots| slots[id.0 as usize % SLAB_SEG_LEN].get())
            .expect("CanonId not minted by this interner")
    }

    /// The dedup-or-mint step behind [`SharedTables::intern`]; `bytes`
    /// must be `canonical_bytes(g)` and `hash` its [`word_hash`] (a
    /// parameter so tests can force a collision). A fresh id keeps a handle
    /// to `g` itself as its representative graph, so the caller's graph and
    /// the interner's share one node arena.
    fn intern_with_bytes(
        &self,
        g: &Arc<Rsg>,
        bytes: Vec<u8>,
        hash: u64,
        metrics: &OpMetrics,
        tracer: &Tracer,
    ) -> CanonEntry {
        let mut map = self.index.lock(hash, metrics, tracer);
        let newest = map.get(&hash).copied();
        let mut chain = newest;
        while let Some(id) = chain {
            let form = self.form(id);
            if *form.bytes == *bytes {
                metrics.intern_hits.fetch_add(1, Ordering::Relaxed);
                tracer.instant(TraceKind::InternHit, id.0 as u64, 0);
                return form.entry;
            }
            chain = form.same_hash;
        }
        metrics.intern_misses.fetch_add(1, Ordering::Relaxed);
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        tracer.instant(TraceKind::InternMiss, id as u64, 0);
        let sig = PinSignature::of(g);
        let entry = CanonEntry {
            id: CanonId(id),
            sig_key: sig.sig_key(),
            pin_hash: sig.pin_hash,
        };
        self.stored_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        // Fill-before-publish: the slab slot must be readable before the id
        // appears in the map or escapes to the caller.
        self.publish(
            id,
            InternedForm {
                entry,
                graph: Arc::clone(g),
                bytes: bytes.into_boxed_slice(),
                same_hash: newest,
            },
        );
        map.insert(hash, CanonId(id));
        entry
    }

    /// Number of distinct canonical forms interned so far. Lock-free.
    pub fn len(&self) -> usize {
        self.published.load(Ordering::Acquire) as usize
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Canonical bytes held, summed over the forms minted so far.
    /// Lock-free.
    pub fn bytes(&self) -> usize {
        self.stored_bytes.load(Ordering::Relaxed) as usize
    }

    /// The [`CanonEntry`] of an interned id. Lock-free.
    ///
    /// # Panics
    /// If `id` was not minted by this interner.
    pub fn entry(&self, id: CanonId) -> CanonEntry {
        self.form(id).entry
    }

    /// Resolve an id into `(entry, graph)`. The graph is the entry's
    /// representative: the graph that first minted it, shared (not copied)
    /// and isomorphic to every later graph interning to the same id.
    /// Lock-free.
    ///
    /// # Panics
    /// If `id` was not minted by this interner.
    pub fn resolve(&self, id: CanonId) -> (CanonEntry, Arc<Rsg>) {
        let form = self.form(id);
        (form.entry, form.graph.clone())
    }
}

/// Subsumption-memo key: `(general, specific)`.
type SubsumeKey = (CanonId, CanonId);

/// Stripe hash of a subsumption-memo key.
fn subsume_key_hash(&(a, b): &SubsumeKey) -> u64 {
    ((a.0 as u64) << 32) | b.0 as u64
}

/// The memoized outcome of transferring one interned graph through one
/// statement: the interned ids of the (compressed) output graphs, plus the
/// diagnostics the transfer emitted, replayed on every hit so a memoized
/// run reports the same warnings and TOUCH revisits as a cold one.
///
/// The memo stores it by value: one shared id slice, and the diagnostics
/// in a second allocation only when the transfer emitted any. A lookup
/// clones two handles.
#[derive(Debug, Clone, Default)]
pub struct TransferOutcome {
    /// Interned ids of the compressed output graphs, in production order.
    pub outs: Arc<[CanonId]>,
    /// The emitted diagnostics; `None` when there were none.
    diagnostics: Option<Arc<TransferDiagnostics>>,
}

/// What a transfer reported besides its outputs.
#[derive(Debug)]
struct TransferDiagnostics {
    /// Diagnostics emitted while computing the outputs (e.g. possible NULL
    /// dereference on a crashing configuration).
    warnings: Vec<String>,
    /// Induction pvars whose TOUCH mark was re-visited during the transfer.
    revisits: Vec<psa_ir::PvarId>,
}

impl TransferOutcome {
    /// An outcome; the diagnostics allocation is made only when
    /// `warnings` or `revisits` is non-empty.
    pub fn new(
        outs: Arc<[CanonId]>,
        warnings: Vec<String>,
        revisits: Vec<psa_ir::PvarId>,
    ) -> TransferOutcome {
        let diagnostics = (!warnings.is_empty() || !revisits.is_empty())
            .then(|| Arc::new(TransferDiagnostics { warnings, revisits }));
        TransferOutcome { outs, diagnostics }
    }

    /// The emitted warnings.
    pub fn warnings(&self) -> &[String] {
        self.diagnostics.as_deref().map_or(&[], |d| &d.warnings)
    }

    /// The re-visited induction pvars.
    pub fn revisits(&self) -> &[psa_ir::PvarId] {
        self.diagnostics.as_deref().map_or(&[], |d| &d.revisits)
    }
}

/// Transfer-memo key: which configuration epoch (see
/// [`SharedTables::epoch_for`]), which statement slot, which input graph.
/// The epoch isolates engine configurations that give the transfer function
/// different semantics, so one table set can serve a progressive
/// L1→L2→L3 driver without cross-level contamination.
type TransferKey = (u32, u32, CanonId);

/// Stripe hash of a transfer-memo key.
fn transfer_key_hash(k: &TransferKey) -> u64 {
    mix(((k.0 as u64) << 32) | k.1 as u64) ^ mix(k.2 .0 as u64)
}

/// JOIN-memo key: the level and the ids of JOIN's two inputs, in argument
/// order. COMPRESS and JOIN read nothing of the [`crate::ShapeCtx`] but the
/// level, so no configuration epoch is needed.
type JoinKey = (Level, CanonId, CanonId);

/// Stripe hash of a JOIN-memo key.
fn join_key_hash(&(level, a, b): &JoinKey) -> u64 {
    mix(((a.0 as u64) << 32) | b.0 as u64) ^ level as u64
}

/// Declares every op metric once: `OpMetrics` (atomics) and `OpStats`
/// (plain data) get one field per name, counters first, then gauges.
/// Counters are subtracted by [`OpStats::delta`] and summed by
/// [`OpStats::accumulate`]; gauges are taken from the later snapshot and
/// maxed. [`OpStats::fields`] lists them all in declaration order, which
/// is the order of the JSON report's `stats.ops` keys.
macro_rules! op_metrics {
    ($(#[$mdoc:meta])* pub struct OpMetrics;
     $(#[$sdoc:meta])* pub struct OpStats;
     counters { $( $(#[$cdoc:meta])* $counter:ident, )+ }
     gauges { $( $(#[$gdoc:meta])* $gauge:ident, )+ }) => {
        $(#[$mdoc])*
        #[derive(Debug, Default)]
        pub struct OpMetrics {
            $( $(#[$cdoc])* pub $counter: AtomicU64, )+
            $( $(#[$gdoc])* pub $gauge: AtomicU64, )+
        }

        $(#[$sdoc])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct OpStats {
            $( $(#[$cdoc])* pub $counter: u64, )+
            $( $(#[$gdoc])* pub $gauge: u64, )+
        }

        impl OpMetrics {
            /// A point-in-time copy of every counter and gauge.
            pub fn snapshot(&self) -> OpStats {
                OpStats {
                    $( $counter: self.$counter.load(Ordering::Relaxed), )+
                    $( $gauge: self.$gauge.load(Ordering::Relaxed), )+
                }
            }
        }

        impl OpStats {
            /// The difference between two snapshots: counters are
            /// subtracted, gauges taken from the later snapshot.
            pub fn delta(&self, earlier: &OpStats) -> OpStats {
                OpStats {
                    $( $counter: self.$counter.saturating_sub(earlier.$counter), )+
                    $( $gauge: self.$gauge, )+
                }
            }

            /// Running total across runs: counters are summed, gauges take
            /// the maximum of the two snapshots — the daemon folds each
            /// request's per-run delta into its process-lifetime `server`
            /// section with this.
            pub fn accumulate(&self, other: &OpStats) -> OpStats {
                OpStats {
                    $( $counter: self.$counter.saturating_add(other.$counter), )+
                    $( $gauge: self.$gauge.max(other.$gauge), )+
                }
            }

            /// Every counter, then every gauge, as `(name, value)` in
            /// declaration order.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![
                    $( (stringify!($counter), self.$counter), )+
                    $( (stringify!($gauge), self.$gauge), )+
                ]
            }
        }
    };
}

op_metrics! {
    /// Atomic op-level counters for one analysis run (or several runs
    /// sharing tables, in the progressive driver). All counters use
    /// relaxed ordering: they are statistics, not synchronization.
    pub struct OpMetrics;
    /// Plain-data snapshot of [`OpMetrics`], also used as a delta between
    /// two snapshots. Every counter is a deterministic work count except
    /// the eight `*_lock_*` fields, which measure stripe-lock contention
    /// (`*_lock_wait_ns` in cumulative nanoseconds). Time per kernel is
    /// not counted here: it is the trace journal's exclusive self-time
    /// ([`crate::trace`]).
    pub struct OpStats;
    counters {
        /// `Rsrsg::insert` calls.
        insert_calls,
        /// Candidates dropped because their canonical id was already a
        /// member.
        insert_dups,
        /// Candidates dropped because an existing member subsumes them.
        insert_subsumed,
        /// Members replaced because the candidate subsumes them.
        insert_replaced,
        /// `Rsrsg::push_raw` calls.
        push_raw_calls,
        /// Subsumption queries issued (cached or not).
        subsume_queries,
        /// Queries answered from the memo table.
        subsume_cache_hits,
        /// Queries rejected by the pinned-node stage (no search run).
        subsume_prefilter_rejects,
        /// Queries that fell through to the backtracking embedding search.
        subsume_searches,
        /// JOINs of a compatible candidate into a member by RSRSG insertion,
        /// memo hits included. Widening's forced joins are counted in
        /// `widen_forced_joins` instead.
        join_calls,
        /// COMPRESS kernel runs (a memo hit runs none).
        compress_calls,
        /// PRUNE operations.
        prune_calls,
        /// DIVIDE operations.
        divide_calls,
        /// Materializations (focus steps).
        materialize_calls,
        /// Forced joins performed by the widening operator, memo hits
        /// included.
        widen_forced_joins,
        /// JOINs (insertion and widening) answered from the JOIN memo.
        join_memo_hits,
        /// Union operations between RSRSGs.
        union_calls,
        /// Canonicalization lookups that found an existing entry.
        intern_hits,
        /// Canonicalization lookups that minted a fresh entry.
        intern_misses,
        /// Per-graph transfer memo lookups issued (hits + misses).
        transfer_queries,
        /// Per-graph transfers answered from the memo table.
        transfer_memo_hits,
        /// Per-graph transfers computed and memoized.
        transfer_memo_misses,
        /// Statement transfers answered whole from the delta cache (input
        /// CanonId vector unchanged since the statement's last visit).
        delta_stmt_hits,
        /// Statement transfers where only the new suffix of the input was
        /// re-transferred onto the cached output (delta decomposition).
        delta_stmt_extends,
        /// Statement transfers that fell back to a full re-transfer (input
        /// reordered by widening/joins, TOUCH adjustments, or first visit).
        delta_stmt_fulls,
        /// Input graphs whose transfer was skipped by the delta
        /// decomposition (covered by the cached prefix output).
        delta_graphs_reused,
        /// Input graphs actually transferred (cold or delta suffix).
        delta_graphs_transferred,
        /// Contended interner stripe-lock acquisitions.
        intern_lock_contended,
        /// Contended subsumption-memo stripe-lock acquisitions.
        subsume_lock_contended,
        /// Contended transfer-memo stripe-lock acquisitions.
        transfer_lock_contended,
        /// Contended JOIN-memo stripe-lock acquisitions.
        join_lock_contended,
        /// Nanoseconds spent waiting on contended interner stripe locks.
        intern_lock_wait_ns,
        /// Nanoseconds spent waiting on contended subsumption-memo stripe
        /// locks.
        subsume_lock_wait_ns,
        /// Nanoseconds spent waiting on contended transfer-memo stripe
        /// locks.
        transfer_lock_wait_ns,
        /// Nanoseconds spent waiting on contended JOIN-memo stripe locks.
        join_lock_wait_ns,
        /// Recursive-call summary lookups issued (hits + misses).
        summary_queries,
        /// Summary lookups answered from a finalized cache entry.
        summary_hits,
        /// Summary lookups answered from an in-progress (partial) entry at
        /// a recursive call site — the fixpoint iteration's back-edges.
        summary_recursive_hits,
        /// Summary lookups that computed a fresh entry (nested engine run).
        summary_misses,
    }
    gauges {
        /// Distinct canonical forms interned (set at snapshot time).
        interner_size,
        /// Canonical bytes the interner holds, summed over its minted
        /// forms (set at snapshot time).
        interner_bytes,
        /// Memoized subsumption pairs (set at snapshot time).
        cache_size,
        /// Memoized transfer triples (set at snapshot time).
        transfer_cache_size,
        /// Memoized JOIN results (set at snapshot time).
        join_cache_size,
        /// Widest RSRSG (graph count) seen by any insert.
        peak_set_width,
    }
}

impl OpMetrics {
    /// Raise `peak_set_width` to at least `width`.
    pub fn observe_width(&self, width: usize) {
        self.peak_set_width
            .fetch_max(width as u64, Ordering::Relaxed);
    }
}

impl OpStats {
    /// Fraction of subsumption queries answered without the backtracking
    /// search (memo hits + pre-filter rejects); 0.0 when none were issued.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.subsume_queries == 0 {
            return 0.0;
        }
        (self.subsume_cache_hits + self.subsume_prefilter_rejects) as f64
            / self.subsume_queries as f64
    }

    /// Fraction of per-graph transfer queries answered from the transfer
    /// memo; 0.0 when none were issued.
    pub fn transfer_memo_hit_rate(&self) -> f64 {
        if self.transfer_queries == 0 {
            return 0.0;
        }
        self.transfer_memo_hits as f64 / self.transfer_queries as f64
    }

    /// Fraction of summary queries answered from a finalized cache entry;
    /// 0.0 when none were issued.
    pub fn summary_hit_rate(&self) -> f64 {
        if self.summary_queries == 0 {
            return 0.0;
        }
        self.summary_hits as f64 / self.summary_queries as f64
    }

    /// Total nanoseconds spent waiting on contended stripe locks across all
    /// four tables.
    pub fn lock_wait_ns(&self) -> u64 {
        self.intern_lock_wait_ns
            + self.subsume_lock_wait_ns
            + self.transfer_lock_wait_ns
            + self.join_lock_wait_ns
    }

    /// Total contended stripe-lock acquisitions across all four tables.
    pub fn lock_contended(&self) -> u64 {
        self.intern_lock_contended
            + self.subsume_lock_contended
            + self.transfer_lock_contended
            + self.join_lock_contended
    }
}

/// An insertion-ordered registry mapping caller-supplied 64-bit keys to
/// compact dense ids, used for both configuration epochs and statement
/// slots in transfer-memo keys. Ids mint densely in first-seen order.
#[derive(Debug, Default)]
pub struct KeyRegistry {
    map: Mutex<WordMap<u64, u32>>,
}

impl KeyRegistry {
    /// The dense id for `key`, minting the next id for unseen keys.
    pub fn id_for(&self, key: u64) -> u32 {
        let mut map = lock_recover(&self.map);
        let next = map.len() as u32;
        *map.entry(key).or_insert(next)
    }

    /// Number of registered keys.
    pub fn len(&self) -> usize {
        lock_recover(&self.map).len()
    }

    /// True when no key has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One cached interprocedural summary: the exit graphs (as interned
/// canonical ids) a function body produces from one entry graph, plus the
/// soundness flags the caller's memory-safety verdicts must honor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SummaryEntry {
    /// Interned exit graphs at the callee's `return`, deduplicated and
    /// sorted (so fixpoint comparison is order-independent). Empty while a
    /// recursive computation has not yet found a terminating path — the
    /// "bottom" seed of the fixpoint.
    pub exits: Vec<CanonId>,
    /// The nested analysis degraded or stopped on a budget: callers must
    /// clamp this call's verdicts to may-fail, never safe.
    pub degraded: bool,
    /// The callee's own memory report carries a non-safe null-deref /
    /// use-after-free / double-free verdict somewhere in its body.
    pub warned: bool,
    /// The callee may leak cells (its report carries a non-safe leak
    /// verdict, or exit-graph garbage collection dropped cells).
    pub may_leak: bool,
    /// The fixpoint over this entry completed; the entry may be served
    /// across top-level calls. Non-finalized entries are only meaningful
    /// inside the in-progress computation that wrote them.
    pub finalized: bool,
}

/// Per-(function body, configuration epoch, entry graph) summary table for
/// recursive-call analysis, shared across engine runs like the other memo
/// tables. Keys combine a 64-bit body hash (so textually identical bodies
/// from different lowerings share entries), the configuration epoch (level
/// and semantic flags change transfer meaning), and the entry graph's
/// [`CanonId`].
#[derive(Debug, Default)]
pub struct SummaryCache {
    entries: Mutex<WordMap<(u64, u32, CanonId), SummaryEntry>>,
    /// Bumped on every entry change; the outermost fixpoint driver re-runs
    /// until a full round leaves the version untouched.
    version: AtomicU64,
}

impl SummaryCache {
    /// An empty cache.
    pub fn new() -> SummaryCache {
        SummaryCache::default()
    }

    /// The cached entry for a key, if any.
    pub fn get(&self, body: u64, epoch: u32, entry: CanonId) -> Option<SummaryEntry> {
        lock_recover(&self.entries)
            .get(&(body, epoch, entry))
            .cloned()
    }

    /// Store `value`, bumping the version when it differs from the cached
    /// entry. Returns `true` when the entry changed.
    pub fn put(&self, body: u64, epoch: u32, entry: CanonId, value: SummaryEntry) -> bool {
        let mut map = lock_recover(&self.entries);
        let slot = map.entry((body, epoch, entry)).or_default();
        if *slot == value {
            return false;
        }
        *slot = value;
        self.version.fetch_add(1, Ordering::AcqRel);
        true
    }

    /// Remove a **non-finalized** entry — the cleanup path when a summary
    /// computation aborts on a budget and its bottom seed must not linger.
    /// Finalized entries are never removed.
    pub fn remove(&self, body: u64, epoch: u32, entry: CanonId) {
        let mut map = lock_recover(&self.entries);
        if map.get(&(body, epoch, entry)).is_some_and(|e| !e.finalized) {
            map.remove(&(body, epoch, entry));
            self.version.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Mark an entry finalized (fixpoint complete); no-op for absent keys.
    pub fn finalize(&self, body: u64, epoch: u32, entry: CanonId) {
        let mut map = lock_recover(&self.entries);
        if let Some(slot) = map.get_mut(&(body, epoch, entry)) {
            if !slot.finalized {
                slot.finalized = true;
                self.version.fetch_add(1, Ordering::AcqRel);
            }
        }
    }

    /// Current change version.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Number of cached entries for one (body, epoch) — the per-function
    /// entry-cap check.
    pub fn entries_for(&self, body: u64, epoch: u32) -> usize {
        lock_recover(&self.entries)
            .keys()
            .filter(|&&(b, e, _)| b == body && e == epoch)
            .count()
    }

    /// Total cached entries.
    pub fn len(&self) -> usize {
        lock_recover(&self.entries).len()
    }

    /// True when no summary is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The run-wide bundle: interner + subsumption, transfer and JOIN memos +
/// metrics, shared by every RSRSG operation of an analysis via
/// [`crate::ShapeCtx`].
///
/// The *tables* (interner, subsumption memo, transfer memo, JOIN memo,
/// epoch and statement-slot registries) sit behind `Arc`s, while the *observers*
/// (metrics, tracer) are owned per handle. A [`SharedTables::session`]
/// therefore shares every byte of cached state with its parent but counts
/// and traces independently — the isolation the resident analysis daemon
/// needs to serve concurrent requests off one warm table set without one
/// request's counters or events leaking into another's report. Nothing
/// here carries run state: a budget stop is a value the engine returns, so
/// no handle needs a reset between runs.
#[derive(Debug)]
pub struct SharedTables {
    /// Canonical-form interner.
    pub interner: Arc<Interner>,
    /// Subsumption memo: embedding verdicts per `(general, specific)`.
    pub(crate) subsume: Arc<Striped<SubsumeKey, bool>>,
    /// Per-statement transfer memo.
    pub(crate) transfer: Arc<Striped<TransferKey, TransferOutcome>>,
    /// JOIN memo: the interned id of `compress(join(a, b))` per level and
    /// input pair. Ids only, no graphs: the interner already keeps each
    /// output's representative.
    pub(crate) join: Arc<Striped<JoinKey, CanonId>>,
    /// Recursive-call summary table (per function body + epoch + entry
    /// graph). Shared like the other tables.
    pub summaries: Arc<SummaryCache>,
    /// Op-level counters (per handle; see [`SharedTables::session`]).
    pub metrics: OpMetrics,
    /// Run-wide event journal (disabled by default; enabling it never
    /// changes analysis results, only records them). Per handle.
    pub tracer: Tracer,
    cache_enabled: bool,
    /// Registry of configuration epochs: a caller-supplied configuration
    /// key (universe + level + semantic flags) maps to a compact epoch id
    /// used in transfer-memo keys.
    epochs: Arc<KeyRegistry>,
    /// Registry of statement slots: a content key (statement + active
    /// induction pvars) maps to a compact slot id used in transfer-memo
    /// keys, so identical statements share memo entries across functions,
    /// engine runs and daemon requests regardless of where they sit in a
    /// block list.
    slots: Arc<KeyRegistry>,
}

impl Default for SharedTables {
    fn default() -> Self {
        SharedTables::new()
    }
}

impl SharedTables {
    /// Tables with memoization and pre-filtering enabled (the default).
    pub fn new() -> SharedTables {
        SharedTables {
            interner: Arc::new(Interner::new()),
            subsume: Arc::new(Striped::new(LockTable::Subsume)),
            transfer: Arc::new(Striped::new(LockTable::Transfer)),
            join: Arc::new(Striped::new(LockTable::Join)),
            summaries: Arc::new(SummaryCache::new()),
            metrics: OpMetrics::default(),
            tracer: Tracer::new(),
            cache_enabled: true,
            epochs: Arc::new(KeyRegistry::default()),
            slots: Arc::new(KeyRegistry::default()),
        }
    }

    /// A handle sharing this table set's cached state — interner,
    /// subsumption, transfer and JOIN memos, epoch and slot registries — with
    /// fresh, independent observers (metrics, tracer). The daemon takes one
    /// session per request: the request inherits every warm entry, and its
    /// op counters and trace journal start empty.
    pub fn session(&self) -> SharedTables {
        SharedTables {
            interner: self.interner.clone(),
            subsume: self.subsume.clone(),
            transfer: self.transfer.clone(),
            join: self.join.clone(),
            summaries: self.summaries.clone(),
            metrics: OpMetrics::default(),
            tracer: Tracer::new(),
            cache_enabled: self.cache_enabled,
            epochs: self.epochs.clone(),
            slots: self.slots.clone(),
        }
    }

    /// The epoch id for a configuration key, minting a fresh one for keys
    /// never seen by these tables. Transfer-memo entries are keyed by
    /// epoch, so two engine configurations with different transfer
    /// semantics (level, sharing flags) sharing one table set never read
    /// each other's entries, while identical configurations (e.g. repeated
    /// runs at one level) share everything.
    pub fn epoch_for(&self, config_key: u64) -> u32 {
        self.epochs.id_for(config_key)
    }

    /// The statement-slot id for a statement content key (see the engine's
    /// per-statement key derivation), minting a fresh one for unseen keys.
    /// Identical statements — same operation, operand pvars/selectors and
    /// active induction pvars — share one slot, so their memoized transfers
    /// are shared across functions and across engine runs on the same table
    /// set, such as the daemon's successive requests.
    pub fn stmt_slot_for(&self, content_key: u64) -> u32 {
        self.slots.id_for(content_key)
    }

    /// Tables that intern (storage still needs ids) but answer every
    /// subsumption query with the raw backtracking search and consult none
    /// of the memos — the reference behaviour the differential regression
    /// suite compares against.
    pub fn without_cache() -> SharedTables {
        SharedTables {
            cache_enabled: false,
            ..SharedTables::new()
        }
    }

    /// Is memoization/pre-filtering active?
    pub fn cache_enabled(&self) -> bool {
        self.cache_enabled
    }

    /// Intern a graph: serialize it to canonical form, return the existing
    /// entry or mint a fresh id, counting the hit or miss in these tables'
    /// metrics and journaling a canon span and a hit/miss instant into
    /// their tracer when it is enabled.
    pub fn intern(&self, g: &Arc<Rsg>) -> CanonEntry {
        let t0 = self.tracer.enabled().then(Instant::now);
        let bytes = canonical_bytes(g);
        self.tracer
            .span_since(TraceKind::Canon, t0, bytes.len() as u64, 1);
        let hash = word_hash(&bytes);
        self.interner
            .intern_with_bytes(g, bytes, hash, &self.metrics, &self.tracer)
    }

    /// The memoized verdict of `subsumes(general, specific)`, if any.
    pub fn subsume_lookup(&self, general: CanonId, specific: CanonId) -> Option<bool> {
        let k = (general, specific);
        self.subsume
            .lock(subsume_key_hash(&k), &self.metrics, &self.tracer)
            .get(&k)
            .copied()
    }

    /// Record the verdict of `subsumes(general, specific)`.
    pub fn subsume_store(&self, general: CanonId, specific: CanonId, value: bool) {
        let k = (general, specific);
        self.subsume
            .lock(subsume_key_hash(&k), &self.metrics, &self.tracer)
            .insert(k, value);
    }

    /// The memoized outcome of transferring `input` through statement slot
    /// `stmt` under configuration `epoch`, if any. The stripe lock is
    /// released before the caller resolves the ids.
    pub fn transfer_lookup(
        &self,
        epoch: u32,
        stmt: u32,
        input: CanonId,
    ) -> Option<TransferOutcome> {
        let k = (epoch, stmt, input);
        self.transfer
            .lock(transfer_key_hash(&k), &self.metrics, &self.tracer)
            .get(&k)
            .cloned()
    }

    /// Record the outcome of transferring `input` through statement slot
    /// `stmt` under configuration `epoch`.
    pub fn transfer_store(&self, epoch: u32, stmt: u32, input: CanonId, outcome: TransferOutcome) {
        let k = (epoch, stmt, input);
        self.transfer
            .lock(transfer_key_hash(&k), &self.metrics, &self.tracer)
            .insert(k, outcome);
    }

    /// The memoized id of `compress(join(a, b))` at `level`, if any.
    pub fn join_lookup(&self, level: Level, a: CanonId, b: CanonId) -> Option<CanonId> {
        let k = (level, a, b);
        self.join
            .lock(join_key_hash(&k), &self.metrics, &self.tracer)
            .get(&k)
            .copied()
    }

    /// Record the interned id of `compress(join(a, b))` at `level`.
    pub fn join_store(&self, level: Level, a: CanonId, b: CanonId, out: CanonId) {
        let k = (level, a, b);
        self.join
            .lock(join_key_hash(&k), &self.metrics, &self.tracer)
            .insert(k, out);
    }

    /// `subsumes(general, specific)` through the pinned-node stage and the
    /// memo table. With the cache disabled (the engine's reference oracle)
    /// this is exactly the raw search (plus counters), which is what makes
    /// default and reference runs comparable bit-for-bit.
    ///
    /// Query order: the pinned-node stage of [`subsumes`] → memo lookup →
    /// its embedding stage, whose verdict is stored. The caller has already
    /// narrowed the query to the candidate's pinning group (equal
    /// [`CanonEntry::pin_hash`]). A pinned-stage reject counts as
    /// `subsume_prefilter_rejects` and is never stored, so the common case
    /// resolves without touching a stripe lock and the memo holds embedding
    /// verdicts only. The pinned stage is a pure function of the pair's
    /// canonical forms, so a memo hit still answers the whole query.
    ///
    /// The `Subsume` trace span covers the embedding *searches* only:
    /// pre-filter rejects and memo hits resolve with counter bumps alone,
    /// which matters at the several hundred thousand queries a large run
    /// issues. Untraced, a search reads no clock either.
    pub fn subsumes_interned(
        &self,
        general: (&CanonEntry, &Rsg),
        specific: (&CanonEntry, &Rsg),
    ) -> bool {
        let m = &self.metrics;
        m.subsume_queries.fetch_add(1, Ordering::Relaxed);
        if self.cache_enabled {
            if !pinned_stage(general.1, specific.1) {
                m.subsume_prefilter_rejects.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            if let Some(hit) = self.subsume_lookup(general.0.id, specific.0.id) {
                m.subsume_cache_hits.fetch_add(1, Ordering::Relaxed);
                return hit;
            }
        }
        m.subsume_searches.fetch_add(1, Ordering::Relaxed);
        let t0 = self.tracer.enabled().then(Instant::now);
        let result = if self.cache_enabled {
            embedding_stage(general.1, specific.1)
        } else {
            subsumes(general.1, specific.1)
        };
        self.tracer.span_since(
            TraceKind::Subsume,
            t0,
            general.0.id.0 as u64,
            specific.0.id.0 as u64,
        );
        if self.cache_enabled {
            self.subsume_store(general.0.id, specific.0.id, result);
        }
        result
    }

    /// Snapshot every counter, refreshing the table-size gauges first.
    pub fn snapshot(&self) -> OpStats {
        self.metrics
            .interner_size
            .store(self.interner.len() as u64, Ordering::Relaxed);
        self.metrics
            .interner_bytes
            .store(self.interner.bytes() as u64, Ordering::Relaxed);
        self.metrics
            .cache_size
            .store(self.subsume.len() as u64, Ordering::Relaxed);
        self.metrics
            .transfer_cache_size
            .store(self.transfer.len() as u64, Ordering::Relaxed);
        self.metrics
            .join_cache_size
            .store(self.join.len() as u64, Ordering::Relaxed);
        self.metrics.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;
    use psa_cfront::types::SelectorId;
    use psa_ir::PvarId;

    fn sll(n: usize) -> Arc<Rsg> {
        Arc::new(builder::singly_linked_list(n, 2, PvarId(0), SelectorId(0)))
    }

    #[test]
    fn interning_dedups_isomorphic_graphs() {
        let t = SharedTables::new();
        let a = t.intern(&sll(3));
        let b = t.intern(&sll(3));
        let c = t.intern(&sll(4));
        assert_eq!(a.id, b.id);
        assert_ne!(a.id, c.id);
        assert_eq!(t.interner.len(), 2);
        assert_eq!(a, b);
        let snap = t.snapshot();
        assert_eq!(snap.intern_hits, 1);
        assert_eq!(snap.intern_misses, 2);
        assert_eq!(snap.interner_size, 2);
        let held = canonical_bytes(&sll(3)).len() + canonical_bytes(&sll(4)).len();
        assert_eq!(snap.interner_bytes, held as u64, "one copy per minted form");
        assert_eq!(t.interner.bytes(), held);
    }

    #[test]
    fn equal_hashes_keep_distinct_forms_apart() {
        // Two non-isomorphic graphs filed under one forced hash share a
        // stripe and an index key: the lookup compares bytes along the
        // chain, so each graph keeps its own id and re-interning hits it.
        let t = SharedTables::new();
        let intern = |g: &Arc<Rsg>| {
            t.interner
                .intern_with_bytes(g, canonical_bytes(g), 42, &t.metrics, &t.tracer)
        };
        let (a, b) = (sll(3), sll(4));
        assert_ne!(canonical_bytes(&a), canonical_bytes(&b));
        let (ea, eb) = (intern(&a), intern(&b));
        assert_ne!(ea.id, eb.id);
        assert_eq!(intern(&sll(3)), ea, "the older form, behind the newest");
        assert_eq!(intern(&sll(4)), eb, "the newest form, at the chain head");
        let snap = t.snapshot();
        assert_eq!((snap.intern_misses, snap.intern_hits), (2, 2));
        assert_eq!(t.interner.len(), 2);
    }

    #[test]
    fn interner_resolution_is_lock_free_under_shard_lock() {
        // Resolving an id while every stripe lock is held must not
        // deadlock: id → entry goes through the slab, never the maps.
        let t = SharedTables::new();
        let e = t.intern(&sll(3));
        let guards: Vec<_> = t.interner.index.stripes.iter().map(lock_recover).collect();
        assert_eq!(t.interner.entry(e.id), e);
        let (entry, _g) = t.interner.resolve(e.id);
        assert_eq!(entry, e);
        assert_eq!(t.interner.len(), 1, "len() is slab-backed, lock-free");
        drop(guards);
    }

    #[test]
    fn traced_interning_attributes_hits_and_misses() {
        use crate::trace::TraceKind;
        let t = SharedTables::new();
        t.tracer.enable();
        let a = t.intern(&sll(3));
        let b = t.intern(&sll(3));
        assert_eq!(a.id, b.id);
        let events = t.tracer.drain();
        let misses: Vec<_> = events
            .iter()
            .filter(|e| e.kind == TraceKind::InternMiss)
            .collect();
        let hits: Vec<_> = events
            .iter()
            .filter(|e| e.kind == TraceKind::InternHit)
            .collect();
        assert_eq!(misses.len(), 1);
        assert_eq!(hits.len(), 1);
        assert_eq!(misses[0].arg, a.id.0 as u64);
        assert_eq!(hits[0].arg, a.id.0 as u64);
        // Each intern also timed its canonical encoding: one graph each.
        let canon: Vec<_> = events
            .iter()
            .filter(|e| e.kind == TraceKind::Canon)
            .collect();
        assert_eq!(canon.len(), 2);
        let len = canonical_bytes(&sll(3)).len() as u64;
        assert!(canon.iter().all(|e| e.arg == len && e.arg2 == 1));
    }

    #[test]
    fn entry_keys_are_the_pinning_signature() {
        let t = SharedTables::new();
        let g = sll(5);
        let e = t.intern(&g);
        let sig = PinSignature::of(&g);
        assert_eq!((e.pin_hash, e.sig_key), (sig.pin_hash, sig.sig_key()));
        assert!(e.may_be_compatible(&e));
        // Different domains: different pinning groups, and subsumption
        // agrees that neither graph covers the other.
        let a = builder::singly_linked_list(3, 2, PvarId(0), SelectorId(0));
        let b = builder::singly_linked_list(3, 2, PvarId(1), SelectorId(0));
        let (ea, eb) = (
            t.intern(&Arc::new(a.clone())),
            t.intern(&Arc::new(b.clone())),
        );
        assert_ne!(ea.pin_hash, eb.pin_hash);
        assert!(!ea.may_be_compatible(&eb));
        assert!(!subsumes(&a, &b) && !subsumes(&b, &a));
    }

    #[test]
    fn true_subsumption_stays_in_its_pinning_group() {
        use crate::compress::compress;
        use crate::{Level, ShapeCtx};
        let ctx = ShapeCtx::synthetic(2, 2);
        for n in [1usize, 2, 3, 5, 8] {
            let g = sll(n);
            let c = compress((*g).clone(), &ctx, Level::L1);
            if subsumes(&c, &g) {
                assert_eq!(
                    PinSignature::of(&c).pin_hash,
                    PinSignature::of(&g).pin_hash,
                    "a true subsumption left its pinning group (n = {n})"
                );
            }
        }
    }

    #[test]
    fn subsume_cache_memoizes() {
        let t = SharedTables::new();
        let g = sll(3);
        let e = t.intern(&g);
        assert!(t.subsumes_interned((&e, &g), (&e, &g)));
        assert_eq!(t.subsume_lookup(e.id, e.id), Some(true));
        // Second query: a memo hit, no new search.
        assert!(t.subsumes_interned((&e, &g), (&e, &g)));
        let s = t.snapshot();
        assert_eq!(s.subsume_queries, 2);
        assert_eq!(s.subsume_searches, 1);
        assert_eq!(s.subsume_cache_hits, 1);
        assert!(s.cache_hit_rate() > 0.0);
    }

    #[test]
    fn pinned_stage_rejects_before_the_memo() {
        // The pinning group leaves out SHSEL on a pinned node, so this pair
        // shares one; the pinned-node stage rejects it, counts a pre-filter
        // reject and stores nothing.
        let t = SharedTables::new();
        let general = sll(3);
        let mut specific = (*general).clone();
        let head = specific.pl(PvarId(0)).unwrap();
        specific.node_mut(head).shsel.insert(SelectorId(0));
        let specific = Arc::new(specific);
        let (eg, es) = (t.intern(&general), t.intern(&specific));
        assert_eq!(eg.pin_hash, es.pin_hash);
        assert!(!t.subsumes_interned((&eg, &general), (&es, &specific)));
        assert!(!subsumes(&general, &specific));
        let s = t.snapshot();
        assert_eq!(s.subsume_prefilter_rejects, 1);
        assert_eq!(s.subsume_searches, 0);
        assert_eq!(s.cache_size, 0);
    }

    #[test]
    fn disabled_cache_always_searches() {
        let t = SharedTables::without_cache();
        assert!(!t.cache_enabled());
        let g = sll(3);
        let e = t.intern(&g);
        assert!(t.subsumes_interned((&e, &g), (&e, &g)));
        assert!(t.subsumes_interned((&e, &g), (&e, &g)));
        let s = t.snapshot();
        assert_eq!(s.subsume_searches, 2);
        assert_eq!(s.subsume_cache_hits, 0);
        assert_eq!(s.cache_size, 0);
    }

    #[test]
    fn interner_resolves_ids_to_graphs() {
        let t = SharedTables::new();
        let g = sll(4);
        let e = t.intern(&g);
        let (entry, graph) = t.interner.resolve(e.id);
        assert!(
            Arc::ptr_eq(&graph, &g),
            "the minting graph is shared, not copied"
        );
        assert_eq!(entry, e);
        assert_eq!(canonical_bytes(&graph), canonical_bytes(&g));
    }

    #[test]
    fn transfer_cache_roundtrip() {
        let t = SharedTables::new();
        let g = sll(3);
        let e = t.intern(&g);
        assert!(t.transfer_lookup(0, 7, e.id).is_none());
        t.transfer_store(
            0,
            8,
            e.id,
            TransferOutcome::new(vec![e.id].into(), vec![], vec![]),
        );
        let quiet = t.transfer_lookup(0, 8, e.id).unwrap();
        assert_eq!(&quiet.outs[..], &[e.id]);
        assert!(
            quiet.diagnostics.is_none(),
            "no diagnostics, no second allocation"
        );
        assert!(quiet.warnings().is_empty() && quiet.revisits().is_empty());
        let outcome = TransferOutcome::new(vec![e.id].into(), vec!["w".into()], vec![PvarId(0)]);
        t.transfer_store(0, 7, e.id, outcome);
        let hit = t.transfer_lookup(0, 7, e.id).unwrap();
        assert_eq!(&hit.outs[..], &[e.id]);
        assert_eq!(hit.warnings(), ["w".to_string()]);
        assert_eq!(hit.revisits(), [PvarId(0)]);
        // Other epochs and statements do not alias.
        assert!(t.transfer_lookup(1, 7, e.id).is_none());
        assert!(t.transfer_lookup(0, 9, e.id).is_none());
        let snap = t.snapshot();
        assert_eq!(snap.transfer_cache_size, 2);
        // Uncontended single-thread use never records lock waits.
        assert_eq!(snap.lock_wait_ns(), 0);
        assert_eq!(snap.lock_contended(), 0);
    }

    /// Hold every stripe of `striped` on this thread while a second thread
    /// runs `access`, then release them. The barrier only says the second
    /// thread has started; nothing observable marks the moment it blocks
    /// on a stripe, so the hold lasts long enough for it to get there, and
    /// a stalled machine that let `access` through uncontended gets one
    /// more try with a longer hold.
    fn contend<K: Eq + Hash, V>(
        t: &SharedTables,
        striped: &Striped<K, V>,
        access: impl Fn() + Sync,
    ) {
        for hold_ms in [50, 1000] {
            let held: Vec<_> = striped.stripes.iter().map(lock_recover).collect();
            let started = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                let worker = s.spawn(|| {
                    started.wait();
                    access();
                });
                started.wait();
                std::thread::sleep(std::time::Duration::from_millis(hold_ms));
                drop(held);
                worker.join().expect("access thread panicked");
            });
            if t.metrics.snapshot().lock_contended() > 0 {
                return;
            }
        }
    }

    /// Exactly `table`'s counters and one `LockWait` event with its code
    /// record the contended access; the other tables record nothing.
    fn assert_only_contended(t: &SharedTables, table: LockTable) {
        let s = t.snapshot();
        for (which, contended, wait_ns) in [
            (
                LockTable::Intern,
                s.intern_lock_contended,
                s.intern_lock_wait_ns,
            ),
            (
                LockTable::Subsume,
                s.subsume_lock_contended,
                s.subsume_lock_wait_ns,
            ),
            (
                LockTable::Transfer,
                s.transfer_lock_contended,
                s.transfer_lock_wait_ns,
            ),
            (LockTable::Join, s.join_lock_contended, s.join_lock_wait_ns),
        ] {
            if which == table {
                assert_eq!(contended, 1, "{which:?} contended acquisitions");
                assert!(wait_ns > 0, "{which:?} wait must be timed");
            } else {
                assert_eq!((contended, wait_ns), (0, 0), "{which:?} untouched");
            }
        }
        let waits: Vec<u64> = t
            .tracer
            .drain()
            .iter()
            .filter(|e| e.kind == TraceKind::LockWait)
            .map(|e| e.arg)
            .collect();
        assert_eq!(waits, vec![table as u64]);
    }

    #[test]
    fn contended_interner_lock_is_accounted() {
        let t = SharedTables::new();
        t.tracer.enable();
        let g = sll(3);
        contend(&t, &t.interner.index, || {
            t.intern(&g);
        });
        assert_only_contended(&t, LockTable::Intern);
    }

    #[test]
    fn contended_subsume_lock_is_accounted() {
        let t = SharedTables::new();
        t.tracer.enable();
        let e = t.intern(&sll(3));
        contend(&t, &t.subsume, || {
            t.subsume_lookup(e.id, e.id);
        });
        assert_only_contended(&t, LockTable::Subsume);
    }

    #[test]
    fn contended_transfer_lock_is_accounted() {
        let t = SharedTables::new();
        t.tracer.enable();
        let e = t.intern(&sll(3));
        contend(&t, &t.transfer, || {
            t.transfer_lookup(0, 0, e.id);
        });
        assert_only_contended(&t, LockTable::Transfer);
    }

    #[test]
    fn contended_join_lock_is_accounted() {
        let t = SharedTables::new();
        t.tracer.enable();
        let e = t.intern(&sll(3));
        contend(&t, &t.join, || {
            t.join_lookup(Level::L1, e.id, e.id);
        });
        assert_only_contended(&t, LockTable::Join);
    }

    #[test]
    fn join_memo_roundtrip() {
        let t = SharedTables::new();
        let (a, b) = (t.intern(&sll(2)).id, t.intern(&sll(3)).id);
        assert_eq!(t.join_lookup(Level::L1, a, b), None);
        t.join_store(Level::L1, a, b, b);
        assert_eq!(t.join_lookup(Level::L1, a, b), Some(b));
        // Argument order and level are part of the key.
        assert_eq!(t.join_lookup(Level::L1, b, a), None);
        assert_eq!(t.join_lookup(Level::L2, a, b), None);
        assert_eq!(t.snapshot().join_cache_size, 1);
        // Sessions share the memo.
        assert_eq!(t.session().join_lookup(Level::L1, a, b), Some(b));
    }

    #[test]
    fn sharded_tables_dedup_across_threads() {
        // Hammer one shared graph (plus distinct per-thread graphs) from
        // several threads: every thread must agree on the id of the shared
        // form, and len() must count distinct forms exactly once.
        let t = Arc::new(SharedTables::new());
        let mut handles = Vec::new();
        for k in 0..4u32 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                let shared = t.intern(&sll(3)).id;
                let own = t.intern(&sll(4 + k as usize)).id;
                (shared, own)
            }));
        }
        let results: Vec<(CanonId, CanonId)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        let first = results[0].0;
        assert!(results.iter().all(|(s, _)| *s == first));
        let mut owns: Vec<CanonId> = results.iter().map(|(_, o)| *o).collect();
        owns.sort();
        owns.dedup();
        assert_eq!(owns.len(), 4, "distinct graphs mint distinct ids");
        assert_eq!(t.interner.len(), 5);
        // Every minted id resolves lock-free.
        for (s, o) in &results {
            let _ = t.interner.resolve(*s);
            let _ = t.interner.resolve(*o);
        }
    }

    #[test]
    fn epochs_are_stable_per_key() {
        let t = SharedTables::new();
        let a = t.epoch_for(10);
        let b = t.epoch_for(20);
        assert_ne!(a, b);
        assert_eq!(t.epoch_for(10), a);
        assert_eq!(t.epoch_for(20), b);
    }

    #[test]
    fn stmt_slots_mint_densely_and_stay_stable() {
        let t = SharedTables::new();
        assert_eq!(t.stmt_slot_for(0xdead), 0);
        assert_eq!(t.stmt_slot_for(0xbeef), 1);
        assert_eq!(t.stmt_slot_for(0xdead), 0, "stable per key");
    }

    #[test]
    fn sessions_share_tables_but_not_observers() {
        let base = SharedTables::new();
        let e = base.intern(&sll(3));
        let epoch = base.epoch_for(42);
        let s = base.session();
        // Cached state is shared: the same graph hits, the same key maps
        // to the same epoch, and memo stores are visible both ways.
        assert_eq!(s.intern(&sll(3)).id, e.id);
        assert_eq!(s.epoch_for(42), epoch);
        s.transfer_store(epoch, 0, e.id, TransferOutcome::default());
        assert!(base.transfer_lookup(epoch, 0, e.id).is_some());
        // Observers are not: the session's metrics started at zero.
        assert_eq!(s.metrics.snapshot().intern_misses, 0);
        assert_eq!(s.metrics.snapshot().intern_hits, 1);
        assert_eq!(base.metrics.snapshot().intern_misses, 1);
    }

    #[test]
    fn op_stats_accumulate_sums_counters_maxes_gauges() {
        let a = OpStats {
            intern_hits: 3,
            interner_size: 10,
            peak_set_width: 4,
            ..Default::default()
        };
        let b = OpStats {
            intern_hits: 2,
            interner_size: 12,
            peak_set_width: 2,
            ..Default::default()
        };
        let c = a.accumulate(&b);
        assert_eq!(c.intern_hits, 5);
        assert_eq!(c.interner_size, 12);
        assert_eq!(c.peak_set_width, 4);
    }

    #[test]
    fn snapshot_delta_subtracts_counters_keeps_gauges() {
        let t = SharedTables::new();
        let g = sll(2);
        let e = t.intern(&g);
        let first = t.snapshot();
        let _ = t.subsumes_interned((&e, &g), (&e, &g));
        t.metrics.observe_width(7);
        let second = t.snapshot();
        let d = second.delta(&first);
        assert_eq!(d.subsume_queries, 1);
        assert_eq!(d.interner_size, 1, "gauge comes from the later snapshot");
        assert_eq!(d.peak_set_width, 7);
    }
}
