//! Lock-cheap event journal for run-wide tracing.
//!
//! The journal records fixed-size [`TraceEvent`]s — spans for statement
//! transfers and kernel calls (JOIN/COMPRESS/DIVIDE/PRUNE/canon/subsume),
//! instants for cache hits vs. misses, worklist iterations, and
//! budget/degradation events — tagged with the recording thread's track
//! id, which the Chrome export turns into one timeline per thread. No
//! strings are built on the hot path: events carry two `u64` arguments
//! whose meaning is resolved at export time from the [`TraceKind`].
//!
//! Overhead discipline: when disabled (the default) every recording hook
//! is a single relaxed atomic load and an early return, so analysis
//! outputs stay bit-identical with tracing compiled in. Span sites take
//! their start as `tracer.enabled().then(Instant::now)`, so an untraced
//! kernel call reads no clock at all. When enabled, events go to one
//! `Mutex<Vec<_>>` buffer. Each analysis records from one thread (a serve
//! request records into its own [`crate::SharedTables::session`] tracer),
//! so the lock is never contended.

use crate::intern::lock_recover;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What an event records. Spans (`dur_ns > 0`) time an operation; instants
/// (`dur_ns == 0`) mark a point occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TraceKind {
    /// One engine fixpoint run (per level). `arg` = level ordinal (1-3).
    Run,
    /// A progressive driver level boundary. `arg` = level ordinal (1-3).
    LevelStart,
    /// One statement transfer. `arg` = statement id, `arg2` = input
    /// RSRSG width (graph count).
    StmtTransfer,
    /// One worklist block visit. `arg` = block id, `arg2` = iteration.
    WorklistIter,
    /// A JOIN kernel call. `arg` = statement id when known.
    Join,
    /// A COMPRESS kernel call. `arg` = statement id when known, else 0.
    Compress,
    /// A DIVIDE kernel call. `arg` = statement id.
    Divide,
    /// A PRUNE kernel call. `arg` = statement id.
    Prune,
    /// Canonical-byte encoding inside interning, one span per intern call.
    /// `arg` = encoded bytes, `arg2` = graphs encoded (always 1).
    Canon,
    /// A subsumption query (pre-filter, memo or search). `arg` = general
    /// [`crate::CanonId`], `arg2` = specific id.
    Subsume,
    /// Interner lookup found an existing canonical form. `arg` = id.
    InternHit,
    /// Interner lookup minted a fresh canonical form. `arg` = id.
    InternMiss,
    /// Per-graph transfer answered from the memo table. `arg` = statement
    /// id, `arg2` = input id.
    TransferMemoHit,
    /// Per-graph transfer computed cold. `arg` = statement id, `arg2` =
    /// input id.
    TransferMemoMiss,
    /// A forced summarization round under the node budget. `arg` =
    /// statement id.
    ForceCompress,
    /// The [`crate::CancelToken`] was raised. `arg` = cause code
    /// ([`crate::intern::CancelCause::code`]).
    Cancel,
    /// A contended stripe-lock acquisition on a shared table. `arg` = table
    /// code (`0` interner, `1` subsumption memo, `2` transfer memo — the
    /// discriminant of [`crate::intern::LockTable`]), `arg2` = nanoseconds
    /// waited.
    LockWait,
}

impl TraceKind {
    /// Short event name for exports and summaries.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Run => "run",
            TraceKind::LevelStart => "level",
            TraceKind::StmtTransfer => "stmt",
            TraceKind::WorklistIter => "worklist",
            TraceKind::Join => "join",
            TraceKind::Compress => "compress",
            TraceKind::Divide => "divide",
            TraceKind::Prune => "prune",
            TraceKind::Canon => "canon",
            TraceKind::Subsume => "subsume",
            TraceKind::InternHit => "intern_hit",
            TraceKind::InternMiss => "intern_miss",
            TraceKind::TransferMemoHit => "memo_hit",
            TraceKind::TransferMemoMiss => "memo_miss",
            TraceKind::ForceCompress => "force_compress",
            TraceKind::Cancel => "cancel",
            TraceKind::LockWait => "lock_wait",
        }
    }

    /// Chrome-trace category, used for filtering in the viewer.
    pub fn category(self) -> &'static str {
        match self {
            TraceKind::Run | TraceKind::LevelStart => "level",
            TraceKind::StmtTransfer => "stmt",
            TraceKind::WorklistIter => "worklist",
            TraceKind::Join
            | TraceKind::Compress
            | TraceKind::Divide
            | TraceKind::Prune
            | TraceKind::Canon
            | TraceKind::Subsume => "kernel",
            TraceKind::InternHit
            | TraceKind::InternMiss
            | TraceKind::TransferMemoHit
            | TraceKind::TransferMemoMiss
            | TraceKind::LockWait => "cache",
            TraceKind::ForceCompress | TraceKind::Cancel => "budget",
        }
    }
}

/// One recorded event. Fixed-size and `Copy` so recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: TraceKind,
    /// Start time in nanoseconds since the tracer's base instant.
    pub ts_ns: u64,
    /// Span duration in nanoseconds; `0` marks an instant event.
    pub dur_ns: u64,
    /// Track id of the recording thread (dense, starts at 0 for the first
    /// thread that ever records).
    pub tid: u32,
    /// Kind-specific argument (see [`TraceKind`] docs).
    pub arg: u64,
    /// Second kind-specific argument.
    pub arg2: u64,
}

/// Process-wide track-id allocator. Ids only label tracks in the exported
/// trace, so monotonically growing across runs is harmless.
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static TRACK_ID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// The current thread's trace track id.
pub fn track_id() -> u32 {
    TRACK_ID.with(|t| *t)
}

/// The event journal. Carried by [`crate::SharedTables`] so every layer —
/// interner, RSRSG kernels, engine worklist, the progressive driver —
/// records into one run-wide timeline.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    base: Instant,
    events: Mutex<Vec<TraceEvent>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A disabled tracer (recording hooks cost one atomic load).
    pub fn new() -> Tracer {
        Tracer {
            enabled: AtomicBool::new(false),
            base: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Is recording active?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Start recording.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Stop recording (already-buffered events are kept).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    fn push(&self, ev: TraceEvent) {
        lock_recover(&self.events).push(ev);
    }

    /// Record an instant event. No-op while disabled.
    #[inline]
    pub fn instant(&self, kind: TraceKind, arg: u64, arg2: u64) {
        if !self.enabled() {
            return;
        }
        self.push(TraceEvent {
            kind,
            ts_ns: self.base.elapsed().as_nanos() as u64,
            dur_ns: 0,
            tid: track_id(),
            arg,
            arg2,
        });
    }

    /// Record a span that started at `t0` and ends now. Sites take `t0` as
    /// `tracer.enabled().then(Instant::now)`: `None` (tracing was off when
    /// the operation started) records nothing, so an untraced site reads
    /// the clock neither at its start nor here. No-op while disabled.
    #[inline]
    pub fn span_since(&self, kind: TraceKind, t0: Option<Instant>, arg: u64, arg2: u64) {
        let Some(t0) = t0.filter(|_| self.enabled()) else {
            return;
        };
        let dur = t0.elapsed().as_nanos() as u64;
        self.push(TraceEvent {
            kind,
            ts_ns: t0.saturating_duration_since(self.base).as_nanos() as u64,
            // Chrome-trace viewers drop zero-duration complete events;
            // clamp spans to one nanosecond so every span survives export.
            dur_ns: dur.max(1),
            tid: track_id(),
            arg,
            arg2,
        });
    }

    /// Take every buffered event, sorted by start time (ties broken by
    /// track id): a span is recorded when it ends, after the spans it
    /// encloses. The buffer is left empty.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut all = std::mem::take(&mut *lock_recover(&self.events));
        all.sort_by_key(|e| (e.ts_ns, e.tid, e.kind));
        all
    }

    /// Discard every buffered event without disabling recording.
    pub fn clear(&self) {
        lock_recover(&self.events).clear();
    }

    /// Total buffered events.
    pub fn len(&self) -> usize {
        lock_recover(&self.events).len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        assert!(!t.enabled());
        t.instant(TraceKind::Cancel, 1, 0);
        t.span_since(TraceKind::Join, Some(Instant::now()), 0, 0);
        assert!(t.is_empty());
        assert!(t.drain().is_empty());
    }

    #[test]
    fn enabled_tracer_buffers_and_drains_sorted() {
        let t = Tracer::new();
        t.enable();
        let t0 = t.enabled().then(Instant::now);
        t.instant(TraceKind::InternMiss, 42, 0);
        t.span_since(TraceKind::StmtTransfer, t0, 7, 3);
        // A span whose start was taken while tracing was off records nothing.
        t.span_since(TraceKind::Join, None, 0, 0);
        assert_eq!(t.len(), 2);
        let events = t.drain();
        assert!(t.is_empty());
        assert_eq!(events.len(), 2);
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        let span = events
            .iter()
            .find(|e| e.kind == TraceKind::StmtTransfer)
            .unwrap();
        assert!(span.dur_ns >= 1, "spans are clamped to >= 1ns");
        assert_eq!(span.arg, 7);
        assert_eq!(span.arg2, 3);
        let inst = events
            .iter()
            .find(|e| e.kind == TraceKind::InternMiss)
            .unwrap();
        assert_eq!(inst.dur_ns, 0);
        assert_eq!(inst.arg, 42);
    }

    #[test]
    fn threads_get_distinct_track_ids() {
        let main = track_id();
        let other = std::thread::spawn(track_id).join().unwrap();
        assert_ne!(main, other);
    }

    #[test]
    fn clear_keeps_recording_on() {
        let t = Tracer::new();
        t.enable();
        t.instant(TraceKind::Cancel, 0, 0);
        t.clear();
        assert!(t.is_empty());
        assert!(t.enabled());
        t.instant(TraceKind::Cancel, 0, 0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn kinds_have_names_and_categories() {
        for k in [
            TraceKind::Run,
            TraceKind::LevelStart,
            TraceKind::StmtTransfer,
            TraceKind::WorklistIter,
            TraceKind::Join,
            TraceKind::Compress,
            TraceKind::Divide,
            TraceKind::Prune,
            TraceKind::Canon,
            TraceKind::Subsume,
            TraceKind::InternHit,
            TraceKind::InternMiss,
            TraceKind::TransferMemoHit,
            TraceKind::TransferMemoMiss,
            TraceKind::ForceCompress,
            TraceKind::Cancel,
            TraceKind::LockWait,
        ] {
            assert!(!k.name().is_empty());
            assert!(!k.category().is_empty());
        }
    }
}
