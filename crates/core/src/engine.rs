//! Symbolic execution to a fixed point (§2, Fig. 2).
//!
//! A worklist iterates over CFG blocks. A block's input RSRSG is the
//! accumulated union of its incoming edge contributions — each predecessor's
//! output refined by the branch condition of that edge, stripped of the
//! TOUCH marks of any loops the edge exits and marked for any loops it
//! enters. Accumulation makes the iteration monotone in a finite lattice
//! (node properties range over finite sets and COMPRESS keeps member graphs
//! pairwise-incompatible), so the fixed point is reached; a configurable
//! iteration budget guards the implementation anyway.
//!
//! The engine stores the RSRSG *after every statement* — the paper's
//! "RSRSG associated with each sentence" — plus timing and structural-byte
//! accounting for the Table 1 harness. Every run — including the
//! progressive driver's, when it reuses one [`ShapeCtx`] — shares the
//! run-wide interner and the subsumption, transfer and JOIN memos of
//! [`psa_rsg::intern::SharedTables`].
//!
//! The fixpoint itself is incremental (see DESIGN.md §6): per-graph
//! transfers — statements and loop-edge edits alike — are memoized by
//! `(config-epoch, slot, CanonId)`, statements whose input only grew by
//! appends re-transfer just the delta, and all
//! per-point state (`after_stmt`/`block_in`/`block_out`) lives as vectors
//! of interned [`CanonId`]s during the run — the per-statement deep
//! `clone()` of the whole RSRSG is gone, and structural-byte accounting is
//! maintained incrementally instead of rescanned every iteration. A run on
//! [`psa_rsg::intern::SharedTables::without_cache`] tables swaps all of
//! that for the sequential recompute-everything reference oracle the
//! differential tests compare against.

use crate::rsrsg::Rsrsg;
use crate::semantics::{
    refine_by_cond, transfer_one_cached, transfer_rsrsg, GraphAction, TransferCtx,
};
use crate::stats::{AnalysisStats, Budget};
use psa_ir::{BlockId, Cond, FuncIr, Stmt, StmtId, Terminator};
use psa_rsg::intern::CanonId;
use psa_rsg::trace::TraceKind;
use psa_rsg::{Level, ShapeCtx};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Soft cap on graphs per RSRSG before the widening join kicks in
/// (force-joining graphs with equal widening signatures). Keeps the
/// analysis practicable on codes whose control flow fragments the RSRSG;
/// see [`Rsrsg::widen`].
const WIDEN_CAP: usize = 12;

/// Block visits before a run gives up with [`BudgetKind::Iterations`]: a
/// non-convergence safety net (the property space is finite, so it should
/// never trip).
const MAX_ITERATIONS: usize = 100_000;

/// Graphs in one RSRSG (a statement's output, a block's input after
/// widening, or the exit set) before a run gives up with
/// [`BudgetKind::Graphs`]. The widening ([`WIDEN_CAP`]) joins only members
/// with equal pinning signatures, so only members that differ in them
/// accumulate this far.
const MAX_GRAPHS: usize = 512;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Compilation level (progressive analysis stage).
    pub level: Level,
    /// Resource budget.
    pub budget: Budget,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            level: Level::L1,
            budget: Budget::default(),
        }
    }
}

impl EngineConfig {
    /// Config for a specific level with defaults otherwise.
    pub fn at_level(level: Level) -> EngineConfig {
        EngineConfig {
            level,
            ..Default::default()
        }
    }
}

/// Which budget cap tripped — carried both by the hard-cap error
/// ([`AnalysisError::BudgetExceeded`]) and by the degradation marker
/// ([`AnalysisResult::stopped`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// Peak structural bytes exceeded [`Budget::max_bytes`] (the paper's
    /// "compiler runs out of memory").
    Bytes {
        /// Peak bytes when the budget tripped.
        peak_bytes: usize,
        /// The configured limit.
        limit: usize,
    },
    /// An RSRSG (a statement's output, a block's input or the exit set)
    /// exceeded the engine's hard graph-count cap (`MAX_GRAPHS`, 512).
    Graphs {
        /// How many graphs accumulated.
        graphs: usize,
        /// The cap.
        limit: usize,
    },
    /// The engine's block-visit safety net (`MAX_ITERATIONS`, 100 000) was
    /// exhausted before a fixed point.
    Iterations {
        /// Iterations executed.
        iterations: usize,
    },
    /// An RSRSG (a statement's output, a block's input or the exit set)
    /// exceeded the soft cap [`Budget::max_rsgs`].
    Rsgs {
        /// How many graphs accumulated.
        graphs: usize,
        /// The configured limit.
        limit: usize,
    },
    /// The wall-clock [`Budget::deadline`] passed.
    Deadline {
        /// The configured deadline in milliseconds.
        limit_ms: u64,
    },
    /// Interprocedural summary computation gave up soundly at a call site;
    /// see [`InterprocReason`]. Like the other soft stops, everything from
    /// the stopping call onward is degraded and clients claim nothing.
    Interproc {
        /// What stopped the summary computation.
        reason: InterprocReason,
    },
}

/// Why a recursive-call summary computation stopped. Every case is a
/// *sound* refusal: the call's output is left at the caller's input, the
/// statement is marked degraded, and the run records
/// [`BudgetKind::Interproc`] so downstream clients clamp to may-fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterprocReason {
    /// The nested callee analysis itself stopped, degraded or failed; its
    /// exit set is an under-approximation the caller must not consume.
    NestedStop(NestedCause),
    /// The summary fixpoint did not converge within the round cap.
    SummaryRounds,
    /// One function accumulated more distinct entry graphs than the
    /// per-(body, epoch) cap admits.
    SummaryEntries,
    /// Summary computations nested deeper than the recursion cap.
    Depth,
    /// A call site exposed a cutpoint the localization cannot name: a cell
    /// inside the region passed to the callee is referenced from the
    /// caller's frame other than through an argument target, so the exit
    /// region cannot be glued back soundly.
    Cutpoint,
}

/// What spoiled a nested callee run ([`InterprocReason::NestedStop`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NestedCause {
    /// A soft stop, by its [`BudgetKind::stop_code`]: the deadline, the RSG
    /// cap, or a deeper interprocedural give-up.
    Stopped(u64),
    /// The node cap forced a summarization.
    Degraded,
    /// A hard error.
    Failed,
}

impl std::fmt::Display for InterprocReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterprocReason::NestedStop(NestedCause::Stopped(code)) => {
                let (name, what) = BudgetKind::stop_name(*code);
                write!(f, "nested callee analysis stopped on its {what} ({name})")
            }
            InterprocReason::NestedStop(NestedCause::Degraded) => write!(
                f,
                "nested callee analysis degraded: the node cap forced a summarization"
            ),
            InterprocReason::NestedStop(NestedCause::Failed) => {
                write!(f, "nested callee analysis failed with a hard error")
            }
            InterprocReason::SummaryRounds => {
                write!(f, "summary fixpoint exceeded the iteration-round cap")
            }
            InterprocReason::SummaryEntries => {
                write!(f, "function exceeded the distinct-entry-graph cap")
            }
            InterprocReason::Depth => write!(f, "summary recursion exceeded the depth cap"),
            InterprocReason::Cutpoint => {
                write!(f, "call site has a cutpoint the localization cannot name")
            }
        }
    }
}

impl BudgetKind {
    /// The `arg` of the `cancel` trace instant a soft stop journals:
    /// `2` deadline, `4` RSG cap, `5` interprocedural give-up; `None` for
    /// the hard caps, which stop nothing softly. Codes 1 (a causeless
    /// cancel) and 3 (the retired table-byte cap) are never reused, so
    /// older traces read the same.
    pub fn stop_code(&self) -> Option<u64> {
        match self {
            BudgetKind::Deadline { .. } => Some(2),
            BudgetKind::Rsgs { .. } => Some(4),
            BudgetKind::Interproc { .. } => Some(5),
            BudgetKind::Bytes { .. }
            | BudgetKind::Graphs { .. }
            | BudgetKind::Iterations { .. } => None,
        }
    }

    /// A stop code's name and what tripped it, read by the Chrome export
    /// and a nested stop's text; `"unknown"` for a code no stop journals.
    pub fn stop_name(code: u64) -> (&'static str, &'static str) {
        match code {
            2 => ("deadline", "wall-clock deadline"),
            4 => ("rsgs", "RSG soft cap"),
            5 => ("interproc", "interprocedural give-up"),
            _ => ("unknown", "unknown stop"),
        }
    }
}

impl std::fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetKind::Bytes { peak_bytes, limit } => write!(
                f,
                "out of memory: peak {peak_bytes} bytes exceeds budget {limit} bytes"
            ),
            BudgetKind::Graphs { graphs, limit } => {
                write!(f, "RSRSG grew to {graphs} graphs (limit {limit})")
            }
            BudgetKind::Iterations { iterations } => {
                write!(f, "no fixed point after {iterations} iterations")
            }
            BudgetKind::Rsgs { graphs, limit } => {
                write!(f, "RSRSG reached {graphs} graphs (soft cap {limit})")
            }
            BudgetKind::Deadline { limit_ms } => {
                write!(f, "wall-clock deadline of {limit_ms} ms passed")
            }
            BudgetKind::Interproc { reason } => {
                write!(f, "interprocedural analysis stopped: {reason}")
            }
        }
    }
}

/// Why an analysis run failed. Soft degradation caps never produce this —
/// they return `Ok` with [`AnalysisResult::stopped`] set; see [`Budget`].
/// Frontend (parse/type) failures live in [`crate::api::Error::Frontend`],
/// upstream of the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisError {
    /// A hard budget cap tripped.
    BudgetExceeded {
        /// Which cap, with its observed and configured values.
        which: BudgetKind,
        /// Where the cap tripped, when it is per program point: the
        /// statement being transferred, or the first statement of the
        /// block whose input grew past the graph cap. `None` for the exit
        /// set and for run-wide caps.
        at_stmt: Option<StmtId>,
    },
    /// The engine panicked; the panic was contained at the `run()` boundary
    /// and converted (shared tables recover from poisoning, so a later run
    /// on the same [`ShapeCtx`] is still possible).
    Internal {
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl AnalysisError {
    /// Constructor for hard-cap errors.
    fn budget(which: BudgetKind, at_stmt: Option<StmtId>) -> AnalysisError {
        AnalysisError::BudgetExceeded { which, at_stmt }
    }
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::BudgetExceeded {
                which,
                at_stmt: Some(s),
            } => {
                write!(f, "budget exceeded at {s}: {which}")
            }
            AnalysisError::BudgetExceeded {
                which,
                at_stmt: None,
            } => {
                write!(f, "budget exceeded: {which}")
            }
            AnalysisError::Internal { message } => {
                write!(f, "internal analysis error: {message}")
            }
        }
    }
}

impl std::error::Error for AnalysisError {}

/// The product of a run: per-statement RSRSGs plus statistics. A run under
/// degradation caps may be **partial**: [`AnalysisResult::stopped`] records
/// the cap that cancelled remaining work, and
/// [`AnalysisResult::degraded`] marks the statements whose RSRSGs were
/// force-summarized (sound but coarser) or left stale by the cancellation.
#[derive(Debug, Clone)]
pub struct AnalysisResult {
    /// Level the analysis ran at.
    pub level: Level,
    /// RSRSG after each statement (indexed by [`StmtId`]).
    pub after_stmt: Vec<Rsrsg>,
    /// RSRSG at entry of each block (indexed by [`BlockId`]).
    pub block_in: Vec<Rsrsg>,
    /// RSRSG at the return point (union over `Return` block outputs).
    pub exit: Rsrsg,
    /// Statistics of the run.
    pub stats: AnalysisStats,
    /// Per-statement degradation marks (indexed by [`StmtId`], sticky):
    /// `true` when the statement's RSRSG was force-summarized under
    /// [`Budget::max_nodes`], or when a stop left the statement's state
    /// possibly stale (its block was still pending re-transfer, or lies
    /// downstream of one).
    pub degraded: Vec<bool>,
    /// `Some` when a soft stop (RSG count, deadline, interprocedural
    /// give-up) cancelled remaining work: the fixed point was *not* reached
    /// and the per-point RSRSGs are a partial under-approximation of it. `None`
    /// means the fixed point completed (forced summarization under the node
    /// cap still completes — check [`AnalysisResult::degraded`]).
    pub stopped: Option<BudgetKind>,
}

impl AnalysisResult {
    /// RSRSG after statement `s`.
    pub fn at(&self, s: StmtId) -> &Rsrsg {
        &self.after_stmt[s.0 as usize]
    }

    /// The RSRSG *entering* statement `pos` of block `bi`: the block input
    /// for the first statement, the predecessor statement's fixed-point
    /// output otherwise. Clients must reconstruct inputs through this (or
    /// equivalently through [`AnalysisResult::at`] of the predecessor)
    /// rather than threading a running clone through the block — a memo
    /// replay may store a member order different from the one a clone
    /// accumulated, and per-graph set operations are order-sensitive.
    pub fn input_at(&self, ir: &psa_ir::FuncIr, bi: psa_ir::BlockId, pos: usize) -> &Rsrsg {
        let block = ir.block(bi);
        if pos == 0 {
            &self.block_in[bi.0 as usize]
        } else {
            self.at(block.stmts[pos - 1])
        }
    }

    /// True when the fixed point completed (no cancellation; forced
    /// summarization may still have coarsened statements).
    pub fn is_complete(&self) -> bool {
        self.stopped.is_none()
    }

    /// True when any statement carries a degradation mark.
    pub fn any_degraded(&self) -> bool {
        self.degraded.iter().any(|&d| d)
    }

    /// The statements marked degraded.
    pub fn degraded_stmts(&self) -> impl Iterator<Item = StmtId> + '_ {
        self.degraded
            .iter()
            .enumerate()
            .filter(|(_, &d)| d)
            .map(|(i, _)| StmtId(i as u32))
    }
}

/// The symbolic-execution engine for one function.
pub struct Engine<'a> {
    ir: &'a FuncIr,
    ctx: ShapeCtx,
    config: EngineConfig,
    /// The callee table for resolving [`Stmt::Call`] indices. The root
    /// engine's own table; nested summary engines inherit the root's
    /// (callee bodies carry empty tables of their own).
    callees: &'a [psa_ir::CalleeFunc],
    /// Override for the entry RSRSG: nested summary runs start from the
    /// prepared call-entry graph instead of the all-NULL entry.
    entry_state: Option<Rsrsg>,
    /// Summary-computation nesting depth (0 for a root run).
    call_depth: u32,
}

impl<'a> Engine<'a> {
    /// Create an engine over a lowered function with a fresh universe (and
    /// fresh interner/memo tables, so op counters start at zero).
    pub fn new(ir: &'a FuncIr, config: EngineConfig) -> Engine<'a> {
        let ctx = ShapeCtx::from_ir(ir);
        Engine::with_shape_ctx(ir, config, ctx)
    }

    /// Create an engine reusing an existing universe. Because the
    /// [`ShapeCtx`] carries the shared interner and subsumption memo, this
    /// is how the progressive driver makes L2/L3 re-analysis hit the tables
    /// populated at L1. The tables are the one oracle switch: on
    /// [`psa_rsg::intern::SharedTables::without_cache`] tables the engine is
    /// the test-only reference oracle (raw subsumption search, every graph
    /// re-transferred with no memo or delta worklist).
    pub fn with_shape_ctx(ir: &'a FuncIr, config: EngineConfig, ctx: ShapeCtx) -> Engine<'a> {
        Engine {
            callees: &ir.callees,
            ir,
            ctx,
            config,
            entry_state: None,
            call_depth: 0,
        }
    }

    /// A nested engine for one summary computation: runs a callee body over
    /// the caller's universe and shared tables, starting from a prepared
    /// call-entry RSRSG. Always sequential (the outer run owns any
    /// parallelism) and bounded by whatever wall-clock remains of the outer
    /// deadline (the caller fixes up `config.budget.deadline`).
    pub(crate) fn nested(
        ir: &'a FuncIr,
        callees: &'a [psa_ir::CalleeFunc],
        config: EngineConfig,
        ctx: ShapeCtx,
        entry: Rsrsg,
        call_depth: u32,
    ) -> Engine<'a> {
        Engine {
            ir,
            ctx,
            config,
            callees,
            entry_state: Some(entry),
            call_depth,
        }
    }

    /// The analysis universe.
    pub fn ctx(&self) -> &ShapeCtx {
        &self.ctx
    }

    /// The engine configuration.
    pub(crate) fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The callee table [`Stmt::Call`] indices resolve against.
    pub(crate) fn callees(&self) -> &'a [psa_ir::CalleeFunc] {
        self.callees
    }

    /// Current summary nesting depth.
    pub(crate) fn call_depth(&self) -> u32 {
        self.call_depth
    }

    /// The epoch key of this run's transfer-relevant configuration: the
    /// analysis universe ([`ShapeCtx::universe_key`]) plus the level, the
    /// only config field a memoized [`crate::semantics::transfer_one`]
    /// consults (the reference oracle never memoizes). Runs sharing a
    /// [`ShapeCtx`] only share memoized transfers when their keys agree — a
    /// progressive driver re-running at the same level hits, L1 results never
    /// leak into L3, and incompatible universes never alias.
    ///
    /// Deliberately *not* a function-body hash: the per-statement memo key is
    /// `(epoch, stmt slot)`, where the slot is minted from the statement's
    /// *content* ([`Engine::stmt_content_key`]). Two functions — or two
    /// versions of one function across daemon requests — that execute an
    /// identical statement over an identical universe therefore share its
    /// memoized transfers, which is what makes the daemon's warm requests
    /// and incremental re-analysis pay off.
    pub(crate) fn config_key(&self) -> u64 {
        let repr = format!("{:x}|{}", self.ctx.universe_key(), self.config.level);
        psa_ir::fnv1a(repr.as_bytes())
    }

    /// The content key of one statement: the statement itself plus the
    /// active in-loop pvars that TOUCH tracking consults (empty below L3,
    /// matching what [`crate::semantics::transfer_one`] actually sees).
    /// Source positions are deliberately excluded — warnings are
    /// name-based, so a statement that merely moved lines keeps its
    /// memoized transfers. The engine resolves this key to a dense slot id
    /// via [`SharedTables::stmt_slot_for`]; the slot replaces the raw
    /// statement index in the transfer-memo key so identical statements
    /// alias across function versions.
    fn stmt_content_key(&self, sid: StmtId) -> u64 {
        let info = self.ir.stmt(sid);
        let active = if self.config.level.use_touch() {
            self.ir.active_ipvars(&info.loops)
        } else {
            Vec::new()
        };
        let repr = format!("{:?}|{active:?}", info.stmt);
        psa_ir::fnv1a(repr.as_bytes())
    }

    /// Run to the fixed point (or to a budget cap; see [`Budget`]).
    ///
    /// Panic-free: any panic on the analysis path is contained here and
    /// converted to [`AnalysisError::Internal`]. The shared tables recover
    /// from mutex poisoning ([`psa_rsg::lock_recover`]) and hold no run
    /// state, so a failed or stopped run never poisons a later run on the
    /// same [`ShapeCtx`].
    pub fn run(&self) -> Result<AnalysisResult, AnalysisError> {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run_inner())) {
            Ok(r) => r,
            Err(payload) => {
                let message = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
                Err(AnalysisError::Internal { message })
            }
        }
    }

    pub(crate) fn run_inner(&self) -> Result<AnalysisResult, AnalysisError> {
        let start = Instant::now();
        let ops_start = self.ctx.tables.snapshot();
        let level = self.config.level;
        let nblocks = self.ir.blocks.len();
        let nstmts = self.ir.stmts.len();
        let epoch = self.ctx.tables.epoch_for(self.config_key());
        // Per-statement dense memo slots, minted from statement content so
        // identical statements share transfers across function versions.
        let slots: Vec<u32> = (0..nstmts)
            .map(|i| {
                self.ctx
                    .tables
                    .stmt_slot_for(self.stmt_content_key(StmtId(i as u32)))
            })
            .collect();
        let mut stats = AnalysisStats {
            num_stmts: nstmts,
            ..AnalysisStats::default()
        };

        // Degradation state. With no degradation cap set (the default),
        // `deadline` is `None` and every check below is a no-op — the run
        // is bit-identical to one without the budget layer. A soft stop is
        // journaled as one `cancel` instant where it is recorded.
        let budget = self.config.budget;
        let deadline: Option<(Instant, u64)> =
            budget.deadline.map(|d| (start + d, d.as_millis() as u64));
        let deadline_stop = || {
            deadline
                .filter(|&(dl, _)| Instant::now() >= dl)
                .map(|(_, limit_ms)| BudgetKind::Deadline { limit_ms })
        };
        let tracer = &self.ctx.tables.tracer;
        let journal = |which: BudgetKind| {
            if let Some(code) = which.stop_code() {
                tracer.instant(TraceKind::Cancel, code, 0);
            }
            which
        };
        let mut degraded = vec![false; nstmts];
        let mut stopped: Option<BudgetKind> = None;
        // Both graph caps, on every RSRSG the run stores (a statement's
        // output, a block's input after widening, the exit set): the hard
        // cap is an error naming `at`, the soft cap a stop to journal.
        let graph_caps = |graphs: usize, at: Option<StmtId>| {
            if graphs > MAX_GRAPHS {
                let which = BudgetKind::Graphs {
                    graphs,
                    limit: MAX_GRAPHS,
                };
                return Err(AnalysisError::budget(which, at));
            }
            Ok(budget
                .max_rsgs
                .filter(|&limit| graphs > limit)
                .map(|limit| BudgetKind::Rsgs { graphs, limit }))
        };

        // Engine state is interned: per-point vectors of canonical ids
        // instead of deep-cloned RSRSGs. Graphs are materialized from the
        // interner only where the transfer actually needs them, and once
        // more at the end for the public `AnalysisResult`.
        let mut block_in_ids: Vec<Vec<CanonId>> = vec![Vec::new(); nblocks];
        let mut block_out_ids: Vec<Vec<CanonId>> = vec![Vec::new(); nblocks];
        let mut after_ids: Vec<Vec<CanonId>> = vec![Vec::new(); nstmts];
        let mut exit = Rsrsg::new();

        // Incremental structural-byte accounting: each slot is charged the
        // approx_bytes of the set it currently stores and three running
        // totals replace the former O(blocks + stmts) rescan per iteration.
        // Charges change exactly when a slot is overwritten, so the sampled
        // values are identical to the old full sums.
        let mut in_bytes = vec![0usize; nblocks];
        let mut out_bytes = vec![0usize; nblocks];
        let mut stmt_bytes = vec![0usize; nstmts];
        let mut live_in = 0usize;
        let mut live_out = 0usize;
        let mut live_stmt = 0usize;
        fn charge(slot: &mut usize, total: &mut usize, new: usize) {
            *total = *total - *slot + new;
            *slot = new;
        }

        // Per-statement delta cache: input ids, pre-widening output ids,
        // post-widening output ids of the last transfer of each statement.
        let mut deltas: Vec<Option<StmtDelta>> = (0..nstmts).map(|_| None).collect();

        let entry_set = match &self.entry_state {
            Some(prepared) => prepared.clone(),
            None => Rsrsg::entry(self.ir.num_pvars(), &self.ctx),
        };
        let ei = self.ir.entry.0 as usize;
        charge(&mut in_bytes[ei], &mut live_in, entry_set.approx_bytes());
        block_in_ids[ei] = entry_set.canon_ids();

        // Process blocks in id order (lowering emits them roughly in
        // reverse post-order), which reaches loop fixed points with far
        // fewer re-transfers than LIFO.
        let mut worklist: std::collections::BTreeSet<BlockId> = std::collections::BTreeSet::new();
        worklist.insert(self.ir.entry);
        let mut on_list = vec![false; nblocks];
        on_list[ei] = true;

        let mut iterations = 0usize;
        while let Some(b) = worklist.pop_first() {
            let bi = b.0 as usize;
            on_list[bi] = false;
            iterations += 1;
            tracer.instant(TraceKind::WorklistIter, b.0 as u64, iterations as u64);
            if iterations > MAX_ITERATIONS {
                return Err(AnalysisError::budget(
                    BudgetKind::Iterations { iterations },
                    None,
                ));
            }

            // The wall-clock deadline at the block boundary (also polled
            // per statement below).
            stopped = deadline_stop().map(journal);
            if stopped.is_some() {
                worklist.insert(b); // this block's statements are stale too
                break;
            }

            // Transfer the block.
            let mut cur = Rsrsg::from_interned(&block_in_ids[bi], &self.ctx);
            let block = self.ir.block(b);
            for &sid in &block.stmts {
                let si = sid.0 as usize;
                let span_t0 = tracer.enabled().then(Instant::now);
                let in_width = cur.len();
                let interproc;
                (cur, interproc) = self.transfer_stmt_incremental(
                    cur,
                    sid,
                    epoch,
                    slots[si],
                    deadline.map(|(dl, _)| dl),
                    &mut deltas[si],
                    &mut stats,
                );
                tracer.span_since(
                    TraceKind::StmtTransfer,
                    span_t0,
                    sid.0 as u64,
                    in_width as u64,
                );
                // Node cap: forced summarization keeps the fixed point
                // going with sound-but-coarser graphs; mark the statement.
                if let Some(cap) = budget.max_nodes {
                    if cur.force_summarize(&self.ctx, level, cap) {
                        degraded[si] = true;
                        tracer.instant(TraceKind::ForceCompress, sid.0 as u64, 0);
                    }
                }
                // Soft stops, first match wins: an interprocedural give-up
                // at this statement (the call passed its input through,
                // sound only under the stopped discipline), the RSG cap,
                // then the deadline, which the fold loop polls mid-statement.
                // The hard graph cap is checked before any of them.
                let rsgs = graph_caps(cur.len(), Some(sid))?;
                stopped = interproc
                    .map(|reason| BudgetKind::Interproc { reason })
                    .or(rsgs)
                    .or_else(deadline_stop)
                    .map(journal);
                stats.max_graphs_per_stmt = stats.max_graphs_per_stmt.max(cur.len());
                for g in cur.iter() {
                    stats.max_nodes_per_graph = stats.max_nodes_per_graph.max(g.num_nodes());
                }
                charge(&mut stmt_bytes[si], &mut live_stmt, cur.approx_bytes());
                after_ids[si] = cur.canon_ids();
                if stopped.is_some() {
                    degraded[si] = true;
                    break;
                }
            }
            charge(&mut out_bytes[bi], &mut live_out, cur.approx_bytes());
            block_out_ids[bi] = cur.canon_ids();

            // Memory accounting (peak of all live state), sampled at the
            // same program point as the former rescan.
            let live = live_in + live_out + live_stmt;
            stats.peak_bytes = stats.peak_bytes.max(live);
            if let Some(limit) = budget.max_bytes {
                if live > limit {
                    return Err(AnalysisError::budget(
                        BudgetKind::Bytes {
                            peak_bytes: live,
                            limit,
                        },
                        None,
                    ));
                }
            }
            if stopped.is_some() {
                worklist.insert(b); // statements past the stop point are stale
                break;
            }

            // Propagate along edges.
            let contributions: Vec<(BlockId, Rsrsg)> = match block.term {
                Terminator::Goto(t) => vec![(t, cur)],
                Terminator::Branch {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    let mut t = refine_by_cond(&cur, &cond, true);
                    if let Cond::ScalarEq(v, k) = cond {
                        // The true edge learns the constant.
                        let learn = GraphAction::Scalar(v, Some(k));
                        t = self.transfer_edge(&t, learn, epoch, &mut stats);
                    }
                    let f = refine_by_cond(&cur, &cond, false);
                    vec![(then_bb, t), (else_bb, f)]
                }
                Terminator::Return => {
                    exit.union_with(&cur, &self.ctx, level);
                    // Nothing is downstream of the exit set: a soft stop
                    // here leaves only the pending blocks stale.
                    stopped = graph_caps(exit.len(), None)?.map(journal);
                    if stopped.is_some() {
                        break;
                    }
                    vec![]
                }
            };
            for (succ, mut contrib) in contributions {
                if level.use_touch() {
                    // Loop-exit edges clear the exited loops' TOUCH marks.
                    let ipvars = self.ir.active_ipvars(self.ir.exited_loops(b, succ));
                    if !ipvars.is_empty() {
                        let clear = GraphAction::ClearTouch(&ipvars);
                        contrib = self.transfer_edge(&contrib, clear, epoch, &mut stats);
                    }
                    // Loop-entry edges mark the entered loops' cursors'
                    // current targets as visited.
                    let ipvars = self.ir.active_ipvars(self.ir.entered_loops(b, succ));
                    if !ipvars.is_empty() {
                        let enter = GraphAction::EnterTouch(&ipvars);
                        contrib = self.transfer_edge(&contrib, enter, epoch, &mut stats);
                    }
                }
                let si = succ.0 as usize;
                let mut succ_in = Rsrsg::from_interned(&block_in_ids[si], &self.ctx);
                let mut changed = succ_in.union_with(&contrib, &self.ctx, level);
                if succ_in.len() > WIDEN_CAP {
                    let before = succ_in.sorted_ids();
                    succ_in.widen(&self.ctx, level, WIDEN_CAP);
                    changed = succ_in.sorted_ids() != before || changed;
                }
                let first_stmt = self.ir.block(succ).stmts.first().copied();
                stopped = graph_caps(succ_in.len(), first_stmt)?.map(journal);
                charge(&mut in_bytes[si], &mut live_in, succ_in.approx_bytes());
                block_in_ids[si] = succ_in.canon_ids();
                if stopped.is_some() {
                    // The capped input's block is stale, and so is every
                    // successor still waiting for its contribution.
                    worklist.extend(block.term.successors());
                    break;
                }
                if changed && !on_list[si] {
                    on_list[si] = true;
                    worklist.insert(succ);
                }
            }
            if stopped.is_some() {
                break;
            }
        }

        if stopped.is_some() {
            // A block still awaiting (re-)transfer has possibly-stale
            // state, and so has every block downstream of one, including
            // blocks never reached, whose empty RSRSGs would read as
            // "unreachable". Mark that whole forward closure, so the report
            // shows exactly which program points the partial result cannot
            // vouch for; blocks with no pending ancestor are final.
            let mut stale = vec![false; nblocks];
            let mut pending: Vec<BlockId> = worklist.into_iter().collect();
            while let Some(b) = pending.pop() {
                if std::mem::replace(&mut stale[b.0 as usize], true) {
                    continue;
                }
                let block = self.ir.block(b);
                for &sid in &block.stmts {
                    degraded[sid.0 as usize] = true;
                }
                pending.extend(block.term.successors());
            }
        }

        stats.iterations = iterations;
        stats.final_bytes = live_stmt + live_in;
        // Materialize the public per-point RSRSGs once, from the interner.
        let after_stmt: Vec<Rsrsg> = after_ids
            .iter()
            .map(|ids| Rsrsg::from_interned(ids, &self.ctx))
            .collect();
        let block_in: Vec<Rsrsg> = block_in_ids
            .iter()
            .map(|ids| Rsrsg::from_interned(ids, &self.ctx))
            .collect();
        stats.elapsed = start.elapsed();
        stats.ops = self.ctx.tables.snapshot().delta(&ops_start);
        tracer.span_since(
            TraceKind::Run,
            Some(start),
            crate::trace::level_ordinal(level),
            iterations as u64,
        );
        Ok(AnalysisResult {
            level,
            after_stmt,
            block_in,
            exit,
            stats,
            degraded,
            stopped,
        })
    }

    /// Transfer one statement over an RSRSG and apply widening, consulting
    /// the per-statement delta cache and the run-wide transfer memo.
    ///
    /// Correctness of the delta decomposition rests on the statement
    /// transfer being a *fold*: the output set is `insert` applied left to
    /// right over the per-graph transfer outputs, starting from the empty
    /// set. If the statement's previous input id vector is a strict prefix
    /// of the current one (the set only grew by appends), continuing that
    /// fold from the cached pre-widening output over the suffix is exactly
    /// the full recomputation; an identical vector replays the cached
    /// post-widening output. Anything else — widening, TOUCH edge
    /// adjustments, or joins having removed/reordered members — fails the
    /// prefix check and falls back to a full re-transfer.
    ///
    /// The second value is `Some` when the statement is a call whose
    /// summary computation gave up (see [`crate::interproc::transfer_call`]).
    #[allow(clippy::too_many_arguments)]
    fn transfer_stmt_incremental(
        &self,
        cur: Rsrsg,
        sid: StmtId,
        epoch: u32,
        slot: u32,
        deadline: Option<Instant>,
        cache: &mut Option<StmtDelta>,
        stats: &mut AnalysisStats,
    ) -> (Rsrsg, Option<InterprocReason>) {
        stats.stmt_transfers += 1;
        let level = self.config.level;
        let info = self.ir.stmt(sid);
        let action = match &info.stmt {
            // Identity: untracked scalar ops pass the set through. `free`
            // is shape-identity too — the abstraction keeps covering the
            // retained cell; the memory-safety client interprets it.
            Stmt::Scalar(_) | Stmt::ScalarStore(_, _) | Stmt::Free(_) => {
                let mut out = cur;
                out.widen(&self.ctx, level, WIDEN_CAP);
                return (out, None);
            }
            // Calls go through the summary machinery, bypassing the delta
            // and transfer memos: the output depends on the summary cache
            // state, not just the input ids (the summary cache *is* the
            // call-level memo). On a summary give-up the input passes
            // through and the returned reason soft-stops the run.
            Stmt::Call(c) => {
                let (mut out, stop) =
                    crate::interproc::transfer_call(self, c, &cur, sid, deadline, stats);
                out.widen(&self.ctx, level, WIDEN_CAP);
                return (out, stop);
            }
            Stmt::ScalarConst(v, k) => GraphAction::Scalar(*v, Some(*k)),
            Stmt::ScalarHavoc(v, _) => GraphAction::Scalar(*v, None),
            Stmt::Ptr(p) => GraphAction::Ptr(p),
        };
        let active = if level.use_touch() {
            self.ir.active_ipvars(&info.loops)
        } else {
            Vec::new()
        };
        let tcx = TransferCtx {
            ctx: &self.ctx,
            level,
            active_ipvars: &active,
            deadline,
            stmt: sid.0,
        };

        // Reference oracle: the recompute-everything pipeline, sequential.
        if !self.ctx.tables.cache_enabled() {
            let mut out = transfer_rsrsg(&cur, &action, &tcx, stats);
            out.widen(&self.ctx, level, WIDEN_CAP);
            return (out, None);
        }

        let m = &self.ctx.tables.metrics;
        let in_ids = cur.canon_ids();
        let (mut out, skip) = match cache.as_ref() {
            Some(c) if c.input_ids == in_ids => {
                // Unchanged input: replay the post-widening output.
                m.delta_stmt_hits.fetch_add(1, Ordering::Relaxed);
                m.delta_graphs_reused
                    .fetch_add(in_ids.len() as u64, Ordering::Relaxed);
                return (Rsrsg::from_interned(&c.postwiden, &self.ctx), None);
            }
            Some(c) if in_ids.len() > c.input_ids.len() && in_ids.starts_with(&c.input_ids) => {
                // Append-only growth: continue the insert fold from the
                // cached pre-widening output over the new suffix.
                m.delta_stmt_extends.fetch_add(1, Ordering::Relaxed);
                m.delta_graphs_reused
                    .fetch_add(c.input_ids.len() as u64, Ordering::Relaxed);
                (
                    Rsrsg::from_interned(&c.prewiden, &self.ctx),
                    c.input_ids.len(),
                )
            }
            _ => {
                m.delta_stmt_fulls.fetch_add(1, Ordering::Relaxed);
                (Rsrsg::new(), 0)
            }
        };
        m.delta_graphs_transferred
            .fetch_add((cur.len() - skip) as u64, Ordering::Relaxed);
        self.fold_transfer(&mut out, &cur, skip, &action, slot, epoch, &tcx, stats);
        let prewiden = out.canon_ids();
        out.widen(&self.ctx, level, WIDEN_CAP);
        *cache = Some(StmtDelta {
            input_ids: in_ids,
            prewiden,
            postwiden: out.canon_ids(),
        });
        (out, None)
    }

    /// Apply a loop-edge edit (the `ScalarEq` true edge's learned constant,
    /// a loop exit's or entry's TOUCH edit) to every graph of an edge
    /// contribution. Each graph goes through the transfer memo under a slot
    /// minted from the action's content, disjoint from every statement's
    /// slot; the reference oracle applies the edit uncached. The edge
    /// polls no deadline: a partial contribution could leave a successor's
    /// input short without marking it stale.
    fn transfer_edge(
        &self,
        input: &Rsrsg,
        action: GraphAction<'_>,
        epoch: u32,
        stats: &mut AnalysisStats,
    ) -> Rsrsg {
        let tcx = TransferCtx::new(&self.ctx, self.config.level, &[]);
        if !self.ctx.tables.cache_enabled() {
            return transfer_rsrsg(input, &action, &tcx, stats);
        }
        let key = psa_ir::fnv1a(format!("edge|{action:?}").as_bytes());
        let slot = self.ctx.tables.stmt_slot_for(key);
        let mut out = Rsrsg::new();
        self.fold_transfer(&mut out, input, 0, &action, slot, epoch, &tcx, stats);
        out
    }

    /// Transfer `input.graphs()[skip..]` through the memoized per-graph
    /// transfer and fold the compressed, interned outputs into `out` in
    /// input order, stopping at the first graph after the deadline.
    #[allow(clippy::too_many_arguments)]
    fn fold_transfer(
        &self,
        out: &mut Rsrsg,
        input: &Rsrsg,
        skip: usize,
        action: &GraphAction<'_>,
        slot: u32,
        epoch: u32,
        tcx: &TransferCtx<'_>,
        stats: &mut AnalysisStats,
    ) {
        let graphs = &input.graphs()[skip..];
        let entries = &input.canon_entries()[skip..];
        for (g, e) in graphs.iter().zip(entries) {
            if tcx.deadline_passed() {
                break;
            }
            for (og, oe) in transfer_one_cached(g, e, action, slot, epoch, tcx, stats) {
                out.insert_compressed(og, oe, &self.ctx, tcx.level);
            }
        }
    }
}

/// The last transfer of one statement, for the delta worklist: the input
/// member ids it saw, and its output ids before and after widening.
#[derive(Debug, Clone)]
struct StmtDelta {
    input_ids: Vec<CanonId>,
    prewiden: Vec<CanonId>,
    postwiden: Vec<CanonId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_cfront::parse_and_type;
    use psa_ir::lower_program;

    fn analyze(src: &str, level: Level) -> (FuncIr, AnalysisResult) {
        let (p, t) = parse_and_type(src).unwrap();
        let ir = lower_program(&p, &t, "main").unwrap();
        let engine = Engine::new(&ir, EngineConfig::at_level(level));
        let res = engine.run().unwrap();
        (ir, res)
    }

    const LIST_BUILD: &str = r#"
        struct node { int v; struct node *nxt; };
        int main() {
            struct node *list;
            struct node *p;
            int i;
            list = NULL;
            for (i = 0; i < 10; i++) {
                p = (struct node *) malloc(sizeof(struct node));
                p->nxt = list;
                list = p;
            }
            return 0;
        }
    "#;

    #[test]
    fn list_construction_reaches_fixed_point() {
        let (ir, res) = analyze(LIST_BUILD, Level::L1);
        assert!(!res.exit.is_empty());
        // At exit: either list == NULL (zero iterations) or a list shape.
        let has_null = res
            .exit
            .iter()
            .any(|g| g.pl(ir.pvar_id("list").unwrap()).is_none());
        let has_list = res
            .exit
            .iter()
            .any(|g| g.pl(ir.pvar_id("list").unwrap()).is_some());
        assert!(has_null && has_list);
        // No graph at exit marks any node shared: a list is unaliased.
        for g in res.exit.iter() {
            for n in g.node_ids() {
                assert!(!g.node(n).shared, "list nodes are never shared");
                assert!(g.node(n).shsel.is_empty());
            }
        }
    }

    #[test]
    fn list_shape_is_bounded() {
        let (_ir, res) = analyze(LIST_BUILD, Level::L1);
        // The summarized list must stay small regardless of the loop count.
        for g in res.exit.iter() {
            assert!(
                g.num_nodes() <= 4,
                "compressed list has ≤ 4 nodes, got {}",
                g.num_nodes()
            );
        }
        assert!(res.exit.len() <= 4);
    }

    #[test]
    fn traversal_after_construction() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *list;
                struct node *p;
                int i;
                list = NULL;
                for (i = 0; i < 10; i++) {
                    p = (struct node *) malloc(sizeof(struct node));
                    p->nxt = list;
                    list = p;
                }
                p = list;
                while (p != NULL) {
                    p->v = 1;
                    p = p->nxt;
                }
                return 0;
            }
        "#;
        let (ir, res) = analyze(src, Level::L1);
        // After the traversal p == NULL in every exit graph.
        let p = ir.pvar_id("p").unwrap();
        for g in res.exit.iter() {
            assert!(g.pl(p).is_none(), "loop exit condition refines p to NULL");
        }
    }

    #[test]
    fn branch_refinement_splits_null_cases() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *p;
                int c;
                p = NULL;
                if (c > 0) {
                    p = (struct node *) malloc(sizeof(struct node));
                }
                if (p != NULL) {
                    p->v = 1;
                }
                return 0;
            }
        "#;
        let (ir, res) = analyze(src, Level::L1);
        let p = ir.pvar_id("p").unwrap();
        // Exit has both p==NULL and p!=NULL graphs.
        assert!(res.exit.iter().any(|g| g.pl(p).is_none()));
        assert!(res.exit.iter().any(|g| g.pl(p).is_some()));
    }

    #[test]
    fn dll_construction_has_cyclelinks() {
        let src = r#"
            struct node { int v; struct node *nxt; struct node *prv; };
            int main() {
                struct node *list;
                struct node *p;
                int i;
                list = NULL;
                for (i = 0; i < 10; i++) {
                    p = (struct node *) malloc(sizeof(struct node));
                    p->nxt = list;
                    p->prv = NULL;
                    if (list != NULL) {
                        list->prv = p;
                    }
                    list = p;
                }
                return 0;
            }
        "#;
        let (ir, res) = analyze(src, Level::L1);
        let list = ir.pvar_id("list").unwrap();
        let nxt = ir.types.selector_id("nxt").unwrap();
        let prv = ir.types.selector_id("prv").unwrap();
        // In every exit graph where the list has ≥2 elements, the head has
        // the <nxt,prv> cycle pair.
        let mut checked = false;
        for g in res.exit.iter() {
            if let Some(h) = g.pl(list) {
                if !g.succs(h, nxt).is_empty() {
                    assert!(
                        g.node(h).cyclelinks.contains(nxt, prv),
                        "DLL head must carry <nxt,prv>"
                    );
                    checked = true;
                }
            }
        }
        assert!(checked, "expected at least one multi-element DLL graph");
    }

    #[test]
    fn budget_out_of_memory_trips() {
        let (p, t) = parse_and_type(LIST_BUILD).unwrap();
        let ir = lower_program(&p, &t, "main").unwrap();
        let cfg = EngineConfig {
            level: Level::L1,
            budget: Budget {
                max_bytes: Some(512),
                ..Budget::default()
            },
        };
        match Engine::new(&ir, cfg).run() {
            Err(AnalysisError::BudgetExceeded {
                which: BudgetKind::Bytes { .. },
                at_stmt: None,
            }) => {}
            other => panic!("expected BudgetExceeded(Bytes), got {other:?}"),
        }
    }

    #[test]
    fn budget_graph_cap_names_statement() {
        // Ten independent branches that each may bind one more pvar: their
        // 2^10 pinning signatures differ, so the widening cannot join them.
        let mut src = String::from("struct node { struct node *nxt; };\nint main() {\n");
        for i in 0..10 {
            src += &format!("    struct node *p{i};\n");
        }
        src += "    int k;\n";
        for i in 0..10 {
            src += &format!(
                "    if (k > {i}) {{ p{i} = (struct node *) malloc(sizeof(struct node)); }}\n"
            );
        }
        src += "    k = 0;\n    return 0;\n}\n";
        let (p, t) = parse_and_type(&src).unwrap();
        let ir = lower_program(&p, &t, "main").unwrap();
        match Engine::new(&ir, EngineConfig::at_level(Level::L1)).run() {
            Err(AnalysisError::BudgetExceeded {
                which: BudgetKind::Graphs { graphs, limit },
                at_stmt: Some(StmtId(10)),
            }) => assert_eq!((graphs, limit), (1024, MAX_GRAPHS)),
            other => panic!("expected BudgetExceeded(Graphs) at st10, got {other:?}"),
        }
    }

    /// `main` with `n` independent branches that each may bind one more
    /// pvar (2^n pinning signatures the widening cannot join), then `tail`
    /// and `return 0;`.
    fn fan_out_src(n: usize, tail: &str) -> String {
        let mut src = String::from("struct node { struct node *nxt; };\nint main() {\n");
        for i in 0..n {
            src += &format!("    struct node *p{i};\n");
        }
        src += "    int k;\n";
        for i in 0..n {
            src += &format!(
                "    if (k > {i}) {{ p{i} = (struct node *) malloc(sizeof(struct node)); }}\n"
            );
        }
        src + tail + "    return 0;\n}\n"
    }

    #[test]
    fn graph_cap_sees_graphs_past_the_last_statement() {
        // No statement follows the last branch: only its join block's
        // input and the exit set hold all 1 024 graphs.
        let (p, t) = parse_and_type(&fan_out_src(10, "")).unwrap();
        let ir = lower_program(&p, &t, "main").unwrap();
        match Engine::new(&ir, EngineConfig::at_level(Level::L1)).run() {
            Err(AnalysisError::BudgetExceeded {
                which: BudgetKind::Graphs { graphs, limit },
                ..
            }) => assert_eq!((graphs, limit), (1024, MAX_GRAPHS)),
            other => panic!("expected BudgetExceeded(Graphs), got {other:?}"),
        }
    }

    #[test]
    fn rsg_cap_sees_block_inputs() {
        // 512 graphs meet only at the last join block's input: the soft
        // cap stops the run there, journals one `cancel`, and marks no
        // statement before the last branch.
        let (p, t) = parse_and_type(&fan_out_src(9, "")).unwrap();
        let ir = lower_program(&p, &t, "main").unwrap();
        let cfg = EngineConfig {
            level: Level::L1,
            budget: Budget {
                max_rsgs: Some(300),
                ..Budget::default()
            },
        };
        let engine = Engine::new(&ir, cfg);
        engine.ctx().tables.tracer.enable();
        let res = engine.run().unwrap();
        assert_eq!(
            res.stopped,
            Some(BudgetKind::Rsgs {
                graphs: 512,
                limit: 300
            })
        );
        assert!(res.exit.is_empty(), "the stop precedes the exit union");
        assert!(!res.degraded.iter().any(|&d| d), "{:?}", res.degraded);
        let cancels = engine
            .ctx()
            .tables
            .tracer
            .drain()
            .into_iter()
            .filter(|e| e.kind == psa_rsg::TraceKind::Cancel)
            .count();
        assert_eq!(cancels, 1);
    }

    #[test]
    fn node_cap_degrades_but_completes() {
        let (p, t) = parse_and_type(LIST_BUILD).unwrap();
        let ir = lower_program(&p, &t, "main").unwrap();
        let cfg = EngineConfig {
            level: Level::L2,
            budget: Budget {
                max_nodes: Some(3),
                ..Budget::default()
            },
        };
        let res = Engine::new(&ir, cfg).run().unwrap();
        assert!(res.is_complete(), "forced summarization never cancels");
        assert!(res.any_degraded(), "a 3-node cap must coarsen the L2 list");
        assert!(!res.exit.is_empty());
        for s in &res.after_stmt {
            for g in s.iter() {
                assert!(g.num_nodes() <= 3, "statement RSGs stay under the cap");
            }
        }
    }

    #[test]
    fn zero_deadline_returns_partial_without_poisoning() {
        let (p, t) = parse_and_type(LIST_BUILD).unwrap();
        let ir = lower_program(&p, &t, "main").unwrap();
        let cfg = EngineConfig {
            level: Level::L1,
            budget: Budget {
                deadline: Some(std::time::Duration::ZERO),
                ..Budget::default()
            },
        };
        let engine = Engine::new(&ir, cfg);
        let res = engine.run().unwrap();
        assert!(matches!(res.stopped, Some(BudgetKind::Deadline { .. })));
        assert!(res.any_degraded(), "pending statements are marked stale");
        // The shared tables survive the cancellation: a fresh engine on the
        // same ShapeCtx (progressive-driver style) completes normally.
        let full =
            Engine::with_shape_ctx(&ir, EngineConfig::at_level(Level::L1), engine.ctx().clone())
                .run()
                .unwrap();
        assert!(full.is_complete());
        assert!(!full.any_degraded());
        assert!(!full.exit.is_empty());
    }

    #[test]
    fn rsg_cap_stops_softly() {
        let (p, t) = parse_and_type(LIST_BUILD).unwrap();
        let ir = lower_program(&p, &t, "main").unwrap();
        let cfg = EngineConfig {
            level: Level::L1,
            budget: Budget {
                max_rsgs: Some(1),
                ..Budget::default()
            },
        };
        let res = Engine::new(&ir, cfg).run().unwrap();
        assert!(matches!(
            res.stopped,
            Some(BudgetKind::Rsgs { limit: 1, .. })
        ));
        assert!(res.any_degraded());
    }

    #[test]
    fn both_caps_armed_reports_the_cap_that_tripped() {
        // With a deadline armed alongside the RSG cap, the stop must name
        // the cap that tripped, not the deadline that never does, and the
        // journal must record exactly one `cancel` carrying its code.
        let (p, t) = parse_and_type(LIST_BUILD).unwrap();
        let ir = lower_program(&p, &t, "main").unwrap();
        let cfg = EngineConfig {
            level: Level::L1,
            budget: Budget {
                max_rsgs: Some(1),
                deadline: Some(std::time::Duration::from_secs(3600)),
                ..Budget::default()
            },
        };
        let engine = Engine::new(&ir, cfg);
        engine.ctx().tables.tracer.enable();
        let res = engine.run().unwrap();
        assert!(
            matches!(res.stopped, Some(BudgetKind::Rsgs { limit: 1, .. })),
            "stop reason must be the RSG cap, got {:?}",
            res.stopped
        );
        assert!(res.any_degraded());
        let cancels: Vec<_> = engine
            .ctx()
            .tables
            .tracer
            .drain()
            .into_iter()
            .filter(|e| e.kind == psa_rsg::TraceKind::Cancel)
            .collect();
        assert_eq!(cancels.len(), 1, "one trace event per stopped run");
        assert_eq!(cancels[0].arg, 4);
    }

    #[test]
    fn budgets_unset_results_match_reference() {
        // The budget layer must be inert when no degradation cap is set.
        let (p, t) = parse_and_type(LIST_BUILD).unwrap();
        let ir = lower_program(&p, &t, "main").unwrap();
        let plain = Engine::new(&ir, EngineConfig::at_level(Level::L2))
            .run()
            .unwrap();
        assert!(plain.is_complete());
        assert!(!plain.any_degraded());
        let huge_caps = EngineConfig {
            level: Level::L2,
            budget: Budget {
                max_nodes: Some(1 << 20),
                max_rsgs: Some(1 << 20),
                deadline: Some(std::time::Duration::from_secs(3600)),
                ..Budget::default()
            },
        };
        let capped = Engine::new(&ir, huge_caps).run().unwrap();
        assert!(capped.is_complete());
        assert!(plain.exit.same_as(&capped.exit));
        for (a, b) in plain.after_stmt.iter().zip(&capped.after_stmt) {
            assert!(a.same_as(b));
        }
    }

    #[test]
    fn stats_are_populated() {
        let (_ir, res) = analyze(LIST_BUILD, Level::L1);
        assert!(res.stats.iterations > 0);
        assert!(res.stats.stmt_transfers > 0);
        assert!(res.stats.peak_bytes > 0);
        assert!(res.stats.max_graphs_per_stmt >= 1);
        assert!(res.stats.num_stmts > 0);
    }

    #[test]
    fn levels_all_converge_on_list_build() {
        for level in Level::ALL {
            let (_ir, res) = analyze(LIST_BUILD, level);
            assert!(!res.exit.is_empty(), "level {level} must converge");
        }
    }

    #[test]
    fn empty_function_analyzes() {
        let src = "int main() { return 0; }";
        let (_ir, res) = analyze(src, Level::L1);
        assert_eq!(res.exit.len(), 1);
        assert_eq!(res.exit.graphs()[0].num_nodes(), 0);
    }

    #[test]
    fn null_deref_warning_surfaces() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *p;
                p = NULL;
                p->nxt = NULL;
                return 0;
            }
        "#;
        let (_ir, res) = analyze(src, Level::L1);
        assert!(res
            .stats
            .warnings
            .iter()
            .any(|w| w.contains("NULL dereference")));
        // The crashing path yields no exit configuration.
        assert!(res.exit.is_empty());
    }
}
