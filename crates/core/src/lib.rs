//! # psa-core — the progressive shape-analysis engine
//!
//! Ties the substrates together into the paper's compiler:
//!
//! * [`rsrsg`] — the *Reduced Set of Reference Shape Graphs*: a bounded set
//!   of pairwise-incompatible RSGs with JOIN-based insertion (§4);
//! * [`semantics`] — the abstract semantics of the six simple pointer
//!   statements (§2, Fig. 1/2): divide → prune → interpret (materializing
//!   summary targets) → compress → union;
//! * [`engine`] — symbolic execution to a fixed point over the CFG, with
//!   per-statement RSRSGs, memory accounting and budgets (the Table 1
//!   harness hooks);
//! * [`progressive`] — the three-level progressive driver (§5): run `L1`,
//!   escalate to `L2`/`L3` only when client goals are not met;
//! * [`queries`] — shape queries over analysis results (sharing, cycles,
//!   structure classification) used to validate the Fig. 3 claims;
//! * [`parallel`] — the "future work" client pass: a loop-level
//!   independence report built on the SHARED/SHSEL/TOUCH properties;
//! * [`interproc`] — interprocedural call transfer: localization of the
//!   callee-reachable subheap (with cutpoint anchors and the
//!   unshared-summary split), the per-(function, entry) summary cache
//!   tabulated to a fixed point, and the glue step that re-attaches the
//!   caller's frame;
//! * [`memsafe`] — the memory-safety client pass: three-valued null-deref,
//!   use-after-free, double-free and leak verdicts per statement read off
//!   the per-statement RSRSGs, validated differentially against the
//!   concrete interpreter;
//! * [`annotate`] — the §6 conclusion, closed: re-emit the analyzed source
//!   with parallelizability annotations on every loop;
//! * [`report`] — serializable (JSON) analysis reports for downstream
//!   tooling;
//! * [`trace`] — Chrome-trace export, latency summaries and the text
//!   timeline over the run-wide event journal
//!   ([`psa_rsg::trace::Tracer`]);
//! * [`api`] — the user-facing facade ([`api::Analyzer`],
//!   [`api::analyze_source`]).

pub mod annotate;
pub mod api;
pub mod asserts;
pub mod engine;
pub mod interproc;
pub mod json;
pub mod memsafe;
pub mod parallel;
pub mod progressive;
pub mod queries;
pub mod report;
pub mod rsrsg;
pub mod semantics;
pub mod serve;
pub mod stats;
pub mod trace;

pub use api::{analyze_source, AnalysisOptions, Analyzer};
pub use engine::{
    AnalysisError, AnalysisResult, BudgetKind, Engine, EngineConfig, InterprocReason, NestedCause,
};
pub use progressive::{Goal, ProgressiveOutcome, ProgressiveRunner};
pub use rsrsg::Rsrsg;
pub use stats::{AnalysisStats, Budget};
