//! # psa-concrete — concrete heap interpreter and abstraction function
//!
//! The validation substrate for the shape analysis: run the *same* lowered
//! IR on an explicit concrete heap, abstract every intermediate state with
//! the abstraction function α, and check that the RSRSG the analysis
//! computed for that statement **covers** it (some member RSG admits a
//! property-respecting homomorphism from the concrete state).
//!
//! This is the repository's soundness oracle — the analysis is exercised
//! differentially against real executions of the paper's codes and of
//! seeded random programs.
//!
//! * [`heap`] — the concrete heap (locations, typed objects, pvar frame);
//! * [`interp`] — IR interpreter: truthful pointer conditions, randomized
//!   but bounded opaque (scalar) branches, per-statement state snapshots;
//! * [`alpha`] — α: concrete state → exact singular RSG;
//! * [`cover`] — the embedding check (arc-consistency + property checks);
//! * [`differential`] — the end-to-end harness.

pub mod alpha;
pub mod asserts;
pub mod cover;
pub mod differential;
pub mod fuzz;
pub mod heap;
pub mod interp;
pub mod memsafe;
pub mod minimize;

pub use asserts::{
    check_asserts, evaluate_asserts, evaluate_asserts_on, AssertOutcome, AssertReport, Verdict,
};
pub use differential::{
    check_coverage, check_soundness, check_soundness_with, DiffVerdict, DifferentialReport,
};
pub use fuzz::{run_farm, FuzzConfig, FuzzFailure, FuzzReport};
pub use heap::{ConcreteState, Loc};
pub use interp::{execute, ExecOutcome, InterpConfig, Interpreter};
pub use memsafe::{check_memory, validate_memory_on, validate_memory_report, MemDiffReport};
pub use minimize::minimize_source;
