//! Shared harness of the differential regression suites
//! (`differential_reference`, `differential_cache`, `differential_kernels`,
//! `differential_transfer_memo`): the subsumption memo, the transfer memo
//! and the delta worklist of the default engine path must together be
//! *observationally identical* to the recompute-everything reference
//! oracle, an engine on
//! [`SharedTables::without_cache`] tables. Each program is
//! analyzed both ways, and the exit set, every per-statement and
//! per-block-input signature, the warnings, the revisits and any error must
//! match.
//!
//! Signatures are sorted canonical byte strings, so the comparison is
//! independent of which interner minted them — and in particular
//! independent of which isomorphic representative the interner retained
//! for a canonical form.

use psa::core::engine::{AnalysisError, AnalysisResult, Engine, EngineConfig};
use psa::ir::{lower_program, FuncIr};
use psa::rsg::intern::SharedTables;
use psa::rsg::{Level, ShapeCtx};
use std::sync::Arc;

pub fn lower(src: &str) -> FuncIr {
    let (p, t) = psa::cfront::parse_and_type(src).expect("program parses");
    lower_program(&p, &t, "main").expect("program lowers")
}

/// Analyze `src` at `level` on the default path and on the reference
/// oracle, each with fresh tables.
pub fn run_pair(
    src: &str,
    level: Level,
) -> (
    Result<AnalysisResult, AnalysisError>,
    Result<AnalysisResult, AnalysisError>,
) {
    let ir = lower(src);
    let default = Engine::new(&ir, EngineConfig::at_level(level)).run();
    let reference = reference_engine(&ir, level).run();
    (default, reference)
}

/// The reference oracle at `level`: an engine on fresh cache-less tables.
pub fn reference_engine(ir: &FuncIr, level: Level) -> Engine<'_> {
    let ctx = ShapeCtx::from_ir(ir).with_tables(Arc::new(SharedTables::without_cache()));
    Engine::with_shape_ctx(ir, EngineConfig::at_level(level), ctx)
}

/// Assert the default run matches the reference run, and that the
/// reference run touched none of the memo or delta paths (subsumption,
/// transfer and JOIN memos, delta worklist).
pub fn assert_matches_reference(src: &str, level: Level) {
    let (default, reference) = run_pair(src, level);
    match (&default, &reference) {
        (Ok(d), Ok(r)) => {
            assert!(
                d.exit.same_as(&r.exit),
                "exit RSRSG diverged at {level}\nprogram:\n{src}"
            );
            for (i, (a, b)) in d.after_stmt.iter().zip(&r.after_stmt).enumerate() {
                assert_eq!(
                    a.signature(),
                    b.signature(),
                    "statement {i} RSRSG diverged at {level}\nprogram:\n{src}"
                );
            }
            for (i, (a, b)) in d.block_in.iter().zip(&r.block_in).enumerate() {
                assert!(
                    a.same_as(b),
                    "block {i} input diverged at {level}\nprogram:\n{src}"
                );
            }
            assert_eq!(
                d.stats.warnings, r.stats.warnings,
                "warnings diverged at {level}\nprogram:\n{src}"
            );
            assert_eq!(
                d.stats.revisits, r.stats.revisits,
                "revisits diverged at {level}\nprogram:\n{src}"
            );
            let ops = &r.stats.ops;
            assert_eq!(ops.subsume_cache_hits, 0, "{ops:?}");
            assert_eq!(ops.subsume_prefilter_rejects, 0, "{ops:?}");
            assert_eq!(ops.transfer_queries, 0, "{ops:?}");
            assert_eq!(ops.join_memo_hits, 0, "{ops:?}");
            assert_eq!(ops.delta_stmt_hits, 0, "{ops:?}");
            assert_eq!(ops.delta_stmt_extends, 0, "{ops:?}");
            assert_eq!(ops.delta_stmt_fulls, 0, "{ops:?}");
        }
        (Err(de), Err(re)) => assert_eq!(de, re, "both runs must fail identically"),
        (d, r) => panic!(
            "default and reference runs disagree on success at {level}: {:?} vs {:?}\nprogram:\n{src}",
            d.as_ref().map(|_| ()),
            r.as_ref().map(|_| ())
        ),
    }
}
