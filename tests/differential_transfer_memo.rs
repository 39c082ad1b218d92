//! Differential regression suite for the transfer memo and the delta
//! worklist: the memoized, delta-driven incremental fixpoint of the default
//! path must be observationally identical to the reference oracle, which
//! re-runs the plain transfer pipeline on every visit. The comparison
//! itself lives in the shared harness (`differential/mod.rs`).

mod differential;

use differential::{assert_matches_reference, lower, run_pair};
use proptest::prelude::*;
use psa::codes::generators::{dll_program, random_program};
use psa::core::engine::{Engine, EngineConfig};
use psa::rsg::Level;

#[test]
fn random_programs_identical_memo_and_delta_l1() {
    for seed in 0u64..12 {
        assert_matches_reference(&random_program(seed, 20, 4), Level::L1);
    }
}

#[test]
fn random_programs_identical_memo_and_delta_l3() {
    for seed in 0u64..6 {
        assert_matches_reference(&random_program(seed, 16, 3), Level::L3);
    }
}

#[test]
fn dll_identical_memo_and_delta_all_levels() {
    let src = dll_program(8);
    for level in Level::ALL {
        assert_matches_reference(&src, level);
    }
}

#[test]
fn paper_codes_identical_memo_and_delta_all_levels() {
    let sizes = psa::codes::Sizes::tiny();
    for (name, src) in [
        ("matvec", psa::codes::sparse_matvec(sizes)),
        ("sparse-lu", psa::codes::sparse_lu(sizes)),
        ("barnes-hut", psa::codes::barnes_hut(sizes)),
    ] {
        for level in Level::ALL {
            eprintln!("differential memo/delta: {name} at {level}");
            assert_matches_reference(&src, level);
        }
    }
}

#[test]
fn memoized_run_actually_hits_the_memo() {
    // A loopy program re-transfers statements whose inputs recur, so the
    // transfer memo must answer them without re-running the pipeline, and
    // statements whose inputs did not change at all must be replayed by the
    // delta worklist.
    let ir = lower(&dll_program(8));
    let res = Engine::new(&ir, EngineConfig::at_level(Level::L1))
        .run()
        .unwrap();
    let ops = &res.stats.ops;
    assert!(ops.transfer_queries > 0, "{ops:?}");
    assert!(
        ops.transfer_memo_hits > 0,
        "fixed-point iteration must re-transfer known graphs: {ops:?}"
    );
    assert_eq!(
        ops.transfer_queries,
        ops.transfer_memo_hits + ops.transfer_memo_misses,
        "{ops:?}"
    );
    assert!(
        ops.transfer_memo_hit_rate() > 0.3,
        "a loopy program should answer a fair share of transfers from the \
         memo, got {:.2}",
        ops.transfer_memo_hit_rate()
    );
    assert!(
        ops.delta_stmt_hits > 0,
        "unchanged statement inputs must be replayed: {ops:?}"
    );
    assert!(ops.transfer_cache_size > 0, "{ops:?}");
}

#[test]
fn progressive_rerun_at_same_level_answers_from_the_memo() {
    // Two engines over one ShapeCtx at the same level and config: the
    // second run is answered entirely by the memos the first populated (the
    // progressive L1→L3 re-run scenario, collapsed to one level). Every
    // statement transfer and loop-edge edit hits the transfer memo and
    // every JOIN hits the JOIN memo, so no COMPRESS runs and no canonical
    // form is minted. Barnes-Hut at L3 covers the loop-edge TOUCH edits.
    let sizes = psa::codes::Sizes::tiny();
    for (name, src, level) in [
        ("dll", dll_program(8), Level::L1),
        ("barnes-hut", psa::codes::barnes_hut(sizes), Level::L3),
    ] {
        let ir = lower(&src);
        let ctx = psa::rsg::ShapeCtx::from_ir(&ir);
        let cfg = EngineConfig::at_level(level);
        let first = Engine::with_shape_ctx(&ir, cfg.clone(), ctx.clone())
            .run()
            .unwrap();
        let second = Engine::with_shape_ctx(&ir, cfg, ctx).run().unwrap();
        assert!(first.exit.same_as(&second.exit), "{name}");
        assert!(first.stats.ops.transfer_memo_misses > 0, "{name}");
        let ops = &second.stats.ops;
        assert_eq!(
            ops.transfer_memo_misses, 0,
            "{name}: a same-config re-run must answer every transfer from the memo: {ops:?}"
        );
        assert!(ops.transfer_memo_hits > 0, "{name}: {ops:?}");
        assert_eq!(ops.compress_calls, 0, "{name}: {ops:?}");
        assert_eq!(
            ops.join_memo_hits,
            ops.join_calls + ops.widen_forced_joins,
            "{name}: every JOIN of the re-run must hit the JOIN memo: {ops:?}"
        );
        assert_eq!(ops.intern_misses, 0, "{name}: {ops:?}");
        if level.use_touch() {
            // Statement transfers query the memo once per transferred
            // graph; the surplus are the loop edges' TOUCH edits.
            let first = &first.stats.ops;
            assert!(
                first.transfer_queries > first.delta_graphs_transferred,
                "{name}: loop-edge edits must go through the transfer memo: {first:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The default path equals the reference oracle on arbitrary programs:
    /// no memo or delta fold may change the fixed point.
    #[test]
    fn delta_equals_full_on_random_programs(
        seed in 0u64..1u64 << 32,
        stmts in 8usize..18,
        pvars in 2usize..4,
        l3 in any::<bool>(),
    ) {
        let src = random_program(seed, stmts, pvars);
        let level = if l3 { Level::L3 } else { Level::L1 };
        match run_pair(&src, level) {
            (Ok(d), Ok(r)) => {
                prop_assert!(d.exit.same_as(&r.exit), "exit diverged\n{src}");
                for (a, b) in d.after_stmt.iter().zip(&r.after_stmt) {
                    prop_assert_eq!(a.signature(), b.signature(), "stmt diverged\n{}", src);
                }
                prop_assert_eq!(&d.stats.warnings, &r.stats.warnings, "warnings diverged\n{}", src);
            }
            (Err(de), Err(re)) => prop_assert_eq!(de, re),
            _ => prop_assert!(false, "runs disagree on success\n{src}"),
        }
    }
}
