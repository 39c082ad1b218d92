//! Differential regression suite for the default engine path: the
//! subsumption memo, the transfer memo, the delta worklist and the worklist
//! PRUNE must together be *observationally identical* to the
//! recompute-everything reference oracle (an engine on cache-less
//! `SharedTables::without_cache` tables), over the union
//! of the corpora of the per-feature suites (`differential_cache`,
//! `differential_kernels`, `differential_transfer_memo`, which also hold
//! the memo-hit tests and the property test). The comparison itself lives
//! in the shared harness (`differential/mod.rs`). The per-graph count
//! equalities of the individual kernels (prune calls, subsumption
//! verdicts) are checked by
//! `prop_rsg::worklist_prune_matches_reference*` and
//! `prop_intern::memoized_path_agrees_with_raw_search`.

mod differential;

use differential::assert_matches_reference;
use psa::codes::generators::{dll_program, random_program};
use psa::rsg::Level;

#[test]
fn random_programs_identical_to_reference_l1() {
    for seed in 0u64..12 {
        assert_matches_reference(&random_program(seed, 20, 4), Level::L1);
    }
}

#[test]
fn random_programs_identical_to_reference_l3() {
    for seed in (0u64..6).chain(100..105) {
        assert_matches_reference(&random_program(seed, 16, 3), Level::L3);
    }
}

#[test]
fn dll_identical_to_reference_all_levels() {
    for n in [6, 8] {
        let src = dll_program(n);
        for level in Level::ALL {
            assert_matches_reference(&src, level);
        }
    }
}

#[test]
fn paper_codes_identical_to_reference_all_levels() {
    let sizes = psa::codes::Sizes::tiny();
    for (name, src) in [
        ("matvec", psa::codes::sparse_matvec(sizes)),
        ("sparse-lu", psa::codes::sparse_lu(sizes)),
        ("barnes-hut", psa::codes::barnes_hut(sizes)),
    ] {
        for level in Level::ALL {
            eprintln!("differential reference: {name} at {level}");
            assert_matches_reference(&src, level);
        }
    }
}

#[test]
fn voronoi_identical_to_reference_all_levels() {
    // Wide RSRSGs (up to 183 members at L1) that split into many pinning
    // groups: the default path queries only the candidate's group, the
    // reference oracle every member.
    let src = psa::codes::olden::voronoi(psa::codes::Sizes::tiny());
    for level in Level::ALL {
        eprintln!("differential reference: voronoi at {level}");
        assert_matches_reference(&src, level);
    }
}
