//! Differential regression suite named for the two PRUNEs the engine once
//! had, a seeded worklist on the default path and a whole-graph rescan on
//! the reference oracle; its test names are kept from then. Both paths now
//! run the one PRUNE (`psa_rsg::prune`), so these tests hold the default
//! path to the reference oracle on the paper codes and random programs,
//! like the other differential suites, and `tests/prop_rsg.rs` holds PRUNE
//! itself to a copy of the earlier rescan. The comparison lives in the
//! shared harness (`differential/mod.rs`).

mod differential;

use differential::assert_matches_reference;
use psa::codes::generators::{dll_program, random_program};
use psa::rsg::Level;

/// The paper codes at CI smoke sizes, all three levels.
#[test]
fn paper_codes_identical_under_both_prunes() {
    let sizes = psa::codes::Sizes::tiny();
    let codes = [
        ("barnes-hut", psa::codes::barnes_hut(sizes)),
        ("sparse-lu", psa::codes::sparse_lu(sizes)),
        ("dll", dll_program(6)),
    ];
    for (name, src) in &codes {
        for level in Level::ALL {
            eprintln!("differential prune: {name} at {level}");
            assert_matches_reference(src, level);
        }
    }
}

#[test]
fn random_programs_identical_under_both_prunes_l1() {
    for seed in 0u64..10 {
        assert_matches_reference(&random_program(seed, 20, 4), Level::L1);
    }
}

#[test]
fn random_programs_identical_under_both_prunes_l3() {
    for seed in 100u64..105 {
        assert_matches_reference(&random_program(seed, 16, 3), Level::L3);
    }
}
