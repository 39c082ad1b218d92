//! Integration tests for the Olden-style extension workloads: shapes,
//! parallelizability and differential soundness. These exercise the whole
//! interprocedural pipeline end to end — the inliner on treeadd's
//! non-recursive helper, the summary path on its recursive core — and
//! provide the negative control for the sharing analysis (em3d's
//! genuinely shared bipartite graph).

use psa::codes::olden::{em3d, power, treeadd, RECURSIVE_OLDEN};
use psa::codes::Sizes;
use psa::concrete::check_soundness;
use psa::core::api::{AnalysisOptions, Analyzer};
use psa::core::queries::{self, ShapeClass};
use psa::rsg::Level;

fn analyzer(src: &str) -> Analyzer {
    Analyzer::new(src, AnalysisOptions::default()).expect("lowers")
}

#[test]
fn treeadd_keeps_recursive_callees_and_stays_tree() {
    let a = analyzer(&treeadd(Sizes::default()));
    // The natural form keeps its two recursive functions as callees
    // (the non-recursive `mknode` helper inlines into `treealloc`).
    let names: Vec<&str> = a.ir().callees.iter().map(|c| c.name.as_str()).collect();
    assert!(names.contains(&"treealloc"), "callees: {names:?}");
    assert!(names.contains(&"treeadd"), "callees: {names:?}");
    let treealloc = a
        .ir()
        .callees
        .iter()
        .find(|c| c.name == "treealloc")
        .unwrap();
    let inl_pvars: Vec<&str> = (0..treealloc.ir.num_pvars())
        .map(|i| treealloc.ir.pvar_name(psa::ir::PvarId(i as u32)))
        .filter(|n| n.contains("__inl"))
        .collect();
    assert!(!inl_pvars.is_empty(), "mknode inlined into treealloc");

    // The summary path must preserve the shape verdict the flat form
    // gets: a clean unshared binary tree at exit.
    let res = a.run_at(Level::L1).unwrap();
    assert!(res.stopped.is_none(), "no degradation: {:?}", res.stopped);
    let root = a.ir().pvar_id("root").unwrap();
    let ir = a.ir();
    let rep = queries::structure_report(&res.exit, root);
    assert!(!rep.any_shared, "tree unshared at exit: {rep}");
    assert_eq!(rep.class, ShapeClass::Tree);
    let l = ir.types.selector_id("l").unwrap();
    let r = ir.types.selector_id("r").unwrap();
    assert!(
        !rep.shared_selectors.contains(l),
        "left children unshared: {rep}"
    );
    assert!(
        !rep.shared_selectors.contains(r),
        "right children unshared: {rep}"
    );
}

#[test]
fn power_hierarchy_unshared() {
    let a = analyzer(&power(Sizes::default()));
    let res = a.run_at(Level::L1).unwrap();
    let root = a.ir().pvar_id("root").unwrap();
    let rep = queries::structure_report(&res.exit, root);
    assert!(!rep.any_shared, "power hierarchy is a tree of lists: {rep}");

    // The branch-update loop writes each branch exactly once.
    let reports = psa::core::parallel::loop_reports(a.ir(), &res);
    let br = a.ir().pvar_id("br").unwrap();
    let update_loops: Vec<_> = reports
        .iter()
        .filter(|r| r.ipvars.contains(&br) && !r.heap_writes.is_empty())
        .collect();
    assert!(!update_loops.is_empty());
    for l in update_loops {
        assert!(
            l.parallelizable,
            "branch updates are independent: {:?}",
            l.reasons
        );
    }
}

#[test]
fn em3d_detects_genuine_sharing() {
    let a = analyzer(&em3d(Sizes::default()));
    let res = a.run_at(Level::L1).unwrap();
    let elist = a.ir().pvar_id("elist").unwrap();
    // The H nodes reachable from the E list through deps are shared: the
    // analysis must NOT claim this structure unshared.
    let rep = queries::structure_report(&res.exit, elist);
    assert!(rep.any_shared, "em3d's H nodes are genuinely shared: {rep}");
    assert_eq!(rep.class, ShapeClass::Dag);
    // The `to` selector is the sharing channel.
    let to = a.ir().types.selector_id("to").unwrap();
    assert!(queries::shsel_in_region(&res.exit, elist, to));
}

#[test]
fn olden_codes_converge_at_all_levels() {
    for (name, src) in psa::codes::olden::olden_codes(Sizes::default()) {
        let a = analyzer(&src);
        for level in Level::ALL {
            let res = a
                .run_at(level)
                .unwrap_or_else(|e| panic!("{name}/{level}: {e}"));
            assert!(!res.exit.is_empty(), "{name}/{level}");
        }
    }
}

#[test]
fn olden_codes_memory_safe_and_validated() {
    // The full suite must come back with zero memory-safety *violations*
    // (may-fail sites are fine — they are the analysis being honest), and
    // every abstract `safe` claim must survive concrete execution.
    for (name, src) in psa::codes::olden::olden_codes(Sizes::tiny()) {
        let a = analyzer(&src);
        let res = a
            .run_at(Level::L1)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let abs = psa::core::memsafe::memory_report(a.ir(), &res);
        assert!(abs.inconclusive.is_none(), "{name}: report inconclusive");
        assert_eq!(
            abs.num_violations(),
            0,
            "{name}: unexpected memory violations:\n{abs}"
        );
        let diff = psa::concrete::validate_memory_report(
            a.ir(),
            &abs,
            psa::concrete::InterpConfig::default(),
            &[1, 2, 3],
        );
        assert!(
            diff.is_validated(),
            "{name}: refuted safe claims: {:#?}",
            diff.mismatches
        );
        assert_eq!(diff.concrete_faults, 0, "{name}: concrete faults observed");
    }
}

#[test]
fn olden_codes_differentially_sound() {
    // The natural multi-function form goes through the full pipeline —
    // inlining for non-recursive calls, summaries for the recursive ones —
    // and every root-level abstract state must cover the frame-aware
    // interpreter's concrete state at the same point (for a call statement
    // that is the *glued* post-call state). The hand-flattened twins of the
    // recursive codes are the only explicit-stack tree traversals under
    // this oracle, so they are checked the same way.
    let flat_twins = psa::codes::olden::olden_codes_flat(Sizes::tiny())
        .into_iter()
        .filter(|(name, _)| RECURSIVE_OLDEN.contains(name));
    for (name, src) in psa::codes::olden::olden_codes(Sizes::tiny())
        .into_iter()
        .chain(flat_twins)
    {
        let rep = check_soundness(&src, Level::L1, &[1, 2]);
        assert!(
            rep.inconclusive.is_none(),
            "{name}: inconclusive: {:?}",
            rep.inconclusive
        );
        assert!(rep.is_sound(), "{name}: {:#?}", rep.violations);
    }
}

/// FNV-1a, 64-bit — `corpus_canon.rs`'s exit-signature scheme.
fn fnv64(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// `(code, L1 hash, L2 hash, L3 hash)` of the exit RSRSG's canonical
/// signature at `Sizes::tiny()`. The five non-recursive codes were pinned
/// from the retired explicit inline-then-lower pipeline and the three
/// recursive ones from `lower_program`, before `lower_program` became the
/// only lowering entry point. power (L2), em3d, tsp and voronoi were
/// re-pinned when lowering began killing dead pointers on loop back edges;
/// their exits no longer hold the last iteration's dead bindings. Every
/// pin was regenerated once for the varint canonical encoding; a scratch
/// build hashing the same exit sets with the previous fixed-width encoder
/// reproduced the previous pins. On a mismatch the failure prints the
/// recomputed table in this syntax.
#[rustfmt::skip]
const OLDEN_EXIT_PINS: &[(&str, u64, u64, u64)] = &[
    ("treeadd", 0xbd441e4e14edf8f3, 0xb33226d9186e491b, 0xb33226d9186e491b),
    ("power", 0x6ae8226d506149a6, 0x3e89c8715148c1a2, 0x1fbef4366261bb85),
    ("em3d", 0xbe9749c7b40992a6, 0x2c812508e4555d09, 0x2c812508e4555d09),
    ("bisort", 0xae99c2beb99454d3, 0xba5ee964cf4533e1, 0xba5ee964cf4533e1),
    ("tsp", 0x8790c95237d00a5e, 0xffbe7883f41e6778, 0xffbe7883f41e6778),
    ("health", 0x220cf690eb816ab4, 0x220cf690eb816ab4, 0x220cf690eb816ab4),
    ("perimeter", 0x3dcec036bfdaf669, 0x1edd69955f36bf8a, 0x1edd69955f36bf8a),
    ("voronoi", 0x639d9983db5c9750, 0x4c06cd4dde7c6545, 0x4c06cd4dde7c6545),
];

#[test]
fn auto_inlined_reports_match_explicit_inlining_bit_for_bit() {
    // Every Olden code's exit RSRSG at L1–L3 is pinned; `OLDEN_EXIT_PINS`
    // says where each pin comes from.
    let codes = psa::codes::olden::olden_codes(Sizes::tiny());
    assert_eq!(codes.len(), OLDEN_EXIT_PINS.len());
    let mut rows = Vec::new();
    for (name, src) in &codes {
        let a = analyzer(src);
        let mut hashes = [0u64; 3];
        for (level, slot) in Level::ALL.into_iter().zip(&mut hashes) {
            let res = a
                .run_at(level)
                .unwrap_or_else(|e| panic!("{name}/{level}: {e}"));
            assert!(res.stopped.is_none(), "{name}/{level} stopped");
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for bytes in res.exit.signature() {
                fnv64(&mut h, &bytes);
                fnv64(&mut h, &[0xFF, 0x00]);
            }
            *slot = h;
        }
        rows.push((*name, hashes[0], hashes[1], hashes[2]));
    }
    assert!(
        rows == OLDEN_EXIT_PINS,
        "Olden exit signatures drifted; recomputed pins:\n{}",
        rows.iter()
            .map(|(name, l1, l2, l3)| format!(
                "    ({name:?}, {l1:#018x}, {l2:#018x}, {l3:#018x}),"
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
