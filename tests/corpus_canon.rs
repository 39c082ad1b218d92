//! Corpus canonical-byte pinning (ISSUE 7 satellite).
//!
//! The arena/sharding/batched-canon rework must not change a single
//! analysis outcome: this suite replays every program under
//! `tests/corpus/` at L1/L2/L3 and pins an FNV-1a hash of the exit
//! RSRSG's full canonical signature (the sorted canonical byte strings
//! of every member graph). The pins were generated on the pre-arena
//! `Vec<Option<Node>>` layout, so a green run is a machine-checked
//! bit-identity proof that the data-oriented storage rewrite preserved
//! both verdicts (see `corpus_replay.rs`) and canonical bytes.
//!
//! If a pin fails after an *intentional* encoding or semantics change,
//! regenerate with `cargo test --test corpus_canon -- --nocapture`
//! (each failure prints the fresh hash) and note the break in DESIGN.md.

use psa::core::api::{analyze_source, AnalysisOptions};
use psa::rsg::Level;
use std::path::PathBuf;

/// FNV-1a, 64-bit — matches `golden_canon.rs`.
fn fnv64(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn exit_signature_hash(src: &str, level: Level) -> u64 {
    let opts = AnalysisOptions {
        level: Some(level),
        ..AnalysisOptions::default()
    };
    let res = analyze_source(src, opts).expect("corpus program analyzes");
    assert!(
        res.stopped.is_none(),
        "corpus programs must run to fixpoint"
    );
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for bytes in res.exit.signature() {
        fnv64(&mut h, &bytes);
        // Separator so concatenation ambiguity can't alias two sets.
        fnv64(&mut h, &[0xFF, 0x00]);
    }
    h
}

/// `(file, L1 hash, L2 hash, L3 hash)` — regenerate with `--nocapture`.
const PINS: &[(&str, u64, u64, u64)] = &[
    (
        "alias_copy.c",
        0x4c46c781a23d945a,
        0x4c46c781a23d945a,
        0x4c46c781a23d945a,
    ),
    (
        "circular_pair.c",
        0x4c91be6384149db6,
        0x4c91be6384149db6,
        0x4c91be6384149db6,
    ),
    (
        "cycle_break.c",
        0x88c2e9de39ccfc50,
        0x88c2e9de39ccfc50,
        0x88c2e9de39ccfc50,
    ),
    (
        "dead_cursor_leak.c",
        0x498a3e56bbb9e650,
        0xd9e438f6d75cc8a4,
        0xd9e438f6d75cc8a4,
    ),
    (
        "dll_fig1.c",
        0xbdcc46ff97cd9369,
        0x6a37f245f5bccb73,
        0x6a37f245f5bccb73,
    ),
    (
        "free_then_null.c",
        0xa483f2715ced8cf8,
        0xa483f2715ced8cf8,
        0xa483f2715ced8cf8,
    ),
    (
        "list_unshared.c",
        0x22dc6581e0cd640d,
        0x1fa055cbb2596ad2,
        0x1fa055cbb2596ad2,
    ),
    (
        "loop_site.c",
        0x22dc6581e0cd640d,
        0x1fa055cbb2596ad2,
        0x1fa055cbb2596ad2,
    ),
    (
        "reach_chain.c",
        0x88c2e9de39ccfc50,
        0x88c2e9de39ccfc50,
        0x88c2e9de39ccfc50,
    ),
    (
        "shared_diamond.c",
        0x52b7f8b96530e410,
        0x52b7f8b96530e410,
        0x52b7f8b96530e410,
    ),
    (
        "swap_pointers.c",
        0x1c321c4dd97acfb7,
        0x1c321c4dd97acfb7,
        0x1c321c4dd97acfb7,
    ),
    (
        "tree_leaves.c",
        0x30c4ae382bd214de,
        0x30c4ae382bd214de,
        0x30c4ae382bd214de,
    ),
    (
        "wrong_alias.c",
        0x95650eedf53ab014,
        0x95650eedf53ab014,
        0x95650eedf53ab014,
    ),
];

#[test]
fn corpus_exit_signatures_are_bit_identical() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("tests/corpus exists")
        .filter_map(|e| {
            let p = e.unwrap().path();
            (p.extension().and_then(|x| x.to_str()) == Some("c")).then_some(p)
        })
        .collect();
    files.sort();
    assert!(!files.is_empty(), "corpus is empty");

    let pins: std::collections::BTreeMap<&str, (u64, u64, u64)> = PINS
        .iter()
        .map(|&(name, a, b, c)| (name, (a, b, c)))
        .collect();

    let mut failures = Vec::new();
    for path in &files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(path).unwrap();
        let got = (
            exit_signature_hash(&src, Level::L1),
            exit_signature_hash(&src, Level::L2),
            exit_signature_hash(&src, Level::L3),
        );
        match pins.get(name.as_str()) {
            Some(&want) if want == got => {}
            other => {
                println!(
                    "    (\"{name}\", 0x{:016x}, 0x{:016x}, 0x{:016x}),",
                    got.0, got.1, got.2
                );
                failures.push(match other {
                    None => format!("{name}: no pin (add the line above)"),
                    Some(&(a, b, c)) => format!(
                        "{name}: signature drifted \
                         (pinned 0x{a:016x}/0x{b:016x}/0x{c:016x})"
                    ),
                });
            }
        }
    }
    assert!(
        failures.is_empty(),
        "exit canonical signatures changed:\n{}",
        failures.join("\n")
    );
}
