//! Differential validation of the memory-safety checker: every abstract
//! `safe` and `violation` verdict must survive concrete execution. The
//! pinned corpus under `tests/corpus/` and a fixed-seed batch of generated
//! programs are both replayed through
//! [`psa::concrete::validate_memory_report`], which runs the interpreter
//! and refutes any `safe` claim contradicted by an observed null-deref /
//! use-after-free / double-free fault or leak event, and any `violation`
//! claim at a statement a run executed without faulting.
//!
//! Per-verdict behaviour (one targeted program per check kind) is asserted
//! at the bottom — these are the soundness contracts DESIGN.md §14 states.

use psa::concrete::{validate_memory_report, InterpConfig};
use psa::core::engine::{Engine, EngineConfig};
use psa::core::memsafe::{memory_report, MemCheck, MemVerdict};
use psa::rsg::Level;
use std::path::PathBuf;

const SEEDS: &[u64] = &[1, 2, 3, 4];

fn corpus_files() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .filter_map(|e| {
            let p = e.unwrap().path();
            (p.extension().and_then(|x| x.to_str()) == Some("c")).then_some(p)
        })
        .collect();
    files.sort();
    files
}

/// Parse, lower, analyze at `level`, and differentially validate
/// the memory report. Panics with `ctx` on any refuted claim.
fn validate(src: &str, level: Level, ctx: &str) {
    let (p, t) = psa::cfront::parse_and_type(src).unwrap_or_else(|e| panic!("{ctx}: parse: {e}"));
    let ir = psa::ir::lower_program(&p, &t, "main").unwrap_or_else(|e| panic!("{ctx}: lower: {e}"));
    let result = Engine::new(&ir, EngineConfig::at_level(level))
        .run()
        .unwrap_or_else(|e| panic!("{ctx}: engine: {e}"));
    let abs = memory_report(&ir, &result);
    let diff = validate_memory_report(&ir, &abs, InterpConfig::default(), SEEDS);
    assert!(
        diff.is_validated(),
        "{ctx}: abstract claim refuted concretely: {:#?}",
        diff.mismatches
    );
}

#[test]
fn corpus_safe_verdicts_survive_concrete_execution() {
    for file in corpus_files() {
        let src = std::fs::read_to_string(&file).unwrap();
        let name = file.file_name().unwrap().to_string_lossy().into_owned();
        for level in Level::ALL {
            validate(&src, level, &format!("{name}/{level}"));
        }
    }
}

#[test]
fn fuzz_batch_safe_verdicts_survive_concrete_execution() {
    // A fixed-seed batch over the structured generators; the shapes cover
    // free-bearing random programs as well as the list/dll/tree mutators.
    for seed in 10..20u64 {
        let src = psa::codes::generators::random_program(seed, 28, 4);
        validate(&src, Level::L1, &format!("random/{seed}"));
    }
    for seed in 1..5u64 {
        let src = psa::codes::generators::dll_mutator_program(seed, 4);
        validate(&src, Level::L1, &format!("dll-mutator/{seed}"));
        let src = psa::codes::generators::tree_mutator_program(seed, 4);
        validate(&src, Level::L1, &format!("tree-mutator/{seed}"));
    }
}

/// Build a report for `src` at L1 and return the verdicts.
fn report(src: &str) -> (psa::ir::FuncIr, psa::core::memsafe::MemReport) {
    let (p, t) = psa::cfront::parse_and_type(src).unwrap();
    let ir = psa::ir::lower_program(&p, &t, "main").unwrap();
    let result = Engine::new(&ir, EngineConfig::at_level(Level::L1))
        .run()
        .unwrap();
    let rep = memory_report(&ir, &result);
    (ir, rep)
}

const HEADER: &str = "struct node { int v; struct node *nxt; };\n";

#[test]
fn null_deref_verdicts_and_oracle_agree() {
    let src = format!("{HEADER}int main() {{ struct node *p; p = NULL; p->v = 1; return 0; }}");
    let (ir, rep) = report(&src);
    let viol = rep
        .sites
        .iter()
        .find(|s| s.check == MemCheck::NullDeref && s.verdict == MemVerdict::Violation);
    assert!(
        viol.is_some(),
        "definite null deref must be a violation:\n{rep}"
    );
    // A violation is not a `safe` claim — the oracle must still validate.
    let diff = validate_memory_report(&ir, &rep, InterpConfig::default(), SEEDS);
    assert!(diff.is_validated());
    assert!(diff.concrete_faults > 0, "interpreter observes the fault");
}

#[test]
fn use_after_free_verdicts_and_oracle_agree() {
    let src = format!(
        "{HEADER}int main() {{ struct node *p; \
         p = (struct node *) malloc(sizeof(struct node)); p->nxt = NULL; \
         free(p); p->v = 1; return 0; }}"
    );
    let (ir, rep) = report(&src);
    assert!(
        rep.sites
            .iter()
            .any(|s| s.check == MemCheck::UseAfterFree && s.verdict == MemVerdict::Violation),
        "deref of a definitely-freed pointer must be a violation:\n{rep}"
    );
    let diff = validate_memory_report(&ir, &rep, InterpConfig::default(), SEEDS);
    assert!(diff.is_validated());
    assert!(diff.concrete_faults > 0);
}

#[test]
fn double_free_verdicts_and_oracle_agree() {
    let src = format!(
        "{HEADER}int main() {{ struct node *p; \
         p = (struct node *) malloc(sizeof(struct node)); p->nxt = NULL; \
         free(p); free(p); return 0; }}"
    );
    let (ir, rep) = report(&src);
    assert!(
        rep.sites
            .iter()
            .any(|s| s.check == MemCheck::DoubleFree && s.verdict == MemVerdict::Violation),
        "second free of the same cell must be a violation:\n{rep}"
    );
    let diff = validate_memory_report(&ir, &rep, InterpConfig::default(), SEEDS);
    assert!(diff.is_validated());
    assert!(diff.concrete_faults > 0);
}

#[test]
fn leak_verdicts_and_oracle_agree() {
    // Dropping the only handle to a malloc'd cell is at most a may-fail —
    // the leak check never upgrades to `safe`/`violation` on live pointers,
    // and the concrete leak event must not refute anything.
    let src = format!(
        "{HEADER}int main() {{ struct node *p; \
         p = (struct node *) malloc(sizeof(struct node)); p->nxt = NULL; \
         p = NULL; return 0; }}"
    );
    let (ir, rep) = report(&src);
    let leak_sites: Vec<_> = rep
        .sites
        .iter()
        .filter(|s| s.check == MemCheck::Leak)
        .collect();
    assert!(
        leak_sites.iter().any(|s| s.verdict == MemVerdict::MayFail),
        "dropping the only handle must flag a may-leak:\n{rep}"
    );
    let diff = validate_memory_report(&ir, &rep, InterpConfig::default(), SEEDS);
    assert!(diff.is_validated());
    assert!(
        diff.concrete_leaks > 0,
        "interpreter observes the leak event"
    );
}

#[test]
fn back_edge_kill_reports_the_leak_it_causes() {
    // `tmp` is dead at the loop head, so lowering kills it on the back
    // edge. The kill drops the unlinked cell's last reference: a leak
    // event at the kill on both sides, and the `malloc` that rebinds the
    // killed pvar provably drops nothing.
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/dead_cursor_leak.c");
    let src = std::fs::read_to_string(path).unwrap();
    let (p, t) = psa::cfront::parse_and_type(&src).unwrap();
    let ir = psa::ir::lower_program(&p, &t, "main").unwrap();
    let tmp = ir.pvar_id("tmp").unwrap();
    let leak_at = |rep: &psa::core::memsafe::MemReport, stmt: &psa::ir::Stmt| {
        rep.sites
            .iter()
            .find(|s| s.check == MemCheck::Leak && ir.stmt(s.stmt).stmt == *stmt)
            .map(|s| s.verdict)
    };
    let kill = psa::ir::Stmt::Ptr(psa::ir::PtrStmt::Nil(tmp));
    let node = ir.pvar(tmp).pointee;
    let alloc = psa::ir::Stmt::Ptr(psa::ir::PtrStmt::Malloc(tmp, node));
    for level in Level::ALL {
        let result = Engine::new(&ir, EngineConfig::at_level(level))
            .run()
            .unwrap();
        let rep = memory_report(&ir, &result);
        assert_eq!(
            leak_at(&rep, &kill),
            Some(MemVerdict::MayFail),
            "{level}:\n{rep}"
        );
        assert_eq!(
            leak_at(&rep, &alloc),
            Some(MemVerdict::Safe),
            "{level}:\n{rep}"
        );
        let diff = validate_memory_report(&ir, &rep, InterpConfig::default(), SEEDS);
        assert!(diff.is_validated(), "{level}: {:#?}", diff.mismatches);
        assert!(
            diff.concrete_leaks > 0,
            "{level}: the kill leaks concretely"
        );
    }
}
