//! Differential fuzzing farm driver: budgeted batches of generated
//! programs checked at L1→L3 by the coverage, assertion and memory-safety
//! oracles, with automatic delta-debugging of any counterexample.
//!
//! ```text
//! cargo run --release --example fuzz_farm -- \
//!     [--programs N] [--seed S] [--stmts N] [--levels L1,L2,L3] \
//!     [--exec-seeds N] [--report FILE.json] [--repro-dir DIR] [--no-minimize]
//! ```
//!
//! Exits nonzero when any soundness failure is found; minimized
//! reproducers are written to `--repro-dir` (default `fuzz-repros/`) so CI
//! can upload them as artifacts. Clean failures found here should be
//! checked into `tests/corpus/` with `; expect` annotations.

use psa::concrete::fuzz::{run_farm, FuzzConfig};
use psa::core::json::Json;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("fuzz_farm: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let mut config = FuzzConfig::default();
    let mut report_path: Option<String> = None;
    let mut repro_dir = "fuzz-repros".to_string();
    let mut i = 0;
    let num = |args: &[String], i: usize, flag: &str| -> Result<usize, String> {
        args.get(i)
            .ok_or_else(|| format!("{flag} needs a value"))?
            .parse()
            .map_err(|_| format!("{flag}: not a number"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--programs" => {
                i += 1;
                config.programs = num(args, i, "--programs")?;
            }
            "--seed" => {
                i += 1;
                config.master_seed = num(args, i, "--seed")? as u64;
            }
            "--stmts" => {
                i += 1;
                config.stmts = num(args, i, "--stmts")?;
            }
            "--exec-seeds" => {
                i += 1;
                config.exec_seeds = num(args, i, "--exec-seeds")?;
            }
            "--levels" => {
                i += 1;
                let v = args.get(i).ok_or("--levels needs a value")?;
                config.levels = v
                    .split(',')
                    .map(|s| s.trim().parse())
                    .collect::<Result<_, _>>()?;
            }
            "--report" => {
                i += 1;
                report_path = Some(args.get(i).ok_or("--report needs a file")?.clone());
            }
            "--repro-dir" => {
                i += 1;
                repro_dir = args.get(i).ok_or("--repro-dir needs a directory")?.clone();
            }
            "--no-minimize" => config.minimize = false,
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 1;
    }

    let stmts = config.stmts;
    eprintln!(
        "fuzz_farm: {} programs from seed {:#x}, {} stmts, levels {:?}, {} exec seeds",
        config.programs,
        config.master_seed,
        stmts,
        config
            .levels
            .iter()
            .map(|l| l.to_string())
            .collect::<Vec<_>>(),
        config.exec_seeds
    );

    // Mix plain random programs with the structure-directed mutators so
    // every batch exercises lists, DLLs and trees.
    let rep = run_farm(&config, |seed| match seed % 4 {
        0 => psa::codes::generators::dll_mutator_program(seed, 8),
        1 => psa::codes::generators::tree_mutator_program(seed, 8),
        _ => psa::codes::generators::random_program(seed, stmts, 4),
    });

    println!("{}", rep.summary());

    if !rep.failures.is_empty() {
        std::fs::create_dir_all(&repro_dir).map_err(|e| format!("{repro_dir}: {e}"))?;
        for (k, f) in rep.failures.iter().enumerate() {
            println!(
                "FAILURE {k}: seed {} at {} ({}) — {}",
                f.program_seed, f.level, f.kind, f.detail
            );
            let full = format!("{repro_dir}/fail-{}-{}.c", f.program_seed, f.level);
            std::fs::write(&full, &f.source).map_err(|e| format!("{full}: {e}"))?;
            if let Some(min) = &f.minimized {
                let path = format!("{repro_dir}/fail-{}-{}.min.c", f.program_seed, f.level);
                std::fs::write(&path, min).map_err(|e| format!("{path}: {e}"))?;
                println!(
                    "  minimized to {} statement(s): {path}",
                    f.minimized_stmts.unwrap_or(0)
                );
            }
        }
        eprintln!("fuzz_farm: reproducers written to {repro_dir}/");
    }

    if let Some(path) = report_path {
        let mut j = Json::obj();
        j.set("master_seed", config.master_seed);
        j.set("programs", rep.programs);
        j.set("checks", rep.checks);
        j.set("passes", rep.passes);
        j.set("inconclusive", rep.inconclusive);
        j.set(
            "failures",
            rep.failures
                .iter()
                .map(|f| {
                    let mut o = Json::obj();
                    o.set("program_seed", f.program_seed);
                    o.set("level", f.level.to_string().as_str());
                    o.set("kind", f.kind);
                    o.set("detail", f.detail.as_str());
                    match f.minimized_stmts {
                        Some(n) => {
                            o.set("minimized_stmts", n);
                        }
                        None => {
                            o.set("minimized_stmts", Json::Null);
                        }
                    }
                    o
                })
                .collect::<Json>(),
        );
        std::fs::write(&path, j.pretty()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("fuzz_farm: report written to {path}");
    }

    Ok(rep.is_clean())
}
