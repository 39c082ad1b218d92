//! **Incremental fixpoint** — the transfer memo + delta worklist engine vs
//! the recompute-everything reference oracle, per level, on the DLL generator and
//! the paper's Sparse LU (tiny sizes, so the bench suite stays fast). The
//! `examples/bench_report.rs` harness measures the full-size codes and
//! records `BENCH_fixpoint.json`; this bench guards the same paths with
//! criterion statistics.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use psa_cfront::parse_and_type;
use psa_codes::generators;
use psa_core::engine::{Engine, EngineConfig};
use psa_ir::{lower_program, FuncIr};
use psa_rsg::Level;

fn ir_for(src: &str) -> FuncIr {
    let (p, t) = parse_and_type(src).expect("parse");
    lower_program(&p, &t, "main").expect("lower")
}

fn run(ir: &FuncIr, level: Level, incremental: bool) {
    let cfg = if incremental {
        EngineConfig::at_level(level)
    } else {
        EngineConfig::reference(level)
    };
    Engine::new(ir, cfg).run().expect("converges");
}

fn incremental_fixpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_fixpoint");
    group.sample_size(10);

    let codes = [
        ("dll", generators::dll_program(8)),
        ("sparse-lu", psa_codes::sparse_lu(psa_codes::Sizes::tiny())),
    ];
    for (name, src) in &codes {
        let ir = ir_for(src);
        for level in [Level::L1, Level::L3] {
            group.bench_with_input(
                BenchmarkId::new(format!("{name}-incremental"), level),
                &ir,
                |b, ir| b.iter(|| run(ir, level, true)),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("{name}-baseline"), level),
                &ir,
                |b, ir| b.iter(|| run(ir, level, false)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, incremental_fixpoint);
criterion_main!(benches);
