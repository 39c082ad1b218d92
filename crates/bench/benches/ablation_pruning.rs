//! *Ablation A1 — pruning aggressiveness vs sharing information* (§4.2,
//! §5.1): the paper attributes the Barnes-Hut L2/L3 speedup over L1 to
//! `SHSEL = false` enabling more pruning. This bench measures the PRUNE
//! fixed point and the full statement pipeline on the Fig. 1 structure with
//! sharing information present vs artificially degraded (flags forced to
//! `true`, which disables the aggressive rules).

use criterion::{criterion_group, criterion_main, Criterion};
use psa_cfront::types::SelectorId;
use psa_core::semantics::{transfer_one, TransferCtx};
use psa_core::stats::AnalysisStats;
use psa_ir::{PtrStmt, PvarId};
use psa_rsg::prune::prune;
use psa_rsg::{builder, Level, Rsg, ShapeCtx};

fn degrade_sharing(g: &Rsg) -> Rsg {
    let mut g = g.clone();
    for n in g.node_ids().collect::<Vec<_>>() {
        let node = g.node_mut(n);
        *node.shared = true;
        *node.shsel = psa_rsg::SelSet(0b11); // every selector of the universe
    }
    g
}

fn ablation(c: &mut Criterion) {
    let nxt = SelectorId(0);
    let prv = SelectorId(1);
    let x = PvarId(0);
    let ctx = ShapeCtx::synthetic(1, 2);
    let (precise, _) = builder::fig1_dll(x, 1, nxt, prv);
    let degraded = degrade_sharing(&precise);

    let mut group = c.benchmark_group("ablation_pruning");
    group.bench_function("prune_precise_sharing", |b| {
        b.iter(|| prune(&precise).expect("consistent"))
    });
    group.bench_function("prune_degraded_sharing", |b| {
        b.iter(|| prune(&degraded).expect("consistent"))
    });
    let tcx = TransferCtx::new(&ctx, Level::L1, &[]);
    group.bench_function("store_nil_precise_sharing", |b| {
        b.iter(|| {
            let mut stats = AnalysisStats::default();
            transfer_one(&precise, &PtrStmt::StoreNil(x, nxt), &tcx, &mut stats)
        })
    });
    group.bench_function("store_nil_degraded_sharing", |b| {
        b.iter(|| {
            let mut stats = AnalysisStats::default();
            transfer_one(&degraded, &PtrStmt::StoreNil(x, nxt), &tcx, &mut stats)
        })
    });
    // Result-size comparison printed once. The decisive case is a LOAD that
    // materializes out of a summary: with degraded (true) sharing flags the
    // materialization must copy every incoming may-link onto the extracted
    // node, and pruning cannot remove the alternatives (§4.2's point).
    let ctx2 = ShapeCtx::synthetic(2, 1);
    let list = psa_rsg::compress::compress(
        &psa_rsg::builder::singly_linked_list(8, 2, x, nxt),
        &ctx2,
        Level::L1,
    );
    let list_degraded = degrade_sharing(&list);
    let tcx2 = TransferCtx::new(&ctx2, Level::L1, &[]);
    let y = PvarId(1);
    let mut stats = AnalysisStats::default();
    let out_p = transfer_one(&list, &PtrStmt::Load(y, x, nxt), &tcx2, &mut stats);
    let out_d = transfer_one(&list_degraded, &PtrStmt::Load(y, x, nxt), &tcx2, &mut stats);
    println!(
        "ablation_pruning: load with precise sharing -> {} graphs / {} nodes / {} links;          degraded -> {} graphs / {} nodes / {} links",
        out_p.len(),
        out_p.iter().map(|g| g.num_nodes()).sum::<usize>(),
        out_p.iter().map(|g| g.num_links()).sum::<usize>(),
        out_d.len(),
        out_d.iter().map(|g| g.num_nodes()).sum::<usize>(),
        out_d.iter().map(|g| g.num_links()).sum::<usize>(),
    );
    group.bench_function("load_materialize_precise", |b| {
        b.iter(|| {
            let mut st = AnalysisStats::default();
            transfer_one(&list, &PtrStmt::Load(y, x, nxt), &tcx2, &mut st)
        })
    });
    group.bench_function("load_materialize_degraded", |b| {
        b.iter(|| {
            let mut st = AnalysisStats::default();
            transfer_one(&list_degraded, &PtrStmt::Load(y, x, nxt), &tcx2, &mut st)
        })
    });
    // Engine-level ablation: Barnes-Hut at L1 with precise vs pessimistic
    // sharing maintenance — the inversion mechanism of Table 1 (§5.1):
    // stale `true` sharing flags block the aggressive pruning and inflate
    // the RSRSGs (the paper's L1 exhibited exactly this on Barnes-Hut).
    let src = psa_codes::barnes_hut(psa_codes::Sizes::default());
    let (prog, table) = psa_cfront::parse_and_type(&src).unwrap();
    let ir = psa_ir::lower_program(&prog, &table, "main").unwrap();
    let run_with = |pessimistic: bool| {
        let cfg = psa_core::engine::EngineConfig {
            pessimistic_sharing: pessimistic,
            sharing_relaxation: !pessimistic,
            ..psa_core::engine::EngineConfig::at_level(Level::L1)
        };
        psa_core::engine::Engine::new(&ir, cfg).run()
    };
    match (run_with(false), run_with(true)) {
        (Ok(precise), Ok(pess)) => {
            println!(
                "ablation_pruning: barnes-hut L1 precise sharing: {:.2?} / {:.2} MiB; \
                 pessimistic (paper-L1 emulation): {:.2?} / {:.2} MiB",
                precise.stats.elapsed,
                precise.stats.peak_mib(),
                pess.stats.elapsed,
                pess.stats.peak_mib()
            );
        }
        (a, b) => println!(
            "ablation_pruning: barnes-hut sharing ablation: precise={:?} pessimistic={:?}",
            a.map(|r| r.stats.peak_bytes),
            b.map(|r| r.stats.peak_bytes)
        ),
    }
    group.finish();
}

criterion_group!(benches, ablation);
criterion_main!(benches);
