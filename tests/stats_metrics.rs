//! Op-level metrics tests: the engine must account for its own work —
//! nonzero insert/subsume traffic on a real analysis, cache reuse across
//! progressive levels, and counter stability across identical runs.

use psa::codes::generators::dll_program;
use psa::core::engine::{Engine, EngineConfig};
use psa::core::progressive::{Goal, ProgressiveRunner};
use psa::ir::lower_program;
use psa::rsg::intern::SharedTables;
use psa::rsg::{Level, ShapeCtx};
use std::sync::Arc;

fn dll_ir() -> psa::ir::FuncIr {
    let (p, t) = psa::cfront::parse_and_type(&dll_program(8)).unwrap();
    lower_program(&p, &t, "main").unwrap()
}

#[test]
fn dll_analysis_reports_nonzero_op_counts() {
    let ir = dll_ir();
    let res = Engine::new(&ir, EngineConfig::at_level(Level::L2))
        .run()
        .unwrap();
    let ops = &res.stats.ops;
    assert!(ops.insert_calls > 0, "{ops:?}");
    assert!(ops.subsume_queries > 0, "{ops:?}");
    assert!(
        ops.subsume_searches > 0,
        "a fresh run cannot answer everything from cache"
    );
    assert!(ops.compress_calls > 0, "{ops:?}");
    assert!(ops.union_calls > 0, "{ops:?}");
    assert!(ops.intern_misses > 0, "{ops:?}");
    assert!(ops.interner_size > 0, "{ops:?}");
    assert!(
        ops.interner_size <= ops.intern_misses,
        "every distinct form is one miss"
    );
    assert_eq!(
        ops.subsume_queries,
        ops.subsume_cache_hits + ops.subsume_prefilter_rejects + ops.subsume_searches,
        "every query is answered exactly one way: {ops:?}"
    );
    assert!(ops.peak_set_width > 0, "{ops:?}");
    assert!(ops.cache_hit_rate() >= 0.0 && ops.cache_hit_rate() <= 1.0);
}

#[test]
fn progressive_levels_share_the_cache() {
    // A DLL that survives to the exit: interior nodes carry both a `nxt`
    // and a `prv` incoming link, so they are genuinely SHARED at every
    // level, the goal is never met, and the runner escalates through all
    // three levels over one shared interner/memo table.
    const DLL_BUILD: &str = r#"
        struct node { int v; struct node *nxt; struct node *prv; };
        int main() {
            struct node *list; struct node *p; int i;
            list = NULL;
            for (i = 0; i < 8; i++) {
                p = (struct node *) malloc(sizeof(struct node));
                p->nxt = list;
                p->prv = NULL;
                if (list != NULL) { list->prv = p; }
                list = p;
            }
            return 0;
        }
    "#;
    let (prog, types) = psa::cfront::parse_and_type(DLL_BUILD).unwrap();
    let ir = lower_program(&prog, &types, "main").unwrap();
    let list = ir.pvar_id("list").unwrap();
    let outcome = ProgressiveRunner::new(&ir, vec![Goal::NotSharedInRegion { pvar: list }]).run();
    assert_eq!(
        outcome.satisfied_at, None,
        "true sharing must defeat every level"
    );
    assert_eq!(outcome.levels.len(), 3);

    let l1 = outcome.levels[0].result.as_ref().unwrap();
    let l2 = outcome.levels[1].result.as_ref().unwrap();
    // `stats.ops` is the per-level delta. The second level starts with the
    // first level's canonical forms and verdicts already in the tables, so
    // it must re-hit them.
    assert!(l1.stats.ops.subsume_queries > 0);
    assert!(
        l2.stats.ops.cache_hit_rate() > 0.0,
        "L2 re-analysis must reuse cached subsumption work: {:?}",
        l2.stats.ops
    );
    assert!(
        l2.stats.ops.intern_hits > 0,
        "L2 must re-intern forms L1 already produced: {:?}",
        l2.stats.ops
    );
}

#[test]
fn identical_runs_report_identical_counters() {
    let ir = dll_ir();
    for level in Level::ALL {
        let a = Engine::new(&ir, EngineConfig::at_level(level))
            .run()
            .unwrap();
        let b = Engine::new(&ir, EngineConfig::at_level(level))
            .run()
            .unwrap();
        // A sequential run never contends a stripe lock, so even the three
        // lock-wait times are zero and the whole snapshot must match.
        assert_eq!(
            a.stats.ops, b.stats.ops,
            "op counters must be deterministic at {level}"
        );
    }
}

#[test]
fn cache_off_run_still_counts_searches() {
    let ir = dll_ir();
    let ctx = ShapeCtx::from_ir(&ir).with_tables(Arc::new(SharedTables::without_cache()));
    let res = Engine::with_shape_ctx(&ir, EngineConfig::at_level(Level::L1), ctx)
        .run()
        .unwrap();
    let ops = &res.stats.ops;
    assert_eq!(ops.subsume_cache_hits, 0);
    assert_eq!(ops.subsume_prefilter_rejects, 0);
    assert_eq!(ops.subsume_queries, ops.subsume_searches);
    assert_eq!(ops.cache_size, 0, "the memo table must stay unused");
}
