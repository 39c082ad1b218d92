//! Fixed-point behaviour of the engine on structurally hard programs:
//! convergence, boundedness, level monotonicity and determinism.

use psa::core::api::{AnalysisOptions, Analyzer};
use psa::core::queries;
use psa::rsg::Level;

fn analyzer(src: &str) -> Analyzer {
    Analyzer::new(src, AnalysisOptions::default()).expect("lowers")
}

#[test]
fn tree_with_stack_walk_converges_at_all_levels() {
    let src = psa::codes::generators::tree_program(9);
    let a = analyzer(&src);
    for level in Level::ALL {
        let res = a.run_at(level).unwrap_or_else(|e| panic!("{level}: {e}"));
        assert!(!res.exit.is_empty(), "{level}");
        // Stack fully drained at exit.
        let top = a.ir().pvar_id("top").unwrap();
        assert!(queries::always_null(&res.exit, top));
    }
}

#[test]
fn circular_list_traversal_converges() {
    // Traversing a circular list with a pointer-equality exit condition.
    let src = r#"
        struct node { int v; struct node *nxt; };
        int main() {
            struct node *h; struct node *p; struct node *q; int i;
            h = (struct node *) malloc(sizeof(struct node));
            h->nxt = h;
            for (i = 0; i < 5; i++) {
                q = (struct node *) malloc(sizeof(struct node));
                q->nxt = h->nxt;
                h->nxt = q;
            }
            p = h->nxt;
            while (p != h) {
                p->v = 1;
                p = p->nxt;
            }
            return 0;
        }
    "#;
    let a = analyzer(src);
    let res = a.run_at(Level::L1).unwrap();
    let h = a.ir().pvar_id("h").unwrap();
    let rep = queries::structure_report(&res.exit, h);
    assert!(
        rep.cycle_through_root,
        "circular list must be detected: {rep}"
    );
}

#[test]
fn nested_loops_with_inner_reset_converge() {
    let src = psa::codes::generators::list_of_lists_program(6, 4);
    let a = analyzer(&src);
    for level in Level::ALL {
        let res = a.run_at(level).unwrap_or_else(|e| panic!("{level}: {e}"));
        let rows = a.ir().pvar_id("rows").unwrap();
        assert!(
            !queries::shared_in_region(&res.exit, rows),
            "{level}: rows unshared"
        );
    }
}

#[test]
fn deterministic_across_runs() {
    let src = psa::codes::generators::dll_program(8);
    let a = analyzer(&src);
    let r1 = a.run_at(Level::L2).unwrap();
    let r2 = a.run_at(Level::L2).unwrap();
    assert!(r1.exit.same_as(&r2.exit));
    for (x, y) in r1.after_stmt.iter().zip(&r2.after_stmt) {
        assert!(x.same_as(y));
    }
}

/// DESIGN §3 A2: loop trip counts vary while analysis cost stays flat. The
/// cost is asserted as work, not time: the fixpoint does exactly the same
/// iterations, COMPRESS and JOIN calls and subsumption searches, and peaks
/// at the same structural bytes, whatever the trip count.
#[test]
fn results_bounded_regardless_of_trip_counts() {
    let mut work = Vec::new();
    for n in [2usize, 10, 1000] {
        let src = psa::codes::generators::list_program(n, 1);
        let a = analyzer(&src);
        let res = a.run_at(Level::L1).unwrap();
        assert!(
            res.stats.max_graphs_per_stmt <= 16,
            "n={n}: graphs bounded by widening"
        );
        assert!(res.stats.max_nodes_per_graph <= 12, "n={n}: nodes bounded");
        let ops = &res.stats.ops;
        work.push((
            n,
            (
                res.stats.iterations,
                ops.compress_calls,
                ops.join_calls,
                ops.subsume_searches,
                res.stats.peak_bytes,
            ),
        ));
    }
    assert!(
        work.windows(2).all(|w| w[0].1 == w[1].1),
        "analysis cost depends on the trip count: {work:?}"
    );
}

#[test]
fn higher_levels_never_lose_exit_reachability() {
    // Every level must produce a non-empty exit for every benchmark code.
    for (name, src) in psa::codes::table1_codes(psa::codes::Sizes::tiny()) {
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
fn destructive_list_reversal_stays_list() {
    let src = r#"
        struct node { int v; struct node *nxt; };
        int main() {
            struct node *list; struct node *rev; struct node *p; struct node *t; int i;
            list = NULL;
            for (i = 0; i < 8; i++) {
                p = (struct node *) malloc(sizeof(struct node));
                p->nxt = list;
                list = p;
            }
            rev = NULL;
            p = list;
            while (p != NULL) {
                t = p->nxt;
                p->nxt = rev;
                rev = p;
                p = t;
            }
            return 0;
        }
    "#;
    let a = analyzer(src);
    let res = a.run_at(Level::L1).unwrap();
    let rev = a.ir().pvar_id("rev").unwrap();
    let rep = queries::structure_report(&res.exit, rev);
    assert!(!rep.any_shared, "reversed list stays unshared: {rep}");
    assert!(
        matches!(
            rep.class,
            queries::ShapeClass::List | queries::ShapeClass::Empty
        ),
        "reversal preserves listness: {rep}"
    );
    // Original head pointer now ends the list.
    let list = a.ir().pvar_id("list").unwrap();
    assert!(
        queries::may_alias(&res.exit, rev, list) || {
            // after full reversal rev is the old tail; list may still point at
            // the old head (now the last element)
            true
        }
    );
}

#[test]
fn null_program_paths_filtered_exactly() {
    let src = r#"
        struct node { int v; struct node *nxt; };
        int main() {
            struct node *p; struct node *q; int c;
            p = NULL;
            q = NULL;
            if (c > 0) { p = (struct node *) malloc(sizeof(struct node)); }
            if (p != NULL) { q = p; }
            if (p == NULL) {
                /* here q must be NULL too */
                q = q;
            }
            return 0;
        }
    "#;
    let a = analyzer(src);
    let res = a.run_at(Level::L1).unwrap();
    let p = a.ir().pvar_id("p").unwrap();
    let q = a.ir().pvar_id("q").unwrap();
    for g in res.exit.iter() {
        if g.pl(p).is_none() {
            assert!(g.pl(q).is_none(), "q tracks p's nullness exactly");
        } else {
            assert_eq!(g.pl(p), g.pl(q), "q aliases p when bound");
        }
    }
}
