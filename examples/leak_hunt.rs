//! Leak hunting with the memory-safety client: leak verdicts read off the
//! per-statement RSRSGs.
//!
//! ```sh
//! cargo run --release --example leak_hunt
//! ```

use psa::core::api::{AnalysisOptions, Analyzer};
use psa::core::memsafe::{memory_report, MemCheck};

const LEAKY: &str = r#"
struct node { int v; struct node *nxt; };

int main() {
    struct node *list;
    struct node *p;
    struct node *tmp;
    int i;

    /* build a list */
    list = NULL;
    for (i = 0; i < 10; i++) {
        p = (struct node *) malloc(sizeof(struct node));
        p->nxt = list;
        list = p;
    }

    /* walk off the list; p (the build cursor) still holds the head */
    while (list != NULL) {
        tmp = list->nxt;
        list = tmp;
    }

    /* dropping the build cursor now orphans the whole chain */
    p = NULL;
    if (p != NULL) {
        p->v = 1;
    }
    return 0;
}
"#;

fn main() {
    let analyzer = Analyzer::new(LEAKY, AnalysisOptions::default()).expect("program lowers");
    let result = analyzer.run().expect("analysis converges");

    let report = memory_report(analyzer.ir(), &result);
    println!("=== memory-safety report ===");
    print!("{report}");

    // Note the precision: `list = tmp` inside the loop is NOT flagged —
    // the build cursor `p` still reaches every element. The leak happens
    // exactly when `p = NULL` drops the last reference to the chain.
    let leak_at = |stmt: &str| {
        report
            .flagged()
            .any(|s| s.check == MemCheck::Leak && s.rendered.contains(stmt))
    };
    assert!(
        leak_at("p = NULL"),
        "dropping the build cursor orphans the chain: {report}"
    );
    assert!(
        !leak_at("list = tmp"),
        "the traversal itself leaks nothing while p is alive"
    );
    println!("\n(`p = NULL` drops the last reference — no free() anywhere)");
}
