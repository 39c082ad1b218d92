//! End-to-end frontend coverage: the exact C-subset boundary, error
//! reporting quality, and normalization fidelity on awkward-but-legal
//! inputs.

use psa::core::api::Error;
use psa::core::api::{AnalysisOptions, Analyzer};
use psa::core::memsafe::{MemCheck, MemVerdict};
use psa::rsg::Level;

fn analyze(src: &str) -> Result<(), String> {
    let a = Analyzer::new(src, AnalysisOptions::at_level(Level::L1)).map_err(|e| e.to_string())?;
    a.run().map(|_| ()).map_err(|e| e.to_string())
}

#[test]
fn typedefs_through_the_whole_pipeline() {
    let src = r#"
        struct cell { int v; struct cell *nxt; };
        typedef struct cell cell_t;
        typedef cell_t *list_t;
        int main() {
            list_t head;
            cell_t *p;
            head = NULL;
            p = (cell_t *) malloc(sizeof(struct cell));
            p->nxt = head;
            head = p;
            return 0;
        }
    "#;
    analyze(src).expect("typedef chains resolve");
}

#[test]
fn do_while_and_compound_assign() {
    let src = r#"
        struct node { int v; struct node *nxt; };
        int main() {
            struct node *list;
            struct node *p;
            int i;
            list = NULL;
            i = 0;
            do {
                p = (struct node *) malloc(sizeof(struct node));
                p->nxt = list;
                list = p;
                i += 1;
            } while (i < 5);
            return 0;
        }
    "#;
    analyze(src).expect("do-while and += lower");
}

#[test]
fn ternary_pointer_assignment() {
    let src = r#"
        struct node { int v; struct node *nxt; };
        int main() {
            struct node *a;
            struct node *b;
            struct node *c;
            int k;
            a = (struct node *) malloc(sizeof(struct node));
            b = (struct node *) malloc(sizeof(struct node));
            c = (k > 0) ? a : b;
            return 0;
        }
    "#;
    analyze(src).expect("pointer ternary lowers to if/else");
}

#[test]
fn deep_member_chains() {
    let src = r#"
        struct node { int v; struct node *nxt; };
        int main() {
            struct node *a;
            a = (struct node *) malloc(sizeof(struct node));
            a->nxt = (struct node *) malloc(sizeof(struct node));
            a->nxt->nxt = (struct node *) malloc(sizeof(struct node));
            a->nxt->nxt->nxt = a;
            a->nxt->nxt->nxt->nxt->v = 7;
            return 0;
        }
    "#;
    analyze(src).expect("4-deep chains normalize through temporaries");
}

#[test]
fn short_circuit_mixed_conditions() {
    let src = r#"
        struct node { int v; struct node *nxt; };
        int main() {
            struct node *p;
            struct node *q;
            int i;
            p = (struct node *) malloc(sizeof(struct node));
            if (p != NULL && (i < 3 || p == q) && p->nxt == NULL) {
                p->v = 1;
            }
            return 0;
        }
    "#;
    analyze(src).expect("mixed &&/|| with pointer and scalar leaves");
}

#[test]
fn global_pointer_initializer_order() {
    let src = r#"
        struct node { int v; struct node *nxt; };
        struct node *g1;
        struct node *g2;
        int main() {
            g1 = (struct node *) malloc(sizeof(struct node));
            g2 = g1;
            return 0;
        }
    "#;
    analyze(src).expect("globals registered before body");
}

#[test]
fn errors_are_informative() {
    // Arrays.
    let e = analyze("int main() { int a[4]; return 0; }").unwrap_err();
    assert!(e.contains("array"), "{e}");
    // Unknown struct.
    let e = analyze("struct a { struct nope *p; }; int main() { return 0; }").unwrap_err();
    assert!(e.contains("unknown struct"), "{e}");
    // Struct by value.
    let e = analyze("struct a { int v; }; int main() { struct a x; return 0; }").unwrap_err();
    assert!(e.contains("struct value") || e.contains("pointers"), "{e}");
    // Unknown call with pointer argument.
    let e = analyze("struct a { struct a *n; }; int main() { struct a *p; frob(p); return 0; }")
        .unwrap_err();
    assert!(e.contains("inline"), "{e}");
}

#[test]
fn frontend_error_type_roundtrip() {
    match Analyzer::new("int main() { ??? }", AnalysisOptions::default()) {
        Err(Error::Frontend(d)) => {
            assert!(d.span.line >= 1);
        }
        Err(other) => panic!("expected frontend error, got {other}"),
        Ok(_) => panic!("expected frontend error, got success"),
    }
}

#[test]
fn null_vs_zero_literal() {
    // `p = 0` is the null pointer constant, same as `p = NULL`.
    let src = r#"
        struct node { int v; struct node *nxt; };
        int main() {
            struct node *p;
            struct node *q;
            p = 0;
            q = NULL;
            return 0;
        }
    "#;
    let a = Analyzer::new(src, AnalysisOptions::default()).unwrap();
    let res = a.run().unwrap();
    let p = a.ir().pvar_id("p").unwrap();
    let q = a.ir().pvar_id("q").unwrap();
    assert!(psa::core::queries::always_null(&res.exit, p));
    assert!(psa::core::queries::always_null(&res.exit, q));
}

#[test]
fn comments_and_preprocessor_skipped() {
    let src = r#"
        #include <stdlib.h>
        /* a matrix of
           comments */
        struct node { int v; struct node *nxt; }; // trailing
        int main() {
            struct node *p; // decl
            p = NULL; /* assignment */
            return 0;
        }
    "#;
    analyze(src).expect("trivia ignored");
}

#[test]
fn multiple_functions_only_entry_analyzed() {
    let src = r#"
        struct node { int v; struct node *nxt; };
        int helper_scalar(int a, int b) { return a + b; }
        int main() {
            struct node *p;
            int x;
            x = helper_scalar(1, 2);
            p = (struct node *) malloc(sizeof(struct node));
            return 0;
        }
    "#;
    // helper_scalar is inlined (scalar-only), analysis proceeds.
    analyze(src).expect("scalar helper inlines");
}

#[test]
fn switch_statement_lowers_to_chain() {
    let src = r#"
        struct node { int v; struct node *nxt; };
        int main() {
            int mode;
            struct node *p;
            p = NULL;
            switch (mode) {
                case 0:
                    p = (struct node *) malloc(sizeof(struct node));
                    break;
                case 1:
                    p = NULL;
                    break;
                default:
                    p = (struct node *) malloc(sizeof(struct node));
            }
            return 0;
        }
    "#;
    let a = Analyzer::new(src, AnalysisOptions::default()).unwrap();
    let res = a.run().unwrap();
    let p = a.ir().pvar_id("p").unwrap();
    // Both outcomes reachable (mode unknown).
    assert!(psa::core::queries::may_be_null(&res.exit, p));
    assert!(res.exit.iter().any(|g| g.pl(p).is_some()));
}

#[test]
fn switch_on_known_flag_is_precise() {
    let src = r#"
        struct node { int v; struct node *nxt; };
        int main() {
            int mode;
            struct node *p;
            p = NULL;
            mode = 1;
            switch (mode) {
                case 0:
                    p = (struct node *) malloc(sizeof(struct node));
                    break;
                case 1:
                    p = NULL;
                    break;
                default:
                    p = (struct node *) malloc(sizeof(struct node));
            }
            return 0;
        }
    "#;
    let a = Analyzer::new(src, AnalysisOptions::default()).unwrap();
    let res = a.run().unwrap();
    let p = a.ir().pvar_id("p").unwrap();
    assert!(
        psa::core::queries::always_null(&res.exit, p),
        "only the case-1 arm is live when mode == 1"
    );
}

#[test]
fn switch_fallthrough_rejected() {
    let src = r#"
        int main() {
            int m;
            switch (m) {
                case 0:
                    m = 1;
                case 1:
                    m = 2;
                    break;
            }
            return 0;
        }
    "#;
    let err = Analyzer::new(src, AnalysisOptions::default())
        .err()
        .expect("fallthrough is outside the subset");
    assert_eq!(
        err.to_string(),
        "7:17: error: switch arms must end with `break` (fallthrough is outside the C subset)"
    );
}

/// Shared by most lowering-boundary probes: `push`/`pushc` prepend a
/// malloc'd node to the global `list`, `pushc` returns 1, and `mk` returns
/// a fresh node.
const PROBE_HEADER: &str = r#"
    struct node { int v; struct node *nxt; };
    struct node *list;
    void push(void) {
        struct node *p;
        p = (struct node *) malloc(sizeof(struct node));
        p->nxt = list;
        list = p;
    }
    int pushc(void) { push(); return 1; }
    struct node *mk(void) {
        struct node *p;
        p = (struct node *) malloc(sizeof(struct node));
        p->nxt = NULL;
        return p;
    }
"#;

/// For the probes with a summarized callee: `len` is recursive, and
/// recursion rules out pointer and int globals such as `list`.
const RECURSIVE_HEADER: &str = r#"
    struct node { int v; struct node *nxt; };
    int len(struct node *l) {
        int n;
        if (l == NULL) { return 0; }
        n = len(l->nxt);
        return n + 1;
    }
"#;

/// What a lowering-boundary probe must do.
enum Expect {
    /// Analyze, with the named pvar pointing to a node in some exit graph.
    Reaches(&'static str),
    /// Analyze with no null-deref violation, and with `x`'s node linked to
    /// `y`'s in some exit graph.
    LinksXToY,
    /// Fail to lower with a message containing this text.
    Rejected(&'static str),
}

const HOIST: &str = "cannot be inlined here; hoist it into its own statement";
const STRUCT_VALUE: &str =
    "`g` is a struct value; only pointers to structs and scalars are supported";

#[test]
fn lowering_boundary_probes() {
    let with_list = |body: &str| format!("{PROBE_HEADER}{body}");
    let with_len = |body: &str| format!("{RECURSIVE_HEADER}{body}");
    let probes = [
        (
            "P1: call in a switch arm",
            with_list(
                "int main() { int i; int k; list = NULL;
                     for (i = 0; i < 5; i++) { switch (k) { case 1: push(); break; default: break; } }
                     return 0; }",
            ),
            Expect::Reaches("list"),
        ),
        (
            "P2: discarded `return f()`",
            with_list(
                "int g(void) { return pushc(); }
                 int main() { list = NULL; g(); return 0; }",
            ),
            Expect::Reaches("list"),
        ),
        (
            "P3: call in the entry's return",
            with_list("int main() { list = NULL; return pushc(); }"),
            Expect::Rejected(HOIST),
        ),
        (
            "P4: call as a for step",
            with_list(
                "int main() { int i; list = NULL; for (i = 0; i < 5; push()) { i = i + 1; } return 0; }",
            ),
            Expect::Rejected(HOIST),
        ),
        (
            "P5: call as an operand",
            with_list(
                "int main() { int i; int n; list = NULL; n = 0;
                     for (i = 0; i < 5; i++) { n = n + pushc(); } return 0; }",
            ),
            Expect::Rejected(HOIST),
        ),
        (
            "P6: assigned `return f()`",
            with_list(
                "struct node *mk2(void) { return mk(); }
                 int main() { struct node *a; a = mk2(); return 0; }",
            ),
            Expect::Reaches("a"),
        ),
        (
            "P7: callee locals named like the caller's, used in a switch arm",
            with_list(
                "void link(struct node *a, struct node *b, int k) {
                     switch (k) { case 1: a->nxt = b; break; default: break; }
                 }
                 int main() {
                     struct node *a; struct node *b; struct node *x; struct node *y; int k;
                     a = NULL; b = NULL; k = 1;
                     x = (struct node *) malloc(sizeof(struct node));
                     y = (struct node *) malloc(sizeof(struct node));
                     link(x, y, k);
                     return 0;
                 }",
            ),
            Expect::LinksXToY,
        ),
        (
            "P8: early return in a switch arm",
            with_list(
                "void maybe(int k) {
                     list = NULL;
                     switch (k) { case 1: return; default: break; }
                     list = (struct node *) malloc(sizeof(struct node));
                 }
                 int main() { int k; maybe(k); list->v = 1; return 0; }",
            ),
            Expect::Rejected("`maybe` has an early return"),
        ),
        (
            "declaration from a call in a switch arm, shadowing the caller's",
            with_list(
                "int main() { struct node *p; int k; p = NULL; list = NULL;
                     switch (k) {
                     case 1: k = 2; struct node *p = mk(); p->nxt = list; list = p; break;
                     default: break;
                     }
                     return 0; }",
            ),
            Expect::Reaches("list"),
        ),
        (
            "declaration from a call in a for init, shadowing the caller's",
            with_list(
                "int main() { struct node *p; p = NULL; list = NULL;
                     for (struct node *p = mk(); p != NULL; p = NULL) { list = p; }
                     return 0; }",
            ),
            Expect::Reaches("list"),
        ),
        (
            "early return in an if",
            with_list(
                "int f(int c) { if (c > 0) { return 1; } return 0; }
                 int main() { int x; x = f(3); return 0; }",
            ),
            Expect::Rejected("`f` has an early return"),
        ),
        (
            "call in a condition",
            with_list("int main() { list = NULL; if (pushc() > 0) { return 1; } return 0; }"),
            Expect::Rejected(HOIST),
        ),
        (
            "summarized call in a condition",
            with_len("int main() { struct node *l; l = NULL; if (len(l) == 0) { return 1; } return 0; }"),
            Expect::Rejected(HOIST),
        ),
        (
            "call as an argument",
            with_list(
                "int g(int a) { return a; }
                 int main() { int x; list = NULL; x = g(pushc()); return 0; }",
            ),
            Expect::Rejected(HOIST),
        ),
        (
            "call in a global initializer",
            with_list("int n = pushc(); int main() { list = NULL; return 0; }"),
            Expect::Rejected(HOIST),
        ),
        (
            "call as a switch scrutinee",
            with_list("int main() { list = NULL; switch (pushc()) { default: break; } return 0; }"),
            Expect::Rejected(HOIST),
        ),
        (
            "call in a malloc size",
            with_list(
                "int main() { list = (struct node *) malloc(sizeof(struct node) * pushc()); return 0; }",
            ),
            Expect::Rejected(HOIST),
        ),
        (
            "call in a pointer conditional",
            with_list("int main() { int k; list = NULL; list = k ? mk() : NULL; return 0; }"),
            Expect::Rejected(HOIST),
        ),
        (
            "summarized call as an intrinsic's argument",
            with_len(
                r#"int main() { struct node *l; l = NULL; printf("%d", len(l)); return 0; }"#,
            ),
            Expect::Rejected(HOIST),
        ),
        (
            "call in a summarized function's return",
            with_len(
                "int one(void) { return 1; }
                 int size(struct node *l) {
                     if (l == NULL) { return one(); }
                     return size(l->nxt);
                 }
                 int main() { struct node *l; int n; l = NULL; n = size(l); return 0; }",
            ),
            Expect::Rejected(HOIST),
        ),
        (
            "struct-value global",
            with_list("struct node g; int main() { list = NULL; return 0; }"),
            Expect::Rejected(STRUCT_VALUE),
        ),
        (
            "struct-value global next to a recursive function",
            with_len("struct node g; int main() { int n; n = len(NULL); return 0; }"),
            Expect::Rejected(STRUCT_VALUE),
        ),
    ];
    for (name, src, expect) in probes {
        let lowered = Analyzer::new(&src, AnalysisOptions::default());
        let a = match (&expect, lowered) {
            (Expect::Rejected(msg), Err(e)) => {
                assert!(e.to_string().contains(msg), "{name}: wrong error: {e}");
                continue;
            }
            (Expect::Rejected(_), Ok(_)) => panic!("{name}: lowered, expected an error"),
            (_, Err(e)) => panic!("{name}: {e}"),
            (_, Ok(a)) => a,
        };
        let res = a.run().unwrap_or_else(|e| panic!("{name}: {e}"));
        let pvar = |n: &str| a.ir().pvar_id(n).unwrap();
        match expect {
            Expect::Reaches(p) => assert!(
                res.exit.iter().any(|g| g.pl(pvar(p)).is_some()),
                "{name}: `{p}` reaches no node at exit"
            ),
            Expect::LinksXToY => {
                let mem = psa::core::memsafe::memory_report(a.ir(), &res);
                assert!(
                    !mem.sites
                        .iter()
                        .any(|s| s.check == MemCheck::NullDeref
                            && s.verdict == MemVerdict::Violation),
                    "{name}: null-deref violation C cannot reach:\n{mem}"
                );
                let (x, y) = (pvar("x"), pvar("y"));
                let nxt = a.ir().types.selector_id("nxt").unwrap();
                assert!(
                    res.exit.iter().any(|g| match (g.pl(x), g.pl(y)) {
                        (Some(nx), Some(ny)) => g.has_link(nx, nxt, ny),
                        _ => false,
                    }),
                    "{name}: x's node never links to y's"
                );
            }
            Expect::Rejected(_) => unreachable!("handled above"),
        }
    }
}
