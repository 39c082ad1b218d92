//! Synthetic workload generators: parameterizable pointer programs for the
//! scaling/ablation benchmarks and a seeded random well-typed program
//! generator for differential soundness testing.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A program that builds a singly-linked list of `n` nodes and traverses it
/// `passes` times.
pub fn list_program(n: usize, passes: usize) -> String {
    let mut traversals = String::new();
    for _ in 0..passes {
        traversals
            .push_str("    p = list;\n    while (p != NULL) { p->v = p->v + 1; p = p->nxt; }\n");
    }
    format!(
        r#"
struct node {{ int v; struct node *nxt; }};
int main() {{
    struct node *list;
    struct node *p;
    int i;
    list = NULL;
    for (i = 0; i < {n}; i++) {{
        p = (struct node *) malloc(sizeof(struct node));
        p->v = i;
        p->nxt = list;
        list = p;
    }}
{traversals}    return 0;
}}
"#
    )
}

/// A program that builds a doubly-linked list of `n` nodes, traverses it
/// forward, then unlinks elements from the front.
pub fn dll_program(n: usize) -> String {
    format!(
        r#"
struct node {{ int v; struct node *nxt; struct node *prv; }};
int main() {{
    struct node *list;
    struct node *p;
    struct node *t;
    int i;
    list = NULL;
    for (i = 0; i < {n}; i++) {{
        p = (struct node *) malloc(sizeof(struct node));
        p->v = i;
        p->nxt = list;
        p->prv = NULL;
        if (list != NULL) {{
            list->prv = p;
        }}
        list = p;
    }}
    p = list;
    while (p != NULL) {{
        p->v = p->v * 2;
        p = p->nxt;
    }}
    while (list != NULL) {{
        t = list->nxt;
        list->nxt = NULL;
        if (t != NULL) {{
            t->prv = NULL;
        }}
        list = t;
    }}
    return 0;
}}
"#
    )
}

/// A program that builds a binary tree by repeated leaf insertion (branch
/// choice is an opaque scalar test) and then walks it with an explicit
/// stack.
pub fn tree_program(n: usize) -> String {
    format!(
        r#"
struct tnode {{ int v; struct tnode *l; struct tnode *r; }};
struct stk {{ struct stk *prev; struct tnode *node; }};
int main() {{
    struct tnode *root;
    struct tnode *cur;
    struct tnode *fresh;
    struct stk *top;
    struct stk *sp;
    int i;
    int sum;
    root = (struct tnode *) malloc(sizeof(struct tnode));
    root->v = 0;
    root->l = NULL;
    root->r = NULL;
    for (i = 1; i < {n}; i++) {{
        fresh = (struct tnode *) malloc(sizeof(struct tnode));
        fresh->v = i;
        fresh->l = NULL;
        fresh->r = NULL;
        cur = root;
        for (;;) {{
            if (i % 2 == 0) {{
                if (cur->l == NULL) {{
                    cur->l = fresh;
                    break;
                }} else {{
                    cur = cur->l;
                }}
            }} else {{
                if (cur->r == NULL) {{
                    cur->r = fresh;
                    break;
                }} else {{
                    cur = cur->r;
                }}
            }}
        }}
    }}
    /* stack walk */
    sum = 0;
    top = (struct stk *) malloc(sizeof(struct stk));
    top->prev = NULL;
    top->node = root;
    while (top != NULL) {{
        cur = top->node;
        top = top->prev;
        sum = sum + cur->v;
        if (cur->l != NULL) {{
            sp = (struct stk *) malloc(sizeof(struct stk));
            sp->node = cur->l;
            sp->prev = top;
            top = sp;
        }}
        if (cur->r != NULL) {{
            sp = (struct stk *) malloc(sizeof(struct stk));
            sp->node = cur->r;
            sp->prev = top;
            top = sp;
        }}
    }}
    return 0;
}}
"#
    )
}

/// A list-of-lists program (`n` outer rows of `m` inner items), the shape of
/// the sparse-matrix headers.
pub fn list_of_lists_program(n: usize, m: usize) -> String {
    format!(
        r#"
struct item {{ int v; struct item *nxt; }};
struct head {{ struct item *items; struct head *nxt; }};
int main() {{
    struct head *rows;
    struct head *h;
    struct item *it;
    int i;
    int j;
    rows = NULL;
    for (i = 0; i < {n}; i++) {{
        h = (struct head *) malloc(sizeof(struct head));
        h->items = NULL;
        for (j = 0; j < {m}; j++) {{
            it = (struct item *) malloc(sizeof(struct item));
            it->v = j;
            it->nxt = h->items;
            h->items = it;
        }}
        h->nxt = rows;
        rows = h;
    }}
    h = rows;
    while (h != NULL) {{
        it = h->items;
        while (it != NULL) {{
            it->v = it->v + 1;
            it = it->nxt;
        }}
        h = h->nxt;
    }}
    return 0;
}}
"#
    )
}

/// A seeded random but **well-typed** pointer program over `pvars` pointer
/// variables of one self-referential struct with two selectors, containing
/// straight-line pointer statements, `if` guards and bounded loops. Used by
/// the differential soundness tests: every generated program parses, lowers,
/// terminates concretely and never crashes (dereferences are NULL-guarded).
pub fn random_program(seed: u64, stmts: usize, pvars: usize) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let pvars = pvars.clamp(2, 6);
    let names: Vec<String> = (0..pvars).map(|i| format!("v{i}")).collect();
    let sels = ["a", "b"];
    let mut body = String::new();
    let mut depth: usize = 0;
    let mut open_loops = 0usize;

    let emit = |body: &mut String, depth: usize, line: &str| {
        for _ in 0..depth + 1 {
            body.push_str("    ");
        }
        body.push_str(line);
        body.push('\n');
    };

    for k in 0..stmts {
        let x = &names[rng.gen_range(0..pvars)];
        let y = &names[rng.gen_range(0..pvars)];
        let t = &names[rng.gen_range(0..pvars)];
        let s = sels[rng.gen_range(0usize..2)];
        let s2 = sels[rng.gen_range(0usize..2)];
        match rng.gen_range(0..16) {
            0 => emit(&mut body, depth, &format!("{x} = NULL;")),
            1 | 2 => emit(
                &mut body,
                depth,
                &format!("{x} = (struct cell *) malloc(sizeof(struct cell));"),
            ),
            3 => emit(&mut body, depth, &format!("{x} = {y};")),
            4 | 5 => emit(
                &mut body,
                depth,
                &format!("if ({x} != NULL) {{ {x}->{s} = {y}; }}"),
            ),
            6 => emit(
                &mut body,
                depth,
                &format!("if ({x} != NULL) {{ {x}->{s} = NULL; }}"),
            ),
            7 | 8 => emit(
                &mut body,
                depth,
                &format!("if ({y} != NULL) {{ {x} = {y}->{s}; }}"),
            ),
            9 => emit(
                &mut body,
                depth,
                &format!("if ({x} != NULL && {x}->{s} != NULL) {{ {x}->{s}->{s2} = {y}; }}"),
            ),
            10 if depth < 2 && k + 4 < stmts => {
                // A bounded traversal loop.
                emit(&mut body, depth, &format!("{x} = {y};"));
                emit(&mut body, depth, &format!("while ({x} != NULL) {{"));
                depth += 1;
                open_loops += 1;
                emit(&mut body, depth, &format!("{x} = {x}->{s};"));
            }
            12 => {
                // Conditional free: the analysis must survive a dying
                // region (free lowers to a no-op, the NULLing is real).
                emit(
                    &mut body,
                    depth,
                    &format!("if ({x} != NULL) {{ free({x}); {x} = NULL; }}"),
                );
            }
            13 if t != x && t != y => {
                // Pointer swap through a third pvar.
                emit(&mut body, depth, &format!("{t} = {x};"));
                emit(&mut body, depth, &format!("{x} = {y};"));
                emit(&mut body, depth, &format!("{y} = {t};"));
            }
            14 => {
                // DLL-style back-link pair: creates the must-cycle pattern
                // CYCLELINKS exists for.
                emit(
                    &mut body,
                    depth,
                    &format!(
                        "if ({x} != NULL && {y} != NULL) {{ {x}->{s} = {y}; {y}->{s2} = {x}; }}"
                    ),
                );
            }
            15 => {
                // Tree-mutator leaf prune: cuts both children.
                emit(
                    &mut body,
                    depth,
                    &format!("if ({x} != NULL) {{ {x}->a = NULL; {x}->b = NULL; }}"),
                );
            }
            _ => {
                if open_loops > 0 {
                    depth -= 1;
                    open_loops -= 1;
                    emit(&mut body, depth, "}");
                } else {
                    emit(&mut body, depth, &format!("{x} = {y};"));
                }
            }
        }
    }
    while open_loops > 0 {
        depth -= 1;
        open_loops -= 1;
        emit(&mut body, depth, "}");
    }

    let decls: String = names
        .iter()
        .map(|n| format!("    struct cell *{n};\n"))
        .collect();
    format!(
        "struct cell {{ int v; struct cell *a; struct cell *b; }};\n\
         int main() {{\n{decls}{body}    return 0;\n}}\n"
    )
}

/// A seeded DLL stress program: build a doubly-linked list of `n` nodes,
/// then apply a random sequence of guarded mutations (front pop, front
/// push, cursor advance, unlink-after-cursor) that exercises the
/// CYCLELINKS machinery. Always NULL-guarded; always terminates.
pub fn dll_mutator_program(seed: u64, n: usize) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = String::new();
    for _ in 0..n.max(4) {
        let op: &str = match rng.gen_range(0..4) {
            0 => {
                // Pop front.
                "    if (list != NULL) {\n        t = list->nxt;\n        list->nxt = NULL;\n        if (t != NULL) { t->prv = NULL; }\n        list = t;\n    }\n"
            }
            1 => {
                // Push front.
                "    p = (struct node *) malloc(sizeof(struct node));\n    p->nxt = list;\n    p->prv = NULL;\n    if (list != NULL) { list->prv = p; }\n    list = p;\n"
            }
            2 => {
                // (Re)seat and advance the cursor.
                "    if (c == NULL) { c = list; }\n    if (c != NULL) { c = c->nxt; }\n"
            }
            _ => {
                // Unlink the node after the cursor.
                "    if (c != NULL) {\n        t = c->nxt;\n        if (t != NULL) {\n            u = t->nxt;\n            c->nxt = u;\n            if (u != NULL) { u->prv = c; }\n            t->nxt = NULL;\n            t->prv = NULL;\n        }\n    }\n"
            }
        };
        ops.push_str(op);
    }
    format!(
        r#"
struct node {{ int v; struct node *nxt; struct node *prv; }};
int main() {{
    struct node *list;
    struct node *p;
    struct node *c;
    struct node *t;
    struct node *u;
    int i;
    list = NULL;
    c = NULL;
    for (i = 0; i < {n}; i++) {{
        p = (struct node *) malloc(sizeof(struct node));
        p->nxt = list;
        p->prv = NULL;
        if (list != NULL) {{
            list->prv = p;
        }}
        list = p;
    }}
{ops}    return 0;
}}
"#
    )
}

/// A seeded binary-tree stress program: build a small tree, then apply a
/// random sequence of guarded mutations (leaf prune, subtree graft — which
/// may create sharing or cycles, rotation-ish child swaps). The analysis
/// must stay a sound over-approximation through all of them.
pub fn tree_mutator_program(seed: u64, n: usize) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = String::new();
    for _ in 0..n.max(4) {
        let op: &str = match rng.gen_range(0..4) {
            0 => {
                // Prune both children of the cursor.
                "    if (c != NULL) { c->l = NULL; c->r = NULL; }\n"
            }
            1 => {
                // Descend left-or-right (opaque choice).
                "    if (c == NULL) { c = root; }\n    if (c != NULL) {\n        if (i % 2 == 0) { c = c->l; } else { c = c->r; }\n    }\n    i = i + 1;\n"
            }
            2 => {
                // Graft: hang a fresh node on the cursor's left.
                "    if (c != NULL) {\n        f = (struct tnode *) malloc(sizeof(struct tnode));\n        f->l = NULL;\n        f->r = NULL;\n        c->l = f;\n    }\n"
            }
            _ => {
                // Cross-graft the root under the cursor: may introduce
                // sharing and cycles — exactly what the soundness oracle
                // wants to see survive.
                "    if (c != NULL) { c->r = root; }\n"
            }
        };
        ops.push_str(op);
    }
    format!(
        r#"
struct tnode {{ int v; struct tnode *l; struct tnode *r; }};
int main() {{
    struct tnode *root;
    struct tnode *c;
    struct tnode *f;
    int i;
    i = 0;
    root = (struct tnode *) malloc(sizeof(struct tnode));
    root->l = NULL;
    root->r = NULL;
    f = (struct tnode *) malloc(sizeof(struct tnode));
    f->l = NULL;
    f->r = NULL;
    root->l = f;
    f = (struct tnode *) malloc(sizeof(struct tnode));
    f->l = NULL;
    f->r = NULL;
    root->r = f;
    c = root;
{ops}    return 0;
}}
"#
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutator_programs_parse_and_lower() {
        for seed in 0..12u64 {
            for src in [dll_mutator_program(seed, 8), tree_mutator_program(seed, 8)] {
                let (p, t) = psa_cfront::parse_and_type(&src)
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
                psa_ir::lower_program(&p, &t, "main")
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
            }
        }
    }

    #[test]
    fn mutator_programs_are_deterministic() {
        assert_eq!(dll_mutator_program(7, 9), dll_mutator_program(7, 9));
        assert_eq!(tree_mutator_program(7, 9), tree_mutator_program(7, 9));
    }

    #[test]
    fn generated_programs_parse_and_lower() {
        for src in [
            list_program(10, 2),
            dll_program(8),
            tree_program(9),
            list_of_lists_program(5, 4),
        ] {
            let (p, t) = psa_cfront::parse_and_type(&src).unwrap();
            psa_ir::lower_program(&p, &t, "main").unwrap();
        }
    }

    #[test]
    fn random_programs_always_valid() {
        for seed in 0..60 {
            let src = random_program(seed, 24, 4);
            let (p, t) = psa_cfront::parse_and_type(&src)
                .unwrap_or_else(|e| panic!("seed {seed}: parse error {e}\n{src}"));
            psa_ir::lower_program(&p, &t, "main")
                .unwrap_or_else(|e| panic!("seed {seed}: lower error {e}\n{src}"));
        }
    }

    #[test]
    fn random_program_is_deterministic() {
        assert_eq!(random_program(42, 20, 4), random_program(42, 20, 4));
        assert_ne!(random_program(42, 20, 4), random_program(43, 20, 4));
    }

    #[test]
    fn list_program_scales() {
        let small = list_program(5, 1);
        let big = list_program(500, 1);
        assert!(small.contains("i < 5"));
        assert!(big.contains("i < 500"));
    }
}
