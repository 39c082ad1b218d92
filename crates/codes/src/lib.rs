//! # psa-codes — the paper's benchmark C codes and workload generators
//!
//! The four codes of Table 1, rewritten in the supported C subset exactly as
//! the paper describes them (their sources were never published; the data
//! structures and traversal skeletons follow §5 and Fig. 3):
//!
//! * [`sparse_matvec`] — sparse matrix (header list of rows, each row a list
//!   of elements) × vector (linked list), producing a result vector;
//! * [`sparse_matmat`] — sparse matrix × sparse matrix with result-row
//!   search-and-insert;
//! * [`sparse_lu`] — in-place sparse LU factorization over column lists with
//!   fill-in insertion (the code that exhausts the paper machine's memory at
//!   L2/L3);
//! * [`barnes_hut`] — the N-body code: a `Lbodies` singly-linked list, an
//!   octree with child lists, and an explicit traversal **stack** replacing
//!   the recursion (the paper performed that transformation manually, §5.1).
//!
//! [`generators`] produces synthetic pointer programs of parameterizable
//! size for the scaling/ablation benchmarks and a seeded random well-typed
//! program generator for differential soundness testing.

pub mod generators;
pub mod olden;

/// Parameters for the benchmark sources. The analysis result is independent
/// of the counts (loops are analyzed to a fixed point), but the concrete
/// interpreter executes them, so tests use small values.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Rows/columns of matrices, bodies in Barnes-Hut.
    pub n: usize,
    /// Entries per row/column.
    pub m: usize,
}

impl Default for Sizes {
    fn default() -> Self {
        Sizes { n: 20, m: 5 }
    }
}

impl Sizes {
    /// Small sizes for concrete execution in tests.
    pub fn tiny() -> Sizes {
        Sizes { n: 4, m: 2 }
    }
}

/// Sparse matrix × vector multiplication (S.Mat-Vec in Table 1).
pub fn sparse_matvec(s: Sizes) -> String {
    let (n, m) = (s.n, s.m);
    format!(
        r#"
/* Sparse matrix-vector product over linked structures.
 * Matrix: header list of rows, each row a list of elements.
 * Vectors: linked lists of (idx, val). */
struct elem {{ int col; double val; struct elem *nxt; }};
struct row  {{ int idx; struct elem *elems; struct row *nxt; }};
struct vnode {{ int idx; double val; struct vnode *nxt; }};

int main() {{
    struct row *A;
    struct row *r;
    struct elem *e;
    struct vnode *x;
    struct vnode *y;
    struct vnode *v;
    struct vnode *w;
    int i;
    int j;
    double sum;

    /* Build the sparse matrix. */
    A = NULL;
    for (i = 0; i < {n}; i++) {{
        r = (struct row *) malloc(sizeof(struct row));
        r->idx = i;
        r->elems = NULL;
        for (j = 0; j < {m}; j++) {{
            e = (struct elem *) malloc(sizeof(struct elem));
            e->col = j;
            e->val = 1.5;
            e->nxt = r->elems;
            r->elems = e;
        }}
        r->nxt = A;
        A = r;
    }}

    /* Build the input vector. */
    x = NULL;
    for (i = 0; i < {n}; i++) {{
        v = (struct vnode *) malloc(sizeof(struct vnode));
        v->idx = i;
        v->val = 2.0;
        v->nxt = x;
        x = v;
    }}

    /* y = A * x */
    y = NULL;
    r = A;
    while (r != NULL) {{
        sum = 0.0;
        e = r->elems;
        while (e != NULL) {{
            v = x;
            while (v != NULL && v->idx != e->col) {{
                v = v->nxt;
            }}
            if (v != NULL) {{
                sum = sum + e->val * v->val;
            }}
            e = e->nxt;
        }}
        w = (struct vnode *) malloc(sizeof(struct vnode));
        w->idx = r->idx;
        w->val = sum;
        w->nxt = y;
        y = w;
        r = r->nxt;
    }}
    return 0;
}}
"#
    )
}

/// Sparse matrix × sparse matrix multiplication (S.Mat-Mat in Table 1).
pub fn sparse_matmat(s: Sizes) -> String {
    let (n, m) = (s.n, s.m);
    format!(
        r#"
/* Sparse matrix-matrix product: C = A * B, all stored as header lists of
 * rows holding element lists. Result rows grow by search-and-insert. */
struct elem {{ int col; double val; struct elem *nxt; }};
struct row  {{ int idx; struct elem *elems; struct row *nxt; }};

int main() {{
    struct row *A;
    struct row *B;
    struct row *C;
    struct row *ra;
    struct row *rb;
    struct row *rc;
    struct elem *ea;
    struct elem *eb;
    struct elem *ec;
    struct elem *ne;
    int i;
    int j;

    /* Build A and B. */
    A = NULL;
    for (i = 0; i < {n}; i++) {{
        ra = (struct row *) malloc(sizeof(struct row));
        ra->idx = i;
        ra->elems = NULL;
        for (j = 0; j < {m}; j++) {{
            ea = (struct elem *) malloc(sizeof(struct elem));
            ea->col = j;
            ea->val = 1.0;
            ea->nxt = ra->elems;
            ra->elems = ea;
        }}
        ra->nxt = A;
        A = ra;
    }}
    B = NULL;
    for (i = 0; i < {n}; i++) {{
        rb = (struct row *) malloc(sizeof(struct row));
        rb->idx = i;
        rb->elems = NULL;
        for (j = 0; j < {m}; j++) {{
            eb = (struct elem *) malloc(sizeof(struct elem));
            eb->col = j;
            eb->val = 0.5;
            eb->nxt = rb->elems;
            rb->elems = eb;
        }}
        rb->nxt = B;
        B = rb;
    }}

    /* C = A * B */
    C = NULL;
    ra = A;
    while (ra != NULL) {{
        rc = (struct row *) malloc(sizeof(struct row));
        rc->idx = ra->idx;
        rc->elems = NULL;
        ea = ra->elems;
        while (ea != NULL) {{
            /* find row of B with idx == ea->col */
            rb = B;
            while (rb != NULL && rb->idx != ea->col) {{
                rb = rb->nxt;
            }}
            if (rb != NULL) {{
                eb = rb->elems;
                while (eb != NULL) {{
                    /* search C's current row for column eb->col */
                    ec = rc->elems;
                    while (ec != NULL && ec->col != eb->col) {{
                        ec = ec->nxt;
                    }}
                    if (ec != NULL) {{
                        ec->val = ec->val + ea->val * eb->val;
                    }} else {{
                        ne = (struct elem *) malloc(sizeof(struct elem));
                        ne->col = eb->col;
                        ne->val = ea->val * eb->val;
                        ne->nxt = rc->elems;
                        rc->elems = ne;
                    }}
                    eb = eb->nxt;
                }}
            }}
            ea = ea->nxt;
        }}
        rc->nxt = C;
        C = rc;
        ra = ra->nxt;
    }}
    return 0;
}}
"#
    )
}

/// In-place sparse LU factorization (S.LU fact. in Table 1).
pub fn sparse_lu(s: Sizes) -> String {
    let (n, m) = (s.n, s.m);
    format!(
        r#"
/* Sparse LU factorization over a header list of columns. Updates entries
 * in place and inserts fill-in entries into other columns' lists — the
 * destructive-update pattern that makes this code the analysis stress
 * test of Table 1. */
struct ent {{ int row; double val; struct ent *nxt; }};
struct col {{ int idx; struct ent *ents; struct col *nxt; }};

int main() {{
    struct col *M;
    struct col *ck;
    struct col *cj;
    struct ent *e;
    struct ent *p;
    struct ent *q;
    struct ent *fi;
    int i;
    int j;
    double piv;

    /* Build the matrix: columns each holding a sorted entry list. */
    M = NULL;
    for (i = 0; i < {n}; i++) {{
        ck = (struct col *) malloc(sizeof(struct col));
        ck->idx = i;
        ck->ents = NULL;
        for (j = 0; j < {m}; j++) {{
            e = (struct ent *) malloc(sizeof(struct ent));
            e->row = j;
            e->val = 1.0 + i;
            e->nxt = ck->ents;
            ck->ents = e;
        }}
        ck->nxt = M;
        M = ck;
    }}

    /* Factorize. */
    ck = M;
    while (ck != NULL) {{
        p = ck->ents;
        if (p != NULL) {{
            piv = p->val;
            /* scale the sub-pivot entries */
            e = p->nxt;
            while (e != NULL) {{
                e->val = e->val / piv;
                e = e->nxt;
            }}
            /* update the remaining columns */
            cj = ck->nxt;
            while (cj != NULL) {{
                e = p->nxt;
                while (e != NULL) {{
                    q = cj->ents;
                    while (q != NULL && q->row < e->row) {{
                        q = q->nxt;
                    }}
                    if (q != NULL && q->row == e->row) {{
                        q->val = q->val - e->val * piv;
                    }} else {{
                        /* fill-in */
                        fi = (struct ent *) malloc(sizeof(struct ent));
                        fi->row = e->row;
                        fi->val = 0.0 - e->val * piv;
                        fi->nxt = cj->ents;
                        cj->ents = fi;
                    }}
                    e = e->nxt;
                }}
                cj = cj->nxt;
            }}
        }}
        ck = ck->nxt;
    }}
    return 0;
}}
"#
    )
}

/// Barnes-Hut N-body simulation (§5.1, Fig. 3): `Lbodies` body list, octree
/// with child lists, explicit traversal stack, three phases.
pub fn barnes_hut(s: Sizes) -> String {
    let n = s.n;
    format!(
        r#"
/* Barnes-Hut N-body with the paper's manual transformations applied:
 * recursion turned into loops over an explicit stack (struct stk), all
 * subroutines inlined into main. The bodies live in the Lbodies list;
 * octree cells chain their children through child/next and leaves point
 * at bodies through body (Fig. 3(a)). */
struct body {{ double mass; double pos; double force; struct body *nxt; }};
struct cell {{ double mass; struct cell *child; struct cell *next; struct body *body; }};
struct stk  {{ struct stk *prev; struct cell *node; }};

struct body *Lbodies;

int main() {{
    struct body *b;
    struct cell *root;
    struct cell *cur;
    struct cell *q;
    struct cell *c;
    struct stk *top;
    struct stk *sp;
    int i;
    double m;
    double f;

    /* Create the Lbodies list. */
    Lbodies = NULL;
    for (i = 0; i < {n}; i++) {{
        b = (struct body *) malloc(sizeof(struct body));
        b->mass = 1.0;
        b->pos = i * 0.25;
        b->force = 0.0;
        b->nxt = Lbodies;
        Lbodies = b;
    }}

    /* (i) Build the octree by iterative insertion. */
    root = (struct cell *) malloc(sizeof(struct cell));
    root->mass = 0.0;
    root->child = NULL;
    root->next = NULL;
    root->body = NULL;
    b = Lbodies;
    while (b != NULL) {{
        cur = root;
        for (;;) {{
            if (cur->child == NULL) {{
                if (cur->body == NULL) {{
                    /* empty leaf: attach the body */
                    cur->body = b;
                    break;
                }} else {{
                    /* occupied leaf: split into a children list */
                    c = (struct cell *) malloc(sizeof(struct cell));
                    c->mass = 0.0;
                    c->child = NULL;
                    c->next = NULL;
                    c->body = cur->body;
                    cur->body = NULL;
                    cur->child = c;
                    q = (struct cell *) malloc(sizeof(struct cell));
                    q->mass = 0.0;
                    q->child = NULL;
                    q->next = cur->child;
                    q->body = NULL;
                    cur->child = q;
                }}
            }} else {{
                /* descend into the child subsquare for this position */
                q = cur->child;
                while (q->next != NULL && b->pos > 0.5) {{
                    q = q->next;
                }}
                cur = q;
            }}
        }}
        b = b->nxt;
    }}

    /* (ii) Compute masses over the octree (stack traversal). */
    top = (struct stk *) malloc(sizeof(struct stk));
    top->prev = NULL;
    top->node = root;
    while (top != NULL) {{
        cur = top->node;
        top = top->prev;
        q = cur->child;
        while (q != NULL) {{
            sp = (struct stk *) malloc(sizeof(struct stk));
            sp->node = q;
            sp->prev = top;
            top = sp;
            q = q->next;
        }}
        m = 0.0;
        if (cur->body != NULL) {{
            m = m + 1.0;
        }}
        cur->mass = cur->mass + m;
    }}

    /* (iii) Compute the force on every body (stack traversal per body). */
    b = Lbodies;
    while (b != NULL) {{
        f = 0.0;
        top = (struct stk *) malloc(sizeof(struct stk));
        top->prev = NULL;
        top->node = root;
        while (top != NULL) {{
            cur = top->node;
            top = top->prev;
            f = f + cur->mass * 0.5;
            q = cur->child;
            while (q != NULL) {{
                sp = (struct stk *) malloc(sizeof(struct stk));
                sp->node = q;
                sp->prev = top;
                top = sp;
                q = q->next;
            }}
        }}
        b->force = f;
        b = b->nxt;
    }}
    return 0;
}}
"#
    )
}

/// All four Table 1 codes as `(name, source)` with the given sizes.
pub fn table1_codes(s: Sizes) -> Vec<(&'static str, String)> {
    vec![
        ("S.Mat-Vec", sparse_matvec(s)),
        ("S.Mat-Mat", sparse_matmat(s)),
        ("S.LU fact.", sparse_lu(s)),
        ("Barnes-Hut", barnes_hut(s)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_codes_parse_and_type() {
        for (name, src) in table1_codes(Sizes::default()) {
            psa_cfront::parse_and_type(&src)
                .unwrap_or_else(|e| panic!("{name} fails to parse: {e}"));
        }
    }

    #[test]
    fn all_codes_lower() {
        for (name, src) in table1_codes(Sizes::default()) {
            let (p, t) = psa_cfront::parse_and_type(&src).unwrap();
            let ir = psa_ir::lower_program(&p, &t, "main")
                .unwrap_or_else(|e| panic!("{name} fails to lower: {e}"));
            assert!(
                ir.num_ptr_stmts() > 5,
                "{name} must contain pointer statements"
            );
            assert!(!ir.loops.is_empty(), "{name} must contain loops");
        }
    }

    #[test]
    fn barnes_hut_has_traversal_ipvars() {
        let src = barnes_hut(Sizes::default());
        let (p, t) = psa_cfront::parse_and_type(&src).unwrap();
        let ir = psa_ir::lower_program(&p, &t, "main").unwrap();
        let b = ir.pvar_id("b").unwrap();
        let top = ir.pvar_id("top").unwrap();
        // Some loop must traverse via b (body list), some via top (stack).
        assert!(ir.loops.iter().any(|l| l.ipvars.contains(&b)));
        assert!(ir.loops.iter().any(|l| l.ipvars.contains(&top)));
    }

    #[test]
    fn sizes_parameterize_source() {
        let a = sparse_matvec(Sizes { n: 7, m: 3 });
        assert!(a.contains("i < 7"));
        assert!(a.contains("j < 3"));
    }
}
