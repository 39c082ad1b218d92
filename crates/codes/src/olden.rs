//! Olden-style pointer benchmarks — the classic shape-analysis workload
//! suite, written in their **natural multi-function form**: recursive
//! builders and traversals where the originals are recursive, ordinary
//! helper functions elsewhere. `lower_program` inlines the non-recursive
//! helpers automatically and summarizes the recursive ones, so nothing
//! here needs the paper's manual flattening. The `*_flat` variants keep
//! the earlier recursion-free sources (explicit stacks, as the paper's
//! manual transformation produced). They go through the same
//! `lower_program` as everything else; they are kept as soundness inputs,
//! being the suite's only explicit-stack tree traversals under the
//! coverage oracle.
//!
//! * [`treeadd`] builds a binary tree with a **recursive** `treealloc` and
//!   sums it with a **recursive** `treeadd` — the suite's canonical
//!   summary-path workload;
//! * [`power`] is a three-level hierarchy (root → branch list → leaf list)
//!   built through a helper, the nested-lists shape with multi-type
//!   selectors;
//! * [`em3d`] builds a **genuinely shared** bipartite graph — the analysis
//!   must report sharing (a true DAG), making it the negative control for
//!   the unshared-list claims;
//! * [`bisort`] builds a value tree with a **recursive** `randtree` and
//!   sorts it with a **recursive** `bimerge` swap pass;
//! * [`tsp`] threads a **doubly-linked tour list** through a binary tree
//!   of cities (nodes simultaneously on tree and list links);
//! * [`health`] is a 4-ary hierarchy (`kids[4]` array fields) with patient
//!   waiting lists that are drained with **`free`** — the memory-safety
//!   workload;
//! * [`perimeter`] is a quadtree built by a **recursive** subdivision over
//!   **array-of-pointer fields** (`struct quad *kids[4]`) and measured by
//!   a recursive perimeter walk;
//! * [`voronoi`] stores coordinates in a **nested struct by value**
//!   (`struct pt pos;`, accessed as `s->pos.x`).

use crate::Sizes;

/// Recursion depth for the tree-shaped codes: log₂ of the requested node
/// count, kept small so the concrete interpreter can execute the trees
/// within its step budget.
fn depth(s: Sizes) -> usize {
    (usize::BITS - 1 - s.n.max(2).leading_zeros()) as usize
}

/// Olden `treeadd` in its natural form: recursive tree construction
/// (`treealloc`) and recursive summation (`treeadd`), exactly the two
/// functions of the original benchmark. Both are self-recursive, so the
/// engine analyzes them through entry-graph summaries.
pub fn treeadd(s: Sizes) -> String {
    let d = depth(s);
    format!(
        r#"
struct tnode {{ int v; struct tnode *l; struct tnode *r; }};

struct tnode *mknode(int v) {{
    struct tnode *p;
    p = (struct tnode *) malloc(sizeof(struct tnode));
    p->v = v;
    p->l = NULL;
    p->r = NULL;
    return p;
}}

struct tnode *treealloc(int level) {{
    struct tnode *t;
    t = mknode(level);
    if (level > 0) {{
        t->l = treealloc(level - 1);
        t->r = treealloc(level - 1);
    }}
    return t;
}}

int treeadd(struct tnode *t) {{
    int sl;
    int sr;
    int total;
    if (t == NULL) {{
        return 0;
    }}
    sl = treeadd(t->l);
    sr = treeadd(t->r);
    total = sl + sr + t->v;
    return total;
}}

int main() {{
    struct tnode *root;
    int sum;
    root = treealloc({d});
    sum = treeadd(root);
    return 0;
}}
"#
    )
}

/// The recursion-free `treeadd`: iterative insertion plus an explicit
/// stack walk (the paper's manual transformation applied by hand).
pub fn treeadd_flat(s: Sizes) -> String {
    let n = s.n;
    format!(
        r#"
struct tnode {{ int v; struct tnode *l; struct tnode *r; }};
struct stk {{ struct stk *prev; struct tnode *node; }};

struct tnode *mknode(int v) {{
    struct tnode *p;
    p = (struct tnode *) malloc(sizeof(struct tnode));
    p->v = v;
    p->l = NULL;
    p->r = NULL;
    return p;
}}

int main() {{
    struct tnode *root;
    struct tnode *cur;
    struct tnode *fresh;
    struct stk *top;
    struct stk *sp;
    int i;
    int sum;

    root = mknode(0);
    for (i = 1; i < {n}; i++) {{
        fresh = mknode(i);
        cur = root;
        for (;;) {{
            if (i % 2 == 0) {{
                if (cur->l == NULL) {{
                    cur->l = fresh;
                    break;
                }}
                cur = cur->l;
            }} else {{
                if (cur->r == NULL) {{
                    cur->r = fresh;
                    break;
                }}
                cur = cur->r;
            }}
        }}
    }}

    /* treeadd: sum via explicit stack */
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

/// Olden `power`: a root with a list of branches, each branch with a list
/// of leaves, built by a per-branch helper; a downward pass sets demand, an
/// upward-style pass accumulates (expressed as repeated traversals, as the
/// paper's codes do).
pub fn power(s: Sizes) -> String {
    let (n, m) = (s.n, s.m);
    format!(
        r#"
struct leaf   {{ double w; struct leaf *nxt; }};
struct branch {{ double w; struct leaf *leaves; struct branch *nxt; }};
struct rootn  {{ double total; struct branch *branches; }};

struct branch *mkbranch() {{
    struct branch *br;
    struct leaf *lf;
    int j;
    br = (struct branch *) malloc(sizeof(struct branch));
    br->w = 0.0;
    br->leaves = NULL;
    for (j = 0; j < {m}; j++) {{
        lf = (struct leaf *) malloc(sizeof(struct leaf));
        lf->w = 1.0;
        lf->nxt = br->leaves;
        br->leaves = lf;
    }}
    return br;
}}

int main() {{
    struct rootn *root;
    struct branch *br;
    struct leaf *lf;
    int i;
    double acc;

    root = (struct rootn *) malloc(sizeof(struct rootn));
    root->total = 0.0;
    root->branches = NULL;
    for (i = 0; i < {n}; i++) {{
        br = mkbranch();
        br->nxt = root->branches;
        root->branches = br;
    }}

    /* downward pass: set leaf demands */
    br = root->branches;
    while (br != NULL) {{
        lf = br->leaves;
        while (lf != NULL) {{
            lf->w = lf->w * 0.5;
            lf = lf->nxt;
        }}
        br = br->nxt;
    }}

    /* upward pass: accumulate into branches, then the root */
    br = root->branches;
    while (br != NULL) {{
        acc = 0.0;
        lf = br->leaves;
        while (lf != NULL) {{
            acc = acc + lf->w;
            lf = lf->nxt;
        }}
        br->w = acc;
        br = br->nxt;
    }}
    acc = 0.0;
    br = root->branches;
    while (br != NULL) {{
        acc = acc + br->w;
        br = br->nxt;
    }}
    root->total = acc;
    return 0;
}}
"#
    )
}

/// Olden `em3d`: a bipartite dependence graph built through node helpers.
/// Each E-node points (through a chain of `dep` cells) at H-nodes, and
/// H-nodes are deliberately shared between E-nodes — the shape analysis
/// must classify this as a DAG, not a tree of lists.
pub fn em3d(s: Sizes) -> String {
    let n = s.n;
    format!(
        r#"
struct hnode {{ double v; struct hnode *nxt; }};
struct dep   {{ struct hnode *to; struct dep *nxt; }};
struct enode {{ double v; struct dep *deps; struct enode *nxt; }};

struct hnode *mkhnode(struct hnode *rest) {{
    struct hnode *h;
    h = (struct hnode *) malloc(sizeof(struct hnode));
    h->v = 1.0;
    h->nxt = rest;
    return h;
}}

struct enode *mkenode(struct hnode *hlist, struct enode *rest) {{
    struct enode *e;
    struct hnode *h;
    struct dep *d;
    e = (struct enode *) malloc(sizeof(struct enode));
    e->v = 0.0;
    e->deps = NULL;
    h = hlist;
    if (h != NULL) {{
        d = (struct dep *) malloc(sizeof(struct dep));
        d->to = h;
        d->nxt = e->deps;
        e->deps = d;
        h = h->nxt;
    }}
    if (h != NULL) {{
        d = (struct dep *) malloc(sizeof(struct dep));
        d->to = h;
        d->nxt = e->deps;
        e->deps = d;
    }}
    e->nxt = rest;
    return e;
}}

int main() {{
    struct hnode *hlist;
    struct enode *elist;
    struct enode *e;
    struct dep *d;
    int i;
    double acc;

    /* H nodes */
    hlist = NULL;
    for (i = 0; i < {n}; i++) {{
        hlist = mkhnode(hlist);
    }}

    /* E nodes, each depending on the first two H nodes (shared!) */
    elist = NULL;
    for (i = 0; i < {n}; i++) {{
        elist = mkenode(hlist, elist);
    }}

    /* compute phase: every E node reads its H dependencies */
    e = elist;
    while (e != NULL) {{
        acc = 0.0;
        d = e->deps;
        while (d != NULL) {{
            acc = acc + d->to->v;
            d = d->nxt;
        }}
        e->v = acc;
        e = e->nxt;
    }}
    return 0;
}}
"#
    )
}

/// Olden `bisort` in its natural form: a **recursive** `randtree` builder
/// and a **recursive** `bimerge` pass bubbling values downward, repeated
/// until no pass swaps — the sorting-network flavour of the original
/// bitonic sort, with the recursion kept.
pub fn bisort(s: Sizes) -> String {
    let (n, d) = (s.n, depth(s));
    format!(
        r#"
struct bnode {{ int v; struct bnode *l; struct bnode *r; }};

struct bnode *mkbnode(int v) {{
    struct bnode *p;
    p = (struct bnode *) malloc(sizeof(struct bnode));
    p->v = v;
    p->l = NULL;
    p->r = NULL;
    return p;
}}

struct bnode *randtree(int level, int seed) {{
    struct bnode *t;
    t = mkbnode(seed);
    if (level > 0) {{
        t->l = randtree(level - 1, seed * 7 % 19);
        t->r = randtree(level - 1, seed * 3 % 23);
    }}
    return t;
}}

/* one merge pass: swap out-of-order parent/child values, recurse */
int bimerge(struct bnode *t) {{
    int sl;
    int sr;
    int tmp;
    int swaps;
    if (t == NULL) {{
        return 0;
    }}
    swaps = 0;
    if (t->l != NULL) {{
        if (t->l->v < t->v) {{
            tmp = t->v;
            t->v = t->l->v;
            t->l->v = tmp;
            swaps = swaps + 1;
        }}
    }}
    if (t->r != NULL) {{
        if (t->r->v < t->v) {{
            tmp = t->v;
            t->v = t->r->v;
            t->r->v = tmp;
            swaps = swaps + 1;
        }}
    }}
    sl = bimerge(t->l);
    sr = bimerge(t->r);
    swaps = swaps + sl + sr;
    return swaps;
}}

int main() {{
    struct bnode *root;
    int pass;
    int swapped;
    root = randtree({d}, {n});
    swapped = 1;
    pass = 0;
    while (swapped > 0 && pass < {n}) {{
        swapped = bimerge(root);
        pass = pass + 1;
    }}
    return 0;
}}
"#
    )
}

/// The recursion-free `bisort`: iterative insertion and stack-walk swap
/// passes.
pub fn bisort_flat(s: Sizes) -> String {
    let n = s.n;
    format!(
        r#"
struct bnode {{ int v; struct bnode *l; struct bnode *r; }};
struct bstk  {{ struct bstk *prev; struct bnode *node; }};

struct bnode *mkbnode(int v) {{
    struct bnode *p;
    p = (struct bnode *) malloc(sizeof(struct bnode));
    p->v = v;
    p->l = NULL;
    p->r = NULL;
    return p;
}}

int main() {{
    struct bnode *root;
    struct bnode *cur;
    struct bnode *fresh;
    struct bstk *top;
    struct bstk *sp;
    int i;
    int pass;
    int swapped;
    int tmp;

    root = mkbnode({n});
    for (i = 1; i < {n}; i++) {{
        fresh = mkbnode(({n} - i) * 7 % {n});
        cur = root;
        for (;;) {{
            if (i % 2 == 0) {{
                if (cur->l == NULL) {{ cur->l = fresh; break; }}
                cur = cur->l;
            }} else {{
                if (cur->r == NULL) {{ cur->r = fresh; break; }}
                cur = cur->r;
            }}
        }}
    }}

    /* bisort: bubble values downward until no pass swaps */
    swapped = 1;
    pass = 0;
    while (swapped == 1 && pass < {n}) {{
        swapped = 0;
        pass = pass + 1;
        top = (struct bstk *) malloc(sizeof(struct bstk));
        top->prev = NULL;
        top->node = root;
        while (top != NULL) {{
            cur = top->node;
            top = top->prev;
            if (cur->l != NULL) {{
                if (cur->l->v < cur->v) {{
                    tmp = cur->v;
                    cur->v = cur->l->v;
                    cur->l->v = tmp;
                    swapped = 1;
                }}
                sp = (struct bstk *) malloc(sizeof(struct bstk));
                sp->node = cur->l;
                sp->prev = top;
                top = sp;
            }}
            if (cur->r != NULL) {{
                if (cur->r->v < cur->v) {{
                    tmp = cur->v;
                    cur->v = cur->r->v;
                    cur->r->v = tmp;
                    swapped = 1;
                }}
                sp = (struct bstk *) malloc(sizeof(struct bstk));
                sp->node = cur->r;
                sp->prev = top;
                top = sp;
            }}
        }}
    }}
    return 0;
}}
"#
    )
}

/// Olden `tsp`: a binary tree of cities, then a **doubly-linked tour list**
/// threaded through the same nodes (tree links `l`/`r` and list links
/// `nxt`/`prv` coexist), then a pass over the tour accumulating the tour
/// length — the structure the paper's tsp kernel exhibits after its
/// conquer step.
pub fn tsp(s: Sizes) -> String {
    let n = s.n;
    format!(
        r#"
struct city {{ double x; double y; struct city *l; struct city *r;
               struct city *nxt; struct city *prv; }};
struct cstk {{ struct cstk *prev; struct city *node; }};

struct city *mkcity(double x, double y) {{
    struct city *c;
    c = (struct city *) malloc(sizeof(struct city));
    c->x = x;
    c->y = y;
    c->l = NULL;
    c->r = NULL;
    c->nxt = NULL;
    c->prv = NULL;
    return c;
}}

int main() {{
    struct city *root;
    struct city *cur;
    struct city *fresh;
    struct city *first;
    struct city *last;
    struct cstk *top;
    struct cstk *sp;
    int i;
    double len;
    double dx;
    double dy;

    root = mkcity(0.0, 0.0);
    for (i = 1; i < {n}; i++) {{
        fresh = mkcity(1.0 * i, 1.0 * (i % 3));
        cur = root;
        for (;;) {{
            if (fresh->x < cur->x) {{
                if (cur->l == NULL) {{ cur->l = fresh; break; }}
                cur = cur->l;
            }} else {{
                if (cur->r == NULL) {{ cur->r = fresh; break; }}
                cur = cur->r;
            }}
        }}
    }}

    /* conquer: thread the doubly-linked tour through the tree nodes */
    first = NULL;
    last = NULL;
    top = (struct cstk *) malloc(sizeof(struct cstk));
    top->prev = NULL;
    top->node = root;
    while (top != NULL) {{
        cur = top->node;
        top = top->prev;
        if (first == NULL) {{
            first = cur;
        }} else {{
            last->nxt = cur;
            cur->prv = last;
        }}
        last = cur;
        if (cur->l != NULL) {{
            sp = (struct cstk *) malloc(sizeof(struct cstk));
            sp->node = cur->l;
            sp->prev = top;
            top = sp;
        }}
        if (cur->r != NULL) {{
            sp = (struct cstk *) malloc(sizeof(struct cstk));
            sp->node = cur->r;
            sp->prev = top;
            top = sp;
        }}
    }}

    /* tour length along the list */
    len = 0.0;
    cur = first;
    while (cur != NULL && cur->nxt != NULL) {{
        dx = cur->nxt->x - cur->x;
        dy = cur->nxt->y - cur->y;
        len = len + dx * dx + dy * dy;
        cur = cur->nxt;
    }}
    return 0;
}}
"#
    )
}

/// Olden `health`: a 4-ary hospital hierarchy built through **array
/// fields** (`struct vil *kids[4]`), each village holding a waiting list
/// of patients. The simulation admits patients and then **frees** treated
/// ones — the suite's memory-safety workload (malloc/free churn that the
/// checker must prove clean).
pub fn health(s: Sizes) -> String {
    let n = s.n;
    format!(
        r#"
struct pat {{ int hosp; struct pat *nxt; }};
struct vil {{ int seed; struct vil *kids[4]; struct vil *all; struct pat *waiting; }};

struct vil *mkvil(int seed) {{
    struct vil *v;
    v = (struct vil *) malloc(sizeof(struct vil));
    v->seed = seed;
    v->kids[0] = NULL;
    v->kids[1] = NULL;
    v->kids[2] = NULL;
    v->kids[3] = NULL;
    v->all = NULL;
    v->waiting = NULL;
    return v;
}}

int main() {{
    struct vil *root;
    struct vil *v;
    struct vil *c;
    struct vil *vl;
    struct pat *p;
    struct pat *q;
    int t;

    /* two-level 4-ary hierarchy, threaded onto an `all` list */
    root = mkvil(1);
    vl = root;
    c = mkvil(2); root->kids[0] = c; c->all = vl; vl = c;
    c = mkvil(3); root->kids[1] = c; c->all = vl; vl = c;
    c = mkvil(4); root->kids[2] = c; c->all = vl; vl = c;
    c = mkvil(5); root->kids[3] = c; c->all = vl; vl = c;

    /* simulation: admit one patient per village per step, treat one */
    for (t = 0; t < {n}; t++) {{
        v = vl;
        while (v != NULL) {{
            p = (struct pat *) malloc(sizeof(struct pat));
            p->hosp = t;
            p->nxt = v->waiting;
            v->waiting = p;
            if (t % 2 == 1 && v->waiting != NULL) {{
                p = v->waiting;
                v->waiting = p->nxt;
                free(p);
                p = NULL;
            }}
            v = v->all;
        }}
    }}

    /* shutdown: drain every waiting list */
    v = vl;
    while (v != NULL) {{
        p = v->waiting;
        while (p != NULL) {{
            q = p->nxt;
            free(p);
            p = q;
        }}
        v->waiting = NULL;
        v = v->all;
    }}
    return 0;
}}
"#
    )
}

/// Olden `perimeter` in its natural form: a quadtree subdivided by a
/// **recursive** `buildtree` over the `kids[4]` array field, measured by a
/// **recursive** `perim` walk where black leaves contribute `4 * size`.
pub fn perimeter(s: Sizes) -> String {
    let (n, d) = (s.n, depth(s).min(3));
    format!(
        r#"
struct quad {{ int color; int size; struct quad *kids[4]; }};

struct quad *mkquad(int color, int size) {{
    struct quad *q;
    q = (struct quad *) malloc(sizeof(struct quad));
    q->color = color;
    q->size = size;
    q->kids[0] = NULL;
    q->kids[1] = NULL;
    q->kids[2] = NULL;
    q->kids[3] = NULL;
    return q;
}}

struct quad *buildtree(int level, int size) {{
    struct quad *q;
    q = mkquad(level % 2, size);
    if (level > 0) {{
        q->kids[0] = buildtree(level - 1, size / 2);
        q->kids[1] = buildtree(level - 1, size / 2);
        q->kids[2] = buildtree(level - 1, size / 2);
        q->kids[3] = buildtree(level - 1, size / 2);
    }}
    return q;
}}

int perim(struct quad *q) {{
    int acc;
    int k;
    if (q == NULL) {{
        return 0;
    }}
    if (q->kids[0] == NULL) {{
        if (q->color == 1) {{
            k = 4 * q->size;
            return k;
        }}
        return 0;
    }}
    acc = 0;
    k = perim(q->kids[0]);
    acc = acc + k;
    k = perim(q->kids[1]);
    acc = acc + k;
    k = perim(q->kids[2]);
    acc = acc + k;
    k = perim(q->kids[3]);
    acc = acc + k;
    return acc;
}}

int main() {{
    struct quad *root;
    int p;
    root = buildtree({d}, {n});
    p = perim(root);
    return 0;
}}
"#
    )
}

/// The recursion-free `perimeter`: hand-built two-level quadtree plus an
/// explicit stack walk.
pub fn perimeter_flat(s: Sizes) -> String {
    let n = s.n;
    format!(
        r#"
struct quad {{ int color; int size; struct quad *kids[4]; }};
struct qstk {{ struct qstk *prev; struct quad *node; }};

struct quad *mkquad(int color, int size) {{
    struct quad *q;
    q = (struct quad *) malloc(sizeof(struct quad));
    q->color = color;
    q->size = size;
    q->kids[0] = NULL;
    q->kids[1] = NULL;
    q->kids[2] = NULL;
    q->kids[3] = NULL;
    return q;
}}

int main() {{
    struct quad *root;
    struct quad *q;
    struct quad *c;
    struct qstk *top;
    struct qstk *sp;
    int perim;

    /* root plus one subdivided quadrant, colours alternating */
    root = mkquad(0, {n});
    c = mkquad(1, {n} / 2); root->kids[0] = c;
    c = mkquad(0, {n} / 2); root->kids[1] = c;
    c = mkquad(1, {n} / 2); root->kids[2] = c;
    c = mkquad(0, {n} / 2); root->kids[3] = c;
    q = root->kids[1];
    c = mkquad(1, {n} / 4); q->kids[0] = c;
    c = mkquad(1, {n} / 4); q->kids[1] = c;
    c = mkquad(0, {n} / 4); q->kids[2] = c;
    c = mkquad(1, {n} / 4); q->kids[3] = c;

    /* perimeter: stack walk, black leaves contribute 4 * size */
    perim = 0;
    top = (struct qstk *) malloc(sizeof(struct qstk));
    top->prev = NULL;
    top->node = root;
    while (top != NULL) {{
        q = top->node;
        top = top->prev;
        if (q->kids[0] == NULL) {{
            if (q->color == 1) {{
                perim = perim + 4 * q->size;
            }}
        }} else {{
            sp = (struct qstk *) malloc(sizeof(struct qstk));
            sp->node = q->kids[0];
            sp->prev = top;
            top = sp;
            sp = (struct qstk *) malloc(sizeof(struct qstk));
            sp->node = q->kids[1];
            sp->prev = top;
            top = sp;
            sp = (struct qstk *) malloc(sizeof(struct qstk));
            sp->node = q->kids[2];
            sp->prev = top;
            top = sp;
            sp = (struct qstk *) malloc(sizeof(struct qstk));
            sp->node = q->kids[3];
            sp->prev = top;
            top = sp;
        }}
    }}
    return 0;
}}
"#
    )
}

/// Olden `voronoi` (sketch): sites carry their coordinates in a **nested
/// struct by value** (`struct pt pos;`), get organised into a binary tree
/// on `pos.x`, and an in-order stack walk chains neighbouring sites while
/// accumulating the squared edge lengths of the resulting diagram seam.
pub fn voronoi(s: Sizes) -> String {
    let n = s.n;
    format!(
        r#"
struct pt   {{ double x; double y; }};
struct site {{ struct pt pos; struct site *l; struct site *r; struct site *nbr; }};
struct vstk {{ struct vstk *prev; struct site *node; }};

struct site *mksite(double x, double y) {{
    struct site *p;
    p = (struct site *) malloc(sizeof(struct site));
    p->pos.x = x;
    p->pos.y = y;
    p->l = NULL;
    p->r = NULL;
    p->nbr = NULL;
    return p;
}}

int main() {{
    struct site *root;
    struct site *cur;
    struct site *fresh;
    struct site *last;
    struct vstk *top;
    struct vstk *sp;
    int i;
    double acc;
    double dx;
    double dy;

    root = mksite(0.5, 0.5);
    for (i = 1; i < {n}; i++) {{
        fresh = mksite(1.0 * (i * 7 % {n}), 1.0 * (i % 5));
        cur = root;
        for (;;) {{
            if (fresh->pos.x < cur->pos.x) {{
                if (cur->l == NULL) {{ cur->l = fresh; break; }}
                cur = cur->l;
            }} else {{
                if (cur->r == NULL) {{ cur->r = fresh; break; }}
                cur = cur->r;
            }}
        }}
    }}

    /* seam: chain visited sites, accumulate squared edge lengths */
    last = NULL;
    acc = 0.0;
    top = (struct vstk *) malloc(sizeof(struct vstk));
    top->prev = NULL;
    top->node = root;
    while (top != NULL) {{
        cur = top->node;
        top = top->prev;
        if (last != NULL) {{
            last->nbr = cur;
            dx = cur->pos.x - last->pos.x;
            dy = cur->pos.y - last->pos.y;
            acc = acc + dx * dx + dy * dy;
        }}
        last = cur;
        if (cur->l != NULL) {{
            sp = (struct vstk *) malloc(sizeof(struct vstk));
            sp->node = cur->l;
            sp->prev = top;
            top = sp;
        }}
        if (cur->r != NULL) {{
            sp = (struct vstk *) malloc(sizeof(struct vstk));
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

/// All Olden-style codes as `(name, source)` in their natural
/// multi-function form (`treeadd`, `bisort` and `perimeter` recursive).
pub fn olden_codes(s: Sizes) -> Vec<(&'static str, String)> {
    vec![
        ("treeadd", treeadd(s)),
        ("power", power(s)),
        ("em3d", em3d(s)),
        ("bisort", bisort(s)),
        ("tsp", tsp(s)),
        ("health", health(s)),
        ("perimeter", perimeter(s)),
        ("voronoi", voronoi(s)),
    ]
}

/// The recursion-free variants (explicit stacks instead of recursion) for
/// the codes whose natural form recurses; the rest are shared with
/// [`olden_codes`]. Everything here analyzes through plain inlining.
pub fn olden_codes_flat(s: Sizes) -> Vec<(&'static str, String)> {
    vec![
        ("treeadd", treeadd_flat(s)),
        ("power", power(s)),
        ("em3d", em3d(s)),
        ("bisort", bisort_flat(s)),
        ("tsp", tsp(s)),
        ("health", health(s)),
        ("perimeter", perimeter_flat(s)),
        ("voronoi", voronoi(s)),
    ]
}

/// The codes of [`olden_codes`] whose natural form is recursive — the ones
/// the engine must take through the summary path.
pub const RECURSIVE_OLDEN: [&str; 3] = ["treeadd", "bisort", "perimeter"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn olden_codes_parse_and_lower() {
        for (name, src) in olden_codes(Sizes::default()) {
            let (p, t) = psa_cfront::parse_and_type(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            let ir = psa_ir::lower_program(&p, &t, "main")
                .unwrap_or_else(|e| panic!("{name}: lower: {e}"));
            let ptr_stmts = ir.num_ptr_stmts()
                + ir.callees
                    .iter()
                    .map(|c| c.ir.num_ptr_stmts())
                    .sum::<usize>();
            assert!(ptr_stmts > 5, "{name}");
            if RECURSIVE_OLDEN.contains(&name) {
                assert!(
                    !ir.callees.is_empty(),
                    "{name} should keep recursive callees"
                );
            } else {
                assert!(ir.callees.is_empty(), "{name} should inline away all calls");
            }
        }
    }

    #[test]
    fn flat_variants_lower_without_callees() {
        for (name, src) in olden_codes_flat(Sizes::default()) {
            let (p, t) = psa_cfront::parse_and_type(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            let ir = psa_ir::lower_program(&p, &t, "main")
                .unwrap_or_else(|e| panic!("{name}: lower: {e}"));
            assert!(
                ir.callees.is_empty(),
                "{name} flat variant must not recurse"
            );
        }
    }

    #[test]
    fn treeadd_is_recursive() {
        let src = treeadd(Sizes::default());
        assert!(src.contains("t->l = treealloc(level - 1);"));
        assert!(src.contains("sl = treeadd(t->l);"));
    }

    #[test]
    fn full_suite_has_eight_codes() {
        let names: Vec<&str> = olden_codes(Sizes::tiny())
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(
            names,
            vec![
                "treeadd",
                "power",
                "em3d",
                "bisort",
                "tsp",
                "health",
                "perimeter",
                "voronoi"
            ]
        );
        let flat: Vec<&str> = olden_codes_flat(Sizes::tiny())
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, flat);
    }

    #[test]
    fn perimeter_uses_array_of_pointer_fields() {
        let src = perimeter(Sizes::tiny());
        assert!(src.contains("struct quad *kids[4];"));
        assert!(src.contains("q->kids[0] = buildtree(level - 1, size / 2);"));
    }

    #[test]
    fn voronoi_uses_nested_struct_by_value() {
        let src = voronoi(Sizes::tiny());
        assert!(src.contains("struct pt pos;"));
        assert!(src.contains("cur->pos.x"));
    }

    #[test]
    fn health_frees_treated_patients() {
        let src = health(Sizes::tiny());
        assert!(src.contains("free(p);"));
    }
}
