//! Induction-pointer detection.
//!
//! The paper restricts TOUCH sets to *induction pointers* — "those pvars
//! which are used to traverse dynamic data structures (called induction
//! pointers by Yuan-Shin Hwang)" — found by a preprocessing pass "based on
//! Access Path Expressions" (§3).
//!
//! We reconstruct that pass as a cycle analysis over the per-loop pointer
//! value-flow graph: inside loop `L`, every `x = y` contributes an
//! ε-labelled edge `y → x`, every `x = y->sel` a selector-labelled edge.
//! A pvar is an induction pointer of `L` when it lies on a value-flow cycle
//! that traverses at least one selector edge: its value in iteration *i+1*
//! is derived from its value in iteration *i* through one or more selector
//! dereferences — precisely Hwang's access-path recurrence `x = x(->sel)+`.
//!
//! Compiler temporaries participate in the flow graph (chains route through
//! them) but are never reported as induction pointers; they are killed
//! immediately after use, so TOUCH could never observe them anyway.

use crate::func::{FuncIr, LoopId, PtrStmt, PvarId, Stmt};

/// Detect the induction pointers of every loop and store them into
/// `ir.loops[..].ipvars` (sorted).
pub fn detect(ir: &mut FuncIr) {
    let n = ir.num_pvars();
    for li in 0..ir.loops.len() {
        let lid = LoopId(li as u32);
        // Collect value-flow edges for statements inside this loop.
        // edge (from, to, via_selector)
        let mut edges: Vec<(PvarId, PvarId, bool)> = Vec::new();
        for s in &ir.stmts {
            if !s.loops.contains(&lid) {
                continue;
            }
            if let Stmt::Ptr(p) = &s.stmt {
                match *p {
                    PtrStmt::Copy(x, y) => edges.push((y, x, false)),
                    PtrStmt::Load(x, y, _) => edges.push((y, x, true)),
                    _ => {}
                }
            }
        }
        let ipvars = cyclic_with_selector(n, &edges);
        let mut result: Vec<PvarId> = ipvars
            .into_iter()
            .filter(|p| !ir.pvar(*p).is_temp)
            .collect();
        result.sort_unstable();
        result.dedup();
        ir.loops[li].ipvars = result;
    }
}

/// Return all pvars lying on a value-flow cycle that includes at least one
/// selector-labelled edge, using Tarjan SCCs: a pvar qualifies when its SCC
/// contains an internal selector edge (or, for trivial SCCs, a selector
/// self-edge).
fn cyclic_with_selector(n: usize, edges: &[(PvarId, PvarId, bool)]) -> Vec<PvarId> {
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(from, to, _) in edges {
        adj[from.0 as usize].push(to.0 as usize);
    }
    let scc = tarjan(n, &adj);
    // An SCC is "traversing" if some selector edge connects two of its
    // members (including self-edges).
    let mut traversing = vec![false; n];
    for &(from, to, via_sel) in edges {
        if via_sel && scc[from.0 as usize] == scc[to.0 as usize] {
            // Trivial SCCs (single node, no self edge) are excluded unless
            // this is a self-edge `x = x->sel`.
            traversing[from.0 as usize] = true;
        }
    }
    // Mark every member of a traversing SCC.
    let mut scc_traversing = std::collections::BTreeMap::new();
    for v in 0..n {
        if traversing[v] {
            scc_traversing.insert(scc[v], true);
        }
    }
    (0..n)
        .filter(|&v| *scc_traversing.get(&scc[v]).unwrap_or(&false))
        .map(|v| PvarId(v as u32))
        .collect()
}

/// Iterative Tarjan strongly-connected components; returns the SCC index of
/// each vertex.
fn tarjan(n: usize, adj: &[Vec<usize>]) -> Vec<usize> {
    #[derive(Clone, Copy)]
    struct VState {
        index: usize,
        lowlink: usize,
        on_stack: bool,
        visited: bool,
    }
    let mut st = vec![
        VState {
            index: 0,
            lowlink: 0,
            on_stack: false,
            visited: false
        };
        n
    ];
    let mut stack: Vec<usize> = Vec::new();
    let mut scc_of = vec![usize::MAX; n];
    let mut next_index = 0usize;
    let mut next_scc = 0usize;

    for root in 0..n {
        if st[root].visited {
            continue;
        }
        // Explicit DFS stack: (vertex, next child index).
        let mut dfs: Vec<(usize, usize)> = vec![(root, 0)];
        st[root].visited = true;
        st[root].index = next_index;
        st[root].lowlink = next_index;
        next_index += 1;
        stack.push(root);
        st[root].on_stack = true;

        while let Some(&mut (v, ref mut ci)) = dfs.last_mut() {
            if *ci < adj[v].len() {
                let w = adj[v][*ci];
                *ci += 1;
                if !st[w].visited {
                    st[w].visited = true;
                    st[w].index = next_index;
                    st[w].lowlink = next_index;
                    next_index += 1;
                    stack.push(w);
                    st[w].on_stack = true;
                    dfs.push((w, 0));
                } else if st[w].on_stack {
                    st[v].lowlink = st[v].lowlink.min(st[w].index);
                }
            } else {
                dfs.pop();
                if let Some(&(parent, _)) = dfs.last() {
                    let low = st[v].lowlink;
                    st[parent].lowlink = st[parent].lowlink.min(low);
                }
                if st[v].lowlink == st[v].index {
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        st[w].on_stack = false;
                        scc_of[w] = next_scc;
                        if w == v {
                            break;
                        }
                    }
                    next_scc += 1;
                }
            }
        }
    }
    scc_of
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_program;
    use psa_cfront::parse_and_type;

    fn lower(body: &str) -> FuncIr {
        let src = format!(
            "struct node {{ int v; struct node *nxt; struct node *prv; struct node *dn; }};\n\
             int main() {{ {body} return 0; }}"
        );
        let (p, t) = parse_and_type(&src).unwrap();
        lower_program(&p, &t, "main").unwrap()
    }

    #[test]
    fn simple_traversal_pointer() {
        let ir = lower("struct node *p; while (p != NULL) { p = p->nxt; }");
        let p = ir.pvar_id("p").unwrap();
        assert_eq!(ir.loops[0].ipvars, vec![p]);
    }

    #[test]
    fn chained_traversal_through_copy() {
        // q = p; p = q->nxt: both advance through the structure.
        let ir = lower(
            "struct node *p; struct node *q;\n\
             while (p != NULL) { q = p; p = q->nxt; }",
        );
        let p = ir.pvar_id("p").unwrap();
        let q = ir.pvar_id("q").unwrap();
        assert_eq!(ir.loops[0].ipvars, vec![p, q]);
    }

    #[test]
    fn non_traversal_pointer_excluded() {
        // `head` is loop-invariant, `p` traverses.
        let ir = lower(
            "struct node *p; struct node *head;\n\
             while (p != NULL) { p = p->nxt; p->dn = head; }",
        );
        let p = ir.pvar_id("p").unwrap();
        let head = ir.pvar_id("head").unwrap();
        assert!(ir.loops[0].ipvars.contains(&p));
        assert!(!ir.loops[0].ipvars.contains(&head));
    }

    #[test]
    fn copy_only_cycle_is_not_induction() {
        // p = q; q = p: a cycle with no selector edge — not traversal.
        let ir = lower(
            "struct node *p; struct node *q; int i;\n\
             while (i < 3) { p = q; q = p; i = i + 1; }",
        );
        assert!(ir.loops[0].ipvars.is_empty());
    }

    #[test]
    fn two_step_traversal() {
        // p = p->nxt->nxt routes through a temp; p is induction, the temp
        // never reported.
        let ir = lower("struct node *p; while (p != NULL) { p = p->nxt->nxt; }");
        let p = ir.pvar_id("p").unwrap();
        assert_eq!(ir.loops[0].ipvars, vec![p]);
    }

    #[test]
    fn per_loop_separation() {
        let ir = lower(
            "struct node *p; struct node *q;\n\
             while (p != NULL) { p = p->nxt; }\n\
             while (q != NULL) { q = q->prv; }",
        );
        let p = ir.pvar_id("p").unwrap();
        let q = ir.pvar_id("q").unwrap();
        assert_eq!(ir.loops[0].ipvars, vec![p]);
        assert_eq!(ir.loops[1].ipvars, vec![q]);
    }

    #[test]
    fn nested_loops_both_detect() {
        let ir = lower(
            "struct node *p; struct node *q;\n\
             while (p != NULL) {\n\
               q = p->dn;\n\
               while (q != NULL) { q = q->nxt; }\n\
               p = p->nxt;\n\
             }",
        );
        let p = ir.pvar_id("p").unwrap();
        let q = ir.pvar_id("q").unwrap();
        // Outer loop: p traverses; q also derives from p each iteration but
        // q's cycle q->nxt is within the inner loop (and the inner loop's
        // statements are also inside the outer loop, so q qualifies there
        // too).
        assert!(ir.loops[0].ipvars.contains(&p));
        assert_eq!(ir.loops[1].ipvars, vec![q]);
    }

    #[test]
    fn stack_push_pop_traversal() {
        // The Barnes-Hut pattern: a stack traversed by `top = top->prev`.
        let src = r#"
            struct stk { struct stk *prev; struct tree *node; };
            struct tree { struct tree *child; };
            int main() {
                struct stk *top;
                struct tree *cur;
                while (top != NULL) {
                    cur = top->node;
                    top = top->prev;
                }
                return 0;
            }
        "#;
        let (p, t) = psa_cfront::parse_and_type(src).unwrap();
        let ir = crate::lower::lower_program(&p, &t, "main").unwrap();
        let top = ir.pvar_id("top").unwrap();
        let cur = ir.pvar_id("cur").unwrap();
        assert!(ir.loops[0].ipvars.contains(&top));
        // `cur` reads through top but never feeds back into itself.
        assert!(!ir.loops[0].ipvars.contains(&cur));
    }

    #[test]
    fn tarjan_handles_diamond() {
        // Pure unit test of the SCC helper on a diamond with a back edge.
        let adj = vec![vec![1, 2], vec![3], vec![3], vec![0]];
        let scc = super::tarjan(4, &adj);
        assert_eq!(scc[0], scc[1]);
        assert_eq!(scc[0], scc[2]);
        assert_eq!(scc[0], scc[3]);
    }

    #[test]
    fn tarjan_separates_components() {
        let adj = vec![vec![1], vec![0], vec![3], vec![]];
        let scc = super::tarjan(4, &adj);
        assert_eq!(scc[0], scc[1]);
        assert_ne!(scc[2], scc[3]);
        assert_ne!(scc[0], scc[2]);
    }
}
