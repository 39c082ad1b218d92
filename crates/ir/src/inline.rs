//! Automatic function inlining — the preprocessing the paper performed by
//! hand ("we have manually carried out the inline of the subroutine",
//! §5.1) and lists as future work.
//!
//! [`crate::lower_program`] runs the inliner over the entry function and
//! over every recursive function, which stay behind as summarized callees:
//!
//! * a call `f(a1, …)` in statement position, as the whole right-hand side
//!   of an assignment `x = f(a1, …)`, or as a declaration's initializer —
//!   also inside `if`/loop bodies and `switch` arms — is replaced by fresh
//!   parameter locals, the renamed body, and, for value-returning calls, an
//!   assignment from the return expression;
//! * a callee's trailing `return g(…)` expands `g` into the original
//!   call's own target;
//! * locals and parameters of the callee are α-renamed
//!   (`__inl<k>_<name>`), so repeated call sites never collide;
//! * inlining recurses into the substituted bodies up to a depth limit;
//!   calls to the recursive functions are left in place for the lowering
//!   to summarize;
//! * callee restrictions: a single `return` as the last statement (or none
//!   for `void`); early returns are rejected.
//!
//! A call in any other position (a condition, a `for` step, an operand, an
//! argument) is left in place, and `lower_program` rejects it with a hoist
//! error.

use psa_cfront::ast::{Decl, Expr, Node, NodeMut, Program, Stmt};
use psa_cfront::diag::{Diagnostic, Span};
use std::collections::{BTreeMap, BTreeSet};

/// Maximum nesting of inlined bodies.
pub const MAX_INLINE_DEPTH: usize = 16;

/// Inline every call to a defined function reachable from `entry` and from
/// the `opaque` functions, except calls to the `opaque` functions
/// themselves, returning the rewritten program.
pub(crate) fn inline_program(
    program: &Program,
    entry: &str,
    opaque: &BTreeSet<String>,
) -> Result<Program, Diagnostic> {
    let mut ctx = Inliner {
        program,
        counter: 0,
        opaque,
    };
    let mut out = program.clone();
    for name in std::iter::once(entry).chain(opaque.iter().map(|s| s.as_str())) {
        let f = out
            .functions
            .iter_mut()
            .find(|g| g.name == name)
            .ok_or_else(|| {
                Diagnostic::error(Span::SYNTH, format!("function `{name}` not found"))
            })?;
        f.body = ctx.inline_block(std::mem::take(&mut f.body), 0)?;
    }
    Ok(out)
}

/// Functions treated as intrinsics (never inlined; the lowering handles
/// them).
pub(crate) fn is_intrinsic(name: &str) -> bool {
    matches!(
        name,
        "malloc"
            | "calloc"
            | "free"
            | "printf"
            | "fprintf"
            | "puts"
            | "exit"
            | "srand"
            | "rand"
            | "assert"
            | "sqrt"
            | "fabs"
            | "abs"
    )
}

struct Inliner<'a> {
    program: &'a Program,
    counter: usize,
    /// Calls to these functions are kept for summary-based analysis.
    opaque: &'a BTreeSet<String>,
}

impl<'a> Inliner<'a> {
    fn inline_block(&mut self, stmts: Vec<Stmt>, depth: usize) -> Result<Vec<Stmt>, Diagnostic> {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            self.inline_stmt(s, depth, &mut out)?;
        }
        Ok(out)
    }

    fn inline_stmt(
        &mut self,
        mut s: Stmt,
        depth: usize,
        out: &mut Vec<Stmt>,
    ) -> Result<(), Diagnostic> {
        match &mut s {
            // Call in statement position.
            Stmt::Expr(Expr::Call(name, args, span)) if self.inlinable(name) => {
                return self.expand_call(name, args, None, *span, depth, out);
            }
            // Call in assignment position: lhs = f(args).
            Stmt::Expr(Expr::Assign(lhs, rhs, span)) => {
                if let Expr::Call(name, args, _) = &**rhs {
                    if self.inlinable(name) {
                        let target = Some((**lhs).clone());
                        return self.expand_call(name, args, target, *span, depth, out);
                    }
                }
            }
            // An initializer that is a user call: split into decl + call.
            Stmt::Decl(d) => {
                if let Some(Expr::Call(name, args, span)) = &d.init {
                    if self.inlinable(name) {
                        out.push(Stmt::Decl(Decl {
                            init: None,
                            ..d.clone()
                        }));
                        let lhs = Expr::Ident(d.name.clone(), d.span);
                        return self.expand_call(name, args, Some(lhs), *span, depth, out);
                    }
                }
            }
            // A statement list's expansions splice into the list itself, so a
            // declaration split off an initializer stays in scope for the
            // statements after it.
            Stmt::Block(inner, _) => *inner = self.inline_block(std::mem::take(inner), depth)?,
            Stmt::Switch(_, arms, _) => {
                for (_, body) in arms {
                    *body = self.inline_block(std::mem::take(body), depth)?;
                }
            }
            // `for (init; …)` runs as `{ init; for (; …) }`, for the same
            // reason.
            Stmt::For(init @ Some(_), _, _, _, span) => {
                let (init, span) = (init.take().expect("matched `Some`"), *span);
                out.push(Stmt::Block(self.inline_block(vec![*init, s], depth)?, span));
                return Ok(());
            }
            // Every other nested statement (branches, loop bodies) is inlined
            // on its own; expressions stay as they are.
            _ => {
                let mut result = Ok(());
                s.for_each_child_mut(|c| {
                    if let (NodeMut::Stmt(child), true) = (c, result.is_ok()) {
                        let taken = std::mem::replace(child, Stmt::Empty(Span::SYNTH));
                        result = self.inline_one(taken, depth).map(|new| *child = new);
                    }
                });
                result?;
            }
        }
        out.push(s);
        Ok(())
    }

    fn inline_one(&mut self, s: Stmt, depth: usize) -> Result<Stmt, Diagnostic> {
        let span = s.span();
        let mut v = Vec::new();
        self.inline_stmt(s, depth, &mut v)?;
        Ok(match v.len() {
            1 => v.pop().unwrap(),
            _ => Stmt::Block(v, span),
        })
    }

    fn inlinable(&self, name: &str) -> bool {
        !is_intrinsic(name) && !self.opaque.contains(name) && self.program.function(name).is_some()
    }

    fn expand_call(
        &mut self,
        name: &str,
        args: &[Expr],
        target: Option<Expr>,
        span: Span,
        depth: usize,
        out: &mut Vec<Stmt>,
    ) -> Result<(), Diagnostic> {
        if depth >= MAX_INLINE_DEPTH {
            return Err(Diagnostic::error(
                span,
                format!("inline depth limit reached at call to `{name}`"),
            ));
        }
        let callee = self.program.function(name).expect("inlinable checked");
        if callee.params.len() != args.len() {
            return Err(Diagnostic::error(
                span,
                format!(
                    "`{name}` expects {} argument(s), got {}",
                    callee.params.len(),
                    args.len()
                ),
            ));
        }

        let k = self.counter;
        self.counter += 1;
        let rename = |n: &str| format!("__inl{k}_{n}");

        // Collect the callee's locally bound names (params + decls).
        let mut bound: BTreeMap<String, String> = BTreeMap::new();
        for p in &callee.params {
            bound.insert(p.name.clone(), rename(&p.name));
        }
        for s in &callee.body {
            s.walk(&mut |n| {
                if let Node::Stmt(Stmt::Decl(d)) = n {
                    bound
                        .entry(d.name.clone())
                        .or_insert_with(|| rename(&d.name));
                }
            });
        }

        // Parameter locals + argument assignments.
        for (p, a) in callee.params.iter().zip(args) {
            out.push(Stmt::Decl(Decl {
                name: bound[&p.name].clone(),
                ty: p.ty.clone(),
                init: Some(a.clone()),
                span,
            }));
        }

        // The body with renamed locals; the trailing return is split off.
        let mut body = callee.body.clone();
        for s in &mut body {
            s.walk_mut(&mut |n| match n {
                NodeMut::Stmt(Stmt::Decl(Decl { name, .. }))
                | NodeMut::Expr(Expr::Ident(name, _)) => {
                    if let Some(r) = bound.get(name.as_str()) {
                        *name = r.clone();
                    }
                }
                _ => {}
            });
        }
        let ret_expr = match body.pop() {
            Some(Stmt::Return(e, _)) => e,
            last => {
                body.extend(last);
                None
            }
        };
        let mut early_return = false;
        for s in &body {
            s.walk(&mut |n| early_return |= matches!(n, Node::Stmt(Stmt::Return(..))));
        }
        if early_return {
            return Err(Diagnostic::error(
                span,
                format!(
                    "`{name}` has an early return; only a single trailing \
                     `return` is supported by the inliner"
                ),
            ));
        }

        let body = self.inline_block(body, depth + 1)?;
        // Splice the body directly (not as a `Block`): the return-value
        // assignment below references the callee's renamed locals, which a
        // block scope would hide. α-renaming already prevents collisions.
        out.extend(body);

        match (target, ret_expr) {
            // `return g(…)`: `g`'s body lands in this call's own target.
            (target, Some(Expr::Call(g, g_args, g_span))) if self.inlinable(&g) => {
                self.expand_call(&g, &g_args, target, g_span, depth + 1, out)?;
            }
            (Some(lhs), Some(e)) => {
                out.push(Stmt::Expr(Expr::Assign(Box::new(lhs), Box::new(e), span)));
            }
            (Some(_), None) => {
                return Err(Diagnostic::error(
                    span,
                    format!("`{name}` returns no value but the result is used"),
                ));
            }
            // A discarded result still runs the calls inside it.
            (None, Some(e)) if self.calls_defined_function(&e) => out.push(Stmt::Expr(e)),
            (None, _) => {}
        }
        Ok(())
    }

    /// True if `e` calls a function defined in the program (inlinable or
    /// summarized).
    fn calls_defined_function(&self, e: &Expr) -> bool {
        let mut found = false;
        e.walk(&mut |x| {
            if let Expr::Call(n, _, _) = x {
                found |= !is_intrinsic(n) && self.program.function(n).is_some();
            }
        });
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_cfront::parse_and_type;

    fn inline_and_lower(src: &str) -> crate::FuncIr {
        let (p, t) = parse_and_type(src).unwrap();
        crate::lower_program(&p, &t, "main").unwrap()
    }

    #[test]
    fn simple_void_call_inlines() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            struct node *list;
            void push(void) {
                struct node *p;
                p = (struct node *) malloc(sizeof(struct node));
                p->nxt = list;
                list = p;
            }
            int main() {
                int i;
                list = NULL;
                for (i = 0; i < 5; i++) {
                    push();
                }
                return 0;
            }
        "#;
        let ir = inline_and_lower(src);
        // The inlined body's malloc/store/copy must be present.
        assert!(ir.num_ptr_stmts() >= 3);
        assert!(ir.pvar_id("__inl0_p").is_some(), "renamed local registered");
    }

    #[test]
    fn value_returning_call_inlines() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            struct node *mk(void) {
                struct node *p;
                p = (struct node *) malloc(sizeof(struct node));
                p->nxt = NULL;
                return p;
            }
            int main() {
                struct node *a;
                struct node *b;
                a = mk();
                b = mk();
                a->nxt = b;
                return 0;
            }
        "#;
        let ir = inline_and_lower(src);
        // Two expansions: two renamed locals.
        assert!(ir.pvar_id("__inl0_p").is_some());
        assert!(ir.pvar_id("__inl1_p").is_some());
        ir.validate().unwrap();
    }

    #[test]
    fn parameters_are_passed() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            void link(struct node *a, struct node *b) {
                a->nxt = b;
            }
            int main() {
                struct node *x;
                struct node *y;
                x = (struct node *) malloc(sizeof(struct node));
                y = (struct node *) malloc(sizeof(struct node));
                link(x, y);
                return 0;
            }
        "#;
        let ir = inline_and_lower(src);
        // The param locals exist and a Store through the renamed param
        // exists.
        let a = ir.pvar_id("__inl0_a").expect("param local");
        let nxt = ir.types.selector_id("nxt").unwrap();
        assert!(ir.stmts.iter().any(|s| matches!(
            s.stmt,
            crate::Stmt::Ptr(crate::PtrStmt::Store(p, sel, _)) if p == a && sel == nxt
        )));
    }

    #[test]
    fn nested_calls_inline() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            struct node *mk(void) {
                struct node *p;
                p = (struct node *) malloc(sizeof(struct node));
                return p;
            }
            struct node *mk2(void) {
                struct node *q;
                q = mk();
                q->nxt = NULL;
                return q;
            }
            int main() {
                struct node *a;
                a = mk2();
                return 0;
            }
        "#;
        let ir = inline_and_lower(src);
        assert!(ir.pvar_id("__inl0_q").is_some());
        assert!(ir.pvar_id("__inl1_p").is_some());
    }

    #[test]
    fn recursion_is_left_to_summaries() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            void walk(void) {
                walk();
            }
            int main() { walk(); return 0; }
        "#;
        let ir = inline_and_lower(src);
        assert_eq!(ir.callees.len(), 1);
        assert_eq!(ir.callees[0].name, "walk");
    }

    #[test]
    fn decl_initializer_call_inlines() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            struct node *mk(void) {
                struct node *p;
                p = (struct node *) malloc(sizeof(struct node));
                return p;
            }
            int main() {
                struct node *a = mk();
                a->nxt = NULL;
                return 0;
            }
        "#;
        let ir = inline_and_lower(src);
        assert!(ir.pvar_id("a").is_some());
        assert!(ir.pvar_id("__inl0_p").is_some());
    }

    #[test]
    fn intrinsics_left_alone() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *p;
                p = (struct node *) malloc(sizeof(struct node));
                free(p);
                printf("x");
                return 0;
            }
        "#;
        let (p, _t) = parse_and_type(src).unwrap();
        let p2 = inline_program(&p, "main", &BTreeSet::new()).unwrap();
        // Unchanged body length (no expansion happened).
        assert_eq!(
            p.function("main").unwrap().body.len(),
            p2.function("main").unwrap().body.len()
        );
    }
}
