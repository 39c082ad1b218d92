//! Human-readable printing of the lowered IR, for traces and the CLI.

use crate::func::{Cond, FuncIr, PtrStmt, Stmt, Terminator};
use std::fmt::Write;

/// Render one pointer statement using source-level names.
pub fn ptr_stmt(ir: &FuncIr, s: &PtrStmt) -> String {
    match *s {
        PtrStmt::Nil(x) => format!("{} = NULL", ir.pvar_name(x)),
        PtrStmt::Malloc(x, t) => {
            format!(
                "{} = malloc(struct {})",
                ir.pvar_name(x),
                ir.types.struct_info(t).name
            )
        }
        PtrStmt::Copy(x, y) => format!("{} = {}", ir.pvar_name(x), ir.pvar_name(y)),
        PtrStmt::StoreNil(x, sel) => {
            format!(
                "{}->{} = NULL",
                ir.pvar_name(x),
                ir.types.selector_name(sel)
            )
        }
        PtrStmt::Store(x, sel, y) => format!(
            "{}->{} = {}",
            ir.pvar_name(x),
            ir.types.selector_name(sel),
            ir.pvar_name(y)
        ),
        PtrStmt::Load(x, y, sel) => format!(
            "{} = {}->{}",
            ir.pvar_name(x),
            ir.pvar_name(y),
            ir.types.selector_name(sel)
        ),
    }
}

/// Render one statement.
pub fn stmt(ir: &FuncIr, s: &Stmt) -> String {
    match s {
        Stmt::Ptr(p) => ptr_stmt(ir, p),
        Stmt::ScalarStore(b, d) => format!("scalar store: {}{d}", ir.pvar_name(*b)),
        Stmt::ScalarConst(v, k) => format!("{} = {k}", ir.scalar_name(*v)),
        Stmt::ScalarHavoc(_, d) => format!("scalar: {d}"),
        Stmt::Free(x) => format!("free({})", ir.pvar_name(*x)),
        Stmt::Scalar(d) => format!("scalar: {d}"),
        Stmt::Call(c) => {
            let name = ir
                .callees
                .get(c.callee as usize)
                .map(|f| f.name.as_str())
                .unwrap_or("?");
            let mut args: Vec<String> = c
                .ptr_args
                .iter()
                .map(|a| match a {
                    crate::func::CallArg::Null => "NULL".to_string(),
                    crate::func::CallArg::Pvar(p) => ir.pvar_name(*p).to_string(),
                })
                .collect();
            args.extend(c.scalar_args.iter().map(|a| match a {
                crate::func::CallScalarArg::Const(v) => v.to_string(),
                crate::func::CallScalarArg::Var(s) => ir.scalar_name(*s).to_string(),
                crate::func::CallScalarArg::Opaque => "<scalar>".to_string(),
            }));
            let call = format!("{name}({})", args.join(", "));
            match (c.ret_ptr, c.ret_scalar) {
                (Some(x), _) => format!("{} = {call}", ir.pvar_name(x)),
                (None, Some(s)) => format!("{} = {call}", ir.scalar_name(s)),
                (None, None) => call,
            }
        }
    }
}

/// Render a condition.
pub fn cond(ir: &FuncIr, c: &Cond) -> String {
    match *c {
        Cond::PtrNull(x) => format!("{} == NULL", ir.pvar_name(x)),
        Cond::PtrEq(x, y) => format!("{} == {}", ir.pvar_name(x), ir.pvar_name(y)),
        Cond::ScalarEq(v, k) => format!("{} == {k}", ir.scalar_name(v)),
        Cond::Opaque => "<scalar>".to_string(),
    }
}

/// Render the whole function as a block listing.
pub fn func(ir: &FuncIr) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "function {} (entry {}):", ir.name, ir.entry);
    for (i, b) in ir.blocks.iter().enumerate() {
        let _ = writeln!(out, "bb{i}:");
        for &sid in &b.stmts {
            let info = ir.stmt(sid);
            let loops = if info.loops.is_empty() {
                String::new()
            } else {
                format!(
                    "  [{}]",
                    info.loops
                        .iter()
                        .map(|l| l.to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                )
            };
            let _ = writeln!(out, "    {}: {}{}", sid, stmt(ir, &info.stmt), loops);
        }
        match b.term {
            Terminator::Goto(t) => {
                let _ = writeln!(out, "    goto {t}");
            }
            Terminator::Branch {
                cond: c,
                then_bb,
                else_bb,
            } => {
                let _ = writeln!(
                    out,
                    "    if {} then {} else {}",
                    cond(ir, &c),
                    then_bb,
                    else_bb
                );
            }
            Terminator::Return => {
                let _ = writeln!(out, "    return");
            }
        }
    }
    for (li, l) in ir.loops.iter().enumerate() {
        let ip: Vec<&str> = l.ipvars.iter().map(|p| ir.pvar_name(*p)).collect();
        let _ = writeln!(
            out,
            "loop L{li}: header {}, depth {}, ipvars [{}]",
            l.header,
            l.depth,
            ip.join(", ")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::lower::lower_program;
    use psa_cfront::parse_and_type;

    #[test]
    fn renders_without_panicking() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *p;
                struct node *l;
                l = NULL;
                while (p != NULL) { p = p->nxt; }
                return 0;
            }
        "#;
        let (prog, table) = parse_and_type(src).unwrap();
        let ir = lower_program(&prog, &table, "main").unwrap();
        let text = super::func(&ir);
        assert!(text.contains("p = p->nxt"));
        assert!(text.contains("l = NULL"));
        assert!(text.contains("ipvars [p]"));
        assert!(text.contains("p == NULL"));
    }

    #[test]
    fn renders_malloc_and_stores() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *p;
                p = (struct node *) malloc(sizeof(struct node));
                p->nxt = p;
                p->nxt = NULL;
                return 0;
            }
        "#;
        let (prog, table) = parse_and_type(src).unwrap();
        let ir = lower_program(&prog, &table, "main").unwrap();
        let text = super::func(&ir);
        assert!(text.contains("p = malloc(struct node)"));
        assert!(text.contains("p->nxt = p"));
        assert!(text.contains("p->nxt = NULL"));
    }
}
