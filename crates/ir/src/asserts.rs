//! Resolution of `@assert` comments against a lowered function: names to
//! pvar/selector ids, comment lines to program points.
//!
//! An assertion written on line *L* binds to the program point **before**
//! the first statement whose source line is ≥ *L* — i.e. "right here, every
//! time control passes this spot". An assertion after the last statement
//! binds to the function exit (the join over all `return` states). For a
//! point inside a loop the abstract check therefore sees the fixed-point
//! join over all iterations, and the concrete check sees every iteration's
//! state — exactly the per-statement RSRSG / trace-point granularity the
//! rest of the system already uses.

use crate::func::{FuncIr, PvarId, StmtId};
use psa_cfront::asserts::{Expectation, RawAssert, RawPred, ShapeName};
use psa_cfront::diag::Diagnostic;
use psa_cfront::types::SelectorId;

/// A predicate with resolved operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssertPred {
    /// `shape(x, class)`.
    Shape(PvarId, ShapeName),
    /// `shared(x->sel)`.
    Shared(PvarId, SelectorId),
    /// `reach(x, y)`.
    Reach(PvarId, PvarId),
    /// `alias(p, q)`.
    Alias(PvarId, PvarId),
    /// `acyclic(x)`.
    Acyclic(PvarId),
}

/// The program point an assertion is checked at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssertSite {
    /// Immediately before the statement executes (every time).
    Before(StmtId),
    /// At function exit (join over all returns; concretely, the final state
    /// of every run that returns).
    Exit,
}

/// A fully resolved assertion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assertion {
    /// The predicate.
    pub pred: AssertPred,
    /// Leading `!`.
    pub negated: bool,
    /// Where it is checked.
    pub site: AssertSite,
    /// 1-based source line of the comment.
    pub line: u32,
    /// Canonical rendering, e.g. `!shared(x->nxt)`.
    pub text: String,
    /// Expected verdicts from the corpus `; expect …` suffix.
    pub expect: Vec<Expectation>,
}

/// Resolve raw assertions against a lowered function. Unknown pointer
/// variables and selectors are reported with the comment's span; compiler
/// temporaries are not addressable.
pub fn resolve_asserts(ir: &FuncIr, raws: &[RawAssert]) -> Result<Vec<Assertion>, Diagnostic> {
    raws.iter().map(|r| resolve_one(ir, r)).collect()
}

/// Convenience: extract and resolve in one step.
pub fn asserts_of_source(src: &str, ir: &FuncIr) -> Result<Vec<Assertion>, Diagnostic> {
    let raws = psa_cfront::asserts::extract_asserts(src)?;
    resolve_asserts(ir, &raws)
}

fn resolve_one(ir: &FuncIr, raw: &RawAssert) -> Result<Assertion, Diagnostic> {
    let pvar = |name: &str| -> Result<PvarId, Diagnostic> {
        match ir.pvar_id(name) {
            Some(p) if !ir.pvar(p).is_temp => Ok(p),
            _ => Err(Diagnostic::error(
                raw.span,
                format!("@assert: unknown pointer variable `{name}`"),
            )),
        }
    };
    let selector = |name: &str| -> Result<SelectorId, Diagnostic> {
        ir.types.selector_id(name).ok_or_else(|| {
            Diagnostic::error(raw.span, format!("@assert: unknown selector `{name}`"))
        })
    };
    let pred = match &raw.pred {
        RawPred::Shape(x, k) => AssertPred::Shape(pvar(x)?, *k),
        RawPred::Shared(x, s) => AssertPred::Shared(pvar(x)?, selector(s)?),
        RawPred::Reach(x, y) => AssertPred::Reach(pvar(x)?, pvar(y)?),
        RawPred::Alias(p, q) => AssertPred::Alias(pvar(p)?, pvar(q)?),
        RawPred::Acyclic(x) => AssertPred::Acyclic(pvar(x)?),
    };
    Ok(Assertion {
        pred,
        negated: raw.negated,
        site: site_for_line(ir, raw.line),
        line: raw.line,
        text: raw.render(),
        expect: raw.expect.clone(),
    })
}

/// The program point for an assertion on source line `line`: before the
/// first statement at or after that line (by source position, ties broken
/// by statement id), or `Exit` when no statement follows.
pub fn site_for_line(ir: &FuncIr, line: u32) -> AssertSite {
    let mut best: Option<(u32, StmtId)> = None;
    for (i, si) in ir.stmts.iter().enumerate() {
        if si.span.is_synth() || si.span.line < line {
            continue;
        }
        let cand = (si.span.line, StmtId(i as u32));
        if best.is_none_or(|b| cand < b) {
            best = Some(cand);
        }
    }
    match best {
        Some((_, s)) => AssertSite::Before(s),
        None => AssertSite::Exit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_cfront::parse_and_type;

    fn lower(src: &str) -> FuncIr {
        let (p, t) = parse_and_type(src).unwrap();
        crate::lower_program(&p, &t, "main").unwrap()
    }

    const SRC: &str = r#"
struct node { int v; struct node *nxt; };
int main() {
    struct node *x;
    struct node *y;
    x = (struct node *) malloc(sizeof(struct node));
    // @assert !alias(x, y)
    y = x;
    // @assert alias(x, y)
    return 0;
}
"#;

    #[test]
    fn resolves_and_attaches() {
        let ir = lower(SRC);
        let asserts = asserts_of_source(SRC, &ir).unwrap();
        assert_eq!(asserts.len(), 2);
        // First assert (line 7) binds before `y = x` (line 8); the second
        // (line 9) before `return` — no statement follows, so Exit.
        match asserts[0].site {
            AssertSite::Before(s) => assert_eq!(ir.stmt(s).span.line, 8),
            AssertSite::Exit => panic!("should bind to y = x"),
        }
        assert_eq!(asserts[1].site, AssertSite::Exit);
        let x = ir.pvar_id("x").unwrap();
        let y = ir.pvar_id("y").unwrap();
        assert_eq!(asserts[0].pred, AssertPred::Alias(x, y));
        assert!(asserts[0].negated);
    }

    #[test]
    fn unknown_pvar_diagnostic() {
        let ir = lower(SRC);
        let src = SRC.replace("!alias(x, y)", "!alias(x, zz)");
        let err = asserts_of_source(&src, &ir).unwrap_err();
        assert!(err.to_string().contains("unknown pointer variable `zz`"));
    }

    #[test]
    fn unknown_selector_diagnostic() {
        let ir = lower(SRC);
        let src = SRC.replace("!alias(x, y)", "shared(x->prev)");
        let err = asserts_of_source(&src, &ir).unwrap_err();
        assert!(err.to_string().contains("unknown selector `prev`"));
    }

    #[test]
    fn temps_are_not_addressable() {
        let ir = lower(SRC);
        let src = SRC.replace("!alias(x, y)", "acyclic(@t0)");
        // `@` does not tokenize — any spelling of a temp is rejected one
        // way or another; a plain unknown name gives the pvar diagnostic.
        assert!(asserts_of_source(&src, &ir).is_err());
    }
}
