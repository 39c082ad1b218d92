//! Shape-assertion comments: `// @assert shape(x, list)` and friends.
//!
//! Assertions ride in ordinary C comments, so the token stream (which drops
//! trivia) never sees them; this module re-scans the raw source with a tiny
//! state machine that skips string/char literals and collects every comment
//! whose first token is `@assert`. The grammar:
//!
//! ```text
//! assert  := ['!'] pred [';' 'expect' expectation (',' expectation)*]
//! pred    := 'shape'   '(' ident ',' shapename ')'
//!          | 'shared'  '(' ident '->' ident ')'
//!          | 'reach'   '(' ident ',' ident ')'
//!          | 'alias'   '(' ident ',' ident ')'
//!          | 'acyclic' '(' ident ')'
//! shapename   := 'empty' | 'list' | 'tree' | 'dll' | 'dag' | 'cyclic'
//! expectation := [('L1'|'L2'|'L3') '='] verdict
//! verdict     := 'holds' | 'may-fail' | 'concrete-violation'
//! ```
//!
//! The optional `; expect …` suffix carries the *expected* verdict for the
//! corpus replay tests — per level when prefixed `L2=`, for every level
//! otherwise. Names are resolved against the lowered IR by
//! `psa-ir`'s assertion resolver, not here.

use crate::diag::{Diagnostic, Span};

/// The shape classes an assertion may name (mirrors the heuristic
/// `ShapeClass` of the analysis queries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeName {
    /// NULL.
    Empty,
    /// Unshared chain.
    List,
    /// Unshared, multiple out-selectors.
    Tree,
    /// Back-link pairs, no per-selector sharing.
    Dll,
    /// Sharing present.
    Dag,
    /// A cycle through the root.
    Cyclic,
}

impl ShapeName {
    /// Parse a shape-class keyword.
    pub fn parse(s: &str) -> Option<ShapeName> {
        Some(match s {
            "empty" => ShapeName::Empty,
            "list" => ShapeName::List,
            "tree" => ShapeName::Tree,
            "dll" => ShapeName::Dll,
            "dag" => ShapeName::Dag,
            "cyclic" => ShapeName::Cyclic,
            _ => return None,
        })
    }

    /// The keyword form.
    pub fn as_str(&self) -> &'static str {
        match self {
            ShapeName::Empty => "empty",
            ShapeName::List => "list",
            ShapeName::Tree => "tree",
            ShapeName::Dll => "dll",
            ShapeName::Dag => "dag",
            ShapeName::Cyclic => "cyclic",
        }
    }
}

/// A predicate with unresolved (name-based) operands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RawPred {
    /// `shape(x, class)` — heuristic structural classification.
    Shape(String, ShapeName),
    /// `shared(x->sel)` — some location reachable from `x` is referenced
    /// twice through `sel`.
    Shared(String, String),
    /// `reach(x, y)` — the location of `y` is reachable from `x`.
    Reach(String, String),
    /// `alias(p, q)` — both point at the same location.
    Alias(String, String),
    /// `acyclic(x)` — no cycle in the region reachable from `x`.
    Acyclic(String),
}

impl RawPred {
    /// Canonical rendering (no negation).
    pub fn render(&self) -> String {
        match self {
            RawPred::Shape(x, k) => format!("shape({x}, {})", k.as_str()),
            RawPred::Shared(x, s) => format!("shared({x}->{s})"),
            RawPred::Reach(x, y) => format!("reach({x}, {y})"),
            RawPred::Alias(p, q) => format!("alias({p}, {q})"),
            RawPred::Acyclic(x) => format!("acyclic({x})"),
        }
    }

    /// The pointer variables the predicate reads.
    pub fn pvars(&self) -> Vec<&str> {
        match self {
            RawPred::Shape(x, _) | RawPred::Shared(x, _) | RawPred::Acyclic(x) => vec![x],
            RawPred::Reach(x, y) | RawPred::Alias(x, y) => vec![x, y],
        }
    }
}

/// Expected verdicts, as written in a corpus `; expect …` suffix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpectedVerdict {
    /// Certified by the abstract semantics.
    Holds,
    /// Not certified (and not concretely refuted).
    MayFail,
    /// Refuted by at least one concrete execution.
    ConcreteViolation,
}

impl ExpectedVerdict {
    /// The keyword form.
    pub fn as_str(&self) -> &'static str {
        match self {
            ExpectedVerdict::Holds => "holds",
            ExpectedVerdict::MayFail => "may-fail",
            ExpectedVerdict::ConcreteViolation => "concrete-violation",
        }
    }
}

/// One expectation: a verdict, optionally restricted to one analysis level
/// (1–3); `level: None` applies to every level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expectation {
    /// Restrict to L1/L2/L3 when `Some(1..=3)`.
    pub level: Option<u8>,
    /// The expected verdict.
    pub verdict: ExpectedVerdict,
}

/// A parsed assertion comment, names not yet resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawAssert {
    /// Leading `!`.
    pub negated: bool,
    /// The predicate.
    pub pred: RawPred,
    /// 1-based source line of the comment.
    pub line: u32,
    /// Source span of the comment.
    pub span: Span,
    /// Expected verdicts from a `; expect …` suffix (empty if absent).
    pub expect: Vec<Expectation>,
}

impl RawAssert {
    /// Canonical rendering, e.g. `!shared(x->nxt)`.
    pub fn render(&self) -> String {
        format!(
            "{}{}",
            if self.negated { "!" } else { "" },
            self.pred.render()
        )
    }
}

/// Extract every `@assert` comment from raw C source. Non-assertion
/// comments are ignored; a comment that starts with `@assert` but fails to
/// parse is a hard error (silently dropping a typoed assertion would be the
/// worst possible behavior for a checker).
pub fn extract_asserts(src: &str) -> Result<Vec<RawAssert>, Diagnostic> {
    assert_comments(src).collect()
}

/// Each `@assert` comment of `src`, parsed, in source order.
pub(crate) fn assert_comments(
    src: &str,
) -> impl Iterator<Item = Result<RawAssert, Diagnostic>> + '_ {
    let comments = if src.contains("@assert") {
        scan_comments(src)
    } else {
        Vec::new()
    };
    comments.into_iter().filter_map(|c| {
        let body = c.text.trim_start_matches(['*', ' ', '\t']).trim();
        let rest = body.strip_prefix("@assert")?;
        if !rest.is_empty() && !rest.starts_with([' ', '\t', '(', '!']) {
            // e.g. `@assertion` — a different word, not ours.
            return None;
        }
        let span = Span {
            start: c.start,
            end: c.end,
            line: c.line,
            col: c.col,
        };
        Some(parse_assert(rest.trim(), span))
    })
}

// ------------------------------------------------------------- scanning

struct Comment<'a> {
    text: &'a str,
    start: usize,
    end: usize,
    line: u32,
    col: u32,
}

/// Collect all comments with their positions, skipping string and character
/// literals (a `//` inside `"…"` is not a comment).
fn scan_comments(src: &str) -> Vec<Comment<'_>> {
    let bytes = src.as_bytes();
    let mut comments = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                col = 1;
                i += 1;
            }
            b'"' | b'\'' => {
                let quote = b;
                i += 1;
                col += 1;
                while i < bytes.len() && bytes[i] != quote {
                    let step = if bytes[i] == b'\\' { 2 } else { 1 };
                    for _ in 0..step.min(bytes.len() - i) {
                        if bytes[i] == b'\n' {
                            line += 1;
                            col = 1;
                        } else {
                            col += 1;
                        }
                        i += 1;
                    }
                }
                i += 1;
                col += 1;
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                let start = i;
                let (sl, sc) = (line, col);
                i += 2;
                col += 2;
                let text_start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                    col += 1;
                }
                comments.push(Comment {
                    text: &src[text_start..i],
                    start,
                    end: i,
                    line: sl,
                    col: sc,
                });
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                let start = i;
                let (sl, sc) = (line, col);
                i += 2;
                col += 2;
                let text_start = i;
                let mut text_end = bytes.len();
                while i < bytes.len() {
                    if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                        text_end = i;
                        i += 2;
                        col += 2;
                        break;
                    }
                    if bytes[i] == b'\n' {
                        line += 1;
                        col = 1;
                    } else {
                        col += 1;
                    }
                    i += 1;
                }
                comments.push(Comment {
                    text: &src[text_start..text_end.min(src.len())],
                    start,
                    end: i,
                    line: sl,
                    col: sc,
                });
            }
            _ => {
                i += 1;
                col += 1;
            }
        }
    }
    comments
}

// -------------------------------------------------------------- parsing

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Word(String),
    Bang,
    LParen,
    RParen,
    Comma,
    Arrow,
    Semi,
    Eq,
    Dash,
}

impl std::fmt::Display for Tok {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tok::Word(w) => write!(f, "`{w}`"),
            Tok::Bang => write!(f, "`!`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Arrow => write!(f, "`->`"),
            Tok::Semi => write!(f, "`;`"),
            Tok::Eq => write!(f, "`=`"),
            Tok::Dash => write!(f, "`-`"),
        }
    }
}

fn tokenize(s: &str, span: Span) -> Result<Vec<Tok>, Diagnostic> {
    let bytes = s.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => i += 1,
            b'!' => {
                toks.push(Tok::Bang);
                i += 1;
            }
            b'(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            b')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            b',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            b';' => {
                toks.push(Tok::Semi);
                i += 1;
            }
            b'=' => {
                toks.push(Tok::Eq);
                i += 1;
            }
            b'-' if i + 1 < bytes.len() && bytes[i + 1] == b'>' => {
                toks.push(Tok::Arrow);
                i += 2;
            }
            b'-' => {
                toks.push(Tok::Dash);
                i += 1;
            }
            _ if b.is_ascii_alphanumeric() || b == b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                toks.push(Tok::Word(s[start..i].to_string()));
            }
            _ => {
                return Err(Diagnostic::error(
                    span,
                    format!("@assert: unexpected character `{}`", b as char),
                ))
            }
        }
    }
    Ok(toks)
}

struct P<'a> {
    toks: &'a [Tok],
    pos: usize,
    span: Span,
}

impl<'a> P<'a> {
    fn err(&self, msg: impl Into<String>) -> Diagnostic {
        Diagnostic::error(self.span, format!("@assert: {}", msg.into()))
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, want: Tok) -> Result<(), Diagnostic> {
        match self.next() {
            Some(t) if t == want => Ok(()),
            Some(t) => Err(self.err(format!("expected {want}, found {t}"))),
            None => Err(self.err(format!("expected {want}, found end of comment"))),
        }
    }

    fn word(&mut self, what: &str) -> Result<String, Diagnostic> {
        match self.next() {
            Some(Tok::Word(w)) => Ok(w),
            Some(t) => Err(self.err(format!("expected {what}, found {t}"))),
            None => Err(self.err(format!("expected {what}, found end of comment"))),
        }
    }
}

fn parse_assert(text: &str, span: Span) -> Result<RawAssert, Diagnostic> {
    let toks = tokenize(text, span)?;
    let mut p = P {
        toks: &toks,
        pos: 0,
        span,
    };

    let negated = matches!(p.peek(), Some(Tok::Bang));
    if negated {
        p.next();
    }
    let head = p.word("a predicate (shape/shared/reach/alias/acyclic)")?;
    p.eat(Tok::LParen)?;
    let pred = match head.as_str() {
        "shape" => {
            let x = p.word("a pointer variable")?;
            p.eat(Tok::Comma)?;
            let k = p.word("a shape class")?;
            let shape = ShapeName::parse(&k).ok_or_else(|| {
                p.err(format!(
                    "unknown shape class `{k}` (expected empty/list/tree/dll/dag/cyclic)"
                ))
            })?;
            RawPred::Shape(x, shape)
        }
        "shared" => {
            let x = p.word("a pointer variable")?;
            p.eat(Tok::Arrow)?;
            let s = p.word("a selector")?;
            RawPred::Shared(x, s)
        }
        "reach" => {
            let x = p.word("a pointer variable")?;
            p.eat(Tok::Comma)?;
            let y = p.word("a pointer variable")?;
            RawPred::Reach(x, y)
        }
        "alias" => {
            let x = p.word("a pointer variable")?;
            p.eat(Tok::Comma)?;
            let y = p.word("a pointer variable")?;
            RawPred::Alias(x, y)
        }
        "acyclic" => RawPred::Acyclic(p.word("a pointer variable")?),
        other => {
            return Err(p.err(format!(
                "unknown predicate `{other}` (expected shape/shared/reach/alias/acyclic)"
            )))
        }
    };
    p.eat(Tok::RParen)?;

    let mut expect = Vec::new();
    if matches!(p.peek(), Some(Tok::Semi)) {
        p.next();
        let kw = p.word("`expect`")?;
        if kw != "expect" {
            return Err(p.err(format!("expected `expect`, found `{kw}`")));
        }
        loop {
            expect.push(parse_expectation(&mut p)?);
            if matches!(p.peek(), Some(Tok::Comma)) {
                p.next();
            } else {
                break;
            }
        }
    }
    if p.peek().is_some() {
        let t = p.peek().unwrap().clone();
        return Err(p.err(format!("trailing {t} after the assertion")));
    }
    Ok(RawAssert {
        negated,
        pred,
        line: span.line,
        span,
        expect,
    })
}

fn parse_expectation(p: &mut P<'_>) -> Result<Expectation, Diagnostic> {
    let w = p.word("a verdict or level")?;
    let (level, verdict_word) = match w.as_str() {
        "L1" | "L2" | "L3" => {
            let lv = w.as_bytes()[1] - b'0';
            p.eat(Tok::Eq)?;
            (Some(lv), p.word("a verdict")?)
        }
        _ => (None, w),
    };
    let verdict = match verdict_word.as_str() {
        "holds" => ExpectedVerdict::Holds,
        "may" => {
            p.eat(Tok::Dash)?;
            let f = p.word("`fail`")?;
            if f != "fail" {
                return Err(p.err(format!("expected `may-fail`, found `may-{f}`")));
            }
            ExpectedVerdict::MayFail
        }
        "concrete" => {
            p.eat(Tok::Dash)?;
            let v = p.word("`violation`")?;
            if v != "violation" {
                return Err(p.err(format!(
                    "expected `concrete-violation`, found `concrete-{v}`"
                )));
            }
            ExpectedVerdict::ConcreteViolation
        }
        other => {
            return Err(p.err(format!(
                "unknown verdict `{other}` (expected holds/may-fail/concrete-violation)"
            )))
        }
    };
    Ok(Expectation { level, verdict })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_all_five_forms() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *x; struct node *y;
                x = NULL; // @assert shape(x, empty)
                y = NULL;
                /* @assert !shared(x->nxt) */
                // @assert reach(x, y)
                // @assert !alias(x, y)
                // @assert acyclic(x)
                return 0;
            }
        "#;
        let asserts = extract_asserts(src).unwrap();
        assert_eq!(asserts.len(), 5);
        assert_eq!(asserts[0].render(), "shape(x, empty)");
        assert_eq!(asserts[1].render(), "!shared(x->nxt)");
        assert_eq!(asserts[2].render(), "reach(x, y)");
        assert_eq!(asserts[3].render(), "!alias(x, y)");
        assert_eq!(asserts[4].render(), "acyclic(x)");
        assert!(asserts[1].negated && asserts[3].negated);
        assert_eq!(asserts[0].line, 5);
    }

    #[test]
    fn expectation_suffix() {
        let src = "// @assert acyclic(x) ; expect L1=may-fail, L3=holds\n\
                   // @assert alias(p, q) ; expect concrete-violation\n";
        let asserts = extract_asserts(src).unwrap();
        assert_eq!(
            asserts[0].expect,
            vec![
                Expectation {
                    level: Some(1),
                    verdict: ExpectedVerdict::MayFail
                },
                Expectation {
                    level: Some(3),
                    verdict: ExpectedVerdict::Holds
                },
            ]
        );
        assert_eq!(
            asserts[1].expect,
            vec![Expectation {
                level: None,
                verdict: ExpectedVerdict::ConcreteViolation
            }]
        );
    }

    #[test]
    fn comments_inside_strings_are_not_asserts() {
        let src = r#"int main() { printf("// @assert acyclic(x)"); return 0; }"#;
        assert!(extract_asserts(src).unwrap().is_empty());
    }

    #[test]
    fn non_assert_comments_ignored() {
        let src = "// just a note\n/* @asserting nothing */\nint main() { return 0; }\n";
        assert!(extract_asserts(src).unwrap().is_empty());
    }

    #[test]
    fn bad_syntax_is_an_error() {
        for bad in [
            "// @assert",
            "// @assert frobnicate(x)",
            "// @assert shape(x, zipper)",
            "// @assert shared(x.nxt)",
            "// @assert reach(x y)",
            "// @assert alias(x, y) extra",
            "// @assert acyclic(x) ; expect maybe",
            "// @assert acyclic(x) ; expect L4=holds",
        ] {
            assert!(extract_asserts(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn block_comment_line_numbers() {
        let src = "int x;\n\n/* @assert acyclic(p) */\n";
        let asserts = extract_asserts(src).unwrap();
        assert_eq!(asserts[0].line, 3);
    }

    #[test]
    fn parse_keeps_well_formed_asserts_and_the_names_they_read() {
        let body = "int main() { return 0; }\n";
        let program = crate::parse(&format!("// @assert reach(h, t)\n{body}")).unwrap();
        assert_eq!(program.asserts.len(), 1);
        assert_eq!(program.asserts[0].pred.pvars(), ["h", "t"]);
        // A malformed assertion still parses as C; checking reports it.
        let program = crate::parse(&format!("// @assert reach(h\n{body}")).unwrap();
        assert!(program.asserts.is_empty());
        // It costs the well-formed ones nothing.
        let src = format!("// @assert reach(h\n// @assert acyclic(t)\n{body}");
        let program = crate::parse(&src).unwrap();
        assert_eq!(program.asserts.len(), 1);
        assert_eq!(program.asserts[0].pred.pvars(), ["t"]);
        assert!(extract_asserts(&src).is_err());
    }
}
