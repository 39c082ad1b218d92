//! Recursive-descent parser for the C subset.
//!
//! Grammar notes:
//! * typedef names are tracked while parsing, so `cell *p;` parses as a
//!   declaration once `typedef struct cell cell;` has been seen;
//! * compound assignments (`+=` etc.), `++`/`--` are desugared to plain
//!   assignments in the AST;
//! * fixed-size arrays are allowed only as struct fields and only with
//!   constant non-negative indices; `q->kids[2]` folds into the expanded
//!   element field `kids[2]`, and nested-struct access `p->pos.x` folds
//!   into the composite field `pos.x`. Local arrays and the address-of
//!   operator on heap fields remain rejected — the analyzed codes use
//!   pure pointer structures and scalars, as in the paper.

use crate::ast::*;
use crate::diag::{Diagnostic, Span};
use crate::lexer::lex;
use crate::token::{Token, TokenKind};
use std::collections::HashSet;

/// Parse a complete translation unit.
pub fn parse(src: &str) -> Result<Program, Diagnostic> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        typedefs: HashSet::new(),
        depth: 0,
    };
    let mut program = p.program()?;
    // Keep each well-formed assertion: a typo in one must not unbind the
    // names the others read. Checking reports the typo.
    program.asserts = crate::asserts::assert_comments(src)
        .filter_map(Result::ok)
        .collect();
    Ok(program)
}

/// Nesting ceiling for recursive productions (blocks, expressions). Deeper
/// input — e.g. a pathological 10k-deep parenthesized expression — would
/// overflow the process stack; instead it is rejected with a diagnostic.
const MAX_NESTING: usize = 256;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    typedefs: HashSet<String>,
    depth: usize,
}

impl Parser {
    fn enter(&mut self) -> Result<(), Diagnostic> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(Diagnostic::error(
                self.span(),
                format!("nesting too deep (more than {MAX_NESTING} levels)"),
            ));
        }
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, n: usize) -> &TokenKind {
        let i = (self.pos + n).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Token, Diagnostic> {
        if self.peek() == kind {
            Ok(self.bump())
        } else {
            Err(Diagnostic::error(
                self.span(),
                format!(
                    "expected {}, found {}",
                    kind.describe(),
                    self.peek().describe()
                ),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Span), Diagnostic> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                let t = self.bump();
                Ok((name, t.span))
            }
            other => Err(Diagnostic::error(
                self.span(),
                format!("expected identifier, found {}", other.describe()),
            )),
        }
    }

    // ---------------------------------------------------------- top level

    fn program(&mut self) -> Result<Program, Diagnostic> {
        let mut prog = Program::default();
        while *self.peek() != TokenKind::Eof {
            if *self.peek() == TokenKind::KwTypedef {
                prog.typedefs.push(self.typedef_def()?);
                continue;
            }
            if *self.peek() == TokenKind::KwStruct
                && matches!(self.peek_at(1), TokenKind::Ident(_))
                && *self.peek_at(2) == TokenKind::LBrace
            {
                prog.structs.push(self.struct_def()?);
                continue;
            }
            // Otherwise: a type followed by a name, then either `(` (function)
            // or a declarator list (global variable).
            let start = self.span();
            let base = self.type_base()?;
            let (ty, name, nspan) = self.declarator(base.clone())?;
            if *self.peek() == TokenKind::LParen {
                prog.functions.push(self.function_def(ty, name, start)?);
            } else {
                // Global variable(s).
                let d = self.finish_global(ty, name, nspan)?;
                prog.globals.push(d);
                while self.eat(&TokenKind::Comma) {
                    let (ty, name, nspan) = self.declarator(base.clone())?;
                    let d = self.finish_global(ty, name, nspan)?;
                    prog.globals.push(d);
                }
                self.expect(&TokenKind::Semi)?;
            }
        }
        Ok(prog)
    }

    /// Parse the optional `= init` tail of one global declarator.
    fn finish_global(
        &mut self,
        ty: TypeExpr,
        name: String,
        span: Span,
    ) -> Result<Decl, Diagnostic> {
        let init = if self.eat(&TokenKind::Assign) {
            Some(self.expr_no_assign()?)
        } else {
            None
        };
        Ok(Decl {
            name,
            ty,
            init,
            span,
        })
    }

    fn typedef_def(&mut self) -> Result<TypedefDef, Diagnostic> {
        let start = self.span();
        self.expect(&TokenKind::KwTypedef)?;
        let base = self.type_base()?;
        let (ty, name, _) = self.declarator(base)?;
        self.expect(&TokenKind::Semi)?;
        self.typedefs.insert(name.clone());
        Ok(TypedefDef {
            name,
            ty,
            span: start,
        })
    }

    fn struct_def(&mut self) -> Result<StructDef, Diagnostic> {
        let start = self.span();
        self.expect(&TokenKind::KwStruct)?;
        let (name, _) = self.expect_ident()?;
        self.expect(&TokenKind::LBrace)?;
        let mut fields = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            let base = self.type_base()?;
            loop {
                let (ty, fname, fspan) = self.field_declarator(base.clone())?;
                fields.push(Field {
                    name: fname,
                    ty,
                    span: fspan,
                });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::Semi)?;
        }
        self.expect(&TokenKind::Semi)?;
        Ok(StructDef {
            name,
            fields,
            span: start,
        })
    }

    fn function_def(
        &mut self,
        ret: TypeExpr,
        name: String,
        span: Span,
    ) -> Result<Function, Diagnostic> {
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.eat(&TokenKind::RParen) {
            if *self.peek() == TokenKind::KwVoid && *self.peek_at(1) == TokenKind::RParen {
                self.bump();
                self.expect(&TokenKind::RParen)?;
            } else {
                loop {
                    let base = self.type_base()?;
                    let (ty, pname, _) = self.declarator(base)?;
                    params.push(Param { name: pname, ty });
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(&TokenKind::RParen)?;
            }
        }
        self.expect(&TokenKind::LBrace)?;
        let mut body = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            body.push(self.stmt()?);
        }
        Ok(Function {
            name,
            ret,
            params,
            body,
            span,
        })
    }

    // ---------------------------------------------------------- types

    /// True if the current token can begin a type.
    fn at_type(&self) -> bool {
        match self.peek() {
            TokenKind::KwStruct
            | TokenKind::KwInt
            | TokenKind::KwLong
            | TokenKind::KwShort
            | TokenKind::KwUnsigned
            | TokenKind::KwSigned
            | TokenKind::KwDouble
            | TokenKind::KwFloat
            | TokenKind::KwChar
            | TokenKind::KwVoid => true,
            TokenKind::Ident(name) => self.typedefs.contains(name),
            _ => false,
        }
    }

    /// Parse a base type (no pointer stars).
    fn type_base(&mut self) -> Result<TypeExpr, Diagnostic> {
        let t = self.bump();
        match t.kind {
            TokenKind::KwVoid => Ok(TypeExpr::Void),
            TokenKind::KwDouble | TokenKind::KwFloat => Ok(TypeExpr::Double),
            TokenKind::KwInt | TokenKind::KwChar | TokenKind::KwShort => Ok(TypeExpr::Int),
            TokenKind::KwLong | TokenKind::KwUnsigned | TokenKind::KwSigned => {
                // Swallow multi-keyword integer types: `unsigned long int` etc.
                while matches!(
                    self.peek(),
                    TokenKind::KwInt
                        | TokenKind::KwLong
                        | TokenKind::KwShort
                        | TokenKind::KwChar
                        | TokenKind::KwUnsigned
                        | TokenKind::KwSigned
                ) {
                    self.bump();
                }
                Ok(TypeExpr::Int)
            }
            TokenKind::KwStruct => {
                let (name, _) = self.expect_ident()?;
                Ok(TypeExpr::Struct(name))
            }
            TokenKind::Ident(name) if self.typedefs.contains(&name) => Ok(TypeExpr::Named(name)),
            other => Err(Diagnostic::error(
                t.span,
                format!("expected a type, found {}", other.describe()),
            )),
        }
    }

    /// Parse `* * name` after a base type; returns (full type, name, span).
    fn declarator(&mut self, base: TypeExpr) -> Result<(TypeExpr, String, Span), Diagnostic> {
        let mut depth = 0;
        while self.eat(&TokenKind::Star) {
            depth += 1;
        }
        let (name, span) = self.expect_ident()?;
        if *self.peek() == TokenKind::LBracket {
            return Err(Diagnostic::error(
                self.span(),
                "array declarators are supported only as struct fields in this C subset",
            ));
        }
        Ok((base.pointer_to(depth), name, span))
    }

    /// [`Self::declarator`] for struct fields, where a fixed-size array
    /// suffix (`T *name[N]`) is allowed; the type table expands it into
    /// element fields `name[0]` … `name[N-1]`.
    fn field_declarator(&mut self, base: TypeExpr) -> Result<(TypeExpr, String, Span), Diagnostic> {
        let mut depth = 0;
        while self.eat(&TokenKind::Star) {
            depth += 1;
        }
        let (name, span) = self.expect_ident()?;
        let mut ty = base.pointer_to(depth);
        if self.eat(&TokenKind::LBracket) {
            let n = match self.bump() {
                Token {
                    kind: TokenKind::IntLit(v),
                    ..
                } if v > 0 => v as u32,
                t => {
                    return Err(Diagnostic::error(
                        t.span,
                        "array fields need a positive integer-literal size",
                    ));
                }
            };
            self.expect(&TokenKind::RBracket)?;
            ty = TypeExpr::Array(Box::new(ty), n);
        }
        Ok((ty, name, span))
    }

    /// Parse a full type expression (base + stars), for casts and sizeof.
    fn type_expr(&mut self) -> Result<TypeExpr, Diagnostic> {
        let base = self.type_base()?;
        let mut depth = 0;
        while self.eat(&TokenKind::Star) {
            depth += 1;
        }
        Ok(base.pointer_to(depth))
    }

    // ---------------------------------------------------------- statements

    fn stmt(&mut self) -> Result<Stmt, Diagnostic> {
        self.enter()?;
        let r = self.stmt_inner();
        self.leave();
        r
    }

    fn stmt_inner(&mut self) -> Result<Stmt, Diagnostic> {
        let span = self.span();
        match self.peek().clone() {
            TokenKind::Semi => {
                self.bump();
                Ok(Stmt::Empty(span))
            }
            TokenKind::LBrace => {
                self.bump();
                let mut stmts = Vec::new();
                while !self.eat(&TokenKind::RBrace) {
                    stmts.push(self.stmt()?);
                }
                Ok(Stmt::Block(stmts, span))
            }
            TokenKind::KwIf => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let cond = self.expr_no_assign()?;
                self.expect(&TokenKind::RParen)?;
                let then = Box::new(self.stmt()?);
                let els = if self.eat(&TokenKind::KwElse) {
                    Some(Box::new(self.stmt()?))
                } else {
                    None
                };
                Ok(Stmt::If(cond, then, els, span))
            }
            TokenKind::KwWhile => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let cond = self.expr_no_assign()?;
                self.expect(&TokenKind::RParen)?;
                let body = Box::new(self.stmt()?);
                Ok(Stmt::While(cond, body, span))
            }
            TokenKind::KwDo => {
                self.bump();
                let body = Box::new(self.stmt()?);
                self.expect(&TokenKind::KwWhile)?;
                self.expect(&TokenKind::LParen)?;
                let cond = self.expr_no_assign()?;
                self.expect(&TokenKind::RParen)?;
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::DoWhile(body, cond, span))
            }
            TokenKind::KwFor => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let init = if *self.peek() == TokenKind::Semi {
                    self.bump();
                    None
                } else if self.at_type() {
                    Some(Box::new(self.decl_stmt()?))
                } else {
                    let e = self.expr()?;
                    self.expect(&TokenKind::Semi)?;
                    Some(Box::new(Stmt::Expr(e)))
                };
                let cond = if *self.peek() == TokenKind::Semi {
                    None
                } else {
                    Some(self.expr_no_assign()?)
                };
                self.expect(&TokenKind::Semi)?;
                let step = if *self.peek() == TokenKind::RParen {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&TokenKind::RParen)?;
                let body = Box::new(self.stmt()?);
                Ok(Stmt::For(init, cond, step, body, span))
            }
            TokenKind::KwSwitch => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let scrutinee = self.expr_no_assign()?;
                self.expect(&TokenKind::RParen)?;
                self.expect(&TokenKind::LBrace)?;
                let mut arms: Vec<(Option<i64>, Vec<Stmt>)> = Vec::new();
                while !self.eat(&TokenKind::RBrace) {
                    let label = match self.peek().clone() {
                        TokenKind::KwCase => {
                            self.bump();
                            let neg = self.eat(&TokenKind::Minus);
                            let v = match self.bump() {
                                Token {
                                    kind: TokenKind::IntLit(v),
                                    ..
                                } => v,
                                t => {
                                    return Err(Diagnostic::error(
                                        t.span,
                                        "`case` labels must be integer literals",
                                    ));
                                }
                            };
                            Some(if neg { -v } else { v })
                        }
                        TokenKind::KwDefault => {
                            self.bump();
                            None
                        }
                        other => {
                            return Err(Diagnostic::error(
                                self.span(),
                                format!("expected `case` or `default`, found {}", other.describe()),
                            ));
                        }
                    };
                    self.expect(&TokenKind::Colon)?;
                    let mut body = Vec::new();
                    let mut terminated = false;
                    loop {
                        match self.peek() {
                            TokenKind::KwCase | TokenKind::KwDefault | TokenKind::RBrace => break,
                            TokenKind::KwBreak => {
                                self.bump();
                                self.expect(&TokenKind::Semi)?;
                                terminated = true;
                                break;
                            }
                            _ => body.push(self.stmt()?),
                        }
                    }
                    // No fallthrough in the subset: a non-final arm must end
                    // in `break` (or `return` inside its body).
                    if !terminated
                        && *self.peek() != TokenKind::RBrace
                        && !matches!(body.last(), Some(Stmt::Return(_, _)))
                    {
                        return Err(Diagnostic::error(
                            self.span(),
                            "switch arms must end with `break` (fallthrough is \
                             outside the C subset)",
                        ));
                    }
                    arms.push((label, body));
                }
                Ok(Stmt::Switch(scrutinee, arms, span))
            }
            TokenKind::KwReturn => {
                self.bump();
                let e = if *self.peek() == TokenKind::Semi {
                    None
                } else {
                    Some(self.expr_no_assign()?)
                };
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Return(e, span))
            }
            TokenKind::KwBreak => {
                self.bump();
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Break(span))
            }
            TokenKind::KwContinue => {
                self.bump();
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Continue(span))
            }
            _ if self.at_type() => self.decl_stmt(),
            _ => {
                let e = self.expr()?;
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Expr(e))
            }
        }
    }

    /// A declaration statement, possibly with several declarators. Multiple
    /// declarators become a block of single declarations.
    fn decl_stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let span = self.span();
        let base = self.type_base()?;
        let mut decls = Vec::new();
        loop {
            let (ty, name, nspan) = self.declarator(base.clone())?;
            let init = if self.eat(&TokenKind::Assign) {
                Some(self.expr_no_assign()?)
            } else {
                None
            };
            decls.push(Stmt::Decl(Decl {
                name,
                ty,
                init,
                span: nspan,
            }));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::Semi)?;
        if decls.len() == 1 {
            Ok(decls.pop().unwrap())
        } else {
            Ok(Stmt::Block(decls, span))
        }
    }

    // ---------------------------------------------------------- expressions

    /// Full expression including assignment.
    fn expr(&mut self) -> Result<Expr, Diagnostic> {
        let lhs = self.expr_no_assign()?;
        let span = self.span();
        match self.peek().clone() {
            TokenKind::Assign => {
                self.bump();
                let rhs = self.expr()?;
                Ok(Expr::Assign(Box::new(lhs), Box::new(rhs), span))
            }
            TokenKind::PlusAssign
            | TokenKind::MinusAssign
            | TokenKind::StarAssign
            | TokenKind::SlashAssign => {
                let op = match self.bump().kind {
                    TokenKind::PlusAssign => BinOp::Add,
                    TokenKind::MinusAssign => BinOp::Sub,
                    TokenKind::StarAssign => BinOp::Mul,
                    TokenKind::SlashAssign => BinOp::Div,
                    _ => unreachable!(),
                };
                let rhs = self.expr_no_assign()?;
                let sum = Expr::Binary(op, Box::new(lhs.clone()), Box::new(rhs), span);
                Ok(Expr::Assign(Box::new(lhs), Box::new(sum), span))
            }
            _ => Ok(lhs),
        }
    }

    /// Expression excluding top-level assignment (conditions, initializers).
    fn expr_no_assign(&mut self) -> Result<Expr, Diagnostic> {
        self.ternary()
    }

    fn ternary(&mut self) -> Result<Expr, Diagnostic> {
        let c = self.or_expr()?;
        if self.eat(&TokenKind::Question) {
            let span = c.span();
            let a = self.expr_no_assign()?;
            self.expect(&TokenKind::Colon)?;
            let b = self.expr_no_assign()?;
            Ok(Expr::Cond(Box::new(c), Box::new(a), Box::new(b), span))
        } else {
            Ok(c)
        }
    }

    fn or_expr(&mut self) -> Result<Expr, Diagnostic> {
        let mut lhs = self.and_expr()?;
        while *self.peek() == TokenKind::OrOr {
            let span = self.bump().span;
            let rhs = self.and_expr()?;
            lhs = Expr::Binary(BinOp::Or, Box::new(lhs), Box::new(rhs), span);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, Diagnostic> {
        let mut lhs = self.equality()?;
        while *self.peek() == TokenKind::AndAnd {
            let span = self.bump().span;
            let rhs = self.equality()?;
            lhs = Expr::Binary(BinOp::And, Box::new(lhs), Box::new(rhs), span);
        }
        Ok(lhs)
    }

    fn equality(&mut self) -> Result<Expr, Diagnostic> {
        let mut lhs = self.relational()?;
        loop {
            let op = match self.peek() {
                TokenKind::Eq => BinOp::Eq,
                TokenKind::Ne => BinOp::Ne,
                _ => break,
            };
            let span = self.bump().span;
            let rhs = self.relational()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs), span);
        }
        Ok(lhs)
    }

    fn relational(&mut self) -> Result<Expr, Diagnostic> {
        let mut lhs = self.additive()?;
        loop {
            let op = match self.peek() {
                TokenKind::Lt => BinOp::Lt,
                TokenKind::Gt => BinOp::Gt,
                TokenKind::Le => BinOp::Le,
                TokenKind::Ge => BinOp::Ge,
                _ => break,
            };
            let span = self.bump().span;
            let rhs = self.additive()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs), span);
        }
        Ok(lhs)
    }

    fn additive(&mut self) -> Result<Expr, Diagnostic> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            let span = self.bump().span;
            let rhs = self.multiplicative()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs), span);
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> Result<Expr, Diagnostic> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Rem,
                _ => break,
            };
            let span = self.bump().span;
            let rhs = self.unary()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs), span);
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, Diagnostic> {
        self.enter()?;
        let r = self.unary_inner();
        self.leave();
        r
    }

    fn unary_inner(&mut self) -> Result<Expr, Diagnostic> {
        let span = self.span();
        match self.peek().clone() {
            TokenKind::Minus => {
                self.bump();
                let e = self.unary()?;
                Ok(Expr::Unary(UnOp::Neg, Box::new(e), span))
            }
            TokenKind::Not => {
                self.bump();
                let e = self.unary()?;
                Ok(Expr::Unary(UnOp::Not, Box::new(e), span))
            }
            TokenKind::Star => {
                self.bump();
                let e = self.unary()?;
                Ok(Expr::Unary(UnOp::Deref, Box::new(e), span))
            }
            TokenKind::Amp => {
                self.bump();
                let e = self.unary()?;
                Ok(Expr::Unary(UnOp::AddrOf, Box::new(e), span))
            }
            TokenKind::PlusPlus | TokenKind::MinusMinus => {
                // Prefix increment: ++x desugars to x = x + 1.
                let op = if *self.peek() == TokenKind::PlusPlus {
                    BinOp::Add
                } else {
                    BinOp::Sub
                };
                self.bump();
                let e = self.unary()?;
                let one = Expr::IntLit(1, span);
                let sum = Expr::Binary(op, Box::new(e.clone()), Box::new(one), span);
                Ok(Expr::Assign(Box::new(e), Box::new(sum), span))
            }
            TokenKind::KwSizeof => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let ty = self.type_expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(Expr::SizeOf(ty, span))
            }
            TokenKind::LParen if self.type_follows() => {
                self.bump();
                let ty = self.type_expr()?;
                self.expect(&TokenKind::RParen)?;
                let e = self.unary()?;
                Ok(Expr::Cast(ty, Box::new(e), span))
            }
            _ => self.postfix(),
        }
    }

    /// True if a cast's type begins right after the current `(`.
    fn type_follows(&self) -> bool {
        match self.peek_at(1) {
            TokenKind::KwStruct
            | TokenKind::KwInt
            | TokenKind::KwLong
            | TokenKind::KwShort
            | TokenKind::KwUnsigned
            | TokenKind::KwSigned
            | TokenKind::KwDouble
            | TokenKind::KwFloat
            | TokenKind::KwChar
            | TokenKind::KwVoid => true,
            TokenKind::Ident(name) => self.typedefs.contains(name),
            _ => false,
        }
    }

    fn postfix(&mut self) -> Result<Expr, Diagnostic> {
        let mut e = self.primary()?;
        loop {
            let span = self.span();
            match self.peek().clone() {
                TokenKind::Dot => {
                    self.bump();
                    let (name, _) = self.expect_ident()?;
                    // A dot access hanging off a member access is a nested
                    // struct-by-value field: fold it into the parent access
                    // with the composite name the type table expands to
                    // (`p->pos.x` reads field `pos.x` of `*p`).
                    e = match e {
                        Expr::Member(base, f, arrow, mspan) => {
                            Expr::Member(base, format!("{f}.{name}"), arrow, mspan)
                        }
                        other => Expr::Member(Box::new(other), name, false, span),
                    };
                }
                TokenKind::Arrow => {
                    self.bump();
                    let (name, _) = self.expect_ident()?;
                    e = Expr::Member(Box::new(e), name, true, span);
                }
                TokenKind::PlusPlus | TokenKind::MinusMinus => {
                    // Postfix increment, statement-position only: desugar to
                    // assignment (the produced value difference from C does
                    // not matter because the subset forbids using it).
                    let op = if *self.peek() == TokenKind::PlusPlus {
                        BinOp::Add
                    } else {
                        BinOp::Sub
                    };
                    self.bump();
                    let one = Expr::IntLit(1, span);
                    let sum = Expr::Binary(op, Box::new(e.clone()), Box::new(one), span);
                    e = Expr::Assign(Box::new(e), Box::new(sum), span);
                }
                TokenKind::LBracket => {
                    self.bump();
                    let idx = self.expr_no_assign()?;
                    self.expect(&TokenKind::RBracket)?;
                    // Constant index into an array struct field folds into
                    // the expanded element-field name (`q->kids[2]` reads
                    // field `kids[2]`). Anything else — local arrays,
                    // variable indices — is outside the subset.
                    e = match (e, idx) {
                        (Expr::Member(base, f, arrow, mspan), Expr::IntLit(k, _)) if k >= 0 => {
                            Expr::Member(base, format!("{f}[{k}]"), arrow, mspan)
                        }
                        _ => {
                            return Err(Diagnostic::error(
                                span,
                                "array indexing is supported only on struct fields \
                                 with constant non-negative indices",
                            ));
                        }
                    };
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, Diagnostic> {
        let t = self.bump();
        match t.kind {
            TokenKind::IntLit(v) => Ok(Expr::IntLit(v, t.span)),
            TokenKind::FloatLit(v) => Ok(Expr::FloatLit(v, t.span)),
            TokenKind::StrLit(s) => Ok(Expr::StrLit(s, t.span)),
            TokenKind::CharLit(v) => Ok(Expr::IntLit(v, t.span)),
            TokenKind::KwNull => Ok(Expr::Null(t.span)),
            TokenKind::Ident(name) => {
                if *self.peek() == TokenKind::LParen {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.eat(&TokenKind::RParen) {
                        loop {
                            args.push(self.expr_no_assign()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                        self.expect(&TokenKind::RParen)?;
                    }
                    Ok(Expr::Call(name, args, t.span))
                } else {
                    Ok(Expr::Ident(name, t.span))
                }
            }
            TokenKind::LParen => {
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            other => Err(Diagnostic::error(
                t.span,
                format!("expected an expression, found {}", other.describe()),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_main(body: &str) -> Program {
        let src = format!(
            "struct node {{ int v; struct node *nxt; struct node *prv; }};\n\
             int main() {{ {body} return 0; }}"
        );
        parse(&src).expect("parse")
    }

    #[test]
    fn deep_paren_expression_errors_instead_of_overflowing() {
        // A ~10k-deep parenthesized expression must come back as a
        // diagnostic, not blow the process stack.
        let deep = format!("int x; x = {}1{};", "(".repeat(10_000), ")".repeat(10_000));
        let src = format!("int main() {{ {deep} return 0; }}");
        let err = parse(&src).expect_err("deep nesting must be rejected");
        assert!(
            err.to_string().contains("nesting too deep"),
            "unexpected diagnostic: {err}"
        );
    }

    #[test]
    fn deep_block_nesting_errors_instead_of_overflowing() {
        let src = format!(
            "int main() {{ {} {} return 0; }}",
            "{".repeat(10_000),
            "}".repeat(10_000)
        );
        let err = parse(&src).expect_err("deep blocks must be rejected");
        assert!(err.to_string().contains("nesting too deep"));
    }

    #[test]
    fn moderate_nesting_still_parses() {
        let expr = format!("{}1{}", "(".repeat(100), ")".repeat(100));
        parse_main(&format!("int x; x = {expr};"));
    }

    #[test]
    fn parses_struct_with_pointer_fields() {
        let p = parse_main("");
        let s = p.struct_def("node").unwrap();
        assert_eq!(s.fields.len(), 3);
        assert!(s.fields[1].ty.is_pointer());
        assert_eq!(s.fields[1].name, "nxt");
    }

    #[test]
    fn parses_malloc_cast() {
        let p = parse_main("struct node *x; x = (struct node *) malloc(sizeof(struct node));");
        let f = p.function("main").unwrap();
        // Decl + Expr + Return
        assert_eq!(f.body.len(), 3);
        match &f.body[1] {
            Stmt::Expr(Expr::Assign(lhs, rhs, _)) => {
                assert!(matches!(**lhs, Expr::Ident(ref n, _) if n == "x"));
                match &**rhs {
                    Expr::Cast(TypeExpr::Pointer(inner), call, _) => {
                        assert_eq!(**inner, TypeExpr::Struct("node".into()));
                        assert!(matches!(**call, Expr::Call(ref n, _, _) if n == "malloc"));
                    }
                    other => panic!("expected cast of malloc, got {other:?}"),
                }
            }
            other => panic!("expected assignment, got {other:?}"),
        }
    }

    #[test]
    fn parses_member_chain() {
        let p = parse_main("struct node *x; x->nxt->prv = x;");
        let f = p.function("main").unwrap();
        match &f.body[1] {
            Stmt::Expr(Expr::Assign(lhs, _, _)) => match &**lhs {
                Expr::Member(inner, f2, true, _) => {
                    assert_eq!(f2, "prv");
                    assert!(matches!(**inner, Expr::Member(_, ref f1, true, _) if f1 == "nxt"));
                }
                other => panic!("expected member chain, got {other:?}"),
            },
            other => panic!("expected assignment, got {other:?}"),
        }
    }

    #[test]
    fn while_with_null_test() {
        let p = parse_main("struct node *x; while (x != NULL) { x = x->nxt; }");
        let f = p.function("main").unwrap();
        assert!(matches!(f.body[1], Stmt::While(..)));
    }

    #[test]
    fn for_loop_with_increment() {
        let p = parse_main("int i; for (i = 0; i < 10; i++) { i = i; }");
        let f = p.function("main").unwrap();
        match &f.body[1] {
            Stmt::For(init, cond, step, _, _) => {
                assert!(init.is_some());
                assert!(cond.is_some());
                // i++ desugars into an assignment
                assert!(matches!(step, Some(Expr::Assign(..))));
            }
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn typedef_names_parse_as_types() {
        let src = r#"
            struct cell { int v; struct cell *nxt; };
            typedef struct cell cell_t;
            int main() { cell_t *p; p = NULL; return 0; }
        "#;
        let p = parse(src).unwrap();
        let f = p.function("main").unwrap();
        match &f.body[0] {
            Stmt::Decl(d) => {
                assert_eq!(
                    d.ty,
                    TypeExpr::Pointer(Box::new(TypeExpr::Named("cell_t".into())))
                );
            }
            other => panic!("expected decl, got {other:?}"),
        }
    }

    #[test]
    fn multiple_declarators_split() {
        let p = parse_main("struct node *a, *b; int i, j = 3;");
        let f = p.function("main").unwrap();
        // Two blocks (each multi-declarator decl) + return.
        assert_eq!(f.body.len(), 3);
        assert!(matches!(&f.body[0], Stmt::Block(v, _) if v.len() == 2));
        match &f.body[1] {
            Stmt::Block(v, _) => match &v[1] {
                Stmt::Decl(d) => {
                    assert_eq!(d.name, "j");
                    assert!(d.init.is_some());
                }
                other => panic!("expected decl, got {other:?}"),
            },
            other => panic!("expected block, got {other:?}"),
        }
    }

    #[test]
    fn compound_assign_desugars() {
        let p = parse_main("int i; i += 2;");
        let f = p.function("main").unwrap();
        match &f.body[1] {
            Stmt::Expr(Expr::Assign(_, rhs, _)) => {
                assert!(matches!(**rhs, Expr::Binary(BinOp::Add, _, _, _)));
            }
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn if_else_chain() {
        let p = parse_main("int i; if (i < 0) i = 0; else if (i > 9) i = 9; else i = 1;");
        let f = p.function("main").unwrap();
        match &f.body[1] {
            Stmt::If(_, _, Some(els), _) => assert!(matches!(**els, Stmt::If(..))),
            other => panic!("expected if/else, got {other:?}"),
        }
    }

    #[test]
    fn do_while_parses() {
        let p = parse_main("int i; do { i = i + 1; } while (i < 3);");
        let f = p.function("main").unwrap();
        assert!(matches!(f.body[1], Stmt::DoWhile(..)));
    }

    #[test]
    fn function_with_params() {
        let src = "int add(int a, int b) { return a + b; } int main() { return 0; }";
        let p = parse(src).unwrap();
        let f = p.function("add").unwrap();
        assert_eq!(f.params.len(), 2);
    }

    #[test]
    fn global_variables() {
        let src =
            "struct node { int v; }; struct node *Lbodies; int N = 8; int main() { return 0; }";
        let p = parse(src).unwrap();
        assert_eq!(p.globals.len(), 2);
        assert!(p.globals[0].ty.is_pointer());
        assert!(p.globals[1].init.is_some());
    }

    #[test]
    fn array_rejected() {
        let src = "int main() { int a[10]; return 0; }";
        assert!(parse(src).is_err());
    }

    #[test]
    fn array_struct_field_parses_with_size() {
        let src = "struct quad { struct quad *kids[4]; }; int main() { return 0; }";
        let p = parse(src).unwrap();
        let s = p.struct_def("quad").unwrap();
        assert_eq!(s.fields.len(), 1);
        match &s.fields[0].ty {
            TypeExpr::Array(elem, 4) => assert!(elem.is_pointer()),
            other => panic!("expected array field type, got {other:?}"),
        }
    }

    #[test]
    fn zero_sized_array_field_rejected() {
        let src = "struct quad { struct quad *kids[0]; }; int main() { return 0; }";
        assert!(parse(src).is_err());
    }

    #[test]
    fn constant_index_on_member_folds_into_composite_field() {
        let src = "struct quad { struct quad *kids[4]; }; \
                   int main() { struct quad *q; struct quad *c; c = q->kids[2]; return 0; }";
        let p = parse(src).unwrap();
        let f = p.function("main").unwrap();
        match &f.body[2] {
            Stmt::Expr(Expr::Assign(_, rhs, _)) => match &**rhs {
                Expr::Member(_, field, true, _) => assert_eq!(field, "kids[2]"),
                other => panic!("expected folded member, got {other:?}"),
            },
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn variable_index_rejected() {
        let src = "struct quad { struct quad *kids[4]; }; \
                   int main() { struct quad *q; int i; q = q->kids[i]; return 0; }";
        assert!(parse(src).is_err());
    }

    #[test]
    fn dot_on_arrow_member_folds_into_composite_field() {
        let src = "struct pt { double x; double y; }; \
                   struct site { struct pt pos; }; \
                   int main() { struct site *s; double d; d = s->pos.x; return 0; }";
        let p = parse(src).unwrap();
        let f = p.function("main").unwrap();
        match &f.body[2] {
            Stmt::Expr(Expr::Assign(_, rhs, _)) => match &**rhs {
                Expr::Member(_, field, true, _) => assert_eq!(field, "pos.x"),
                other => panic!("expected folded member, got {other:?}"),
            },
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn ternary_parses() {
        let p = parse_main("int i; i = (i < 3) ? 1 : 2;");
        let f = p.function("main").unwrap();
        match &f.body[1] {
            Stmt::Expr(Expr::Assign(_, rhs, _)) => {
                assert!(matches!(**rhs, Expr::Cond(..)));
            }
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn precedence_mul_over_add() {
        let p = parse_main("int i; i = 1 + 2 * 3;");
        let f = p.function("main").unwrap();
        match &f.body[1] {
            Stmt::Expr(Expr::Assign(_, rhs, _)) => match &**rhs {
                Expr::Binary(BinOp::Add, _, r, _) => {
                    assert!(matches!(**r, Expr::Binary(BinOp::Mul, _, _, _)));
                }
                other => panic!("expected add at top, got {other:?}"),
            },
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn calls_with_string_args() {
        let p = parse_main(r#"printf("%d\n", 3);"#);
        let f = p.function("main").unwrap();
        assert!(
            matches!(&f.body[0], Stmt::Expr(Expr::Call(n, args, _)) if n == "printf" && args.len() == 2)
        );
    }
}
