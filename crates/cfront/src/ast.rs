//! Abstract syntax tree for the C subset.

use crate::diag::Span;
use std::fmt;

/// A syntactic type expression (before typedef resolution).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TypeExpr {
    /// `void`
    Void,
    /// Any integer flavour (`int`, `long`, `short`, `char`, signed/unsigned).
    Int,
    /// `double` or `float`.
    Double,
    /// `struct name`
    Struct(String),
    /// A typedef name, resolved by the type table.
    Named(String),
    /// `T *`
    Pointer(Box<TypeExpr>),
    /// `T name[N]` — fixed-size array, allowed only as a struct field,
    /// where the type table expands it into `N` element fields
    /// (`name[0]` … `name[N-1]`).
    Array(Box<TypeExpr>, u32),
}

impl TypeExpr {
    /// Wrap this type in `depth` levels of pointer.
    pub fn pointer_to(self, depth: usize) -> TypeExpr {
        let mut t = self;
        for _ in 0..depth {
            t = TypeExpr::Pointer(Box::new(t));
        }
        t
    }

    /// True if this is syntactically a pointer type.
    pub fn is_pointer(&self) -> bool {
        matches!(self, TypeExpr::Pointer(_))
    }
}

impl fmt::Display for TypeExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeExpr::Void => write!(f, "void"),
            TypeExpr::Int => write!(f, "int"),
            TypeExpr::Double => write!(f, "double"),
            TypeExpr::Struct(n) => write!(f, "struct {n}"),
            TypeExpr::Named(n) => write!(f, "{n}"),
            TypeExpr::Pointer(t) => write!(f, "{t} *"),
            TypeExpr::Array(t, n) => write!(f, "{t}[{n}]"),
        }
    }
}

/// One field of a struct declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: TypeExpr,
    /// Source location.
    pub span: Span,
}

/// A `struct` definition.
#[derive(Debug, Clone, PartialEq)]
pub struct StructDef {
    /// Struct tag.
    pub name: String,
    /// Declared fields, in order.
    pub fields: Vec<Field>,
    /// Source location of the definition.
    pub span: Span,
}

/// A `typedef existing new;` alias.
#[derive(Debug, Clone, PartialEq)]
pub struct TypedefDef {
    /// The new name.
    pub name: String,
    /// The aliased type.
    pub ty: TypeExpr,
    /// Source location.
    pub span: Span,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    Ne,
    Lt,
    Gt,
    Le,
    Ge,
    And,
    Or,
}

impl BinOp {
    /// True for the comparison operators (result is a C boolean).
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// `-e`
    Neg,
    /// `!e`
    Not,
    /// `*e` (pointer dereference)
    Deref,
    /// `&e` (address-of)
    AddrOf,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    IntLit(i64, Span),
    /// Float literal.
    FloatLit(f64, Span),
    /// String literal (only usable as a call argument, e.g. `printf`).
    StrLit(String, Span),
    /// `NULL` (also produced for the literal `0` in pointer contexts during
    /// normalization, not in the parser).
    Null(Span),
    /// A variable reference.
    Ident(String, Span),
    /// Unary operation.
    Unary(UnOp, Box<Expr>, Span),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>, Span),
    /// Assignment `lhs = rhs` (or compound `lhs op= rhs`, desugared by the
    /// parser into `lhs = lhs op rhs`). Value-producing in C; the subset only
    /// allows it in statement and `for`-clause positions.
    Assign(Box<Expr>, Box<Expr>, Span),
    /// Member access `e.field` (`arrow == false`) or `e->field` (`true`).
    Member(Box<Expr>, String, bool, Span),
    /// Function call.
    Call(String, Vec<Expr>, Span),
    /// Cast `(T) e`.
    Cast(TypeExpr, Box<Expr>, Span),
    /// `sizeof(T)`.
    SizeOf(TypeExpr, Span),
    /// Conditional expression `c ? a : b`.
    Cond(Box<Expr>, Box<Expr>, Box<Expr>, Span),
}

impl Expr {
    /// The source span of this expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::IntLit(_, s)
            | Expr::FloatLit(_, s)
            | Expr::StrLit(_, s)
            | Expr::Null(s)
            | Expr::Ident(_, s)
            | Expr::Unary(_, _, s)
            | Expr::Binary(_, _, _, s)
            | Expr::Assign(_, _, s)
            | Expr::Member(_, _, _, s)
            | Expr::Call(_, _, s)
            | Expr::Cast(_, _, s)
            | Expr::SizeOf(_, s)
            | Expr::Cond(_, _, _, s) => *s,
        }
    }

    /// True if the expression is the integer literal zero (C's null pointer
    /// constant in pointer contexts).
    pub fn is_zero(&self) -> bool {
        matches!(self, Expr::IntLit(0, _))
    }
}

/// A local variable declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    /// Variable name.
    pub name: String,
    /// Declared type.
    pub ty: TypeExpr,
    /// Optional initializer.
    pub init: Option<Expr>,
    /// Source location.
    pub span: Span,
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Local declaration(s); one `Decl` per declarator.
    Decl(Decl),
    /// Expression statement.
    Expr(Expr),
    /// `if (cond) then else?`
    If(Expr, Box<Stmt>, Option<Box<Stmt>>, Span),
    /// `while (cond) body`
    While(Expr, Box<Stmt>, Span),
    /// `do body while (cond);`
    DoWhile(Box<Stmt>, Expr, Span),
    /// `for (init; cond; step) body` — any clause may be absent.
    For(
        Option<Box<Stmt>>,
        Option<Expr>,
        Option<Expr>,
        Box<Stmt>,
        Span,
    ),
    /// `return e?;`
    Return(Option<Expr>, Span),
    /// `break;`
    Break(Span),
    /// `continue;`
    Continue(Span),
    /// `switch (e) { case k: …; break; … default: …; }` — the subset
    /// requires each non-final arm to end with `break` (no fallthrough);
    /// arms are `(Some(k), body)` or `(None, body)` for `default`.
    Switch(Expr, Vec<(Option<i64>, Vec<Stmt>)>, Span),
    /// `{ ... }`
    Block(Vec<Stmt>, Span),
    /// `;`
    Empty(Span),
}

impl Stmt {
    /// The source span of this statement.
    pub fn span(&self) -> Span {
        match self {
            Stmt::Decl(d) => d.span,
            Stmt::Expr(e) => e.span(),
            Stmt::Switch(_, _, s)
            | Stmt::If(_, _, _, s)
            | Stmt::While(_, _, s)
            | Stmt::DoWhile(_, _, s)
            | Stmt::For(_, _, _, _, s)
            | Stmt::Return(_, s)
            | Stmt::Break(s)
            | Stmt::Continue(s)
            | Stmt::Block(_, s)
            | Stmt::Empty(s) => *s,
        }
    }
}

/// A borrowed child of a statement: one of its expressions or one of its
/// nested statements.
#[derive(Debug, Clone, Copy)]
pub enum Node<'a> {
    Stmt(&'a Stmt),
    Expr(&'a Expr),
}

/// The mutable counterpart of [`Node`].
#[derive(Debug)]
pub enum NodeMut<'a> {
    Stmt(&'a mut Stmt),
    Expr(&'a mut Expr),
}

// The one list of each node kind's children, in source order. Match
// ergonomics bind the same arms by `&` or by `&mut` depending on the
// scrutinee, so the read-only and the mutable traversal share the list.
macro_rules! expr_children {
    ($e:expr, $f:ident) => {
        match $e {
            Expr::IntLit(..)
            | Expr::FloatLit(..)
            | Expr::StrLit(..)
            | Expr::Null(_)
            | Expr::Ident(..)
            | Expr::SizeOf(..) => {}
            Expr::Unary(_, x, _) | Expr::Member(x, _, _, _) | Expr::Cast(_, x, _) => $f(x),
            Expr::Binary(_, a, b, _) | Expr::Assign(a, b, _) => {
                $f(a);
                $f(b);
            }
            Expr::Call(_, args, _) => {
                for a in args {
                    $f(a);
                }
            }
            Expr::Cond(c, a, b, _) => {
                $f(c);
                $f(a);
                $f(b);
            }
        }
    };
}

macro_rules! stmt_children {
    ($s:expr, $f:ident, $node:ident) => {
        match $s {
            Stmt::Decl(Decl { init, .. }) | Stmt::Return(init, _) => {
                if let Some(e) = init {
                    $f($node::Expr(e));
                }
            }
            Stmt::Expr(e) => $f($node::Expr(e)),
            Stmt::If(c, t, e, _) => {
                $f($node::Expr(c));
                $f($node::Stmt(t));
                if let Some(e) = e {
                    $f($node::Stmt(e));
                }
            }
            Stmt::While(c, b, _) => {
                $f($node::Expr(c));
                $f($node::Stmt(b));
            }
            Stmt::DoWhile(b, c, _) => {
                $f($node::Stmt(b));
                $f($node::Expr(c));
            }
            Stmt::For(init, c, step, b, _) => {
                if let Some(i) = init {
                    $f($node::Stmt(i));
                }
                if let Some(c) = c {
                    $f($node::Expr(c));
                }
                if let Some(s) = step {
                    $f($node::Expr(s));
                }
                $f($node::Stmt(b));
            }
            Stmt::Switch(scrutinee, arms, _) => {
                $f($node::Expr(scrutinee));
                for (_, body) in arms {
                    for s in body {
                        $f($node::Stmt(s));
                    }
                }
            }
            Stmt::Block(body, _) => {
                for s in body {
                    $f($node::Stmt(s));
                }
            }
            Stmt::Break(_) | Stmt::Continue(_) | Stmt::Empty(_) => {}
        }
    };
}

impl Expr {
    /// Call `f` on each direct sub-expression, in source order.
    pub fn for_each_child(&self, mut f: impl FnMut(&Expr)) {
        expr_children!(self, f)
    }

    /// Call `f` on each direct sub-expression, mutably, in source order.
    pub fn for_each_child_mut(&mut self, mut f: impl FnMut(&mut Expr)) {
        expr_children!(self, f)
    }

    /// Call `f` on this expression and every expression nested in it,
    /// parents before children.
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        self.for_each_child(|c| c.walk(f));
    }

    /// Mutable [`Expr::walk`]: `f` sees a node before its (possibly
    /// rewritten) children.
    pub fn walk_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        f(self);
        self.for_each_child_mut(|c| c.walk_mut(f));
    }
}

impl Stmt {
    /// Call `f` on each direct child, in source order: the statement's own
    /// expressions (a declaration's initializer, conditions, all three
    /// `for` clauses, the `switch` scrutinee) and its nested statements
    /// (branches, loop bodies, block and `switch`-arm statements).
    pub fn for_each_child(&self, mut f: impl FnMut(Node<'_>)) {
        stmt_children!(self, f, Node)
    }

    /// Call `f` on each direct child, mutably, in source order.
    pub fn for_each_child_mut(&mut self, mut f: impl FnMut(NodeMut<'_>)) {
        stmt_children!(self, f, NodeMut)
    }

    /// Call `f` on this statement and on every statement and expression
    /// nested in it, parents before children.
    pub fn walk(&self, f: &mut impl FnMut(Node<'_>)) {
        f(Node::Stmt(self));
        self.for_each_child(|c| match c {
            Node::Stmt(s) => s.walk(f),
            Node::Expr(e) => e.walk(&mut |x| f(Node::Expr(x))),
        });
    }

    /// Mutable [`Stmt::walk`]: `f` sees a node before its (possibly
    /// rewritten) children.
    pub fn walk_mut(&mut self, f: &mut impl FnMut(NodeMut<'_>)) {
        f(NodeMut::Stmt(self));
        self.for_each_child_mut(|c| match c {
            NodeMut::Stmt(s) => s.walk_mut(f),
            NodeMut::Expr(e) => e.walk_mut(&mut |x| f(NodeMut::Expr(x))),
        });
    }
}

/// One function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Parameter type.
    pub ty: TypeExpr,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret: TypeExpr,
    /// Parameters.
    pub params: Vec<Param>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Source location of the header.
    pub span: Span,
}

/// A whole translation unit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// Struct definitions, in declaration order.
    pub structs: Vec<StructDef>,
    /// Typedefs, in declaration order.
    pub typedefs: Vec<TypedefDef>,
    /// Global variable declarations.
    pub globals: Vec<Decl>,
    /// Function definitions.
    pub functions: Vec<Function>,
    /// The well-formed `// @assert` comments of the source. Lowering reads
    /// the names they mention; a malformed assertion is left out here and
    /// reported wherever assertions are checked.
    pub asserts: Vec<crate::asserts::RawAssert>,
}

impl Program {
    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Find a struct definition by tag.
    pub fn struct_def(&self, name: &str) -> Option<&StructDef> {
        self.structs.iter().find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pointer_to_wraps() {
        let t = TypeExpr::Struct("node".into()).pointer_to(2);
        assert_eq!(
            t,
            TypeExpr::Pointer(Box::new(TypeExpr::Pointer(Box::new(TypeExpr::Struct(
                "node".into()
            )))))
        );
        assert!(t.is_pointer());
    }

    #[test]
    fn display_of_types() {
        assert_eq!(
            TypeExpr::Pointer(Box::new(TypeExpr::Struct("n".into()))).to_string(),
            "struct n *"
        );
    }

    #[test]
    fn comparison_classification() {
        assert!(BinOp::Eq.is_comparison());
        assert!(BinOp::Le.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(!BinOp::And.is_comparison());
    }

    #[test]
    fn zero_literal_detection() {
        assert!(Expr::IntLit(0, Span::SYNTH).is_zero());
        assert!(!Expr::IntLit(1, Span::SYNTH).is_zero());
        assert!(!Expr::FloatLit(0.0, Span::SYNTH).is_zero());
    }

    const NESTED: &str = r#"
        int main() {
            int i;
            int k;
            for (i = a(); i < b(); i = c()) {
                switch (k) {
                    case 1: { int v = d(k); } break;
                    default: if (e()) { return f(); } break;
                }
            }
            do { g(); } while (h(i ? j() : 0));
            return 0;
        }
    "#;

    #[test]
    fn walks_reach_for_clauses_switch_arms_and_nested_expressions() {
        let mut f = crate::parse(NESTED).unwrap().functions.remove(0);
        let (mut calls, mut returns) = (Vec::new(), 0);
        for s in &f.body {
            s.walk(&mut |n| match n {
                Node::Expr(Expr::Call(name, _, _)) => calls.push(name.clone()),
                Node::Stmt(Stmt::Return(..)) => returns += 1,
                _ => {}
            });
        }
        assert_eq!(calls, ["a", "b", "c", "d", "e", "f", "g", "h", "j"]);
        assert_eq!(returns, 2);

        for s in &mut f.body {
            s.walk_mut(&mut |n| match n {
                NodeMut::Stmt(Stmt::Decl(Decl { name, .. }))
                | NodeMut::Expr(Expr::Ident(name, _)) => name.insert(0, '_'),
                _ => {}
            });
        }
        let mut names = Vec::new();
        for s in &f.body {
            s.walk(&mut |n| match n {
                Node::Stmt(Stmt::Decl(Decl { name, .. })) | Node::Expr(Expr::Ident(name, _)) => {
                    names.push(name.clone())
                }
                _ => {}
            });
        }
        assert_eq!(
            names,
            ["_i", "_k", "_i", "_i", "_i", "_k", "_v", "_k", "_i"]
        );
    }
}
