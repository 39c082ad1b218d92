//! Type table: typedef resolution, struct layouts, and the selector universe.
//!
//! The shape analysis works over **struct types** and their **selectors** —
//! the pointer-to-struct fields — exactly the `S` set of the paper's
//! `RSG = (N, P, S, PL, NL)` tuple. This module resolves the syntactic
//! [`TypeExpr`]s of the AST into compact semantic [`SemType`]s, assigns every
//! struct a [`StructId`] and every distinct pointer field name a [`SelectorId`]
//! (selectors are identified by name across structs, as in the paper where
//! `nxt`, `prv`, `child`, `body` are global selector names).

use crate::ast::{Program, TypeExpr};
use crate::diag::{Diagnostic, Span};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a struct type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StructId(pub u32);

/// Identifier of a selector (a pointer-to-struct field name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SelectorId(pub u32);

impl fmt::Display for StructId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for SelectorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A fully resolved semantic type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SemType {
    /// `void`
    Void,
    /// Any integer.
    Int,
    /// Any floating-point number.
    Double,
    /// A struct value (not a pointer).
    Struct(StructId),
    /// Pointer to a type.
    Pointer(Box<SemType>),
}

impl SemType {
    /// True for pointer types.
    pub fn is_pointer(&self) -> bool {
        matches!(self, SemType::Pointer(_))
    }

    /// If this is `struct T *`, return `T`'s id.
    pub fn pointee_struct(&self) -> Option<StructId> {
        match self {
            SemType::Pointer(inner) => match **inner {
                SemType::Struct(id) => Some(id),
                _ => None,
            },
            _ => None,
        }
    }
}

/// One resolved struct field.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldInfo {
    /// Field name.
    pub name: String,
    /// Resolved field type.
    pub ty: SemType,
    /// For pointer-to-struct fields: the selector id.
    pub selector: Option<SelectorId>,
}

/// A resolved struct type.
#[derive(Debug, Clone, PartialEq)]
pub struct StructInfo {
    /// Struct tag.
    pub name: String,
    /// Resolved fields, in declaration order.
    pub fields: Vec<FieldInfo>,
}

impl StructInfo {
    /// Look up a field by name.
    pub fn field(&self, name: &str) -> Option<&FieldInfo> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Iterate over this struct's selectors (pointer-to-struct fields).
    pub fn selectors(&self) -> impl Iterator<Item = SelectorId> + '_ {
        self.fields.iter().filter_map(|f| f.selector)
    }
}

/// The resolved type universe of a program.
#[derive(Debug, Clone, Default)]
pub struct TypeTable {
    structs: Vec<StructInfo>,
    struct_ids: BTreeMap<String, StructId>,
    selectors: Vec<String>,
    selector_ids: BTreeMap<String, SelectorId>,
    typedefs: BTreeMap<String, SemType>,
}

impl TypeTable {
    /// Build the table from a parsed program.
    ///
    /// Struct bodies may reference structs declared later (or themselves)
    /// through pointers, so ids are assigned in a first pass and bodies are
    /// resolved in a second.
    pub fn build(program: &Program) -> Result<TypeTable, Diagnostic> {
        let mut table = TypeTable::default();
        // Pass 1: assign struct ids.
        for s in &program.structs {
            if table.struct_ids.contains_key(&s.name) {
                return Err(Diagnostic::error(
                    s.span,
                    format!("duplicate struct `{}`", s.name),
                ));
            }
            let id = StructId(table.structs.len() as u32);
            table.struct_ids.insert(s.name.clone(), id);
            table.structs.push(StructInfo {
                name: s.name.clone(),
                fields: Vec::new(),
            });
        }
        // Typedefs are resolved in order (they may reference earlier typedefs
        // and any struct).
        for td in &program.typedefs {
            let ty = table.resolve(&td.ty, td.span)?;
            table.typedefs.insert(td.name.clone(), ty);
        }
        // Pass 2: resolve fields and assign selector ids. Array fields
        // expand into one field per element (`kids[0]` …) and
        // struct-by-value fields inline the embedded struct's already
        // resolved fields under composite names (`pos.x`), so downstream
        // layers only ever see scalar and pointer fields. Declaration
        // order doubles as the resolution order, which is exactly C's
        // complete-type requirement for by-value embedding.
        let mut resolved: Vec<bool> = vec![false; table.structs.len()];
        for s in &program.structs {
            let sid = table.struct_ids[&s.name];
            let mut fields = Vec::with_capacity(s.fields.len());
            for f in &s.fields {
                let (elem_ty, count) = match &f.ty {
                    TypeExpr::Array(elem, n) => (table.resolve(elem, f.span)?, Some(*n)),
                    other => (table.resolve(other, f.span)?, None),
                };
                if let SemType::Struct(inner) = elem_ty {
                    if count.is_some() {
                        return Err(Diagnostic::error(
                            f.span,
                            format!(
                                "field `{}`: arrays of struct values are not supported \
                                 (use an array of pointers)",
                                f.name
                            ),
                        ));
                    }
                    if !resolved[inner.0 as usize] {
                        return Err(Diagnostic::error(
                            f.span,
                            format!(
                                "field `{}` embeds `struct {}` by value before its \
                                 definition is complete",
                                f.name, table.structs[inner.0 as usize].name
                            ),
                        ));
                    }
                    // Inline the embedded struct's (already expanded) fields.
                    let inner_fields = table.structs[inner.0 as usize].fields.clone();
                    for g in inner_fields {
                        let name = format!("{}.{}", f.name, g.name);
                        let selector = if g.ty.pointee_struct().is_some() {
                            Some(table.intern_selector(&name))
                        } else {
                            None
                        };
                        fields.push(FieldInfo {
                            name,
                            ty: g.ty,
                            selector,
                        });
                    }
                    continue;
                }
                let names: Vec<String> = match count {
                    Some(n) => (0..n).map(|k| format!("{}[{k}]", f.name)).collect(),
                    None => vec![f.name.clone()],
                };
                for name in names {
                    let selector = if elem_ty.pointee_struct().is_some() {
                        Some(table.intern_selector(&name))
                    } else {
                        None
                    };
                    fields.push(FieldInfo {
                        name,
                        ty: elem_ty.clone(),
                        selector,
                    });
                }
            }
            table.structs[sid.0 as usize].fields = fields;
            resolved[sid.0 as usize] = true;
        }
        Ok(table)
    }

    fn intern_selector(&mut self, name: &str) -> SelectorId {
        if let Some(&id) = self.selector_ids.get(name) {
            return id;
        }
        let id = SelectorId(self.selectors.len() as u32);
        self.selectors.push(name.to_string());
        self.selector_ids.insert(name.to_string(), id);
        id
    }

    /// Resolve a syntactic type to a semantic one.
    pub fn resolve(&self, ty: &TypeExpr, span: Span) -> Result<SemType, Diagnostic> {
        Ok(match ty {
            TypeExpr::Void => SemType::Void,
            TypeExpr::Int => SemType::Int,
            TypeExpr::Double => SemType::Double,
            TypeExpr::Struct(name) => {
                let id = self
                    .struct_ids
                    .get(name)
                    .ok_or_else(|| Diagnostic::error(span, format!("unknown struct `{name}`")))?;
                SemType::Struct(*id)
            }
            TypeExpr::Named(name) => self
                .typedefs
                .get(name)
                .cloned()
                .ok_or_else(|| Diagnostic::error(span, format!("unknown type `{name}`")))?,
            TypeExpr::Pointer(inner) => SemType::Pointer(Box::new(self.resolve(inner, span)?)),
            TypeExpr::Array(_, _) => {
                return Err(Diagnostic::error(
                    span,
                    "array types are supported only as struct fields",
                ))
            }
        })
    }

    /// The id of a struct by tag.
    pub fn struct_id(&self, name: &str) -> Option<StructId> {
        self.struct_ids.get(name).copied()
    }

    /// Struct info by id.
    pub fn struct_info(&self, id: StructId) -> &StructInfo {
        &self.structs[id.0 as usize]
    }

    /// Number of struct types.
    pub fn num_structs(&self) -> usize {
        self.structs.len()
    }

    /// Number of distinct selectors in the program.
    pub fn num_selectors(&self) -> usize {
        self.selectors.len()
    }

    /// Selector id by field name.
    pub fn selector_id(&self, name: &str) -> Option<SelectorId> {
        self.selector_ids.get(name).copied()
    }

    /// Selector name by id.
    pub fn selector_name(&self, id: SelectorId) -> &str {
        &self.selectors[id.0 as usize]
    }

    /// All selectors declared by `sid` (pointer-to-struct fields), sorted.
    pub fn selectors_of(&self, sid: StructId) -> Vec<SelectorId> {
        let mut v: Vec<_> = self.struct_info(sid).selectors().collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// For struct `sid`, the struct its selector `sel` points to, if declared.
    pub fn selector_target(&self, sid: StructId, sel: SelectorId) -> Option<StructId> {
        self.struct_info(sid)
            .fields
            .iter()
            .find(|f| f.selector == Some(sel))
            .and_then(|f| f.ty.pointee_struct())
    }

    /// Iterate `(id, info)` over all structs.
    pub fn iter_structs(&self) -> impl Iterator<Item = (StructId, &StructInfo)> {
        self.structs
            .iter()
            .enumerate()
            .map(|(i, s)| (StructId(i as u32), s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn table(src: &str) -> TypeTable {
        let p = parse(src).unwrap();
        TypeTable::build(&p).unwrap()
    }

    #[test]
    fn self_referential_struct() {
        let t = table("struct node { int v; struct node *nxt; }; int main() { return 0; }");
        let id = t.struct_id("node").unwrap();
        let sel = t.selector_id("nxt").unwrap();
        assert_eq!(t.selector_target(id, sel), Some(id));
        assert_eq!(t.num_selectors(), 1);
    }

    #[test]
    fn forward_reference_between_structs() {
        let t = table(
            "struct a { struct b *to_b; }; struct b { struct a *to_a; };\n\
             int main() { return 0; }",
        );
        let a = t.struct_id("a").unwrap();
        let b = t.struct_id("b").unwrap();
        assert_eq!(
            t.selector_target(a, t.selector_id("to_b").unwrap()),
            Some(b)
        );
        assert_eq!(
            t.selector_target(b, t.selector_id("to_a").unwrap()),
            Some(a)
        );
    }

    #[test]
    fn selector_names_shared_across_structs() {
        let t = table(
            "struct x { struct x *nxt; }; struct y { struct y *nxt; };\n\
             int main() { return 0; }",
        );
        // One selector id `nxt`, used by both structs.
        assert_eq!(t.num_selectors(), 1);
        let sel = t.selector_id("nxt").unwrap();
        assert_eq!(
            t.selector_target(t.struct_id("x").unwrap(), sel),
            Some(t.struct_id("x").unwrap())
        );
        assert_eq!(
            t.selector_target(t.struct_id("y").unwrap(), sel),
            Some(t.struct_id("y").unwrap())
        );
    }

    #[test]
    fn scalar_fields_are_not_selectors() {
        let t = table(
            "struct node { int v; double w; struct node *nxt; };\n\
             int main() { return 0; }",
        );
        let info = t.struct_info(t.struct_id("node").unwrap());
        assert_eq!(info.fields.len(), 3);
        assert!(info.field("v").unwrap().selector.is_none());
        assert!(info.field("w").unwrap().selector.is_none());
        assert!(info.field("nxt").unwrap().selector.is_some());
    }

    #[test]
    fn typedef_resolution() {
        let t = table(
            "struct cell { struct cell *nxt; }; typedef struct cell *list;\n\
             int main() { return 0; }",
        );
        let resolved = t
            .resolve(&TypeExpr::Named("list".into()), Span::SYNTH)
            .unwrap();
        assert_eq!(resolved.pointee_struct(), t.struct_id("cell"));
    }

    #[test]
    fn duplicate_struct_rejected() {
        let p =
            parse("struct a { int v; }; struct a { int w; }; int main() { return 0; }").unwrap();
        assert!(TypeTable::build(&p).is_err());
    }

    #[test]
    fn struct_by_value_field_expands_into_composite_scalars() {
        let t = table(
            "struct pt { double x; double y; }; \
             struct site { struct pt pos; struct site *nxt; }; \
             int main() { return 0; }",
        );
        let sid = t.struct_id("site").unwrap();
        let names: Vec<&str> = t
            .struct_info(sid)
            .fields
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(names, vec!["pos.x", "pos.y", "nxt"]);
        assert!(t
            .struct_info(sid)
            .field("pos.x")
            .unwrap()
            .selector
            .is_none());
        assert!(t.struct_info(sid).field("nxt").unwrap().selector.is_some());
    }

    #[test]
    fn struct_by_value_embedding_inlines_pointer_fields_with_fresh_selectors() {
        let t = table(
            "struct link { struct link *ptr; }; \
             struct node { struct link fwd; struct link bwd; }; \
             int main() { return 0; }",
        );
        let sid = t.struct_id("node").unwrap();
        let f = t.struct_info(sid).field("fwd.ptr").unwrap();
        let b = t.struct_info(sid).field("bwd.ptr").unwrap();
        assert!(f.selector.is_some() && b.selector.is_some());
        assert_ne!(f.selector, b.selector);
    }

    #[test]
    fn struct_by_value_forward_embed_rejected() {
        let p =
            parse("struct b { struct a inner; }; struct a { int v; }; int main() { return 0; }")
                .unwrap();
        assert!(TypeTable::build(&p).is_err());
    }

    #[test]
    fn array_field_expands_into_element_fields() {
        let t = table("struct quad { struct quad *kids[4]; int tag; }; int main() { return 0; }");
        let sid = t.struct_id("quad").unwrap();
        let info = t.struct_info(sid);
        let names: Vec<&str> = info.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["kids[0]", "kids[1]", "kids[2]", "kids[3]", "tag"]
        );
        for k in 0..4 {
            let f = info.field(&format!("kids[{k}]")).unwrap();
            assert!(
                f.selector.is_some(),
                "kids[{k}] should be a pointer selector"
            );
        }
        assert!(info.field("tag").unwrap().selector.is_none());
    }

    #[test]
    fn array_of_struct_values_rejected() {
        let p =
            parse("struct a { int v; }; struct b { struct a inner[3]; }; int main() { return 0; }")
                .unwrap();
        assert!(TypeTable::build(&p).is_err());
    }

    #[test]
    fn unknown_struct_in_field_rejected() {
        let p = parse("struct a { struct nope *p; }; int main() { return 0; }").unwrap();
        assert!(TypeTable::build(&p).is_err());
    }

    #[test]
    fn double_pointer_resolves() {
        let t = table("struct n { struct n *nxt; }; int main() { return 0; }");
        let ty = t
            .resolve(&TypeExpr::Struct("n".into()).pointer_to(2), Span::SYNTH)
            .unwrap();
        assert!(ty.is_pointer());
        assert_eq!(ty.pointee_struct(), None); // pointer to pointer, not to struct
    }
}
