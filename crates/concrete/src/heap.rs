//! The concrete heap: typed objects with selector fields, plus the pvar
//! frame.

use psa_cfront::types::{SelectorId, StructId};
use psa_ir::PvarId;
use std::collections::{BTreeMap, BTreeSet};

/// A concrete heap location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Loc(pub u32);

impl std::fmt::Display for Loc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// One allocated object.
#[derive(Debug, Clone, PartialEq)]
pub struct Object {
    /// Its struct type.
    pub ty: StructId,
    /// Pointer fields (absent/None = NULL). Only selectors the struct
    /// declares ever appear.
    pub fields: BTreeMap<SelectorId, Option<Loc>>,
}

/// A full concrete state: heap + pvar frame (+ concrete TOUCH marks kept by
/// the interpreter for L3 validation).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConcreteState {
    objects: BTreeMap<Loc, Object>,
    pvars: BTreeMap<PvarId, Loc>,
    /// Concrete TOUCH: which induction pvars have visited each location
    /// (maintained by the interpreter, cleared on loop exits).
    pub touch: BTreeMap<Loc, Vec<PvarId>>,
    /// Values of the tracked scalar (int) variables. Reading an unassigned
    /// variable materializes a "garbage" value chosen by the interpreter,
    /// which then persists (C's uninitialized reads, made consistent).
    pub ints: BTreeMap<psa_ir::ScalarId, i64>,
    /// Freed cells. Freed objects stay in `objects` (locations are never
    /// reused, so the abstraction function and coverage check are
    /// unaffected); this set is what makes use-after-free and double-free
    /// concretely observable.
    freed: BTreeSet<Loc>,
    next: u32,
}

impl ConcreteState {
    /// Fresh empty state.
    pub fn new() -> ConcreteState {
        ConcreteState::default()
    }

    /// Allocate an object of struct `ty` with all pointer fields NULL.
    pub fn alloc(&mut self, ty: StructId) -> Loc {
        let l = Loc(self.next);
        self.next += 1;
        self.objects.insert(
            l,
            Object {
                ty,
                fields: BTreeMap::new(),
            },
        );
        l
    }

    /// The object at `l`.
    ///
    /// # Panics
    /// On dangling locations.
    pub fn object(&self, l: Loc) -> &Object {
        self.objects.get(&l).expect("dangling location")
    }

    /// Read pointer field `l.sel`.
    pub fn load(&self, l: Loc, sel: SelectorId) -> Option<Loc> {
        self.object(l).fields.get(&sel).copied().flatten()
    }

    /// Write pointer field `l.sel = v`.
    pub fn store(&mut self, l: Loc, sel: SelectorId, v: Option<Loc>) {
        self.objects
            .get_mut(&l)
            .expect("dangling location")
            .fields
            .insert(sel, v);
    }

    /// Read a pvar (None = NULL / uninitialized).
    pub fn pvar(&self, p: PvarId) -> Option<Loc> {
        self.pvars.get(&p).copied()
    }

    /// Bind a pvar.
    pub fn set_pvar(&mut self, p: PvarId, v: Option<Loc>) {
        match v {
            Some(l) => {
                self.pvars.insert(p, l);
            }
            None => {
                self.pvars.remove(&p);
            }
        }
    }

    /// Iterate pvar bindings.
    pub fn pvars(&self) -> impl Iterator<Item = (PvarId, Loc)> + '_ {
        self.pvars.iter().map(|(&p, &l)| (p, l))
    }

    /// Iterate all allocated locations.
    pub fn locs(&self) -> impl Iterator<Item = Loc> + '_ {
        self.objects.keys().copied()
    }

    /// Locations reachable from the pvar frame (the part α abstracts).
    pub fn reachable(&self) -> Vec<Loc> {
        let mut seen: Vec<Loc> = Vec::new();
        let mut stack: Vec<Loc> = self.pvars.values().copied().collect();
        while let Some(l) = stack.pop() {
            if seen.contains(&l) {
                continue;
            }
            seen.push(l);
            for v in self.object(l).fields.values().flatten() {
                stack.push(*v);
            }
        }
        seen.sort_unstable();
        seen.dedup();
        seen
    }

    /// In-references of `l` **among reachable locations**: `(source, sel)`.
    pub fn in_refs(&self, l: Loc, reachable: &[Loc]) -> Vec<(Loc, SelectorId)> {
        let mut out = Vec::new();
        for &src in reachable {
            for (&sel, &v) in &self.object(src).fields {
                if v == Some(l) {
                    out.push((src, sel));
                }
            }
        }
        out
    }

    /// Free the object at `l`. Returns `false` when `l` was already freed
    /// (a double free) — the caller decides how to fault. The object is
    /// retained in `objects` so locations are never reused and α still sees
    /// the cell.
    pub fn free(&mut self, l: Loc) -> bool {
        debug_assert!(self.objects.contains_key(&l), "freeing unallocated {l}");
        self.freed.insert(l)
    }

    /// Has `l` been freed?
    pub fn is_freed(&self, l: Loc) -> bool {
        self.freed.contains(&l)
    }

    /// Locations that are leaked *right now*: allocated, never freed, and
    /// unreachable from the pvar frame. Locations are never reused and the
    /// frame is the only root, so once unreachable a cell stays leaked —
    /// this is the concrete oracle for the abstract leak verdicts.
    pub fn leaked(&self) -> Vec<Loc> {
        let reachable = self.reachable();
        self.objects
            .keys()
            .copied()
            .filter(|l| !self.freed.contains(l) && reachable.binary_search(l).is_err())
            .collect()
    }

    /// Record a concrete TOUCH visit.
    pub fn touch(&mut self, l: Loc, p: PvarId) {
        let t = self.touch.entry(l).or_default();
        if !t.contains(&p) {
            t.push(p);
            t.sort_unstable();
        }
    }

    /// Clear TOUCH marks of `ipvars` everywhere (loop exit).
    pub fn clear_touch(&mut self, ipvars: &[PvarId]) {
        for t in self.touch.values_mut() {
            t.retain(|p| !ipvars.contains(p));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(i: u32) -> SelectorId {
        SelectorId(i)
    }

    #[test]
    fn alloc_load_store() {
        let mut st = ConcreteState::new();
        let a = st.alloc(StructId(0));
        let b = st.alloc(StructId(0));
        assert_eq!(st.load(a, sel(0)), None, "fresh fields are NULL");
        st.store(a, sel(0), Some(b));
        assert_eq!(st.load(a, sel(0)), Some(b));
        st.store(a, sel(0), None);
        assert_eq!(st.load(a, sel(0)), None);
    }

    #[test]
    fn pvar_frame() {
        let mut st = ConcreteState::new();
        let a = st.alloc(StructId(0));
        st.set_pvar(PvarId(0), Some(a));
        assert_eq!(st.pvar(PvarId(0)), Some(a));
        st.set_pvar(PvarId(0), None);
        assert_eq!(st.pvar(PvarId(0)), None);
    }

    #[test]
    fn reachability_and_in_refs() {
        let mut st = ConcreteState::new();
        let a = st.alloc(StructId(0));
        let b = st.alloc(StructId(0));
        let garbage = st.alloc(StructId(0));
        st.set_pvar(PvarId(0), Some(a));
        st.store(a, sel(0), Some(b));
        st.store(garbage, sel(0), Some(b));
        let r = st.reachable();
        assert_eq!(r, vec![a, b]);
        // garbage's ref into b is not counted among reachable refs.
        assert_eq!(st.in_refs(b, &r), vec![(a, sel(0))]);
    }

    #[test]
    fn touch_marks() {
        let mut st = ConcreteState::new();
        let a = st.alloc(StructId(0));
        st.touch(a, PvarId(1));
        st.touch(a, PvarId(1));
        assert_eq!(st.touch[&a], vec![PvarId(1)]);
        st.clear_touch(&[PvarId(1)]);
        assert!(st.touch[&a].is_empty());
    }
}
