//! Analysis context (type/selector/pvar universe) and the progressive
//! compilation levels.

use crate::intern::SharedTables;
use crate::sets::SelSet;
use psa_cfront::types::{SelectorId, StructId};
use psa_ir::FuncIr;
use std::sync::Arc;

/// The three progressive compilation levels of §5.
///
/// * `L1` — TOUCH sets are neither built nor compared; node SPATH
///   compatibility uses `C_SPATH0` (equal zero-length simple paths).
/// * `L2` — like `L1` but with `C_SPATH1` (one-length simple paths must also
///   be compatible).
/// * `L3` — all properties, including TOUCH.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Level {
    /// Fewest constraints, cheapest summarization.
    L1,
    /// Adds `C_SPATH1`.
    L2,
    /// Adds TOUCH.
    L3,
}

impl Level {
    /// Whether TOUCH sets are built and compared at this level.
    pub fn use_touch(self) -> bool {
        self == Level::L3
    }

    /// Whether `C_SPATH1` (rather than `C_SPATH0`) is used.
    pub fn use_spath1(self) -> bool {
        self != Level::L1
    }

    /// All levels in ascending order.
    pub const ALL: [Level; 3] = [Level::L1, Level::L2, Level::L3];

    /// The next, more precise level, if any.
    pub fn next(self) -> Option<Level> {
        match self {
            Level::L1 => Some(Level::L2),
            Level::L2 => Some(Level::L3),
            Level::L3 => None,
        }
    }
}

/// Parses `L1`/`L2`/`L3` (or lower-case `l1`…) — the one spelling the CLI,
/// the serve protocol and `examples/fuzz_farm.rs` accept.
impl std::str::FromStr for Level {
    type Err = String;

    fn from_str(s: &str) -> Result<Level, String> {
        match s {
            "L1" | "l1" => Ok(Level::L1),
            "L2" | "l2" => Ok(Level::L2),
            "L3" | "l3" => Ok(Level::L3),
            other => Err(format!("unknown level `{other}`")),
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Level::L1 => write!(f, "L1"),
            Level::L2 => write!(f, "L2"),
            Level::L3 => write!(f, "L3"),
        }
    }
}

/// The static universe an RSG lives in: how many pvars and selectors exist,
/// which selectors each struct declares, and what they point to. Shared by
/// every graph of an analysis; also carries names for rendering.
#[derive(Debug, Clone)]
pub struct ShapeCtx {
    /// Number of pointer variables (including temporaries).
    pub num_pvars: usize,
    /// Number of distinct selector names.
    pub num_selectors: usize,
    /// Number of struct types.
    pub num_structs: usize,
    /// Per struct: the selectors it declares.
    pub selectors_of: Vec<SelSet>,
    /// Per struct, per selector: the pointed-to struct (None when the struct
    /// does not declare the selector).
    pub sel_target: Vec<Vec<Option<StructId>>>,
    /// Pvar names, for rendering.
    pub pvar_names: Vec<String>,
    /// Which pvars are compiler temporaries.
    pub pvar_is_temp: Vec<bool>,
    /// Selector names, for rendering.
    pub selector_names: Vec<String>,
    /// Struct names, for rendering.
    pub struct_names: Vec<String>,
    /// Run-wide hash-consing, subsumption-memo and metrics tables
    /// (see [`crate::intern`]). Cloning a `ShapeCtx` shares the tables,
    /// which is how the progressive L1→L2→L3 driver and nested
    /// call-summary engines reuse one interner.
    pub tables: Arc<SharedTables>,
}

impl ShapeCtx {
    /// Build the context from a lowered function.
    ///
    /// # Panics
    /// If the program declares more than 64 distinct selectors (the `SelSet`
    /// representation limit).
    pub fn from_ir(ir: &FuncIr) -> ShapeCtx {
        let num_selectors = ir.types.num_selectors();
        assert!(
            num_selectors <= 64,
            "at most 64 distinct selector names are supported (got {num_selectors})"
        );
        let num_structs = ir.types.num_structs();
        let mut selectors_of = Vec::with_capacity(num_structs);
        let mut sel_target = Vec::with_capacity(num_structs);
        let mut struct_names = Vec::with_capacity(num_structs);
        for (sid, info) in ir.types.iter_structs() {
            let sels: SelSet = ir.types.selectors_of(sid).into_iter().collect();
            selectors_of.push(sels);
            let mut row = vec![None; num_selectors];
            for sel in ir.types.selectors_of(sid) {
                row[sel.0 as usize] = ir.types.selector_target(sid, sel);
            }
            sel_target.push(row);
            struct_names.push(info.name.clone());
        }
        ShapeCtx {
            num_pvars: ir.num_pvars(),
            num_selectors,
            num_structs,
            selectors_of,
            sel_target,
            pvar_names: ir.pvars.iter().map(|p| p.name.clone()).collect(),
            pvar_is_temp: ir.pvars.iter().map(|p| p.is_temp).collect(),
            selector_names: (0..num_selectors)
                .map(|i| ir.types.selector_name(SelectorId(i as u32)).to_string())
                .collect(),
            struct_names,
            tables: Arc::new(SharedTables::new()),
        }
    }

    /// A synthetic context for unit tests and the builder: `num_pvars`
    /// pvars named `p0..`, one struct `node` declaring `num_selectors`
    /// self-referential selectors `s0..`.
    pub fn synthetic(num_pvars: usize, num_selectors: usize) -> ShapeCtx {
        assert!(num_selectors <= 64);
        let all: SelSet = (0..num_selectors as u32).map(SelectorId).collect();
        ShapeCtx {
            num_pvars,
            num_selectors,
            num_structs: 1,
            selectors_of: vec![all],
            sel_target: vec![vec![Some(StructId(0)); num_selectors]],
            pvar_names: (0..num_pvars).map(|i| format!("p{i}")).collect(),
            pvar_is_temp: vec![false; num_pvars],
            selector_names: (0..num_selectors).map(|i| format!("s{i}")).collect(),
            struct_names: vec!["node".to_string()],
            tables: Arc::new(SharedTables::new()),
        }
    }

    /// Replace the shared tables (e.g. to disable the subsumption cache
    /// for a differential run). Does not affect other clones made earlier.
    pub fn with_tables(mut self, tables: Arc<SharedTables>) -> ShapeCtx {
        self.tables = tables;
        self
    }

    /// A deterministic 64-bit digest of the analysis universe: pvar,
    /// selector and struct counts, the per-struct selector/target tables,
    /// and every name. Two `ShapeCtx`s with equal keys give every graph
    /// operation identical semantics (transfer warnings embed pvar names,
    /// so names are part of the key), which is what lets the engine's
    /// transfer-memo epoch be derived from the universe instead of the
    /// whole function body — the basis of memo reuse across functions and
    /// across daemon requests.
    pub fn universe_key(&self) -> u64 {
        let repr = format!(
            "{}|{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
            self.num_pvars,
            self.num_selectors,
            self.num_structs,
            self.selectors_of,
            self.sel_target,
            self.pvar_names,
            self.pvar_is_temp,
            self.selector_names,
            self.struct_names,
        );
        psa_ir::fnv1a(repr.as_bytes())
    }

    /// The selectors declared by struct `t`.
    pub fn struct_selectors(&self, t: StructId) -> SelSet {
        self.selectors_of[t.0 as usize]
    }

    /// The struct pointed to by `t.sel`, if `t` declares `sel`.
    pub fn target_of(&self, t: StructId, sel: SelectorId) -> Option<StructId> {
        self.sel_target[t.0 as usize][sel.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_ordering_and_flags() {
        assert!(Level::L1 < Level::L2 && Level::L2 < Level::L3);
        assert!(!Level::L1.use_spath1());
        assert!(Level::L2.use_spath1());
        assert!(Level::L3.use_spath1());
        assert!(!Level::L2.use_touch());
        assert!(Level::L3.use_touch());
        assert_eq!(Level::L1.next(), Some(Level::L2));
        assert_eq!(Level::L3.next(), None);
        for l in Level::ALL {
            assert_eq!(l.to_string().parse(), Ok(l));
            assert_eq!(l.to_string().to_lowercase().parse(), Ok(l));
        }
        assert_eq!(
            "auto".parse::<Level>(),
            Err("unknown level `auto`".to_string())
        );
    }

    #[test]
    fn synthetic_ctx_shape() {
        let ctx = ShapeCtx::synthetic(3, 2);
        assert_eq!(ctx.num_pvars, 3);
        assert_eq!(ctx.struct_selectors(StructId(0)).len(), 2);
        assert_eq!(ctx.target_of(StructId(0), SelectorId(1)), Some(StructId(0)));
    }

    #[test]
    fn from_ir_builds_universe() {
        let src = r#"
            struct a { struct b *down; };
            struct b { struct b *nxt; };
            int main() {
                struct a *x;
                struct b *y;
                x = NULL; y = NULL;
                return 0;
            }
        "#;
        let (p, t) = psa_cfront::parse_and_type(src).unwrap();
        let ir = psa_ir::lower_program(&p, &t, "main").unwrap();
        let ctx = ShapeCtx::from_ir(&ir);
        assert_eq!(ctx.num_structs, 2);
        assert_eq!(ctx.num_selectors, 2);
        let a = t.struct_id("a").unwrap();
        let b = t.struct_id("b").unwrap();
        let down = t.selector_id("down").unwrap();
        let nxt = t.selector_id("nxt").unwrap();
        assert_eq!(ctx.target_of(a, down), Some(b));
        assert_eq!(ctx.target_of(b, nxt), Some(b));
        assert_eq!(ctx.target_of(a, nxt), None);
    }
}
