//! Data model of a lowered function: pvars, statements, blocks, loops.

use psa_cfront::diag::Span;
use psa_cfront::types::{SelectorId, StructId, TypeTable};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a pointer variable (program pvar or compiler temporary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PvarId(pub u32);

/// Identifier of a basic block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// Identifier of a statement (global within a function).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StmtId(pub u32);

/// Identifier of a loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LoopId(pub u32);

/// Identifier of a tracked scalar (int) variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ScalarId(pub u32);

impl fmt::Display for ScalarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sc{}", self.0)
    }
}

impl fmt::Display for PvarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

impl fmt::Display for StmtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "st{}", self.0)
    }
}

impl fmt::Display for LoopId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Metadata of one pointer variable.
#[derive(Debug, Clone, PartialEq)]
pub struct PvarInfo {
    /// Source name, or `@tN` for temporaries.
    pub name: String,
    /// The struct this pvar points to.
    pub pointee: StructId,
    /// True for compiler-introduced temporaries.
    pub is_temp: bool,
}

/// The six simple pointer statements of §2 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PtrStmt {
    /// `x = NULL`
    Nil(PvarId),
    /// `x = malloc(sizeof(struct T))`
    Malloc(PvarId, StructId),
    /// `x = y`
    Copy(PvarId, PvarId),
    /// `x->sel = NULL`
    StoreNil(PvarId, SelectorId),
    /// `x->sel = y`
    Store(PvarId, SelectorId, PvarId),
    /// `x = y->sel`
    Load(PvarId, PvarId, SelectorId),
}

impl PtrStmt {
    /// The pvar whose binding this statement (re)defines, if any.
    pub fn def(&self) -> Option<PvarId> {
        match *self {
            PtrStmt::Nil(x)
            | PtrStmt::Malloc(x, _)
            | PtrStmt::Copy(x, _)
            | PtrStmt::Load(x, _, _) => Some(x),
            PtrStmt::StoreNil(_, _) | PtrStmt::Store(_, _, _) => None,
        }
    }

    /// Pvars read by this statement.
    pub fn uses(&self) -> Vec<PvarId> {
        match *self {
            PtrStmt::Nil(_) | PtrStmt::Malloc(_, _) => vec![],
            PtrStmt::Copy(_, y) | PtrStmt::Load(_, y, _) => vec![y],
            PtrStmt::StoreNil(x, _) => vec![x],
            PtrStmt::Store(x, _, y) => vec![x, y],
        }
    }
}

/// A pointer-valued actual argument of a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallArg {
    /// The argument is the value of a pvar at the call site.
    Pvar(PvarId),
    /// The argument is the NULL literal.
    Null,
}

/// A scalar actual argument. The abstract transfer ignores scalar values
/// (callee scalar formals start unknown, which keeps summary entries
/// convergent); the concrete interpreter evaluates `Const`/`Var`
/// truthfully and materializes seeded garbage for `Opaque`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallScalarArg {
    /// An integer literal.
    Const(i64),
    /// The value of a tracked scalar variable.
    Var(ScalarId),
    /// Anything else (arithmetic, untracked variables).
    Opaque,
}

/// A call to a defined function that survived inlining (i.e. a recursive
/// one), analyzed via entry/exit summaries. `callee` indexes the **root**
/// function's [`FuncIr::callees`] table — callee bodies reference the same
/// table, so indices stay meaningful across nesting.
#[derive(Debug, Clone, PartialEq)]
pub struct CallStmt {
    /// Index into the root [`FuncIr::callees`].
    pub callee: u32,
    /// Pointer-to-struct actuals, in callee parameter order.
    pub ptr_args: Vec<CallArg>,
    /// Scalar actuals, in callee parameter order.
    pub scalar_args: Vec<CallScalarArg>,
    /// Destination pvar for a pointer-returning call.
    pub ret_ptr: Option<PvarId>,
    /// Destination tracked scalar for an int-returning call.
    pub ret_scalar: Option<ScalarId>,
}

/// A lowered callee: the body of a recursive function sharing the root
/// function's pvar/scalar universe, plus the metadata the interprocedural
/// transfer needs (formals, the never-assigned anchor pvars that pin
/// argument targets through the callee analysis, and the return slots).
#[derive(Debug, Clone)]
pub struct CalleeFunc {
    /// Source name.
    pub name: String,
    /// The lowered body. Shares the root's full pvar/scalar tables; its
    /// own `callees` list is empty (call indices refer to the root table).
    pub ir: FuncIr,
    /// Pointer-to-struct formals, in parameter order.
    pub params_ptr: Vec<PvarId>,
    /// Tracked scalar formals, in parameter order.
    pub params_scalar: Vec<ScalarId>,
    /// One reserved, never-assigned pvar per pointer formal. Bound to the
    /// argument target in the localized entry graph, so the target cell
    /// stays identifiable (and gc-rooted) through the callee analysis and
    /// can be re-bound at glue time.
    pub anchors: Vec<PvarId>,
    /// Reserved, never-assigned cutpoint anchors. When the caller's frame
    /// references the passed region somewhere other than an argument
    /// target (a sibling cell materialized out of a shared summary, a
    /// local bound mid-structure), the localization pins that cell with
    /// one of these slots so the glue can find it in the exit graph. The
    /// supply is fixed; call sites needing more give up soundly.
    pub cut_anchors: Vec<PvarId>,
    /// Slot holding the returned pointer (`{name}.__ret`), if any.
    pub ret_ptr: Option<PvarId>,
    /// Slot holding the returned scalar, if any.
    pub ret_scalar: Option<ScalarId>,
    /// Every pvar owned by this function: formals, anchors, return slot,
    /// body locals and temps. The concrete interpreter saves/restores
    /// exactly these slots across call frames.
    pub owned_pvars: Vec<PvarId>,
    /// Every tracked scalar owned by this function.
    pub owned_scalars: Vec<ScalarId>,
    /// The body (or anything it can call) contains `free`.
    pub may_free: bool,
    /// Content hash of the body, part of the summary-cache key so
    /// identical bodies share summaries across lowerings.
    pub body_hash: u64,
}

/// One IR statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// A pointer statement, the analysis' bread and butter.
    Ptr(PtrStmt),
    /// A write to a **scalar** field through a pointer (`x->v = …`). No
    /// shape effect, but the parallelism client needs the written base pvar
    /// to reason about loop independence.
    ScalarStore(PvarId, String),
    /// `v = <integer literal>` for a tracked scalar variable — the flag
    /// assignments the analysis propagates (e.g. `done = 1`).
    ScalarConst(ScalarId, i64),
    /// Any other assignment to a tracked scalar variable: its value becomes
    /// unknown.
    ScalarHavoc(ScalarId, String),
    /// `free(x)` — deallocates the cell `x` points to. The *shape* transfer
    /// is the identity (the abstraction keeps covering the retained cell;
    /// NULL-ness of `x` is untouched), but the memory-safety client tracks
    /// the freed cell's provenance, and the concrete interpreter observes
    /// use-after-free / double-free through it. `free(NULL)` is a no-op,
    /// matching C.
    Free(PvarId),
    /// Anything with no shape effect and no heap write (scalar arithmetic,
    /// `printf`). Keeps a short description for traces.
    Scalar(String),
    /// A call to a recursive (non-inlinable) defined function, analyzed
    /// through the summary cache. See [`CallStmt`].
    Call(CallStmt),
}

/// A statement with its metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct StmtInfo {
    /// The statement itself.
    pub stmt: Stmt,
    /// Source location it was lowered from.
    pub span: Span,
    /// Stack of enclosing loops, outermost first.
    pub loops: Vec<LoopId>,
}

/// Leaf branch conditions after short-circuit lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// `x == NULL` — the *true* edge means `x` is NULL.
    PtrNull(PvarId),
    /// `x == y` — the *true* edge means both point to the same location
    /// (including both NULL).
    PtrEq(PvarId, PvarId),
    /// `v == <lit>` on a tracked scalar — refines when `v`'s constant value
    /// is known, and *learns* the constant on the true edge.
    ScalarEq(ScalarId, i64),
    /// An untracked scalar test: both edges are feasible, no refinement.
    Opaque,
}

/// Block terminators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Terminator {
    /// Unconditional jump.
    Goto(BlockId),
    /// Two-way branch on a leaf condition.
    Branch {
        /// The condition tested.
        cond: Cond,
        /// Successor when the condition holds.
        then_bb: BlockId,
        /// Successor when it does not.
        else_bb: BlockId,
    },
    /// Function return.
    Return,
}

impl Terminator {
    /// Successor blocks of this terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        match *self {
            Terminator::Goto(b) => vec![b],
            Terminator::Branch {
                then_bb, else_bb, ..
            } => {
                if then_bb == else_bb {
                    vec![then_bb]
                } else {
                    vec![then_bb, else_bb]
                }
            }
            Terminator::Return => vec![],
        }
    }
}

/// A basic block: a statement list plus a terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Statements executed in order.
    pub stmts: Vec<StmtId>,
    /// Control transfer at the end.
    pub term: Terminator,
}

/// Metadata of one loop.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopInfo {
    /// Enclosing loop, if nested.
    pub parent: Option<LoopId>,
    /// The block holding the loop's condition test (header).
    pub header: BlockId,
    /// Induction pointers, filled by [`crate::induction::detect`].
    pub ipvars: Vec<PvarId>,
    /// Nesting depth (0 = outermost).
    pub depth: u32,
    /// 1-based source line of the loop statement: its `for`, `while` or
    /// `do` keyword (in the callee's source for a loop the inliner copied).
    pub line: u32,
}

/// A fully lowered function, ready for symbolic execution.
#[derive(Debug, Clone)]
pub struct FuncIr {
    /// Function name.
    pub name: String,
    /// All pointer variables (program + temporaries).
    pub pvars: Vec<PvarInfo>,
    /// Names of tracked scalar (int) variables, indexed by [`ScalarId`].
    pub scalars: Vec<String>,
    /// All statements, indexed by [`StmtId`].
    pub stmts: Vec<StmtInfo>,
    /// All basic blocks, indexed by [`BlockId`].
    pub blocks: Vec<Block>,
    /// The entry block.
    pub entry: BlockId,
    /// All loops, indexed by [`LoopId`].
    pub loops: Vec<LoopInfo>,
    /// For each CFG edge that leaves one or more loops, the loops exited
    /// (innermost first). The engine clears those loops' ipvars from every
    /// TOUCH set when crossing the edge.
    pub exit_edges: BTreeMap<(BlockId, BlockId), Vec<LoopId>>,
    /// For each CFG edge that enters a loop from outside, the loops entered.
    /// The engine marks each entered loop's bound ipvars' targets as TOUCHED
    /// on this edge — the element the cursor starts on is the first
    /// iteration's "visited" location, which closes the revisit-detection
    /// hole at the traversal start.
    pub entry_edges: BTreeMap<(BlockId, BlockId), Vec<LoopId>>,
    /// The resolved type universe.
    pub types: TypeTable,
    /// Recursive callees reachable from this function, lowered over the
    /// same pvar/scalar universe. Non-empty only on the root function
    /// produced by [`crate::lower_program`]; [`CallStmt::callee`] indexes
    /// this table.
    pub callees: Vec<CalleeFunc>,
}

impl FuncIr {
    /// Number of pvars.
    pub fn num_pvars(&self) -> usize {
        self.pvars.len()
    }

    /// Pvar id by source name.
    pub fn pvar_id(&self, name: &str) -> Option<PvarId> {
        self.pvars
            .iter()
            .position(|p| p.name == name)
            .map(|i| PvarId(i as u32))
    }

    /// Pvar name by id.
    pub fn pvar_name(&self, id: PvarId) -> &str {
        &self.pvars[id.0 as usize].name
    }

    /// Tracked scalar name by id.
    pub fn scalar_name(&self, id: ScalarId) -> &str {
        &self.scalars[id.0 as usize]
    }

    /// Tracked scalar id by name.
    pub fn scalar_id(&self, name: &str) -> Option<ScalarId> {
        self.scalars
            .iter()
            .position(|s| s == name)
            .map(|i| ScalarId(i as u32))
    }

    /// Pvar metadata by id.
    pub fn pvar(&self, id: PvarId) -> &PvarInfo {
        &self.pvars[id.0 as usize]
    }

    /// Statement metadata by id.
    pub fn stmt(&self, id: StmtId) -> &StmtInfo {
        &self.stmts[id.0 as usize]
    }

    /// Block by id.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// Predecessor map, computed on demand.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (i, b) in self.blocks.iter().enumerate() {
            for s in b.term.successors() {
                preds[s.0 as usize].push(BlockId(i as u32));
            }
        }
        preds
    }

    /// Loops exited when control flows from `from` to `to` (empty if none).
    pub fn exited_loops(&self, from: BlockId, to: BlockId) -> &[LoopId] {
        self.exit_edges
            .get(&(from, to))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Loops entered when control flows from `from` to `to` (empty if none).
    pub fn entered_loops(&self, from: BlockId, to: BlockId) -> &[LoopId] {
        self.entry_edges
            .get(&(from, to))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// The union of ipvars of the loops in `loops` (deduplicated, sorted).
    pub fn active_ipvars(&self, loops: &[LoopId]) -> Vec<PvarId> {
        let mut v: Vec<PvarId> = loops
            .iter()
            .flat_map(|l| self.loops[l.0 as usize].ipvars.iter().copied())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Total number of pointer statements (for reporting).
    pub fn num_ptr_stmts(&self) -> usize {
        self.stmts
            .iter()
            .filter(|s| matches!(s.stmt, Stmt::Ptr(_)))
            .count()
    }

    /// Basic structural sanity checks; used by tests and debug builds.
    pub fn validate(&self) -> Result<(), String> {
        for (i, b) in self.blocks.iter().enumerate() {
            for s in b.term.successors() {
                if s.0 as usize >= self.blocks.len() {
                    return Err(format!("bb{i} has out-of-range successor {s}"));
                }
            }
            for &st in &b.stmts {
                if st.0 as usize >= self.stmts.len() {
                    return Err(format!("bb{i} references out-of-range {st}"));
                }
            }
        }
        if self.entry.0 as usize >= self.blocks.len() {
            return Err("entry block out of range".into());
        }
        for (li, l) in self.loops.iter().enumerate() {
            if l.header.0 as usize >= self.blocks.len() {
                return Err(format!("L{li} header out of range"));
            }
            if let Some(p) = l.parent {
                if p.0 as usize >= self.loops.len() {
                    return Err(format!("L{li} parent out of range"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ptr_stmt_def_use() {
        let x = PvarId(0);
        let y = PvarId(1);
        let s = SelectorId(0);
        assert_eq!(PtrStmt::Copy(x, y).def(), Some(x));
        assert_eq!(PtrStmt::Copy(x, y).uses(), vec![y]);
        assert_eq!(PtrStmt::Store(x, s, y).def(), None);
        assert_eq!(PtrStmt::Store(x, s, y).uses(), vec![x, y]);
        assert_eq!(PtrStmt::Nil(x).uses(), Vec::<PvarId>::new());
        assert_eq!(PtrStmt::Load(x, y, s).def(), Some(x));
    }

    use psa_cfront::types::SelectorId;

    #[test]
    fn terminator_successors() {
        let t = Terminator::Branch {
            cond: Cond::Opaque,
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(2)]);
        let same = Terminator::Branch {
            cond: Cond::Opaque,
            then_bb: BlockId(1),
            else_bb: BlockId(1),
        };
        assert_eq!(same.successors(), vec![BlockId(1)]);
        assert_eq!(Terminator::Return.successors(), Vec::<BlockId>::new());
    }
}
