//! Lowering from the C AST to the normalized pointer IR.
//!
//! Every pointer effect is decomposed into the paper's six simple statements
//! with fresh temporaries for access chains (`x->a->b` becomes
//! `@t0 = x->a; ... @t0->b ...`). Temporaries are killed (`@t = NULL`)
//! immediately after the statement that consumes them so they never pollute
//! the SPATH / ALIAS properties of the shape graphs.
//!
//! Scalar computation lowers to [`Stmt::Scalar`] no-ops: reads of scalar
//! fields, arithmetic, `printf`/`free` calls. Conditions lower to
//! short-circuit branch chains whose leaves are [`Cond::PtrNull`],
//! [`Cond::PtrEq`] or [`Cond::Opaque`].

use crate::func::*;
use crate::inline::{inline_program, is_intrinsic};
use psa_cfront::ast::{self, BinOp, Expr, Node, Stmt as AStmt, TypeExpr, UnOp};
use psa_cfront::diag::{Diagnostic, Span};
use psa_cfront::types::{SemType, StructId, TypeTable};
use std::collections::{BTreeMap, BTreeSet};

/// Errors produced during lowering.
pub type LowerError = Diagnostic;

/// Lower a whole program rooted at `entry`: the one way from a parsed
/// program to IR.
///
/// User function calls are handled automatically: non-recursive calls are
/// inlined (see [`crate::inline`]), and functions on a call-graph cycle are
/// lowered as [`CalleeFunc`] bodies over a single shared pvar/scalar
/// universe, with their call sites becoming [`Stmt::Call`] statements that
/// the engine analyzes via entry/exit summaries. A call to a defined
/// function that is neither inlined nor summarized is an error.
///
/// The entry function plays the role of a whole program: it must not
/// receive pointer parameters, because the analysis starts from an empty
/// heap. Global variables are registered by the same rule as locals, and
/// their initializers run before the body.
pub fn lower_program(
    program: &ast::Program,
    table: &TypeTable,
    entry: &str,
) -> Result<FuncIr, LowerError> {
    let recursive = recursive_functions(program, entry);
    let inlined = inline_program(program, entry, &recursive)?;
    let asserted: BTreeSet<&str> = program
        .asserts
        .iter()
        .flat_map(|a| a.pred.pvars())
        .collect();
    let defined: BTreeSet<String> = program
        .functions
        .iter()
        .map(|f| f.name.clone())
        .filter(|n| !is_intrinsic(n))
        .collect();

    // --- pass 1: shared universe seeds — globals, then per-callee formals,
    // anchors and return slots, in sorted name order so ids are stable.
    let mut global_scope = Lowerer::new(table.clone(), entry.to_string());
    for g in &inlined.globals {
        global_scope.declare(&g.name, &g.ty, g.span)?;
    }
    let Lowerer {
        table: root_table,
        mut pvars,
        mut scalars,
        mut scopes,
        ..
    } = global_scope;
    let globals = scopes.pop().expect("the global scope");
    // The localized call transfer strips every binding from the callee's
    // entry graph, which would make a global read inside a recursive callee
    // see NULL/unknown and a global write be lost at glue time. Refuse the
    // combination rather than analyze it wrong.
    if !recursive.is_empty() {
        for g in &inlined.globals {
            let sem = table.resolve(&g.ty, g.span)?;
            if sem.pointee_struct().is_some() || matches!(sem, SemType::Int) {
                return Err(Diagnostic::error(
                    g.span,
                    format!(
                        "global variable `{}` is not supported together with \
                         recursive functions (pass it as a parameter instead)",
                        g.name
                    ),
                ));
            }
        }
    }

    let names: Vec<String> = recursive.iter().cloned().collect();
    let mut sigs: BTreeMap<String, CallSig> = BTreeMap::new();
    let mut seeds: Vec<CalleeSeed> = Vec::new();
    for (index, name) in names.iter().enumerate() {
        let f = inlined.function(name).expect("inlined above");
        let mut params = Vec::new();
        let mut bindings = globals.clone();
        let mut params_ptr = Vec::new();
        let mut params_scalar = Vec::new();
        let first_pvar = pvars.len();
        let first_scalar = scalars.len();
        for p in &f.params {
            let sem = table.resolve(&p.ty, f.span)?;
            if let Some(sid) = sem.pointee_struct() {
                let id = PvarId(pvars.len() as u32);
                pvars.push(PvarInfo {
                    name: format!("{name}.{}", p.name),
                    pointee: sid,
                    is_temp: false,
                });
                bindings.insert(p.name.clone(), Binding::Ptr(id));
                params.push(CallParam::Ptr);
                params_ptr.push(id);
            } else if matches!(sem, SemType::Int) {
                let id = ScalarId(scalars.len() as u32);
                scalars.push(format!("{name}.{}", p.name));
                bindings.insert(p.name.clone(), Binding::Scalar(Some(id)));
                params.push(CallParam::Scalar(Some(id)));
                params_scalar.push(id);
            } else {
                bindings.insert(p.name.clone(), Binding::Scalar(None));
                params.push(CallParam::Scalar(None));
            }
        }
        // Anchors: one reserved, never-assigned pvar per pointer formal.
        let mut anchors = Vec::new();
        for (i, &p) in params_ptr.iter().enumerate() {
            let pointee = pvars[p.0 as usize].pointee;
            let id = PvarId(pvars.len() as u32);
            pvars.push(PvarInfo {
                name: format!("{name}.__anchor{i}"),
                pointee,
                is_temp: true,
            });
            anchors.push(id);
        }
        // Cutpoint anchors: a fixed supply of reserved slots for frame
        // references into the passed region beyond the argument targets.
        // The pointee is nominal — an anchored cell can be of any struct.
        let mut cut_anchors = Vec::new();
        let cut_pointee = params_ptr
            .first()
            .map(|&p| pvars[p.0 as usize].pointee)
            .unwrap_or(StructId(0));
        for j in 0..4 {
            let id = PvarId(pvars.len() as u32);
            pvars.push(PvarInfo {
                name: format!("{name}.__cut{j}"),
                pointee: cut_pointee,
                is_temp: true,
            });
            cut_anchors.push(id);
        }
        // Return slot.
        let ret_sem = table.resolve(&f.ret, f.span)?;
        let mut ret_ptr = None;
        let mut ret_scalar = None;
        if let Some(sid) = ret_sem.pointee_struct() {
            let id = PvarId(pvars.len() as u32);
            pvars.push(PvarInfo {
                name: format!("{name}.__ret"),
                pointee: sid,
                is_temp: false,
            });
            ret_ptr = Some((id, sid));
        } else if matches!(ret_sem, SemType::Int) {
            let id = ScalarId(scalars.len() as u32);
            scalars.push(format!("{name}.__ret"));
            ret_scalar = Some(id);
        }
        sigs.insert(
            name.clone(),
            CallSig {
                index: index as u32,
                params,
                ret_ptr,
                ret_scalar,
            },
        );
        seeds.push(CalleeSeed {
            name: name.clone(),
            bindings,
            params_ptr,
            params_scalar,
            anchors,
            cut_anchors,
            ret_ptr: ret_ptr.map(|(id, _)| id),
            ret_scalar,
            first_pvar,
            first_scalar,
        });
    }

    // --- pass 2: lower each recursive body over the growing shared tables.
    let mut callee_irs: Vec<FuncIr> = Vec::new();
    let mut owned: Vec<(Vec<PvarId>, Vec<ScalarId>)> = Vec::new();
    for seed in &seeds {
        let f = inlined.function(&seed.name).expect("inlined above");
        let mut lw = Lowerer::new_seeded(
            table.clone(),
            seed.name.clone(),
            std::mem::take(&mut pvars),
            std::mem::take(&mut scalars),
            seed.bindings.clone(),
            sigs.clone(),
            defined.clone(),
            format!("{}.", seed.name),
            seed.ret_ptr,
            seed.ret_scalar,
        );
        let body_start_pvar = lw.pvars.len();
        let body_start_scalar = lw.scalars.len();
        lw.lower_scoped(&f.body)?;
        let ir = lw.finish(&asserted)?;
        // Owned slots: formals + anchors + return slot registered in pass 1
        // (the contiguous range starting at the seed's watermark) plus body
        // locals and temps (the range this lowering appended).
        let mut own_p: Vec<PvarId> = (seed.first_pvar..body_start_pvar)
            .chain(body_start_pvar..ir.pvars.len())
            .map(|i| PvarId(i as u32))
            .collect();
        // Pass-1 ranges for later callees interleave; restrict to this
        // callee's own seeds.
        own_p.retain(|&p| {
            let n = &ir.pvars[p.0 as usize].name;
            n.starts_with(&format!("{}.", seed.name)) || p.0 as usize >= body_start_pvar
        });
        let mut own_s: Vec<ScalarId> = (seed.first_scalar..body_start_scalar)
            .chain(body_start_scalar..ir.scalars.len())
            .map(|i| ScalarId(i as u32))
            .collect();
        own_s.retain(|&s| {
            let n = &ir.scalars[s.0 as usize];
            n.starts_with(&format!("{}.", seed.name)) || s.0 as usize >= body_start_scalar
        });
        pvars = ir.pvars.clone();
        scalars = ir.scalars.clone();
        owned.push((own_p, own_s));
        callee_irs.push(ir);
    }

    // --- pass 3: the root, over the final callee tables.
    let mut lw = Lowerer::new_seeded(
        root_table,
        entry.to_string(),
        pvars,
        scalars,
        globals,
        sigs,
        defined,
        String::new(),
        None,
        None,
    );
    let func = inlined.function(entry).expect("inlined above");
    for g in &inlined.globals {
        if let Some(init) = &g.init {
            let lhs = Expr::Ident(g.name.clone(), g.span);
            lw.lower_assign(&lhs, init, g.span)?;
            lw.flush_temps();
        }
    }
    for p in &func.params {
        let sem = table.resolve(&p.ty, func.span)?;
        if sem.pointee_struct().is_some() {
            return Err(Diagnostic::error(
                func.span,
                format!(
                    "entry function `{entry}` takes pointer parameter `{}`; the \
                     analysis starts from an empty heap",
                    p.name
                ),
            ));
        }
        let tracked = matches!(sem, SemType::Int);
        lw.declare_scalar(&p.name, tracked);
    }
    lw.lower_scoped(&func.body)?;
    let mut root = lw.finish(&asserted)?;

    // --- pass 4: every FuncIr carries the final full tables, and callees
    // get their metadata (body hash, transitive may-free).
    let final_pvars = root.pvars.clone();
    let final_scalars = root.scalars.clone();
    let mut callees: Vec<CalleeFunc> = Vec::new();
    for (i, mut ir) in callee_irs.into_iter().enumerate() {
        ir.pvars = final_pvars.clone();
        ir.scalars = final_scalars.clone();
        let body_hash = body_hash(&ir);
        let (owned_pvars, owned_scalars) = owned[i].clone();
        let seed = &seeds[i];
        callees.push(CalleeFunc {
            name: seed.name.clone(),
            ir,
            params_ptr: seed.params_ptr.clone(),
            params_scalar: seed.params_scalar.clone(),
            anchors: seed.anchors.clone(),
            cut_anchors: seed.cut_anchors.clone(),
            ret_ptr: seed.ret_ptr,
            ret_scalar: seed.ret_scalar,
            owned_pvars,
            owned_scalars,
            may_free: false,
            body_hash,
        });
    }
    // Transitive may-free over the callee call graph.
    let direct_free: Vec<bool> = callees
        .iter()
        .map(|c| c.ir.stmts.iter().any(|s| matches!(s.stmt, Stmt::Free(_))))
        .collect();
    let calls_of: Vec<Vec<u32>> = callees
        .iter()
        .map(|c| {
            c.ir.stmts
                .iter()
                .filter_map(|s| match &s.stmt {
                    Stmt::Call(cs) => Some(cs.callee),
                    _ => None,
                })
                .collect()
        })
        .collect();
    let mut may_free = direct_free;
    loop {
        let mut changed = false;
        for i in 0..callees.len() {
            if !may_free[i] && calls_of[i].iter().any(|&j| may_free[j as usize]) {
                may_free[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for (c, f) in callees.iter_mut().zip(may_free) {
        c.may_free = f;
    }
    root.callees = callees;
    Ok(root)
}

/// FNV-1a hash of a callee body's structural content, for the summary
/// cache key.
fn body_hash(ir: &FuncIr) -> u64 {
    use std::fmt::Write;
    let mut repr = ir.name.clone();
    for s in &ir.stmts {
        let _ = write!(repr, "{:?}", s.stmt);
    }
    for b in &ir.blocks {
        let _ = write!(repr, "{:?}", b);
    }
    crate::fnv1a(repr.as_bytes())
}

/// The user functions reachable from `entry` that sit on a call-graph
/// cycle (self- or mutual recursion); these cannot be inlined and get
/// summary-based analysis instead.
fn recursive_functions(program: &ast::Program, entry: &str) -> BTreeSet<String> {
    // Direct-call edges among defined functions.
    let mut edges: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for f in &program.functions {
        let mut callees = BTreeSet::new();
        for s in &f.body {
            s.walk(&mut |n| {
                if let Node::Expr(Expr::Call(name, _, _)) = n {
                    if let Some(g) = program.function(name) {
                        callees.insert(g.name.as_str());
                    }
                }
            });
        }
        edges.insert(&f.name, callees);
    }
    // The functions reachable from `from` through one or more calls.
    let reach = |from: &str| {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack: Vec<&str> = edges.get(from).into_iter().flatten().copied().collect();
        while let Some(n) = stack.pop() {
            if seen.insert(n) {
                stack.extend(edges.get(n).into_iter().flatten());
            }
        }
        seen
    };
    // A function is recursive iff it can reach itself.
    std::iter::once(entry)
        .chain(reach(entry))
        .filter(|f| reach(f).contains(f))
        .map(str::to_string)
        .collect()
}

/// Signature of a summarized (recursive) callee, known to every lowerer.
#[derive(Debug, Clone)]
struct CallSig {
    /// Index into the root's callee table.
    index: u32,
    /// Formals in declaration order.
    params: Vec<CallParam>,
    /// Pointer-return slot and its pointee type.
    ret_ptr: Option<(PvarId, StructId)>,
    /// Scalar-return slot.
    ret_scalar: Option<ScalarId>,
}

#[derive(Debug, Clone, Copy)]
enum CallParam {
    Ptr,
    /// `Some` for tracked int formals.
    Scalar(Option<ScalarId>),
}

/// Pre-registered identity of one recursive callee (pass 1 output).
struct CalleeSeed {
    name: String,
    bindings: BTreeMap<String, Binding>,
    params_ptr: Vec<PvarId>,
    params_scalar: Vec<ScalarId>,
    anchors: Vec<PvarId>,
    cut_anchors: Vec<PvarId>,
    ret_ptr: Option<PvarId>,
    ret_scalar: Option<ScalarId>,
    first_pvar: usize,
    first_scalar: usize,
}

/// Name binding in the current scopes.
#[derive(Clone, Copy)]
enum Binding {
    Ptr(PvarId),
    /// A scalar variable; `Some` when it is a tracked int (flag) variable.
    Scalar(Option<ScalarId>),
}

struct LoopCtx {
    id: LoopId,
    /// Target of `continue`.
    continue_bb: BlockId,
    /// `continue` jumps straight back to the header (a `while` loop), so
    /// it is a back edge.
    continue_is_back: bool,
    /// Target of `break`.
    break_bb: BlockId,
}

struct Lowerer {
    table: TypeTable,
    name: String,
    pvars: Vec<PvarInfo>,
    scalars: Vec<String>,
    scopes: Vec<BTreeMap<String, Binding>>,
    stmts: Vec<StmtInfo>,
    blocks: Vec<Block>,
    cur: BlockId,
    /// True once the current block got its terminator (code after `return`).
    sealed: bool,
    loops: Vec<LoopInfo>,
    loop_stack: Vec<LoopCtx>,
    exit_edges: BTreeMap<(BlockId, BlockId), Vec<LoopId>>,
    entry_edges: BTreeMap<(BlockId, BlockId), Vec<LoopId>>,
    /// Every edge back to a loop's head, with the loop it repeats: where
    /// [`crate::liveness::kill_dead_pointers`] ends dead bindings.
    back_edges: Vec<(BlockId, BlockId, LoopId)>,
    temp_counter: u32,
    /// Temps created while lowering the current source statement; killed
    /// right after it.
    pending_temps: Vec<PvarId>,
    /// Prefix for names this lowerer introduces (`"{func}."` for recursive
    /// callee bodies sharing the root's tables, empty for the root).
    prefix: String,
    /// Signatures of summarized (recursive) callees visible at call sites.
    call_sigs: BTreeMap<String, CallSig>,
    /// The functions defined in the program, intrinsics excepted.
    defined: BTreeSet<String>,
    /// Where `return e;` stores a pointer result, in callee mode.
    ret_ptr_slot: Option<PvarId>,
    /// Where `return e;` stores a tracked-int result, in callee mode.
    ret_scalar_slot: Option<ScalarId>,
}

impl Lowerer {
    fn new(table: TypeTable, name: String) -> Self {
        let entry = Block {
            stmts: Vec::new(),
            term: Terminator::Return,
        };
        Lowerer {
            table,
            name,
            pvars: Vec::new(),
            scalars: Vec::new(),
            scopes: vec![BTreeMap::new()],
            stmts: Vec::new(),
            blocks: vec![entry],
            cur: BlockId(0),
            sealed: false,
            loops: Vec::new(),
            loop_stack: Vec::new(),
            exit_edges: BTreeMap::new(),
            entry_edges: BTreeMap::new(),
            back_edges: Vec::new(),
            temp_counter: 0,
            pending_temps: Vec::new(),
            prefix: String::new(),
            call_sigs: BTreeMap::new(),
            defined: BTreeSet::new(),
            ret_ptr_slot: None,
            ret_scalar_slot: None,
        }
    }

    /// A lowerer over a pre-seeded shared universe: the pvar/scalar tables
    /// carry earlier registrations (globals, callee formals, anchors, return
    /// slots, previously lowered callee locals) and `bindings` maps source
    /// names visible in this function to them.
    #[allow(clippy::too_many_arguments)]
    fn new_seeded(
        table: TypeTable,
        name: String,
        pvars: Vec<PvarInfo>,
        scalars: Vec<String>,
        bindings: BTreeMap<String, Binding>,
        call_sigs: BTreeMap<String, CallSig>,
        defined: BTreeSet<String>,
        prefix: String,
        ret_ptr_slot: Option<PvarId>,
        ret_scalar_slot: Option<ScalarId>,
    ) -> Self {
        let mut lw = Lowerer::new(table, name);
        lw.pvars = pvars;
        lw.scalars = scalars;
        lw.scopes = vec![bindings];
        lw.call_sigs = call_sigs;
        lw.defined = defined;
        lw.prefix = prefix;
        lw.ret_ptr_slot = ret_ptr_slot;
        lw.ret_scalar_slot = ret_scalar_slot;
        lw
    }

    // ------------------------------------------------------------- plumbing

    fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block {
            stmts: Vec::new(),
            term: Terminator::Return,
        });
        id
    }

    fn switch_to(&mut self, b: BlockId) {
        self.cur = b;
        self.sealed = false;
    }

    fn seal(&mut self, term: Terminator) {
        if !self.sealed {
            self.blocks[self.cur.0 as usize].term = term;
            self.sealed = true;
        }
    }

    fn emit(&mut self, stmt: Stmt, span: Span) {
        if self.sealed {
            return; // unreachable code after return/break
        }
        let id = StmtId(self.stmts.len() as u32);
        let loops = self.loop_stack.iter().map(|l| l.id).collect();
        self.stmts.push(StmtInfo { stmt, span, loops });
        self.blocks[self.cur.0 as usize].stmts.push(id);
    }

    fn emit_ptr(&mut self, stmt: PtrStmt, span: Span) {
        self.emit(Stmt::Ptr(stmt), span);
    }

    fn push_scope(&mut self) {
        self.scopes.push(BTreeMap::new());
    }

    fn pop_scope(&mut self) {
        self.scopes.pop();
    }

    fn lookup(&self, name: &str) -> Option<Binding> {
        for scope in self.scopes.iter().rev() {
            if let Some(b) = scope.get(name) {
                return Some(*b);
            }
        }
        None
    }

    fn fresh_pvar(&mut self, name: String, pointee: StructId, is_temp: bool) -> PvarId {
        let id = PvarId(self.pvars.len() as u32);
        self.pvars.push(PvarInfo {
            name,
            pointee,
            is_temp,
        });
        id
    }

    fn fresh_temp(&mut self, pointee: StructId) -> PvarId {
        let n = self.temp_counter;
        self.temp_counter += 1;
        let id = self.fresh_pvar(format!("{}@t{n}", self.prefix), pointee, true);
        self.pending_temps.push(id);
        id
    }

    /// Kill (NULL-assign) all temps created for the current source statement.
    fn flush_temps(&mut self) {
        let temps = std::mem::take(&mut self.pending_temps);
        for t in temps.into_iter().rev() {
            self.emit_ptr(PtrStmt::Nil(t), Span::SYNTH);
        }
    }

    /// Take the pending temps without killing them; callers kill them in
    /// specific successor blocks (branch conditions).
    fn take_temps(&mut self) -> Vec<PvarId> {
        std::mem::take(&mut self.pending_temps)
    }

    fn kill_temps_in(&mut self, block: BlockId, temps: &[PvarId]) {
        let saved = self.cur;
        let sealed = self.sealed;
        self.cur = block;
        self.sealed = false;
        for &t in temps.iter().rev() {
            self.emit_ptr(PtrStmt::Nil(t), Span::SYNTH);
        }
        self.cur = saved;
        self.sealed = sealed;
    }

    /// Record that edge `from -> to` exits every loop from the innermost one
    /// down to (and including) stack index `upto`.
    fn record_exit(&mut self, from: BlockId, to: BlockId, upto: usize) {
        let exited: Vec<LoopId> = self.loop_stack[upto..].iter().rev().map(|l| l.id).collect();
        if !exited.is_empty() {
            self.exit_edges
                .entry((from, to))
                .or_default()
                .extend(exited);
            let e = self.exit_edges.get_mut(&(from, to)).unwrap();
            e.sort_unstable();
            e.dedup();
        }
    }

    // --------------------------------------------------------- declarations

    fn declare(&mut self, name: &str, ty: &TypeExpr, span: Span) -> Result<(), Diagnostic> {
        let sem = self.table.resolve(ty, span)?;
        match &sem {
            SemType::Pointer(_) => {
                if let Some(sid) = sem.pointee_struct() {
                    let base = format!("{}{name}", self.prefix);
                    let unique = if self.lookup(name).is_some() {
                        format!("{base}#{}", self.pvars.len())
                    } else {
                        base
                    };
                    let id = self.fresh_pvar(unique, sid, false);
                    self.scopes
                        .last_mut()
                        .unwrap()
                        .insert(name.to_string(), Binding::Ptr(id));
                } else {
                    // Pointers to scalars (int*, double*) carry no shape;
                    // they are untracked scalars.
                    self.declare_scalar(name, false);
                }
            }
            SemType::Struct(_) => {
                return Err(Diagnostic::error(
                    span,
                    format!(
                        "`{name}` is a struct value; only pointers to structs and \
                         scalars are supported"
                    ),
                ));
            }
            SemType::Int => self.declare_scalar(name, true),
            _ => self.declare_scalar(name, false),
        }
        Ok(())
    }

    /// Register a scalar variable; tracked ints get a [`ScalarId`] so flag
    /// assignments and tests can be propagated by the analysis.
    fn declare_scalar(&mut self, name: &str, tracked: bool) {
        let id = if tracked {
            let id = ScalarId(self.scalars.len() as u32);
            self.scalars.push(format!("{}{name}", self.prefix));
            Some(id)
        } else {
            None
        };
        self.scopes
            .last_mut()
            .unwrap()
            .insert(name.to_string(), Binding::Scalar(id));
    }

    // ----------------------------------------------------------- statements

    fn lower_stmt(&mut self, s: &AStmt) -> Result<(), Diagnostic> {
        match s {
            AStmt::Decl(d) => {
                self.declare(&d.name, &d.ty, d.span)?;
                if let Some(init) = &d.init {
                    let lhs = Expr::Ident(d.name.clone(), d.span);
                    self.lower_assign(&lhs, init, d.span)?;
                    self.flush_temps();
                }
                Ok(())
            }
            AStmt::Expr(e) => {
                self.lower_expr_stmt(e)?;
                self.flush_temps();
                Ok(())
            }
            AStmt::Block(stmts, _) => self.lower_scoped(stmts),
            AStmt::Empty(_) => Ok(()),
            AStmt::If(cond, then, els, _) => {
                let then_bb = self.new_block();
                let else_bb = self.new_block();
                let join_bb = self.new_block();
                self.lower_cond(cond, then_bb, else_bb)?;
                self.switch_to(then_bb);
                self.lower_stmt(then)?;
                self.seal(Terminator::Goto(join_bb));
                self.switch_to(else_bb);
                if let Some(e) = els {
                    self.lower_stmt(e)?;
                }
                self.seal(Terminator::Goto(join_bb));
                self.switch_to(join_bb);
                Ok(())
            }
            AStmt::While(cond, body, span) => {
                let header = self.new_block();
                let body_bb = self.new_block();
                let after = self.new_block();
                let pre = self.cur;
                self.seal(Terminator::Goto(header));
                let lid = self.begin_loop(header, header, true, after, span.line);
                self.entry_edges.entry((pre, header)).or_default().push(lid);
                self.switch_to(header);
                self.lower_cond_with_exits(cond, body_bb, after)?;
                self.switch_to(body_bb);
                self.lower_stmt(body)?;
                self.seal_back(header, lid);
                self.end_loop(lid);
                self.switch_to(after);
                Ok(())
            }
            AStmt::DoWhile(body, cond, span) => {
                let body_bb = self.new_block();
                let cond_bb = self.new_block();
                let after = self.new_block();
                let pre = self.cur;
                self.seal(Terminator::Goto(body_bb));
                let lid = self.begin_loop(cond_bb, cond_bb, false, after, span.line);
                self.entry_edges
                    .entry((pre, body_bb))
                    .or_default()
                    .push(lid);
                self.switch_to(body_bb);
                self.lower_stmt(body)?;
                self.seal(Terminator::Goto(cond_bb));
                self.switch_to(cond_bb);
                let first_cond_block = self.blocks.len();
                self.lower_cond_with_exits(cond, body_bb, after)?;
                // The condition's edges to the body repeat the loop: the
                // ones leaving `cond_bb` or a block its lowering created.
                for from in
                    std::iter::once(cond_bb.0 as usize).chain(first_cond_block..self.blocks.len())
                {
                    if self.blocks[from].term.successors().contains(&body_bb) {
                        self.back_edges.push((BlockId(from as u32), body_bb, lid));
                    }
                }
                self.end_loop(lid);
                self.switch_to(after);
                Ok(())
            }
            AStmt::For(init, cond, step, body, span) => {
                self.push_scope();
                if let Some(i) = init {
                    self.lower_stmt(i)?;
                }
                let header = self.new_block();
                let body_bb = self.new_block();
                let step_bb = self.new_block();
                let after = self.new_block();
                let pre = self.cur;
                self.seal(Terminator::Goto(header));
                let lid = self.begin_loop(header, step_bb, false, after, span.line);
                self.entry_edges.entry((pre, header)).or_default().push(lid);
                self.switch_to(header);
                match cond {
                    Some(c) => self.lower_cond_with_exits(c, body_bb, after)?,
                    None => self.seal(Terminator::Goto(body_bb)),
                }
                self.switch_to(body_bb);
                self.lower_stmt(body)?;
                self.seal(Terminator::Goto(step_bb));
                self.switch_to(step_bb);
                if let Some(st) = step {
                    self.lower_expr_stmt(st)?;
                    self.flush_temps();
                }
                self.seal_back(header, lid);
                self.end_loop(lid);
                self.pop_scope();
                self.switch_to(after);
                Ok(())
            }
            AStmt::Switch(scrutinee, arms, span) => {
                // Lower to an if/else chain on equality tests; tracked
                // scalars get precise ScalarEq refinement for free.
                self.check_no_user_call(scrutinee)?;
                let join = self.new_block();
                for (label, body) in arms {
                    match label {
                        Some(k) => {
                            let arm_bb = self.new_block();
                            let next_bb = self.new_block();
                            let test = Expr::Binary(
                                psa_cfront::ast::BinOp::Eq,
                                Box::new(scrutinee.clone()),
                                Box::new(Expr::IntLit(*k, *span)),
                                *span,
                            );
                            self.lower_cond(&test, arm_bb, next_bb)?;
                            self.switch_to(arm_bb);
                            self.lower_scoped(body)?;
                            self.seal(Terminator::Goto(join));
                            self.switch_to(next_bb);
                        }
                        None => self.lower_scoped(body)?,
                    }
                }
                self.seal(Terminator::Goto(join));
                self.switch_to(join);
                Ok(())
            }
            AStmt::Return(val, span) => {
                if let Some(e) = val {
                    if let Some(slot) = self.ret_ptr_slot {
                        self.lower_ptr_assign_to_var(slot, e, *span)?;
                        self.flush_temps();
                    } else if let Some(slot) = self.ret_scalar_slot {
                        match e {
                            Expr::IntLit(v, _) => self.emit(Stmt::ScalarConst(slot, *v), *span),
                            Expr::Call(cname, cargs, sp)
                                if self.call_sigs.contains_key(cname.as_str()) =>
                            {
                                let dest = self.call_sigs[cname.as_str()].ret_scalar.map(|_| slot);
                                self.emit_call(cname, cargs, None, dest, *sp)?;
                                self.flush_temps();
                                if dest.is_none() {
                                    self.emit(
                                        Stmt::ScalarHavoc(slot, format!("return {cname}(...)")),
                                        *span,
                                    );
                                }
                            }
                            _ => {
                                self.check_no_user_call(e)?;
                                self.emit(
                                    Stmt::ScalarHavoc(slot, format!("return {}", short_desc(e))),
                                    *span,
                                );
                            }
                        }
                    } else {
                        // Root function: the returned value is unobserved, but
                        // calls inside it would have heap effects we must not
                        // drop silently.
                        self.check_no_user_call(e)?;
                    }
                }
                self.seal(Terminator::Return);
                Ok(())
            }
            AStmt::Break(span) => {
                let Some(top) = self.loop_stack.last() else {
                    return Err(Diagnostic::error(*span, "`break` outside of a loop"));
                };
                let target = top.break_bb;
                let from = self.cur;
                if !self.sealed {
                    self.record_exit(from, target, self.loop_stack.len() - 1);
                }
                self.seal(Terminator::Goto(target));
                Ok(())
            }
            AStmt::Continue(span) => {
                let Some(top) = self.loop_stack.last() else {
                    return Err(Diagnostic::error(*span, "`continue` outside of a loop"));
                };
                let (target, lid) = (top.continue_bb, top.id);
                if top.continue_is_back {
                    self.seal_back(target, lid);
                } else {
                    self.seal(Terminator::Goto(target));
                }
                Ok(())
            }
        }
    }

    /// Lower `stmts` in a scope of their own.
    fn lower_scoped(&mut self, stmts: &[AStmt]) -> Result<(), Diagnostic> {
        self.push_scope();
        for s in stmts {
            self.lower_stmt(s)?;
        }
        self.pop_scope();
        Ok(())
    }

    fn begin_loop(
        &mut self,
        header: BlockId,
        continue_bb: BlockId,
        continue_is_back: bool,
        break_bb: BlockId,
        line: u32,
    ) -> LoopId {
        let id = LoopId(self.loops.len() as u32);
        let parent = self.loop_stack.last().map(|l| l.id);
        let depth = self.loop_stack.len() as u32;
        self.loops.push(LoopInfo {
            parent,
            header,
            ipvars: Vec::new(),
            depth,
            line,
        });
        self.loop_stack.push(LoopCtx {
            id,
            continue_bb,
            continue_is_back,
            break_bb,
        });
        id
    }

    /// Seal the current block with a jump back to `head`, the head of loop
    /// `lid`, and record the back edge.
    fn seal_back(&mut self, head: BlockId, lid: LoopId) {
        if !self.sealed {
            self.back_edges.push((self.cur, head, lid));
        }
        self.seal(Terminator::Goto(head));
    }

    fn end_loop(&mut self, id: LoopId) {
        let popped = self.loop_stack.pop().expect("loop stack underflow");
        debug_assert_eq!(popped.id, id);
    }

    /// Lower a loop condition; edges to `exit_bb` are loop-exit edges.
    fn lower_cond_with_exits(
        &mut self,
        cond: &Expr,
        body_bb: BlockId,
        exit_bb: BlockId,
    ) -> Result<(), Diagnostic> {
        let upto = self.loop_stack.len() - 1;
        self.lower_cond(cond, body_bb, exit_bb)?;
        // `exit_bb` was freshly created by the loop lowering, so every edge
        // targeting it at this point was produced by this condition and
        // leaves the loop.
        let sources: Vec<BlockId> = self
            .blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| b.term.successors().contains(&exit_bb))
            .map(|(i, _)| BlockId(i as u32))
            .collect();
        for from in sources {
            self.record_exit(from, exit_bb, upto);
        }
        Ok(())
    }

    // ----------------------------------------------------------- conditions

    /// Lower `cond`, branching to `t` when true and `f` when false.
    fn lower_cond(&mut self, cond: &Expr, t: BlockId, f: BlockId) -> Result<(), Diagnostic> {
        self.check_no_user_call(cond)?;
        match cond {
            Expr::Binary(BinOp::And, a, b, _) => {
                let mid = self.new_block();
                self.lower_cond(a, mid, f)?;
                self.switch_to(mid);
                self.lower_cond(b, t, f)
            }
            Expr::Binary(BinOp::Or, a, b, _) => {
                let mid = self.new_block();
                self.lower_cond(a, t, mid)?;
                self.switch_to(mid);
                self.lower_cond(b, t, f)
            }
            Expr::Unary(UnOp::Not, inner, _) => self.lower_cond(inner, f, t),
            Expr::Binary(op @ (BinOp::Eq | BinOp::Ne), a, b, span) => {
                let a_ptr = self.is_pointerish(a);
                let b_ptr = self.is_pointerish(b);
                if a_ptr || b_ptr {
                    let oa = self.lower_ptr_operand(a, *span)?;
                    let ob = self.lower_ptr_operand(b, *span)?;
                    let leaf = match (oa, ob) {
                        (Operand::Null, Operand::Null) => {
                            // NULL == NULL: constant.
                            let always = *op == BinOp::Eq;
                            self.finish_leaf_const(always, t, f);
                            return Ok(());
                        }
                        (Operand::Pvar(p), Operand::Null) | (Operand::Null, Operand::Pvar(p)) => {
                            Cond::PtrNull(p)
                        }
                        (Operand::Pvar(p), Operand::Pvar(q)) => Cond::PtrEq(p, q),
                    };
                    let (tt, ff) = if *op == BinOp::Eq { (t, f) } else { (f, t) };
                    self.finish_leaf(leaf, tt, ff);
                    Ok(())
                } else if let Some(leaf) = self.scalar_eq_leaf(a, b) {
                    // Tracked-flag test: `done == 0`, `0 != done`, …
                    let (tt, ff) = if *op == BinOp::Eq { (t, f) } else { (f, t) };
                    self.finish_leaf(leaf, tt, ff);
                    Ok(())
                } else {
                    self.finish_leaf(Cond::Opaque, t, f);
                    Ok(())
                }
            }
            Expr::Ident(name, _) if matches!(self.lookup(name), Some(Binding::Ptr(_))) => {
                // `while (p)` — true means non-NULL.
                let Some(Binding::Ptr(p)) = self.lookup(name) else {
                    unreachable!()
                };
                self.finish_leaf(Cond::PtrNull(p), f, t);
                Ok(())
            }
            Expr::Member(..) if self.is_pointerish(cond) => {
                // `while (p->nxt)` — materialize the chain, test non-NULL.
                let op = self.lower_ptr_operand(cond, cond.span())?;
                match op {
                    Operand::Pvar(p) => {
                        self.finish_leaf(Cond::PtrNull(p), f, t);
                        Ok(())
                    }
                    Operand::Null => {
                        self.finish_leaf_const(false, t, f);
                        Ok(())
                    }
                }
            }
            _ => {
                // Scalar condition: no refinement.
                self.finish_leaf(Cond::Opaque, t, f);
                Ok(())
            }
        }
    }

    /// `v == lit` / `lit == v` on a tracked scalar, if recognizable.
    fn scalar_eq_leaf(&self, a: &Expr, b: &Expr) -> Option<Cond> {
        let (name, lit) = match (a, b) {
            (Expr::Ident(n, _), Expr::IntLit(v, _)) => (n, *v),
            (Expr::IntLit(v, _), Expr::Ident(n, _)) => (n, *v),
            _ => return None,
        };
        match self.lookup(name) {
            Some(Binding::Scalar(Some(id))) => Some(Cond::ScalarEq(id, lit)),
            _ => None,
        }
    }

    fn finish_leaf(&mut self, cond: Cond, t: BlockId, f: BlockId) {
        let temps = self.take_temps();
        self.seal(Terminator::Branch {
            cond,
            then_bb: t,
            else_bb: f,
        });
        // Kill condition temps on both outgoing paths; `Nil` on an unbound
        // temp is a no-op, so shared targets are safe.
        if !temps.is_empty() {
            self.kill_temps_in(t, &temps);
            self.kill_temps_in(f, &temps);
        }
    }

    fn finish_leaf_const(&mut self, value: bool, t: BlockId, f: BlockId) {
        let temps = self.take_temps();
        let target = if value { t } else { f };
        self.seal(Terminator::Goto(target));
        if !temps.is_empty() {
            self.kill_temps_in(target, &temps);
        }
    }

    // ---------------------------------------------------------- expressions

    /// Lower an expression in statement position.
    fn lower_expr_stmt(&mut self, e: &Expr) -> Result<(), Diagnostic> {
        match e {
            Expr::Assign(lhs, rhs, span) => self.lower_assign(lhs, rhs, *span),
            Expr::Call(name, args, span) => self.lower_call(name, args, *span).map(|_| ()),
            _ => {
                self.check_no_user_call(e)?;
                self.emit(Stmt::Scalar(short_desc(e)), e.span());
                Ok(())
            }
        }
    }

    /// True if the expression denotes a pointer-to-struct value.
    fn is_pointerish(&self, e: &Expr) -> bool {
        match e {
            Expr::Null(_) => true,
            Expr::IntLit(0, _) => false, // only NULL in explicit pointer context
            Expr::Ident(name, _) => matches!(self.lookup(name), Some(Binding::Ptr(_))),
            Expr::Member(base, field, true, _) => self
                .member_selector(base, field)
                .map(|s| s.is_some())
                .unwrap_or(false),
            Expr::Cast(ty, _, _) => {
                matches!(ty, TypeExpr::Pointer(_))
            }
            Expr::Call(name, _, _) => {
                name == "malloc"
                    || name == "calloc"
                    || self
                        .call_sigs
                        .get(name.as_str())
                        .is_some_and(|s| s.ret_ptr.is_some())
            }
            _ => false,
        }
    }

    /// Reject a call to a function defined in the program inside `e`, an
    /// expression about to be lowered opaquely (a condition, scalar
    /// arithmetic, an intrinsic's argument, …): dropping the call would drop
    /// its heap effects. Hoisted into its own statement, the call is inlined
    /// or summarized.
    fn check_no_user_call(&self, e: &Expr) -> Result<(), Diagnostic> {
        let mut found: Option<Diagnostic> = None;
        e.walk(&mut |x| {
            if let Expr::Call(n, _, span) = x {
                if found.is_none() && self.defined.contains(n) {
                    found = Some(hoist_error(n, *span));
                }
            }
        });
        found.map_or(Ok(()), Err)
    }

    /// If `base->field` is a selector access, return its ids.
    fn member_selector(
        &self,
        base: &Expr,
        field: &str,
    ) -> Result<Option<(StructId, psa_cfront::types::SelectorId)>, Diagnostic> {
        let sid = match self.pointee_of(base)? {
            Some(s) => s,
            None => return Ok(None),
        };
        let info = self.table.struct_info(sid);
        match info.field(field) {
            Some(f) => Ok(f.selector.map(|sel| (sid, sel))),
            None => Ok(None),
        }
    }

    /// The struct pointed to by a pointer expression, if statically known.
    fn pointee_of(&self, e: &Expr) -> Result<Option<StructId>, Diagnostic> {
        match e {
            Expr::Ident(name, _) => match self.lookup(name) {
                Some(Binding::Ptr(p)) => Ok(Some(self.pvars[p.0 as usize].pointee)),
                _ => Ok(None),
            },
            Expr::Member(base, field, true, _) => {
                let Some(sid) = self.pointee_of(base)? else {
                    return Ok(None);
                };
                let info = self.table.struct_info(sid);
                match info.field(field) {
                    Some(f) => Ok(f.ty.pointee_struct()),
                    None => Ok(None),
                }
            }
            Expr::Cast(ty, inner, span) => {
                let sem = self.table.resolve(ty, *span)?;
                match sem.pointee_struct() {
                    Some(s) => Ok(Some(s)),
                    None => self.pointee_of(inner),
                }
            }
            _ => Ok(None),
        }
    }

    /// Lower a pointer-valued expression to an operand (pvar or NULL),
    /// emitting Load statements for chains.
    #[allow(clippy::only_used_in_recursion)]
    fn lower_ptr_operand(&mut self, e: &Expr, span: Span) -> Result<Operand, Diagnostic> {
        match e {
            Expr::Null(_) | Expr::IntLit(0, _) => Ok(Operand::Null),
            Expr::Ident(name, sp) => match self.lookup(name) {
                Some(Binding::Ptr(p)) => Ok(Operand::Pvar(p)),
                Some(Binding::Scalar(_)) => Err(Diagnostic::error(
                    *sp,
                    format!("`{name}` is scalar but used as a pointer"),
                )),
                None => Err(Diagnostic::error(*sp, format!("unknown variable `{name}`"))),
            },
            Expr::Cast(_, inner, _) => self.lower_ptr_operand(inner, span),
            Expr::Member(base, field, true, sp) => {
                let Some((sid, sel)) = self.member_selector(base, field)? else {
                    return Err(Diagnostic::error(
                        *sp,
                        format!("`->{field}` is not a pointer-to-struct field"),
                    ));
                };
                let base_op = self.lower_ptr_operand(base, *sp)?;
                let Operand::Pvar(y) = base_op else {
                    return Err(Diagnostic::error(*sp, "dereference of NULL"));
                };
                let target = self.table.selector_target(sid, sel).ok_or_else(|| {
                    Diagnostic::error(*sp, format!("selector `{field}` has no struct target"))
                })?;
                let t = self.fresh_temp(target);
                self.emit_ptr(PtrStmt::Load(t, y, sel), *sp);
                Ok(Operand::Pvar(t))
            }
            Expr::Member(_, field, false, sp) => Err(Diagnostic::error(
                *sp,
                format!("`.{field}`: struct values are not supported, use pointers"),
            )),
            Expr::Call(name, args, sp) if name == "malloc" || name == "calloc" => {
                // Un-casted malloc in operand position: the struct type cannot
                // be inferred here.
                let _ = args;
                Err(Diagnostic::error(
                    *sp,
                    "cast `malloc` to a struct pointer type so its type is known",
                ))
            }
            Expr::Call(name, args, sp) if self.call_sigs.contains_key(name.as_str()) => {
                // Summarized call in pointer-operand position (e.g.
                // `x->left = build(...)`): call into a fresh temp.
                let sig = &self.call_sigs[name.as_str()];
                let Some((_, sid)) = sig.ret_ptr else {
                    return Err(Diagnostic::error(
                        *sp,
                        format!("`{name}` does not return a pointer"),
                    ));
                };
                let t = self.fresh_temp(sid);
                self.emit_call(name, args, Some(t), None, *sp)?;
                Ok(Operand::Pvar(t))
            }
            other => {
                self.check_no_user_call(other)?;
                Err(Diagnostic::error(
                    other.span(),
                    format!("unsupported pointer expression: {}", short_desc(other)),
                ))
            }
        }
    }

    /// Lower `lhs = rhs`.
    fn lower_assign(&mut self, lhs: &Expr, rhs: &Expr, span: Span) -> Result<(), Diagnostic> {
        // Pointer conditional on the rhs: x = c ? a : b lowers to an if/else.
        if let Expr::Cond(c, a, b, _) = rhs {
            if self.is_pointerish(a) || self.is_pointerish(b) {
                let then_bb = self.new_block();
                let else_bb = self.new_block();
                let join = self.new_block();
                self.lower_cond(c, then_bb, else_bb)?;
                self.switch_to(then_bb);
                self.lower_assign(lhs, a, span)?;
                self.flush_temps();
                self.seal(Terminator::Goto(join));
                self.switch_to(else_bb);
                self.lower_assign(lhs, b, span)?;
                self.flush_temps();
                self.seal(Terminator::Goto(join));
                self.switch_to(join);
                return Ok(());
            }
        }

        match lhs {
            Expr::Ident(name, sp) => match self.lookup(name) {
                Some(Binding::Ptr(x)) => self.lower_ptr_assign_to_var(x, rhs, span),
                Some(Binding::Scalar(Some(id))) => {
                    // Tracked int: constant assignments become flag facts.
                    match rhs {
                        Expr::IntLit(v, _) => self.emit(Stmt::ScalarConst(id, *v), span),
                        Expr::Call(cname, cargs, sp)
                            if self.call_sigs.contains_key(cname.as_str()) =>
                        {
                            let dest = self.call_sigs[cname.as_str()].ret_scalar.map(|_| id);
                            self.emit_call(cname, cargs, None, dest, *sp)?;
                            if dest.is_none() {
                                self.emit(
                                    Stmt::ScalarHavoc(id, format!("{name} = {cname}(...)")),
                                    span,
                                );
                            }
                        }
                        _ => {
                            self.check_no_user_call(rhs)?;
                            self.emit(
                                Stmt::ScalarHavoc(id, format!("{name} = {}", short_desc(rhs))),
                                span,
                            );
                        }
                    }
                    Ok(())
                }
                Some(Binding::Scalar(None)) => {
                    if let Expr::Call(cname, cargs, sp) = rhs {
                        if self.call_sigs.contains_key(cname.as_str()) {
                            // Result lands in an untracked slot, but the call's
                            // heap effects still happen.
                            return self.emit_call(cname, cargs, None, None, *sp);
                        }
                    }
                    self.check_no_user_call(rhs)?;
                    self.emit(Stmt::Scalar(format!("{name} = {}", short_desc(rhs))), span);
                    Ok(())
                }
                None => Err(Diagnostic::error(*sp, format!("unknown variable `{name}`"))),
            },
            Expr::Member(base, field, true, sp) => {
                match self.member_selector(base, field)? {
                    Some((_, sel)) => {
                        // Pointer field store.
                        let base_op = self.lower_ptr_operand(base, *sp)?;
                        let Operand::Pvar(x) = base_op else {
                            return Err(Diagnostic::error(*sp, "store through NULL"));
                        };
                        let val = self.lower_store_value(rhs, span)?;
                        match val {
                            Operand::Null => self.emit_ptr(PtrStmt::StoreNil(x, sel), span),
                            Operand::Pvar(y) => self.emit_ptr(PtrStmt::Store(x, sel, y), span),
                        }
                        Ok(())
                    }
                    None => {
                        // Scalar field store: no shape effect, but the
                        // written location matters for loop-independence
                        // reasoning, so the base chain is materialized into
                        // a pvar and recorded.
                        let base_op = self.lower_ptr_operand(base, *sp)?;
                        let Operand::Pvar(x) = base_op else {
                            return Err(Diagnostic::error(*sp, "store through NULL"));
                        };
                        self.check_no_user_call(rhs)?;
                        self.emit(
                            Stmt::ScalarStore(x, format!("->{field} = {}", short_desc(rhs))),
                            span,
                        );
                        Ok(())
                    }
                }
            }
            Expr::Member(_, field, false, sp) => Err(Diagnostic::error(
                *sp,
                format!("`.{field}`: struct values are not supported, use pointers"),
            )),
            Expr::Unary(UnOp::Deref, _, sp) => Err(Diagnostic::error(
                *sp,
                "explicit `*p` dereference is not supported; use `p->field`",
            )),
            other => Err(Diagnostic::error(
                other.span(),
                format!("unsupported assignment target: {}", short_desc(other)),
            )),
        }
    }

    /// Lower the value side of a pointer store; may introduce a temp for
    /// malloc or chains.
    fn lower_store_value(&mut self, rhs: &Expr, span: Span) -> Result<Operand, Diagnostic> {
        if let Some(sid) = self.malloc_struct(rhs)? {
            let t = self.fresh_temp(sid);
            self.emit_ptr(PtrStmt::Malloc(t, sid), span);
            return Ok(Operand::Pvar(t));
        }
        self.lower_ptr_operand(rhs, span)
    }

    /// Lower `x = rhs` for pointer pvar `x`.
    fn lower_ptr_assign_to_var(
        &mut self,
        x: PvarId,
        rhs: &Expr,
        span: Span,
    ) -> Result<(), Diagnostic> {
        if let Some(sid) = self.malloc_struct(rhs)? {
            self.emit_ptr(PtrStmt::Malloc(x, sid), span);
            return Ok(());
        }
        match rhs {
            Expr::Null(_) | Expr::IntLit(0, _) => {
                self.emit_ptr(PtrStmt::Nil(x), span);
                Ok(())
            }
            Expr::Ident(_, _) | Expr::Cast(_, _, _) => {
                match self.lower_ptr_operand(rhs, span)? {
                    Operand::Null => self.emit_ptr(PtrStmt::Nil(x), span),
                    Operand::Pvar(y) => self.emit_ptr(PtrStmt::Copy(x, y), span),
                }
                Ok(())
            }
            Expr::Member(base, field, true, sp) => {
                let Some((_, sel)) = self.member_selector(base, field)? else {
                    return Err(Diagnostic::error(
                        *sp,
                        format!("`->{field}` is not a pointer-to-struct field"),
                    ));
                };
                // Load the final step directly into x (no extra temp).
                let base_op = self.lower_ptr_operand(base, *sp)?;
                let Operand::Pvar(y) = base_op else {
                    return Err(Diagnostic::error(*sp, "dereference of NULL"));
                };
                self.emit_ptr(PtrStmt::Load(x, y, sel), span);
                Ok(())
            }
            Expr::Call(cname, cargs, sp) if self.call_sigs.contains_key(cname.as_str()) => {
                // `x = f(...)` for a summarized callee: return straight into x.
                self.emit_call(cname, cargs, Some(x), None, *sp)
            }
            other => {
                self.check_no_user_call(other)?;
                Err(Diagnostic::error(
                    other.span(),
                    format!(
                        "unsupported pointer right-hand side: {} (pointer arithmetic \
                         and calls to undefined functions are outside the subset)",
                        short_desc(other)
                    ),
                ))
            }
        }
    }

    /// If `e` is `malloc`/`calloc` (possibly under a cast), the struct
    /// allocated.
    fn malloc_struct(&mut self, e: &Expr) -> Result<Option<StructId>, Diagnostic> {
        match e {
            Expr::Cast(ty, inner, span) => {
                if let Expr::Call(name, args, _) = &**inner {
                    if name == "malloc" || name == "calloc" {
                        args.iter().try_for_each(|a| self.check_no_user_call(a))?;
                        let sem = self.table.resolve(ty, *span)?;
                        return match sem.pointee_struct() {
                            Some(sid) => Ok(Some(sid)),
                            None => Err(Diagnostic::error(
                                *span,
                                "malloc must be cast to a struct pointer type",
                            )),
                        };
                    }
                }
                Ok(None)
            }
            Expr::Call(name, args, span) if name == "malloc" || name == "calloc" => {
                args.iter().try_for_each(|a| self.check_no_user_call(a))?;
                // Uncast malloc: try to infer from sizeof argument.
                for a in args {
                    if let Expr::SizeOf(ty, _) = a {
                        let sem = self.table.resolve(ty, *span)?;
                        if let SemType::Struct(sid) = sem {
                            return Ok(Some(sid));
                        }
                    }
                }
                Err(Diagnostic::error(
                    *span,
                    "cannot infer the allocated struct; cast malloc or pass \
                     sizeof(struct T)",
                ))
            }
            _ => Ok(None),
        }
    }

    /// Lower a call in statement position.
    fn lower_call(&mut self, name: &str, args: &[Expr], span: Span) -> Result<(), Diagnostic> {
        let desc = match name {
            // The paper's analysis treats deallocation as shape-identity
            // (freed locations are never accessed again by a correct
            // program), but the memory-safety client needs the freed pvar,
            // so a pointer argument lowers to a real statement.
            "free" => match args {
                [arg] if self.is_pointerish(arg) => {
                    match self.lower_ptr_operand(arg, span)? {
                        Operand::Pvar(p) => self.emit(Stmt::Free(p), span),
                        // free(NULL) is a no-op in C.
                        Operand::Null => self.emit(Stmt::Scalar("free(NULL)".to_string()), span),
                    }
                    return Ok(());
                }
                _ => "free(...)".to_string(),
            },
            "printf" | "fprintf" | "puts" | "exit" | "srand" | "assert" => format!("{name}(...)"),
            // Result discarded: allocate-and-leak has no observable shape.
            "malloc" | "calloc" => "malloc (discarded)".to_string(),
            // Result-discarding call to a summarized callee.
            _ if self.call_sigs.contains_key(name) => {
                return self.emit_call(name, args, None, None, span);
            }
            // A function defined in the translation unit that is neither
            // summarized nor inlined: the inliner left it in place (a `for`
            // step), and lowering it as a no-op would drop its effects.
            _ if self.defined.contains(name) => return Err(hoist_error(name, span)),
            _ => {
                // Undefined call: allowed only if no pointer-to-struct argument
                // could leak/mutate heap structure. (Calls to functions defined
                // in the translation unit never reach this point: the two arms
                // above take them.)
                for a in args {
                    if self.is_pointerish(a) {
                        return Err(Diagnostic::error(
                            span,
                            format!(
                                "call to undefined function `{name}` with pointer \
                                 argument; define it in this translation unit so \
                                 it can be inlined or summarized, or remove the \
                                 call"
                            ),
                        ));
                    }
                }
                format!("{name}(...)")
            }
        };
        // The call lowers to a no-op, and its arguments with it.
        for a in args {
            self.check_no_user_call(a)?;
        }
        self.emit(Stmt::Scalar(desc), span);
        Ok(())
    }

    /// Emit a [`Stmt::Call`] to a summarized callee, checking arity and
    /// return-slot compatibility and lowering the arguments.
    fn emit_call(
        &mut self,
        name: &str,
        args: &[Expr],
        dest_ptr: Option<PvarId>,
        dest_scalar: Option<ScalarId>,
        span: Span,
    ) -> Result<(), Diagnostic> {
        let sig = self.call_sigs[name].clone();
        if args.len() != sig.params.len() {
            return Err(Diagnostic::error(
                span,
                format!(
                    "`{name}` expects {} argument(s), got {}",
                    sig.params.len(),
                    args.len()
                ),
            ));
        }
        if dest_ptr.is_some() && sig.ret_ptr.is_none() {
            return Err(Diagnostic::error(
                span,
                format!("`{name}` does not return a pointer"),
            ));
        }
        let mut ptr_args = Vec::new();
        let mut scalar_args = Vec::new();
        for (a, p) in args.iter().zip(&sig.params) {
            match p {
                CallParam::Ptr => {
                    let op = self.lower_store_value(a, a.span())?;
                    ptr_args.push(match op {
                        Operand::Null => CallArg::Null,
                        Operand::Pvar(pv) => CallArg::Pvar(pv),
                    });
                }
                CallParam::Scalar(Some(_)) => {
                    self.check_no_user_call(a)?;
                    scalar_args.push(self.lower_scalar_arg(a));
                }
                CallParam::Scalar(None) => {
                    // Untracked scalar formal: the value is unobservable, but
                    // a buried call inside the argument would not be.
                    self.check_no_user_call(a)?;
                }
            }
        }
        self.emit(
            Stmt::Call(CallStmt {
                callee: sig.index,
                ptr_args,
                scalar_args,
                ret_ptr: dest_ptr,
                ret_scalar: dest_scalar,
            }),
            span,
        );
        Ok(())
    }

    /// Lower a tracked-int argument expression to a [`CallScalarArg`].
    fn lower_scalar_arg(&mut self, e: &Expr) -> CallScalarArg {
        match e {
            Expr::IntLit(v, _) => CallScalarArg::Const(*v),
            Expr::Ident(n, _) => match self.lookup(n) {
                Some(Binding::Scalar(Some(id))) => CallScalarArg::Var(id),
                _ => CallScalarArg::Opaque,
            },
            _ => CallScalarArg::Opaque,
        }
    }

    /// Seal the function and run the passes over its CFG: induction
    /// detection, then the dead-pointer kills on back edges, which spare
    /// the pvars an assertion names (`asserted`).
    fn finish(mut self, asserted: &BTreeSet<&str>) -> Result<FuncIr, Diagnostic> {
        self.seal(Terminator::Return);
        let back_edges = std::mem::take(&mut self.back_edges);
        let ret = self.ret_ptr_slot;
        let mut ir = FuncIr {
            name: self.name,
            pvars: self.pvars,
            scalars: self.scalars,
            stmts: self.stmts,
            blocks: self.blocks,
            entry: BlockId(0),
            loops: self.loops,
            exit_edges: self.exit_edges,
            entry_edges: self.entry_edges,
            types: self.table,
            callees: Vec::new(),
        };
        ir.validate()
            .map_err(|m| Diagnostic::error(Span::SYNTH, m))?;
        crate::induction::detect(&mut ir);
        crate::liveness::kill_dead_pointers(&mut ir, &back_edges, ret, asserted);
        Ok(ir)
    }
}

/// A normalized pointer operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Operand {
    Null,
    Pvar(PvarId),
}

/// The error for a call to a defined function in a position where it is
/// neither inlined nor summarized.
fn hoist_error(name: &str, span: Span) -> Diagnostic {
    Diagnostic::error(
        span,
        format!("call to `{name}` cannot be inlined here; hoist it into its own statement"),
    )
}

/// A short printable description of an expression for Scalar traces.
fn short_desc(e: &Expr) -> String {
    match e {
        Expr::IntLit(v, _) => v.to_string(),
        Expr::FloatLit(v, _) => v.to_string(),
        Expr::StrLit(_, _) => "\"...\"".into(),
        Expr::Null(_) => "NULL".into(),
        Expr::Ident(n, _) => n.clone(),
        Expr::Unary(_, _, _) => "unary".into(),
        Expr::Binary(_, _, _, _) => "arith".into(),
        Expr::Assign(_, _, _) => "assign".into(),
        Expr::Member(_, f, _, _) => format!("->{f}"),
        Expr::Call(n, _, _) => format!("{n}(...)"),
        Expr::Cast(_, _, _) => "cast".into(),
        Expr::SizeOf(_, _) => "sizeof".into(),
        Expr::Cond(_, _, _, _) => "?:".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_cfront::parse_and_type;

    const TREEADD: &str = r#"
        struct tree { int val; struct tree *left; struct tree *right; };
        struct tree *build(int depth) {
            struct tree *t;
            struct tree *l;
            struct tree *r;
            if (depth <= 0) { return NULL; }
            t = (struct tree *) malloc(sizeof(struct tree));
            l = build(depth - 1);
            r = build(depth - 1);
            t->left = l;
            t->right = r;
            return t;
        }
        int sum(struct tree *t) {
            int a;
            int b;
            if (t == NULL) { return 0; }
            a = sum(t->left);
            b = sum(t->right);
            return a + b + 1;
        }
        int main() {
            struct tree *root;
            int total;
            root = build(4);
            total = sum(root);
            return 0;
        }
    "#;

    #[test]
    fn lower_program_summarizes_recursive_functions() {
        let (p, t) = parse_and_type(TREEADD).unwrap();
        let ir = lower_program(&p, &t, "main").unwrap();
        assert_eq!(ir.callees.len(), 2, "build and sum are recursive");
        let build = ir.callees.iter().find(|c| c.name == "build").unwrap();
        let sum = ir.callees.iter().find(|c| c.name == "sum").unwrap();
        // build(int): no pointer formals, pointer return.
        assert!(build.params_ptr.is_empty());
        assert_eq!(build.params_scalar.len(), 1);
        assert!(build.ret_ptr.is_some());
        assert!(build.anchors.is_empty());
        // sum(tree*): one pointer formal with its anchor, tracked int return.
        assert_eq!(sum.params_ptr.len(), 1);
        assert_eq!(sum.anchors.len(), 1);
        assert!(sum.ret_ptr.is_none());
        assert!(sum.ret_scalar.is_some());
        assert!(!build.may_free && !sum.may_free);
        // Root calls both; each callee body contains its recursive call.
        let calls = |ir: &FuncIr| {
            ir.stmts
                .iter()
                .filter(|s| matches!(s.stmt, Stmt::Call(_)))
                .count()
        };
        assert_eq!(calls(&ir), 2);
        assert_eq!(calls(&build.ir), 2);
        assert_eq!(calls(&sum.ir), 2);
        // All FuncIrs share the final tables.
        assert_eq!(ir.pvars.len(), build.ir.pvars.len());
        assert_eq!(ir.scalars.len(), sum.ir.scalars.len());
        // Owned slots are disjoint between the callees.
        for p in &build.owned_pvars {
            assert!(!sum.owned_pvars.contains(p));
        }
    }

    fn lower(body: &str) -> FuncIr {
        let src = format!(
            "struct node {{ int v; struct node *nxt; struct node *prv; }};\n\
             int main() {{ {body} return 0; }}"
        );
        let (p, t) = parse_and_type(&src).unwrap();
        lower_program(&p, &t, "main").unwrap()
    }

    fn ptr_stmts(ir: &FuncIr) -> Vec<PtrStmt> {
        ir.stmts
            .iter()
            .filter_map(|s| match &s.stmt {
                Stmt::Ptr(p) => Some(*p),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn simple_statements_lower_directly() {
        let ir = lower(
            "struct node *x; struct node *y;\n\
             x = (struct node *) malloc(sizeof(struct node));\n\
             y = x; x = NULL; y->nxt = NULL;",
        );
        let x = ir.pvar_id("x").unwrap();
        let y = ir.pvar_id("y").unwrap();
        let nxt = ir.types.selector_id("nxt").unwrap();
        let ps = ptr_stmts(&ir);
        assert!(ps.contains(&PtrStmt::Copy(y, x)));
        assert!(ps.contains(&PtrStmt::Nil(x)));
        assert!(ps.contains(&PtrStmt::StoreNil(y, nxt)));
        assert!(matches!(ps[0], PtrStmt::Malloc(p, _) if p == x));
    }

    #[test]
    fn chain_introduces_and_kills_temp() {
        let ir = lower("struct node *x; x->nxt->prv = x;");
        let ps = ptr_stmts(&ir);
        // Expect: @t0 = x->nxt ; @t0->prv = x ; @t0 = NULL
        let x = ir.pvar_id("x").unwrap();
        let nxt = ir.types.selector_id("nxt").unwrap();
        let prv = ir.types.selector_id("prv").unwrap();
        let t0 = ir.pvar_id("@t0").unwrap();
        assert!(ir.pvar(t0).is_temp);
        assert_eq!(
            ps,
            vec![
                PtrStmt::Load(t0, x, nxt),
                PtrStmt::Store(t0, prv, x),
                PtrStmt::Nil(t0),
            ]
        );
    }

    #[test]
    fn load_chain_into_var_uses_no_final_temp() {
        let ir = lower("struct node *x; struct node *z; z = x->nxt->prv;");
        let ps = ptr_stmts(&ir);
        let x = ir.pvar_id("x").unwrap();
        let z = ir.pvar_id("z").unwrap();
        let nxt = ir.types.selector_id("nxt").unwrap();
        let prv = ir.types.selector_id("prv").unwrap();
        let t0 = ir.pvar_id("@t0").unwrap();
        assert_eq!(
            ps,
            vec![
                PtrStmt::Load(t0, x, nxt),
                PtrStmt::Load(z, t0, prv),
                PtrStmt::Nil(t0)
            ]
        );
    }

    #[test]
    fn store_of_malloc_uses_temp() {
        let ir = lower("struct node *x; x->nxt = (struct node *) malloc(sizeof(struct node));");
        let ps = ptr_stmts(&ir);
        assert!(matches!(ps[0], PtrStmt::Malloc(_, _)));
        assert!(matches!(ps[1], PtrStmt::Store(_, _, _)));
        assert!(matches!(ps[2], PtrStmt::Nil(_)));
    }

    #[test]
    fn scalar_field_store_is_noop() {
        let ir = lower("struct node *x; x->v = 42;");
        assert_eq!(ptr_stmts(&ir).len(), 0);
        let x = ir.pvar_id("x").unwrap();
        assert!(ir
            .stmts
            .iter()
            .any(|s| matches!(&s.stmt, Stmt::ScalarStore(b, d) if *b == x && d.contains("->v"))));
    }

    #[test]
    fn while_null_test_condition() {
        let ir = lower("struct node *p; while (p != NULL) { p = p->nxt; }");
        let p = ir.pvar_id("p").unwrap();
        let has_branch = ir
            .blocks
            .iter()
            .any(|b| matches!(b.term, Terminator::Branch { cond: Cond::PtrNull(q), .. } if q == p));
        assert!(has_branch, "expected a PtrNull branch on p");
        assert_eq!(ir.loops.len(), 1);
    }

    #[test]
    fn truthiness_condition_on_pointer() {
        let ir = lower("struct node *p; while (p) { p = p->nxt; }");
        let p = ir.pvar_id("p").unwrap();
        // while (p): PtrNull(p) with then=exit, else=body.
        let branch = ir
            .blocks
            .iter()
            .find_map(|b| match b.term {
                Terminator::Branch {
                    cond: Cond::PtrNull(q),
                    then_bb,
                    else_bb,
                } if q == p => Some((then_bb, else_bb)),
                _ => None,
            })
            .expect("branch");
        // The else (non-null) edge must go to the loop body, which contains
        // the Load statement.
        let body = ir.block(branch.1);
        assert!(body
            .stmts
            .iter()
            .any(|&s| matches!(ir.stmt(s).stmt, Stmt::Ptr(PtrStmt::Load(_, _, _)))));
    }

    #[test]
    fn cond_temp_killed_on_both_branches() {
        let ir = lower("struct node *p; if (p->nxt != NULL) { p = NULL; } else { p = p->nxt; }");
        let t0 = ir.pvar_id("@t0").unwrap();
        // Find the branch block; both successors must begin with Nil(@t0).
        let (tb, fb) = ir
            .blocks
            .iter()
            .find_map(|b| match b.term {
                Terminator::Branch {
                    cond: Cond::PtrNull(q),
                    then_bb,
                    else_bb,
                } if q == t0 => Some((then_bb, else_bb)),
                _ => None,
            })
            .expect("branch on temp");
        for bb in [tb, fb] {
            let first = ir.block(bb).stmts.first().copied().expect("stmt");
            assert_eq!(ir.stmt(first).stmt, Stmt::Ptr(PtrStmt::Nil(t0)));
        }
    }

    #[test]
    fn ptr_eq_condition() {
        let ir = lower("struct node *p; struct node *q; if (p == q) { p = NULL; }");
        let p = ir.pvar_id("p").unwrap();
        let q = ir.pvar_id("q").unwrap();
        assert!(ir.blocks.iter().any(|b| matches!(
            b.term,
            Terminator::Branch { cond: Cond::PtrEq(a, b2), .. } if a == p && b2 == q
        )));
    }

    #[test]
    fn short_circuit_and() {
        let ir =
            lower("struct node *p; int i; while (p != NULL && i < 3) { p = p->nxt; i = i + 1; }");
        // Two leaf branches: PtrNull and Opaque.
        let mut kinds = Vec::new();
        for b in &ir.blocks {
            if let Terminator::Branch { cond, .. } = b.term {
                kinds.push(cond);
            }
        }
        assert!(kinds.iter().any(|c| matches!(c, Cond::PtrNull(_))));
        assert!(kinds.contains(&Cond::Opaque));
    }

    #[test]
    fn loop_exit_edges_recorded() {
        let ir = lower("struct node *p; while (p != NULL) { p = p->nxt; }");
        assert!(
            !ir.exit_edges.is_empty(),
            "while loop must record exit edges for TOUCH clearing"
        );
        let l0 = LoopId(0);
        assert!(ir.exit_edges.values().any(|v| v.contains(&l0)));
    }

    #[test]
    fn break_records_exit_edge() {
        let ir =
            lower("struct node *p; while (p != NULL) { if (p->v == 0) { break; } p = p->nxt; }");
        let exits: usize = ir.exit_edges.len();
        assert!(exits >= 2, "cond exit + break exit, got {exits}");
    }

    #[test]
    fn nested_loop_statement_tags() {
        let ir = lower(
            "struct node *p; struct node *q;\n\
             while (p != NULL) { q = p; while (q != NULL) { q = q->nxt; } p = p->nxt; }",
        );
        assert_eq!(ir.loops.len(), 2);
        // The inner Load (q = q->nxt) is tagged with both loops.
        let inner_load = ir
            .stmts
            .iter()
            .find(|s| matches!(s.stmt, Stmt::Ptr(PtrStmt::Load(a, b, _)) if a == b))
            .expect("inner load");
        assert_eq!(inner_load.loops.len(), 2);
        assert_eq!(ir.loops[1].parent, Some(LoopId(0)));
        assert_eq!(ir.loops[1].depth, 1);
    }

    #[test]
    fn for_loop_structure() {
        let ir = lower(
            "struct node *p; struct node *l; int i;\n\
             for (i = 0; i < 4; i++) {\n\
               p = (struct node *) malloc(sizeof(struct node));\n\
               p->nxt = l; l = p;\n\
             }",
        );
        assert_eq!(ir.loops.len(), 1);
        let ps = ptr_stmts(&ir);
        assert!(ps.iter().any(|s| matches!(s, PtrStmt::Malloc(_, _))));
        assert!(ps.iter().any(|s| matches!(s, PtrStmt::Store(_, _, _))));
    }

    #[test]
    fn unknown_call_with_pointer_arg_rejected() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() { struct node *p; frob(p); return 0; }
        "#;
        let (p, t) = parse_and_type(src).unwrap();
        assert!(lower_program(&p, &t, "main").is_err());
    }

    #[test]
    fn pointer_params_rejected() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int work(struct node *p) { return 0; }
            int main() { return 0; }
        "#;
        let (p, t) = parse_and_type(src).unwrap();
        assert!(lower_program(&p, &t, "work").is_err());
    }

    #[test]
    fn globals_registered_and_initialized() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            struct node *head;
            int N = 4;
            int main() { head = NULL; return 0; }
        "#;
        let (p, t) = parse_and_type(src).unwrap();
        let ir = lower_program(&p, &t, "main").unwrap();
        assert!(ir.pvar_id("head").is_some());
    }

    #[test]
    fn return_mid_function_seals_block() {
        let ir = lower("struct node *p; if (p == NULL) { return 1; } p = p->nxt;");
        ir.validate().unwrap();
    }

    #[test]
    fn free_lowers_to_free_stmt_and_printf_is_noop() {
        let ir = lower(r#"struct node *p; free(p); printf("%d", 1);"#);
        assert_eq!(ptr_stmts(&ir).len(), 0, "free is not a pointer statement");
        let p = ir.pvar_id("p").unwrap();
        assert!(
            ir.stmts.iter().any(|s| s.stmt == Stmt::Free(p)),
            "free(p) lowers to Stmt::Free"
        );
        assert!(ir
            .stmts
            .iter()
            .any(|s| matches!(&s.stmt, Stmt::Scalar(d) if d.contains("printf"))));
    }

    #[test]
    fn free_null_and_free_chain_lower() {
        // free(NULL) is a no-op; free(p->nxt) loads the field first.
        let ir = lower("struct node *p; free(0); free(p->nxt);");
        assert!(ir
            .stmts
            .iter()
            .any(|s| matches!(&s.stmt, Stmt::Ptr(PtrStmt::Load(_, _, _)))));
        assert!(ir.stmts.iter().any(|s| matches!(&s.stmt, Stmt::Free(_))));
    }

    #[test]
    fn do_while_loops_lower() {
        let ir = lower("struct node *p; do { p = p->nxt; } while (p != NULL);");
        assert_eq!(ir.loops.len(), 1);
        assert!(!ir.exit_edges.is_empty());
    }

    #[test]
    fn self_store_cycle() {
        // x->nxt = x : a self-cycle, common in circular lists.
        let ir = lower("struct node *x; x->nxt = x;");
        let x = ir.pvar_id("x").unwrap();
        let nxt = ir.types.selector_id("nxt").unwrap();
        assert_eq!(ptr_stmts(&ir), vec![PtrStmt::Store(x, nxt, x)]);
    }
}
