//! Pvar liveness, and the dead-pointer kills it licenses on loop back
//! edges.
//!
//! The paper's induction-pointer pass restricts the abstract state to what
//! a loop traverses with (§3). A pvar that the loop body binds and that
//! nothing reads again before its next definition still pins its cell
//! across the back edge, and with it everything that cell links to: after
//! a stack pop, a dead `sp` is the only reference to the popped cell, whose
//! `node` link keeps a tree node SHSEL-shared. Lowering ends such bindings
//! with a plain `p = NULL` on every back edge, the way Predator drops dead
//! program variables before it joins states.

use crate::func::{
    Block, BlockId, CallArg, Cond, FuncIr, LoopId, PtrStmt, PvarId, ScalarId, Stmt, StmtId,
    StmtInfo, Terminator,
};
use psa_cfront::diag::Span;
use std::collections::BTreeSet;

/// One pvar set per row (a block, a loop), stored as the rows of one bit
/// matrix: one bit per [`PvarId`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PvarRows {
    words: usize,
    bits: Vec<u64>,
}

impl PvarRows {
    /// `rows` empty sets over a universe of `pvars` pvars.
    fn new(rows: usize, pvars: usize) -> Self {
        let words = pvars.div_ceil(64);
        PvarRows {
            words,
            bits: vec![0; rows * words],
        }
    }

    /// Whether `p` is in row `row`'s set.
    pub fn contains(&self, row: usize, p: PvarId) -> bool {
        self.bits[row * self.words + p.0 as usize / 64] & (1 << (p.0 % 64)) != 0
    }

    fn row_mut(&mut self, row: usize) -> &mut [u64] {
        &mut self.bits[row * self.words..(row + 1) * self.words]
    }
}

fn set(row: &mut [u64], p: PvarId) {
    row[p.0 as usize / 64] |= 1 << (p.0 % 64);
}

/// The pvar a statement (re)binds, if any.
fn defined_pvar(s: &Stmt) -> Option<PvarId> {
    match s {
        Stmt::Ptr(p) => p.def(),
        Stmt::Call(c) => c.ret_ptr,
        _ => None,
    }
}

/// Walk one statement backward over a block's rows: its definition ends
/// liveness, its reads start it.
fn step_back(s: &Stmt, defs: &mut [u64], uses: &mut [u64]) {
    if let Some(x) = defined_pvar(s) {
        set(defs, x);
        uses[x.0 as usize / 64] &= !(1 << (x.0 % 64));
    }
    match s {
        Stmt::Ptr(p) => p.uses().into_iter().for_each(|y| set(uses, y)),
        Stmt::ScalarStore(x, _) | Stmt::Free(x) => set(uses, *x),
        Stmt::Call(c) => {
            for a in &c.ptr_args {
                if let CallArg::Pvar(y) = a {
                    set(uses, *y);
                }
            }
        }
        Stmt::ScalarConst(..) | Stmt::ScalarHavoc(..) | Stmt::Scalar(_) => {}
    }
}

/// The pvars live on entry to each block of `ir`, one row per
/// [`BlockId`]: those some path reads before redefining them.
///
/// Reads are what the IR shows: [`PtrStmt::uses`], the bases of
/// [`Stmt::ScalarStore`] and [`Stmt::Free`], a call's pointer arguments,
/// branch conditions, and `ret` — a callee body's return slot — at every
/// `Return`. A scalar read through a pointer (`dx = cur->pos.x`) lowers to
/// an opaque [`Stmt::Scalar`] and reads nothing: no verdict observes it.
pub fn live_in(ir: &FuncIr, ret: Option<PvarId>) -> PvarRows {
    let blocks = ir.blocks.len();
    let mut defs = PvarRows::new(blocks, ir.num_pvars());
    // Seeded with what each block reads before defining it.
    let mut live = PvarRows::new(blocks, ir.num_pvars());
    for (b, block) in ir.blocks.iter().enumerate() {
        let (d, u) = (defs.row_mut(b), live.row_mut(b));
        match block.term {
            Terminator::Branch {
                cond: Cond::PtrNull(x),
                ..
            } => set(u, x),
            Terminator::Branch {
                cond: Cond::PtrEq(x, y),
                ..
            } => {
                set(u, x);
                set(u, y);
            }
            Terminator::Return => ret.into_iter().for_each(|r| set(u, r)),
            Terminator::Branch { .. } | Terminator::Goto(_) => {}
        }
        for &sid in block.stmts.iter().rev() {
            step_back(&ir.stmt(sid).stmt, d, u);
        }
    }
    let words = live.words;
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..blocks).rev() {
            let succs = match ir.blocks[b].term {
                Terminator::Goto(t) => [Some(t), None],
                Terminator::Branch {
                    then_bb, else_bb, ..
                } => [Some(then_bb), Some(else_bb)],
                Terminator::Return => [None, None],
            };
            for s in succs.into_iter().flatten() {
                for w in 0..words {
                    let out = live.bits[s.0 as usize * words + w] & !defs.bits[b * words + w];
                    let cur = &mut live.bits[b * words + w];
                    if out & !*cur != 0 {
                        *cur |= out;
                        changed = true;
                    }
                }
            }
        }
    }
    live
}

/// On every back edge `(from, to, L)`, emit `p = NULL` for each pvar `p`
/// that
///
/// * `L` (or a loop nested in it) defines,
/// * is dead at `to`, where the edge lands: `L`'s header, or the body of a
///   `do`-`while`,
/// * points to the struct type of one of `L`'s induction pointers, and
/// * no assertion names (`asserted`).
///
/// The type filter keeps builder loops (`e = malloc; e->nxt = r->elems;
/// r->elems = e;`) as they are: they have no induction pointer, and their
/// dead `e` pins the newest cell that the next iteration links to, which
/// would otherwise be rematerialized every iteration. Temporaries are
/// already killed right after use.
///
/// A loop that assigns a scalar some branch tests (a flag loop, `while
/// (done == 0) { …; done = 1; }`) gets no kills: COMPRESS drops every
/// scalar fact of a graph whose nodes it merges, so a kill that unpins a
/// cell can erase the very fact that steers the loop, and the finished
/// state re-enters the body.
///
/// The kills are [`Span::SYNTH`] statements appended after the existing
/// ones. An edge from a `Goto` block gets them at the end of that block;
/// a branch edge (a `do`-`while` condition) is split by a new block, also
/// appended, so no existing statement or block id moves.
pub(crate) fn kill_dead_pointers(
    ir: &mut FuncIr,
    back_edges: &[(BlockId, BlockId, LoopId)],
    ret: Option<PvarId>,
    asserted: &BTreeSet<&str>,
) {
    // Only a loop with an induction pointer can kill anything.
    if back_edges
        .iter()
        .all(|&(_, _, l)| ir.loops[l.0 as usize].ipvars.is_empty())
    {
        return;
    }
    let live = live_in(ir, ret);
    let tested: BTreeSet<ScalarId> = ir
        .blocks
        .iter()
        .filter_map(|b| match b.term {
            Terminator::Branch {
                cond: Cond::ScalarEq(v, _),
                ..
            } => Some(v),
            _ => None,
        })
        .collect();
    let mut defined = PvarRows::new(ir.loops.len(), ir.num_pvars());
    let mut steered = vec![false; ir.loops.len()];
    for s in &ir.stmts {
        if let Some(p) = defined_pvar(&s.stmt) {
            for l in &s.loops {
                set(defined.row_mut(l.0 as usize), p);
            }
        }
        let assigned = match &s.stmt {
            Stmt::ScalarConst(v, _) | Stmt::ScalarHavoc(v, _) => Some(*v),
            Stmt::Call(c) => c.ret_scalar,
            _ => None,
        };
        if assigned.is_some_and(|v| tested.contains(&v)) {
            for l in &s.loops {
                steered[l.0 as usize] = true;
            }
        }
    }
    for &(from, to, lid) in back_edges {
        if steered[lid.0 as usize] {
            continue;
        }
        let info = &ir.loops[lid.0 as usize];
        let cursor_types: BTreeSet<_> = info.ipvars.iter().map(|&p| ir.pvar(p).pointee).collect();
        let kills: Vec<PvarId> = (0..ir.num_pvars() as u32)
            .map(PvarId)
            .filter(|&p| {
                let pv = ir.pvar(p);
                defined.contains(lid.0 as usize, p)
                    && !pv.is_temp
                    && !live.contains(to.0 as usize, p)
                    && cursor_types.contains(&pv.pointee)
                    && !asserted.contains(pv.name.as_str())
            })
            .collect();
        if kills.is_empty() {
            continue;
        }
        let mut loops = vec![lid];
        while let Some(parent) = ir.loops[loops[0].0 as usize].parent {
            loops.insert(0, parent);
        }
        let ids: Vec<StmtId> = kills
            .iter()
            .map(|&p| {
                ir.stmts.push(StmtInfo {
                    stmt: Stmt::Ptr(PtrStmt::Nil(p)),
                    span: Span::SYNTH,
                    loops: loops.clone(),
                });
                StmtId(ir.stmts.len() as u32 - 1)
            })
            .collect();
        let split = BlockId(ir.blocks.len() as u32);
        let src = &mut ir.blocks[from.0 as usize];
        if let Terminator::Branch {
            then_bb, else_bb, ..
        } = &mut src.term
        {
            for target in [then_bb, else_bb] {
                if *target == to {
                    *target = split;
                }
            }
            ir.blocks.push(Block {
                stmts: ids,
                term: Terminator::Goto(to),
            });
        } else {
            src.stmts.extend(ids);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_program;
    use psa_codes::Sizes;

    fn lower(src: &str) -> FuncIr {
        let (p, t) = psa_cfront::parse_and_type(src).unwrap();
        lower_program(&p, &t, "main").unwrap()
    }

    /// The kills of `ir` by innermost loop: synthetic `p = NULL` on a
    /// program pvar (temporaries are killed after every use anyway).
    fn kills(ir: &FuncIr) -> Vec<(LoopId, String)> {
        ir.stmts
            .iter()
            .filter_map(|s| match s.stmt {
                Stmt::Ptr(PtrStmt::Nil(p)) if s.span.is_synth() && !ir.pvar(p).is_temp => {
                    Some((*s.loops.last()?, ir.pvar_name(p).to_string()))
                }
                _ => None,
            })
            .collect()
    }

    /// The names killed on the back edges of the loop whose induction
    /// pointers are exactly `ipvars`, sorted.
    fn kills_of(ir: &FuncIr, ipvars: &[&str]) -> Vec<String> {
        let want: Vec<PvarId> = ipvars.iter().map(|n| ir.pvar_id(n).unwrap()).collect();
        let lid = (0..ir.loops.len())
            .map(|l| LoopId(l as u32))
            .find(|l| ir.loops[l.0 as usize].ipvars == want)
            .expect("a loop with these induction pointers");
        let mut names: Vec<String> = kills(ir)
            .into_iter()
            .filter(|(l, _)| *l == lid)
            .map(|(_, n)| n)
            .collect();
        names.sort();
        names
    }

    #[test]
    fn stack_loops_kill_exactly_the_dead_push_pointer() {
        for (code, local) in [
            (psa_codes::olden::tsp(Sizes::default()), "_c"),
            (psa_codes::olden::voronoi(Sizes::default()), "_p"),
        ] {
            let ir = lower(&code);
            // `cur = top->node` is dead at the head too, but it points to
            // a tree node, not to the stack cursor `top`'s type.
            assert_eq!(kills_of(&ir, &["top"]), ["sp"]);
            // The build loop ends the new node's three bindings: `fresh`,
            // the insertion cursor and the inlined constructor's local.
            let build = kills_of(&ir, &["cur"]);
            assert_eq!(build.len(), 3, "{build:?}");
            assert!(build[0].starts_with("__inl") && build[0].ends_with(local));
            assert_eq!(build[1..], ["cur", "fresh"]);
        }
    }

    #[test]
    fn builder_loops_kill_nothing() {
        for code in [
            psa_codes::sparse_matvec(Sizes::default()),
            psa_codes::sparse_lu(Sizes::default()),
            psa_codes::olden::power(Sizes::default()),
        ] {
            let ir = lower(&code);
            for (l, name) in kills(&ir) {
                assert!(
                    !ir.loops[l.0 as usize].ipvars.is_empty(),
                    "{name} killed in a builder"
                );
            }
        }
        let ir = lower(
            "struct node { int v; struct node *nxt; };
             int main() {
                 struct node *list; struct node *p; int i;
                 list = NULL;
                 for (i = 0; i < 4; i++) {
                     p = (struct node *) malloc(sizeof(struct node));
                     p->nxt = list;
                     list = p;
                 }
                 return 0;
             }",
        );
        assert!(kills(&ir).is_empty());
    }

    #[test]
    fn an_assertion_keeps_its_pvar_bound() {
        let code = psa_codes::olden::tsp(Sizes::default());
        let asserted = code.replacen(
            "    return 0;",
            "    // @assert acyclic(sp)\n    return 0;",
            1,
        );
        assert_ne!(code, asserted);
        let ir = lower(&asserted);
        assert!(kills_of(&ir, &["top"]).is_empty());
        assert_eq!(kills_of(&ir, &["cur"]).len(), 3);
    }

    #[test]
    fn a_malformed_assertion_keeps_the_well_formed_ones() {
        let code = psa_codes::olden::tsp(Sizes::default());
        let asserted = code.replacen(
            "    return 0;",
            "    // @assert acyclic(sp)\n    // @assert reach(root\n    return 0;",
            1,
        );
        assert_ne!(code, asserted);
        let ir = lower(&asserted);
        assert!(kills_of(&ir, &["top"]).is_empty(), "`sp` is still asserted");
    }

    #[test]
    fn nested_cursors_die_on_the_outer_back_edge() {
        let ir = lower(
            "struct node { int v; struct node *nxt; struct node *dn; };
             int main() {
                 struct node *p; struct node *q;
                 while (p != NULL) {
                     q = p->dn;
                     while (q != NULL) { q = q->nxt; }
                     p = p->nxt;
                 }
                 return 0;
             }",
        );
        // `q` ends NULL anyway, but nothing reads it before `q = p->dn`.
        assert_eq!(kills_of(&ir, &["p", "q"]), ["q"]);
        // The inner head reads `q`: no kill there.
        assert!(kills_of(&ir, &["q"]).is_empty());
    }

    #[test]
    fn do_while_condition_edges_are_split() {
        let ir = lower(
            "struct node { int v; struct node *nxt; };
             int main() {
                 struct node *p; struct node *t;
                 do { t = p; p = p->nxt; } while (p != NULL);
                 return 0;
             }",
        );
        let t = ir.pvar_id("t").unwrap();
        let kill = ir
            .blocks
            .iter()
            .position(|b| {
                b.stmts.len() == 1 && ir.stmt(b.stmts[0]).stmt == Stmt::Ptr(PtrStmt::Nil(t))
            })
            .expect("a block holding only the kill");
        let Terminator::Goto(body) = ir.blocks[kill].term else {
            panic!("the split block jumps back to the body");
        };
        let preds = ir.predecessors();
        assert_eq!(preds[kill].len(), 1, "only the condition's back edge");
        assert!(matches!(
            ir.blocks[preds[kill][0].0 as usize].term,
            Terminator::Branch {
                cond: Cond::PtrNull(_),
                ..
            }
        ));
        assert!(preds[body.0 as usize]
            .iter()
            .all(|b| b.0 as usize == kill || b.0 < body.0));
    }

    #[test]
    fn continue_is_a_back_edge_of_a_while_loop() {
        let ir = lower(
            "struct node { int v; struct node *nxt; };
             int main() {
                 struct node *p; struct node *t;
                 while (p != NULL) {
                     t = p;
                     p = p->nxt;
                     if (t->v == 0) { continue; }
                     t->v = 1;
                 }
                 return 0;
             }",
        );
        // One kill at the body's end, one at the `continue`.
        assert_eq!(kills_of(&ir, &["p"]), ["t", "t"]);
    }

    #[test]
    fn flag_loops_keep_their_bindings() {
        let ir = lower(
            "struct node { int v; struct node *nxt; };
             int main() {
                 struct node *p; struct node *t; int done;
                 done = 0;
                 while (done == 0) {
                     t = p;
                     p = p->nxt;
                     if (p == NULL) { done = 1; }
                 }
                 return 0;
             }",
        );
        assert_eq!(ir.loops[0].ipvars, [ir.pvar_id("p").unwrap()]);
        assert!(kills(&ir).is_empty());
    }

    #[test]
    fn liveness_reads_what_the_ir_shows() {
        let ir = lower(
            "struct node { int v; struct node *nxt; };
             int main() {
                 struct node *a; struct node *b; struct node *c; int x;
                 x = a->v;
                 b->v = 1;
                 free(c);
                 return 0;
             }",
        );
        let live = live_in(&ir, None);
        let entry = ir.entry.0 as usize;
        // A scalar read through `a` lowers to an opaque statement.
        assert!(!live.contains(entry, ir.pvar_id("a").unwrap()));
        assert!(live.contains(entry, ir.pvar_id("b").unwrap()));
        assert!(live.contains(entry, ir.pvar_id("c").unwrap()));
        // A callee body's return slot is read at every `Return`.
        let b = ir.pvar_id("b").unwrap();
        let with_ret = live_in(&ir, Some(b));
        assert!((0..ir.blocks.len()).all(|blk| with_ret.contains(blk, b)));
    }
}
