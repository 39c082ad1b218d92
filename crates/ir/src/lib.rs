//! # psa-ir — normalized pointer IR for progressive shape analysis
//!
//! The paper's analysis consumes exactly **six simple pointer statements**
//! (`x = NULL`, `x = malloc`, `x = y`, `x->sel = NULL`, `x->sel = y`,
//! `x = y->sel`); "more complex pointer instructions can be built upon these
//! simple ones and temporal variables" (§2). This crate performs that
//! normalization:
//!
//! * [`lower_program`], the one lowering entry point, inlines non-recursive
//!   calls, summarizes recursive ones, flattens arbitrary access chains into
//!   the six statements plus compiler temporaries, lowers structured control
//!   flow into a [`func::FuncIr`] control-flow graph, and desugars
//!   conditions into short-circuit branches whose leaves are NULL tests,
//!   pointer equalities or opaque scalar tests;
//! * [`func`] defines the statement/block/loop data model, including the
//!   **loop-exit edge actions** the engine uses to erase per-loop TOUCH sets;
//! * [`induction`] implements the preprocessing pass the paper attributes to
//!   Hwang/Saltz access-path expressions: detecting the *induction pointers*
//!   (traversal pvars) of every loop, the only pvars eligible for TOUCH;
//! * [`liveness`] computes pvar liveness and ends, on every loop back edge,
//!   the dead bindings into the structure the loop traverses;
//! * [`inline`] automates the call inlining the paper performed by hand
//!   (non-recursive user functions are expanded at their call sites before
//!   lowering; recursive ones stay behind as summarized callees).

pub mod asserts;
pub mod func;
mod hash;
pub mod induction;
pub mod inline;
pub mod liveness;
pub mod lower;
pub mod pretty;

pub use asserts::{asserts_of_source, resolve_asserts, AssertPred, AssertSite, Assertion};
pub use func::{
    Block, BlockId, CallArg, CallScalarArg, CallStmt, CalleeFunc, Cond, FuncIr, LoopId, LoopInfo,
    PtrStmt, PvarId, PvarInfo, ScalarId, Stmt, StmtId, StmtInfo, Terminator,
};
pub use hash::{fnv1a, splitmix64, word_hash, WordBuildHasher, WordHasher};
pub use lower::{lower_program, LowerError};

#[cfg(test)]
mod tests {
    use super::*;
    use psa_cfront::parse_and_type;

    #[test]
    fn end_to_end_lowering_smoke() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *l;
                struct node *p;
                l = NULL;
                while (p != NULL) {
                    p = p->nxt;
                }
                return 0;
            }
        "#;
        let (program, table) = parse_and_type(src).unwrap();
        let ir = lower_program(&program, &table, "main").unwrap();
        assert!(ir.blocks.len() >= 3);
        assert_eq!(ir.loops.len(), 1);
        // `p` must be detected as an induction pointer of the loop.
        let p = ir.pvar_id("p").unwrap();
        assert!(ir.loops[0].ipvars.contains(&p));
    }
}
