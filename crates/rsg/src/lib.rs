//! # psa-rsg — Reference Shape Graphs
//!
//! The data model and graph operations of the paper's analysis. An RSG is
//! the tuple `(N, P, S, PL, NL)` (§3): nodes summarizing memory locations,
//! pvar references `PL ⊆ P×N` and selector links `NL ⊆ N×S×N`. Nodes carry
//! the property vector that controls summarization:
//!
//! | property | kind | meaning |
//! |---|---|---|
//! | `TYPE` | exact | struct type of the represented locations |
//! | `STRUCTURE` | derived | connected component (never merge disjoint structures) |
//! | `SELIN/SELOUT` | must | selectors definitely populated in/out of *every* location |
//! | `posSELIN/posSELOUT` | may | selectors possibly populated |
//! | `SHARED` / `SHSEL` | may | some location may be heap-referenced more than once (per selector) |
//! | `CYCLELINKS` | must | `<s1,s2>`: every `s1` link is answered by an `s2` back link |
//! | `TOUCH` | exact | induction pvars that have visited the locations (L3 only) |
//! | `SPATH` | derived | simple paths (length ≤ 1) from pvars |
//!
//! Operations (paper sections in parentheses):
//! [`compress`](compress::compress) (§3.1), [`divide`](divide::divide)
//! (§4.1), [`prune`](prune::prune) (§4.2), [`join`](join::join) (§4.3), and
//! [`materialize`](materialize::materialize) (the *focus* step of Fig. 1(d)).
//!
//! Everything is deterministic: sets are sorted, maps are `BTree*`, and
//! [`canon`] provides a canonical form for graph equality across
//! construction histories.

pub mod builder;
pub mod canon;
pub mod compress;
pub mod ctx;
pub mod divide;
pub mod dot;
pub mod graph;
pub mod intern;
pub mod join;
pub mod materialize;
pub mod node;
pub mod prune;
pub mod render;
pub mod scratch;
pub mod sets;
pub mod spath;
pub mod subsume;
pub mod trace;

pub use ctx::{Level, ShapeCtx};
pub use graph::Rsg;
pub use intern::{
    lock_recover, CancelCause, CancelToken, CanonEntry, CanonId, OpStats, SharedTables,
    SummaryCache, SummaryEntry,
};
pub use node::{Node, NodeId};
pub use sets::{CycleSet, SelSet, TouchSet};
pub use trace::{TraceEvent, TraceKind, Tracer};
