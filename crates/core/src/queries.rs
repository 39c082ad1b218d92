//! Shape queries over analysis results.
//!
//! These are the questions the paper's experiments ask of the RSRSGs:
//! *is the summarized body list shared through `body`?* (§5.1),
//! *are the octree levels shared from the stack?*, *can two pvars alias?*
//! The [`StructureReport`] aggregates the properties of the region reachable
//! from one pvar across all graphs of an RSRSG.

use crate::rsrsg::Rsrsg;
use psa_cfront::types::SelectorId;
use psa_ir::PvarId;
use psa_rsg::sets::SelSet;
use psa_rsg::{NodeId, Rsg};

/// Nodes reachable from `start` through NL links (including `start`).
///
/// Visited nodes are tracked in a dense bitset keyed by `NodeId` slot, so
/// one traversal is O(nodes + links) rather than the O(n²) a
/// `seen.contains` membership scan would cost on large RSGs. The result is
/// sorted ascending (slot order).
pub fn reachable_from(g: &Rsg, start: NodeId) -> Vec<NodeId> {
    let mut seen = vec![false; g.num_slots()];
    seen[start.0 as usize] = true;
    let mut stack = vec![start];
    while let Some(n) = stack.pop() {
        for &(_, b) in g.out_links(n) {
            if !seen[b.0 as usize] {
                seen[b.0 as usize] = true;
                stack.push(b);
            }
        }
    }
    seen.iter()
        .enumerate()
        .filter(|(_, &v)| v)
        .map(|(i, _)| NodeId(i as u32))
        .collect()
}

/// Is `to` reachable from `from` through NL (may) links?
pub fn may_reach(g: &Rsg, from: NodeId, to: NodeId) -> bool {
    if from == to {
        return true;
    }
    let mut seen = vec![false; g.num_slots()];
    seen[from.0 as usize] = true;
    let mut stack = vec![from];
    while let Some(n) = stack.pop() {
        for &(_, b) in g.out_links(n) {
            if b == to {
                return true;
            }
            if !seen[b.0 as usize] {
                seen[b.0 as usize] = true;
                stack.push(b);
            }
        }
    }
    false
}

/// The *must*-edges out of `n`: links that exist in **every** concrete
/// configuration the graph represents. That needs three certainties: the
/// source is singular (one location, so "some represented location has the
/// link" means *the* location has it), the selector is in the must-out set
/// (the field is definitely populated, not NULL), and exactly one NL target
/// exists for it (the destination node is determined).
fn must_edges(g: &Rsg, n: NodeId) -> Vec<(SelectorId, NodeId)> {
    let node = g.node(n);
    if node.summary {
        return Vec::new();
    }
    let mut out = Vec::new();
    for sel in node.selout.iter() {
        let mut targets = g.out_links(n).iter().filter(|&&(s, _)| s == sel);
        if let (Some(&(_, b)), None) = (targets.next(), targets.next()) {
            out.push((sel, b));
        }
    }
    out
}

/// Nodes reachable from `start` through must-edges only (including
/// `start`): every listed node is pointed to by a chain of definite links
/// in every represented configuration.
pub fn must_reachable_from(g: &Rsg, start: NodeId) -> Vec<NodeId> {
    let mut seen = vec![false; g.num_slots()];
    seen[start.0 as usize] = true;
    let mut stack = vec![start];
    while let Some(n) = stack.pop() {
        for (_, b) in must_edges(g, n) {
            if !seen[b.0 as usize] {
                seen[b.0 as usize] = true;
                stack.push(b);
            }
        }
    }
    seen.iter()
        .enumerate()
        .filter(|(_, &v)| v)
        .map(|(i, _)| NodeId(i as u32))
        .collect()
}

/// Is `to` must-reachable from `from` (a chain of definite links in every
/// configuration)? Since pvar-pointed nodes are singular, this certifies
/// concrete reachability between two pvar targets.
pub fn must_reach(g: &Rsg, from: NodeId, to: NodeId) -> bool {
    must_reachable_from(g, from).binary_search(&to).is_ok()
}

/// May a directed NL cycle pass through the region reachable from `start`?
/// (Iterative three-color DFS.) A concrete cycle maps to a closed abstract
/// walk under the coverage homomorphism, so `false` here certifies
/// concrete acyclicity of the region.
pub fn may_cycle_from(g: &Rsg, start: NodeId) -> bool {
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; g.num_slots()];
    // Stack of (node, next out-link index): explicit DFS with gray marking.
    let mut stack: Vec<(NodeId, usize)> = vec![(start, 0)];
    color[start.0 as usize] = GRAY;
    while let Some(top) = stack.last_mut() {
        let n = top.0;
        let idx = top.1;
        let out = g.out_links(n);
        if idx < out.len() {
            top.1 += 1;
            let (_, b) = out[idx];
            match color[b.0 as usize] {
                GRAY => return true,
                WHITE => {
                    color[b.0 as usize] = GRAY;
                    stack.push((b, 0));
                }
                _ => {}
            }
        } else {
            color[n.0 as usize] = BLACK;
            stack.pop();
        }
    }
    false
}

/// Does a cycle of must-edges exist among the nodes must-reachable from
/// `start`? Certifies that every represented configuration contains a
/// reachable concrete cycle (each must-edge is a real link everywhere).
pub fn must_cycle_from(g: &Rsg, start: NodeId) -> bool {
    let region = must_reachable_from(g, start);
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; g.num_slots()];
    for &root in &region {
        if color[root.0 as usize] != WHITE {
            continue;
        }
        // DFS frame: (node, its must-edges, next edge index).
        type Frame = (NodeId, Vec<(SelectorId, NodeId)>, usize);
        let mut stack: Vec<Frame> = vec![(root, must_edges(g, root), 0)];
        color[root.0 as usize] = GRAY;
        while let Some(top) = stack.last_mut() {
            if top.2 < top.1.len() {
                let (_, b) = top.1[top.2];
                top.2 += 1;
                match color[b.0 as usize] {
                    GRAY => return true,
                    WHITE => {
                        color[b.0 as usize] = GRAY;
                        let next = must_edges(g, b);
                        stack.push((b, next, 0));
                    }
                    _ => {}
                }
            } else {
                color[top.0 .0 as usize] = BLACK;
                stack.pop();
            }
        }
    }
    false
}

/// Nodes reachable from a pvar (empty when NULL).
pub fn region_of(g: &Rsg, p: PvarId) -> Vec<NodeId> {
    match g.pl(p) {
        None => Vec::new(),
        Some(n) => reachable_from(g, n),
    }
}

/// May `p` and `q` point to the same location in some configuration?
/// Exact per graph: pvar-pointed nodes are singular, so node equality
/// decides.
pub fn may_alias(rsrsg: &Rsrsg, p: PvarId, q: PvarId) -> bool {
    rsrsg.iter().any(|g| match (g.pl(p), g.pl(q)) {
        (Some(a), Some(b)) => a == b,
        _ => false,
    })
}

/// Is `p` NULL in every configuration?
pub fn always_null(rsrsg: &Rsrsg, p: PvarId) -> bool {
    rsrsg.iter().all(|g| g.pl(p).is_none())
}

/// May `p` be NULL?
pub fn may_be_null(rsrsg: &Rsrsg, p: PvarId) -> bool {
    rsrsg.iter().any(|g| g.pl(p).is_none())
}

/// Does any node reachable from `p` (in any graph) have `SHSEL(n, sel)`?
pub fn shsel_in_region(rsrsg: &Rsrsg, p: PvarId, sel: SelectorId) -> bool {
    rsrsg.iter().any(|g| {
        region_of(g, p)
            .into_iter()
            .any(|n| g.node(n).shsel.contains(sel))
    })
}

/// Does any node reachable from `p` have `SHARED`?
pub fn shared_in_region(rsrsg: &Rsrsg, p: PvarId) -> bool {
    rsrsg
        .iter()
        .any(|g| region_of(g, p).into_iter().any(|n| g.node(n).shared))
}

/// A coarse structural classification, **heuristic** — the paper never
/// classifies shapes, but the reports make experiment output readable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeClass {
    /// The pvar is NULL in every configuration.
    Empty,
    /// Unshared, at most one out-selector in use per node: a chain.
    List,
    /// Unshared, several out-selectors: tree-like.
    Tree,
    /// Cycle-link pairs present, per-selector sharing absent: doubly-linked
    /// list or similar confirmed back-link structure.
    DoublyLinked,
    /// Sharing present: DAG or worse.
    Dag,
    /// A may-cycle through the pvar-pointed node (e.g. circular list).
    Cyclic,
}

/// Aggregated properties of the region reachable from one pvar, across all
/// graphs of an RSRSG.
#[derive(Debug, Clone)]
pub struct StructureReport {
    /// The pvar inspected.
    pub pvar: PvarId,
    /// NULL in every graph.
    pub always_null: bool,
    /// NULL in some graph.
    pub may_be_null: bool,
    /// Largest reachable-region node count over graphs.
    pub max_nodes: usize,
    /// Any reachable node SHARED in any graph.
    pub any_shared: bool,
    /// Union of SHSEL selectors over all reachable nodes/graphs.
    pub shared_selectors: SelSet,
    /// Any reachable node has CYCLELINKS pairs.
    pub has_cycle_links: bool,
    /// Any summary node in the region.
    pub has_summary: bool,
    /// A directed may-cycle passes through the pvar's own node.
    pub cycle_through_root: bool,
    /// Some cycle-link pair uses the same selector both ways (`<s,s>`),
    /// i.e. following `s` twice returns — a single-selector cycle.
    pub self_selector_cycle: bool,
    /// The heuristic classification.
    pub class: ShapeClass,
}

/// Build the [`StructureReport`] for `p`.
pub fn structure_report(rsrsg: &Rsrsg, p: PvarId) -> StructureReport {
    let mut r = StructureReport {
        pvar: p,
        always_null: true,
        may_be_null: false,
        max_nodes: 0,
        any_shared: false,
        shared_selectors: SelSet::EMPTY,
        has_cycle_links: false,
        has_summary: false,
        cycle_through_root: false,
        self_selector_cycle: false,
        class: ShapeClass::Empty,
    };
    let mut multi_out = false;
    for g in rsrsg.iter() {
        match g.pl(p) {
            None => {
                r.may_be_null = true;
            }
            Some(root) => {
                r.always_null = false;
                let region = reachable_from(g, root);
                r.max_nodes = r.max_nodes.max(region.len());
                for &n in &region {
                    let nd = g.node(n);
                    r.any_shared |= nd.shared;
                    r.shared_selectors = r.shared_selectors.union(nd.shsel);
                    r.has_cycle_links |= !nd.cyclelinks.is_empty();
                    r.self_selector_cycle |= nd.cyclelinks.iter().any(|(a, b)| a == b);
                    r.has_summary |= nd.summary;
                    let out_sels: SelSet = g.out_links(n).iter().map(|&(s, _)| s).collect();
                    if out_sels.len() > 1 {
                        multi_out = true;
                    }
                }
                // Root cycle: can we come back to the root?
                for &(_, b) in g.out_links(root) {
                    if may_reach(g, b, root) {
                        r.cycle_through_root = true;
                    }
                }
            }
        }
    }
    r.class = if r.always_null {
        ShapeClass::Empty
    } else if r.self_selector_cycle || (r.cycle_through_root && !r.has_cycle_links) {
        ShapeClass::Cyclic
    } else if r.has_cycle_links && r.shared_selectors.is_empty() {
        ShapeClass::DoublyLinked
    } else if r.any_shared || !r.shared_selectors.is_empty() {
        ShapeClass::Dag
    } else if multi_out {
        ShapeClass::Tree
    } else {
        ShapeClass::List
    };
    r
}

impl std::fmt::Display for StructureReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?} (nodes ≤ {}, shared: {}, shsel: {}, cyclelinks: {}, summary: {}{}{})",
            self.class,
            self.max_nodes,
            self.any_shared,
            self.shared_selectors,
            self.has_cycle_links,
            self.has_summary,
            if self.may_be_null { ", may-null" } else { "" },
            if self.always_null {
                ", always-null"
            } else {
                ""
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_cfront::parse_and_type;
    use psa_ir::lower_program;
    use psa_rsg::Level;

    fn analyze(src: &str, level: Level) -> (psa_ir::FuncIr, crate::engine::AnalysisResult) {
        let (p, t) = parse_and_type(src).unwrap();
        let ir = lower_program(&p, &t, "main").unwrap();
        let res = crate::engine::Engine::new(&ir, crate::engine::EngineConfig::at_level(level))
            .run()
            .unwrap();
        (ir, res)
    }

    const SLL: &str = r#"
        struct node { int v; struct node *nxt; };
        int main() {
            struct node *list; struct node *p; int i;
            list = NULL;
            for (i = 0; i < 9; i++) {
                p = (struct node *) malloc(sizeof(struct node));
                p->nxt = list;
                list = p;
            }
            return 0;
        }
    "#;

    #[test]
    fn sll_classifies_as_list() {
        let (ir, res) = analyze(SLL, Level::L1);
        let list = ir.pvar_id("list").unwrap();
        let rep = structure_report(&res.exit, list);
        assert!(matches!(rep.class, ShapeClass::List | ShapeClass::Empty));
        assert!(!rep.any_shared);
        assert!(rep.may_be_null, "the zero-iteration path leaves list NULL");
    }

    #[test]
    fn tree_classifies_as_tree() {
        let src = r#"
            struct tnode { int v; struct tnode *l; struct tnode *r; };
            int main() {
                struct tnode *root; struct tnode *n; int i;
                root = (struct tnode *) malloc(sizeof(struct tnode));
                root->l = NULL; root->r = NULL;
                n = (struct tnode *) malloc(sizeof(struct tnode));
                n->l = NULL; n->r = NULL;
                root->l = n;
                n = (struct tnode *) malloc(sizeof(struct tnode));
                n->l = NULL; n->r = NULL;
                root->r = n;
                return 0;
            }
        "#;
        let (ir, res) = analyze(src, Level::L1);
        let root = ir.pvar_id("root").unwrap();
        let rep = structure_report(&res.exit, root);
        assert_eq!(rep.class, ShapeClass::Tree);
        assert!(!rep.any_shared, "tree children are never shared");
    }

    #[test]
    fn shared_node_classifies_as_dag() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *a; struct node *b; struct node *c;
                a = (struct node *) malloc(sizeof(struct node));
                b = (struct node *) malloc(sizeof(struct node));
                c = (struct node *) malloc(sizeof(struct node));
                a->nxt = c;
                b->nxt = c;
                return 0;
            }
        "#;
        let (ir, res) = analyze(src, Level::L1);
        let a = ir.pvar_id("a").unwrap();
        let rep = structure_report(&res.exit, a);
        assert_eq!(rep.class, ShapeClass::Dag);
        assert!(rep
            .shared_selectors
            .contains(ir.types.selector_id("nxt").unwrap()));
    }

    #[test]
    fn alias_queries() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *a; struct node *b; struct node *c;
                a = (struct node *) malloc(sizeof(struct node));
                b = a;
                c = (struct node *) malloc(sizeof(struct node));
                return 0;
            }
        "#;
        let (ir, res) = analyze(src, Level::L1);
        let a = ir.pvar_id("a").unwrap();
        let b = ir.pvar_id("b").unwrap();
        let c = ir.pvar_id("c").unwrap();
        assert!(may_alias(&res.exit, a, b));
        assert!(!may_alias(&res.exit, a, c));
        assert!(!may_be_null(&res.exit, a));
    }

    #[test]
    fn circular_list_detected_as_cyclic() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *h; struct node *p;
                h = (struct node *) malloc(sizeof(struct node));
                p = (struct node *) malloc(sizeof(struct node));
                h->nxt = p;
                p->nxt = h;
                return 0;
            }
        "#;
        let (ir, res) = analyze(src, Level::L1);
        let h = ir.pvar_id("h").unwrap();
        let rep = structure_report(&res.exit, h);
        assert!(rep.cycle_through_root);
        assert_eq!(rep.class, ShapeClass::Cyclic);
    }

    #[test]
    fn dll_classifies_as_doubly_linked() {
        let src = r#"
            struct node { int v; struct node *nxt; struct node *prv; };
            int main() {
                struct node *list; struct node *p; int i;
                list = NULL;
                for (i = 0; i < 9; i++) {
                    p = (struct node *) malloc(sizeof(struct node));
                    p->nxt = list;
                    p->prv = NULL;
                    if (list != NULL) { list->prv = p; }
                    list = p;
                }
                return 0;
            }
        "#;
        let (ir, res) = analyze(src, Level::L1);
        let list = ir.pvar_id("list").unwrap();
        let rep = structure_report(&res.exit, list);
        // SHSEL stays false for both selectors; CYCLELINKS present.
        assert!(
            rep.shared_selectors.is_empty(),
            "no per-selector sharing in a DLL"
        );
        assert!(rep.has_cycle_links);
        assert_eq!(rep.class, ShapeClass::DoublyLinked);
    }

    #[test]
    fn reachability_is_transitive() {
        let (ir, res) = analyze(SLL, Level::L1);
        let list = ir.pvar_id("list").unwrap();
        for g in res.exit.iter() {
            if let Some(root) = g.pl(list) {
                let region = reachable_from(g, root);
                // Every link target within the region is itself in the
                // region.
                for &n in &region {
                    for &(_, b) in g.out_links(n) {
                        assert!(region.contains(&b));
                    }
                }
            }
        }
    }
}
