//! Concrete evaluation of shape assertions, and the combined
//! abstract + concrete verdict.
//!
//! Each assertion is checked twice:
//!
//! 1. **abstractly** against the RSRSG at its program point
//!    ([`psa_core::asserts`]) — `holds` is a soundness claim;
//! 2. **concretely** against every interpreter state observed at that
//!    point across the executions driven by the given seeds — truthful
//!    heap checks, no abstraction.
//!
//! The combination is the user-facing verdict: `concrete-violation` when
//! some execution refutes the assertion, otherwise the abstract verdict
//! (`holds` / `may-fail`). An assertion that is abstractly `holds` yet
//! concretely violated is a **soundness mismatch** — an analyzer bug — and
//! is what the fuzzing farm hunts for (the heuristic `shape` predicate is
//! excluded from that oracle).

use crate::heap::{ConcreteState, Loc};
use crate::interp::{execute, ExecOutcome, ExecResult, InterpConfig};
use psa_cfront::asserts::ShapeName;
use psa_cfront::types::SelectorId;
use psa_core::asserts::AbstractVerdict;
use psa_core::engine::{AnalysisResult, Engine, EngineConfig};
use psa_ir::{AssertPred, AssertSite, Assertion, FuncIr, PvarId};
use psa_rsg::Level;

/// The combined verdict for one assertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Certified by the abstract semantics and never concretely refuted.
    Holds,
    /// Not certified, not refuted.
    MayFail,
    /// Refuted by at least one concrete execution.
    ConcreteViolation,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Holds => write!(f, "holds"),
            Verdict::MayFail => write!(f, "may-fail"),
            Verdict::ConcreteViolation => write!(f, "concrete-violation"),
        }
    }
}

/// Everything known about one checked assertion.
#[derive(Debug, Clone)]
pub struct AssertOutcome {
    /// The assertion.
    pub assertion: Assertion,
    /// The abstract verdict (`MayFail` on a budget-stopped run or at a
    /// degraded site: see [`psa_core::asserts::eval_assertion`]).
    pub abstract_verdict: AbstractVerdict,
    /// Concrete states inspected at the assertion's program point.
    pub concrete_checked: usize,
    /// How many of them refuted the assertion.
    pub concrete_violations: usize,
    /// Seed of the first refuting run, for reproduction.
    pub first_violation_seed: Option<u64>,
    /// The combined verdict.
    pub verdict: Verdict,
    /// True for the `shape` predicate, whose classification is heuristic —
    /// excluded from the soundness oracle.
    pub heuristic: bool,
}

impl AssertOutcome {
    /// False exactly when the abstract claim and concrete evidence
    /// contradict: `holds` abstractly, violated concretely.
    pub fn is_sound(&self) -> bool {
        !(self.abstract_verdict == AbstractVerdict::Holds && self.concrete_violations > 0)
    }
}

/// Report over all assertions of one program at one level.
#[derive(Debug)]
pub struct AssertReport {
    /// The analysis level checked against.
    pub level: Level,
    /// Concrete executions performed.
    pub runs: usize,
    /// `Some(reason)` when the analysis stopped on a budget cap before its
    /// fixed point: abstract verdicts are downgraded to `may-fail` and no
    /// soundness claim is made.
    pub inconclusive: Option<String>,
    /// Per-assertion outcomes, in source order.
    pub outcomes: Vec<AssertOutcome>,
}

impl AssertReport {
    /// Outcomes where a sound abstract claim is concretely refuted —
    /// analyzer bugs. Heuristic (`shape`) outcomes are excluded.
    pub fn soundness_mismatches(&self) -> Vec<&AssertOutcome> {
        self.outcomes
            .iter()
            .filter(|o| !o.heuristic && !o.is_sound())
            .collect()
    }

    /// `(holds, may-fail, concrete-violation)` counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for o in &self.outcomes {
            match o.verdict {
                Verdict::Holds => c.0 += 1,
                Verdict::MayFail => c.1 += 1,
                Verdict::ConcreteViolation => c.2 += 1,
            }
        }
        c
    }
}

/// Evaluate resolved assertions against a finished analysis and concrete
/// executions under `seeds`. This is the core entry point shared by the
/// CLI (`--check asserts`), the corpus replay tests and the fuzzing farm.
pub fn evaluate_asserts(
    ir: &FuncIr,
    result: &AnalysisResult,
    asserts: &[Assertion],
    seeds: &[u64],
) -> AssertReport {
    let execs = execute(ir, &InterpConfig::default(), seeds);
    evaluate_asserts_on(ir, result, asserts, &execs)
}

/// [`evaluate_asserts`] over seeded executions already in hand (see
/// [`execute`]). The CLI's `--check` runs them once for both of its
/// oracles; the fuzzing farm runs them once, with a lowered step budget,
/// for all of its oracles. Cyclic generatees otherwise walk to the
/// 20k-step cap while snapshotting a growing heap at every step.
pub fn evaluate_asserts_on(
    ir: &FuncIr,
    result: &AnalysisResult,
    asserts: &[Assertion],
    execs: &[(u64, ExecResult)],
) -> AssertReport {
    let inconclusive = result
        .stopped
        .map(|k| format!("analysis stopped early: {k}"));
    let outcomes = asserts
        .iter()
        .map(|a| {
            let abstract_verdict = psa_core::asserts::eval_assertion(ir, result, a);
            let mut checked = 0;
            let mut violations = 0;
            let mut first_seed = None;
            for (seed, exec) in execs {
                for st in states_at_site(exec, a.site) {
                    checked += 1;
                    if !assert_holds_concrete(st, a) {
                        violations += 1;
                        first_seed.get_or_insert(*seed);
                    }
                }
            }
            let verdict = if violations > 0 {
                Verdict::ConcreteViolation
            } else {
                match abstract_verdict {
                    AbstractVerdict::Holds => Verdict::Holds,
                    AbstractVerdict::MayFail => Verdict::MayFail,
                }
            };
            AssertOutcome {
                assertion: a.clone(),
                abstract_verdict,
                concrete_checked: checked,
                concrete_violations: violations,
                first_violation_seed: first_seed,
                verdict,
                heuristic: matches!(a.pred, AssertPred::Shape(_, _)),
            }
        })
        .collect();

    AssertReport {
        level: result.level,
        runs: execs.len(),
        inconclusive,
        outcomes,
    }
}

/// Parse, lower, resolve assertions, analyze at `level` and evaluate —
/// the one-call form used by tests and the corpus replay.
pub fn check_asserts(src: &str, level: Level, seeds: &[u64]) -> Result<AssertReport, String> {
    check_asserts_with(src, EngineConfig::at_level(level), seeds)
}

/// [`check_asserts`] with full engine-configuration control.
pub fn check_asserts_with(
    src: &str,
    config: EngineConfig,
    seeds: &[u64],
) -> Result<AssertReport, String> {
    let (program, table) = psa_cfront::parse_and_type(src).map_err(|e| e.to_string())?;
    let ir = psa_ir::lower_program(&program, &table, "main").map_err(|e| e.to_string())?;
    let asserts = psa_ir::asserts_of_source(src, &ir).map_err(|e| e.to_string())?;
    let result = Engine::new(&ir, config).run().map_err(|e| e.to_string())?;
    Ok(evaluate_asserts(&ir, &result, &asserts, seeds))
}

/// The concrete states observed at an assertion site during one execution.
/// `Before(s)`: the state just before each execution of `s` (the previous
/// trace point's state, or the empty initial state). `Exit`: the final
/// state of runs that actually returned.
fn states_at_site(exec: &ExecResult, site: AssertSite) -> Vec<&ConcreteState> {
    static INITIAL: std::sync::OnceLock<ConcreteState> = std::sync::OnceLock::new();
    let initial = INITIAL.get_or_init(ConcreteState::new);
    match site {
        AssertSite::Exit => {
            if matches!(exec.outcome, ExecOutcome::Returned) {
                vec![&exec.final_state]
            } else {
                Vec::new()
            }
        }
        AssertSite::Before(s) => {
            let mut states = Vec::new();
            for (i, point) in exec.trace.iter().enumerate() {
                if point.stmt == s {
                    states.push(if i == 0 {
                        initial
                    } else {
                        &exec.trace[i - 1].state
                    });
                }
            }
            states
        }
    }
}

/// Truth of a (possibly negated) assertion in one concrete state.
pub fn assert_holds_concrete(st: &ConcreteState, a: &Assertion) -> bool {
    pred_holds_concrete(st, &a.pred) != a.negated
}

/// Truth of the positive predicate in one concrete state.
pub fn pred_holds_concrete(st: &ConcreteState, pred: &AssertPred) -> bool {
    match *pred {
        AssertPred::Alias(p, q) => match (st.pvar(p), st.pvar(q)) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        },
        AssertPred::Reach(x, y) => match (st.pvar(x), st.pvar(y)) {
            (Some(a), Some(b)) => heap_region(st, a).contains(&b),
            _ => false,
        },
        AssertPred::Shared(x, sel) => match st.pvar(x) {
            None => false,
            Some(root) => {
                let region = heap_region(st, root);
                let reachable = st.reachable();
                region.iter().any(|&m| {
                    st.in_refs(m, &reachable)
                        .iter()
                        .filter(|&&(_, s)| s == sel)
                        .count()
                        >= 2
                })
            }
        },
        AssertPred::Acyclic(x) => match st.pvar(x) {
            None => true,
            Some(root) => !has_cycle(st, root),
        },
        AssertPred::Shape(x, want) => shape_satisfies(st, x, want),
    }
}

/// Locations reachable from `root` through pointer fields (including
/// `root`), sorted.
fn heap_region(st: &ConcreteState, root: Loc) -> Vec<Loc> {
    let mut seen = vec![root];
    let mut stack = vec![root];
    while let Some(l) = stack.pop() {
        for (&_sel, &field) in &st.object(l).fields {
            if let Some(m) = field {
                if !seen.contains(&m) {
                    seen.push(m);
                    stack.push(m);
                }
            }
        }
    }
    seen.sort_unstable();
    seen
}

/// Directed pointer edges `(src, sel, dst)` within the region of `root`.
fn region_edges(st: &ConcreteState, region: &[Loc]) -> Vec<(Loc, SelectorId, Loc)> {
    let mut edges = Vec::new();
    for &l in region {
        for (&sel, &field) in &st.object(l).fields {
            if let Some(m) = field {
                edges.push((l, sel, m));
            }
        }
    }
    edges
}

/// Is there a directed cycle among the locations reachable from `root`?
fn has_cycle(st: &ConcreteState, root: Loc) -> bool {
    let region = heap_region(st, root);
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color: std::collections::BTreeMap<Loc, u8> =
        region.iter().map(|&l| (l, WHITE)).collect();
    for &start in &region {
        if color[&start] != WHITE {
            continue;
        }
        let mut stack: Vec<(Loc, Vec<Loc>, usize)> = vec![(start, succ_locs(st, start), 0)];
        *color.get_mut(&start).unwrap() = GRAY;
        while let Some(top) = stack.last_mut() {
            if top.2 < top.1.len() {
                let b = top.1[top.2];
                top.2 += 1;
                match color[&b] {
                    GRAY => return true,
                    WHITE => {
                        *color.get_mut(&b).unwrap() = GRAY;
                        let next = succ_locs(st, b);
                        stack.push((b, next, 0));
                    }
                    _ => {}
                }
            } else {
                let n = top.0;
                *color.get_mut(&n).unwrap() = BLACK;
                stack.pop();
            }
        }
    }
    false
}

fn succ_locs(st: &ConcreteState, l: Loc) -> Vec<Loc> {
    st.object(l).fields.values().filter_map(|&f| f).collect()
}

/// Does the structure rooted at `x` satisfy shape class `want`? These are
/// *satisfaction sets*, deliberately permissive so that every structure the
/// abstract classifier labels with a class concretely satisfies it:
/// `list` ⊂ `tree` ⊂ `dag`, and `dag` admits any structure at all.
fn shape_satisfies(st: &ConcreteState, x: PvarId, want: ShapeName) -> bool {
    let root = match st.pvar(x) {
        // The empty structure satisfies every acyclic class (an empty list
        // IS a list), but has no cycle.
        None => return want != ShapeName::Cyclic,
        Some(l) => l,
    };
    if want == ShapeName::Empty {
        return false;
    }
    let region = heap_region(st, root);
    let edges = region_edges(st, &region);
    match want {
        ShapeName::Empty => unreachable!(),
        ShapeName::Dag => true,
        ShapeName::Cyclic => has_cycle(st, root),
        ShapeName::List => {
            // A chain: ≤ 1 populated out-field, ≤ 1 in-edge (within the
            // region), and no cycle.
            !has_cycle(st, root)
                && region.iter().all(|&l| {
                    let out = edges.iter().filter(|&&(a, _, _)| a == l).count();
                    let inn = edges.iter().filter(|&&(_, _, b)| b == l).count();
                    out <= 1 && inn <= 1
                })
        }
        ShapeName::Tree => {
            !has_cycle(st, root)
                && region
                    .iter()
                    .all(|&l| edges.iter().filter(|&&(_, _, b)| b == l).count() <= 1)
        }
        ShapeName::Dll => {
            // Every forward edge must be paired with a back edge, and the
            // resulting undirected neighbor graph must be a simple chain:
            // n-1 distinct pairs, each location with ≤ 2 neighbors.
            let mut pairs: Vec<(Loc, Loc)> = Vec::new();
            for &(a, _, b) in &edges {
                if a == b {
                    return false; // self-loop is not a DLL link
                }
                if !edges.iter().any(|&(m, _, l)| m == b && l == a) {
                    return false; // unpaired edge
                }
                let key = if a < b { (a, b) } else { (b, a) };
                if !pairs.contains(&key) {
                    pairs.push(key);
                }
            }
            if pairs.len() + 1 != region.len() {
                return false;
            }
            region
                .iter()
                .all(|&l| pairs.iter().filter(|&&(a, b)| a == l || b == l).count() <= 2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(src: &str, level: Level) -> AssertReport {
        check_asserts(src, level, &[1, 2, 3]).unwrap()
    }

    #[test]
    fn all_five_forms_evaluate_concretely() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *h; struct node *t; struct node *u;
                t = (struct node *) malloc(sizeof(struct node));
                h = (struct node *) malloc(sizeof(struct node));
                h->nxt = t;
                u = h;
                // @assert shape(h, list)
                // @assert !shared(h->nxt)
                // @assert reach(h, t)
                // @assert alias(u, h)
                // @assert !alias(h, t)
                // @assert acyclic(h)
                return 0;
            }
        "#;
        let rep = report(src, Level::L1);
        assert_eq!(rep.outcomes.len(), 6);
        for o in &rep.outcomes {
            assert_eq!(o.verdict, Verdict::Holds, "{}", o.assertion.text);
            assert!(o.concrete_checked > 0, "{}", o.assertion.text);
        }
        assert!(rep.soundness_mismatches().is_empty());
    }

    #[test]
    fn concrete_violation_detected() {
        // The assertion is simply wrong: h and t never alias.
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *h; struct node *t;
                h = (struct node *) malloc(sizeof(struct node));
                t = (struct node *) malloc(sizeof(struct node));
                // @assert alias(h, t)
                return 0;
            }
        "#;
        let rep = report(src, Level::L1);
        assert_eq!(rep.outcomes[0].verdict, Verdict::ConcreteViolation);
        assert!(rep.outcomes[0].first_violation_seed.is_some());
        // The abstraction never certified it, so this is not a soundness
        // mismatch — just a failed assertion.
        assert!(rep.soundness_mismatches().is_empty());
    }

    #[test]
    fn shared_diamond_refutes_not_shared() {
        let src = r#"
            struct node { int v; struct node *a; struct node *b; };
            int main() {
                struct node *r; struct node *c;
                r = (struct node *) malloc(sizeof(struct node));
                c = (struct node *) malloc(sizeof(struct node));
                r->a = c;
                r->b = NULL;
                // two in-refs through `a`? no — one through a, so first
                // make a second referrer:
                r->b = r;
                // @assert !shared(r->a)
                return 0;
            }
        "#;
        // r->b = r makes a self-ref through b, not a second `a` ref: the
        // !shared(r->a) assertion is concretely TRUE here.
        let rep = report(src, Level::L1);
        assert_ne!(rep.outcomes[0].verdict, Verdict::ConcreteViolation);

        // Now an actual double `a`-reference.
        let src2 = r#"
            struct node { int v; struct node *a; struct node *b; };
            int main() {
                struct node *r; struct node *s; struct node *c;
                r = (struct node *) malloc(sizeof(struct node));
                s = (struct node *) malloc(sizeof(struct node));
                c = (struct node *) malloc(sizeof(struct node));
                r->a = c;
                s->a = c;
                r->b = s;
                // @assert !shared(r->a)
                return 0;
            }
        "#;
        let rep2 = report(src2, Level::L1);
        assert_eq!(rep2.outcomes[0].verdict, Verdict::ConcreteViolation);
        assert!(
            rep2.soundness_mismatches().is_empty(),
            "abstract must not certify"
        );
    }

    #[test]
    fn loop_site_checks_every_iteration() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *list; struct node *p; int i;
                list = NULL;
                for (i = 0; i < 5; i++) {
                    p = (struct node *) malloc(sizeof(struct node));
                    // @assert acyclic(list)
                    p->nxt = list;
                    list = p;
                }
                return 0;
            }
        "#;
        // Scalar loop conditions are opaque to the interpreter, so the
        // iteration count varies by seed; spread seeds to guarantee the
        // in-loop site is reached repeatedly.
        let rep = check_asserts(src, Level::L1, &(0..16u64).collect::<Vec<_>>()).unwrap();
        let o = &rep.outcomes[0];
        assert!(o.concrete_checked >= 4, "checked {}", o.concrete_checked);
        assert_eq!(o.verdict, Verdict::MayFail); // abstract can't certify in-loop
    }

    #[test]
    fn budget_stop_is_inconclusive() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *p; int i;
                p = NULL;
                for (i = 0; i < 3; i++) {
                    p = (struct node *) malloc(sizeof(struct node));
                }
                // @assert acyclic(p)
                return 0;
            }
        "#;
        let config = EngineConfig {
            budget: psa_core::stats::Budget {
                deadline: Some(std::time::Duration::ZERO),
                ..psa_core::stats::Budget::default()
            },
            ..EngineConfig::at_level(Level::L1)
        };
        let rep = check_asserts_with(src, config, &[1]).unwrap();
        assert!(rep.inconclusive.is_some());
        assert_eq!(rep.outcomes[0].abstract_verdict, AbstractVerdict::MayFail);
    }

    #[test]
    fn dll_shape_satisfied() {
        let src = r#"
            struct node { int v; struct node *nxt; struct node *prv; };
            int main() {
                struct node *a; struct node *b; struct node *c;
                a = (struct node *) malloc(sizeof(struct node));
                b = (struct node *) malloc(sizeof(struct node));
                c = (struct node *) malloc(sizeof(struct node));
                a->nxt = b; b->prv = a;
                b->nxt = c; c->prv = b;
                // @assert shape(a, dll)
                return 0;
            }
        "#;
        let rep = report(src, Level::L1);
        assert_ne!(rep.outcomes[0].verdict, Verdict::ConcreteViolation);
    }
}
