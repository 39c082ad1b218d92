//! Abstract evaluation of shape assertions against analysis results.
//!
//! The contract is one-sided soundness: **`Holds` means the asserted
//! property is true in every concrete state represented by the RSRSG at
//! the assertion's program point.** Anything the abstraction cannot
//! certify is `MayFail` — never "false". (Concrete refutation is the
//! interpreter's job, in `psa-concrete`.) Per predicate:
//!
//! * `alias(p, q)` — exact per graph: pvar-pointed nodes are singular, so
//!   `pl(p) == pl(q)` decides both the positive and the negated form.
//! * `reach(x, y)` — positive form certified by a *must-edge* chain
//!   (singular source, must-out selector, unique target); negated form by
//!   the absence of any may-path.
//! * `shared(x->sel)` — negated form certified when no node reachable from
//!   `x` carries `SHSEL(sel)` (the paper's flagship query); the positive
//!   form is never certifiable, since SHSEL is may-information.
//! * `acyclic(x)` — positive form certified when no directed may-cycle
//!   exists in the region (a concrete cycle would map to a closed abstract
//!   walk under the coverage homomorphism); negated form when a must-edge
//!   cycle is must-reachable. Note a summarized list's self-looping summary
//!   node makes the positive form `MayFail` — honest: the compressed RSG
//!   genuinely covers a circular list too.
//! * `shape(x, class)` — compares against the **heuristic**
//!   [`queries::ShapeClass`]; a match is reported as `Holds` but carries no
//!   soundness guarantee (documented, and excluded from the fuzzing farm's
//!   soundness oracle).

use crate::engine::AnalysisResult;
use crate::queries;
use crate::rsrsg::Rsrsg;
use psa_cfront::asserts::ShapeName;
use psa_ir::{AssertPred, AssertSite, Assertion, FuncIr};
use psa_rsg::Rsg;

/// Verdict of the abstract check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbstractVerdict {
    /// True in every represented concrete state (sound, except for the
    /// heuristic `shape` predicate).
    Holds,
    /// Not certifiable by the abstraction.
    MayFail,
}

impl std::fmt::Display for AbstractVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbstractVerdict::Holds => write!(f, "holds"),
            AbstractVerdict::MayFail => write!(f, "may-fail"),
        }
    }
}

/// The RSRSG at an assertion's program point: the in-state of the anchor
/// statement (its block's entry state when it leads the block, the previous
/// statement's out-state otherwise), or the exit RSRSG.
pub fn rsrsg_at<'a>(ir: &FuncIr, result: &'a AnalysisResult, site: AssertSite) -> &'a Rsrsg {
    match site {
        AssertSite::Exit => &result.exit,
        AssertSite::Before(s) => {
            for (bi, b) in ir.blocks.iter().enumerate() {
                if let Some(pos) = b.stmts.iter().position(|&x| x == s) {
                    return if pos == 0 {
                        &result.block_in[bi]
                    } else {
                        result.at(b.stmts[pos - 1])
                    };
                }
            }
            // A statement outside every block cannot execute; exit state is
            // a safe stand-in (the site is unreachable anyway).
            &result.exit
        }
    }
}

/// Evaluate one assertion against the RSRSG at its program point.
///
/// Degradation rule: a stopped run, a `Before(s)` site whose statement `s`
/// is degraded, and an `Exit` site of a run with any degraded statement
/// certify nothing — the verdict is `MayFail`.
pub fn eval_assertion(ir: &FuncIr, result: &AnalysisResult, a: &Assertion) -> AbstractVerdict {
    let degraded = match a.site {
        AssertSite::Before(s) => result.degraded[s.0 as usize],
        AssertSite::Exit => result.any_degraded(),
    };
    if result.stopped.is_some() || degraded {
        return AbstractVerdict::MayFail;
    }
    eval_on_rsrsg(rsrsg_at(ir, result, a.site), a)
}

/// Evaluate one assertion against an explicit RSRSG. An empty RSRSG means
/// the program point is unreachable: every assertion holds vacuously.
pub fn eval_on_rsrsg(rsrsg: &Rsrsg, a: &Assertion) -> AbstractVerdict {
    if rsrsg.is_empty() {
        return AbstractVerdict::Holds;
    }
    let certified = if let AssertPred::Shape(p, want) = a.pred {
        // Heuristic: classify the whole RSRSG and compare.
        let got = queries::structure_report(rsrsg, p).class;
        (shape_class_name(got) == want) != a.negated
    } else if a.negated {
        rsrsg.iter().all(|g| cert_false(g, &a.pred))
    } else {
        rsrsg.iter().all(|g| cert_true(g, &a.pred))
    };
    if certified {
        AbstractVerdict::Holds
    } else {
        AbstractVerdict::MayFail
    }
}

/// Map the heuristic [`queries::ShapeClass`] onto assertion shape names.
pub fn shape_class_name(c: queries::ShapeClass) -> ShapeName {
    match c {
        queries::ShapeClass::Empty => ShapeName::Empty,
        queries::ShapeClass::List => ShapeName::List,
        queries::ShapeClass::Tree => ShapeName::Tree,
        queries::ShapeClass::DoublyLinked => ShapeName::Dll,
        queries::ShapeClass::Dag => ShapeName::Dag,
        queries::ShapeClass::Cyclic => ShapeName::Cyclic,
    }
}

/// Is the predicate definitely true in all configurations of `g`?
fn cert_true(g: &Rsg, pred: &AssertPred) -> bool {
    match *pred {
        AssertPred::Alias(p, q) => match (g.pl(p), g.pl(q)) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        },
        AssertPred::Reach(x, y) => match (g.pl(x), g.pl(y)) {
            (Some(a), Some(b)) => queries::must_reach(g, a, b),
            _ => false,
        },
        // SHSEL is may-information: the abstraction can never promise a
        // location *is* referenced twice.
        AssertPred::Shared(_, _) => false,
        AssertPred::Acyclic(x) => match g.pl(x) {
            None => true, // empty region is acyclic
            Some(root) => !queries::may_cycle_from(g, root),
        },
        AssertPred::Shape(_, _) => unreachable!("shape handled on the RSRSG"),
    }
}

/// Is the predicate definitely false in all configurations of `g`?
fn cert_false(g: &Rsg, pred: &AssertPred) -> bool {
    match *pred {
        // Exact complement: distinct (or unbound) singular pl targets
        // cannot coincide concretely.
        AssertPred::Alias(p, q) => !matches!((g.pl(p), g.pl(q)), (Some(a), Some(b)) if a == b),
        AssertPred::Reach(x, y) => match (g.pl(x), g.pl(y)) {
            (Some(a), Some(b)) => !queries::may_reach(g, a, b),
            // Either side NULL: nothing is reached.
            _ => true,
        },
        AssertPred::Shared(x, sel) => match g.pl(x) {
            None => true,
            Some(root) => queries::reachable_from(g, root)
                .into_iter()
                .all(|n| !g.node(n).shsel.contains(sel)),
        },
        AssertPred::Acyclic(x) => match g.pl(x) {
            None => false, // an empty region IS acyclic; !acyclic is false
            Some(root) => queries::must_cycle_from(g, root),
        },
        AssertPred::Shape(_, _) => unreachable!("shape handled on the RSRSG"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{AnalysisOptions, Analyzer};
    use psa_ir::asserts_of_source;

    fn verdicts(src: &str) -> Vec<(String, AbstractVerdict)> {
        let a = Analyzer::new(src, AnalysisOptions::default()).unwrap();
        let res = a.run().unwrap();
        let asserts = asserts_of_source(src, a.ir()).unwrap();
        asserts
            .iter()
            .map(|x| (x.text.clone(), eval_assertion(a.ir(), &res, x)))
            .collect()
    }

    #[test]
    fn alias_certified_both_ways() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *a; struct node *b; struct node *c;
                a = (struct node *) malloc(sizeof(struct node));
                b = a;
                c = (struct node *) malloc(sizeof(struct node));
                // @assert alias(a, b)
                // @assert !alias(a, c)
                return 0;
            }
        "#;
        for (text, v) in verdicts(src) {
            assert_eq!(v, AbstractVerdict::Holds, "{text}");
        }
    }

    #[test]
    fn must_reach_certified_on_straight_line() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *h; struct node *t;
                t = (struct node *) malloc(sizeof(struct node));
                h = (struct node *) malloc(sizeof(struct node));
                h->nxt = t;
                // @assert reach(h, t)
                // @assert !reach(t, h)
                // @assert acyclic(h)
                return 0;
            }
        "#;
        for (text, v) in verdicts(src) {
            assert_eq!(v, AbstractVerdict::Holds, "{text}");
        }
    }

    #[test]
    fn unshared_list_certified_cycle_not() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *list; struct node *p; int i;
                list = NULL;
                for (i = 0; i < 9; i++) {
                    p = (struct node *) malloc(sizeof(struct node));
                    p->nxt = list;
                    list = p;
                }
                // @assert !shared(list->nxt)
                // @assert shared(list->nxt)
                // @assert acyclic(list)
                return 0;
            }
        "#;
        let v = verdicts(src);
        assert_eq!(v[0].1, AbstractVerdict::Holds, "!shared certified");
        assert_eq!(v[1].1, AbstractVerdict::MayFail, "shared never certified");
        // The summarized list node self-loops in the compressed RSG, so
        // abstract acyclicity is honestly only may-fail here.
        assert_eq!(v[2].1, AbstractVerdict::MayFail);
    }

    #[test]
    fn circular_list_not_acyclic_and_must_cycle() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *h; struct node *p;
                h = (struct node *) malloc(sizeof(struct node));
                p = (struct node *) malloc(sizeof(struct node));
                h->nxt = p;
                p->nxt = h;
                // @assert !acyclic(h)
                // @assert shape(h, cyclic)
                return 0;
            }
        "#;
        for (text, v) in verdicts(src) {
            assert_eq!(v, AbstractVerdict::Holds, "{text}");
        }
    }

    #[test]
    fn degraded_sites_certify_nothing() {
        // Both assertions hold on the unbudgeted run. Under a one-node cap
        // the loop body is force-summarized: its statements are degraded,
        // so neither the site before one of them nor the exit may claim
        // `holds` (the rule memory verdicts and loop reports obey too).
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *list; struct node *p; int i;
                list = NULL;
                for (i = 0; i < 5; i++) {
                    p = (struct node *) malloc(sizeof(struct node));
                    // @assert !alias(p, list)
                    p->nxt = list;
                    list = p;
                }
                // @assert !shared(list->nxt)
                return 0;
            }
        "#;
        for (text, v) in verdicts(src) {
            assert_eq!(v, AbstractVerdict::Holds, "unbudgeted {text}");
        }
        let options = AnalysisOptions {
            level: Some(psa_rsg::Level::L2),
            budget: crate::stats::Budget {
                max_nodes: Some(1),
                ..crate::stats::Budget::default()
            },
            ..AnalysisOptions::default()
        };
        let a = Analyzer::new(src, options).unwrap();
        let res = a.run().unwrap();
        assert!(res.is_complete(), "the node cap degrades without stopping");
        let asserts = asserts_of_source(src, a.ir()).unwrap();
        let AssertSite::Before(s) = asserts[0].site else {
            panic!("the in-loop assertion anchors before a statement");
        };
        assert!(res.degraded[s.0 as usize], "{s} is degraded");
        assert_eq!(asserts[1].site, AssertSite::Exit);
        for x in &asserts {
            assert_eq!(
                eval_assertion(a.ir(), &res, x),
                AbstractVerdict::MayFail,
                "{}",
                x.text
            );
        }
    }

    #[test]
    fn unreachable_point_holds_vacuously() {
        let src = r#"
            struct node { int v; struct node *nxt; };
            int main() {
                struct node *a; struct node *b;
                a = NULL;
                if (a != NULL) {
                    // @assert alias(a, b)
                    b = a;
                }
                return 0;
            }
        "#;
        let v = verdicts(src);
        assert_eq!(v[0].1, AbstractVerdict::Holds, "dead code: vacuous");
    }
}
