//! Behavioural tests of the RSRSG container: reduction, subsumption-based
//! idempotence, and the widening join.

use psa::core::rsrsg::Rsrsg;
use psa::core::semantics::{transfer_rsrsg, GraphAction, TransferCtx};
use psa::core::stats::AnalysisStats;
use psa::ir::{PtrStmt, PvarId};
use psa::rsg::{builder, Level, Rsg, ShapeCtx};
use psa_cfront::types::SelectorId;

fn sel(i: u32) -> SelectorId {
    SelectorId(i)
}

#[test]
fn reinserting_covered_graphs_is_a_noop() {
    let ctx = ShapeCtx::synthetic(1, 1);
    let mut s = Rsrsg::new();
    // Insert lists of many lengths: they reduce to few graphs.
    for len in 2..10 {
        s.insert(
            builder::singly_linked_list(len, 1, PvarId(0), sel(0)),
            &ctx,
            Level::L1,
        );
    }
    let sig = s.signature();
    let size = s.len();
    // Re-inserting every concrete length again changes nothing: each is
    // subsumed by an existing member.
    for len in 2..10 {
        s.insert(
            builder::singly_linked_list(len, 1, PvarId(0), sel(0)),
            &ctx,
            Level::L1,
        );
    }
    assert_eq!(s.len(), size);
    assert_eq!(s.signature(), sig, "idempotent under covered re-insertion");
}

#[test]
fn candidate_generalizing_members_replaces_them() {
    let ctx = ShapeCtx::synthetic(1, 1);
    let mut s = Rsrsg::new();
    let concrete = builder::singly_linked_list(4, 1, PvarId(0), sel(0));
    s.insert(concrete.clone(), &ctx, Level::L1);
    // The compressed/united general list covers the concrete one.
    let general = psa::rsg::compress::compress(
        builder::singly_linked_list(6, 1, PvarId(0), sel(0)),
        &ctx,
        Level::L1,
    );
    let j = psa::rsg::join::join(&general, &concrete, Level::L1);
    s.insert(j, &ctx, Level::L1);
    // The specific member was dropped in favour of the general one.
    assert_eq!(s.len(), 1);
}

#[test]
fn widening_respects_domains() {
    let ctx = ShapeCtx::synthetic(3, 1);
    let mut s = Rsrsg::new();
    // Graphs with different bound-pvar sets can never be force-joined.
    for p in 0..3u32 {
        s.insert(
            builder::singly_linked_list(3, 3, PvarId(p), sel(0)),
            &ctx,
            Level::L1,
        );
    }
    assert_eq!(s.len(), 3);
    s.widen(&ctx, Level::L1, 1);
    assert_eq!(s.len(), 3, "widening cannot merge different domains");
}

#[test]
fn widening_merges_same_signature_variants() {
    let ctx = ShapeCtx::synthetic(1, 2);
    let mut s = Rsrsg::new();
    // Two incompatible variants (different refpats on the head through a
    // second selector) but identical widening signatures.
    let g1 = builder::singly_linked_list(3, 1, PvarId(0), sel(0));
    let mut g2 = builder::singly_linked_list(3, 1, PvarId(0), sel(0));
    let head = g2.pl(PvarId(0)).unwrap();
    let tail = g2.node_ids().last().unwrap();
    g2.add_link(head, sel(1), tail);
    g2.node_mut(head).set_must_out(sel(1));
    g2.node_mut(tail).set_must_in(sel(1));
    s.insert(g1, &ctx, Level::L1);
    s.insert(g2, &ctx, Level::L1);
    let before = s.len();
    s.widen(&ctx, Level::L1, 1);
    assert!(s.len() <= before);
    assert_eq!(
        s.len(),
        1,
        "same-signature graphs force-join under pressure"
    );
}

#[test]
fn filter_and_map_preserve_reduction() {
    let ctx = ShapeCtx::synthetic(2, 1);
    let mut s = Rsrsg::new();
    s.insert(
        builder::singly_linked_list(3, 2, PvarId(0), sel(0)),
        &ctx,
        Level::L1,
    );
    s.insert(Rsg::empty(2), &ctx, Level::L1);
    let bound = s.filter(|g| g.pl(PvarId(0)).is_some());
    assert_eq!(bound.len(), 1);
    let cleared = transfer_rsrsg(
        &s,
        &GraphAction::Ptr(&PtrStmt::Nil(PvarId(0))),
        &TransferCtx::new(&ctx, Level::L1, &[]),
        &mut AnalysisStats::default(),
    );
    // Both members map to the empty graph and dedup.
    assert_eq!(cleared.len(), 1);
}

#[test]
fn scalar_facts_separate_members() {
    let ctx = ShapeCtx::synthetic(1, 1);
    let mut with_flag = Rsg::empty(1);
    with_flag.set_scalar(0, 1);
    let without = Rsg::empty(1);
    let mut s = Rsrsg::new();
    s.insert(with_flag, &ctx, Level::L1);
    s.insert(without, &ctx, Level::L1);
    // `done == 1` and `done unknown` describe different configuration sets;
    // the unknown graph subsumes the known one, so reduction keeps only it.
    assert_eq!(s.len(), 1);
    assert!(s.graphs()[0].scalar(0).is_none());

    // In the other insertion order the general member absorbs the specific
    // immediately.
    let mut s2 = Rsrsg::new();
    s2.insert(Rsg::empty(1), &ctx, Level::L1);
    let mut f = Rsg::empty(1);
    f.set_scalar(0, 1);
    s2.insert(f, &ctx, Level::L1);
    assert_eq!(s2.len(), 1);
    assert!(s2.graphs()[0].scalar(0).is_none());
}

#[test]
fn distinct_flag_values_coexist_when_not_subsumed() {
    let ctx = ShapeCtx::synthetic(1, 1);
    // Attach different *shapes* so neither subsumes the other, with
    // different flag values.
    let mut a = builder::singly_linked_list(2, 1, PvarId(0), sel(0));
    a.set_scalar(0, 0);
    let mut b = builder::singly_linked_list(3, 1, PvarId(0), sel(0));
    b.set_scalar(0, 1);
    let mut s = Rsrsg::new();
    s.insert(a, &ctx, Level::L1);
    s.insert(b, &ctx, Level::L1);
    assert_eq!(
        s.len(),
        2,
        "different flag values keep configurations apart"
    );
}
