//! Plain-text rendering of RSGs — the console sibling of the DOT exporter.
//! Nothing outside this module's tests calls it yet; it is kept for the
//! planned witness dumps of `psa explain` (ROADMAP.md item 6).

use crate::ctx::ShapeCtx;
use crate::graph::Rsg;
use crate::node::NodeId;
use std::fmt::Write;

/// Render one node line: id, type, flags, property sets.
pub fn node_line(g: &Rsg, ctx: &ShapeCtx, n: NodeId) -> String {
    let nd = g.node(n);
    let mut out = String::new();
    let _ = write!(
        out,
        "{n} {}{}",
        ctx.struct_names[nd.ty.0 as usize],
        if nd.summary { " (summary)" } else { "" }
    );
    let sel_names = |s: crate::sets::SelSet| -> String {
        let v: Vec<&str> = s
            .iter()
            .map(|x| ctx.selector_names[x.0 as usize].as_str())
            .collect();
        v.join(",")
    };
    if !nd.selin.is_empty() || !nd.pos_selin.is_empty() {
        let _ = write!(
            out,
            " in[{};{}]",
            sel_names(nd.selin),
            sel_names(nd.pos_selin)
        );
    }
    if !nd.selout.is_empty() || !nd.pos_selout.is_empty() {
        let _ = write!(
            out,
            " out[{};{}]",
            sel_names(nd.selout),
            sel_names(nd.pos_selout)
        );
    }
    if nd.shared {
        let _ = write!(out, " SHARED");
    }
    if !nd.shsel.is_empty() {
        let _ = write!(out, " shsel[{}]", sel_names(nd.shsel));
    }
    if !nd.cyclelinks.is_empty() {
        let pairs: Vec<String> = nd
            .cyclelinks
            .iter()
            .map(|(a, b)| {
                format!(
                    "<{},{}>",
                    ctx.selector_names[a.0 as usize], ctx.selector_names[b.0 as usize]
                )
            })
            .collect();
        let _ = write!(out, " cyc{}", pairs.join(""));
    }
    if !nd.touch.is_empty() {
        let names: Vec<&str> = nd
            .touch
            .iter()
            .map(|p| ctx.pvar_names[p.0 as usize].as_str())
            .collect();
        let _ = write!(out, " touch[{}]", names.join(","));
    }
    out
}

/// Render a whole graph as indented text.
pub fn rsg_text(g: &Rsg, ctx: &ShapeCtx) -> String {
    let mut out = String::new();
    for (v, k) in g.scalars() {
        let _ = writeln!(out, "  sc{v} == {k}");
    }
    for (p, n) in g.pl_iter() {
        let _ = writeln!(out, "  {} -> {n}", ctx.pvar_names[p.0 as usize]);
    }
    for n in g.node_ids() {
        let _ = writeln!(out, "  {}", node_line(g, ctx, n));
    }
    for (a, s, b) in g.links() {
        let _ = writeln!(out, "  {a} -{}-> {b}", ctx.selector_names[s.0 as usize]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;
    use psa_cfront::types::SelectorId;
    use psa_ir::PvarId;

    #[test]
    fn renders_fig1_graph() {
        let ctx = {
            let mut c = ShapeCtx::synthetic(1, 2);
            c.pvar_names[0] = "x".into();
            c.selector_names[0] = "nxt".into();
            c.selector_names[1] = "prv".into();
            c
        };
        let (g, _) = builder::fig1_dll(PvarId(0), 1, SelectorId(0), SelectorId(1));
        let text = rsg_text(&g, &ctx);
        assert!(text.contains("x -> n0"));
        assert!(text.contains("(summary)"));
        assert!(text.contains("cyc<nxt,prv>"));
        assert!(text.contains("-nxt->"));
        assert!(text.contains("SHARED"), "middle of a DLL is shared");
    }

    #[test]
    fn renders_touch_marks() {
        let ctx = ShapeCtx::synthetic(2, 1);
        let mut g = builder::singly_linked_list(2, 2, PvarId(0), SelectorId(0));
        let head = g.pl(PvarId(0)).unwrap();
        g.node_mut(head).touch.insert(PvarId(1));
        let text = rsg_text(&g, &ctx);
        assert!(text.contains("touch[p1]"));
        assert!(text.contains("in[;]") || text.contains("out[s0;]"));
    }
}
