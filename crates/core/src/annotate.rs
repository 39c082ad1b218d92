//! Source annotation — the paper's conclusion promises a pass that will
//! "determine the parallel loops and allow the automatic generation of
//! parallel code" (§6). This module closes that loop in the simplest
//! useful form: it re-emits the analyzed C source with an OpenMP-style
//! annotation comment above every loop the parallelism client proves
//! independent, and a warning above every loop it cannot.
//!
//! A loop's annotation sits above its loop statement, on the source line
//! the lowering recorded for it (`LoopInfo::line`).

use crate::engine::AnalysisResult;
use crate::parallel;
use psa_ir::FuncIr;
use std::collections::BTreeMap;

/// One annotation to be inserted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Annotation {
    /// 1-based source line the annotation precedes.
    pub line: u32,
    /// The comment text (without newline).
    pub text: String,
}

/// Compute the annotations for every loop.
pub fn loop_annotations(ir: &FuncIr, result: &AnalysisResult) -> Vec<Annotation> {
    let mut out = Vec::new();
    for report in parallel::loop_reports(ir, result) {
        let line = ir.loops[report.loop_id.0 as usize].line;
        let text = if report.parallelizable {
            if report.heap_writes.is_empty() {
                format!(
                    "/* psa: loop {} is PARALLELIZABLE (no heap writes) */",
                    report.loop_id
                )
            } else {
                format!(
                    "/* psa: loop {} is PARALLELIZABLE (writes are iteration-private) */",
                    report.loop_id
                )
            }
        } else {
            format!(
                "/* psa: loop {} is sequential: {} */",
                report.loop_id,
                report.reasons.join("; ")
            )
        };
        out.push(Annotation { line, text });
    }
    out.sort_by_key(|a| a.line);
    out
}

/// Re-emit `src` with the annotations inserted above their lines,
/// preserving the annotated line's indentation.
pub fn annotate_source(src: &str, annotations: &[Annotation]) -> String {
    let mut by_line: BTreeMap<u32, Vec<&Annotation>> = BTreeMap::new();
    for a in annotations {
        by_line.entry(a.line).or_default().push(a);
    }
    let mut out = String::with_capacity(src.len() + annotations.len() * 64);
    for (i, line) in src.lines().enumerate() {
        let lineno = (i + 1) as u32;
        if let Some(anns) = by_line.get(&lineno) {
            let indent: String = line.chars().take_while(|c| c.is_whitespace()).collect();
            for a in anns {
                out.push_str(&indent);
                out.push_str(&a.text);
                out.push('\n');
            }
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{AnalysisOptions, Analyzer};

    const SRC: &str = r#"struct node { int v; struct node *nxt; };
int main() {
    struct node *list;
    struct node *p;
    int i;
    list = NULL;
    for (i = 0; i < 8; i++) {
        p = (struct node *) malloc(sizeof(struct node));
        p->nxt = list;
        list = p;
    }
    p = list;
    while (p != NULL) {
        p->v = 2;
        p = p->nxt;
    }
    return 0;
}
"#;

    #[test]
    fn annotations_cover_both_loops() {
        let a = Analyzer::new(SRC, AnalysisOptions::default()).unwrap();
        let res = a.run().unwrap();
        let anns = loop_annotations(a.ir(), &res);
        assert_eq!(anns.len(), 2, "{anns:?}");
        assert!(anns.iter().all(|x| x.text.contains("PARALLELIZABLE")));
    }

    #[test]
    fn annotated_source_inserts_above_loop_statements() {
        let a = Analyzer::new(SRC, AnalysisOptions::default()).unwrap();
        let res = a.run().unwrap();
        let anns = loop_annotations(a.ir(), &res);
        let annotated = annotate_source(SRC, &anns);
        // Every original line survives.
        for line in SRC.lines() {
            assert!(annotated.contains(line));
        }
        // The annotations are present, each right above its loop statement
        // and indented like it.
        let lines: Vec<&str> = annotated.lines().collect();
        let at: Vec<usize> = (0..lines.len())
            .filter(|&i| lines[i].contains("/* psa: loop"))
            .collect();
        assert_eq!(at.len(), 2);
        for i in at {
            assert!(lines[i].starts_with("    /* psa: loop"), "{}", lines[i]);
            let next = lines[i + 1];
            assert!(
                next.starts_with("    for (") || next.starts_with("    while ("),
                "annotation precedes `{next}`"
            );
        }
    }

    #[test]
    fn sequential_loop_annotated_with_reason() {
        let src = r#"struct node { int v; struct node *nxt; struct node *dat; };
int main() {
    struct node *list;
    struct node *p;
    struct node *hub;
    int i;
    hub = (struct node *) malloc(sizeof(struct node));
    list = NULL;
    for (i = 0; i < 5; i++) {
        p = (struct node *) malloc(sizeof(struct node));
        p->nxt = list;
        p->dat = hub;
        list = p;
    }
    p = list;
    while (p != NULL) {
        p->dat->v = 1;
        p = p->nxt;
    }
    return 0;
}
"#;
        let a = Analyzer::new(src, AnalysisOptions::default()).unwrap();
        let res = a.run().unwrap();
        let anns = loop_annotations(a.ir(), &res);
        let seq: Vec<_> = anns
            .iter()
            .filter(|x| x.text.contains("sequential"))
            .collect();
        assert_eq!(
            seq.len(),
            1,
            "the hub-writing traversal is sequential: {anns:?}"
        );
        assert!(seq[0].text.contains("shared"));
    }
}
