//! End-to-end tests of the `psa` binary.

use std::process::Command;

fn psa() -> Command {
    Command::new(env!("CARGO_BIN_EXE_psa"))
}

fn write_tmp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("psa-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

const LIST: &str = r#"
struct node { int v; struct node *nxt; };
int main() {
    struct node *list;
    struct node *p;
    int i;
    list = NULL;
    for (i = 0; i < 5; i++) {
        p = (struct node *) malloc(sizeof(struct node));
        p->nxt = list;
        list = p;
    }
    return 0;
}
"#;

#[test]
fn analyze_prints_summary() {
    let f = write_tmp("list.c", LIST);
    let out = psa()
        .args(["analyze", f.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("level L1"));
    assert!(stdout.contains("list: List") || stdout.contains("list:"));
}

#[test]
fn analyze_json_is_valid() {
    let f = write_tmp("list_json.c", LIST);
    let out = psa()
        .args(["analyze", f.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let v = psa_core::json::Json::parse(stdout.trim()).expect("valid JSON");
    assert_eq!(v.get("function").unwrap().as_str(), Some("main"));
    assert!(!v.get("loops").unwrap().as_array().unwrap().is_empty());
    // Op-level metrics ride along in the stats object.
    let ops = v.get("stats").unwrap().get("ops").unwrap();
    assert!(ops.get("insert_calls").unwrap().as_i64().unwrap() > 0);
    assert!(ops.get("subsume_queries").unwrap().as_i64().unwrap() > 0);
}

#[test]
fn stats_flag_prints_op_counters() {
    let f = write_tmp("list_stats.c", LIST);
    let out = psa()
        .args(["analyze", f.to_str().unwrap(), "--stats"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("engine op statistics:"));
    assert!(stdout.contains("subsumption:"));
    assert!(stdout.contains("interner:"));
    assert!(stdout.contains("peak RSRSG width:"));
}

#[test]
fn auto_level_json_is_one_document() {
    let f = write_tmp("list_auto_json.c", LIST);
    let out = psa()
        .args(["analyze", f.to_str().unwrap(), "--level", "auto", "--json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let v = psa_core::json::Json::parse(stdout.trim()).expect("stdout is one JSON document");
    let level = v.get("stats").and_then(|s| s.get("level"));
    assert_eq!(level.and_then(|l| l.as_str()), Some("L1"));
}

#[test]
fn analyze_levels_and_auto() {
    let f = write_tmp("list_lvl.c", LIST);
    for lvl in ["L1", "L2", "L3", "auto"] {
        let out = psa()
            .args(["analyze", f.to_str().unwrap(), "--level", lvl])
            .output()
            .unwrap();
        assert!(out.status.success(), "level {lvl}");
    }
}

#[test]
fn ir_dump_contains_statements() {
    let f = write_tmp("list_ir.c", LIST);
    let out = psa().args(["ir", f.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("p->nxt = list"));
    assert!(stdout.contains("ipvars"));
}

#[test]
fn dot_export_writes_file() {
    let f = write_tmp("list_dot.c", LIST);
    let dir = std::env::temp_dir().join("psa-cli-tests").join("dots");
    let out = psa()
        .args([
            "analyze",
            f.to_str().unwrap(),
            "--dot",
            dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let dot = std::fs::read_to_string(dir.join("exit.dot")).unwrap();
    assert!(dot.contains("digraph"));
}

#[test]
fn dot_export_with_json_writes_file_and_keeps_stdout_json() {
    let f = write_tmp("list_dot_json.c", LIST);
    let dir = std::env::temp_dir().join("psa-cli-tests").join("dots-json");
    let _ = std::fs::remove_dir_all(&dir);
    let out = psa()
        .args([
            "analyze",
            f.to_str().unwrap(),
            "--json",
            "--dot",
            dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    psa_core::json::Json::parse(stdout.trim()).expect("stdout is one JSON document");
    let dot = std::fs::read_to_string(dir.join("exit.dot")).expect("--dot wrote exit.dot");
    assert!(dot.contains("digraph"));
    assert!(String::from_utf8_lossy(&out.stderr).contains("exit.dot"));
}

#[test]
fn bench_code_builtin_runs() {
    let out = psa().args(["bench-code", "matvec"]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("matvec"));
}

#[test]
fn unknown_flag_fails_cleanly() {
    let f = write_tmp("list_bad.c", LIST);
    let out = psa()
        .args(["analyze", f.to_str().unwrap(), "--frobnicate"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
}

#[test]
fn json_rejects_text_view_flags() {
    let f = write_tmp("list_json_views.c", LIST);
    let file = f.to_str().unwrap();
    for flag in ["--annotate", "--parallel-report", "--stmt-dump"] {
        for args in [
            ["analyze", file, "--json", flag],
            ["bench-code", "treeadd", flag, "--json"],
        ] {
            let out = psa().args(args).output().unwrap();
            assert!(!out.status.success(), "{args:?} must fail");
            assert!(out.stdout.is_empty(), "{args:?} printed a report");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(&format!("`{flag}`")) && stderr.contains("--json"),
                "{stderr}"
            );
        }
        // Without `--json` the flag still works.
        let out = psa().args(["analyze", file, flag]).output().unwrap();
        assert!(out.status.success(), "{flag} alone must succeed");
    }
}

#[test]
fn ir_and_serve_reject_flags_they_ignore() {
    let f = write_tmp("list_ir_flags.c", LIST);
    let file = f.to_str().unwrap();
    let cases: [(&[&str], &str); 5] = [
        (
            &[
                "ir",
                file,
                "--check",
                "memory",
                "--budget-ms",
                "1",
                "--level",
                "L3",
            ],
            "`--check`",
        ),
        (&["serve", "--level", "L3", "--stmt-dump"], "`--level`"),
        // The table-snapshot flags are accepted nowhere.
        (&["analyze", file, "--load-cache", "f"], "`--load-cache`"),
        (
            &["bench-code", "treeadd", "--save-cache", "f"],
            "`--save-cache`",
        ),
        (&["serve", "--load-cache", "f"], "`--load-cache`"),
    ];
    for (args, flag) in cases {
        let out = psa().args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{stderr}");
    }
    // The flags each command does take still work.
    let out = psa()
        .args(["ir", file, "--function", "main"])
        .output()
        .unwrap();
    assert!(out.status.success());
}

#[test]
fn budget_deadline_exits_nonzero_with_partial_report() {
    let out = psa()
        .args(["bench-code", "lu", "--budget-ms", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "partial result must exit nonzero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stdout.contains("partial result"),
        "partial report still printed: {stdout}"
    );
    assert!(stderr.contains("stopped early"), "{stderr}");
    assert!(
        !stderr.contains("panicked") && !stdout.contains("panicked"),
        "cancellation must be panic-free"
    );
}

#[test]
fn budget_nodes_degrades_but_succeeds() {
    let out = psa()
        .args([
            "bench-code",
            "power",
            "--level",
            "L2",
            "--budget-nodes",
            "3",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "forced summarization completes: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[degraded]"), "{stdout}");
    assert!(stdout.contains("degraded statements"), "{stdout}");
}

#[test]
fn budget_nodes_in_recursive_callee_stops_soundly() {
    // A node budget tight enough to degrade *inside* a recursive callee
    // must not let the caller keep a too-precise summary: the engine
    // reports a sound early stop (nonzero exit), never a silent success.
    let out = psa()
        .args([
            "bench-code",
            "treeadd",
            "--level",
            "L2",
            "--budget-nodes",
            "3",
        ])
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "budget-starved summary must not claim success"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("stopped early"), "{stderr}");
    assert!(
        !stderr.contains("panicked"),
        "sound stop, not a crash: {stderr}"
    );
}

/// `main` with `n` independent branches that each may bind one more pvar,
/// and no statement after the last one: 2^n graphs meet only at the last
/// join block's input and the exit set.
fn fan_out(n: usize) -> String {
    let mut src = String::from("struct node { struct node *nxt; };\nint main() {\n");
    for i in 0..n {
        src += &format!("    struct node *p{i};\n");
    }
    src += "    int k;\n";
    for i in 0..n {
        src += &format!(
            "    if (k > {i}) {{ p{i} = (struct node *) malloc(sizeof(struct node)); }}\n"
        );
    }
    src + "    return 0;\n}\n"
}

#[test]
fn graph_caps_see_the_last_join() {
    // 1 024 graphs: the hard cap (512) trips before the soft cap of 600.
    let f = write_tmp("fan_out_10.c", &fan_out(10));
    let out = psa()
        .args(["analyze", f.to_str().unwrap(), "--budget-rsgs", "600"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("RSRSG grew to 1024 graphs (limit 512)"),
        "{stderr}"
    );
    // 512 graphs: under the hard cap, over a soft cap of 300.
    let f = write_tmp("fan_out_9.c", &fan_out(9));
    let out = psa()
        .args(["analyze", f.to_str().unwrap(), "--budget-rsgs", "300"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("stopped early: RSRSG reached 512 graphs (soft cap 300)"),
        "{stderr}"
    );
}

#[test]
fn budget_json_carries_degradation_fields() {
    let out = psa()
        .args(["bench-code", "matvec", "--budget-rsgs", "1", "--json"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "soft stop still exits nonzero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let v = psa_core::json::Json::parse(stdout.trim()).expect("valid JSON");
    let stats = v.get("stats").unwrap();
    assert_eq!(stats.get("degraded").unwrap().as_bool(), Some(true));
    assert!(stats.get("stopped").unwrap().as_str().is_some());
}

/// The `cancel` causes of a Chrome trace file in timestamp order, and its
/// count of `force_compress` instants.
fn trace_stops(path: &std::path::Path) -> (Vec<String>, usize) {
    let text = std::fs::read_to_string(path).unwrap();
    let doc = psa_core::json::Json::parse(&text).expect("valid trace JSON");
    let events = doc.get("traceEvents").unwrap().as_array().unwrap();
    let named = |e: &&psa_core::json::Json, name: &str| {
        e.get("name").and_then(|n| n.as_str()) == Some(name)
    };
    let mut cancels: Vec<(f64, String)> = events
        .iter()
        .filter(|e| named(e, "cancel"))
        .map(|e| {
            let ts = e.get("ts").unwrap().as_f64().unwrap();
            let cause = e.get("args").unwrap().get("cause").unwrap().as_str();
            (ts, cause.unwrap().to_string())
        })
        .collect();
    cancels.sort_by(|a, b| a.0.total_cmp(&b.0));
    let forced = events.iter().filter(|e| named(e, "force_compress")).count();
    (cancels.into_iter().map(|(_, c)| c).collect(), forced)
}

#[test]
fn interprocedural_give_up_reaches_the_chrome_export() {
    // Under an RSG cap of 1 the recursive callee's own run stops first
    // (`rsgs`), then the caller gives up at the call (`interproc`).
    let trace = std::env::temp_dir().join("psa-cli-tests/treeadd_rsgs_trace.json");
    std::fs::create_dir_all(trace.parent().unwrap()).unwrap();
    let out = psa()
        .args([
            "bench-code",
            "treeadd",
            "--level",
            "L1",
            "--budget-rsgs",
            "1",
        ])
        .args(["--json", "--trace", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "a stopped run exits 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let v = psa_core::json::Json::parse(stdout.trim()).expect("valid JSON");
    let stopped = v.get("stats").unwrap().get("stopped").unwrap().as_str();
    assert!(
        stopped.is_some_and(|s| s.starts_with("interprocedural analysis stopped")
            && s.contains("nested callee analysis stopped on its RSG soft cap (rsgs)")),
        "the stop names the callee's RSG cap: {stopped:?}"
    );
    assert_eq!(trace_stops(&trace).0, ["rsgs", "interproc"]);

    // A node cap degrades inside the callee without stopping it; the
    // caller refuses the degraded summary: one stop, the caller's.
    let trace = trace.with_file_name("treeadd_nodes_trace.json");
    let out = psa()
        .args([
            "bench-code",
            "treeadd",
            "--level",
            "L2",
            "--budget-nodes",
            "3",
        ])
        .args(["--trace", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "a stopped run exits 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("nested callee analysis degraded: the node cap forced a summarization"),
        "the stop names the callee's degradation: {stderr}"
    );
    let (causes, forced) = trace_stops(&trace);
    assert_eq!(causes, ["interproc"]);
    assert!(forced >= 1, "the node cap must force a summarization");
}

/// The builder-plus-traversal input of the stopped-run tests.
fn list_with_traversal() -> String {
    LIST.replace(
        "    return 0;",
        "    p = list;\n    while (p != NULL) {\n        p->v = 0;\n        p = p->nxt;\n    }\n    return 0;",
    )
}

#[test]
fn stopped_run_reports_every_loop_sequential() {
    // A builder loop then an update traversal: both loops are parallel on a
    // complete run, but a run stopped by the RSG cap proves nothing.
    let f = write_tmp("list_stopped.c", &list_with_traversal());
    let path = f.to_str().unwrap();
    let full = psa()
        .args(["analyze", path, "--level", "L1", "--parallel-report"])
        .output()
        .unwrap();
    assert!(full.status.success());
    let stdout = String::from_utf8_lossy(&full.stdout);
    assert_eq!(stdout.matches("PARALLELIZABLE").count(), 2, "{stdout}");

    let stopped = |extra: &str| {
        let out = psa()
            .args([
                "analyze",
                path,
                "--level",
                "L1",
                "--budget-rsgs",
                "1",
                extra,
            ])
            .output()
            .unwrap();
        assert!(!out.status.success(), "soft stop exits nonzero");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let text = stopped("--parallel-report");
    assert!(!text.contains("PARALLELIZABLE"), "{text}");
    assert_eq!(
        text.matches("blocked by analysis stopped early").count(),
        2,
        "{text}"
    );
    let v = psa_core::json::Json::parse(stopped("--json").trim()).expect("valid JSON");
    let loops = v.get("loops").unwrap().as_array().unwrap();
    assert_eq!(loops.len(), 2);
    for l in loops {
        assert_eq!(l.get("parallelizable").unwrap().as_bool(), Some(false));
    }
}

#[test]
fn stopped_run_json_makes_no_memory_claims() {
    // The memory section is the report's only leak/crash surface: a run
    // stopped by the RSG cap marks it inconclusive with zero sites, and no
    // other top-level key can read as a clean leak result.
    let f = write_tmp("list_stopped_json.c", &list_with_traversal());
    let out = psa()
        .args([
            "analyze",
            f.to_str().unwrap(),
            "--json",
            "--budget-rsgs",
            "1",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "soft stop exits nonzero");
    let v = psa_core::json::Json::parse(String::from_utf8_lossy(&out.stdout).trim())
        .expect("valid JSON");
    let mem = v.get("memory").expect("memory section present");
    assert!(mem.get("inconclusive").unwrap().as_str().is_some());
    assert!(mem.get("sites").unwrap().as_array().unwrap().is_empty());
    let psa_core::json::Json::Obj(fields) = &v else {
        panic!("report is an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "function",
            "stats",
            "exit_graphs",
            "exit_nodes",
            "exit_links",
            "pvars",
            "loops",
            "memory"
        ]
    );
}

#[test]
fn budget_flag_rejects_garbage_value() {
    let f = write_tmp("list_badbudget.c", LIST);
    let out = psa()
        .args(["analyze", f.to_str().unwrap(), "--budget-ms", "soon"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("not a number"));
}

#[test]
fn parse_error_reports_location() {
    let f = write_tmp("bad.c", "int main() { struct nope *p; }");
    let out = psa()
        .args(["analyze", f.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error"), "{err}");
}

#[test]
fn annotate_emits_source_with_verdicts() {
    let f = write_tmp("list_ann.c", LIST);
    let out = psa()
        .args(["analyze", f.to_str().unwrap(), "--annotate"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("/* psa: loop"));
    assert!(
        stdout.contains("p->nxt = list;"),
        "original source preserved"
    );
}

#[test]
fn annotate_puts_loop_comments_on_loop_statements() {
    // A `while` condition lowers to a terminator, and an inlined callee's
    // statements carry the callee's lines, so no statement of the body
    // marks where its loop starts: the comment goes on the loop statement.
    for (code, loops) in [("barnes-hut", 9), ("em3d", 4)] {
        let out = psa()
            .args(["bench-code", code, "--level", "L1", "--annotate"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let lines: Vec<&str> = stdout.lines().collect();
        let mut seen = 0;
        for (i, line) in lines.iter().enumerate() {
            if !line.contains("/* psa: loop") {
                continue;
            }
            seen += 1;
            let next = lines[i + 1..]
                .iter()
                .find(|l| !l.contains("/* psa: loop"))
                .expect("an annotation precedes a source line")
                .trim_start();
            assert!(
                ["for", "while", "do"].iter().any(|kw| next.starts_with(kw)
                    && !next[kw.len()..].starts_with(char::is_alphanumeric)),
                "{code}: `{}` precedes `{next}`",
                line.trim()
            );
        }
        assert_eq!(seen, loops, "{code}: one annotation per loop");
    }
}

const UAF: &str = r#"
struct node { int v; struct node *nxt; };
int main() {
    struct node *p;
    p = (struct node *) malloc(sizeof(struct node));
    p->nxt = NULL;
    free(p);
    p->v = 1;
    return 0;
}
"#;

#[test]
fn check_memory_flags_violations_and_exits_nonzero() {
    let f = write_tmp("uaf.c", UAF);
    let out = psa()
        .args([
            "analyze",
            f.to_str().unwrap(),
            "--check",
            "memory",
            "--seeds",
            "2",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "a definite UAF must exit nonzero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("memory-safety report"));
    assert!(stdout.contains("use-after-free"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("memory violation verdict"),
        "clean failure line, got: {stderr}"
    );
}

#[test]
fn check_accepts_comma_separated_list() {
    let f = write_tmp("list_both_checks.c", LIST);
    let out = psa()
        .args([
            "analyze",
            f.to_str().unwrap(),
            "--check",
            "asserts,memory",
            "--seeds",
            "2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("memory-safety report"));
}

#[test]
fn check_rejects_unknown_value_cleanly() {
    let f = write_tmp("list_bad_check.c", LIST);
    let out = psa()
        .args([
            "analyze",
            f.to_str().unwrap(),
            "--check",
            "asserts,frobnicate",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown check `frobnicate`") && stderr.contains("valid: asserts, memory"),
        "clean diagnostic, got: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "no panic: {stderr}");
}

#[test]
fn check_rejects_an_empty_list() {
    // An empty list would run no check and exit 0 with a plain summary.
    let f = write_tmp("list_empty_check.c", LIST);
    for value in ["", ",", " , "] {
        let out = psa()
            .args(["analyze", f.to_str().unwrap(), "--check", value])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "`--check {value:?}` must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--check needs a value (asserts, memory, or a comma-separated list)"),
            "`--check {value:?}`: {stderr}"
        );
    }
}

#[test]
fn json_carries_memory_section() {
    let f = write_tmp("list_mem_json.c", LIST);
    let out = psa()
        .args(["analyze", f.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let v = psa_core::json::Json::parse(stdout.trim()).expect("valid JSON");
    let mem = v.get("memory").expect("memory section present");
    let counts = mem.get("counts").expect("per-check counts");
    for check in ["null-deref", "use-after-free", "double-free", "leak"] {
        assert!(counts.get(check).is_some(), "missing counts for {check}");
    }
}

const RECURSIVE: &str = r#"
struct tnode { int v; struct tnode *l; struct tnode *r; };
struct tnode *treealloc(int level) {
    struct tnode *t;
    t = (struct tnode *) malloc(sizeof(struct tnode));
    t->v = 1;
    t->l = NULL;
    t->r = NULL;
    if (level > 0) {
        t->l = treealloc(level - 1);
        t->r = treealloc(level - 1);
    }
    return t;
}
int main() {
    struct tnode *root;
    root = treealloc(4);
    return 0;
}
"#;

#[test]
fn check_duplicates_run_once_and_json_shape_is_stable() {
    // `--check memory,memory` must behave exactly like `--check memory`:
    // one checker run, one report section, one JSON key.
    let f = write_tmp("list_dup_check.c", LIST);
    let out = psa()
        .args([
            "analyze",
            f.to_str().unwrap(),
            "--check",
            "memory,memory",
            "--seeds",
            "2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout.matches("memory-safety report").count(),
        1,
        "duplicate --check entries must not duplicate the report:\n{stdout}"
    );

    let dup = psa()
        .args([
            "analyze",
            f.to_str().unwrap(),
            "--check",
            "memory,memory",
            "--seeds",
            "2",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(dup.status.success());
    let single = psa()
        .args([
            "analyze",
            f.to_str().unwrap(),
            "--check",
            "memory",
            "--seeds",
            "2",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(single.status.success());
    // Wall-clock counters (elapsed_ms, *_ns, peak_bytes) vary run to run;
    // everything else must match exactly.
    fn stable(raw: &[u8]) -> String {
        String::from_utf8_lossy(raw)
            .lines()
            .filter(|l| {
                !(l.contains("_ns\":") || l.contains("elapsed_ms") || l.contains("peak_bytes"))
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
    let dup_json = String::from_utf8_lossy(&dup.stdout).into_owned();
    assert_eq!(
        stable(&dup.stdout),
        stable(&single.stdout),
        "deduped --check list must produce identical JSON"
    );
    // Exactly one "memory" key in the raw text (a parsed object would
    // silently collapse duplicates, so pin the serialized shape).
    assert_eq!(dup_json.matches("\"memory\":").count(), 1);
}

#[test]
fn json_carries_call_sites_and_summary_stats_for_recursive_input() {
    let f = write_tmp("rectree.c", RECURSIVE);
    let out = psa()
        .args(["analyze", f.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let v = psa_core::json::Json::parse(stdout.trim()).expect("valid JSON");
    let calls = v.get("calls").expect("calls section for recursive input");
    let rows = calls.as_array().expect("calls is an array");
    assert!(!rows.is_empty());
    let row = rows
        .iter()
        .find(|r| r.get("callee").and_then(|c| c.as_str()) == Some("treealloc"))
        .expect("treealloc call row");
    assert_eq!(row.get("recursive").and_then(|b| b.as_bool()), Some(true));
    let ops = v.get("stats").unwrap().get("ops").expect("ops stats");
    let queries = ops
        .get("summary_queries")
        .and_then(|q| q.as_f64())
        .expect("summary_queries counter");
    assert!(
        queries > 0.0,
        "recursive input goes through the summary path"
    );
    assert!(ops.get("summary_hit_rate").is_some());
}
