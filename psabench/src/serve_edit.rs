//! The `serve_edit` workload: an editor session against an in-process
//! `psa serve`. Two closed-loop clients share one `Server`; each request
//! is timed from the moment its line is ready to the moment its response
//! line is encoded: `Json::parse` → `Server::handle` → `Json::compact`.

use crate::batch::{op_metrics, stmt_counts};
use crate::calibrate::Calibration;
use crate::machine::peak_rss_mib;
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::stats::{geomean, median, percentile};
use crate::workload::{Rng, RunConfig};
use crate::{report_digest, Failures, OpRecord, Outcome};
use psa_codes::{olden, Sizes};
use psa_core::json::Json;
use psa_core::serve::{ServeOptions, Server};
use psa_core::stats::OpStats;
use psa_ir::{PtrStmt, Stmt};
use psa_rsg::ShapeCtx;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Closed-loop clients: each sends its next request when the previous
/// response arrives.
pub const CLIENTS: usize = 2;

/// Most single-statement edits per program. Every program is edited at all
/// of its valid sites up to this cap (the programs here have 0 to 9).
const MAX_EDITS: usize = 10;

/// Requests a timed run issues at least (over its sessions), so that the
/// 95th percentile has at least ten samples above it.
pub const MIN_REQUESTS: usize = 240;

/// What a request does in the editing session of its program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// First `analyze` of the program: fills the shared tables.
    Cold,
    /// `reanalyze` after one `x->sel = y;` became `x->sel = NULL;`.
    Edit,
    /// `reanalyze` of the original after the edits.
    Revert,
    /// `reanalyze` of the unchanged original again: memo reads only.
    Resubmit,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Cold => "cold",
            Kind::Edit => "edit",
            Kind::Revert => "revert",
            Kind::Resubmit => "resubmit",
        }
    }
}

/// One prepared request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Program index.
    pub program: usize,
    /// Role in the program's session.
    pub kind: Kind,
    /// C source sent.
    pub source: String,
    /// The request line of an untraced session.
    pub line: String,
    /// The same request with `"trace": true`.
    pub traced_line: String,
}

/// The request plan of one session: one chain of requests per program,
/// chains handed to the clients in a seeded order.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Program names (also the `key` of their requests).
    pub names: Vec<String>,
    /// Requests in plan order: every program's chain in turn.
    pub requests: Vec<Request>,
    /// `chains[p]` is the range of `requests` belonging to program `p`.
    pub chains: Vec<std::ops::Range<usize>>,
    /// The order in which the clients claim programs.
    pub order: Vec<usize>,
}

/// The session's programs: the eight Olden codes and matvec. Seeded
/// generated programs are left out on purpose: they were 60% of the
/// requests but 2% of the work, and their seed-to-seed size swings moved
/// the median request time by 23% between seeds.
fn programs(smoke: bool) -> Vec<(&'static str, String)> {
    let sizes = Sizes::default();
    let mut p = olden::olden_codes(sizes);
    p.push(("matvec", psa_codes::sparse_matvec(sizes)));
    if smoke {
        p.retain(|(name, _)| matches!(*name, "em3d" | "power" | "matvec"));
    }
    p
}

/// Byte ranges of the right-hand sides of `x->sel = y;` statements, `y` a
/// plain identifier other than `NULL`.
fn store_rhs(src: &str) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    for (at, _) in src.match_indices(" = ") {
        let start = at + 3;
        let ident = src[start..]
            .bytes()
            .take_while(|b| b.is_ascii_alphanumeric() || *b == b'_')
            .count();
        if ident == 0 || src.as_bytes().get(start + ident) != Some(&b';') {
            continue;
        }
        let rhs = &src[start..start + ident];
        if rhs == "NULL" || rhs.as_bytes()[0].is_ascii_digit() {
            continue;
        }
        let lhs_from = src[..at]
            .rfind(|c: char| c.is_whitespace() || c == '{' || c == ';')
            .map_or(0, |i| i + 1);
        if src[lhs_from..at].contains("->") {
            out.push(start..start + ident);
        }
    }
    out
}

/// What `reanalyze` compares to decide whether it can run incrementally:
/// the analysis universe, the block structure and the statements (callee
/// bodies included).
struct Shape {
    universe: u64,
    blocks: String,
    stmts: Vec<Stmt>,
}

fn shape(src: &str) -> Option<Shape> {
    let (program, types) = psa_cfront::parse_and_type(src).ok()?;
    let ir = psa_ir::lower_program(&program, &types, "main").ok()?;
    let bodies = std::iter::once(&ir).chain(ir.callees.iter().map(|c| &c.ir));
    Some(Shape {
        universe: ShapeCtx::from_ir(&ir).universe_key(),
        blocks: format!("{:?}", ir.blocks),
        stmts: bodies
            .flat_map(|b| b.stmts.iter().map(|s| s.stmt.clone()))
            .collect(),
    })
}

/// True when `edited` differs from `orig` only in pointer stores
/// `x->sel = y` that became `x->sel = NULL`, with the same universe and
/// blocks, so `reanalyze` can take the incremental path.
fn is_store_edit(orig: &Shape, edited: &Shape) -> bool {
    let frame = edited.universe == orig.universe
        && edited.blocks == orig.blocks
        && edited.stmts.len() == orig.stmts.len();
    let changed: Vec<_> = orig
        .stmts
        .iter()
        .zip(&edited.stmts)
        .filter(|(a, b)| a != b)
        .collect();
    frame
        && !changed.is_empty()
        && changed.iter().all(|pair| {
            matches!(pair, (
                Stmt::Ptr(PtrStmt::Store(x, sel, _)),
                Stmt::Ptr(PtrStmt::StoreNil(x2, sel2)),
            ) if x == x2 && sel == sel2)
        })
}

/// Up to [`MAX_EDITS`] single-statement edits of `src` (whose shape is
/// `orig`), each turning one pointer store's right-hand side to `NULL`, in
/// source order. (What an edit costs depends on the memo entries earlier
/// edits left behind; a seeded order made the session's work differ by
/// seed, which doubled the run-to-run spread of `wall_s`.)
fn edits(src: &str, orig: &Shape) -> Vec<String> {
    store_rhs(src)
        .into_iter()
        .map(|site| format!("{}NULL{}", &src[..site.start], &src[site.end..]))
        .filter(|edited| shape(edited).is_some_and(|s| is_store_edit(orig, &s)))
        .take(MAX_EDITS)
        .collect()
}

fn request_line(id: usize, kind: Kind, key: &str, source: &str, trace: bool) -> String {
    let mut params = Json::obj();
    params.set("source", source);
    params.set("level", "L2");
    params.set("key", key);
    params.set("trace", trace);
    let mut req = Json::obj();
    req.set("id", id as f64);
    req.set(
        "method",
        if kind == Kind::Cold {
            "analyze"
        } else {
            "reanalyze"
        },
    );
    req.set("params", params);
    req.compact()
}

impl Plan {
    /// Find every program's edits, order the programs by `seed`, and encode
    /// every request. Fails when a program does not compile.
    pub fn build(seed: u64, smoke: bool) -> Result<Plan, String> {
        let mut plan = Plan {
            names: Vec::new(),
            requests: Vec::new(),
            chains: Vec::new(),
            order: Vec::new(),
        };
        for (p, (name, src)) in programs(smoke).into_iter().enumerate() {
            let orig = shape(&src).ok_or(format!("{name} does not compile"))?;
            let edited = edits(&src, &orig);
            let mut chain = vec![(Kind::Cold, src.clone())];
            chain.extend(edited.into_iter().map(|e| (Kind::Edit, e)));
            if chain.len() > 1 {
                chain.push((Kind::Revert, src.clone()));
            }
            chain.push((Kind::Resubmit, src));
            let first = plan.requests.len();
            for (kind, source) in chain {
                let id = plan.requests.len();
                plan.requests.push(Request {
                    program: p,
                    kind,
                    line: request_line(id, kind, name, &source, false),
                    traced_line: request_line(id, kind, name, &source, true),
                    source,
                });
            }
            plan.chains.push(first..plan.requests.len());
            plan.names.push(name.to_string());
            plan.order.push(p);
        }
        Rng::new(seed).shuffle(&mut plan.order);
        Ok(plan)
    }

    /// Sessions a timed run needs to issue at least [`MIN_REQUESTS`].
    pub fn min_sessions(&self) -> usize {
        MIN_REQUESTS.div_ceil(self.requests.len().max(1))
    }

    fn op_name(&self, i: usize) -> String {
        let r = &self.requests[i];
        let k = i - self.chains[r.program].start;
        format!("{}/{}#{k}", self.names[r.program], r.kind.name())
    }
}

/// One request's timings and response.
#[derive(Debug, Clone)]
struct Sample {
    parse_ms: f64,
    handle_ms: f64,
    encode_ms: f64,
    total_ms: f64,
    response: String,
}

impl Sample {
    /// Timings multiplied by a calibration factor.
    fn scaled(self, f: f64) -> Sample {
        Sample {
            parse_ms: self.parse_ms * f,
            handle_ms: self.handle_ms * f,
            encode_ms: self.encode_ms * f,
            total_ms: self.total_ms * f,
            ..self
        }
    }
}

/// Run one session on a fresh server: the clients claim programs in plan
/// order and send each program's chain in sequence. Returns the samples
/// in plan order.
fn session(plan: &Plan, traced: bool) -> Vec<Sample> {
    let server = Server::new(ServeOptions::default());
    let next = AtomicUsize::new(0);
    let per_client: Vec<Vec<(usize, Sample)>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    while let Some(&p) = plan.order.get(next.fetch_add(1, Ordering::Relaxed)) {
                        for i in plan.chains[p].clone() {
                            let req = &plan.requests[i];
                            let line = if traced { &req.traced_line } else { &req.line };
                            let t = Instant::now();
                            let parsed = Json::parse(line).expect("request lines are valid JSON");
                            let t1 = Instant::now();
                            let resp = server.handle(parsed);
                            let t2 = Instant::now();
                            let response = resp.compact();
                            let t3 = Instant::now();
                            let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
                            out.push((
                                i,
                                Sample {
                                    parse_ms: ms(t, t1),
                                    handle_ms: ms(t1, t2),
                                    encode_ms: ms(t2, t3),
                                    total_ms: ms(t, t3),
                                    response,
                                },
                            ));
                        }
                    }
                    out
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let mut samples: Vec<(usize, Sample)> = per_client.into_iter().flatten().collect();
    samples.sort_by_key(|(i, _)| *i);
    samples.into_iter().map(|(_, s)| s).collect()
}

/// What the checks read off one response.
#[derive(Debug, Default)]
struct Checked {
    failure: Option<String>,
    digest: u64,
    peak_bytes: u64,
    iterations: u64,
    incremental: bool,
    ops: OpStats,
    interner_forms: u64,
    transfer_entries: u64,
}

fn int(j: Option<&Json>) -> u64 {
    j.and_then(Json::as_i64).map_or(0, |v| v.max(0) as u64)
}

fn ops_from_json(j: &Json) -> OpStats {
    let f = |k: &str| int(j.get(k));
    OpStats {
        join_calls: f("join_calls"),
        compress_calls: f("compress_calls"),
        subsume_queries: f("subsume_queries"),
        subsume_searches: f("subsume_searches"),
        intern_hits: f("intern_hits"),
        intern_misses: f("intern_misses"),
        transfer_queries: f("transfer_queries"),
        transfer_memo_hits: f("transfer_memo_hits"),
        delta_stmt_hits: f("delta_stmt_hits"),
        delta_stmt_extends: f("delta_stmt_extends"),
        delta_stmt_fulls: f("delta_stmt_fulls"),
        summary_queries: f("summary_queries"),
        summary_hits: f("summary_hits"),
        peak_set_width: f("peak_set_width"),
        intern_lock_contended: f("intern_lock_contended"),
        subsume_lock_contended: f("subsume_lock_contended"),
        transfer_lock_contended: f("transfer_lock_contended"),
        intern_lock_wait_ns: f("intern_lock_wait_ns"),
        subsume_lock_wait_ns: f("subsume_lock_wait_ns"),
        transfer_lock_wait_ns: f("transfer_lock_wait_ns"),
        ..OpStats::default()
    }
}

fn check(kind: Kind, response: &str) -> Checked {
    let mut c = Checked::default();
    let resp = match Json::parse(response) {
        Ok(r) => r,
        Err(e) => {
            c.failure = Some(format!("unparsable response: {e}"));
            return c;
        }
    };
    if let Some(err) = resp.get("error") {
        c.failure = Some(format!("error response: {}", err.compact()));
        return c;
    }
    let (Some(result), Some(report)) = (
        resp.get("result"),
        resp.get("result").and_then(|r| r.get("report")),
    ) else {
        c.failure = Some("response without a report".into());
        return c;
    };
    let stats = report.get("stats");
    c.peak_bytes = int(stats.and_then(|s| s.get("peak_bytes")));
    c.iterations = int(stats.and_then(|s| s.get("iterations")));
    if let Some(ops) = stats.and_then(|s| s.get("ops")) {
        c.ops = ops_from_json(ops);
    }
    let server = result.get("server");
    c.interner_forms = int(server.and_then(|s| s.get("interner_size")));
    c.transfer_entries = int(server.and_then(|s| s.get("transfer_entries")));
    c.incremental = result.get("incremental").and_then(Json::as_bool) == Some(true);
    c.digest = report_digest(report.clone());
    if stats
        .and_then(|s| s.get("stopped"))
        .is_some_and(|s| *s != Json::Null)
    {
        c.failure = Some("analysis stopped".into());
    } else if stats
        .and_then(|s| s.get("degraded"))
        .and_then(Json::as_bool)
        == Some(true)
    {
        c.failure = Some("analysis degraded statements".into());
    } else if kind != Kind::Cold && !c.incremental {
        c.failure = Some("reanalyze did not take the incremental path".into());
    }
    c
}

/// Run `serve_edit`: sessions on fresh servers until `cfg.seconds` is
/// spent and at least [`MIN_REQUESTS`] requests were timed. Times are
/// calibrated with brackets taken on `cal` between sessions.
pub fn run(cfg: &RunConfig, plan: &Plan, cal: &mut Calibration) -> Outcome {
    let n = plan.requests.len();
    let min_rounds = if cfg.smoke { 1 } else { plan.min_sessions() };
    // Sessions in the order run: traced or not, samples, start, end.
    let mut sessions: Vec<(bool, Vec<Sample>, Instant, Instant)> = Vec::new();
    let start = Instant::now();
    let (mut n_plain, mut n_traced) = (0, 0);
    // Peak RSS after the first session: later sessions repeat its work,
    // and how far the two clients' allocator arenas fragment over more of
    // them varies from run to run.
    let mut peak_rss = 0.0;
    loop {
        let tracing = cfg.trace && n_plain > n_traced;
        cal.bracket();
        let t = Instant::now();
        let samples = session(plan, tracing);
        let end = Instant::now();
        if sessions.is_empty() {
            peak_rss = peak_rss_mib();
        }
        sessions.push((tracing, samples, t, end));
        if tracing {
            n_traced += 1;
        } else {
            n_plain += 1;
        }
        let enough = n_plain >= min_rounds && (!cfg.trace || n_traced > 0);
        let next_fits = start.elapsed().as_secs_f64() + t.elapsed().as_secs_f64() <= cfg.seconds;
        if enough && (cfg.smoke || !next_fits) {
            break;
        }
    }
    cal.bracket();

    let mut factors = Vec::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for (tracing, samples, s, e) in sessions {
        let f = cal.factor(s, e);
        let samples: Vec<Sample> = samples.into_iter().map(|x| x.scaled(f)).collect();
        let wall = (e - s).as_secs_f64() * f;
        if tracing {
            traced.push((samples, wall));
        } else {
            factors.push(f);
            plain.push((samples, wall));
        }
    }

    // Output checks, charged to each request of every session.
    let mut failures = Failures::default();
    let mut cold_digest = vec![None; plan.names.len()];
    let mut checked: Vec<Vec<Checked>> = Vec::new();
    for (samples, _) in plain.iter().chain(&traced) {
        let mut session_checks = Vec::with_capacity(n);
        for (i, (req, sample)) in plan.requests.iter().zip(samples).enumerate() {
            let mut c = check(req.kind, &sample.response);
            if c.failure.is_none() && matches!(req.kind, Kind::Cold | Kind::Resubmit) {
                // Every cold report (any session) and every resubmit must
                // match the program's first cold report.
                let first = cold_digest[req.program].get_or_insert(c.digest);
                if *first != c.digest {
                    c.failure = Some("report differs from the program's cold report".into());
                }
            }
            failures.attempt(&plan.op_name(i), c.failure.take());
            session_checks.push(c);
        }
        checked.push(session_checks);
    }

    let total = |i: usize| -> Vec<f64> { plain.iter().map(|(s, _)| s[i].total_ms).collect() };
    let req_ms: Vec<f64> = (0..n).map(|i| median(&total(i))).collect();
    let mut metrics = Metrics::default();
    if cfg.trace {
        layer_metrics(&mut metrics, plan, &plain, &traced, &checked[0], cal);
    } else {
        let e = END_TO_END;
        let pooled: Vec<f64> = plain
            .iter()
            .flat_map(|(s, _)| s.iter().map(|x| x.total_ms))
            .collect();
        // Summed request times, not the session's wall: the seeded order in
        // which the clients claim programs changes how evenly the two
        // share the work, but not what the requests cost.
        metrics.set(e, "wall_s", req_ms.iter().sum::<f64>() / 1e3);
        metrics.set(e, "geomean_op_ms", geomean(&req_ms));
        metrics.set(e, "op_p50_ms", percentile(&pooled, 0.5));
        metrics.set(e, "op_p95_ms", percentile(&pooled, 0.95));
        metrics.set(e, "peak_rss_mib", peak_rss);
        let peak = checked[0].iter().map(|c| c.peak_bytes).max().unwrap_or(0);
        metrics.set(e, "peak_rsrsg_mib", peak as f64 / (1024.0 * 1024.0));
    }
    Outcome {
        metrics,
        failures,
        ops: (0..n)
            .map(|i| OpRecord {
                name: plan.op_name(i),
                median_ms: req_ms[i],
                samples_ms: total(i),
                factors: factors.clone(),
                digest: checked[0][i].digest,
            })
            .collect(),
        passes: plain.len(),
        traced_passes: traced.len(),
    }
}

fn layer_metrics(
    m: &mut Metrics,
    plan: &Plan,
    plain: &[(Vec<Sample>, f64)],
    traced: &[(Vec<Sample>, f64)],
    checked: &[Checked],
    cal: &Calibration,
) {
    let l = PER_LAYER;
    let per_session = |f: &dyn Fn(&Sample) -> f64| -> f64 {
        median(
            &plain
                .iter()
                .map(|(s, _)| s.iter().map(f).sum::<f64>())
                .collect::<Vec<_>>(),
        )
    };
    let handle_p50 = |kind: Kind| -> f64 {
        let xs: Vec<f64> = plain
            .iter()
            .flat_map(|(s, _)| {
                plan.requests
                    .iter()
                    .zip(s)
                    .filter(move |(r, _)| r.kind == kind)
                    .map(|(_, x)| x.handle_ms)
            })
            .collect();
        percentile(&xs, 0.5)
    };
    m.set(l, "serve.json_parse_ms", per_session(&|s| s.parse_ms));
    m.set(l, "serve.json_encode_ms", per_session(&|s| s.encode_ms));
    m.set(l, "serve.handle_cold_p50_ms", handle_p50(Kind::Cold));
    m.set(l, "serve.handle_edit_p50_ms", handle_p50(Kind::Edit));
    m.set(
        l,
        "serve.handle_resubmit_p50_ms",
        handle_p50(Kind::Resubmit),
    );
    m.set(
        l,
        "report.kib",
        per_session(&|s| s.response.len() as f64) / 1024.0,
    );
    let walls = |r: &[(Vec<Sample>, f64)]| median(&r.iter().map(|(_, w)| *w).collect::<Vec<_>>());
    m.set(
        l,
        "trace.overhead_pct",
        (walls(traced) / walls(plain) - 1.0) * 100.0,
    );

    let reanalyze: Vec<&Checked> = plan
        .requests
        .iter()
        .zip(checked)
        .filter(|(r, _)| r.kind != Kind::Cold)
        .map(|(_, c)| c)
        .collect();
    let incremental = reanalyze.iter().filter(|c| c.incremental).count();
    m.set(
        l,
        "serve.incremental_share",
        incremental as f64 / reanalyze.len().max(1) as f64,
    );
    let resubmit = plan
        .requests
        .iter()
        .zip(checked)
        .filter(|(r, _)| r.kind == Kind::Resubmit)
        .fold(OpStats::default(), |acc, (_, c)| acc.accumulate(&c.ops));
    m.set(
        l,
        "serve.resubmit_hit_rate",
        resubmit.transfer_memo_hits as f64 / resubmit.transfer_queries.max(1) as f64,
    );

    let ops = checked
        .iter()
        .fold(OpStats::default(), |acc, c| acc.accumulate(&c.ops));
    op_metrics(m, &ops);
    m.set(
        l,
        "engine.iterations",
        checked.iter().map(|c| c.iterations as f64).sum(),
    );
    // One server holds the tables of the whole session.
    let max = |f: &dyn Fn(&Checked) -> u64| checked.iter().map(f).max().unwrap_or(0) as f64;
    m.set(l, "tables.interner_forms", max(&|c| c.interner_forms));
    m.set(l, "tables.transfer_entries", max(&|c| c.transfer_entries));

    // The frontend runs inside `Server::handle`; time the same public calls
    // on every request's source (median of three) to size its share.
    let (mut parse_ms, mut lower_ms) = (0.0, 0.0);
    let (mut src_bytes, mut stmts, mut calls) = (0usize, 0usize, 0usize);
    let start = Instant::now();
    for req in &plan.requests {
        let (mut p, mut lo) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            let t = Instant::now();
            let Ok((program, types)) = psa_cfront::parse_and_type(&req.source) else {
                break;
            };
            p.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            let Ok(ir) = psa_ir::lower_program(&program, &types, "main") else {
                break;
            };
            lo.push(t.elapsed().as_secs_f64() * 1e3);
            if p.len() == 1 {
                let (s, c) = stmt_counts(&ir);
                stmts += s;
                calls += c;
            }
        }
        parse_ms += median(&p);
        lower_ms += median(&lo);
        src_bytes += req.source.len();
    }
    let f = cal.factor(start, Instant::now());
    m.set(l, "cfront.parse_ms", parse_ms * f);
    m.set(l, "cfront.src_kib", src_bytes as f64 / 1024.0);
    m.set(l, "ir.lower_ms", lower_ms * f);
    m.set(l, "ir.stmts", stmts as f64);
    m.set(l, "ir.call_sites", calls as f64);
}
