//! In-process daemon session suite: drives [`psa::core::serve::Server`]
//! through a multi-request lifetime and checks the warm-table contract end
//! to end — warm resubmissions are bit-identical to cold runs and replay
//! memoized transfers, per-request op counters are isolated while the
//! `server` section accumulates, and edits go through the incremental
//! `reanalyze` path.

use psa::codes::{sparse_matvec, Sizes};
use psa::core::json::Json;
use psa::core::serve::{ServeOptions, Server};

fn request(id: i64, method: &str, params: Json) -> Json {
    let mut r = Json::obj();
    r.set("id", id);
    r.set("method", method);
    r.set("params", params);
    r
}

fn analyze_params(source: &str, key: &str) -> Json {
    let mut p = Json::obj();
    p.set("source", source);
    p.set("level", "L2");
    p.set("key", key);
    p
}

/// The analysis report from an ok response, with the `stats` section
/// stripped (wall-clock and per-run op counts legitimately differ between
/// cold and warm runs — everything else must be bit-identical).
fn report_sans_stats(resp: &Json) -> Json {
    let mut report = resp
        .get("result")
        .expect("ok response")
        .get("report")
        .expect("report")
        .clone();
    report.remove("stats");
    report
}

fn op(resp: &Json, counter: &str) -> i64 {
    resp.get("result")
        .unwrap()
        .get("report")
        .unwrap()
        .get("stats")
        .unwrap()
        .get("ops")
        .unwrap()
        .get(counter)
        .and_then(Json::as_i64)
        .unwrap()
}

fn server_op(resp: &Json, counter: &str) -> i64 {
    resp.get("result")
        .unwrap()
        .get("server")
        .unwrap()
        .get("ops")
        .unwrap()
        .get(counter)
        .and_then(Json::as_i64)
        .unwrap()
}

#[test]
fn warm_resubmission_is_bit_identical_with_isolated_counters() {
    let src = sparse_matvec(Sizes::tiny());
    let server = Server::new(ServeOptions::default());

    let cold = server.handle(request(1, "analyze", analyze_params(&src, "mv")));
    let warm = server.handle(request(2, "analyze", analyze_params(&src, "mv")));

    assert_eq!(
        report_sans_stats(&cold).compact(),
        report_sans_stats(&warm).compact(),
        "warm daemon report diverged from the cold one"
    );
    assert!(
        op(&warm, "transfer_memo_hits") > 0,
        "warm request must replay memoized transfers"
    );
    assert_eq!(
        op(&warm, "transfer_memo_misses"),
        0,
        "identical resubmission must miss nothing"
    );

    // Per-request counters reset between requests; the server section
    // accumulates across the process lifetime.
    let cold_q = op(&cold, "transfer_queries");
    let warm_q = op(&warm, "transfer_queries");
    assert!(
        warm_q <= cold_q,
        "per-request ops leaked across requests: warm {warm_q} > cold {cold_q}"
    );
    assert!(server_op(&warm, "transfer_queries") >= cold_q + warm_q);

    let stats = server.handle(request(3, "stats", Json::obj()));
    let requests = stats
        .get("result")
        .unwrap()
        .get("server")
        .unwrap()
        .get("requests")
        .and_then(Json::as_i64)
        .unwrap();
    assert_eq!(requests, 2, "stats must count the two analyze requests");
}

#[test]
fn reanalyze_after_edit_is_incremental_and_stays_warm() {
    let src = sparse_matvec(Sizes::tiny());
    let server = Server::new(ServeOptions::default());
    server.handle(request(1, "analyze", analyze_params(&src, "mv")));

    // Edit one statement without touching types or control flow: the
    // re-analysis must take the incremental path, name the edited
    // statements, and still replay the unchanged statements' transfers.
    let edited = src.replacen("= 0;", "= 1;", 1);
    assert_ne!(src, edited, "the edit must apply");
    let resp = server.handle(request(2, "reanalyze", analyze_params(&edited, "mv")));
    let result = resp.get("result").expect("ok response");
    assert_eq!(
        result.get("incremental").and_then(Json::as_bool),
        Some(true)
    );
    assert!(
        !result
            .get("changed_stmts")
            .and_then(Json::as_array)
            .unwrap()
            .is_empty(),
        "the edited statement must be reported"
    );
    assert!(
        op(&resp, "transfer_memo_hits") > 0,
        "unchanged statements must replay from the warm memo"
    );
}
