//! Committed work counts: the performance gate CI checks on every change.
//!
//! Each row pins the deterministic work of one sequential `psa bench-code
//! <code> --level <L>` run at default sizes: fixpoint iterations, COMPRESS
//! and JOIN calls, subsumption searches and peak structural bytes. The
//! counts are identical in every build profile and on every machine, so
//! runner noise cannot trip the gate, and unlike a committed timing it
//! cannot go stale while still passing. Timing is psa-bench's job
//! (`psabench/`).
//!
//! A change that alters the work on purpose updates the table: on a
//! mismatch the failure message prints the code's recomputed rows in the
//! table's own syntax, ready to paste over the old ones.

use psa::codes::{olden, Sizes};
use psa::core::{AnalysisOptions, Analyzer};
use psa::rsg::Level::{self, L1, L2, L3};

/// `(code, level, iterations, COMPRESS calls, JOIN calls, subsume
/// searches, peak bytes)`. COMPRESS counts kernel runs: a transfer-memo or
/// JOIN-memo hit runs none, so a memo that stops hitting raises it. JOIN
/// counts the reduction loop's JOINs, memo hits included.
type Row = (&'static str, Level, usize, u64, u64, u64, usize);

#[rustfmt::skip]
const TABLE: &[Row] = &[
    ("matvec",     L1,  178,    848,   111,      367,    509840),
    ("matvec",     L2,  263,   1350,   276,      858,    813264),
    ("matvec",     L3,  267,   1644,   288,     1058,    856356),
    ("matmat",     L1,  573,   4022,  1421,     1999,   3696272),
    ("matmat",     L2, 1018,   5936,   989,     4324,   4939936),
    ("matmat",     L3, 1236,   9626,  2379,     6863,   6786280),
    ("lu",         L1,  459,   2233,   877,     1342,   1922052),
    ("lu",         L2,  773,   3464,   505,     3327,   2417328),
    ("lu",         L3,  778,   5224,   832,     4534,   2747756),
    ("barnes-hut", L1,  467,   4412,  1124,     2513,   2372600),
    ("barnes-hut", L2,  644,   4789,   556,     4309,   2993184),
    ("barnes-hut", L3,  664,   6924,  1134,     6031,   3636872),
    ("treeadd",    L1,    1,    220,    31,       44,      3304),
    ("treeadd",    L2,    1,    399,    54,       83,      4504),
    ("treeadd",    L3,    1,    399,    54,       83,      4504),
    ("power",      L1,  163,    694,   131,      346,    340824),
    ("power",      L2,  213,   1046,   228,      924,    543852),
    ("power",      L3,  227,   1253,   204,     1048,    530860),
    ("em3d",       L1,  123,    580,    41,      157,    520140),
    ("em3d",       L2,  139,    620,    18,      217,    666384),
    ("em3d",       L3,  139,    753,    18,      256,    669892),
    ("bisort",     L1,    9,    234,    64,       37,     17656),
    ("bisort",     L2,    9,    492,   156,       96,     21736),
    ("bisort",     L3,    9,    492,   156,       96,     21736),
    ("tsp",        L1,  456,  34527,  8544,    47738,  32012924),
    ("tsp",        L2,  570,   3041,   426,     2294,   2306612),
    ("tsp",        L3,  587,   3498,   491,     2646,   2585872),
    ("health",     L1,  236,    972,   140,      343,    534296),
    ("health",     L2,  350,   1609,   304,      782,    780244),
    ("health",     L3,  346,   1704,   335,      777,    785516),
    ("perimeter",  L1,    1,    328,    68,       65,      3920),
    ("perimeter",  L2,    1,   1683,   342,      241,      7088),
    ("perimeter",  L3,    1,   1683,   342,      241,      7088),
    ("voronoi",    L1,  416,  10004,  1754,     7952,   7845384),
    ("voronoi",    L2,  542,   2432,   295,     2056,   1224504),
    ("voronoi",    L3,  556,   2626,   294,     2182,   1239724),
];

/// The row of one `psa bench-code` run: the CLI's path, at one level.
fn measure(code: &'static str, src: &str, level: Level) -> Row {
    let analyzer = Analyzer::new(src, AnalysisOptions::at_level(level))
        .unwrap_or_else(|e| panic!("{code}: {e}"));
    let res = analyzer
        .run()
        .unwrap_or_else(|e| panic!("{code}/{level}: {e}"));
    let ops = &res.stats.ops;
    (
        code,
        level,
        res.stats.iterations,
        ops.compress_calls,
        ops.join_calls,
        ops.subsume_searches,
        res.stats.peak_bytes,
    )
}

/// One row in the table's own syntax.
fn render(&(code, level, iterations, compress, join, searches, peak): &Row) -> String {
    let code = format!("{code:?},");
    format!(
        "    ({code:<13} {level}, {iterations:>4}, {compress:>6}, {join:>5}, {searches:>8}, {peak:>9}),"
    )
}

/// Recompute `code`'s rows at L1–L3 and compare them with the table.
fn check(code: &'static str, source: fn(Sizes) -> String) {
    let src = source(Sizes::default());
    let expected: Vec<Row> = TABLE.iter().filter(|r| r.0 == code).copied().collect();
    let actual: Vec<Row> = [L1, L2, L3]
        .into_iter()
        .map(|level| measure(code, &src, level))
        .collect();
    assert!(
        actual == expected,
        "work counts of {code} changed; recomputed rows:\n{}",
        actual.iter().map(render).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn matvec() {
    check("matvec", psa::codes::sparse_matvec);
}

#[test]
fn matmat() {
    check("matmat", psa::codes::sparse_matmat);
}

#[test]
fn lu() {
    check("lu", psa::codes::sparse_lu);
}

#[test]
fn barnes_hut() {
    check("barnes-hut", psa::codes::barnes_hut);
}

#[test]
fn treeadd() {
    check("treeadd", olden::treeadd);
}

#[test]
fn power() {
    check("power", olden::power);
}

#[test]
fn em3d() {
    check("em3d", olden::em3d);
}

#[test]
fn bisort() {
    check("bisort", olden::bisort);
}

#[test]
fn tsp() {
    check("tsp", olden::tsp);
}

#[test]
fn health() {
    check("health", olden::health);
}

#[test]
fn perimeter() {
    check("perimeter", olden::perimeter);
}

#[test]
fn voronoi() {
    check("voronoi", olden::voronoi);
}
