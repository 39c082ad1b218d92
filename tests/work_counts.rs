//! Committed work counts: the performance gate CI checks on every change.
//!
//! Each row pins the deterministic work of one sequential `psa bench-code
//! <code> --level <L>` run at default sizes: fixpoint iterations, COMPRESS
//! and JOIN calls, subsumption searches, peak structural bytes and the
//! canonical bytes the interner holds. The
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
/// searches, peak bytes, interner bytes)`. COMPRESS counts kernel runs: a
/// transfer-memo or JOIN-memo hit runs none, so a memo that stops hitting
/// raises it. JOIN counts the reduction loop's JOINs, memo hits included.
/// Interner bytes are the `interner_bytes` gauge: the canonical encoding's
/// size summed over the run's interned forms, so an encoding that grows
/// keys shows up here.
type Row = (&'static str, Level, usize, u64, u64, u64, usize, u64);

#[rustfmt::skip]
const TABLE: &[Row] = &[
    ("matvec",     L1,  190,    885,   112,      400,    438692,    49798),
    ("matvec",     L2,  270,   1413,   250,      912,    668884,   125910),
    ("matvec",     L3,  274,   1636,   253,     1046,    692780,   148571),
    ("matmat",     L1,  339,   2610,   291,     1233,   1409372,   209963),
    ("matmat",     L2,  553,   3644,   552,     2302,   1851972,   414609),
    ("matmat",     L3,  558,   4175,   548,     2428,   1905404,   480146),
    ("lu",         L1,  340,   1507,   291,      674,    765512,    95133),
    ("lu",         L2,  581,   2972,   513,     2842,   1098192,   335230),
    ("lu",         L3,  420,   2573,   516,     2619,   1284652,   315206),
    ("barnes-hut", L1,  460,   2980,   631,     1526,   1471016,   492053),
    ("barnes-hut", L2,  610,   4005,   567,     4549,   1992396,   703525),
    ("barnes-hut", L3,  631,   5436,   786,     5707,   2406644,  1162523),
    ("treeadd",    L1,    1,    220,    31,       49,      2800,     7946),
    ("treeadd",    L2,    1,    399,    54,       88,      4000,    16076),
    ("treeadd",    L3,    1,    399,    54,       88,      4000,    16076),
    ("power",      L1,  163,    722,   131,      409,    308360,    43742),
    ("power",      L2,  210,   1123,   251,     1032,    530852,   106251),
    ("power",      L3,  227,   1311,   204,     1154,    504744,   104665),
    ("em3d",       L1,  123,    650,    41,      194,    499560,    52527),
    ("em3d",       L2,  139,    699,    18,      268,    652848,    72614),
    ("em3d",       L3,  139,    832,    18,      321,    656560,    85095),
    ("bisort",     L1,    9,    234,    64,       42,     15568,     8388),
    ("bisort",     L2,    9,    492,   156,      101,     19648,    22212),
    ("bisort",     L3,    9,    492,   156,      101,     19648,    22212),
    ("tsp",        L1,  353,   1227,   172,      660,    686468,   170527),
    ("tsp",        L2,  585,   2070,   376,     2365,    751468,   231085),
    ("tsp",        L3,  596,   2228,   389,     2564,    771248,   255745),
    ("health",     L1,  233,    993,    95,      340,    507896,    91365),
    ("health",     L2,  347,   1659,   284,      793,    744596,   215335),
    ("health",     L3,  341,   1775,   333,      830,    749868,   234767),
    ("perimeter",  L1,    1,    328,    68,       70,      3416,    17994),
    ("perimeter",  L2,    1,   1683,   342,      246,      6584,    87631),
    ("perimeter",  L3,    1,   1683,   342,      246,      6584,    87631),
    ("voronoi",    L1,  352,   1101,   165,      611,    499024,   119076),
    ("voronoi",    L2,  565,   1953,   381,     2416,    783868,   221663),
    ("voronoi",    L3,  573,   2095,   392,     2593,    803856,   242905),
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
        ops.interner_bytes,
    )
}

/// One row in the table's own syntax.
fn render(&(code, level, iterations, compress, join, searches, peak, interned): &Row) -> String {
    let code = format!("{code:?},");
    format!(
        "    ({code:<13} {level}, {iterations:>4}, {compress:>6}, {join:>5}, {searches:>8}, {peak:>9}, {interned:>8}),"
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

/// The rows of `code` at L1 and L2.
fn l1_l2(code: &str) -> (Row, Row) {
    let row = |level| *TABLE.iter().find(|r| r.0 == code && r.1 == level).unwrap();
    (row(L1), row(L2))
}

#[test]
fn no_code_costs_more_at_l1_than_at_l2() {
    // The progressive driver escalates on precision, never on cost, which
    // is right only while L1 is every code's cheapest level. tsp and
    // voronoi break that when a dead stack pointer keeps popped cells and
    // their tree nodes alive (DESIGN.md §4, back-edge kills).
    for &(code, ..) in TABLE.iter().filter(|r| r.1 == L1) {
        let (l1, l2) = l1_l2(code);
        assert!(
            l1.3 <= l2.3,
            "{code}: L1 runs more COMPRESS kernels than L2"
        );
        assert!(l1.6 <= l2.6, "{code}: L1 peaks above L2");
    }
    let mib = |bytes: usize| bytes as f64 / (1024.0 * 1024.0);
    assert!(mib(l1_l2("tsp").0 .6) <= 3.0, "tsp L1 peak");
    assert!(mib(l1_l2("voronoi").0 .6) <= 1.5, "voronoi L1 peak");
}
