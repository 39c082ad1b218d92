//! Table 1 regeneration (one-shot text form): time and space for the four
//! codes at the three progressive levels. The statistical version, with
//! repetitions, calibration and per-layer times, is psa-bench's `table1`
//! workload.
//!
//! ```sh
//! cargo run --release --example table1
//! cargo run --release --manifest-path psabench/Cargo.toml -- \
//!     run --workload table1 --seconds 25
//! ```
//!
//! Like the paper — where Sparse LU exhausts the 128 MB machine at L2/L3 —
//! every run executes under a configurable byte budget; budget misses are
//! reported as OOM, not errors.

use psa::codes::{table1_codes, Sizes};
use psa::core::api::{AnalysisOptions, Analyzer};
use psa::core::engine::AnalysisError;
use psa::core::stats::Budget;
use psa::rsg::Level;

fn main() {
    let budget_mb: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(128);
    let budget = Budget {
        max_bytes: Some(budget_mb * 1024 * 1024),
        ..Budget::default()
    };
    println!("Table 1 reproduction (budget {budget_mb} MB structural bytes)\n");
    println!(
        "{:<12} {:>4} {:>12} {:>12} {:>8} {:>7}",
        "code", "lvl", "time", "space", "iters", "graphs"
    );

    for (name, src) in table1_codes(Sizes::default()) {
        let analyzer = Analyzer::new(
            &src,
            AnalysisOptions {
                budget,
                ..AnalysisOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        for level in Level::ALL {
            match analyzer.run_at(level) {
                Ok(res) => {
                    println!(
                        "{:<12} {:>4} {:>12} {:>11.2}M {:>8} {:>7}",
                        name,
                        level.to_string(),
                        format!("{:.2?}", res.stats.elapsed),
                        res.stats.peak_mib(),
                        res.stats.iterations,
                        res.stats.max_graphs_per_stmt,
                    );
                }
                Err(AnalysisError::BudgetExceeded {
                    which: psa_core::BudgetKind::Bytes { peak_bytes, .. },
                    ..
                }) => {
                    println!(
                        "{:<12} {:>4} {:>12} {:>11.2}M {:>8} {:>7}",
                        name,
                        level.to_string(),
                        "OOM",
                        peak_bytes as f64 / (1024.0 * 1024.0),
                        "-",
                        "-",
                    );
                }
                Err(e) => {
                    println!("{:<12} {:>4}  failed: {e}", name, level.to_string());
                }
            }
        }
    }
}
