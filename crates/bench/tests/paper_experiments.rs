//! Every paper experiment's report, pinned byte for byte.
//!
//! `paper_experiments.golden` is exactly what `paper-experiments all`
//! prints: the reports of `experiments::ALL` in order, separated by a rule
//! of `=`. Every experiment is seeded and runs on the calling thread, so
//! the output is the same in debug and release and at any
//! `RUST_TEST_THREADS`. A change that moves a table on purpose
//! regenerates the file with
//!
//! ```text
//! cargo run --release -p slp-bench --bin paper-experiments -- all \
//!     > crates/bench/tests/paper_experiments.golden
//! ```
//!
//! and the diff is the review.

use slp_bench::experiments;

const GOLDEN: &str = include_str!("paper_experiments.golden");

#[test]
fn every_experiment_prints_its_golden_report() {
    // The binary's separator: `println!("\n{rule}\n")` between reports.
    let separator = format!("\n{}\n\n", "=".repeat(78));
    let expected: Vec<&str> = GOLDEN.split(separator.as_str()).collect();
    assert_eq!(
        expected.len(),
        experiments::ALL.len(),
        "the golden file holds one report per experiment id"
    );
    for (id, want) in experiments::ALL.iter().zip(expected) {
        let got = experiments::run(id).expect("every listed id runs");
        assert_eq!(got, want, "{id}'s report differs from the golden file");
    }
}
