//! A/B backend evaluation: runs the candidate feature/classifier
//! backends against the reference MFCC+k-means baseline on the same
//! deterministic cohort seeds and leave-one-participant-out folds, and
//! prints per-class precision deltas as a table.
//!
//! Usage: `cargo run --release -p earsonar-bench --bin ab-bench --
//! [PATIENTS] [--smoke]`. `--smoke` (or `EARSONAR_BENCH_SMOKE`) pins the
//! CI shape: 8 patients, the shared experiment seed.

use earsonar::EarSonarConfig;
use earsonar_bench::ab::{print_ab_table, run_ab, AB_CANDIDATES};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = std::env::var_os("EARSONAR_BENCH_SMOKE").is_some()
        || args.iter().any(|a| a == "--smoke");
    let patients = args
        .iter()
        .find_map(|a| a.parse::<usize>().ok())
        .unwrap_or(if smoke { 8 } else { 24 });

    println!(
        "== A/B backends: {} candidate(s) vs mfcc-kmeans baseline, {patients} patients ==",
        AB_CANDIDATES.len()
    );
    let cmp = run_ab(patients, &EarSonarConfig::default());
    print_ab_table(&cmp);
}
