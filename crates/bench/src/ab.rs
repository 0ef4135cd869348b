//! A/B backend comparison harness.
//!
//! Runs candidate feature/classifier backends from the
//! [`earsonar::backend`] registry against the paper's reference
//! MFCC+k-means baseline on the *same* deterministic cohort and the
//! *same* leave-one-participant-out folds, then renders the comparison as
//! an ASCII table.

use crate::standard_dataset;
use earsonar::eval::{ab_compare, AbComparison};
use earsonar::report::Table;
use earsonar::EarSonarConfig;
use earsonar_sim::session::SessionConfig;

/// The candidate backends every A/B run measures against the baseline.
pub const AB_CANDIDATES: [&str; 2] = ["absorbance-logistic", "absorbance-knn"];

/// Runs the standard A/B comparison on the shared deterministic cohort.
///
/// # Panics
///
/// Panics if extraction or evaluation fails — experiment binaries treat
/// that as fatal.
pub fn run_ab(patients: usize, config: &EarSonarConfig) -> AbComparison {
    let dataset = standard_dataset(patients, SessionConfig::default());
    ab_compare(&dataset.sessions, config, &AB_CANDIDATES).expect("A/B comparison")
}

/// Prints the comparison as an ASCII table: one row per backend with
/// accuracy, mean confidence, and the per-class precision deltas.
pub fn print_ab_table(cmp: &AbComparison) {
    let mut t = Table::new("A/B backend comparison (identical cohort seeds and LOOCV folds)");
    t.header(["backend", "accuracy", "confidence", "precision Δ vs baseline"]);
    let pct = |v: f64| format!("{:.1}%", v * 100.0);
    t.row([
        format!("{} (baseline)", cmp.baseline.backend),
        pct(cmp.baseline.report.accuracy),
        format!("{:.3}", cmp.baseline.mean_confidence),
        "—".to_string(),
    ]);
    for c in &cmp.candidates {
        let delta = cmp
            .precision_delta(c)
            .iter()
            .map(|d| format!("{:+.3}", d))
            .collect::<Vec<_>>()
            .join(" ");
        t.row([
            c.backend.to_string(),
            pct(c.report.accuracy),
            format!("{:.3}", c.mean_confidence),
            delta,
        ]);
    }
    print!("{}", t.render());
}
