//! # earsonar-bench
//!
//! The benchmark harness that regenerates **every table and figure** of the
//! EarSonar paper's evaluation (ICDCS 2023, §VI). Each binary in `src/bin`
//! prints one paper artifact as an ASCII table next to the paper's own
//! numbers; `EXPERIMENTS.md` at the repository root records a full
//! paper-vs-measured comparison.
//!
//! | binary               | paper artifact |
//! |-----------------------|----------------|
//! | `fig02_feasibility`   | Fig. 2(b–d): spectra with/without fluid, the 18 kHz dip |
//! | `fig09_consistency`   | Fig. 9: session-to-session PSD consistency |
//! | `fig10_recovery`      | Fig. 10: per-patient spectra admission → recovery |
//! | `fig11_states`        | Fig. 11: spectral bands per effusion state |
//! | `fig13_overall`       | Fig. 13(a–d): precision/recall/F1 + confusion matrix |
//! | `table1_angle`        | Table I: accuracy vs wearing angle |
//! | `fig14_noise`         | Fig. 14(a,b): FAR/FRR vs ambient noise |
//! | `fig14_motion`        | Fig. 14(c,d): FAR/FRR vs body motion |
//! | `fig15a_devices`      | Fig. 15(a): recall/precision per earphone model |
//! | `fig15b_training`     | Fig. 15(b): accuracy vs training-set size |
//! | `table2_latency`      | Table II: per-stage latency |
//! | `table3_power`        | Table III: smartphone power model |
//! | `baseline_comparison` | §I/§VI headline: EarSonar vs the no-segmentation baseline |
//! | `ablation`            | design-choice ablations (IR estimation, alignment, selection) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod power;
pub mod timing;

use earsonar::eval::{loocv, ExtractedDataset};
use earsonar::EarSonarConfig;
use earsonar_ml::metrics::ClassificationReport;
use earsonar_sim::cohort::Cohort;
use earsonar_sim::dataset::{Dataset, DatasetSpec};
use earsonar_sim::session::SessionConfig;

/// The cohort seed shared by all experiments so their numbers agree.
pub const EXPERIMENT_SEED: u64 = 7;

/// Number of participants, matching the paper's study.
pub const PAPER_COHORT: usize = 112;

/// Reads a cohort-size override from the command line (first positional
/// argument), defaulting to `PAPER_COHORT`. Smaller cohorts are handy for
/// quick runs: `cargo run --bin fig13_overall -- 24`.
pub fn cohort_size_from_args() -> usize {
    std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(PAPER_COHORT)
}

/// Builds the standard labelled dataset: `n` patients, two sessions per
/// effusion stage, quiet room, seated, standard wearing angle.
pub fn standard_dataset(n: usize, session: SessionConfig) -> Dataset {
    let cohort = Cohort::generate(n, EXPERIMENT_SEED);
    Dataset::build(
        &cohort,
        &DatasetSpec {
            sessions_per_state: 2,
            config: session,
            seed: EXPERIMENT_SEED,
        },
    )
}

/// Runs the full LOOCV evaluation of EarSonar on a dataset.
///
/// # Panics
///
/// Panics if the pipeline or evaluation fails — experiment binaries treat
/// that as fatal.
pub fn evaluate(dataset: &Dataset, config: &EarSonarConfig) -> ClassificationReport {
    let ex =
        ExtractedDataset::extract(&dataset.sessions, config).expect("front-end feature extraction");
    loocv(&ex, config).expect("LOOCV evaluation")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_dataset_is_deterministic() {
        let a = standard_dataset(3, SessionConfig::default());
        let b = standard_dataset(3, SessionConfig::default());
        assert_eq!(a.sessions, b.sessions);
    }

    #[test]
    fn evaluate_produces_sane_report_on_tiny_cohort() {
        let ds = standard_dataset(6, SessionConfig::default());
        let report = evaluate(&ds, &EarSonarConfig::default());
        assert!(report.accuracy > 0.4);
        assert_eq!(report.precision.len(), 4);
    }
}
