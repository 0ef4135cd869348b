//! The paper's headline comparison (§I, §VI, §VIII): EarSonar versus the
//! prior acoustic method without fine-grained segmentation (Chan et al.).
//!
//! The paper reports EarSonar at 92.8% — "8% higher than the previous
//! method based on acoustic detection of MEE" (≈85%). Our baseline shares
//! the dechirping and clustering machinery and omits only the eardrum-echo
//! segmentation; the gap it shows is what that one stage buys.

use earsonar::eval::{loocv, loocv_baseline, ExtractedDataset};
use earsonar::report::{pct, Table};
use earsonar::EarSonarConfig;
use earsonar_bench::{cohort_size_from_args, standard_dataset};
use earsonar_sim::session::SessionConfig;

fn main() {
    let n = cohort_size_from_args();
    println!("Baseline comparison ({n} participants, LOOCV)\n");
    let cfg = EarSonarConfig::default();
    let dataset = standard_dataset(n, SessionConfig::default());

    let full = ExtractedDataset::extract(&dataset.sessions, &cfg).expect("extract");
    let earsonar_report = loocv(&full, &cfg).expect("EarSonar LOOCV");
    eprintln!("  EarSonar done: {}", pct(earsonar_report.accuracy));

    let base = ExtractedDataset::extract_baseline(&dataset.sessions, &cfg).expect("extract");
    let baseline_report = loocv_baseline(&base).expect("baseline LOOCV");
    eprintln!("  baseline done: {}", pct(baseline_report.accuracy));

    let mut t = Table::new("EarSonar vs no-segmentation baseline");
    t.header(["system", "accuracy", "median precision", "median F1"]);
    t.row([
        "EarSonar (full pipeline)".to_string(),
        pct(earsonar_report.accuracy),
        pct(earsonar_report.median_precision()),
        pct(earsonar_report.median_f1()),
    ]);
    t.row([
        "Chan-style baseline".to_string(),
        pct(baseline_report.accuracy),
        pct(baseline_report.median_precision()),
        pct(baseline_report.median_f1()),
    ]);
    print!("{}", t.render());
    let gap = 100.0 * (earsonar_report.accuracy - baseline_report.accuracy);
    println!(
        "\nmeasured gap: {gap:+.1} points (paper: ~8 points, 92.8% vs ~85%).\n\
         shape check: EarSonar must win decisively; our simulated canal\n\
         makes the un-segmented spectrum noisier than the paper's data, so\n\
         the measured gap overshoots the paper's."
    );
}
