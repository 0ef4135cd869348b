//! Paper Fig. 15(b): accuracy versus training-set size.
//!
//! The paper trains on 25/50/75/100% of the data and finds accuracy rising
//! steeply to ~91.6% at 50%, then saturating — the k-means centres converge
//! with modest data. We split at the *participant* level (train on a
//! fraction of the children, test on the rest) so the curve measures
//! population coverage rather than leaking patient identity.

use earsonar::eval::{holdout_by_participant, ExtractedDataset};
use earsonar::report::{pct, Table};
use earsonar::EarSonarConfig;
use earsonar_bench::{cohort_size_from_args, standard_dataset};
use earsonar_sim::session::SessionConfig;

/// Paper-reported approximate accuracies per training fraction.
const PAPER: [(f64, &str); 4] = [
    (0.25, "~85%"),
    (0.50, "91.6%"),
    (0.75, "~92%"),
    (0.90, "92.8%"),
];

fn main() {
    let n = cohort_size_from_args();
    println!("Fig. 15(b) — accuracy vs training size ({n} participants)\n");
    let cfg = EarSonarConfig::default();
    let dataset = standard_dataset(n, SessionConfig::default());
    let ex = ExtractedDataset::extract(&dataset.sessions, &cfg).expect("extract");

    let mut t = Table::new("Fig. 15(b): Impact of Training Size");
    t.header(["training fraction", "paper", "measured (mean of 9 splits)"]);
    let mut accs = Vec::new();
    for (frac, paper) in PAPER {
        // Average several participant splits to steady the estimate.
        let mut sum = 0.0;
        let reps = 9;
        for seed in 0..reps {
            let r = holdout_by_participant(&ex, &cfg, frac, seed).expect("holdout evaluation");
            sum += r.accuracy;
        }
        let mean = sum / reps as f64;
        accs.push(mean);
        t.row([
            format!("{:.0}%", frac * 100.0),
            paper.to_string(),
            pct(mean),
        ]);
        eprintln!("  {:>3.0}%: {}", frac * 100.0, pct(mean));
    }
    print!("{}", t.render());
    println!(
        "\nshape check (paper): steep rise then saturation — the 50%→90%\n\
         gain ({:+.1} pts measured) is much smaller than 25%→50% ({:+.1} pts).",
        100.0 * (accs[3] - accs[1]),
        100.0 * (accs[1] - accs[0])
    );
}
