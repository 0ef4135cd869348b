//! Quickstart: simulate a small clinical study, train EarSonar, screen a
//! new recording.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use earsonar::backend::Classifier;
use earsonar::{EarSonar, EarSonarConfig};
use earsonar_sim::cohort::Cohort;
use earsonar_sim::dataset::{Dataset, DatasetSpec};
use earsonar_sim::session::{RecordSession, Session, SessionConfig};

fn main() {
    // 1. A virtual cohort: 16 children followed from admission to recovery.
    let cohort = Cohort::generate(16, 42);
    println!(
        "cohort: {} participants ({}/{} male/female)",
        cohort.len(),
        cohort.sex_counts().0,
        cohort.sex_counts().1
    );

    // 2. Labelled training sessions: two recordings per effusion stage.
    let data = Dataset::build(&cohort, &DatasetSpec::default());
    println!(
        "training sessions: {} (Clear/Serous/Mucoid/Purulent = {:?})",
        data.len(),
        data.state_counts()
    );

    // 3. Train the full pipeline with the paper's configuration.
    let config = EarSonarConfig::default();
    let system = EarSonar::fit(&data.sessions, &config).expect("training");
    let Classifier::KMeans(detector) = system.classifier() else {
        unreachable!("EarSonar::fit trains the paper's k-means detector");
    };
    println!(
        "trained: {} features selected of 105, k = {} clusters",
        detector.selected_features().len(),
        detector.kmeans().k()
    );

    // 4. Screen a fresh recording from a new patient (not in training).
    let new_cohort = Cohort::generate(20, 43);
    let patient = &new_cohort.patients()[19];
    for day in [0u32, 10, 29] {
        let session = Session::record(patient, day, &SessionConfig::default(), 0);
        let verdict = system.screen(&session.recording).expect("screening");
        println!(
            "day {day:>2}: screened as {verdict:<8} (ground truth {})",
            session.ground_truth
        );
    }
}
