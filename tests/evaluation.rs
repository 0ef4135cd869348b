//! Integration tests of the evaluation harness: LOOCV discipline, baseline
//! ordering, and the headline shape results on small cohorts.

use earsonar::eval::{holdout_by_participant, loocv, loocv_baseline, ExtractedDataset};
use earsonar_suite::{config, small_dataset};

#[test]
fn loocv_never_trains_on_the_test_participant() {
    // Indirect check: per-participant accuracy must not be perfect across
    // the board (which would smell like leakage) yet must beat chance.
    let data = small_dataset(10);
    let cfg = config();
    let ex = ExtractedDataset::extract(&data.sessions, &cfg).expect("extract");
    let report = loocv(&ex, &cfg).expect("loocv");
    assert!(report.accuracy > 0.5, "accuracy {}", report.accuracy);
    assert!(report.accuracy < 1.0, "suspiciously perfect");
}

#[test]
fn earsonar_beats_the_no_segmentation_baseline() {
    // The paper's headline: fine-grained segmentation wins.
    let data = small_dataset(12);
    let cfg = config();
    let full = ExtractedDataset::extract(&data.sessions, &cfg).expect("extract full");
    let base = ExtractedDataset::extract_baseline(&data.sessions, &cfg).expect("extract base");
    let r_full = loocv(&full, &cfg).expect("loocv full");
    let r_base = loocv_baseline(&base).expect("loocv base");
    assert!(
        r_full.accuracy > r_base.accuracy + 0.05,
        "EarSonar {} vs baseline {}",
        r_full.accuracy,
        r_base.accuracy
    );
}

#[test]
fn more_training_data_does_not_hurt() {
    // Fig. 15(b)'s shape: accuracy at 75% of the participants in training
    // is at least close to (and usually above) accuracy at 25%.
    let data = small_dataset(16);
    let cfg = config();
    let ex = ExtractedDataset::extract(&data.sessions, &cfg).expect("extract");
    let mean_acc = |frac: f64| {
        (0..4)
            .map(|seed| {
                holdout_by_participant(&ex, &cfg, frac, seed)
                    .expect("holdout")
                    .accuracy
            })
            .sum::<f64>()
            / 4.0
    };
    let low = mean_acc(0.25);
    let high = mean_acc(0.75);
    assert!(
        high + 0.05 >= low,
        "training-size trend broken: 25% {low} vs 75% {high}"
    );
}

#[test]
fn report_metrics_are_internally_consistent() {
    let data = small_dataset(8);
    let cfg = config();
    let ex = ExtractedDataset::extract(&data.sessions, &cfg).expect("extract");
    let r = loocv(&ex, &cfg).expect("loocv");
    for k in 0..4 {
        assert!((0.0..=1.0).contains(&r.precision[k]));
        assert!((0.0..=1.0).contains(&r.recall[k]));
        assert!((r.frr[k] - (1.0 - r.recall[k])).abs() < 1e-12);
    }
    // Confusion rows are distributions.
    for row in r.confusion.normalized() {
        let s: f64 = row.iter().sum();
        assert!((s - 1.0).abs() < 1e-9 || s == 0.0);
    }
}

#[test]
fn dropped_sessions_are_rare_in_default_conditions() {
    let data = small_dataset(8);
    let ex = ExtractedDataset::extract(&data.sessions, &config()).expect("extract");
    assert!(
        ex.dropped * 20 <= data.sessions.len(),
        "{} of {} sessions dropped",
        ex.dropped,
        data.sessions.len()
    );
}
