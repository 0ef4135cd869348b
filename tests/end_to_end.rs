//! End-to-end integration: simulator → signal pipeline → detector, across
//! crate boundaries.

use earsonar::{EarSonar, EarSonarConfig, MeeState};
use earsonar_sim::cohort::Cohort;
use earsonar_sim::session::{RecordSession, Session, SessionConfig};
use earsonar_suite::{config, small_dataset};

#[test]
fn train_and_screen_round_trip() {
    let data = small_dataset(8);
    let system = EarSonar::fit(&data.sessions, &config()).expect("training");
    // Training-set screening must clearly beat 25% chance.
    let mut correct = 0;
    for s in &data.sessions {
        if system.screen(&s.recording).expect("screening") == s.ground_truth {
            correct += 1;
        }
    }
    let acc = correct as f64 / data.sessions.len() as f64;
    assert!(acc > 0.7, "training accuracy {acc}");
}

#[test]
fn held_out_patient_is_screened_correctly_at_extremes() {
    // Clear vs Purulent are ~3x apart in returned band energy; a system
    // trained on one cohort must separate them on an unseen patient.
    let data = small_dataset(10);
    let system = EarSonar::fit(&data.sessions, &config()).expect("training");
    let other = Cohort::generate(40, 777);
    let mut clear_hits = 0usize;
    let mut purulent_hits = 0usize;
    let mut purulent_total = 0usize;
    let mut clear_total = 0usize;
    for patient in &other.patients()[30..40] {
        let sick = Session::record(patient, 0, &SessionConfig::default(), 1);
        if sick.ground_truth == MeeState::Purulent {
            purulent_total += 1;
            let v = system.screen(&sick.recording).expect("screen");
            if v == MeeState::Purulent || v == MeeState::Mucoid {
                purulent_hits += 1; // adjacent-grade slack, as in the paper
            }
        }
        let healthy = Session::record(patient, 29, &SessionConfig::default(), 1);
        assert_eq!(healthy.ground_truth, MeeState::Clear);
        clear_total += 1;
        if system.screen(&healthy.recording).expect("screen") == MeeState::Clear {
            clear_hits += 1;
        }
    }
    assert!(clear_total >= 10 && purulent_total >= 4);
    assert!(
        clear_hits * 10 >= clear_total * 9,
        "clear: {clear_hits}/{clear_total}"
    );
    assert!(
        purulent_hits * 10 >= purulent_total * 8,
        "purulent: {purulent_hits}/{purulent_total}"
    );
}

#[test]
fn screening_is_deterministic() {
    let data = small_dataset(6);
    let cfg = config();
    let a = EarSonar::fit(&data.sessions, &cfg).expect("fit a");
    let b = EarSonar::fit(&data.sessions, &cfg).expect("fit b");
    for s in data.sessions.iter().take(8) {
        assert_eq!(
            a.screen(&s.recording).unwrap(),
            b.screen(&s.recording).unwrap()
        );
    }
}

#[test]
fn pipeline_survives_adverse_conditions() {
    // Loud room + walking: the pipeline must keep producing verdicts (the
    // paper reports degraded accuracy, not failure).
    use earsonar_sim::motion::Motion;
    let data = small_dataset(6);
    let system = EarSonar::fit(&data.sessions, &config()).expect("training");
    let cohort = Cohort::generate(3, 31);
    let adverse = SessionConfig {
        noise_db_spl: 65.0,
        motion: Motion::Walking,
        ..Default::default()
    };
    for p in cohort.patients() {
        let s = Session::record(p, 3, &adverse, 0);
        let verdict = system.screen(&s.recording);
        assert!(verdict.is_ok(), "screening failed: {verdict:?}");
    }
}

#[test]
fn config_violations_surface_before_any_audio_work() {
    // At 32 kHz the 16-20 kHz probe band sits above the Nyquist frequency.
    let bad = EarSonarConfig {
        sample_rate: 32_000.0,
        ..Default::default()
    };
    assert!(bad.validate().is_err());
    let cfg = EarSonarConfig {
        top_features: 0,
        ..Default::default()
    };
    assert!(EarSonar::fit(&small_dataset(2).sessions, &cfg).is_err());
}
