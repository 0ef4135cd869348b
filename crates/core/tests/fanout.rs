//! The fanned-out cohort paths must equal their sequential definitions.
//!
//! `Dataset::build`, `EarSonar::fit` and `ExtractedDataset::extract*`
//! spread their per-patient and per-recording work over
//! `earsonar_dsp::fanout`, one warm scratch per worker. Each item depends
//! only on its index, so the results must match a plain sequential loop to
//! the last bit — not approximately. (Index order, exactly-once delivery,
//! inline single-worker runs and panic propagation of the fan-out itself
//! are unit-tested in `earsonar_dsp::fanout`.)

use earsonar::backend;
use earsonar::baseline::ChanBaseline;
use earsonar::detect::EarSonarDetector;
use earsonar::eval::ExtractedDataset;
use earsonar::model_io::model_to_string;
use earsonar::pipeline::FrontEnd;
use earsonar::preprocess::Preprocessor;
use earsonar::{EarSonar, EarSonarConfig};
use earsonar_signal::effusion::MeeState;
use earsonar_signal::session::Session;
use earsonar_sim::cohort::Cohort;
use earsonar_sim::dataset::{patient_sessions, Dataset, DatasetSpec};

fn sessions(n_patients: usize, seed: u64) -> Vec<Session> {
    Dataset::build(&Cohort::generate(n_patients, seed), &DatasetSpec::default()).sessions
}

fn bits(features: &[Vec<f64>]) -> Vec<Vec<u64>> {
    features
        .iter()
        .map(|f| f.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// The sequential definition of extraction: one `FrontEnd::process` per
/// session, in order, keeping the sessions that yield an echo.
fn sequential_features(
    fe: &FrontEnd,
    sessions: &[Session],
) -> (Vec<Vec<f64>>, Vec<MeeState>, Vec<usize>, usize) {
    let (mut features, mut labels, mut groups, mut dropped) =
        (Vec::new(), Vec::new(), Vec::new(), 0);
    for s in sessions {
        match fe.process(&s.recording) {
            Ok(p) => {
                features.push(p.features);
                labels.push(s.ground_truth);
                groups.push(s.patient_id);
            }
            Err(_) => dropped += 1,
        }
    }
    (features, labels, groups, dropped)
}

#[test]
fn dataset_build_is_the_concatenation_of_per_patient_sessions() {
    let cohort = Cohort::generate(5, 7);
    let spec = DatasetSpec {
        seed: 3,
        ..DatasetSpec::default()
    };
    let expected: Vec<Session> = cohort
        .patients()
        .iter()
        .flat_map(|p| patient_sessions(p, &spec))
        .collect();
    assert_eq!(Dataset::build(&cohort, &spec).sessions, expected);
}

#[test]
fn extraction_equals_a_sequential_process_loop_for_every_backend() {
    let sessions = sessions(3, 7);
    let config = EarSonarConfig::default();
    for spec in backend::registry() {
        let fe = FrontEnd::for_backend(&config, spec).unwrap();
        let (features, labels, groups, dropped) = sequential_features(&fe, &sessions);
        let extracted = ExtractedDataset::extract_with_backend(&sessions, &config, spec).unwrap();
        assert_eq!(bits(&extracted.features), bits(&features), "{}", spec.name);
        assert_eq!(extracted.labels, labels, "{}", spec.name);
        assert_eq!(extracted.groups, groups, "{}", spec.name);
        assert_eq!(extracted.dropped, dropped, "{}", spec.name);
    }
}

#[test]
fn baseline_extraction_equals_a_sequential_loop() {
    let sessions = sessions(3, 11);
    let config = EarSonarConfig::default();
    let pre = Preprocessor::new(&config).unwrap();
    let est = ChanBaseline::build_estimator(&pre, &config).unwrap();
    let features: Vec<Vec<f64>> = sessions
        .iter()
        .filter_map(|s| ChanBaseline::features(&pre, &est, &config, &s.recording).ok())
        .collect();
    let extracted = ExtractedDataset::extract_baseline(&sessions, &config).unwrap();
    assert_eq!(bits(&extracted.features), bits(&features));
    assert_eq!(extracted.dropped, sessions.len() - features.len());
}

#[test]
fn fit_equals_fitting_on_sequentially_extracted_features() {
    let sessions = sessions(4, 7);
    let config = EarSonarConfig::default();

    let fe = FrontEnd::new(&config).unwrap();
    let (features, labels, _, _) = sequential_features(&fe, &sessions);
    let detector = EarSonarDetector::fit(&features, &labels, &config).unwrap();
    let sequential = EarSonar::from_parts(fe, detector);
    let fitted = EarSonar::fit(&sessions, &config).unwrap();
    // The model text carries every fitted parameter at full precision.
    assert_eq!(model_to_string(&fitted), model_to_string(&sequential));

    for spec in backend::registry() {
        let fe = FrontEnd::for_backend(&config, spec).unwrap();
        let (features, labels, _, _) = sequential_features(&fe, &sessions);
        let classifier = (spec.fit)(&features, &labels, &config).unwrap();
        let sequential = EarSonar::from_backend_parts(fe, classifier);
        let fitted = EarSonar::fit_backend(&sessions, &config, spec.name).unwrap();
        assert_eq!(
            model_to_string(&fitted),
            model_to_string(&sequential),
            "{}",
            spec.name
        );
    }
}
