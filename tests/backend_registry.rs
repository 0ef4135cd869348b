//! Integration tests of the feature/classifier backend registry:
//! `EarSonar::fit` must equal `fit_backend(REFERENCE_BACKEND)`, verdict
//! for verdict, every registered backend must train, screen, and
//! round-trip through the model file, and the A/B harness must score
//! candidates on the same folds as the reference evaluation.

use earsonar::backend::{lookup, registry, REFERENCE_BACKEND};
use earsonar::eval::ab_compare;
use earsonar::model_io::{model_from_string, model_to_string};
use earsonar::streaming::ChirpStream;
use earsonar::{EarSonar, EarSonarError};
use earsonar_dsp::plan::DspScratch;
use earsonar_suite::{config, small_dataset};

#[test]
fn default_fit_is_the_reference_backend_bit_for_bit() {
    let data = small_dataset(6);
    let cfg = config();
    let default = EarSonar::fit(&data.sessions, &cfg).expect("fit");
    let named =
        EarSonar::fit_backend(&data.sessions, &cfg, REFERENCE_BACKEND).expect("fit_backend");
    assert_eq!(default.backend(), REFERENCE_BACKEND);
    assert_eq!(named.backend(), REFERENCE_BACKEND);
    for s in &data.sessions {
        let a = default.screen(&s.recording).expect("screen default");
        let b = named.screen(&s.recording).expect("screen named");
        assert_eq!(a, b, "patient {} day {}", s.patient_id, s.day);
    }
}

#[test]
fn every_registered_backend_trains_screens_and_round_trips() {
    let data = small_dataset(6);
    let cfg = config();
    for spec in registry() {
        let system = EarSonar::fit_backend(&data.sessions, &cfg, spec.name)
            .unwrap_or_else(|e| panic!("fit {}: {e}", spec.name));
        assert_eq!(system.backend(), spec.name);
        let text = model_to_string(&system);
        let reloaded =
            model_from_string(&text).unwrap_or_else(|e| panic!("reload {}: {e}", spec.name));
        assert_eq!(reloaded.backend(), spec.name);
        for s in data.sessions.iter().take(8) {
            let direct = system.screen(&s.recording).expect("screen");
            let via_file = reloaded.screen(&s.recording).expect("screen reloaded");
            assert_eq!(direct, via_file, "backend {}", spec.name);
        }
    }
}

#[test]
fn streaming_and_batch_agree_for_every_backend() {
    // The backend's extractor runs at the end of the streaming front end
    // too; pushing chirp windows must give the same verdict as
    // whole-recording screening regardless of the backend.
    let data = small_dataset(5);
    let cfg = config();
    for spec in registry() {
        let system = EarSonar::fit_backend(&data.sessions, &cfg, spec.name).expect("fit");
        for s in data.sessions.iter().take(4) {
            let batch = system.screen(&s.recording).expect("batch screen");
            let fe = system.front_end();
            let mut scratch = DspScratch::new();
            let mut stream = ChirpStream::new(fe);
            for c in 0..s.recording.n_chirps {
                stream
                    .push_chirp_with(fe, &mut scratch, s.recording.chirp_window(c))
                    .expect("push chirp");
            }
            let processed = stream.finish_with(fe, &mut scratch).expect("finish");
            let streamed = system.classify(&processed).expect("classify");
            assert_eq!(batch, streamed, "backend {}", spec.name);
        }
    }
}

#[test]
fn unknown_backend_is_a_typed_error_everywhere() {
    let data = small_dataset(3);
    let cfg = config();
    assert!(matches!(
        lookup("no-such-backend"),
        Err(EarSonarError::UnknownBackend { .. })
    ));
    assert!(matches!(
        EarSonar::fit_backend(&data.sessions, &cfg, "no-such-backend"),
        Err(EarSonarError::UnknownBackend { .. })
    ));
}

#[test]
fn ab_harness_scores_candidates_against_the_reference() {
    let data = small_dataset(6);
    let cfg = config();
    let cmp = ab_compare(
        &data.sessions,
        &cfg,
        &["absorbance-logistic", "absorbance-knn"],
    )
    .expect("ab_compare");
    assert_eq!(cmp.baseline.backend, REFERENCE_BACKEND);
    assert_eq!(cmp.candidates.len(), 2);
    for cand in &cmp.candidates {
        let deltas = cmp.precision_delta(cand);
        assert_eq!(deltas.len(), cmp.baseline.report.precision.len());
        assert!(cand.report.accuracy >= 0.0 && cand.report.accuracy <= 1.0);
    }
}
