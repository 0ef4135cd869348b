//! Sample-rate generality: the paper assumes 48 kHz ("the sampling rate of
//! current commercial smartphones"), but some handsets capture at
//! 44.1 kHz. The pipeline is parameterized end to end; this test wires a
//! 44.1 kHz probe through the simulator and the full system.

use earsonar::{EarSonar, EarSonarConfig};
use earsonar_acoustics::chirp::FmcwChirp;
use earsonar_sim::cohort::Cohort;
use earsonar_sim::dataset::{patient_sessions, DatasetSpec};
use earsonar_sim::session::{RecordSession, SessionConfig};

fn config_44100() -> (EarSonarConfig, SessionConfig) {
    let fs = 44_100.0;
    let chirp = FmcwChirp::new(16_000.0, 4_000.0, 0.5e-3, fs).expect("chirp");
    let chirp_len = chirp.len(); // 22 samples at 44.1 kHz
    let chirp_hop = chirp.hop_samples(5e-3); // ~220 samples
    let cfg = EarSonarConfig {
        sample_rate: fs,
        chirp_len,
        chirp_hop,
        ..EarSonarConfig::default()
    };
    cfg.validate().expect("validate");
    let session = SessionConfig {
        chirp,
        ..Default::default()
    };
    (cfg, session)
}

#[test]
fn pipeline_works_at_44100_hz() {
    let (cfg, session) = config_44100();
    let cohort = Cohort::generate(8, 4411);
    let sessions: Vec<_> = cohort
        .patients()
        .iter()
        .flat_map(|p| {
            patient_sessions(
                p,
                &DatasetSpec {
                    sessions_per_state: 2,
                    config: session.clone(),
                    seed: 1,
                },
            )
        })
        .collect();
    assert!(!sessions.is_empty());
    assert_eq!(sessions[0].recording.sample_rate, 44_100.0);

    let system = EarSonar::fit(&sessions, &cfg).expect("fit at 44.1 kHz");
    let mut correct = 0usize;
    for s in &sessions {
        if system.screen(&s.recording).expect("screen") == s.ground_truth {
            correct += 1;
        }
    }
    let acc = correct as f64 / sessions.len() as f64;
    assert!(acc > 0.6, "44.1 kHz training accuracy {acc}");
}

#[test]
fn mismatched_layouts_are_refused_by_every_recording_entry_point() {
    // Train at 48 kHz, screen a 44.1 kHz recording with a ~220-sample hop:
    // the filters, chirp template and mel bands are built for the model's
    // layout, so both the batch and the quality-gated screening refuse the
    // recording with the same typed error instead of disagreeing on it.
    use earsonar::screening::{screen_recording_quality, RetryPolicy};
    use earsonar::EarSonarError;
    use earsonar_suite::{config, small_dataset};
    let data = small_dataset(6);
    let system = EarSonar::fit(&data.sessions, &config()).expect("fit");

    let (_, session44) = config_44100();
    let cohort = Cohort::generate(1, 9);
    let s = earsonar_sim::session::Session::record(&cohort.patients()[0], 0, &session44, 0);
    assert_eq!(s.recording.sample_rate, 44_100.0);
    assert_ne!(s.recording.chirp_hop, config().chirp_hop);
    assert!(matches!(
        system.screen(&s.recording),
        Err(EarSonarError::BadRecording { .. })
    ));
    assert!(matches!(
        screen_recording_quality(&system, &s.recording, &RetryPolicy::default()),
        Err(EarSonarError::BadRecording { .. })
    ));
}
