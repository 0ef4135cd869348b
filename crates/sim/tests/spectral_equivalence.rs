//! Equivalence suite for the spectral-domain recording synthesizer.
//!
//! The hot path (`synthesize_recording`) accumulates every propagation
//! path in the frequency domain and inverts once per chirp; the reference
//! (`synthesize_recording_time_domain`) sums the paths in the time
//! domain, one `delay_fractional_allpass_with` per path per chirp. Both
//! consume the RNG identically, so for a fixed seed they must agree
//! within 1e-9 relative error across motion states, devices, wearing
//! angles, and effusion states — and the fanned-out dataset builder must
//! be bit-identical to recording the patients one after another.

use earsonar_sim::cohort::Cohort;
use earsonar_sim::dataset::{patient_sessions, Dataset, DatasetSpec};
use earsonar_sim::device::EarphoneModel;
use earsonar_sim::ear::EarCanal;
use earsonar_sim::motion::Motion;
use earsonar_sim::recorder::{
    synthesize_recording, synthesize_recording_time_domain, RecorderConfig,
};
use earsonar_sim::rng::SimRng;
use earsonar_sim::wearing::WearingAngle;
use earsonar_sim::{MeeAcoustics, MeeState};

const CASES: u64 = 24;

fn max_abs(x: &[f64]) -> f64 {
    x.iter().fold(0.0f64, |m, v| m.max(v.abs()))
}

/// Asserts the two synthesis paths agree within 1e-9 of the reference peak.
fn assert_equivalent(label: &str, cfg: &RecorderConfig, ear: &EarCanal, seed: u64) {
    let mut resp_rng = SimRng::seed_from_u64(seed ^ 0x5DEE_CE66);
    let state = MeeState::ALL[(seed % MeeState::ALL.len() as u64) as usize];
    let resp = state.sample_response(18_000.0, &mut resp_rng);
    let mut rng_a = SimRng::seed_from_u64(seed);
    let mut rng_b = SimRng::seed_from_u64(seed);
    let spectral = synthesize_recording(ear, &resp, cfg, &mut rng_a);
    let reference = synthesize_recording_time_domain(ear, &resp, cfg, &mut rng_b);
    assert_eq!(spectral.samples.len(), reference.samples.len(), "{label}");
    // Identical RNG consumption is a precondition of sample agreement;
    // check it explicitly by drawing once more from both streams.
    assert_eq!(
        rng_a.uniform(0.0, 1.0),
        rng_b.uniform(0.0, 1.0),
        "{label}: RNG streams diverged"
    );
    let peak = max_abs(&reference.samples);
    assert!(peak > 0.0, "{label}: silent reference");
    for (i, (a, b)) in spectral.samples.iter().zip(&reference.samples).enumerate() {
        assert!(
            (a - b).abs() <= 1e-9 * peak,
            "{label} sample {i}: {a} vs {b} (peak {peak})"
        );
    }
}

#[test]
fn equivalence_across_random_ears_and_seeds() {
    for seed in 0..CASES {
        let mut ear_rng = SimRng::seed_from_u64(seed.wrapping_mul(0x9E37));
        let ear = EarCanal::sample_child(&mut ear_rng);
        let cfg = RecorderConfig::default();
        assert_equivalent(&format!("seed {seed}"), &cfg, &ear, seed + 1000);
    }
}

#[test]
fn equivalence_across_motion_states() {
    let mut ear_rng = SimRng::seed_from_u64(17);
    let ear = EarCanal::sample_child(&mut ear_rng);
    for (i, motion) in Motion::ALL.into_iter().enumerate() {
        let cfg = RecorderConfig {
            motion,
            ..Default::default()
        };
        assert_equivalent(motion.label(), &cfg, &ear, 500 + i as u64);
    }
}

#[test]
fn equivalence_across_devices_and_angles() {
    let mut ear_rng = SimRng::seed_from_u64(23);
    let ear = EarCanal::sample_child(&mut ear_rng);
    for (i, device) in EarphoneModel::ALL.into_iter().enumerate() {
        for (j, deg) in [0.0, 20.0, 40.0].into_iter().enumerate() {
            let cfg = RecorderConfig {
                device,
                angle: WearingAngle::new(deg),
                ..Default::default()
            };
            let label = format!("{} at {deg}°", device.label());
            assert_equivalent(&label, &cfg, &ear, 900 + (i * 3 + j) as u64);
        }
    }
}

#[test]
fn equivalence_with_varied_chirp_counts() {
    let mut ear_rng = SimRng::seed_from_u64(29);
    let ear = EarCanal::sample_child(&mut ear_rng);
    for n_chirps in [1usize, 3, 24, 40] {
        let cfg = RecorderConfig {
            n_chirps,
            ..Default::default()
        };
        assert_equivalent(
            &format!("{n_chirps} chirps"),
            &cfg,
            &ear,
            77 + n_chirps as u64,
        );
    }
}

#[test]
fn spectral_path_is_deterministic_run_to_run() {
    let mut ear_rng = SimRng::seed_from_u64(31);
    let ear = EarCanal::sample_child(&mut ear_rng);
    let cfg = RecorderConfig::default();
    let mut resp_rng = SimRng::seed_from_u64(32);
    let resp = MeeState::Mucoid.sample_response(18_000.0, &mut resp_rng);
    let runs: Vec<_> = (0..3)
        .map(|_| {
            let mut rng = SimRng::seed_from_u64(33);
            synthesize_recording(&ear, &resp, &cfg, &mut rng)
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[1], runs[2]);
}

#[test]
fn dataset_build_is_bit_identical_to_per_patient_recording() {
    let cohort = Cohort::generate(6, 41);
    let spec = DatasetSpec::default();
    let built = Dataset::build(&cohort, &spec);
    let mut sequential = Vec::new();
    for p in cohort.patients() {
        sequential.extend(patient_sessions(p, &spec));
    }
    assert_eq!(built.sessions.len(), sequential.len());
    for (a, b) in built.sessions.iter().zip(&sequential) {
        assert_eq!(a, b, "patient {}", a.patient_id);
    }
}
