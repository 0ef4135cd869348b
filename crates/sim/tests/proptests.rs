//! Randomized-property tests for the clinical-study simulator.
//!
//! Formerly `proptest`-based; the hermetic (no-crates.io) build ports each
//! property to a deterministic loop over seeded [`DetRng`] inputs.

use earsonar_dsp::rng::DetRng;
use earsonar_sim::cohort::Cohort;
use earsonar_sim::device::EarphoneModel;
use earsonar_sim::ear::EarCanal;
use earsonar_sim::effusion::{MeeAcoustics, MeeState};
use earsonar_sim::motion::Motion;
use earsonar_sim::noise::{add_ambient_noise, spl_to_amplitude};
use earsonar_sim::recorder::{synthesize_recording, RecorderConfig};
use earsonar_sim::rng::SimRng;
use earsonar_sim::session::{RecordSession, Session, SessionConfig};
use earsonar_sim::wearing::WearingAngle;

const CASES: u64 = 24;

#[test]
fn cohorts_are_seed_deterministic() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(case);
        let n = rng.range_usize(1, 12);
        let seed = rng.next_u64() % 500;
        let a = Cohort::generate(n, seed);
        let b = Cohort::generate(n, seed);
        assert_eq!(a, b, "case {case}");
    }
}

#[test]
fn ear_geometry_respects_anatomy() {
    for seed in 0..CASES * 4 {
        let mut rng = SimRng::seed_from_u64(seed);
        let ear = EarCanal::sample_child(&mut rng);
        assert!(
            (0.015..=0.040).contains(&ear.eardrum_distance_m),
            "seed {seed}"
        );
        assert!(ear.direct_gain < ear.eardrum_path_gain, "seed {seed}");
        for &(d, g) in &ear.wall_paths {
            assert!(d < ear.eardrum_distance_m, "seed {seed}");
            assert!(g > 0.0 && g < 0.1, "seed {seed}");
        }
    }
}

#[test]
fn response_absorption_orders_with_severity() {
    for seed in 0..CASES {
        // At the dip centre, more severe states reflect less, on average
        // over visit randomness (single draws may overlap by design).
        let mut refls = Vec::new();
        for state in MeeState::ALL {
            let mut sum = 0.0;
            for k in 0..8u64 {
                let mut rng = SimRng::seed_from_u64(seed * 31 + k);
                sum += state
                    .sample_response(18_000.0, &mut rng)
                    .reflectance_at(18_000.0);
            }
            refls.push(sum / 8.0);
        }
        assert!(refls[0] > refls[1], "seed {seed}: {refls:?}");
        assert!(refls[1] > refls[2], "seed {seed}: {refls:?}");
    }
}

#[test]
fn noise_amplitude_is_monotone_in_spl() {
    for case in 0..CASES * 4 {
        let mut rng = DetRng::seed_from_u64(case);
        let a = rng.uniform(20.0, 70.0);
        let b = rng.uniform(20.0, 70.0);
        let (a, b) = if a < b { (a, b) } else { (b, a) };
        if a == b {
            continue;
        }
        assert!(spl_to_amplitude(a) < spl_to_amplitude(b), "case {case}");
    }
}

#[test]
fn ambient_noise_is_zero_mean() {
    for seed in 0..CASES * 2 {
        let mut case_rng = DetRng::seed_from_u64(seed);
        let db = case_rng.uniform(30.0, 65.0);
        let mut rng = SimRng::seed_from_u64(seed);
        let mut x = vec![0.0; 4_096];
        add_ambient_noise(&mut x, db, 1.0, &mut rng);
        let mean = x.iter().sum::<f64>() / x.len() as f64;
        assert!(mean.abs() < 5.0 * spl_to_amplitude(db), "seed {seed}");
    }
}

#[test]
fn recordings_have_expected_layout() {
    for seed in 0..CASES {
        let mut case_rng = DetRng::seed_from_u64(seed);
        let n_chirps = case_rng.range_usize(1, 8);
        let db = case_rng.uniform(25.0, 60.0);
        let angle = case_rng.uniform(0.0, 40.0);
        let mut rng = SimRng::seed_from_u64(seed);
        let ear = EarCanal::sample_child(&mut rng);
        let resp = MeeState::Serous.sample_response(18_000.0, &mut rng);
        let cfg = RecorderConfig {
            n_chirps,
            noise_db_spl: db,
            angle: WearingAngle::new(angle),
            motion: Motion::HeadMove,
            device: EarphoneModel::BoseQc20,
            ..Default::default()
        };
        let rec = synthesize_recording(&ear, &resp, &cfg, &mut rng);
        assert_eq!(rec.n_chirps, n_chirps, "seed {seed}");
        assert_eq!(rec.samples.len(), rec.chirp_hop * n_chirps, "seed {seed}");
        assert!(rec.samples.iter().all(|v| v.is_finite()), "seed {seed}");
    }
}

#[test]
fn sessions_label_matches_patient_trajectory() {
    for seed in 0..CASES * 2 {
        let mut case_rng = DetRng::seed_from_u64(seed);
        let day = case_rng.range_usize(0, 30) as u32;
        let cohort = Cohort::generate(1, seed);
        let p = &cohort.patients()[0];
        let s = Session::record(p, day, &SessionConfig::default(), 0);
        assert_eq!(s.ground_truth, p.state_on_day(day), "seed {seed}");
        assert_eq!(s.patient_id, p.id, "seed {seed}");
        assert_eq!(s.day, day, "seed {seed}");
    }
}

#[test]
fn representative_days_are_self_consistent() {
    for seed in 0..CASES * 4 {
        let cohort = Cohort::generate(1, seed);
        let p = &cohort.patients()[0];
        for (state, day) in earsonar_sim::dataset::representative_days(p) {
            assert_eq!(p.state_on_day(day), state, "seed {seed}");
        }
    }
}

#[test]
fn device_responses_are_positive_over_probe_band() {
    for case in 0..CASES * 4 {
        let mut rng = DetRng::seed_from_u64(case);
        let f = rng.uniform(15_000.0, 21_000.0);
        for m in EarphoneModel::ALL {
            assert!(m.response_gain(f) > 0.0, "case {case}");
        }
    }
}

#[test]
fn wearing_angle_factors_degrade_monotonically() {
    for case in 0..CASES * 4 {
        let mut rng = DetRng::seed_from_u64(case);
        let a = rng.uniform(0.0, 40.0);
        let b = rng.uniform(0.0, 40.0);
        let (a, b) = if a < b { (a, b) } else { (b, a) };
        if a == b {
            continue;
        }
        let wa = WearingAngle::new(a);
        let wb = WearingAngle::new(b);
        assert!(
            wa.eardrum_gain_factor() >= wb.eardrum_gain_factor(),
            "case {case}"
        );
        assert!(
            wa.wall_gain_factor() <= wb.wall_gain_factor(),
            "case {case}"
        );
        assert!(
            wa.extra_delay_jitter() <= wb.extra_delay_jitter(),
            "case {case}"
        );
    }
}
