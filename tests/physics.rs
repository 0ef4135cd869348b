//! Cross-crate physics integration: the acoustic-absorption story must
//! survive the full chain simulator → DSP front end.

use earsonar::pipeline::FrontEnd;
use earsonar_sim::cohort::Cohort;
use earsonar_sim::session::{RecordSession, Session, SessionConfig};
use earsonar_sim::MeeState;
use earsonar_suite::config;

/// Mean mid-band echo power over the cohort for a given state, measured
/// through the full front end.
fn mid_band_power_by_state(n_patients: usize) -> [f64; 4] {
    let fe = FrontEnd::new(&config()).expect("front end");
    let cohort = Cohort::generate(n_patients, 11);
    let mut sums = [0.0f64; 4];
    let mut counts = [0usize; 4];
    for p in cohort.patients() {
        for (state, day) in earsonar_sim::dataset::representative_days(p) {
            let s = Session::record(p, day, &SessionConfig::default(), 0);
            if let Ok(out) = fe.process(&s.recording) {
                let mid: f64 = out.spectrum.profile[12..20].iter().sum::<f64>() / 8.0;
                sums[state.index()] += mid;
                counts[state.index()] += 1;
            }
        }
    }
    let mut means = [0.0; 4];
    for k in 0..4 {
        means[k] = sums[k] / counts[k].max(1) as f64;
    }
    means
}

#[test]
fn absorption_orders_states_through_the_full_chain() {
    let means = mid_band_power_by_state(16);
    // Clear > Serous > Mucoid > Purulent in returned mid-band energy.
    for k in 0..3 {
        assert!(
            means[k] > means[k + 1],
            "state ordering broken at {k}: {means:?}"
        );
    }
    // And the Clear/Purulent contrast is strong (paper Fig. 2/11).
    assert!(means[0] > 2.5 * means[3], "contrast too weak: {means:?}");
}

#[test]
fn dip_sits_near_18khz_for_effusion_ears() {
    let fe = FrontEnd::new(&config()).expect("front end");
    let cohort = Cohort::generate(12, 13);
    let mut dips = Vec::new();
    for p in cohort.patients() {
        if p.admission_state == MeeState::Purulent {
            let s = Session::record(p, 0, &SessionConfig::default(), 0);
            if let Ok(out) = fe.process(&s.recording) {
                if let Some(d) = out.spectrum.dip_frequency() {
                    dips.push(d);
                }
            }
        }
    }
    assert!(dips.len() >= 4, "need several purulent admissions");
    let mean = dips.iter().sum::<f64>() / dips.len() as f64;
    assert!(
        (17_000.0..=19_000.0).contains(&mean),
        "mean dip {mean} Hz should sit near 18 kHz"
    );
}

#[test]
fn eardrum_distance_estimates_match_anatomy() {
    let fe = FrontEnd::new(&config()).expect("front end");
    let cohort = Cohort::generate(10, 17);
    for p in cohort.patients() {
        let s = Session::record(p, 29, &SessionConfig::default(), 0);
        let out = fe.process(&s.recording).expect("process");
        for echo in &out.echoes {
            let d = echo.distance_m(48_000.0);
            assert!(
                (0.01..=0.05).contains(&d),
                "estimated eardrum distance {d} m outside anatomy"
            );
        }
    }
}

#[test]
fn recovered_ears_look_like_never_sick_ears() {
    // Paper Fig. 9/10: after recovery the spectra return to healthy levels.
    let fe = FrontEnd::new(&config()).expect("front end");
    let cohort = Cohort::generate(10, 19);
    let mut recovered = Vec::new();
    for p in cohort.patients() {
        let s = Session::record(p, 29, &SessionConfig::default(), 0);
        if let Ok(out) = fe.process(&s.recording) {
            recovered.push(out.spectrum.band_power);
        }
    }
    let mean = recovered.iter().sum::<f64>() / recovered.len() as f64;
    let sd =
        (recovered.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / recovered.len() as f64).sqrt();
    // Healthy band power is consistent across people (coefficient of
    // variation well under 50%).
    assert!(sd / mean < 0.5, "healthy spread too wide: {sd} vs {mean}");
}
