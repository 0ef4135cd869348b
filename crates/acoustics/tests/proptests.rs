//! Randomized-property tests for the acoustics models.
//!
//! Formerly `proptest`-based; the hermetic (no-crates.io) build ports each
//! property to a deterministic loop over seeded [`DetRng`] inputs.

use earsonar_acoustics::absorption::{AbsorptionDip, EardrumResponse};
use earsonar_acoustics::chirp::FmcwChirp;
use earsonar_acoustics::impedance::layer_impedance;
use earsonar_acoustics::medium::Medium;
use earsonar_acoustics::propagation::{
    delay_fractional_allpass_with, delay_phase_multiplier, round_trip_delay_samples,
    SpectralDelayLine,
};
use earsonar_acoustics::reflection::pressure_reflectance;
use earsonar_dsp::complex::Complex64;
use earsonar_dsp::fft::next_pow2;
use earsonar_dsp::plan::{DspScratch, FftPlan, RealFftPlan};
use earsonar_dsp::rng::DetRng;

const CASES: u64 = 64;

#[test]
fn reflectance_is_bounded() {
    for seed in 0..CASES {
        let mut rng = DetRng::seed_from_u64(seed);
        let z1 = rng.uniform(1.0, 1e8);
        let z2 = rng.uniform(1.0, 1e8);
        let r = pressure_reflectance(z1, z2);
        assert!((-1.0..=1.0).contains(&r), "seed {seed}");
    }
}

#[test]
fn reflectance_antisymmetry() {
    for seed in 0..CASES {
        let mut rng = DetRng::seed_from_u64(seed);
        let z1 = rng.uniform(1.0, 1e8);
        let z2 = rng.uniform(1.0, 1e8);
        let fwd = pressure_reflectance(z1, z2);
        let rev = pressure_reflectance(z2, z1);
        assert!((fwd + rev).abs() < 1e-12, "seed {seed}");
    }
}

#[test]
fn layer_impedance_is_monotone_in_thickness() {
    for seed in 0..CASES {
        let mut rng = DetRng::seed_from_u64(seed);
        let bulk = rng.uniform(1e3, 1e7);
        let lambda = rng.uniform(0.005, 0.05);
        let d1 = rng.uniform(0.0, 0.01);
        let d2 = rng.uniform(0.0, 0.01);
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let z_lo = layer_impedance(bulk, 1.0, lo, lambda);
        let z_hi = layer_impedance(bulk, 1.0, hi, lambda);
        assert!(z_lo <= z_hi + 1e-9, "seed {seed}");
        assert!(z_hi <= bulk + 1e-9, "seed {seed}");
        assert!(z_lo >= 0.0, "seed {seed}");
    }
}

#[test]
fn dip_gain_is_always_a_valid_multiplier() {
    for seed in 0..CASES {
        let mut rng = DetRng::seed_from_u64(seed);
        let center = rng.uniform(16_000.0, 20_000.0);
        let depth = rng.uniform(0.0, 1.5);
        let width = rng.uniform(10.0, 2_000.0);
        let probe = rng.uniform(10_000.0, 26_000.0);
        let dip = AbsorptionDip::new(center, depth, width);
        let g = dip.gain(probe);
        assert!((0.0..=1.0).contains(&g), "seed {seed}");
    }
}

#[test]
fn eardrum_reflectance_stays_physical() {
    for seed in 0..CASES {
        let mut rng = DetRng::seed_from_u64(seed);
        let thickness = rng.uniform(0.0005, 0.005);
        let depth = rng.uniform(0.0, 0.9);
        let width = rng.uniform(200.0, 1_200.0);
        let probe = rng.uniform(15_000.0, 21_000.0);
        let r = EardrumResponse::with_effusion(
            Medium::MUCOID_EFFUSION,
            thickness,
            18_000.0,
            depth,
            width,
        );
        let v = r.reflectance_at(probe);
        assert!((0.0..=1.0).contains(&v), "seed {seed}");
    }
}

#[test]
fn chirp_samples_are_bounded_and_start_at_zero() {
    let mut tested = 0;
    for seed in 0..CASES * 2 {
        let mut rng = DetRng::seed_from_u64(seed);
        let f0 = rng.uniform(1_000.0, 18_000.0);
        let bw = rng.uniform(500.0, 4_000.0);
        let dur = rng.range_usize(100, 2_000) as f64 * 1e-6;
        if f0 + bw >= 23_900.0 {
            continue;
        }
        tested += 1;
        let chirp = FmcwChirp::new(f0, bw, dur, 48_000.0).unwrap();
        let x = chirp.samples();
        assert!(!x.is_empty() || chirp.is_empty(), "seed {seed}");
        assert!(x.iter().all(|v| v.abs() <= 1.0 + 1e-12), "seed {seed}");
        if let Some(&first) = x.first() {
            assert!(first.abs() < 1e-12, "seed {seed}: phase starts at zero");
        }
    }
    assert!(tested >= CASES as usize / 2, "too many rejected cases");
}

#[test]
fn chirp_train_is_periodic() {
    for seed in 0..CASES {
        let mut rng = DetRng::seed_from_u64(seed);
        let count = rng.range_usize(1, 6);
        let interval = rng.range_usize(600, 4_000) as f64 * 1e-6;
        let chirp = FmcwChirp::earsonar();
        let train = chirp.train(count, interval).unwrap();
        let hop = chirp.hop_samples(interval);
        // Every chirp copy matches the first.
        let one = chirp.samples();
        for c in 0..count {
            for (i, &v) in one.iter().enumerate() {
                assert!((train[c * hop + i] - v).abs() < 1e-12, "seed {seed}");
            }
        }
    }
}

#[test]
fn allpass_delay_preserves_energy_circularly() {
    for seed in 0..CASES {
        let mut rng = DetRng::seed_from_u64(seed);
        let delay = rng.uniform(0.0, 20.0);
        let n = rng.range_usize(16, 128);
        // A phase-only spectral multiplication preserves energy exactly
        // over the whole (circular) FFT frame, except for the Nyquist bin
        // (kept real by attenuation); bound the loss by that bin's power.
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.4).sin()).collect();
        let frame = earsonar_dsp::fft::next_pow2(n + delay.ceil() as usize + 1);
        let mut spec = Vec::new();
        FftPlan::shared(frame)
            .unwrap()
            .forward_from_real(&x, &mut spec);
        let nyq_power = spec[frame / 2].norm_sqr() / frame as f64;
        let mut y = Vec::new();
        delay_fractional_allpass_with(&x, delay, frame, &mut DspScratch::new(), &mut y).unwrap();
        let ex: f64 = x.iter().map(|v| v * v).sum();
        let ey: f64 = y.iter().map(|v| v * v).sum();
        assert!(ey <= ex + 1e-9, "seed {seed}: gained energy: {ex} vs {ey}");
        assert!(
            ex - ey <= nyq_power + 1e-6 * (1.0 + ex),
            "seed {seed}: lost more than the Nyquist bin: {} vs {}",
            ex - ey,
            nyq_power
        );
    }
}

/// Reference for the spectral accumulator: delays each path independently
/// with a full-size complex FFT (different code path from the half-size
/// real transform) and superposes the results in the **time domain**.
/// Negative-delay paths contribute silence, matching the allpass
/// convention.
fn time_domain_superposition(x: &[f64], paths: &[(f64, f64)], n: usize) -> Vec<f64> {
    let plan = FftPlan::new(n).unwrap();
    let mut out = vec![0.0; n];
    for &(delay, gain) in paths {
        if delay < 0.0 {
            continue;
        }
        let mut buf = vec![Complex64::ZERO; n];
        for (z, &v) in buf.iter_mut().zip(x) {
            *z = Complex64::from_real(v);
        }
        plan.forward(&mut buf).unwrap();
        for (k, z) in buf.iter_mut().enumerate() {
            *z *= delay_phase_multiplier(k, n, delay);
        }
        plan.inverse(&mut buf).unwrap();
        for (o, z) in out.iter_mut().zip(&buf) {
            *o += gain * z.re;
        }
    }
    out
}

#[test]
fn spectral_accumulation_matches_time_domain_superposition() {
    // The tentpole property: accumulating every path as a phase-ramp × gain
    // in the frequency domain and inverting ONCE equals delaying each path
    // separately and summing in the time domain — for random path sets,
    // delays (negative ones included), and signal lengths.
    for seed in 0..CASES {
        let mut rng = DetRng::seed_from_u64(seed);
        let len = rng.range_usize(4, 80);
        let n_paths = rng.range_usize(1, 6);
        let x: Vec<f64> = (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let paths: Vec<(f64, f64)> = (0..n_paths)
            .map(|_| (rng.uniform(-2.0, 20.0), rng.uniform(-1.0, 1.0)))
            .collect();
        let max_delay = paths.iter().map(|p| p.0).fold(0.0f64, f64::max);
        let n = next_pow2(len + max_delay.ceil().max(0.0) as usize + 1);

        let plan = RealFftPlan::new(n).unwrap();
        let mut work = Vec::new();
        let mut line = SpectralDelayLine::new();
        line.load(&x, &plan, &mut work).unwrap();
        let mut acc = vec![Complex64::ZERO; n];
        for &(delay, gain) in &paths {
            line.accumulate_into(&mut acc, delay, gain);
        }
        let mut spectral = Vec::new();
        plan.inverse_into(&acc, &mut work, &mut spectral).unwrap();

        let reference = time_domain_superposition(&x, &paths, n);
        let peak = reference.iter().fold(1e-12f64, |m, v| m.max(v.abs()));
        for (i, (a, b)) in spectral.iter().zip(&reference).enumerate() {
            assert!(
                (a - b).abs() <= 1e-9 * peak,
                "seed {seed} sample {i}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn spectral_accumulation_handles_degenerate_inputs() {
    // Empty signal → silence; all-negative delays → silence; the allpass
    // delay with zero out_len → empty output.
    let plan = RealFftPlan::new(16).unwrap();
    let mut work = Vec::new();
    let mut line = SpectralDelayLine::new();
    line.load(&[], &plan, &mut work).unwrap();
    let mut acc = vec![Complex64::ZERO; 16];
    line.accumulate_into(&mut acc, 3.0, 1.0);
    let mut y = Vec::new();
    plan.inverse_into(&acc, &mut work, &mut y).unwrap();
    assert!(y.iter().all(|v| *v == 0.0));

    line.load(&[1.0, -1.0], &plan, &mut work).unwrap();
    for z in acc.iter_mut() {
        *z = Complex64::ZERO;
    }
    line.accumulate_into(&mut acc, -0.5, 1.0);
    assert!(acc.iter().all(|z| z.norm() == 0.0));

    let mut scratch = DspScratch::new();
    let mut out = vec![1.0; 4];
    delay_fractional_allpass_with(&[1.0, 2.0], 1.5, 0, &mut scratch, &mut out).unwrap();
    assert!(out.is_empty());
    delay_fractional_allpass_with(&[], 1.5, 3, &mut scratch, &mut out).unwrap();
    assert_eq!(out, vec![0.0; 3]);
    delay_fractional_allpass_with(&[1.0], -2.0, 3, &mut scratch, &mut out).unwrap();
    assert_eq!(out, vec![0.0; 3]);
}

#[test]
fn warm_scratch_spectral_ops_match_cold_for_random_inputs() {
    // One scratch shared across all cases and sizes must give the same
    // delayed bits as a fresh scratch per call.
    let mut scratch = DspScratch::new();
    let mut out = Vec::new();
    for seed in 0..CASES {
        let mut rng = DetRng::seed_from_u64(seed);
        let len = rng.range_usize(1, 200);
        let delay = rng.uniform(-1.0, 25.0);
        let out_len = rng.range_usize(0, 2 * len + 32);
        let x: Vec<f64> = (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let mut expect = Vec::new();
        delay_fractional_allpass_with(&x, delay, out_len, &mut DspScratch::new(), &mut expect)
            .unwrap();
        delay_fractional_allpass_with(&x, delay, out_len, &mut scratch, &mut out).unwrap();
        assert_eq!(expect, out, "seed {seed}");
    }
}

#[test]
fn channel_apply_matches_time_domain_superposition() {
    // The recorder's use of the delay line: delays given in seconds, and
    // one line and one set of buffers reloaded capture after capture on
    // the shared plans, each sized to hold the most-delayed copy.
    let fs = 48_000.0;
    let mut line = SpectralDelayLine::new();
    let (mut work, mut acc, mut y) = (Vec::new(), Vec::new(), Vec::new());
    for seed in 0..CASES {
        let mut rng = DetRng::seed_from_u64(seed);
        let len = rng.range_usize(2, 64);
        let n_paths = rng.range_usize(1, 5);
        let x: Vec<f64> = (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let paths: Vec<(f64, f64)> = (0..n_paths)
            .map(|_| (rng.uniform(0.0, 12.0) / fs, rng.uniform(-1.0, 1.0)))
            .collect();
        let max_delay = paths.iter().map(|p| p.0).fold(0.0f64, f64::max);
        let out_len = len + (max_delay * fs).ceil() as usize + 1;
        let n = next_pow2(out_len);
        let plan = RealFftPlan::shared(n).unwrap();
        line.load(&x, plan, &mut work).unwrap();
        acc.clear();
        acc.resize(n, Complex64::ZERO);
        for &(delay_s, gain) in &paths {
            line.accumulate_into(&mut acc, delay_s * fs, gain);
        }
        plan.inverse_into(&acc, &mut work, &mut y).unwrap();
        assert_eq!(y.len(), n, "seed {seed}");
        let sample_paths: Vec<(f64, f64)> = paths.iter().map(|&(d, g)| (d * fs, g)).collect();
        let reference = time_domain_superposition(&x, &sample_paths, n);
        let peak = reference.iter().fold(1e-12f64, |m, v| m.max(v.abs()));
        for (i, (a, b)) in y.iter().zip(&reference).enumerate() {
            assert!(
                (a - b).abs() <= 1e-9 * peak,
                "seed {seed} sample {i}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn delay_scales_linearly_with_distance() {
    for seed in 0..CASES {
        let mut rng = DetRng::seed_from_u64(seed);
        let d = rng.uniform(0.001, 0.2);
        let s1 = round_trip_delay_samples(d, 48_000.0);
        let s2 = round_trip_delay_samples(2.0 * d, 48_000.0);
        assert!((s2 - 2.0 * s1).abs() < 1e-9, "seed {seed}");
    }
}
