//! Randomized-property tests for the DSP substrate invariants.
//!
//! Formerly `proptest`-based; the hermetic (no-crates.io) build ports each
//! property to a deterministic loop over seeded [`DetRng`] inputs. Every
//! case is reproducible from its printed seed.

use earsonar_dsp::complex::Complex64;
use earsonar_dsp::convolution::{autoconvolve_with, convolve};
use earsonar_dsp::correlation::pearson;
use earsonar_dsp::fft::next_pow2;
use earsonar_dsp::filter::{butter_bandpass, butter_lowpass};
use earsonar_dsp::interp::interp_linear;
use earsonar_dsp::plan::{DspScratch, FftPlan};
use earsonar_dsp::rng::DetRng;
use earsonar_dsp::stats::{self, Summary};
use earsonar_dsp::window::hann_in_place;

const CASES: u64 = 48;

/// A random finite signal with `1..max_len` samples in `[-1e3, 1e3]`.
fn finite_signal(rng: &mut DetRng, max_len: usize) -> Vec<f64> {
    let len = rng.range_usize(1, max_len);
    (0..len).map(|_| rng.uniform(-1e3, 1e3)).collect()
}

#[test]
fn fft_round_trip_recovers_signal() {
    for seed in 0..CASES {
        let mut rng = DetRng::seed_from_u64(seed);
        let xs = finite_signal(&mut rng, 256);
        let input: Vec<Complex64> = xs.iter().map(|&v| Complex64::from_real(v)).collect();
        let plan = FftPlan::shared(next_pow2(xs.len())).unwrap();
        let mut out = Vec::new();
        plan.forward_from_real(&xs, &mut out);
        plan.inverse(&mut out).unwrap();
        for (a, b) in input.iter().zip(out.iter()) {
            assert!((*a - *b).norm() < 1e-6 * (1.0 + a.norm()), "seed {seed}");
        }
    }
}

#[test]
fn parseval_holds_for_any_signal() {
    for seed in 0..CASES {
        let mut rng = DetRng::seed_from_u64(seed);
        let xs = finite_signal(&mut rng, 256);
        let n = next_pow2(xs.len());
        let mut spec = Vec::new();
        FftPlan::shared(n)
            .unwrap()
            .forward_from_real(&xs, &mut spec);
        let te: f64 = xs.iter().map(|v| v * v).sum();
        let fe: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((te - fe).abs() <= 1e-6 * (1.0 + te), "seed {seed}");
    }
}

#[test]
fn autoconvolution_matches_direct_convolution() {
    // Every length on both sides of the 64-sample switch to the FFT: the
    // direct path is the same sum as `convolve` in the same order, the
    // FFT path agrees to rounding.
    let mut ac = Vec::new();
    let mut scratch = DspScratch::new();
    for len in 1..=200usize {
        let mut rng = DetRng::seed_from_u64(len as u64);
        let xs: Vec<f64> = (0..len).map(|_| rng.uniform(-1e3, 1e3)).collect();
        let direct = convolve(&xs, &xs);
        autoconvolve_with(&mut scratch, &xs, &mut ac);
        if len < 64 {
            assert_eq!(ac, direct, "len {len}");
            continue;
        }
        assert_eq!(ac.len(), direct.len(), "len {len}");
        let scale: f64 = 1.0 + direct.iter().map(|v| v.abs()).fold(0.0, f64::max);
        for (x, y) in direct.iter().zip(&ac) {
            assert!((x - y).abs() < 1e-6 * scale, "len {len}");
        }
    }
}

#[test]
fn autoconvolution_invariants() {
    for seed in 0..CASES {
        let mut rng = DetRng::seed_from_u64(seed);
        let xs = finite_signal(&mut rng, 64);
        // Endpoints are the squared end samples; the total sums to (Σx)².
        let mut ac = Vec::new();
        autoconvolve_with(&mut DspScratch::new(), &xs, &mut ac);
        let l = xs.len();
        assert_eq!(ac.len(), 2 * l - 1);
        let scale: f64 = 1.0 + ac.iter().map(|v| v.abs()).fold(0.0, f64::max);
        assert!((ac[0] - xs[0] * xs[0]).abs() < 1e-7 * scale, "seed {seed}");
        assert!(
            (ac[2 * l - 2] - xs[l - 1] * xs[l - 1]).abs() < 1e-7 * scale,
            "seed {seed}"
        );
        let sum_x: f64 = xs.iter().sum();
        let sum_ac: f64 = ac.iter().sum();
        assert!(
            (sum_ac - sum_x * sum_x).abs() < 1e-6 * (1.0 + sum_x * sum_x).abs(),
            "seed {seed}"
        );
    }
}

#[test]
fn pearson_is_bounded_and_reflexive() {
    for seed in 0..CASES {
        let mut rng = DetRng::seed_from_u64(seed);
        let xs = finite_signal(&mut rng, 128);
        if let Ok(r) = pearson(&xs, &xs) {
            assert!((-1.0..=1.0).contains(&r), "seed {seed}");
            // Self-correlation of non-constant data is exactly 1.
            if stats::variance(&xs) > 1e-9 {
                assert!((r - 1.0).abs() < 1e-9, "seed {seed}");
            }
        }
    }
}

#[test]
fn windows_bound_signals() {
    for seed in 0..CASES {
        let mut rng = DetRng::seed_from_u64(seed);
        let xs = finite_signal(&mut rng, 128);
        // |hann(x)[i]| <= |x[i]|: the coefficients lie in [0, 1].
        let mut y = xs.clone();
        hann_in_place(&mut y);
        for (a, b) in xs.iter().zip(&y) {
            assert!(b.abs() <= a.abs() + 1e-12, "seed {seed}");
        }
    }
}

#[test]
fn butterworth_designs_are_stable() {
    for seed in 0..CASES {
        let mut rng = DetRng::seed_from_u64(seed);
        let order = rng.range_usize(1, 9);
        let lo = rng.uniform(1_000.0, 10_000.0);
        let width = rng.uniform(500.0, 8_000.0);
        let hi = (lo + width).min(23_000.0);
        let f = butter_bandpass(order, lo, hi, 48_000.0).unwrap();
        assert!(f.is_stable(), "seed {seed}");
        let g = butter_lowpass(order, lo, 48_000.0).unwrap();
        assert!(g.is_stable(), "seed {seed}");
    }
}

#[test]
fn bandpass_attenuates_far_out_of_band() {
    for order in 2usize..6 {
        let f = butter_bandpass(order, 16_000.0, 20_000.0, 48_000.0).unwrap();
        assert!(f.magnitude_at(1_000.0, 48_000.0) < 0.05);
        assert!(f.magnitude_at(18_000.0, 48_000.0) > 0.9);
    }
}

#[test]
fn summary_min_le_mean_le_max() {
    for seed in 0..CASES {
        let mut rng = DetRng::seed_from_u64(seed);
        let xs = finite_signal(&mut rng, 128);
        let s = Summary::of(&xs);
        assert!(s.min <= s.mean + 1e-9, "seed {seed}");
        assert!(s.mean <= s.max + 1e-9, "seed {seed}");
        assert!(s.std_dev >= 0.0, "seed {seed}");
        // Kurtosis lower bound: excess kurtosis >= -2 always.
        assert!(s.kurtosis >= -2.0 - 1e-9, "seed {seed}");
    }
}

#[test]
fn percentiles_are_monotone() {
    for seed in 0..CASES {
        let mut rng = DetRng::seed_from_u64(seed);
        let xs = finite_signal(&mut rng, 64);
        let p1 = rng.uniform(0.0, 100.0);
        let p2 = rng.uniform(0.0, 100.0);
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = stats::percentile(&xs, lo).unwrap();
        let b = stats::percentile(&xs, hi).unwrap();
        assert!(a <= b + 1e-12, "seed {seed}");
    }
}

#[test]
fn linear_interp_stays_within_data_range() {
    for seed in 0..CASES {
        let mut rng = DetRng::seed_from_u64(seed);
        let n = rng.range_usize(2, 32);
        let ys: Vec<f64> = (0..n).map(|_| rng.uniform(-100.0, 100.0)).collect();
        let nq = rng.range_usize(1, 16);
        let qs: Vec<f64> = (0..nq).map(|_| rng.uniform(-10.0, 50.0)).collect();
        let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64).collect();
        let lo = ys.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for v in interp_linear(&xs, &ys, &qs) {
            assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "seed {seed}");
        }
    }
}

#[test]
fn filtfilt_output_length_matches_input() {
    for seed in 0..CASES {
        let mut rng = DetRng::seed_from_u64(seed);
        let len = rng.range_usize(1, 512);
        let f = butter_lowpass(2, 2_000.0, 48_000.0).unwrap();
        let x = vec![1.0; len];
        let y = earsonar_dsp::filter::filtfilt(&f, &x, 32).unwrap();
        assert_eq!(y.len(), len);
        assert!(y.iter().all(|v| v.is_finite()), "seed {seed}");
    }
}
