//! Scalar ≡ vectorized: every four-lane kernel introduced by the SIMD
//! pass is pinned against its scalar reference here.
//!
//! Two contracts:
//!
//! * **Bit-identical** — elementwise ops (window multiply, in-place IIR,
//!   filtfilt buffers) perform the same floating-point operations in the
//!   same per-element order, so `assert_eq!` holds exactly.
//! * **Ulp-equal** — reassociated reductions (sums, dots, moments; see
//!   `earsonar_dsp::simd`) fold four partial accumulators; the difference
//!   from the strict-order scalar reduction is bounded by
//!   `1e-12 × Σ|terms|`.
//!
//! The sweeps hit every remainder class (`len % 4` ∈ {0,1,2,3}), odd
//! one-off lengths, subnormal inputs, and DetRng-randomized signals that
//! are finite by construction.
//!
//! Lane ≡ one lane: every kernel that runs several signals per pass (the
//! FFTs, the zero-phase filter, deconvolution) is pinned bit for bit
//! against its one-lane form at 2 and 4 lanes, over sizes 1–4096, lanes of
//! unequal length, and batches whose size leaves an odd tail of lane
//! groups.
//!
//! Band kernels ≈ independent references: the Goertzel band powers behind
//! the echo spectrum are bounded against a naive `O(N·K)` DFT, and the
//! allpass kernel delay against the FFT phase-multiplier delay, both
//! written here.

use earsonar::absorption::{echo_ir_spectrum, ECHO_IR_PRE, ECHO_IR_TAIL, N_FFT, PROFILE_BAND_HZ};
use earsonar::channel::pipeline_estimator;
use earsonar::features::mfcc_config;
use earsonar::pipeline::FrontEnd;
use earsonar::streaming::ChirpStream;
use earsonar::EarSonarConfig;
use earsonar_acoustics::propagation::{
    delay_fractional_allpass_with, delay_phase_multiplier, AllpassDelay,
};
use earsonar_dsp::correlation::{pearson, pearson_scalar};
use earsonar_dsp::fft::next_pow2;
use earsonar_dsp::filter::{
    butter_bandpass, filtfilt, filtfilt_lanes, filtfilt_with, BiquadCascade,
};
use earsonar_dsp::goertzel::Goertzel;
use earsonar_dsp::lanes::{for_lane_groups, LaneOp, LANES};
use earsonar_dsp::mfcc::MfccExtractor;
use earsonar_dsp::plan::{split_frames, DspScratch, FftPlan, RealFftPlan};
use earsonar_dsp::rng::DetRng;
use earsonar_dsp::simd;
use earsonar_dsp::window::{apply_precomputed, hann_in_place, hann_into};
use earsonar_dsp::Complex64;

/// Every remainder-tail class plus odd one-off and kernel-typical sizes.
const LENGTHS: &[usize] = &[
    1, 2, 3, 4, 5, 6, 7, 8, 15, 16, 17, 63, 64, 65, 239, 240, 241, 1021,
];

fn noise(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = DetRng::seed_from_u64(seed);
    (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect()
}

/// The documented reassociation bound: `1e-12 × Σ|terms|` (plus an
/// absolute floor for all-tiny inputs).
fn close(vectorized: f64, scalar: f64, term_scale: f64) -> bool {
    (vectorized - scalar).abs() <= 1e-12 * term_scale + 1e-300
}

#[test]
fn reductions_track_scalar_over_all_remainder_classes() {
    for &n in LENGTHS {
        let a = noise(n, 1_000 + n as u64);
        let b = noise(n, 2_000 + n as u64);
        let scale_a: f64 = a.iter().map(|v| v.abs()).sum();
        let scale_ab: f64 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
        assert!(
            close(simd::sum(&a), simd::sum_scalar(&a), scale_a),
            "sum n={n}"
        );
        assert!(
            close(simd::sum_sq(&a), simd::sum_sq_scalar(&a), scale_a),
            "sum_sq n={n}"
        );
        assert!(
            close(simd::dot(&a, &b), simd::dot_scalar(&a, &b), scale_ab),
            "dot n={n}"
        );
        let mean = simd::sum_scalar(&a) / n as f64;
        let mb = simd::sum_scalar(&b) / n as f64;
        let (cv, va, vb) = simd::centered_moments(&a, mean, &b, mb);
        let (cs, vas, vbs) = simd::centered_moments_scalar(&a, mean, &b, mb);
        let mscale = 4.0 * n as f64; // |da|,|db| <= 2 on unit noise
        assert!(close(cv, cs, mscale), "cov n={n}");
        assert!(close(va, vas, mscale), "var_a n={n}");
        assert!(close(vb, vbs, mscale), "var_b n={n}");
    }
}

#[test]
fn exact_kernels_are_bit_identical() {
    // The elementwise window multiply, on arbitrary taps, against the
    // per-element products.
    for &n in LENGTHS {
        let a = noise(n, 3_000 + n as u64);
        let taps = noise(n, 4_000 + n as u64);
        let expect: Vec<f64> = a.iter().zip(&taps).map(|(x, w)| x * w).collect();
        let mut got = a;
        apply_precomputed(&taps, &mut got);
        assert_eq!(got, expect, "apply_precomputed n={n}");
    }
}

#[test]
fn window_precomputed_multiply_is_bit_identical() {
    let mut taps = Vec::new();
    for &n in LENGTHS {
        let x = noise(n, 5_000 + n as u64);
        let mut expect = x.clone();
        hann_in_place(&mut expect);
        hann_into(n, &mut taps);
        let mut got = x;
        apply_precomputed(&taps, &mut got);
        assert_eq!(got, expect, "n={n}");
    }
}

#[test]
fn filtfilt_with_is_bit_identical_across_lengths() {
    let filter = butter_bandpass(4, 16_000.0, 20_000.0, 48_000.0).unwrap();
    let (mut ext, mut out) = (Vec::new(), Vec::new());
    for &n in LENGTHS {
        for pad in [0usize, 3, 72] {
            let x = noise(n, 6_000 + n as u64);
            let reference = filtfilt(&filter, &x, pad).unwrap();
            filtfilt_with(&filter, &x, pad, &mut ext, &mut out).unwrap();
            assert_eq!(out, reference, "n={n} pad={pad}");
        }
    }
}

#[test]
fn pearson_tracks_scalar_reference() {
    for &n in LENGTHS {
        let a = noise(n, 7_000 + n as u64);
        let b = noise(n, 8_000 + n as u64);
        let fast = pearson(&a, &b).unwrap();
        let slow = pearson_scalar(&a, &b).unwrap();
        // Correlations are normalized; a loose absolute bound suffices
        // (the underlying reductions are each within the 1e-12 contract).
        assert!(
            (fast - slow).abs() < 1e-9,
            "pearson n={n}: {fast} vs {slow}"
        );
    }
}

#[test]
fn mfcc_extraction_tracks_scalar_reference() {
    let ex = MfccExtractor::new(mfcc_config(48_000.0)).unwrap();
    let mut scratch = DspScratch::new();
    let (mut fast, mut slow) = (Vec::new(), Vec::new());
    // Full frame (precomputed window taps + dense mel + basis DCT) and
    // short zero-padded frames (per-sample window fallback), one of them
    // the pipeline's echo section.
    for n in [256usize, 255, ECHO_IR_PRE + ECHO_IR_TAIL, 17] {
        let x = noise(n, 10_000 + n as u64);
        ex.extract_into(&mut scratch, &x, &mut fast).unwrap();
        ex.extract_into_scalar(&mut scratch, &x, &mut slow).unwrap();
        assert_eq!(fast.len(), slow.len());
        for (k, (f, s)) in fast.iter().zip(&slow).enumerate() {
            assert!((f - s).abs() < 1e-9, "n={n} coeff {k}: {f} vs {s}");
        }
    }
}

#[test]
fn denormal_and_extreme_inputs_stay_finite_and_close() {
    let tiny = f64::MIN_POSITIVE / 8.0; // subnormal
    for &n in &[5usize, 64, 241] {
        let mut x = vec![tiny; n];
        if n > 2 {
            x[1] = -tiny;
            x[n / 2] = tiny * 3.0;
        }
        assert!(simd::sum(&x).is_finite());
        assert_eq!(simd::sum(&x), simd::sum_scalar(&x), "subnormal sum n={n}");
        assert!(simd::sum_sq(&x) >= 0.0);
        // Large magnitudes near the overflow edge must not be reordered
        // into a spurious infinity by the four-lane fold.
        let big: Vec<f64> = (0..n)
            .map(|i| if i % 2 == 0 { 1e300 } else { -1e300 })
            .collect();
        assert!(simd::sum(&big).is_finite());
        assert!(close(
            simd::sum(&big),
            simd::sum_scalar(&big),
            n as f64 * 1e300
        ));
    }
}

/// Lane lengths that differ from lane to lane (as after a gate rejection
/// empties the filter context), drawn from `lengths` in rotation.
fn unequal<const L: usize>(lengths: &[usize], offset: usize) -> [usize; L] {
    std::array::from_fn(|l| lengths[(offset + l * 5) % lengths.len()])
}

/// Lengths from 1 to 4096: every power of two, its neighbours, and the
/// pipeline's window sizes.
fn spread_lengths() -> Vec<usize> {
    let mut v: Vec<usize> = (0..=12)
        .flat_map(|k| [(1usize << k) - 1, 1 << k, (1 << k) + 1])
        .filter(|&n| (1..=4096).contains(&n))
        .chain([61, 96, 99, 240, 312])
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

fn lane_fft_kernels<const L: usize>() {
    for log2 in 0..=12 {
        let n = 1usize << log2;
        let seed = 20_000 + (L * 100 + log2) as u64;
        // Real input of unequal lengths through the half-size real path.
        let lens = unequal::<L>(&[n, n / 2 + 1, 1, n.saturating_sub(1).max(1), 2 * n], log2);
        let xs: [Vec<f64>; L] = std::array::from_fn(|l| noise(lens[l], seed + 50 + l as u64));
        let inputs: [&[f64]; L] = std::array::from_fn(|l| xs[l].as_slice());
        let real = RealFftPlan::shared(n).unwrap();
        let fitting: [&[f64]; L] = std::array::from_fn(|l| &xs[l][..xs[l].len().min(n)]);
        let (mut work, mut spec, mut time) = (Vec::new(), Vec::new(), Vec::new());
        real.forward_lanes(fitting, &mut work, &mut spec).unwrap();
        real.inverse_lanes::<L>(&spec, &mut work, &mut time)
            .unwrap();
        let (mut w1, mut s1, mut t1) = (Vec::new(), Vec::new(), Vec::new());
        for (l, x) in fitting.iter().enumerate() {
            real.forward_into(x, &mut w1, &mut s1).unwrap();
            let lane: Vec<Complex64> = split_frames::<L>(&spec)
                .iter()
                .map(|f| Complex64::new(f[0][l], f[1][l]))
                .collect();
            assert_eq!(lane, s1[..=n / 2], "L={L} n={n} lane {l}: real forward");
            real.inverse_into(&s1, &mut w1, &mut t1).unwrap();
            let lane: Vec<f64> = time.chunks(L).map(|t| t[l]).collect();
            assert_eq!(lane, t1, "L={L} n={n} lane {l}: real inverse");
        }
        // An input longer than the plan fails the whole pass.
        assert_eq!(
            real.forward_lanes(inputs, &mut work, &mut spec).is_err(),
            lens.iter().any(|&m| m > n)
        );
    }
}

fn lane_signal_kernels<const L: usize>() {
    let lengths = spread_lengths();
    let filter = butter_bandpass(4, 16_000.0, 20_000.0, 48_000.0).unwrap();
    let (mut ext, mut one_ext, mut one) = (Vec::new(), Vec::new(), Vec::new());
    for offset in 0..lengths.len() {
        let lens = unequal::<L>(&lengths, offset);
        let xs: [Vec<f64>; L] =
            std::array::from_fn(|l| noise(lens[l], 30_000 + (offset * L + l) as u64));
        let inputs: [&[f64]; L] = std::array::from_fn(|l| xs[l].as_slice());
        for pad in [0usize, 3, 72] {
            let skip: [usize; L] = std::array::from_fn(|l| (lens[l] / 3).min(pad));
            let mut outs: [Vec<f64>; L] = std::array::from_fn(|_| Vec::new());
            filtfilt_lanes(&filter, inputs, pad, skip, &mut ext, outs.each_mut()).unwrap();
            for (l, x) in inputs.iter().enumerate() {
                filtfilt_with(&filter, x, pad, &mut one_ext, &mut one).unwrap();
                assert_eq!(
                    outs[l],
                    one[skip[l]..],
                    "L={L} lens={lens:?} pad={pad} lane {l}"
                );
            }
        }
    }
    let mut empty_lane: [&[f64]; L] = [&[1.0]; L];
    empty_lane[L - 1] = &[];
    let mut outs: [Vec<f64>; L] = std::array::from_fn(|_| Vec::new());
    assert!(filtfilt_lanes(&filter, empty_lane, 3, [0; L], &mut ext, outs.each_mut()).is_err());

    // Deconvolution of windows of unequal length, including a partial
    // final chirp.
    let cfg = EarSonarConfig::default();
    let fe = FrontEnd::new(&cfg).unwrap();
    let est = pipeline_estimator(fe.template(), &cfg).unwrap();
    let mut scratch = DspScratch::new();
    let mut one_scratch = DspScratch::new();
    for offset in 0..8 {
        let lens = unequal::<L>(&[240, 240, 1, 17, 239, 96, 240, 128], offset);
        let xs: [Vec<f64>; L] =
            std::array::from_fn(|l| noise(lens[l], 40_000 + (offset * L + l) as u64));
        let inputs: [&[f64]; L] = std::array::from_fn(|l| xs[l].as_slice());
        let mut outs: [Vec<f64>; L] = std::array::from_fn(|_| Vec::new());
        est.estimate_lanes(&mut scratch, inputs, outs.each_mut())
            .unwrap();
        for (l, x) in inputs.iter().enumerate() {
            est.estimate_with(&mut one_scratch, x, &mut one).unwrap();
            assert_eq!(outs[l], one, "L={L} lens={lens:?} lane {l}: deconvolution");
        }
    }
}

#[test]
fn lane_kernels_are_bit_identical_to_their_one_lane_form() {
    lane_fft_kernels::<2>();
    lane_fft_kernels::<4>();
    lane_signal_kernels::<2>();
    lane_signal_kernels::<4>();
}

/// The DFT power of `x` at bin `k` of an `n`-point transform, summed term
/// by term.
fn naive_dft_power(x: &[f64], k: usize, n: usize) -> f64 {
    let omega = 2.0 * std::f64::consts::PI * k as f64 / n as f64;
    let z: Complex64 = x
        .iter()
        .enumerate()
        .map(|(t, &v)| Complex64::cis(-omega * t as f64) * v)
        .sum();
    z.norm_sqr()
}

/// `x` delayed by `d` samples as the spectral phase shift: the full complex
/// FFT at size `next_pow2(len + ⌈d⌉ + 1)`, one multiplier per bin, and the
/// inverse's real part.
fn phase_shift_delay(x: &[f64], d: f64, out_len: usize) -> Vec<f64> {
    let n = next_pow2(x.len() + d.ceil() as usize + 1);
    let plan = FftPlan::new(n).unwrap();
    let mut buf = Vec::new();
    plan.forward_from_real(x, &mut buf);
    for (k, z) in buf.iter_mut().enumerate() {
        *z *= delay_phase_multiplier(k, n, d);
    }
    plan.inverse(&mut buf).unwrap();
    let mut out = vec![0.0; out_len];
    for (o, z) in out.iter_mut().zip(&buf) {
        *o = z.re;
    }
    out
}

#[test]
fn band_kernels_track_independent_references() {
    // Goertzel band powers against the naive DFT, for signals up to the
    // transform size; both sums' rounding is bounded by n·ε·(Σ|x|)².
    let mut power = Vec::new();
    for &n in &[16usize, 64, 256, 512] {
        for &len in &[1usize, 2, 7, 17, 61, 96, n] {
            let x = noise(len.min(n), 80_000 + (n * 1_000 + len) as u64);
            let scale: f64 = x.iter().map(|v| v.abs()).sum::<f64>().powi(2);
            let bins = n / 3..n / 2 + 1;
            Goertzel::dft_bins(n, bins.clone()).powers_into(&x, &mut power);
            assert_eq!(power.len(), bins.len(), "one power per probe");
            for (k, &p) in bins.zip(&power) {
                let reference = naive_dft_power(&x, k, n);
                assert!(
                    (p - reference).abs() <= 1e-13 * n as f64 * scale,
                    "n={n} len={len} bin {k}: {p} vs {reference}"
                );
            }
        }
    }

    Goertzel::dft_bins(16, 0..3).powers_into(&[], &mut power);
    assert_eq!(power, [0.0; 3], "an empty signal has no power");

    // The echo spectrum's band power is the naive DFT power of its
    // tapered window over the profile band's bins.
    let cfg = EarSonarConfig::default();
    let n = N_FFT;
    let df = cfg.sample_rate / n as f64;
    let k_lo = (PROFILE_BAND_HZ.0 / df).floor() as usize;
    let k_hi = (PROFILE_BAND_HZ.1 / df).ceil() as usize;
    for (seed, center) in [(1u64, 0usize), (2, 9), (3, 22), (4, 90)] {
        let ir = noise(99, 81_000 + seed);
        let spectrum = echo_ir_spectrum(&ir, center, 1.0, &cfg).unwrap();
        let w = &spectrum.echo_window;
        let reference: f64 = (k_lo..=k_hi).map(|k| naive_dft_power(w, k, n)).sum();
        let scale: f64 = w.iter().map(|v| v.abs()).sum::<f64>().powi(2);
        assert!(
            (spectrum.band_power - reference).abs()
                <= 1e-13 * n as f64 * scale * (k_hi - k_lo + 1) as f64,
            "centre {center}: {} vs {reference}",
            spectrum.band_power
        );
    }

    // The allpass kernel against the phase-shift delay, over lengths up
    // to 513, fractional and integer delays and output lengths shorter and
    // longer than the transform; and one kernel per length and delay,
    // applied to many inputs, equals building it per call bit for bit.
    let mut scratch = DspScratch::new();
    let (mut once, mut per_call) = (Vec::new(), Vec::new());
    let lengths = spread_lengths().into_iter().filter(|&len| len <= 513);
    for (i, len) in lengths.enumerate() {
        for (j, d) in [0.0, 0.37, 1.5, 2.0, 7.25, 31.9].into_iter().enumerate() {
            let delay = AllpassDelay::new(d, len, &mut scratch).unwrap();
            for (m, out_len) in [len + 3, 2 * len + 40].into_iter().enumerate() {
                let x = noise(len, 90_000 + (i * 100 + j * 10 + m) as u64);
                let scale: f64 = x.iter().map(|v| v.abs()).sum();
                let reference = phase_shift_delay(&x, d, out_len);
                delay.apply(&x, out_len, &mut once).unwrap();
                for (t, (a, b)) in once.iter().zip(&reference).enumerate() {
                    assert!(
                        (a - b).abs() <= 1e-13 * (1.0 + scale),
                        "len={len} d={d} t={t}: {a} vs {b}"
                    );
                }
                assert_eq!(once.len(), out_len);
                delay_fractional_allpass_with(&x, d, out_len, &mut scratch, &mut per_call).unwrap();
                assert_eq!(once, per_call, "len={len} d={d}: built once vs per call");
            }
        }
    }
    // An input that needs another transform size is refused, not
    // silently wrapped.
    let delay = AllpassDelay::new(1.5, 96, &mut scratch).unwrap();
    assert!(delay.apply(&noise(300, 7), 99, &mut once).is_err());
}

/// `AllpassDelay::apply_window` is a slice of `apply`'s output, bit for
/// bit: windows that start before 0, straddle `out_len` or the transform
/// size `n`, lie wholly outside the output, or are empty.
#[test]
fn allpass_window_is_bit_identical_to_the_full_output() {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut scratch = DspScratch::new();
    let (mut full, mut window) = (Vec::new(), Vec::new());
    for (i, len) in [1usize, 7, 61, 96, 99, 240].into_iter().enumerate() {
        for (j, d) in [0.0, 0.37, 1.5, 31.9].into_iter().enumerate() {
            let delay = AllpassDelay::new(d, len, &mut scratch).unwrap();
            let n = next_pow2(len + d.ceil() as usize + 1);
            let x = noise(len, 95_000 + (i * 10 + j) as u64);
            // Output lengths shorter than, equal to and longer than n.
            for out_len in [len + 3, n, 2 * n + 5] {
                delay.apply(&x, out_len, &mut full).unwrap();
                let (o, n) = (out_len as isize, n as isize);
                let starts = [-500, -70, -3, 0, 5, n - 4, o - 4, o, o + 10];
                for start in starts {
                    for w in [0, 1, 7, 61, out_len + 20] {
                        delay
                            .apply_window(&x, out_len, start, w, &mut window)
                            .unwrap();
                        let expected: Vec<f64> = (start..start + w as isize)
                            .map(|t| usize::try_from(t).ok().and_then(|t| full.get(t)))
                            .map(|v| v.copied().unwrap_or(0.0))
                            .collect();
                        assert_eq!(
                            bits(&window),
                            bits(&expected),
                            "len={len} d={d} out_len={out_len} window {start}+{w}"
                        );
                    }
                }
            }
        }
    }

    // A negative delay gives silence; a NaN delay gives NaN, not silence.
    let x = noise(61, 7);
    let silent = AllpassDelay::new(-0.5, x.len(), &mut scratch).unwrap();
    silent.apply_window(&x, 64, -3, 20, &mut window).unwrap();
    assert_eq!(bits(&window), bits(&[0.0; 20]));
    let nan = AllpassDelay::new(f64::NAN, x.len(), &mut scratch).unwrap();
    nan.apply_window(&x, 64, 0, 20, &mut window).unwrap();
    assert_eq!(window.len(), 20);
    assert!(window.iter().all(|v| v.is_nan()));
    // The window keeps `apply`'s refusal of an input of another size.
    let delay = AllpassDelay::new(1.5, 96, &mut scratch).unwrap();
    assert!(delay
        .apply_window(&noise(300, 8), 99, 0, 8, &mut window)
        .is_err());
}

/// A batch of signals band-passed through `for_lane_groups`, as the front
/// end groups its chirps.
struct GroupedFilter<'a> {
    filter: &'a BiquadCascade,
    signals: &'a [Vec<f64>],
    ext: Vec<f64>,
    outs: Vec<Vec<f64>>,
}

impl LaneOp for GroupedFilter<'_> {
    type Error = earsonar_dsp::DspError;

    fn run<const L: usize>(&mut self, first: usize) -> Result<(), Self::Error> {
        let inputs: [&[f64]; L] = std::array::from_fn(|l| self.signals[first + l].as_slice());
        let mut outs: [Vec<f64>; L] = std::array::from_fn(|_| Vec::new());
        filtfilt_lanes(
            self.filter,
            inputs,
            72,
            [0; L],
            &mut self.ext,
            outs.each_mut(),
        )?;
        self.outs.extend(outs);
        Ok(())
    }
}

#[test]
fn odd_batch_tails_are_bit_identical_to_one_lane() {
    // Every batch size up to three full groups: the remainder runs as a
    // pair and/or a single lane.
    let filter = butter_bandpass(4, 16_000.0, 20_000.0, 48_000.0).unwrap();
    let (mut ext, mut one) = (Vec::new(), Vec::new());
    for n in 1..=3 * LANES + 3 {
        let signals: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                noise(
                    if i % 3 == 1 { 240 } else { 312 },
                    70_000 + (n * 100 + i) as u64,
                )
            })
            .collect();
        let mut op = GroupedFilter {
            filter: &filter,
            signals: &signals,
            ext: Vec::new(),
            outs: Vec::new(),
        };
        for_lane_groups(n, &mut op).unwrap();
        assert_eq!(op.outs.len(), n);
        for (i, x) in signals.iter().enumerate() {
            filtfilt_with(&filter, x, 72, &mut ext, &mut one).unwrap();
            assert_eq!(op.outs[i], one, "batch {n} signal {i}");
        }
    }

    // The front end end to end: a batch of every odd size, with a
    // rejected window that empties the next window's filter context,
    // against one window per push.
    let fe = FrontEnd::new(&EarSonarConfig::default()).unwrap();
    let data = earsonar_suite::small_dataset(1);
    let mut rec = data.sessions[0].recording.clone();
    rec.samples[5 * rec.chirp_hop + 17] = f64::NAN;
    for per_push in [1usize, 3, 5, 7, 9, 23] {
        let mut scratch = DspScratch::new();
        let mut batched = ChirpStream::new(&fe);
        let mut single = ChirpStream::new(&fe);
        for chunk in rec.samples.chunks(per_push * rec.chirp_hop) {
            batched.push_samples_with(&fe, &mut scratch, chunk).unwrap();
        }
        for c in 0..rec.n_chirps {
            single
                .push_chirp_with(&fe, &mut scratch, rec.chirp_window(c))
                .unwrap();
        }
        assert_eq!(
            batched.diagnostics(),
            single.diagnostics(),
            "{per_push} per push"
        );
        let b = batched.finish_with(&fe, &mut scratch).unwrap();
        let s = single.finish_with(&fe, &mut scratch).unwrap();
        assert_eq!(b.features, s.features, "{per_push} per push");
        assert_eq!(b.spectrum, s.spectrum, "{per_push} per push");
    }
}
