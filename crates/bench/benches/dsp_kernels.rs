//! Micro-benchmarks of the DSP substrate kernels the pipeline leans on:
//! FFT, Butterworth filtering, Wiener channel estimation, MFCC, and the
//! parity-decomposition auto-convolution; then every scalar-vs-vectorized
//! kernel pair (with single rows for the quality scan and the mel
//! projection, which keep one form), the shared complex and real-input FFT
//! plans at the sizes the pipeline uses, and the lane-interleaved forms of
//! the real FFT and the zero-phase filter at 1, 2, 4 (and 8) lanes.
//!
//! Only timings are printed. The pairs' equivalence contracts (bit-identical
//! or ulp-bounded) are asserted by `tests/kernel_equivalence.rs` and
//! `earsonar_dsp::wav`'s unit tests, not here.
//!
//! Runs on the dependency-free [`earsonar_bench::timing`] harness
//! (`cargo bench -p earsonar-bench --bench dsp_kernels`; pass `--smoke`
//! for a fast CI run).

use earsonar::channel::ChannelEstimator;
use earsonar::features::mfcc_config;
use earsonar::preprocess::{NOISE_FILTER_ORDER, PROBE_BAND_HZ};
use earsonar::quality::{measure_window, NoiseFloor};
use earsonar::EarSonarConfig;
use earsonar_acoustics::chirp::FmcwChirp;
use earsonar_bench::timing::Bencher;
use earsonar_dsp::complex::Complex64;
use earsonar_dsp::convolution::autoconvolve_with;
use earsonar_dsp::correlation::{pearson, pearson_scalar};
use earsonar_dsp::filter::{
    butter_bandpass, filtfilt, filtfilt_lanes, filtfilt_with, BiquadCascade,
};
use earsonar_dsp::mel::MelFilterBank;
use earsonar_dsp::mfcc::MfccExtractor;
use earsonar_dsp::plan::{DspScratch, FftPlan, RealFftPlan};
use earsonar_dsp::rng::DetRng;
use earsonar_dsp::wav::{parse_wav, parse_wav_f32_into, write_wav, WavAudio, WavFormat};
use earsonar_dsp::window::{apply_precomputed, hann_in_place, hann_into};
use std::hint::black_box;

fn signal(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (2.0 * std::f64::consts::PI * 18_000.0 * i as f64 / 48_000.0).sin())
        .collect()
}

/// The pipeline's noise-removal band-pass at the configuration's rate.
fn band_pass(cfg: &EarSonarConfig) -> BiquadCascade {
    let (low, high) = PROBE_BAND_HZ;
    butter_bandpass(NOISE_FILTER_ORDER, low, high, cfg.sample_rate).unwrap()
}

fn random_signal(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = DetRng::seed_from_u64(seed);
    (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect()
}

/// Each scalar reference against its vectorized form, at the input size
/// the pipeline runs it on; the quality scan and the mel projection have
/// one form each and one row.
fn kernel_pairs(b: &Bencher) {
    let cfg = EarSonarConfig::default();

    // One chirp hop plus the preprocessor's reflection pad.
    let filter = band_pass(&cfg);
    let pad = 3 * cfg.chirp_len;
    let n = pad + cfg.chirp_hop;
    let x = random_signal(n, 101);
    let (mut ext, mut out) = (Vec::new(), Vec::new());
    b.report(&format!("filtfilt/scalar/{n}"), || {
        filtfilt(&filter, &x, pad).unwrap().len()
    });
    b.report(&format!("filtfilt/vectorized/{n}"), || {
        filtfilt_with(&filter, &x, pad, &mut ext, &mut out).unwrap();
        black_box(out[0])
    });

    let mfcc = mfcc_config(cfg.sample_rate);
    let n = mfcc.n_fft; // the MFCC frame size
    let x = random_signal(n, 102);
    let mut taps = Vec::new();
    hann_into(n, &mut taps);
    let mut buf = x.clone();
    b.report(&format!("window_multiply/scalar/{n}"), || {
        buf.copy_from_slice(&x);
        hann_in_place(&mut buf);
        black_box(buf[0])
    });
    b.report(&format!("window_multiply/vectorized/{n}"), || {
        buf.copy_from_slice(&x);
        apply_precomputed(&taps, &mut buf);
        black_box(buf[0])
    });

    let n = 2048;
    let (x, y) = (random_signal(n, 103), random_signal(n, 104));
    b.report(&format!("correlation/scalar/{n}"), || {
        pearson_scalar(&x, &y).unwrap()
    });
    b.report(&format!("correlation/vectorized/{n}"), || {
        pearson(&x, &y).unwrap()
    });

    let n_fft = 1024;
    let bank = MelFilterBank::new(26, n_fft, 48_000.0, 16_000.0, 20_000.0).unwrap();
    let ps: Vec<f64> = random_signal(n_fft / 2 + 1, 105)
        .iter()
        .map(|x| x * x)
        .collect();
    let mut mel = Vec::new();
    b.report(&format!("mel_projection/{n_fft}"), || {
        bank.apply_into(&ps, &mut mel).unwrap();
        black_box(mel[0])
    });

    let n = mfcc.n_fft; // a full MFCC frame
    let ex = MfccExtractor::new(mfcc).unwrap();
    let mut scratch = DspScratch::new();
    let x = random_signal(n, 106);
    let mut coeffs = Vec::new();
    b.report(&format!("mfcc/scalar/{n}"), || {
        ex.extract_into_scalar(&mut scratch, &x, &mut coeffs)
            .unwrap();
        black_box(coeffs[0])
    });
    b.report(&format!("mfcc/vectorized/{n}"), || {
        ex.extract_into(&mut scratch, &x, &mut coeffs).unwrap();
        black_box(coeffs[0])
    });

    // The quality gate's per-chirp window measurement.
    let n = cfg.chirp_hop;
    let active = cfg.chirp_len + 32;
    let (w, prev) = (random_signal(n, 107), random_signal(n, 108));
    let mut floor = NoiseFloor::default();
    b.report(&format!("quality_scan/{n}"), || {
        measure_window(&w, &prev, &mut floor, active).snr_db
    });

    // One second of PCM16 capture: all-f64 parse vs fused i16->f32 decode.
    let n = 48_000;
    let path =
        std::env::temp_dir().join(format!("earsonar_dsp_kernels_{}.wav", std::process::id()));
    let audio = WavAudio {
        samples: random_signal(n, 109),
        sample_rate: 48_000,
    };
    write_wav(&path, &audio, WavFormat::Pcm16).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let mut pcm = Vec::new();
    b.report(&format!("wav_decode/scalar/{n}"), || {
        parse_wav(&bytes).unwrap().samples.len()
    });
    b.report(&format!("wav_decode/vectorized/{n}"), || {
        parse_wav_f32_into(&bytes, &mut pcm).unwrap();
        black_box(pcm[0])
    });
}

/// The shared complex plan against the half-size real-input plan.
fn planned_ffts(b: &Bencher) {
    for n in [256usize, 1024, 2048, 4096] {
        let signal: Vec<Complex64> = random_signal(n, 17 + n as u64)
            .into_iter()
            .map(Complex64::from_real)
            .collect();
        let plan = FftPlan::shared(n).unwrap();
        let mut buf = signal.clone();
        b.report(&format!("fft_planned/{n}"), || {
            buf.copy_from_slice(&signal);
            plan.forward(&mut buf).unwrap();
            black_box(buf[0])
        });

        let signal = random_signal(n, 29 + n as u64);
        let plan = RealFftPlan::shared(n).unwrap();
        let (mut work, mut out) = (Vec::new(), Vec::new());
        b.report(&format!("fft_real_planned/{n}"), || {
            plan.forward_into(&signal, &mut work, &mut out).unwrap();
            black_box(out[0])
        });
    }
}

/// Prints a lane row: the time per call and per signal, since one call
/// transforms `lanes` signals.
fn report_lanes<T>(b: &Bencher, name: &str, lanes: usize, f: impl FnMut() -> T) {
    let m = b.run(name, f);
    println!(
        "{:<44} {:>14.1} ns/iter  {:>10.1} ns/lane  ({} iters/batch)",
        m.name,
        m.ns_per_iter,
        m.ns_per_iter / lanes as f64,
        m.iters
    );
}

/// One real forward transform of `L` signals of `n` points in split
/// frames: the lane transform the deconvolution runs.
fn fft_lanes<const L: usize>(b: &Bencher, n: usize) {
    let xs: Vec<Vec<f64>> = (0..L)
        .map(|l| random_signal(n, 41 + (n + l) as u64))
        .collect();
    let plan = RealFftPlan::shared(n).unwrap();
    let (mut work, mut out) = (Vec::new(), Vec::new());
    report_lanes(b, &format!("fft_lanes/{L}x{n}"), L, || {
        let signals: [&[f64]; L] = std::array::from_fn(|l| xs[l].as_slice());
        plan.forward_lanes(signals, &mut work, &mut out).unwrap();
        black_box(out[0])
    });
}

/// The pipeline's zero-phase band-pass over `L` chirp windows, each with
/// the previous window's tail as filter context that is filtered but not
/// returned.
fn filtfilt_lanes_row<const L: usize>(b: &Bencher) {
    let cfg = EarSonarConfig::default();
    let filter = band_pass(&cfg);
    let pad = 3 * cfg.chirp_len;
    let n = pad + cfg.chirp_hop;
    let xs: Vec<Vec<f64>> = (0..L).map(|l| random_signal(n, 111 + l as u64)).collect();
    let mut outs: [Vec<f64>; L] = std::array::from_fn(|_| Vec::new());
    let mut ext = Vec::new();
    report_lanes(b, &format!("filtfilt_lanes/{L}"), L, || {
        let signals: [&[f64]; L] = std::array::from_fn(|l| xs[l].as_slice());
        filtfilt_lanes(&filter, signals, pad, [pad; L], &mut ext, outs.each_mut()).unwrap();
        black_box(outs[0][0])
    });
}

/// Lane-interleaved kernels: what running several signals per pass buys
/// per signal. The pipeline's lane widths are chosen from these rows.
fn lane_kernels(b: &Bencher) {
    for n in [128usize, 256, 512] {
        fft_lanes::<1>(b, n);
        fft_lanes::<2>(b, n);
        fft_lanes::<4>(b, n);
    }
    filtfilt_lanes_row::<1>(b);
    filtfilt_lanes_row::<2>(b);
    filtfilt_lanes_row::<4>(b);
    filtfilt_lanes_row::<8>(b);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let b = Bencher::from_args(&args);

    let cfg = EarSonarConfig::default();
    let f = band_pass(&cfg);
    let x = signal(5_760); // one default recording
    b.report("filtfilt_recording", || filtfilt(&f, &x, 72).unwrap());

    let template = FmcwChirp::earsonar().samples();
    let est = ChannelEstimator::new(&template, 240, 96, 1e-3).unwrap();
    let window = signal(240);
    b.report("channel_ir_estimate", || est.estimate(&window).unwrap());

    let ex = MfccExtractor::new(mfcc_config(cfg.sample_rate)).unwrap();
    let x = signal(256);
    let mut scratch = DspScratch::new();
    let mut coeffs = Vec::new();
    b.report("mfcc_extract_frame", || {
        ex.extract_into(&mut scratch, &x, &mut coeffs).unwrap();
        black_box(coeffs[0])
    });

    let x = signal(96);
    let mut ac = Vec::new();
    b.report("autoconvolve_ir", || {
        autoconvolve_with(&mut scratch, &x, &mut ac);
        black_box(ac[0])
    });

    println!("\n== scalar vs vectorized kernels ==");
    kernel_pairs(&b);

    println!("\n== complex vs real-input planned transforms ==");
    planned_ffts(&b);

    println!("\n== lane-interleaved kernels ==");
    lane_kernels(&b);
}
