//! Unified performance report: every scalar-vs-vectorized kernel pair
//! from the SIMD pass, the planned-FFT comparison, the end-to-end
//! throughput story (chirps/sec, screenings/sec), and the
//! session-engine load sweep (sessions/sec, p50/p99 latency), plus the
//! A/B backend comparison (candidate backends vs the MFCC+k-means
//! baseline on identical cohort seeds), written as one versioned JSON
//! document, `BENCH_pr9.json`.
//!
//! Every kernel row verifies its equivalence contract **before** timing:
//! `bit_identical` rows are `assert_eq!`-checked, `ulp_bounded` rows are
//! checked against the documented `1e-12 × Σ|terms|` reassociation bound
//! (see `earsonar_dsp::simd` and `tests/kernel_equivalence.rs`). The
//! engine worker sweep likewise proves engine == sequential screening
//! first, and the report carries an explicit low-core flag: on a one- or
//! two-core host a ~1.0x parallel "speedup" reflects the hardware, not
//! the implementation — single-core kernel speedups are the portable
//! story.
//!
//! The JSON schema (`schema_version` 5) is documented in DESIGN.md and
//! validated by `cargo run -p xtask -- bench-schema`; CI runs the
//! `--smoke` mode (or set `EARSONAR_BENCH_SMOKE`), which performs all
//! equivalence checks with reduced timing budgets.
//!
//! Run with `cargo run --release -p earsonar-bench --bin perf_report`.

use earsonar::pipeline::{EarSonar, FrontEnd};
use earsonar::quality::{measure_window, measure_window_scalar, NoiseFloor};
use earsonar::EarSonarConfig;
use earsonar_bench::ab::{backends_section_json, run_ab};
use earsonar_bench::engine_load::{engine_section_json, run_load, LoadSpec};
use earsonar_bench::standard_dataset;
use earsonar_bench::timing::{json_num, Bencher, Measurement};
use earsonar_dsp::complex::Complex64;
use earsonar_dsp::correlation::{pearson, pearson_scalar};
use earsonar_dsp::fft::{fft, fft_real};
use earsonar_dsp::filter::{butter_bandpass, filtfilt, filtfilt_with};
use earsonar_dsp::mel::MelFilterBank;
use earsonar_dsp::mfcc::{MfccConfig, MfccExtractor};
use earsonar_dsp::plan::{DspScratch, FftPlan, RealFftPlan};
use earsonar_dsp::rng::DetRng;
use earsonar_dsp::wav::{parse_wav, parse_wav_f32_into, write_wav, WavAudio, WavFormat};
use earsonar_dsp::window::{apply_precomputed, Window};
use earsonar_sim::ear::EarCanal;
use earsonar_sim::recorder::{
    spectral_ffts_per_recording, synthesize_recording_legacy, synthesize_recording_with,
    time_domain_ffts_per_recording, Recording, RecorderConfig,
};
use earsonar_sim::rng::SimRng;
use earsonar_sim::scratch::SimScratch;
use earsonar_sim::session::SessionConfig;
use earsonar_sim::{MeeAcoustics, MeeState};
use std::fmt::Write as _;
use std::hint::black_box;

/// One scalar-vs-vectorized kernel comparison.
struct KernelRow {
    /// Schema key under `"kernels"` (stable; xtask validates it).
    name: &'static str,
    /// Input length the pair was timed at.
    n: usize,
    scalar: Measurement,
    vectorized: Measurement,
    /// `"bit_identical"` (asserted with `assert_eq!`) or `"ulp_bounded"`
    /// (checked against the documented reassociation bound).
    equivalence: &'static str,
}

impl KernelRow {
    fn speedup(&self) -> f64 {
        self.scalar.ns_per_iter / self.vectorized.ns_per_iter
    }
}

/// Per-size FFT comparison row (planned vs one-shot, carried forward
/// from the PR 1 report under the unified schema).
struct FftRow {
    size: usize,
    kind: &'static str,
    one_shot: Measurement,
    planned: Measurement,
}

impl FftRow {
    fn speedup(&self) -> f64 {
        self.one_shot.ns_per_iter / self.planned.ns_per_iter
    }
}

fn random_signal(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = DetRng::seed_from_u64(seed);
    (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect()
}

// ---- scalar vs vectorized kernel pairs ----

/// `filtfilt` (allocating reference) vs `filtfilt_with` (in-place
/// section-major, warm buffers) at the pipeline's per-chirp size:
/// context + hop samples with the preprocessor's reflection pad.
fn bench_filtfilt(b: &Bencher) -> KernelRow {
    let cfg = EarSonarConfig::default();
    let filter = butter_bandpass(
        cfg.noise_filter_order,
        cfg.band_low_hz,
        cfg.band_high_hz,
        cfg.sample_rate,
    )
    .unwrap();
    let pad = 3 * cfg.chirp_len;
    let n = pad + cfg.chirp_hop;
    let x = random_signal(n, 101);
    let (mut ext, mut out) = (Vec::new(), Vec::new());
    let reference = filtfilt(&filter, &x, pad).unwrap();
    filtfilt_with(&filter, &x, pad, &mut ext, &mut out).unwrap();
    assert_eq!(out, reference, "filtfilt_with diverged from filtfilt");
    let scalar = b.report(&format!("filtfilt/scalar/{n}"), || {
        filtfilt(&filter, &x, pad).unwrap().len()
    });
    let vectorized = b.report(&format!("filtfilt/vectorized/{n}"), || {
        filtfilt_with(&filter, &x, pad, &mut ext, &mut out).unwrap();
        black_box(out[0])
    });
    KernelRow {
        name: "filtfilt",
        n,
        scalar,
        vectorized,
        equivalence: "bit_identical",
    }
}

/// Per-sample trig window (`Window::apply_in_place`) vs the precomputed
/// tap multiply (`apply_precomputed`).
fn bench_window_multiply(b: &Bencher) -> KernelRow {
    let n = 512; // the MFCC frame size
    let win = Window::Hann;
    let x = random_signal(n, 102);
    let mut taps = Vec::new();
    win.coefficients_into(n, &mut taps);
    let mut expect = x.clone();
    win.apply_in_place(&mut expect);
    let mut got = x.clone();
    apply_precomputed(&taps, &mut got);
    assert_eq!(got, expect, "precomputed window diverged");
    let mut buf = x.clone();
    let scalar = b.report(&format!("window_multiply/scalar/{n}"), || {
        buf.copy_from_slice(&x);
        win.apply_in_place(&mut buf);
        black_box(buf[0])
    });
    let vectorized = b.report(&format!("window_multiply/vectorized/{n}"), || {
        buf.copy_from_slice(&x);
        apply_precomputed(&taps, &mut buf);
        black_box(buf[0])
    });
    KernelRow {
        name: "window_multiply",
        n,
        scalar,
        vectorized,
        equivalence: "bit_identical",
    }
}

/// Strict-order Pearson correlation vs the four-lane fused-moments path.
fn bench_correlation(b: &Bencher) -> KernelRow {
    let n = 2048;
    let a = random_signal(n, 103);
    let v = random_signal(n, 104);
    let fast = pearson(&a, &v).unwrap();
    let slow = pearson_scalar(&a, &v).unwrap();
    assert!(
        (fast - slow).abs() < 1e-9,
        "pearson diverged: {fast} vs {slow}"
    );
    let scalar = b.report(&format!("correlation/scalar/{n}"), || {
        pearson_scalar(&a, &v).unwrap()
    });
    let vectorized =
        b.report(&format!("correlation/vectorized/{n}"), || pearson(&a, &v).unwrap());
    KernelRow {
        name: "correlation",
        n,
        scalar,
        vectorized,
        equivalence: "ulp_bounded",
    }
}

/// Sparse per-tap mel projection vs the dense contiguous-dot layout.
fn bench_mel_projection(b: &Bencher) -> KernelRow {
    let n_fft = 1024;
    let bank = MelFilterBank::new(26, n_fft, 48_000.0, 16_000.0, 20_000.0).unwrap();
    let ps: Vec<f64> = random_signal(n_fft / 2 + 1, 105)
        .iter()
        .map(|x| x * x)
        .collect();
    let (mut fast, mut slow) = (Vec::new(), Vec::new());
    bank.apply_into(&ps, &mut fast).unwrap();
    bank.apply_into_scalar(&ps, &mut slow).unwrap();
    for (f, s) in fast.iter().zip(&slow) {
        assert!(
            (f - s).abs() <= 1e-12 * s.abs().max(1.0),
            "mel projection diverged: {f} vs {s}"
        );
    }
    let scalar = b.report(&format!("mel_projection/scalar/{n_fft}"), || {
        bank.apply_into_scalar(&ps, &mut slow).unwrap();
        black_box(slow[0])
    });
    let vectorized = b.report(&format!("mel_projection/vectorized/{n_fft}"), || {
        bank.apply_into(&ps, &mut fast).unwrap();
        black_box(fast[0])
    });
    KernelRow {
        name: "mel_projection",
        n: n_fft,
        scalar,
        vectorized,
        equivalence: "ulp_bounded",
    }
}

/// Full MFCC extraction: per-sample window + per-element DCT cosines vs
/// precomputed taps + basis-row dots.
fn bench_mfcc(b: &Bencher) -> KernelRow {
    let ex = MfccExtractor::new(MfccConfig::earsonar_default()).unwrap();
    let mut scratch = DspScratch::new();
    let n = 512;
    let x = random_signal(n, 106);
    let (mut fast, mut slow) = (Vec::new(), Vec::new());
    ex.extract_into(&mut scratch, &x, &mut fast).unwrap();
    ex.extract_into_scalar(&mut scratch, &x, &mut slow).unwrap();
    for (f, s) in fast.iter().zip(&slow) {
        assert!((f - s).abs() < 1e-9, "mfcc diverged: {f} vs {s}");
    }
    let scalar = b.report(&format!("mfcc/scalar/{n}"), || {
        ex.extract_into_scalar(&mut scratch, &x, &mut slow).unwrap();
        black_box(slow[0])
    });
    let vectorized = b.report(&format!("mfcc/vectorized/{n}"), || {
        ex.extract_into(&mut scratch, &x, &mut fast).unwrap();
        black_box(fast[0])
    });
    KernelRow {
        name: "mfcc",
        n,
        scalar,
        vectorized,
        equivalence: "ulp_bounded",
    }
}

/// The quality gate's per-chirp window measurement: fused scalar pass vs
/// the slice-split four-lane scans.
fn bench_quality_scan(b: &Bencher) -> KernelRow {
    let cfg = EarSonarConfig::default();
    let n = cfg.chirp_hop;
    let active = cfg.chirp_len + 32;
    let w = random_signal(n, 107);
    let prev = random_signal(n, 108);
    let (mut floor_a, mut floor_b) = (NoiseFloor::default(), NoiseFloor::default());
    let fast = measure_window(&w, &prev, &mut floor_a, active);
    let slow = measure_window_scalar(&w, &prev, &mut floor_b, active);
    assert_eq!(fast.clip_fraction, slow.clip_fraction);
    assert_eq!(fast.dropout_fraction, slow.dropout_fraction);
    assert!((fast.snr_db - slow.snr_db).abs() < 1e-9);
    assert!((fast.correlation - slow.correlation).abs() < 1e-9);
    let mut floor = NoiseFloor::default();
    let scalar = b.report(&format!("quality_scan/scalar/{n}"), || {
        measure_window_scalar(&w, &prev, &mut floor, active).snr_db
    });
    let mut floor = NoiseFloor::default();
    let vectorized = b.report(&format!("quality_scan/vectorized/{n}"), || {
        measure_window(&w, &prev, &mut floor, active).snr_db
    });
    KernelRow {
        name: "quality_scan",
        n,
        scalar,
        vectorized,
        equivalence: "ulp_bounded",
    }
}

/// PCM16 WAV decode: the all-f64 `parse_wav` (per-sample push) vs the
/// fused i16→f32 `parse_wav_f32_into` into a reused buffer.
fn bench_wav_decode(b: &Bencher) -> KernelRow {
    let n = 48_000; // one second of capture
    let path = std::env::temp_dir().join("earsonar_perf_report_pcm16.wav");
    write_wav(
        &path,
        &WavAudio {
            samples: random_signal(n, 109),
            sample_rate: 48_000,
        },
        WavFormat::Pcm16,
    )
    .unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let reference = parse_wav(&bytes).unwrap();
    let mut pcm = Vec::new();
    let rate = parse_wav_f32_into(&bytes, &mut pcm).unwrap();
    assert_eq!(rate, reference.sample_rate);
    assert_eq!(pcm.len(), reference.samples.len());
    for (f, s) in pcm.iter().zip(&reference.samples) {
        assert_eq!(*f, *s as f32, "f32 decode diverged");
    }
    let scalar = b.report(&format!("wav_decode/scalar/{n}"), || {
        parse_wav(&bytes).unwrap().samples.len()
    });
    let vectorized = b.report(&format!("wav_decode/vectorized/{n}"), || {
        parse_wav_f32_into(&bytes, &mut pcm).unwrap();
        black_box(pcm[0])
    });
    KernelRow {
        name: "wav_decode",
        n,
        scalar,
        vectorized,
        equivalence: "bit_identical",
    }
}

// ---- planned vs one-shot transforms (carried forward from PR 1) ----

fn bench_complex_fft(b: &Bencher, n: usize) -> FftRow {
    let signal: Vec<Complex64> = random_signal(n, 17 + n as u64)
        .into_iter()
        .map(Complex64::from_real)
        .collect();
    let one_shot = b.report(&format!("fft_one_shot/{n}"), || fft(&signal));
    let plan = FftPlan::new(n).unwrap();
    let mut buf = signal.clone();
    let planned = b.report(&format!("fft_planned/{n}"), || {
        buf.copy_from_slice(&signal);
        plan.forward(&mut buf).unwrap();
        black_box(buf[0])
    });
    FftRow {
        size: n,
        kind: "complex",
        one_shot,
        planned,
    }
}

fn bench_real_fft(b: &Bencher, n: usize) -> FftRow {
    let signal = random_signal(n, 29 + n as u64);
    let one_shot = b.report(&format!("fft_real_one_shot/{n}"), || fft_real(&signal));
    let plan = RealFftPlan::new(n).unwrap();
    let mut work = Vec::new();
    let mut out = Vec::new();
    let planned = b.report(&format!("fft_real_planned/{n}"), || {
        plan.forward_into(&signal, &mut work, &mut out).unwrap();
        black_box(out[0])
    });
    FftRow {
        size: n,
        kind: "real",
        one_shot,
        planned,
    }
}

fn warn_if_low_core(cores: usize) -> bool {
    let low = cores < 4;
    if low {
        println!(
            "WARNING: host reports {cores} core(s); the engine worker sweep \
             below is hardware-limited and ~1.0x parallel speedups reflect \
             the host, not the implementation. Single-core kernel speedups \
             are the portable numbers; re-run on a multi-core machine for \
             meaningful engine figures."
        );
    }
    low
}

#[allow(clippy::too_many_lines)] // one linear report, sectioned by comments
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bencher = Bencher::from_env(&args);
    let smoke = std::env::var_os("EARSONAR_BENCH_SMOKE").is_some()
        || args.iter().any(|a| a == "--smoke");
    let mode = if smoke { "smoke" } else { "full" };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let low_core = warn_if_low_core(cores);

    // ---- scalar vs vectorized kernels ----

    println!("\n== scalar vs vectorized kernels ==");
    let kernels = vec![
        bench_filtfilt(&bencher),
        bench_window_multiply(&bencher),
        bench_correlation(&bencher),
        bench_mel_projection(&bencher),
        bench_mfcc(&bencher),
        bench_quality_scan(&bencher),
        bench_wav_decode(&bencher),
    ];
    for k in &kernels {
        println!(
            "  {:<16} {:>6.2}x  ({}, n = {})",
            k.name,
            k.speedup(),
            k.equivalence,
            k.n
        );
    }

    println!("\n== planned vs one-shot transforms ==");
    let mut fft_rows = Vec::new();
    for n in [1024usize, 2048, 4096] {
        fft_rows.push(bench_complex_fft(&bencher, n));
        fft_rows.push(bench_real_fft(&bencher, n));
    }

    // ---- end-to-end throughput ----

    println!("\n== end-to-end throughput ==");
    let data = standard_dataset(4, SessionConfig::default());
    let recordings: Vec<Recording> = data
        .sessions
        .iter()
        .take(8)
        .map(|s| s.recording.clone())
        .collect();
    assert_eq!(recordings.len(), 8, "dataset too small for the throughput bench");
    let chirps_total: usize = recordings.iter().map(|r| r.n_chirps).sum();
    let front_end = FrontEnd::new(&EarSonarConfig::default()).expect("front end");

    let seq = bencher.report("front_end_sequential/8", || {
        recordings
            .iter()
            .map(|r| front_end.process(r).map(|p| p.features.len()))
            .collect::<Vec<_>>()
    });
    let chirps_per_sec = chirps_total as f64 * 1e9 / seq.ns_per_iter;

    let system = EarSonar::fit(&data.sessions, &EarSonarConfig::default()).expect("fit");
    let screen = bencher.report("screen/8", || {
        recordings
            .iter()
            .map(|r| system.screen(r).ok())
            .collect::<Vec<_>>()
    });
    let screenings_per_sec = recordings.len() as f64 * 1e9 / screen.ns_per_iter;
    println!(
        "headline: {chirps_per_sec:.0} chirps/sec, \
         {screenings_per_sec:.1} screenings/sec (single worker, {cores} core host)"
    );

    // ---- spectral-domain recording synthesis (carried from PR 2) ----

    println!("\n== synthesize_recording: spectral vs pre-optimization ==");
    let mut ear_rng = SimRng::seed_from_u64(7);
    let ear = EarCanal::sample_child(&mut ear_rng);
    let mut resp_rng = SimRng::seed_from_u64(8);
    let resp = MeeState::Mucoid.sample_response(18_000.0, &mut resp_rng);
    let cfg = RecorderConfig::default();

    let mut scratch = SimScratch::new();
    let mut max_rel = 0.0f64;
    for seed in 0..4u64 {
        let mut rng_a = SimRng::seed_from_u64(100 + seed);
        let mut rng_b = SimRng::seed_from_u64(100 + seed);
        let spectral = synthesize_recording_with(&ear, &resp, &cfg, &mut rng_a, &mut scratch);
        let reference =
            earsonar_sim::recorder::synthesize_recording_time_domain(&ear, &resp, &cfg, &mut rng_b);
        let peak = reference.samples.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (a, b) in spectral.samples.iter().zip(&reference.samples) {
            max_rel = max_rel.max((a - b).abs() / peak);
        }
    }
    assert!(max_rel <= 1e-9, "equivalence violated: {max_rel:e}");
    println!("equivalence: max relative error {max_rel:.2e} (bound 1e-9)");

    let legacy = bencher.report("synthesize/legacy_pre_pr", || {
        let mut rng = SimRng::seed_from_u64(42);
        synthesize_recording_legacy(&ear, &resp, &cfg, &mut rng).samples[0]
    });
    let warm = bencher.report("synthesize/spectral_warm", || {
        let mut rng = SimRng::seed_from_u64(42);
        synthesize_recording_with(&ear, &resp, &cfg, &mut rng, &mut scratch).samples[0]
    });
    let synth_speedup = legacy.ns_per_iter / warm.ns_per_iter;
    let ffts_before = time_domain_ffts_per_recording(&cfg, &ear);
    let ffts_after = spectral_ffts_per_recording(&cfg, &ear);
    println!(
        "speedup {synth_speedup:.2}x ({:.0} -> {:.0} recordings/sec), \
         FFTs per recording {ffts_before} -> {ffts_after}",
        1e9 / legacy.ns_per_iter,
        1e9 / warm.ns_per_iter,
    );

    // ---- quality-gate overhead on clean input (carried from PR 5) ----

    println!("\n== quality gate: gated vs ungated front end (clean input) ==");
    let mut cfg_off = EarSonarConfig::default();
    cfg_off.quality.enabled = false;
    let fe_ungated = FrontEnd::new(&cfg_off).expect("ungated front end");

    for rec in &recordings {
        let gated = front_end.process(rec).expect("gated");
        let ungated = fe_ungated.process(rec).expect("ungated");
        assert_eq!(gated.quality.rejections.total(), 0, "clean input rejected");
        assert_eq!(gated.features, ungated.features, "gate perturbed features");
    }
    println!(
        "bit-identity: gated == ungated on {} clean recordings",
        recordings.len()
    );

    let gated_m = bencher.report("front_end_gated/8", || {
        recordings
            .iter()
            .map(|r| front_end.process(r).map(|p| p.features.len()))
            .collect::<Vec<_>>()
    });
    let ungated_m = bencher.report("front_end_ungated/8", || {
        recordings
            .iter()
            .map(|r| fe_ungated.process(r).map(|p| p.features.len()))
            .collect::<Vec<_>>()
    });
    let gate_overhead_pct = (gated_m.ns_per_iter / ungated_m.ns_per_iter - 1.0) * 100.0;
    println!("quality-gate overhead: {gate_overhead_pct:+.1}% on clean input");

    // ---- session-engine load: interleaved concurrent streams ----

    println!("\n== session engine: interleaved load sweep ==");
    let engine_spec = LoadSpec {
        sessions: if smoke { 64 } else { 256 },
        chunk_len: 997,
        seed: 7,
        drain_every: 64,
        ..LoadSpec::default()
    };
    let mut engine_reports = Vec::new();
    for workers in [1usize, 2, 4] {
        let r = run_load(
            &system,
            &recordings,
            &LoadSpec {
                workers,
                ..engine_spec
            },
        );
        println!(
            "  {workers} worker(s): {:8.1} sessions/sec  p50 {:7.2} ms  p99 {:7.2} ms  \
             peak in-flight {}",
            r.sessions_per_sec, r.p50_ms, r.p99_ms, r.peak_in_flight
        );
        assert!(
            r.equivalent_to_sequential,
            "engine verdicts diverged from sequential screening at {workers} workers"
        );
        engine_reports.push(r);
    }
    println!(
        "bit-identity: engine == sequential screening across {} sessions x 1/2/4 workers",
        engine_spec.sessions
    );

    // ---- A/B backend comparison on the shared deterministic cohort ----
    // Small cohorts keep the report fast; `ab-bench` re-splices the
    // section at larger scale when run standalone.
    let ab_patients = if smoke { 4 } else { 8 };
    println!("\n== A/B backends ({ab_patients} patients) ==");
    let (ab_cmp, ab_sessions) = run_ab(ab_patients, &EarSonarConfig::default());

    // ---- the unified report (hand-rolled JSON: no serde in budget) ----

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema_version\": 5,");
    let _ = writeln!(json, "  \"report\": \"BENCH_pr9\",");
    let _ = writeln!(json, "  \"mode\": \"{mode}\",");
    let _ = writeln!(json, "  \"cores\": {cores},");
    let _ = writeln!(json, "  \"low_core_host\": {low_core},");
    let _ = writeln!(json, "  \"kernels\": {{");
    for (i, k) in kernels.iter().enumerate() {
        let _ = writeln!(
            json,
            "    \"{}\": {{\"n\": {}, \"scalar_ns\": {}, \"vectorized_ns\": {}, \
             \"speedup\": {}, \"equivalence\": \"{}\"}}{}",
            k.name,
            k.n,
            json_num(k.scalar.ns_per_iter),
            json_num(k.vectorized.ns_per_iter),
            json_num(k.speedup()),
            k.equivalence,
            if i + 1 < kernels.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"fft\": [");
    for (i, r) in fft_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"size\": {}, \"kind\": \"{}\", \"one_shot_ns\": {}, \"planned_ns\": {}, \"speedup\": {}}}{}",
            r.size,
            r.kind,
            json_num(r.one_shot.ns_per_iter),
            json_num(r.planned.ns_per_iter),
            json_num(r.speedup()),
            if i + 1 < fft_rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"end_to_end\": {{");
    let _ = writeln!(json, "    \"recordings\": {},", recordings.len());
    let _ = writeln!(json, "    \"chirps_total\": {chirps_total},");
    let _ = writeln!(json, "    \"front_end_ns\": {},", json_num(seq.ns_per_iter));
    let _ = writeln!(
        json,
        "    \"chirps_per_sec\": {},",
        json_num(chirps_per_sec)
    );
    let _ = writeln!(
        json,
        "    \"screening_ns\": {},",
        json_num(screen.ns_per_iter)
    );
    let _ = writeln!(
        json,
        "    \"screenings_per_sec\": {}",
        json_num(screenings_per_sec)
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"synthesis\": {{");
    let _ = writeln!(json, "    \"n_chirps\": {},", cfg.n_chirps);
    let _ = writeln!(
        json,
        "    \"legacy_pre_pr_ns\": {},",
        json_num(legacy.ns_per_iter)
    );
    let _ = writeln!(
        json,
        "    \"spectral_warm_ns\": {},",
        json_num(warm.ns_per_iter)
    );
    let _ = writeln!(json, "    \"speedup\": {},", json_num(synth_speedup));
    let _ = writeln!(json, "    \"ffts_per_recording_before\": {ffts_before},");
    let _ = writeln!(json, "    \"ffts_per_recording_after\": {ffts_after},");
    // Exponent form: the error is ~1e-11, far below json_num's precision.
    let _ = writeln!(json, "    \"equivalence_max_rel_error\": {max_rel:e}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"quality_gate\": {{");
    let _ = writeln!(json, "    \"recordings\": {},", recordings.len());
    let _ = writeln!(json, "    \"gated_ns\": {},", json_num(gated_m.ns_per_iter));
    let _ = writeln!(
        json,
        "    \"ungated_ns\": {},",
        json_num(ungated_m.ns_per_iter)
    );
    let _ = writeln!(
        json,
        "    \"overhead_pct\": {},",
        json_num(gate_overhead_pct)
    );
    let _ = writeln!(json, "    \"clean_rejections\": 0,");
    let _ = writeln!(json, "    \"bit_identical\": true");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(
        json,
        "  \"backends\": {},",
        backends_section_json(&ab_cmp, ab_patients, ab_sessions)
    );
    let _ = writeln!(
        json,
        "  \"engine\": {}",
        engine_section_json(&engine_spec, &engine_reports)
    );
    json.push_str("}\n");
    std::fs::write("BENCH_pr9.json", &json).expect("write BENCH_pr9.json");

    println!("\nwrote BENCH_pr9.json (schema_version 5)");
}
