//! Allocation, measured rather than pattern-matched: a counting global
//! allocator pins what the screening path allocates.
//!
//! - (a) A warm push path makes a number of allocation calls that does
//!   not grow with the chirps pushed, beyond the doubling of the
//!   stream's own buffers.
//! - (b) Every per-chirp kernel allocates nothing on its second call with
//!   the same scratch and output buffers.
//! - (c) `ScreeningEngine::push` allocates exactly one buffer per
//!   accepted chunk, of the chunk's length.
//! - Finalize's calls stay under a bound linear in the chirps used, and
//!   the WAV and model-file parsers' peak live bytes stay under a
//!   constant times the input length, over seeded truncated and
//!   bit-flipped corpora.
//!
//! The counters are per thread, so tests running in parallel do not
//! disturb each other. A measured region must therefore run on the
//! calling thread: nothing measured here fans out.

use earsonar::channel::pipeline_estimator;
use earsonar::features::mfcc_config;
use earsonar::model_io::{model_from_string, model_to_string};
use earsonar::pipeline::FrontEnd;
use earsonar::preprocess::Preprocessor;
use earsonar::quality::{measure_window, NoiseFloor};
use earsonar::segment::parity_energies;
use earsonar::streaming::ChirpStream;
use earsonar::EarSonar;
use earsonar_acoustics::propagation::AllpassDelay;
use earsonar_dsp::complex::Complex64;
use earsonar_dsp::convolution::autoconvolve_with;
use earsonar_dsp::filter::zero_phase::{filtfilt_lanes, filtfilt_with};
use earsonar_dsp::goertzel::Goertzel;
use earsonar_dsp::hilbert::envelope_with;
use earsonar_dsp::mel::MelFilterBank;
use earsonar_dsp::mfcc::MfccExtractor;
use earsonar_dsp::plan::{DspScratch, FftPlan, RealFftPlan};
use earsonar_dsp::rng::DetRng;
use earsonar_dsp::wav::{parse_wav, parse_wav_f32_into};
use earsonar_dsp::{simd, window};
use earsonar_engine::{EngineConfig, ScreeningEngine, SessionId};
use earsonar_signal::recording::Recording;
use earsonar_sim::cohort::Cohort;
use earsonar_sim::session::{RecordSession, Session, SessionConfig};
use earsonar_suite::{config, small_dataset};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting what the calling thread allocates.
struct Counting;

thread_local! {
    /// Allocation calls: `alloc`, `alloc_zeroed` and `realloc`.
    static CALLS: Cell<usize> = const { Cell::new(0) };
    /// Bytes requested by those calls (a `realloc` counts its new size).
    static BYTES: Cell<usize> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The highest `LIVE` since the current measurement began.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Counts one allocation call of `size` bytes that moves the live total
/// by `delta`. `try_with`: a thread tearing down its locals still frees.
fn record(calls: usize, size: usize, delta: isize) {
    let _ = CALLS.try_with(|c| c.set(c.get() + calls));
    let _ = BYTES.try_with(|b| b.set(b.get() + size));
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the bookkeeping touches only const-initialised thread-local `Cell`s,
// which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size(), layout.size() as isize);
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size(), layout.size() as isize);
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, 0, -(layout.size() as isize));
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(1, new_size, new_size as isize - layout.size() as isize);
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What one measured region allocated on the calling thread.
#[derive(Debug, Clone, Copy)]
struct Allocs {
    calls: usize,
    bytes: usize,
    /// Peak live bytes above the live total at the region's start.
    peak: usize,
}

/// Runs `f` on the calling thread and returns its value with what it
/// allocated.
fn measure<T>(f: impl FnOnce() -> T) -> (T, Allocs) {
    let (calls, bytes, live) = (
        CALLS.with(Cell::get),
        BYTES.with(Cell::get),
        LIVE.with(Cell::get),
    );
    PEAK.with(|p| p.set(live));
    let value = f();
    let allocs = Allocs {
        calls: CALLS.with(Cell::get) - calls,
        bytes: BYTES.with(Cell::get) - bytes,
        peak: (PEAK.with(Cell::get) - live).max(0) as usize,
    };
    (value, allocs)
}

/// One simulated capture of `n_chirps` chirps.
fn capture(n_chirps: usize) -> Recording {
    let cohort = Cohort::generate(1, 11);
    let session_config = SessionConfig {
        n_chirps,
        ..SessionConfig::default()
    };
    Session::record(&cohort.patients()[0], 0, &session_config, 0).recording
}

/// The chirp counts the push path and finalize are measured at.
const CHIRP_COUNTS: [usize; 4] = [24, 48, 96, 192];

/// How a capture reaches a stream.
#[derive(Debug, Clone, Copy)]
enum Push {
    /// Whole chirp windows through `push_chirp_with`.
    Chirps,
    /// 10 ms engine chunks through `push_samples_with`.
    Chunks,
}

/// Pushes the first `n` chirps of `rec` into a fresh stream and finishes
/// it, on `scratch`. Returns the calls made by the pushes, the calls made
/// by `finish_with`, and the chirps used.
fn push_and_finish(
    fe: &FrontEnd,
    scratch: &mut DspScratch,
    rec: &Recording,
    n: usize,
    how: Push,
) -> (usize, usize, usize) {
    let samples = &rec.samples[..n * rec.chirp_hop];
    let mut stream = ChirpStream::new(fe);
    let ((), pushed) = measure(|| match how {
        Push::Chirps => {
            for window in samples.chunks_exact(rec.chirp_hop) {
                stream.push_chirp_with(fe, scratch, window).expect("push");
            }
        }
        Push::Chunks => {
            for chunk in samples.chunks(480) {
                stream.push_samples_with(fe, scratch, chunk).expect("push");
            }
        }
    });
    let used = stream.chirps_used();
    let (processed, finished) = measure(|| stream.finish_with(fe, scratch));
    processed.expect("finish");
    (pushed.calls, finished.calls, used)
}

/// Doublings a buffer makes while growing from `from` to `to` chirps'
/// worth: ⌈log₂(to / from)⌉.
fn doublings(from: usize, to: usize) -> usize {
    to.div_ceil(from).next_power_of_two().trailing_zeros() as usize
}

#[test]
fn push_path_calls_do_not_grow_with_chirp_count() {
    let fe = FrontEnd::new(&config()).expect("front end");
    let rec = capture(CHIRP_COUNTS[3]);
    for how in [Push::Chirps, Push::Chunks] {
        let mut scratch = DspScratch::new();
        // Warm the scratch's pools on the longest capture.
        push_and_finish(&fe, &mut scratch, &rec, CHIRP_COUNTS[3], how);
        let calls = CHIRP_COUNTS.map(|n| push_and_finish(&fe, &mut scratch, &rec, n, how).0);
        println!("{how:?}: push calls for {CHIRP_COUNTS:?} chirps: {calls:?}");
        for (&n, &c) in CHIRP_COUNTS.iter().zip(&calls) {
            let growth = doublings(CHIRP_COUNTS[0], n);
            assert!(
                c <= calls[0] + growth,
                "{how:?}: {n} chirps made {c} calls, {} at {} chirps plus {growth} doublings allowed",
                calls[0],
                CHIRP_COUNTS[0]
            );
        }
    }
}

/// Finalize's allocation calls per capture, whatever its length: the
/// averaged IR, segmentation's peak and candidate lists (its
/// auto-convolution runs on the caller's scratch), the alignment kernel,
/// the averaged spectrum and the feature vector, among others.
const FINALIZE_FIXED: usize = 23;
/// Finalize's allocation calls per used chirp: the echo spectrum's
/// window, its frequencies, its resampled profile and the chirp's MFCC
/// vector.
const FINALIZE_PER_CHIRP: usize = 4;

#[test]
fn finalize_calls_stay_linear_in_chirps_used() {
    let fe = FrontEnd::new(&config()).expect("front end");
    let rec = capture(CHIRP_COUNTS[3]);
    let mut scratch = DspScratch::new();
    push_and_finish(&fe, &mut scratch, &rec, CHIRP_COUNTS[3], Push::Chirps);
    for n in CHIRP_COUNTS {
        let (_, calls, used) = push_and_finish(&fe, &mut scratch, &rec, n, Push::Chirps);
        println!("finish_with: {calls} calls for {used} used chirps");
        assert!(
            calls <= FINALIZE_FIXED + FINALIZE_PER_CHIRP * used,
            "finish_with made {calls} calls for {used} used chirps"
        );
    }
}

/// Runs `kernel` twice and asserts that the second, warm call allocates
/// nothing.
fn assert_warm_call_allocates_nothing(name: &str, mut kernel: impl FnMut()) {
    kernel();
    let ((), allocs) = measure(&mut kernel);
    assert_eq!(allocs.calls, 0, "{name}: warm call allocated {allocs:?}");
}

#[test]
fn warm_per_chirp_kernels_allocate_nothing() {
    let cfg = config();
    let rec = capture(4);
    let window = rec.chirp_window(1);
    let windows = [0, 1, 2, 3].map(|c| rec.chirp_window(c));
    let mut rng = DetRng::seed_from_u64(0xA110C);
    let x: Vec<f64> = (0..240).map(|_| rng.uniform(-1.0, 1.0)).collect();
    let y: Vec<f64> = (0..96).map(|_| rng.uniform(-1.0, 1.0)).collect();
    let mut scratch = DspScratch::new();
    let (mut out, mut ext) = (Vec::new(), Vec::new());
    let mut outs: [Vec<f64>; 4] = Default::default();

    let plan = FftPlan::shared(256).expect("plan");
    let rplan = RealFftPlan::shared(256).expect("plan");
    let (mut work, mut spec) = (Vec::new(), Vec::new());
    let (mut frames, mut lane_spec) = (Vec::new(), Vec::new());
    let mut data = vec![Complex64::ZERO; 256];
    assert_warm_call_allocates_nothing("FftPlan::forward", || {
        plan.forward(&mut data).expect("fft")
    });
    assert_warm_call_allocates_nothing("FftPlan::inverse", || {
        plan.inverse(&mut data).expect("fft")
    });
    assert_warm_call_allocates_nothing("FftPlan::execute_in_place", || {
        plan.execute_in_place(&mut data, false).expect("fft")
    });
    assert_warm_call_allocates_nothing("FftPlan::forward_from_real", || {
        plan.forward_from_real(&x, &mut spec)
    });
    assert_warm_call_allocates_nothing("RealFftPlan::forward_into", || {
        rplan.forward_into(&x, &mut work, &mut spec).expect("fft")
    });
    assert_warm_call_allocates_nothing("RealFftPlan::inverse_into", || {
        rplan.inverse_into(&spec, &mut work, &mut out).expect("fft")
    });
    assert_warm_call_allocates_nothing("RealFftPlan::forward_lanes", || {
        rplan
            .forward_lanes(windows, &mut frames, &mut lane_spec)
            .expect("fft")
    });
    assert_warm_call_allocates_nothing("RealFftPlan::inverse_lanes", || {
        rplan
            .inverse_lanes::<4>(&lane_spec, &mut frames, &mut out)
            .expect("fft")
    });

    let preprocessor = Preprocessor::new(&cfg).expect("preprocessor");
    let pad = preprocessor.context_len();
    assert_warm_call_allocates_nothing("filtfilt_with", || {
        filtfilt_with(preprocessor.filter(), window, pad, &mut ext, &mut out).expect("filter")
    });
    assert_warm_call_allocates_nothing("filtfilt_lanes", || {
        let [a, b, c, d] = &mut outs;
        filtfilt_lanes(
            preprocessor.filter(),
            windows,
            pad,
            [0; 4],
            &mut ext,
            [a, b, c, d],
        )
        .expect("filter")
    });
    assert_warm_call_allocates_nothing("Preprocessor::run_with", || {
        preprocessor
            .run_with(window, &mut ext, &mut out)
            .expect("band-pass")
    });
    assert_warm_call_allocates_nothing("Preprocessor::run_lanes", || {
        let [a, b, c, d] = &mut outs;
        preprocessor
            .run_lanes(windows, [0; 4], &mut ext, [a, b, c, d])
            .expect("band-pass")
    });
    let filter = preprocessor.filter();
    let (mut buf, mut lane_frames) = (x.clone(), vec![[0.0; 4]; x.len()]);
    assert_warm_call_allocates_nothing("BiquadCascade one-lane and four-lane runs", || {
        filter.run_lanes(buf.as_chunks_mut::<1>().0);
        filter.run_lanes(&mut lane_frames);
    });

    let fe = FrontEnd::new(&cfg).expect("front end");
    let estimator = pipeline_estimator(fe.template(), &cfg).expect("estimator");
    assert_warm_call_allocates_nothing("ChannelEstimator::estimate_with", || {
        estimator
            .estimate_with(&mut scratch, window, &mut out)
            .expect("deconvolve")
    });
    assert_warm_call_allocates_nothing("ChannelEstimator::estimate_lanes", || {
        let [a, b, c, d] = &mut outs;
        estimator
            .estimate_lanes(&mut scratch, windows, [a, b, c, d])
            .expect("deconvolve")
    });

    let goertzel = Goertzel::dft_bins(128, 40..57);
    assert_warm_call_allocates_nothing("Goertzel::powers_into", || {
        goertzel.powers_into(&y, &mut out)
    });
    let mfcc_config = mfcc_config(cfg.sample_rate);
    let mel = MelFilterBank::new(
        mfcc_config.n_filters,
        mfcc_config.n_fft,
        mfcc_config.sample_rate,
        mfcc_config.f_min,
        mfcc_config.f_max,
    )
    .expect("mel bank");
    let power: Vec<f64> = (0..=mfcc_config.n_fft / 2).map(|k| k as f64).collect();
    assert_warm_call_allocates_nothing("MelFilterBank::apply_into", || {
        mel.apply_into(&power, &mut out).expect("mel")
    });
    let mfcc = MfccExtractor::new(mfcc_config).expect("mfcc");
    assert_warm_call_allocates_nothing("MfccExtractor::extract_into", || {
        mfcc.extract_into(&mut scratch, &y, &mut out).expect("mfcc")
    });

    let mut taps = Vec::new();
    window::hann_into(x.len(), &mut taps);
    let mut signal = x.clone();
    assert_warm_call_allocates_nothing("window::apply_precomputed", || {
        window::apply_precomputed(&taps, &mut signal)
    });
    let delay = AllpassDelay::new(0.4, y.len(), &mut scratch).expect("delay");
    assert_warm_call_allocates_nothing("AllpassDelay::apply", || {
        delay.apply(&y, y.len() + 3, &mut out).expect("delay")
    });
    assert_warm_call_allocates_nothing("AllpassDelay::apply_window", || {
        delay
            .apply_window(&y, y.len() + 3, 30, 61, &mut out)
            .expect("delay")
    });
    assert_warm_call_allocates_nothing("envelope_with", || {
        envelope_with(&mut scratch, &y, &mut out)
    });
    // 96 samples: above the 64-sample switch, so this pins the FFT path.
    assert_warm_call_allocates_nothing("autoconvolve_with", || {
        autoconvolve_with(&mut scratch, &y, &mut out)
    });

    let mut floor = NoiseFloor::default();
    let active = cfg.chirp_len + cfg.ir_taps;
    assert_warm_call_allocates_nothing("quality::measure_window, score and gate", || {
        let quality = measure_window(window, windows[0], &mut floor, active);
        std::hint::black_box((quality.score(&cfg.quality), quality.gate(&cfg.quality)));
    });
    assert_warm_call_allocates_nothing("segment::parity_energies", || {
        std::hint::black_box(parity_energies(&y, y.len() / 2));
    });
    let wav = wav_bytes(1, 1, 16, &pcm16(&mut rng, 240));
    let mut decoded = Vec::new();
    assert_warm_call_allocates_nothing("parse_wav_f32_into", || {
        parse_wav_f32_into(&wav, &mut decoded).expect("wav");
    });

    let a = x.clone();
    assert_warm_call_allocates_nothing("simd kernels", || {
        let s = simd::sum(&x) + simd::sum_sq(&x) + simd::dot(&x, &a);
        let (cov, va, vb) = simd::centered_moments(&x, 0.0, &a, 0.0);
        std::hint::black_box(s + cov + va + vb);
    });
}

#[test]
fn engine_push_allocates_one_chunk_copy_per_accepted_chunk() {
    let data = small_dataset(6);
    let system = EarSonar::fit(&data.sessions, &config()).expect("fit");
    let config = EngineConfig::default();
    let engine = ScreeningEngine::new(&system, config);
    engine.open(SessionId(0)).expect("open");
    let chunk = vec![0.25; 480];
    for round in 0..2 {
        let (accepted, allocs) = measure(|| {
            (0..config.queue_capacity)
                .filter(|_| engine.push(SessionId(0), &chunk).is_ok())
                .count()
        });
        assert_eq!(accepted, config.queue_capacity, "round {round}");
        assert_eq!(allocs.calls, accepted, "round {round}: {allocs:?}");
        assert_eq!(
            allocs.bytes,
            accepted * chunk.len() * std::mem::size_of::<f64>(),
            "round {round}: {allocs:?}"
        );
        engine.drain(1);
    }
}

/// A RIFF/WAVE file at 48 kHz with one `fmt ` chunk and `data` as its
/// payload.
fn wav_bytes(tag: u16, channels: u16, bits: u16, data: &[u8]) -> Vec<u8> {
    let rate = 48_000u32;
    let block_align = channels * (bits / 8);
    let mut b = Vec::new();
    b.extend_from_slice(b"RIFF");
    b.extend_from_slice(&((36 + data.len()) as u32).to_le_bytes());
    b.extend_from_slice(b"WAVEfmt ");
    b.extend_from_slice(&16u32.to_le_bytes());
    b.extend_from_slice(&tag.to_le_bytes());
    b.extend_from_slice(&channels.to_le_bytes());
    b.extend_from_slice(&rate.to_le_bytes());
    b.extend_from_slice(&(rate * u32::from(block_align)).to_le_bytes());
    b.extend_from_slice(&block_align.to_le_bytes());
    b.extend_from_slice(&bits.to_le_bytes());
    b.extend_from_slice(b"data");
    b.extend_from_slice(&(data.len() as u32).to_le_bytes());
    b.extend_from_slice(data);
    b
}

/// `samples` random 16-bit PCM samples.
fn pcm16(rng: &mut DetRng, samples: usize) -> Vec<u8> {
    (0..samples)
        .flat_map(|_| ((rng.next_u64() >> 48) as i16).to_le_bytes())
        .collect()
}

/// Seeded corpus around `base`: every truncation on a stride, then
/// `flips` inputs with one to four random bits flipped.
fn corpus(base: &[u8], seed: u64, flips: u64) -> Vec<Vec<u8>> {
    let stride = (base.len() / 64).max(1);
    let mut inputs: Vec<Vec<u8>> = (0..=base.len())
        .step_by(stride)
        .map(|len| base[..len].to_vec())
        .collect();
    let mut rng = DetRng::seed_from_u64(seed);
    for _ in 0..flips {
        let mut bytes = base.to_vec();
        for _ in 0..1 + rng.below(4) {
            let at = rng.below(bytes.len());
            bytes[at] ^= 1 << rng.below(8);
        }
        inputs.push(bytes);
    }
    inputs
}

/// Peak live bytes per input byte of `parse_wav`: each 16-bit sample
/// becomes an 8-byte `f64` twice, as a decoded frame and in the mono
/// mixdown.
const PARSE_WAV_PEAK_PER_BYTE: usize = 8;
/// Peak live bytes per input byte of `parse_wav_f32_into` into an empty
/// buffer: each 16-bit sample becomes one 4-byte `f32`.
const PARSE_WAV_F32_PEAK_PER_BYTE: usize = 2;

#[test]
fn wav_parsers_peak_bytes_stay_linear_in_input_length() {
    let mut rng = DetRng::seed_from_u64(0x5741_5645);
    let floats: Vec<u8> = (0..2_400)
        .flat_map(|_| (rng.uniform(-1.0, 1.0) as f32).to_le_bytes())
        .collect();
    let bases = [
        wav_bytes(1, 1, 16, &pcm16(&mut rng, 4_800)),
        wav_bytes(1, 2, 16, &pcm16(&mut rng, 4_800)),
        wav_bytes(3, 1, 32, &floats),
        wav_bytes(3, 3, 32, &floats),
    ];
    let mut worst = [0usize; 2];
    for (b, base) in bases.iter().enumerate() {
        for bytes in corpus(base, 0xF11E ^ b as u64, 500) {
            let (_, wide) = measure(|| parse_wav(&bytes).is_ok());
            let (_, narrow) = measure(|| parse_wav_f32_into(&bytes, &mut Vec::new()).is_ok());
            let len = bytes.len();
            assert!(
                wide.peak <= PARSE_WAV_PEAK_PER_BYTE * len,
                "parse_wav: base {b}, {len} bytes in, peak {} live bytes",
                wide.peak
            );
            assert!(
                narrow.peak <= PARSE_WAV_F32_PEAK_PER_BYTE * len,
                "parse_wav_f32_into: base {b}, {len} bytes in, peak {} live bytes",
                narrow.peak
            );
            worst = [worst[0].max(wide.peak), worst[1].max(narrow.peak)];
        }
    }
    println!(
        "peak live bytes: parse_wav {}, parse_wav_f32_into {}",
        worst[0], worst[1]
    );
}

/// Peak live bytes of a model-file load, per input byte. A 7 kB model
/// text peaks at 5 bytes per byte today, most of it the front end a
/// successful load builds.
const MODEL_PEAK_PER_BYTE: usize = 8;

#[test]
fn model_load_peak_bytes_stay_linear_in_input_length() {
    let data = small_dataset(6);
    let system = EarSonar::fit(&data.sessions, &config()).expect("fit");
    let text = model_to_string(&system);
    // The first load builds the process-wide FFT plans, which live for
    // the rest of the process; measure warm loads.
    model_from_string(&text).expect("load");
    let mut worst = 0.0f64;
    for input in corpus(text.as_bytes(), 0x30DE1, 500) {
        let Ok(input) = String::from_utf8(input) else {
            continue;
        };
        let (_, allocs) = measure(|| model_from_string(&input).is_ok());
        assert!(
            allocs.peak <= MODEL_PEAK_PER_BYTE * input.len(),
            "{} bytes in, peak {} live bytes",
            input.len(),
            allocs.peak
        );
        worst = worst.max(allocs.peak as f64 / input.len().max(1) as f64);
    }
    println!("model_from_string: peak live bytes per input byte {worst:.2}");
}
