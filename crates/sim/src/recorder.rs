//! Received-signal synthesis.
//!
//! Composes everything the microphone would hear during one measurement:
//! the FMCW chirp train propagated over the direct leak, canal-wall
//! multipath, and the spectrally shaped eardrum echo (paper Eq. 4–5), plus
//! device response, microphone self-noise, ambient room noise, and
//! motion/wearing disturbances.
//!
//! # Spectral synthesis
//!
//! The hot path ([`synthesize_recording`]) works in the frequency
//! domain: the device-shaped chirp and the echo-shaped chirp are each
//! transformed **once** per recording (into a
//! [`SpectralDelayLine`]), every propagation path of every chirp window
//! becomes a per-bin phase ramp × gain accumulated into a shared
//! spectrum, and **one** inverse FFT per chirp recovers the superposed
//! waveform. Because the inverse transform is linear this equals summing
//! per-path allpass delays in the time domain at the same transform size
//! exactly — it is a re-association of the same computation, not an
//! approximation. The same algorithm executed in the time domain is kept
//! as [`synthesize_recording_time_domain`]; both consume the RNG
//! identically, and an equivalence suite holds them within 1e-9 relative
//! error.
//!
//! Each recording builds its few small buffers (the shaped chirps, two
//! delay-line spectra, one accumulator, the per-chirp parameters) as
//! locals; only the FFT plans outlive it, process-wide
//! ([`RealFftPlan::shared`], `FftPlan::shared`). Carrying the buffers from
//! one recording to the next saved under 2% of synthesis time, because
//! the noise below is most of it.
//!
//! # Noise
//!
//! The dense microphone/ambient noise fills take polar-method Gaussian
//! pairs from [`SimRng::gaussian_pairs`], two deviates per accepted
//! candidate, drawn in blocks. They are 73–97% of a recording's synthesis
//! time, and their floor is the one `ln` per pair (see [`crate::rng`]).

use crate::device::EarphoneModel;
use crate::ear::EarCanal;
use crate::motion::Motion;
use crate::noise;
use crate::rng::SimRng;
use crate::wearing::WearingAngle;
use earsonar_acoustics::absorption::EardrumResponse;
use earsonar_acoustics::chirp::FmcwChirp;
use earsonar_acoustics::constants::EARSONAR_CHIRP_INTERVAL;
use earsonar_acoustics::propagation::{
    apply_frequency_response, delay_fractional_allpass_with, round_trip_delay_samples,
    SpectralDelayLine,
};
use earsonar_dsp::complex::Complex64;
use earsonar_dsp::fft::next_pow2;
use earsonar_dsp::plan::{DspScratch, RealFftPlan};

/// Everything configurable about one recording.
#[derive(Debug, Clone, PartialEq)]
pub struct RecorderConfig {
    /// The probe chirp.
    pub chirp: FmcwChirp,
    /// Start-to-start chirp spacing in seconds (paper: 5 ms).
    pub chirp_interval_s: f64,
    /// Number of chirps in the recording.
    pub n_chirps: usize,
    /// The earphone hardware in use.
    pub device: EarphoneModel,
    /// Ambient noise level in dB SPL.
    pub noise_db_spl: f64,
    /// Body-motion condition.
    pub motion: Motion,
    /// Earphone wearing angle.
    pub angle: WearingAngle,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            chirp: FmcwChirp::earsonar(),
            chirp_interval_s: EARSONAR_CHIRP_INTERVAL,
            n_chirps: 24,
            device: EarphoneModel::default(),
            noise_db_spl: 30.0,
            motion: Motion::Sit,
            angle: WearingAngle::standard(),
        }
    }
}

pub use earsonar_signal::recording::Recording;

/// Offset (in samples) of the direct speaker→microphone leak. Non-zero so
/// the matched-filter peak of the direct path is an interior maximum.
const DIRECT_DELAY_SAMPLES: f64 = 1.0;

/// Pre-sampled synthesis parameters for one chirp window.
///
/// The recorder draws every random quantity up front, in the exact order
/// the time-domain reference implementation consumes the RNG, then renders
/// all chirps from these frozen parameters — keeping the spectral and
/// time-domain paths bit-identical in their random streams.
struct ChirpParams {
    /// Canal-wall paths as (delay in samples, amplitude gain).
    wall: Vec<(f64, f64)>,
    /// Eardrum-echo delay in samples (jitter applied, clamped to ≥ 0).
    eardrum_delay: f64,
    /// Eardrum-echo amplitude gain (motion gain jitter applied).
    eardrum_gain: f64,
    /// Additive motion-transient samples for the start of the window
    /// (empty when no transient fired).
    transient: Vec<f64>,
}

/// Shapes the transmitted chirp `tx` by the earphone's frequency
/// response, with tail room for filter ringing, then further filters it
/// by the eardrum reflectance spectrum to get the echo waveform. Both are
/// computed once per recording — the eardrum state is static within a
/// session.
fn shape_chirp(
    tx: &[f64],
    config: &RecorderConfig,
    response: &EardrumResponse,
) -> (Vec<f64>, Vec<f64>) {
    let fs = config.chirp.sample_rate;
    let mut padded = tx.to_vec();
    padded.resize(tx.len() + tx.len().max(16), 0.0);
    let tx_shaped = apply_frequency_response(&padded, fs, |f| config.device.response_gain(f))
        .expect("internally chosen power-of-two FFT sizes are always valid");
    let echo_shaped = apply_frequency_response(&tx_shaped, fs, |f| response.reflectance_at(f))
        .expect("internally chosen power-of-two FFT sizes are always valid");
    (tx_shaped, echo_shaped)
}

/// Synthesizes one recording of `ear` with the eardrum in the state
/// described by `response` — the spectral-domain hot path.
///
/// All stochastic elements (coupling, motion jitter, noise) come from
/// `rng`, so a fixed seed reproduces the capture exactly. The random
/// stream consumed is identical to [`synthesize_recording_time_domain`]'s:
/// all stochastic parameters are sampled up front in the reference's
/// order, then rendered spectrally.
pub fn synthesize_recording(
    ear: &EarCanal,
    response: &EardrumResponse,
    config: &RecorderConfig,
    rng: &mut SimRng,
) -> Recording {
    let fs = config.chirp.sample_rate;
    let tx = config.chirp.samples();
    let chirp_len = tx.len();
    let hop = config.chirp.hop_samples(config.chirp_interval_s);

    let (tx_shaped, echo_shaped) = shape_chirp(&tx, config, response);
    let device = config.device;

    // Session-level factors.
    let coupling = rng.jitter(1.0 - device.coupling_quality());
    let distance_offset = config.angle.sample_distance_offset(rng);
    let eardrum_distance = (ear.eardrum_distance_m + distance_offset).clamp(0.015, 0.045);
    let eardrum_delay = round_trip_delay_samples(eardrum_distance, fs) + DIRECT_DELAY_SAMPLES;
    let eardrum_gain = ear.eardrum_path_gain * config.angle.eardrum_gain_factor() * coupling;
    let dgain = ear.direct_gain * coupling;

    // Sample every per-chirp stochastic parameter up front, in exactly the
    // order the time-domain reference consumes the RNG, and track the
    // largest delay so one transform size covers every path.
    let t_len = hop.min(60);
    let mut max_delay = DIRECT_DELAY_SAMPLES;
    let mut chirps = Vec::with_capacity(config.n_chirps);
    for _ in 0..config.n_chirps {
        let (delay_jit, gain_jit, transient) = config.motion.sample_disturbance(rng);
        let extra_jit = rng.gaussian(0.0, config.angle.extra_delay_jitter());
        let mut wall = Vec::with_capacity(ear.wall_paths.len());
        for &(dist, gain) in &ear.wall_paths {
            let delay = (round_trip_delay_samples(dist, fs)
                + DIRECT_DELAY_SAMPLES
                + rng.gaussian(0.0, 0.08))
            .max(0.0);
            let g = gain * config.angle.wall_gain_factor() * coupling * rng.jitter(0.04);
            wall.push((delay, g));
            max_delay = max_delay.max(delay);
        }
        let cp = ChirpParams {
            wall,
            eardrum_delay: (eardrum_delay + delay_jit + extra_jit).max(0.0),
            eardrum_gain: eardrum_gain * gain_jit,
            transient: if transient > 0.0 {
                (0..t_len)
                    .map(|i| {
                        let env = (-((i as f64 - 20.0) / 10.0).powi(2)).exp();
                        transient * env * rng.standard_gaussian()
                    })
                    .collect()
            } else {
                Vec::new()
            },
        };
        max_delay = max_delay.max(cp.eardrum_delay);
        chirps.push(cp);
    }

    // One forward transform per source waveform, at a size covering the
    // longest delayed copy (the same size the per-path reference delays pick
    // for the default geometry).
    let n = next_pow2(tx_shaped.len() + max_delay.ceil() as usize + 1);
    let plan = RealFftPlan::shared(n).expect("next_pow2 sizes are always valid");
    let (mut tx_line, mut echo_line) = (SpectralDelayLine::new(), SpectralDelayLine::new());
    let mut work = Vec::new();
    tx_line
        .load(&tx_shaped, plan, &mut work)
        .expect("transform size covers the shaped chirp");
    echo_line
        .load(&echo_shaped, plan, &mut work)
        .expect("transform size covers the echo waveform");

    let mut samples = vec![0.0; hop * config.n_chirps];
    let half = n / 2;
    let mut acc = vec![Complex64::ZERO; n];
    let mut time = Vec::new();
    for (c, cp) in chirps.iter().enumerate() {
        // Only the lower half of the accumulator is ever read by the real
        // inverse transform, so only the lower half needs clearing.
        acc[..=half].fill(Complex64::ZERO);
        // Direct leak, canal-wall multipath, eardrum echo: each path is one
        // phase-ramp accumulation, no FFT.
        tx_line.accumulate_into(&mut acc, DIRECT_DELAY_SAMPLES, dgain);
        for &(delay, g) in &cp.wall {
            tx_line.accumulate_into(&mut acc, delay, g);
        }
        echo_line.accumulate_into(&mut acc, cp.eardrum_delay, cp.eardrum_gain);
        plan.inverse_into(&acc, &mut work, &mut time)
            .expect("accumulator length matches the plan");

        let segment = &mut samples[c * hop..(c + 1) * hop];
        for (s, t) in segment.iter_mut().zip(&time) {
            *s = *t;
        }
        // Motion transient: a short broadband thud early in the window.
        for (s, t) in segment.iter_mut().zip(&cp.transient) {
            *s += *t;
        }
    }

    // Microphone self-noise and ambient noise through the earbud seal,
    // streamed in place.
    rng.add_white_noise(&mut samples, device.mic_noise_rms());
    noise::add_ambient_noise(
        &mut samples,
        config.noise_db_spl,
        device.noise_isolation(),
        rng,
    );

    Recording {
        samples,
        sample_rate: fs,
        chirp_hop: hop,
        n_chirps: config.n_chirps,
        chirp_len,
    }
}

/// The time-domain reference synthesis: one allpass delay
/// ([`delay_fractional_allpass_with`]) per path per chirp, summed in the
/// time domain, with the current (polar-method) noise generators.
///
/// Kept as the reference implementation for the spectral path's
/// equivalence suite: it consumes the RNG identically to
/// [`synthesize_recording`], so the two agree within 1e-9.
pub fn synthesize_recording_time_domain(
    ear: &EarCanal,
    response: &EardrumResponse,
    config: &RecorderConfig,
    rng: &mut SimRng,
) -> Recording {
    let fs = config.chirp.sample_rate;
    let tx = config.chirp.samples();
    let chirp_len = tx.len();
    let hop = config.chirp.hop_samples(config.chirp_interval_s);

    let (tx_shaped, echo_shaped) = shape_chirp(&tx, config, response);
    let device = config.device;

    let coupling = rng.jitter(1.0 - device.coupling_quality());
    let distance_offset = config.angle.sample_distance_offset(rng);
    let eardrum_distance = (ear.eardrum_distance_m + distance_offset).clamp(0.015, 0.045);
    let eardrum_delay = round_trip_delay_samples(eardrum_distance, fs) + DIRECT_DELAY_SAMPLES;
    let eardrum_gain = ear.eardrum_path_gain * config.angle.eardrum_gain_factor() * coupling;

    let total_len = hop * config.n_chirps;
    let mut samples = vec![0.0; total_len];
    let seg_len = hop;
    let mut dsp = DspScratch::new();
    let mut delay_allpass = |x: &[f64], delay: f64, out: &mut Vec<f64>| {
        delay_fractional_allpass_with(x, delay, seg_len, &mut dsp, out)
            .expect("internally chosen power-of-two FFT sizes are always valid");
    };
    let (mut direct, mut wall, mut echo) = (Vec::new(), Vec::new(), Vec::new());
    for c in 0..config.n_chirps {
        let (delay_jit, gain_jit, transient) = config.motion.sample_disturbance(rng);
        let extra_jit = rng.gaussian(0.0, config.angle.extra_delay_jitter());
        let mut segment = vec![0.0; seg_len];

        // Direct leak.
        delay_allpass(&tx_shaped, DIRECT_DELAY_SAMPLES, &mut direct);
        let dgain = ear.direct_gain * coupling;
        for (s, d) in segment.iter_mut().zip(&direct) {
            *s += dgain * d;
        }

        // Canal-wall multipath.
        for &(dist, gain) in &ear.wall_paths {
            let delay =
                round_trip_delay_samples(dist, fs) + DIRECT_DELAY_SAMPLES + rng.gaussian(0.0, 0.08);
            delay_allpass(&tx_shaped, delay.max(0.0), &mut wall);
            let g = gain * config.angle.wall_gain_factor() * coupling * rng.jitter(0.04);
            for (s, w) in segment.iter_mut().zip(&wall) {
                *s += g * w;
            }
        }

        // Eardrum echo.
        let delay = (eardrum_delay + delay_jit + extra_jit).max(0.0);
        delay_allpass(&echo_shaped, delay, &mut echo);
        let g = eardrum_gain * gain_jit;
        for (s, e) in segment.iter_mut().zip(&echo) {
            *s += g * e;
        }

        // Motion transient: a short broadband thud early in the window.
        if transient > 0.0 {
            let t_len = seg_len.min(60);
            for (i, s) in segment.iter_mut().take(t_len).enumerate() {
                let env = (-((i as f64 - 20.0) / 10.0).powi(2)).exp();
                *s += transient * env * rng.standard_gaussian();
            }
        }

        let start = c * hop;
        samples[start..start + seg_len].copy_from_slice(&segment);
    }

    rng.add_white_noise(&mut samples, device.mic_noise_rms());
    noise::add_ambient_noise(
        &mut samples,
        config.noise_db_spl,
        device.noise_isolation(),
        rng,
    );

    Recording {
        samples,
        sample_rate: fs,
        chirp_hop: hop,
        n_chirps: config.n_chirps,
        chirp_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effusion::{MeeAcoustics, MeeState};

    fn test_ear(seed: u64) -> EarCanal {
        let mut rng = SimRng::seed_from_u64(seed);
        EarCanal::sample_child(&mut rng)
    }

    #[test]
    fn recording_layout_matches_config() {
        let ear = test_ear(1);
        let mut rng = SimRng::seed_from_u64(2);
        let resp = EardrumResponse::clear();
        let cfg = RecorderConfig::default();
        let rec = synthesize_recording(&ear, &resp, &cfg, &mut rng);
        assert_eq!(rec.chirp_hop, 240);
        assert_eq!(rec.n_chirps, 24);
        assert_eq!(rec.samples.len(), 240 * 24);
        assert_eq!(rec.chirp_len, 24);
        assert!((rec.duration_s() - 0.12).abs() < 1e-9);
    }

    #[test]
    fn chirp_windows_tile_the_recording() {
        let ear = test_ear(1);
        let mut rng = SimRng::seed_from_u64(2);
        let cfg = RecorderConfig {
            n_chirps: 5,
            ..Default::default()
        };
        let rec = synthesize_recording(&ear, &EardrumResponse::clear(), &cfg, &mut rng);
        let total: usize = (0..5).map(|i| rec.chirp_window(i).len()).sum();
        assert_eq!(total, rec.samples.len());
    }

    #[test]
    fn synthesis_is_deterministic() {
        let ear = test_ear(3);
        let cfg = RecorderConfig::default();
        let mut a = SimRng::seed_from_u64(9);
        let mut b = SimRng::seed_from_u64(9);
        let ra = synthesize_recording(&ear, &EardrumResponse::clear(), &cfg, &mut a);
        let rb = synthesize_recording(&ear, &EardrumResponse::clear(), &cfg, &mut b);
        assert_eq!(ra, rb);
    }

    #[test]
    fn spectral_matches_time_domain_reference() {
        // The tentpole equivalence: spectral accumulation with one inverse
        // FFT per chirp vs. the per-path time-domain reference, same seeds.
        let resp = EardrumResponse::clear();
        for (seed, motion) in [
            (2u64, Motion::Sit),
            (9, Motion::Walking),
            (21, Motion::Nodding),
        ] {
            let ear = test_ear(seed);
            let cfg = RecorderConfig {
                motion,
                ..Default::default()
            };
            let mut a = SimRng::seed_from_u64(seed + 100);
            let mut b = SimRng::seed_from_u64(seed + 100);
            let spectral = synthesize_recording(&ear, &resp, &cfg, &mut a);
            let reference = synthesize_recording_time_domain(&ear, &resp, &cfg, &mut b);
            let peak = reference.samples.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            assert!(peak > 0.0);
            for (i, (x, y)) in spectral.samples.iter().zip(&reference.samples).enumerate() {
                assert!(
                    (x - y).abs() <= 1e-9 * peak,
                    "seed {seed} sample {i}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn signal_energy_sits_in_probe_band() {
        let ear = test_ear(4);
        let mut rng = SimRng::seed_from_u64(5);
        let rec = synthesize_recording(
            &ear,
            &EardrumResponse::clear(),
            &RecorderConfig::default(),
            &mut rng,
        );
        let psd = earsonar_dsp::psd::periodogram(
            &rec.samples,
            rec.sample_rate,
            earsonar_dsp::window::Window::Hann,
        )
        .unwrap();
        let in_band = psd.band_power(15_500.0, 20_500.0);
        let low_band = psd.band_power(500.0, 12_000.0);
        assert!(in_band > 10.0 * low_band, "in {in_band} low {low_band}");
    }

    #[test]
    fn effusion_attenuates_dip_frequency_energy() {
        // The core sensing effect, end to end: purulent ears return less
        // 18 kHz energy than clear ears. Isolate the eardrum path with a
        // canal that has no direct leak and no wall reflections.
        let ear = EarCanal {
            eardrum_distance_m: 0.026,
            radius_m: 0.003,
            eardrum_path_gain: 0.45,
            wall_paths: Vec::new(),
            direct_gain: 0.0,
        };
        let cfg = RecorderConfig {
            noise_db_spl: 10.0,
            ..Default::default()
        };
        let mut energies = Vec::new();
        for state in [MeeState::Clear, MeeState::Purulent] {
            let mut rng = SimRng::seed_from_u64(7);
            let resp = state.sample_response(18_000.0, &mut rng);
            let mut rng_a = SimRng::seed_from_u64(8);
            let rec = synthesize_recording(&ear, &resp, &cfg, &mut rng_a);
            let e =
                earsonar_dsp::goertzel::goertzel_magnitude(&rec.samples, 18_000.0, rec.sample_rate)
                    .unwrap();
            energies.push(e);
        }
        assert!(
            energies[1] < 0.8 * energies[0],
            "clear {} vs purulent {}",
            energies[0],
            energies[1]
        );
    }

    #[test]
    fn louder_rooms_raise_out_of_band_noise() {
        let ear = test_ear(10);
        let mk = |db: f64| {
            let mut rng = SimRng::seed_from_u64(11);
            let cfg = RecorderConfig {
                noise_db_spl: db,
                ..Default::default()
            };
            let rec = synthesize_recording(&ear, &EardrumResponse::clear(), &cfg, &mut rng);
            let psd = earsonar_dsp::psd::periodogram(
                &rec.samples,
                rec.sample_rate,
                earsonar_dsp::window::Window::Hann,
            )
            .unwrap();
            psd.band_power(100.0, 8_000.0)
        };
        // The chirp's spectral sidelobes put a floor under the low band,
        // so the contrast is large but not the full 30 dB of SPL delta.
        assert!(mk(70.0) > 3.0 * mk(55.0));
        assert!(mk(55.0) > mk(40.0));
    }

    #[test]
    fn angle_weakens_eardrum_echo() {
        let ear = test_ear(12);
        let mut resp_rng = SimRng::seed_from_u64(13);
        let resp = MeeState::Clear.sample_response(18_000.0, &mut resp_rng);
        let energy_at = |deg: f64| {
            let cfg = RecorderConfig {
                angle: WearingAngle::new(deg),
                noise_db_spl: 20.0,
                ..Default::default()
            };
            let mut rng = SimRng::seed_from_u64(14);
            let rec = synthesize_recording(&ear, &resp, &cfg, &mut rng);
            rec.samples.iter().map(|v| v * v).sum::<f64>()
        };
        // Off-angle recordings shift energy between paths; total changes.
        let e0 = energy_at(0.0);
        let e40 = energy_at(40.0);
        assert!(e0.is_finite() && e40.is_finite());
        assert_ne!(e0, e40);
    }

    #[test]
    #[should_panic(expected = "chirp index out of range")]
    fn chirp_window_bounds_are_checked() {
        let ear = test_ear(1);
        let mut rng = SimRng::seed_from_u64(2);
        let rec = synthesize_recording(
            &ear,
            &EardrumResponse::clear(),
            &RecorderConfig::default(),
            &mut rng,
        );
        let _ = rec.chirp_window(rec.n_chirps);
    }
}
