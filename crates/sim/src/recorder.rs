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
//! The hot path ([`synthesize_recording_with`]) works in the frequency
//! domain: the device-shaped chirp and the echo-shaped chirp are each
//! transformed **once** per recording (into a
//! [`SpectralDelayLine`](earsonar_acoustics::propagation::SpectralDelayLine)),
//! every propagation path of every chirp window becomes a per-bin phase
//! ramp × gain accumulated into a shared spectrum, and **one** inverse FFT
//! per chirp recovers the superposed waveform. Because the inverse
//! transform is linear this equals summing per-path allpass delays in the
//! time domain at the same transform size exactly — it is a
//! re-association of the same computation, not an approximation. The same
//! algorithm executed in the time domain is kept as
//! [`synthesize_recording_time_domain`]; both consume the RNG identically,
//! and an equivalence suite holds them within 1e-9 relative error.
//!
//! The dense microphone/ambient noise fills draw polar-method Gaussian
//! pairs ([`SimRng::gaussian_pair`]), two deviates per draw.

use crate::device::EarphoneModel;
use crate::ear::EarCanal;
use crate::motion::Motion;
use crate::noise;
use crate::rng::SimRng;
use crate::scratch::{ChirpParams, SimScratch};
use crate::wearing::WearingAngle;
use earsonar_acoustics::absorption::EardrumResponse;
use earsonar_acoustics::chirp::FmcwChirp;
use earsonar_acoustics::constants::EARSONAR_CHIRP_INTERVAL;
use earsonar_acoustics::propagation::{
    apply_frequency_response, apply_frequency_response_with, delay_fractional_allpass,
    round_trip_delay_samples,
};
use earsonar_dsp::complex::Complex64;
use earsonar_dsp::fft::next_pow2;

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

/// Synthesizes one recording of `ear` with the eardrum in the state
/// described by `response`.
///
/// All stochastic elements (coupling, motion jitter, noise) come from
/// `rng`, so a fixed seed reproduces the capture exactly.
///
/// One-shot wrapper over [`synthesize_recording_with`]; repeated callers
/// (sessions, cohorts, benchmarks) should hold a [`SimScratch`] and use the
/// planned variant directly.
pub fn synthesize_recording(
    ear: &EarCanal,
    response: &EardrumResponse,
    config: &RecorderConfig,
    rng: &mut SimRng,
) -> Recording {
    let mut scratch = SimScratch::new();
    synthesize_recording_with(ear, response, config, rng, &mut scratch)
}

/// [`synthesize_recording`] with plans and buffers drawn from a
/// caller-owned [`SimScratch`] — the spectral-domain hot path.
///
/// With a warm scratch the only allocation per call is the returned
/// `Recording`'s sample buffer. The random stream consumed is identical to
/// [`synthesize_recording_time_domain`]'s: all stochastic parameters are
/// sampled up front in the legacy order, then rendered spectrally.
pub fn synthesize_recording_with(
    ear: &EarCanal,
    response: &EardrumResponse,
    config: &RecorderConfig,
    rng: &mut SimRng,
    scratch: &mut SimScratch,
) -> Recording {
    let fs = config.chirp.sample_rate;
    let tx = config.chirp.samples();
    let chirp_len = tx.len();
    let hop = config.chirp.hop_samples(config.chirp_interval_s);

    // Shape the transmitted chirp by the earphone's frequency response,
    // with tail room for filter ringing; then further filter by the eardrum
    // reflectance spectrum to get the echo waveform. Both are computed once
    // per recording — the eardrum state is static within a session.
    let device = config.device;
    scratch.padded.clear();
    scratch.padded.extend_from_slice(&tx);
    scratch
        .padded
        .extend(std::iter::repeat_n(0.0, chirp_len.max(16)));
    apply_frequency_response_with(
        &scratch.padded,
        fs,
        |f| device.response_gain(f),
        &mut scratch.dsp,
        &mut scratch.tx_shaped,
    )
    .expect("internally chosen power-of-two FFT sizes are always valid");
    apply_frequency_response_with(
        &scratch.tx_shaped,
        fs,
        |f| response.reflectance_at(f),
        &mut scratch.dsp,
        &mut scratch.echo_shaped,
    )
    .expect("internally chosen power-of-two FFT sizes are always valid");

    // Session-level factors.
    let coupling = rng.jitter(1.0 - device.coupling_quality());
    let distance_offset = config.angle.sample_distance_offset(rng);
    let eardrum_distance = (ear.eardrum_distance_m + distance_offset).clamp(0.015, 0.045);
    let eardrum_delay =
        round_trip_delay_samples(eardrum_distance, fs) + DIRECT_DELAY_SAMPLES;
    let eardrum_gain = ear.eardrum_path_gain * config.angle.eardrum_gain_factor() * coupling;
    let dgain = ear.direct_gain * coupling;

    // Sample every per-chirp stochastic parameter up front, in exactly the
    // order the time-domain reference consumes the RNG, and track the
    // largest delay so one transform size covers every path.
    let seg_len = hop;
    let t_len = seg_len.min(60);
    let mut max_delay = DIRECT_DELAY_SAMPLES;
    scratch.chirps.resize_with(config.n_chirps, ChirpParams::default);
    for cp in scratch.chirps.iter_mut().take(config.n_chirps) {
        cp.wall.clear();
        cp.transient.clear();
        let (delay_jit, gain_jit, transient) = config.motion.sample_disturbance(rng);
        let extra_jit = rng.gaussian(0.0, config.angle.extra_delay_jitter());
        for &(dist, gain) in &ear.wall_paths {
            let delay = (round_trip_delay_samples(dist, fs)
                + DIRECT_DELAY_SAMPLES
                + rng.gaussian(0.0, 0.08))
            .max(0.0);
            let g = gain * config.angle.wall_gain_factor() * coupling * rng.jitter(0.04);
            cp.wall.push((delay, g));
            max_delay = max_delay.max(delay);
        }
        cp.eardrum_delay = (eardrum_delay + delay_jit + extra_jit).max(0.0);
        cp.eardrum_gain = eardrum_gain * gain_jit;
        max_delay = max_delay.max(cp.eardrum_delay);
        if transient > 0.0 {
            for i in 0..t_len {
                let env = (-((i as f64 - 20.0) / 10.0).powi(2)).exp();
                cp.transient.push(transient * env * rng.standard_gaussian());
            }
        }
    }

    // One forward transform per source waveform, at a size covering the
    // longest delayed copy (the same size the per-path one-shot calls pick
    // for the default geometry).
    let n = next_pow2(scratch.tx_shaped.len() + max_delay.ceil() as usize + 1);
    let plan = scratch
        .dsp
        .real_plan(n)
        .expect("next_pow2 sizes are always valid");
    let mut work = scratch.dsp.take_complex();
    scratch
        .tx_line
        .load(&scratch.tx_shaped, &plan, &mut work)
        .expect("transform size covers the shaped chirp");
    scratch
        .echo_line
        .load(&scratch.echo_shaped, &plan, &mut work)
        .expect("transform size covers the echo waveform");

    let total_len = hop * config.n_chirps;
    let mut samples = vec![0.0; total_len];
    let half = n / 2;
    scratch.acc.resize(n, Complex64::ZERO);
    for (c, cp) in scratch.chirps.iter().take(config.n_chirps).enumerate() {
        // Only the lower half of the accumulator is ever read by the real
        // inverse transform, so only the lower half needs clearing.
        for z in &mut scratch.acc[..=half] {
            *z = Complex64::ZERO;
        }
        // Direct leak, canal-wall multipath, eardrum echo: each path is one
        // phase-ramp accumulation, no FFT.
        scratch
            .tx_line
            .accumulate_into(&mut scratch.acc, DIRECT_DELAY_SAMPLES, dgain);
        for &(delay, g) in &cp.wall {
            scratch.tx_line.accumulate_into(&mut scratch.acc, delay, g);
        }
        scratch
            .echo_line
            .accumulate_into(&mut scratch.acc, cp.eardrum_delay, cp.eardrum_gain);
        plan.inverse_into(&scratch.acc, &mut work, &mut scratch.time)
            .expect("accumulator length matches the plan");

        let start = c * hop;
        let segment = &mut samples[start..start + seg_len];
        for (s, t) in segment.iter_mut().zip(scratch.time.iter()) {
            *s = *t;
        }
        // Motion transient: a short broadband thud early in the window.
        for (s, t) in segment.iter_mut().zip(cp.transient.iter()) {
            *s += *t;
        }
    }
    scratch.dsp.put_complex(work);

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

/// The time-domain reference synthesis: one one-shot allpass delay (FFT
/// pair) per path per chirp, summed in the time domain, with the current
/// (polar-method) noise generators.
///
/// Kept as the reference implementation for the spectral path's
/// equivalence suite: it consumes the RNG identically to
/// [`synthesize_recording_with`], so the two agree within 1e-9.
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

    let mut padded = tx.clone();
    padded.extend(std::iter::repeat_n(0.0, chirp_len.max(16)));
    let device = config.device;
    let tx_shaped = apply_frequency_response(&padded, fs, |f| device.response_gain(f));
    let echo_shaped = apply_frequency_response(&tx_shaped, fs, |f| response.reflectance_at(f));

    let coupling = rng.jitter(1.0 - device.coupling_quality());
    let distance_offset = config.angle.sample_distance_offset(rng);
    let eardrum_distance = (ear.eardrum_distance_m + distance_offset).clamp(0.015, 0.045);
    let eardrum_delay = round_trip_delay_samples(eardrum_distance, fs) + DIRECT_DELAY_SAMPLES;
    let eardrum_gain = ear.eardrum_path_gain * config.angle.eardrum_gain_factor() * coupling;

    let total_len = hop * config.n_chirps;
    let mut samples = vec![0.0; total_len];
    let seg_len = hop;
    for c in 0..config.n_chirps {
        let (delay_jit, gain_jit, transient) = config.motion.sample_disturbance(rng);
        let extra_jit = rng.gaussian(0.0, config.angle.extra_delay_jitter());
        let mut segment = vec![0.0; seg_len];

        // Direct leak.
        let direct = delay_fractional_allpass(&tx_shaped, DIRECT_DELAY_SAMPLES, seg_len);
        let dgain = ear.direct_gain * coupling;
        for (s, d) in segment.iter_mut().zip(&direct) {
            *s += dgain * d;
        }

        // Canal-wall multipath.
        for &(dist, gain) in &ear.wall_paths {
            let delay =
                round_trip_delay_samples(dist, fs) + DIRECT_DELAY_SAMPLES + rng.gaussian(0.0, 0.08);
            let wall = delay_fractional_allpass(&tx_shaped, delay.max(0.0), seg_len);
            let g = gain * config.angle.wall_gain_factor() * coupling * rng.jitter(0.04);
            for (s, w) in segment.iter_mut().zip(&wall) {
                *s += g * w;
            }
        }

        // Eardrum echo.
        let delay = (eardrum_delay + delay_jit + extra_jit).max(0.0);
        let echo = delay_fractional_allpass(&echo_shaped, delay, seg_len);
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

/// FFT executions (forward + inverse, any size) per recording on the
/// spectral path: two shaping filters (one pair each), one forward load
/// per source waveform, and one inverse per chirp.
pub fn spectral_ffts_per_recording(config: &RecorderConfig, _ear: &EarCanal) -> usize {
    2 * 2 + 2 + config.n_chirps
}

/// FFT executions per recording on the time-domain reference path: two
/// shaping filters plus one FFT **pair** per path (direct + walls +
/// eardrum) per chirp.
pub fn time_domain_ffts_per_recording(config: &RecorderConfig, ear: &EarCanal) -> usize {
    2 * 2 + config.n_chirps * (2 + ear.wall_paths.len()) * 2
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
    fn scratch_reuse_is_bit_identical() {
        // A warm scratch carried across recordings (different ears, motion
        // states, eardrum responses) must not leak state between calls.
        let cfg_walk = RecorderConfig {
            motion: Motion::Walking,
            ..Default::default()
        };
        let cfg_sit = RecorderConfig::default();
        let mut warm = SimScratch::new();
        let mut rng_warm = SimRng::seed_from_u64(31);
        let mut rng_cold = SimRng::seed_from_u64(31);
        for (seed, cfg) in [(5u64, &cfg_walk), (6, &cfg_sit), (5, &cfg_walk)] {
            let ear = test_ear(seed);
            let resp = EardrumResponse::clear();
            let a = synthesize_recording_with(&ear, &resp, cfg, &mut rng_warm, &mut warm);
            let b = synthesize_recording(&ear, &resp, cfg, &mut rng_cold);
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn spectral_matches_time_domain_reference() {
        // The tentpole equivalence: spectral accumulation with one inverse
        // FFT per chirp vs. the per-path one-shot reference, same seeds.
        let resp = EardrumResponse::clear();
        let mut scratch = SimScratch::new();
        for (seed, motion) in [(2u64, Motion::Sit), (9, Motion::Walking), (21, Motion::Nodding)] {
            let ear = test_ear(seed);
            let cfg = RecorderConfig {
                motion,
                ..Default::default()
            };
            let mut a = SimRng::seed_from_u64(seed + 100);
            let mut b = SimRng::seed_from_u64(seed + 100);
            let spectral = synthesize_recording_with(&ear, &resp, &cfg, &mut a, &mut scratch);
            let reference = synthesize_recording_time_domain(&ear, &resp, &cfg, &mut b);
            let peak = reference
                .samples
                .iter()
                .fold(0.0f64, |m, v| m.max(v.abs()));
            assert!(peak > 0.0);
            for (i, (x, y)) in spectral
                .samples
                .iter()
                .zip(&reference.samples)
                .enumerate()
            {
                assert!(
                    (x - y).abs() <= 1e-9 * peak,
                    "seed {seed} sample {i}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn fft_counts_favor_spectral_path() {
        let ear = test_ear(1);
        let cfg = RecorderConfig::default();
        let spectral = spectral_ffts_per_recording(&cfg, &ear);
        let time_domain = time_domain_ffts_per_recording(&cfg, &ear);
        assert_eq!(spectral, 6 + cfg.n_chirps);
        assert_eq!(time_domain, 4 + cfg.n_chirps * (2 + ear.wall_paths.len()) * 2);
        assert!(time_domain > 3 * spectral, "{time_domain} vs {spectral}");
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
            let e = earsonar_dsp::goertzel::goertzel_magnitude(
                &rec.samples,
                18_000.0,
                rec.sample_rate,
            )
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
