//! Acoustic-absorption analysis (paper §IV-C-1).
//!
//! With the eardrum-echo centre located, the paper extracts a uniform FFT
//! window around it: "we take the peak sampling point of the eardrum as the
//! centre and collect N sampling points on both sides of the fixed window",
//! then computes the power spectral density, whose 16–20 kHz profile
//! carries the absorption signature.

use crate::config::EarSonarConfig;
use crate::error::EarSonarError;
use crate::segment::EardrumEcho;
use earsonar_dsp::fft::next_pow2;
use earsonar_dsp::interp::resample_uniform;
use earsonar_dsp::plan::{split_frames, DspScratch, FftPlan, LaneFrame};
use earsonar_dsp::Complex64;

/// The `n_fft`-point (power-of-two rounded) spectrum of `x`, truncated or
/// zero-padded to fit.
pub(crate) fn padded_spectrum(x: &[f64], n_fft: usize) -> Result<Vec<Complex64>, EarSonarError> {
    let mut spec = Vec::new();
    FftPlan::shared(next_pow2(n_fft))?.forward_from_real(x, &mut spec);
    Ok(spec)
}

/// The absorption signature of one (or an average of many) eardrum echoes.
#[derive(Debug, Clone, PartialEq)]
pub struct EchoSpectrum {
    /// Normalized in-band power profile, `psd_profile_bins` values across
    /// `[band_low_hz, band_high_hz]`.
    pub profile: Vec<f64>,
    /// Frequency of each profile bin in hertz.
    pub frequencies: Vec<f64>,
    /// The raw (unnormalized) in-band power the profile was derived from.
    pub band_power: f64,
    /// The raw windowed echo samples the spectrum came from (for MFCC
    /// extraction downstream).
    pub echo_window: Vec<f64>,
}

impl EchoSpectrum {
    /// Frequency (Hz) of the deepest profile bin — the acoustic dip.
    pub fn dip_frequency(&self) -> Option<f64> {
        earsonar_dsp::stats::argmin(&self.profile).map(|i| self.frequencies[i])
    }

    /// Depth of the dip relative to the profile maximum, in `[0, 1]`.
    pub fn dip_depth(&self) -> f64 {
        let max = self.profile.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = self.profile.iter().copied().fold(f64::INFINITY, f64::min);
        if max <= 0.0 || !max.is_finite() {
            0.0
        } else {
            ((max - min) / max).clamp(0.0, 1.0)
        }
    }
}

/// A per-FFT-bin reference power spectrum used to deconvolve the transmit
/// chirp's own spectral shape out of echo spectra. Built once per pipeline
/// by [`reference_spectrum`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceSpectrum {
    power: Vec<f64>,
    n_fft: usize,
}

/// Computes the reference power spectrum of the (preprocessed) transmit
/// chirp template on the pipeline's FFT grid. Dividing echo spectra by it
/// flattens the chirp's spectral hump, turning profile bins into direct
/// estimates of the eardrum reflectance — the quantity the absorption
/// model actually varies.
///
/// # Errors
///
/// Propagates FFT plan errors for an `n_fft` too large to plan.
pub fn reference_spectrum(
    template: &[f64],
    config: &EarSonarConfig,
) -> Result<ReferenceSpectrum, EarSonarError> {
    let spec = padded_spectrum(template, config.n_fft)?;
    let n_fft = spec.len();
    let power: Vec<f64> = spec.iter().map(|z| z.norm_sqr() / n_fft as f64).collect();
    Ok(ReferenceSpectrum { power, n_fft })
}

/// Extracts the echo power-spectrum profile from one chirp window given the
/// segmented echo position.
///
/// `calibration` is an amplitude reference the profile is divided by —
/// the pipeline passes the fitted direct-path gain, which cancels
/// session-to-session coupling variation (both the direct leak and the
/// eardrum echo scale with how well the earbud seats). Pass `1.0` for an
/// uncalibrated spectrum. `reference`, when given, deconvolves the transmit
/// chirp's spectral shape (see [`reference_spectrum`]).
///
/// # Errors
///
/// Returns [`EarSonarError::BadRecording`] if the chirp window is empty,
/// the calibration is not positive, or the reference FFT grid mismatches.
pub fn echo_spectrum(
    chirp_window: &[f64],
    echo: &EardrumEcho,
    calibration: f64,
    reference: Option<&ReferenceSpectrum>,
    config: &EarSonarConfig,
) -> Result<EchoSpectrum, EarSonarError> {
    if !(calibration > 0.0) {
        return Err(EarSonarError::BadRecording {
            reason: "calibration gain must be positive",
        });
    }
    if chirp_window.is_empty() {
        return Err(EarSonarError::BadRecording {
            reason: "empty chirp window",
        });
    }
    let n = chirp_window.len();
    let half = config.echo_window_half;
    let center = echo.center.min(n - 1) as isize;
    // Keep the echo at the taper's peak: out-of-range samples are zero.
    let mut windowed: Vec<f64> = (-(half as isize)..half as isize)
        .map(|off| {
            let idx = center + off;
            if idx >= 0 && (idx as usize) < n {
                chirp_window[idx as usize]
            } else {
                0.0
            }
        })
        .collect();
    config.window.apply_in_place(&mut windowed);

    let spec = padded_spectrum(&windowed, config.n_fft)?;
    let n_fft = spec.len();
    if let Some(r) = reference {
        if r.n_fft != n_fft {
            return Err(EarSonarError::BadRecording {
                reason: "reference spectrum FFT grid mismatch",
            });
        }
    }
    let df = config.sample_rate / n_fft as f64;
    let (p_lo, p_hi) = config.profile_band_hz;
    let k_lo = (p_lo / df).floor() as usize;
    let k_hi = ((p_hi / df).ceil() as usize).min(n_fft / 2);
    let cal_sq = calibration * calibration;
    let ref_floor = reference
        .map(|r| 1e-6 * r.power.iter().cloned().fold(0.0, f64::max))
        .unwrap_or(0.0);
    let band: Vec<f64> = (k_lo..=k_hi)
        .map(|k| {
            let raw = spec[k].norm_sqr() / n_fft as f64 / cal_sq;
            match reference {
                Some(r) => raw / r.power[k].max(ref_floor),
                None => raw,
            }
        })
        .collect();
    let band_power: f64 = band.iter().sum();

    // Interpolate onto the uniform feature grid. The bins stay in
    // calibrated units: their absolute level *is* the absorption signal
    // (a fluid-loaded eardrum returns less energy at the dip).
    let profile = resample_uniform(&band, config.psd_profile_bins);
    let frequencies: Vec<f64> = (0..config.psd_profile_bins)
        .map(|i| {
            p_lo + (p_hi - p_lo) * i as f64 / (config.psd_profile_bins - 1).max(1) as f64
        })
        .collect();
    Ok(EchoSpectrum {
        profile,
        frequencies,
        band_power,
        echo_window: windowed,
    })
}

/// Extracts the absorption spectrum from a **channel impulse response**:
/// the IR section `[center - echo_ir_pre, center + echo_ir_tail)` is the
/// eardrum's reflection response (arrival plus absorption ringing); its
/// band spectrum, calibrated by the direct-tap amplitude, estimates the
/// eardrum reflectance power directly. A Tukey-style taper (Hann ramps at
/// both ends) suppresses truncation leakage.
///
/// This is the one-lane instance of [`echo_ir_spectra`].
///
/// # Errors
///
/// Returns [`EarSonarError::BadRecording`] if the IR is empty or the
/// calibration is not positive.
pub fn echo_ir_spectrum(
    ir: &[f64],
    echo_center: usize,
    calibration: f64,
    config: &EarSonarConfig,
) -> Result<EchoSpectrum, EarSonarError> {
    let mut scratch = DspScratch::new();
    let [spectrum] = echo_ir_spectra([ir], echo_center, calibration, config, &mut scratch)?;
    Ok(spectrum)
}

/// [`echo_ir_spectrum`] of `L` impulse responses sharing one echo centre:
/// the taper weights are evaluated once and the `L` spectra come from one
/// `L`-lane transform ([`FftPlan::forward_from_real_lanes`]). Lane `l`'s
/// spectrum is bit-identical to [`echo_ir_spectrum`] of `irs[l]`.
///
/// # Errors
///
/// Returns [`EarSonarError::BadRecording`] if any IR is empty or the
/// calibration is not positive.
pub fn echo_ir_spectra<const L: usize>(
    irs: [&[f64]; L],
    echo_center: usize,
    calibration: f64,
    config: &EarSonarConfig,
    scratch: &mut DspScratch,
) -> Result<[EchoSpectrum; L], EarSonarError> {
    if irs.iter().any(|ir| ir.is_empty()) {
        return Err(EarSonarError::BadRecording {
            reason: "empty impulse response",
        });
    }
    if !(calibration > 0.0) {
        return Err(EarSonarError::BadRecording {
            reason: "calibration gain must be positive",
        });
    }
    let pre = config.echo_ir_pre;
    let tail = config.echo_ir_tail;
    let len = pre + tail;
    let start = echo_center as isize - pre as isize;
    let mut sections = irs.map(|ir| -> Vec<f64> {
        (0..len)
            .map(|i| {
                let idx = start + i as isize;
                if idx >= 0 && (idx as usize) < ir.len() {
                    ir[idx as usize]
                } else {
                    0.0
                }
            })
            .collect()
    });
    // Tukey taper: short Hann ramp in, longer ramp out.
    let ramp_in = pre.clamp(1, 3);
    let ramp_out = (tail / 3).max(1);
    for i in 0..ramp_in.min(len) {
        let w = 0.5 - 0.5 * (std::f64::consts::PI * i as f64 / ramp_in as f64).cos();
        for section in sections.iter_mut() {
            section[i] *= w;
        }
    }
    for i in 0..ramp_out.min(len) {
        let w = 0.5 - 0.5 * (std::f64::consts::PI * i as f64 / ramp_out as f64).cos();
        for section in sections.iter_mut() {
            section[len - 1 - i] *= w;
        }
    }

    let plan = FftPlan::shared(next_pow2(config.n_fft))?;
    let mut spec = scratch.take_frames();
    plan.forward_from_real_lanes(sections.each_ref().map(Vec::as_slice), &mut spec);
    let n_fft = plan.size();
    let df = config.sample_rate / n_fft as f64;
    let (p_lo, p_hi) = config.profile_band_hz;
    let k_lo = (p_lo / df).floor() as usize;
    let k_hi = ((p_hi / df).ceil() as usize).min(n_fft / 2);
    let cal_sq = calibration * calibration;
    let frequencies: Vec<f64> = (0..config.psd_profile_bins)
        .map(|i| {
            p_lo + (p_hi - p_lo) * i as f64 / (config.psd_profile_bins - 1).max(1) as f64
        })
        .collect();
    let bins = split_frames::<L>(&spec);
    let spectra = std::array::from_fn(|l| {
        let band: Vec<f64> = (k_lo..=k_hi)
            .map(|k| bins[k].lane(l).norm_sqr() / cal_sq)
            .collect();
        let band_power: f64 = band.iter().sum();
        EchoSpectrum {
            profile: resample_uniform(&band, config.psd_profile_bins),
            frequencies: frequencies.clone(),
            band_power,
            echo_window: std::mem::take(&mut sections[l]),
        }
    });
    scratch.put_frames(spec);
    Ok(spectra)
}

/// Averages per-chirp spectra into one recording-level spectrum. The
/// calibrated profiles are averaged bin-wise; band powers average; echo
/// windows are kept from the median-power chirp (a robust exemplar).
///
/// # Errors
///
/// Returns [`EarSonarError::NoEchoDetected`] if `spectra` is empty.
pub fn average_spectra(spectra: &[EchoSpectrum]) -> Result<EchoSpectrum, EarSonarError> {
    if spectra.is_empty() {
        return Err(EarSonarError::NoEchoDetected);
    }
    let bins = spectra[0].profile.len();
    let mut profile = vec![0.0; bins];
    let mut band_power = 0.0;
    for s in spectra {
        for (acc, &v) in profile.iter_mut().zip(&s.profile) {
            *acc += v;
        }
        band_power += s.band_power;
    }
    let n = spectra.len() as f64;
    for p in &mut profile {
        *p /= n;
    }
    band_power /= n;
    // Median-band-power exemplar window.
    let mut order: Vec<usize> = (0..spectra.len()).collect();
    order.sort_by(|&a, &b| spectra[a].band_power.total_cmp(&spectra[b].band_power));
    let exemplar = &spectra[order[order.len() / 2]];
    Ok(EchoSpectrum {
        profile,
        frequencies: spectra[0].frequencies.clone(),
        band_power,
        echo_window: exemplar.echo_window.clone(),
    })
}

/// Test fixture: `x` through a Gaussian notch of relative `depth` and
/// width `width_hz` at 18 kHz — an effusion-like eardrum dip.
#[cfg(test)]
pub(crate) fn notched(x: &[f64], fs: f64, depth: f64, width_hz: f64) -> Vec<f64> {
    let mut out = Vec::new();
    earsonar_acoustics::propagation::apply_frequency_response_with(
        x,
        fs,
        |f| {
            let z = (f - 18_000.0) / width_hz;
            1.0 - depth * (-0.5 * z * z).exp()
        },
        &mut earsonar_dsp::plan::DspScratch::new(),
        &mut out,
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::segment_eardrum_echo;
    use std::f64::consts::PI;

    fn config() -> EarSonarConfig {
        EarSonarConfig::paper_default()
    }

    /// A chirp window whose dominant return is a notch-shaped eardrum
    /// echo plus a small direct leak (the prototype's hardware geometry).
    fn window_with_notch(depth: f64) -> Vec<f64> {
        let chirp = earsonar_acoustics::chirp::FmcwChirp::earsonar().samples();
        let fs = 48_000.0;
        // Shape the echo with a notch at 18 kHz.
        let mut padded = chirp.clone();
        padded.extend(std::iter::repeat_n(0.0, 40));
        let shaped = notched(&padded, fs, depth, 500.0);
        let mut window = vec![0.0; 240];
        for (i, &c) in chirp.iter().enumerate() {
            window[i + 1] += 0.06 * c;
        }
        for (i, &c) in shaped.iter().enumerate() {
            if i + 9 < 240 {
                window[i + 9] += 0.45 * c;
            }
        }
        window
    }

    #[test]
    fn spectrum_shapes_are_sane() {
        let cfg = config();
        let w = window_with_notch(0.0);
        let echo = segment_eardrum_echo(&w, &cfg).unwrap();
        let spec = echo_spectrum(&w, &echo, 1.0, None, &cfg).unwrap();
        assert_eq!(spec.profile.len(), cfg.psd_profile_bins);
        assert_eq!(spec.frequencies.len(), cfg.psd_profile_bins);
        assert!((spec.frequencies[0] - cfg.profile_band_hz.0).abs() < 1.0);
        assert!(
            (spec.frequencies[cfg.psd_profile_bins - 1] - cfg.profile_band_hz.1).abs() < 1.0
        );
        assert!(spec.profile.iter().all(|&v| v >= 0.0));
        assert!(spec.band_power > 0.0);
        assert!(!spec.echo_window.is_empty());
    }

    #[test]
    fn deeper_notch_absorbs_more_band_power() {
        // The raw-window estimator cannot sharpen the notch (a 0.5 ms
        // chirp smears it), but the *absorbed energy* it measures is
        // strictly monotone in the notch depth.
        let cfg = config();
        let mut powers = Vec::new();
        for d in [0.0, 0.3, 0.6] {
            let w = window_with_notch(d);
            let echo = segment_eardrum_echo(&w, &cfg).unwrap();
            let spec = echo_spectrum(&w, &echo, 1.0, None, &cfg).unwrap();
            powers.push(spec.band_power);
        }
        assert!(
            powers[0] > powers[1] && powers[1] > powers[2],
            "band power should fall with notch depth: {powers:?}"
        );
    }

    #[test]
    fn empty_window_is_rejected() {
        let cfg = config();
        let echo = EardrumEcho {
            center: 0,
            direct_center: 0,
            energy_ratio: 1.0,
            from_symmetry: true,
        };
        assert!(echo_spectrum(&[], &echo, 1.0, None, &cfg).is_err());
        assert!(echo_spectrum(&[1.0; 64], &echo, 0.0, None, &cfg).is_err());
    }

    #[test]
    fn averaging_preserves_bin_count_and_normalization() {
        let cfg = config();
        let w = window_with_notch(0.4);
        let echo = segment_eardrum_echo(&w, &cfg).unwrap();
        let s1 = echo_spectrum(&w, &echo, 1.0, None, &cfg).unwrap();
        let s2 = s1.clone();
        let avg = average_spectra(&[s1.clone(), s2]).unwrap();
        assert_eq!(avg.profile.len(), cfg.psd_profile_bins);
        // Averaging identical spectra is the identity.
        for (a, b) in avg.profile.iter().zip(&s1.profile) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!(average_spectra(&[]).is_err());
    }

    #[test]
    fn dip_frequency_tracks_notch_position() {
        let cfg = config();
        // Place the echo window directly over a pure shaped signal so the
        // dip is clean: synthesize a long 16-20 kHz sweep with an 18 kHz
        // notch and analyze its middle.
        let fs = 48_000.0;
        let n = 512;
        let sweep: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                let f0 = 16_000.0;
                let rate = 4_000.0 / (n as f64 / fs);
                (2.0 * PI * (f0 * t + 0.5 * rate * t * t)).sin()
            })
            .collect();
        let notched = notched(&sweep, fs, 0.8, 400.0);
        let echo = EardrumEcho {
            center: 256,
            direct_center: 200,
            energy_ratio: 0.9,
            from_symmetry: true,
        };
        let mut cfg2 = cfg;
        cfg2.echo_window_half = 256;
        cfg2.n_fft = 512;
        // A taper would suppress the sweep's ends (the band edges) below
        // the notch floor; the rectangular window keeps them comparable.
        cfg2.window = earsonar_dsp::window::Window::Rectangular;
        let spec = echo_spectrum(&notched, &echo, 1.0, None, &cfg2).unwrap();
        let dip = spec.dip_frequency().unwrap();
        assert!((dip - 18_000.0).abs() < 600.0, "dip at {dip}");
    }
}
