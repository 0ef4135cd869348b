//! Acoustic-absorption analysis (paper §IV-C-1).
//!
//! With the eardrum-echo centre located, the paper extracts a uniform FFT
//! window around it: "we take the peak sampling point of the eardrum as the
//! centre and collect N sampling points on both sides of the fixed window",
//! then computes the power spectral density, whose 16–20 kHz profile
//! carries the absorption signature. Here the fixed window is a section
//! of the chirp's channel impulse response around the echo centre
//! ([`ECHO_IR_PRE`] samples before it, [`ECHO_IR_TAIL`] after), so the
//! transmit chirp's own spectrum is already deconvolved out.

use crate::config::EarSonarConfig;
use crate::error::EarSonarError;
use crate::preprocess::PROBE_BAND_HZ;
use earsonar_dsp::goertzel::Goertzel;
use earsonar_dsp::interp::resample_uniform;
use earsonar_dsp::plan::DspScratch;

/// IR samples kept before the detected echo centre.
pub const ECHO_IR_PRE: usize = 5;

/// IR samples kept after the detected echo centre (they hold the
/// absorption ringing).
pub const ECHO_IR_TAIL: usize = 56;

/// Length of the transform whose bins the echo spectrum reads (a power of
/// two).
pub const N_FFT: usize = 256;

/// Number of bins in the echo's power profile.
pub const PROFILE_BINS: usize = 32;

/// Frequency range of the power profile in hertz. Inset from the probe
/// band's edges: the Butterworth skirts and the chirp's own spectral
/// roll-off leave the outermost bins signal-free.
pub const PROFILE_BAND_HZ: (f64, f64) = (16_500.0, 19_500.0);

const _: () = assert!(0 < ECHO_IR_PRE + ECHO_IR_TAIL && ECHO_IR_PRE + ECHO_IR_TAIL <= N_FFT);
const _: () = assert!(N_FFT.is_power_of_two() && PROFILE_BINS > 1);
const _: () = assert!(
    PROBE_BAND_HZ.0 <= PROFILE_BAND_HZ.0
        && PROFILE_BAND_HZ.0 < PROFILE_BAND_HZ.1
        && PROFILE_BAND_HZ.1 <= PROBE_BAND_HZ.1
);

/// The absorption signature of one (or an average of many) eardrum echoes.
#[derive(Debug, Clone, PartialEq)]
pub struct EchoSpectrum {
    /// Normalized in-band power profile, [`PROFILE_BINS`] values across
    /// [`PROFILE_BAND_HZ`].
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
        let max = self
            .profile
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let min = self.profile.iter().copied().fold(f64::INFINITY, f64::min);
        if max <= 0.0 || !max.is_finite() {
            0.0
        } else {
            ((max - min) / max).clamp(0.0, 1.0)
        }
    }
}

/// Extracts the absorption spectrum from a **channel impulse response**:
/// the IR section `[center - ECHO_IR_PRE, center + ECHO_IR_TAIL)` is the
/// eardrum's reflection response (arrival plus absorption ringing); its
/// band spectrum, calibrated by the direct-tap amplitude, estimates the
/// eardrum reflectance power directly. A Tukey-style taper (Hann ramps at
/// both ends) suppresses truncation leakage.
///
/// The band's bins come from a Goertzel pass over the section, not a
/// transform. This call builds the taper and the Goertzel coefficients at
/// the configuration's sample rate; the front end builds them once and
/// reuses them for every chirp, with the same result.
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
    EchoBand::new(config).spectrum(&mut DspScratch::new(), ir, echo_center, calibration)
}

/// The echo-spectrum operator of one sample rate, built once: the IR
/// section's placement and taper, and Goertzel probes at the bins of the
/// [`N_FFT`]-point spectrum that cover [`PROFILE_BAND_HZ`] — the only bins
/// the spectrum reads, so no transform runs.
#[derive(Debug, Clone)]
pub(crate) struct EchoBand {
    /// Section samples before the echo centre.
    pre: usize,
    /// Tukey taper over the `pre + tail` section: a short Hann ramp in, a
    /// longer ramp out.
    taper: Vec<f64>,
    band: Goertzel,
    /// Frequency of each profile bin in hertz.
    frequencies: Vec<f64>,
}

impl EchoBand {
    pub(crate) fn new(config: &EarSonarConfig) -> Self {
        Self::with_section(config.sample_rate, ECHO_IR_PRE, ECHO_IR_TAIL, N_FFT)
    }

    /// The operator for a `pre + tail` section read through an
    /// `n_fft`-point spectrum at sample rate `fs`.
    pub(crate) fn with_section(fs: f64, pre: usize, tail: usize, n_fft: usize) -> Self {
        let hann = |i: usize, ramp: usize| {
            0.5 - 0.5 * (std::f64::consts::PI * i as f64 / ramp as f64).cos()
        };
        let mut taper = vec![1.0; pre + tail];
        let ramp_in = pre.clamp(1, 3);
        let ramp_out = (tail / 3).max(1);
        for (i, w) in taper.iter_mut().take(ramp_in).enumerate() {
            *w *= hann(i, ramp_in);
        }
        for (i, w) in taper.iter_mut().rev().take(ramp_out).enumerate() {
            *w *= hann(i, ramp_out);
        }
        let df = fs / n_fft as f64;
        let (p_lo, p_hi) = PROFILE_BAND_HZ;
        let k_lo = (p_lo / df).floor() as usize;
        let k_hi = ((p_hi / df).ceil() as usize).min(n_fft / 2);
        EchoBand {
            pre,
            taper,
            band: Goertzel::dft_bins(n_fft, k_lo..k_hi + 1),
            frequencies: (0..PROFILE_BINS)
                .map(|i| p_lo + (p_hi - p_lo) * i as f64 / (PROFILE_BINS - 1) as f64)
                .collect(),
        }
    }

    /// The echo spectrum of `ir` around `echo_center`: see
    /// [`echo_ir_spectrum`]. The band powers' buffer comes from `scratch`.
    pub(crate) fn spectrum(
        &self,
        scratch: &mut DspScratch,
        ir: &[f64],
        echo_center: usize,
        calibration: f64,
    ) -> Result<EchoSpectrum, EarSonarError> {
        if ir.is_empty() {
            return Err(EarSonarError::BadRecording {
                reason: "empty impulse response",
            });
        }
        if !(calibration > 0.0) {
            return Err(EarSonarError::BadRecording {
                reason: "calibration gain must be positive",
            });
        }
        let start = echo_center as isize - self.pre as isize;
        let echo_window: Vec<f64> = self
            .taper
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let idx = start + i as isize;
                let v = if idx >= 0 && (idx as usize) < ir.len() {
                    ir[idx as usize]
                } else {
                    0.0
                };
                v * w
            })
            .collect();
        let mut band = scratch.take_real();
        self.band.powers_into(&echo_window, &mut band);
        let cal_sq = calibration * calibration;
        for p in band.iter_mut() {
            *p /= cal_sq;
        }
        let spectrum = EchoSpectrum {
            profile: resample_uniform(&band, self.frequencies.len()),
            frequencies: self.frequencies.clone(),
            band_power: band.iter().sum(),
            echo_window,
        };
        scratch.put_real(band);
        Ok(spectrum)
    }
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

/// Test fixture: a `len`-tap channel IR with a small direct leak on tap 1
/// and an eardrum reflection centred on tap `center` that went through a
/// Gaussian notch of relative `depth` and width `width_hz` at 18 kHz — an
/// effusion-like eardrum dip. The reflection is band-limited to the probe
/// band, as the Wiener estimate is.
#[cfg(test)]
pub(crate) fn notched_ir(len: usize, center: usize, depth: f64, width_hz: f64) -> Vec<f64> {
    let mut impulse = vec![0.0; len];
    impulse[center] = 0.45;
    let mut ir =
        earsonar_acoustics::propagation::apply_frequency_response(&impulse, 48_000.0, |f| {
            let band = (-((f - 18_000.0) / 2_000.0).powi(8)).exp();
            let z = (f - 18_000.0) / width_hz;
            band * (1.0 - depth * (-0.5 * z * z).exp())
        })
        .unwrap();
    ir[1] += 0.06;
    ir
}

/// Test fixture: a [`notched_ir`] at the paper's geometry, segmented and
/// reduced to its echo spectrum the way the pipeline's finalize stage does.
#[cfg(test)]
pub(crate) fn notched_ir_spectrum(
    depth: f64,
    config: &EarSonarConfig,
) -> (EchoSpectrum, crate::segment::EardrumEcho) {
    let ir = notched_ir(config.ir_taps, 9, depth, 500.0);
    let echo = crate::segment::segment_with_anchor(&ir, 1, config).unwrap();
    let spectrum = echo_ir_spectrum(&ir, echo.center, 1.0, config).unwrap();
    (spectrum, echo)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> EarSonarConfig {
        EarSonarConfig::default()
    }

    #[test]
    fn spectrum_shapes_are_sane() {
        let cfg = config();
        let (spec, echo) = notched_ir_spectrum(0.0, &cfg);
        assert!(echo.from_symmetry, "{echo:?}");
        assert_eq!(spec.profile.len(), PROFILE_BINS);
        assert_eq!(spec.frequencies.len(), PROFILE_BINS);
        assert!((spec.frequencies[0] - PROFILE_BAND_HZ.0).abs() < 1.0);
        assert!((spec.frequencies[PROFILE_BINS - 1] - PROFILE_BAND_HZ.1).abs() < 1.0);
        assert!(spec.profile.iter().all(|&v| v >= 0.0));
        assert!(spec.band_power > 0.0);
        assert_eq!(spec.echo_window.len(), ECHO_IR_PRE + ECHO_IR_TAIL);
    }

    #[test]
    fn deeper_notch_absorbs_more_band_power() {
        let cfg = config();
        let powers: Vec<f64> = [0.0, 0.3, 0.6]
            .iter()
            .map(|&d| notched_ir_spectrum(d, &cfg).0.band_power)
            .collect();
        assert!(
            powers[0] > powers[1] && powers[1] > powers[2],
            "band power should fall with notch depth: {powers:?}"
        );
    }

    #[test]
    fn empty_ir_is_rejected() {
        let cfg = config();
        assert!(echo_ir_spectrum(&[], 0, 1.0, &cfg).is_err());
        assert!(echo_ir_spectrum(&[1.0; 64], 9, 0.0, &cfg).is_err());
    }

    #[test]
    fn averaging_preserves_bin_count_and_normalization() {
        let cfg = config();
        let (s1, _) = notched_ir_spectrum(0.4, &cfg);
        let avg = average_spectra(&[s1.clone(), s1.clone()]).unwrap();
        assert_eq!(avg.profile.len(), PROFILE_BINS);
        // Averaging identical spectra is the identity.
        for (a, b) in avg.profile.iter().zip(&s1.profile) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!(average_spectra(&[]).is_err());
    }

    #[test]
    fn dip_frequency_tracks_notch_position() {
        // A section long enough to hold the notch's ringing resolves the
        // dip itself, not just the absorbed energy.
        let band = EchoBand::with_section(48_000.0, 256, 256, 512);
        let ir = notched_ir(512, 256, 0.8, 400.0);
        let spec = band
            .spectrum(&mut DspScratch::new(), &ir, 256, 1.0)
            .unwrap();
        let dip = spec.dip_frequency().unwrap();
        assert!((dip - 18_000.0).abs() < 600.0, "dip at {dip}");
    }
}
