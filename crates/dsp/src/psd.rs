//! Power-spectral-density estimation.
//!
//! EarSonar distills "the power spectral density" of the eardrum-reflected
//! echoes (paper §IV-C-1); a single-segment periodogram handles one echo
//! window.

use crate::error::DspError;
use crate::fft::next_pow2;
use crate::plan::FftPlan;
use crate::window::Window;

/// A one-sided power spectral density estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct Psd {
    /// Power density per frequency bin (length `n_fft/2 + 1`).
    pub power: Vec<f64>,
    /// Frequency of each bin in hertz.
    pub frequencies: Vec<f64>,
    /// Frequency resolution (hertz per bin).
    pub resolution: f64,
}

impl Psd {
    /// Returns `(frequencies, power)` restricted to `[f_lo, f_hi]` hertz.
    pub fn band(&self, f_lo: f64, f_hi: f64) -> (Vec<f64>, Vec<f64>) {
        let mut freqs = Vec::new();
        let mut pows = Vec::new();
        for (f, p) in self.frequencies.iter().zip(&self.power) {
            if *f >= f_lo && *f <= f_hi {
                freqs.push(*f);
                pows.push(*p);
            }
        }
        (freqs, pows)
    }

    /// Power integrated over `[f_lo, f_hi]` hertz.
    pub fn band_power(&self, f_lo: f64, f_hi: f64) -> f64 {
        self.band(f_lo, f_hi).1.iter().sum::<f64>() * self.resolution
    }

    /// Frequency (Hz) of the strongest bin. Returns `None` if empty.
    pub fn peak_frequency(&self) -> Option<f64> {
        crate::stats::argmax(&self.power).map(|i| self.frequencies[i])
    }

    /// Frequency (Hz) of the weakest bin inside `[f_lo, f_hi]` — the
    /// "acoustic dip" locator used in the feasibility analysis (Fig. 2).
    pub fn dip_frequency(&self, f_lo: f64, f_hi: f64) -> Option<f64> {
        let (freqs, pows) = self.band(f_lo, f_hi);
        crate::stats::argmin(&pows).map(|i| freqs[i])
    }
}

/// Single-segment periodogram with a window taper.
///
/// The estimate is normalized so that the mean of the PSD times the sample
/// rate recovers the windowed signal power (standard periodogram scaling
/// with the window's power gain divided out). The FFT plan is sized from
/// the signal length and stays resident for the life of the process
/// ([`crate::plan::FftPlan::shared`]).
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for an empty signal and
/// [`DspError::InvalidParameter`] for a non-positive sample rate.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), earsonar_dsp::DspError> {
/// use earsonar_dsp::psd::periodogram;
/// use earsonar_dsp::window::Window;
/// let fs = 48_000.0;
/// let x: Vec<f64> = (0..2048)
///     .map(|i| (2.0 * std::f64::consts::PI * 18_000.0 * i as f64 / fs).sin())
///     .collect();
/// let psd = periodogram(&x, fs, Window::Hann)?;
/// let peak = psd.peak_frequency().unwrap();
/// assert!((peak - 18_000.0).abs() < 50.0);
/// # Ok(())
/// # }
/// ```
pub fn periodogram(signal: &[f64], fs: f64, window: Window) -> Result<Psd, DspError> {
    if signal.is_empty() {
        return Err(DspError::EmptyInput);
    }
    if !(fs > 0.0) {
        return Err(DspError::InvalidParameter {
            name: "fs",
            constraint: "sample rate must be positive",
        });
    }
    let n = signal.len();
    let n_fft = next_pow2(n);
    let tapered = window.apply(signal);
    let mut spec = Vec::new();
    FftPlan::shared(n_fft)?.forward_from_real(&tapered, &mut spec);
    let n_bins = n_fft / 2 + 1;
    let power_gain = window.power_gain(n).max(f64::MIN_POSITIVE);
    let scale = 1.0 / (fs * n as f64 * power_gain);
    let mut power: Vec<f64> = spec[..n_bins]
        .iter()
        .map(|z| z.norm_sqr() * scale)
        .collect();
    // One-sided spectrum: double everything except DC and Nyquist.
    for p in power.iter_mut().take(n_bins - 1).skip(1) {
        *p *= 2.0;
    }
    let resolution = fs / n_fft as f64;
    let frequencies = (0..n_bins).map(|k| k as f64 * resolution).collect();
    Ok(Psd {
        power,
        frequencies,
        resolution,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn tone(f: f64, fs: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * PI * f * i as f64 / fs).sin())
            .collect()
    }

    #[test]
    fn periodogram_finds_tone() {
        let psd = periodogram(&tone(17_250.0, 48_000.0, 4096), 48_000.0, Window::Hann).unwrap();
        assert!((psd.peak_frequency().unwrap() - 17_250.0).abs() < 24.0);
    }

    #[test]
    fn periodogram_power_of_unit_sine_is_half() {
        // Parseval check: a unit sine has power 0.5.
        let psd = periodogram(
            &tone(1_000.0, 48_000.0, 4096),
            48_000.0,
            Window::Rectangular,
        )
        .unwrap();
        let total = psd.band_power(0.0, f64::INFINITY);
        assert!((total - 0.5).abs() < 0.01, "{total}");
    }

    #[test]
    fn hann_window_preserves_total_power_estimate() {
        let psd = periodogram(&tone(1_000.0, 48_000.0, 4096), 48_000.0, Window::Hann).unwrap();
        let total = psd.band_power(0.0, f64::INFINITY);
        assert!((total - 0.5).abs() < 0.05, "{total}");
    }

    #[test]
    fn errors_on_degenerate_input() {
        assert!(periodogram(&[], 48_000.0, Window::Hann).is_err());
        assert!(periodogram(&[1.0], 0.0, Window::Hann).is_err());
    }

    #[test]
    fn band_restriction_and_band_power() {
        let psd = periodogram(&tone(18_000.0, 48_000.0, 8192), 48_000.0, Window::Hann).unwrap();
        let (freqs, _) = psd.band(16_000.0, 20_000.0);
        assert!(freqs.iter().all(|&f| (16_000.0..=20_000.0).contains(&f)));
        let in_band = psd.band_power(16_000.0, 20_000.0);
        let out_band = psd.band_power(0.0, 15_000.0);
        assert!(in_band > 100.0 * out_band.max(1e-30));
    }

    #[test]
    fn dip_frequency_finds_notch() {
        // Construct a PSD directly with a notch at bin 10.
        let n = 32;
        let mut power = vec![1.0; n];
        power[10] = 0.01;
        let frequencies: Vec<f64> = (0..n).map(|k| k as f64 * 100.0).collect();
        let psd = Psd {
            power,
            frequencies,
            resolution: 100.0,
        };
        assert_eq!(psd.dip_frequency(500.0, 2_000.0), Some(1_000.0));
        assert_eq!(psd.dip_frequency(5_000.0, 4_000.0), None);
    }
}
