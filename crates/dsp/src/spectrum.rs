//! Amplitude-spectrum utilities.
//!
//! The paper's Eq. 5 works with the amplitude spectrum `A(f) = FFT(R(t))/N`;
//! this module provides that plus band slicing and normalization helpers
//! used throughout the absorption analysis.

use crate::error::DspError;
use crate::fft::next_pow2;
use crate::plan::FftPlan;
use crate::window::Window;

/// A one-sided amplitude spectrum.
#[derive(Debug, Clone, PartialEq)]
pub struct AmplitudeSpectrum {
    /// Amplitude per bin (length `n_fft/2 + 1`).
    pub amplitude: Vec<f64>,
    /// Frequency of each bin in hertz.
    pub frequencies: Vec<f64>,
    /// Hertz per bin.
    pub resolution: f64,
}

impl AmplitudeSpectrum {
    /// Computes the one-sided amplitude spectrum `|FFT(x)| / N` of a signal,
    /// zero-padded to at least `n_fft` points (power-of-two rounded). The
    /// FFT plan of that size stays resident for the life of the process
    /// ([`FftPlan::shared`]).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] for an empty signal and
    /// [`DspError::InvalidParameter`] for a non-positive sample rate.
    pub fn compute(
        signal: &[f64],
        fs: f64,
        n_fft: usize,
        window: Window,
    ) -> Result<Self, DspError> {
        if signal.is_empty() {
            return Err(DspError::EmptyInput);
        }
        if !(fs > 0.0) {
            return Err(DspError::InvalidParameter {
                name: "fs",
                constraint: "sample rate must be positive",
            });
        }
        let n = next_pow2(n_fft.max(signal.len()));
        let tapered = window.apply(signal);
        let mut spec = Vec::new();
        FftPlan::shared(n)?.forward_from_real(&tapered, &mut spec);
        let n_bins = n / 2 + 1;
        let coherent = window.coherent_gain(signal.len()).max(f64::MIN_POSITIVE);
        let scale = 1.0 / (signal.len() as f64 * coherent);
        let mut amplitude: Vec<f64> = spec[..n_bins].iter().map(|z| z.norm() * scale).collect();
        for a in amplitude.iter_mut().take(n_bins - 1).skip(1) {
            *a *= 2.0;
        }
        let resolution = fs / n as f64;
        let frequencies = (0..n_bins).map(|k| k as f64 * resolution).collect();
        Ok(AmplitudeSpectrum {
            amplitude,
            frequencies,
            resolution,
        })
    }

    /// Restricts the spectrum to `[f_lo, f_hi]` hertz, returning a new
    /// spectrum covering only that band.
    pub fn band(&self, f_lo: f64, f_hi: f64) -> AmplitudeSpectrum {
        let mut amplitude = Vec::new();
        let mut frequencies = Vec::new();
        for (f, a) in self.frequencies.iter().zip(&self.amplitude) {
            if *f >= f_lo && *f <= f_hi {
                frequencies.push(*f);
                amplitude.push(*a);
            }
        }
        AmplitudeSpectrum {
            amplitude,
            frequencies,
            resolution: self.resolution,
        }
    }

    /// Normalizes to unit peak amplitude in place (no-op on all-zero data).
    pub fn normalize_peak(&mut self) {
        let peak = self.amplitude.iter().fold(0.0f64, |m, &v| m.max(v));
        if peak > 0.0 {
            for a in &mut self.amplitude {
                *a /= peak;
            }
        }
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.amplitude.len()
    }

    /// Returns `true` if the spectrum holds no bins.
    pub fn is_empty(&self) -> bool {
        self.amplitude.is_empty()
    }

    /// Frequency of the deepest local minimum (the "acoustic dip") within
    /// the spectrum, or `None` if empty.
    pub fn dip_frequency(&self) -> Option<f64> {
        crate::stats::argmin(&self.amplitude).map(|i| self.frequencies[i])
    }

    /// Resamples the spectrum onto `n` uniformly spaced frequencies across
    /// its own range via linear interpolation — useful to compare spectra
    /// computed with different FFT sizes.
    pub fn resample(&self, n: usize) -> AmplitudeSpectrum {
        if self.amplitude.len() < 2 || n < 2 {
            return self.clone();
        }
        let f_lo = self.frequencies[0];
        let f_hi = self.frequencies.last().copied().unwrap_or(f_lo);
        let xs: Vec<f64> = (0..n)
            .map(|i| f_lo + (f_hi - f_lo) * i as f64 / (n - 1) as f64)
            .collect();
        let amplitude =
            crate::interp::interp_linear(&self.frequencies, &self.amplitude, &xs);
        AmplitudeSpectrum {
            amplitude,
            frequencies: xs,
            resolution: (f_hi - f_lo) / (n - 1) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn tone(f: f64, fs: f64, n: usize, amp: f64) -> Vec<f64> {
        (0..n)
            .map(|i| amp * (2.0 * PI * f * i as f64 / fs).sin())
            .collect()
    }

    #[test]
    fn amplitude_of_unit_tone_is_one() {
        let x = tone(6_000.0, 48_000.0, 4096, 1.0);
        let s = AmplitudeSpectrum::compute(&x, 48_000.0, 4096, Window::Rectangular).unwrap();
        let k = crate::stats::argmax(&s.amplitude).unwrap();
        assert!((s.frequencies[k] - 6_000.0).abs() < 12.0);
        assert!((s.amplitude[k] - 1.0).abs() < 0.01, "{}", s.amplitude[k]);
    }

    #[test]
    fn hann_window_amplitude_is_compensated() {
        let x = tone(6_000.0, 48_000.0, 4096, 2.0);
        let s = AmplitudeSpectrum::compute(&x, 48_000.0, 4096, Window::Hann).unwrap();
        let k = crate::stats::argmax(&s.amplitude).unwrap();
        // Hann spreads energy into 3 bins; peak bin keeps ~amp after gain fix.
        assert!(s.amplitude[k] > 1.9 && s.amplitude[k] < 2.1, "{}", s.amplitude[k]);
    }

    #[test]
    fn band_selects_requested_range() {
        let x = tone(18_000.0, 48_000.0, 2048, 1.0);
        let s = AmplitudeSpectrum::compute(&x, 48_000.0, 2048, Window::Hann).unwrap();
        let b = s.band(16_000.0, 20_000.0);
        assert!(!b.is_empty());
        assert!(b.frequencies.iter().all(|&f| (16_000.0..=20_000.0).contains(&f)));
        assert_eq!(b.resolution, s.resolution);
    }

    #[test]
    fn normalize_peak_caps_at_one() {
        let x = tone(5_000.0, 48_000.0, 1024, 7.3);
        let mut s = AmplitudeSpectrum::compute(&x, 48_000.0, 1024, Window::Hann).unwrap();
        s.normalize_peak();
        let peak = s.amplitude.iter().fold(0.0f64, |m, &v| m.max(v));
        assert!((peak - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dip_frequency_on_constructed_spectrum() {
        let s = AmplitudeSpectrum {
            amplitude: vec![1.0, 0.9, 0.2, 0.8, 1.0],
            frequencies: vec![100.0, 200.0, 300.0, 400.0, 500.0],
            resolution: 100.0,
        };
        assert_eq!(s.dip_frequency(), Some(300.0));
    }

    #[test]
    fn resample_changes_grid_but_keeps_shape() {
        let x = tone(18_000.0, 48_000.0, 2048, 1.0);
        let s = AmplitudeSpectrum::compute(&x, 48_000.0, 2048, Window::Hann)
            .unwrap()
            .band(16_000.0, 20_000.0);
        let r = s.resample(64);
        assert_eq!(r.len(), 64);
        assert!((r.frequencies[0] - s.frequencies[0]).abs() < 1e-9);
        // Peak stays near 18 kHz.
        let k = crate::stats::argmax(&r.amplitude).unwrap();
        assert!((r.frequencies[k] - 18_000.0).abs() < 150.0);
    }

    #[test]
    fn empty_input_is_rejected() {
        assert!(AmplitudeSpectrum::compute(&[], 48_000.0, 512, Window::Hann).is_err());
        assert!(AmplitudeSpectrum::compute(&[1.0], -1.0, 512, Window::Hann).is_err());
    }
}
