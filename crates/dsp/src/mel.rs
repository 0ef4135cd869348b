//! Mel scale and triangular mel filterbank.
//!
//! MFCC extraction (paper §IV-C-2) splits the frequency-domain signal "into
//! multiple smaller frequency bins and then uses a triangular filter on each
//! frequency bin to calculate the short-term power". Because EarSonar's band
//! of interest is 16–20 kHz, the filterbank is built over an arbitrary
//! `[f_min, f_max]` range rather than the speech-typical 0–8 kHz.

use crate::error::DspError;
use std::ops::Range;

/// Converts hertz to mel (O'Shaughnessy formula).
///
/// # Example
///
/// ```
/// use earsonar_dsp::mel::{hz_to_mel, mel_to_hz};
/// let m = hz_to_mel(1000.0);
/// assert!((mel_to_hz(m) - 1000.0).abs() < 1e-9);
/// ```
pub fn hz_to_mel(hz: f64) -> f64 {
    2595.0 * (1.0 + hz / 700.0).log10()
}

/// Converts mel to hertz (inverse of [`hz_to_mel`]).
pub fn mel_to_hz(mel: f64) -> f64 {
    700.0 * (10f64.powf(mel / 2595.0) - 1.0)
}

/// A triangular mel filterbank mapping an FFT power spectrum to mel-band
/// energies.
///
/// Triangular filters have contiguous support, so the bank stores its taps
/// **dense**: one flat weight array plus a `(first bin, offset)` pair per
/// filter. Applying a filter is then a contiguous dot product over the
/// spectrum instead of a sparse `(index, weight)` gather.
#[derive(Debug, Clone, PartialEq)]
pub struct MelFilterBank {
    /// Tap weights, filter-major: filter `f` owns
    /// `weights[offsets[f]..offsets[f + 1]]`.
    weights: Vec<f64>,
    /// First spectrum bin each filter's weights apply to.
    starts: Vec<usize>,
    /// Per-filter extents into `weights` (`n_filters + 1` entries).
    offsets: Vec<usize>,
    n_fft: usize,
    fs: f64,
    f_min: f64,
    f_max: f64,
}

impl MelFilterBank {
    /// Builds `n_filters` triangular filters spanning `[f_min, f_max]` hertz
    /// over the one-sided spectrum of an `n_fft`-point FFT at sample rate
    /// `fs`. Filter centres are equally spaced on the mel scale.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if `n_filters == 0`,
    /// `n_fft < 4`, `fs <= 0`, or the band `[f_min, f_max]` is empty or
    /// exceeds Nyquist.
    pub fn new(
        n_filters: usize,
        n_fft: usize,
        fs: f64,
        f_min: f64,
        f_max: f64,
    ) -> Result<Self, DspError> {
        if n_filters == 0 {
            return Err(DspError::InvalidParameter {
                name: "n_filters",
                constraint: "must be at least 1",
            });
        }
        if n_fft < 4 {
            return Err(DspError::InvalidParameter {
                name: "n_fft",
                constraint: "must be at least 4",
            });
        }
        if !(fs > 0.0) {
            return Err(DspError::InvalidParameter {
                name: "fs",
                constraint: "sample rate must be positive",
            });
        }
        if !(0.0 <= f_min && f_min < f_max && f_max <= fs / 2.0) {
            return Err(DspError::InvalidParameter {
                name: "f_min/f_max",
                constraint: "need 0 <= f_min < f_max <= fs/2",
            });
        }
        let mel_lo = hz_to_mel(f_min);
        let mel_hi = hz_to_mel(f_max);
        // n_filters triangles need n_filters + 2 edge points.
        let edges_hz: Vec<f64> = (0..n_filters + 2)
            .map(|i| mel_to_hz(mel_lo + (mel_hi - mel_lo) * i as f64 / (n_filters + 1) as f64))
            .collect();
        let hz_per_bin = fs / n_fft as f64;
        let n_bins = n_fft / 2 + 1;
        // A triangle's support is one contiguous run of bins, so each
        // filter stores `(first bin, dense weight run)` — zero-weight bins
        // at the run edges are kept (they contribute exactly +0.0).
        let mut weights = Vec::new();
        let mut starts = Vec::with_capacity(n_filters);
        let mut offsets = Vec::with_capacity(n_filters + 1);
        offsets.push(0);
        for f in 0..n_filters {
            let (lo, mid, hi) = (edges_hz[f], edges_hz[f + 1], edges_hz[f + 2]);
            let k_start = (lo / hz_per_bin).floor().max(0.0) as usize;
            let k_end = ((hi / hz_per_bin).ceil() as usize).min(n_bins.saturating_sub(1));
            starts.push(k_start);
            for k in k_start..=k_end {
                let fk = k as f64 * hz_per_bin;
                let w = if fk < lo || fk > hi {
                    0.0
                } else if fk <= mid {
                    if mid > lo {
                        (fk - lo) / (mid - lo)
                    } else {
                        1.0
                    }
                } else if hi > mid {
                    (hi - fk) / (hi - mid)
                } else {
                    1.0
                };
                weights.push(w);
            }
            offsets.push(weights.len());
        }
        Ok(MelFilterBank {
            weights,
            starts,
            offsets,
            n_fft,
            fs,
            f_min,
            f_max,
        })
    }

    /// The number of filters in the bank.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Returns `true` if the bank has no filters (cannot occur via [`MelFilterBank::new`]).
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// The FFT size the bank was built for.
    pub fn n_fft(&self) -> usize {
        self.n_fft
    }

    /// The `[f_min, f_max]` band the bank spans, in hertz.
    pub fn band(&self) -> (f64, f64) {
        (self.f_min, self.f_max)
    }

    /// The spectrum bins any filter reads, first to last: every other bin
    /// of the spectrum passed to [`MelFilterBank::apply_into`] is ignored.
    pub(crate) fn support(&self) -> Range<usize> {
        let first = self.starts.iter().copied().min().unwrap_or(0);
        let end = self
            .offsets
            .windows(2)
            .zip(&self.starts)
            .map(|(o, &k0)| k0 + (o[1] - o[0]))
            .max()
            .unwrap_or(0);
        first..end
    }

    /// Applies the filterbank to a one-sided power spectrum
    /// (length `n_fft/2 + 1`), returning one energy per filter.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidLength`] if the spectrum length does not
    /// match the bank's FFT size.
    pub fn apply(&self, power_spectrum: &[f64]) -> Result<Vec<f64>, DspError> {
        let mut out = Vec::with_capacity(self.len());
        self.apply_into(power_spectrum, &mut out)?;
        Ok(out)
    }

    /// [`MelFilterBank::apply`] writing into a caller-owned buffer
    /// (cleared and refilled) — allocation-free once the buffer has grown
    /// to the bank size. Each filter is one contiguous dot product over
    /// the spectrum in strict tap order ([`crate::simd::dot_scalar`]). In
    /// the paper's 16–20 kHz band with 26 filters the widest triangle has
    /// 4 taps at a 256-point FFT, 6 at 512 and 9 at 1024 — too few for a
    /// four-lane fold to pay.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MelFilterBank::apply`].
    pub fn apply_into(&self, power_spectrum: &[f64], out: &mut Vec<f64>) -> Result<(), DspError> {
        if power_spectrum.len() != self.n_fft / 2 + 1 {
            return Err(DspError::InvalidLength {
                expected: "n_fft/2 + 1 one-sided spectrum bins",
                actual: power_spectrum.len(),
            });
        }
        out.clear();
        out.extend(self.offsets.windows(2).zip(&self.starts).map(|(o, &k0)| {
            let w = &self.weights[o[0]..o[1]];
            crate::simd::dot_scalar(w, &power_spectrum[k0..k0 + w.len()])
        }));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mel_scale_is_monotone_and_invertible() {
        let mut prev = -1.0;
        for hz in [0.0, 100.0, 1000.0, 4000.0, 16_000.0, 20_000.0] {
            let m = hz_to_mel(hz);
            assert!(m > prev);
            prev = m;
            assert!((mel_to_hz(m) - hz).abs() < 1e-6);
        }
    }

    #[test]
    fn thousand_hz_is_about_thousand_mel() {
        assert!((hz_to_mel(1000.0) - 1000.0).abs() < 1.0);
    }

    #[test]
    fn bank_construction_validates_parameters() {
        assert!(MelFilterBank::new(0, 512, 48_000.0, 16_000.0, 20_000.0).is_err());
        assert!(MelFilterBank::new(8, 2, 48_000.0, 16_000.0, 20_000.0).is_err());
        assert!(MelFilterBank::new(8, 512, 0.0, 16_000.0, 20_000.0).is_err());
        assert!(MelFilterBank::new(8, 512, 48_000.0, 20_000.0, 16_000.0).is_err());
        assert!(MelFilterBank::new(8, 512, 48_000.0, 16_000.0, 25_000.0).is_err());
    }

    #[test]
    fn apply_rejects_wrong_length() {
        let bank = MelFilterBank::new(8, 512, 48_000.0, 16_000.0, 20_000.0).unwrap();
        assert!(bank.apply(&vec![1.0; 100]).is_err());
        assert!(bank.apply(&vec![1.0; 257]).is_ok());
    }

    #[test]
    fn tone_in_band_excites_matching_filter_most() {
        let fs = 48_000.0;
        let n_fft = 2048;
        let bank = MelFilterBank::new(10, n_fft, fs, 16_000.0, 20_000.0).unwrap();
        // Centre of filter 4: the fifth of ten mel-spaced interior points.
        let (mel_lo, mel_hi) = (hz_to_mel(16_000.0), hz_to_mel(20_000.0));
        let target = mel_to_hz(mel_lo + (mel_hi - mel_lo) * 5.0 / 11.0);
        // Synthetic power spectrum: a single spectral line at `target`.
        let mut ps = vec![0.0; n_fft / 2 + 1];
        let k = (target / (fs / n_fft as f64)).round() as usize;
        ps[k] = 1.0;
        let energies = bank.apply(&ps).unwrap();
        let best = (0..energies.len())
            .max_by(|&a, &b| energies[a].total_cmp(&energies[b]))
            .unwrap();
        assert_eq!(best, 4);
    }

    #[test]
    fn out_of_band_energy_is_ignored() {
        let fs = 48_000.0;
        let n_fft = 1024;
        let bank = MelFilterBank::new(6, n_fft, fs, 16_000.0, 20_000.0).unwrap();
        let mut ps = vec![0.0; n_fft / 2 + 1];
        // Strong energy at 2 kHz — far below the band.
        let k = (2_000.0 / (fs / n_fft as f64)).round() as usize;
        ps[k] = 100.0;
        let energies = bank.apply(&ps).unwrap();
        assert!(energies.iter().all(|&e| e == 0.0));
    }

    #[test]
    fn filters_have_nonzero_support() {
        let bank = MelFilterBank::new(25, 4096, 48_000.0, 16_000.0, 20_000.0).unwrap();
        let flat = vec![1.0; 4096 / 2 + 1];
        let energies = bank.apply(&flat).unwrap();
        assert!(
            energies.iter().all(|&e| e > 0.0),
            "every filter must see at least one bin"
        );
    }
}
