//! Goertzel band powers: DFT power at a few fixed frequencies.
//!
//! When only a handful of spectral points are needed — the 17 bins of the
//! echo spectrum around the 18 kHz dip, the ~23 bins the MFCC mel filters
//! touch — the Goertzel recursion computes each one in `O(N)` with two
//! state variables and no transform. [`Goertzel`] holds the recursion
//! coefficients `2·cos ω` of a set of probes, built once, and runs every
//! probe in one pass over the signal.

use crate::error::DspError;
use std::f64::consts::PI;
use std::ops::Range;

/// Goertzel probes at a fixed set of frequencies, with their coefficients
/// `2·cos ω` precomputed.
///
/// # Example
///
/// ```
/// use earsonar_dsp::goertzel::Goertzel;
/// // Bins 95, 96 and 97 of a 256-point DFT.
/// let probes = Goertzel::dft_bins(256, 95..98);
/// let x: Vec<f64> = (0..256)
///     .map(|i| (2.0 * std::f64::consts::PI * 96.0 * i as f64 / 256.0).cos())
///     .collect();
/// let mut power = Vec::new();
/// probes.powers_into(&x, &mut power);
/// // A cosine on bin 96 puts |N/2|² there and nothing in its neighbours.
/// assert!((power[1] / (128.0 * 128.0) - 1.0).abs() < 1e-9);
/// assert!(power[0] < 1e-6 && power[2] < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Goertzel {
    /// `2·cos ω` per probe, zero-padded to whole blocks of [`BLOCK`].
    coeffs: Vec<f64>,
    /// The number of probes.
    len: usize,
}

/// Probes whose recursions run side by side, their state in registers.
const BLOCK: usize = 8;

impl Goertzel {
    /// Probes at the angular frequencies `omegas`, in radians per sample.
    fn new(omegas: impl IntoIterator<Item = f64>) -> Self {
        let mut coeffs: Vec<f64> = omegas.into_iter().map(|w| 2.0 * w.cos()).collect();
        let len = coeffs.len();
        coeffs.resize(len.next_multiple_of(BLOCK), 0.0);
        Goertzel { coeffs, len }
    }

    /// Probes at bins `bins` of an `n`-point DFT: bin `k` is
    /// `ω = 2πk / n`. A signal of at most `n` samples gives the power of
    /// its zero-padded `n`-point spectrum at those bins.
    pub fn dft_bins(n: usize, bins: Range<usize>) -> Self {
        Goertzel::new(bins.map(|k| 2.0 * PI * k as f64 / n as f64))
    }

    /// Writes `|Σ_t x[t] e^{-iωt}|²` for every probe, in probe order, to
    /// `out` (cleared and refilled; allocation-free once it has grown to
    /// the probe count). A block of probes advances together through the
    /// signal, one sample at a time. An empty signal has zero power
    /// everywhere.
    // lint: hot-path
    pub fn powers_into(&self, x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        for c in self.coeffs.as_chunks::<BLOCK>().0 {
            // s1 = s[t - 1], s2 = s[t - 2] per probe.
            let (mut s1, mut s2) = ([0.0; BLOCK], [0.0; BLOCK]);
            for &v in x {
                for q in 0..BLOCK {
                    let s = c[q] * s1[q] + (v - s2[q]);
                    s2[q] = s1[q];
                    s1[q] = s;
                }
            }
            // Exactly non-negative in real arithmetic; rounding may not be.
            out.extend(
                (0..BLOCK).map(|q| (s1[q] * s1[q] + s2[q] * s2[q] - c[q] * s1[q] * s2[q]).max(0.0)),
            );
        }
        out.truncate(self.len);
    }
}

/// Magnitude of the DFT of `signal` at `f_hz` (sample rate `fs`): the
/// one-probe [`Goertzel`].
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for an empty signal and
/// [`DspError::InvalidParameter`] if `fs <= 0`.
pub fn goertzel_magnitude(signal: &[f64], f_hz: f64, fs: f64) -> Result<f64, DspError> {
    if signal.is_empty() {
        return Err(DspError::EmptyInput);
    }
    if !(fs > 0.0) {
        return Err(DspError::InvalidParameter {
            name: "fs",
            constraint: "sample rate must be positive",
        });
    }
    let mut power = Vec::with_capacity(BLOCK);
    Goertzel::new([2.0 * PI * f_hz / fs]).powers_into(signal, &mut power);
    Ok(power[0].sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::frequency_bin;
    use crate::plan::FftPlan;

    #[test]
    fn magnitude_matches_fft_bin() {
        let fs = 48_000.0;
        let n = 1024;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                (2.0 * PI * 3_000.0 * i as f64 / fs).sin()
                    + 0.5 * (2.0 * PI * 9_000.0 * i as f64 / fs).cos()
            })
            .collect();
        let mut spec = Vec::new();
        FftPlan::shared(n).unwrap().forward_from_real(&x, &mut spec);
        for f in [3_000.0, 9_000.0] {
            let k = frequency_bin(f, n, fs);
            let g = goertzel_magnitude(&x, f, fs).unwrap();
            let reference = spec[k].norm();
            assert!(
                (g - reference).abs() / reference < 1e-6,
                "f={f}: goertzel {g} vs fft {reference}"
            );
        }
    }

    #[test]
    fn off_frequency_bin_is_small() {
        let fs = 48_000.0;
        let n = 4800; // exactly 100 ms: integer cycles of both probes
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * 18_000.0 * i as f64 / fs).sin())
            .collect();
        let on = goertzel_magnitude(&x, 18_000.0, fs).unwrap();
        let off = goertzel_magnitude(&x, 10_000.0, fs).unwrap();
        assert!(on > 100.0 * off, "on {on}, off {off}");
    }

    #[test]
    fn errors_on_bad_input() {
        assert!(goertzel_magnitude(&[], 1_000.0, 48_000.0).is_err());
        assert!(goertzel_magnitude(&[1.0], 1_000.0, 0.0).is_err());
    }

    #[test]
    fn dc_bin_is_sum() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let g = goertzel_magnitude(&x, 0.0, 48_000.0).unwrap();
        assert!((g - 10.0).abs() < 1e-9);
    }

    #[test]
    fn magnitude_scales_linearly() {
        let fs = 48_000.0;
        let x: Vec<f64> = (0..960)
            .map(|i| (2.0 * PI * 6_000.0 * i as f64 / fs).sin())
            .collect();
        let x3: Vec<f64> = x.iter().map(|v| 3.0 * v).collect();
        let a = goertzel_magnitude(&x, 6_000.0, fs).unwrap();
        let b = goertzel_magnitude(&x3, 6_000.0, fs).unwrap();
        assert!((b / a - 3.0).abs() < 1e-9);
    }
}
