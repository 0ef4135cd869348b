//! Goertzel algorithm: single-frequency DFT probes.
//!
//! When only a handful of spectral points are needed (e.g. probing the
//! 18 kHz dip depth without a full FFT), the Goertzel recursion computes one
//! DFT bin in `O(N)` with two state variables.

use crate::complex::Complex64;
use crate::error::DspError;
use std::f64::consts::PI;

/// Computes the DFT of `signal` at the single frequency `f_hz` (sample rate
/// `fs`), equivalent to `Σ_n x[n] e^{-2πi f n / fs}`.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for an empty signal and
/// [`DspError::InvalidParameter`] if `fs <= 0`.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), earsonar_dsp::DspError> {
/// use earsonar_dsp::goertzel::goertzel;
/// let fs = 48_000.0;
/// let x: Vec<f64> = (0..4800)
///     .map(|i| (2.0 * std::f64::consts::PI * 18_000.0 * i as f64 / fs).cos())
///     .collect();
/// let z = goertzel(&x, 18_000.0, fs)?;
/// // A matched cosine accumulates ~N/2 in magnitude.
/// assert!(z.norm() > 0.9 * 2400.0);
/// # Ok(())
/// # }
/// ```
pub fn goertzel(signal: &[f64], f_hz: f64, fs: f64) -> Result<Complex64, DspError> {
    if signal.is_empty() {
        return Err(DspError::EmptyInput);
    }
    if !(fs > 0.0) {
        return Err(DspError::InvalidParameter {
            name: "fs",
            constraint: "sample rate must be positive",
        });
    }
    let omega = 2.0 * PI * f_hz / fs;
    let coeff = 2.0 * omega.cos();
    let mut s_prev = 0.0f64;
    let mut s_prev2 = 0.0f64;
    for &x in signal {
        let s = x + coeff * s_prev - s_prev2;
        s_prev2 = s_prev;
        s_prev = s;
    }
    // Finalization: X(ω) = (s[N-1] - e^{-iω} s[N-2]) e^{-iω(N-1)} matches
    // the textbook DFT Σ_n x[n] e^{-iωn}.
    let y = Complex64::new(s_prev - s_prev2 * omega.cos(), s_prev2 * omega.sin());
    let n = signal.len() as f64;
    Ok(y * Complex64::cis(-omega * (n - 1.0)))
}

/// Magnitude of the single-bin DFT at `f_hz` — phase-free, which sidesteps
/// finalization-convention differences.
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
    let omega = 2.0 * PI * f_hz / fs;
    let coeff = 2.0 * omega.cos();
    let mut s_prev = 0.0f64;
    let mut s_prev2 = 0.0f64;
    for &x in signal {
        let s = x + coeff * s_prev - s_prev2;
        s_prev2 = s_prev;
        s_prev = s;
    }
    let power = s_prev * s_prev + s_prev2 * s_prev2 - coeff * s_prev * s_prev2;
    Ok(power.max(0.0).sqrt())
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
        assert!(goertzel(&[], 1_000.0, 48_000.0).is_err());
        assert!(goertzel(&[1.0], 1_000.0, 0.0).is_err());
        assert!(goertzel_magnitude(&[], 1_000.0, 48_000.0).is_err());
    }

    #[test]
    fn complex_goertzel_matches_naive_dft() {
        let fs = 48_000.0;
        let x: Vec<f64> = (0..61)
            .map(|i| ((i * 17 % 23) as f64) / 10.0 - 1.0)
            .collect();
        for f in [0.0, 1_234.5, 18_000.0, 23_999.0] {
            let omega = 2.0 * PI * f / fs;
            let naive: Complex64 = x
                .iter()
                .enumerate()
                .map(|(n, &v)| Complex64::cis(-omega * n as f64) * v)
                .sum();
            let g = goertzel(&x, f, fs).unwrap();
            assert!((g - naive).norm() < 1e-8, "f={f}: {g} vs {naive}");
        }
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
