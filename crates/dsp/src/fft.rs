//! FFT sizing and bin arithmetic.
//!
//! EarSonar uses the FFT for echo power spectra (paper §IV-C-1), MFCC
//! extraction, and fast auto-convolution in the segmentation stage. The
//! transforms themselves are the planned ones in [`crate::plan`]; this
//! module holds the helpers every caller shares: power-of-two padding and
//! the bin ↔ frequency mapping.

/// Returns the smallest power of two that is `>= n` (and at least 1).
///
/// # Example
///
/// ```
/// assert_eq!(earsonar_dsp::fft::next_pow2(1000), 1024);
/// assert_eq!(earsonar_dsp::fft::next_pow2(1024), 1024);
/// assert_eq!(earsonar_dsp::fft::next_pow2(0), 1);
/// ```
pub fn next_pow2(n: usize) -> usize {
    if n <= 1 {
        1
    } else {
        usize::pow(2, usize::BITS - (n - 1).leading_zeros())
    }
}

/// Returns `true` if `n` is a power of two (and non-zero).
pub fn is_pow2(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Returns the frequency in hertz of FFT bin `k` for an `n`-point transform
/// at sample rate `fs` (bins above Nyquist map to negative frequencies).
///
/// # Example
///
/// ```
/// use earsonar_dsp::fft::bin_frequency;
/// assert_eq!(bin_frequency(0, 1024, 48_000.0), 0.0);
/// assert_eq!(bin_frequency(512, 1024, 48_000.0), -24_000.0);
/// ```
pub fn bin_frequency(k: usize, n: usize, fs: f64) -> f64 {
    let k = k % n;
    if k <= n / 2 && !(k == n / 2 && n.is_multiple_of(2)) {
        k as f64 * fs / n as f64
    } else {
        (k as f64 - n as f64) * fs / n as f64
    }
}

/// Returns the FFT bin index closest to frequency `f_hz` for an `n`-point
/// transform at sample rate `fs`.
///
/// # Panics
///
/// Panics in debug builds if `fs <= 0`.
pub fn frequency_bin(f_hz: f64, n: usize, fs: f64) -> usize {
    debug_assert!(fs > 0.0);
    let k = (f_hz / fs * n as f64).round() as isize;
    k.rem_euclid(n as isize) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FftPlan;
    use std::f64::consts::PI;

    fn assert_close(a: f64, b: f64, eps: f64) {
        assert!((a - b).abs() < eps, "{a} != {b} (eps {eps})");
    }

    #[test]
    fn next_pow2_edge_cases() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(4), 4);
        assert_eq!(next_pow2(5), 8);
        assert_eq!(next_pow2((1 << 20) + 1), 1 << 21);
    }

    #[test]
    fn is_pow2_edge_cases() {
        assert!(!is_pow2(0));
        assert!(is_pow2(1));
        assert!(!is_pow2(3));
        assert!(is_pow2(1 << 40));
    }

    #[test]
    fn sine_lands_in_expected_bin() {
        let fs = 48_000.0;
        let n = 2048;
        let f = 18_000.0;
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * f * i as f64 / fs).sin())
            .collect();
        let mut spec = Vec::new();
        FftPlan::shared(n).unwrap().forward_from_real(&x, &mut spec);
        let k = frequency_bin(f, n, fs);
        let mag_k = spec[k].norm();
        // Energy concentrated at bin k: magnitude ~ n/2 for unit sine.
        assert!(mag_k > 0.9 * n as f64 / 2.0, "mag {mag_k}");
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let x: Vec<f64> = (0..128).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let n = x.len();
        let mut spec = Vec::new();
        FftPlan::shared(n).unwrap().forward_from_real(&x, &mut spec);
        let time_energy: f64 = x.iter().map(|v| v * v).sum();
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert_close(time_energy, freq_energy, 1e-8);
    }

    #[test]
    fn bin_frequency_maps_both_halves() {
        assert_close(bin_frequency(1, 1024, 48_000.0), 46.875, 1e-9);
        assert_close(bin_frequency(1023, 1024, 48_000.0), -46.875, 1e-9);
    }

    #[test]
    fn frequency_bin_round_trips() {
        let n = 4096;
        let fs = 48_000.0;
        for f in [0.0, 1000.0, 16_000.0, 18_000.0, 20_000.0] {
            let k = frequency_bin(f, n, fs);
            assert!((bin_frequency(k, n, fs) - f).abs() <= fs / n as f64 / 2.0 + 1e-9);
        }
    }
}
