//! The Hann (Hanning) taper.
//!
//! EarSonar passes each received chirp through a Hanning window "to reshape
//! the envelope of the signals and increase their peak-to-sidelobe ratio"
//! (paper §IV-B-1). It is the only taper the pipeline uses.

use std::f64::consts::PI;

/// The `i`-th of `n` Hann coefficients, with the symmetric convention
/// `w[i] = 0.5 − 0.5·cos(2π·i / (n−1))`; a one-sample window is `[1.0]`.
fn hann(i: usize, n: usize) -> f64 {
    debug_assert!(i < n);
    if n == 1 {
        return 1.0;
    }
    let x = i as f64 / (n - 1) as f64;
    0.5 - 0.5 * (2.0 * PI * x).cos()
}

/// Writes the `n` Hann taps into a caller-owned buffer (cleared and
/// refilled) — allocation-free once the buffer has grown. An `n` of zero
/// leaves it empty.
///
/// # Example
///
/// ```
/// let mut w = Vec::new();
/// earsonar_dsp::window::hann_into(8, &mut w);
/// assert_eq!(w.len(), 8);
/// assert!(w[0].abs() < 1e-12); // Hann starts at zero
/// ```
pub fn hann_into(n: usize, out: &mut Vec<f64>) {
    out.clear();
    out.extend((0..n).map(|i| hann(i, n)));
}

/// Multiplies `signal` by the Hann window of its own length, in place.
///
/// This is the scalar reference path: it evaluates one cosine per
/// sample. Hot loops should precompute the taps once with [`hann_into`]
/// and multiply with [`apply_precomputed`] — bit-identical, but without
/// the per-sample transcendental.
pub fn hann_in_place(signal: &mut [f64]) {
    let n = signal.len();
    for (i, s) in signal.iter_mut().enumerate() {
        *s *= hann(i, n);
    }
}

/// Multiplies `signal` by precomputed window taps, elementwise over the
/// common prefix (a plain loop the compiler vectorizes).
///
/// With `taps` from [`hann_into`] for `signal.len()`, this is
/// **bit-identical** to [`hann_in_place`]: the same coefficient values
/// multiply the same samples, with no reassociation. Pinned by
/// `precomputed_apply_is_bit_identical` below and
/// `tests/kernel_equivalence.rs`.
#[inline]
pub fn apply_precomputed(taps: &[f64], signal: &mut [f64]) {
    for (s, &w) in signal.iter_mut().zip(taps) {
        *s *= w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precomputed_apply_is_bit_identical() {
        let mut taps = Vec::new();
        for n in [1usize, 2, 3, 4, 5, 63, 64, 65, 240, 241] {
            let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin() * 2.0).collect();
            let mut expect = x.clone();
            hann_in_place(&mut expect);
            hann_into(n, &mut taps);
            let mut got = x;
            apply_precomputed(&taps, &mut got);
            assert_eq!(got, expect, "n={n}");
        }
    }

    #[test]
    fn hann_endpoints_are_zero_and_peak_is_one() {
        let mut w = Vec::new();
        hann_into(101, &mut w);
        assert!(w[0].abs() < 1e-12);
        assert!(w[100].abs() < 1e-12);
        assert!((w[50] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hann_is_symmetric() {
        let mut w = Vec::new();
        hann_into(64, &mut w);
        for i in 0..32 {
            assert!((w[i] - w[63 - i]).abs() < 1e-12, "asymmetric at {i}");
        }
    }

    #[test]
    fn in_place_matches_taps() {
        let mut y = vec![2.0; 16];
        hann_in_place(&mut y);
        let mut w = Vec::new();
        hann_into(16, &mut w);
        for i in 0..16 {
            assert!((y[i] - 2.0 * w[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn degenerate_lengths() {
        let mut w = vec![5.0];
        hann_into(0, &mut w);
        assert!(w.is_empty());
        hann_into(1, &mut w);
        assert_eq!(w, vec![1.0]);
        hann_in_place(&mut []);
    }
}
