//! Window (taper) functions.
//!
//! EarSonar passes each received chirp through a Hanning window "to reshape
//! the envelope of the signals and increase their peak-to-sidelobe ratio"
//! (paper §IV-B-1). The other classic tapers are provided for completeness.

use std::f64::consts::PI;

/// The supported window shapes.
///
/// # Example
///
/// ```
/// use earsonar_dsp::window::Window;
/// let w = Window::Hann.coefficients(8);
/// assert_eq!(w.len(), 8);
/// assert!(w[0].abs() < 1e-12); // Hann starts at zero
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Window {
    /// All-ones window (no tapering).
    Rectangular,
    /// Hann (a.k.a. Hanning) window — the paper's choice for pulse shaping.
    #[default]
    Hann,
    /// Hamming window.
    Hamming,
    /// Blackman window.
    Blackman,
}

impl Window {
    /// Returns the `n` window coefficients (symmetric/periodic-agnostic,
    /// computed with the symmetric convention `w[i] = f(i / (n-1))`).
    ///
    /// An `n` of zero yields an empty vector; `n == 1` yields `[1.0]`.
    pub fn coefficients(self, n: usize) -> Vec<f64> {
        match n {
            0 => Vec::new(),
            1 => vec![1.0],
            _ => (0..n).map(|i| self.coefficient(i, n)).collect(),
        }
    }

    /// Returns the `i`-th of `n` window coefficients.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `i >= n`.
    pub fn coefficient(self, i: usize, n: usize) -> f64 {
        debug_assert!(i < n);
        if n == 1 {
            return 1.0;
        }
        let x = i as f64 / (n - 1) as f64;
        match self {
            Window::Rectangular => 1.0,
            Window::Hann => 0.5 - 0.5 * (2.0 * PI * x).cos(),
            Window::Hamming => 0.54 - 0.46 * (2.0 * PI * x).cos(),
            Window::Blackman => 0.42 - 0.5 * (2.0 * PI * x).cos() + 0.08 * (4.0 * PI * x).cos(),
        }
    }

    /// Returns a windowed copy of `signal`.
    pub fn apply(self, signal: &[f64]) -> Vec<f64> {
        let n = signal.len();
        signal
            .iter()
            .enumerate()
            .map(|(i, &s)| s * self.coefficient(i, n.max(1)))
            .collect()
    }

    /// Multiplies `signal` by the window in place.
    ///
    /// This is the scalar reference path: it evaluates one cosine per
    /// sample. Hot loops should precompute the taps once with
    /// [`Window::coefficients_into`] and multiply with
    /// [`apply_precomputed`] — bit-identical, but without the per-sample
    /// transcendental.
    pub fn apply_in_place(self, signal: &mut [f64]) {
        let n = signal.len();
        for (i, s) in signal.iter_mut().enumerate() {
            *s *= self.coefficient(i, n);
        }
    }

    /// Writes the `n` window coefficients into a caller-owned buffer
    /// (cleared and refilled) — allocation-free once the buffer has grown.
    /// Values are exactly those of [`Window::coefficients`].
    pub fn coefficients_into(self, n: usize, out: &mut Vec<f64>) {
        out.clear();
        match n {
            0 => {}
            1 => out.push(1.0),
            _ => out.extend((0..n).map(|i| self.coefficient(i, n))),
        }
    }

    /// The incoherent (power) gain: mean of the squared coefficients. Used to
    /// normalize power-spectral-density estimates.
    pub fn power_gain(self, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        self.coefficients(n).iter().map(|w| w * w).sum::<f64>() / n as f64
    }
}

/// Multiplies `signal` by precomputed window taps (the four-lane
/// elementwise kernel, [`crate::simd::mul_in_place`]).
///
/// With `taps` from [`Window::coefficients_into`] for `signal.len()`,
/// this is **bit-identical** to [`Window::apply_in_place`]: the same
/// coefficient values multiply the same samples, elementwise, with no
/// reassociation. Pinned by `precomputed_apply_is_bit_identical` below
/// and `tests/kernel_equivalence.rs`.
#[inline]
pub fn apply_precomputed(taps: &[f64], signal: &mut [f64]) {
    crate::simd::mul_in_place(signal, taps);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precomputed_apply_is_bit_identical() {
        let mut taps = Vec::new();
        for win in [
            Window::Hann,
            Window::Hamming,
            Window::Blackman,
            Window::Rectangular,
        ] {
            for n in [1usize, 2, 3, 4, 5, 63, 64, 65, 240, 241] {
                let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin() * 2.0).collect();
                let mut expect = x.clone();
                win.apply_in_place(&mut expect);
                win.coefficients_into(n, &mut taps);
                let mut got = x;
                apply_precomputed(&taps, &mut got);
                assert_eq!(got, expect, "{win:?} n={n}");
            }
        }
    }

    #[test]
    fn rectangular_is_all_ones() {
        assert!(Window::Rectangular
            .coefficients(10)
            .iter()
            .all(|&w| w == 1.0));
    }

    #[test]
    fn hann_endpoints_are_zero_and_peak_is_one() {
        let w = Window::Hann.coefficients(101);
        assert!(w[0].abs() < 1e-12);
        assert!(w[100].abs() < 1e-12);
        assert!((w[50] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hamming_endpoints_are_the_classic_0_08() {
        let w = Window::Hamming.coefficients(51);
        assert!((w[0] - 0.08).abs() < 1e-12);
        assert!((w[50] - 0.08).abs() < 1e-12);
    }

    #[test]
    fn blackman_is_nonnegative_and_peaks_at_one() {
        let w = Window::Blackman.coefficients(65);
        assert!(w.iter().all(|&x| x >= -1e-12));
        assert!((w[32] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn windows_are_symmetric() {
        for win in [Window::Hann, Window::Hamming, Window::Blackman] {
            let w = win.coefficients(64);
            for i in 0..32 {
                assert!(
                    (w[i] - w[63 - i]).abs() < 1e-12,
                    "{win:?} asymmetric at {i}"
                );
            }
        }
    }

    #[test]
    fn apply_matches_coefficients() {
        let x = vec![2.0; 16];
        let y = Window::Hann.apply(&x);
        let w = Window::Hann.coefficients(16);
        for i in 0..16 {
            assert!((y[i] - 2.0 * w[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn apply_in_place_matches_apply() {
        let x: Vec<f64> = (0..32).map(|i| (i as f64).sin()).collect();
        let expect = Window::Blackman.apply(&x);
        let mut y = x;
        Window::Blackman.apply_in_place(&mut y);
        assert_eq!(y, expect);
    }

    #[test]
    fn degenerate_lengths() {
        assert!(Window::Hann.coefficients(0).is_empty());
        assert_eq!(Window::Hann.coefficients(1), vec![1.0]);
        assert_eq!(Window::Hann.apply(&[]), Vec::<f64>::new());
    }

    #[test]
    fn power_gain_is_in_unit_range_for_tapers() {
        for win in [Window::Hann, Window::Hamming, Window::Blackman] {
            let pg = win.power_gain(128);
            assert!(pg > 0.0 && pg < 1.0, "{win:?} power gain {pg}");
        }
        assert_eq!(Window::Rectangular.power_gain(64), 1.0);
    }

    #[test]
    fn default_window_is_hann() {
        assert_eq!(Window::default(), Window::Hann);
    }
}
