//! Linear convolution and auto-convolution.
//!
//! The parity-decomposition segmentation of EarSonar (paper §IV-B-3, Eq. 10)
//! locates echo symmetry centres at the extrema of the signal's
//! **auto-convolution** `(x * x)[m] = Σ_n x[n] x[m - n]` — note: convolution
//! with itself, not autocorrelation. [`convolve`] is the direct `O(N·M)`
//! routine; [`autoconvolve_with`] switches to the FFT for long inputs, and
//! the two agree to rounding.

use crate::fft::next_pow2;
use crate::plan::{DspScratch, RealFftPlan};

/// Full linear convolution of two real sequences, computed directly.
///
/// The output has length `a.len() + b.len() - 1` (empty if either input is
/// empty).
///
/// # Example
///
/// ```
/// use earsonar_dsp::convolution::convolve;
/// assert_eq!(convolve(&[1.0, 2.0], &[1.0, 1.0]), vec![1.0, 3.0, 2.0]);
/// ```
pub fn convolve(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0.0; a.len() + b.len() - 1];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0.0 {
            continue;
        }
        for (j, &bj) in b.iter().enumerate() {
            out[i + j] += ai * bj;
        }
    }
    out
}

/// Auto-convolution `(x * x)[m]`, the quantity maximized to find the parity
/// symmetry centre in the paper's echo segmentation (Eq. 10), written into
/// a caller-owned buffer via `scratch`.
///
/// Output length is `2 * x.len() - 1`. Index `m` of the output corresponds
/// to a candidate symmetry point at `m / 2` (half-sample resolution).
/// Inputs shorter than 64 samples use the direct algorithm, the same sum
/// in the same order as [`convolve`]`(x, x)`; longer ones transform `x`
/// once, square its spectrum and transform back, matching [`convolve`] up
/// to floating-point rounding in `O(N log N)`. Either way the call is
/// allocation-free once `out` and the workspace are warm for this size.
/// The FFT plan stays resident for the life of the process
/// ([`RealFftPlan::shared`]).
pub fn autoconvolve_with(scratch: &mut DspScratch, x: &[f64], out: &mut Vec<f64>) {
    out.clear();
    if x.is_empty() {
        return;
    }
    let out_len = 2 * x.len() - 1;
    if x.len() < 64 {
        out.resize(out_len, 0.0);
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            for (j, &xj) in x.iter().enumerate() {
                out[i + j] += xi * xj;
            }
        }
        return;
    }
    let n = next_pow2(out_len);
    #[expect(
        clippy::expect_used,
        reason = "next_pow2 always yields a nonzero power of two, the only sizes a plan rejects"
    )]
    let plan = RealFftPlan::shared(n).expect("valid plan size");
    let mut work = scratch.take_complex();
    let mut spectrum = scratch.take_complex();
    #[expect(
        clippy::expect_used,
        reason = "x.len() <= out_len <= n, so the input fits the padded plan"
    )]
    plan.forward_into(x, &mut work, &mut spectrum)
        .expect("fits plan");
    for z in spectrum.iter_mut() {
        let w = *z;
        *z *= w;
    }
    #[expect(
        clippy::expect_used,
        reason = "forward_into sized the spectrum to exactly the planned n"
    )]
    plan.inverse_into(&spectrum, &mut work, out)
        .expect("planned size");
    out.truncate(out_len);
    scratch.put_complex(spectrum);
    scratch.put_complex(work);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_inputs_give_empty_output() {
        assert!(convolve(&[], &[1.0]).is_empty());
        assert!(convolve(&[1.0], &[]).is_empty());
        let mut out = vec![1.0];
        autoconvolve_with(&mut DspScratch::new(), &[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn identity_kernel_preserves_signal() {
        let x = [3.0, -1.0, 4.0, 1.0, -5.0];
        assert_eq!(convolve(&x, &[1.0]), x.to_vec());
    }

    #[test]
    fn known_small_case() {
        let y = convolve(&[1.0, 2.0, 3.0], &[0.0, 1.0, 0.5]);
        assert_eq!(y, vec![0.0, 1.0, 2.5, 4.0, 1.5]);
    }

    #[test]
    fn convolution_is_commutative() {
        let a = [1.0, -2.0, 0.5, 3.0];
        let b = [0.25, 4.0, -1.0];
        assert_eq!(convolve(&a, &b), convolve(&b, &a));
    }

    #[test]
    fn autoconvolve_length() {
        let x = vec![1.0; 10];
        let mut ac = Vec::new();
        autoconvolve_with(&mut DspScratch::new(), &x, &mut ac);
        assert_eq!(ac.len(), 19);
    }

    #[test]
    fn long_autoconvolution_uses_fft_and_matches_direct() {
        let x: Vec<f64> = (0..200)
            .map(|i| ((i * 31 % 101) as f64) / 50.0 - 1.0)
            .collect();
        let mut fast = Vec::new();
        autoconvolve_with(&mut DspScratch::new(), &x, &mut fast);
        let direct = convolve(&x, &x);
        for (f, d) in fast.iter().zip(&direct) {
            assert!((f - d).abs() < 1e-7);
        }
    }
}
