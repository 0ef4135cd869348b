//! Linear convolution and auto-convolution.
//!
//! The parity-decomposition segmentation of EarSonar (paper §IV-B-3, Eq. 10)
//! locates echo symmetry centres at the extrema of the signal's
//! **auto-convolution** `(x * x)[m] = Σ_n x[n] x[m - n]` — note: convolution
//! with itself, not autocorrelation. Both a direct `O(N·M)` routine and an
//! FFT-based `O(N log N)` routine are provided; they agree to rounding.

use crate::fft::next_pow2;
use crate::plan::{DspScratch, RealFftPlan};

/// Full linear convolution of two real sequences, computed directly.
///
/// The output has length `a.len() + b.len() - 1` (empty if either input is
/// empty). Prefer [`convolve_fft_with`] for long inputs.
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

/// Full linear convolution of two real sequences via the FFT, written into
/// a caller-owned buffer with intermediates drawn from `scratch` —
/// allocation-free once the workspace is warm for this problem size.
///
/// Matches [`convolve`] up to floating-point rounding but runs in
/// `O(N log N)`. The FFT plan is sized from the input lengths and stays
/// resident for the life of the process ([`RealFftPlan::shared`]).
pub fn convolve_fft_with(scratch: &mut DspScratch, a: &[f64], b: &[f64], out: &mut Vec<f64>) {
    out.clear();
    if a.is_empty() || b.is_empty() {
        return;
    }
    let out_len = a.len() + b.len() - 1;
    let n = next_pow2(out_len);
    #[expect(
        clippy::expect_used,
        reason = "next_pow2 always yields a nonzero power of two, the only sizes a plan rejects"
    )]
    let plan = RealFftPlan::shared(n).expect("valid plan size");
    let mut work = scratch.take_complex();
    let mut fa = scratch.take_complex();
    let mut fb = scratch.take_complex();
    #[expect(
        clippy::expect_used,
        reason = "a.len() <= out_len <= n, so the input fits the padded plan"
    )]
    plan.forward_into(a, &mut work, &mut fa).expect("fits plan");
    #[expect(
        clippy::expect_used,
        reason = "b.len() <= out_len <= n, same bound as the line above"
    )]
    plan.forward_into(b, &mut work, &mut fb).expect("fits plan");
    for (x, &y) in fa.iter_mut().zip(fb.iter()) {
        *x *= y;
    }
    #[expect(
        clippy::expect_used,
        reason = "forward_into sized fa to exactly the planned n"
    )]
    plan.inverse_into(&fa, &mut work, out)
        .expect("planned size");
    out.truncate(out_len);
    scratch.put_complex(fb);
    scratch.put_complex(fa);
    scratch.put_complex(work);
}

/// Auto-convolution `(x * x)[m]`, the quantity maximized to find the parity
/// symmetry centre in the paper's echo segmentation (Eq. 10), written into
/// a caller-owned buffer via `scratch`.
///
/// Output length is `2 * x.len() - 1`. Index `m` of the output corresponds
/// to a candidate symmetry point at `m / 2` (half-sample resolution).
/// Short inputs use the direct algorithm (still allocation-free: the output
/// buffer is reused).
pub fn autoconvolve_with(scratch: &mut DspScratch, x: &[f64], out: &mut Vec<f64>) {
    if x.len() < 64 {
        out.clear();
        if x.is_empty() {
            return;
        }
        out.resize(2 * x.len() - 1, 0.0);
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            for (j, &xj) in x.iter().enumerate() {
                out[i + j] += xi * xj;
            }
        }
    } else {
        convolve_fft_with(scratch, x, x, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_inputs_give_empty_output() {
        assert!(convolve(&[], &[1.0]).is_empty());
        assert!(convolve(&[1.0], &[]).is_empty());
        let mut out = vec![1.0];
        convolve_fft_with(&mut DspScratch::new(), &[], &[1.0], &mut out);
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
    fn fft_convolution_matches_direct() {
        let a: Vec<f64> = (0..137).map(|i| ((i * 13 % 31) as f64) - 15.0).collect();
        let b: Vec<f64> = (0..83).map(|i| ((i * 7 % 17) as f64) * 0.1).collect();
        let direct = convolve(&a, &b);
        let mut fast = Vec::new();
        convolve_fft_with(&mut DspScratch::new(), &a, &b, &mut fast);
        assert_eq!(direct.len(), fast.len());
        for (d, f) in direct.iter().zip(&fast) {
            assert!((d - f).abs() < 1e-8, "{d} vs {f}");
        }
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
