//! Analytic signal and envelope via the Hilbert transform.
//!
//! Band-pass signals (like EarSonar's 16–20 kHz impulse responses)
//! oscillate at the carrier; their *envelope* — the magnitude of the
//! analytic signal — is what localizes a pulse. Computed by zeroing the
//! negative-frequency half of the spectrum.

use crate::complex::Complex64;
use crate::fft::next_pow2;
use crate::plan::{DspScratch, FftPlan, RealFftPlan};

/// Computes the analytic signal of `x` (zero-padded to a power of two;
/// only the first `x.len()` samples are returned) into a caller-owned
/// buffer, with intermediates drawn from `scratch` — allocation-free once
/// warm. The FFT plans are sized from the input length and stay resident
/// for the life of the process ([`FftPlan::shared`]).
pub fn analytic_signal_with(scratch: &mut DspScratch, x: &[f64], out: &mut Vec<Complex64>) {
    out.clear();
    if x.is_empty() {
        return;
    }
    let n = next_pow2(x.len());
    #[expect(
        clippy::expect_used,
        reason = "next_pow2 always yields a nonzero power of two, which a plan never rejects"
    )]
    let rplan = RealFftPlan::shared(n).expect("valid plan size");
    #[expect(
        clippy::expect_used,
        reason = "same power-of-two n as the real plan above"
    )]
    let cplan = FftPlan::shared(n).expect("valid plan size");
    let mut work = scratch.take_complex();
    let mut spec = scratch.take_complex();
    #[expect(
        clippy::expect_used,
        reason = "x.len() <= n by construction of n, so the input fits the padded plan"
    )]
    rplan
        .forward_into(x, &mut work, &mut spec)
        .expect("fits plan");
    // One-sided doubling: keep DC and Nyquist, double positives, zero
    // negatives.
    let half = n / 2;
    for (k, z) in spec.iter_mut().enumerate() {
        if k == 0 || k == half {
            // unchanged
        } else if k < half {
            *z = z.scale(2.0);
        } else {
            *z = Complex64::ZERO;
        }
    }
    #[expect(
        clippy::expect_used,
        reason = "forward_into sized spec to exactly the planned n"
    )]
    cplan.inverse(&mut spec).expect("planned size");
    out.extend_from_slice(&spec[..x.len()]);
    scratch.put_complex(spec);
    scratch.put_complex(work);
}

/// The envelope `|analytic(x)|` of a signal, written into a caller-owned
/// buffer via `scratch`.
///
/// # Example
///
/// ```
/// use earsonar_dsp::hilbert::envelope_with;
/// use earsonar_dsp::plan::DspScratch;
/// // The envelope of a pure tone is (nearly) constant.
/// let x: Vec<f64> = (0..256)
///     .map(|i| (2.0 * std::f64::consts::PI * 0.25 * i as f64).sin())
///     .collect();
/// let mut env = Vec::new();
/// envelope_with(&mut DspScratch::new(), &x, &mut env);
/// assert!(env[64..192].iter().all(|&e| (e - 1.0).abs() < 0.05));
/// ```
pub fn envelope_with(scratch: &mut DspScratch, x: &[f64], out: &mut Vec<f64>) {
    let mut analytic = scratch.take_complex();
    analytic_signal_with(scratch, x, &mut analytic);
    out.clear();
    out.extend(analytic.iter().map(|z| z.norm()));
    scratch.put_complex(analytic);
}

/// Subsample peak position of `x` near index `guess` (searching ±`radius`)
/// by parabolic interpolation of the three samples around the discrete
/// maximum. Returns `None` for empty input.
pub fn refine_peak(x: &[f64], guess: usize, radius: usize) -> Option<f64> {
    if x.is_empty() {
        return None;
    }
    let lo = guess.saturating_sub(radius);
    let hi = (guess + radius + 1).min(x.len());
    let k = (lo..hi).max_by(|&a, &b| x[a].total_cmp(&x[b]))?;
    if k == 0 || k + 1 >= x.len() {
        return Some(k as f64);
    }
    let (y0, y1, y2) = (x[k - 1], x[k], x[k + 1]);
    let denom = y0 - 2.0 * y1 + y2;
    if denom.abs() < 1e-30 {
        return Some(k as f64);
    }
    let delta = 0.5 * (y0 - y2) / denom;
    Some(k as f64 + delta.clamp(-1.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn envelope_of_gaussian_burst_tracks_gaussian() {
        let n = 512;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let t = (i as f64 - 256.0) / 40.0;
                (-t * t).exp() * (2.0 * PI * 0.3 * i as f64).sin()
            })
            .collect();
        let mut env = Vec::new();
        envelope_with(&mut DspScratch::new(), &x, &mut env);
        // Envelope peaks near the burst centre with ~unit height.
        let peak = (0..n).max_by(|&a, &b| env[a].total_cmp(&env[b])).unwrap();
        assert!((peak as isize - 256).abs() < 4, "peak at {peak}");
        assert!((env[peak] - 1.0).abs() < 0.05);
    }

    #[test]
    fn analytic_signal_real_part_is_input() {
        let x: Vec<f64> = (0..128).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut a = Vec::new();
        analytic_signal_with(&mut DspScratch::new(), &x, &mut a);
        for (orig, z) in x.iter().zip(&a) {
            assert!((orig - z.re).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_input() {
        let mut scratch = DspScratch::new();
        let (mut a, mut env) = (vec![Complex64::ONE], vec![1.0]);
        analytic_signal_with(&mut scratch, &[], &mut a);
        envelope_with(&mut scratch, &[], &mut env);
        assert!(a.is_empty() && env.is_empty());
        assert_eq!(refine_peak(&[], 0, 2), None);
    }

    #[test]
    fn refine_peak_finds_subsample_position() {
        // Samples of a parabola peaking at 5.3.
        let x: Vec<f64> = (0..10)
            .map(|i| 10.0 - (i as f64 - 5.3) * (i as f64 - 5.3))
            .collect();
        let p = refine_peak(&x, 5, 3).unwrap();
        assert!((p - 5.3).abs() < 1e-9, "{p}");
    }

    #[test]
    fn refine_peak_at_edges_degrades_gracefully() {
        let x = [3.0, 2.0, 1.0];
        assert_eq!(refine_peak(&x, 0, 1), Some(0.0));
        let y = [1.0, 2.0, 3.0];
        assert_eq!(refine_peak(&y, 2, 1), Some(2.0));
    }
}
