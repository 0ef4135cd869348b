//! Multipath propagation.
//!
//! Inside the ear canal the transmitted chirp reaches the microphone over
//! several paths: the direct speaker→microphone leak, reflections off the
//! canal walls, and the eardrum echo (paper Eq. 4–5). Each path contributes
//! a delayed, attenuated — and for the eardrum, spectrally shaped — copy of
//! the transmitted signal.
//!
//! Every spectral operation runs on the process-wide FFT plan of its size:
//! [`delay_fractional_allpass_with`] (buffers from a caller-owned
//! [`DspScratch`]) and [`apply_frequency_response`] for one copy,
//! [`AllpassDelay`] for delaying many signals by one amount with one
//! transform in all, [`SpectralDelayLine`] for accumulating many delayed
//! copies of one signal with a *single* inverse transform — the hot path
//! of the recording simulator.

use crate::constants::SPEED_OF_SOUND_AIR;
use earsonar_dsp::complex::Complex64;
use earsonar_dsp::error::DspError;
use earsonar_dsp::fft::next_pow2;
use earsonar_dsp::plan::{DspScratch, FftPlan, RealFftPlan};
use std::f64::consts::PI;

/// Round-trip delay in seconds to a reflector at `distance_m` metres in air.
pub fn round_trip_delay(distance_m: f64) -> f64 {
    2.0 * distance_m / SPEED_OF_SOUND_AIR
}

/// Round-trip delay in samples (fractional) at sample rate `fs`.
pub fn round_trip_delay_samples(distance_m: f64, fs: f64) -> f64 {
    round_trip_delay(distance_m) * fs
}

/// Distance (m) corresponding to a round-trip delay of `samples` samples.
pub fn distance_from_delay_samples(samples: f64, fs: f64) -> f64 {
    samples / fs * SPEED_OF_SOUND_AIR / 2.0
}

/// Signed frequency of bin `k` in an `n`-point FFT, in cycles/sample.
///
/// Bins up to `n/2` map to `[0, 0.5]`; bins above map to the negative
/// frequencies `(-0.5, 0)`. Every spectral loop in this module (delay phase
/// ramps, real frequency responses) derives its per-bin frequency from this
/// one mapping, so the conventions cannot drift apart.
pub fn signed_bin_frequency(k: usize, n: usize) -> f64 {
    if k <= n / 2 {
        k as f64 / n as f64
    } else {
        k as f64 / n as f64 - 1.0
    }
}

/// The per-bin spectral multiplier of an allpass fractional delay:
/// `exp(-2πi f_k d)` with the **Nyquist bin kept real**.
///
/// For even `n` the Nyquist bin (`k == n/2`) has no conjugate partner; a
/// complex multiplier there would make the inverse transform of a real
/// signal complex. The standard treatment — taking the real part of the
/// phase factor, `cos(π d)` — preserves realness at the cost of attenuating
/// the Nyquist component (to zero at half-sample delays). This is pinned by
/// a regression test.
pub fn delay_phase_multiplier(k: usize, n: usize, delay_samples: f64) -> Complex64 {
    let f = signed_bin_frequency(k, n);
    let phase = -2.0 * PI * f * delay_samples;
    if n.is_multiple_of(2) && k == n / 2 {
        Complex64::from_real(phase.cos())
    } else {
        Complex64::cis(phase)
    }
}

/// Delays `x` by a fractional number of samples with an **allpass**
/// frequency-domain phase shift: the magnitude response is exactly flat
/// (linear interpolation would droop toward Nyquist), which matters when
/// the delayed signal's in-band spectrum is the measurand.
///
/// The result is written to `out` (`out_len` samples; a negative delay
/// gives silence). This is [`AllpassDelay::new`] for `x`'s length followed
/// by [`AllpassDelay::apply`]: the transform size is
/// `next_pow2(x.len() + ⌈delay⌉ + 1)`, and the kernel's intermediate
/// buffers come from `scratch`. Callers that delay many signals of one
/// length by one amount build the [`AllpassDelay`] once instead.
///
/// # Errors
///
/// Propagates plan errors (not reachable for the sizes chosen here).
pub fn delay_fractional_allpass_with(
    x: &[f64],
    delay_samples: f64,
    out_len: usize,
    scratch: &mut DspScratch,
    out: &mut Vec<f64>,
) -> Result<(), DspError> {
    AllpassDelay::new(delay_samples, x.len(), scratch)?.apply(x, out_len, out)
}

/// Outputs an [`AllpassDelay`] computes together.
const BLOCK: usize = 8;

/// An allpass fractional delay by one amount, for inputs of one transform
/// size `n`, held as its real kernel `h = IFFT(M)`, where
/// `M[k] = delay_phase_multiplier(k, n, delay)`
/// ([`delay_phase_multiplier`]).
///
/// Multiplying a spectrum by `M` is a circular convolution with `h`, so
/// once the kernel is built (one `n`-point inverse transform) each
/// [`AllpassDelay::apply`] is a direct convolution with no transform.
///
/// # Example
///
/// ```
/// use earsonar_acoustics::propagation::AllpassDelay;
/// use earsonar_dsp::plan::DspScratch;
///
/// // One delay of 2.5 samples for every 4-sample input.
/// let delay = AllpassDelay::new(2.5, 4, &mut DspScratch::new()).unwrap();
/// let mut out = Vec::new();
/// delay.apply(&[0.0, 1.0, 0.0, 0.0], 8, &mut out).unwrap();
/// // The impulse now straddles samples 3 and 4.
/// assert!(out[3] > 0.5 && out[4] > 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct AllpassDelay {
    /// The transform size `n`.
    n: usize,
    /// `⌈delay⌉ + 1`: an input of `len` samples needs
    /// `next_pow2(len + lead)` points.
    lead: usize,
    /// The kernel repeated: `taps[i] = h[i mod n]` for `i < 2n`, so input
    /// sample `j` adds `x[j] · taps[n - j + t]` to output sample `t`; then
    /// [`BLOCK`] zeros, so a block of outputs always has taps to read.
    /// Empty for a negative delay, which gives silence.
    taps: Vec<f64>,
}

impl AllpassDelay {
    /// The delay by `delay_samples` for inputs of `input_len` samples (or
    /// of any length that needs the same transform size). The phase
    /// multipliers and the inverse transform's buffers come from
    /// `scratch`.
    ///
    /// # Errors
    ///
    /// Propagates plan errors (not reachable for the sizes chosen here).
    pub fn new(
        delay_samples: f64,
        input_len: usize,
        scratch: &mut DspScratch,
    ) -> Result<Self, DspError> {
        let lead = delay_samples.ceil() as usize + 1;
        let n = next_pow2(input_len + lead);
        let mut taps = Vec::new();
        // A NaN delay is not negative: it builds a NaN kernel, not silence.
        if !(delay_samples < 0.0) {
            let plan = RealFftPlan::shared(n)?;
            // Bins above n/2 are the conjugates of those below; the real
            // inverse reads only `0..=n/2`.
            let mut multipliers = scratch.take_complex();
            multipliers.extend((0..=n / 2).map(|k| delay_phase_multiplier(k, n, delay_samples)));
            multipliers.resize(n, Complex64::ZERO);
            let mut work = scratch.take_complex();
            let mut h = scratch.take_real();
            let inverted = plan.inverse_into(&multipliers, &mut work, &mut h);
            if inverted.is_ok() {
                taps.extend_from_slice(&h);
                taps.extend_from_slice(&h);
                taps.resize(2 * n + BLOCK, 0.0);
            }
            scratch.put_real(h);
            scratch.put_complex(work);
            scratch.put_complex(multipliers);
            inverted?;
        }
        Ok(AllpassDelay { n, lead, taps })
    }

    /// Writes `x` delayed to `out`: `out_len` samples, of which the first
    /// `n` carry the circular convolution of `x` with the kernel and the
    /// rest are zero, exactly as the spectral phase shift at size `n`
    /// would give. An empty input or a negative delay gives silence.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidLength`] if `x` needs a different
    /// transform size than the one the delay was built for.
    pub fn apply(&self, x: &[f64], out_len: usize, out: &mut Vec<f64>) -> Result<(), DspError> {
        out.clear();
        out.resize(out_len, 0.0);
        if self.taps.is_empty() || x.is_empty() {
            return Ok(());
        }
        let n = self.n;
        if next_pow2(x.len() + self.lead) != n {
            return Err(DspError::InvalidLength {
                expected: "an input of the transform size the delay was built for",
                actual: x.len(),
            });
        }
        // y[t] = Σ_j x[j] h[(t - j) mod n], summed over j in order, for a
        // block of consecutive outputs at a time: the block's sums are
        // independent, so they stay in registers and run side by side.
        for (b, ys) in out[..out_len.min(n)].chunks_mut(BLOCK).enumerate() {
            let t0 = b * BLOCK;
            let mut acc = [0.0; BLOCK];
            for (j, &v) in x.iter().enumerate() {
                if let Some(h) = self.taps[n - j + t0..].first_chunk::<BLOCK>() {
                    for (a, &h) in acc.iter_mut().zip(h) {
                        *a += v * h;
                    }
                }
            }
            ys.copy_from_slice(&acc[..ys.len()]);
        }
        Ok(())
    }
}

/// Filters `x` through an arbitrary real frequency response `gain(f_hz)`
/// via FFT multiplication (zero-phase). Used to imprint the eardrum's
/// reflectance spectrum onto the echo waveform.
///
/// The output keeps `x.len()` samples (the filter's circular tail beyond
/// that is discarded, which is why callers pad their input with tail room
/// for ringing). The FFT plan is sized from the input length and stays
/// resident for the life of the process ([`FftPlan::shared`]).
///
/// # Errors
///
/// Propagates plan errors (not reachable for the sizes chosen here).
pub fn apply_frequency_response<F>(x: &[f64], fs: f64, gain: F) -> Result<Vec<f64>, DspError>
where
    F: Fn(f64) -> f64,
{
    if x.is_empty() {
        return Ok(Vec::new());
    }
    let n = next_pow2(x.len() * 2);
    let plan = FftPlan::shared(n)?;
    let mut buf = Vec::new();
    plan.forward_from_real(x, &mut buf);
    for (k, z) in buf.iter_mut().enumerate() {
        let f_hz = signed_bin_frequency(k, n).abs() * fs;
        *z = z.scale(gain(f_hz));
    }
    plan.inverse(&mut buf)?;
    Ok(buf[..x.len()].iter().map(|z| z.re).collect())
}

/// The frequency-domain image of a real signal, ready to be superposed
/// into a shared spectral accumulator any number of times — each copy with
/// its own allpass delay and gain — at zero FFT cost per copy.
///
/// This is the core of the simulator's spectral synthesis: instead of one
/// FFT *pair* per propagation path per chirp, the source signal is
/// transformed **once** ([`SpectralDelayLine::load`]), every path becomes a
/// per-bin phase-ramp × gain added into an accumulator
/// ([`SpectralDelayLine::accumulate_into`]), and one inverse transform per
/// chirp recovers the superposed waveform. By linearity of the inverse FFT
/// the result equals the per-path time-domain superposition at the same
/// transform size exactly (up to rounding) — it is not an approximation.
///
/// Only bins `0..=n/2` of the accumulator are written; the upper half of a
/// real signal's spectrum is redundant (Hermitian symmetry) and
/// [`RealFftPlan::inverse_into`] reads only the lower half.
///
/// # Example
///
/// ```
/// use earsonar_acoustics::propagation::SpectralDelayLine;
/// use earsonar_dsp::plan::RealFftPlan;
/// use earsonar_dsp::Complex64;
///
/// let plan = RealFftPlan::shared(16).unwrap();
/// let mut line = SpectralDelayLine::new();
/// let mut work = Vec::new();
/// line.load(&[1.0, 2.0], &plan, &mut work).unwrap();
///
/// // Two copies: unit gain at delay 0, half gain at delay 3.
/// let mut acc = vec![Complex64::ZERO; 16];
/// line.accumulate_into(&mut acc, 0.0, 1.0);
/// line.accumulate_into(&mut acc, 3.0, 0.5);
/// let mut time = Vec::new();
/// plan.inverse_into(&acc, &mut work, &mut time).unwrap();
/// assert!((time[0] - 1.0).abs() < 1e-9);
/// assert!((time[3] - 0.5).abs() < 1e-9);
/// assert!((time[4] - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SpectralDelayLine {
    n: usize,
    spectrum: Vec<Complex64>,
}

impl SpectralDelayLine {
    /// An empty, unloaded line. Call [`SpectralDelayLine::load`] before
    /// accumulating.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the forward transform of `x` (zero-padded to the plan's size)
    /// and stores its spectrum, replacing any previously loaded signal.
    /// The internal buffer is reused across loads, so reloading a warm line
    /// does not allocate.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidLength`] if `x` is longer than the
    /// plan's transform size.
    pub fn load(
        &mut self,
        x: &[f64],
        plan: &RealFftPlan,
        work: &mut Vec<Complex64>,
    ) -> Result<(), DspError> {
        plan.forward_into(x, work, &mut self.spectrum)?;
        self.n = plan.size();
        Ok(())
    }

    /// The transform size of the loaded signal (0 if unloaded).
    pub fn size(&self) -> usize {
        self.n
    }

    /// The loaded full-length Hermitian spectrum.
    pub fn spectrum(&self) -> &[Complex64] {
        &self.spectrum
    }

    /// Adds a copy of the loaded signal, delayed by `delay_samples` and
    /// scaled by `gain`, into the spectral accumulator `acc`: bins
    /// `0..=n/2` receive `gain · X[k] · exp(-2πi k d / n)` (Nyquist kept
    /// real, matching [`delay_phase_multiplier`]).
    ///
    /// The phase ramp is generated by complex recurrence — one `sin`/`cos`
    /// for the whole path instead of one per bin; the drift over a
    /// power-of-two frame is a few ULPs, far below the simulator's 1e-9
    /// equivalence budget.
    ///
    /// A negative delay contributes silence (the convention of
    /// [`delay_fractional_allpass_with`]), as does a zero gain.
    ///
    /// # Panics
    ///
    /// Panics if `acc.len()` differs from the line's transform size.
    pub fn accumulate_into(&self, acc: &mut [Complex64], delay_samples: f64, gain: f64) {
        assert_eq!(
            acc.len(),
            self.n,
            "accumulator length must match the delay line's FFT size"
        );
        if self.n == 0 || delay_samples < 0.0 || gain == 0.0 {
            return;
        }
        if self.n == 1 {
            // Single-bin transform: DC only, delay is a no-op.
            acc[0] += self.spectrum[0].scale(gain);
            return;
        }
        let half = self.n / 2;
        let step = Complex64::cis(-2.0 * PI * delay_samples / self.n as f64);
        let mut ramp = Complex64::ONE;
        for (a, s) in acc.iter_mut().zip(&self.spectrum).take(half) {
            *a += (*s * ramp).scale(gain);
            ramp *= step;
        }
        // Nyquist bin: computed exactly and kept real so the superposed
        // signal stays real (see `delay_phase_multiplier`).
        let nyquist_gain = (-PI * delay_samples).cos() * gain;
        acc[half] += self.spectrum[half].scale(nyquist_gain);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    /// Runs one `_with` spectral operation on a cold scratch.
    fn cold(op: impl FnOnce(&mut DspScratch, &mut Vec<f64>) -> Result<(), DspError>) -> Vec<f64> {
        let mut out = Vec::new();
        op(&mut DspScratch::new(), &mut out).unwrap();
        out
    }

    #[test]
    fn delay_helpers_are_consistent() {
        let d = 0.025; // 2.5 cm eardrum distance
        let s = round_trip_delay_samples(d, 48_000.0);
        assert!((distance_from_delay_samples(s, 48_000.0) - d).abs() < 1e-12);
        // 2.5 cm round trip at 343 m/s is ~146 µs, ~7 samples at 48 kHz.
        assert!((s - 6.997).abs() < 0.01, "{s}");
    }

    #[test]
    fn allpass_delay_preserves_inband_magnitude() {
        let fs = 48_000.0;
        let x: Vec<f64> = (0..256)
            .map(|i| (2.0 * PI * 18_000.0 * i as f64 / fs).sin())
            .collect();
        for d in [0.0, 0.25, 0.5, 0.75, 3.3] {
            let y = cold(|s, o| delay_fractional_allpass_with(&x, d, 512, s, o));
            let mag_x = earsonar_dsp::goertzel::goertzel_magnitude(&x, 18_000.0, fs).unwrap();
            let mag_y = earsonar_dsp::goertzel::goertzel_magnitude(
                &y[..256 + d.ceil() as usize],
                18_000.0,
                fs,
            )
            .unwrap();
            assert!(
                (mag_y / mag_x - 1.0).abs() < 0.05,
                "delay {d}: {mag_y} vs {mag_x}"
            );
        }
    }

    #[test]
    fn allpass_integer_delay_matches_shift() {
        let x = [1.0, -2.0, 3.0, 0.5];
        let y = cold(|s, o| delay_fractional_allpass_with(&x, 3.0, 10, s, o));
        for (i, &v) in x.iter().enumerate() {
            assert!((y[i + 3] - v).abs() < 1e-9, "index {i}");
        }
        assert!(y[..3].iter().all(|v| v.abs() < 1e-9));
    }

    #[test]
    fn allpass_degenerate_inputs() {
        let delayed =
            |x: &[f64], d, len| cold(|s, o| delay_fractional_allpass_with(x, d, len, s, o));
        assert_eq!(delayed(&[], 1.0, 4), vec![0.0; 4]);
        assert_eq!(delayed(&[1.0], -1.0, 2), vec![0.0; 2]);
        assert!(delayed(&[1.0], 0.5, 0).is_empty());
    }

    #[test]
    fn warm_scratch_allpass_matches_cold_bitwise() {
        let x: Vec<f64> = (0..37).map(|i| (i as f64 * 0.61).sin()).collect();
        let mut scratch = DspScratch::new();
        let mut out = Vec::new();
        for d in [0.0, 0.4, 1.0, 2.5, 7.9] {
            let expect = cold(|s, o| delay_fractional_allpass_with(&x, d, 64, s, o));
            delay_fractional_allpass_with(&x, d, 64, &mut scratch, &mut out).unwrap();
            assert_eq!(expect, out, "delay {d}");
        }
    }

    #[test]
    fn nyquist_bin_treatment_is_pinned() {
        // Regression for the shared spectral helper: the Nyquist multiplier
        // must be purely real with value cos(π·delay) — NOT the complex
        // phase factor — so that delayed real signals stay real.
        for n in [8usize, 64, 256] {
            for d in [0.0, 0.25, 0.5, 1.0, 3.3] {
                let m = delay_phase_multiplier(n / 2, n, d);
                assert_eq!(m.im, 0.0, "n {n} delay {d}");
                assert!((m.re - (PI * d).cos()).abs() < 1e-12, "n {n} delay {d}");
            }
        }
        // Observable consequence: a half-sample delay annihilates a pure
        // Nyquist-frequency tone (cos(π/2) = 0). The tone must fill the
        // analysis frame exactly, so drive the delay line directly.
        let nyq: Vec<f64> = (0..16)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let plan = RealFftPlan::new(16).unwrap();
        let mut work = Vec::new();
        let mut line = SpectralDelayLine::new();
        line.load(&nyq, &plan, &mut work).unwrap();
        let mut acc = vec![Complex64::ZERO; 16];
        line.accumulate_into(&mut acc, 0.5, 1.0);
        let mut y = Vec::new();
        plan.inverse_into(&acc, &mut work, &mut y).unwrap();
        assert!(y.iter().all(|v| v.abs() < 1e-12), "{y:?}");
        // And the off-bin frequencies keep their magnitude (allpass).
        let m = delay_phase_multiplier(3, 16, 0.5);
        assert!((m.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn signed_bin_frequency_mapping() {
        assert_eq!(signed_bin_frequency(0, 8), 0.0);
        assert_eq!(signed_bin_frequency(2, 8), 0.25);
        assert_eq!(signed_bin_frequency(4, 8), 0.5);
        assert_eq!(signed_bin_frequency(5, 8), -0.375);
        assert_eq!(signed_bin_frequency(7, 8), -0.125);
    }

    #[test]
    fn delay_line_accumulation_matches_separate_delays() {
        let x: Vec<f64> = (0..48).map(|i| (i as f64 * 0.45).sin()).collect();
        let paths = [(0.0, 0.6), (2.5, -0.3), (7.0, 0.2)];
        let n = 64;
        let plan = RealFftPlan::new(n).unwrap();
        let mut work = Vec::new();
        let mut line = SpectralDelayLine::new();
        line.load(&x, &plan, &mut work).unwrap();
        assert_eq!(line.size(), n);
        let mut acc = vec![Complex64::ZERO; n];
        for &(d, g) in &paths {
            line.accumulate_into(&mut acc, d, g);
        }
        let mut time = Vec::new();
        plan.inverse_into(&acc, &mut work, &mut time).unwrap();

        // Reference: per-path allpass delay at the same transform size,
        // summed in the time domain.
        let mut expect = vec![0.0; n];
        for &(d, g) in &paths {
            let y = cold(|s, o| delay_fractional_allpass_with(&x, d, n, s, o));
            for (e, v) in expect.iter_mut().zip(&y) {
                *e += g * v;
            }
        }
        for (i, (a, b)) in time.iter().zip(&expect).enumerate() {
            assert!((a - b).abs() < 1e-9, "index {i}: {a} vs {b}");
        }
    }

    #[test]
    fn delay_line_skips_negative_delay_and_zero_gain() {
        let plan = RealFftPlan::new(8).unwrap();
        let mut work = Vec::new();
        let mut line = SpectralDelayLine::new();
        line.load(&[1.0, 2.0], &plan, &mut work).unwrap();
        let mut acc = vec![Complex64::ZERO; 8];
        line.accumulate_into(&mut acc, -1.0, 1.0);
        line.accumulate_into(&mut acc, 2.0, 0.0);
        assert!(acc.iter().all(|z| z.norm() == 0.0));
    }

    #[test]
    #[should_panic(expected = "accumulator length")]
    fn delay_line_checks_accumulator_length() {
        let plan = RealFftPlan::new(8).unwrap();
        let mut work = Vec::new();
        let mut line = SpectralDelayLine::new();
        line.load(&[1.0], &plan, &mut work).unwrap();
        let mut acc = vec![Complex64::ZERO; 4];
        line.accumulate_into(&mut acc, 0.0, 1.0);
    }

    #[test]
    fn frequency_response_shapes_tones() {
        let fs = 48_000.0;
        let n = 2048;
        // Two tones; the response kills one of them.
        let x: Vec<f64> = (0..n)
            .map(|i| {
                (2.0 * PI * 17_000.0 * i as f64 / fs).sin()
                    + (2.0 * PI * 19_000.0 * i as f64 / fs).sin()
            })
            .collect();
        let low_pass = |f: f64| if f > 18_000.0 { 0.0 } else { 1.0 };
        let y = apply_frequency_response(&x, fs, low_pass).unwrap();
        let mag17 = earsonar_dsp::goertzel::goertzel_magnitude(&y, 17_000.0, fs).unwrap();
        let mag19 = earsonar_dsp::goertzel::goertzel_magnitude(&y, 19_000.0, fs).unwrap();
        assert!(mag17 > 20.0 * mag19, "17k {mag17}, 19k {mag19}");
    }

    #[test]
    fn unit_response_is_identity() {
        let x: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin()).collect();
        let y = apply_frequency_response(&x, 48_000.0, |_| 1.0).unwrap();
        for (a, b) in x.iter().zip(&y) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_frequency_response_input() {
        assert!(apply_frequency_response(&[], 48_000.0, |_| 1.0)
            .unwrap()
            .is_empty());
    }
}
