//! Zero-phase (forward–backward) filtering.
//!
//! Running an IIR filter forward and then backward over a signal cancels the
//! phase distortion and squares the magnitude response. Echo timing matters
//! to EarSonar's segmentation stage, so zero-phase filtering keeps the
//! eardrum-echo peak where it belongs.

use crate::error::DspError;
use crate::filter::biquad::BiquadCascade;

/// Applies `filter` forward and backward over `signal` (filtfilt).
///
/// The effective magnitude response is `|H|^2` and the phase response is
/// zero. Edge transients are reduced by reflecting `pad` samples of the
/// signal at each end before filtering (a common filtfilt trick); `pad` is
/// clamped to `signal.len() - 1`.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if `signal` is empty.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), earsonar_dsp::DspError> {
/// use earsonar_dsp::filter::{butter_lowpass, filtfilt};
/// let f = butter_lowpass(2, 4_000.0, 48_000.0)?;
/// let x = vec![1.0; 256];
/// let y = filtfilt(&f, &x, 32)?;
/// // A constant signal passes a low-pass filter unchanged (steady state).
/// assert!((y[128] - 1.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn filtfilt(filter: &BiquadCascade, signal: &[f64], pad: usize) -> Result<Vec<f64>, DspError> {
    if signal.is_empty() {
        return Err(DspError::EmptyInput);
    }
    let n = signal.len();
    let pad = pad.min(n - 1);

    // Odd (anti-symmetric) reflection padding, as used by scipy's filtfilt:
    // it preserves signal level and slope at the boundaries.
    let mut extended = Vec::with_capacity(n + 2 * pad);
    for i in (1..=pad).rev() {
        extended.push(2.0 * signal[0] - signal[i]);
    }
    extended.extend_from_slice(signal);
    for i in (n - 1 - pad..n - 1).rev() {
        extended.push(2.0 * signal[n - 1] - signal[i]);
    }

    let mut fwd_filter = filter.clone();
    fwd_filter.reset();
    let mut forward = fwd_filter.process(&extended);

    forward.reverse();
    let mut bwd_filter = filter.clone();
    bwd_filter.reset();
    let mut backward = bwd_filter.process(&forward);
    backward.reverse();

    Ok(backward[pad..pad + n].to_vec())
}

/// [`filtfilt`] into caller-owned buffers: `ext` holds the reflected
/// extension and is filtered **in place** (sample-major, recurrence
/// state in registers — [`BiquadCascade::run_lanes`]); `out` receives
/// the `signal.len()` output samples. Allocation-free once both buffers
/// have grown to size, and no per-call cascade clone.
///
/// **Bit-identical** to [`filtfilt`], which stays as the pinned scalar
/// reference: the reflected extension is built in the same order, each
/// filtering pass performs identical per-section operations, and the
/// reversals/copies are exact. Pinned by `filtfilt_with_is_bit_identical`
/// below and `tests/kernel_equivalence.rs`. This is the one-lane instance
/// of [`filtfilt_lanes`].
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if `signal` is empty.
pub fn filtfilt_with(
    filter: &BiquadCascade,
    signal: &[f64],
    pad: usize,
    ext: &mut Vec<f64>,
    out: &mut Vec<f64>,
) -> Result<(), DspError> {
    filtfilt_lanes(filter, [signal], pad, [0], ext, [out])
}

/// [`filtfilt_with`] of `L` signals in one pass of the filter over
/// lane-interleaved frames ([`BiquadCascade::run_lanes`]). `outs[l]`
/// receives output samples `skip[l]..` of `signals[l]` (a caller that
/// filtered leading context it does not want back skips it),
/// bit-identical to those samples of [`filtfilt_with`] on that signal
/// alone.
///
/// The signals may differ in length. Each lane's reflected extension
/// starts at frame 0 and is zero-filled past its end; before the backward
/// pass each lane reverses only its own extension. A lane's samples
/// therefore see exactly the one-lane sequence, and the fill after them
/// cannot reach them because the filter is causal. Lanes of equal length
/// waste nothing; a shorter lane idles through the longer one's frames.
/// The backward pass stops at the last wanted sample: the skipped ones
/// come after it in its order.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if any signal is empty.
pub fn filtfilt_lanes<const L: usize>(
    filter: &BiquadCascade,
    signals: [&[f64]; L],
    pad: usize,
    skip: [usize; L],
    ext: &mut Vec<f64>,
    outs: [&mut Vec<f64>; L],
) -> Result<(), DspError> {
    if signals.iter().any(|s| s.is_empty()) {
        return Err(DspError::EmptyInput);
    }
    // Per lane: the clamped pad and skip, and the extension length.
    let pads = signals.map(|s| pad.min(s.len() - 1));
    let skip: [usize; L] = std::array::from_fn(|l| skip[l].min(signals[l].len()));
    let lens: [usize; L] = std::array::from_fn(|l| signals[l].len() + 2 * pads[l]);
    let n_frames = lens.iter().copied().max().unwrap_or(0);
    ext.clear();
    ext.resize(n_frames * L, 0.0);
    let (frames, _) = ext.as_chunks_mut::<L>();

    // Odd (anti-symmetric) reflection padding, as used by scipy's
    // filtfilt, built lane by lane in `filtfilt`'s order.
    for (l, (signal, pad)) in signals.iter().zip(pads).enumerate() {
        let n = signal.len();
        let (head, rest) = frames.split_at_mut(pad);
        let (body, rest) = rest.split_at_mut(n);
        let (first, last) = (signal[0], signal[n - 1]);
        for (frame, &v) in head.iter_mut().zip(signal[1..=pad].iter().rev()) {
            frame[l] = 2.0 * first - v;
        }
        for (frame, &v) in body.iter_mut().zip(signal.iter()) {
            frame[l] = v;
        }
        for (frame, &v) in rest.iter_mut().zip(signal[n - 1 - pad..n - 1].iter().rev()) {
            frame[l] = 2.0 * last - v;
        }
    }

    filter.run_lanes(frames); // forward pass
    if lens.iter().all(|&len| len == n_frames) {
        frames.reverse();
    } else {
        for (l, &len) in lens.iter().enumerate() {
            reverse_lane(&mut frames[..len], l);
        }
    }
    // The output is the backward pass reversed back, minus the padding:
    // lane `l`'s samples `skip..n` are frames `pad..pad + n - skip` read
    // backwards, so the pass needs no frame beyond the longest such range.
    let wanted: [usize; L] = std::array::from_fn(|l| pads[l] + signals[l].len() - skip[l]);
    let backward = wanted.iter().copied().max().unwrap_or(0);
    filter.run_lanes(&mut frames[..backward]); // backward pass
    for (l, out) in outs.into_iter().enumerate() {
        out.clear();
        out.extend(frames[pads[l]..wanted[l]].iter().rev().map(|f| f[l]));
    }
    Ok(())
}

/// Reverses lane `l` of `frames` in place, leaving the other lanes alone.
fn reverse_lane<const L: usize>(frames: &mut [[f64; L]], l: usize) {
    let n = frames.len();
    let (head, tail) = frames.split_at_mut(n / 2);
    for (a, b) in head.iter_mut().zip(tail.iter_mut().rev()) {
        std::mem::swap(&mut a[l], &mut b[l]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::butterworth::{butter_bandpass, butter_lowpass};
    use std::f64::consts::PI;

    #[test]
    fn empty_input_is_rejected() {
        let f = butter_lowpass(2, 1_000.0, 48_000.0).unwrap();
        assert!(matches!(filtfilt(&f, &[], 8), Err(DspError::EmptyInput)));
    }

    #[test]
    fn constant_signal_survives_lowpass() {
        let f = butter_lowpass(4, 2_000.0, 48_000.0).unwrap();
        let x = vec![3.5; 512];
        let y = filtfilt(&f, &x, 64).unwrap();
        for &v in &y[64..448] {
            assert!((v - 3.5).abs() < 1e-4, "{v}");
        }
    }

    #[test]
    fn zero_phase_preserves_peak_position() {
        let fs = 48_000.0;
        let n = 2048;
        // A Gaussian-enveloped 18 kHz burst centred at sample 1024.
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let t = (i as f64 - 1024.0) / 64.0;
                (-t * t).exp() * (2.0 * PI * 18_000.0 * i as f64 / fs).sin()
            })
            .collect();
        let f = butter_bandpass(4, 16_000.0, 20_000.0, fs).unwrap();
        let y = filtfilt(&f, &x, 128).unwrap();
        let env_peak = |sig: &[f64]| -> usize {
            // Peak of a smoothed absolute envelope.
            let w = 48usize;
            (0..sig.len() - w)
                .max_by(|&a, &b| {
                    let ea: f64 = sig[a..a + w].iter().map(|v| v * v).sum();
                    let eb: f64 = sig[b..b + w].iter().map(|v| v * v).sum();
                    ea.total_cmp(&eb)
                })
                .unwrap()
        };
        let px = env_peak(&x);
        let py = env_peak(&y);
        assert!(
            (px as isize - py as isize).abs() <= 8,
            "peak moved from {px} to {py}"
        );
    }

    #[test]
    fn magnitude_response_is_squared() {
        let fs = 48_000.0;
        let n = 8192;
        let f = butter_bandpass(2, 16_000.0, 20_000.0, fs).unwrap();
        // Probe with a mid-band tone and an out-of-band tone.
        for (freq, _) in [(18_000.0, 1.0), (8_000.0, 0.0)] {
            let x: Vec<f64> = (0..n)
                .map(|i| (2.0 * PI * freq * i as f64 / fs).sin())
                .collect();
            let y = filtfilt(&f, &x, 256).unwrap();
            let mid = n / 4..3 * n / 4;
            let rms_y = (mid.clone().map(|i| y[i] * y[i]).sum::<f64>() / mid.len() as f64).sqrt();
            let single = f.magnitude_at(freq, fs);
            let expect = single * single * std::f64::consts::FRAC_1_SQRT_2;
            assert!(
                (rms_y - expect).abs() < 0.05,
                "freq {freq}: rms {rms_y} vs expected {expect}"
            );
        }
    }

    #[test]
    fn filtfilt_with_is_bit_identical() {
        let fs = 48_000.0;
        let f = butter_bandpass(4, 16_000.0, 20_000.0, fs).unwrap();
        let mut ext = Vec::new();
        let mut out = Vec::new();
        // Odd lengths and pads exercise the reflection and copy indexing.
        for (n, pad) in [(240usize, 72usize), (241, 72), (17, 100), (1, 8)] {
            let x: Vec<f64> = (0..n)
                .map(|i| (2.0 * PI * 18_000.0 * i as f64 / fs).sin() * (1.0 + i as f64 * 1e-3))
                .collect();
            let reference = filtfilt(&f, &x, pad).unwrap();
            filtfilt_with(&f, &x, pad, &mut ext, &mut out).unwrap();
            assert_eq!(out, reference, "n={n} pad={pad}");
        }
        assert!(matches!(
            filtfilt_with(&f, &[], 8, &mut ext, &mut out),
            Err(DspError::EmptyInput)
        ));
    }

    #[test]
    fn pad_larger_than_signal_is_clamped() {
        let f = butter_lowpass(2, 2_000.0, 48_000.0).unwrap();
        let x = vec![1.0; 16];
        let y = filtfilt(&f, &x, 1_000).unwrap();
        assert_eq!(y.len(), 16);
    }

    #[test]
    fn single_sample_signal_works() {
        let f = butter_lowpass(2, 2_000.0, 48_000.0).unwrap();
        let y = filtfilt(&f, &[2.0], 8).unwrap();
        assert_eq!(y.len(), 1);
        assert!(y[0].is_finite());
    }
}
