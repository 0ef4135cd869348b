//! Short-time Fourier analysis (spectrogram).
//!
//! Used by the diagnostics to visualize chirp trains and by downstream
//! analyses that want time-resolved band energy (e.g. verifying the chirp
//! schedule inside a recording).

use crate::error::DspError;
use crate::fft::next_pow2;
use crate::plan::{DspScratch, RealFftPlan};
use crate::window::Window;

/// A magnitude spectrogram: `frames × bins` with the associated axes.
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrogram {
    /// `magnitudes[frame][bin]`, one-sided.
    pub magnitudes: Vec<Vec<f64>>,
    /// Centre time of each frame in seconds.
    pub times: Vec<f64>,
    /// Frequency of each bin in hertz.
    pub frequencies: Vec<f64>,
}

impl Spectrogram {
    /// Computes the STFT magnitude of `signal` with `frame_len`-sample
    /// frames advanced by `hop` samples, each tapered by `window` and
    /// zero-padded to `n_fft`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] for an empty signal,
    /// [`DspError::InvalidParameter`] for zero `frame_len`/`hop` or a
    /// non-positive sample rate, and [`DspError::InvalidLength`] if no
    /// complete frame fits.
    pub fn compute(
        signal: &[f64],
        fs: f64,
        frame_len: usize,
        hop: usize,
        n_fft: usize,
        window: Window,
    ) -> Result<Spectrogram, DspError> {
        let mut scratch = DspScratch::new();
        Self::compute_with(&mut scratch, signal, fs, frame_len, hop, n_fft, window)
    }

    /// [`Spectrogram::compute`] with the per-frame buffers drawn from
    /// `scratch`, so repeated calls (and the per-frame loop itself) stop
    /// allocating intermediates. The returned spectrogram still owns its
    /// magnitude rows.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Spectrogram::compute`].
    // lint: hot-path
    pub fn compute_with(
        scratch: &mut DspScratch,
        signal: &[f64],
        fs: f64,
        frame_len: usize,
        hop: usize,
        n_fft: usize,
        window: Window,
    ) -> Result<Spectrogram, DspError> {
        if signal.is_empty() {
            return Err(DspError::EmptyInput);
        }
        if frame_len == 0 || hop == 0 {
            return Err(DspError::InvalidParameter {
                name: "frame_len/hop",
                constraint: "must both be positive",
            });
        }
        if !(fs > 0.0) {
            return Err(DspError::InvalidParameter {
                name: "fs",
                constraint: "sample rate must be positive",
            });
        }
        if signal.len() < frame_len {
            return Err(DspError::InvalidLength {
                expected: "at least one full frame",
                actual: signal.len(),
            });
        }
        let actual_n = next_pow2(n_fft.max(frame_len));
        let plan = RealFftPlan::shared(actual_n)?;
        let mut frame = scratch.take_real();
        let mut work = scratch.take_complex();
        let mut spec = scratch.take_complex();
        // lint: allow(hot-path-alloc) the magnitude rows are the returned value's owned storage, not a reusable intermediate
        let mut magnitudes = Vec::new();
        // lint: allow(hot-path-alloc) owned output axis, same as the magnitude rows
        let mut times = Vec::new();
        let mut start = 0usize;
        let mut n_bins = 0usize;
        while start + frame_len <= signal.len() {
            frame.clear();
            frame.extend_from_slice(&signal[start..start + frame_len]);
            window.apply_in_place(&mut frame);
            plan.forward_into(&frame, &mut work, &mut spec)?;
            n_bins = spec.len() / 2 + 1;
            // lint: allow(hot-path-alloc) each row is handed to the caller inside the returned spectrogram
            magnitudes.push(spec[..n_bins].iter().map(|z| z.norm()).collect());
            times.push((start + frame_len / 2) as f64 / fs);
            start += hop;
        }
        scratch.put_complex(spec);
        scratch.put_complex(work);
        scratch.put_real(frame);
        let actual_fft = (n_bins - 1) * 2;
        let frequencies = (0..n_bins)
            .map(|k| k as f64 * fs / actual_fft as f64)
            // lint: allow(hot-path-alloc) owned output axis, built once per spectrogram
            .collect();
        Ok(Spectrogram {
            magnitudes,
            times,
            frequencies,
        })
    }

    /// Number of frames.
    pub fn n_frames(&self) -> usize {
        self.magnitudes.len()
    }

    /// Per-frame energy inside `[f_lo, f_hi]` hertz — the band envelope
    /// over time.
    pub fn band_energy(&self, f_lo: f64, f_hi: f64) -> Vec<f64> {
        let idx: Vec<usize> = self
            .frequencies
            .iter()
            .enumerate()
            .filter(|(_, &f)| f >= f_lo && f <= f_hi)
            .map(|(k, _)| k)
            .collect();
        self.magnitudes
            .iter()
            .map(|frame| idx.iter().map(|&k| frame[k] * frame[k]).sum())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn frame_count_matches_hops() {
        let x = vec![0.0; 1000];
        let s = Spectrogram::compute(&x, 48_000.0, 256, 128, 256, Window::Hann).unwrap();
        assert_eq!(s.n_frames(), (1000 - 256) / 128 + 1);
        assert_eq!(s.magnitudes[0].len(), 129);
    }

    #[test]
    fn tone_concentrates_in_its_bin_every_frame() {
        let fs = 48_000.0;
        let x: Vec<f64> = (0..4096)
            .map(|i| (2.0 * PI * 6_000.0 * i as f64 / fs).sin())
            .collect();
        let s = Spectrogram::compute(&x, fs, 512, 256, 512, Window::Hann).unwrap();
        for frame in &s.magnitudes {
            let k = (0..frame.len())
                .max_by(|&a, &b| frame[a].total_cmp(&frame[b]))
                .unwrap();
            let f = s.frequencies[k];
            assert!((f - 6_000.0).abs() < 100.0, "peak at {f}");
        }
    }

    #[test]
    fn chirp_train_shows_periodic_band_energy() {
        // Bursts every 240 samples: band energy alternates high/low.
        let mut x = vec![0.0; 240 * 8];
        for b in 0..8 {
            for i in 0..24 {
                let t = (b * 240 + i) as f64;
                x[b * 240 + i] = (2.0 * PI * 18_000.0 * t / 48_000.0).sin();
            }
        }
        let s = Spectrogram::compute(&x, 48_000.0, 48, 24, 64, Window::Hann).unwrap();
        let e = s.band_energy(16_000.0, 20_000.0);
        let peak = e.iter().cloned().fold(0.0f64, f64::max);
        let active = e.iter().filter(|&&v| v > 0.25 * peak).count();
        // Bursts occupy 10% of the timeline.
        assert!(active * 4 < e.len(), "{active}/{}", e.len());
    }

    #[test]
    fn validation_errors() {
        assert!(Spectrogram::compute(&[], 48_000.0, 8, 4, 8, Window::Hann).is_err());
        assert!(Spectrogram::compute(&[1.0; 16], 48_000.0, 0, 4, 8, Window::Hann).is_err());
        assert!(Spectrogram::compute(&[1.0; 16], 48_000.0, 8, 0, 8, Window::Hann).is_err());
        assert!(Spectrogram::compute(&[1.0; 4], 48_000.0, 8, 4, 8, Window::Hann).is_err());
        assert!(Spectrogram::compute(&[1.0; 16], 0.0, 8, 4, 8, Window::Hann).is_err());
    }

    #[test]
    fn times_advance_by_hop() {
        let x = vec![0.0; 2048];
        let s = Spectrogram::compute(&x, 48_000.0, 256, 128, 256, Window::Hann).unwrap();
        for w in s.times.windows(2) {
            assert!((w[1] - w[0] - 128.0 / 48_000.0).abs() < 1e-12);
        }
    }
}
