//! Mel-frequency cepstral coefficients.
//!
//! "In order to obtain the MFCC of the MEE signal, we first need to perform
//! fast Fourier processing on the segmented eardrum echo …, then split the
//! frequency-domain signal into multiple smaller frequency bins and use a
//! triangular filter on each bin …, finally a discrete cosine transform is
//! used" (paper §IV-C-2). This module implements exactly that chain for a
//! single echo segment. Only the spectrum bins the mel filters read are
//! computed ([`crate::goertzel`]); the scalar reference takes the full FFT.

use crate::error::DspError;
use crate::fft::next_pow2;
use crate::goertzel::Goertzel;
use crate::mel::MelFilterBank;
use crate::plan::{DspScratch, RealFftPlan};
use crate::window::Window;
use std::f64::consts::PI;

/// Floor applied before the log to keep silent bands finite.
const LOG_FLOOR: f64 = 1e-12;

/// Configuration for MFCC extraction.
#[derive(Debug, Clone, PartialEq)]
pub struct MfccConfig {
    /// Sample rate in hertz.
    pub sample_rate: f64,
    /// FFT size (rounded up to a power of two internally).
    pub n_fft: usize,
    /// Number of triangular mel filters.
    pub n_filters: usize,
    /// Number of cepstral coefficients to keep (`<= n_filters`).
    pub n_coeffs: usize,
    /// Lower edge of the analysis band in hertz.
    pub f_min: f64,
    /// Upper edge of the analysis band in hertz.
    pub f_max: f64,
    /// Taper applied to each frame before the FFT.
    pub window: Window,
}

/// An MFCC extractor with a pre-built filterbank.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), earsonar_dsp::DspError> {
/// use earsonar_dsp::mfcc::{MfccConfig, MfccExtractor};
/// use earsonar_dsp::window::Window;
/// let extractor = MfccExtractor::new(MfccConfig {
///     sample_rate: 48_000.0,
///     n_fft: 512,
///     n_filters: 26,
///     n_coeffs: 13,
///     f_min: 16_000.0,
///     f_max: 20_000.0,
///     window: Window::Hann,
/// })?;
/// let frame: Vec<f64> = (0..512)
///     .map(|i| (2.0 * std::f64::consts::PI * 18_000.0 * i as f64 / 48_000.0).sin())
///     .collect();
/// let coeffs = extractor.extract(&frame)?;
/// assert_eq!(coeffs.len(), 13);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MfccExtractor {
    config: MfccConfig,
    bank: MelFilterBank,
    n_fft: usize,
    /// Window taps for frames of `window_taps.len()` samples (a full
    /// `n_fft` frame unless [`MfccExtractor::with_frame_len`] chose
    /// another length), precomputed so the hot path multiplies instead of
    /// evaluating a cosine per sample. Frames of any other length fall back
    /// to [`Window::apply_in_place`].
    window_taps: Vec<f64>,
    /// Orthonormal DCT-II cosines, row-major: row `k` holds
    /// `cos(PI/n_filters * (i + 0.5) * k)` for `i in 0..n_filters`.
    /// The `sqrt(1/n)` / `sqrt(2/n)` scale is applied after the dot
    /// product, exactly as the scalar reference does.
    dct_basis: Vec<f64>,
    /// Goertzel probes at the spectrum bins the mel filters read, the
    /// first of which is `band_start`.
    band: Goertzel,
    band_start: usize,
}

impl MfccExtractor {
    /// Builds the extractor, constructing the mel filterbank.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if `n_coeffs` is zero or
    /// exceeds `n_filters`, or if the filterbank parameters are invalid.
    pub fn new(config: MfccConfig) -> Result<Self, DspError> {
        if config.n_coeffs == 0 || config.n_coeffs > config.n_filters {
            return Err(DspError::InvalidParameter {
                name: "n_coeffs",
                constraint: "must satisfy 1 <= n_coeffs <= n_filters",
            });
        }
        let n_fft = next_pow2(config.n_fft.max(4));
        let bank = MelFilterBank::new(
            config.n_filters,
            n_fft,
            config.sample_rate,
            config.f_min,
            config.f_max,
        )?;
        let mut window_taps = Vec::new();
        config.window.coefficients_into(n_fft, &mut window_taps);
        let nf = config.n_filters as f64;
        let dct_basis: Vec<f64> = (0..config.n_coeffs)
            .flat_map(|k| {
                (0..config.n_filters).map(move |i| (PI / nf * (i as f64 + 0.5) * k as f64).cos())
            })
            .collect();
        let support = bank.support();
        Ok(MfccExtractor {
            config,
            band_start: support.start,
            band: Goertzel::dft_bins(n_fft, support),
            bank,
            n_fft,
            window_taps,
            dct_basis,
        })
    }

    /// Precomputes the window taps for frames of `frame_len` samples
    /// (capped at the FFT size, as frames are) instead of full `n_fft`
    /// frames — for a caller whose frames all have one known length
    /// shorter than the FFT. Results are unchanged: precomputed taps are
    /// bit-identical to [`Window::apply_in_place`].
    pub fn with_frame_len(mut self, frame_len: usize) -> Self {
        let len = frame_len.min(self.n_fft);
        self.config
            .window
            .coefficients_into(len, &mut self.window_taps);
        self
    }

    /// The configuration this extractor was built with.
    pub fn config(&self) -> &MfccConfig {
        &self.config
    }

    /// The number of coefficients produced per frame.
    pub fn n_coeffs(&self) -> usize {
        self.config.n_coeffs
    }

    /// Extracts MFCCs from one signal segment (windowed, zero-padded or
    /// truncated to the FFT size).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] if the segment is empty.
    pub fn extract(&self, segment: &[f64]) -> Result<Vec<f64>, DspError> {
        let mut scratch = DspScratch::new();
        let mut out = Vec::with_capacity(self.config.n_coeffs);
        self.extract_into(&mut scratch, segment, &mut out)?;
        Ok(out)
    }

    /// [`MfccExtractor::extract`] writing into a caller-owned buffer, with
    /// every intermediate (windowed frame, band powers, power spectrum, mel
    /// energies) drawn from `scratch` — allocation-free once warm.
    ///
    /// Only the spectrum bins the mel filters read are computed, by one
    /// Goertzel pass ([`Goertzel`]) instead of a full transform, and only
    /// the `n_coeffs` retained cepstral coefficients, rather than the full
    /// DCT.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MfccExtractor::extract`].
    pub fn extract_into(
        &self,
        scratch: &mut DspScratch,
        segment: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<(), DspError> {
        if segment.is_empty() {
            return Err(DspError::EmptyInput);
        }
        let take = segment.len().min(self.n_fft);
        let mut frame = scratch.take_real();
        frame.extend_from_slice(&segment[..take]);
        if take == self.window_taps.len() {
            // Precomputed taps: bit-identical to `apply_in_place`, no
            // per-sample cosine.
            crate::window::apply_precomputed(&self.window_taps, &mut frame);
        } else {
            // Taps depend on frame length.
            self.config.window.apply_in_place(&mut frame);
        }
        let mut band = scratch.take_real();
        self.band.powers_into(&frame, &mut band);
        // Bins outside the filters' support are never read; they stay zero.
        let mut power = frame;
        power.clear();
        power.resize(self.n_fft / 2 + 1, 0.0);
        for (p, &b) in power[self.band_start..].iter_mut().zip(&band) {
            *p = b / self.n_fft as f64;
        }
        let mut mel_energies = band;
        let result = self.cepstrum(&power, &mut mel_energies, out);
        scratch.put_real(mel_energies);
        scratch.put_real(power);
        result
    }

    /// Mel energies, log, and the retained DCT-II coefficients of one power
    /// spectrum, written to `out`; `mel_energies` is scratch.
    fn cepstrum(
        &self,
        power: &[f64],
        mel_energies: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) -> Result<(), DspError> {
        self.bank.apply_into(power, mel_energies)?;
        for e in mel_energies.iter_mut() {
            *e = e.max(LOG_FLOOR).ln();
        }

        // Orthonormal DCT-II over the precomputed cosine basis: one
        // four-lane dot product per retained coefficient, no per-element
        // transcendentals (ulp-equal to the scalar reference; see
        // `crate::simd`).
        let nf = mel_energies.len() as f64;
        out.clear();
        for (k, row) in self
            .dct_basis
            .chunks_exact(self.config.n_filters)
            .enumerate()
        {
            let sum = crate::simd::dot(mel_energies, row);
            let scale = if k == 0 {
                (1.0 / nf).sqrt()
            } else {
                (2.0 / nf).sqrt()
            };
            out.push(sum * scale);
        }
        Ok(())
    }

    /// The pinned scalar reference for [`MfccExtractor::extract_into`]:
    /// per-sample window cosines, the full real FFT, and a per-element
    /// cosine DCT with single strict-order accumulators (the pre-SIMD
    /// behaviour), over the same strict-order mel projection
    /// ([`MelFilterBank::apply_into`]). The fast path differs by its
    /// Goertzel band powers and reduction reassociation;
    /// `tests/kernel_equivalence.rs` bounds the gap.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MfccExtractor::extract`].
    pub fn extract_into_scalar(
        &self,
        scratch: &mut DspScratch,
        segment: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<(), DspError> {
        if segment.is_empty() {
            return Err(DspError::EmptyInput);
        }
        let take = segment.len().min(self.n_fft);
        let mut frame = scratch.take_real();
        frame.extend_from_slice(&segment[..take]);
        self.config.window.apply_in_place(&mut frame);

        let plan = RealFftPlan::shared(self.n_fft)?;
        let mut work = scratch.take_complex();
        let mut spec = scratch.take_complex();
        plan.forward_into(&frame, &mut work, &mut spec)?;

        let n_bins = self.n_fft / 2 + 1;
        let mut power = frame;
        power.clear();
        power.extend(
            spec[..n_bins]
                .iter()
                .map(|z| z.norm_sqr() / self.n_fft as f64),
        );
        let mut mel_energies = scratch.take_real();
        let applied = self.bank.apply_into(&power, &mut mel_energies);
        scratch.put_complex(spec);
        scratch.put_complex(work);
        scratch.put_real(power);
        if let Err(e) = applied {
            scratch.put_real(mel_energies);
            return Err(e);
        }
        for e in mel_energies.iter_mut() {
            *e = e.max(LOG_FLOOR).ln();
        }

        let nf = mel_energies.len() as f64;
        out.clear();
        for k in 0..self.config.n_coeffs {
            let sum: f64 = mel_energies
                .iter()
                .enumerate()
                .map(|(i, &v)| v * (PI / nf * (i as f64 + 0.5) * k as f64).cos())
                .sum();
            let scale = if k == 0 {
                (1.0 / nf).sqrt()
            } else {
                (2.0 / nf).sqrt()
            };
            out.push(sum * scale);
        }
        scratch.put_real(mel_energies);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    /// 13 coefficients from 26 mel filters over 16–20 kHz, on a
    /// 512-point FFT at 48 kHz.
    fn config() -> MfccConfig {
        MfccConfig {
            sample_rate: 48_000.0,
            n_fft: 512,
            n_filters: 26,
            n_coeffs: 13,
            f_min: 16_000.0,
            f_max: 20_000.0,
            window: Window::Hann,
        }
    }

    fn tone(f: f64, fs: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * PI * f * i as f64 / fs).sin())
            .collect()
    }

    #[test]
    fn config_validation() {
        let mut cfg = config();
        cfg.n_coeffs = 0;
        assert!(MfccExtractor::new(cfg.clone()).is_err());
        cfg.n_coeffs = 40;
        cfg.n_filters = 26;
        assert!(MfccExtractor::new(cfg).is_err());
    }

    #[test]
    fn extract_produces_requested_count() {
        let ex = MfccExtractor::new(config()).unwrap();
        let c = ex.extract(&tone(18_000.0, 48_000.0, 512)).unwrap();
        assert_eq!(c.len(), 13);
        assert!(c.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn vectorized_extract_tracks_scalar_reference() {
        let ex = MfccExtractor::new(config()).unwrap();
        let mut scratch = DspScratch::new();
        let mut fast = Vec::new();
        let mut slow = Vec::new();
        // Full frame (precomputed taps) and a short zero-padded frame
        // (per-sample window fallback).
        for n in [512usize, 300] {
            let x = tone(18_000.0, 48_000.0, n);
            ex.extract_into(&mut scratch, &x, &mut fast).unwrap();
            ex.extract_into_scalar(&mut scratch, &x, &mut slow).unwrap();
            assert_eq!(fast.len(), slow.len());
            for (f, s) in fast.iter().zip(&slow) {
                assert!((f - s).abs() < 1e-9, "n={n}: {f} vs {s}");
            }
        }
    }

    #[test]
    fn frame_length_taps_are_bit_identical() {
        // Precomputing the window for the frames' real length changes no
        // coefficient, for frames of that length or any other.
        let cfg = MfccConfig {
            n_fft: 256,
            n_coeffs: 26,
            ..config()
        };
        let full = MfccExtractor::new(cfg.clone()).unwrap();
        let short = MfccExtractor::new(cfg).unwrap().with_frame_len(61);
        let mut scratch = DspScratch::new();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for n in [61usize, 60, 256, 300] {
            let x = tone(18_000.0, 48_000.0, n);
            full.extract_into(&mut scratch, &x, &mut a).unwrap();
            short.extract_into(&mut scratch, &x, &mut b).unwrap();
            assert_eq!(a, b, "n={n}");
        }
    }

    #[test]
    fn empty_segment_is_rejected() {
        let ex = MfccExtractor::new(config()).unwrap();
        assert!(matches!(ex.extract(&[]), Err(DspError::EmptyInput)));
    }

    #[test]
    fn different_tones_give_different_mfccs() {
        let ex = MfccExtractor::new(config()).unwrap();
        let a = ex.extract(&tone(16_500.0, 48_000.0, 512)).unwrap();
        let b = ex.extract(&tone(19_500.0, 48_000.0, 512)).unwrap();
        let dist: f64 = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt();
        assert!(dist > 0.5, "MFCCs should separate distinct tones: {dist}");
    }

    #[test]
    fn mfcc_is_amplitude_shift_in_c0_only_approximately() {
        // Doubling amplitude adds a constant to the log energies, which the
        // orthonormal DCT maps into coefficient 0 — higher coefficients are
        // (nearly) invariant.
        let ex = MfccExtractor::new(config()).unwrap();
        let x = tone(18_000.0, 48_000.0, 512);
        let x2: Vec<f64> = x.iter().map(|v| v * 2.0).collect();
        let a = ex.extract(&x).unwrap();
        let b = ex.extract(&x2).unwrap();
        for k in 1..13 {
            assert!((a[k] - b[k]).abs() < 1e-6, "coeff {k} moved");
        }
        assert!(b[0] > a[0]);
    }
}
