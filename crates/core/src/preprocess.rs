//! Noise removal (paper §IV-B-1).
//!
//! "To reduce the noise interference in the environment, we filter the
//! received echo signal through a Butterworth bandpass filter." The filter
//! is applied forward–backward (zero phase) so echo timing — which the
//! segmentation stage depends on — is preserved.

use crate::config::EarSonarConfig;
use crate::error::EarSonarError;
use earsonar_dsp::filter::{butter_bandpass, filtfilt, filtfilt_lanes, BiquadCascade};

/// A reusable preprocessing stage holding the designed band-pass filter.
#[derive(Debug, Clone)]
pub struct Preprocessor {
    filter: BiquadCascade,
    pad: usize,
}

impl Preprocessor {
    /// Designs the band-pass filter from the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`EarSonarError::Dsp`] if the filter design is infeasible.
    pub fn new(config: &EarSonarConfig) -> Result<Self, EarSonarError> {
        let filter = butter_bandpass(
            config.noise_filter_order,
            config.band_low_hz,
            config.band_high_hz,
            config.sample_rate,
        )?;
        Ok(Preprocessor {
            filter,
            pad: 3 * config.chirp_len,
        })
    }

    /// Zero-phase band-pass filters a raw capture.
    ///
    /// This is the pinned scalar reference path (allocating
    /// [`filtfilt`]); the pipeline's per-chirp loop uses
    /// [`Preprocessor::run_with`], which is bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`EarSonarError::Dsp`] for an empty signal.
    pub fn run(&self, samples: &[f64]) -> Result<Vec<f64>, EarSonarError> {
        Ok(filtfilt(&self.filter, samples, self.pad)?)
    }

    /// [`Preprocessor::run`] into caller-owned buffers: `ext` holds the
    /// filter's reflected extension, `out` the filtered samples.
    /// Allocation-free once the buffers are warm, no per-call cascade
    /// clone, and **bit-identical** to [`Preprocessor::run`] (see
    /// [`earsonar_dsp::filter::filtfilt_with`]). This is the one-lane
    /// instance of [`Preprocessor::run_lanes`].
    ///
    /// # Errors
    ///
    /// Returns [`EarSonarError::Dsp`] for an empty signal.
    pub fn run_with(
        &self,
        samples: &[f64],
        ext: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) -> Result<(), EarSonarError> {
        self.run_lanes([samples], [0], ext, [out])
    }

    /// [`Preprocessor::run_with`] of `L` signals in one lane-interleaved
    /// filter pass ([`filtfilt_lanes`]). The first `context[l]` samples of
    /// `samples[l]` are context only: `outs[l]` receives the filtered
    /// samples after them, bit-identical to those samples of filtering the
    /// whole signal alone. The signals may differ in length.
    ///
    /// # Errors
    ///
    /// Returns [`EarSonarError::Dsp`] if any signal is empty.
    pub fn run_lanes<const L: usize>(
        &self,
        samples: [&[f64]; L],
        context: [usize; L],
        ext: &mut Vec<f64>,
        outs: [&mut Vec<f64>; L],
    ) -> Result<(), EarSonarError> {
        filtfilt_lanes(&self.filter, samples, self.pad, context, ext, outs)?;
        Ok(())
    }

    /// The designed filter (for inspection and benchmarking).
    pub fn filter(&self) -> &BiquadCascade {
        &self.filter
    }

    /// The edge-padding length of the zero-phase filter — also how many
    /// samples of preceding context a windowed caller should supply so the
    /// window's interior is filtered as if it sat inside the full stream.
    pub fn context_len(&self) -> usize {
        self.pad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn config() -> EarSonarConfig {
        EarSonarConfig::paper_default()
    }

    #[test]
    fn removes_low_frequency_noise() {
        let pre = Preprocessor::new(&config()).unwrap();
        let fs = 48_000.0;
        let n = 4096;
        let probe: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * 18_000.0 * i as f64 / fs).sin())
            .collect();
        let noisy: Vec<f64> = probe
            .iter()
            .enumerate()
            .map(|(i, &p)| p + 3.0 * (2.0 * PI * 500.0 * i as f64 / fs).sin())
            .collect();
        let clean = pre.run(&noisy).unwrap();
        let low = earsonar_dsp::goertzel::goertzel_magnitude(&clean, 500.0, fs).unwrap();
        let probe_mag = earsonar_dsp::goertzel::goertzel_magnitude(&clean, 18_000.0, fs).unwrap();
        assert!(probe_mag > 100.0 * low, "probe {probe_mag} vs low {low}");
    }

    #[test]
    fn preserves_in_band_energy() {
        let pre = Preprocessor::new(&config()).unwrap();
        let fs = 48_000.0;
        let probe: Vec<f64> = (0..4096)
            .map(|i| (2.0 * PI * 18_000.0 * i as f64 / fs).sin())
            .collect();
        let out = pre.run(&probe).unwrap();
        let e_in: f64 = probe[512..3584].iter().map(|v| v * v).sum();
        let e_out: f64 = out[512..3584].iter().map(|v| v * v).sum();
        assert!((e_out / e_in - 1.0).abs() < 0.05, "ratio {}", e_out / e_in);
    }

    #[test]
    fn empty_input_is_rejected() {
        let pre = Preprocessor::new(&config()).unwrap();
        assert!(matches!(pre.run(&[]), Err(EarSonarError::Dsp(_))));
        let (mut ext, mut out) = (Vec::new(), Vec::new());
        assert!(matches!(
            pre.run_with(&[], &mut ext, &mut out),
            Err(EarSonarError::Dsp(_))
        ));
    }

    #[test]
    fn run_with_is_bit_identical_to_run() {
        let pre = Preprocessor::new(&config()).unwrap();
        let fs = 48_000.0;
        let (mut ext, mut out) = (Vec::new(), Vec::new());
        for n in [2048usize, 241, 17] {
            let x: Vec<f64> = (0..n)
                .map(|i| (2.0 * PI * 18_000.0 * i as f64 / fs).sin() * (1.0 + i as f64 * 1e-4))
                .collect();
            let reference = pre.run(&x).unwrap();
            pre.run_with(&x, &mut ext, &mut out).unwrap();
            assert_eq!(out, reference, "n={n}");
        }
    }

    #[test]
    fn filter_is_stable() {
        let pre = Preprocessor::new(&config()).unwrap();
        assert!(pre.filter().is_stable());
    }

    #[test]
    fn bad_band_fails_construction() {
        let mut cfg = config();
        cfg.band_low_hz = 25_000.0;
        cfg.band_high_hz = 26_000.0;
        assert!(Preprocessor::new(&cfg).is_err());
    }
}
