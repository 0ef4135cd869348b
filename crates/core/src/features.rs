//! Feature extraction (paper §IV-C-2).
//!
//! "EarSonar constructs a 105-element feature vector for each MEE signal
//! segment, which includes MFCC features and statistical features." The
//! layout used here:
//!
//! | slice      | count | contents                                          |
//! |------------|-------|----------------------------------------------------|
//! | `0..26`    | 26    | mean MFCC of the eardrum-echo windows across chirps |
//! | `26..52`   | 26    | per-coefficient MFCC standard deviation             |
//! | `52..84`   | 32    | averaged normalized echo PSD profile (16–20 kHz)    |
//! | `84..90`   | 6     | statistics of the profile (mean, std, max, min, skew, kurtosis) |
//! | `90..96`   | 6     | statistics of the echo time-domain window           |
//! | `96..105`  | 9     | spectral-shape descriptors (dip, centroid, flatness, …) |

use crate::absorption::{EchoSpectrum, ECHO_IR_PRE, ECHO_IR_TAIL, N_FFT, PROFILE_BINS};
use crate::config::EarSonarConfig;
use crate::error::EarSonarError;
use crate::preprocess::PROBE_BAND_HZ;
use crate::segment::EardrumEcho;
use earsonar_dsp::mfcc::{MfccConfig, MfccExtractor};
use earsonar_dsp::plan::DspScratch;
use earsonar_dsp::stats::{self, Summary};

/// Total feature-vector length, matching the paper.
pub const FEATURE_COUNT: usize = 105;

const N_MFCC: usize = 26;
// The layout above: MFCC means and stds, the profile, then 6 + 6 + 9.
const _: () = assert!(2 * N_MFCC + PROFILE_BINS + 21 == FEATURE_COUNT);

/// The pipeline's MFCC settings at `sample_rate`: 26 mel filters over the
/// probe band and one cepstral coefficient per filter, read from the echo
/// spectrum's transform length (each frame Hann-tapered by the extractor).
pub fn mfcc_config(sample_rate: f64) -> MfccConfig {
    MfccConfig {
        sample_rate,
        n_fft: N_FFT,
        n_filters: N_MFCC,
        n_coeffs: N_MFCC,
        f_min: PROBE_BAND_HZ.0,
        f_max: PROBE_BAND_HZ.1,
    }
}

/// Extracts the 105-element feature vector from segmented echoes.
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    mfcc: MfccExtractor,
}

impl FeatureExtractor {
    /// Builds the extractor at the configuration's sample rate.
    ///
    /// # Errors
    ///
    /// Returns [`EarSonarError::Dsp`] if the MFCC filterbank cannot be
    /// built.
    pub fn new(config: &EarSonarConfig) -> Result<Self, EarSonarError> {
        // The MFCC frames are the echo IR sections, so precompute the
        // window for their length rather than for a full FFT frame.
        let mfcc = MfccExtractor::new(mfcc_config(config.sample_rate))?;
        Ok(FeatureExtractor {
            mfcc: mfcc.with_frame_len(ECHO_IR_PRE + ECHO_IR_TAIL),
        })
    }

    /// Extracts the feature vector for one recording from its per-chirp
    /// spectra, the recording-averaged spectrum, and the segmented echoes,
    /// with DSP intermediates (the per-chirp MFCC frame, spectrum, and
    /// filterbank buffers) drawn from `scratch`.
    ///
    /// # Errors
    ///
    /// Returns [`EarSonarError::NoEchoDetected`] if no chirp produced a
    /// spectrum, and propagates MFCC errors.
    pub fn extract_with(
        &self,
        scratch: &mut DspScratch,
        per_chirp: &[EchoSpectrum],
        averaged: &EchoSpectrum,
        echoes: &[EardrumEcho],
    ) -> Result<Vec<f64>, EarSonarError> {
        if per_chirp.is_empty() {
            return Err(EarSonarError::NoEchoDetected);
        }
        let mut features = Vec::with_capacity(FEATURE_COUNT);

        // MFCC mean and std across chirps.
        let mut mfccs = Vec::with_capacity(per_chirp.len());
        for spectrum in per_chirp {
            let mut coeffs = Vec::with_capacity(N_MFCC);
            self.mfcc
                .extract_into(scratch, &spectrum.echo_window, &mut coeffs)?;
            mfccs.push(coeffs);
        }
        let n = mfccs.len() as f64;
        let mut mean = vec![0.0; N_MFCC];
        for m in &mfccs {
            for (acc, &v) in mean.iter_mut().zip(m) {
                *acc += v;
            }
        }
        for v in &mut mean {
            *v /= n;
        }
        let mut std = vec![0.0; N_MFCC];
        for m in &mfccs {
            for ((acc, &v), &mu) in std.iter_mut().zip(m).zip(&mean) {
                *acc += (v - mu) * (v - mu);
            }
        }
        for v in &mut std {
            *v = (*v / n).sqrt();
        }
        features.extend_from_slice(&mean);
        features.extend_from_slice(&std);

        // Averaged PSD profile.
        features.extend_from_slice(&averaged.profile);

        // Profile statistics.
        features.extend_from_slice(&Summary::of(&averaged.profile).to_array());

        // Time-domain echo statistics (averaged over chirps).
        let mut td = [0.0; 6];
        for s in per_chirp {
            let a = Summary::of(&s.echo_window).to_array();
            for (acc, v) in td.iter_mut().zip(a) {
                *acc += v;
            }
        }
        for v in &mut td {
            *v /= n;
        }
        features.extend_from_slice(&td);

        // Spectral-shape descriptors.
        features.extend_from_slice(&self.shape_descriptors(averaged, echoes));

        debug_assert_eq!(features.len(), FEATURE_COUNT);
        Ok(features)
    }

    fn shape_descriptors(&self, spec: &EchoSpectrum, echoes: &[EardrumEcho]) -> [f64; 9] {
        let (low, high) = PROBE_BAND_HZ;
        let norm_f = |f: f64| ((f - low) / (high - low)).clamp(0.0, 1.0);

        let p = &spec.profile;
        let total: f64 = p.iter().sum::<f64>().max(f64::MIN_POSITIVE);
        let centroid: f64 = p
            .iter()
            .zip(&spec.frequencies)
            .map(|(&v, &f)| v * norm_f(f))
            .sum::<f64>()
            / total;
        let spread: f64 = (p
            .iter()
            .zip(&spec.frequencies)
            .map(|(&v, &f)| v * (norm_f(f) - centroid).powi(2))
            .sum::<f64>()
            / total)
            .sqrt();
        let geo_mean = (p.iter().map(|&v| (v.max(1e-12)).ln()).sum::<f64>() / p.len() as f64).exp();
        let flatness = geo_mean / (total / p.len() as f64);
        let half = p.len() / 2;
        let low_half: f64 = p[..half].iter().sum();
        let high_half: f64 = p[half..].iter().sum::<f64>().max(f64::MIN_POSITIVE);
        let half_ratio = (low_half / high_half).min(100.0);
        let dip_f = spec.dip_frequency().map(norm_f).unwrap_or(0.5);
        let peak_f = stats::argmax(p)
            .map(|i| norm_f(spec.frequencies[i]))
            .unwrap_or(0.5);
        let mean_parity = if echoes.is_empty() {
            0.5
        } else {
            echoes.iter().map(|e| e.energy_ratio).sum::<f64>() / echoes.len() as f64
        };
        [
            dip_f,
            spec.dip_depth(),
            centroid,
            spread,
            flatness,
            half_ratio,
            peak_f,
            (spec.band_power + 1e-12).ln(),
            mean_parity,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absorption::notched_ir_spectrum;

    fn config() -> EarSonarConfig {
        EarSonarConfig::default()
    }

    /// One extraction on a fresh scratch.
    fn extract(
        ex: &FeatureExtractor,
        per_chirp: &[EchoSpectrum],
        averaged: &EchoSpectrum,
        echoes: &[EardrumEcho],
    ) -> Result<Vec<f64>, EarSonarError> {
        ex.extract_with(&mut DspScratch::new(), per_chirp, averaged, echoes)
    }

    #[test]
    fn feature_vector_has_105_elements() {
        let cfg = config();
        let ex = FeatureExtractor::new(&cfg).unwrap();
        let (spec, echo) = notched_ir_spectrum(0.3, &cfg);
        let f = extract(&ex, &[spec.clone(), spec.clone()], &spec, &[echo]).unwrap();
        assert_eq!(f.len(), FEATURE_COUNT);
        assert!(f.iter().all(|v| v.is_finite()), "non-finite feature");
    }

    #[test]
    fn deeper_dip_lowers_band_power_feature() {
        let cfg = config();
        let ex = FeatureExtractor::new(&cfg).unwrap();
        let mut powers = Vec::new();
        for d in [0.05, 0.65] {
            let (spec, echo) = notched_ir_spectrum(d, &cfg);
            let f = extract(&ex, std::slice::from_ref(&spec), &spec, &[echo]).unwrap();
            powers.push(f[103]); // shape_log_band_power
        }
        assert!(powers[1] < powers[0], "log band power: {powers:?}");
    }

    #[test]
    fn identical_chirps_have_zero_mfcc_std() {
        let cfg = config();
        let ex = FeatureExtractor::new(&cfg).unwrap();
        let (spec, echo) = notched_ir_spectrum(0.2, &cfg);
        let f = extract(
            &ex,
            &[spec.clone(), spec.clone(), spec.clone()],
            &spec,
            &[echo],
        )
        .unwrap();
        for (i, v) in f.iter().enumerate().take(52).skip(26) {
            assert!(v.abs() < 1e-12, "mfcc std {i} = {v}");
        }
    }

    #[test]
    fn empty_input_is_rejected() {
        let cfg = config();
        let ex = FeatureExtractor::new(&cfg).unwrap();
        let (spec, _) = notched_ir_spectrum(0.2, &cfg);
        assert!(matches!(
            extract(&ex, &[], &spec, &[]),
            Err(EarSonarError::NoEchoDetected)
        ));
    }

    #[test]
    fn profile_features_are_copied_verbatim() {
        let cfg = config();
        let ex = FeatureExtractor::new(&cfg).unwrap();
        let (spec, echo) = notched_ir_spectrum(0.4, &cfg);
        let f = extract(&ex, std::slice::from_ref(&spec), &spec, &[echo]).unwrap();
        for (i, &p) in spec.profile.iter().enumerate() {
            assert_eq!(f[52 + i], p);
        }
    }
}
