//! Wideband-absorbance feature extraction (the non-reference feature
//! backend of [`crate::backend`]).
//!
//! Grais et al. (arXiv 2103.02982) show that OME detection from the
//! *wideband absorbance* curve — the fraction of probe energy the middle
//! ear absorbs at each frequency — beats single-feature rules when paired
//! with a learned classifier. This extractor converts the eardrum-echo
//! power profile produced by the shared front end into an absorbance
//! curve and augments it with physics-grounded template similarities
//! computed from `earsonar-acoustics` ([`EardrumResponse::with_effusion`]
//! over the paper's effusion media and the impedance chain behind it).
//!
//! Layout of the 45-element vector (`version` 1):
//!
//! | slice     | count | contents                                           |
//! |-----------|-------|----------------------------------------------------|
//! | `0..32`   | 32    | absorbance curve `1 − p_i / max(p)` over the band   |
//! | `32..38`  | 6     | absorbance statistics (mean, std, max, min, skew, kurtosis) |
//! | `38..40`  | 2     | measured dip frequency (band-normalized) and depth  |
//! | `40..43`  | 3     | cosine similarity to serous/mucoid/purulent templates |
//! | `43..45`  | 2     | log band power, mean parity energy ratio            |

use crate::absorption::{EchoSpectrum, PROFILE_BAND_HZ, PROFILE_BINS};
use crate::error::EarSonarError;
use crate::segment::EardrumEcho;
use earsonar_acoustics::absorption::EardrumResponse;
use earsonar_acoustics::medium::Medium;
use earsonar_dsp::stats::Summary;
use earsonar_ml::distance::cosine_similarity;

/// Total absorbance feature-vector length.
pub const ABSORBANCE_FEATURE_COUNT: usize = 45;
// The layout above: the absorbance curve, then 6 + 2 + 3 + 2.
const _: () = assert!(PROFILE_BINS + 13 == ABSORBANCE_FEATURE_COUNT);

/// Per-state effusion templates: medium, layer thickness, dip depth and
/// width. Thickness and dip severity grow with effusion viscosity, the
/// ordering the paper's §II acoustics motivates.
const TEMPLATES: [(Medium, f64, f64, f64); 3] = [
    (Medium::SEROUS_EFFUSION, 0.002, 0.35, 450.0),
    (Medium::MUCOID_EFFUSION, 0.003, 0.55, 600.0),
    (Medium::PURULENT_EFFUSION, 0.004, 0.75, 750.0),
];

/// Extracts the 45-element wideband-absorbance feature vector.
#[derive(Debug, Clone)]
pub struct AbsorbanceExtractor;

impl AbsorbanceExtractor {
    /// Extracts the feature vector from the recording-averaged spectrum
    /// and the segmented echoes.
    ///
    /// # Errors
    ///
    /// Returns [`EarSonarError::NoEchoDetected`] if no chirp produced a
    /// spectrum.
    pub fn extract(
        &self,
        per_chirp: &[EchoSpectrum],
        averaged: &EchoSpectrum,
        echoes: &[EardrumEcho],
    ) -> Result<Vec<f64>, EarSonarError> {
        if per_chirp.is_empty() {
            return Err(EarSonarError::NoEchoDetected);
        }
        let mut features = Vec::with_capacity(ABSORBANCE_FEATURE_COUNT);

        // Absorbance curve: the echo profile is a reflected-power measure,
        // so relative absorbance per bin is one minus the bin's share of
        // the strongest reflection. A silent profile yields zeros.
        let max_p = averaged.profile.iter().copied().fold(0.0f64, f64::max);
        let absorbance: Vec<f64> = if max_p > 0.0 {
            averaged
                .profile
                .iter()
                .map(|&p| (1.0 - p / max_p).clamp(0.0, 1.0))
                .collect()
        } else {
            vec![0.0; averaged.profile.len()]
        };
        features.extend_from_slice(&absorbance);

        // Curve statistics.
        features.extend_from_slice(&Summary::of(&absorbance).to_array());

        // Measured dip position and depth.
        let (lo, hi) = PROFILE_BAND_HZ;
        let norm_f = |f: f64| ((f - lo) / (hi - lo)).clamp(0.0, 1.0);
        let dip_center = averaged.dip_frequency().unwrap_or(0.5 * (lo + hi));
        features.push(norm_f(dip_center));
        features.push(averaged.dip_depth());

        // Physics templates: theoretical absorbance curves for the three
        // effusion media (impedance chain → reflectance → absorbance),
        // anchored at the measured dip so similarity scores compare curve
        // *shape* rather than dip placement.
        for (medium, thickness, depth, dip_width) in TEMPLATES {
            let response =
                EardrumResponse::with_effusion(medium, thickness, dip_center, depth, dip_width);
            let template: Vec<f64> = averaged
                .frequencies
                .iter()
                .map(|&f| 1.0 - response.reflectance_at(f))
                .collect();
            features.push(cosine_similarity(&absorbance, &template));
        }

        features.push((averaged.band_power + 1e-12).ln());
        let mean_parity = if echoes.is_empty() {
            0.5
        } else {
            echoes.iter().map(|e| e.energy_ratio).sum::<f64>() / echoes.len() as f64
        };
        features.push(mean_parity);

        debug_assert_eq!(features.len(), ABSORBANCE_FEATURE_COUNT);
        Ok(features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absorption::notched_ir_spectrum;
    use crate::config::EarSonarConfig;

    fn config() -> EarSonarConfig {
        EarSonarConfig::default()
    }

    #[test]
    fn vector_has_45_finite_elements() {
        let cfg = config();
        let ex = AbsorbanceExtractor;
        let (spec, echo) = notched_ir_spectrum(0.3, &cfg);
        let f = ex
            .extract(std::slice::from_ref(&spec), &spec, &[echo])
            .unwrap();
        assert_eq!(f.len(), ABSORBANCE_FEATURE_COUNT);
        assert!(f.iter().all(|v| v.is_finite()), "non-finite feature: {f:?}");
    }

    /// A spectrum with a Gaussian notch of the given depth at 18 kHz on
    /// an otherwise flat reflected-power profile.
    fn notched_spectrum(depth: f64) -> EchoSpectrum {
        let (lo, hi) = PROFILE_BAND_HZ;
        let n = PROFILE_BINS;
        let frequencies: Vec<f64> = (0..n)
            .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
            .collect();
        let profile: Vec<f64> = frequencies
            .iter()
            .map(|&f| {
                let x = (f - 18_000.0) / 400.0;
                1.0 - depth * (-0.5 * x * x).exp()
            })
            .collect();
        EchoSpectrum {
            profile,
            frequencies,
            band_power: 1.0,
            echo_window: vec![0.0; 8],
        }
    }

    #[test]
    fn deeper_dip_raises_mean_absorbance() {
        let ex = AbsorbanceExtractor;
        let mut means = Vec::new();
        let mut depths = Vec::new();
        for d in [0.1, 0.7] {
            let spec = notched_spectrum(d);
            let f = ex.extract(std::slice::from_ref(&spec), &spec, &[]).unwrap();
            means.push(f[32]); // absorbance_mean
            depths.push(f[39]); // measured dip depth
        }
        assert!(means[1] > means[0], "absorbance means: {means:?}");
        assert!(depths[1] > depths[0], "dip depths: {depths:?}");
    }

    #[test]
    fn template_similarities_are_bounded() {
        let cfg = config();
        let ex = AbsorbanceExtractor;
        let (spec, echo) = notched_ir_spectrum(0.5, &cfg);
        let f = ex
            .extract(std::slice::from_ref(&spec), &spec, &[echo])
            .unwrap();
        for &sim in &f[40..43] {
            assert!((-1.0..=1.0).contains(&sim), "similarity {sim}");
        }
    }

    #[test]
    fn empty_input_is_rejected() {
        let cfg = config();
        let ex = AbsorbanceExtractor;
        let (spec, _) = notched_ir_spectrum(0.2, &cfg);
        assert!(matches!(
            ex.extract(&[], &spec, &[]),
            Err(EarSonarError::NoEchoDetected)
        ));
    }
}
