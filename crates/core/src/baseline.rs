//! The prior-work comparator (paper §I, §VII).
//!
//! Chan et al. detect middle-ear fluid with a smartphone "but they did not
//! perform fine-grained segmentation and analysis on the signal, so the
//! detection accuracy did not exceed 85%". This module reproduces that
//! design point's features: it dechirps each probe (Chan et al. also used
//! FMCW) but takes the spectrum of the **whole** channel response — direct
//! leak, canal multipath, and eardrum echo mixed together.
//! [`crate::eval::loocv_baseline`] classifies them with the same clustering
//! back end as EarSonar, so the missing eardrum-echo isolation is the
//! paper's claimed ~8% advantage.

use crate::absorption::{N_FFT, PROFILE_BAND_HZ};
use crate::channel::{average_irs, template_and_estimator, ChannelEstimator};
use crate::config::EarSonarConfig;
use crate::error::EarSonarError;
use crate::preprocess::Preprocessor;
use earsonar_dsp::plan::FftPlan;
use earsonar_dsp::stats::Summary;
use earsonar_signal::recording::Recording;

/// Number of coarse spectrum bins the baseline uses as features.
const BASELINE_BINS: usize = 32;

/// Extracts the baseline's features from a recording: the 16–20 kHz
/// spectrum of the **entire** dechirped channel response (all taps, no
/// eardrum-echo segmentation), as a 32-bin profile plus its summary
/// statistics.
///
/// # Errors
///
/// Returns [`EarSonarError::BadRecording`] for an empty or too-short
/// recording.
pub fn features(
    preprocessor: &Preprocessor,
    estimator: &ChannelEstimator,
    config: &EarSonarConfig,
    recording: &Recording,
) -> Result<Vec<f64>, EarSonarError> {
    if recording.samples.len() < recording.chirp_hop.max(64) {
        return Err(EarSonarError::BadRecording {
            reason: "recording too short for the baseline's chirp spectra",
        });
    }
    let filtered = preprocessor.run(&recording.samples)?;
    let hop = recording.chirp_hop.max(1);
    let mut irs = Vec::new();
    let mut start = 0usize;
    while start + hop <= filtered.len() {
        if let Ok(ir) = estimator.estimate(&filtered[start..start + hop]) {
            irs.push(ir);
        }
        start += hop;
    }
    let avg_ir = average_irs(&irs)?;
    // Whole-response spectrum: no segmentation, so the direct leak and
    // wall reflections interfere with the eardrum return.
    let mut spec = Vec::new();
    FftPlan::shared(N_FFT)?.forward_from_real(&avg_ir, &mut spec);
    let df = config.sample_rate / N_FFT as f64;
    let (p_lo, p_hi) = PROFILE_BAND_HZ;
    let k_lo = (p_lo / df).floor() as usize;
    let k_hi = ((p_hi / df).ceil() as usize).min(N_FFT / 2);
    let band: Vec<f64> = (k_lo..=k_hi).map(|k| spec[k].norm_sqr()).collect();
    let profile = earsonar_dsp::interp::resample_uniform(&band, BASELINE_BINS);
    let mut features = profile.clone();
    features.extend_from_slice(&Summary::of(&profile).to_array());
    Ok(features)
}

/// Builds the dechirping estimator the baseline shares with EarSonar.
///
/// # Errors
///
/// Propagates template/estimator construction errors.
pub fn build_estimator(
    preprocessor: &Preprocessor,
    config: &EarSonarConfig,
) -> Result<ChannelEstimator, EarSonarError> {
    template_and_estimator(preprocessor, config).map(|(_, estimator)| estimator)
}

#[cfg(test)]
mod tests {
    use super::*;
    use earsonar_sim::cohort::Cohort;
    use earsonar_sim::dataset::{Dataset, DatasetSpec};

    fn dataset(n: usize, seed: u64) -> Dataset {
        Dataset::build(&Cohort::generate(n, seed), &DatasetSpec::default())
    }

    #[test]
    fn baseline_features_have_fixed_width() {
        let ds = dataset(1, 12);
        let cfg = EarSonarConfig::default();
        let pre = Preprocessor::new(&cfg).unwrap();
        let est = build_estimator(&pre, &cfg).unwrap();
        let f = features(&pre, &est, &cfg, &ds.sessions[0].recording).unwrap();
        assert_eq!(f.len(), BASELINE_BINS + 6);
        assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn short_recording_is_rejected() {
        let cfg = EarSonarConfig::default();
        let pre = Preprocessor::new(&cfg).unwrap();
        let est = build_estimator(&pre, &cfg).unwrap();
        let rec = Recording {
            samples: vec![0.0; 100],
            sample_rate: 48_000.0,
            chirp_hop: 240,
            n_chirps: 1,
            chirp_len: 24,
        };
        assert!(features(&pre, &est, &cfg, &rec).is_err());
    }
}
