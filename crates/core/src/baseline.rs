//! The prior-work comparator (paper §I, §VII).
//!
//! Chan et al. detect middle-ear fluid with a smartphone "but they did not
//! perform fine-grained segmentation and analysis on the signal, so the
//! detection accuracy did not exceed 85%". [`ChanBaseline`] reproduces that
//! design point: it dechirps each probe (Chan et al. also used FMCW) but
//! classifies from the spectrum of the **whole** channel response — direct
//! leak, canal multipath, and eardrum echo mixed together — with the same
//! clustering back end as EarSonar. The missing eardrum-echo isolation is
//! the paper's claimed ~8% advantage.

use crate::channel::{average_irs, chirp_template, pipeline_estimator, ChannelEstimator};
use crate::config::EarSonarConfig;
use crate::error::EarSonarError;
use crate::preprocess::Preprocessor;
use earsonar_dsp::fanout;
use earsonar_dsp::stats::Summary;
use earsonar_ml::kmeans::{KMeans, KMeansConfig};
use earsonar_ml::labeling::ClusterLabeling;
use earsonar_ml::scaler::StandardScaler;
use earsonar_signal::effusion::MeeState;
use earsonar_signal::recording::Recording;
use earsonar_signal::session::Session;

/// Number of coarse spectrum bins the baseline uses as features.
const BASELINE_BINS: usize = 32;

/// A fitted Chan-et-al-style smartphone baseline.
#[derive(Debug, Clone)]
pub struct ChanBaseline {
    config: EarSonarConfig,
    preprocessor: Preprocessor,
    estimator: ChannelEstimator,
    scaler: StandardScaler,
    kmeans: KMeans,
    labeling: ClusterLabeling,
}

impl ChanBaseline {
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
        let spec = crate::absorption::padded_spectrum(&avg_ir, config.n_fft)?;
        let n_fft = spec.len();
        let df = config.sample_rate / n_fft as f64;
        let (p_lo, p_hi) = config.profile_band_hz;
        let k_lo = (p_lo / df).floor() as usize;
        let k_hi = ((p_hi / df).ceil() as usize).min(n_fft / 2);
        let band: Vec<f64> = (k_lo..=k_hi).map(|k| spec[k].norm_sqr()).collect();
        let profile = earsonar_dsp::interp::resample_uniform(&band, BASELINE_BINS);
        let mut features = profile.clone();
        features.extend_from_slice(&Summary::of(&profile).to_array());
        Ok(features)
    }

    /// Fits the baseline on labelled sessions.
    ///
    /// # Errors
    ///
    /// Returns [`EarSonarError::NoEchoDetected`] if no session could be
    /// processed, plus any clustering error.
    pub fn fit(sessions: &[Session], config: &EarSonarConfig) -> Result<Self, EarSonarError> {
        config.validate()?;
        let preprocessor = Preprocessor::new(config)?;
        let estimator = Self::build_estimator(&preprocessor, config)?;
        let per_session = fanout::map_indexed(sessions.len(), || (), |_, i| {
            Self::features(&preprocessor, &estimator, config, &sessions[i].recording).ok()
        });
        let mut feats = Vec::new();
        let mut labels = Vec::new();
        for (s, f) in sessions.iter().zip(per_session) {
            if let Some(f) = f {
                feats.push(f);
                labels.push(s.ground_truth.index());
            }
        }
        if feats.is_empty() {
            return Err(EarSonarError::NoEchoDetected);
        }
        let (scaler, scaled) = StandardScaler::fit_transform(&feats)?;
        let kmeans = KMeans::fit(
            &scaled,
            &KMeansConfig {
                k: config.k_clusters,
                n_init: config.kmeans_restarts,
                seed: config.seed,
                ..Default::default()
            },
        )?;
        let labeling =
            ClusterLabeling::fit(kmeans.labels(), &labels, config.k_clusters, MeeState::COUNT)?;
        Ok(ChanBaseline {
            config: config.clone(),
            preprocessor,
            estimator,
            scaler,
            kmeans,
            labeling,
        })
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
        let mut raw = chirp_template(config)?;
        raw.extend(std::iter::repeat_n(0.0, raw.len()));
        let filtered = preprocessor.run(&raw)?;
        pipeline_estimator(&filtered, config)
    }

    /// Screens one recording with the baseline.
    ///
    /// # Errors
    ///
    /// Propagates feature-extraction and prediction errors.
    pub fn screen(&self, recording: &Recording) -> Result<MeeState, EarSonarError> {
        let f = Self::features(&self.preprocessor, &self.estimator, &self.config, recording)?;
        let scaled = self.scaler.transform_sample(&f)?;
        let cluster = self.kmeans.predict(&scaled);
        Ok(MeeState::from_index(self.labeling.class_of(cluster)))
    }
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
    fn baseline_fits_and_predicts() {
        let ds = dataset(6, 11);
        let baseline = ChanBaseline::fit(&ds.sessions, &EarSonarConfig::default()).unwrap();
        let mut correct = 0;
        for s in &ds.sessions {
            if baseline.screen(&s.recording).unwrap() == s.ground_truth {
                correct += 1;
            }
        }
        // Better than chance, worse than perfect.
        let acc = correct as f64 / ds.sessions.len() as f64;
        assert!(acc > 0.3, "baseline accuracy {acc}");
    }

    #[test]
    fn baseline_features_have_fixed_width() {
        let ds = dataset(1, 12);
        let cfg = EarSonarConfig::default();
        let pre = Preprocessor::new(&cfg).unwrap();
        let est = ChanBaseline::build_estimator(&pre, &cfg).unwrap();
        let f = ChanBaseline::features(&pre, &est, &cfg, &ds.sessions[0].recording).unwrap();
        assert_eq!(f.len(), BASELINE_BINS + 6);
        assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn short_recording_is_rejected() {
        let cfg = EarSonarConfig::default();
        let pre = Preprocessor::new(&cfg).unwrap();
        let est = ChanBaseline::build_estimator(&pre, &cfg).unwrap();
        let rec = Recording {
            samples: vec![0.0; 100],
            sample_rate: 48_000.0,
            chirp_hop: 240,
            n_chirps: 1,
            chirp_len: 24,
        };
        assert!(ChanBaseline::features(&pre, &est, &cfg, &rec).is_err());
    }
}
