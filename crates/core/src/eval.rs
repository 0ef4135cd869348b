//! Evaluation harness (paper §VI-A).
//!
//! Implements the paper's leave-one-participant-out cross-validation: for
//! each of the N participants, train on the other N−1 and predict the held
//! one. Feature extraction is hoisted out of the fold loop — the front end
//! is deterministic per recording, so each session is processed exactly
//! once, and the per-recording extraction fans out across the host's
//! cores (`earsonar_dsp::fanout`). The folds themselves stay sequential:
//! fanning them out keeps every fold's training copy alive at once, which
//! raised the benchmark's `train-eval` peak RSS by about 11%.
//!
//! The A/B harness ([`ab_compare`]) runs any set of registered
//! [`crate::backend`]s through the *same* LOOCV folds on the *same*
//! sessions and reports per-class precision deltas against the reference
//! MFCC+k-means baseline.

use crate::backend::{self, BackendSpec};
use crate::baseline::ChanBaseline;
use crate::config::EarSonarConfig;
use crate::detect::EarSonarDetector;
use crate::error::EarSonarError;
use crate::pipeline::FrontEnd;
use crate::preprocess::Preprocessor;
use earsonar_dsp::fanout;
use earsonar_dsp::plan::DspScratch;
use earsonar_ml::crossval::{leave_one_group_out, stratified_split};
use earsonar_ml::metrics::ClassificationReport;
use earsonar_signal::effusion::MeeState;
use earsonar_signal::session::Session;

/// Features and labels extracted from a session set, ready for fold loops.
#[derive(Debug, Clone)]
pub struct ExtractedDataset {
    /// One feature vector per successfully processed session.
    pub features: Vec<Vec<f64>>,
    /// Ground-truth state per session.
    pub labels: Vec<MeeState>,
    /// Participant id per session (the LOOCV group key).
    pub groups: Vec<usize>,
    /// How many sessions failed front-end processing and were dropped.
    pub dropped: usize,
}

impl ExtractedDataset {
    /// Runs the EarSonar front end over every session, fanned out across
    /// the host's cores (bit-identical to a sequential loop).
    ///
    /// # Errors
    ///
    /// Returns [`EarSonarError::NoEchoDetected`] if every session fails.
    pub fn extract(sessions: &[Session], config: &EarSonarConfig) -> Result<Self, EarSonarError> {
        Self::extract_front_end(sessions, &FrontEnd::new(config)?)
    }

    /// Runs a backend's front end over every session (the backend picks
    /// the feature extractor; the signal stages are shared).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ExtractedDataset::extract`].
    pub fn extract_with_backend(
        sessions: &[Session],
        config: &EarSonarConfig,
        spec: &BackendSpec,
    ) -> Result<Self, EarSonarError> {
        Self::extract_front_end(sessions, &FrontEnd::for_backend(config, spec)?)
    }

    fn extract_front_end(sessions: &[Session], fe: &FrontEnd) -> Result<Self, EarSonarError> {
        let per_session = fanout::map_indexed(sessions.len(), DspScratch::new, |scratch, i| {
            fe.process_with(scratch, &sessions[i].recording).ok().map(|p| p.features)
        });
        Self::collect(sessions, per_session)
    }

    /// Like [`ExtractedDataset::extract`] but with the Chan-baseline
    /// whole-signal features instead of the EarSonar front end.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ExtractedDataset::extract`].
    pub fn extract_baseline(
        sessions: &[Session],
        config: &EarSonarConfig,
    ) -> Result<Self, EarSonarError> {
        config.validate()?;
        let pre = Preprocessor::new(config)?;
        let est = ChanBaseline::build_estimator(&pre, config)?;
        let per_session = fanout::map_indexed(sessions.len(), || (), |_, i| {
            ChanBaseline::features(&pre, &est, config, &sessions[i].recording).ok()
        });
        Self::collect(sessions, per_session)
    }

    /// Pairs each session with its extracted features (`None` where the
    /// front end failed), keeping labels and groups aligned and counting
    /// the drops.
    fn collect(
        sessions: &[Session],
        per_session: Vec<Option<Vec<f64>>>,
    ) -> Result<Self, EarSonarError> {
        let mut features = Vec::new();
        let mut labels = Vec::new();
        let mut groups = Vec::new();
        let mut dropped = 0usize;
        for (s, f) in sessions.iter().zip(per_session) {
            match f {
                Some(f) => {
                    features.push(f);
                    labels.push(s.ground_truth);
                    groups.push(s.patient_id);
                }
                None => dropped += 1,
            }
        }
        if features.is_empty() {
            return Err(EarSonarError::NoEchoDetected);
        }
        Ok(ExtractedDataset {
            features,
            labels,
            groups,
            dropped,
        })
    }

    /// Number of usable sessions.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Returns `true` if no session survived extraction.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    fn subset(&self, idx: &[usize]) -> (Vec<Vec<f64>>, Vec<MeeState>) {
        (
            idx.iter().map(|&i| self.features[i].clone()).collect(),
            idx.iter().map(|&i| self.labels[i]).collect(),
        )
    }
}

/// Leave-one-participant-out cross-validation over pre-extracted features.
///
/// The detector (standardize → select → cluster → label) is refitted per
/// fold on the training participants only, then predicts the held-out
/// participant's sessions.
///
/// # Errors
///
/// Returns [`EarSonarError::Ml`] if the dataset has fewer than two
/// participants or a fold fails to fit.
pub fn loocv(
    data: &ExtractedDataset,
    config: &EarSonarConfig,
) -> Result<ClassificationReport, EarSonarError> {
    let splits = leave_one_group_out(&data.groups)?;
    let mut actual = Vec::with_capacity(data.len());
    let mut predicted = Vec::with_capacity(data.len());
    for split in splits {
        let (train_x, train_y) = data.subset(&split.train);
        let detector = EarSonarDetector::fit(&train_x, &train_y, config)?;
        for &i in &split.test {
            let p = detector.predict(&data.features[i])?;
            actual.push(data.labels[i].index());
            predicted.push(p.index());
        }
    }
    Ok(ClassificationReport::from_labels(
        &actual,
        &predicted,
        MeeState::COUNT,
    )?)
}

/// Evaluation with a stratified train/test split at `train_fraction` —
/// the protocol behind the training-size sweep of paper Fig. 15(b).
///
/// # Errors
///
/// Propagates splitting and fitting errors.
pub fn holdout(
    data: &ExtractedDataset,
    config: &EarSonarConfig,
    train_fraction: f64,
    seed: u64,
) -> Result<ClassificationReport, EarSonarError> {
    let class_labels: Vec<usize> = data.labels.iter().map(|l| l.index()).collect();
    let split = stratified_split(&class_labels, train_fraction, seed)?;
    let (train_x, train_y) = data.subset(&split.train);
    let detector = EarSonarDetector::fit(&train_x, &train_y, config)?;
    let mut actual = Vec::new();
    let mut predicted = Vec::new();
    for &i in &split.test {
        actual.push(data.labels[i].index());
        predicted.push(detector.predict(&data.features[i])?.index());
    }
    Ok(ClassificationReport::from_labels(
        &actual,
        &predicted,
        MeeState::COUNT,
    )?)
}

/// Participant-level holdout: trains on a random `train_fraction` of the
/// *participants* and tests on all sessions of the remaining participants
/// — the split behind the training-size sweep of paper Fig. 15(b). (A
/// session-level split would place every participant in both sides and
/// flatten the curve.)
///
/// # Errors
///
/// Propagates splitting and fitting errors.
pub fn holdout_by_participant(
    data: &ExtractedDataset,
    config: &EarSonarConfig,
    train_fraction: f64,
    seed: u64,
) -> Result<ClassificationReport, EarSonarError> {
    use rand_split::shuffled_participants;
    let participants = shuffled_participants(&data.groups, seed);
    if participants.len() < 2 {
        return Err(EarSonarError::Ml(
            earsonar_ml::MlError::NotEnoughSamples {
                needed: 2,
                available: participants.len(),
            },
        ));
    }
    let take = ((participants.len() as f64 * train_fraction).round() as usize)
        .clamp(1, participants.len() - 1);
    let train_ids: std::collections::BTreeSet<usize> =
        participants[..take].iter().copied().collect();
    let train_idx: Vec<usize> = (0..data.len())
        .filter(|&i| train_ids.contains(&data.groups[i]))
        .collect();
    let test_idx: Vec<usize> = (0..data.len())
        .filter(|&i| !train_ids.contains(&data.groups[i]))
        .collect();
    let (train_x, train_y) = data.subset(&train_idx);
    let detector = EarSonarDetector::fit(&train_x, &train_y, config)?;
    let mut actual = Vec::new();
    let mut predicted = Vec::new();
    for &i in &test_idx {
        actual.push(data.labels[i].index());
        predicted.push(detector.predict(&data.features[i])?.index());
    }
    Ok(ClassificationReport::from_labels(
        &actual,
        &predicted,
        MeeState::COUNT,
    )?)
}

mod rand_split {
    /// Deterministically shuffles the distinct participant ids.
    pub fn shuffled_participants(groups: &[usize], seed: u64) -> Vec<usize> {
        let mut ids: Vec<usize> = groups.to_vec();
        ids.sort_unstable();
        ids.dedup();
        // Simple xorshift-based Fisher-Yates: deterministic, dependency-free.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in (1..ids.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            ids.swap(i, j);
        }
        ids
    }
}

/// LOOCV over baseline features: same folds and the same clustering back
/// end as EarSonar (state-initialized k-means), but the Chan-style
/// whole-response features (no eardrum-echo segmentation) — so the
/// comparison isolates exactly what fine-grained segmentation buys.
///
/// # Errors
///
/// Same conditions as [`loocv`].
pub fn loocv_baseline(
    data: &ExtractedDataset,
    config: &EarSonarConfig,
) -> Result<ClassificationReport, EarSonarError> {
    use earsonar_ml::kmeans::{KMeans, KMeansConfig};
    use earsonar_ml::labeling::ClusterLabeling;
    use earsonar_ml::scaler::StandardScaler;

    let splits = leave_one_group_out(&data.groups)?;
    let mut actual = Vec::new();
    let mut predicted = Vec::new();
    for split in splits {
        let (train_x, train_y) = data.subset(&split.train);
        let (scaler, scaled) = StandardScaler::fit_transform(&train_x)?;
        // State-mean initial centres, as in the EarSonar detector.
        let dim = scaled[0].len();
        let mut sums = vec![vec![0.0; dim]; MeeState::COUNT];
        let mut counts = vec![0usize; MeeState::COUNT];
        for (x, s) in scaled.iter().zip(&train_y) {
            let k = s.index();
            counts[k] += 1;
            for (a, &v) in sums[k].iter_mut().zip(x) {
                *a += v;
            }
        }
        let initial: Vec<Vec<f64>> = sums
            .iter()
            .zip(&counts)
            .take(config.k_clusters)
            .map(|(s, &c)| s.iter().map(|v| v / c.max(1) as f64).collect())
            .collect();
        let kmeans = KMeans::fit_with_init(
            &scaled,
            &initial,
            &KMeansConfig {
                k: config.k_clusters,
                max_iters: 1,
                seed: config.seed,
                ..Default::default()
            },
        )?;
        let class_of: Vec<usize> = train_y.iter().map(|s| s.index()).collect();
        let labeling =
            ClusterLabeling::fit(kmeans.labels(), &class_of, config.k_clusters, MeeState::COUNT)?;
        for &i in &split.test {
            let scaled_sample = scaler.transform_sample(&data.features[i])?;
            let cluster = kmeans.predict(&scaled_sample);
            actual.push(data.labels[i].index());
            predicted.push(labeling.class_of(cluster));
        }
    }
    Ok(ClassificationReport::from_labels(
        &actual,
        &predicted,
        MeeState::COUNT,
    )?)
}

/// One backend's cross-validated score in an A/B comparison.
#[derive(Debug, Clone)]
pub struct BackendScore {
    /// Registry name of the backend.
    pub backend: &'static str,
    /// Backend version.
    pub version: u32,
    /// LOOCV classification report (accuracy, per-class precision,
    /// confusion matrix, …).
    pub report: ClassificationReport,
    /// Mean classifier-native confidence over every held-out prediction.
    pub mean_confidence: f64,
    /// Sessions the backend's front end dropped during extraction.
    pub dropped: usize,
}

/// Result of running candidate backends against the reference baseline on
/// identical cohort sessions and LOOCV folds.
#[derive(Debug, Clone)]
pub struct AbComparison {
    /// The reference MFCC+k-means score.
    pub baseline: BackendScore,
    /// One score per requested candidate backend.
    pub candidates: Vec<BackendScore>,
}

impl AbComparison {
    /// Per-class precision delta of a candidate against the baseline
    /// (positive = candidate more precise on that class).
    pub fn precision_delta(&self, candidate: &BackendScore) -> Vec<f64> {
        candidate
            .report
            .precision
            .iter()
            .zip(&self.baseline.report.precision)
            .map(|(c, b)| c - b)
            .collect()
    }
}

/// Leave-one-participant-out cross-validation with a specific backend's
/// classifier, also averaging the classifier's native confidence over
/// the held-out predictions.
///
/// The folds are a pure function of `data.groups`, so two backends
/// evaluated on datasets extracted from the same sessions see identical
/// train/test splits.
///
/// # Errors
///
/// Same conditions as [`loocv`].
pub fn loocv_with_backend(
    data: &ExtractedDataset,
    config: &EarSonarConfig,
    spec: &BackendSpec,
) -> Result<(ClassificationReport, f64), EarSonarError> {
    let splits = leave_one_group_out(&data.groups)?;
    let mut actual = Vec::with_capacity(data.len());
    let mut predicted = Vec::with_capacity(data.len());
    let mut confidence_sum = 0.0;
    for split in splits {
        let (train_x, train_y) = data.subset(&split.train);
        let classifier = (spec.fit)(&train_x, &train_y, config)?;
        for &i in &split.test {
            let p = classifier.predict(&data.features[i])?;
            confidence_sum += classifier.confidence(&data.features[i])?;
            actual.push(data.labels[i].index());
            predicted.push(p.index());
        }
    }
    let mean_confidence = if actual.is_empty() {
        0.0
    } else {
        confidence_sum / actual.len() as f64
    };
    let report = ClassificationReport::from_labels(&actual, &predicted, MeeState::COUNT)?;
    Ok((report, mean_confidence))
}

/// Runs the reference backend and every named candidate through LOOCV on
/// the same sessions, reusing feature extraction across backends that
/// share an extractor family.
///
/// # Errors
///
/// Returns [`EarSonarError::UnknownBackend`] for unregistered candidate
/// names, plus the conditions of [`loocv_with_backend`].
pub fn ab_compare(
    sessions: &[Session],
    config: &EarSonarConfig,
    candidate_names: &[&str],
) -> Result<AbComparison, EarSonarError> {
    let mut datasets: std::collections::BTreeMap<&'static str, ExtractedDataset> =
        std::collections::BTreeMap::new();
    let mut score = |spec: &'static BackendSpec| -> Result<BackendScore, EarSonarError> {
        let extractor_family = (spec.make_extractor)(config)?.name();
        if !datasets.contains_key(extractor_family) {
            datasets.insert(
                extractor_family,
                ExtractedDataset::extract_with_backend(sessions, config, spec)?,
            );
        }
        let data = &datasets[extractor_family];
        let (report, mean_confidence) = loocv_with_backend(data, config, spec)?;
        Ok(BackendScore {
            backend: spec.name,
            version: spec.version,
            report,
            mean_confidence,
            dropped: data.dropped,
        })
    };
    let baseline = score(backend::reference())?;
    let mut candidates = Vec::with_capacity(candidate_names.len());
    for name in candidate_names {
        candidates.push(score(backend::lookup(name)?)?);
    }
    Ok(AbComparison {
        baseline,
        candidates,
    })
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
    fn extraction_keeps_most_sessions() {
        let ds = dataset(4, 21);
        let ex = ExtractedDataset::extract(&ds.sessions, &EarSonarConfig::default()).unwrap();
        assert!(ex.len() + ex.dropped == ds.sessions.len());
        assert!(ex.len() * 10 >= ds.sessions.len() * 9, "dropped {}", ex.dropped);
        assert!(!ex.is_empty());
    }

    #[test]
    fn loocv_beats_chance_on_small_cohort() {
        let ds = dataset(8, 22);
        let cfg = EarSonarConfig::default();
        let ex = ExtractedDataset::extract(&ds.sessions, &cfg).unwrap();
        let report = loocv(&ex, &cfg).unwrap();
        assert!(
            report.accuracy > 0.45,
            "LOOCV accuracy {} should beat chance",
            report.accuracy
        );
    }

    #[test]
    fn holdout_runs_and_reports() {
        let ds = dataset(8, 23);
        let cfg = EarSonarConfig::default();
        let ex = ExtractedDataset::extract(&ds.sessions, &cfg).unwrap();
        let report = holdout(&ex, &cfg, 0.75, 1).unwrap();
        assert!(report.accuracy > 0.25);
        assert_eq!(report.precision.len(), 4);
    }

    #[test]
    fn ab_compare_scores_candidates_on_identical_folds() {
        let ds = dataset(6, 25);
        let cfg = EarSonarConfig::default();
        let cmp =
            ab_compare(&ds.sessions, &cfg, &["absorbance-logistic", "absorbance-knn"]).unwrap();
        assert_eq!(cmp.baseline.backend, "mfcc-kmeans");
        assert_eq!(cmp.candidates.len(), 2);
        for c in &cmp.candidates {
            assert_eq!(c.report.precision.len(), MeeState::COUNT);
            assert!((0.0..=1.0).contains(&c.report.accuracy));
            assert!((0.0..=1.0).contains(&c.mean_confidence));
            let delta = cmp.precision_delta(c);
            assert_eq!(delta.len(), MeeState::COUNT);
            assert!(delta.iter().all(|d| (-1.0..=1.0).contains(d)));
        }
        // The baseline path must agree with the plain reference LOOCV on
        // the same extracted features: identical folds, identical model.
        let ex = ExtractedDataset::extract(&ds.sessions, &cfg).unwrap();
        let reference_report = loocv(&ex, &cfg).unwrap();
        assert_eq!(cmp.baseline.report.accuracy, reference_report.accuracy);
        assert_eq!(cmp.baseline.report.precision, reference_report.precision);
    }

    #[test]
    fn ab_compare_rejects_unknown_candidates() {
        let ds = dataset(3, 26);
        let cfg = EarSonarConfig::default();
        assert!(matches!(
            ab_compare(&ds.sessions, &cfg, &["no-such-backend"]),
            Err(EarSonarError::UnknownBackend { .. })
        ));
    }

    #[test]
    fn baseline_extraction_works() {
        let ds = dataset(4, 24);
        let cfg = EarSonarConfig::default();
        let ex = ExtractedDataset::extract_baseline(&ds.sessions, &cfg).unwrap();
        assert!(!ex.is_empty());
        let report = loocv_baseline(&ex, &cfg).unwrap();
        assert!(report.accuracy > 0.2);
    }
}
