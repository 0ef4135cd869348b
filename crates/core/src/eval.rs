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
//! Every protocol — LOOCV of the detector, of a registered backend or of
//! the baseline, and the participant holdout of Fig. 15(b) — runs the same
//! fold loop; they differ only in their splits and in how a classifier is
//! fitted and queried.
//!
//! The A/B harness ([`ab_compare`]) runs any set of registered
//! [`crate::backend`]s through the *same* LOOCV folds on the *same*
//! sessions and reports per-class precision deltas against the reference
//! MFCC+k-means baseline.

use crate::backend::{self, BackendSpec};
use crate::baseline;
use crate::config::EarSonarConfig;
use crate::detect::EarSonarDetector;
use crate::error::EarSonarError;
use crate::pipeline::FrontEnd;
use crate::preprocess::Preprocessor;
use earsonar_dsp::fanout;
use earsonar_dsp::plan::DspScratch;
use earsonar_ml::crossval::{leave_one_group_out, Split};
use earsonar_ml::metrics::ClassificationReport;
use earsonar_ml::scaler::StandardScaler;
use earsonar_signal::effusion::MeeState;
use earsonar_signal::recording::Recording;
use earsonar_signal::session::Session;
use std::collections::btree_map::{BTreeMap, Entry};

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

    /// Runs `fe` over every session, one warm scratch per worker.
    pub(crate) fn extract_front_end(
        sessions: &[Session],
        fe: &FrontEnd,
    ) -> Result<Self, EarSonarError> {
        Self::extract_by(sessions, DspScratch::new, |scratch, recording| {
            fe.process_with(scratch, recording).ok().map(|p| p.features)
        })
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
        let est = baseline::build_estimator(&pre, config)?;
        Self::extract_by(
            sessions,
            || (),
            |_, recording| baseline::features(&pre, &est, config, recording).ok(),
        )
    }

    /// The one fan-out over sessions: runs `f` on every recording (`None`
    /// where it failed), then pairs each session with its features,
    /// keeping labels and groups aligned and counting the drops.
    fn extract_by<S>(
        sessions: &[Session],
        init: impl Fn() -> S + Sync,
        f: impl Fn(&mut S, &Recording) -> Option<Vec<f64>> + Sync,
    ) -> Result<Self, EarSonarError> {
        let per_session = fanout::map_indexed(sessions.len(), init, |state, i| {
            f(state, &sessions[i].recording)
        });
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
}

/// The one fold loop: for each split, fits a model on the training rows
/// and predicts every held-out row, in split order.
fn eval<M>(
    data: &ExtractedDataset,
    splits: Vec<Split>,
    mut fit: impl FnMut(&[Vec<f64>], &[MeeState]) -> Result<M, EarSonarError>,
    mut predict: impl FnMut(&M, &[f64]) -> Result<MeeState, EarSonarError>,
) -> Result<ClassificationReport, EarSonarError> {
    let mut actual = Vec::with_capacity(data.len());
    let mut predicted = Vec::with_capacity(data.len());
    for split in splits {
        let train_x: Vec<Vec<f64>> = split
            .train
            .iter()
            .map(|&i| data.features[i].clone())
            .collect();
        let train_y: Vec<MeeState> = split.train.iter().map(|&i| data.labels[i]).collect();
        let model = fit(&train_x, &train_y)?;
        for &i in &split.test {
            predicted.push(predict(&model, &data.features[i])?.index());
            actual.push(data.labels[i].index());
        }
    }
    Ok(ClassificationReport::from_labels(
        &actual,
        &predicted,
        MeeState::COUNT,
    )?)
}

/// Leave-one-participant-out cross-validation of any classifier: `fit`
/// trains a model on each fold's training participants and `predict`
/// classifies each of the held-out participant's sessions with it.
///
/// # Errors
///
/// Returns [`EarSonarError::Ml`] if the dataset has fewer than two
/// participants, plus any error `fit` or `predict` returns.
pub fn loocv_with<M>(
    data: &ExtractedDataset,
    fit: impl FnMut(&[Vec<f64>], &[MeeState]) -> Result<M, EarSonarError>,
    predict: impl FnMut(&M, &[f64]) -> Result<MeeState, EarSonarError>,
) -> Result<ClassificationReport, EarSonarError> {
    eval(data, leave_one_group_out(&data.groups)?, fit, predict)
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
    loocv_with(
        data,
        |x, y| EarSonarDetector::fit(x, y, config),
        |detector, f| detector.predict(f),
    )
}

/// Participant-level holdout: trains on a random `train_fraction` of the
/// *participants* (rounded, and at least one on each side) and tests on
/// all sessions of the remaining participants — the split behind the
/// training-size sweep of paper Fig. 15(b). (A session-level split would
/// place every participant in both sides and flatten the curve.)
///
/// # Errors
///
/// Returns [`EarSonarError::Ml`] if the dataset has fewer than two
/// participants, plus fitting errors.
pub fn holdout_by_participant(
    data: &ExtractedDataset,
    config: &EarSonarConfig,
    train_fraction: f64,
    seed: u64,
) -> Result<ClassificationReport, EarSonarError> {
    eval(
        data,
        vec![participant_split(&data.groups, train_fraction, seed)?],
        |x, y| EarSonarDetector::fit(x, y, config),
        |detector, f| detector.predict(f),
    )
}

/// Splits sample indices by participant: a seeded shuffle of the distinct
/// ids puts `round(train_fraction × participants)` of them, clamped to
/// `1..=participants − 1`, on the training side.
fn participant_split(
    groups: &[usize],
    train_fraction: f64,
    seed: u64,
) -> Result<Split, EarSonarError> {
    let participants = shuffled_participants(groups, seed);
    if participants.len() < 2 {
        return Err(EarSonarError::Ml(earsonar_ml::MlError::NotEnoughSamples {
            needed: 2,
            available: participants.len(),
        }));
    }
    let take = ((participants.len() as f64 * train_fraction).round() as usize)
        .clamp(1, participants.len() - 1);
    let train_ids = &participants[..take];
    let (train, test) = (0..groups.len()).partition(|&i| train_ids.contains(&groups[i]));
    Ok(Split { train, test })
}

/// Deterministically shuffles the distinct participant ids.
fn shuffled_participants(groups: &[usize], seed: u64) -> Vec<usize> {
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

/// LOOCV over baseline features: same folds and the same clustering back
/// end as EarSonar (state-initialized k-means), but the Chan-style
/// whole-response features (no eardrum-echo segmentation) — so the
/// comparison isolates exactly what fine-grained segmentation buys.
///
/// # Errors
///
/// Same conditions as [`loocv`].
pub fn loocv_baseline(data: &ExtractedDataset) -> Result<ClassificationReport, EarSonarError> {
    loocv_with(
        data,
        |train_x, train_y| {
            let (scaler, scaled) = StandardScaler::fit_transform(train_x)?;
            let (kmeans, labeling) = crate::detect::fit_state_kmeans(&scaled, train_y)?;
            Ok((scaler, kmeans, labeling))
        },
        |(scaler, kmeans, labeling), f| {
            let cluster = kmeans.predict(&scaler.transform_sample(f)?);
            Ok(MeeState::from_index(labeling.class_of(cluster)))
        },
    )
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
    let mut confidence_sum = 0.0;
    let report = loocv_with(
        data,
        |x, y| spec.fit(x, y, config),
        |classifier, f| {
            let p = classifier.predict(f)?;
            confidence_sum += classifier.confidence(f)?;
            Ok(p)
        },
    )?;
    let mean_confidence = confidence_sum / report.confusion.total() as f64;
    Ok((report, mean_confidence))
}

/// Runs the reference backend and every named candidate through LOOCV on
/// the same sessions, extracting features once per feature family.
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
    let mut datasets = BTreeMap::new();
    let mut score = |spec: &'static BackendSpec| -> Result<BackendScore, EarSonarError> {
        let data = match datasets.entry(spec.family()) {
            Entry::Occupied(cached) => cached.into_mut(),
            Entry::Vacant(slot) => slot.insert(ExtractedDataset::extract_with_backend(
                sessions, config, spec,
            )?),
        };
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
        assert!(
            ex.len() * 10 >= ds.sessions.len() * 9,
            "dropped {}",
            ex.dropped
        );
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
        let report = holdout_by_participant(&ex, &cfg, 0.75, 1).unwrap();
        assert!(report.accuracy > 0.25);
        assert_eq!(report.precision.len(), 4);
    }

    #[test]
    fn participant_split_keeps_each_participant_on_one_side() {
        use std::collections::BTreeSet;
        // Ten participants with unsorted ids and two or three sessions each.
        let groups: Vec<usize> = (0..24).map(|i| (i * 7 % 10) * 3 + 5).collect();
        let participants = |idx: &[usize]| idx.iter().map(|&i| groups[i]).collect::<BTreeSet<_>>();
        for (fraction, expected) in [(0.25, 3), (0.5, 5), (0.75, 8), (0.01, 1), (0.99, 9)] {
            for seed in 0..4 {
                let split = participant_split(&groups, fraction, seed).unwrap();
                let mut all: Vec<usize> = split.train.iter().chain(&split.test).copied().collect();
                all.sort_unstable();
                assert_eq!(all, (0..groups.len()).collect::<Vec<_>>());
                let (train, test) = (participants(&split.train), participants(&split.test));
                assert!(train.is_disjoint(&test), "a participant on both sides");
                assert_eq!(train.len() + test.len(), 10);
                assert_eq!(train.len(), expected, "fraction {fraction}");
                assert_eq!(participant_split(&groups, fraction, seed).unwrap(), split);
            }
        }
        assert!(participant_split(&[4, 4, 4], 0.5, 0).is_err());
    }

    #[test]
    fn ab_compare_scores_candidates_on_identical_folds() {
        let ds = dataset(6, 25);
        let cfg = EarSonarConfig::default();
        let cmp = ab_compare(
            &ds.sessions,
            &cfg,
            &["absorbance-logistic", "absorbance-knn"],
        )
        .unwrap();
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
        let report = loocv_baseline(&ex).unwrap();
        assert!(report.accuracy > 0.2);
    }
}
