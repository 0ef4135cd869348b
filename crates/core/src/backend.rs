//! The feature/classifier backends.
//!
//! The paper hard-wires MFCC features into k-means clustering. This
//! module adds two wideband-absorbance backends beside it. The set is
//! closed: an [`Extractor`] is one of two feature families (dechirped echo
//! windows + diagnostics in, feature vector out), a [`Classifier`] is one
//! of three fitted models, and the static [`registry`] of named
//! [`BackendSpec`]s pairs them. The paper's MFCC+k-means pipeline is the
//! **reference backend**: [`crate::EarSonar::fit`] trains it, and its
//! verdicts equal those of `EarSonar::fit_backend(REFERENCE_BACKEND)`,
//! verdict for verdict, on the batch, streaming, and engine paths alike.
//!
//! Registered backends:
//!
//! * `mfcc-kmeans` — the paper's 105-feature MFCC+statistics vector and
//!   state-initialized k-means (reference; legacy `earsonar-model v1`
//!   files load as this backend),
//! * `absorbance-logistic` — wideband-absorbance curve features
//!   ([`crate::features_absorbance`]) into multinomial logistic
//!   regression,
//! * `absorbance-knn` — the same absorbance features into the k-NN
//!   comparison classifier.
//!
//! Deleting a backend is deleting its registry entry and its
//! [`Classifier`] variant; the compiler then names every match arm,
//! including its model-file lines in [`crate::model_io`], that goes with
//! it.
//!
//! Versioning rules: every backend carries a `version` that stamps both
//! its feature layout and its model-file fields. A model file
//! (`earsonar-model v2`) records `backend` and `backend_version`; loading
//! requires an exact version match — a layout change must bump the
//! version, never silently reinterpret old files. Unknown names are
//! [`EarSonarError::UnknownBackend`]; opening a file saved by one backend
//! as another is [`EarSonarError::BackendMismatch`] — typed errors, never
//! panics.

use crate::absorption::EchoSpectrum;
use crate::config::EarSonarConfig;
use crate::detect::EarSonarDetector;
use crate::error::EarSonarError;
use crate::features::{self, FEATURE_COUNT};
use crate::features_absorbance::{AbsorbanceExtractor, ABSORBANCE_FEATURE_COUNT};
use crate::segment::EardrumEcho;
use earsonar_dsp::plan::DspScratch;
use earsonar_ml::distance::euclidean;
use earsonar_ml::knn::KnnClassifier;
use earsonar_ml::logistic::MultinomialLogistic;
use earsonar_ml::scaler::StandardScaler;
use earsonar_signal::effusion::MeeState;

/// The feature family a backend reduces echo spectra with. Backends of one
/// family extract identical vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Family {
    Mfcc,
    Absorbance,
}

/// The classifier a backend fits, one per [`Classifier`] variant. The
/// discriminant is the backend's position in the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    KMeans = 0,
    Logistic = 1,
    Knn = 2,
}

/// One registered feature/classifier pairing.
#[derive(Debug)]
pub struct BackendSpec {
    /// Registry key (what `--backend` and model files use).
    pub name: &'static str,
    /// Backend version; model files must match exactly.
    pub version: u32,
    pub(crate) kind: Kind,
}

/// Registry key of the paper's reference backend.
pub const REFERENCE_BACKEND: &str = "mfcc-kmeans";

static REGISTRY: [BackendSpec; 3] = [
    BackendSpec {
        name: REFERENCE_BACKEND,
        version: 1,
        kind: Kind::KMeans,
    },
    BackendSpec {
        name: "absorbance-logistic",
        version: 1,
        kind: Kind::Logistic,
    },
    BackendSpec {
        name: "absorbance-knn",
        version: 1,
        kind: Kind::Knn,
    },
];

/// All registered backends, reference first.
pub fn registry() -> &'static [BackendSpec] {
    &REGISTRY
}

/// The reference MFCC+k-means backend.
pub fn reference() -> &'static BackendSpec {
    &REGISTRY[0]
}

/// Resolves a backend by registry name.
///
/// # Errors
///
/// Returns [`EarSonarError::UnknownBackend`] for names not in the
/// registry.
pub fn lookup(name: &str) -> Result<&'static BackendSpec, EarSonarError> {
    REGISTRY
        .iter()
        .find(|spec| spec.name == name)
        .ok_or_else(|| EarSonarError::UnknownBackend {
            name: name.to_string(),
        })
}

/// Neighbourhood size for the k-NN backend.
const KNN_K: usize = 5;

impl BackendSpec {
    /// The feature family this backend's classifier reads.
    pub(crate) fn family(&self) -> Family {
        match self.kind {
            Kind::KMeans => Family::Mfcc,
            Kind::Logistic | Kind::Knn => Family::Absorbance,
        }
    }

    /// Builds the backend's feature extractor for a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`EarSonarError::Dsp`] if the MFCC filterbank cannot be
    /// built.
    pub fn extractor(&self, config: &EarSonarConfig) -> Result<Extractor, EarSonarError> {
        Ok(match self.family() {
            Family::Mfcc => Extractor::Mfcc(features::FeatureExtractor::new(config)?),
            Family::Absorbance => Extractor::Absorbance(AbsorbanceExtractor),
        })
    }

    /// Fits the backend's classifier on labelled feature vectors.
    ///
    /// # Errors
    ///
    /// Returns [`EarSonarError::Ml`] or [`EarSonarError::BadRecording`]
    /// when the training data cannot be fitted.
    pub fn fit(
        &self,
        features: &[Vec<f64>],
        labels: &[MeeState],
        config: &EarSonarConfig,
    ) -> Result<Classifier, EarSonarError> {
        let classes = || labels.iter().map(|s| s.index()).collect::<Vec<_>>();
        Ok(match self.kind {
            Kind::KMeans => Classifier::KMeans(EarSonarDetector::fit(features, labels, config)?),
            Kind::Logistic => {
                let (scaler, scaled) = StandardScaler::fit_transform(features)?;
                let model = MultinomialLogistic::fit(&scaled, &classes(), MeeState::COUNT)?;
                Classifier::Logistic { scaler, model }
            }
            Kind::Knn => {
                let (scaler, scaled) = StandardScaler::fit_transform(features)?;
                let k = KNN_K.min(scaled.len()).max(1);
                let knn = KnnClassifier::fit(&scaled, &classes(), k, MeeState::COUNT)?;
                Classifier::Knn { scaler, knn }
            }
        })
    }
}

/// Turns echo spectra and diagnostics into a feature vector, one variant
/// per feature family. Extraction is deterministic: the same inputs always
/// produce the same vector.
#[derive(Debug, Clone)]
#[expect(
    clippy::large_enum_variant,
    reason = "a front end holds exactly one extractor and never moves it in a hot path; boxing the MFCC tables would only add an indirection"
)]
pub enum Extractor {
    /// The paper's 105-element MFCC + statistics vector.
    Mfcc(features::FeatureExtractor),
    /// The 45-element wideband-absorbance vector.
    Absorbance(AbsorbanceExtractor),
}

impl Extractor {
    /// Width of the produced vectors.
    pub fn feature_count(&self) -> usize {
        match self {
            Extractor::Mfcc(_) => FEATURE_COUNT,
            Extractor::Absorbance(_) => ABSORBANCE_FEATURE_COUNT,
        }
    }

    /// Extracts the feature vector for one recording from its per-chirp
    /// spectra, the recording-averaged spectrum, and the segmented echoes.
    ///
    /// # Errors
    ///
    /// Returns [`EarSonarError::NoEchoDetected`] if no chirp produced a
    /// spectrum, and propagates DSP errors.
    pub fn extract_with(
        &self,
        scratch: &mut DspScratch,
        per_chirp: &[EchoSpectrum],
        averaged: &EchoSpectrum,
        echoes: &[EardrumEcho],
    ) -> Result<Vec<f64>, EarSonarError> {
        match self {
            Extractor::Mfcc(ex) => ex.extract_with(scratch, per_chirp, averaged, echoes),
            Extractor::Absorbance(ex) => ex.extract(per_chirp, averaged, echoes),
        }
    }
}

/// A fitted classifier over one backend's feature vectors.
#[derive(Debug, Clone)]
pub enum Classifier {
    /// The paper's detector: standardize, select, k-means, label.
    KMeans(EarSonarDetector),
    /// Multinomial logistic regression over standardized features.
    Logistic {
        /// Standardization fitted on the training vectors.
        scaler: StandardScaler,
        /// The fitted regression.
        model: MultinomialLogistic,
    },
    /// k-NN voting over standardized features.
    Knn {
        /// Standardization fitted on the training vectors.
        scaler: StandardScaler,
        /// The memorized, standardized training set.
        knn: KnnClassifier,
    },
}

impl Classifier {
    /// The registered backend this classifier belongs to.
    pub fn spec(&self) -> &'static BackendSpec {
        let kind = match self {
            Classifier::KMeans(_) => Kind::KMeans,
            Classifier::Logistic { .. } => Kind::Logistic,
            Classifier::Knn { .. } => Kind::Knn,
        };
        &REGISTRY[kind as usize]
    }

    /// Predicts the effusion state of one feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`EarSonarError::Ml`] if the vector's width differs from
    /// training.
    pub fn predict(&self, features: &[f64]) -> Result<MeeState, EarSonarError> {
        match self {
            Classifier::KMeans(detector) => detector.predict(features),
            Classifier::Logistic { scaler, model } => Ok(MeeState::from_index(
                model.predict(&scaler.transform_sample(features)?)?,
            )),
            Classifier::Knn { scaler, knn } => Ok(MeeState::from_index(
                knn.predict(&scaler.transform_sample(features)?)?,
            )),
        }
    }

    /// Classifier-native confidence in `[0, 1]` for the predicted state
    /// (cluster margin, softmax probability, vote fraction — backend
    /// specific, comparable only within a backend).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Classifier::predict`].
    pub fn confidence(&self, features: &[f64]) -> Result<f64, EarSonarError> {
        match self {
            Classifier::KMeans(detector) => cluster_margin(detector, features),
            Classifier::Logistic { scaler, model } => {
                let probs = model.predict_proba(&scaler.transform_sample(features)?)?;
                Ok(probs.iter().copied().fold(0.0f64, f64::max))
            }
            Classifier::Knn { scaler, knn } => {
                let (_, confidence) =
                    knn.predict_with_confidence(&scaler.transform_sample(features)?)?;
                Ok(confidence)
            }
        }
    }
}

/// How decisively the nearest centroid beats the runner-up: 0 on the
/// decision boundary, → 1 deep inside a cluster.
fn cluster_margin(detector: &EarSonarDetector, features: &[f64]) -> Result<f64, EarSonarError> {
    let scaled = detector.scaler().transform_sample(features)?;
    let projected: Vec<f64> = detector
        .selected_features()
        .iter()
        .map(|&i| scaled[i])
        .collect();
    let mut d0 = f64::INFINITY;
    let mut d1 = f64::INFINITY;
    for c in detector.kmeans().centroids() {
        let d = euclidean(&projected, c);
        if d < d0 {
            d1 = d0;
            d0 = d;
        } else if d < d1 {
            d1 = d;
        }
    }
    if !d1.is_finite() {
        return Ok(1.0);
    }
    let span = d0 + d1;
    Ok(if span > 0.0 { (d1 - d0) / span } else { 0.0 })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_reference_first() {
        let names: Vec<&str> = registry().iter().map(|s| s.name).collect();
        assert_eq!(names[0], REFERENCE_BACKEND);
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), registry().len());
        assert!(registry().len() >= 3, "reference + two candidate backends");
        for (i, spec) in registry().iter().enumerate() {
            assert_eq!(
                spec.kind as usize, i,
                "{} is indexed by its kind",
                spec.name
            );
        }
    }

    #[test]
    fn lookup_resolves_and_rejects() {
        assert_eq!(lookup(REFERENCE_BACKEND).unwrap().name, REFERENCE_BACKEND);
        assert_eq!(reference().name, REFERENCE_BACKEND);
        match lookup("no-such-backend") {
            Err(EarSonarError::UnknownBackend { name }) => {
                assert_eq!(name, "no-such-backend");
            }
            other => panic!("expected UnknownBackend, got {other:?}"),
        }
    }

    #[test]
    fn extractors_build_from_default_config() {
        let cfg = EarSonarConfig::default();
        for spec in registry() {
            let ex = spec.extractor(&cfg).expect(spec.name);
            assert!(ex.feature_count() > 0);
        }
    }

    /// Eight vectors of each state in `dim` dimensions, the states apart
    /// on the first six.
    pub(crate) fn blob_features(dim: usize) -> (Vec<Vec<f64>>, Vec<MeeState>) {
        let mut feats = Vec::new();
        let mut labels = Vec::new();
        let mut lcg = 99u64;
        let mut rand01 = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (lcg >> 33) as f64 / (1u64 << 31) as f64
        };
        for state in MeeState::ALL {
            for _ in 0..8 {
                let mut v = vec![0.0; dim];
                for (i, x) in v.iter_mut().enumerate() {
                    *x = if i < 6 {
                        state.index() as f64 * 2.0 + (rand01() - 0.5)
                    } else {
                        0.3 * (rand01() - 0.5)
                    };
                }
                feats.push(v);
                labels.push(state);
            }
        }
        (feats, labels)
    }

    #[test]
    fn every_backend_fits_and_predicts() {
        let cfg = EarSonarConfig::default();
        for spec in registry() {
            let width = spec.extractor(&cfg).unwrap().feature_count();
            let (feats, labels) = blob_features(width);
            let clf = spec.fit(&feats, &labels, &cfg).expect(spec.name);
            assert_eq!(clf.spec().name, spec.name);
            assert_eq!(clf.spec().version, spec.version);
            let mut agree = 0usize;
            for (x, &y) in feats.iter().zip(&labels) {
                if clf.predict(x).unwrap() == y {
                    agree += 1;
                }
                let c = clf.confidence(x).unwrap();
                assert!((0.0..=1.0).contains(&c), "{} confidence {c}", spec.name);
            }
            assert!(
                agree * 10 >= feats.len() * 8,
                "{}: {agree}/{}",
                spec.name,
                feats.len()
            );
        }
    }

    #[test]
    fn reference_confidence_tracks_cluster_margin() {
        let cfg = EarSonarConfig::default();
        let (feats, labels) = blob_features(105);
        let clf = reference().fit(&feats, &labels, &cfg).unwrap();
        // A training point deep inside its class should be confidently
        // assigned; confidence stays within [0, 1] everywhere.
        let c = clf.confidence(&feats[0]).unwrap();
        assert!(c > 0.0 && c <= 1.0, "confidence {c}");
    }
}
