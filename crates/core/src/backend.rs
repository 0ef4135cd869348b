//! Pluggable feature/classifier backend registry.
//!
//! The paper hard-wires MFCC features into k-means clustering. This
//! module carves that seam open: a [`FeatureExtractor`] trait (dechirped
//! echo windows + diagnostics in, versioned feature vectors out), a
//! [`Classifier`] trait (fit/predict/confidence), and a static
//! [`registry`] of named [`BackendSpec`]s pairing the two. The paper's
//! MFCC+k-means pipeline is the **reference backend**:
//! [`crate::EarSonar::fit`] trains it, and its verdicts equal those of
//! `EarSonar::fit_backend(REFERENCE_BACKEND)`, verdict for verdict, on
//! the batch, streaming, and engine paths alike.
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
//! Versioning rules: every backend carries a `version` that stamps both
//! its feature layout and its serialized classifier fields. A model file
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
use crate::features_absorbance::AbsorbanceExtractor;
use crate::segment::EardrumEcho;
use earsonar_dsp::plan::DspScratch;
use earsonar_ml::distance::euclidean;
use earsonar_ml::knn::KnnClassifier;
use earsonar_ml::logistic::{LogisticConfig, MultinomialLogistic};
use earsonar_ml::scaler::StandardScaler;
use earsonar_ml::MlError;
use earsonar_signal::effusion::MeeState;
use std::fmt::Write as _;
use std::sync::Arc;

/// Turns echo spectra and diagnostics into a versioned feature vector.
///
/// Implementations must be deterministic: the same inputs always produce
/// the same vector, and `feature_count` pins the layout width for the
/// extractor's `version`.
pub trait FeatureExtractor: std::fmt::Debug + Send + Sync {
    /// Short name of the feature family (e.g. `"mfcc"`).
    fn name(&self) -> &'static str;
    /// Feature-layout version; bump on any layout change.
    fn version(&self) -> u32;
    /// Width of the produced vectors.
    fn feature_count(&self) -> usize;
    /// Extracts the feature vector for one recording from its per-chirp
    /// spectra, the recording-averaged spectrum, and the segmented echoes.
    ///
    /// # Errors
    ///
    /// Returns [`EarSonarError::NoEchoDetected`] if no chirp produced a
    /// spectrum, and propagates DSP errors.
    fn extract_with(
        &self,
        scratch: &mut DspScratch,
        per_chirp: &[EchoSpectrum],
        averaged: &EchoSpectrum,
        echoes: &[EardrumEcho],
    ) -> Result<Vec<f64>, EarSonarError>;
}

/// A fitted classifier over one backend's feature vectors.
pub trait Classifier: std::fmt::Debug + Send + Sync {
    /// Registry name of the backend this classifier belongs to.
    fn backend(&self) -> &'static str;
    /// Backend version (stamped into model files).
    fn version(&self) -> u32;
    /// Predicts the effusion state of one feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`EarSonarError::Ml`] if the vector's width differs from
    /// training.
    fn predict(&self, features: &[f64]) -> Result<MeeState, EarSonarError>;
    /// Classifier-native confidence in `[0, 1]` for the predicted state
    /// (cluster margin, softmax probability, vote fraction — backend
    /// specific, comparable only within a backend).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Classifier::predict`].
    fn confidence(&self, features: &[f64]) -> Result<f64, EarSonarError>;
    /// Appends this classifier's `key: values…` model-file lines.
    fn save_fields(&self, out: &mut String);
    /// Clones into a boxed trait object ([`Clone`] for `Box<dyn Classifier>`).
    fn clone_box(&self) -> Box<dyn Classifier>;
    /// The underlying [`EarSonarDetector`] when this is the reference
    /// MFCC+k-means backend; `None` for every other backend.
    fn as_reference(&self) -> Option<&EarSonarDetector> {
        None
    }
}

impl Clone for Box<dyn Classifier> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Constructor signature for a backend's feature extractor.
pub type MakeExtractorFn = fn(&EarSonarConfig) -> Result<Arc<dyn FeatureExtractor>, EarSonarError>;

/// Training signature: labelled feature vectors in, fitted classifier out.
pub type FitFn =
    fn(&[Vec<f64>], &[MeeState], &EarSonarConfig) -> Result<Box<dyn Classifier>, EarSonarError>;

/// Loading signature: parsed model-file fields in, classifier out.
pub type LoadFn =
    fn(&[(String, String)], &EarSonarConfig) -> Result<Box<dyn Classifier>, EarSonarError>;

/// One registered feature/classifier pairing.
pub struct BackendSpec {
    /// Registry key (what `--backend` and model files use).
    pub name: &'static str,
    /// Backend version; model files must match exactly.
    pub version: u32,
    /// Builds the backend's feature extractor for a configuration.
    pub make_extractor: MakeExtractorFn,
    /// Fits the backend's classifier on labelled feature vectors.
    pub fit: FitFn,
    /// Reassembles the classifier from parsed model-file fields.
    pub load: LoadFn,
}

impl std::fmt::Debug for BackendSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendSpec")
            .field("name", &self.name)
            .field("version", &self.version)
            .finish()
    }
}

/// Registry key of the paper's reference backend.
pub const REFERENCE_BACKEND: &str = "mfcc-kmeans";

static REGISTRY: [BackendSpec; 3] = [
    BackendSpec {
        name: REFERENCE_BACKEND,
        version: 1,
        make_extractor: reference_extractor,
        fit: reference_fit,
        load: reference_load,
    },
    BackendSpec {
        name: "absorbance-logistic",
        version: 1,
        make_extractor: absorbance_extractor,
        fit: logistic_fit,
        load: logistic_load,
    },
    BackendSpec {
        name: "absorbance-knn",
        version: 1,
        make_extractor: absorbance_extractor,
        fit: knn_fit,
        load: knn_load,
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

// ---------------------------------------------------------------------------
// Shared model-field helpers (used here and by `model_io`).

fn bad(reason: &'static str) -> EarSonarError {
    EarSonarError::BadRecording { reason }
}

pub(crate) fn field<'a>(
    fields: &'a [(String, String)],
    key: &str,
) -> Result<&'a str, EarSonarError> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
        .ok_or(bad("missing model field"))
}

pub(crate) fn parse_f64s(s: &str) -> Result<Vec<f64>, EarSonarError> {
    s.split_whitespace()
        .map(|t| t.parse::<f64>().map_err(|_| bad("bad float in model file")))
        .collect()
}

pub(crate) fn parse_usizes(s: &str) -> Result<Vec<usize>, EarSonarError> {
    s.split_whitespace()
        .map(|t| {
            t.parse::<usize>()
                .map_err(|_| bad("bad integer in model file"))
        })
        .collect()
}

pub(crate) fn parse_one_usize(s: &str) -> Result<usize, EarSonarError> {
    s.trim()
        .parse()
        .map_err(|_| bad("bad integer in model file"))
}

pub(crate) fn join_floats(v: &[f64]) -> String {
    v.iter()
        .map(|x| format!("{x:?}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Refuses a model component whose length is not the one its classifier
/// needs: such a file would load and then panic or fail every screening.
fn expect_len(expected: usize, actual: usize) -> Result<(), EarSonarError> {
    if expected == actual {
        Ok(())
    } else {
        Err(MlError::DimensionMismatch { expected, actual }.into())
    }
}

/// Collects every row-style field (`key: …` repeated) as float rows.
fn float_rows(
    fields: &[(String, String)],
    key: &str,
    expected: usize,
) -> Result<Vec<Vec<f64>>, EarSonarError> {
    let rows: Vec<Vec<f64>> = fields
        .iter()
        .filter(|(k, _)| k == key)
        .map(|(_, v)| parse_f64s(v))
        .collect::<Result<_, _>>()?;
    if rows.len() != expected {
        return Err(bad("model row count mismatch"));
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Reference backend: the paper's MFCC features + k-means detector.

impl FeatureExtractor for crate::features::FeatureExtractor {
    fn name(&self) -> &'static str {
        "mfcc"
    }

    fn version(&self) -> u32 {
        1
    }

    fn feature_count(&self) -> usize {
        crate::features::FEATURE_COUNT
    }

    fn extract_with(
        &self,
        scratch: &mut DspScratch,
        per_chirp: &[EchoSpectrum],
        averaged: &EchoSpectrum,
        echoes: &[EardrumEcho],
    ) -> Result<Vec<f64>, EarSonarError> {
        crate::features::FeatureExtractor::extract_with(self, scratch, per_chirp, averaged, echoes)
    }
}

fn reference_extractor(
    config: &EarSonarConfig,
) -> Result<Arc<dyn FeatureExtractor>, EarSonarError> {
    Ok(Arc::new(crate::features::FeatureExtractor::new(config)?))
}

/// The reference classifier: the paper's detector behind the trait.
#[derive(Debug, Clone)]
pub struct ReferenceClassifier {
    detector: EarSonarDetector,
}

impl ReferenceClassifier {
    /// Wraps an already-fitted detector.
    pub fn new(detector: EarSonarDetector) -> Self {
        ReferenceClassifier { detector }
    }
}

impl Classifier for ReferenceClassifier {
    fn backend(&self) -> &'static str {
        REFERENCE_BACKEND
    }

    fn version(&self) -> u32 {
        1
    }

    fn predict(&self, features: &[f64]) -> Result<MeeState, EarSonarError> {
        self.detector.predict(features)
    }

    fn confidence(&self, features: &[f64]) -> Result<f64, EarSonarError> {
        let scaled = self.detector.scaler().transform_sample(features)?;
        let projected: Vec<f64> = self
            .detector
            .selected_features()
            .iter()
            .map(|&i| scaled[i])
            .collect();
        // Cluster margin: how decisively the nearest centroid beats the
        // runner-up (0 on the decision boundary, → 1 deep inside a cluster).
        let mut d0 = f64::INFINITY;
        let mut d1 = f64::INFINITY;
        for c in self.detector.kmeans().centroids() {
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

    fn save_fields(&self, out: &mut String) {
        let det = &self.detector;
        let _ = writeln!(out, "scaler_means: {}", join_floats(det.scaler().means()));
        let _ = writeln!(out, "scaler_stds: {}", join_floats(det.scaler().stds()));
        let _ = writeln!(
            out,
            "selected: {}",
            det.selected_features()
                .iter()
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join(" ")
        );
        let _ = writeln!(out, "centroids: {}", det.kmeans().centroids().len());
        for c in det.kmeans().centroids() {
            let _ = writeln!(out, "centroid: {}", join_floats(c));
        }
        let _ = writeln!(
            out,
            "labeling: {}",
            det.labeling()
                .mapping()
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(" ")
        );
    }

    fn clone_box(&self) -> Box<dyn Classifier> {
        Box::new(self.clone())
    }

    fn as_reference(&self) -> Option<&EarSonarDetector> {
        Some(&self.detector)
    }
}

fn reference_fit(
    features: &[Vec<f64>],
    labels: &[MeeState],
    config: &EarSonarConfig,
) -> Result<Box<dyn Classifier>, EarSonarError> {
    Ok(Box::new(ReferenceClassifier::new(EarSonarDetector::fit(
        features, labels, config,
    )?)))
}

fn reference_load(
    fields: &[(String, String)],
    _config: &EarSonarConfig,
) -> Result<Box<dyn Classifier>, EarSonarError> {
    let scaler = StandardScaler::from_parts(
        parse_f64s(field(fields, "scaler_means")?)?,
        parse_f64s(field(fields, "scaler_stds")?)?,
    )?;
    let selected = parse_usizes(field(fields, "selected")?)?;
    let n_centroids = parse_one_usize(field(fields, "centroids")?)?;
    let centroids = float_rows(fields, "centroid", n_centroids)?;
    let kmeans = earsonar_ml::kmeans::KMeans::from_centroids(centroids)?;
    let labeling = earsonar_ml::labeling::ClusterLabeling::from_mapping(
        parse_usizes(field(fields, "labeling")?)?,
        MeeState::COUNT,
    )?;
    let detector = EarSonarDetector::from_components(scaler, selected, kmeans, labeling)?;
    Ok(Box::new(ReferenceClassifier::new(detector)))
}

// ---------------------------------------------------------------------------
// Absorbance feature backend, logistic and k-NN classifiers.

impl FeatureExtractor for AbsorbanceExtractor {
    fn name(&self) -> &'static str {
        "absorbance"
    }

    fn version(&self) -> u32 {
        1
    }

    fn feature_count(&self) -> usize {
        crate::features_absorbance::ABSORBANCE_FEATURE_COUNT
    }

    fn extract_with(
        &self,
        _scratch: &mut DspScratch,
        per_chirp: &[EchoSpectrum],
        averaged: &EchoSpectrum,
        echoes: &[EardrumEcho],
    ) -> Result<Vec<f64>, EarSonarError> {
        self.extract(per_chirp, averaged, echoes)
    }
}

fn absorbance_extractor(
    _config: &EarSonarConfig,
) -> Result<Arc<dyn FeatureExtractor>, EarSonarError> {
    Ok(Arc::new(AbsorbanceExtractor))
}

/// Multinomial logistic regression over standardized features.
#[derive(Debug, Clone)]
struct LogisticClassifier {
    scaler: StandardScaler,
    model: MultinomialLogistic,
}

impl Classifier for LogisticClassifier {
    fn backend(&self) -> &'static str {
        "absorbance-logistic"
    }

    fn version(&self) -> u32 {
        1
    }

    fn predict(&self, features: &[f64]) -> Result<MeeState, EarSonarError> {
        let scaled = self.scaler.transform_sample(features)?;
        Ok(MeeState::from_index(self.model.predict(&scaled)?))
    }

    fn confidence(&self, features: &[f64]) -> Result<f64, EarSonarError> {
        let scaled = self.scaler.transform_sample(features)?;
        let probs = self.model.predict_proba(&scaled)?;
        Ok(probs.iter().copied().fold(0.0f64, f64::max))
    }

    fn save_fields(&self, out: &mut String) {
        let _ = writeln!(out, "scaler_means: {}", join_floats(self.scaler.means()));
        let _ = writeln!(out, "scaler_stds: {}", join_floats(self.scaler.stds()));
        let _ = writeln!(out, "weights: {}", self.model.weights().len());
        for w in self.model.weights() {
            let _ = writeln!(out, "weight: {}", join_floats(w));
        }
    }

    fn clone_box(&self) -> Box<dyn Classifier> {
        Box::new(self.clone())
    }
}

fn logistic_fit(
    features: &[Vec<f64>],
    labels: &[MeeState],
    _config: &EarSonarConfig,
) -> Result<Box<dyn Classifier>, EarSonarError> {
    let (scaler, scaled) = StandardScaler::fit_transform(features)?;
    let class_labels: Vec<usize> = labels.iter().map(|s| s.index()).collect();
    let model = MultinomialLogistic::fit(
        &scaled,
        &class_labels,
        MeeState::COUNT,
        &LogisticConfig::default(),
    )?;
    Ok(Box::new(LogisticClassifier { scaler, model }))
}

fn logistic_load(
    fields: &[(String, String)],
    _config: &EarSonarConfig,
) -> Result<Box<dyn Classifier>, EarSonarError> {
    let scaler = StandardScaler::from_parts(
        parse_f64s(field(fields, "scaler_means")?)?,
        parse_f64s(field(fields, "scaler_stds")?)?,
    )?;
    // One row per class, each the scaler width plus the trailing bias.
    let n_rows = parse_one_usize(field(fields, "weights")?)?;
    expect_len(MeeState::COUNT, n_rows)?;
    let weights = float_rows(fields, "weight", n_rows)?;
    for row in &weights {
        expect_len(scaler.means().len() + 1, row.len())?;
    }
    let model = MultinomialLogistic::from_weights(weights)?;
    Ok(Box::new(LogisticClassifier { scaler, model }))
}

/// k-NN voting over standardized features.
#[derive(Debug, Clone)]
struct KnnBackendClassifier {
    scaler: StandardScaler,
    knn: KnnClassifier,
}

/// Neighbourhood size for the k-NN backend.
const KNN_K: usize = 5;

impl Classifier for KnnBackendClassifier {
    fn backend(&self) -> &'static str {
        "absorbance-knn"
    }

    fn version(&self) -> u32 {
        1
    }

    fn predict(&self, features: &[f64]) -> Result<MeeState, EarSonarError> {
        let scaled = self.scaler.transform_sample(features)?;
        Ok(MeeState::from_index(self.knn.predict(&scaled)?))
    }

    fn confidence(&self, features: &[f64]) -> Result<f64, EarSonarError> {
        let scaled = self.scaler.transform_sample(features)?;
        let (_, confidence) = self.knn.predict_with_confidence(&scaled)?;
        Ok(confidence)
    }

    fn save_fields(&self, out: &mut String) {
        let _ = writeln!(out, "scaler_means: {}", join_floats(self.scaler.means()));
        let _ = writeln!(out, "scaler_stds: {}", join_floats(self.scaler.stds()));
        let _ = writeln!(out, "knn_k: {}", self.knn.k());
        let _ = writeln!(
            out,
            "knn_labels: {}",
            self.knn
                .labels()
                .iter()
                .map(|l| l.to_string())
                .collect::<Vec<_>>()
                .join(" ")
        );
        let _ = writeln!(out, "samples: {}", self.knn.data().len());
        for row in self.knn.data() {
            let _ = writeln!(out, "sample: {}", join_floats(row));
        }
    }

    fn clone_box(&self) -> Box<dyn Classifier> {
        Box::new(self.clone())
    }
}

fn knn_fit(
    features: &[Vec<f64>],
    labels: &[MeeState],
    _config: &EarSonarConfig,
) -> Result<Box<dyn Classifier>, EarSonarError> {
    let (scaler, scaled) = StandardScaler::fit_transform(features)?;
    let class_labels: Vec<usize> = labels.iter().map(|s| s.index()).collect();
    let k = KNN_K.min(scaled.len());
    let knn = KnnClassifier::fit(&scaled, &class_labels, k.max(1), MeeState::COUNT)?;
    Ok(Box::new(KnnBackendClassifier { scaler, knn }))
}

fn knn_load(
    fields: &[(String, String)],
    _config: &EarSonarConfig,
) -> Result<Box<dyn Classifier>, EarSonarError> {
    let scaler = StandardScaler::from_parts(
        parse_f64s(field(fields, "scaler_means")?)?,
        parse_f64s(field(fields, "scaler_stds")?)?,
    )?;
    let k = parse_one_usize(field(fields, "knn_k")?)?;
    let labels = parse_usizes(field(fields, "knn_labels")?)?;
    let n_rows = parse_one_usize(field(fields, "samples")?)?;
    let data = float_rows(fields, "sample", n_rows)?;
    for row in &data {
        expect_len(scaler.means().len(), row.len())?;
    }
    let knn = KnnClassifier::fit(&data, &labels, k, MeeState::COUNT)?;
    Ok(Box::new(KnnBackendClassifier { scaler, knn }))
}

#[cfg(test)]
mod tests {
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
            let ex = (spec.make_extractor)(&cfg).expect(spec.name);
            assert!(ex.feature_count() > 0);
            assert!(ex.version() >= 1);
            assert!(!ex.name().is_empty());
        }
    }

    fn blob_features(dim: usize) -> (Vec<Vec<f64>>, Vec<MeeState>) {
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
    fn every_backend_fits_predicts_and_round_trips_fields() {
        let cfg = EarSonarConfig::default();
        let (feats, labels) = blob_features(45);
        for spec in registry() {
            // The reference detector wants the 105-wide layout.
            let (feats, labels) = if spec.name == REFERENCE_BACKEND {
                blob_features(105)
            } else {
                (feats.clone(), labels.clone())
            };
            let clf = (spec.fit)(&feats, &labels, &cfg).expect(spec.name);
            assert_eq!(clf.backend(), spec.name);
            assert_eq!(clf.version(), spec.version);
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

            // Serialized fields reload into an equivalent classifier.
            let mut text = String::new();
            clf.save_fields(&mut text);
            let fields: Vec<(String, String)> = text
                .lines()
                .filter_map(|l| l.split_once(':'))
                .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
                .collect();
            let restored = (spec.load)(&fields, &cfg).expect(spec.name);
            for x in feats.iter().take(8) {
                assert_eq!(clf.predict(x).unwrap(), restored.predict(x).unwrap());
            }
        }
    }

    #[test]
    fn only_the_reference_classifier_exposes_a_detector() {
        let cfg = EarSonarConfig::default();
        for spec in registry() {
            let (feats, labels) = if spec.name == REFERENCE_BACKEND {
                blob_features(105)
            } else {
                blob_features(45)
            };
            let clf = (spec.fit)(&feats, &labels, &cfg).unwrap();
            assert_eq!(
                clf.as_reference().is_some(),
                spec.name == REFERENCE_BACKEND,
                "{}",
                spec.name
            );
            // Box<dyn Classifier> clones preserve behaviour.
            let cloned = clf.clone();
            assert_eq!(
                clf.predict(&feats[0]).unwrap(),
                cloned.predict(&feats[0]).unwrap()
            );
        }
    }

    #[test]
    fn reference_confidence_tracks_cluster_margin() {
        let cfg = EarSonarConfig::default();
        let (feats, labels) = blob_features(105);
        let clf = (reference().fit)(&feats, &labels, &cfg).unwrap();
        // A training point deep inside its class should be confidently
        // assigned; confidence stays within [0, 1] everywhere.
        let c = clf.confidence(&feats[0]).unwrap();
        assert!(c > 0.0 && c <= 1.0, "confidence {c}");
    }
}
