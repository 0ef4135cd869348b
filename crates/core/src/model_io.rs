//! Trained-model persistence.
//!
//! A home-screening deployment trains once (factory/clinic) and ships the
//! fitted detector to devices. This module saves and loads a trained
//! [`EarSonar`] system as a small, versioned, human-readable text file —
//! no serialization dependency needed (the allowed-dependency budget has
//! `serde` but no format crate, so the format is hand-rolled and fully
//! tested).
//!
//! Format: one `key: values…` line per field, with vectors
//! space-separated and matrices as one line per row. Integer fields must
//! be written as integers that fit their type. The configuration takes six
//! lines, one per [`EarSonarConfig`] field (`chirp:` holds `chirp_len`
//! and `chirp_hop`). `quality_gate:` holds the gate's on/off switch and
//! then its five thresholds, which are constants of [`crate::quality`]:
//! the line loads only when each parses equal to its constant, and is
//! otherwise refused with [`EarSonarError::BadConfig`] naming
//! `quality_gate`. The
//! classifier's lines follow, in one layout per [`Classifier`] variant:
//! every backend starts with `scaler_means:` and `scaler_stds:`, then
//!
//! * `mfcc-kmeans` — `selected:`, `centroids: n` and n `centroid:` rows,
//!   `labeling:`;
//! * `absorbance-logistic` — `weights: n` and n `weight:` rows (one per
//!   class, the scaler's width plus a trailing bias);
//! * `absorbance-knn` — `knn_k:`, `knn_labels:`, `samples: n` and n
//!   `sample:` rows.
//!
//! This module is the only reader and writer of the format.
//!
//! Files from older builds also carry a line for each setting that is now
//! a constant of the pipeline (`band_hz:`, `event_window:`, `mfcc:`, …).
//! Such a line loads when its values parse equal to this build's constant
//! (for `mfcc:`, the MFCC settings derived from the file's own
//! `sample_rate`), and is otherwise refused with
//! [`EarSonarError::BadConfig`] naming the line: a model never runs
//! silently on settings other than those it was trained with. Other lines
//! this build does not read are ignored.
//!
//! Two format versions are understood:
//!
//! * `earsonar-model v2` (written today) — carries `backend:` and
//!   `backend_version:` lines naming the [`crate::backend`] registry
//!   entry that produced the classifier fields; loading requires the
//!   named backend at exactly that version.
//! * `earsonar-model v1` (legacy, pre-registry) — no backend lines;
//!   these files always contain the paper's MFCC+k-means components and
//!   load as the reference backend with bit-identical verdicts.
//!
//! [`load_model_as`] additionally pins the expected backend: an
//! unregistered name is [`EarSonarError::UnknownBackend`], and a file
//! saved by a different backend is [`EarSonarError::BackendMismatch`] —
//! typed errors, never panics.

use crate::absorption::{ECHO_IR_PRE, ECHO_IR_TAIL, N_FFT, PROFILE_BAND_HZ, PROFILE_BINS};
use crate::backend::{self, BackendSpec, Classifier, Kind};
use crate::channel::DECONVOLUTION_EPSILON;
use crate::config::EarSonarConfig;
use crate::detect::{EarSonarDetector, KMEANS_RESTARTS, LAPLACIAN_NEIGHBORS, SEED};
use crate::error::EarSonarError;
use crate::event::EVENT_WINDOW;
use crate::pipeline::{EarSonar, FrontEnd};
use crate::preprocess::{NOISE_FILTER_ORDER, PROBE_BAND_HZ};
use crate::quality::{
    QualityGateConfig, MAX_CLIP_FRACTION, MAX_DC_FRACTION, MAX_DROPOUT_FRACTION, MIN_CORRELATION,
    MIN_SNR_DB,
};
use crate::segment::{EARDRUM_DISTANCE_RANGE_M, MIN_SYMMETRY_SUPPORT, PARITY_ENERGY_THRESHOLD};
use earsonar_ml::kmeans::KMeans;
use earsonar_ml::knn::KnnClassifier;
use earsonar_ml::labeling::ClusterLabeling;
use earsonar_ml::logistic::MultinomialLogistic;
use earsonar_ml::scaler::StandardScaler;
use earsonar_ml::MlError;
use earsonar_signal::effusion::MeeState;
use std::fmt::Write as _;
use std::path::Path;

const MAGIC_V1: &str = "earsonar-model v1";
const MAGIC_V2: &str = "earsonar-model v2";

/// The quality gate's thresholds in the order the `quality_gate:` line
/// carries them, after its on/off switch.
const GATE_THRESHOLDS: [f64; 5] = [
    MAX_CLIP_FRACTION,
    MAX_DROPOUT_FRACTION,
    MIN_SNR_DB,
    MIN_CORRELATION,
    MAX_DC_FRACTION,
];

fn bad(constraint: &'static str) -> EarSonarError {
    EarSonarError::BadRecording { reason: constraint }
}

fn field<'a>(fields: &'a [(String, String)], key: &str) -> Result<&'a str, EarSonarError> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
        .ok_or(bad("missing model field"))
}

fn parse_f64s(s: &str) -> Result<Vec<f64>, EarSonarError> {
    s.split_whitespace()
        .map(|t| t.parse::<f64>().map_err(|_| bad("bad float in model file")))
        .collect()
}

fn parse_usizes(s: &str) -> Result<Vec<usize>, EarSonarError> {
    s.split_whitespace()
        .map(|t| {
            t.parse::<usize>()
                .map_err(|_| bad("bad integer in model file"))
        })
        .collect()
}

fn parse_one_usize(s: &str) -> Result<usize, EarSonarError> {
    s.trim()
        .parse()
        .map_err(|_| bad("bad integer in model file"))
}

/// Space-separates values; `{:?}` writes an `f64` with the digits that
/// parse back to the same bits.
fn join<T: std::fmt::Debug>(v: &[T]) -> String {
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

/// Appends `key: n` and then n `row_key:` lines, one per row.
fn write_rows(out: &mut String, key: &str, row_key: &str, rows: &[Vec<f64>]) {
    let _ = writeln!(out, "{key}: {}", rows.len());
    for row in rows {
        let _ = writeln!(out, "{row_key}: {}", join(row));
    }
}

/// Appends the classifier's lines in its backend's layout.
fn write_classifier(out: &mut String, classifier: &Classifier) {
    let scaler = match classifier {
        Classifier::KMeans(detector) => detector.scaler(),
        Classifier::Logistic { scaler, .. } | Classifier::Knn { scaler, .. } => scaler,
    };
    let _ = writeln!(out, "scaler_means: {}", join(scaler.means()));
    let _ = writeln!(out, "scaler_stds: {}", join(scaler.stds()));
    match classifier {
        Classifier::KMeans(detector) => {
            let _ = writeln!(out, "selected: {}", join(detector.selected_features()));
            write_rows(out, "centroids", "centroid", detector.kmeans().centroids());
            let _ = writeln!(out, "labeling: {}", join(detector.labeling().mapping()));
        }
        Classifier::Logistic { model, .. } => write_rows(out, "weights", "weight", model.weights()),
        Classifier::Knn { knn, .. } => {
            let _ = writeln!(out, "knn_k: {}", knn.k());
            let _ = writeln!(out, "knn_labels: {}", join(knn.labels()));
            write_rows(out, "samples", "sample", knn.data());
        }
    }
}

/// Reassembles `spec`'s classifier from its model-file lines.
fn read_classifier(
    fields: &[(String, String)],
    spec: &BackendSpec,
) -> Result<Classifier, EarSonarError> {
    let scaler = StandardScaler::from_parts(
        parse_f64s(field(fields, "scaler_means")?)?,
        parse_f64s(field(fields, "scaler_stds")?)?,
    )?;
    let width = scaler.means().len();
    Ok(match spec.kind {
        Kind::KMeans => {
            let selected = parse_usizes(field(fields, "selected")?)?;
            let n_centroids = parse_one_usize(field(fields, "centroids")?)?;
            let kmeans = KMeans::from_centroids(float_rows(fields, "centroid", n_centroids)?)?;
            let labeling = ClusterLabeling::from_mapping(
                parse_usizes(field(fields, "labeling")?)?,
                MeeState::COUNT,
            )?;
            Classifier::KMeans(EarSonarDetector::from_components(
                scaler, selected, kmeans, labeling,
            )?)
        }
        Kind::Logistic => {
            // One row per class, each the scaler width plus the trailing
            // bias.
            let n_rows = parse_one_usize(field(fields, "weights")?)?;
            expect_len(MeeState::COUNT, n_rows)?;
            let weights = float_rows(fields, "weight", n_rows)?;
            for row in &weights {
                expect_len(width + 1, row.len())?;
            }
            let model = MultinomialLogistic::from_weights(weights)?;
            Classifier::Logistic { scaler, model }
        }
        Kind::Knn => {
            let k = parse_one_usize(field(fields, "knn_k")?)?;
            let labels = parse_usizes(field(fields, "knn_labels")?)?;
            let n_rows = parse_one_usize(field(fields, "samples")?)?;
            let data = float_rows(fields, "sample", n_rows)?;
            for row in &data {
                expect_len(width, row.len())?;
            }
            let knn = KnnClassifier::fit(&data, &labels, k, MeeState::COUNT)?;
            Classifier::Knn { scaler, knn }
        }
    })
}

/// The lines older builds wrote for settings that are now constants, each
/// with the values this build runs at `sample_rate`, written as those
/// builds wrote them.
fn retired_lines(sample_rate: f64) -> [(&'static str, String); 17] {
    let mfcc = crate::features::mfcc_config(sample_rate);
    let pair = |(a, b): (f64, f64)| format!("{a} {b}");
    [
        ("band_hz", pair(PROBE_BAND_HZ)),
        ("noise_filter_order", NOISE_FILTER_ORDER.to_string()),
        ("event_window", EVENT_WINDOW.to_string()),
        ("min_symmetry_support", MIN_SYMMETRY_SUPPORT.to_string()),
        (
            "parity_energy_threshold",
            PARITY_ENERGY_THRESHOLD.to_string(),
        ),
        ("eardrum_distance_range_m", pair(EARDRUM_DISTANCE_RANGE_M)),
        ("deconvolution_epsilon", DECONVOLUTION_EPSILON.to_string()),
        ("echo_ir", format!("{ECHO_IR_PRE} {ECHO_IR_TAIL}")),
        ("n_fft", N_FFT.to_string()),
        ("psd_profile_bins", PROFILE_BINS.to_string()),
        ("profile_band_hz", pair(PROFILE_BAND_HZ)),
        (
            "mfcc",
            format!(
                "{} {} {} {} {} {}",
                mfcc.sample_rate, mfcc.n_fft, mfcc.n_filters, mfcc.n_coeffs, mfcc.f_min, mfcc.f_max
            ),
        ),
        ("mfcc_window", format!("{:?}", mfcc.window).to_lowercase()),
        ("k_clusters", MeeState::COUNT.to_string()),
        ("laplacian_neighbors", LAPLACIAN_NEIGHBORS.to_string()),
        ("kmeans_restarts", KMEANS_RESTARTS.to_string()),
        ("seed", SEED.to_string()),
    ]
}

/// Refuses a retired line whose values do not parse equal, token by
/// token, to this build's constant.
fn check_retired_lines(fields: &[(String, String)], sample_rate: f64) -> Result<(), EarSonarError> {
    let same = |a: &str, b: &str| {
        a == b || matches!((a.parse::<f64>(), b.parse::<f64>()), (Ok(x), Ok(y)) if x == y)
    };
    for (name, expected) in retired_lines(sample_rate) {
        let Ok(found) = field(fields, name) else {
            continue;
        };
        let (found, expected) = (found.split_whitespace(), expected.split_whitespace());
        if found.clone().count() != expected.clone().count()
            || !found.zip(expected).all(|(a, b)| same(a, b))
        {
            return Err(EarSonarError::BadConfig {
                name,
                constraint: "a setting that is now a constant must equal this build's value",
            });
        }
    }
    Ok(())
}

/// Serializes a trained system to the model text format
/// (`earsonar-model v2`, stamped with the system's backend).
pub fn model_to_string(system: &EarSonar) -> String {
    let cfg = system.front_end().config();
    let classifier = system.classifier();
    let spec = classifier.spec();
    let mut out = String::new();
    let _ = writeln!(out, "{MAGIC_V2}");
    let _ = writeln!(out, "backend: {}", spec.name);
    let _ = writeln!(out, "backend_version: {}", spec.version);

    // Configuration.
    let _ = writeln!(out, "sample_rate: {}", cfg.sample_rate);
    let _ = writeln!(out, "chirp: {} {}", cfg.chirp_len, cfg.chirp_hop);
    let _ = writeln!(out, "ir_taps: {}", cfg.ir_taps);
    let _ = writeln!(out, "top_features: {}", cfg.top_features);
    let _ = writeln!(out, "remove_outliers: {}", cfg.remove_outliers);
    let _ = write!(out, "quality_gate: {}", cfg.quality.enabled);
    for threshold in GATE_THRESHOLDS {
        let _ = write!(out, " {threshold}");
    }
    let _ = writeln!(out);

    write_classifier(&mut out, classifier);
    out
}

/// Saves a trained system to `path`.
///
/// # Errors
///
/// Returns [`EarSonarError::BadRecording`] on I/O failure.
pub fn save_model(path: impl AsRef<Path>, system: &EarSonar) -> Result<(), EarSonarError> {
    std::fs::write(path, model_to_string(system)).map_err(|_| bad("could not write the model file"))
}

/// Parses a model from its text form.
///
/// # Errors
///
/// Returns [`EarSonarError::BadRecording`] for format violations,
/// [`EarSonarError::FeatureWidthMismatch`] when the classifier's input
/// width disagrees with the backend's feature extractor, plus any
/// configuration or component validation error.
pub fn model_from_string(text: &str) -> Result<EarSonar, EarSonarError> {
    let mut lines = text.lines();
    let legacy_v1 = match lines.next().map(str::trim) {
        Some(m) if m == MAGIC_V2 => false,
        // Pre-registry files: always the reference MFCC+k-means layout.
        Some(m) if m == MAGIC_V1 => true,
        _ => return Err(bad("not an earsonar-model file")),
    };

    let mut fields: Vec<(String, String)> = Vec::new();
    for line in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (key, value) = line.split_once(':').ok_or(bad("malformed model line"))?;
        fields.push((key.trim().to_string(), value.trim().to_string()));
    }
    let get = |key: &str| field(&fields, key);
    let one_usize = parse_one_usize;

    let sample_rate: f64 = get("sample_rate")?
        .parse()
        .map_err(|_| bad("bad float in model file"))?;
    check_retired_lines(&fields, sample_rate)?;
    let chirp = parse_usizes(get("chirp")?)?;
    let [chirp_len, chirp_hop] = chirp[..] else {
        return Err(bad("expected two chirp integers"));
    };
    let config = EarSonarConfig {
        sample_rate,
        chirp_len,
        chirp_hop,
        ir_taps: one_usize(get("ir_taps")?)?,
        top_features: one_usize(get("top_features")?)?,
        remove_outliers: match get("remove_outliers")? {
            "true" => true,
            "false" => false,
            _ => return Err(bad("bad boolean in model file")),
        },
        // Absent in models saved before the quality gate existed; those
        // load with the gate on, matching how an updated device would
        // treat an old factory model.
        quality: match get("quality_gate") {
            Err(_) => QualityGateConfig::default(),
            Ok(line) => {
                let mut parts = line.split_whitespace();
                let enabled = match parts.next() {
                    Some("true") => true,
                    Some("false") => false,
                    _ => return Err(bad("bad boolean in model file")),
                };
                let thresholds: Vec<f64> = parts
                    .map(|t| t.parse::<f64>().map_err(|_| bad("bad float in model file")))
                    .collect::<Result<_, _>>()?;
                if thresholds.len() != GATE_THRESHOLDS.len() {
                    return Err(bad("expected five quality-gate thresholds"));
                }
                if thresholds != GATE_THRESHOLDS {
                    return Err(EarSonarError::BadConfig {
                        name: "quality_gate",
                        constraint: "the gate's thresholds must equal this build's constants",
                    });
                }
                QualityGateConfig { enabled }
            }
        },
    };
    config.validate()?;

    // Resolve the backend that wrote the classifier fields.
    let spec = if legacy_v1 {
        backend::reference()
    } else {
        backend::lookup(get("backend")?)?
    };
    if !legacy_v1 {
        let version: u32 = get("backend_version")?
            .parse()
            .map_err(|_| bad("bad backend_version in model file"))?;
        if version != spec.version {
            return Err(bad(
                "model backend version does not match this build's backend",
            ));
        }
    }

    let classifier = read_classifier(&fields, spec)?;
    let front_end = FrontEnd::for_backend(&config, spec)?;
    // Every backend standardizes its input first, so the scaler's width is
    // the classifier's input width. A disagreement would load and then
    // fail every screening.
    let classifier_width = get("scaler_means")?.split_whitespace().count();
    let extractor_width = front_end.extractor().feature_count();
    if classifier_width != extractor_width {
        return Err(EarSonarError::FeatureWidthMismatch {
            classifier: classifier_width,
            extractor: extractor_width,
        });
    }
    Ok(EarSonar::from_parts(front_end, classifier))
}

/// [`model_from_string`] pinned to an expected backend.
///
/// # Errors
///
/// Returns [`EarSonarError::UnknownBackend`] if `backend_name` is not
/// registered, [`EarSonarError::BackendMismatch`] if the model was saved
/// by a different backend, plus the conditions of [`model_from_string`].
pub fn model_from_string_as(text: &str, backend_name: &str) -> Result<EarSonar, EarSonarError> {
    let requested = backend::lookup(backend_name)?;
    let system = model_from_string(text)?;
    if system.backend() != requested.name {
        return Err(EarSonarError::BackendMismatch {
            expected: requested.name.to_string(),
            found: system.backend().to_string(),
        });
    }
    Ok(system)
}

/// Loads a trained system from `path`.
///
/// # Errors
///
/// Returns [`EarSonarError::BadRecording`] on I/O failure or format
/// violations.
pub fn load_model(path: impl AsRef<Path>) -> Result<EarSonar, EarSonarError> {
    let text = std::fs::read_to_string(path).map_err(|_| bad("could not read the model file"))?;
    model_from_string(&text)
}

/// Loads a trained system from `path`, requiring it to run the named
/// backend.
///
/// # Errors
///
/// Same conditions as [`model_from_string_as`], plus I/O failure.
pub fn load_model_as(
    path: impl AsRef<Path>,
    backend_name: &str,
) -> Result<EarSonar, EarSonarError> {
    let text = std::fs::read_to_string(path).map_err(|_| bad("could not read the model file"))?;
    model_from_string_as(&text, backend_name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MAX_CONFIG_SIZE;
    use earsonar_sim::cohort::Cohort;
    use earsonar_sim::dataset::{Dataset, DatasetSpec};

    fn trained() -> (EarSonar, Dataset) {
        let data = Dataset::build(&Cohort::generate(6, 21), &DatasetSpec::default());
        let system = EarSonar::fit(&data.sessions, &EarSonarConfig::default()).expect("fit");
        (system, data)
    }

    #[test]
    fn string_round_trip_preserves_predictions() {
        let (system, data) = trained();
        let text = model_to_string(&system);
        assert!(text.starts_with(MAGIC_V2));
        assert!(text.contains("backend: mfcc-kmeans"));
        let restored = model_from_string(&text).expect("parse");
        for s in data.sessions.iter().take(12) {
            assert_eq!(
                system.screen(&s.recording).unwrap(),
                restored.screen(&s.recording).unwrap()
            );
        }
    }

    #[test]
    fn file_round_trip() {
        let (system, data) = trained();
        let path = std::env::temp_dir().join("earsonar_model_roundtrip.model");
        save_model(&path, &system).expect("save");
        let restored = load_model(&path).expect("load");
        let s = &data.sessions[0];
        assert_eq!(
            system.screen(&s.recording).unwrap(),
            restored.screen(&s.recording).unwrap()
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn config_survives_round_trip() {
        let (system, _) = trained();
        let restored = model_from_string(&model_to_string(&system)).expect("parse");
        assert_eq!(system.front_end().config(), restored.front_end().config());
    }

    #[test]
    fn quality_gate_survives_round_trip_and_defaults_when_absent() {
        let (system, _) = trained();
        let text = model_to_string(&system);
        assert!(text.contains("\nquality_gate: true 0.04 0.35 -8 -0.99 0.97\n"));
        // A pre-gate model file (no quality_gate line) loads with the
        // gate on instead of failing.
        let legacy: String = text
            .lines()
            .filter(|l| !l.starts_with("quality_gate:"))
            .collect::<Vec<_>>()
            .join("\n");
        let restored = model_from_string(&legacy).expect("legacy parse");
        assert_eq!(
            restored.front_end().config().quality,
            QualityGateConfig::default()
        );
        // A malformed gate line is a format violation.
        for malformed in [
            "quality_gate: maybe 0.04 0.35 -8 -0.99 0.97",
            "quality_gate: true 0.5",
            "quality_gate: true 0.04 0.35 -8 -0.99 0.97 0.5",
            "quality_gate: true 0.04 0.35 -8 x 0.97",
        ] {
            let broken = text.replace("quality_gate: true 0.04 0.35 -8 -0.99 0.97", malformed);
            match model_from_string(&broken) {
                Err(EarSonarError::BadRecording { .. }) => {}
                other => panic!("{malformed}: expected BadRecording, got {:?}", other.err()),
            }
        }
    }

    #[test]
    fn gate_thresholds_must_equal_the_constants() {
        let fixture =
            include_str!("../tests/fixtures/absorbance-logistic-6-patients-seed-2023.model");
        let line = "quality_gate: true 0.04 0.35 -8 -0.99 0.97";
        assert!(fixture.contains(line));
        let with = |new: &str| fixture.replace(line, new);
        let loaded = model_from_string(fixture).expect("fixture parse");
        assert!(loaded.front_end().config().quality.enabled);
        // Equal values written another way still load.
        assert!(model_from_string(&with("quality_gate: true 4e-2 0.350 -8.0 -0.99 0.97")).is_ok());
        let off = model_from_string(&with("quality_gate: false 0.04 0.35 -8 -0.99 0.97"))
            .expect("gate-off parse");
        assert!(!off.front_end().config().quality.enabled);
        // Each threshold in turn set to another value is refused: these
        // are constants of the pipeline now.
        for changed in [
            "quality_gate: true 0.05 0.35 -8 -0.99 0.97",
            "quality_gate: true 0.04 0.36 -8 -0.99 0.97",
            "quality_gate: true 0.04 0.35 -9 -0.99 0.97",
            "quality_gate: true 0.04 0.35 -8 -0.98 0.97",
            "quality_gate: true 0.04 0.35 -8 -0.99 0.96",
            "quality_gate: false 0.04 0.35 -8 -0.99 NaN",
        ] {
            match model_from_string(&with(changed)) {
                Err(EarSonarError::BadConfig { name, .. }) => assert_eq!(name, "quality_gate"),
                other => panic!("{changed}: expected BadConfig, got {:?}", other.err()),
            }
        }
    }

    #[test]
    fn legacy_v1_file_loads_as_reference_with_identical_verdicts() {
        let (system, data) = trained();
        // Reconstruct what a pre-registry save produced: the v1 magic and
        // no backend lines; every other field is unchanged.
        let legacy: String = model_to_string(&system)
            .lines()
            .filter(|l| !l.starts_with("backend:") && !l.starts_with("backend_version:"))
            .map(|l| if l == MAGIC_V2 { MAGIC_V1 } else { l })
            .collect::<Vec<_>>()
            .join("\n");
        assert!(legacy.starts_with(MAGIC_V1));
        let restored = model_from_string(&legacy).expect("legacy parse");
        assert_eq!(restored.backend(), crate::backend::REFERENCE_BACKEND);
        assert!(matches!(restored.classifier(), Classifier::KMeans(_)));
        for s in data.sessions.iter().take(12) {
            assert_eq!(
                system.screen(&s.recording).unwrap(),
                restored.screen(&s.recording).unwrap()
            );
        }
    }

    #[test]
    fn files_with_the_retired_echo_window_lines_load_with_identical_verdicts() {
        let (system, data) = trained();
        let text = model_to_string(&system);
        for retired in ["cancel_max_delay:", "echo_window_half:", "window:"] {
            assert!(!text.lines().any(|l| l.starts_with(retired)), "{retired}");
        }
        // Among the configuration lines, as older builds wrote them.
        let old: String = text
            .lines()
            .flat_map(|l| {
                let extra: &[&str] = if l.starts_with("chirp:") {
                    &["cancel_max_delay: 5", "echo_window_half: 32"]
                } else if l.starts_with("ir_taps:") {
                    &["window: hann"]
                } else {
                    &[]
                };
                std::iter::once(l).chain(extra.iter().copied())
            })
            .collect::<Vec<_>>()
            .join("\n");
        assert!(old.contains("\ncancel_max_delay: 5\necho_window_half: 32\n"));
        assert!(old.contains("\nwindow: hann\n"));
        let restored = model_from_string(&old).expect("old-format parse");
        let fresh = model_from_string(&text).expect("parse");
        assert_eq!(restored.front_end().config(), fresh.front_end().config());
        for s in data.sessions.iter().take(12) {
            assert_eq!(
                fresh.screen(&s.recording).unwrap(),
                restored.screen(&s.recording).unwrap()
            );
        }
    }

    #[test]
    fn cross_backend_load_is_a_typed_error() {
        let (system, _) = trained();
        let text = model_to_string(&system);
        // Pinning the correct backend succeeds...
        assert!(model_from_string_as(&text, "mfcc-kmeans").is_ok());
        // ...a different registered backend is a mismatch, not a panic...
        match model_from_string_as(&text, "absorbance-logistic") {
            Err(EarSonarError::BackendMismatch { expected, found }) => {
                assert_eq!(expected, "absorbance-logistic");
                assert_eq!(found, "mfcc-kmeans");
            }
            other => panic!("expected BackendMismatch, got {other:?}"),
        }
        // ...and an unregistered name is UnknownBackend.
        assert!(matches!(
            model_from_string_as(&text, "no-such-backend"),
            Err(EarSonarError::UnknownBackend { .. })
        ));
    }

    #[test]
    fn unknown_backend_and_version_in_file_are_rejected() {
        let (system, _) = trained();
        let text = model_to_string(&system);
        let renamed = text.replace("backend: mfcc-kmeans", "backend: mystery-backend");
        assert!(matches!(
            model_from_string(&renamed),
            Err(EarSonarError::UnknownBackend { .. })
        ));
        let futuristic = text.replace("backend_version: 1", "backend_version: 99");
        assert!(model_from_string(&futuristic).is_err());
    }

    #[test]
    fn non_reference_backend_round_trips() {
        let data = Dataset::build(&Cohort::generate(6, 21), &DatasetSpec::default());
        let system =
            EarSonar::fit_backend(&data.sessions, &EarSonarConfig::default(), "absorbance-knn")
                .expect("fit");
        let text = model_to_string(&system);
        assert!(text.contains("backend: absorbance-knn"));
        let restored = model_from_string(&text).expect("parse");
        assert_eq!(restored.backend(), "absorbance-knn");
        assert!(matches!(restored.classifier(), Classifier::Knn { .. }));
        for s in data.sessions.iter().take(12) {
            assert_eq!(
                system.screen(&s.recording).unwrap(),
                restored.screen(&s.recording).unwrap()
            );
        }
    }

    #[test]
    fn every_classifier_round_trips_its_lines() {
        let cfg = EarSonarConfig::default();
        for spec in backend::registry() {
            let width = spec.extractor(&cfg).unwrap().feature_count();
            let (feats, labels) = crate::backend::tests::blob_features(width);
            let classifier = spec.fit(&feats, &labels, &cfg).expect(spec.name);
            let mut text = String::new();
            write_classifier(&mut text, &classifier);
            let fields: Vec<(String, String)> = text
                .lines()
                .filter_map(|l| l.split_once(':'))
                .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
                .collect();
            let restored = read_classifier(&fields, spec).expect(spec.name);
            assert_eq!(restored.spec().name, spec.name);
            let mut again = String::new();
            write_classifier(&mut again, &restored);
            assert_eq!(again, text, "{}", spec.name);
            for x in &feats {
                assert_eq!(classifier.predict(x).unwrap(), restored.predict(x).unwrap());
                assert_eq!(
                    classifier.confidence(x).unwrap(),
                    restored.confidence(x).unwrap()
                );
            }
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(model_from_string("").is_err());
        assert!(model_from_string("not a model").is_err());
        assert!(model_from_string(MAGIC_V2).is_err()); // fields missing
        let (system, _) = trained();
        let text = model_to_string(&system);
        // Corrupt a float.
        let broken = text.replace("scaler_means:", "scaler_means: zzz");
        assert!(model_from_string(&broken).is_err());
        // Drop the labeling line.
        let dropped: String = text
            .lines()
            .filter(|l| !l.starts_with("labeling:"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(model_from_string(&dropped).is_err());
        assert!(load_model("/nonexistent/model/file").is_err());
    }

    #[test]
    fn hostile_sizes_are_refused_at_load() {
        // Each of these once aborted the process in an allocation (or, in
        // debug builds, panicked on `next_pow2` or `echo_ir` add overflow).
        // Only `chirp_hop` and `top_features` are still settable; the
        // other sizes are constants, and a line an older build wrote for
        // one of them must equal this build's value.
        let (system, _) = trained();
        let text = model_to_string(&system);
        let line = |key: &str| text.lines().find(|l| l.starts_with(key)).unwrap();
        let replaced = |key: &str, new: &str| text.replace(line(key), new);
        let appended = |new: &str| format!("{text}{new}\n");
        let mfcc = |i: usize, value: &str| {
            let mut fields: Vec<&str> = "mfcc: 48000 256 26 26 16000 20000"
                .split_whitespace()
                .collect();
            fields[i] = value;
            appended(&fields.join(" "))
        };
        // A retired line as older builds wrote it loads.
        assert!(model_from_string(&mfcc(1, "48000")).is_ok());
        let cases = [
            ("chirp_hop", replaced("chirp:", "chirp: 24 4294967296")),
            (
                "top_features",
                replaced("top_features:", "top_features: 4294967296"),
            ),
            ("mfcc", mfcc(3, "1000000000")),
            ("n_fft", appended("n_fft: 4294967296")),
            ("mfcc", mfcc(2, "4294967296")),
            ("psd_profile_bins", appended("psd_profile_bins: 4294967296")),
            ("k_clusters", appended("k_clusters: 4294967296")),
            ("echo_ir", appended("echo_ir: 18446744073709551615 1")),
            // This one loaded and computed MFCCs on shifted mel bands.
            ("mfcc", mfcc(1, "44100")),
            // No truncation of a fractional size.
            ("mfcc", mfcc(2, "256.9")),
            ("mfcc", mfcc(3, "26.7")),
            ("mfcc", mfcc(4, "26.99")),
            ("mfcc", mfcc(3, "1e9")),
            ("mfcc", mfcc(2, "1e30")),
        ];
        for (field, text) in &cases {
            match model_from_string(text) {
                Err(EarSonarError::BadConfig { name, .. }) => assert_eq!(name, *field),
                other => panic!("{field}: expected BadConfig, got {:?}", other.err()),
            }
        }
        // Integer fields must be integers of their type: no wrap-around
        // of an oversized version.
        for new in ["backend_version: 4294967297", "backend_version: -1"] {
            match model_from_string(&replaced("backend_version:", new)) {
                Err(EarSonarError::BadRecording { .. }) => {}
                other => panic!("{new}: expected BadRecording, got {:?}", other.err()),
            }
        }
        // The bound itself passes the size check.
        let at_bound = replaced("top_features:", &format!("top_features: {MAX_CONFIG_SIZE}"));
        assert!(!matches!(
            model_from_string(&at_bound),
            Err(EarSonarError::BadConfig {
                name: "top_features",
                ..
            })
        ));
    }

    #[test]
    fn detector_component_validation() {
        let (system, _) = trained();
        let Classifier::KMeans(det) = system.classifier() else {
            panic!("the reference backend fits k-means");
        };
        // Inconsistent k-means dimensionality is rejected.
        let bad_km = KMeans::from_centroids(vec![vec![0.0; 3]; 4]).unwrap();
        assert!(EarSonarDetector::from_components(
            det.scaler().clone(),
            det.selected_features().to_vec(),
            bad_km,
            det.labeling().clone(),
        )
        .is_err());
        // Out-of-range selected index is rejected.
        assert!(EarSonarDetector::from_components(
            det.scaler().clone(),
            vec![10_000],
            KMeans::from_centroids(det.kmeans().centroids().to_vec()).unwrap(),
            det.labeling().clone(),
        )
        .is_err());
    }
}
