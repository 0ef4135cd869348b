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
//! be written as integers that fit their type. Lines this build does not
//! read are ignored, so files from older builds that still carry lines
//! for since-retired configuration fields load unchanged.
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

use crate::backend::{self, parse_f64s, parse_one_usize, parse_usizes};
use crate::config::EarSonarConfig;
use crate::error::EarSonarError;
use crate::pipeline::{EarSonar, FrontEnd};
use earsonar_dsp::window::Window;
use std::fmt::Write as _;
use std::path::Path;

const MAGIC_V1: &str = "earsonar-model v1";
const MAGIC_V2: &str = "earsonar-model v2";

fn bad(constraint: &'static str) -> EarSonarError {
    EarSonarError::BadRecording { reason: constraint }
}

fn window_name(w: Window) -> &'static str {
    match w {
        Window::Rectangular => "rectangular",
        Window::Hann => "hann",
        Window::Hamming => "hamming",
        Window::Blackman => "blackman",
    }
}

fn window_from_name(s: &str) -> Result<Window, EarSonarError> {
    match s {
        "rectangular" => Ok(Window::Rectangular),
        "hann" => Ok(Window::Hann),
        "hamming" => Ok(Window::Hamming),
        "blackman" => Ok(Window::Blackman),
        _ => Err(bad("unknown window name in model file")),
    }
}

/// Serializes a trained system to the model text format
/// (`earsonar-model v2`, stamped with the system's backend).
pub fn model_to_string(system: &EarSonar) -> String {
    let cfg = system.front_end().config();
    let classifier = system.classifier();
    let mut out = String::new();
    let _ = writeln!(out, "{MAGIC_V2}");
    let _ = writeln!(out, "backend: {}", classifier.backend());
    let _ = writeln!(out, "backend_version: {}", classifier.version());

    // Configuration.
    let _ = writeln!(out, "sample_rate: {}", cfg.sample_rate);
    let _ = writeln!(out, "band_hz: {} {}", cfg.band_low_hz, cfg.band_high_hz);
    let _ = writeln!(out, "noise_filter_order: {}", cfg.noise_filter_order);
    let _ = writeln!(out, "chirp: {} {}", cfg.chirp_len, cfg.chirp_hop);
    let _ = writeln!(out, "event_window: {}", cfg.event_window);
    let _ = writeln!(out, "min_symmetry_support: {}", cfg.min_symmetry_support);
    let _ = writeln!(
        out,
        "parity_energy_threshold: {}",
        cfg.parity_energy_threshold
    );
    let _ = writeln!(
        out,
        "eardrum_distance_range_m: {} {}",
        cfg.eardrum_distance_range_m.0, cfg.eardrum_distance_range_m.1
    );
    let _ = writeln!(out, "ir_taps: {}", cfg.ir_taps);
    let _ = writeln!(out, "deconvolution_epsilon: {}", cfg.deconvolution_epsilon);
    let _ = writeln!(out, "echo_ir: {} {}", cfg.echo_ir_pre, cfg.echo_ir_tail);
    let _ = writeln!(out, "n_fft: {}", cfg.n_fft);
    let _ = writeln!(out, "psd_profile_bins: {}", cfg.psd_profile_bins);
    let _ = writeln!(
        out,
        "profile_band_hz: {} {}",
        cfg.profile_band_hz.0, cfg.profile_band_hz.1
    );
    let _ = writeln!(
        out,
        "mfcc: {} {} {} {} {} {}",
        cfg.mfcc.sample_rate,
        cfg.mfcc.n_fft,
        cfg.mfcc.n_filters,
        cfg.mfcc.n_coeffs,
        cfg.mfcc.f_min,
        cfg.mfcc.f_max
    );
    let _ = writeln!(out, "mfcc_window: {}", window_name(cfg.mfcc.window));
    let _ = writeln!(out, "k_clusters: {}", cfg.k_clusters);
    let _ = writeln!(out, "top_features: {}", cfg.top_features);
    let _ = writeln!(out, "laplacian_neighbors: {}", cfg.laplacian_neighbors);
    let _ = writeln!(out, "kmeans_restarts: {}", cfg.kmeans_restarts);
    let _ = writeln!(out, "seed: {}", cfg.seed);
    let _ = writeln!(out, "remove_outliers: {}", cfg.remove_outliers);
    let _ = writeln!(
        out,
        "quality_gate: {} {} {} {} {} {}",
        cfg.quality.enabled,
        cfg.quality.max_clip_fraction,
        cfg.quality.max_dropout_fraction,
        cfg.quality.min_snr_db,
        cfg.quality.min_correlation,
        cfg.quality.max_dc_fraction
    );

    // Classifier components, in the backend's own field layout.
    classifier.save_fields(&mut out);
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
    let get = |key: &str| backend::field(&fields, key);
    let usizes = parse_usizes;
    let one_usize = parse_one_usize;
    fn one_f64(s: &str) -> Result<f64, EarSonarError> {
        s.trim().parse().map_err(|_| bad("bad float in model file"))
    }
    fn two_f64(s: &str) -> Result<(f64, f64), EarSonarError> {
        let v = parse_f64s(s)?;
        if v.len() != 2 {
            return Err(bad("expected two floats"));
        }
        Ok((v[0], v[1]))
    }

    let band = two_f64(get("band_hz")?)?;
    let chirp = usizes(get("chirp")?)?;
    if chirp.len() != 2 {
        return Err(bad("expected two chirp integers"));
    }
    let echo_ir = usizes(get("echo_ir")?)?;
    if echo_ir.len() != 2 {
        return Err(bad("expected two echo_ir integers"));
    }
    let mfcc_fields: Vec<&str> = get("mfcc")?.split_whitespace().collect();
    let [mfcc_rate, mfcc_n_fft, n_filters, n_coeffs, f_min, f_max] = mfcc_fields[..] else {
        return Err(bad("expected six mfcc values"));
    };

    let config = EarSonarConfig {
        sample_rate: one_f64(get("sample_rate")?)?,
        band_low_hz: band.0,
        band_high_hz: band.1,
        noise_filter_order: one_usize(get("noise_filter_order")?)?,
        chirp_len: chirp[0],
        chirp_hop: chirp[1],
        event_window: one_usize(get("event_window")?)?,
        min_symmetry_support: one_usize(get("min_symmetry_support")?)?,
        parity_energy_threshold: one_f64(get("parity_energy_threshold")?)?,
        eardrum_distance_range_m: two_f64(get("eardrum_distance_range_m")?)?,
        ir_taps: one_usize(get("ir_taps")?)?,
        deconvolution_epsilon: one_f64(get("deconvolution_epsilon")?)?,
        echo_ir_pre: echo_ir[0],
        echo_ir_tail: echo_ir[1],
        n_fft: one_usize(get("n_fft")?)?,
        psd_profile_bins: one_usize(get("psd_profile_bins")?)?,
        profile_band_hz: two_f64(get("profile_band_hz")?)?,
        mfcc: earsonar_dsp::mfcc::MfccConfig {
            sample_rate: one_f64(mfcc_rate)?,
            n_fft: one_usize(mfcc_n_fft)?,
            n_filters: one_usize(n_filters)?,
            n_coeffs: one_usize(n_coeffs)?,
            f_min: one_f64(f_min)?,
            f_max: one_f64(f_max)?,
            window: window_from_name(get("mfcc_window")?)?,
        },
        k_clusters: one_usize(get("k_clusters")?)?,
        top_features: one_usize(get("top_features")?)?,
        laplacian_neighbors: one_usize(get("laplacian_neighbors")?)?,
        kmeans_restarts: one_usize(get("kmeans_restarts")?)?,
        seed: get("seed")?
            .parse()
            .map_err(|_| bad("bad seed in model file"))?,
        remove_outliers: match get("remove_outliers")? {
            "true" => true,
            "false" => false,
            _ => return Err(bad("bad boolean in model file")),
        },
        // Absent in models saved before the quality gate existed; those
        // load with the default thresholds (gate on), matching how an
        // updated device would treat an old factory model.
        quality: match get("quality_gate") {
            Err(_) => crate::quality::QualityGateConfig::default(),
            Ok(line) => {
                let mut parts = line.split_whitespace();
                let enabled = match parts.next() {
                    Some("true") => true,
                    Some("false") => false,
                    _ => return Err(bad("bad boolean in model file")),
                };
                let rest: Vec<f64> = parts
                    .map(|t| t.parse::<f64>().map_err(|_| bad("bad float in model file")))
                    .collect::<Result<_, _>>()?;
                if rest.len() != 5 {
                    return Err(bad("expected five quality-gate thresholds"));
                }
                crate::quality::QualityGateConfig {
                    enabled,
                    max_clip_fraction: rest[0],
                    max_dropout_fraction: rest[1],
                    min_snr_db: rest[2],
                    min_correlation: rest[3],
                    max_dc_fraction: rest[4],
                }
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

    let classifier = (spec.load)(&fields, &config)?;
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
    Ok(EarSonar::from_backend_parts(front_end, classifier))
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
        assert!(text.contains("quality_gate: true"));
        // A pre-gate model file (no quality_gate line) loads with the
        // default thresholds instead of failing.
        let legacy: String = text
            .lines()
            .filter(|l| !l.starts_with("quality_gate:"))
            .collect::<Vec<_>>()
            .join("\n");
        let restored = model_from_string(&legacy).expect("legacy parse");
        assert_eq!(
            restored.front_end().config().quality,
            crate::quality::QualityGateConfig::default()
        );
        // A malformed gate line is rejected.
        let broken = text.replace("quality_gate: true", "quality_gate: maybe");
        assert!(model_from_string(&broken).is_err());
        let short = text.replace("quality_gate: true ", "quality_gate: true 0.5 ");
        let short: String = short
            .lines()
            .map(|l| {
                if l.starts_with("quality_gate:") {
                    "quality_gate: true 0.5"
                } else {
                    l
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        assert!(model_from_string(&short).is_err());
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
        assert!(restored.detector().is_some());
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
        // The layout older builds wrote: `cancel_max_delay:` and
        // `echo_window_half:` after `eardrum_distance_range_m:`, `window:`
        // after `n_fft:`.
        let old: String = text
            .lines()
            .flat_map(|l| {
                let extra: &[&str] = if l.starts_with("eardrum_distance_range_m:") {
                    &["cancel_max_delay: 5", "echo_window_half: 32"]
                } else if l.starts_with("n_fft:") {
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
        assert!(restored.detector().is_none());
        for s in data.sessions.iter().take(12) {
            assert_eq!(
                system.screen(&s.recording).unwrap(),
                restored.screen(&s.recording).unwrap()
            );
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
        let (system, _) = trained();
        let text = model_to_string(&system);
        let line = |key: &str| text.lines().find(|l| l.starts_with(key)).unwrap();
        let mfcc: Vec<&str> = line("mfcc:").split_whitespace().collect();
        let set_mfcc = |i: usize, value: &str| {
            let mut fields = mfcc.clone();
            fields[i] = value;
            fields.join(" ")
        };
        let cases = [
            ("chirp_hop", line("chirp:"), "chirp: 24 4294967296".into()),
            ("mfcc.n_filters", line("mfcc:"), set_mfcc(3, "1000000000")),
            ("n_fft", line("n_fft:"), "n_fft: 4294967296".into()),
            ("mfcc.n_fft", line("mfcc:"), set_mfcc(2, "4294967296")),
            (
                "psd_profile_bins",
                line("psd_profile_bins:"),
                "psd_profile_bins: 4294967296".into(),
            ),
            (
                "k_clusters",
                line("k_clusters:"),
                "k_clusters: 4294967296".into(),
            ),
            (
                "top_features",
                line("top_features:"),
                "top_features: 4294967296".into(),
            ),
            (
                "echo_ir_pre/echo_ir_tail",
                line("echo_ir:"),
                "echo_ir: 18446744073709551615 1".into(),
            ),
        ];
        for (field, old, new) in &cases {
            match model_from_string(&text.replace(old, new)) {
                Err(EarSonarError::BadConfig { name, .. }) => assert_eq!(name, *field),
                other => panic!("{field}: expected BadConfig, got {:?}", other.err()),
            }
        }
        // Integer fields must be integers of their type: no wrap-around
        // of an oversized version, no truncation of a fractional size.
        let parse_cases = [
            (
                line("backend_version:"),
                "backend_version: 4294967297".to_string(),
            ),
            (line("backend_version:"), "backend_version: -1".to_string()),
            (line("mfcc:"), set_mfcc(2, "256.9")),
            (line("mfcc:"), set_mfcc(3, "26.7")),
            (line("mfcc:"), set_mfcc(4, "26.99")),
            (line("mfcc:"), set_mfcc(3, "1e9")),
            (line("mfcc:"), set_mfcc(2, "1e30")),
        ];
        for (old, new) in &parse_cases {
            match model_from_string(&text.replace(old, new)) {
                Err(EarSonarError::BadRecording { .. }) => {}
                other => panic!("{new}: expected BadRecording, got {:?}", other.err()),
            }
        }
        // The bound itself passes the size check.
        let at_bound = text.replace(line("n_fft:"), &format!("n_fft: {MAX_CONFIG_SIZE}"));
        assert!(!matches!(
            model_from_string(&at_bound),
            Err(EarSonarError::BadConfig { name: "n_fft", .. })
        ));
    }

    #[test]
    fn detector_component_validation() {
        use crate::detect::EarSonarDetector;
        use earsonar_ml::kmeans::KMeans;

        let (system, _) = trained();
        let det = system.detector().expect("reference backend");
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
