//! Seeded mutation suite for model files: [`model_from_string`] reads text
//! the system does not control (a model shipped to a device), so every
//! input — truncated at any byte offset, or byte- or bit-flipped — must
//! load or give a typed [`EarSonarError`](earsonar::EarSonarError), never
//! panic. A model that does load must save and load again with the same
//! configuration, and its classifier must predict on a vector of its
//! extractor's width without panicking.
//!
//! Five base files: the reference backend's model as written today (`v2`)
//! and in its `v1` form (the legacy magic line, no backend lines), the
//! `v2` files of the absorbance logistic and k-NN backends, and a
//! reference model written by an older build, whose configuration lines
//! for settings that are now constants go through the retired-line check.
//!
//! Targeted mutations: a classifier one feature wider than its extractor
//! is refused at load for every registered backend, and so are classifier
//! components of the wrong length — a logistic model with a fifth class
//! row or rows of the wrong width, and k-NN samples of the wrong width.

use earsonar::backend::{reference, registry};
use earsonar::model_io::{model_from_string, model_to_string};
use earsonar::{EarSonar, EarSonarConfig, EarSonarError};
use earsonar_dsp::rng::DetRng;
use earsonar_ml::MlError;
use earsonar_sim::cohort::Cohort;
use earsonar_sim::dataset::{Dataset, DatasetSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// Seeded mutations per base file.
const MUTATIONS_PER_FILE: u64 = 5_000;

/// One fitted system per registered backend, in registry order, fitted
/// once per test binary on one cohort.
fn systems() -> &'static [EarSonar] {
    static SYSTEMS: OnceLock<Vec<EarSonar>> = OnceLock::new();
    SYSTEMS.get_or_init(|| {
        let data = Dataset::build(&Cohort::generate(6, 21), &DatasetSpec::default());
        registry()
            .iter()
            .map(|spec| {
                EarSonar::fit_backend(&data.sessions, &EarSonarConfig::default(), spec.name)
                    .expect("fit")
            })
            .collect()
    })
}

/// The saved model of the registered backend `name`.
fn saved(name: &str) -> String {
    let system = systems()
        .iter()
        .find(|s| s.backend() == name)
        .expect("registered backend");
    model_to_string(system)
}

/// The base files, labelled: the reference model in its v1 and v2 forms,
/// the v2 file of every other registered backend, then the older build's
/// reference model.
fn base_files() -> &'static [(String, String)] {
    static FILES: OnceLock<Vec<(String, String)>> = OnceLock::new();
    FILES.get_or_init(|| {
        let v2 = saved(reference().name);
        let v1 = v2
            .lines()
            .filter(|l| !l.starts_with("backend"))
            .map(|l| {
                if l == "earsonar-model v2" {
                    "earsonar-model v1"
                } else {
                    l
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let mut files = vec![
            (format!("{} v1", reference().name), v1),
            (format!("{} v2", reference().name), v2),
        ];
        for spec in registry().iter().filter(|s| s.name != reference().name) {
            files.push((format!("{} v2", spec.name), saved(spec.name)));
        }
        files.push((
            "mfcc-kmeans v2 with retired lines".to_string(),
            include_str!("fixtures/mfcc-kmeans-6-patients-seed-2023.model").to_string(),
        ));
        files
    })
}

/// Loads `text` and checks the contract. Returns whether it loaded.
fn check(text: &str, what: &str) -> bool {
    let loaded = catch_unwind(|| model_from_string(text))
        .unwrap_or_else(|_| panic!("{what}: model_from_string panicked"));
    let Ok(system) = loaded else {
        return false;
    };
    let again = model_from_string(&model_to_string(&system))
        .unwrap_or_else(|e| panic!("{what}: the saved form does not load: {e:?}"));
    assert_eq!(
        system.front_end().config(),
        again.front_end().config(),
        "{what}: configuration changed across save and load"
    );
    // A typed error is fine here; a panic is not.
    let width = system.front_end().extractor().feature_count();
    let features: Vec<f64> = (0..width).map(|i| (i as f64 * 0.37).sin()).collect();
    let classifier = system.classifier();
    catch_unwind(AssertUnwindSafe(|| {
        let _ = classifier.predict(&features);
        let _ = classifier.confidence(&features);
    }))
    .unwrap_or_else(|_| panic!("{what}: the loaded classifier panicked"));
    true
}

#[test]
fn base_files_load() {
    assert_eq!(base_files().len(), registry().len() + 2);
    for (name, text) in base_files() {
        assert!(check(text, name), "{name} must load");
    }
}

#[test]
fn truncation_at_every_offset_never_panics() {
    for (name, text) in base_files() {
        assert!(
            text.is_ascii(),
            "{name}: every byte offset is a char boundary"
        );
        // The last line (`labeling:`, or the last `weight:` or `sample:`
        // row) is required, so only a cut inside its values can still
        // load.
        let last_line = text.trim_end().rfind('\n').expect("multi-line file");
        for len in 0..=text.len() {
            let loaded = check(&text[..len], &format!("{name} cut at {len}"));
            assert!(
                !loaded || len > last_line,
                "{name}: a cut at {len} lost required lines but loaded"
            );
        }
    }
}

#[test]
fn seeded_byte_and_bit_flips_never_panic() {
    let (mut cases, mut loaded) = (0u64, 0usize);
    for (f, (name, base)) in base_files().iter().enumerate() {
        // The configuration header, where every field is parsed and
        // validated, ends where the classifier fields begin.
        let header = base.find("scaler_means:").expect("classifier fields");
        for seed in 0..MUTATIONS_PER_FILE {
            let mut rng = DetRng::seed_from_u64(seed ^ ((f as u64) << 32));
            let mut bytes = base.clone().into_bytes();
            // Half the flips land in the header, the rest anywhere. A
            // third write a digit, which keeps a number parsing and so
            // reaches validation and the classifier's own checks.
            for _ in 0..rng.range_inclusive(1, 4) {
                let at = if rng.below(2) == 0 {
                    rng.below(header)
                } else {
                    rng.below(bytes.len())
                };
                match rng.below(3) {
                    0 => bytes[at] = rng.below(256) as u8,
                    1 => bytes[at] ^= 1 << rng.below(8),
                    _ => bytes[at] = b'0' + rng.below(10) as u8,
                }
            }
            // A flip may leave invalid UTF-8, which `load_model` refuses
            // on read; the lossy decode still feeds non-ASCII text to the
            // parser.
            loaded += usize::from(check(
                &String::from_utf8_lossy(&bytes),
                &format!("{name} seed {seed}"),
            ));
            cases += 1;
        }
    }
    assert_eq!(cases, MUTATIONS_PER_FILE * base_files().len() as u64);
    // Both outcomes are exercised.
    assert!(
        loaded > 0 && loaded < cases as usize,
        "{loaded} of {cases} loaded"
    );
}

#[test]
fn a_classifier_wider_than_its_extractor_is_refused_at_load() {
    // One more column in the scaler, and in every logistic row and k-NN
    // sample, keeps each classifier self-consistent, so only the width
    // check against the feature extractor can refuse it; without that
    // check the model loads and every screening fails.
    for system in systems() {
        let name = system.backend();
        let width = system.front_end().extractor().feature_count();
        let widened = model_to_string(system)
            .replace("scaler_means: ", "scaler_means: 0.0 ")
            .replace("scaler_stds: ", "scaler_stds: 1.0 ")
            .replace("weight: ", "weight: 0.0 ")
            .replace("sample: ", "sample: 0.0 ");
        match model_from_string(&widened) {
            Err(EarSonarError::FeatureWidthMismatch {
                classifier,
                extractor,
            }) => assert_eq!((classifier, extractor), (width + 1, width), "{name}"),
            other => panic!("{name}: loaded, or refused with {:?}", other.err()),
        }
    }
}

/// Asserts `text` is refused with a length mismatch of `expected` against
/// `actual`.
fn assert_refused(text: &str, expected: usize, actual: usize, what: &str) {
    match model_from_string(text) {
        Err(EarSonarError::Ml(MlError::DimensionMismatch {
            expected: e,
            actual: a,
        })) => assert_eq!((e, a), (expected, actual), "{what}"),
        other => panic!("{what}: loaded, or refused with {:?}", other.err()),
    }
}

#[test]
fn a_logistic_model_with_a_fifth_class_row_is_refused_at_load() {
    // Without the check this loads, and its all-zero row with a huge bias
    // wins every prediction with class index 4, which has no state.
    let text = saved("absorbance-logistic");
    let width = text
        .lines()
        .find_map(|l| l.strip_prefix("weight: "))
        .expect("a weight row")
        .split_whitespace()
        .count();
    let mut row = vec!["0.0"; width - 1];
    row.push("1e6");
    let text = format!("{}\nweight: {}\n", text.trim_end(), row.join(" "))
        .replace("weights: 4\n", "weights: 5\n");
    assert_refused(&text, 4, 5, "fifth class row");
}

#[test]
fn a_logistic_row_of_the_wrong_width_is_refused_at_load() {
    let text = saved("absorbance-logistic");
    let width = text
        .lines()
        .find_map(|l| l.strip_prefix("scaler_means: "))
        .expect("scaler means")
        .split_whitespace()
        .count();
    // Every row loses its bias, so the rows still agree with each other.
    let text = text
        .lines()
        .map(|l| match l.strip_prefix("weight: ") {
            Some(row) => format!("weight: {}", row.rsplit_once(' ').expect("two columns").0),
            None => l.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n");
    assert_refused(&text, width + 1, width, "rows without a bias");
}

#[test]
fn knn_samples_of_the_wrong_width_are_refused_at_load() {
    let text = saved("absorbance-knn");
    let width = text
        .lines()
        .find_map(|l| l.strip_prefix("scaler_means: "))
        .expect("scaler means")
        .split_whitespace()
        .count();
    // Every sample gains a column, so the samples still agree with each
    // other.
    let text = text
        .lines()
        .map(|l| match l.strip_prefix("sample: ") {
            Some(row) => format!("sample: {row} 0.0"),
            None => l.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n");
    assert_refused(&text, width, width + 1, "samples one column wider");
}
