//! Seeded mutation suite for model files: [`model_from_string`] reads text
//! the system does not control (a model shipped to a device), so every
//! input — truncated at any byte offset, or byte- or bit-flipped — must
//! load or give a typed [`EarSonarError`](earsonar::EarSonarError), never
//! panic. A model that does load must save and load again with the same
//! configuration.
//!
//! Two base files: a `v2` file as written today and the `v1` form of the
//! same model (the legacy magic line, no backend lines).
//!
//! One targeted mutation per registered backend: a classifier one feature
//! wider than its extractor is refused at load with a typed error.

use earsonar::backend::registry;
use earsonar::model_io::{model_from_string, model_to_string};
use earsonar::{EarSonar, EarSonarConfig, EarSonarError};
use earsonar_dsp::rng::DetRng;
use earsonar_sim::cohort::Cohort;
use earsonar_sim::dataset::{Dataset, DatasetSpec};
use std::panic::catch_unwind;
use std::sync::OnceLock;

/// Seeded mutations per base file (two base files: 10 000 in total).
const MUTATIONS_PER_FILE: u64 = 5_000;

/// The v1 and v2 forms of one trained reference model, fitted once per
/// test binary.
fn base_files() -> &'static [String; 2] {
    static FILES: OnceLock<[String; 2]> = OnceLock::new();
    FILES.get_or_init(|| {
        let data = Dataset::build(&Cohort::generate(6, 21), &DatasetSpec::default());
        let system = EarSonar::fit(&data.sessions, &EarSonarConfig::default()).expect("fit");
        let v2 = model_to_string(&system);
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
        [v1, v2]
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
    true
}

#[test]
fn base_files_load() {
    for (f, text) in base_files().iter().enumerate() {
        assert!(check(text, &format!("base {f}")), "base {f} must load");
    }
}

#[test]
fn truncation_at_every_offset_never_panics() {
    for (f, text) in base_files().iter().enumerate() {
        assert!(
            text.is_ascii(),
            "base {f}: every byte offset is a char boundary"
        );
        // `labeling:` is the last line and required, so only a cut inside
        // its values can still load.
        let last_line = text.trim_end().rfind('\n').expect("multi-line file");
        for len in 0..=text.len() {
            let loaded = check(&text[..len], &format!("base {f} cut at {len}"));
            assert!(
                !loaded || len > last_line,
                "base {f}: a cut at {len} lost required lines but loaded"
            );
        }
    }
}

#[test]
fn seeded_byte_and_bit_flips_never_panic() {
    let (mut cases, mut loaded) = (0u64, 0usize);
    for (f, base) in base_files().iter().enumerate() {
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
                &format!("base {f} seed {seed}"),
            ));
            cases += 1;
        }
    }
    assert!(cases >= 10_000);
    // Both outcomes are exercised.
    assert!(
        loaded > 0 && loaded < cases as usize,
        "{loaded} of {cases} loaded"
    );
}

#[test]
fn a_classifier_wider_than_its_extractor_is_refused_at_load() {
    // One more scaler column keeps each classifier self-consistent, so
    // only the width check against the feature extractor can refuse it;
    // without that check the model loads and every screening fails.
    let data = Dataset::build(&Cohort::generate(6, 21), &DatasetSpec::default());
    for spec in registry() {
        let system = EarSonar::fit_backend(&data.sessions, &EarSonarConfig::default(), spec.name)
            .expect("fit");
        let width = system.front_end().extractor().feature_count();
        let widened = model_to_string(&system)
            .replace("scaler_means: ", "scaler_means: 0.0 ")
            .replace("scaler_stds: ", "scaler_stds: 1.0 ");
        match model_from_string(&widened) {
            Err(EarSonarError::FeatureWidthMismatch {
                classifier,
                extractor,
            }) => assert_eq!((classifier, extractor), (width + 1, width), "{}", spec.name),
            other => panic!("{}: loaded, or refused with {:?}", spec.name, other.err()),
        }
    }
}
