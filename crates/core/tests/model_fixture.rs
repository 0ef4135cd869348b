//! Model files written by earlier builds, one per registered backend:
//! `earsonar train --patients 6 --seed 2023 --backend NAME`.
//!
//! * `mfcc-kmeans` was written before the pipeline's fixed settings became
//!   constants, and carries 23 configuration lines where files written
//!   today carry 6.
//! * `absorbance-logistic` and `absorbance-knn` were written after, when
//!   each backend's classifier still wrote its own model-file lines.
//!
//! Each must load, today's writer must reproduce it byte for byte (minus
//! the retired lines), and it must screen every session of its training
//! cohort exactly as a fresh fit on the same data does. A retired line
//! with any other value than the constant's is refused, naming the line,
//! so a file never runs silently on settings it was not trained with.

use earsonar::model_io::{model_from_string, model_to_string};
use earsonar::{EarSonar, EarSonarConfig, EarSonarError};
use earsonar_sim::cohort::Cohort;
use earsonar_sim::dataset::{Dataset, DatasetSpec};

/// `(backend, file)` for every registered backend.
const FIXTURES: [(&str, &str); 3] = [
    (
        "mfcc-kmeans",
        include_str!("fixtures/mfcc-kmeans-6-patients-seed-2023.model"),
    ),
    (
        "absorbance-logistic",
        include_str!("fixtures/absorbance-logistic-6-patients-seed-2023.model"),
    ),
    (
        "absorbance-knn",
        include_str!("fixtures/absorbance-knn-6-patients-seed-2023.model"),
    ),
];

/// The configuration lines of settings that are constants today.
const RETIRED: [&str; 17] = [
    "band_hz",
    "noise_filter_order",
    "event_window",
    "min_symmetry_support",
    "parity_energy_threshold",
    "eardrum_distance_range_m",
    "deconvolution_epsilon",
    "echo_ir",
    "n_fft",
    "psd_profile_bins",
    "profile_band_hz",
    "mfcc",
    "mfcc_window",
    "k_clusters",
    "laplacian_neighbors",
    "kmeans_restarts",
    "seed",
];

fn key(line: &str) -> &str {
    line.split_once(':').map_or(line, |(k, _)| k)
}

/// The training data of the fixtures: the CLI's `build_dataset(6, 2023)`.
fn training_data() -> Dataset {
    Dataset::build(
        &Cohort::generate(6, 2023),
        &DatasetSpec {
            sessions_per_state: 2,
            config: Default::default(),
            seed: 2023,
        },
    )
}

#[test]
fn every_backend_has_a_fixture() {
    let names: Vec<&str> = earsonar::backend::registry()
        .iter()
        .map(|s| s.name)
        .collect();
    let fixtures: Vec<&str> = FIXTURES.iter().map(|(name, _)| *name).collect();
    assert_eq!(fixtures, names);
}

#[test]
fn the_old_model_files_load_and_screen_like_a_fresh_fit() {
    let data = training_data();
    let without_retired = |text: &str| {
        text.lines()
            .filter(|l| !RETIRED.contains(&key(l)))
            .collect::<Vec<_>>()
            .join("\n")
    };
    for (backend, fixture) in FIXTURES {
        let old = model_from_string(fixture).expect(backend);
        assert_eq!(old.backend(), backend);
        let fresh = EarSonar::fit_backend(&data.sessions, &EarSonarConfig::default(), backend)
            .expect(backend);

        // Today's file is the old one without its retired lines (all 17
        // in the reference fixture), byte for byte, and the loaded file
        // writes it again.
        let written = model_to_string(&fresh);
        let retired = if backend == "mfcc-kmeans" {
            RETIRED.len()
        } else {
            0
        };
        assert_eq!(
            written.lines().count() + retired,
            fixture.lines().count(),
            "{backend}"
        );
        assert_eq!(
            without_retired(&written),
            without_retired(fixture),
            "{backend}"
        );
        assert_eq!(model_to_string(&old), written, "{backend}");
        assert_eq!(old.front_end().config(), fresh.front_end().config());

        for (i, s) in data.sessions.iter().enumerate() {
            let a = old.front_end().process(&s.recording).map(|p| p.features);
            let b = fresh.front_end().process(&s.recording).map(|p| p.features);
            assert_eq!(a, b, "{backend} session {i}: features");
            assert_eq!(
                old.screen(&s.recording),
                fresh.screen(&s.recording),
                "{backend} session {i}: verdict"
            );
        }
    }
}

#[test]
fn a_retired_line_with_another_value_is_refused_by_name() {
    let (_, fixture) = FIXTURES[0];
    let line = |k: &str| fixture.lines().find(|l| key(l) == k).expect("line");
    for (name, new) in [
        ("event_window", "event_window: 30"),
        ("mfcc", "mfcc: 44100 256 26 26 16000 20000"),
        ("mfcc", "mfcc: 48000 512 26 26 16000 20000"),
        ("mfcc_window", "mfcc_window: hamming"),
        ("seed", "seed: 7"),
        ("band_hz", "band_hz: 17000 20000"),
    ] {
        let text = fixture.replace(line(name), new);
        match model_from_string(&text) {
            Err(EarSonarError::BadConfig { name: found, .. }) => assert_eq!(found, name, "{new}"),
            other => panic!(
                "{new}: expected BadConfig naming `{name}`, got {:?}",
                other.err()
            ),
        }
    }
}
