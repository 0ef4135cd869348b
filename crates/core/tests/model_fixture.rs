//! A model file written before the pipeline's fixed settings became
//! constants: `earsonar train --patients 6 --seed 2023` with the reference
//! backend, carrying 23 configuration lines where files written today
//! carry 6.
//!
//! It must load, and screen every session of its training cohort exactly
//! as a fresh fit on the same data does: the constants hold the values the
//! old configuration lines named. A retired line with any other value is
//! refused, naming the line, so a file never runs silently on settings it
//! was not trained with.

use earsonar::model_io::{model_from_string, model_to_string};
use earsonar::{EarSonar, EarSonarConfig, EarSonarError};
use earsonar_sim::cohort::Cohort;
use earsonar_sim::dataset::{Dataset, DatasetSpec};

const FIXTURE: &str = include_str!("fixtures/mfcc-kmeans-6-patients-seed-2023.model");

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

/// The training data of the fixture: the CLI's `build_dataset(6, 2023)`.
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
fn the_old_model_file_loads_and_screens_like_a_fresh_fit() {
    let old = model_from_string(FIXTURE).expect("the fixture loads");
    let data = training_data();
    let fresh = EarSonar::fit(&data.sessions, &EarSonarConfig::default()).expect("fit");

    // Today's file is the old one without its retired lines, byte for byte.
    let config_lines = |text: &str| {
        text.lines()
            .filter(|l| !RETIRED.contains(&key(l)))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let written = model_to_string(&fresh);
    assert_eq!(
        written.lines().count() + RETIRED.len(),
        FIXTURE.lines().count()
    );
    assert_eq!(config_lines(&written), config_lines(FIXTURE));
    assert_eq!(old.front_end().config(), fresh.front_end().config());

    for (i, s) in data.sessions.iter().enumerate() {
        let a = old.front_end().process(&s.recording).map(|p| p.features);
        let b = fresh.front_end().process(&s.recording).map(|p| p.features);
        assert_eq!(a, b, "session {i}: features");
        assert_eq!(
            old.screen(&s.recording),
            fresh.screen(&s.recording),
            "session {i}: verdict"
        );
    }
}

#[test]
fn a_retired_line_with_another_value_is_refused_by_name() {
    let line = |k: &str| FIXTURE.lines().find(|l| key(l) == k).expect("line");
    for (name, new) in [
        ("event_window", "event_window: 30"),
        ("mfcc", "mfcc: 44100 256 26 26 16000 20000"),
        ("mfcc", "mfcc: 48000 512 26 26 16000 20000"),
        ("mfcc_window", "mfcc_window: hamming"),
        ("seed", "seed: 7"),
        ("band_hz", "band_hz: 17000 20000"),
    ] {
        let text = FIXTURE.replace(line(name), new);
        match model_from_string(&text) {
            Err(EarSonarError::BadConfig { name: found, .. }) => assert_eq!(found, name, "{new}"),
            other => panic!(
                "{new}: expected BadConfig naming `{name}`, got {:?}",
                other.err()
            ),
        }
    }
}
