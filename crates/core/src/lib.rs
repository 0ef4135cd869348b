//! # earsonar
//!
//! A reproduction of **EarSonar: An Acoustic Signal-Based Middle-Ear
//! Effusion Detection Using Earphones** ([ICDCS 2023]).
//!
//! EarSonar turns a commodity earphone into a home screening tool for
//! middle-ear effusion (MEE): it emits inaudible 16–20 kHz FMCW chirps,
//! isolates the eardrum echo from ear-canal multipath, measures the
//! acoustic-absorption signature that middle-ear fluid leaves on the echo
//! spectrum, and classifies the effusion state
//! {Clear, Serous, Mucoid, Purulent} with k-means clustering.
//!
//! The pipeline follows the paper §IV stage by stage:
//!
//! * [`preprocess`] — Butterworth band-pass noise removal (§IV-B-1),
//! * [`event`] — adaptive-energy event detection (§IV-B-2, Eq. 6–7),
//! * [`channel`] — Wiener deconvolution of the known chirp into the
//!   canal impulse response, averaged over a session's chirps (§IV-B-3),
//! * [`segment`] — even/odd parity segmentation of the eardrum echo in
//!   that impulse response (§IV-B-3, Eq. 8–10),
//! * [`absorption`] — eardrum-echo power-spectrum extraction (§IV-C-1),
//! * [`features`] — the 105-element MFCC + statistical feature vector
//!   (§IV-C-2),
//! * [`features_absorbance`] — the wideband-absorbance alternative
//!   feature family built on `earsonar-acoustics` physics templates,
//! * [`backend`] — the pluggable feature/classifier registry; the
//!   paper's MFCC+k-means is the bit-identical reference backend,
//! * [`detect`] — Laplacian-score selection, k-means clustering, outlier
//!   handling, and cluster labelling (§IV-C-2/3/4),
//! * [`pipeline`] — the end-to-end [`pipeline::EarSonar`] system,
//! * [`streaming`] — the same front end fed chirp by chirp as samples
//!   arrive, bit-identical to batch processing,
//! * [`baseline`] — a Chan-et-al-style comparator without fine-grained
//!   segmentation (§VII),
//! * [`eval`] — leave-one-participant-out evaluation (§VI-A),
//! * [`quality`] — per-chirp signal-quality scoring and the gate that
//!   rejects clipped, dropped, noisy, or decorrelated windows before they
//!   reach the numeric stages,
//! * [`screening`] — the home-monitoring layer (binary verdicts and
//!   bounded re-measurement with typed `Inconclusive` results) the paper
//!   motivates in §I,
//! * [`model_io`] — save/load trained systems (train once, ship to
//!   devices).
//!
//! # Quickstart
//!
//! ```
//! use earsonar::{EarSonar, EarSonarConfig};
//! use earsonar_sim::cohort::Cohort;
//! use earsonar_sim::dataset::{Dataset, DatasetSpec};
//!
//! // Simulate a small clinical study...
//! let cohort = Cohort::generate(6, 42);
//! let data = Dataset::build(&cohort, &DatasetSpec::default());
//!
//! // ...train EarSonar on it and screen a new recording.
//! let system = EarSonar::fit(&data.sessions, &EarSonarConfig::default()).unwrap();
//! let verdict = system.screen(&data.sessions[0].recording).unwrap();
//! println!("screening result: {verdict}");
//! ```
//!
//! [ICDCS 2023]: https://doi.org/10.1109/ICDCS57875.2023.00082

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panic-freedom: the detection crates return typed errors, never panic.
// A sound exception is a `#[expect(clippy::expect_used, reason = "…")]`
// on the one statement; test code is exempt through clippy.toml.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]
#![allow(
    clippy::neg_cmp_op_on_partial_ord,
    reason = "`!(x > 0.0)` deliberately rejects NaN along with non-positive values in parameter validation"
)]

pub mod absorption;
pub mod backend;
pub mod baseline;
pub mod channel;
pub mod config;
pub mod detect;
pub mod diagnostics;
pub mod error;
pub mod eval;
pub mod event;
pub mod features;
pub mod features_absorbance;
pub mod model_io;
pub mod pipeline;
pub mod preprocess;
pub mod quality;
pub mod report;
pub mod screening;
pub mod segment;
pub mod streaming;

pub use config::EarSonarConfig;
pub use error::EarSonarError;
pub use pipeline::EarSonar;
pub use quality::{QualityGateConfig, SessionQuality};
pub use screening::{RetryPolicy, ScreeningOutcome};
pub use streaming::ChirpStream;

/// Re-export of the effusion-state enum shared with the detection core's
/// foundation crate (`earsonar-signal`); the simulator re-exports the
/// same type, so simulator sessions label recordings with this enum.
pub use earsonar_signal::effusion::MeeState;
