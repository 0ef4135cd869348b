//! # earsonar-sim
//!
//! Ear-canal recording and clinical-cohort simulator for the EarSonar
//! reproduction ([ICDCS 2023]).
//!
//! The paper's evaluation rests on hardware (a modified earphone with an
//! extra in-ear microphone) and a clinical study (112 children aged 4–6
//! followed for ~20 days each). Neither is available to a reproduction, so
//! this crate synthesizes both:
//!
//! * [`ear`] / [`effusion`] / [`patient`] / [`cohort`] — virtual patients
//!   with per-person ear geometry and an effusion-state recovery
//!   trajectory (Purulent → Mucoid → Serous → Clear),
//! * [`device`] — the four commercial earphones of paper Fig. 15(a),
//! * [`noise`] / [`motion`] / [`wearing`] — the confounders swept in the
//!   paper's robustness experiments (Fig. 14, Table I),
//! * [`recorder`] — synthesis of the received microphone signal: an FMCW
//!   chirp train propagated over the direct path, canal-wall multipath, and
//!   the spectrally shaped eardrum echo, plus calibrated ambient noise,
//! * [`session`] / [`dataset`] — labelled recordings organized the way the
//!   clinical study collected them,
//! * [`faults`] — deterministic, severity-parameterized corruption
//!   primitives (clipping, dropouts, burst noise, DC bias, earbud removal,
//!   truncation) applicable to any recording or wrapped around any source.
//!
//! The hardware-agnostic data types ([`earsonar_signal::recording::Recording`],
//! [`earsonar_signal::session::Session`], [`MeeState`]) live in the
//! `earsonar-signal` foundation crate; this crate re-exports them and adds
//! the simulator-only constructors as extension traits
//! ([`session::RecordSession`], [`effusion::MeeAcoustics`]).
//!
//! Everything is seeded and deterministic: the same seed reproduces the
//! same cohort, sessions, and samples bit-for-bit.
//!
//! # Example
//!
//! ```
//! use earsonar_sim::cohort::Cohort;
//! use earsonar_sim::session::{RecordSession, Session, SessionConfig};
//!
//! let cohort = Cohort::generate(112, 7);
//! let patient = &cohort.patients()[0];
//! let session = Session::record(patient, 0, &SessionConfig::default(), 99);
//! assert!(!session.recording.samples.is_empty());
//! ```
//!
//! [ICDCS 2023]: https://doi.org/10.1109/ICDCS57875.2023.00082

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// `!(x > 0.0)` deliberately rejects NaN along with non-positive values in
// parameter validation; `partial_cmp` would obscure that intent.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod cohort;
pub mod dataset;
pub mod device;
pub mod ear;
pub mod effusion;
pub mod faults;
pub mod motion;
pub mod noise;
pub mod patient;
pub mod recorder;
pub mod rng;
pub mod session;
pub mod wearing;

pub use effusion::{MeeAcoustics, MeeState};
pub use session::RecordSession;
