//! # earsonar-signal
//!
//! Hardware-agnostic signal types for the EarSonar reproduction
//! ([ICDCS 2023]).
//!
//! The paper's system runs on live earphone audio; the reproduction's
//! detection core must therefore be expressible without linking any
//! particular capture backend (simulator, WAV files, a device driver, a
//! network service). This crate is that boundary: the foundation layer
//! every other crate agrees on.
//!
//! * [`recording`] — [`Recording`]: a captured sample stream plus its
//!   chirp layout, and [`ChirpLayout`], the transmit-schedule descriptor
//!   a capture backend must satisfy,
//! * [`effusion`] — [`MeeState`]: the four middle-ear states and their
//!   pure label/severity structure (acoustic signatures live in the
//!   simulator, which extends this type),
//! * [`session`] — [`Session`]: one labelled clinical visit,
//! * [`source`] — [`SignalSource`]: the capture trait every backend
//!   implements, and [`SignalError`],
//! * [`wav`] — a [`SignalSource`] that reads WAV files through
//!   `earsonar_dsp::wav`, proving the boundary holds for real audio
//!   files, not just the simulator.
//!
//! Layering: this crate depends only on `earsonar-dsp`. The simulator
//! (`earsonar-sim`) *produces* these types; the pipeline (`earsonar`) and
//! learning layer (`earsonar-ml`) *consume* them; neither side needs the
//! other to compile.
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

pub mod effusion;
pub mod recording;
pub mod session;
pub mod source;
pub mod wav;

pub use effusion::MeeState;
pub use recording::{ChirpLayout, Recording};
pub use session::Session;
pub use source::{SignalError, SignalSource};
