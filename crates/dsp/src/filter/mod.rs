//! Digital filtering.
//!
//! EarSonar removes ambient noise with a Butterworth band-pass filter
//! restricted to the chirp band (paper §IV-B-1). The module provides:
//!
//! * [`biquad`] — second-order IIR sections and cascades thereof,
//! * [`butterworth`] — Butterworth low-/band-pass design via the
//!   bilinear transform,
//! * [`zero_phase`] — forward–backward (filtfilt-style) filtering.

pub mod biquad;
pub mod butterworth;
pub mod zero_phase;

pub use biquad::{Biquad, BiquadCascade};
pub use butterworth::{butter_bandpass, butter_lowpass};
pub use zero_phase::{filtfilt, filtfilt_lanes, filtfilt_with};
