//! # earsonar-dsp
//!
//! Digital signal processing substrate for the EarSonar reproduction.
//!
//! EarSonar ([ICDCS 2023]) processes inaudible FMCW chirp echoes recorded
//! inside the ear canal. Every numerical kernel the pipeline needs is
//! implemented here, from scratch, with no external DSP dependencies:
//!
//! * [`plan`] — planned radix-2 FFTs (precomputed twiddles, real-input
//!   halving), one shared plan per size for the whole process, and the
//!   [`DspScratch`] buffer pool for allocation-free reuse,
//! * [`fft`] — power-of-two sizing and bin ↔ frequency helpers,
//! * [`filter`] — biquad cascades and Butterworth band-pass design,
//! * [`lanes`] — grouping a batch of signals into multi-lane kernel
//!   passes,
//! * [`window`] — Hann/Hamming/Blackman tapers,
//! * [`psd`] — periodogram power-spectral-density estimates,
//! * [`mfcc`] — mel-frequency cepstral coefficients,
//! * [`convolution`] / [`correlation`] — including the auto-convolution used
//!   by the paper's parity-decomposition echo segmentation,
//! * [`simd`] — four-lane vectorized reduction kernels with pinned
//!   scalar twins (the hot-path building blocks),
//! * [`stats`] — the statistical feature primitives (skewness, kurtosis, …),
//! * [`fanout`] — the one scoped-thread, index-ordered parallel map the
//!   simulator, the detection core and the engine share,
//! * [`peak`], [`interp`], [`goertzel`], [`decibel`].
//!
//! # Example
//!
//! ```
//! use earsonar_dsp::plan::RealFftPlan;
//! use earsonar_dsp::window::Window;
//!
//! // A 1 kHz tone sampled at 48 kHz shows up in the right FFT bin.
//! let fs = 48_000.0;
//! let n = 1024;
//! let tone: Vec<f64> = (0..n)
//!     .map(|i| (2.0 * std::f64::consts::PI * 1_000.0 * i as f64 / fs).sin())
//!     .collect();
//! let tapered = Window::Hann.apply(&tone);
//! let plan = RealFftPlan::shared(n).unwrap();
//! let (mut work, mut spectrum) = (Vec::new(), Vec::new());
//! plan.forward_into(&tapered, &mut work, &mut spectrum).unwrap();
//! let peak_bin = (0..n / 2)
//!     .max_by(|&a, &b| spectrum[a].norm().total_cmp(&spectrum[b].norm()))
//!     .unwrap();
//! let peak_hz = peak_bin as f64 * fs / n as f64;
//! assert!((peak_hz - 1_000.0).abs() < fs / n as f64);
//! ```
//!
//! [ICDCS 2023]: https://doi.org/10.1109/ICDCS57875.2023.00082

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// `!(x > 0.0)` deliberately rejects NaN along with non-positive values in
// parameter validation; `partial_cmp` would obscure that intent.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod complex;
pub mod convolution;
pub mod correlation;
pub mod decibel;
pub mod error;
pub mod fanout;
pub mod fft;
pub mod filter;
pub mod goertzel;
pub mod hilbert;
pub mod interp;
pub mod lanes;
pub mod mel;
pub mod mfcc;
pub mod peak;
pub mod plan;
pub mod psd;
pub mod rng;
pub mod simd;
pub mod stats;
pub mod wav;
pub mod window;

pub use complex::Complex64;
pub use error::DspError;
pub use plan::{DspScratch, FftPlan, RealFftPlan};
