//! # earsonar-acoustics
//!
//! Physical acoustics models for the EarSonar reproduction ([ICDCS 2023]).
//!
//! EarSonar's sensing principle is the **acoustic absorption effect**
//! (paper §II-A): middle-ear fluid changes the acoustic impedance behind the
//! eardrum, and therefore how much energy an incident wave reflects back.
//! This crate implements the paper's physical equations and the FMCW probe
//! signal:
//!
//! * [`medium`] — acoustic media (air, effusion fluids) with density and
//!   sound speed,
//! * [`impedance`] — characteristic impedance `Z = ρc` and the thin-layer
//!   impedance model of paper Eq. 2,
//! * [`reflection`] — pressure reflectance `R = (Z₂ − Z₁)/(Z₂ + Z₁)`
//!   (paper Eq. 1),
//! * [`absorption`] — the parametric frequency-dependent absorption-dip
//!   model that produces the ~18 kHz "acoustic dip" of paper Fig. 2,
//! * [`chirp`] — FMCW chirp synthesis (paper §IV-A),
//! * [`propagation`] — multipath delay/attenuation channel.
//!
//! # Example
//!
//! ```
//! use earsonar_acoustics::medium::Medium;
//! use earsonar_acoustics::reflection::pressure_reflectance;
//!
//! // An air/fluid boundary reflects most of the incident pressure.
//! let r = pressure_reflectance(Medium::AIR.impedance(), Medium::WATER.impedance());
//! assert!(r > 0.99);
//! ```
//!
//! [ICDCS 2023]: https://doi.org/10.1109/ICDCS57875.2023.00082

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// `!(x > 0.0)` deliberately rejects NaN along with non-positive values in
// parameter validation; `partial_cmp` would obscure that intent.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod absorption;
pub mod chirp;
pub mod constants;
pub mod impedance;
pub mod medium;
pub mod propagation;
pub mod reflection;
