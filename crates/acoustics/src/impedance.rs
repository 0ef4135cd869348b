//! Acoustic impedance models.
//!
//! The paper gives two impedance expressions:
//!
//! 1. the characteristic impedance `Z₀ = ρ₀c₀` of a bulk medium
//!    ([`crate::medium::Medium::impedance`]), and
//! 2. a **thin-layer** model (paper Eq. 2, citing Rozanov's absorber
//!    theory): `Z = √(μ/ξ) · tanh(2πd√(ξμ)/λ)`, relating the effective
//!    impedance of a fluid layer of thickness `d` to the wavelength `λ`.
//!
//! As the paper notes, "under ideal conditions, as the thickness `d`
//! increases, the impedance `Z` increases accordingly" — the tanh saturates
//! toward the bulk value `√(μ/ξ)` for thick layers.

use crate::medium::Medium;

/// Effective impedance of a fluid layer of thickness `d` metres probed at
/// wavelength `lambda` metres — the paper's Eq. 2 with the medium constants
/// folded into the bulk impedance.
///
/// `mu_over_xi_sqrt` plays the role of `√(μ/ξ)` (the saturated bulk
/// impedance) and `xi_mu_sqrt` of `√(ξμ)` (the phase-thickness coupling).
/// Both must be positive.
///
/// # Panics
///
/// Panics in debug builds if any argument is non-positive.
pub fn layer_impedance(mu_over_xi_sqrt: f64, xi_mu_sqrt: f64, d: f64, lambda: f64) -> f64 {
    debug_assert!(mu_over_xi_sqrt > 0.0 && xi_mu_sqrt > 0.0 && lambda > 0.0 && d >= 0.0);
    mu_over_xi_sqrt * (2.0 * std::f64::consts::PI * d * xi_mu_sqrt / lambda).tanh()
}

/// Effective impedance of an effusion layer of thickness `d` metres in a
/// given medium, probed at frequency `f_hz` through air.
///
/// The medium's bulk impedance `ρc` is the saturation value; the coupling
/// constant is taken as 1 (the paper treats `μ`, `ξ` as constants), so the
/// transition thickness is set by the in-air wavelength.
pub fn effusion_layer_impedance(medium: Medium, d: f64, f_hz: f64) -> f64 {
    let lambda = crate::medium::Medium::AIR.wavelength(f_hz);
    layer_impedance(medium.impedance(), 1.0, d, lambda)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_thickness_means_zero_impedance() {
        assert_eq!(layer_impedance(1000.0, 1.0, 0.0, 0.02), 0.0);
    }

    #[test]
    fn impedance_increases_with_thickness() {
        // The paper's qualitative claim about Eq. 2.
        let mut prev = -1.0;
        for d in [0.0005, 0.001, 0.002, 0.004, 0.008] {
            let z = layer_impedance(1000.0, 1.0, d, 0.019);
            assert!(z > prev, "impedance must grow with thickness");
            prev = z;
        }
    }

    #[test]
    fn impedance_saturates_at_bulk_value() {
        let bulk = 1_500_000.0;
        let z = layer_impedance(bulk, 1.0, 10.0, 0.019);
        assert!((z - bulk).abs() / bulk < 1e-9);
    }

    #[test]
    fn thinner_wavelength_relative_layers_have_less_impedance() {
        // Same physical layer looks "thinner" to longer wavelengths.
        let z_short = layer_impedance(1000.0, 1.0, 0.002, 0.017);
        let z_long = layer_impedance(1000.0, 1.0, 0.002, 0.021);
        assert!(z_short > z_long);
    }

    #[test]
    fn effusion_layer_orders_by_fluid_severity() {
        let d = 0.003;
        let f = 18_000.0;
        let s = effusion_layer_impedance(Medium::SEROUS_EFFUSION, d, f);
        let m = effusion_layer_impedance(Medium::MUCOID_EFFUSION, d, f);
        let p = effusion_layer_impedance(Medium::PURULENT_EFFUSION, d, f);
        assert!(s < m && m < p);
    }
}
