//! Reflection at a boundary between two media.
//!
//! The paper's Eq. 1 gives the pressure reflectance at normal incidence,
//! `R = P_r / P_i = (Z_fluid − Z_air) / (Z_fluid + Z_air)` (the printed
//! equation has a typo — a minus in the denominator — which would make
//! `R ≡ 1`; we implement the standard form it clearly intends).

/// Pressure reflectance at normal incidence from a medium of impedance
/// `z_from` onto a medium of impedance `z_to` (paper Eq. 1).
///
/// Ranges over `(-1, 1)`: matched impedances reflect nothing, a much harder
/// medium reflects in phase (`R → 1`), a much softer one inverts
/// (`R → −1`).
///
/// # Example
///
/// ```
/// use earsonar_acoustics::reflection::pressure_reflectance;
/// assert_eq!(pressure_reflectance(400.0, 400.0), 0.0);
/// assert!(pressure_reflectance(400.0, 1.5e6) > 0.99);
/// assert!(pressure_reflectance(1.5e6, 400.0) < -0.99);
/// ```
pub fn pressure_reflectance(z_from: f64, z_to: f64) -> f64 {
    (z_to - z_from) / (z_to + z_from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impedance::effusion_layer_impedance;
    use crate::medium::Medium;

    #[test]
    fn matched_impedance_reflects_nothing() {
        assert_eq!(pressure_reflectance(1000.0, 1000.0), 0.0);
    }

    #[test]
    fn rigid_wall_limit() {
        let r = pressure_reflectance(413.0, 1e12);
        assert!((r - 1.0).abs() < 1e-9);
    }

    #[test]
    fn thicker_effusion_reflects_more() {
        // The paper's causal chain: thickness ↑ → impedance ↑ → reflectance ↑.
        let z_air = Medium::AIR.impedance();
        let mut prev = -1.0;
        for d in [0.0002, 0.0005, 0.001, 0.002, 0.004] {
            let z = effusion_layer_impedance(Medium::MUCOID_EFFUSION, d, 18_000.0);
            let r = pressure_reflectance(z_air, z);
            assert!(r > prev);
            prev = r;
        }
    }
}
