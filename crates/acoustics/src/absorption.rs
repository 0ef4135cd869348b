//! Frequency-dependent acoustic absorption: the "acoustic dip".
//!
//! The paper's feasibility study (§II-B, Fig. 2) observes that middle-ear
//! fluid imprints "an apparent acoustic dip … near 18 kHz" on the echo
//! spectrum, whose depth grows with the amount (and viscosity) of effusion.
//! The physical origin is a resonant interaction between the probing wave
//! and the fluid-loaded eardrum; EarSonar never needs the exact mechanism,
//! only its spectral signature, so the simulator models the eardrum's
//! frequency response as a broadband reflectance with a parametric
//! Gaussian-shaped notch.

use crate::impedance::effusion_layer_impedance;
use crate::medium::Medium;
use crate::reflection::pressure_reflectance;

/// A parametric absorption notch in a reflectance spectrum.
///
/// The reflectance multiplier at frequency `f` is
/// `1 − depth · exp(−(f − center)² / (2 width²))`, optionally skewed so the
/// high side decays at a different rate than the low side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbsorptionDip {
    /// Notch centre frequency in hertz.
    pub center_hz: f64,
    /// Fractional amplitude absorbed at the centre, in `[0, 1]`.
    pub depth: f64,
    /// Gaussian half-width (standard deviation) in hertz.
    pub width_hz: f64,
    /// Width asymmetry: the high-frequency side uses `width_hz * skew`.
    /// `1.0` is symmetric.
    pub skew: f64,
}

impl AbsorptionDip {
    /// Creates a symmetric dip.
    pub fn new(center_hz: f64, depth: f64, width_hz: f64) -> Self {
        AbsorptionDip {
            center_hz,
            depth: depth.clamp(0.0, 1.0),
            width_hz: width_hz.max(1.0),
            skew: 1.0,
        }
    }

    /// A dip with no effect (depth zero) — the clear-eardrum limit.
    pub fn none() -> Self {
        AbsorptionDip::new(18_000.0, 0.0, 600.0)
    }

    /// Reflectance multiplier in `[0, 1]` at frequency `f_hz`.
    pub fn gain(&self, f_hz: f64) -> f64 {
        let w = if f_hz > self.center_hz {
            self.width_hz * self.skew
        } else {
            self.width_hz
        };
        let x = (f_hz - self.center_hz) / w;
        (1.0 - self.depth * (-0.5 * x * x).exp()).clamp(0.0, 1.0)
    }

    /// Fraction of incident *amplitude* absorbed at `f_hz`.
    pub fn absorbed(&self, f_hz: f64) -> f64 {
        1.0 - self.gain(f_hz)
    }
}

/// Frequency response of the eardrum reflection for a given effusion
/// condition: a broadband reflectance scale combined with an absorption
/// dip.
///
/// # Example
///
/// ```
/// use earsonar_acoustics::absorption::EardrumResponse;
/// use earsonar_acoustics::medium::Medium;
///
/// let clear = EardrumResponse::clear();
/// let sick = EardrumResponse::with_effusion(Medium::PURULENT_EFFUSION, 0.004, 18_000.0, 0.6, 700.0);
/// // At the dip centre, the effusion-loaded eardrum returns far less energy.
/// assert!(sick.reflectance_at(18_000.0) < 0.6 * clear.reflectance_at(18_000.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EardrumResponse {
    /// Broadband pressure reflectance in `[0, 1]`.
    pub base_reflectance: f64,
    /// The absorption notch.
    pub dip: AbsorptionDip,
    /// Linear spectral tilt across the probe band, per hertz. Fluid mass
    /// loading slightly depresses high frequencies; `0.0` is flat.
    pub tilt_per_hz: f64,
    /// Reference frequency for the tilt (gain is `1 + tilt*(f - f_ref)`).
    pub tilt_ref_hz: f64,
}

impl EardrumResponse {
    /// A healthy, clear eardrum: high broadband reflectance, no dip.
    pub fn clear() -> Self {
        EardrumResponse {
            base_reflectance: 0.92,
            dip: AbsorptionDip::none(),
            tilt_per_hz: 0.0,
            tilt_ref_hz: 18_000.0,
        }
    }

    /// An eardrum backed by an effusion layer of the given medium and
    /// thickness. The broadband reflectance follows the paper's impedance
    /// chain (Eq. 2 → Eq. 1); the dip parameters are supplied by the
    /// caller (the simulator calibrates them per effusion state).
    pub fn with_effusion(
        medium: Medium,
        thickness_m: f64,
        dip_center_hz: f64,
        dip_depth: f64,
        dip_width_hz: f64,
    ) -> Self {
        let z_air = Medium::AIR.impedance();
        let z_layer = effusion_layer_impedance(medium, thickness_m, dip_center_hz);
        // The eardrum membrane itself reflects strongly; fluid behind it
        // shifts the boundary impedance upward, slightly raising broadband
        // reflectance while the viscous dip removes band energy.
        let r = pressure_reflectance(z_air, z_air + z_layer).abs();
        // Mass loading tilts the response down ~2%/kHz toward high band edge.
        let tilt = -0.02e-3 * (medium.viscosity / Medium::SEROUS_EFFUSION.viscosity).min(4.0);
        EardrumResponse {
            base_reflectance: (0.90 + 0.08 * r).min(0.99),
            dip: AbsorptionDip::new(dip_center_hz, dip_depth, dip_width_hz),
            tilt_per_hz: tilt,
            tilt_ref_hz: dip_center_hz,
        }
    }

    /// Pressure reflectance magnitude at `f_hz`, in `[0, 1]`.
    pub fn reflectance_at(&self, f_hz: f64) -> f64 {
        let tilt = (1.0 + self.tilt_per_hz * (f_hz - self.tilt_ref_hz)).clamp(0.0, 2.0);
        (self.base_reflectance * self.dip.gain(f_hz) * tilt).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dip_gain_bounds() {
        let dip = AbsorptionDip::new(18_000.0, 0.7, 500.0);
        for f in (14_000..22_000).step_by(100) {
            let g = dip.gain(f as f64);
            assert!((0.0..=1.0).contains(&g));
        }
    }

    #[test]
    fn dip_is_deepest_at_centre() {
        let dip = AbsorptionDip::new(18_000.0, 0.6, 500.0);
        let g_c = dip.gain(18_000.0);
        assert!((g_c - 0.4).abs() < 1e-12);
        assert!(dip.gain(17_000.0) > g_c);
        assert!(dip.gain(19_000.0) > g_c);
    }

    #[test]
    fn dip_vanishes_far_away() {
        let dip = AbsorptionDip::new(18_000.0, 0.9, 300.0);
        assert!((dip.gain(14_000.0) - 1.0).abs() < 1e-6);
        assert!((dip.gain(22_000.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn skewed_dip_is_asymmetric() {
        let mut dip = AbsorptionDip::new(18_000.0, 0.5, 400.0);
        dip.skew = 2.0;
        let low = dip.gain(17_600.0);
        let high = dip.gain(18_400.0);
        assert!(high < low, "wide high side absorbs more at equal offset");
    }

    #[test]
    fn none_dip_is_identity() {
        let dip = AbsorptionDip::none();
        assert_eq!(dip.gain(18_000.0), 1.0);
        assert_eq!(dip.absorbed(18_000.0), 0.0);
    }

    #[test]
    fn depth_is_clamped() {
        let dip = AbsorptionDip::new(18_000.0, 1.7, 500.0);
        assert_eq!(dip.depth, 1.0);
        assert_eq!(dip.gain(18_000.0), 0.0);
    }

    #[test]
    fn clear_eardrum_is_flat_and_reflective() {
        let r = EardrumResponse::clear();
        let refl: Vec<f64> = (0..=40)
            .map(|i| r.reflectance_at(16_000.0 + 100.0 * i as f64))
            .collect();
        assert!(refl.iter().all(|&v| v > 0.9));
        let spread = refl.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            - refl.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(spread < 0.01);
    }

    #[test]
    fn effusion_response_dips_at_centre() {
        let sick =
            EardrumResponse::with_effusion(Medium::MUCOID_EFFUSION, 0.003, 18_000.0, 0.55, 600.0);
        let at_dip = sick.reflectance_at(18_000.0);
        let off_dip = sick.reflectance_at(16_200.0);
        assert!(at_dip < 0.55 * off_dip, "dip {at_dip} vs off {off_dip}");
    }

    #[test]
    fn viscous_fluids_tilt_more() {
        let serous =
            EardrumResponse::with_effusion(Medium::SEROUS_EFFUSION, 0.002, 18_000.0, 0.3, 500.0);
        let purulent =
            EardrumResponse::with_effusion(Medium::PURULENT_EFFUSION, 0.002, 18_000.0, 0.3, 500.0);
        assert!(purulent.tilt_per_hz < serous.tilt_per_hz);
    }
}
