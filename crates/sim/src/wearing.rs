//! Earphone wearing-angle effects.
//!
//! Table I of the paper rotates the earphone 0–40° from the standard
//! posture: accuracy falls from 92.8% to 86.4% because "the multipath
//! reflection in the ear canal will change significantly" outside the
//! 20–40° effective area. The angle enters the simulator as a loss of
//! eardrum-echo gain (the beam no longer points down the canal) and a
//! growth of wall-path energy and variability.

use crate::rng::SimRng;

/// Wearing angle of the earphone relative to the canonical posture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearingAngle {
    degrees: f64,
}

impl WearingAngle {
    /// The angles tested in paper Table I.
    pub const TABLE1: [f64; 5] = [0.0, 10.0, 20.0, 30.0, 40.0];

    /// Creates a wearing angle, clamped to `[0°, 90°]`.
    pub fn new(degrees: f64) -> Self {
        WearingAngle {
            degrees: degrees.clamp(0.0, 90.0),
        }
    }

    /// The canonical posture.
    pub fn standard() -> Self {
        WearingAngle::new(0.0)
    }

    /// The angle in degrees.
    pub fn degrees(&self) -> f64 {
        self.degrees
    }

    /// Multiplier on the eardrum-echo gain: directivity loss as the
    /// speaker swings away from the canal axis. Unity at 0°, ~0.75 at 40°.
    pub fn eardrum_gain_factor(&self) -> f64 {
        let rad = self.degrees.to_radians();
        // cos² beam pattern softened to match the paper's gentle slope.
        (0.55 + 0.45 * rad.cos() * rad.cos()).clamp(0.2, 1.0)
    }

    /// Multiplier on canal-wall path gains: off-axis energy excites more
    /// wall reflections.
    pub fn wall_gain_factor(&self) -> f64 {
        1.0 + self.degrees / 40.0 * 0.8
    }

    /// Extra per-chirp delay jitter (samples) from an unstable seat.
    pub fn extra_delay_jitter(&self) -> f64 {
        self.degrees / 40.0 * 0.35
    }

    /// Per-session eardrum-distance offset (m): tilting the bud shifts its
    /// effective acoustic position in the canal.
    pub fn sample_distance_offset(&self, rng: &mut SimRng) -> f64 {
        let scale = self.degrees / 40.0;
        rng.gaussian(0.0015 * scale, 0.0012 * scale)
    }
}

impl Default for WearingAngle {
    fn default() -> Self {
        WearingAngle::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_angle_is_neutral() {
        let a = WearingAngle::standard();
        assert_eq!(a.degrees(), 0.0);
        assert!((a.eardrum_gain_factor() - 1.0).abs() < 1e-12);
        assert!((a.wall_gain_factor() - 1.0).abs() < 1e-12);
        assert_eq!(a.extra_delay_jitter(), 0.0);
    }

    #[test]
    fn gain_degrades_monotonically_with_angle() {
        let mut prev = f64::INFINITY;
        for deg in WearingAngle::TABLE1 {
            let g = WearingAngle::new(deg).eardrum_gain_factor();
            assert!(g < prev || deg == 0.0, "gain must fall with angle");
            prev = g;
        }
        // At 40° the echo keeps most of its energy: graceful degradation.
        assert!(WearingAngle::new(40.0).eardrum_gain_factor() > 0.7);
    }

    #[test]
    fn wall_energy_grows_with_angle() {
        assert!(
            WearingAngle::new(40.0).wall_gain_factor() > WearingAngle::new(10.0).wall_gain_factor()
        );
    }

    #[test]
    fn angle_is_clamped() {
        assert_eq!(WearingAngle::new(-5.0).degrees(), 0.0);
        assert_eq!(WearingAngle::new(120.0).degrees(), 90.0);
    }

    #[test]
    fn distance_offset_grows_with_angle() {
        let mut rng0 = SimRng::seed_from_u64(1);
        let mut rng40 = SimRng::seed_from_u64(1);
        let small: f64 = (0..100)
            .map(|_| {
                WearingAngle::new(0.0)
                    .sample_distance_offset(&mut rng0)
                    .abs()
            })
            .sum();
        let large: f64 = (0..100)
            .map(|_| {
                WearingAngle::new(40.0)
                    .sample_distance_offset(&mut rng40)
                    .abs()
            })
            .sum();
        assert!(small < 1e-12);
        assert!(large > 0.05);
    }
}
