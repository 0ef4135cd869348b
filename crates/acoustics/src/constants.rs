//! Physical constants used across the acoustics models.

/// Speed of sound in air at ~20 °C, in metres per second.
pub const SPEED_OF_SOUND_AIR: f64 = 343.0;

/// Density of air at sea level and ~20 °C, in kilograms per cubic metre.
pub const DENSITY_AIR: f64 = 1.204;

/// Speed of sound in water (and, approximately, in body fluids), m/s.
pub const SPEED_OF_SOUND_WATER: f64 = 1_482.0;

/// Density of water, kg/m³.
pub const DENSITY_WATER: f64 = 998.0;

/// The sample rate EarSonar assumes on commodity smartphones, hertz
/// (paper §IV-A: "the sampling rate of current commercial smartphones is
/// usually set at 48 kHz").
pub const EARSONAR_SAMPLE_RATE: f64 = 48_000.0;

/// Lower edge of the EarSonar chirp band, hertz (paper §IV-A).
pub const EARSONAR_F0: f64 = 16_000.0;

/// Chirp bandwidth, hertz (paper §IV-A: B = 4 kHz).
pub const EARSONAR_BANDWIDTH: f64 = 4_000.0;

/// Chirp duration, seconds (paper §IV-A: T = 0.5 ms).
pub const EARSONAR_CHIRP_DURATION: f64 = 0.5e-3;

/// Interval between adjacent chirps, seconds (paper §IV-A: 5 ms).
pub const EARSONAR_CHIRP_INTERVAL: f64 = 5.0e-3;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn chirp_band_stays_below_nyquist() {
        assert!(EARSONAR_F0 + EARSONAR_BANDWIDTH < EARSONAR_SAMPLE_RATE / 2.0);
    }

    #[test]
    fn chirp_interval_covers_ten_centimetre_range() {
        // Paper: a 5 ms gap captures all echoes within ~10 cm round trip
        // with generous margin.
        let round_trip_10cm = 2.0 * 0.10 / SPEED_OF_SOUND_AIR;
        assert!(EARSONAR_CHIRP_INTERVAL > round_trip_10cm);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn water_impedance_dwarfs_air() {
        assert!(DENSITY_WATER * SPEED_OF_SOUND_WATER > 1000.0 * DENSITY_AIR * SPEED_OF_SOUND_AIR);
    }
}
