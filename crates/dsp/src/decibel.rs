//! Decibel conversions.
//!
//! The noise-robustness experiments (paper §VI-C-2, Fig. 14) inject ambient
//! noise calibrated in dB SPL; these helpers convert between linear
//! amplitude ratios and decibels.

/// Converts an amplitude ratio to decibels: `20 log10(a / a_ref)`.
///
/// Returns negative infinity for a zero ratio.
///
/// # Example
///
/// ```
/// use earsonar_dsp::decibel::amplitude_to_db;
/// assert!((amplitude_to_db(10.0, 1.0) - 20.0).abs() < 1e-12);
/// ```
pub fn amplitude_to_db(a: f64, a_ref: f64) -> f64 {
    20.0 * (a / a_ref).abs().log10()
}

/// Converts decibels to an amplitude ratio: `a_ref * 10^(db/20)`.
pub fn db_to_amplitude(db: f64, a_ref: f64) -> f64 {
    a_ref * 10f64.powf(db / 20.0)
}

/// Signal-to-noise ratio in dB given signal and noise RMS amplitudes.
///
/// Returns positive infinity for zero noise.
pub fn snr_db(signal_rms: f64, noise_rms: f64) -> f64 {
    if noise_rms == 0.0 {
        f64::INFINITY
    } else {
        amplitude_to_db(signal_rms, noise_rms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amplitude_db_round_trip() {
        for db in [-40.0, -6.0, 0.0, 3.0, 20.0, 70.0] {
            let a = db_to_amplitude(db, 1.0);
            assert!((amplitude_to_db(a, 1.0) - db).abs() < 1e-10);
        }
    }

    #[test]
    fn doubling_amplitude_is_six_db() {
        assert!((amplitude_to_db(2.0, 1.0) - 6.0206).abs() < 1e-3);
    }

    #[test]
    fn zero_amplitude_is_minus_infinity() {
        assert_eq!(amplitude_to_db(0.0, 1.0), f64::NEG_INFINITY);
    }

    #[test]
    fn snr_behaviour() {
        assert_eq!(snr_db(1.0, 0.0), f64::INFINITY);
        assert!((snr_db(10.0, 1.0) - 20.0).abs() < 1e-12);
        assert!(snr_db(1.0, 10.0) < 0.0);
    }
}
