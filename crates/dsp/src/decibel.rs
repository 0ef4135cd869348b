//! Decibel conversion.
//!
//! The noise-robustness experiments (paper §VI-C-2, Fig. 14) inject ambient
//! noise calibrated in dB SPL; this helper turns a level in decibels into a
//! linear amplitude.

/// Converts decibels to an amplitude ratio: `a_ref * 10^(db/20)`.
///
/// # Example
///
/// ```
/// use earsonar_dsp::decibel::db_to_amplitude;
/// assert!((db_to_amplitude(20.0, 1.0) - 10.0).abs() < 1e-12);
/// ```
pub fn db_to_amplitude(db: f64, a_ref: f64) -> f64 {
    a_ref * 10f64.powf(db / 20.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_db_doubles_amplitude() {
        assert!((db_to_amplitude(6.0206, 1.0) - 2.0).abs() < 1e-4);
        assert_eq!(db_to_amplitude(0.0, 3.0), 3.0);
        assert!((db_to_amplitude(-40.0, 2.0) - 0.02).abs() < 1e-15);
    }
}
