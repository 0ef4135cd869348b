//! Pipeline configuration: the settings a deployment may change.
//!
//! The paper fixes the rest of its pipeline, and so does this crate: each
//! fixed setting is a constant in the module that owns the decision —
//! the probe band in [`earsonar_acoustics::constants`] (read through
//! [`crate::preprocess::PROBE_BAND_HZ`]), the band-pass order in
//! [`crate::preprocess`], the event window in [`crate::event`], the
//! parity thresholds and eardrum prior in [`crate::segment`], the
//! deconvolution regularization in [`crate::channel`], the echo section,
//! FFT length and profile in [`crate::absorption`], the MFCC layout in
//! [`crate::features`], the clustering settings in [`crate::detect`]
//! (with `k` = [`earsonar_signal::effusion::MeeState::COUNT`]), and the
//! quality gate's thresholds in [`crate::quality`].

use crate::error::EarSonarError;
use crate::preprocess::PROBE_BAND_HZ;
use crate::quality::QualityGateConfig;
use earsonar_signal::recording::ChirpLayout;

/// The largest chirp hop (samples) or selected-feature count a
/// configuration may set. Buffers are sized from these fields, so a model
/// file that sets one to billions must be refused at load, not die in an
/// allocation at the first screening. The paper's values are 240 samples
/// and 25 features; 65 536 leaves ample room.
pub const MAX_CONFIG_SIZE: usize = 1 << 16;

/// Configuration of the EarSonar pipeline; [`Default`] is the paper's.
///
/// Override fields with struct-update syntax, then [`validate`](Self::validate):
///
/// ```
/// use earsonar::EarSonarConfig;
/// let cfg = EarSonarConfig {
///     top_features: 20,
///     remove_outliers: false,
///     ..EarSonarConfig::default()
/// };
/// cfg.validate().unwrap();
/// assert_eq!(cfg.top_features, 20);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EarSonarConfig {
    /// Sample rate in hertz (paper: 48 kHz).
    pub sample_rate: f64,
    /// Samples per transmitted chirp (paper: 0.5 ms → 24).
    pub chirp_len: usize,
    /// Samples between chirp starts (paper: 5 ms → 240).
    pub chirp_hop: usize,
    /// Number of channel impulse-response taps estimated per chirp.
    pub ir_taps: usize,
    /// Features kept after Laplacian-score selection (paper: 25 of 105).
    pub top_features: usize,
    /// Enable the paper's distance-based outlier removal before clustering.
    pub remove_outliers: bool,
    /// Whether the per-chirp signal-quality gate runs; its thresholds are
    /// constants of [`crate::quality`].
    pub quality: QualityGateConfig,
}

impl Default for EarSonarConfig {
    /// The paper's configuration.
    fn default() -> Self {
        EarSonarConfig {
            sample_rate: 48_000.0,
            chirp_len: 24,
            chirp_hop: 240,
            ir_taps: 96,
            top_features: 25,
            remove_outliers: true,
            quality: QualityGateConfig::default(),
        }
    }
}

impl EarSonarConfig {
    /// The capture layout this configuration processes: its sample rate
    /// and chirp grid.
    pub fn layout(&self) -> ChirpLayout {
        ChirpLayout {
            sample_rate: self.sample_rate,
            chirp_len: self.chirp_len,
            chirp_hop: self.chirp_hop,
        }
    }

    /// Validates cross-field constraints.
    ///
    /// # Errors
    ///
    /// Returns [`EarSonarError::BadConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), EarSonarError> {
        for (name, size) in [
            ("chirp_hop", self.chirp_hop),
            ("top_features", self.top_features),
        ] {
            if size > MAX_CONFIG_SIZE {
                return Err(EarSonarError::BadConfig {
                    name,
                    constraint: "must not exceed MAX_CONFIG_SIZE (65536)",
                });
            }
        }
        if !(self.sample_rate > 0.0) {
            return Err(EarSonarError::BadConfig {
                name: "sample_rate",
                constraint: "must be positive",
            });
        }
        if PROBE_BAND_HZ.1 >= self.sample_rate / 2.0 {
            return Err(EarSonarError::BadConfig {
                name: "sample_rate",
                constraint: "the probe band must stay below the Nyquist frequency",
            });
        }
        if self.chirp_len == 0 || self.chirp_hop <= self.chirp_len {
            return Err(EarSonarError::BadConfig {
                name: "chirp_len/chirp_hop",
                constraint: "need 0 < chirp_len < chirp_hop",
            });
        }
        if self.ir_taps == 0 || self.ir_taps > self.chirp_hop {
            return Err(EarSonarError::BadConfig {
                name: "ir_taps",
                constraint: "must be in 1..=chirp_hop",
            });
        }
        if self.top_features == 0 {
            return Err(EarSonarError::BadConfig {
                name: "top_features",
                constraint: "must be positive",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_validate() {
        assert!(EarSonarConfig::default().validate().is_ok());
    }

    #[test]
    fn paper_defaults_match_paper_numbers() {
        let c = EarSonarConfig::default();
        assert_eq!(c.sample_rate, 48_000.0);
        assert_eq!(PROBE_BAND_HZ, (16_000.0, 20_000.0));
        assert_eq!(c.chirp_len, 24); // 0.5 ms
        assert_eq!(c.chirp_hop, 240); // 5 ms
        assert_eq!(crate::MeeState::COUNT, 4);
        assert_eq!(c.top_features, 25);
    }

    #[test]
    fn struct_update_overrides_validate() {
        let paper = EarSonarConfig::default;
        let cfg = EarSonarConfig {
            top_features: 20,
            remove_outliers: false,
            ..paper()
        };
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.top_features, 20);
        assert!(!cfg.remove_outliers);

        let rejects = |cfg: EarSonarConfig| cfg.validate().is_err();
        assert!(rejects(EarSonarConfig {
            sample_rate: 32_000.0,
            ..paper()
        }));
        assert!(rejects(EarSonarConfig {
            chirp_len: 0,
            ..paper()
        }));
        assert!(rejects(EarSonarConfig {
            top_features: 0,
            ..paper()
        }));
        assert!(rejects(EarSonarConfig {
            ir_taps: 241,
            ..paper()
        }));
        let cfg = EarSonarConfig {
            quality: QualityGateConfig { enabled: false },
            ..paper()
        };
        assert!(cfg.validate().is_ok());
        assert!(!cfg.quality.enabled);
    }
}
