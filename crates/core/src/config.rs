//! Pipeline configuration.

use crate::error::EarSonarError;
use crate::quality::QualityGateConfig;
use earsonar_dsp::mfcc::MfccConfig;
use earsonar_dsp::window::Window;

/// The largest chirp hop (samples), FFT length (points), mel filter count,
/// profile bin count, cluster count or selected-feature count a
/// configuration may set. Buffers are sized from these fields, so a model
/// file that sets one to billions must be refused at load, not die in an
/// allocation at the first screening. The paper's values are 240 samples,
/// 256 points, 26 filters, 32 profile bins, 4 clusters and 25 features;
/// 65 536 leaves ample room.
pub const MAX_CONFIG_SIZE: usize = 1 << 16;

/// Full configuration of the EarSonar pipeline, with the paper's defaults.
///
/// Use [`EarSonarConfig::builder`] for fluent construction:
///
/// ```
/// use earsonar::EarSonarConfig;
/// let cfg = EarSonarConfig::builder()
///     .noise_filter_order(6)
///     .top_features(20)
///     .build()
///     .unwrap();
/// assert_eq!(cfg.top_features, 20);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EarSonarConfig {
    /// Sample rate in hertz (paper: 48 kHz).
    pub sample_rate: f64,
    /// Probe band lower edge in hertz (paper: 16 kHz).
    pub band_low_hz: f64,
    /// Probe band upper edge in hertz (paper: 20 kHz).
    pub band_high_hz: f64,
    /// Butterworth band-pass order for noise removal.
    pub noise_filter_order: usize,
    /// Samples per transmitted chirp (paper: 0.5 ms → 24).
    pub chirp_len: usize,
    /// Samples between chirp starts (paper: 5 ms → 240).
    pub chirp_hop: usize,
    /// Sliding-window length `W` for adaptive event detection (samples).
    pub event_window: usize,
    /// Minimum symmetry support `ml` for parity segmentation (samples).
    pub min_symmetry_support: usize,
    /// Even/odd energy-ratio threshold `pt` (paper: 0.5 < pt < 1).
    pub parity_energy_threshold: f64,
    /// Eardrum-distance prior in metres (paper: 2–3.5 cm).
    pub eardrum_distance_range_m: (f64, f64),
    /// Maximum template delay (samples) for direct-path cancellation; must
    /// stay below the eardrum delay prior.
    pub cancel_max_delay: usize,
    /// Number of channel impulse-response taps estimated per chirp.
    pub ir_taps: usize,
    /// Wiener-deconvolution regularization relative to the template's peak
    /// spectral power.
    pub deconvolution_epsilon: f64,
    /// IR samples kept before the detected echo centre.
    pub echo_ir_pre: usize,
    /// IR samples kept after the detected echo centre (captures the
    /// absorption ringing).
    pub echo_ir_tail: usize,
    /// FFT size for the echo power spectrum.
    pub n_fft: usize,
    /// Number of PSD profile bins in the feature vector.
    pub psd_profile_bins: usize,
    /// Frequency range of the PSD profile features. Inset from the chirp
    /// band edges: the Butterworth skirts and the chirp's own spectral
    /// roll-off leave the outermost bins signal-free.
    pub profile_band_hz: (f64, f64),
    /// MFCC extraction settings.
    pub mfcc: MfccConfig,
    /// Number of clusters `k` (paper: the 4 effusion states).
    pub k_clusters: usize,
    /// Features kept after Laplacian-score selection (paper: 25 of 105).
    pub top_features: usize,
    /// Neighbours in the Laplacian-score kNN graph.
    pub laplacian_neighbors: usize,
    /// k-means restarts.
    pub kmeans_restarts: usize,
    /// Deterministic seed for clustering and selection.
    pub seed: u64,
    /// Enable the paper's distance-based outlier removal before clustering.
    pub remove_outliers: bool,
    /// Per-chirp signal-quality gate thresholds (see [`crate::quality`]).
    pub quality: QualityGateConfig,
}

impl EarSonarConfig {
    /// The paper's configuration.
    pub fn paper_default() -> Self {
        EarSonarConfig {
            sample_rate: 48_000.0,
            band_low_hz: 16_000.0,
            band_high_hz: 20_000.0,
            noise_filter_order: 4,
            chirp_len: 24,
            chirp_hop: 240,
            event_window: 24,
            min_symmetry_support: 12,
            parity_energy_threshold: 0.7,
            eardrum_distance_range_m: (0.018, 0.042),
            cancel_max_delay: 5,
            ir_taps: 96,
            deconvolution_epsilon: 1e-3,
            echo_ir_pre: 5,
            echo_ir_tail: 56,
            n_fft: 256,
            psd_profile_bins: 32,
            profile_band_hz: (16_500.0, 19_500.0),
            mfcc: MfccConfig {
                sample_rate: 48_000.0,
                n_fft: 256,
                n_filters: 26,
                n_coeffs: 26,
                f_min: 16_000.0,
                f_max: 20_000.0,
                window: Window::Hann,
            },
            k_clusters: 4,
            top_features: 25,
            laplacian_neighbors: 15,
            kmeans_restarts: 12,
            seed: 0x0EA5_0A45,
            remove_outliers: true,
            quality: QualityGateConfig::default(),
        }
    }

    /// Starts a builder from the paper defaults.
    pub fn builder() -> EarSonarConfigBuilder {
        EarSonarConfigBuilder {
            config: Self::paper_default(),
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
            ("n_fft", self.n_fft),
            ("mfcc.n_fft", self.mfcc.n_fft),
            ("mfcc.n_filters", self.mfcc.n_filters),
            ("psd_profile_bins", self.psd_profile_bins),
            ("k_clusters", self.k_clusters),
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
        if !(self.band_low_hz > 0.0 && self.band_low_hz < self.band_high_hz) {
            return Err(EarSonarError::BadConfig {
                name: "band_low_hz/band_high_hz",
                constraint: "need 0 < low < high",
            });
        }
        if self.band_high_hz >= self.sample_rate / 2.0 {
            return Err(EarSonarError::BadConfig {
                name: "band_high_hz",
                constraint: "must stay below the Nyquist frequency",
            });
        }
        if self.chirp_len == 0 || self.chirp_hop <= self.chirp_len {
            return Err(EarSonarError::BadConfig {
                name: "chirp_len/chirp_hop",
                constraint: "need 0 < chirp_len < chirp_hop",
            });
        }
        if !(self.parity_energy_threshold > 0.5 && self.parity_energy_threshold < 1.0) {
            return Err(EarSonarError::BadConfig {
                name: "parity_energy_threshold",
                constraint: "the paper requires 0.5 < pt < 1",
            });
        }
        let (lo, hi) = self.eardrum_distance_range_m;
        if !(lo > 0.0 && lo < hi) {
            return Err(EarSonarError::BadConfig {
                name: "eardrum_distance_range_m",
                constraint: "need 0 < lo < hi",
            });
        }
        // The direct leak arrives ~1 sample in; the eardrum echo begins a
        // further `round_trip(lo)` samples later. Templates must stop short
        // of that.
        let min_delay_samples =
            1.0 + 2.0 * lo / earsonar_acoustics::constants::SPEED_OF_SOUND_AIR * self.sample_rate;
        if self.cancel_max_delay as f64 >= min_delay_samples {
            return Err(EarSonarError::BadConfig {
                name: "cancel_max_delay",
                constraint: "must stay below the eardrum delay prior",
            });
        }
        if self.ir_taps == 0 || self.ir_taps > self.chirp_hop {
            return Err(EarSonarError::BadConfig {
                name: "ir_taps",
                constraint: "must be in 1..=chirp_hop",
            });
        }
        if !(self.deconvolution_epsilon > 0.0) {
            return Err(EarSonarError::BadConfig {
                name: "deconvolution_epsilon",
                constraint: "must be positive",
            });
        }
        let ir_len = self.echo_ir_pre.checked_add(self.echo_ir_tail);
        if !matches!(ir_len, Some(len) if len > 0 && len <= self.n_fft) {
            return Err(EarSonarError::BadConfig {
                name: "echo_ir_pre/echo_ir_tail",
                constraint: "IR section must be non-empty and fit the FFT",
            });
        }
        let (p_lo, p_hi) = self.profile_band_hz;
        if !(p_lo >= self.band_low_hz && p_lo < p_hi && p_hi <= self.band_high_hz) {
            return Err(EarSonarError::BadConfig {
                name: "profile_band_hz",
                constraint: "must lie inside the chirp band",
            });
        }
        if self.k_clusters == 0 || self.top_features == 0 || self.psd_profile_bins == 0 {
            return Err(EarSonarError::BadConfig {
                name: "k_clusters/top_features/psd_profile_bins",
                constraint: "must all be positive",
            });
        }
        self.quality.validate()?;
        Ok(())
    }
}

impl Default for EarSonarConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Fluent builder for [`EarSonarConfig`].
#[derive(Debug, Clone)]
pub struct EarSonarConfigBuilder {
    config: EarSonarConfig,
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $name:ident: $ty:ty),* $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $name(mut self, value: $ty) -> Self {
                self.config.$name = value;
                self
            }
        )*
    };
}

impl EarSonarConfigBuilder {
    builder_setters! {
        /// Sets the sample rate in hertz.
        sample_rate: f64,
        /// Sets the probe-band lower edge in hertz.
        band_low_hz: f64,
        /// Sets the probe-band upper edge in hertz.
        band_high_hz: f64,
        /// Sets the Butterworth noise-filter order.
        noise_filter_order: usize,
        /// Sets the chirp length in samples.
        chirp_len: usize,
        /// Sets the chirp hop in samples.
        chirp_hop: usize,
        /// Sets the event-detection window `W`.
        event_window: usize,
        /// Sets the minimum parity-symmetry support `ml`.
        min_symmetry_support: usize,
        /// Sets the parity energy-ratio threshold `pt`.
        parity_energy_threshold: f64,
        /// Sets the eardrum-distance prior in metres.
        eardrum_distance_range_m: (f64, f64),
        /// Sets the direct-path cancellation template depth.
        cancel_max_delay: usize,
        /// Sets the number of estimated IR taps.
        ir_taps: usize,
        /// Sets the Wiener-deconvolution regularization.
        deconvolution_epsilon: f64,
        /// Sets the IR samples kept before the echo centre.
        echo_ir_pre: usize,
        /// Sets the IR samples kept after the echo centre.
        echo_ir_tail: usize,
        /// Sets the echo FFT size.
        n_fft: usize,
        /// Sets the number of PSD profile feature bins.
        psd_profile_bins: usize,
        /// Sets the PSD profile frequency range.
        profile_band_hz: (f64, f64),
        /// Sets the number of clusters `k`.
        k_clusters: usize,
        /// Sets how many features Laplacian selection keeps.
        top_features: usize,
        /// Sets the Laplacian kNN graph size.
        laplacian_neighbors: usize,
        /// Sets the number of k-means restarts.
        kmeans_restarts: usize,
        /// Sets the clustering seed.
        seed: u64,
        /// Enables or disables outlier removal.
        remove_outliers: bool,
        /// Sets the per-chirp quality-gate thresholds.
        quality: QualityGateConfig,
    }

    /// Finalizes the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`EarSonarError::BadConfig`] if validation fails.
    pub fn build(self) -> Result<EarSonarConfig, EarSonarError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_validate() {
        assert!(EarSonarConfig::paper_default().validate().is_ok());
        assert_eq!(EarSonarConfig::default(), EarSonarConfig::paper_default());
    }

    #[test]
    fn paper_defaults_match_paper_numbers() {
        let c = EarSonarConfig::paper_default();
        assert_eq!(c.sample_rate, 48_000.0);
        assert_eq!(c.band_low_hz, 16_000.0);
        assert_eq!(c.band_high_hz, 20_000.0);
        assert_eq!(c.chirp_len, 24); // 0.5 ms
        assert_eq!(c.chirp_hop, 240); // 5 ms
        assert_eq!(c.k_clusters, 4);
        assert_eq!(c.top_features, 25);
    }

    #[test]
    fn builder_overrides_and_validates() {
        let cfg = EarSonarConfig::builder()
            .k_clusters(3)
            .seed(9)
            .build()
            .unwrap();
        assert_eq!(cfg.k_clusters, 3);
        assert_eq!(cfg.seed, 9);

        assert!(EarSonarConfig::builder()
            .parity_energy_threshold(0.4)
            .build()
            .is_err());
        assert!(EarSonarConfig::builder().band_high_hz(30_000.0).build().is_err());
        assert!(EarSonarConfig::builder().chirp_len(0).build().is_err());
        assert!(EarSonarConfig::builder().k_clusters(0).build().is_err());
        assert!(EarSonarConfig::builder()
            .eardrum_distance_range_m((0.05, 0.01))
            .build()
            .is_err());
        assert!(EarSonarConfig::builder().n_fft(16).build().is_err());
        let bad_gate = QualityGateConfig {
            max_dropout_fraction: -0.5,
            ..Default::default()
        };
        assert!(EarSonarConfig::builder().quality(bad_gate).build().is_err());
        let off = QualityGateConfig {
            enabled: false,
            ..Default::default()
        };
        let cfg = EarSonarConfig::builder().quality(off).build().unwrap();
        assert!(!cfg.quality.enabled);
    }
}
