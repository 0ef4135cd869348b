//! FMCW chirp synthesis.
//!
//! EarSonar probes the ear with linear frequency-modulated continuous-wave
//! (FMCW) chirps: `f(t) = f₀ + (B/T)·t` (paper §IV-A), chosen for their
//! sharp autocorrelation, which separates multipath echoes with different
//! times of arrival. The paper's parameters: `f₀ = 16 kHz`, `B = 4 kHz`,
//! `T = 0.5 ms`, one chirp every 5 ms, at 48 kHz sampling.

use crate::constants;
use earsonar_dsp::error::DspError;
use std::f64::consts::PI;

/// An FMCW chirp specification.
///
/// # Example
///
/// ```
/// use earsonar_acoustics::chirp::FmcwChirp;
/// let chirp = FmcwChirp::earsonar();
/// let samples = chirp.samples();
/// assert_eq!(samples.len(), 24); // 0.5 ms at 48 kHz
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FmcwChirp {
    /// Start frequency `f₀` in hertz.
    pub f0: f64,
    /// Swept bandwidth `B` in hertz.
    pub bandwidth: f64,
    /// Duration `T` in seconds.
    pub duration: f64,
    /// Sample rate in hertz.
    pub sample_rate: f64,
    /// Peak amplitude.
    pub amplitude: f64,
}

impl FmcwChirp {
    /// The paper's chirp: 16→20 kHz over 0.5 ms at 48 kHz.
    pub fn earsonar() -> Self {
        FmcwChirp {
            f0: constants::EARSONAR_F0,
            bandwidth: constants::EARSONAR_BANDWIDTH,
            duration: constants::EARSONAR_CHIRP_DURATION,
            sample_rate: constants::EARSONAR_SAMPLE_RATE,
            amplitude: 1.0,
        }
    }

    /// Creates a chirp spec after validating the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if any quantity is
    /// non-positive or the sweep exceeds the Nyquist frequency.
    pub fn new(f0: f64, bandwidth: f64, duration: f64, sample_rate: f64) -> Result<Self, DspError> {
        if !(f0 > 0.0) {
            return Err(DspError::InvalidParameter {
                name: "f0",
                constraint: "start frequency must be positive",
            });
        }
        if !(bandwidth > 0.0) {
            return Err(DspError::InvalidParameter {
                name: "bandwidth",
                constraint: "bandwidth must be positive",
            });
        }
        if !(duration > 0.0) {
            return Err(DspError::InvalidParameter {
                name: "duration",
                constraint: "duration must be positive",
            });
        }
        if !(sample_rate > 0.0) || f0 + bandwidth > sample_rate / 2.0 {
            return Err(DspError::InvalidParameter {
                name: "sample_rate",
                constraint: "sweep must stay below the Nyquist frequency",
            });
        }
        Ok(FmcwChirp {
            f0,
            bandwidth,
            duration,
            sample_rate,
            amplitude: 1.0,
        })
    }

    /// Number of samples in one chirp.
    pub fn len(&self) -> usize {
        (self.duration * self.sample_rate).round() as usize
    }

    /// Returns `true` if the chirp would contain no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Synthesizes the chirp samples:
    /// `x(t) = A sin(2π (f₀ t + B t² / (2T)))`.
    pub fn samples(&self) -> Vec<f64> {
        let n = self.len();
        let dt = 1.0 / self.sample_rate;
        (0..n)
            .map(|i| {
                let t = i as f64 * dt;
                let phase = 2.0 * PI * (self.f0 * t + 0.5 * self.bandwidth / self.duration * t * t);
                self.amplitude * phase.sin()
            })
            .collect()
    }

    /// Synthesizes a train of `count` chirps spaced `interval` seconds
    /// apart (start-to-start), zero-filled between chirps.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if `interval < duration` or
    /// `count == 0`.
    pub fn train(&self, count: usize, interval: f64) -> Result<Vec<f64>, DspError> {
        if count == 0 {
            return Err(DspError::InvalidParameter {
                name: "count",
                constraint: "must emit at least one chirp",
            });
        }
        if interval < self.duration {
            return Err(DspError::InvalidParameter {
                name: "interval",
                constraint: "chirps must not overlap: interval >= duration",
            });
        }
        let hop = (interval * self.sample_rate).round() as usize;
        let one = self.samples();
        let total = hop * (count - 1) + one.len();
        let mut out = vec![0.0; total];
        for c in 0..count {
            let start = c * hop;
            for (i, &s) in one.iter().enumerate() {
                out[start + i] = s;
            }
        }
        Ok(out)
    }

    /// The per-train chirp hop in samples for a given interval.
    pub fn hop_samples(&self, interval: f64) -> usize {
        (interval * self.sample_rate).round() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earsonar_dsp::goertzel::goertzel_magnitude;

    #[test]
    fn earsonar_chirp_matches_paper_parameters() {
        let c = FmcwChirp::earsonar();
        assert_eq!(c.f0, 16_000.0);
        assert_eq!(c.bandwidth, 4_000.0);
        assert_eq!(c.len(), 24);
        assert_eq!(c.f0 + c.bandwidth, 20_000.0);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(FmcwChirp::new(-1.0, 4_000.0, 5e-4, 48_000.0).is_err());
        assert!(FmcwChirp::new(16_000.0, 0.0, 5e-4, 48_000.0).is_err());
        assert!(FmcwChirp::new(16_000.0, 4_000.0, 0.0, 48_000.0).is_err());
        assert!(FmcwChirp::new(22_000.0, 4_000.0, 5e-4, 48_000.0).is_err());
    }

    #[test]
    fn samples_are_bounded_by_amplitude() {
        let c = FmcwChirp::earsonar();
        assert!(c.samples().iter().all(|&s| s.abs() <= 1.0));
    }

    #[test]
    fn long_chirp_energy_concentrates_in_band() {
        // Stretch the chirp to 20 ms so the band structure is resolvable.
        let c = FmcwChirp::new(16_000.0, 4_000.0, 0.02, 48_000.0).unwrap();
        let x = c.samples();
        let in_band = goertzel_magnitude(&x, 18_000.0, 48_000.0).unwrap();
        let out_band = goertzel_magnitude(&x, 8_000.0, 48_000.0).unwrap();
        assert!(in_band > 10.0 * out_band, "in {in_band}, out {out_band}");
    }

    #[test]
    fn train_layout() {
        let c = FmcwChirp::earsonar();
        let train = c.train(3, 5e-3).unwrap();
        let hop = c.hop_samples(5e-3);
        assert_eq!(hop, 240);
        assert_eq!(train.len(), 2 * hop + 24);
        // Chirp energy present at each start, silence in the gaps.
        for start in [0, hop, 2 * hop] {
            let e: f64 = train[start..start + 24].iter().map(|v| v * v).sum();
            assert!(e > 1.0);
        }
        let gap: f64 = train[30..hop - 10].iter().map(|v| v * v).sum();
        assert_eq!(gap, 0.0);
    }

    #[test]
    fn train_validates_parameters() {
        let c = FmcwChirp::earsonar();
        assert!(c.train(0, 5e-3).is_err());
        assert!(c.train(3, 1e-4).is_err());
    }

    #[test]
    fn chirps_have_sharp_autocorrelation() {
        // The FMCW design rationale: the autocorrelation peak at zero lag
        // dominates all sidelobes, enabling multipath separation.
        let c = FmcwChirp::new(16_000.0, 4_000.0, 2e-3, 48_000.0).unwrap();
        let x = c.samples();
        let reversed: Vec<f64> = x.iter().rev().copied().collect();
        let xc = earsonar_dsp::convolution::convolve(&x, &reversed);
        let zero_lag = x.len() - 1;
        let peak = xc[zero_lag].abs();
        let max_sidelobe = xc
            .iter()
            .enumerate()
            .filter(|(i, _)| i.abs_diff(zero_lag) > 8)
            .map(|(_, v)| v.abs())
            .fold(0.0f64, f64::max);
        assert!(
            peak > 3.0 * max_sidelobe,
            "peak {peak}, side {max_sidelobe}"
        );
    }
}
