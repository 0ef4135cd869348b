//! Echo segmentation by even/odd parity decomposition (paper §IV-B-3).
//!
//! The eardrum echo overlaps the direct signal and the canal multipath, so
//! plain peak-picking cannot isolate it. The paper adapts the local-symmetry
//! decomposition of Gnutti et al.: any locally symmetric (even or odd)
//! segment of the signal concentrates its energy in one parity component,
//! and the optimal symmetry centres are the extrema of the signal's
//! **auto-convolution** (Eq. 10: `2n₀ = argmax_m |(x∗x)[m]|`). Candidates
//! are kept when their parity energy ratio exceeds `pt` and the winner must
//! sit at an eardrum-plausible delay (2–3.5 cm) behind the direct signal.

use crate::config::EarSonarConfig;
use crate::error::EarSonarError;
use earsonar_dsp::convolution::autoconvolve_with;
use earsonar_dsp::plan::DspScratch;

/// Minimum symmetry support `ml` (samples): a candidate's parity is
/// measured over `2 * MIN_SYMMETRY_SUPPORT` samples around it.
pub const MIN_SYMMETRY_SUPPORT: usize = 12;

/// Even/odd energy-ratio threshold `pt` (paper: 0.5 < pt < 1).
pub const PARITY_ENERGY_THRESHOLD: f64 = 0.7;

/// Eardrum-distance prior in metres (paper: 2–3.5 cm, widened to
/// 1.8–4.2 cm).
pub const EARDRUM_DISTANCE_RANGE_M: (f64, f64) = (0.018, 0.042);

const _: () = assert!(0.5 < PARITY_ENERGY_THRESHOLD && PARITY_ENERGY_THRESHOLD < 1.0);
const _: () = assert!(0.0 < EARDRUM_DISTANCE_RANGE_M.0);
const _: () = assert!(EARDRUM_DISTANCE_RANGE_M.0 < EARDRUM_DISTANCE_RANGE_M.1);

/// Parity energies `(E_even, E_odd)` of `x` about fold `m` — paper Eq. 9.
///
/// The even and odd parts (Eq. 8, with `m = 2n₀`; odd `m` folds between
/// samples) are `½(x[n] ± x[m−n])`, with out-of-range reflections taken as
/// zero. They are computed inline, never materialized — this runs once per
/// symmetry candidate, inside the segmentation hot loop.
pub fn parity_energies(x: &[f64], m: usize) -> (f64, f64) {
    let n = x.len();
    let mut e_even = 0.0f64;
    let mut e_odd = 0.0f64;
    for i in 0..n {
        let reflected = if m >= i && m - i < n { x[m - i] } else { 0.0 };
        let even = 0.5 * (x[i] + reflected);
        let odd = 0.5 * (x[i] - reflected);
        e_even += even * even;
        e_odd += odd * odd;
    }
    (e_even, e_odd)
}

/// A candidate symmetry point found on the auto-convolution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EchoCandidate {
    /// Symmetry-centre sample index (fold position `m/2` rounded down).
    pub center: usize,
    /// Fold position `m = 2n₀` in auto-convolution coordinates.
    pub fold: usize,
    /// Best parity energy ratio `max(E_even, E_odd) / E` in `[0.5, 1]`.
    pub energy_ratio: f64,
    /// Whether the dominant parity was even.
    pub is_even: bool,
}

/// Finds all local-symmetry candidates of `x`: local extrema of
/// `|(x∗x)[m]|` whose parity energy ratio (over a window of
/// `2 * MIN_SYMMETRY_SUPPORT` samples) exceeds [`PARITY_ENERGY_THRESHOLD`].
/// The auto-convolution's plan and buffers come from `scratch`.
pub fn find_symmetry_candidates(scratch: &mut DspScratch, x: &[f64]) -> Vec<EchoCandidate> {
    if x.len() < MIN_SYMMETRY_SUPPORT {
        return Vec::new();
    }
    let mut mag = scratch.take_real();
    autoconvolve_with(scratch, x, &mut mag);
    mag.iter_mut().for_each(|v| *v = v.abs());
    let top = mag.iter().copied().fold(0.0f64, f64::max);
    // Local extrema of the auto-convolution magnitude, pruned to
    // meaningful height.
    let peaks = if top == 0.0 {
        Vec::new()
    } else {
        earsonar_dsp::peak::find_peaks(&mag, 0.05 * top, 2)
    };
    scratch.put_real(mag);
    let half = MIN_SYMMETRY_SUPPORT;
    let mut out = Vec::new();
    for p in peaks {
        let m = p.index;
        let center = m / 2;
        if center >= x.len() {
            continue;
        }
        // Uniform-length subsequence y centred on the candidate.
        let lo = center.saturating_sub(half);
        let hi = (center + half).min(x.len());
        let y = &x[lo..hi];
        let fold_in_y = m.saturating_sub(2 * lo);
        let (ee, eo) = parity_energies(y, fold_in_y);
        let total = ee + eo;
        if total <= 0.0 {
            continue;
        }
        let (ratio, is_even) = if ee >= eo {
            (ee / total, true)
        } else {
            (eo / total, false)
        };
        if ratio > PARITY_ENERGY_THRESHOLD {
            out.push(EchoCandidate {
                center,
                fold: m,
                energy_ratio: ratio,
                is_even,
            });
        }
    }
    out
}

/// The segmented eardrum echo of one chirp window.
#[derive(Debug, Clone, PartialEq)]
pub struct EardrumEcho {
    /// Sample index of the echo centre within the chirp window.
    pub center: usize,
    /// Sample index of the direct-signal reference peak.
    pub direct_center: usize,
    /// Parity energy ratio of the winning candidate (0.5 if the fallback
    /// placement was used).
    pub energy_ratio: f64,
    /// Whether a symmetry candidate was found (vs. the distance-prior
    /// fallback).
    pub from_symmetry: bool,
}

impl EardrumEcho {
    /// Echo delay in samples behind the direct signal.
    pub fn delay_samples(&self) -> usize {
        self.center.saturating_sub(self.direct_center)
    }

    /// Estimated eardrum distance in metres at sample rate `fs`.
    pub fn distance_m(&self, fs: f64) -> f64 {
        earsonar_acoustics::propagation::distance_from_delay_samples(
            self.delay_samples() as f64,
            fs,
        )
    }
}

/// Converts the eardrum-distance prior into a delay range in samples at
/// sample rate `fs`.
fn delay_prior_samples(fs: f64) -> (f64, f64) {
    let (lo, hi) = EARDRUM_DISTANCE_RANGE_M;
    (
        earsonar_acoustics::propagation::round_trip_delay_samples(lo, fs),
        earsonar_acoustics::propagation::round_trip_delay_samples(hi, fs),
    )
}

/// Segments the eardrum echo out of one chirp window or impulse response,
/// measuring delays from `direct_center`.
///
/// `direct_center` is where the direct signal sits; the pipeline passes
/// the transmit-grid tap at which the direct leak arrives (tap 1 of the
/// averaged impulse response, fixed by `FrontEnd::finalize`), not a value
/// fitted from the window. The winning symmetry candidate must lie at an
/// eardrum-plausible delay behind it (paper's selection principles). When
/// no candidate survives, the echo is placed at the middle of the prior
/// range — the pipeline can still extract a (lower-quality) spectrum.
///
/// # Errors
///
/// Returns [`EarSonarError::NoEchoDetected`] if the window is essentially
/// silent, and [`EarSonarError::BadRecording`] if it is shorter than the
/// chirp.
pub fn segment_with_anchor(
    chirp_window: &[f64],
    direct_center: usize,
    config: &EarSonarConfig,
) -> Result<EardrumEcho, EarSonarError> {
    segment_with_anchor_with(&mut DspScratch::new(), chirp_window, direct_center, config)
}

/// [`segment_with_anchor`] with the symmetry search's FFT plan and buffers
/// drawn from a caller-owned [`DspScratch`]; the pipeline's per-capture
/// segmentation.
///
/// # Errors
///
/// Same conditions as [`segment_with_anchor`].
pub fn segment_with_anchor_with(
    scratch: &mut DspScratch,
    chirp_window: &[f64],
    direct_center: usize,
    config: &EarSonarConfig,
) -> Result<EardrumEcho, EarSonarError> {
    if chirp_window.len() < config.chirp_len {
        return Err(EarSonarError::BadRecording {
            reason: "chirp window shorter than the chirp",
        });
    }
    let energy: f64 = chirp_window.iter().map(|v| v * v).sum();
    if energy <= 1e-18 {
        return Err(EarSonarError::NoEchoDetected);
    }
    let (d_lo, d_hi) = delay_prior_samples(config.sample_rate);
    // Focus the symmetry search on the active part of the window.
    let active_len = (config.chirp_len * 3 + d_hi.ceil() as usize).min(chirp_window.len());
    let active = &chirp_window[..active_len];
    let candidates = find_symmetry_candidates(scratch, active);

    let lo = direct_center as f64 + d_lo;
    let hi = direct_center as f64 + d_hi;
    let best = candidates
        .iter()
        .filter(|c| {
            let pos = c.center as f64;
            pos >= lo && pos <= hi
        })
        .max_by(|a, b| a.energy_ratio.total_cmp(&b.energy_ratio));

    match best {
        Some(c) => Ok(EardrumEcho {
            center: c.center,
            direct_center,
            energy_ratio: c.energy_ratio,
            from_symmetry: true,
        }),
        None => {
            // Fallback: the distance-prior midpoint keeps the pipeline
            // alive on badly disturbed chirps (motion transients, noise).
            let center = (direct_center as f64 + 0.5 * (d_lo + d_hi)).round() as usize;
            Ok(EardrumEcho {
                center: center.min(chirp_window.len() - 1),
                direct_center,
                energy_ratio: 0.5,
                from_symmetry: false,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> EarSonarConfig {
        EarSonarConfig::default()
    }

    #[test]
    fn parity_energies_split_the_folded_energy() {
        // xe² + xo² = ½(x² + r²) sample by sample, r the reflection.
        let x: Vec<f64> = (0..32).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        for m in [0usize, 15, 31, 40] {
            let (ee, eo) = parity_energies(&x, m);
            let folded: f64 = (0..32)
                .map(|i| {
                    let r = if m >= i && m - i < 32 { x[m - i] } else { 0.0 };
                    0.5 * (x[i] * x[i] + r * r)
                })
                .sum();
            assert!((ee + eo - folded).abs() < 1e-9, "m={m}");
        }
    }

    #[test]
    fn even_signal_concentrates_in_even_part() {
        // Gaussian bump centred at 16 → even about m = 32.
        let x: Vec<f64> = (0..33)
            .map(|i| (-((i as f64 - 16.0) / 4.0).powi(2)).exp())
            .collect();
        let (ee, eo) = parity_energies(&x, 32);
        assert!(ee > 100.0 * eo, "even {ee} odd {eo}");
    }

    #[test]
    fn odd_signal_concentrates_in_odd_part() {
        let x: Vec<f64> = (0..33)
            .map(|i| {
                let t = (i as f64 - 16.0) / 4.0;
                t * (-t * t).exp()
            })
            .collect();
        let (ee, eo) = parity_energies(&x, 32);
        assert!(eo > 100.0 * ee, "even {ee} odd {eo}");
    }

    #[test]
    fn energy_difference_matches_autoconvolution() {
        // Eq. 10: Ee - Eo = (x*x)[m] (within the folded support).
        let x: Vec<f64> = (0..24).map(|i| ((i * 5 % 11) as f64) / 5.0 - 1.0).collect();
        let mut ac = Vec::new();
        autoconvolve_with(&mut DspScratch::new(), &x, &mut ac);
        for m in [6usize, 14, 23, 30] {
            let (ee, eo) = parity_energies(&x, m);
            assert!(
                (ee - eo - ac[m]).abs() < 1e-9,
                "m={m}: {} vs {}",
                ee - eo,
                ac[m]
            );
        }
    }

    #[test]
    fn candidates_find_symmetric_burst() {
        // Even-symmetric burst centred at 40.
        let x: Vec<f64> = (0..96)
            .map(|i| {
                let t = (i as f64 - 40.0) / 3.0;
                (-t * t).exp() * (0.9 * (i as f64 - 40.0)).cos()
            })
            .collect();
        let candidates = find_symmetry_candidates(&mut DspScratch::new(), &x);
        assert!(!candidates.is_empty());
        let best = candidates
            .iter()
            .max_by(|a, b| a.energy_ratio.total_cmp(&b.energy_ratio))
            .unwrap();
        assert!(
            (best.center as isize - 40).abs() <= 2,
            "centre {}",
            best.center
        );
        assert!(best.is_even);
        assert!(best.energy_ratio > 0.9);
    }

    #[test]
    fn silence_produces_no_candidates() {
        assert!(find_symmetry_candidates(&mut DspScratch::new(), &[0.0; 64]).is_empty());
        assert!(find_symmetry_candidates(&mut DspScratch::new(), &[0.0; 4]).is_empty());
    }

    #[test]
    fn segment_finds_echo_at_plausible_delay() {
        // Direct burst at ~12, echo at ~12 + 8 samples (≈ 2.9 cm).
        let cfg = config();
        let chirp = earsonar_acoustics::chirp::FmcwChirp::earsonar().samples();
        let mut window = vec![0.0; 240];
        for (i, &c) in chirp.iter().enumerate() {
            window[i + 1] += c;
        }
        for (i, &c) in chirp.iter().enumerate() {
            window[i + 9] += 0.45 * c;
        }
        // The direct chirp's centre anchors the delay axis.
        let echo = segment_with_anchor(&window, 1 + cfg.chirp_len / 2, &cfg).unwrap();
        let d = echo.delay_samples();
        assert!(
            (4..=13).contains(&d),
            "delay {d} (direct {} echo {})",
            echo.direct_center,
            echo.center
        );
        let dist = echo.distance_m(48_000.0);
        assert!((0.012..=0.05).contains(&dist), "distance {dist}");
    }

    #[test]
    fn silence_yields_no_echo() {
        assert!(matches!(
            segment_with_anchor(&[0.0; 240], 1, &config()),
            Err(EarSonarError::NoEchoDetected)
        ));
    }

    #[test]
    fn short_window_is_rejected() {
        assert!(matches!(
            segment_with_anchor(&[1.0; 10], 1, &config()),
            Err(EarSonarError::BadRecording { .. })
        ));
    }

    #[test]
    fn fallback_keeps_pipeline_alive() {
        // Pure noise: no symmetric structure, but energy present.
        let mut x = Vec::with_capacity(240);
        let mut s = 0.7f64;
        for _ in 0..240 {
            s = 3.99 * s * (1.0 - s);
            x.push(s - 0.5);
        }
        let echo = segment_with_anchor(&x, 1, &config()).unwrap();
        // Whether via symmetry or fallback, the echo must respect the prior.
        let (d_lo, d_hi) = delay_prior_samples(config().sample_rate);
        let d = echo.delay_samples() as f64;
        assert!(d >= d_lo - 1.0 && d <= d_hi + 1.0, "delay {d}");
    }

    #[test]
    fn delay_prior_matches_anatomy() {
        let (lo, hi) = delay_prior_samples(config().sample_rate);
        // 1.5-4.2 cm round trip at 48 kHz: about 4-12 samples.
        assert!(lo > 3.0 && lo < 6.0, "{lo}");
        assert!(hi > 10.0 && hi < 13.0, "{hi}");
    }
}
