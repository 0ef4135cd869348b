//! Channel impulse-response estimation.
//!
//! The FMCW design exists precisely because the transmitted chirp is known:
//! deconvolving it out of the received window yields the ear canal's
//! impulse response (IR), in which the direct leak, wall reflections, and
//! eardrum echo appear as separate taps ordered by delay — the compressed
//! form the paper's Fig. 8(b) shows. All later stages (parity
//! segmentation, absorption analysis) run on the IR: unlike raw-window
//! spectra, IR-domain energy does not depend on where exactly the echo sits
//! inside the analysis window, so eardrum-distance differences between
//! patients stop polluting the absorption features.

use crate::config::EarSonarConfig;
use crate::error::EarSonarError;
use crate::preprocess::Preprocessor;
use earsonar_acoustics::chirp::FmcwChirp;
use earsonar_acoustics::constants::{EARSONAR_BANDWIDTH, EARSONAR_F0};
use earsonar_dsp::complex::Complex64;
use earsonar_dsp::fft::next_pow2;
use earsonar_dsp::plan::{split_frames_mut, DspScratch, FftPlan, LaneFrame, RealFftPlan};

/// The pipeline's Wiener-deconvolution regularization, relative to the
/// template's peak spectral power.
pub const DECONVOLUTION_EPSILON: f64 = 1e-3;
const _: () = assert!(DECONVOLUTION_EPSILON > 0.0);

/// A prepared Wiener deconvolution operator for a fixed chirp template and
/// window length.
#[derive(Debug, Clone)]
pub struct ChannelEstimator {
    /// `conj(T) / (|T|^2 + eps)` per FFT bin.
    inverse: Vec<Complex64>,
    n_fft: usize,
    n_taps: usize,
}

impl ChannelEstimator {
    /// Builds the estimator from the (preprocessed) transmit template.
    ///
    /// `window_len` is the chirp-window length the estimator will see;
    /// `n_taps` is how many IR taps to return. `regularization` is the
    /// Wiener epsilon relative to the template's peak spectral power
    /// (e.g. `1e-3`).
    ///
    /// # Errors
    ///
    /// Returns [`EarSonarError::BadConfig`] for an empty template,
    /// non-positive regularization, or `n_taps` exceeding the window.
    pub fn new(
        template: &[f64],
        window_len: usize,
        n_taps: usize,
        regularization: f64,
    ) -> Result<Self, EarSonarError> {
        if template.is_empty() {
            return Err(EarSonarError::BadConfig {
                name: "template",
                constraint: "must be non-empty",
            });
        }
        if !(regularization > 0.0) {
            return Err(EarSonarError::BadConfig {
                name: "regularization",
                constraint: "must be positive",
            });
        }
        if n_taps == 0 || n_taps > window_len {
            return Err(EarSonarError::BadConfig {
                name: "n_taps",
                constraint: "must be in 1..=window_len",
            });
        }
        let n_fft = next_pow2(window_len + template.len());
        // Transform the template in place: `buf` *is* the spectrum buffer,
        // then gets overwritten with the Wiener inverse — one allocation
        // total instead of three.
        let mut buf = Vec::with_capacity(n_fft);
        FftPlan::shared(n_fft)?.forward_from_real(template, &mut buf);
        let peak = buf.iter().map(|z| z.norm_sqr()).fold(0.0, f64::max);
        let eps = regularization * peak;
        for t in buf.iter_mut() {
            *t = t.conj() / (t.norm_sqr() + eps);
        }
        Ok(ChannelEstimator {
            inverse: buf,
            n_fft,
            n_taps,
        })
    }

    /// Number of IR taps produced.
    pub fn n_taps(&self) -> usize {
        self.n_taps
    }

    /// Estimates the channel impulse response of one chirp window.
    ///
    /// # Errors
    ///
    /// Returns [`EarSonarError::BadRecording`] if the window exceeds the
    /// prepared FFT size or is empty.
    pub fn estimate(&self, window: &[f64]) -> Result<Vec<f64>, EarSonarError> {
        let mut scratch = DspScratch::new();
        let mut out = Vec::with_capacity(self.n_taps);
        self.estimate_with(&mut scratch, window, &mut out)?;
        Ok(out)
    }

    /// [`ChannelEstimator::estimate`] writing into a caller-owned buffer,
    /// with intermediates drawn from `scratch`.
    ///
    /// This is the pipeline's per-chirp deconvolution: with a warm scratch
    /// it runs allocation-free, and the forward transform uses the
    /// half-size real-input plan. It is the one-lane instance of
    /// [`ChannelEstimator::estimate_lanes`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`ChannelEstimator::estimate`].
    pub fn estimate_with(
        &self,
        scratch: &mut DspScratch,
        window: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<(), EarSonarError> {
        self.estimate_lanes(scratch, [window], [out])
    }

    /// [`ChannelEstimator::estimate_with`] of `L` windows through one
    /// `L`-lane forward and inverse transform; `outs[l]` receives the IR of
    /// `windows[l]`, bit-identical to estimating it alone.
    ///
    /// The Wiener product is formed only on bins `0..=n/2`: the real
    /// inverse reads no others ([`RealFftPlan::inverse_into`]), so the
    /// upper half would be computed for nothing.
    ///
    /// # Errors
    ///
    /// Returns [`EarSonarError::BadRecording`] if any window is empty or
    /// exceeds the prepared FFT size; no output is written then.
    pub fn estimate_lanes<const L: usize>(
        &self,
        scratch: &mut DspScratch,
        windows: [&[f64]; L],
        outs: [&mut Vec<f64>; L],
    ) -> Result<(), EarSonarError> {
        if windows.iter().any(|w| w.is_empty() || w.len() > self.n_fft) {
            return Err(EarSonarError::BadRecording {
                reason: "window length incompatible with channel estimator",
            });
        }
        let plan = RealFftPlan::shared(self.n_fft)?;
        let mut work = scratch.take_frames();
        let mut spec = scratch.take_frames();
        let mut ir = scratch.take_frames();
        let result = (|| {
            plan.forward_lanes(windows, &mut work, &mut spec)?;
            // The Wiener inverse is Hermitian (built from a real template),
            // so the product spectrum stays Hermitian and the real inverse
            // transform applies.
            let bins = split_frames_mut::<L>(&mut spec);
            for (frame, &inv) in bins.iter_mut().zip(&self.inverse[..=self.n_fft / 2]) {
                for l in 0..L {
                    frame.set_lane(l, frame.lane(l) * inv);
                }
            }
            plan.inverse_lanes::<L>(&spec, &mut work, &mut ir)
        })();
        if result.is_ok() {
            let (taps, _) = ir.as_chunks::<L>();
            for (l, out) in outs.into_iter().enumerate() {
                out.clear();
                out.extend(taps[..self.n_taps].iter().map(|frame| frame[l]));
            }
        }
        for buf in [ir, spec, work] {
            scratch.put_frames(buf);
        }
        result.map_err(EarSonarError::from)
    }
}

/// Builds the transmit chirp: the probe band swept in `chirp_len`
/// samples at the configuration's sample rate.
///
/// # Errors
///
/// Propagates [`FmcwChirp::new`] errors for an unrealizable chirp.
pub fn chirp_template(config: &EarSonarConfig) -> Result<Vec<f64>, EarSonarError> {
    let duration = config.chirp_len as f64 / config.sample_rate;
    let chirp = FmcwChirp::new(
        EARSONAR_F0,
        EARSONAR_BANDWIDTH,
        duration,
        config.sample_rate,
    )?;
    Ok(chirp.samples())
}

/// The pipeline's deconvolution template and its channel estimator. The
/// template must look like the direct leak *after* preprocessing, so the
/// transmit chirp, zero-padded to twice its length, runs through the same
/// zero-phase band-pass the recording sees.
///
/// # Errors
///
/// Propagates chirp, band-pass and estimator construction errors.
pub(crate) fn template_and_estimator(
    preprocessor: &Preprocessor,
    config: &EarSonarConfig,
) -> Result<(Vec<f64>, ChannelEstimator), EarSonarError> {
    let mut raw = chirp_template(config)?;
    raw.resize(raw.len() * 2, 0.0);
    let template = preprocessor.run(&raw)?;
    let estimator = pipeline_estimator(&template, config)?;
    Ok((template, estimator))
}

/// Builds the pipeline's channel estimator from its configuration and the
/// preprocessed template.
///
/// # Errors
///
/// Propagates [`ChannelEstimator::new`] errors.
pub fn pipeline_estimator(
    template: &[f64],
    config: &EarSonarConfig,
) -> Result<ChannelEstimator, EarSonarError> {
    ChannelEstimator::new(
        template,
        config.chirp_hop,
        config.ir_taps,
        DECONVOLUTION_EPSILON,
    )
}

/// Coherently averages per-chirp impulse responses (they share the transmit
/// grid, so taps align).
///
/// # Errors
///
/// Returns [`EarSonarError::NoEchoDetected`] for an empty set and
/// [`EarSonarError::BadRecording`] for ragged lengths.
pub fn average_irs(irs: &[Vec<f64>]) -> Result<Vec<f64>, EarSonarError> {
    let first = irs.first().ok_or(EarSonarError::NoEchoDetected)?;
    if irs.iter().any(|ir| ir.len() != first.len()) {
        return Err(EarSonarError::BadRecording {
            reason: "impulse responses have inconsistent lengths",
        });
    }
    Ok(mean_rows(irs.iter().map(Vec::as_slice), first.len()))
}

/// The element-wise mean of `rows`, each `len` long: summed in row order,
/// then divided by the row count. [`average_irs`], the front end's
/// finalize (over its IRs stored end to end) and the detector's
/// state-mean k-means start all average through here.
pub(crate) fn mean_rows<'a>(
    rows: impl ExactSizeIterator<Item = &'a [f64]>,
    len: usize,
) -> Vec<f64> {
    let count = rows.len() as f64;
    let mut acc = vec![0.0; len];
    for row in rows {
        for (a, &v) in acc.iter_mut().zip(row) {
            *a += v;
        }
    }
    for a in &mut acc {
        *a /= count;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn template() -> Vec<f64> {
        FmcwChirp::earsonar().samples()
    }

    fn make(window_len: usize) -> ChannelEstimator {
        ChannelEstimator::new(&template(), window_len, 64, 1e-3).unwrap()
    }

    #[test]
    fn template_matches_chirp_length() {
        assert_eq!(
            chirp_template(&EarSonarConfig::default()).unwrap().len(),
            24
        );
    }

    #[test]
    fn half_spectrum_product_matches_the_full_product_bitwise() {
        // The deconvolution forms the Wiener product only on the bins the
        // real inverse reads; forming it on all of them must give the
        // same taps.
        let est = make(240);
        let plan = RealFftPlan::shared(est.n_fft).unwrap();
        let mut rng = earsonar_dsp::rng::DetRng::seed_from_u64(0xDEC0);
        let (mut work, mut spec, mut ir) = (Vec::new(), Vec::new(), Vec::new());
        let (mut scratch, mut out) = (DspScratch::new(), Vec::new());
        for len in [1usize, 17, 120, 239, 240] {
            let window: Vec<f64> = (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect();
            plan.forward_into(&window, &mut work, &mut spec).unwrap();
            for (z, inv) in spec.iter_mut().zip(&est.inverse) {
                *z *= *inv;
            }
            plan.inverse_into(&spec, &mut work, &mut ir).unwrap();
            est.estimate_with(&mut scratch, &window, &mut out).unwrap();
            assert_eq!(out, ir[..est.n_taps], "window of {len}");
        }
    }

    #[test]
    fn construction_validates() {
        assert!(ChannelEstimator::new(&[], 240, 64, 1e-3).is_err());
        assert!(ChannelEstimator::new(&template(), 240, 0, 1e-3).is_err());
        assert!(ChannelEstimator::new(&template(), 240, 300, 1e-3).is_err());
        assert!(ChannelEstimator::new(&template(), 240, 64, 0.0).is_err());
    }

    #[test]
    fn single_path_ir_peaks_at_its_delay() {
        let t = template();
        let est = make(240);
        let mut window = vec![0.0; 240];
        for (i, &v) in t.iter().enumerate() {
            window[i + 7] += 0.6 * v;
        }
        let ir = est.estimate(&window).unwrap();
        let peak = (0..ir.len())
            .max_by(|&a, &b| ir[a].abs().total_cmp(&ir[b].abs()))
            .unwrap();
        assert_eq!(peak, 7);
        // The estimate is band-limited (the chirp only probes 16-20 kHz),
        // so the tap recovers a band-limited fraction of the gain.
        assert!(ir[7] > 0.25 && ir[7] <= 0.65, "tap {}", ir[7]);
        let far: f64 = ir[30..60].iter().map(|v| v * v).sum();
        assert!(far < 0.05 * ir[7] * ir[7], "far-tap energy {far}");
    }

    #[test]
    fn two_paths_resolve_into_two_taps() {
        let t = template();
        let est = make(240);
        let mut window = vec![0.0; 240];
        for (i, &v) in t.iter().enumerate() {
            window[i + 1] += 0.35 * v;
            window[i + 9] += 0.5 * v;
        }
        let ir = est.estimate(&window).unwrap();
        // Band-limited taps: check the ratio structure, not absolutes.
        assert!(
            ir[9] > ir[1],
            "echo tap {} should exceed direct {}",
            ir[9],
            ir[1]
        );
        assert!(ir[1] > 0.1, "direct tap {}", ir[1]);
        assert!(
            (ir[9] / ir[1] - 0.5 / 0.35).abs() < 0.5,
            "ratio {}",
            ir[9] / ir[1]
        );
    }

    #[test]
    fn ir_energy_is_distance_invariant() {
        // The property the pipeline relies on: moving the echo deeper into
        // the window does not change its IR-domain energy.
        let t = template();
        let est = make(240);
        let mut energies = Vec::new();
        for delay in [6usize, 8, 10] {
            let mut window = vec![0.0; 240];
            for (i, &v) in t.iter().enumerate() {
                window[i + delay] += 0.5 * v;
            }
            let ir = est.estimate(&window).unwrap();
            let e: f64 = ir[delay.saturating_sub(2)..delay + 3]
                .iter()
                .map(|v| v * v)
                .sum();
            energies.push(e);
        }
        let spread = energies.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            - energies.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            spread < 0.05 * energies[0],
            "IR energy varies with delay: {energies:?}"
        );
    }

    #[test]
    fn empty_or_oversized_windows_are_rejected() {
        let est = make(240);
        assert!(est.estimate(&[]).is_err());
        assert!(est.estimate(&vec![0.0; 10_000]).is_err());
    }

    #[test]
    fn averaging_reduces_noise() {
        let t = template();
        let est = make(240);
        // Same path, different noise per chirp.
        let mut irs = Vec::new();
        let mut seed = 123u64;
        let mut rand = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        for _ in 0..16 {
            let mut window = vec![0.0; 240];
            for (i, &v) in t.iter().enumerate() {
                window[i + 7] += 0.5 * v;
            }
            for w in window.iter_mut() {
                *w += 0.05 * rand();
            }
            irs.push(est.estimate(&window).unwrap());
        }
        let avg = average_irs(&irs).unwrap();
        let noise_single: f64 = irs[0][30..60].iter().map(|v| v * v).sum();
        let noise_avg: f64 = avg[30..60].iter().map(|v| v * v).sum();
        assert!(
            noise_avg < 0.3 * noise_single,
            "{noise_avg} vs {noise_single}"
        );
        // The averaged tap matches a single-chirp clean estimate.
        let mut clean = vec![0.0; 240];
        for (i, &v) in t.iter().enumerate() {
            clean[i + 7] += 0.5 * v;
        }
        let reference = est.estimate(&clean).unwrap();
        assert!((avg[7] - reference[7]).abs() < 0.05);
    }

    #[test]
    fn average_irs_validates() {
        assert!(average_irs(&[]).is_err());
        assert!(average_irs(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }
}
