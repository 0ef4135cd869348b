//! Per-chirp signal-quality scoring and gating.
//!
//! The clinical pipeline (§V) survives calibrated confounders — ambient
//! noise, wearing error, motion — but a deployed screener also sees
//! *broken* input: clipped converters, dropped capture buffers, burst
//! interference, an earbud pulled mid-session. Classifying such samples
//! produces a confident wrong verdict. This module measures each raw
//! chirp window before any processing touches it and gates windows that
//! fail hard thresholds:
//!
//! * **clipping fraction** — share of samples pinned at the window's AC
//!   peak (converter saturation),
//! * **dropout fraction** — longest flat-line run relative to the window
//!   length (dropped buffers read as constant samples, even under DC
//!   bias),
//! * **per-chirp SNR** — active-region power against a running
//!   inter-chirp gap noise floor (burst interference, out-of-ear
//!   captures),
//! * **chirp-to-chirp correlation** — zero-lag correlation with the
//!   previous window; successive echoes of a still ear are nearly
//!   identical, so decorrelation flags motion or intermittent capture,
//! * **DC fraction** — how much of the window's energy is a constant
//!   offset (biased microphones; the band-pass removes moderate bias, so
//!   the gate is deliberately lenient here).
//!
//! Accepted windows are passed on numerically untouched — a session in
//! which nothing is rejected produces **bit-identical** features with the
//! gate on or off. Scores aggregate into a [`SessionQuality`] whose
//! [`SessionQuality::confidence`] annotates every screening verdict, and
//! each score is *monotone in corruption*: strictly more corruption at a
//! fixed seed never raises a chirp's score (see
//! `tests/quality_monotonicity.rs`).

/// Values below this count as numerically zero in the quality metrics.
const TINY: f64 = 1e-30;
/// Samples within this relative distance of the window's AC peak count as
/// clipped.
const CLIP_RAIL: f64 = 0.985;
/// Sample-to-sample difference below which a run counts as flat-lined.
const FLAT_EPS: f64 = 1e-12;
/// SNR clamp range in dB: keeps degenerate windows finite and the score
/// map well-conditioned.
const SNR_CLAMP_DB: f64 = 60.0;
/// Width of the SNR score ramp above the gate threshold, in dB.
const SNR_RAMP_DB: f64 = 20.0;

// The gate's thresholds. Each is calibrated against two surveyed
// populations: legitimate sessions across the paper's §V robustness
// envelope (45–70 dB SPL ambient × all four motion states, 12 patients × 4
// days each) and the `earsonar_sim::faults` injectors at severities ≥ 0.5
// on a clean base session. The gate must pass all of the former (the
// paper reports degraded accuracy there, not failure) while catching the
// latter. They are deliberately permissive: a clean simulated session at
// the paper's conditions rejects *nothing* (features stay bit-identical to
// an ungated run).

/// Reject a window when more than this fraction of its samples sits at
/// the AC peak rail.
///
/// Legitimate sessions peak at ~2.1% of a window within 1.5% of the AC
/// peak (5 of 240 samples; the probe chirp is only 24 of those 240), while
/// a clipped excitation pins 10+ samples on the rail even at severity 0.5
/// (≥ 5.4%), because every overdriven sample lands exactly there.
pub const MAX_CLIP_FRACTION: f64 = 0.04;
/// Reject a window when its longest flat-line run exceeds this fraction
/// of the window.
pub const MAX_DROPOUT_FRACTION: f64 = 0.35;
/// Reject a window whose active-region SNR against the running gap noise
/// floor falls below this many dB.
///
/// Raw-window SNR in a legitimate 70 dB SPL room bottoms out near −4 dB
/// (the probe is simply quieter than the room; matched filtering
/// downstream still recovers the echo). Burst interference instead drags
/// windows below −8 dB by inflating the gap noise floor.
pub const MIN_SNR_DB: f64 = -8.0;
/// Reject a window whose zero-lag correlation with the previous window
/// falls below this.
///
/// Body motion legitimately decorrelates successive raw windows as far as
/// −0.94 even in a quiet room, so the hard gate only rejects near-perfect
/// inversion (a sign-flipped capture path); motion detection lives in the
/// *score*, where low correlation drags confidence down instead of
/// discarding the chirp.
pub const MIN_CORRELATION: f64 = -0.99;
/// Reject a window when more than this fraction of its energy scale is a
/// constant offset.
pub const MAX_DC_FRACTION: f64 = 0.97;

// `ChirpQuality::score` divides by each maximum and by
// `1 - MIN_CORRELATION`, so these ranges keep every subscore finite.
const _: () = {
    assert!(MAX_CLIP_FRACTION > 0.0 && MAX_CLIP_FRACTION <= 1.0);
    assert!(MAX_DROPOUT_FRACTION > 0.0 && MAX_DROPOUT_FRACTION <= 1.0);
    assert!(MIN_SNR_DB.is_finite());
    assert!(MIN_CORRELATION >= -1.0 && MIN_CORRELATION < 1.0);
    assert!(MAX_DC_FRACTION > 0.0 && MAX_DC_FRACTION <= 1.0);
};

/// The master switch for per-chirp quality gating; the thresholds are
/// this module's constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityGateConfig {
    /// `false` scores every chirp as `1.0` and rejects nothing.
    pub enabled: bool,
}

impl Default for QualityGateConfig {
    fn default() -> Self {
        QualityGateConfig { enabled: true }
    }
}

/// Why the gate rejected a chirp window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QualityCause {
    /// Too many samples pinned at the converter rail.
    Clipping,
    /// A flat-line run too long to be signal (dropped capture buffers).
    Dropout,
    /// Active-region power indistinguishable from the gap noise floor.
    LowSnr,
    /// The echo decorrelated from the previous chirp (motion, intermittent
    /// capture).
    LowCorrelation,
    /// The window is dominated by a constant offset.
    DcOffset,
    /// The window holds a NaN or an infinity — a broken capture path, not
    /// an acoustic condition. Every gate comparison is false for NaN, so
    /// this is checked before anything else measures the window.
    NonFinite,
}

impl QualityCause {
    /// Short stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            QualityCause::Clipping => "clipping",
            QualityCause::Dropout => "dropout",
            QualityCause::LowSnr => "low-snr",
            QualityCause::LowCorrelation => "low-correlation",
            QualityCause::DcOffset => "dc-offset",
            QualityCause::NonFinite => "non-finite",
        }
    }
}

/// Per-cause counters of gate rejections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QualityRejections {
    /// Windows rejected for clipping.
    pub clipping: usize,
    /// Windows rejected for flat-line dropouts.
    pub dropout: usize,
    /// Windows rejected for low SNR.
    pub low_snr: usize,
    /// Windows rejected for chirp-to-chirp decorrelation.
    pub low_correlation: usize,
    /// Windows rejected for DC dominance.
    pub dc_offset: usize,
    /// Windows rejected for holding a NaN or an infinity.
    pub non_finite: usize,
}

impl QualityRejections {
    /// Total rejected windows across all causes.
    pub fn total(&self) -> usize {
        self.clipping
            + self.dropout
            + self.low_snr
            + self.low_correlation
            + self.dc_offset
            + self.non_finite
    }

    /// Returns `true` when nothing was rejected.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// Adds another session's rejection counters into this aggregate
    /// (cause by cause), for fleet-level diagnostics.
    pub fn merge(&mut self, other: &QualityRejections) {
        self.clipping += other.clipping;
        self.dropout += other.dropout;
        self.low_snr += other.low_snr;
        self.low_correlation += other.low_correlation;
        self.dc_offset += other.dc_offset;
        self.non_finite += other.non_finite;
    }

    /// Compact per-cause listing for reports, e.g. `2 clipping, 1 low-snr`;
    /// empty when nothing was rejected.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (count, name) in [
            (self.clipping, "clipping"),
            (self.dropout, "dropout"),
            (self.low_snr, "low-snr"),
            (self.low_correlation, "low-correlation"),
            (self.dc_offset, "dc-offset"),
            (self.non_finite, "non-finite"),
        ] {
            if count > 0 {
                if !out.is_empty() {
                    out.push_str(", ");
                }
                out.push_str(&format!("{count} {name}"));
            }
        }
        out
    }

    /// Counts one rejection under its cause.
    pub fn record(&mut self, cause: QualityCause) {
        match cause {
            QualityCause::Clipping => self.clipping += 1,
            QualityCause::Dropout => self.dropout += 1,
            QualityCause::LowSnr => self.low_snr += 1,
            QualityCause::LowCorrelation => self.low_correlation += 1,
            QualityCause::DcOffset => self.dc_offset += 1,
            QualityCause::NonFinite => self.non_finite += 1,
        }
    }
}

/// Running inter-chirp gap noise-power estimate, accumulated across the
/// windows of one session. Chirp `c` sees the floor of gaps `0..=c` —
/// causal, so the batch and streaming paths agree bit-for-bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoiseFloor {
    gap_power_sum: f64,
    gap_len: usize,
}

impl NoiseFloor {
    /// Folds one window's gap-region power sum over `len` samples into
    /// the running estimate.
    pub fn observe(&mut self, power_sum: f64, len: usize) {
        self.gap_power_sum += power_sum;
        self.gap_len += len;
    }

    /// Mean gap power per sample, or `None` before any gap was seen.
    pub fn mean(&self) -> Option<f64> {
        if self.gap_len == 0 {
            None
        } else {
            Some(self.gap_power_sum / self.gap_len as f64)
        }
    }
}

/// The measured quality metrics of one raw chirp window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChirpQuality {
    /// Fraction of samples pinned at the window's AC peak.
    pub clip_fraction: f64,
    /// Longest flat-line run over the window length.
    pub dropout_fraction: f64,
    /// Active-region power over the running gap noise floor, in dB
    /// (clamped to ±60).
    pub snr_db: f64,
    /// Zero-lag correlation with the previous pushed window (`1.0` when
    /// no previous window exists or either window is degenerate).
    pub correlation: f64,
    /// Constant-offset share of the window's amplitude scale.
    pub dc_fraction: f64,
}

#[inline]
fn clamp01(x: f64) -> f64 {
    x.clamp(0.0, 1.0)
}

impl ChirpQuality {
    /// Scalar quality in `[0, 1]`: each metric maps to a clamped linear
    /// subscore against its gate threshold; the dropout subscore
    /// multiplies the mean of the others so a dead window scores zero.
    ///
    /// Monotone: raising any corruption metric never raises the score.
    /// The thresholds are this module's constants; `_cfg` is unread.
    pub fn score(&self, _cfg: &QualityGateConfig) -> f64 {
        let clip = 1.0 - clamp01(self.clip_fraction / MAX_CLIP_FRACTION);
        let dropout = 1.0 - clamp01(self.dropout_fraction / MAX_DROPOUT_FRACTION);
        let snr = clamp01((self.snr_db - MIN_SNR_DB) / SNR_RAMP_DB);
        let corr = clamp01((self.correlation - MIN_CORRELATION) / (1.0 - MIN_CORRELATION));
        let dc = 1.0 - clamp01(self.dc_fraction / MAX_DC_FRACTION);
        dropout * (clip + snr + corr + dc) / 4.0
    }

    /// The gate decision: the first hard threshold this window violates,
    /// or `None` when the window is acceptable. `_cfg` is unread.
    pub fn gate(&self, _cfg: &QualityGateConfig) -> Option<QualityCause> {
        if self.dropout_fraction > MAX_DROPOUT_FRACTION {
            return Some(QualityCause::Dropout);
        }
        // DC before clipping: the clip metric reads the mean-removed
        // residual, which diagnoses nothing useful once a constant offset
        // carries almost all of the window's scale.
        if self.dc_fraction > MAX_DC_FRACTION {
            return Some(QualityCause::DcOffset);
        }
        if self.clip_fraction > MAX_CLIP_FRACTION {
            return Some(QualityCause::Clipping);
        }
        if self.snr_db < MIN_SNR_DB {
            return Some(QualityCause::LowSnr);
        }
        if self.correlation < MIN_CORRELATION {
            return Some(QualityCause::LowCorrelation);
        }
        None
    }
}

/// Measures one raw chirp window against the previous pushed window and
/// the running gap noise floor (which it also updates with this window's
/// own gap, keeping the estimate causal and path-independent).
///
/// `active_len` is how many leading samples hold the chirp and its echoes
/// (the pipeline passes `chirp_len + ir_taps`); the remainder of the
/// window is the inter-chirp gap used for the noise floor.
///
/// One strict-order pass over the window, with single accumulators: at
/// the pipeline's 240-sample windows a four-lane split of these scans
/// did not beat the run-to-run spread of its timing.
pub fn measure_window(
    window: &[f64],
    prev: &[f64],
    floor: &mut NoiseFloor,
    active_len: usize,
) -> ChirpQuality {
    let n = window.len();
    if n == 0 {
        return ChirpQuality {
            clip_fraction: 0.0,
            dropout_fraction: 1.0,
            snr_db: -SNR_CLAMP_DB,
            correlation: 1.0,
            dc_fraction: 0.0,
        };
    }
    let nf = n as f64;
    // The window's and the reference's ordered sums over the `m` samples
    // both cover, in one pass (two independent chains, each from -0.0 as
    // `Sum` starts), then the window's sum continued over its tail. When
    // `m == n`, as for a session's equal-length windows after the first,
    // the correlation's window mean is this mean, not a second pass.
    let m = n.min(prev.len());
    let (head_sum, prev_sum) = window[..m]
        .iter()
        .zip(&prev[..m])
        .fold((-0.0, -0.0), |(s, t), (&a, &b)| (s + a, t + b));
    let mean = window[m..].iter().fold(head_sum, |s, &a| s + a) / nf;

    // One pass: AC peak and energy, active/gap power split, longest
    // flat-line run (constant-value, so dropped buffers are caught even
    // under DC bias).
    let active_n = active_len.min(n);
    let mut peak_ac = 0.0f64;
    let mut ac_energy = 0.0f64;
    let mut active_power = 0.0f64;
    let mut gap_power = 0.0f64;
    let mut longest_run = 1usize;
    let mut run = 1usize;
    let mut prev_x = f64::NAN;
    for (i, &x) in window.iter().enumerate() {
        let d = x - mean;
        let dd = d * d;
        ac_energy += dd;
        if d.abs() > peak_ac {
            peak_ac = d.abs();
        }
        if i < active_n {
            active_power += dd;
        } else {
            gap_power += dd;
        }
        if i > 0 && (x - prev_x).abs() <= FLAT_EPS {
            run += 1;
            if run > longest_run {
                longest_run = run;
            }
        } else {
            run = 1;
        }
        prev_x = x;
    }
    let dropout_fraction = longest_run as f64 / nf;

    let clip_fraction = if peak_ac <= FLAT_EPS {
        // A dead-flat window has no converter rail to pin against; the
        // dropout metric owns that failure mode.
        0.0
    } else {
        let rail = CLIP_RAIL * peak_ac;
        window.iter().filter(|&&x| (x - mean).abs() >= rail).count() as f64 / nf
    };

    // The floor includes this window's own gap before the ratio is taken,
    // so the very first window still gets a meaningful SNR.
    floor.observe(gap_power, n - active_n);
    let active_mean_power = active_power / active_n.max(1) as f64;
    let snr_db = match floor.mean() {
        Some(f) if f > TINY => {
            (10.0 * (active_mean_power / f).log10()).clamp(-SNR_CLAMP_DB, SNR_CLAMP_DB)
        }
        _ => {
            if active_mean_power > TINY {
                SNR_CLAMP_DB
            } else {
                0.0
            }
        }
    };

    let correlation = if m == 0 {
        1.0
    } else {
        let ma = head_sum / m as f64;
        let mb = prev_sum / m as f64;
        let mut cov = 0.0f64;
        let mut va = 0.0f64;
        let mut vb = 0.0f64;
        for (&a, &b) in window[..m].iter().zip(&prev[..m]) {
            let da = a - ma;
            let db = b - mb;
            cov += da * db;
            va += da * da;
            vb += db * db;
        }
        if va <= TINY || vb <= TINY {
            // A degenerate window on either side carries no echo to
            // compare; stay neutral and let the other metrics decide.
            1.0
        } else {
            (cov / (va * vb).sqrt()).clamp(-1.0, 1.0)
        }
    };

    let ac_rms = (ac_energy / nf).sqrt();
    let dc_fraction = mean.abs() / (mean.abs() + ac_rms + TINY);

    ChirpQuality {
        clip_fraction,
        dropout_fraction,
        snr_db,
        correlation,
        dc_fraction,
    }
}

/// Session-level quality aggregated over every pushed chirp window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionQuality {
    /// Chirp windows handed to the front end.
    pub chirps_pushed: usize,
    /// Windows the gate accepted (everything pushed, when the gate is
    /// disabled).
    pub chirps_accepted: usize,
    /// Mean per-chirp quality score over every pushed window (`1.0` when
    /// nothing was pushed or the gate is disabled).
    pub mean_quality: f64,
    /// Per-cause rejection counters.
    pub rejections: QualityRejections,
}

impl SessionQuality {
    /// Fraction of pushed windows the gate accepted (`1.0` when nothing
    /// was pushed).
    pub fn accepted_fraction(&self) -> f64 {
        if self.chirps_pushed == 0 {
            return 1.0;
        }
        self.chirps_accepted as f64 / self.chirps_pushed as f64
    }

    /// Screening confidence in `[0, 1]`: the accepted fraction weighted
    /// by the mean chirp quality. Both factors fall (never rise) under
    /// added corruption, so confidence is monotone too.
    ///
    /// Zero when any window held a non-finite sample: that capture came
    /// through a broken path, so none of it is trusted, and a screening
    /// ends `Inconclusive` rather than in a class. Never NaN.
    pub fn confidence(&self) -> f64 {
        let c = self.accepted_fraction() * self.mean_quality;
        if self.rejections.non_finite > 0 || c.is_nan() {
            return 0.0;
        }
        clamp01(c)
    }
}

impl Default for SessionQuality {
    fn default() -> Self {
        SessionQuality {
            chirps_pushed: 0,
            chirps_accepted: 0,
            mean_quality: 1.0,
            rejections: QualityRejections::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn default_gate() -> QualityGateConfig {
        QualityGateConfig::default()
    }

    #[test]
    fn dead_window_is_a_full_dropout() {
        let mut floor = NoiseFloor::default();
        let q = measure_window(&[0.0; 240], &[], &mut floor, 120);
        assert_eq!(q.dropout_fraction, 1.0);
        assert_eq!(q.clip_fraction, 0.0);
        assert_eq!(q.gate(&default_gate()), Some(QualityCause::Dropout));
        assert!(q.score(&default_gate()) < 0.1);
    }

    #[test]
    fn clipped_window_is_caught() {
        // A saturated square-ish wave: half the samples at each rail.
        let window: Vec<f64> = (0..240)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let mut floor = NoiseFloor::default();
        let q = measure_window(&window, &[], &mut floor, 120);
        assert!(q.clip_fraction > 0.9, "clip fraction {}", q.clip_fraction);
        assert_eq!(q.gate(&default_gate()), Some(QualityCause::Clipping));
    }

    #[test]
    fn dc_dominated_window_is_caught() {
        let window: Vec<f64> = (0..240).map(|i| 10.0 + 1e-4 * (i as f64).sin()).collect();
        let mut floor = NoiseFloor::default();
        let q = measure_window(&window, &[], &mut floor, 120);
        assert!(q.dc_fraction > 0.99, "dc fraction {}", q.dc_fraction);
        assert_eq!(q.gate(&default_gate()), Some(QualityCause::DcOffset));
    }

    #[test]
    fn gapless_noise_floor_stays_neutral() {
        // active_len >= window length: no gap samples ever observed.
        let window: Vec<f64> = (0..64).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut floor = NoiseFloor::default();
        let q = measure_window(&window, &[], &mut floor, 64);
        assert!(floor.mean().is_none());
        assert_eq!(q.snr_db, SNR_CLAMP_DB);
    }

    #[test]
    fn decorrelated_window_is_caught() {
        // Loud tone over the active region, quiet (but non-constant) gap,
        // so only the correlation check can fire.
        let a: Vec<f64> = (0..240)
            .map(|i| {
                if i < 120 {
                    (i as f64 * 0.5).sin()
                } else {
                    1e-3 * (i as f64 * 1.3).sin()
                }
            })
            .collect();
        // An anticorrelated successor.
        let b: Vec<f64> = a.iter().map(|x| -x).collect();
        let mut floor = NoiseFloor::default();
        let _ = measure_window(&a, &[], &mut floor, 120);
        let q = measure_window(&b, &a, &mut floor, 120);
        assert!(q.correlation < -0.9);
        assert_eq!(q.gate(&default_gate()), Some(QualityCause::LowCorrelation));
        // An identical successor is perfectly correlated.
        let q2 = measure_window(&a, &a, &mut floor, 120);
        assert!(q2.correlation > 0.99);
    }

    #[test]
    fn dyadic_square_wave_metrics_are_exact() {
        // An offset square wave: ±1.25 about 0.5 over 12 active samples,
        // ±0.125 over a 244-sample gap. Every sample, sum and square is a
        // short dyadic fraction, so each metric has an exact closed form:
        // mean 0.5, AC energy 12 × 1.5625 + 244 / 64 = 4.75², active over
        // gap mean power exactly 100.
        let window: Vec<f64> = (0..256)
            .map(|i| {
                let swing = if i < 12 { 1.25 } else { 0.125 };
                if i % 2 == 0 {
                    0.5 + swing
                } else {
                    0.5 - swing
                }
            })
            .collect();
        let negated: Vec<f64> = window.iter().map(|x| -x).collect();
        let mut floor = NoiseFloor::default();
        for (prev, correlation) in [(&negated, -1.0), (&window, 1.0)] {
            let q = measure_window(&window, prev, &mut floor, 12);
            // Only the 12 active samples reach the 0.985 × 1.25 rail.
            assert_eq!(q.clip_fraction, 12.0 / 256.0);
            // No two neighbours are equal: the longest flat run is one.
            assert_eq!(q.dropout_fraction, 1.0 / 256.0);
            assert_eq!(q.snr_db, 20.0);
            assert_eq!(q.correlation, correlation);
            // |mean| / (|mean| + AC rms) with AC rms 4.75 / 16.
            assert_eq!(q.dc_fraction, 32.0 / 51.0);
        }
        assert_eq!(floor.mean(), Some(1.0 / 64.0));
    }

    #[test]
    fn score_is_monotone_in_each_metric() {
        let cfg = default_gate();
        let base = ChirpQuality {
            clip_fraction: 0.01,
            dropout_fraction: 0.02,
            snr_db: 20.0,
            correlation: 0.9,
            dc_fraction: 0.05,
        };
        let s0 = base.score(&cfg);
        for worse in [
            ChirpQuality {
                clip_fraction: 0.5,
                ..base
            },
            ChirpQuality {
                dropout_fraction: 0.8,
                ..base
            },
            ChirpQuality {
                snr_db: -10.0,
                ..base
            },
            ChirpQuality {
                correlation: -0.5,
                ..base
            },
            ChirpQuality {
                dc_fraction: 0.99,
                ..base
            },
        ] {
            assert!(worse.score(&cfg) <= s0 + 1e-12);
        }
        assert!((0.0..=1.0).contains(&s0));
    }

    #[test]
    fn rejections_count_by_cause() {
        let mut r = QualityRejections::default();
        assert!(r.is_empty());
        r.record(QualityCause::Clipping);
        r.record(QualityCause::Clipping);
        r.record(QualityCause::LowSnr);
        assert_eq!(r.clipping, 2);
        assert_eq!(r.low_snr, 1);
        assert_eq!(r.total(), 3);
        assert!(!r.is_empty());
        assert_eq!(QualityCause::Dropout.name(), "dropout");
    }

    #[test]
    fn session_confidence_combines_acceptance_and_score() {
        let q = SessionQuality {
            chirps_pushed: 10,
            chirps_accepted: 5,
            mean_quality: 0.8,
            rejections: QualityRejections::default(),
        };
        assert!((q.accepted_fraction() - 0.5).abs() < 1e-12);
        assert!((q.confidence() - 0.4).abs() < 1e-12);
        let empty = SessionQuality::default();
        assert_eq!(empty.accepted_fraction(), 1.0);
        assert_eq!(empty.confidence(), 1.0);
    }
}
