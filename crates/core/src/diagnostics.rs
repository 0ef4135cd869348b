//! Human-readable diagnostics: terminal rendering of what the pipeline
//! sees inside a recording (impulse response, echo spectrum, per-chirp
//! health). Backs the CLI's `inspect` command and debugging sessions.

use crate::absorption::PROFILE_BAND_HZ;
use crate::error::EarSonarError;
use crate::pipeline::{FrontEnd, ProcessedRecording};
use crate::quality::QualityRejections;
use earsonar_signal::recording::Recording;
use earsonar_signal::source::SignalError;
use std::fmt::Write as _;

/// Per-stage counters accumulated while a recording moves through the
/// front end, chirp by chirp. Both the batch path ([`FrontEnd::process`])
/// and the streaming path ([`crate::streaming::ChirpStream`]) fill
/// these in; a healthy quiet-room recording has every counter close to
/// the chirp count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Diagnostics {
    /// Chirp windows handed to the front end.
    pub chirps_pushed: usize,
    /// Windows the signal-quality gate rejected before any processing,
    /// counted per cause (see [`crate::quality`]).
    pub quality_rejections: QualityRejections,
    /// Windows the band-pass preprocessing stage rejected.
    pub filter_failures: usize,
    /// Windows in which the adaptive-energy detector found an event.
    pub events_detected: usize,
    /// Windows that yielded a channel impulse response.
    pub irs_estimated: usize,
    /// Impulse responses that produced a usable echo spectrum.
    pub spectra_computed: usize,
}

impl Diagnostics {
    /// Fraction of pushed chirps that survived to the spectrum stage
    /// (`1.0` when nothing was pushed, so an empty stream reads healthy).
    pub fn yield_fraction(&self) -> f64 {
        if self.chirps_pushed == 0 {
            return 1.0;
        }
        self.spectra_computed as f64 / self.chirps_pushed as f64
    }

    /// Adds another session's counters into this aggregate. Used by the
    /// multi-session engine to report fleet-level stage health (how many
    /// chirps the gate dropped across *all* concurrent streams) without
    /// holding per-session state after a session resolves.
    pub fn merge(&mut self, other: &Diagnostics) {
        self.chirps_pushed += other.chirps_pushed;
        self.quality_rejections.merge(&other.quality_rejections);
        self.filter_failures += other.filter_failures;
        self.events_detected += other.events_detected;
        self.irs_estimated += other.irs_estimated;
        self.spectra_computed += other.spectra_computed;
    }
}

/// Counters over a capture queue: how many captures a screening run
/// attempted, how many decoded into usable recordings, and why the rest
/// were skipped. Filled by the CLI's `screen` capture loop and the
/// retry policy in [`crate::screening`], so skipped files are reported
/// instead of vanishing into log lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CaptureDiagnostics {
    /// Capture attempts made against the source.
    pub attempted: usize,
    /// Captures that decoded into a recording.
    pub succeeded: usize,
    /// Captures rejected by the decoder or a DSP kernel (unreadable or
    /// malformed files).
    pub decode_failures: usize,
    /// Captures whose sample rate did not match the model's layout.
    pub rate_mismatches: usize,
    /// Captures too short (or otherwise unfit) for the chirp layout.
    pub layout_failures: usize,
    /// Backend-level capture failures (I/O, device, protocol).
    pub source_failures: usize,
}

impl CaptureDiagnostics {
    /// Captures that failed, across all causes.
    pub fn failed(&self) -> usize {
        self.decode_failures + self.rate_mismatches + self.layout_failures + self.source_failures
    }

    /// Counts one failed capture under its cause.
    pub fn record_failure(&mut self, error: &SignalError) {
        match error {
            SignalError::Dsp(_) => self.decode_failures += 1,
            SignalError::RateMismatch { .. } => self.rate_mismatches += 1,
            SignalError::BadLayout { .. } => self.layout_failures += 1,
            _ => self.source_failures += 1,
        }
    }

    /// One-line summary for CLI output, e.g.
    /// `5 attempted, 3 screened, 2 skipped (1 decode, 1 rate mismatch)`.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "{} attempted, {} screened, {} skipped",
            self.attempted,
            self.succeeded,
            self.failed()
        );
        if self.failed() > 0 {
            let mut causes: Vec<String> = Vec::new();
            for (count, label) in [
                (self.decode_failures, "decode"),
                (self.rate_mismatches, "rate mismatch"),
                (self.layout_failures, "layout"),
                (self.source_failures, "source"),
            ] {
                if count > 0 {
                    causes.push(format!("{count} {label}"));
                }
            }
            let _ = write!(out, " ({})", causes.join(", "));
        }
        out
    }
}

/// Unicode sparkline of a sequence (8 levels). Empty input gives an empty
/// string; constant input renders at the lowest level.
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    values
        .iter()
        .map(|&v| {
            let t = ((v - lo) / span * 7.0).round().clamp(0.0, 7.0) as usize;
            BARS[t]
        })
        .collect()
}

/// Downsamples a sequence to at most `width` points (max-pooling, so peaks
/// survive) for terminal display.
pub fn downsample_for_display(values: &[f64], width: usize) -> Vec<f64> {
    if values.is_empty() || width == 0 {
        return Vec::new();
    }
    if values.len() <= width {
        return values.to_vec();
    }
    (0..width)
        .map(|i| {
            let lo = i * values.len() / width;
            let hi = ((i + 1) * values.len() / width).max(lo + 1);
            values[lo..hi]
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        })
        .collect()
}

/// A full textual inspection report of one recording.
///
/// # Errors
///
/// Propagates front-end processing errors.
pub fn inspect_recording(
    front_end: &FrontEnd,
    recording: &Recording,
) -> Result<String, EarSonarError> {
    let processed = front_end.process(recording)?;
    Ok(render_report(recording, &processed, front_end))
}

fn render_report(recording: &Recording, p: &ProcessedRecording, front_end: &FrontEnd) -> String {
    let mut out = String::new();
    let cfg = front_end.config();
    let _ = writeln!(
        out,
        "recording: {:.0} ms at {:.0} Hz, {} chirps ({} analysed)",
        recording.duration_s() * 1e3,
        recording.sample_rate,
        recording.n_chirps,
        p.chirps_used
    );

    // Waveform envelope.
    let envelope: Vec<f64> = recording.samples.iter().map(|v| v.abs()).collect();
    let _ = writeln!(
        out,
        "waveform  |{}|",
        sparkline(&downsample_for_display(&envelope, 64))
    );

    // Echo spectrum across the profile band.
    let _ = writeln!(
        out,
        "echo band |{}|  {:.1}-{:.1} kHz",
        sparkline(&p.spectrum.profile),
        PROFILE_BAND_HZ.0 / 1e3,
        PROFILE_BAND_HZ.1 / 1e3
    );
    if let Some(dip) = p.spectrum.dip_frequency() {
        let _ = writeln!(
            out,
            "acoustic dip at {:.2} kHz, band power {:.4}",
            dip / 1e3,
            p.spectrum.band_power
        );
    }
    if let Some(echo) = p.echoes.first() {
        let _ = writeln!(
            out,
            "eardrum echo: delay {} samples ≈ {:.1} mm, parity ratio {:.2}{}",
            echo.delay_samples(),
            echo.distance_m(cfg.sample_rate) * 1e3,
            echo.energy_ratio,
            if echo.from_symmetry {
                ""
            } else {
                " (prior fallback)"
            }
        );
    }
    let d = &p.diagnostics;
    let _ = writeln!(
        out,
        "stages    pushed {} | quality drops {} | filter drops {} | events {} | irs {} | spectra {} ({:.0}% yield)",
        d.chirps_pushed,
        d.quality_rejections.total(),
        d.filter_failures,
        d.events_detected,
        d.irs_estimated,
        d.spectra_computed,
        d.yield_fraction() * 100.0
    );
    let _ = writeln!(
        out,
        "quality   {}/{} chirps accepted, mean score {:.2}, confidence {:.2}",
        p.quality.chirps_accepted,
        p.quality.chirps_pushed,
        p.quality.mean_quality,
        p.quality.confidence()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EarSonarConfig;
    use earsonar_sim::cohort::Cohort;
    use earsonar_sim::session::{RecordSession, Session, SessionConfig};

    #[test]
    fn sparkline_shapes() {
        assert_eq!(sparkline(&[]), "");
        let s = sparkline(&[0.0, 1.0]);
        assert_eq!(s.chars().count(), 2);
        assert_eq!(s.chars().next(), Some('▁'));
        assert_eq!(s.chars().last(), Some('█'));
        // Constant input stays at the floor without NaN.
        assert_eq!(sparkline(&[5.0, 5.0, 5.0]).chars().count(), 3);
    }

    #[test]
    fn downsample_preserves_peaks() {
        let mut x = vec![0.0; 1000];
        x[503] = 9.0;
        let d = downsample_for_display(&x, 50);
        assert_eq!(d.len(), 50);
        assert!(d.contains(&9.0), "peak lost");
        assert!(downsample_for_display(&[], 10).is_empty());
        assert!(downsample_for_display(&[1.0], 0).is_empty());
        assert_eq!(downsample_for_display(&[1.0, 2.0], 10), vec![1.0, 2.0]);
    }

    #[test]
    fn merge_sums_every_counter() {
        let mut a = Diagnostics {
            chirps_pushed: 10,
            filter_failures: 1,
            events_detected: 8,
            irs_estimated: 7,
            spectra_computed: 6,
            ..Diagnostics::default()
        };
        a.quality_rejections.clipping = 2;
        let mut b = Diagnostics {
            chirps_pushed: 5,
            irs_estimated: 4,
            ..Diagnostics::default()
        };
        b.quality_rejections.dropout = 1;
        a.merge(&b);
        assert_eq!(a.chirps_pushed, 15);
        assert_eq!(a.irs_estimated, 11);
        assert_eq!(a.quality_rejections.clipping, 2);
        assert_eq!(a.quality_rejections.dropout, 1);
        assert_eq!(a.quality_rejections.total(), 3);
    }

    #[test]
    fn inspection_report_mentions_key_quantities() {
        let cohort = Cohort::generate(1, 3);
        let session = Session::record(&cohort.patients()[0], 0, &SessionConfig::default(), 0);
        let fe = FrontEnd::new(&EarSonarConfig::default()).unwrap();
        let report = inspect_recording(&fe, &session.recording).unwrap();
        assert!(report.contains("recording:"));
        assert!(report.contains("echo band"));
        assert!(report.contains("eardrum echo"));
        assert!(report.contains("kHz"));
    }
}
