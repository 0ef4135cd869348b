//! Home-monitoring layer: the paper's intended use case (§I, §VIII).
//!
//! The paper positions EarSonar as "a tool for the initial screening of
//! MEE in families": a caregiver measures daily and needs (a) a robust
//! binary *fluid / no fluid* verdict (the clinically actionable question
//! posed by Chan et al.), and (b) a trend over days that smooths out
//! single-measurement noise. This module wraps the four-state detector in
//! both.

use crate::diagnostics::CaptureDiagnostics;
use crate::error::EarSonarError;
use crate::pipeline::EarSonar;
use crate::quality::SessionQuality;
use crate::streaming::ChirpStream;
use earsonar_dsp::plan::DspScratch;
use earsonar_signal::effusion::MeeState;
use earsonar_signal::recording::Recording;
use earsonar_signal::source::SignalSource;

/// The binary screening verdict a caregiver acts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScreeningVerdict {
    /// No effusion detected — the middle ear looks clear.
    Clear,
    /// Effusion detected (any of Serous, Mucoid, Purulent).
    EffusionDetected {
        /// The fine-grained state behind the verdict.
        state: MeeState,
    },
}

impl ScreeningVerdict {
    /// Collapses a four-state prediction into the binary verdict.
    pub fn from_state(state: MeeState) -> ScreeningVerdict {
        match state {
            MeeState::Clear => ScreeningVerdict::Clear,
            other => ScreeningVerdict::EffusionDetected { state: other },
        }
    }

    /// Returns `true` if effusion was detected.
    pub fn has_effusion(&self) -> bool {
        matches!(self, ScreeningVerdict::EffusionDetected { .. })
    }
}

/// Recommendation derived from a screening history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recommendation {
    /// No effusion trend — routine monitoring only.
    AllClear,
    /// Effusion present but improving across measurements.
    Improving,
    /// Effusion persisting without improvement; the paper's clinical
    /// guidance (persistent effusion risks hearing damage) says see a
    /// physician.
    SeekClinicalReview,
    /// Not enough measurements to judge a trend yet.
    InsufficientData,
}

/// Bounded re-measurement policy for quality-gated screening: how many
/// captures to attempt and what a capture must deliver — a quorum of
/// gate-surviving, echo-yielding chirps and a session-confidence floor —
/// before its verdict is trusted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum capture attempts before giving up (at least 1).
    pub max_attempts: usize,
    /// Minimum chirps that must survive the quality gate *and* yield an
    /// impulse response for a capture to be conclusive (at least 1).
    /// The default, 12, is half the paper's 24-chirp session: a capture
    /// that lost half its chirps — to corruption *or* truncation — is
    /// re-measured rather than trusted.
    pub min_accepted_chirps: usize,
    /// Minimum session confidence (accepted-chirp fraction × mean chirp
    /// quality) for a conclusive verdict. Surveyed over the paper's §V
    /// envelope, legitimate sessions stay above ≈ 0.65 even at 65 dB SPL
    /// while walking; faulted sessions that scrape past the chirp quorum
    /// (burst interference is the closest call) land at ≈ 0.5 or below,
    /// so the default floor of 0.6 splits the two populations.
    pub min_confidence: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            min_accepted_chirps: 12,
            min_confidence: 0.6,
        }
    }
}

/// A conclusive quality-annotated screening result.
#[derive(Debug, Clone, PartialEq)]
pub struct ScreeningReport {
    /// The fine-grained effusion state.
    pub state: MeeState,
    /// The binary verdict a caregiver acts on.
    pub verdict: ScreeningVerdict,
    /// Confidence in `[0, 1]`, derived from the accepted-chirp fraction
    /// and the mean chirp quality of the accepted capture.
    pub confidence: f64,
    /// Session quality of the capture behind the verdict.
    pub quality: SessionQuality,
    /// Capture attempts consumed (1 = first try).
    pub attempts: usize,
    /// Capture-level counters across all attempts.
    pub captures: CaptureDiagnostics,
}

/// Why a screening run ended without a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InconclusiveReason {
    /// No attempt reached the accepted-chirp quorum.
    QuorumNotMet {
        /// The quorum the policy demanded.
        needed: usize,
        /// The best usable-chirp count any attempt achieved.
        best_usable: usize,
    },
    /// The source ran dry before the attempt budget was spent.
    SourceExhausted,
    /// Chirps passed the gate but none yielded a usable eardrum echo.
    NoUsableEcho,
    /// The quorum was met but session confidence stayed below the
    /// policy's floor (see [`InconclusiveReport::quality`] for the
    /// numbers behind the call).
    LowConfidence,
}

/// A typed inconclusive result: the screener explicitly declines to
/// answer rather than returning a verdict from junk input.
#[derive(Debug, Clone, PartialEq)]
pub struct InconclusiveReport {
    /// Why no verdict was reached.
    pub reason: InconclusiveReason,
    /// Capture attempts consumed.
    pub attempts: usize,
    /// The best (highest-confidence) session quality any attempt saw,
    /// when at least one capture decoded.
    pub quality: Option<SessionQuality>,
    /// Capture-level counters across all attempts.
    pub captures: CaptureDiagnostics,
}

/// The outcome of a quality-gated screening run.
#[derive(Debug, Clone, PartialEq)]
pub enum ScreeningOutcome {
    /// A trusted, quality-annotated verdict.
    Conclusive(ScreeningReport),
    /// No verdict: the input never met the quality bar.
    Inconclusive(InconclusiveReport),
}

impl ScreeningOutcome {
    /// Returns `true` for a conclusive verdict.
    pub fn is_conclusive(&self) -> bool {
        matches!(self, ScreeningOutcome::Conclusive(_))
    }

    /// The effusion state, when conclusive.
    pub fn state(&self) -> Option<MeeState> {
        match self {
            ScreeningOutcome::Conclusive(r) => Some(r.state),
            ScreeningOutcome::Inconclusive(_) => None,
        }
    }
}

/// Screens one already-captured recording with quality gating, a
/// usable-chirp quorum, and a confidence floor — the single-attempt core
/// of [`screen_with_retry`] and the sequential reference the CLI and the
/// session engine are pinned against (only the policy's quorum and
/// confidence fields apply; `max_attempts` is the caller's business).
///
/// # Errors
///
/// Propagates pipeline errors other than the expected no-echo case,
/// which maps to a typed [`ScreeningOutcome::Inconclusive`].
pub fn screen_recording_quality(
    system: &EarSonar,
    recording: &Recording,
    policy: &RetryPolicy,
) -> Result<ScreeningOutcome, EarSonarError> {
    let mut scratch = DspScratch::new();
    let mut stream = ChirpStream::new(system.front_end());
    stream.push_samples_with(system.front_end(), &mut scratch, &recording.samples)?;
    resolve_stream(system, &mut scratch, stream, policy)
}

/// Resolves a fully fed [`ChirpStream`] into a screening outcome: quorum
/// check, finalize, confidence floor, classify. This is the single
/// decision sequence behind every screening surface — the sequential
/// [`screen_recording_quality`] path and the concurrent session engine
/// both end here, so their verdicts agree by construction, not by test
/// alone.
///
/// The `stream` must have been fed through the same `system`'s front end;
/// `scratch` may be any scratch (it is a pure buffer pool and never
/// changes an output bit).
///
/// # Errors
///
/// Propagates pipeline errors other than the expected no-echo case,
/// which maps to a typed [`ScreeningOutcome::Inconclusive`].
pub fn resolve_stream(
    system: &EarSonar,
    scratch: &mut DspScratch,
    stream: ChirpStream,
    policy: &RetryPolicy,
) -> Result<ScreeningOutcome, EarSonarError> {
    let quorum = policy.min_accepted_chirps.max(1);
    let quality = stream.quality();
    let usable = stream.chirps_used();
    if usable < quorum {
        return Ok(ScreeningOutcome::Inconclusive(InconclusiveReport {
            reason: InconclusiveReason::QuorumNotMet {
                needed: quorum,
                best_usable: usable,
            },
            attempts: 1,
            quality: Some(quality),
            captures: CaptureDiagnostics::default(),
        }));
    }
    let processed = match stream.finish_with(system.front_end(), scratch) {
        Ok(p) => p,
        Err(EarSonarError::NoEchoDetected) => {
            return Ok(ScreeningOutcome::Inconclusive(InconclusiveReport {
                reason: InconclusiveReason::NoUsableEcho,
                attempts: 1,
                quality: Some(quality),
                captures: CaptureDiagnostics::default(),
            }))
        }
        Err(e) => return Err(e),
    };
    let confidence = processed.quality.confidence();
    // Written so that a NaN confidence (or floor) fails the check.
    if !(confidence >= policy.min_confidence) {
        return Ok(ScreeningOutcome::Inconclusive(InconclusiveReport {
            reason: InconclusiveReason::LowConfidence,
            attempts: 1,
            quality: Some(processed.quality),
            captures: CaptureDiagnostics::default(),
        }));
    }
    let state = system.classify(&processed)?;
    Ok(ScreeningOutcome::Conclusive(ScreeningReport {
        state,
        verdict: ScreeningVerdict::from_state(state),
        confidence,
        quality: processed.quality,
        attempts: 1,
        captures: CaptureDiagnostics::default(),
    }))
}

/// Screens through a [`SignalSource`] under a bounded re-measurement
/// policy: capture, gate, and classify; when a capture fails the quorum
/// (too many chirps rejected, no echo, capture error), re-measure up to
/// the attempt budget, then return a typed
/// [`ScreeningOutcome::Inconclusive`] instead of a junk verdict.
///
/// # Errors
///
/// Propagates unexpected pipeline errors; capture failures and low
/// quality are policy outcomes, not errors.
pub fn screen_with_retry(
    system: &EarSonar,
    source: &mut dyn SignalSource,
    policy: &RetryPolicy,
) -> Result<ScreeningOutcome, EarSonarError> {
    let max_attempts = policy.max_attempts.max(1);
    let quorum = policy.min_accepted_chirps.max(1);
    let mut captures = CaptureDiagnostics::default();
    let mut best_quality: Option<SessionQuality> = None;
    let mut best_usable = 0usize;
    let mut saw_no_echo = false;
    let mut saw_low_confidence = false;
    let mut attempts = 0usize;
    while attempts < max_attempts {
        attempts += 1;
        captures.attempted += 1;
        let recording = match source.capture() {
            Ok(Some(r)) => r,
            Ok(None) => {
                return Ok(ScreeningOutcome::Inconclusive(InconclusiveReport {
                    reason: InconclusiveReason::SourceExhausted,
                    attempts,
                    quality: best_quality,
                    captures,
                }))
            }
            Err(e) => {
                captures.record_failure(&e);
                continue;
            }
        };
        captures.succeeded += 1;
        match screen_recording_quality(system, &recording, policy)? {
            ScreeningOutcome::Conclusive(mut report) => {
                report.attempts = attempts;
                report.captures = captures;
                return Ok(ScreeningOutcome::Conclusive(report));
            }
            ScreeningOutcome::Inconclusive(failed) => {
                if let InconclusiveReason::QuorumNotMet { best_usable: u, .. } = failed.reason {
                    best_usable = best_usable.max(u);
                }
                saw_no_echo |= failed.reason == InconclusiveReason::NoUsableEcho;
                if failed.reason == InconclusiveReason::LowConfidence {
                    saw_low_confidence = true;
                    best_usable = best_usable.max(quorum);
                }
                if let Some(q) = failed.quality {
                    let better = match best_quality {
                        None => true,
                        Some(b) => q.confidence() > b.confidence(),
                    };
                    if better {
                        best_quality = Some(q);
                    }
                }
            }
        }
    }
    let reason = if best_usable == 0 && saw_no_echo {
        InconclusiveReason::NoUsableEcho
    } else if saw_low_confidence && best_usable >= quorum {
        InconclusiveReason::LowConfidence
    } else {
        InconclusiveReason::QuorumNotMet {
            needed: quorum,
            best_usable,
        }
    };
    Ok(ScreeningOutcome::Inconclusive(InconclusiveReport {
        reason,
        attempts,
        quality: best_quality,
        captures,
    }))
}

/// A multi-day home-screening tracker over a trained [`EarSonar`] system.
///
/// # Example
///
/// ```no_run
/// # use earsonar::screening::HomeScreening;
/// # use earsonar::{EarSonar, EarSonarConfig};
/// # use earsonar_sim::dataset::{Dataset, DatasetSpec};
/// # use earsonar_sim::cohort::Cohort;
/// # let data = Dataset::build(&Cohort::generate(8, 1), &DatasetSpec::default());
/// let system = EarSonar::fit(&data.sessions, &EarSonarConfig::default()).unwrap();
/// let mut monitor = HomeScreening::new(system);
/// // each morning:
/// // monitor.record(&this_mornings_recording)?;
/// // println!("{:?}", monitor.recommendation());
/// ```
#[derive(Debug, Clone)]
pub struct HomeScreening {
    system: EarSonar,
    history: Vec<MeeState>,
}

impl HomeScreening {
    /// Wraps a trained system with an empty history.
    pub fn new(system: EarSonar) -> HomeScreening {
        HomeScreening {
            system,
            history: Vec::new(),
        }
    }

    /// Screens one recording, appends it to the history, and returns the
    /// binary verdict.
    ///
    /// # Errors
    ///
    /// Propagates pipeline errors; a failed measurement leaves the history
    /// unchanged.
    pub fn record(&mut self, recording: &Recording) -> Result<ScreeningVerdict, EarSonarError> {
        let state = self.system.screen(recording)?;
        self.history.push(state);
        Ok(ScreeningVerdict::from_state(state))
    }

    /// The per-measurement state history, oldest first.
    pub fn history(&self) -> &[MeeState] {
        &self.history
    }

    /// Number of recorded measurements.
    pub fn len(&self) -> usize {
        self.history.len()
    }

    /// Returns `true` if nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }

    /// Majority state over the last `window` measurements — the smoothed
    /// "current state" a caregiver should read. Ties resolve to the less
    /// severe state (screening errs toward re-measurement, not alarm).
    pub fn current_state(&self, window: usize) -> Option<MeeState> {
        if self.history.is_empty() {
            return None;
        }
        let start = self.history.len().saturating_sub(window.max(1));
        let recent = &self.history[start..];
        let mut counts = [0usize; MeeState::COUNT];
        for s in recent {
            counts[s.index()] += 1;
        }
        // `counts` is a fixed-size array, so `max` always exists.
        let best = counts.iter().copied().max().unwrap_or(0);
        (0..MeeState::COUNT)
            .filter(|&k| counts[k] == best)
            .map(MeeState::from_index)
            .next()
    }

    /// Screens the next capture from `source` under a retry policy and
    /// appends the state to the history **only when the outcome is
    /// conclusive** — an inconclusive measurement must not pollute the
    /// trend a caregiver reads.
    ///
    /// # Errors
    ///
    /// Propagates unexpected pipeline errors; inconclusive outcomes are
    /// returned, not raised.
    pub fn record_from_source(
        &mut self,
        source: &mut dyn SignalSource,
        policy: &RetryPolicy,
    ) -> Result<ScreeningOutcome, EarSonarError> {
        let outcome = screen_with_retry(&self.system, source, policy)?;
        if let ScreeningOutcome::Conclusive(report) = &outcome {
            self.history.push(report.state);
        }
        Ok(outcome)
    }

    /// Trend-based recommendation from the full history.
    ///
    /// Requires at least four measurements; compares mean severity over
    /// the first and second half of the history.
    pub fn recommendation(&self) -> Recommendation {
        if self.history.len() < 4 {
            return Recommendation::InsufficientData;
        }
        let sev: Vec<f64> = self.history.iter().map(|s| s.severity() as f64).collect();
        let half = sev.len() / 2;
        let early = sev[..half].iter().sum::<f64>() / half as f64;
        let late = sev[half..].iter().sum::<f64>() / (sev.len() - half) as f64;
        if late < 0.5 {
            Recommendation::AllClear
        } else if late < early - 0.25 {
            Recommendation::Improving
        } else {
            Recommendation::SeekClinicalReview
        }
    }
}

/// Binary (fluid / no fluid) evaluation over four-state predictions — the
/// task Chan et al. solve and the paper's §I framing. Returns
/// `(sensitivity, specificity)` of effusion detection.
pub fn binary_screening_rates(
    actual: &[MeeState],
    predicted: &[MeeState],
) -> Result<(f64, f64), EarSonarError> {
    if actual.len() != predicted.len() || actual.is_empty() {
        return Err(EarSonarError::BadRecording {
            reason: "actual/predicted length mismatch or empty",
        });
    }
    let mut tp = 0usize; // effusion correctly detected
    let mut fn_ = 0usize;
    let mut tn = 0usize;
    let mut fp = 0usize;
    for (&a, &p) in actual.iter().zip(predicted) {
        let a_fluid = a != MeeState::Clear;
        let p_fluid = p != MeeState::Clear;
        match (a_fluid, p_fluid) {
            (true, true) => tp += 1,
            (true, false) => fn_ += 1,
            (false, false) => tn += 1,
            (false, true) => fp += 1,
        }
    }
    let sensitivity = if tp + fn_ == 0 {
        0.0
    } else {
        tp as f64 / (tp + fn_) as f64
    };
    let specificity = if tn + fp == 0 {
        0.0
    } else {
        tn as f64 / (tn + fp) as f64
    };
    Ok((sensitivity, specificity))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EarSonarConfig;
    use earsonar_sim::cohort::Cohort;
    use earsonar_sim::dataset::{Dataset, DatasetSpec};
    use earsonar_sim::session::{RecordSession, Session, SessionConfig};

    fn trained_system() -> EarSonar {
        let data = Dataset::build(&Cohort::generate(8, 3), &DatasetSpec::default());
        EarSonar::fit(&data.sessions, &EarSonarConfig::default()).expect("fit")
    }

    #[test]
    fn verdict_collapses_states() {
        assert_eq!(
            ScreeningVerdict::from_state(MeeState::Clear),
            ScreeningVerdict::Clear
        );
        let v = ScreeningVerdict::from_state(MeeState::Mucoid);
        assert!(v.has_effusion());
        assert!(!ScreeningVerdict::Clear.has_effusion());
    }

    #[test]
    fn monitor_tracks_recovery() {
        let system = trained_system();
        let mut monitor = HomeScreening::new(system);
        assert!(monitor.is_empty());
        assert_eq!(monitor.recommendation(), Recommendation::InsufficientData);

        let cohort = Cohort::generate(6, 55);
        let child = &cohort.patients()[0];
        for day in 0..=child.recovery_day() + 2 {
            let s = Session::record(child, day, &SessionConfig::default(), day as u64);
            let _ = monitor.record(&s.recording);
        }
        assert!(monitor.len() >= 4);
        // At the end of a full recovery the trend must not demand escalation.
        let rec = monitor.recommendation();
        assert!(
            rec == Recommendation::AllClear || rec == Recommendation::Improving,
            "{rec:?} after full recovery (history {:?})",
            monitor.history()
        );
        assert_eq!(monitor.current_state(3), Some(MeeState::Clear));
    }

    #[test]
    fn persistent_effusion_escalates() {
        // Synthesize a stuck history directly.
        let system = trained_system();
        let mut monitor = HomeScreening::new(system);
        monitor.history = vec![MeeState::Mucoid; 8];
        assert_eq!(monitor.recommendation(), Recommendation::SeekClinicalReview);
    }

    #[test]
    fn binary_rates_known_case() {
        use MeeState::*;
        let actual = [Clear, Clear, Mucoid, Purulent, Serous];
        let predicted = [Clear, Mucoid, Mucoid, Purulent, Clear];
        let (sens, spec) = binary_screening_rates(&actual, &predicted).unwrap();
        assert!((sens - 2.0 / 3.0).abs() < 1e-12);
        assert!((spec - 0.5).abs() < 1e-12);
        assert!(binary_screening_rates(&actual, &predicted[..2]).is_err());
        assert!(binary_screening_rates(&[], &[]).is_err());
    }

    #[test]
    fn clean_capture_is_conclusive_on_first_attempt() {
        use earsonar_signal::source::QueueSource;
        let system = trained_system();
        let cohort = Cohort::generate(1, 71);
        let rec = Session::record(&cohort.patients()[0], 0, &SessionConfig::default(), 9).recording;
        let expected = system.screen(&rec).expect("clean screen");

        let mut source = QueueSource::repeating(rec, 3);
        let outcome =
            screen_with_retry(&system, &mut source, &RetryPolicy::default()).expect("retry screen");
        match outcome {
            ScreeningOutcome::Conclusive(report) => {
                assert_eq!(report.state, expected);
                assert_eq!(report.attempts, 1);
                assert_eq!(report.captures.attempted, 1);
                assert_eq!(report.captures.succeeded, 1);
                assert!(report.confidence > 0.5, "confidence {}", report.confidence);
                assert!(report.quality.rejections.is_empty());
            }
            other => panic!("expected conclusive, got {other:?}"),
        }
        assert_eq!(source.remaining(), 2, "retry must stop after success");
    }

    #[test]
    fn corrupt_then_clean_source_recovers_via_retry() {
        use earsonar_signal::source::QueueSource;
        use earsonar_sim::faults::{Fault, FaultInjector, FaultySource};
        let system = trained_system();
        let cohort = Cohort::generate(1, 72);
        let rec = Session::record(&cohort.patients()[0], 0, &SessionConfig::default(), 5).recording;
        let expected = system.screen(&rec).expect("clean screen");

        // First two captures heavily corrupted, third clean: the policy
        // must spend its attempts and land on the clean verdict.
        let injector =
            FaultInjector::new(404).with(Fault::Dropout { severity: 0.9 });
        let mut source =
            FaultySource::corrupt_first(QueueSource::repeating(rec, 3), injector, 2);
        let outcome =
            screen_with_retry(&system, &mut source, &RetryPolicy::default()).expect("retry screen");
        match outcome {
            ScreeningOutcome::Conclusive(report) => {
                assert_eq!(report.state, expected);
                assert_eq!(report.attempts, 3);
                assert_eq!(report.captures.attempted, 3);
                assert_eq!(report.captures.succeeded, 3);
            }
            other => panic!("expected recovery on third attempt, got {other:?}"),
        }
    }

    #[test]
    fn always_corrupt_source_is_inconclusive_not_misclassified() {
        use earsonar_signal::source::QueueSource;
        use earsonar_sim::faults::{Fault, FaultInjector, FaultySource};
        let system = trained_system();
        let cohort = Cohort::generate(1, 73);
        let rec = Session::record(&cohort.patients()[0], 0, &SessionConfig::default(), 5).recording;

        let injector =
            FaultInjector::new(505).with(Fault::Dropout { severity: 0.95 });
        let mut source = FaultySource::new(QueueSource::repeating(rec, 5), injector);
        let outcome =
            screen_with_retry(&system, &mut source, &RetryPolicy::default()).expect("retry screen");
        match outcome {
            ScreeningOutcome::Inconclusive(report) => {
                assert_eq!(report.attempts, 3);
                assert!(matches!(
                    report.reason,
                    InconclusiveReason::QuorumNotMet { needed: 12, .. }
                        | InconclusiveReason::NoUsableEcho
                        | InconclusiveReason::LowConfidence
                ));
                let q = report.quality.expect("captures decoded");
                assert!(!q.rejections.is_empty(), "gate must have fired");
            }
            other => panic!("expected inconclusive, got {other:?}"),
        }
    }

    #[test]
    fn exhausted_source_reports_exhaustion() {
        use earsonar_signal::source::QueueSource;
        let system = trained_system();
        let mut source = QueueSource::new(Vec::new());
        let outcome =
            screen_with_retry(&system, &mut source, &RetryPolicy::default()).expect("retry screen");
        match &outcome {
            ScreeningOutcome::Inconclusive(report) => {
                assert_eq!(report.reason, InconclusiveReason::SourceExhausted);
                assert_eq!(report.attempts, 1);
                assert!(report.quality.is_none());
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
        assert!(!outcome.is_conclusive());
        assert_eq!(outcome.state(), None);
    }

    #[test]
    fn monitor_skips_inconclusive_measurements() {
        use earsonar_signal::source::QueueSource;
        use earsonar_sim::faults::{Fault, FaultInjector, FaultySource};
        let system = trained_system();
        let cohort = Cohort::generate(1, 74);
        let rec = Session::record(&cohort.patients()[0], 0, &SessionConfig::default(), 2).recording;
        let mut monitor = HomeScreening::new(system);

        let injector =
            FaultInjector::new(606).with(Fault::Dropout { severity: 0.95 });
        let mut bad = FaultySource::new(QueueSource::repeating(rec.clone(), 5), injector);
        let outcome = monitor
            .record_from_source(&mut bad, &RetryPolicy::default())
            .expect("screen");
        assert!(!outcome.is_conclusive());
        assert!(monitor.is_empty(), "inconclusive must not enter history");

        let mut good = QueueSource::repeating(rec, 1);
        let outcome = monitor
            .record_from_source(&mut good, &RetryPolicy::default())
            .expect("screen");
        assert!(outcome.is_conclusive());
        assert_eq!(monitor.len(), 1);
    }

    #[test]
    fn current_state_uses_recent_window() {
        let system = trained_system();
        let mut monitor = HomeScreening::new(system);
        monitor.history = vec![
            MeeState::Purulent,
            MeeState::Purulent,
            MeeState::Clear,
            MeeState::Clear,
            MeeState::Clear,
        ];
        assert_eq!(monitor.current_state(3), Some(MeeState::Clear));
        assert_eq!(monitor.current_state(100), Some(MeeState::Clear));
    }
}
