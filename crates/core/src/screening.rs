//! Home-monitoring layer: the paper's intended use case (§I, §VIII).
//!
//! The paper positions EarSonar as "a tool for the initial screening of
//! MEE in families": a caregiver measures at home and needs a robust
//! binary *fluid / no fluid* verdict (the clinically actionable question
//! posed by Chan et al.). This module wraps the four-state detector in
//! that verdict and in bounded, quality-gated re-measurement that ends
//! either conclusive or with a typed `Inconclusive` reason.

use crate::diagnostics::CaptureDiagnostics;
use crate::error::EarSonarError;
use crate::pipeline::EarSonar;
use crate::quality::SessionQuality;
use crate::streaming::ChirpStream;
use earsonar_dsp::plan::DspScratch;
use earsonar_ml::metrics::ConfusionMatrix;
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
/// Returns [`EarSonarError::BadRecording`] for a recording laid out for
/// another sample rate or chirp grid than the model's. Propagates
/// pipeline errors other than the expected no-echo case, which maps to a
/// typed [`ScreeningOutcome::Inconclusive`].
pub fn screen_recording_quality(
    system: &EarSonar,
    recording: &Recording,
    policy: &RetryPolicy,
) -> Result<ScreeningOutcome, EarSonarError> {
    system.front_end().check_layout(recording)?;
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

/// Binary (fluid / no fluid) evaluation of a four-state confusion matrix
/// (`counts[actual][predicted]`, indexed by [`MeeState::index`]) — the task
/// Chan et al. solve and the paper's §I framing. Returns
/// `(sensitivity, specificity)` of effusion detection; a rate with no
/// samples behind it reads 0.
pub fn binary_screening_rates(confusion: &ConfusionMatrix) -> (f64, f64) {
    let clear = MeeState::Clear.index();
    let mut tp = 0usize; // effusion correctly detected
    let mut fn_ = 0usize;
    let mut tn = 0usize;
    let mut fp = 0usize;
    for a in 0..confusion.n_classes() {
        for p in 0..confusion.n_classes() {
            let n = confusion.count(a, p);
            match (a != clear, p != clear) {
                (true, true) => tp += n,
                (true, false) => fn_ += n,
                (false, false) => tn += n,
                (false, true) => fp += n,
            }
        }
    }
    let rate = |hit: usize, miss: usize| {
        if hit + miss == 0 {
            0.0
        } else {
            hit as f64 / (hit + miss) as f64
        }
    };
    (rate(tp, fn_), rate(tn, fp))
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
        assert_eq!(
            ScreeningVerdict::from_state(MeeState::Mucoid),
            ScreeningVerdict::EffusionDetected {
                state: MeeState::Mucoid
            }
        );
    }

    #[test]
    fn binary_rates_known_case() {
        use MeeState::*;
        let actual = [Clear, Clear, Mucoid, Purulent, Serous].map(MeeState::index);
        let predicted = [Clear, Mucoid, Mucoid, Purulent, Clear].map(MeeState::index);
        let confusion = ConfusionMatrix::from_labels(&actual, &predicted, MeeState::COUNT).unwrap();
        let (sens, spec) = binary_screening_rates(&confusion);
        assert!((sens - 2.0 / 3.0).abs() < 1e-12);
        assert!((spec - 0.5).abs() < 1e-12);
        let all_clear = ConfusionMatrix::from_labels(&[0, 0], &[0, 1], MeeState::COUNT).unwrap();
        assert_eq!(binary_screening_rates(&all_clear), (0.0, 0.5));
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
        let injector = FaultInjector::new(404).with(Fault::Dropout { severity: 0.9 });
        let mut source = FaultySource::corrupt_first(QueueSource::repeating(rec, 3), injector, 2);
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

        let injector = FaultInjector::new(505).with(Fault::Dropout { severity: 0.95 });
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
}
