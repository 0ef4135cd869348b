//! Stage replay: one screening re-run stage by stage from the product's
//! public functions, with a span around each stage.
//!
//! The sequence mirrors `FrontEnd::push_window` per chirp and, once the
//! quorum is met, `FrontEnd::finalize` and the confidence floor of
//! `screening::resolve_stream`. It is trusted only while it agrees with the
//! product: every replayed capture's features must be bit-identical to
//! `FrontEnd::process_with` and its decision equal to
//! `screen_recording_quality`'s; otherwise the run reports the replay as
//! not matching and is marked incorrect.

use crate::trace::Tracer;
use earsonar::absorption::{average_spectra, echo_ir_spectrum};
use earsonar::channel::{average_irs, pipeline_estimator, ChannelEstimator};
use earsonar::diagnostics::Diagnostics;
use earsonar::event::detect_events_with_floor;
use earsonar::pipeline::{EarSonar, ProcessedRecording};
use earsonar::preprocess::Preprocessor;
use earsonar::quality::{measure_window, NoiseFloor, QualityRejections, SessionQuality};
use earsonar::screening::{RetryPolicy, ScreeningOutcome};
use earsonar::segment::segment_with_anchor;
use earsonar::{EarSonarError, MeeState};
use earsonar_acoustics::propagation::delay_fractional_allpass_with;
use earsonar_dsp::hilbert::{envelope_with, refine_peak};
use earsonar_dsp::plan::DspScratch;
use earsonar_signal::recording::Recording;

/// The stage spans, in pipeline order.
pub const STAGES: [&str; 10] = [
    "quality.measure",
    "preprocess.bandpass",
    "event.detect",
    "channel.deconvolve",
    "channel.average",
    "segment.echo",
    "absorption.align",
    "absorption.spectrum",
    "features.extract",
    "detect.predict",
];

/// What a screening decided, reduced to what the replay can reproduce:
/// `Some(state)` for a conclusive verdict, `None` for an inconclusive one.
pub type Decision = Result<Option<MeeState>, String>;

pub fn decision_of(outcome: &Result<ScreeningOutcome, EarSonarError>) -> Decision {
    match outcome {
        Ok(o) => Ok(o.state()),
        Err(e) => Err(format!("{e:?}")),
    }
}

/// The result of replaying one capture.
pub struct Replayed {
    pub decision: Decision,
    /// The feature vector, when the quorum was met and finalize ran.
    pub features: Option<Result<Vec<f64>, String>>,
}

/// The stage chain of one trained system, rebuilt from public parts.
pub struct StageReplay<'a> {
    system: &'a EarSonar,
    policy: RetryPolicy,
    preprocessor: Preprocessor,
    estimator: ChannelEstimator,
}

impl<'a> StageReplay<'a> {
    pub fn new(system: &'a EarSonar, policy: RetryPolicy) -> Self {
        let cfg = system.front_end().config();
        StageReplay {
            system,
            policy,
            preprocessor: Preprocessor::new(cfg).expect("preprocessor for a validated config"),
            estimator: pipeline_estimator(system.front_end().template(), cfg)
                .expect("estimator for a validated config"),
        }
    }

    /// Replays one capture inside the caller's open span, one child span
    /// per stage call.
    pub fn run(&self, tr: &mut Tracer, scratch: &mut DspScratch, rec: &Recording) -> Replayed {
        let fe = self.system.front_end();
        let cfg = fe.config();
        let gate = &cfg.quality;
        let mut prev_window: Vec<f64> = Vec::new();
        let mut noise_floor = NoiseFloor::default();
        let mut prev_tail: Vec<f64> = Vec::new();
        let mut contextual: Vec<f64> = Vec::new();
        let mut filt_ext: Vec<f64> = Vec::new();
        let mut filtered: Vec<f64> = Vec::new();
        let (mut power_sum, mut power_len) = (0.0f64, 0usize);
        let mut quality_sum = 0.0f64;
        let mut rejections = QualityRejections::default();
        let mut irs: Vec<Vec<f64>> = Vec::new();
        let mut pushed = 0usize;

        for c in 0..rec.n_chirps {
            let Some(window) = rec.try_chirp_window(c) else {
                break;
            };
            pushed += 1;
            if gate.enabled {
                tr.enter("quality.measure");
                let measured = measure_window(
                    window,
                    &prev_window,
                    &mut noise_floor,
                    cfg.chirp_len + cfg.ir_taps,
                );
                quality_sum += measured.score(gate);
                prev_window.clear();
                prev_window.extend_from_slice(window);
                let rejected = measured.gate(gate);
                tr.exit();
                if let Some(cause) = rejected {
                    rejections.record(cause);
                    prev_tail.clear();
                    continue;
                }
            } else {
                quality_sum += 1.0;
            }

            tr.enter("preprocess.bandpass");
            let ctx = prev_tail.len();
            contextual.clear();
            contextual.extend_from_slice(&prev_tail);
            contextual.extend_from_slice(window);
            let keep = window.len().min(self.preprocessor.context_len());
            prev_tail.clear();
            prev_tail.extend_from_slice(&window[window.len() - keep..]);
            let ok = self
                .preprocessor
                .run_with(&contextual, &mut filt_ext, &mut filtered)
                .is_ok();
            tr.exit();
            if !ok {
                continue;
            }
            let filtered = &filtered[ctx..];

            tr.enter("event.detect");
            power_sum += earsonar_dsp::simd::sum_sq(filtered);
            power_len += filtered.len();
            let floor = if power_len == 0 {
                0.0
            } else {
                power_sum / power_len as f64
            };
            let has_event =
                detect_events_with_floor(filtered, floor, cfg).is_ok_and(|e| !e.is_empty());
            tr.exit();
            if !has_event {
                continue;
            }

            tr.enter("channel.deconvolve");
            let mut ir = Vec::with_capacity(self.estimator.n_taps());
            let estimated = self
                .estimator
                .estimate_with(scratch, filtered, &mut ir)
                .is_ok();
            tr.exit();
            if estimated {
                irs.push(ir);
            }
        }

        if irs.len() < self.policy.min_accepted_chirps.max(1) {
            return Replayed {
                decision: Ok(None),
                features: None,
            };
        }
        let quality = SessionQuality {
            chirps_pushed: pushed,
            chirps_accepted: pushed - rejections.total(),
            mean_quality: if pushed == 0 {
                1.0
            } else {
                quality_sum / pushed as f64
            },
            rejections,
        };
        match self.finalize(tr, scratch, &irs, quality) {
            Ok(processed) => {
                let decision = if quality.confidence() < self.policy.min_confidence {
                    Ok(None)
                } else {
                    tr.span("detect.predict", || self.system.classify(&processed))
                        .map(Some)
                        .map_err(|e| format!("{e:?}"))
                };
                Replayed {
                    decision,
                    features: Some(Ok(processed.features)),
                }
            }
            Err(EarSonarError::NoEchoDetected) => Replayed {
                decision: Ok(None),
                features: Some(Err(format!("{:?}", EarSonarError::NoEchoDetected))),
            },
            Err(e) => Replayed {
                decision: Err(format!("{e:?}")),
                features: Some(Err(format!("{e:?}"))),
            },
        }
    }

    /// `FrontEnd::finalize`, stage by stage.
    fn finalize(
        &self,
        tr: &mut Tracer,
        scratch: &mut DspScratch,
        irs: &[Vec<f64>],
        quality: SessionQuality,
    ) -> Result<ProcessedRecording, EarSonarError> {
        let fe = self.system.front_end();
        let cfg = fe.config();
        let avg_ir = tr.span("channel.average", || average_irs(irs))?;
        let mut echo = tr.span("segment.echo", || segment_with_anchor(&avg_ir, 1, cfg))?;

        tr.enter("absorption.align");
        let mut env = Vec::new();
        envelope_with(scratch, &avg_ir, &mut env);
        let refined = refine_peak(&env, echo.center, 3).unwrap_or(echo.center as f64);
        let target = refined.ceil() + 1.0;
        let shift = target - refined;
        let aligned_len = avg_ir.len() + 3;
        let aligned_center = target as usize;
        echo.center = aligned_center;
        tr.exit();

        let mut spectra = Vec::new();
        let mut echoes = Vec::new();
        let mut aligned = Vec::new();
        for ir in irs {
            tr.span("absorption.align", || {
                delay_fractional_allpass_with(ir, shift, aligned_len, scratch, &mut aligned)
            })?;
            if let Ok(s) = tr.span("absorption.spectrum", || {
                echo_ir_spectrum(&aligned, aligned_center, 1.0, cfg)
            }) {
                spectra.push(s);
                echoes.push(echo.clone());
            }
        }
        if spectra.is_empty() {
            return Err(EarSonarError::NoEchoDetected);
        }
        let averaged = tr.span("absorption.spectrum", || average_spectra(&spectra))?;
        let features = tr.span("features.extract", || {
            fe.extractor()
                .extract_with(scratch, &spectra, &averaged, &echoes)
        })?;
        Ok(ProcessedRecording {
            features,
            spectrum: averaged,
            chirps_used: spectra.len(),
            echoes,
            diagnostics: Diagnostics::default(),
            quality,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earsonar::screening::screen_recording_quality;
    use earsonar::EarSonarConfig;
    use earsonar_sim::cohort::Cohort;
    use earsonar_sim::dataset::{Dataset, DatasetSpec};

    #[test]
    fn replay_is_bit_identical_to_the_front_end() {
        let train = Dataset::build(&Cohort::generate(6, 3), &DatasetSpec::default());
        let system = EarSonar::fit(&train.sessions, &EarSonarConfig::default()).unwrap();
        let policy = RetryPolicy::default();
        let replay = StageReplay::new(&system, policy);
        let cohort = Dataset::build(&Cohort::generate(2, 41), &DatasetSpec::default());
        let mut scratch = DspScratch::new();
        let mut tr = Tracer::default();
        for s in &cohort.sessions {
            tr.enter("capture");
            let r = replay.run(&mut tr, &mut scratch, &s.recording);
            tr.exit();
            let expected = system.front_end().process_with(&mut scratch, &s.recording);
            let features = r.features.expect("clean capture meets the quorum");
            assert_eq!(
                features,
                expected.map(|p| p.features).map_err(|e| format!("{e:?}"))
            );
            let outcome = screen_recording_quality(&system, &s.recording, &policy);
            assert_eq!(r.decision, decision_of(&outcome));
        }
        // Every stage ran, inside the capture span.
        let names: Vec<&str> = tr.spans().iter().map(|s| s.name).collect();
        for stage in STAGES {
            assert!(names.contains(&stage), "{stage} never recorded");
        }
        assert!(tr
            .spans()
            .iter()
            .all(|s| s.name == "capture" || s.parent.is_some()));
    }
}
