//! The end-to-end EarSonar system (paper §III).
//!
//! [`EarSonar`] wires the four modules of the paper's system overview
//! together: acoustic signal collection (provided by hardware or the
//! simulator), signal preprocessing, acoustic absorption analysis, and MEE
//! detection. [`EarSonar::fit`] plays the role of the training phase on
//! collected sessions; [`EarSonar::screen`] is the home-screening call.
//!
//! Feature extraction and classification come from one registered
//! [`crate::backend`]: [`EarSonar::fit`] trains the paper's reference
//! MFCC+k-means backend, verdict for verdict the same system as
//! `fit_backend(REFERENCE_BACKEND)`, while [`EarSonar::fit_backend`]
//! selects any registered backend by name.

use crate::absorption::{average_spectra, EchoBand, EchoSpectrum};
use crate::backend::{self, BackendSpec, Classifier, Extractor};
use crate::channel::{mean_rows, template_and_estimator, ChannelEstimator};
use crate::config::EarSonarConfig;
use crate::diagnostics::Diagnostics;
use crate::error::EarSonarError;
use crate::eval::ExtractedDataset;
use crate::event::{detect_events_into, EventSpan};
use crate::preprocess::Preprocessor;
use crate::quality::{self, NoiseFloor, QualityCause, SessionQuality};
use crate::segment::{segment_with_anchor_with, EardrumEcho};
use earsonar_acoustics::propagation::AllpassDelay;
use earsonar_dsp::lanes::{for_lane_groups, LaneOp, LANES};
use earsonar_dsp::plan::DspScratch;
use earsonar_signal::effusion::MeeState;
use earsonar_signal::recording::Recording;
use earsonar_signal::session::Session;
use std::convert::Infallible;

pub use crate::config::EarSonarConfig as Config;

/// Per-recording products of the signal-processing front end.
#[derive(Debug, Clone)]
pub struct ProcessedRecording {
    /// The feature vector (width fixed by the backend's extractor; 105
    /// for the reference MFCC backend).
    pub features: Vec<f64>,
    /// The recording-averaged echo spectrum.
    pub spectrum: EchoSpectrum,
    /// Per-chirp segmented echoes (chirps that failed are skipped).
    pub echoes: Vec<EardrumEcho>,
    /// How many chirps contributed.
    pub chirps_used: usize,
    /// Per-stage counters gathered while the chirps moved through.
    pub diagnostics: Diagnostics,
    /// Session-level signal quality: acceptance counts, mean chirp score,
    /// and the screening confidence derived from them.
    pub quality: SessionQuality,
}

/// What became of one chirp window handed to the front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChirpOutcome {
    /// The window produced a channel impulse response.
    Used,
    /// No acoustic event rose above the running power floor.
    NoEvent,
    /// Band-pass preprocessing rejected the window.
    FilterFailed,
    /// Wiener deconvolution failed on the window.
    EstimationFailed,
    /// The signal-quality gate rejected the window before any processing.
    QualityRejected {
        /// Which metric crossed its hard threshold.
        cause: QualityCause,
    },
}

/// Running state accumulated across pushed chirp windows: the per-chirp
/// impulse responses awaiting the recording-level finalize stages, the
/// power statistics behind the event detector's noise floor, and the
/// stage counters. Shared by the batch and streaming paths so they are
/// the same computation by construction.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChirpAccumulator {
    /// Every used chirp's impulse response in chirp order, stored end to
    /// end (each is the estimator's `n_taps` long).
    irs: Vec<f64>,
    pub(crate) power_sum: f64,
    pub(crate) power_len: usize,
    /// Raw tail of the previous chirp window, kept as left context for the
    /// zero-phase filter so a window's chirp burst is filtered against the
    /// quiet inter-chirp gap that actually preceded it, not against its
    /// own edge reflection.
    pub(crate) prev_tail: Vec<f64>,
    pub(crate) diagnostics: Diagnostics,
    /// Sum of per-chirp quality scores over every pushed window.
    pub(crate) quality_sum: f64,
    /// Running inter-chirp gap noise floor behind the per-chirp SNR metric.
    pub(crate) noise_floor: NoiseFloor,
    /// The previous raw window, kept for the chirp-to-chirp correlation
    /// metric (cleared and refilled in place, no per-chirp allocation).
    pub(crate) prev_window: Vec<f64>,
    /// What became of each window of the latest batch, in push order.
    pub(crate) outcomes: Vec<ChirpOutcome>,
    /// Accepted chirps awaiting the band-pass, and filtered chirps with an
    /// event awaiting deconvolution (both empty between batches; kept for
    /// their capacity).
    accepted: Vec<BatchChirp>,
    events: Vec<BatchChirp>,
    /// The event detector's spans for the chirp being checked (refilled
    /// per chirp, kept for its capacity).
    spans: Vec<EventSpan>,
}

/// One window of a batch that passed the gate, on its way through the
/// band-pass, event and deconvolution stages. Its sample buffers are
/// borrowed from the batch's [`DspScratch`] and returned when the chirp
/// retires.
#[derive(Debug, Clone)]
struct BatchChirp {
    /// Position of the window in the batch (its slot in `outcomes`).
    slot: usize,
    /// How many leading samples of `contextual` are filter context.
    ctx: usize,
    /// The previous window's raw tail followed by this window.
    contextual: Vec<f64>,
    /// The window band-passed (its context is filtered but not kept).
    filtered: Vec<f64>,
    /// The channel impulse response, once estimated.
    ir: Vec<f64>,
    /// The verdict of the last stage that handled the chirp.
    outcome: ChirpOutcome,
}

impl BatchChirp {
    /// A chirp that passed the gate, its filter output and impulse
    /// response buffers borrowed from `scratch`.
    fn new(slot: usize, ctx: usize, contextual: Vec<f64>, scratch: &mut DspScratch) -> Self {
        BatchChirp {
            slot,
            ctx,
            contextual,
            filtered: scratch.take_real(),
            ir: scratch.take_real(),
            outcome: ChirpOutcome::Used,
        }
    }
}

impl ChirpAccumulator {
    /// Records a chirp's final outcome — appending its impulse response
    /// to `irs` if it has one — and returns its buffers to the scratch.
    fn retire(&mut self, scratch: &mut DspScratch, chirp: BatchChirp) {
        if chirp.outcome == ChirpOutcome::Used {
            self.diagnostics.irs_estimated += 1;
            self.irs.extend_from_slice(&chirp.ir);
        }
        self.outcomes[chirp.slot] = chirp.outcome;
        scratch.put_real(chirp.filtered);
        scratch.put_real(chirp.ir);
    }

    /// Aggregates the per-chirp quality state into a session-level report.
    pub(crate) fn session_quality(&self) -> SessionQuality {
        let pushed = self.diagnostics.chirps_pushed;
        SessionQuality {
            chirps_pushed: pushed,
            chirps_accepted: pushed.saturating_sub(self.diagnostics.quality_rejections.total()),
            mean_quality: if pushed == 0 {
                1.0
            } else {
                self.quality_sum / pushed as f64
            },
            rejections: self.diagnostics.quality_rejections,
        }
    }
}

/// The signal-processing front end, reusable without a fitted detector.
#[derive(Debug, Clone)]
pub struct FrontEnd {
    config: EarSonarConfig,
    preprocessor: Preprocessor,
    extractor: Extractor,
    template: Vec<f64>,
    estimator: ChannelEstimator,
    echo_band: EchoBand,
}

impl FrontEnd {
    /// Builds the front end with the reference MFCC feature extractor.
    ///
    /// # Errors
    ///
    /// Returns [`EarSonarError::BadConfig`] or [`EarSonarError::Dsp`] if
    /// the configuration is infeasible.
    pub fn new(config: &EarSonarConfig) -> Result<Self, EarSonarError> {
        FrontEnd::for_backend(config, backend::reference())
    }

    /// Builds the front end with a backend's feature extractor. The
    /// signal stages (preprocessing through echo spectra) are identical
    /// for every backend; only the final reduction to a feature vector
    /// differs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FrontEnd::new`].
    pub fn for_backend(config: &EarSonarConfig, spec: &BackendSpec) -> Result<Self, EarSonarError> {
        let extractor = spec.extractor(config)?;
        config.validate()?;
        let preprocessor = Preprocessor::new(config)?;
        let (template, estimator) = template_and_estimator(&preprocessor, config)?;
        Ok(FrontEnd {
            config: config.clone(),
            preprocessor,
            extractor,
            template,
            estimator,
            echo_band: EchoBand::new(config),
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &EarSonarConfig {
        &self.config
    }

    /// The feature extractor reducing echo spectra to feature vectors.
    pub fn extractor(&self) -> &Extractor {
        &self.extractor
    }

    /// The preprocessed transmit-chirp template the front end deconvolves
    /// against (useful for loopback tests and custom analyses).
    pub fn template(&self) -> &[f64] {
        &self.template
    }

    /// Runs preprocessing → event detection → segmentation → absorption
    /// analysis → feature extraction on one recording.
    ///
    /// # Errors
    ///
    /// Returns [`EarSonarError::NoEchoDetected`] if no chirp yields a
    /// usable echo, or [`EarSonarError::BadRecording`] for malformed input
    /// or a recording laid out for another sample rate or chirp grid than
    /// the config's.
    pub fn process(&self, recording: &Recording) -> Result<ProcessedRecording, EarSonarError> {
        let mut scratch = DspScratch::new();
        self.process_with(&mut scratch, recording)
    }

    /// [`FrontEnd::process`] with FFT plans and DSP intermediates drawn
    /// from a caller-owned [`DspScratch`].
    ///
    /// A recording runs dozens of chirp deconvolutions, envelope and MFCC
    /// transforms over the same few FFT sizes; with a warm scratch those
    /// kernels stop allocating and reuse precomputed plans. Fan-out callers
    /// ([`EarSonar::fit`], [`crate::eval::ExtractedDataset`]) keep one
    /// scratch per worker thread across recordings. Results are
    /// bit-identical to [`FrontEnd::process`].
    ///
    /// Internally this is the same per-chirp staged computation the
    /// streaming path runs ([`crate::streaming::ChirpStream`]): the
    /// chirp windows go through `FrontEnd::push_windows` as one batch,
    /// and the recording-level stages run once in `FrontEnd::finalize` —
    /// so batch and streaming results are bit-identical by construction.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FrontEnd::process`].
    pub fn process_with(
        &self,
        scratch: &mut DspScratch,
        recording: &Recording,
    ) -> Result<ProcessedRecording, EarSonarError> {
        self.check_layout(recording)?;
        if recording.samples.is_empty() {
            return Err(EarSonarError::BadRecording {
                reason: "empty recording",
            });
        }
        // Windows tile the buffer in order, so the grid fits iff its last
        // window does.
        let n = recording.n_chirps;
        if n > 0 && recording.try_chirp_window(n - 1).is_none() {
            return Err(EarSonarError::BadRecording {
                reason: "recording claims more chirps than it has samples",
            });
        }
        let mut acc = ChirpAccumulator::default();
        let windows = (0..n).filter_map(|c| recording.try_chirp_window(c));
        self.push_windows(scratch, &mut acc, windows);
        self.finalize(scratch, acc)
    }

    /// Refuses a recording captured on another layout than the config's:
    /// the filters, the chirp template and the mel bands are all built
    /// for the config's sample rate and chirp grid.
    ///
    /// # Errors
    ///
    /// Returns [`EarSonarError::BadRecording`] when `recording.layout()`
    /// differs from [`EarSonarConfig::layout`].
    pub(crate) fn check_layout(&self, recording: &Recording) -> Result<(), EarSonarError> {
        if recording.layout() != self.config.layout() {
            return Err(EarSonarError::BadRecording {
                reason: "sample rate or chirp grid differs from the model's",
            });
        }
        Ok(())
    }

    /// Stage 1, per batch of chirp windows: for each window, in order,
    /// measure its signal quality and gate it, then band-pass filter it,
    /// gate it on the adaptive-energy event detector, and — when an event
    /// is present — Wiener-deconvolve it into a channel impulse response
    /// accumulated for the finalize stages. What became of each window is
    /// left in the accumulator's `outcomes`; failures are recorded in its
    /// [`Diagnostics`], never raised: a bad chirp is data loss, not an
    /// error.
    ///
    /// Windows move through the stages in lane groups rather than one at
    /// a time, with the same result. The non-finite check, the quality
    /// gate and the filter-context rule run as each window arrives: they
    /// read only raw windows. Every [`LANES`] accepted windows are
    /// band-passed in one pass ([`Preprocessor::run_lanes`]) and then
    /// checked for an event in chirp order, so the event floor is summed
    /// in chirp order; every [`LANES`] chirps with an event are
    /// deconvolved in one pass ([`ChannelEstimator::estimate_lanes`]). The
    /// batch's leftovers run in smaller groups at its end. Every lane is
    /// bit-identical to its one-lane run, so no output depends on how the
    /// windows were batched, and at most a few groups' buffers are live.
    ///
    /// The quality gate runs before any numeric stage touches a window,
    /// so accepted windows are processed exactly as they would be with
    /// the gate disabled: a session with zero rejections yields
    /// bit-identical features either way.
    pub(crate) fn push_windows<'w>(
        &self,
        scratch: &mut DspScratch,
        acc: &mut ChirpAccumulator,
        windows: impl IntoIterator<Item = &'w [f64]>,
    ) {
        acc.outcomes.clear();
        let mut accepted = std::mem::take(&mut acc.accepted);
        let mut events = std::mem::take(&mut acc.events);
        for window in windows {
            acc.diagnostics.chirps_pushed += 1;
            if let Some(cause) = self.gate(acc, window) {
                acc.diagnostics.quality_rejections.record(cause);
                // A rejected window's samples must not leak into the next
                // window's filter context or the event detector's power
                // floor.
                acc.prev_tail.clear();
                acc.outcomes.push(ChirpOutcome::QualityRejected { cause });
                continue;
            }
            // Filter the window with the previous window's raw tail as
            // left context, then drop the context from the output: the
            // chirp burst at the window's start is filtered against the
            // quiet gap that really preceded it instead of its own edge
            // reflection.
            let mut contextual = scratch.take_real();
            contextual.extend_from_slice(&acc.prev_tail);
            contextual.extend_from_slice(window);
            let ctx = acc.prev_tail.len();
            let keep = window.len().min(self.preprocessor.context_len());
            acc.prev_tail.clear();
            acc.prev_tail
                .extend_from_slice(&window[window.len() - keep..]);
            accepted.push(BatchChirp::new(
                acc.outcomes.len(),
                ctx,
                contextual,
                scratch,
            ));
            acc.outcomes.push(ChirpOutcome::Used);
            if accepted.len() == LANES {
                self.band_pass(scratch, acc, &mut accepted, &mut events);
            }
            if events.len() >= LANES {
                self.deconvolve(scratch, acc, &mut events, LANES);
            }
        }
        self.band_pass(scratch, acc, &mut accepted, &mut events);
        self.deconvolve(scratch, acc, &mut events, 1);
        acc.accepted = accepted;
        acc.events = events;
    }

    /// Band-passes every chirp of `accepted`, several per pass, then runs
    /// the event detector over them in chirp order: chirps with an event
    /// move on to `events`, the rest are retired.
    fn band_pass(
        &self,
        scratch: &mut DspScratch,
        acc: &mut ChirpAccumulator,
        accepted: &mut Vec<BatchChirp>,
        events: &mut Vec<BatchChirp>,
    ) {
        let mut ext = scratch.take_frames();
        let mut band_pass = BandPass {
            preprocessor: &self.preprocessor,
            ext: &mut ext,
            batch: accepted,
        };
        let Ok(()) = for_lane_groups(band_pass.batch.len(), &mut band_pass);
        scratch.put_frames(ext);
        for mut chirp in accepted.drain(..) {
            // The filter input is spent.
            scratch.put_real(std::mem::take(&mut chirp.contextual));
            if chirp.outcome == ChirpOutcome::FilterFailed {
                acc.diagnostics.filter_failures += 1;
                acc.retire(scratch, chirp);
                continue;
            }
            let filtered = chirp.filtered.as_slice();
            // Running mean power over every window seen so far — the
            // causal analogue of the batch detector's whole-recording
            // power floor. Chirp `c` sees the floor of chirps `0..=c`,
            // identically in the batch and streaming paths.
            acc.power_sum += earsonar_dsp::simd::sum_sq(filtered);
            acc.power_len += filtered.len();
            let floor = if acc.power_len == 0 {
                0.0
            } else {
                acc.power_sum / acc.power_len as f64
            };
            let has_event = match detect_events_into(filtered, floor, &mut acc.spans) {
                Ok(()) => !acc.spans.is_empty(),
                // A window shorter than the detection window cannot hold
                // an event (trailing partial chirp).
                Err(_) => false,
            };
            if has_event {
                acc.diagnostics.events_detected += 1;
                events.push(chirp);
            } else {
                chirp.outcome = ChirpOutcome::NoEvent;
                acc.retire(scratch, chirp);
            }
        }
    }

    /// Deconvolves the leading chirps of `events`, several per pass — as
    /// many as fill whole groups of `group` — and retires them in chirp
    /// order.
    fn deconvolve(
        &self,
        scratch: &mut DspScratch,
        acc: &mut ChirpAccumulator,
        events: &mut Vec<BatchChirp>,
        group: usize,
    ) {
        let n = events.len() - events.len() % group;
        let mut deconvolve = Deconvolve {
            estimator: &self.estimator,
            scratch,
            batch: &mut events[..n],
        };
        let Ok(()) = for_lane_groups(n, &mut deconvolve);
        for chirp in events.drain(..n) {
            acc.retire(scratch, chirp);
        }
    }

    /// The per-window checks that read only raw samples: the non-finite
    /// check, then (when enabled) the quality gate's measurement, which
    /// advances the noise floor, the correlation reference and the
    /// quality sum. Returns the rejection cause, if any.
    fn gate(&self, acc: &mut ChirpAccumulator, window: &[f64]) -> Option<QualityCause> {
        if !window.iter().all(|x| x.is_finite()) {
            // Checked first, gate or no gate: a NaN would pass every gate
            // comparison and poison the noise floor, the correlation
            // reference and the filter context, so the window touches
            // none of them.
            return Some(QualityCause::NonFinite);
        }
        let gate = &self.config.quality;
        if !gate.enabled {
            acc.quality_sum += 1.0;
            return None;
        }
        let measured = quality::measure_window(
            window,
            &acc.prev_window,
            &mut acc.noise_floor,
            self.config.chirp_len + self.config.ir_taps,
        );
        acc.quality_sum += measured.score(gate);
        // The correlation reference advances over every pushed window,
        // accepted or not, so the measurement sequence is a pure function
        // of the pushed windows (batch ≡ streaming).
        acc.prev_window.clear();
        acc.prev_window.extend_from_slice(window);
        measured.gate(gate)
    }

    /// Stage 2, per recording: coherently average the accumulated impulse
    /// responses, segment the eardrum echo on the average, align every IR
    /// to the echo's subsample position, and reduce the per-chirp echo
    /// spectra to the feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`EarSonarError::NoEchoDetected`] if no accumulated chirp
    /// yields a usable echo.
    pub(crate) fn finalize(
        &self,
        scratch: &mut DspScratch,
        mut acc: ChirpAccumulator,
    ) -> Result<ProcessedRecording, EarSonarError> {
        let quality = acc.session_quality();
        if acc.irs.is_empty() {
            return Err(EarSonarError::NoEchoDetected);
        }
        let taps = self.estimator.n_taps();
        let avg_ir = mean_rows(acc.irs.chunks_exact(taps), taps);

        // The transmit grid fixes the delay origin: the direct leak (tiny
        // by hardware design) arrives one sample in. Absolute spectral
        // levels are meaningful because the probe amplitude is fixed.
        let direct_tap = 1usize;
        let calibration = 1.0;

        // Parity segmentation on the averaged IR locates the eardrum echo.
        let mut echo = segment_with_anchor_with(scratch, &avg_ir, direct_tap, &self.config)?;

        // Subsample alignment: place the echo pulse's envelope peak on the
        // integer grid so the fixed analysis section always captures the
        // same portion of the pulse, independent of eardrum distance.
        let mut env = scratch.take_real();
        earsonar_dsp::hilbert::envelope_with(scratch, &avg_ir, &mut env);
        let refined =
            earsonar_dsp::hilbert::refine_peak(&env, echo.center, 3).unwrap_or(echo.center as f64);
        scratch.put_real(env);
        let target = refined.ceil() + 1.0;
        let shift = target - refined; // in (0, 2]: a pure delay
        let aligned_len = avg_ir.len() + 3;
        let aligned_center = target as usize;
        echo.center = aligned_center;

        // Align each IR and take its echo spectrum; a chirp whose spectrum
        // fails is skipped. Every IR has the averaged IR's length, so one
        // delay kernel serves the whole capture.
        let delay = AllpassDelay::new(shift, avg_ir.len(), scratch)?;
        let mut aligned = scratch.take_real();
        let mut spectra = Vec::with_capacity(acc.diagnostics.irs_estimated);
        for ir in acc.irs.chunks_exact(taps) {
            delay.apply(ir, aligned_len, &mut aligned)?;
            if let Ok(s) = self
                .echo_band
                .spectrum(scratch, &aligned, aligned_center, calibration)
            {
                spectra.push(s);
            }
        }
        scratch.put_real(aligned);
        if spectra.is_empty() {
            return Err(EarSonarError::NoEchoDetected);
        }
        let echoes = vec![echo; spectra.len()];
        acc.diagnostics.spectra_computed = spectra.len();
        let averaged = average_spectra(&spectra)?;
        let features = self
            .extractor
            .extract_with(scratch, &spectra, &averaged, &echoes)?;
        Ok(ProcessedRecording {
            features,
            spectrum: averaged,
            echoes,
            chirps_used: spectra.len(),
            diagnostics: acc.diagnostics,
            quality,
        })
    }
}

/// The band-pass stage over a batch, one lane group at a time.
struct BandPass<'a> {
    preprocessor: &'a Preprocessor,
    ext: &'a mut Vec<f64>,
    batch: &'a mut [BatchChirp],
}

impl LaneOp for BandPass<'_> {
    type Error = Infallible;

    fn run<const L: usize>(&mut self, first: usize) -> Result<(), Infallible> {
        let Some(group) = self.batch[first..].first_chunk_mut::<L>() else {
            return Ok(());
        };
        let context = group.each_ref().map(|c| c.ctx);
        let lanes = group
            .each_mut()
            .map(|c| (c.contextual.as_slice(), &mut c.filtered));
        let inputs = lanes.each_ref().map(|(x, _)| *x);
        let filtered =
            self.preprocessor
                .run_lanes(inputs, context, self.ext, lanes.map(|(_, y)| y));
        if filtered.is_err() {
            if L == 1 {
                group[0].outcome = ChirpOutcome::FilterFailed;
            } else {
                // One bad window must fail only itself.
                for i in first..first + L {
                    let Ok(()) = self.run::<1>(i);
                }
            }
        }
        Ok(())
    }
}

/// The deconvolution stage over the batch's chirps that carry an event,
/// one lane group at a time.
struct Deconvolve<'a> {
    estimator: &'a ChannelEstimator,
    scratch: &'a mut DspScratch,
    batch: &'a mut [BatchChirp],
}

impl LaneOp for Deconvolve<'_> {
    type Error = Infallible;

    fn run<const L: usize>(&mut self, first: usize) -> Result<(), Infallible> {
        let Some(group) = self.batch[first..].first_chunk_mut::<L>() else {
            return Ok(());
        };
        let lanes = group.each_mut().map(|c| (c.filtered.as_slice(), &mut c.ir));
        let windows = lanes.each_ref().map(|(x, _)| *x);
        let estimated = self
            .estimator
            .estimate_lanes(self.scratch, windows, lanes.map(|(_, y)| y));
        if estimated.is_err() {
            if L == 1 {
                group[0].outcome = ChirpOutcome::EstimationFailed;
            } else {
                // One bad window must fail only itself.
                for i in first..first + L {
                    let Ok(()) = self.run::<1>(i);
                }
            }
        }
        Ok(())
    }
}

/// The full, fitted EarSonar system.
#[derive(Debug, Clone)]
pub struct EarSonar {
    front_end: FrontEnd,
    classifier: Classifier,
}

impl EarSonar {
    /// Fits the system on labelled training sessions: runs the front end
    /// over every recording (fanned out across the host's cores, one warm
    /// [`DspScratch`] per worker; bit-identical to a sequential loop) and
    /// trains the paper's reference MFCC+k-means backend on the feature
    /// vectors.
    ///
    /// Sessions whose recordings yield no echo are skipped (they would be
    /// rejected on hardware too).
    ///
    /// # Errors
    ///
    /// Returns [`EarSonarError::NoEchoDetected`] if *no* session could be
    /// processed, and propagates configuration and learning errors.
    pub fn fit(sessions: &[Session], config: &EarSonarConfig) -> Result<Self, EarSonarError> {
        EarSonar::fit_backend(sessions, config, backend::REFERENCE_BACKEND)
    }

    /// [`EarSonar::fit`] with an explicit backend selected from the
    /// registry by name.
    ///
    /// # Errors
    ///
    /// Returns [`EarSonarError::UnknownBackend`] for unregistered names,
    /// plus the conditions of [`EarSonar::fit`].
    pub fn fit_backend(
        sessions: &[Session],
        config: &EarSonarConfig,
        backend_name: &str,
    ) -> Result<Self, EarSonarError> {
        let spec = backend::lookup(backend_name)?;
        let front_end = FrontEnd::for_backend(config, spec)?;
        let data = ExtractedDataset::extract_front_end(sessions, &front_end)?;
        let classifier = spec.fit(&data.features, &data.labels, config)?;
        Ok(EarSonar {
            front_end,
            classifier,
        })
    }

    /// Builds a system from an already-fitted classifier. The front end
    /// must carry the matching extractor (use [`FrontEnd::for_backend`]
    /// with the classifier's [`Classifier::spec`]).
    pub fn from_parts(front_end: FrontEnd, classifier: Classifier) -> Self {
        EarSonar {
            front_end,
            classifier,
        }
    }

    /// Screens one recording: the home-use call.
    ///
    /// # Errors
    ///
    /// Propagates front-end errors ([`EarSonarError::NoEchoDetected`],
    /// [`EarSonarError::BadRecording`]) and prediction errors.
    pub fn screen(&self, recording: &Recording) -> Result<MeeState, EarSonarError> {
        let processed = self.front_end.process(recording)?;
        self.classifier.predict(&processed.features)
    }

    /// Classifies an already-processed recording — the second half of
    /// [`EarSonar::screen`] for callers that ran the front end themselves
    /// (e.g. through [`crate::streaming::ChirpStream`]).
    ///
    /// # Errors
    ///
    /// Propagates prediction errors.
    pub fn classify(&self, processed: &ProcessedRecording) -> Result<MeeState, EarSonarError> {
        self.classifier.predict(&processed.features)
    }

    /// The classifier's confidence in its verdict for an
    /// already-processed recording (backend-native scale in `[0, 1]`).
    ///
    /// # Errors
    ///
    /// Propagates prediction errors.
    pub fn confidence(&self, processed: &ProcessedRecording) -> Result<f64, EarSonarError> {
        self.classifier.confidence(&processed.features)
    }

    /// The signal-processing front end.
    pub fn front_end(&self) -> &FrontEnd {
        &self.front_end
    }

    /// The fitted classifier.
    pub fn classifier(&self) -> &Classifier {
        &self.classifier
    }

    /// Registry name of the backend this system runs.
    pub fn backend(&self) -> &'static str {
        self.classifier.spec().name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earsonar_sim::cohort::Cohort;
    use earsonar_sim::dataset::{Dataset, DatasetSpec};
    use earsonar_sim::session::SessionConfig;

    fn small_dataset(n_patients: usize, seed: u64) -> Dataset {
        let cohort = Cohort::generate(n_patients, seed);
        Dataset::build(
            &cohort,
            &DatasetSpec {
                sessions_per_state: 2,
                config: SessionConfig::default(),
                seed,
            },
        )
    }

    #[test]
    fn front_end_produces_full_feature_vectors() {
        let ds = small_dataset(2, 5);
        let fe = FrontEnd::new(&EarSonarConfig::default()).unwrap();
        for s in &ds.sessions {
            let p = fe.process(&s.recording).unwrap();
            assert_eq!(p.features.len(), crate::features::FEATURE_COUNT);
            assert!(p.chirps_used > 0);
            assert!(p.features.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn front_end_uses_most_chirps_in_quiet_conditions() {
        let ds = small_dataset(1, 6);
        let fe = FrontEnd::new(&EarSonarConfig::default()).unwrap();
        let p = fe.process(&ds.sessions[0].recording).unwrap();
        let total = ds.sessions[0].recording.n_chirps;
        assert!(
            p.chirps_used * 10 >= total * 8,
            "{} of {total} chirps used",
            p.chirps_used
        );
    }

    #[test]
    fn empty_recording_is_rejected() {
        let fe = FrontEnd::new(&EarSonarConfig::default()).unwrap();
        let rec = Recording {
            samples: vec![],
            sample_rate: 48_000.0,
            chirp_hop: 240,
            n_chirps: 0,
            chirp_len: 24,
        };
        assert!(matches!(
            fe.process(&rec),
            Err(EarSonarError::BadRecording { .. })
        ));
    }

    #[test]
    fn silent_recording_has_no_echo() {
        let fe = FrontEnd::new(&EarSonarConfig::default()).unwrap();
        let rec = Recording {
            samples: vec![0.0; 240 * 8],
            sample_rate: 48_000.0,
            chirp_hop: 240,
            n_chirps: 8,
            chirp_len: 24,
        };
        assert!(matches!(
            fe.process(&rec),
            Err(EarSonarError::NoEchoDetected)
        ));
    }

    #[test]
    fn fit_and_screen_round_trip() {
        let ds = small_dataset(6, 7);
        let system = EarSonar::fit(&ds.sessions, &EarSonarConfig::default()).unwrap();
        // Training-set accuracy must clearly beat chance (25%).
        let mut correct = 0;
        for s in &ds.sessions {
            if system.screen(&s.recording).unwrap() == s.ground_truth {
                correct += 1;
            }
        }
        let acc = correct as f64 / ds.sessions.len() as f64;
        assert!(acc > 0.5, "training accuracy {acc}");
    }

    #[test]
    fn processing_is_deterministic() {
        let ds = small_dataset(1, 8);
        let fe = FrontEnd::new(&EarSonarConfig::default()).unwrap();
        let a = fe.process(&ds.sessions[0].recording).unwrap();
        let b = fe.process(&ds.sessions[0].recording).unwrap();
        assert_eq!(a.features, b.features);
    }
}
