//! Incremental, chirp-at-a-time front-end processing.
//!
//! On hardware the microphone delivers audio as it is captured; waiting
//! for the full 10 s session before any processing starts wastes both
//! latency and the chance to stop early once enough clean chirps are in.
//! [`StreamingFrontEnd`] accepts the sample stream incrementally — whole
//! chirp windows via [`StreamingFrontEnd::push_chirp`] or arbitrary
//! capture-buffer chunks via [`StreamingFrontEnd::push_samples`] — runs
//! the per-chirp stages as each window completes, and defers the
//! recording-level stages to [`StreamingFrontEnd::finish`].
//!
//! The streaming path is **bit-identical** to [`FrontEnd::process`]: both
//! drive the same [`FrontEnd`] per-chirp stage over the same window
//! sequence and the same finalize stage over the accumulated impulse
//! responses, so every float comes out equal regardless of how the
//! samples were chunked on the way in (see `tests/streaming_equivalence`).

use crate::error::EarSonarError;
use crate::diagnostics::Diagnostics;
use crate::pipeline::{ChirpAccumulator, ChirpOutcome, FrontEnd, ProcessedRecording};
use crate::quality::SessionQuality;
use earsonar_dsp::plan::DspScratch;
use earsonar_signal::recording::Recording;
use earsonar_signal::source::SignalSource;

/// The per-session half of a streaming front end: the chirp accumulator
/// plus the partial-window reassembly buffer, with the shared [`FrontEnd`]
/// and [`DspScratch`] passed in at every call.
///
/// [`StreamingFrontEnd`] bundles one of these with its own scratch for the
/// common single-session case. A multiplexer holding thousands of open
/// sessions keeps one `ChirpStream` per session (a few kilobytes of
/// accumulated state) and lends each processing worker a single warm
/// scratch instead — the scratch is a pure buffer pool, so which one is
/// used never changes a single output bit.
///
/// Every `*_with` call must receive the same `front_end` the stream was
/// created from: the hop length and gate thresholds are baked into the
/// accumulated state, and mixing front ends would silently blend two
/// configurations.
#[derive(Debug)]
pub struct ChirpStream {
    acc: ChirpAccumulator,
    /// Samples of the partially received current chirp window.
    buffer: Vec<f64>,
    hop: usize,
}

impl ChirpStream {
    /// Starts session state for a stream over `front_end`, expecting chirp
    /// windows of the configured hop length.
    pub fn new(front_end: &FrontEnd) -> Self {
        let hop = front_end.config().chirp_hop.max(1);
        ChirpStream {
            acc: ChirpAccumulator::default(),
            buffer: Vec::with_capacity(hop),
            hop,
        }
    }

    /// The chirp-window length the stream consumes, in samples.
    pub fn hop(&self) -> usize {
        self.hop
    }

    /// Pushes one whole chirp window and runs the per-chirp stages on it.
    ///
    /// # Errors
    ///
    /// Returns [`EarSonarError::BadRecording`] if the stream holds a
    /// partially received window (mixing [`ChirpStream::push_samples_with`]
    /// chunks with whole-window pushes at a misaligned point would silently
    /// shear every later chirp off the transmit grid).
    // lint: hot-path
    pub fn push_chirp_with(
        &mut self,
        front_end: &FrontEnd,
        scratch: &mut DspScratch,
        window: &[f64],
    ) -> Result<ChirpOutcome, EarSonarError> {
        if !self.buffer.is_empty() {
            return Err(EarSonarError::BadRecording {
                reason: "push_chirp on a stream holding a partial chirp window",
            });
        }
        front_end.push_windows(scratch, &mut self.acc, [window]);
        // One window in, one outcome out.
        Ok(self.acc.outcomes[0])
    }

    /// Pushes an arbitrary chunk of the sample stream, processing every
    /// chirp window it completes. Returns how many windows completed.
    ///
    /// Chunk boundaries are irrelevant to the result: any partition of the
    /// same sample stream yields the same state, because windows are only
    /// processed once `hop` samples are in.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice (per-chirp failures are recorded
    /// as diagnostics, not raised); the `Result` keeps room for backends
    /// that validate sample chunks.
    // lint: hot-path
    pub fn push_samples_with(
        &mut self,
        front_end: &FrontEnd,
        scratch: &mut DspScratch,
        chunk: &[f64],
    ) -> Result<usize, EarSonarError> {
        self.buffer.extend_from_slice(chunk);
        let completed = self.buffer.len() / self.hop;
        let end = completed * self.hop;
        // Every window the chunk completes runs as one batch. Split
        // borrows: the windows live in `buffer` while the front end
        // mutates only scratch and accumulator.
        let windows = self.buffer[..end].chunks_exact(self.hop);
        front_end.push_windows(scratch, &mut self.acc, windows);
        self.buffer.drain(..end);
        Ok(completed)
    }

    /// Chirp windows pushed so far (complete windows only).
    pub fn chirps_pushed(&self) -> usize {
        self.acc.diagnostics.chirps_pushed
    }

    /// Chirps that survived to an impulse response so far.
    pub fn chirps_used(&self) -> usize {
        self.acc.diagnostics.irs_estimated
    }

    /// Per-stage counters accumulated so far.
    pub fn diagnostics(&self) -> Diagnostics {
        self.acc.diagnostics
    }

    /// Session-level signal quality over everything pushed so far.
    pub fn quality(&self) -> SessionQuality {
        self.acc.session_quality()
    }

    /// Returns `true` once at least `min_chirps` chirps have produced
    /// impulse responses.
    pub fn ready(&self, min_chirps: usize) -> bool {
        self.chirps_used() >= min_chirps.max(1)
    }

    /// Runs the recording-level stages over everything pushed so far and
    /// returns the processed recording. A trailing partial window (fewer
    /// than `hop` buffered samples) is pushed first, exactly as the batch
    /// path processes a short final chirp window.
    ///
    /// # Errors
    ///
    /// Returns [`EarSonarError::NoEchoDetected`] if no pushed chirp
    /// yielded a usable echo.
    pub fn finish_with(
        mut self,
        front_end: &FrontEnd,
        scratch: &mut DspScratch,
    ) -> Result<ProcessedRecording, EarSonarError> {
        if !self.buffer.is_empty() {
            let tail = std::mem::take(&mut self.buffer);
            front_end.push_windows(scratch, &mut self.acc, [tail.as_slice()]);
        }
        front_end.finalize(scratch, self.acc)
    }
}

/// A front end fed one chirp (or one capture buffer) at a time.
///
/// # Example
///
/// ```
/// # use earsonar::pipeline::FrontEnd;
/// # use earsonar::streaming::StreamingFrontEnd;
/// # use earsonar::EarSonarConfig;
/// # use earsonar_sim::cohort::Cohort;
/// # use earsonar_sim::session::{RecordSession, Session, SessionConfig};
/// let front_end = FrontEnd::new(&EarSonarConfig::default()).unwrap();
/// let cohort = Cohort::generate(1, 5);
/// let session = Session::record(&cohort.patients()[0], 0, &SessionConfig::default(), 0);
///
/// let mut stream = StreamingFrontEnd::new(&front_end);
/// for chunk in session.recording.samples.chunks(480) {
///     stream.push_samples(chunk).unwrap();
/// }
/// let processed = stream.finish().unwrap();
/// assert!(processed.chirps_used > 0);
/// ```
#[derive(Debug)]
pub struct StreamingFrontEnd<'a> {
    front_end: &'a FrontEnd,
    scratch: DspScratch,
    stream: ChirpStream,
}

impl<'a> StreamingFrontEnd<'a> {
    /// Starts a stream over `front_end`, expecting chirp windows of the
    /// configured hop length.
    pub fn new(front_end: &'a FrontEnd) -> Self {
        StreamingFrontEnd {
            front_end,
            scratch: DspScratch::new(),
            stream: ChirpStream::new(front_end),
        }
    }

    /// The chirp-window length the stream consumes, in samples.
    pub fn hop(&self) -> usize {
        self.stream.hop()
    }

    /// Pushes one whole chirp window and runs the per-chirp stages on it.
    ///
    /// # Errors
    ///
    /// Returns [`EarSonarError::BadRecording`] if the stream holds a
    /// partially received window (see [`ChirpStream::push_chirp_with`]).
    // lint: hot-path
    pub fn push_chirp(&mut self, window: &[f64]) -> Result<ChirpOutcome, EarSonarError> {
        self.stream
            .push_chirp_with(self.front_end, &mut self.scratch, window)
    }

    /// Pushes an arbitrary chunk of the sample stream, processing every
    /// chirp window it completes. Returns how many windows completed.
    ///
    /// Chunk boundaries are irrelevant to the result: any partition of the
    /// same sample stream yields the same state (see
    /// [`ChirpStream::push_samples_with`]).
    ///
    /// # Errors
    ///
    /// Currently infallible in practice (per-chirp failures are recorded
    /// as diagnostics, not raised).
    // lint: hot-path
    pub fn push_samples(&mut self, chunk: &[f64]) -> Result<usize, EarSonarError> {
        self.stream
            .push_samples_with(self.front_end, &mut self.scratch, chunk)
    }

    /// Chirp windows pushed so far (complete windows only).
    pub fn chirps_pushed(&self) -> usize {
        self.stream.chirps_pushed()
    }

    /// Chirps that survived to an impulse response so far.
    pub fn chirps_used(&self) -> usize {
        self.stream.chirps_used()
    }

    /// Per-stage counters accumulated so far.
    pub fn diagnostics(&self) -> Diagnostics {
        self.stream.diagnostics()
    }

    /// Session-level signal quality over everything pushed so far:
    /// acceptance counts, per-cause rejections, mean chirp score, and the
    /// derived confidence. Available before [`StreamingFrontEnd::finish`],
    /// so a caller can abort or re-measure a session that is going badly.
    pub fn quality(&self) -> SessionQuality {
        self.stream.quality()
    }

    /// Returns `true` once at least `min_chirps` chirps have produced
    /// impulse responses — the early-finish signal: a caller may stop
    /// pushing and call [`StreamingFrontEnd::finish`] without waiting for
    /// the rest of the capture.
    pub fn ready(&self, min_chirps: usize) -> bool {
        self.stream.ready(min_chirps)
    }

    /// Splits the wrapper into its session state and scratch, so a caller
    /// can continue through the scratch-external [`ChirpStream`] API (for
    /// example to hand the pieces to [`crate::screening::resolve_stream`]).
    pub fn into_parts(self) -> (ChirpStream, DspScratch) {
        (self.stream, self.scratch)
    }

    /// Runs the recording-level stages over everything pushed so far and
    /// returns the processed recording. A trailing partial window (fewer
    /// than `hop` buffered samples) is pushed first, exactly as the batch
    /// path processes a short final chirp window.
    ///
    /// # Errors
    ///
    /// Returns [`EarSonarError::NoEchoDetected`] if no pushed chirp
    /// yielded a usable echo.
    pub fn finish(mut self) -> Result<ProcessedRecording, EarSonarError> {
        self.stream.finish_with(self.front_end, &mut self.scratch)
    }
}

/// Screens one capture from a [`SignalSource`] through a streaming front
/// end: captures a recording, pushes it chirp by chirp, and finalizes.
/// Returns `Ok(None)` when the source is exhausted.
///
/// # Errors
///
/// Returns [`EarSonarError::Signal`] for capture failures and propagates
/// front-end errors.
pub fn process_next_capture(
    front_end: &FrontEnd,
    source: &mut dyn SignalSource,
) -> Result<Option<ProcessedRecording>, EarSonarError> {
    let recording: Recording = match source.capture().map_err(EarSonarError::Signal)? {
        Some(r) => r,
        None => return Ok(None),
    };
    let mut stream = StreamingFrontEnd::new(front_end);
    stream.push_samples(&recording.samples)?;
    stream.finish().map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EarSonarConfig;
    use earsonar_sim::cohort::Cohort;
    use earsonar_sim::session::{RecordSession, Session, SessionConfig};
    use earsonar_sim::source::SimulatedEar;

    fn recording() -> Recording {
        let cohort = Cohort::generate(1, 21);
        Session::record(&cohort.patients()[0], 0, &SessionConfig::default(), 0).recording
    }

    #[test]
    fn chirp_pushes_match_batch() {
        let fe = FrontEnd::new(&EarSonarConfig::default()).unwrap();
        let rec = recording();
        let batch = fe.process(&rec).unwrap();

        let mut stream = StreamingFrontEnd::new(&fe);
        for c in 0..rec.n_chirps {
            stream.push_chirp(rec.chirp_window(c)).unwrap();
        }
        assert_eq!(stream.chirps_pushed(), rec.n_chirps);
        let streamed = stream.finish().unwrap();
        assert_eq!(streamed.features, batch.features);
        assert_eq!(streamed.chirps_used, batch.chirps_used);
        assert_eq!(streamed.diagnostics, batch.diagnostics);
    }

    #[test]
    fn external_scratch_stream_matches_wrapper() {
        // ChirpStream with a borrowed scratch is the multiplexer's path;
        // it must be bit-identical to the owning wrapper.
        let fe = FrontEnd::new(&EarSonarConfig::default()).unwrap();
        let rec = recording();

        let mut wrapper = StreamingFrontEnd::new(&fe);
        wrapper.push_samples(&rec.samples).unwrap();
        let via_wrapper = wrapper.finish().unwrap();

        let mut scratch = DspScratch::new();
        let mut stream = ChirpStream::new(&fe);
        for chunk in rec.samples.chunks(737) {
            stream.push_samples_with(&fe, &mut scratch, chunk).unwrap();
        }
        let via_stream = stream.finish_with(&fe, &mut scratch).unwrap();

        assert_eq!(via_stream.features, via_wrapper.features);
        assert_eq!(via_stream.diagnostics, via_wrapper.diagnostics);
        assert_eq!(via_stream.quality, via_wrapper.quality);
    }

    #[test]
    fn misaligned_push_chirp_is_rejected() {
        let fe = FrontEnd::new(&EarSonarConfig::default()).unwrap();
        let rec = recording();
        let mut stream = StreamingFrontEnd::new(&fe);
        stream.push_samples(&rec.samples[..100]).unwrap();
        assert!(matches!(
            stream.push_chirp(rec.chirp_window(1)),
            Err(EarSonarError::BadRecording { .. })
        ));
    }

    #[test]
    fn early_finish_after_enough_chirps() {
        let fe = FrontEnd::new(&EarSonarConfig::default()).unwrap();
        let rec = recording();
        let mut stream = StreamingFrontEnd::new(&fe);
        let mut pushed = 0;
        for c in 0..rec.n_chirps {
            stream.push_chirp(rec.chirp_window(c)).unwrap();
            pushed += 1;
            if stream.ready(8) {
                break;
            }
        }
        assert!(pushed < rec.n_chirps, "early finish never triggered");
        let p = stream.finish().unwrap();
        assert!(p.chirps_used >= 8);
        assert_eq!(p.features.len(), crate::features::FEATURE_COUNT);
    }

    #[test]
    fn empty_stream_has_no_echo() {
        let fe = FrontEnd::new(&EarSonarConfig::default()).unwrap();
        let stream = StreamingFrontEnd::new(&fe);
        assert!(matches!(
            stream.finish(),
            Err(EarSonarError::NoEchoDetected)
        ));
    }

    #[test]
    fn source_screening_round_trip() {
        let fe = FrontEnd::new(&EarSonarConfig::default()).unwrap();
        let cohort = Cohort::generate(1, 13);
        let mut source = SimulatedEar::new(cohort.patients()[0].clone(), SessionConfig::default());
        let p = process_next_capture(&fe, &mut source).unwrap().unwrap();
        assert!(p.chirps_used > 0);
        assert_eq!(p.features.len(), crate::features::FEATURE_COUNT);
    }
}
