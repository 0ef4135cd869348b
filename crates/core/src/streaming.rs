//! Incremental, chirp-at-a-time front-end processing.
//!
//! On hardware the microphone delivers audio as it is captured; waiting
//! for the full 10 s session before any processing starts wastes both
//! latency and the chance to stop early once enough clean chirps are in.
//! [`ChirpStream`] accepts the sample stream incrementally — whole chirp
//! windows via [`ChirpStream::push_chirp_with`] or arbitrary
//! capture-buffer chunks via [`ChirpStream::push_samples_with`] — runs the
//! per-chirp stages as each window completes, and defers the
//! recording-level stages to [`ChirpStream::finish_with`] (or to
//! [`crate::screening::resolve_stream`], which finishes and classifies).
//!
//! The streaming path is **bit-identical** to [`FrontEnd::process`]: both
//! drive the same [`FrontEnd`] per-chirp stage over the same window
//! sequence and the same finalize stage over the accumulated impulse
//! responses, so every float comes out equal regardless of how the
//! samples were chunked on the way in (see `tests/streaming_equivalence`).

use crate::diagnostics::Diagnostics;
use crate::error::EarSonarError;
use crate::pipeline::{ChirpAccumulator, ChirpOutcome, FrontEnd, ProcessedRecording};
use crate::quality::SessionQuality;
use earsonar_dsp::plan::DspScratch;

/// One streaming session: the chirp accumulator plus the partial-window
/// reassembly buffer, with the shared [`FrontEnd`] and a caller-owned
/// [`DspScratch`] passed in at every call.
///
/// A single-session caller owns one scratch next to its stream; a
/// multiplexer holding thousands of open sessions keeps one `ChirpStream`
/// per session (a few kilobytes of accumulated state) and lends each
/// processing worker a single warm scratch instead — the scratch is a pure
/// buffer pool, so which one is used never changes a single output bit.
///
/// Every `*_with` call must receive the same `front_end` the stream was
/// created from: the hop length and gate thresholds are baked into the
/// accumulated state, and mixing front ends would silently blend two
/// configurations.
///
/// # Example
///
/// ```
/// # use earsonar::pipeline::FrontEnd;
/// # use earsonar::streaming::ChirpStream;
/// # use earsonar::EarSonarConfig;
/// # use earsonar_dsp::plan::DspScratch;
/// # use earsonar_sim::cohort::Cohort;
/// # use earsonar_sim::session::{RecordSession, Session, SessionConfig};
/// let front_end = FrontEnd::new(&EarSonarConfig::default()).unwrap();
/// let cohort = Cohort::generate(1, 5);
/// let session = Session::record(&cohort.patients()[0], 0, &SessionConfig::default(), 0);
///
/// let mut scratch = DspScratch::new();
/// let mut stream = ChirpStream::new(&front_end);
/// for chunk in session.recording.samples.chunks(480) {
///     stream.push_samples_with(&front_end, &mut scratch, chunk).unwrap();
/// }
/// let processed = stream.finish_with(&front_end, &mut scratch).unwrap();
/// assert!(processed.chirps_used > 0);
/// ```
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

    /// Pushes one whole chirp window and runs the per-chirp stages on it.
    ///
    /// # Errors
    ///
    /// Returns [`EarSonarError::BadRecording`] if the stream holds a
    /// partially received window (mixing [`ChirpStream::push_samples_with`]
    /// chunks with whole-window pushes at a misaligned point would silently
    /// shear every later chirp off the transmit grid).
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

    /// Chirps that survived to an impulse response so far.
    pub fn chirps_used(&self) -> usize {
        self.acc.diagnostics.irs_estimated
    }

    /// Per-stage counters accumulated so far, including the chirp windows
    /// pushed (complete windows only).
    pub fn diagnostics(&self) -> Diagnostics {
        self.acc.diagnostics
    }

    /// Session-level signal quality over everything pushed so far:
    /// acceptance counts, per-cause rejections, mean chirp score, and the
    /// derived confidence. Available before [`ChirpStream::finish_with`],
    /// so a caller can abort or re-measure a session that is going badly.
    pub fn quality(&self) -> SessionQuality {
        self.acc.session_quality()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EarSonarConfig;
    use earsonar_signal::recording::Recording;
    use earsonar_sim::cohort::Cohort;
    use earsonar_sim::session::{RecordSession, Session, SessionConfig};

    fn recording() -> Recording {
        let cohort = Cohort::generate(1, 21);
        Session::record(&cohort.patients()[0], 0, &SessionConfig::default(), 0).recording
    }

    #[test]
    fn misaligned_push_chirp_is_rejected() {
        let fe = FrontEnd::new(&EarSonarConfig::default()).unwrap();
        let rec = recording();
        let mut scratch = DspScratch::new();
        let mut stream = ChirpStream::new(&fe);
        stream
            .push_samples_with(&fe, &mut scratch, &rec.samples[..100])
            .unwrap();
        assert!(matches!(
            stream.push_chirp_with(&fe, &mut scratch, rec.chirp_window(1)),
            Err(EarSonarError::BadRecording { .. })
        ));
    }

    #[test]
    fn empty_stream_has_no_echo() {
        let fe = FrontEnd::new(&EarSonarConfig::default()).unwrap();
        let stream = ChirpStream::new(&fe);
        assert!(matches!(
            stream.finish_with(&fe, &mut DspScratch::new()),
            Err(EarSonarError::NoEchoDetected)
        ));
    }
}
