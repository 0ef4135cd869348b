//! The capture boundary: where sample streams come from.
//!
//! The pipeline never cares whether a [`Recording`] was
//! synthesized, decoded from a file, or pulled off an earphone driver —
//! only that it follows a chirp layout. [`SignalSource`] is that contract:
//! a backend yields recordings until it runs dry. The simulator implements
//! it over virtual patients; [`crate::wav`] implements it over audio
//! files; a device backend would implement it over a capture ring buffer.

use crate::recording::Recording;
use earsonar_dsp::DspError;
use std::error::Error;
use std::fmt;

/// Error returned by a capture backend.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SignalError {
    /// The underlying decoder or DSP kernel rejected the stream.
    Dsp(DspError),
    /// A backend-level failure (I/O, device, protocol), described.
    Source(String),
    /// The captured samples do not fit the declared chirp layout.
    BadLayout {
        /// What was wrong with the capture.
        reason: &'static str,
    },
    /// The capture's sample rate does not match the layout's.
    RateMismatch {
        /// Rate the capture arrived at, in hertz.
        found: f64,
        /// Rate the layout requires, in hertz.
        expected: f64,
    },
}

impl fmt::Display for SignalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignalError::Dsp(e) => write!(f, "decode error: {e}"),
            SignalError::Source(msg) => write!(f, "signal source error: {msg}"),
            SignalError::BadLayout { reason } => {
                write!(f, "capture does not fit the chirp layout: {reason}")
            }
            SignalError::RateMismatch { found, expected } => {
                write!(f, "sample rate {found} Hz does not match the layout's {expected} Hz")
            }
        }
    }
}

impl Error for SignalError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SignalError::Dsp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DspError> for SignalError {
    fn from(e: DspError) -> Self {
        SignalError::Dsp(e)
    }
}

/// A backend that captures chirp-train recordings.
///
/// `capture` yields the next recording, or `Ok(None)` once the source is
/// exhausted (a file list fully read, a study concluded). Implementations
/// must produce recordings whose `chirp_hop`/`chirp_len`/`sample_rate`
/// match the layout they were configured with, so the pipeline can slice
/// per-chirp windows without re-negotiating the schedule.
pub trait SignalSource {
    /// One-line description of where samples come from (device name, file
    /// path, simulated patient) for logs and progress output.
    fn describe(&self) -> String;

    /// Captures the next recording; `Ok(None)` when the source is done.
    ///
    /// # Errors
    ///
    /// Returns [`SignalError`] when a capture was attempted and failed
    /// (distinct from exhaustion, which is `Ok(None)`).
    fn capture(&mut self) -> Result<Option<Recording>, SignalError>;
}

/// A source yielding a fixed queue of in-memory recordings — the minimal
/// conforming [`SignalSource`]. Useful as a test double anywhere a capture
/// backend is expected, and as the deterministic repeat-measurement source
/// behind retry-policy tests (queue the same recording several times).
#[derive(Debug, Clone)]
pub struct QueueSource {
    queue: Vec<Recording>,
    next: usize,
}

impl QueueSource {
    /// A source that yields `recordings` in order, then reports
    /// exhaustion.
    pub fn new(recordings: Vec<Recording>) -> QueueSource {
        QueueSource {
            queue: recordings,
            next: 0,
        }
    }

    /// A source that yields `recording` `copies` times.
    pub fn repeating(recording: Recording, copies: usize) -> QueueSource {
        QueueSource::new(vec![recording; copies])
    }

    /// Recordings not yet captured.
    pub fn remaining(&self) -> usize {
        self.queue.len().saturating_sub(self.next)
    }
}

impl SignalSource for QueueSource {
    fn describe(&self) -> String {
        format!("queue of {} recordings", self.queue.len())
    }

    fn capture(&mut self) -> Result<Option<Recording>, SignalError> {
        match self.queue.get(self.next) {
            None => Ok(None),
            Some(r) => {
                self.next += 1;
                Ok(Some(r.clone()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(tag: f64) -> Recording {
        Recording {
            samples: vec![tag; 240],
            sample_rate: 48_000.0,
            chirp_hop: 240,
            n_chirps: 1,
            chirp_len: 24,
        }
    }

    #[test]
    fn sources_yield_until_exhausted() {
        let mut src = QueueSource::new(vec![rec(1.0), rec(2.0)]);
        assert!(src.describe().contains("2 recordings"));
        assert_eq!(src.remaining(), 2);
        assert_eq!(src.capture().unwrap().unwrap().samples[0], 1.0);
        assert_eq!(src.capture().unwrap().unwrap().samples[0], 2.0);
        assert_eq!(src.remaining(), 0);
        assert!(src.capture().unwrap().is_none());
    }

    #[test]
    fn repeating_queue_replays_the_same_recording() {
        let mut src = QueueSource::repeating(rec(3.0), 3);
        for _ in 0..3 {
            assert_eq!(src.capture().unwrap().unwrap().samples[0], 3.0);
        }
        assert!(src.capture().unwrap().is_none());
    }

    #[test]
    fn errors_display_and_chain() {
        let e: SignalError = DspError::EmptyInput.into();
        assert!(e.to_string().contains("decode"));
        assert!(e.source().is_some());
        let e = SignalError::RateMismatch {
            found: 44_100.0,
            expected: 48_000.0,
        };
        assert!(e.to_string().contains("44100"));
        assert!(e.source().is_none());
        assert!(SignalError::BadLayout { reason: "too short" }
            .to_string()
            .contains("too short"));
        assert!(SignalError::Source("device unplugged".into())
            .to_string()
            .contains("unplugged"));
    }
}
