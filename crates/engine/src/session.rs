//! Session identity, typed admission refusals, and resolved results.

use earsonar::diagnostics::Diagnostics;
use earsonar::error::EarSonarError;
use earsonar::screening::ScreeningOutcome;
use std::fmt;

/// Caller-chosen identifier of one screening session (one ear, one
/// continuous capture). The engine keys its table on the raw value, so
/// ids may be anything unique — sequence numbers, device hashes, database
/// keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session {}", self.0)
    }
}

/// A typed admission refusal. Backpressure is always explicit: a caller
/// that sees [`Rejected::QueueFull`] or [`Rejected::TableFull`] must slow
/// down and retry after a drain — the engine never drops a sample
/// silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// The session table already holds `capacity` in-flight sessions.
    TableFull {
        /// The configured `max_sessions` bound that was hit.
        capacity: usize,
    },
    /// `open` named an id that is already in flight.
    DuplicateSession,
    /// `push`/`close` named an id that is not in flight (never opened,
    /// already resolved, or already evicted).
    UnknownSession,
    /// `push` after `close`: the producer already declared the stream
    /// finished.
    SessionClosed,
    /// The session's ingest queue already holds `capacity` chunks; drain
    /// before retrying.
    QueueFull {
        /// The configured `queue_capacity` bound that was hit.
        capacity: usize,
    },
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejected::TableFull { capacity } => {
                write!(f, "session table full ({capacity} in flight)")
            }
            Rejected::DuplicateSession => write!(f, "session id already in flight"),
            Rejected::UnknownSession => write!(f, "session id not in flight"),
            Rejected::SessionClosed => write!(f, "session already closed"),
            Rejected::QueueFull { capacity } => {
                write!(f, "ingest queue full ({capacity} chunks buffered)")
            }
        }
    }
}

impl std::error::Error for Rejected {}

/// One resolved session, handed back by
/// [`crate::ScreeningEngine::take_completed`].
#[derive(Debug, Clone)]
pub struct CompletedSession {
    /// The id the session was opened under.
    pub id: SessionId,
    /// The screening outcome — exactly what sequential
    /// [`earsonar::screening::screen_recording_quality`] would have
    /// returned for the same sample stream.
    pub outcome: Result<ScreeningOutcome, EarSonarError>,
    /// `true` when the session was resolved by keep-alive eviction
    /// rather than an explicit `close` + drain.
    pub evicted: bool,
    /// Logical-clock tick at which the session was opened.
    pub opened_tick: u64,
    /// Logical-clock tick at which the session resolved.
    pub resolved_tick: u64,
    /// Per-stage front-end counters for this session alone.
    pub diagnostics: Diagnostics,
}
