//! Engine sizing and policy knobs.

use earsonar::screening::RetryPolicy;

/// Sizing and policy configuration for a [`crate::ScreeningEngine`].
///
/// Every count is clamped to at least 1 at engine construction, mirroring
/// the forgiving-clamp idiom of [`RetryPolicy`]: a zero knob means "the
/// smallest legal value", never a panic or a degenerate engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Maximum buffered sample chunks per session. A push against a full
    /// queue returns [`crate::Rejected::QueueFull`] — the producer slows
    /// down. This bounds chunks, not samples: a chunk may be any length.
    pub queue_capacity: usize,
    /// Maximum concurrently open sessions. [`crate::ScreeningEngine::open`]
    /// beyond this returns [`crate::Rejected::TableFull`].
    pub max_sessions: usize,
    /// Idle ticks before an unclosed session with an empty queue is
    /// evicted and resolved as inconclusive (source exhausted). Time is
    /// the logical clock advanced by [`crate::ScreeningEngine::tick`].
    pub keep_alive_ticks: u64,
    /// Quorum and confidence policy applied when a session resolves —
    /// the same [`RetryPolicy`] sequential screening uses, so verdicts
    /// match bit for bit.
    pub policy: RetryPolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            queue_capacity: 32,
            max_sessions: 4096,
            keep_alive_ticks: 8,
            policy: RetryPolicy::default(),
        }
    }
}

impl EngineConfig {
    /// The config with every count clamped to its smallest legal value.
    pub(crate) fn normalized(mut self) -> Self {
        self.queue_capacity = self.queue_capacity.max(1);
        self.max_sessions = self.max_sessions.max(1);
        self.keep_alive_ticks = self.keep_alive_ticks.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_knobs_clamp_to_one() {
        let c = EngineConfig {
            queue_capacity: 0,
            max_sessions: 0,
            keep_alive_ticks: 0,
            policy: RetryPolicy::default(),
        }
        .normalized();
        assert_eq!(c.queue_capacity, 1);
        assert_eq!(c.max_sessions, 1);
        assert_eq!(c.keep_alive_ticks, 1);
    }
}
