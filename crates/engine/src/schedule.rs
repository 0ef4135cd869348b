//! Deterministic schedule exploration: replay chosen worker/ingest
//! interleavings through the engine and check that the answer never
//! depends on the schedule.
//!
//! The bit-identity contract ("engine verdicts equal sequential
//! screening") is only as strong as the set of interleavings it has been
//! checked against. A [`Schedule`] makes one interleaving a first-class,
//! replayable value: the cross-session delivery order of every ingest
//! chunk, the worker count, and a drain cadence. [`enumerate_all`]
//! produces *every* distinct delivery order for small session counts
//! (bounded exhaustive); [`Schedule::seeded`] samples the space
//! reproducibly beyond that. [`explore`] replays a set of schedules and
//! reports any divergence from the sequential baseline instead of
//! panicking — the engine crate is panic-free by lint.
//!
//! Two invariant families are checked on every replay:
//!
//! * **verdict bit-identity** — outcome, diagnostics, and eviction flag
//!   of every session equal the baseline's exactly ([`explore`]);
//! * **queue accounting** — every chunk the engine *accepted* is
//!   eventually processed and its session resolved; a
//!   [`Rejected::QueueFull`] refusal never loses an accepted sample
//!   (the replay retries after a drain and proves the session still
//!   resolves) ([`replay`]).

use crate::config::EngineConfig;
use crate::engine::ScreeningEngine;
use crate::session::{CompletedSession, Rejected, SessionId};
use earsonar::EarSonar;
use earsonar_dsp::rng::DetRng;
use earsonar_signal::recording::Recording;
use std::fmt;

/// Backpressure retries per chunk before the replay declares the engine
/// stalled. A drain always services sessions with queued chunks, so a
/// healthy engine frees queue space in one round; the bound exists so a
/// regression surfaces as an error instead of a hung test.
const MAX_BACKPRESSURE_RETRIES: usize = 1024;

/// One deterministic interleaving of ingest and drain work.
///
/// `tokens[k] == s` means "deliver session `s`'s next chunk at step
/// `k`"; per-session chunk order is always preserved, so a token vector
/// is exactly a cross-session delivery order. Equal token vectors with
/// different `workers` or `drain_every` are still different schedules —
/// they exercise different drain interleavings.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Schedule {
    /// Session index per delivery step.
    pub tokens: Vec<usize>,
    /// Workers requested for every drain this schedule triggers.
    pub workers: usize,
    /// Run a drain after every `drain_every` deliveries (0 = only the
    /// final drain and backpressure-forced ones).
    pub drain_every: usize,
}

impl Schedule {
    /// The sequential schedule: session 0's chunks, then session 1's, …
    /// — the baseline every other schedule is compared against.
    pub fn sequential(chunk_counts: &[usize], workers: usize) -> Self {
        let mut tokens = Vec::new();
        for (s, &count) in chunk_counts.iter().enumerate() {
            tokens.extend(std::iter::repeat_n(s, count));
        }
        Schedule {
            tokens,
            workers,
            drain_every: 0,
        }
    }

    /// A seeded-random schedule: the sequential token vector shuffled by
    /// [`DetRng`]. Same seed, same schedule — failures replay exactly.
    pub fn seeded(chunk_counts: &[usize], seed: u64, workers: usize, drain_every: usize) -> Self {
        let mut schedule = Self::sequential(chunk_counts, workers);
        let mut rng = DetRng::seed_from_u64(seed);
        rng.shuffle(&mut schedule.tokens);
        schedule.drain_every = drain_every;
        schedule
    }

    /// A short human-readable label for failure messages.
    pub fn label(&self) -> String {
        format!(
            "schedule(workers={}, drain_every={}, tokens={:?})",
            self.workers, self.drain_every, self.tokens
        )
    }
}

/// Every distinct delivery order for the given per-session chunk counts,
/// in lexicographic order, capped at `limit` schedules. The count is the
/// multinomial `(Σcᵢ)! / Πcᵢ!` — bounded exhaustive exploration is
/// feasible for small session/chunk counts only, which is exactly where
/// interleaving bugs hide (two-session races need two sessions, not
/// sixty-four).
pub fn enumerate_all(chunk_counts: &[usize], workers: usize, limit: usize) -> Vec<Schedule> {
    let mut tokens = Schedule::sequential(chunk_counts, workers).tokens;
    tokens.sort_unstable();
    let mut out = Vec::new();
    loop {
        if out.len() >= limit {
            break;
        }
        out.push(Schedule {
            tokens: tokens.clone(),
            workers,
            drain_every: 0,
        });
        if !next_permutation(&mut tokens) {
            break;
        }
    }
    out
}

/// Advances `t` to the next lexicographic multiset permutation; `false`
/// when `t` was the last one.
fn next_permutation(t: &mut [usize]) -> bool {
    if t.len() < 2 {
        return false;
    }
    let mut i = t.len() - 1;
    while i > 0 && t[i - 1] >= t[i] {
        i -= 1;
    }
    if i == 0 {
        return false;
    }
    let mut j = t.len() - 1;
    while t[j] <= t[i - 1] {
        j -= 1;
    }
    t.swap(i - 1, j);
    t[i..].reverse();
    true
}

/// What one replayed schedule produced, with the queue-accounting
/// evidence alongside the verdicts.
#[derive(Debug)]
pub struct Replay {
    /// Resolved sessions, sorted by id.
    pub completed: Vec<CompletedSession>,
    /// Chunks the engine accepted per session (equals the offered count
    /// when the replay returns `Ok` — acceptance is retried through
    /// backpressure until it lands).
    pub accepted: Vec<usize>,
    /// Drains forced by [`Rejected::QueueFull`] backpressure.
    pub backpressure_drains: usize,
    /// Drains run on the schedule's `drain_every` cadence.
    pub scheduled_drains: usize,
}

/// Why a replay could not complete. Every variant is an engine-contract
/// violation (or a malformed schedule), not a test harness panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// A token named a session outside `0..recordings.len()`, or more
    /// chunks than the session has.
    TokenOutOfRange {
        /// Index into the token vector.
        position: usize,
        /// The offending session index.
        token: usize,
    },
    /// The engine refused an operation the schedule is entitled to.
    Rejected {
        /// Session the operation targeted.
        session: usize,
        /// The typed refusal.
        error: Rejected,
    },
    /// `QueueFull` persisted through `MAX_BACKPRESSURE_RETRIES` drain
    /// + retry rounds — accepted work is not being serviced.
    BackpressureStall {
        /// Session whose chunk could not be delivered.
        session: usize,
    },
    /// Sessions were still in flight after the final drain: accepted
    /// chunks were dropped instead of resolved.
    Unresolved {
        /// The engine's in-flight count after the final drain.
        in_flight: usize,
    },
    /// A session every chunk was accepted for has no completed record.
    Missing {
        /// The session with no verdict.
        session: usize,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::TokenOutOfRange { position, token } => {
                write!(f, "token {token} at position {position} is out of range")
            }
            ScheduleError::Rejected { session, error } => {
                write!(f, "session {session} rejected: {error}")
            }
            ScheduleError::BackpressureStall { session } => write!(
                f,
                "session {session} still backpressured after {MAX_BACKPRESSURE_RETRIES} drains"
            ),
            ScheduleError::Unresolved { in_flight } => {
                write!(f, "{in_flight} sessions unresolved after the final drain")
            }
            ScheduleError::Missing { session } => {
                write!(
                    f,
                    "session {session} accepted chunks but produced no verdict"
                )
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Replays one schedule through a fresh engine: open every session, push
/// chunks in token order (draining and retrying on backpressure), close,
/// final drain. Checks the queue-accounting invariants — every accepted
/// chunk's session resolves, nothing is dropped — and returns the
/// completed sessions for identity comparison.
///
/// # Errors
///
/// Any [`ScheduleError`]: malformed schedule, unexpected refusal,
/// backpressure stall, or sessions left unresolved.
pub fn replay(
    system: &EarSonar,
    recordings: &[Recording],
    config: EngineConfig,
    schedule: &Schedule,
    chunk_len: usize,
) -> Result<Replay, ScheduleError> {
    let engine = ScreeningEngine::new(system, config);
    let chunk_len = chunk_len.max(1);
    let chunk_counts: Vec<usize> = recordings
        .iter()
        .map(|r| r.samples.len().div_ceil(chunk_len))
        .collect();

    for (s, _) in recordings.iter().enumerate() {
        engine
            .open(SessionId(s as u64))
            .map_err(|error| ScheduleError::Rejected { session: s, error })?;
    }

    let mut cursor = vec![0usize; recordings.len()];
    let mut accepted = vec![0usize; recordings.len()];
    let mut backpressure_drains = 0usize;
    let mut scheduled_drains = 0usize;

    for (position, &s) in schedule.tokens.iter().enumerate() {
        if s >= recordings.len() || cursor[s] >= chunk_counts[s] {
            return Err(ScheduleError::TokenOutOfRange { position, token: s });
        }
        let lo = cursor[s] * chunk_len;
        let hi = (lo + chunk_len).min(recordings[s].samples.len());
        cursor[s] += 1;
        let chunk = &recordings[s].samples[lo..hi];

        let mut delivered = false;
        for _ in 0..MAX_BACKPRESSURE_RETRIES {
            match engine.push(SessionId(s as u64), chunk) {
                Ok(()) => {
                    accepted[s] += 1;
                    delivered = true;
                    break;
                }
                Err(Rejected::QueueFull { .. }) => {
                    // The refused chunk was NOT accepted; drain to free
                    // queue space and offer the same chunk again. The
                    // invariant under test: backpressure refuses loudly
                    // instead of dropping silently.
                    engine.drain(schedule.workers);
                    backpressure_drains += 1;
                }
                Err(error) => return Err(ScheduleError::Rejected { session: s, error }),
            }
        }
        if !delivered {
            return Err(ScheduleError::BackpressureStall { session: s });
        }

        if schedule.drain_every > 0 && (position + 1) % schedule.drain_every == 0 {
            engine.drain(schedule.workers);
            scheduled_drains += 1;
        }
    }

    for (s, _) in recordings.iter().enumerate() {
        engine
            .close(SessionId(s as u64))
            .map_err(|error| ScheduleError::Rejected { session: s, error })?;
    }
    engine.drain(schedule.workers);

    // Accepted ⇒ resolved: nothing may still be in flight, and every
    // session must have exactly one completed record.
    let in_flight = engine.in_flight();
    if in_flight != 0 {
        return Err(ScheduleError::Unresolved { in_flight });
    }
    let completed = engine.take_completed();
    for (s, _) in recordings.iter().enumerate() {
        let records = completed
            .iter()
            .filter(|c| c.id == SessionId(s as u64))
            .count();
        if records != 1 {
            return Err(ScheduleError::Missing { session: s });
        }
    }
    Ok(Replay {
        completed,
        accepted,
        backpressure_drains,
        scheduled_drains,
    })
}

/// One field of one session that differed from the baseline.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Label of the schedule that diverged.
    pub schedule: String,
    /// The session whose result differed.
    pub session: u64,
    /// Which field differed: `"outcome"`, `"diagnostics"`, or
    /// `"evicted"`.
    pub field: &'static str,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "session {} {} diverged under {}",
            self.session, self.field, self.schedule
        )
    }
}

/// The result of exploring a set of schedules against the sequential
/// baseline.
#[derive(Debug)]
pub struct Exploration {
    /// Schedules replayed (baseline excluded).
    pub schedules_run: usize,
    /// Every field-level divergence from the baseline; empty means every
    /// explored interleaving produced bit-identical results.
    pub divergences: Vec<Divergence>,
    /// The baseline results (sequential schedule, one worker).
    pub baseline: Vec<CompletedSession>,
}

impl Exploration {
    /// True when every explored schedule matched the baseline exactly.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Replays every schedule and compares each session's outcome,
/// diagnostics, and eviction flag against the sequential single-worker
/// baseline. Comparison is exact (`PartialEq` over every float) — the
/// schedule must not be part of the answer.
///
/// # Errors
///
/// The first [`ScheduleError`] any replay hits; identity *divergences*
/// are data in the returned [`Exploration`], not errors.
pub fn explore(
    system: &EarSonar,
    recordings: &[Recording],
    config: EngineConfig,
    schedules: &[Schedule],
    chunk_len: usize,
) -> Result<Exploration, ScheduleError> {
    let chunk_counts: Vec<usize> = recordings
        .iter()
        .map(|r| r.samples.len().div_ceil(chunk_len.max(1)))
        .collect();
    let baseline_schedule = Schedule::sequential(&chunk_counts, 1);
    let baseline = replay(system, recordings, config, &baseline_schedule, chunk_len)?.completed;

    let mut divergences = Vec::new();
    for schedule in schedules {
        let run = replay(system, recordings, config, schedule, chunk_len)?;
        for (ours, theirs) in run.completed.iter().zip(baseline.iter()) {
            if ours.outcome != theirs.outcome {
                divergences.push(Divergence {
                    schedule: schedule.label(),
                    session: ours.id.0,
                    field: "outcome",
                });
            }
            if ours.diagnostics != theirs.diagnostics {
                divergences.push(Divergence {
                    schedule: schedule.label(),
                    session: ours.id.0,
                    field: "diagnostics",
                });
            }
            if ours.evicted != theirs.evicted {
                divergences.push(Divergence {
                    schedule: schedule.label(),
                    session: ours.id.0,
                    field: "evicted",
                });
            }
        }
    }
    Ok(Exploration {
        schedules_run: schedules.len(),
        divergences,
        baseline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_schedule_lists_sessions_in_order() {
        let s = Schedule::sequential(&[2, 1, 3], 1);
        assert_eq!(s.tokens, vec![0, 0, 1, 2, 2, 2]);
    }

    #[test]
    fn enumerate_all_produces_the_multinomial_count() {
        // 3 sessions x 2 chunks: 6! / (2!·2!·2!) = 90 distinct orders.
        let all = enumerate_all(&[2, 2, 2], 1, usize::MAX);
        assert_eq!(all.len(), 90);
        // All distinct.
        let mut seen = std::collections::BTreeSet::new();
        for s in &all {
            assert!(seen.insert(s.tokens.clone()), "duplicate {:?}", s.tokens);
        }
        // Per-session chunk counts preserved in every permutation.
        for s in &all {
            for session in 0..3 {
                assert_eq!(s.tokens.iter().filter(|&&t| t == session).count(), 2);
            }
        }
    }

    #[test]
    fn enumerate_all_respects_the_limit() {
        let some = enumerate_all(&[2, 2, 2], 1, 10);
        assert_eq!(some.len(), 10);
    }

    #[test]
    fn seeded_schedules_are_reproducible_and_seed_sensitive() {
        let a = Schedule::seeded(&[3, 3, 3], 7, 2, 4);
        let b = Schedule::seeded(&[3, 3, 3], 7, 2, 4);
        let c = Schedule::seeded(&[3, 3, 3], 8, 2, 4);
        assert_eq!(a, b);
        assert_ne!(a.tokens, c.tokens);
        // A shuffle permutes, never drops.
        let mut sorted = a.tokens.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 0, 0, 1, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn next_permutation_walks_the_full_multiset() {
        let mut t = vec![0, 0, 1, 1];
        let mut count = 1;
        while next_permutation(&mut t) {
            count += 1;
        }
        assert_eq!(count, 6); // 4! / (2!·2!)
        assert_eq!(t, vec![1, 1, 0, 0]); // wrapped to the last order
    }
}
