//! Shared fixtures for the engine integration tests: one trained system
//! per test binary, simulated recordings, the sequential-screening
//! reference, and the schedule-replay harness.

// Each test binary compiles its own copy of this module and uses a
// different subset of the helpers.
#![allow(dead_code)]

use earsonar::diagnostics::Diagnostics;
use earsonar::screening::{screen_recording_quality, RetryPolicy, ScreeningOutcome};
use earsonar::streaming::ChirpStream;
use earsonar::{EarSonar, EarSonarConfig};
use earsonar_dsp::plan::DspScratch;
use earsonar_dsp::rng::DetRng;
use earsonar_engine::{CompletedSession, EngineConfig, Rejected, ScreeningEngine, SessionId};
use earsonar_signal::recording::Recording;
use earsonar_sim::cohort::Cohort;
use earsonar_sim::dataset::{Dataset, DatasetSpec};
use earsonar_sim::session::{RecordSession, Session, SessionConfig};
use std::sync::OnceLock;

/// A trained system, fitted once per test binary.
pub fn system() -> &'static EarSonar {
    static SYSTEM: OnceLock<EarSonar> = OnceLock::new();
    SYSTEM.get_or_init(|| {
        let data = Dataset::build(&Cohort::generate(8, 3), &DatasetSpec::default());
        EarSonar::fit(&data.sessions, &EarSonarConfig::default()).expect("fit")
    })
}

/// `n` distinct simulated recordings, each truncated to its first
/// `n_chirps` chirps so debug-mode test time stays bounded (the front
/// end is partition-invariant, so a short recording exercises the same
/// code).
pub fn recordings(n: usize, seed: u64, n_chirps: usize) -> Vec<Recording> {
    let cohort = Cohort::generate(n.div_ceil(4).max(1), seed);
    let patients = cohort.patients();
    (0..n)
        .map(|i| {
            let mut rec = Session::record(
                &patients[i % patients.len()],
                0,
                &SessionConfig::default(),
                seed + i as u64,
            )
            .recording;
            rec.n_chirps = n_chirps.min(rec.n_chirps).max(1);
            rec.samples.truncate(rec.n_chirps * rec.chirp_hop);
            rec
        })
        .collect()
}

/// Sequential screening of each recording: the outcome of
/// [`screen_recording_quality`] and the diagnostics of a [`ChirpStream`]
/// fed the same samples. Every engine session is held to this.
pub fn sequential(
    system: &EarSonar,
    recs: &[Recording],
    policy: &RetryPolicy,
) -> Vec<(ScreeningOutcome, Diagnostics)> {
    recs.iter()
        .map(|r| {
            let outcome = screen_recording_quality(system, r, policy).expect("sequential screen");
            let mut stream = ChirpStream::new(system.front_end());
            stream
                .push_samples_with(system.front_end(), &mut DspScratch::new(), &r.samples)
                .expect("sequential push");
            (outcome, stream.diagnostics())
        })
        .collect()
}

/// Backpressure retries per chunk before a replay declares the engine
/// stalled. A drain always services sessions with queued chunks, so a
/// healthy engine frees queue space in one round; the bound turns a
/// regression into a failure instead of a hung test.
const MAX_BACKPRESSURE_RETRIES: usize = 1024;

/// One deterministic interleaving of ingest and drain work.
///
/// `tokens[k] == s` means "deliver session `s`'s next chunk at step
/// `k`"; per-session chunk order is always preserved, so a token vector
/// is exactly a cross-session delivery order. Equal token vectors with
/// different `workers` or `drain_every` are still different schedules:
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
    /// Session 0's chunks, then session 1's, … shuffled by [`DetRng`].
    /// Same seed, same schedule: failures replay exactly.
    pub fn seeded(chunk_counts: &[usize], seed: u64, workers: usize, drain_every: usize) -> Self {
        let mut tokens = in_session_order(chunk_counts);
        DetRng::seed_from_u64(seed).shuffle(&mut tokens);
        Schedule {
            tokens,
            workers,
            drain_every,
        }
    }

    /// A short human-readable label for failure messages.
    pub fn label(&self) -> String {
        format!(
            "schedule(workers={}, drain_every={}, tokens={:?})",
            self.workers, self.drain_every, self.tokens
        )
    }
}

/// Session 0's chunks, then session 1's, …: the lexicographically first
/// delivery order.
fn in_session_order(chunk_counts: &[usize]) -> Vec<usize> {
    let mut tokens = Vec::new();
    for (s, &count) in chunk_counts.iter().enumerate() {
        tokens.extend(std::iter::repeat_n(s, count));
    }
    tokens
}

/// Every distinct delivery order for the given per-session chunk counts,
/// in lexicographic order. The count is the multinomial
/// `(Σcᵢ)! / Πcᵢ!`, so exhaustive enumeration is feasible for small
/// session and chunk counts only, which is exactly where interleaving
/// bugs hide (two-session races need two sessions, not sixty-four).
pub fn enumerate_all(chunk_counts: &[usize], workers: usize) -> Vec<Schedule> {
    let mut tokens = in_session_order(chunk_counts);
    let mut out = Vec::new();
    loop {
        out.push(Schedule {
            tokens: tokens.clone(),
            workers,
            drain_every: 0,
        });
        if !next_permutation(&mut tokens) {
            return out;
        }
    }
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
    /// Chunks the engine accepted per session.
    pub accepted: Vec<usize>,
    /// Drains forced by [`Rejected::QueueFull`] backpressure.
    pub backpressure_drains: usize,
}

/// Replays one schedule through a fresh engine: open every session, push
/// chunks in token order (draining and retrying on backpressure), close,
/// final drain. Panics, naming the schedule, when a token is out of
/// range, the engine refuses an operation the schedule is entitled to,
/// `QueueFull` outlasts [`MAX_BACKPRESSURE_RETRIES`] drains, a session
/// is still in flight after the final drain, or a session does not have
/// exactly one completed record.
pub fn replay(
    system: &EarSonar,
    recordings: &[Recording],
    config: EngineConfig,
    schedule: &Schedule,
    chunk_len: usize,
) -> Replay {
    let label = schedule.label();
    let engine = ScreeningEngine::new(system, config);
    for s in 0..recordings.len() {
        engine
            .open(SessionId(s as u64))
            .unwrap_or_else(|e| panic!("session {s} open rejected: {e} under {label}"));
    }

    let mut accepted = vec![0usize; recordings.len()];
    let mut backpressure_drains = 0usize;
    for (position, &s) in schedule.tokens.iter().enumerate() {
        let chunk = recordings
            .get(s)
            .and_then(|r| r.samples.chunks(chunk_len).nth(accepted[s]))
            .unwrap_or_else(|| panic!("token {s} at {position} out of range under {label}"));
        let mut retries = 0;
        loop {
            match engine.push(SessionId(s as u64), chunk) {
                Ok(()) => break,
                // The refused chunk was NOT accepted: drain to free queue
                // space and offer the same chunk again. Backpressure
                // refuses loudly instead of dropping silently.
                Err(Rejected::QueueFull { .. }) if retries < MAX_BACKPRESSURE_RETRIES => {
                    engine.drain(schedule.workers);
                    backpressure_drains += 1;
                    retries += 1;
                }
                Err(e) => panic!("session {s} push rejected: {e} under {label}"),
            }
        }
        accepted[s] += 1;
        if schedule.drain_every > 0 && (position + 1) % schedule.drain_every == 0 {
            engine.drain(schedule.workers);
        }
    }

    for s in 0..recordings.len() {
        engine
            .close(SessionId(s as u64))
            .unwrap_or_else(|e| panic!("session {s} close rejected: {e} under {label}"));
    }
    engine.drain(schedule.workers);

    // Accepted ⇒ resolved: nothing may still be in flight, and every
    // session must have exactly one completed record.
    assert_eq!(engine.in_flight(), 0, "sessions unresolved under {label}");
    let completed = engine.take_completed();
    for s in 0..recordings.len() {
        let records = completed
            .iter()
            .filter(|c| c.id == SessionId(s as u64))
            .count();
        assert_eq!(records, 1, "session {s} completed records under {label}");
    }
    Replay {
        completed,
        accepted,
        backpressure_drains,
    }
}
