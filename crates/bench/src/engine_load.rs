//! Deterministic load generator for the concurrent screening engine.
//!
//! Replays simulated recordings as thousands of interleaved sample
//! streams through [`earsonar_engine::ScreeningEngine`], measuring
//! sessions/sec and per-session latency percentiles. The *schedule* is
//! seeded (a [`DetRng`] token shuffle, so per-session chunk order is
//! preserved while the cross-session interleaving varies with the seed)
//! and every verdict is compared against sequential
//! [`screen_recording_quality`] — a load run whose answers drift is a
//! bug, not a benchmark.
//!
//! Wall-clock timing lives here, in the bench crate, where the lint
//! permits it; the engine itself is tick-driven and never reads a clock.

use earsonar::screening::{screen_recording_quality, ScreeningOutcome};
use earsonar::EarSonar;
use earsonar_dsp::rng::DetRng;
use earsonar_engine::{EngineConfig, Rejected, ScreeningEngine, SessionId};
use earsonar_signal::recording::Recording;
use std::time::Instant;

/// One load-generator run: how many sessions, scheduled how.
#[derive(Debug, Clone, Copy)]
pub struct LoadSpec {
    /// Concurrent sessions to replay (session `i` streams recording
    /// `i % recordings`).
    pub sessions: usize,
    /// Worker threads handed to each `drain` call.
    pub workers: usize,
    /// Samples per pushed chunk (deliberately hop-misaligned values are
    /// fine; the stream is partition-invariant).
    pub chunk_len: usize,
    /// Seed for the cross-session interleaving shuffle.
    pub seed: u64,
    /// Drain after this many pushed chunks (and always at the end).
    /// Smaller values measure latency under steadier service; larger
    /// values exercise deeper queues and more backpressure.
    pub drain_every: usize,
    /// Engine shape: shards, queue capacity, keep-alive, policy.
    pub config: EngineConfig,
}

impl Default for LoadSpec {
    fn default() -> Self {
        LoadSpec {
            sessions: 64,
            workers: 1,
            chunk_len: 997,
            seed: 7,
            drain_every: 64,
            config: EngineConfig::default(),
        }
    }
}

/// What one [`run_load`] call observed.
#[derive(Debug, Clone, Copy)]
pub struct LoadReport {
    /// Resolved sessions per second of wall time.
    pub sessions_per_sec: f64,
    /// Median open→verdict latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile open→verdict latency, milliseconds.
    pub p99_ms: f64,
    /// Most sessions simultaneously in flight.
    pub peak_in_flight: usize,
    /// Pushes refused with `QueueFull` (each was retried after a drain).
    pub rejected_pushes: usize,
    /// `true` when every engine verdict was exactly the sequential
    /// screening outcome and no session was evicted.
    pub equivalent_to_sequential: bool,
}

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Replays `recordings` as `spec.sessions` interleaved engine sessions
/// and reports throughput, latency percentiles, and the equivalence
/// verdict. Sessions open lazily at their first scheduled chunk and close
/// right after their last, so latencies reflect the interleaving rather
/// than one global barrier.
#[allow(clippy::disallowed_methods)] // timing is this module's purpose
pub fn run_load(system: &EarSonar, recordings: &[Recording], spec: &LoadSpec) -> LoadReport {
    assert!(!recordings.is_empty(), "load generator needs recordings");
    let chunk_len = spec.chunk_len.max(1);
    let n = spec.sessions.max(1);

    // Sequential reference verdicts, computed outside the timed region.
    let expected: Vec<ScreeningOutcome> = recordings
        .iter()
        .map(|r| {
            screen_recording_quality(system, r, &spec.config.policy)
                .expect("sequential reference screening")
        })
        .collect();

    // One token per chunk; shuffling the tokens randomizes the
    // cross-session schedule while each session's chunks stay in order.
    let chunk_counts: Vec<usize> = (0..n)
        .map(|i| recordings[i % recordings.len()].samples.len().div_ceil(chunk_len))
        .collect();
    let mut tokens: Vec<usize> = Vec::new();
    for (i, &count) in chunk_counts.iter().enumerate() {
        tokens.extend(std::iter::repeat_n(i, count));
    }
    let mut rng = DetRng::seed_from_u64(spec.seed);
    rng.shuffle(&mut tokens);

    let mut config = spec.config;
    config.max_sessions = config.max_sessions.max(n);
    let engine = ScreeningEngine::new(system, config);
    let drain_every = spec.drain_every.max(1);

    let mut opened_at: Vec<Option<Instant>> = vec![None; n];
    let mut latency_ms: Vec<f64> = Vec::with_capacity(n);
    let mut cursor = vec![0usize; n];
    let mut equivalent = true;

    let harvest = |engine: &ScreeningEngine,
                       opened_at: &[Option<Instant>],
                       latency_ms: &mut Vec<f64>,
                       equivalent: &mut bool| {
        for done in engine.take_completed() {
            let idx = done.id.0 as usize;
            let opened = opened_at[idx].expect("completed session was opened");
            latency_ms.push(opened.elapsed().as_secs_f64() * 1e3);
            let matches = done
                .outcome
                .as_ref()
                .is_ok_and(|o| *o == expected[idx % expected.len()]);
            if !matches || done.evicted {
                *equivalent = false;
            }
        }
    };

    let t0 = Instant::now();
    for (k, &s) in tokens.iter().enumerate() {
        if opened_at[s].is_none() {
            // Lazy open: admission is retried through drains like any
            // other backpressure signal.
            loop {
                match engine.open(SessionId(s as u64)) {
                    Ok(()) => break,
                    Err(Rejected::TableFull { .. }) => {
                        engine.drain(spec.workers);
                        harvest(&engine, &opened_at, &mut latency_ms, &mut equivalent);
                    }
                    Err(e) => panic!("open rejected: {e}"),
                }
            }
            opened_at[s] = Some(Instant::now());
        }
        let rec = &recordings[s % recordings.len()];
        let lo = cursor[s] * chunk_len;
        let hi = (lo + chunk_len).min(rec.samples.len());
        cursor[s] += 1;
        loop {
            match engine.push(SessionId(s as u64), &rec.samples[lo..hi]) {
                Ok(()) => break,
                Err(Rejected::QueueFull { .. }) => {
                    engine.drain(spec.workers);
                    harvest(&engine, &opened_at, &mut latency_ms, &mut equivalent);
                }
                Err(e) => panic!("push rejected: {e}"),
            }
        }
        if cursor[s] == chunk_counts[s] {
            engine.close(SessionId(s as u64)).expect("close");
        }
        if (k + 1) % drain_every == 0 {
            engine.drain(spec.workers);
            harvest(&engine, &opened_at, &mut latency_ms, &mut equivalent);
        }
    }
    engine.drain(spec.workers);
    harvest(&engine, &opened_at, &mut latency_ms, &mut equivalent);
    let elapsed_ns = t0.elapsed().as_nanos() as f64;

    assert_eq!(engine.in_flight(), 0, "sessions left unresolved");
    assert_eq!(latency_ms.len(), n, "every session must resolve exactly once");
    latency_ms.sort_unstable_by(f64::total_cmp);

    let stats = engine.stats();
    LoadReport {
        sessions_per_sec: n as f64 * 1e9 / elapsed_ns,
        p50_ms: percentile(&latency_ms, 50.0),
        p99_ms: percentile(&latency_ms, 99.0),
        peak_in_flight: stats.peak_in_flight,
        rejected_pushes: stats.rejected_pushes,
        equivalent_to_sequential: equivalent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 99.0), 4.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert!(percentile(&[], 50.0).is_nan());
    }
}
