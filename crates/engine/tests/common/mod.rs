//! Shared fixtures for the engine integration tests: one trained system
//! per test binary, simulated recordings, and a seeded interleaving.

// Each test binary compiles its own copy of this module and uses a
// different subset of the helpers.
#![allow(dead_code)]

use earsonar::screening::{screen_recording_quality, RetryPolicy, ScreeningOutcome};
use earsonar::{EarSonar, EarSonarConfig};
use earsonar_engine::schedule::{replay, Schedule};
use earsonar_engine::{CompletedSession, EngineConfig};
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

/// `n` distinct simulated recordings, each truncated to `n_chirps` chirps
/// so debug-mode test time stays bounded (the front end is
/// partition-invariant, so a short recording exercises the same code).
pub fn recordings(n: usize, seed: u64, n_chirps: usize) -> Vec<Recording> {
    let cohort = Cohort::generate(n.div_ceil(4).max(1), seed);
    let patients = cohort.patients();
    (0..n)
        .map(|i| {
            let rec = Session::record(
                &patients[i % patients.len()],
                0,
                &SessionConfig::default(),
                seed + i as u64,
            )
            .recording;
            truncate(&rec, n_chirps)
        })
        .collect()
}

/// The first `n_chirps` chirps of a recording.
pub fn truncate(rec: &Recording, n_chirps: usize) -> Recording {
    let n = n_chirps.min(rec.n_chirps).max(1);
    let samples = rec.samples[..(n * rec.chirp_hop).min(rec.samples.len())].to_vec();
    Recording {
        samples,
        sample_rate: rec.sample_rate,
        chirp_hop: rec.chirp_hop,
        n_chirps: n,
        chirp_len: rec.chirp_len,
    }
}

/// Sequential reference outcomes for each recording.
pub fn expected_outcomes(
    system: &EarSonar,
    recs: &[Recording],
    policy: &RetryPolicy,
) -> Vec<ScreeningOutcome> {
    recs.iter()
        .map(|r| screen_recording_quality(system, r, policy).expect("sequential screen"))
        .collect()
}

/// Replays `recs` as one engine session each, pushing `chunk_len`-sample
/// chunks in the [`Schedule::seeded`] interleaving (per-session chunk
/// order is preserved — only the cross-session schedule is randomized)
/// through [`replay`], which drains and retries on a full queue. Returns
/// the completed sessions, sorted by id.
pub fn run_interleaved(
    system: &EarSonar,
    recs: &[Recording],
    config: EngineConfig,
    workers: usize,
    chunk_len: usize,
    seed: u64,
) -> Vec<CompletedSession> {
    let chunk_len = chunk_len.max(1);
    let counts: Vec<usize> = recs
        .iter()
        .map(|r| r.samples.len().div_ceil(chunk_len))
        .collect();
    let schedule = Schedule::seeded(&counts, seed, workers, 0);
    match replay(system, recs, config, &schedule, chunk_len) {
        Ok(run) => run.completed,
        Err(e) => panic!("{}: {e}", schedule.label()),
    }
}
