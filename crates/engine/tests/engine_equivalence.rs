//! The determinism contract: engine verdicts are bit-identical to
//! sequential per-session screening at every worker count and seeded
//! ingest interleaving.
//!
//! `ScreeningOutcome` is compared with `assert_eq!`, so every float in
//! the report — confidence, mean quality — must match exactly, not
//! approximately.
//!
//! A worker count here is a request: a drain runs on
//! `min(workers, ready sessions, host cores)` threads. On a 2-core host
//! the `workers = 4` case runs the same 2-thread drain as `workers = 2`,
//! and on a 1-core host every case runs inline. More than two threads
//! are covered by the fan-out's own unit tests, which bypass the cap.

mod common;

use earsonar::screening::RetryPolicy;
use earsonar_engine::EngineConfig;

/// Per-session chirp budget for the equivalence runs: comfortably above
/// the default 12-chirp quorum so clean sessions resolve conclusively.
const CHIRPS: usize = 24;

#[test]
fn seeded_interleavings_match_sequential_at_workers_1_2_4() {
    let system = common::system();
    let recs = common::recordings(6, 41, CHIRPS);
    let policy = RetryPolicy::default();
    let expected = common::expected_outcomes(system, &recs, &policy);

    // Deliberately hop-misaligned chunks: window completion must not
    // depend on how the stream was cut.
    let chunk_len = 997;
    for &(workers, seed) in &[(1usize, 11u64), (2, 12), (4, 13)] {
        let config = EngineConfig {
            policy,
            ..EngineConfig::default()
        };
        let completed = common::run_interleaved(system, &recs, config, workers, chunk_len, seed);
        assert_eq!(completed.len(), recs.len());
        for done in &completed {
            let outcome = done.outcome.as_ref().expect("engine outcome");
            assert_eq!(
                *outcome, expected[done.id.0 as usize],
                "verdict diverged at workers={workers} seed={seed} id={}",
                done.id
            );
            assert!(!done.evicted);
        }
    }
}

#[test]
fn distinct_interleavings_agree_with_each_other() {
    // Two different shuffles of the same streams must produce the same
    // results — the schedule is not part of the answer.
    let system = common::system();
    let recs = common::recordings(4, 43, CHIRPS);
    let config = EngineConfig::default();

    let a = common::run_interleaved(system, &recs, config, 2, 611, 100);
    let b = common::run_interleaved(system, &recs, config, 4, 1499, 200);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.id, y.id);
        assert_eq!(
            x.outcome.as_ref().expect("outcome a"),
            y.outcome.as_ref().expect("outcome b")
        );
        assert_eq!(x.diagnostics, y.diagnostics);
    }
}

#[test]
fn per_session_diagnostics_match_the_stream() {
    let system = common::system();
    let recs = common::recordings(3, 44, CHIRPS);
    let completed = common::run_interleaved(system, &recs, EngineConfig::default(), 2, 2400, 5);

    // The engine's aggregate equals the sum of the per-session counters.
    let mut total = 0usize;
    for done in &completed {
        assert_eq!(done.diagnostics.chirps_pushed, CHIRPS);
        total += done.diagnostics.chirps_pushed;
    }
    assert_eq!(total, CHIRPS * recs.len());
}
