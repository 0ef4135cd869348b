//! Seeded eviction schedules: `tick` interleaved with `open`, `push`,
//! `close` and `drain` on sessions with a short keep-alive. Whatever the
//! order, every opened session completes exactly once, a closed session
//! resolves exactly like sequential screening of the chunks it accepted,
//! and an evicted id is unknown to every later `push` and `close`.

mod common;

use earsonar::screening::{screen_recording_quality, InconclusiveReason, RetryPolicy};
use earsonar::ScreeningOutcome;
use earsonar_dsp::rng::DetRng;
use earsonar_engine::{CompletedSession, EngineConfig, Rejected, ScreeningEngine, SessionId};

const SESSIONS: usize = 8;
const CHIRPS: usize = 3;

/// A session as the schedule sees it: `None` until opened, then the
/// number of chunks it accepted and whether it was closed.
type State = Option<(usize, bool)>;

/// Takes the engine's completions into `done`; none may complete twice.
fn collect(engine: &ScreeningEngine, done: &mut [Option<CompletedSession>]) {
    for c in engine.take_completed() {
        let slot = &mut done[c.id.0 as usize];
        assert!(slot.is_none(), "session {} completed twice", c.id.0);
        *slot = Some(c);
    }
}

/// Checks a `push`/`close` result against whether the session was evicted.
fn check_refusal(result: &Result<(), Rejected>, done: &[Option<CompletedSession>], s: usize) {
    let evicted = done[s].as_ref().is_some_and(|c| c.evicted);
    match result {
        Ok(()) | Err(Rejected::QueueFull { .. }) => assert!(!evicted, "{s} was evicted"),
        Err(Rejected::UnknownSession) => assert!(evicted, "{s} vanished unevicted"),
        Err(e) => panic!("session {s}: {e}"),
    }
}

/// Closes session `s` if it is open, recording whether the close landed.
fn close(
    engine: &ScreeningEngine,
    state: &mut [State],
    done: &[Option<CompletedSession>],
    s: usize,
) {
    if let Some((n, false)) = state[s] {
        let result = engine.close(SessionId(s as u64));
        check_refusal(&result, done, s);
        state[s] = Some((n, result.is_ok()));
    }
}

#[test]
fn every_session_completes_once_under_seeded_eviction_schedules() {
    let system = common::system();
    let policy = RetryPolicy {
        min_accepted_chirps: 2,
        ..RetryPolicy::default()
    };
    let (mut evicted, mut resolved) = (0, 0);
    for seed in 0..40u64 {
        let mut rng = DetRng::seed_from_u64(seed);
        let recs = common::recordings(SESSIONS, 1_000 + seed, CHIRPS);
        let hop = recs[0].chirp_hop;
        let engine = ScreeningEngine::new(
            system,
            EngineConfig {
                queue_capacity: rng.range_inclusive(1, 3),
                keep_alive_ticks: rng.range_inclusive(1, 3) as u64,
                policy,
                ..EngineConfig::default()
            },
        );
        let mut state: [State; SESSIONS] = [None; SESSIONS];
        let mut done: Vec<Option<CompletedSession>> = vec![None; SESSIONS];
        for _ in 0..200 {
            let s = rng.below(SESSIONS);
            let id = SessionId(s as u64);
            match (rng.below(5), state[s]) {
                (0, None) => {
                    engine.open(id).expect("open");
                    state[s] = Some((0, false));
                }
                (1, Some((n, false))) if n < CHIRPS => {
                    let result = engine.push(id, &recs[s].samples[n * hop..(n + 1) * hop]);
                    check_refusal(&result, &done, s);
                    if result.is_ok() {
                        state[s] = Some((n + 1, false));
                    }
                }
                (2, _) => close(&engine, &mut state, &done, s),
                (3, _) => {
                    engine.drain(rng.range_inclusive(1, 3));
                }
                (4, _) => {
                    engine.tick();
                }
                _ => {} // the operation does not apply to this session
            }
            collect(&engine, &mut done);
        }
        for s in 0..SESSIONS {
            close(&engine, &mut state, &done, s);
        }
        engine.drain(2);
        collect(&engine, &mut done);
        assert_eq!(engine.in_flight(), 0, "seed {seed}");

        for (s, (st, c)) in state.iter().zip(&done).enumerate() {
            let id = SessionId(s as u64);
            match (st, c) {
                (None, None) => {}
                // Only a session that was never closed may be evicted.
                (Some((_, false)), Some(c)) if c.evicted => {
                    evicted += 1;
                    assert!(
                        matches!(&c.outcome, Ok(ScreeningOutcome::Inconclusive(r))
                            if r.reason == InconclusiveReason::SourceExhausted),
                        "seed {seed}: evicted {s}"
                    );
                    assert_eq!(
                        engine.push(id, &recs[s].samples),
                        Err(Rejected::UnknownSession)
                    );
                    assert_eq!(engine.close(id), Err(Rejected::UnknownSession));
                }
                (Some((n, true)), Some(c)) => {
                    resolved += 1;
                    let mut accepted = recs[s].clone();
                    accepted.samples.truncate(n * hop);
                    accepted.n_chirps = *n;
                    let expected = screen_recording_quality(system, &accepted, &policy);
                    assert_eq!(c.outcome, expected, "seed {seed}: session {s}");
                }
                _ => panic!("seed {seed}: session {s} is {st:?} but completed as {c:?}"),
            }
        }
        let opened = state.iter().flatten().count();
        let stats = engine.stats();
        assert_eq!(
            (stats.opened, stats.resolved + stats.evicted),
            (opened, opened)
        );
    }
    // The schedules exercise both ways a session can end.
    assert!(
        evicted > 0 && resolved > 0,
        "{evicted} evicted, {resolved} resolved"
    );
}
