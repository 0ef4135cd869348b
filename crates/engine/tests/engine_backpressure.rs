//! Backpressure, eviction, and scale: full queues refuse loudly without
//! touching neighbors, stalled sessions time out to a typed inconclusive
//! outcome, and 1000+ concurrent sessions resolve under capacity-bounded
//! queues.

mod common;

use earsonar::screening::{InconclusiveReason, RetryPolicy, ScreeningOutcome};
use earsonar_engine::{EngineConfig, Rejected, ScreeningEngine, SessionId};

const CHIRPS: usize = 24;

#[test]
fn full_queue_rejects_without_corrupting_neighbors() {
    let system = common::system();
    let recs = common::recordings(2, 51, CHIRPS);
    let policy = RetryPolicy::default();
    let expected = common::sequential(system, &recs, &policy);

    // A two-chunk queue: session 0 is driven straight into backpressure
    // while session 1 shares the table.
    let config = EngineConfig {
        queue_capacity: 2,
        policy,
        ..EngineConfig::default()
    };
    let engine = ScreeningEngine::new(system, config);
    engine.open(SessionId(0)).unwrap();
    engine.open(SessionId(1)).unwrap();

    let hop = recs[0].chirp_hop;
    let chunks0: Vec<&[f64]> = recs[0].samples.chunks(hop).collect();
    let chunks1: Vec<&[f64]> = recs[1].samples.chunks(hop).collect();

    // Fill session 0's queue to capacity; the third push must be refused
    // with the typed error, not silently dropped.
    engine.push(SessionId(0), chunks0[0]).unwrap();
    engine.push(SessionId(0), chunks0[1]).unwrap();
    assert_eq!(
        engine.push(SessionId(0), chunks0[2]),
        Err(Rejected::QueueFull { capacity: 2 })
    );

    // The neighbor in the same table is unaffected by the full queue.
    for c in &chunks1 {
        loop {
            match engine.push(SessionId(1), c) {
                Ok(()) => break,
                Err(Rejected::QueueFull { .. }) => {
                    engine.drain(1);
                }
                Err(e) => panic!("neighbor push rejected: {e}"),
            }
        }
    }

    // Feed the rest of session 0 under the same drain-and-retry protocol.
    for c in &chunks0[2..] {
        loop {
            match engine.push(SessionId(0), c) {
                Ok(()) => break,
                Err(Rejected::QueueFull { .. }) => {
                    engine.drain(1);
                }
                Err(e) => panic!("push rejected: {e}"),
            }
        }
    }

    engine.close(SessionId(0)).unwrap();
    engine.close(SessionId(1)).unwrap();
    engine.drain(2);

    let stats = engine.stats();
    assert!(stats.rejected_pushes >= 1, "backpressure never fired");
    let completed = engine.take_completed();
    assert_eq!(completed.len(), 2);
    for done in &completed {
        assert_eq!(
            *done.outcome.as_ref().unwrap(),
            expected[done.id.0 as usize].0,
            "rejected pushes corrupted {}",
            done.id
        );
    }
}

#[test]
fn stalled_session_evicts_to_inconclusive_after_keep_alive() {
    let system = common::system();
    let recs = common::recordings(1, 52, CHIRPS);
    let config = EngineConfig {
        keep_alive_ticks: 3,
        ..EngineConfig::default()
    };
    let engine = ScreeningEngine::new(system, config);
    engine.open(SessionId(9)).unwrap();

    // A few chirps arrive, then the producer dies mid-session.
    let hop = recs[0].chirp_hop;
    engine
        .push(SessionId(9), &recs[0].samples[..4 * hop])
        .unwrap();
    engine.drain(1);
    assert_eq!(engine.in_flight(), 1);

    // Two idle ticks: still within keep-alive.
    engine.tick();
    assert_eq!(engine.tick(), 0);
    assert_eq!(engine.in_flight(), 1);

    // Third idle tick crosses the threshold.
    assert_eq!(engine.tick(), 1);
    assert_eq!(engine.in_flight(), 0);

    let completed = engine.take_completed();
    assert_eq!(completed.len(), 1);
    let done = &completed[0];
    assert!(done.evicted);
    assert_eq!(done.resolved_tick, 3);
    match done.outcome.as_ref().unwrap() {
        ScreeningOutcome::Inconclusive(report) => {
            assert_eq!(report.reason, InconclusiveReason::SourceExhausted);
            let q = report.quality.expect("quality observed so far");
            assert_eq!(q.chirps_pushed, 4);
        }
        other => panic!("evicted session must be inconclusive, got {other:?}"),
    }
    let stats = engine.stats();
    assert_eq!(stats.evicted, 1);
    assert_eq!(stats.resolved, 0);
}

#[test]
fn activity_and_queued_chunks_defer_eviction() {
    let system = common::system();
    let recs = common::recordings(1, 53, CHIRPS);
    let config = EngineConfig {
        keep_alive_ticks: 2,
        ..EngineConfig::default()
    };
    let hop = recs[0].chirp_hop;

    // A producer that keeps pushing within the keep-alive window is
    // never evicted.
    let engine = ScreeningEngine::new(system, config);
    engine.open(SessionId(1)).unwrap();
    for c in 0..4 {
        engine
            .push(SessionId(1), &recs[0].samples[c * hop..(c + 1) * hop])
            .unwrap();
        engine.drain(1);
        assert_eq!(engine.tick(), 0, "live session evicted at chunk {c}");
    }

    // Delivered-but-undrained chunks also hold eviction off: samples the
    // engine has accepted are never discarded by the reaper.
    let engine = ScreeningEngine::new(system, config);
    engine.open(SessionId(2)).unwrap();
    engine.push(SessionId(2), &recs[0].samples[..hop]).unwrap();
    for _ in 0..4 {
        assert_eq!(engine.tick(), 0, "undrained session evicted");
    }
    engine.drain(1);
    // Once drained and idle past keep-alive, eviction proceeds on the
    // very next sweep.
    assert_eq!(engine.tick(), 1);
    assert_eq!(engine.in_flight(), 0);
}

#[test]
fn duplicate_unknown_and_closed_ids_are_typed_errors() {
    let system = common::system();
    let engine = ScreeningEngine::new(system, EngineConfig::default());
    engine.open(SessionId(5)).unwrap();
    assert_eq!(engine.open(SessionId(5)), Err(Rejected::DuplicateSession));
    assert_eq!(
        engine.push(SessionId(6), &[0.0; 8]),
        Err(Rejected::UnknownSession)
    );
    engine.close(SessionId(5)).unwrap();
    assert_eq!(
        engine.push(SessionId(5), &[0.0; 8]),
        Err(Rejected::SessionClosed)
    );
    assert_eq!(engine.close(SessionId(5)), Err(Rejected::SessionClosed));
    engine.drain(1);
    assert_eq!(engine.close(SessionId(5)), Err(Rejected::UnknownSession));
}

#[test]
fn table_full_is_a_typed_error() {
    let system = common::system();
    let config = EngineConfig {
        max_sessions: 2,
        ..EngineConfig::default()
    };
    let engine = ScreeningEngine::new(system, config);
    engine.open(SessionId(0)).unwrap();
    engine.open(SessionId(1)).unwrap();
    assert_eq!(
        engine.open(SessionId(2)),
        Err(Rejected::TableFull { capacity: 2 })
    );
    // Resolving one admits the next.
    engine.close(SessionId(0)).unwrap();
    engine.drain(1);
    engine.open(SessionId(2)).unwrap();
}

#[test]
fn thousand_concurrent_sessions_resolve_in_bounded_memory() {
    let system = common::system();
    // Short sessions keep debug-mode time sane; 16 chirps still clears
    // the 12-chirp quorum so most verdicts are conclusive.
    let distinct = common::recordings(4, 54, 16);
    let policy = RetryPolicy::default();
    let expected = common::sequential(system, &distinct, &policy);

    const SESSIONS: usize = 1000;
    let config = EngineConfig {
        queue_capacity: 4,
        max_sessions: SESSIONS + 8,
        policy,
        ..EngineConfig::default()
    };
    let engine = ScreeningEngine::new(system, config);
    for i in 0..SESSIONS {
        engine.open(SessionId(i as u64)).unwrap();
    }
    assert_eq!(engine.in_flight(), SESSIONS);

    // Round-robin pump, one hop-sized chunk per session per round, with
    // four-chunk queues: the engine must make progress strictly through
    // drain cycles, never by buffering whole sessions.
    let hop = distinct[0].chirp_hop;
    let chunk_count = distinct[0].samples.len().div_ceil(hop);
    let mut cursor = vec![0usize; SESSIONS];
    let mut open = SESSIONS;
    let mut closed = vec![false; SESSIONS];
    let mut round = 0usize;
    while open > 0 {
        for s in 0..SESSIONS {
            if closed[s] {
                continue;
            }
            let rec = &distinct[s % distinct.len()];
            if cursor[s] >= chunk_count {
                engine.close(SessionId(s as u64)).unwrap();
                closed[s] = true;
                open -= 1;
                continue;
            }
            let lo = cursor[s] * hop;
            let hi = (lo + hop).min(rec.samples.len());
            // A full queue is skipped this round and retried after a
            // later drain — backpressure, not failure.
            if engine
                .push(SessionId(s as u64), &rec.samples[lo..hi])
                .is_ok()
            {
                cursor[s] += 1;
            }
        }
        // Drain only every sixth round: the four-chunk queues must fill
        // up and push back in between.
        round += 1;
        if round.is_multiple_of(6) {
            engine.drain(2);
        }
    }
    engine.drain(2);
    assert_eq!(engine.in_flight(), 0);

    let completed = engine.take_completed();
    assert_eq!(completed.len(), SESSIONS);
    for done in &completed {
        assert!(!done.evicted);
        assert_eq!(
            *done.outcome.as_ref().unwrap(),
            expected[done.id.0 as usize % distinct.len()].0,
            "verdict diverged for {}",
            done.id
        );
    }
    let stats = engine.stats();
    assert_eq!(stats.opened, SESSIONS);
    assert_eq!(stats.resolved, SESSIONS);
    assert_eq!(stats.peak_in_flight, SESSIONS);
    assert!(
        stats.rejected_pushes > 0,
        "four-chunk queues on sixteen-chunk sessions must hit capacity"
    );
}
