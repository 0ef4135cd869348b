//! The schedule-exploration contract: verdicts are bit-identical to the
//! sequential baseline across *every* explored worker/ingest
//! interleaving — bounded exhaustive for small session counts, seeded
//! beyond — and queue accounting never loses an accepted chunk.
//!
//! The two families together replay over 100 distinct schedules; the
//! final test counts them explicitly so the bar is enforced, not
//! implied.
//!
//! A schedule's worker count is a request: each drain runs on
//! `min(workers, ready sessions, host cores)` threads, so on a 2-core
//! host `workers = 4` runs 2 threads and on a 1-core host every drain
//! runs inline. The axis varies the request, not the thread count.

mod common;

use earsonar_engine::schedule::{self, Schedule};
use earsonar_engine::EngineConfig;
use std::collections::BTreeSet;

/// Short sessions keep debug-mode exploration bounded: the stream API is
/// partition-invariant, so 8 chirps exercise the same code as 80.
const CHIRPS: usize = 8;

/// Per-session chunk counts for `recs` at `chunk_len`.
fn chunk_counts(recs: &[earsonar_signal::recording::Recording], chunk_len: usize) -> Vec<usize> {
    recs.iter()
        .map(|r| r.samples.len().div_ceil(chunk_len))
        .collect()
}

/// A chunk length that cuts every recording into exactly `n` chunks.
fn chunk_len_for(recs: &[earsonar_signal::recording::Recording], n: usize) -> usize {
    recs.iter()
        .map(|r| r.samples.len().div_ceil(n))
        .max()
        .expect("non-empty recordings")
}

#[test]
fn exhaustive_enumeration_of_three_sessions_is_bit_identical() {
    let system = common::system();
    let recs = common::recordings(3, 61, CHIRPS);
    let chunk_len = chunk_len_for(&recs, 2);
    let counts = chunk_counts(&recs, chunk_len);
    assert_eq!(counts, vec![2, 2, 2], "fixture must give 2 chunks/session");

    // Every distinct cross-session delivery order: 6!/(2!^3) = 90.
    let schedules = schedule::enumerate_all(&counts, 2, usize::MAX);
    assert_eq!(schedules.len(), 90);

    let result = schedule::explore(
        system,
        &recs,
        EngineConfig::default(),
        &schedules,
        chunk_len,
    )
    .expect("exploration completes");
    assert_eq!(result.schedules_run, 90);
    assert_eq!(result.baseline.len(), recs.len());
    assert!(
        result.is_clean(),
        "verdicts diverged: {:?}",
        result.divergences
    );
}

#[test]
fn seeded_schedules_vary_workers_and_drain_cadence() {
    let system = common::system();
    let recs = common::recordings(4, 62, CHIRPS);
    let chunk_len = chunk_len_for(&recs, 3);
    let counts = chunk_counts(&recs, chunk_len);

    let mut schedules = Vec::new();
    for (i, &(workers, drain_every)) in [(1usize, 0usize), (2, 0), (2, 3), (4, 2)]
        .iter()
        .enumerate()
    {
        for seed in 0..4u64 {
            schedules.push(Schedule::seeded(
                &counts,
                1000 + seed + 100 * i as u64,
                workers,
                drain_every,
            ));
        }
    }

    let result = schedule::explore(
        system,
        &recs,
        EngineConfig::default(),
        &schedules,
        chunk_len,
    )
    .expect("exploration completes");
    assert!(
        result.is_clean(),
        "verdicts diverged: {:?}",
        result.divergences
    );
}

#[test]
fn backpressure_never_drops_an_accepted_chunk() {
    let system = common::system();
    let recs = common::recordings(2, 63, CHIRPS);
    // Many small chunks against a one-slot queue: every session hits
    // QueueFull repeatedly, forcing the drain-and-retry path.
    let chunk_len = chunk_len_for(&recs, 6);
    let counts = chunk_counts(&recs, chunk_len);
    let config = EngineConfig {
        queue_capacity: 1,
        ..EngineConfig::default()
    };

    let sched = Schedule::seeded(&counts, 9, 2, 0);
    let run = schedule::replay(system, &recs, config, &sched, chunk_len).expect("replay completes");

    assert!(
        run.backpressure_drains > 0,
        "the one-slot queue must exercise QueueFull backpressure"
    );
    // Accepted == offered: refusals were retried until accepted, and
    // every accepted chunk resolved (replay errors otherwise).
    assert_eq!(run.accepted, counts);
    assert_eq!(run.completed.len(), recs.len());
    assert!(run.completed.iter().all(|c| !c.evicted));
}

#[test]
fn explored_interleavings_exceed_one_hundred_distinct_schedules() {
    // The acceptance bar: >= 100 *distinct* interleavings replayed with
    // bit-identity checked. Exhaustive (90) + seeded (16) families,
    // deduplicated on the full schedule value.
    let system = common::system();

    let recs3 = common::recordings(3, 61, CHIRPS);
    let len3 = chunk_len_for(&recs3, 2);
    let counts3 = chunk_counts(&recs3, len3);
    let exhaustive = schedule::enumerate_all(&counts3, 2, usize::MAX);

    let recs4 = common::recordings(4, 62, CHIRPS);
    let len4 = chunk_len_for(&recs4, 3);
    let counts4 = chunk_counts(&recs4, len4);
    let mut seeded = Vec::new();
    for (i, &(workers, drain_every)) in [(1usize, 0usize), (2, 0), (2, 3), (4, 2)]
        .iter()
        .enumerate()
    {
        for seed in 0..4u64 {
            seeded.push(Schedule::seeded(
                &counts4,
                1000 + seed + 100 * i as u64,
                workers,
                drain_every,
            ));
        }
    }

    // Distinctness is structural: session-3 and session-4 token vectors
    // can never collide (different lengths), so the union's size is the
    // deduplicated sum.
    let mut distinct: BTreeSet<Schedule> = BTreeSet::new();
    distinct.extend(exhaustive.iter().cloned());
    distinct.extend(seeded.iter().cloned());
    assert!(
        distinct.len() >= 100,
        "only {} distinct schedules explored",
        distinct.len()
    );

    // Both families replay clean — the same invariants the dedicated
    // tests above check, asserted over the full counted set.
    let a = schedule::explore(system, &recs3, EngineConfig::default(), &exhaustive, len3)
        .expect("exhaustive family");
    let b = schedule::explore(system, &recs4, EngineConfig::default(), &seeded, len4)
        .expect("seeded family");
    assert!(a.is_clean(), "{:?}", a.divergences);
    assert!(b.is_clean(), "{:?}", b.divergences);
    assert_eq!(
        a.schedules_run + b.schedules_run,
        exhaustive.len() + seeded.len()
    );
}
