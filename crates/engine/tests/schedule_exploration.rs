//! The determinism contract: engine verdicts are bit-identical to
//! sequential screening across every explored ingest/drain interleaving,
//! and queue accounting never loses an accepted chunk.
//!
//! Each family below is a set of recordings plus the schedules replayed
//! over them: every delivery order for three short sessions, seeded
//! interleavings with varied workers and drain cadences, a one-slot queue
//! that forces backpressure, and conclusive 24-chirp sessions cut into
//! hop-misaligned chunks at 1, 2 and 4 workers. Every schedule is
//! replayed once, and every session is compared with `assert_eq!` against
//! sequential screening of the same samples: the outcome, every float in
//! it included, the stream diagnostics, and not being evicted. The
//! families hold over 100 distinct schedules; the last test counts them,
//! so the bar is enforced, not implied.
//!
//! A schedule's worker count is a request: each drain runs on
//! `min(workers, ready sessions, host cores)` threads, so on a 2-core
//! host `workers = 4` runs 2 threads and on a 1-core host every drain
//! runs inline. More than two threads are covered by the fan-out's own
//! unit tests, which bypass the cap.

mod common;

use common::{Replay, Schedule};
use earsonar::diagnostics::Diagnostics;
use earsonar::screening::ScreeningOutcome;
use earsonar_engine::EngineConfig;
use earsonar_signal::recording::Recording;
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// Chirps per session in the exploration families: below the 12-chirp
/// quorum, so these sessions resolve `QuorumNotMet`, but the stream API
/// is partition-invariant, so 8 chirps exercise the same code as 80.
const SHORT: usize = 8;

/// Chirps per session in the conclusive family: comfortably above the
/// default 12-chirp quorum.
const CONCLUSIVE: usize = 24;

/// Recordings, the schedules replayed over them, and the sequential
/// reference each replay is held to.
struct Family {
    recordings: Vec<Recording>,
    config: EngineConfig,
    chunk_len: usize,
    chunk_counts: Vec<usize>,
    schedules: Vec<Schedule>,
    expected: Vec<(ScreeningOutcome, Diagnostics)>,
}

struct Families {
    exhaustive: Family,
    seeded: Family,
    backpressure: Family,
    conclusive: Family,
}

/// Builds a family; `schedules` receives the per-session chunk counts.
fn family(
    chunk_len: usize,
    recordings: Vec<Recording>,
    config: EngineConfig,
    schedules: impl FnOnce(&[usize]) -> Vec<Schedule>,
) -> Family {
    let chunk_counts: Vec<usize> = recordings
        .iter()
        .map(|r| r.samples.len().div_ceil(chunk_len))
        .collect();
    Family {
        schedules: schedules(&chunk_counts),
        expected: common::sequential(common::system(), &recordings, &config.policy),
        recordings,
        config,
        chunk_len,
        chunk_counts,
    }
}

/// A chunk length that cuts every recording into exactly `n` chunks.
fn chunk_len_for(recs: &[Recording], n: usize) -> usize {
    recs.iter()
        .map(|r| r.samples.len().div_ceil(n))
        .max()
        .expect("non-empty recordings")
}

/// Every family, built once per test binary and shared by the replay
/// tests and the count.
fn families() -> &'static Families {
    static FAMILIES: OnceLock<Families> = OnceLock::new();
    FAMILIES.get_or_init(|| {
        let exhaustive = common::recordings(3, 61, SHORT);
        let seeded = common::recordings(4, 62, SHORT);
        let backpressure = common::recordings(2, 63, SHORT);
        Families {
            // Every distinct cross-session delivery order of 3 sessions
            // × 2 chunks: 6!/(2!^3) = 90.
            exhaustive: family(
                chunk_len_for(&exhaustive, 2),
                exhaustive,
                EngineConfig::default(),
                |counts| common::enumerate_all(counts, 2),
            ),
            seeded: family(
                chunk_len_for(&seeded, 3),
                seeded,
                EngineConfig::default(),
                |counts| {
                    let mut schedules = Vec::new();
                    for (i, (workers, drain_every)) in
                        [(1, 0), (2, 0), (2, 3), (4, 2)].into_iter().enumerate()
                    {
                        for seed in 0..4 {
                            let seed = 1000 + seed + 100 * i as u64;
                            schedules.push(Schedule::seeded(counts, seed, workers, drain_every));
                        }
                    }
                    schedules
                },
            ),
            // Many small chunks against a one-slot queue: every session
            // hits QueueFull repeatedly, forcing the drain-and-retry path.
            backpressure: family(
                chunk_len_for(&backpressure, 6),
                backpressure,
                EngineConfig {
                    queue_capacity: 1,
                    ..EngineConfig::default()
                },
                |counts| vec![Schedule::seeded(counts, 9, 2, 0)],
            ),
            // Deliberately hop-misaligned chunks: window completion must
            // not depend on how the stream was cut.
            conclusive: family(
                997,
                common::recordings(6, 41, CONCLUSIVE),
                EngineConfig::default(),
                |counts| {
                    [(1, 11), (2, 12), (4, 13)]
                        .map(|(workers, seed)| Schedule::seeded(counts, seed, workers, 0))
                        .to_vec()
                },
            ),
        }
    })
}

/// Replays every schedule of `family` once and holds each session to
/// sequential screening: same outcome, same diagnostics, not evicted,
/// and every offered chunk accepted.
fn explore(family: &Family) -> Vec<Replay> {
    let system = common::system();
    family
        .schedules
        .iter()
        .map(|schedule| {
            let label = schedule.label();
            let run = common::replay(
                system,
                &family.recordings,
                family.config,
                schedule,
                family.chunk_len,
            );
            assert_eq!(run.accepted, family.chunk_counts, "accepted under {label}");
            for done in &run.completed {
                let (outcome, diagnostics) = &family.expected[done.id.0 as usize];
                let id = done.id;
                assert_eq!(done.outcome.as_ref(), Ok(outcome), "{id} under {label}");
                assert_eq!(&done.diagnostics, diagnostics, "{id} under {label}");
                assert!(!done.evicted, "{id} evicted under {label}");
            }
            run
        })
        .collect()
}

#[test]
fn every_delivery_order_of_three_sessions_matches_sequential_screening() {
    let family = &families().exhaustive;
    assert_eq!(family.chunk_counts, vec![2, 2, 2]);
    assert_eq!(explore(family).len(), 90);
}

#[test]
fn seeded_schedules_vary_workers_and_drain_cadence() {
    assert_eq!(explore(&families().seeded).len(), 16);
}

#[test]
fn backpressure_never_drops_an_accepted_chunk() {
    // `explore` checks accepted == offered and that every session
    // resolved to the sequential verdict; this family must also have
    // gone through the drain-and-retry path.
    for run in explore(&families().backpressure) {
        assert!(
            run.backpressure_drains > 0,
            "the one-slot queue must exercise QueueFull backpressure"
        );
    }
}

#[test]
fn conclusive_sessions_match_sequential_screening_at_workers_1_2_4() {
    let family = &families().conclusive;
    assert!(
        family.expected.iter().all(|(o, _)| o.is_conclusive()),
        "the conclusive family must resolve conclusively"
    );
    let workers: Vec<usize> = family.schedules.iter().map(|s| s.workers).collect();
    assert_eq!(workers, vec![1, 2, 4]);
    explore(family);
}

#[test]
fn explored_interleavings_exceed_one_hundred_distinct_schedules() {
    // The acceptance bar: >= 100 *distinct* schedules over the families
    // the tests above replay, deduplicated on the full schedule value.
    let f = families();
    let distinct: BTreeSet<&Schedule> = [&f.exhaustive, &f.seeded, &f.backpressure, &f.conclusive]
        .iter()
        .flat_map(|family| &family.schedules)
        .collect();
    assert!(
        distinct.len() >= 100,
        "only {} distinct schedules explored",
        distinct.len()
    );
}
