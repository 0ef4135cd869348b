//! The multiplexer: one session table, bounded ingest queues, a by-value
//! drain over the workspace fan-out, and tick-driven keep-alive eviction.

use crate::config::EngineConfig;
use crate::session::{CompletedSession, Rejected, SessionId};
use earsonar::diagnostics::{CaptureDiagnostics, Diagnostics};
use earsonar::pipeline::EarSonar;
use earsonar::screening::{
    resolve_stream, InconclusiveReason, InconclusiveReport, RetryPolicy, ScreeningOutcome,
};
use earsonar::streaming::ChirpStream;
use earsonar_dsp::fanout;
use earsonar_dsp::plan::DspScratch;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// One in-flight session: accumulated stream state plus its bounded
/// ingest queue.
struct SessionEntry {
    stream: ChirpStream,
    queue: VecDeque<Vec<f64>>,
    closed: bool,
    opened_tick: u64,
    last_activity: u64,
}

/// Everything the engine mutates: the session table, the completed
/// results awaiting pickup, the logical clock and the lifetime counters.
#[derive(Default)]
struct Table {
    sessions: BTreeMap<u64, SessionEntry>,
    completed: Vec<CompletedSession>,
    /// Logical clock; advanced only by [`ScreeningEngine::tick`].
    clock: u64,
    opened: usize,
    resolved: usize,
    evicted: usize,
    rejected_pushes: usize,
    peak_in_flight: usize,
    diagnostics: Diagnostics,
}

impl Table {
    /// Removes and returns, in id order, every session matching `pred`.
    fn take_where(&mut self, pred: impl Fn(&SessionEntry) -> bool) -> Vec<(u64, SessionEntry)> {
        let ids: Vec<u64> = self
            .sessions
            .iter()
            .filter(|(_, e)| pred(e))
            .map(|(&id, _)| id)
            .collect();
        ids.into_iter()
            .filter_map(|id| self.sessions.remove(&id).map(|e| (id, e)))
            .collect()
    }

    /// Records one resolved or evicted session for pickup.
    fn complete(&mut self, done: CompletedSession) {
        self.diagnostics.merge(&done.diagnostics);
        if done.evicted {
            self.evicted += 1;
        } else {
            self.resolved += 1;
        }
        self.completed.push(done);
    }
}

/// Lifetime counters over one engine, from [`ScreeningEngine::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Sessions admitted by [`ScreeningEngine::open`].
    pub opened: usize,
    /// Sessions resolved by draining (closed and classified).
    pub resolved: usize,
    /// Sessions resolved by keep-alive eviction.
    pub evicted: usize,
    /// Pushes refused with [`Rejected::QueueFull`] — the backpressure
    /// signal count.
    pub rejected_pushes: usize,
    /// Sessions currently in flight.
    pub in_flight: usize,
    /// Highest concurrent in-flight count ever observed.
    pub peak_in_flight: usize,
    /// Front-end stage counters aggregated across every resolved and
    /// evicted session.
    pub diagnostics: Diagnostics,
}

/// What a drain worker hands back for one session.
enum Serviced {
    /// Still open: its queue is empty again and it goes back in the table.
    Parked(u64, SessionEntry),
    /// Closed and fully fed: resolved.
    Resolved(CompletedSession),
}

/// A multi-session screening engine over one trained system, with one
/// owner.
///
/// Every method takes `&self`, and the table lives in a [`RefCell`], so
/// the engine is not `Sync`: the compiler, not a convention, keeps it on
/// one thread. The only parallelism is inside [`ScreeningEngine::drain`],
/// whose workers own disjoint sessions. A caller that needs several
/// producer threads wraps the engine in a lock of its own:
///
/// ```compile_fail
/// fn shared<T: Sync>() {}
/// shared::<earsonar_engine::ScreeningEngine<'static>>();
/// ```
///
/// See the crate docs for the architecture and the determinism contract.
pub struct ScreeningEngine<'a> {
    system: &'a EarSonar,
    config: EngineConfig,
    table: RefCell<Table>,
}

impl<'a> ScreeningEngine<'a> {
    /// Creates an engine over a trained `system`. Config counts are
    /// clamped to at least 1 (see [`EngineConfig`]).
    pub fn new(system: &'a EarSonar, config: EngineConfig) -> Self {
        ScreeningEngine {
            system,
            config: config.normalized(),
            table: RefCell::new(Table::default()),
        }
    }

    /// The (normalized) configuration the engine runs under.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The current logical-clock tick.
    pub fn now(&self) -> u64 {
        self.table.borrow().clock
    }

    /// Sessions currently in flight.
    pub fn in_flight(&self) -> usize {
        self.table.borrow().sessions.len()
    }

    /// Opens a new session under `id`.
    ///
    /// # Errors
    ///
    /// [`Rejected::TableFull`] at the `max_sessions` bound and
    /// [`Rejected::DuplicateSession`] for an id already in flight.
    pub fn open(&self, id: SessionId) -> Result<(), Rejected> {
        let mut t = self.table.borrow_mut();
        if t.sessions.len() >= self.config.max_sessions {
            return Err(Rejected::TableFull {
                capacity: self.config.max_sessions,
            });
        }
        if t.sessions.contains_key(&id.0) {
            return Err(Rejected::DuplicateSession);
        }
        let now = t.clock;
        t.sessions.insert(
            id.0,
            SessionEntry {
                stream: ChirpStream::new(self.system.front_end()),
                // Sized once, so a push never grows the queue.
                queue: VecDeque::with_capacity(self.config.queue_capacity),
                closed: false,
                opened_tick: now,
                last_activity: now,
            },
        );
        t.opened += 1;
        t.peak_in_flight = t.peak_in_flight.max(t.sessions.len());
        Ok(())
    }

    /// Enqueues one chunk of the session's sample stream. Chunks may be
    /// any size; chunk boundaries never affect the verdict (the stream
    /// API is partition-invariant).
    ///
    /// # Errors
    ///
    /// [`Rejected::QueueFull`] when the bounded queue is at capacity (the
    /// caller must [`ScreeningEngine::drain`] before retrying — the chunk
    /// was **not** accepted), [`Rejected::UnknownSession`] /
    /// [`Rejected::SessionClosed`] for bad ids.
    pub fn push(&self, id: SessionId, chunk: &[f64]) -> Result<(), Rejected> {
        let mut t = self.table.borrow_mut();
        let t = &mut *t;
        let Some(entry) = t.sessions.get_mut(&id.0) else {
            return Err(Rejected::UnknownSession);
        };
        if entry.closed {
            return Err(Rejected::SessionClosed);
        }
        if entry.queue.len() >= self.config.queue_capacity {
            t.rejected_pushes += 1;
            return Err(Rejected::QueueFull {
                capacity: self.config.queue_capacity,
            });
        }
        // The one allocation of a push: the queue must own its samples.
        // queue_capacity bounds the queued chunks, not their length, so a
        // session holds at most queue_capacity chunks of whatever size
        // callers push (a sample bound is ROADMAP item 5).
        entry.queue.push_back(chunk.to_vec());
        entry.last_activity = t.clock;
        Ok(())
    }

    /// Declares the session's sample stream finished. The verdict is
    /// produced by the next [`ScreeningEngine::drain`].
    ///
    /// # Errors
    ///
    /// [`Rejected::UnknownSession`] / [`Rejected::SessionClosed`].
    pub fn close(&self, id: SessionId) -> Result<(), Rejected> {
        let mut t = self.table.borrow_mut();
        let now = t.clock;
        let Some(entry) = t.sessions.get_mut(&id.0) else {
            return Err(Rejected::UnknownSession);
        };
        if entry.closed {
            return Err(Rejected::SessionClosed);
        }
        entry.closed = true;
        entry.last_activity = now;
        Ok(())
    }

    /// Advances the logical clock one tick and evicts every abandoned
    /// session: unclosed, queue fully drained, and no push or close for
    /// at least `keep_alive_ticks`. Evicted sessions resolve to
    /// [`ScreeningOutcome::Inconclusive`] with
    /// [`InconclusiveReason::SourceExhausted`], carrying the quality
    /// observed so far. Returns how many sessions were evicted.
    ///
    /// Queued-but-undrained chunks defer eviction — run
    /// [`ScreeningEngine::drain`] before `tick` in a maintenance loop so
    /// delivered samples are never discarded.
    pub fn tick(&self) -> usize {
        let mut t = self.table.borrow_mut();
        t.clock += 1;
        let now = t.clock;
        let keep = self.config.keep_alive_ticks;
        let expired = t.take_where(|e| {
            !e.closed && e.queue.is_empty() && now.saturating_sub(e.last_activity) >= keep
        });
        let count = expired.len();
        for (id, entry) in expired {
            t.complete(evicted(id, entry, now));
        }
        count
    }

    /// Drains every ready session — queued chunks to process, or closed
    /// and awaiting its verdict — on up to `workers` workers of
    /// [`fanout::map_on`] (capped at the ready count and the host's
    /// cores; the calling thread is one of them). The ready sessions move
    /// out of the table by value, so each worker owns its sessions
    /// outright and one warm [`DspScratch`] for its whole share. Queued
    /// chunks are pushed through the front end; a closed session is then
    /// resolved into a completed result, an open one goes back in the
    /// table. Returns how many sessions resolved during this drain.
    ///
    /// # Panics
    ///
    /// A session whose servicing panics is dropped: it is neither
    /// completed nor evicted, and later calls for its id get
    /// [`Rejected::UnknownSession`]. Every other session of the drain is
    /// put back or completed first, and then the first panic resumes on
    /// the caller with its original payload.
    pub fn drain(&self, workers: usize) -> usize {
        let (system, policy) = (self.system, &self.config.policy);
        self.drain_with(workers, |scratch, now, id, entry| {
            service(system, policy, now, scratch, id, entry)
        })
    }

    /// [`ScreeningEngine::drain`] with `serve` in place of [`service`].
    fn drain_with<F>(&self, workers: usize, serve: F) -> usize
    where
        F: Fn(&mut DspScratch, u64, u64, SessionEntry) -> Serviced + Sync,
    {
        let mut t = self.table.borrow_mut();
        let ready = t.take_where(|e| e.closed || !e.queue.is_empty());
        let now = t.clock;
        let serviced = fanout::map_on(workers, ready, DspScratch::new, |scratch, (id, entry)| {
            // Contained per session, so one panic cannot take the rest of
            // the drain's sessions with it. Every result depends only on
            // its session, never on what the scratch held before.
            catch_unwind(AssertUnwindSafe(|| serve(scratch, now, id, entry)))
        });
        let mut resolved = 0;
        let mut first_panic = None;
        for s in serviced {
            match s {
                Ok(Serviced::Parked(id, entry)) => {
                    t.sessions.insert(id, entry);
                }
                Ok(Serviced::Resolved(done)) => {
                    resolved += 1;
                    t.complete(done);
                }
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = first_panic {
            drop(t);
            resume_unwind(payload);
        }
        resolved
    }

    /// Takes every completed session accumulated since the last call,
    /// sorted by session id — the order is deterministic regardless of
    /// worker timing.
    pub fn take_completed(&self) -> Vec<CompletedSession> {
        let mut completed = std::mem::take(&mut self.table.borrow_mut().completed);
        completed.sort_unstable_by_key(|c| c.id);
        completed
    }

    /// Lifetime counters: sessions opened/resolved/evicted, backpressure
    /// rejections, in-flight and peak in-flight, and front-end stage
    /// diagnostics aggregated across every resolved session.
    pub fn stats(&self) -> EngineStats {
        let t = self.table.borrow();
        EngineStats {
            opened: t.opened,
            resolved: t.resolved,
            evicted: t.evicted,
            rejected_pushes: t.rejected_pushes,
            in_flight: t.sessions.len(),
            peak_in_flight: t.peak_in_flight,
            diagnostics: t.diagnostics,
        }
    }
}

/// Services one session a drain moved out of the table: pushes its queued
/// chunks through the front end, then parks it if still open or resolves
/// it through the same [`resolve_stream`] sequence as sequential
/// screening.
fn service(
    system: &EarSonar,
    policy: &RetryPolicy,
    now: u64,
    scratch: &mut DspScratch,
    id: u64,
    mut entry: SessionEntry,
) -> Serviced {
    for chunk in entry.queue.drain(..) {
        // Per-chirp failures land in diagnostics, not errors; the push
        // itself is infallible for in-memory chunks.
        let _ = entry
            .stream
            .push_samples_with(system.front_end(), scratch, &chunk);
    }
    if !entry.closed {
        return Serviced::Parked(id, entry);
    }
    let diagnostics = entry.stream.diagnostics();
    Serviced::Resolved(CompletedSession {
        id: SessionId(id),
        outcome: resolve_stream(system, scratch, entry.stream, policy),
        evicted: false,
        opened_tick: entry.opened_tick,
        resolved_tick: now,
        diagnostics,
    })
}

/// The inconclusive result of a session evicted at tick `now`.
fn evicted(id: u64, entry: SessionEntry, now: u64) -> CompletedSession {
    let diagnostics = entry.stream.diagnostics();
    CompletedSession {
        id: SessionId(id),
        outcome: Ok(ScreeningOutcome::Inconclusive(InconclusiveReport {
            reason: InconclusiveReason::SourceExhausted,
            attempts: 1,
            quality: Some(entry.stream.quality()),
            captures: CaptureDiagnostics::default(),
        })),
        evicted: true,
        opened_tick: entry.opened_tick,
        resolved_tick: now,
        diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earsonar::EarSonarConfig;
    use earsonar_sim::cohort::Cohort;
    use earsonar_sim::dataset::{Dataset, DatasetSpec};

    #[test]
    fn a_panicking_session_is_dropped_and_the_rest_survive_the_drain() {
        let data = Dataset::build(&Cohort::generate(8, 3), &DatasetSpec::default());
        let system = EarSonar::fit(&data.sessions, &EarSonarConfig::default()).expect("fit");
        let chunk = vec![0.0; 4096];
        for workers in [1, 2, 4] {
            let engine = ScreeningEngine::new(&system, EngineConfig::default());
            for id in 0..4 {
                engine.open(SessionId(id)).expect("open");
            }
            // 0: open with a chunk; 1: panics; 2: closed with a chunk;
            // 3: closed with nothing queued.
            for id in 0..3 {
                engine.push(SessionId(id), &chunk).expect("push");
            }
            engine.close(SessionId(2)).expect("close");
            engine.close(SessionId(3)).expect("close");

            let (system, policy) = (&system, RetryPolicy::default());
            let caught = catch_unwind(AssertUnwindSafe(|| {
                engine.drain_with(workers, |scratch, now, id, entry| {
                    if id == 1 {
                        panic!("session {id} failed");
                    }
                    service(system, &policy, now, scratch, id, entry)
                })
            }));
            let payload = caught.expect_err("the panic must reach the caller");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("session 1 failed"),
                "workers = {workers}"
            );

            // Session 0 went back in the table; 2 and 3 resolved; 1 is gone.
            assert_eq!(engine.in_flight(), 1, "workers = {workers}");
            assert_eq!(
                engine.push(SessionId(1), &chunk),
                Err(Rejected::UnknownSession)
            );
            engine
                .push(SessionId(0), &chunk)
                .expect("session 0 survives");
            let ids: Vec<u64> = engine.take_completed().iter().map(|c| c.id.0).collect();
            assert_eq!(ids, vec![2, 3], "workers = {workers}");
            let stats = engine.stats();
            assert_eq!((stats.resolved, stats.evicted), (2, 0));

            // The table is usable again: a plain drain finishes session 0.
            engine.close(SessionId(0)).expect("close");
            assert_eq!(engine.drain(workers), 1);
            assert_eq!(engine.in_flight(), 0);
        }
    }
}
