//! The multiplexer: sharded session table, bounded ingest queues,
//! worker-pool draining, and tick-driven keep-alive eviction.

use crate::config::EngineConfig;
use crate::session::{CompletedSession, Rejected, SessionId};
use earsonar::diagnostics::{CaptureDiagnostics, Diagnostics};
use earsonar::pipeline::EarSonar;
use earsonar::screening::{
    resolve_stream, InconclusiveReason, InconclusiveReport, ScreeningOutcome,
};
use earsonar::streaming::ChirpStream;
use earsonar_dsp::fanout;
use earsonar_dsp::plan::DspScratch;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Locks a mutex, recovering the guard from a poisoned lock. A poisoned
/// shard means some worker thread panicked; the protected state is a
/// plain session table whose invariants hold between every statement, so
/// continuing with the recovered guard is sound — and a panic-free crate
/// must not turn someone else's panic into its own.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// One in-flight session: accumulated stream state plus its bounded
/// ingest queue. `stream` is `None` only while a drain worker holds the
/// state out of the table (the "busy" marker); busy sessions are never
/// evicted and never claimed twice.
struct SessionEntry {
    stream: Option<ChirpStream>,
    queue: VecDeque<Vec<f64>>,
    closed: bool,
    opened_tick: u64,
    last_activity: u64,
}

/// Resolution ledger: completed sessions awaiting pickup plus engine-wide
/// aggregates, all behind one lock so counters and results never skew.
#[derive(Default)]
struct Ledger {
    completed: Vec<CompletedSession>,
    resolved: usize,
    evicted: usize,
    diagnostics: Diagnostics,
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

/// What a drain worker should do after re-checking a serviced session.
enum Next {
    /// Session closed and queue empty: resolve it now.
    Finalize,
    /// Queue empty but session still open: state returned, worker moves on.
    Parked,
    /// New chunks arrived while processing: service it again.
    More,
}

/// A concurrent multi-session screening engine over one trained system.
///
/// All methods take `&self`: the engine is shared freely across producer
/// threads (pushing samples) and maintenance threads (ticking, draining).
/// See the crate docs for the architecture and the determinism contract.
pub struct ScreeningEngine<'a> {
    system: &'a EarSonar,
    config: EngineConfig,
    shards: Vec<Mutex<BTreeMap<u64, SessionEntry>>>,
    ledger: Mutex<Ledger>,
    /// Logical clock; advanced only by [`ScreeningEngine::tick`].
    clock: AtomicU64,
    in_flight: AtomicUsize,
    peak_in_flight: AtomicUsize,
    opened: AtomicUsize,
    rejected_pushes: AtomicUsize,
}

impl<'a> ScreeningEngine<'a> {
    /// Creates an engine over a trained `system`. Config counts are
    /// clamped to at least 1 (see [`EngineConfig`]).
    pub fn new(system: &'a EarSonar, config: EngineConfig) -> Self {
        let config = config.normalized();
        let shards = (0..config.shards)
            .map(|_| Mutex::new(BTreeMap::new()))
            .collect();
        ScreeningEngine {
            system,
            config,
            shards,
            ledger: Mutex::new(Ledger::default()),
            clock: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            peak_in_flight: AtomicUsize::new(0),
            opened: AtomicUsize::new(0),
            rejected_pushes: AtomicUsize::new(0),
        }
    }

    /// The (normalized) configuration the engine runs under.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The current logical-clock tick.
    pub fn now(&self) -> u64 {
        self.clock.load(Ordering::SeqCst)
    }

    /// Sessions currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }

    fn shard_of(&self, id: u64) -> &Mutex<BTreeMap<u64, SessionEntry>> {
        // `shards` is non-empty by construction (clamped to >= 1) and the
        // index is reduced mod its length.
        &self.shards[(id % self.shards.len() as u64) as usize]
    }

    /// Opens a new session under `id`.
    ///
    /// # Errors
    ///
    /// [`Rejected::TableFull`] at the `max_sessions` bound and
    /// [`Rejected::DuplicateSession`] for an id already in flight.
    pub fn open(&self, id: SessionId) -> Result<(), Rejected> {
        let n = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        if n > self.config.max_sessions {
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            return Err(Rejected::TableFull {
                capacity: self.config.max_sessions,
            });
        }
        let now = self.now();
        {
            let mut shard = lock(self.shard_of(id.0));
            if shard.contains_key(&id.0) {
                drop(shard);
                self.in_flight.fetch_sub(1, Ordering::SeqCst);
                return Err(Rejected::DuplicateSession);
            }
            shard.insert(
                id.0,
                SessionEntry {
                    stream: Some(ChirpStream::new(self.system.front_end())),
                    queue: VecDeque::new(),
                    closed: false,
                    opened_tick: now,
                    last_activity: now,
                },
            );
        }
        self.opened.fetch_add(1, Ordering::Relaxed);
        let mut peak = self.peak_in_flight.load(Ordering::Relaxed);
        while n > peak {
            match self.peak_in_flight.compare_exchange_weak(
                peak,
                n,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => peak = seen,
            }
        }
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
    // lint: hot-path
    pub fn push(&self, id: SessionId, chunk: &[f64]) -> Result<(), Rejected> {
        let now = self.now();
        let mut shard = lock(self.shard_of(id.0));
        let entry = match shard.get_mut(&id.0) {
            Some(e) => e,
            None => return Err(Rejected::UnknownSession),
        };
        if entry.closed {
            return Err(Rejected::SessionClosed);
        }
        if entry.queue.len() >= self.config.queue_capacity {
            self.rejected_pushes.fetch_add(1, Ordering::Relaxed);
            return Err(Rejected::QueueFull {
                capacity: self.config.queue_capacity,
            });
        }
        // lint: allow(hot-path-alloc) the ingest queue must own its samples; queue_capacity bounds the queued chunks, not their length, so a session holds at most queue_capacity chunks of whatever size callers push (a sample bound is ROADMAP item 5)
        entry.queue.push_back(chunk.to_vec());
        entry.last_activity = now;
        Ok(())
    }

    /// Declares the session's sample stream finished. The verdict is
    /// produced by the next [`ScreeningEngine::drain`].
    ///
    /// # Errors
    ///
    /// [`Rejected::UnknownSession`] / [`Rejected::SessionClosed`].
    pub fn close(&self, id: SessionId) -> Result<(), Rejected> {
        let now = self.now();
        let mut shard = lock(self.shard_of(id.0));
        let entry = match shard.get_mut(&id.0) {
            Some(e) => e,
            None => return Err(Rejected::UnknownSession),
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
    /// Sessions a drain worker currently holds are never evicted, and
    /// queued-but-undrained chunks defer eviction — run
    /// [`ScreeningEngine::drain`] before `tick` in a maintenance loop so
    /// delivered samples are never discarded.
    pub fn tick(&self) -> usize {
        let now = self.clock.fetch_add(1, Ordering::SeqCst) + 1;
        let keep = self.config.keep_alive_ticks;
        let mut evicted = Vec::new();
        for shard in &self.shards {
            let mut guard = lock(shard);
            let expired: Vec<u64> = guard
                .iter()
                .filter(|(_, e)| {
                    !e.closed
                        && e.stream.is_some()
                        && e.queue.is_empty()
                        && now.saturating_sub(e.last_activity) >= keep
                })
                .map(|(&id, _)| id)
                .collect();
            for id in expired {
                if let Some(entry) = guard.remove(&id) {
                    evicted.push((id, entry));
                }
            }
        }
        let count = evicted.len();
        for (id, entry) in evicted {
            self.resolve_evicted(id, entry, now);
        }
        count
    }

    fn resolve_evicted(&self, id: u64, entry: SessionEntry, now: u64) {
        let Some(stream) = entry.stream else {
            return;
        };
        let diagnostics = stream.diagnostics();
        let outcome = ScreeningOutcome::Inconclusive(InconclusiveReport {
            reason: InconclusiveReason::SourceExhausted,
            attempts: 1,
            quality: Some(stream.quality()),
            captures: CaptureDiagnostics::default(),
        });
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        let mut ledger = lock(&self.ledger);
        ledger.diagnostics.merge(&diagnostics);
        ledger.evicted += 1;
        ledger.completed.push(CompletedSession {
            id: SessionId(id),
            outcome: Ok(outcome),
            evicted: true,
            opened_tick: entry.opened_tick,
            resolved_tick: now,
            diagnostics,
        });
    }

    /// Every session a drain should visit: queued chunks to process, or
    /// closed and awaiting finalization. Sorted for a deterministic claim
    /// order.
    fn ready_ids(&self) -> Vec<u64> {
        let mut ids = Vec::new();
        for shard in &self.shards {
            let guard = lock(shard);
            for (&id, e) in guard.iter() {
                if e.stream.is_some() && (e.closed || !e.queue.is_empty()) {
                    ids.push(id);
                }
            }
        }
        ids.sort_unstable();
        ids
    }

    /// Drains every ready session across `workers` workers of
    /// [`fanout::map_indexed_on`] (the calling thread is one of them):
    /// queued chunks are pushed through the front end, and sessions that
    /// are closed with nothing left queued are resolved into completed
    /// results. Each worker owns one warm [`DspScratch`] for its whole
    /// pass, and a worker's panic resumes on the caller. Returns how many
    /// sessions resolved during this drain.
    ///
    /// Safe to call concurrently with pushes; a chunk that arrives while
    /// its session is being serviced is picked up before the worker moves
    /// on.
    pub fn drain(&self, workers: usize) -> usize {
        let ready = self.ready_ids();
        if ready.is_empty() {
            return 0;
        }
        let resolved_before = lock(&self.ledger).resolved;
        fanout::map_indexed_on(workers, ready.len(), DspScratch::new, |scratch, i| {
            self.service(ready[i], scratch)
        });
        lock(&self.ledger).resolved - resolved_before
    }

    /// Services one session: takes its stream and queued chunks out of
    /// the table, processes them without holding any lock, then either
    /// parks the stream back, loops on newly arrived chunks, or resolves
    /// the session.
    fn service(&self, id: u64, scratch: &mut DspScratch) {
        loop {
            let (stream, chunks, opened_tick) = {
                let mut shard = lock(self.shard_of(id));
                let entry = match shard.get_mut(&id) {
                    Some(e) => e,
                    None => return,
                };
                let stream = match entry.stream.take() {
                    Some(s) => s,
                    // Another worker holds it (stale ready list) — skip.
                    None => return,
                };
                (stream, std::mem::take(&mut entry.queue), entry.opened_tick)
            };
            let mut stream = stream;
            for chunk in &chunks {
                // Per-chirp failures land in diagnostics, not errors; the
                // push itself is infallible for in-memory chunks.
                let _ = stream.push_samples_with(self.system.front_end(), scratch, chunk);
            }
            let mut parked = Some(stream);
            let next = {
                let mut shard = lock(self.shard_of(id));
                match shard.get_mut(&id) {
                    // Unreachable in practice: busy sessions are never
                    // evicted or removed. Dropping the state is still the
                    // only sound move if the entry vanished.
                    None => Next::Parked,
                    Some(entry) => {
                        if entry.closed && entry.queue.is_empty() {
                            shard.remove(&id);
                            Next::Finalize
                        } else {
                            let more = !entry.queue.is_empty();
                            entry.stream = parked.take();
                            if more {
                                Next::More
                            } else {
                                Next::Parked
                            }
                        }
                    }
                }
            };
            match next {
                Next::Finalize => {
                    let Some(stream) = parked else {
                        return;
                    };
                    self.finalize(id, stream, opened_tick, scratch);
                    return;
                }
                Next::Parked => return,
                Next::More => {}
            }
        }
    }

    /// Resolves a closed, fully fed session through the same
    /// [`resolve_stream`] sequence as sequential screening.
    fn finalize(&self, id: u64, stream: ChirpStream, opened_tick: u64, scratch: &mut DspScratch) {
        let diagnostics = stream.diagnostics();
        let outcome = resolve_stream(self.system, scratch, stream, &self.config.policy);
        let now = self.now();
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        let mut ledger = lock(&self.ledger);
        ledger.diagnostics.merge(&diagnostics);
        ledger.resolved += 1;
        ledger.completed.push(CompletedSession {
            id: SessionId(id),
            outcome,
            evicted: false,
            opened_tick,
            resolved_tick: now,
            diagnostics,
        });
    }

    /// Takes every completed session accumulated since the last call,
    /// sorted by session id — the order is deterministic regardless of
    /// worker timing.
    pub fn take_completed(&self) -> Vec<CompletedSession> {
        let mut completed = std::mem::take(&mut lock(&self.ledger).completed);
        completed.sort_unstable_by_key(|c| c.id);
        completed
    }

    /// Lifetime counters: sessions opened/resolved/evicted, backpressure
    /// rejections, in-flight and peak in-flight, and front-end stage
    /// diagnostics aggregated across every resolved session.
    pub fn stats(&self) -> EngineStats {
        let ledger = lock(&self.ledger);
        EngineStats {
            opened: self.opened.load(Ordering::Relaxed),
            resolved: ledger.resolved,
            evicted: ledger.evicted,
            rejected_pushes: self.rejected_pushes.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::SeqCst),
            peak_in_flight: self.peak_in_flight.load(Ordering::Relaxed),
            diagnostics: ledger.diagnostics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::lock;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Mutex;

    #[test]
    fn lock_recovers_the_guard_from_a_poisoned_mutex() {
        let m = Mutex::new(41u64);

        // Poison the mutex: panic while holding its guard on this thread.
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            let _guard = m.lock().unwrap();
            panic!("worker panicked while holding the lock");
        }));
        assert!(panicked.is_err());
        assert!(m.is_poisoned(), "the panic above must poison the mutex");

        // The helper's `Err(poisoned)` arm: hand back a usable guard
        // instead of amplifying the dead thread's panic into this one.
        let mut guard = lock(&m);
        *guard += 1;
        assert_eq!(*guard, 42);
        drop(guard);

        // Recovery is repeatable — the mutex stays poisoned, and the
        // helper keeps working.
        assert!(m.is_poisoned());
        assert_eq!(*lock(&m), 42);
    }
}
