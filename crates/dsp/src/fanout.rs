//! The workspace's one parallel fan-out.
//!
//! Cohort synthesis, model fitting, feature extraction and the engine's
//! drain all map an index range through a pure per-item function that
//! needs a warm, worker-owned workspace (`SimScratch`, [`DspScratch`]).
//! [`map_indexed`] does that over `std::thread::scope` workers — no
//! thread-pool dependency, no `'static` bounds:
//!
//! * results come back in index order;
//! * workers claim indices from one atomic counter (dynamic load
//!   balancing: some recordings fail fast, some run the full pipeline)
//!   and each owns one `init()` state for its whole lifetime;
//! * worker 0 is the calling thread, so a two-worker fan-out spawns one
//!   thread — and with it one glibc malloc arena less, which measurably
//!   trims peak RSS;
//! * a panicking item resumes on the caller with its original payload.
//!
//! Every item depends only on its index (never on which worker ran it or
//! what that worker's state held before), so the output is bit-identical
//! to a sequential map at any worker count. With one worker — a 1-core
//! host, or a single item — everything runs inline and nothing is
//! spawned.
//!
//! [`DspScratch`]: crate::plan::DspScratch

use std::sync::atomic::{AtomicUsize, Ordering};

/// Maps `f(state, index)` over `0..n`, fanned out over the host's
/// available parallelism (capped at `n`), returning results in index
/// order.
///
/// `init` builds one worker-local state per worker; `f` must produce a
/// result that depends only on its index.
///
/// # Panics
///
/// Resumes the first observed panic of `f` (or `init`) on the caller.
///
/// # Example
///
/// ```
/// use earsonar_dsp::fanout::map_indexed;
/// let squares = map_indexed(5, Vec::<usize>::new, |_buf, i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// ```
pub fn map_indexed<T, S, G, F>(n: usize, init: G, f: F) -> Vec<T>
where
    T: Send,
    G: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    map_indexed_on(cores, n, init, f)
}

/// [`map_indexed`] over an explicit worker count (capped at `n`; `0` and
/// `1` both run inline). For callers whose worker count is already part
/// of their own contract, such as the screening engine's `drain(workers)`.
///
/// # Panics
///
/// As [`map_indexed`].
pub fn map_indexed_on<T, S, G, F>(workers: usize, n: usize, init: G, f: F) -> Vec<T>
where
    T: Send,
    G: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let workers = workers.min(n);
    if workers <= 1 {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let work = || {
        let mut state = init();
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, f(&mut state, i)));
        }
    };
    let mut done = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        let mut done = work();
        for h in helpers {
            match h.join() {
                Ok(theirs) => done.extend(theirs),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        done
    });
    // The counter hands out each index exactly once, so sorting by index
    // restores input order without gaps or duplicates.
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn preserves_index_order_and_runs_every_index_once() {
        for workers in [1usize, 2, 3, 8] {
            let calls: Vec<AtomicUsize> = (0..37).map(|_| AtomicUsize::new(0)).collect();
            let out = map_indexed_on(
                workers,
                calls.len(),
                || (),
                |_, i| {
                    calls[i].fetch_add(1, Ordering::Relaxed);
                    i * i
                },
            );
            let expect: Vec<usize> = (0..calls.len()).map(|i| i * i).collect();
            assert_eq!(out, expect, "workers = {workers}");
            assert!(
                calls.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "workers = {workers}: an index ran other than once"
            );
        }
    }

    #[test]
    fn each_worker_owns_one_state() {
        let inits = AtomicUsize::new(0);
        let out = map_indexed_on(
            3,
            20,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |seen, i| {
                *seen += 1;
                i
            },
        );
        assert_eq!(out, (0..20).collect::<Vec<_>>());
        assert!((1..=3).contains(&inits.load(Ordering::Relaxed)));
    }

    #[test]
    fn one_worker_spawns_nothing() {
        // Zero or one worker, or more workers than the one item: all run
        // inline on the caller.
        let caller = std::thread::current().id();
        for (workers, n) in [(0usize, 9usize), (1, 9), (8, 1)] {
            let threads = map_indexed_on(workers, n, || (), |_, _| std::thread::current().id());
            assert_eq!(threads.len(), n);
            assert!(
                threads.iter().all(|&t| t == caller),
                "workers = {workers}, n = {n}"
            );
        }
    }

    #[test]
    fn empty_input_yields_nothing() {
        let out: Vec<usize> = map_indexed_on(4, 0, || (), |_, i| i);
        assert!(out.is_empty());
        let out: Vec<usize> = map_indexed(0, || (), |_, i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn a_panicking_item_reaches_the_caller_with_its_message() {
        for workers in [1usize, 2, 3, 8] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                map_indexed_on(
                    workers,
                    16,
                    || (),
                    |_, i| {
                        if i == 11 {
                            panic!("item {i} failed");
                        }
                        i
                    },
                )
            }));
            let payload = caught.expect_err("the panic must propagate");
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()));
            assert_eq!(
                message.as_deref(),
                Some("item 11 failed"),
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn default_sizing_matches_a_sequential_map() {
        let out = map_indexed(100, || (), |_, i| i as u64 * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<u64>>());
    }
}
