//! The workspace's one parallel fan-out.
//!
//! Cohort synthesis, model fitting, feature extraction and the engine's
//! drain all map a list of items through a pure per-item function, given
//! a worker-owned workspace where one pays (a warm [`DspScratch`]; cohort
//! synthesis needs none and passes `()`).
//! [`map_on`] does that over `std::thread::scope` workers — no
//! thread-pool dependency, no `'static` bounds, and no lock or atomic:
//!
//! * items move into the workers by value, dealt round-robin (worker `w`
//!   of `k` owns items `w`, `w + k`, `w + 2k`, …), so every worker owns a
//!   disjoint share and each item is consumed exactly once;
//! * results come back in input order;
//! * each worker owns one `init()` state for its whole share;
//! * worker 0 is the calling thread, so a two-worker fan-out spawns one
//!   thread — and with it one glibc malloc arena less, which measurably
//!   trims peak RSS;
//! * a panicking item resumes on the caller with its original payload;
//! * the worker count is `min(requested, items, available cores)`, so no
//!   request, however large, starts more threads than the host can run.
//!
//! Every result depends only on its item (never on which worker ran it or
//! what that worker's state held before), so the output is bit-identical
//! to a sequential map at any worker count. With one worker — a 1-core
//! host, or a single item — everything runs inline and nothing is
//! spawned.
//!
//! [`DspScratch`]: crate::plan::DspScratch

use std::sync::OnceLock;

/// The host's available parallelism, read once per process: one read
/// parses the cgroup CPU quota, ~20 µs on a 2-core x86-64 Linux host, and
/// the engine's drain sizes a fan-out up to every 5 ms.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |c| c.get()))
}

/// Workers for a fan-out of `n` items: the request, capped at the items
/// and at the host's `cores`; `0` and `1` both mean inline.
fn worker_count(requested: usize, n: usize, cores: usize) -> usize {
    requested.min(n).min(cores).max(1)
}

/// Maps `f(state, index)` over `0..n` on every available core, returning
/// results in index order.
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
    map_on(usize::MAX, (0..n).collect(), init, f)
}

/// Maps `f(state, item)` over `items` by value on up to `workers`
/// workers (capped at the item count and the host's cores), returning
/// results in input order. For callers whose worker count is part of
/// their own contract, such as the screening engine's `drain(workers)`.
///
/// # Panics
///
/// As [`map_indexed`].
///
/// # Example
///
/// ```
/// use earsonar_dsp::fanout::map_on;
/// let words = vec!["ear".to_string(), "drum".to_string()];
/// let lens = map_on(2, words, || (), |_, w| w.len());
/// assert_eq!(lens, vec![3, 4]);
/// ```
pub fn map_on<I, T, S, G, F>(workers: usize, items: Vec<I>, init: G, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    G: Fn() -> S + Sync,
    F: Fn(&mut S, I) -> T + Sync,
{
    let workers = worker_count(workers, items.len(), cores());
    run(workers, items, &init, &f)
}

/// [`map_on`] at exactly `workers` workers (`0` and `1` run inline).
fn run<I, T, S, G, F>(workers: usize, items: Vec<I>, init: &G, f: &F) -> Vec<T>
where
    I: Send,
    T: Send,
    G: Fn() -> S + Sync,
    F: Fn(&mut S, I) -> T + Sync,
{
    let n = items.len();
    let work = |share: Vec<I>| -> Vec<T> {
        let mut state = init();
        share.into_iter().map(|item| f(&mut state, item)).collect()
    };
    if workers <= 1 {
        return work(items);
    }
    let mut shares: Vec<Vec<I>> = (0..workers)
        .map(|_| Vec::with_capacity(n.div_ceil(workers)))
        .collect();
    for (i, item) in items.into_iter().enumerate() {
        shares[i % workers].push(item);
    }
    let mut shares = shares.into_iter();
    let mine = shares.next().unwrap_or_default();
    let work = &work;
    let done: Vec<Vec<T>> = std::thread::scope(|s| {
        let helpers: Vec<_> = shares.map(|share| s.spawn(move || work(share))).collect();
        let mut done = vec![work(mine)];
        for h in helpers {
            match h.join() {
                Ok(theirs) => done.push(theirs),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        done
    });
    // Undo the round-robin deal: result `i` is the next one of share
    // `i % workers`.
    let mut done: Vec<_> = done.into_iter().map(Vec::into_iter).collect();
    (0..n).filter_map(|i| done[i % workers].next()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    const WORKERS: [usize; 5] = [0, 1, 2, 3, 8];

    #[test]
    fn sizing_caps_at_items_and_cores() {
        // Pure arithmetic: thousands of requested workers start nothing.
        assert_eq!(worker_count(10_000, 10_000, 4), 4);
        assert_eq!(worker_count(10_000, 3, 64), 3);
        assert_eq!(worker_count(2, 10_000, 64), 2);
        assert_eq!(worker_count(usize::MAX, usize::MAX, 1), 1);
        for (requested, n) in [(0, 9), (1, 9), (8, 1), (8, 0)] {
            assert_eq!(worker_count(requested, n, 16), 1, "{requested}, {n}");
        }
    }

    #[test]
    fn every_item_is_consumed_once_and_returned_in_input_order() {
        for workers in WORKERS {
            let items: Vec<String> = (0..37).map(|i| i.to_string()).collect();
            let out = run(workers, items, &|| (), &|_, s: String| s + "!");
            let expect: Vec<String> = (0..37).map(|i| format!("{i}!")).collect();
            assert_eq!(out, expect, "workers = {workers}");
        }
    }

    #[test]
    fn each_worker_owns_one_state_for_its_share() {
        for workers in WORKERS {
            let inits = AtomicUsize::new(0);
            let init = || {
                inits.fetch_add(1, Ordering::Relaxed);
                0usize
            };
            let out = run(
                workers,
                (0..20).collect(),
                &init,
                &|seen: &mut usize, i: usize| {
                    *seen += 1;
                    (i, *seen)
                },
            );
            let k = workers.max(1);
            assert_eq!(inits.load(Ordering::Relaxed), k, "workers = {workers}");
            // Round-robin deal: item `i` is the `i / k + 1`-th its worker saw.
            let expect: Vec<_> = (0..20).map(|i| (i, i / k + 1)).collect();
            assert_eq!(out, expect, "workers = {workers}");
        }
    }

    #[test]
    fn one_worker_spawns_nothing() {
        let caller = std::thread::current().id();
        for (workers, n) in [(0usize, 9usize), (1, 9), (8, 1)] {
            let threads = map_on(
                workers,
                vec![(); n],
                || (),
                |_, ()| std::thread::current().id(),
            );
            assert_eq!(threads.len(), n);
            assert!(
                threads.iter().all(|&t| t == caller),
                "workers = {workers}, n = {n}"
            );
        }
    }

    #[test]
    fn empty_input_yields_nothing() {
        for workers in WORKERS {
            let out: Vec<usize> = run(workers, Vec::new(), &|| (), &|_, i: usize| i);
            assert!(out.is_empty());
        }
        let out: Vec<usize> = map_indexed(0, || (), |_, i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn a_panicking_item_reaches_the_caller_with_its_message() {
        for workers in WORKERS {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                run(workers, (0..16).collect(), &|| (), &|_, i: usize| {
                    if i == 11 {
                        panic!("item {i} failed");
                    }
                    i
                })
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
