//! Dependency-free micro-benchmark support.
//!
//! The hermetic build has no crates.io access, so Criterion is out of the
//! dependency budget; this module provides the small subset the harness
//! needs — warm-up, iteration-count calibration, best-of-R batch timing —
//! on `std::time::Instant` alone. The `benches/` targets (with
//! `harness = false`) are built on it.

use std::hint::black_box;
use std::time::Instant;

/// One timed kernel: name plus the best observed per-iteration time.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Kernel label, e.g. `fft_real/2048`.
    pub name: String,
    /// Best-of-repeats mean nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Iterations per timed batch after calibration.
    pub iters: u64,
}

/// Benchmark runner with a per-batch time budget.
///
/// `target_ms` controls the calibrated batch duration; `repeats` batches
/// are timed and the fastest mean survives (minimum-of-means is robust to
/// scheduler noise on shared machines).
#[derive(Debug, Clone)]
pub struct Bencher {
    target_ms: u64,
    repeats: u32,
}

impl Default for Bencher {
    fn default() -> Self {
        Bencher {
            target_ms: 60,
            repeats: 5,
        }
    }
}

impl Bencher {
    /// A runner with the default budget (60 ms batches, best of 5).
    pub fn new() -> Self {
        Self::default()
    }

    /// A reduced-budget runner for smoke runs (CI fail-fast): 5 ms batches,
    /// best of 2.
    pub fn smoke() -> Self {
        Bencher {
            target_ms: 5,
            repeats: 2,
        }
    }

    /// Picks the runner from the command line: smoke when `--smoke`
    /// appears in `args`.
    pub fn from_args(args: &[String]) -> Self {
        if args.iter().any(|a| a == "--smoke") {
            Bencher::smoke()
        } else {
            Bencher::new()
        }
    }

    /// Times `f`, returning the calibrated measurement. The closure's
    /// return value is passed through [`black_box`] so the optimizer cannot
    /// discard the computation.
    #[allow(clippy::disallowed_methods)] // timing is this type's purpose
    pub fn run<T>(&self, name: &str, mut f: impl FnMut() -> T) -> Measurement {
        // Warm-up and single-shot estimate.
        let start = Instant::now();
        black_box(f());
        let once = start.elapsed().as_nanos().max(1) as u64;
        // Calibrate the batch to roughly target_ms.
        let target_ns = self.target_ms.saturating_mul(1_000_000).max(1);
        let iters = (target_ns / once).clamp(1, 10_000_000);
        let mut best = f64::INFINITY;
        for _ in 0..self.repeats.max(1) {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let mean = t.elapsed().as_nanos() as f64 / iters as f64;
            if mean < best {
                best = mean;
            }
        }
        Measurement {
            name: name.to_string(),
            ns_per_iter: best,
            iters,
        }
    }

    /// Times `f` and prints the result in a `cargo bench`-like line.
    pub fn report<T>(&self, name: &str, f: impl FnMut() -> T) -> Measurement {
        let m = self.run(name, f);
        println!(
            "{:<44} {:>14.1} ns/iter  ({} iters/batch)",
            m.name, m.ns_per_iter, m.iters
        );
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_is_positive_and_calibrated() {
        let b = Bencher::smoke();
        let m = b.run("spin", || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(m.ns_per_iter > 0.0);
        assert!(m.iters >= 1);
    }

    #[test]
    fn from_args_smoke_flag() {
        let b = Bencher::from_args(&["--smoke".to_string()]);
        assert_eq!(b.target_ms, 5);
        let b = Bencher::from_args(&[]);
        assert_eq!(b.target_ms, 60);
    }
}
