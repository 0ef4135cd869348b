//! Seeded randomness for the simulator.
//!
//! A thin wrapper over the workspace's deterministic generator
//! ([`earsonar_dsp::rng::DetRng`]) adding the variate families the
//! simulator needs (Gaussian via Box–Muller, lognormal, clamped jitters).
//! External randomness crates are outside this project's dependency budget
//! — the build must be hermetic — so the transforms are implemented here.

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

    /// A pair of independent standard Gaussian samples via Marsaglia's
    /// polar method — no trigonometry, roughly twice as fast per sample as
    /// [`SimRng::standard_gaussian`] on glibc, where `sin`/`cos` dominate
    /// the Box–Muller transform.
    ///
    /// Draws directly from the underlying uniform stream and neither reads
    /// nor writes the Box–Muller spare, so interleaving the two samplers
    /// stays deterministic. The dense noise fills
    /// ([`SimRng::add_white_noise`], ambient noise) use this; scalar
    /// structural draws keep Box–Muller so their values are unchanged.
    pub fn gaussian_pair(&mut self) -> (f64, f64) {
        loop {
            let x = self.inner.uniform(-1.0, 1.0);
            let y = self.inner.uniform(-1.0, 1.0);
            let s = x * x + y * y;
            if s < 1.0 && s > 0.0 {
                let k = (-2.0 * s.ln() / s).sqrt();
                return (x * k, y * k);
            }
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

    /// Lognormal sample: `exp(N(mu, sigma))`.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.gaussian(mu, sigma).exp()
    }

    /// A multiplicative jitter factor `1 + N(0, rel_sigma)`, clamped to
    /// stay positive.
    pub fn jitter(&mut self, rel_sigma: f64) -> f64 {
        (1.0 + self.gaussian(0.0, rel_sigma)).max(0.05)
    }

    /// Adds white Gaussian noise of the given RMS amplitude onto `signal`
    /// in place, drawing pairs via [`SimRng::gaussian_pair`] — no
    /// allocation, no trigonometry.
    ///
    /// For an odd-length fill the second element of the final pair is
    /// discarded.
    pub fn add_white_noise(&mut self, signal: &mut [f64], rms: f64) {
        let rms = rms.max(0.0);
        let mut chunks = signal.chunks_exact_mut(2);
        for ab in &mut chunks {
            let (z0, z1) = self.gaussian_pair();
            ab[0] += rms * z0;
            ab[1] += rms * z1;
        }
        if let [last] = chunks.into_remainder() {
            *last += rms * self.gaussian_pair().0;
        }
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
    fn lognormal_is_positive() {
        let mut rng = SimRng::seed_from_u64(8);
        for _ in 0..100 {
            assert!(rng.lognormal(0.0, 1.0) > 0.0);
        }
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
    fn gaussian_pair_moments_are_plausible() {
        let mut rng = SimRng::seed_from_u64(79);
        let n = 40_000usize;
        let mut sum = 0.0;
        let mut sq = 0.0;
        let mut cross = 0.0;
        for _ in 0..n / 2 {
            let (a, b) = rng.gaussian_pair();
            sum += a + b;
            sq += a * a + b * b;
            cross += a * b;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
        // Pair members are independent, not correlated.
        assert!((cross / (n / 2) as f64).abs() < 0.03);
    }

    #[test]
    fn gaussian_pair_leaves_the_cached_gaussian_spare_untouched() {
        // Interleaving the polar sampler must not perturb the Box–Muller
        // spare: a cached z1 drawn before the pair is returned after it.
        let mut a = SimRng::seed_from_u64(80);
        let mut b = SimRng::seed_from_u64(80);
        assert_eq!(a.standard_gaussian(), b.standard_gaussian());
        let cached_z1 = b.standard_gaussian(); // the spare, consumed next
        let pair = a.gaussian_pair();
        assert!(pair.0.is_finite() && pair.1.is_finite());
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
