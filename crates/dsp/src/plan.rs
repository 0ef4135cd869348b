//! Planned FFTs and reusable scratch space.
//!
//! The detection pipeline transforms the *same handful of sizes* thousands
//! of times per recording (one Wiener deconvolution per chirp, one echo
//! spectrum per impulse response, one MFCC frame per echo window, …). This
//! module factors the per-size work out of the transforms:
//!
//! * [`FftPlan`] — a radix-2 transform of one fixed power-of-two size with
//!   the bit-reversal permutation and per-stage twiddle factors precomputed
//!   once,
//! * [`RealFftPlan`] — an `N`-point transform of *real* input computed via
//!   an `N/2`-point complex FFT (half the butterflies of the generic path),
//! * [`FftPlan::shared`] / [`RealFftPlan::shared`] — the process-wide plan
//!   of each size, built on first request and never rebuilt, so every
//!   caller and every worker thread reads the same twiddle tables,
//! * [`DspScratch`] — a per-worker pool of intermediate buffers, so the
//!   planned kernels perform **zero heap allocation per call once warm**.
//!
//! A plan is a pure function of its size, so a shared plan computes the
//! same bits as a freshly built one. Plans are immutable after
//! construction; a [`DspScratch`] is owned by one [`crate::fanout`] worker
//! for its whole lifetime.
//!
//! # Example
//!
//! ```
//! use earsonar_dsp::plan::FftPlan;
//! use earsonar_dsp::Complex64;
//!
//! let plan = FftPlan::shared(8).unwrap();
//! let mut buf = vec![Complex64::ZERO; 8];
//! buf[0] = Complex64::ONE;
//! plan.forward(&mut buf).unwrap();
//! // The spectrum of an impulse is flat.
//! assert!(buf.iter().all(|z| (z.re - 1.0).abs() < 1e-12));
//! ```

use crate::complex::Complex64;
use crate::error::DspError;
use crate::fft::is_pow2;
use std::f64::consts::PI;
use std::sync::OnceLock;

/// One table slot per power-of-two size, indexed by `log2 n`.
const SLOTS: usize = usize::BITS as usize;
static PLANS: [OnceLock<FftPlan>; SLOTS] = [const { OnceLock::new() }; SLOTS];
static REAL_PLANS: [OnceLock<RealFftPlan>; SLOTS] = [const { OnceLock::new() }; SLOTS];

/// Twiddles `cis(-2π k / n)` for `k < n/2`.
fn twiddles(n: usize) -> Vec<Complex64> {
    (0..n / 2)
        .map(|k| Complex64::cis(-2.0 * PI * k as f64 / n as f64))
        .collect()
}

fn check_pow2(n: usize) -> Result<(), DspError> {
    if n == 0 {
        return Err(DspError::EmptyInput);
    }
    if !is_pow2(n) {
        return Err(DspError::InvalidLength {
            expected: "a power of two",
            actual: n,
        });
    }
    Ok(())
}

/// A prepared radix-2 FFT of one fixed power-of-two size.
///
/// Construction precomputes the bit-reversal permutation and the table
/// `tw[k] = exp(-2πik/N)` for `k < N/2`; every stage of the transform then
/// reads its twiddles by stride instead of recomputing them, and execution
/// performs no allocation at all.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// Bit-reversed index of each position (`u32`: transforms beyond 2^32
    /// points are far outside this crate's domain).
    rev: Vec<u32>,
    /// `tw[k] = cis(-2π k / n)` for `k < n/2`.
    tw: Vec<Complex64>,
}

impl FftPlan {
    /// Prepares a plan for `n`-point transforms.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] for `n == 0` and
    /// [`DspError::InvalidLength`] if `n` is not a power of two.
    pub fn new(n: usize) -> Result<Self, DspError> {
        check_pow2(n)?;
        Ok(Self::build(n))
    }

    /// The process-wide `n`-point plan, built on first request. Every later
    /// call, from any thread, returns the same plan.
    ///
    /// A shared plan is never freed: once a size has been requested, its
    /// bit-reversal table and twiddles (12 bytes per point) stay resident
    /// for the life of the process. Functions that size their
    /// transform from the input length say so in their docs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FftPlan::new`].
    pub fn shared(n: usize) -> Result<&'static Self, DspError> {
        check_pow2(n)?;
        Ok(Self::shared_checked(n))
    }

    /// [`FftPlan::shared`] for a size already checked to be a power of two.
    fn shared_checked(n: usize) -> &'static Self {
        PLANS[n.trailing_zeros() as usize].get_or_init(|| Self::build(n))
    }

    /// Builds the plan of a size already checked to be a power of two.
    fn build(n: usize) -> Self {
        let log2n = n.trailing_zeros();
        let mut rev = vec![0u32; n];
        for i in 1..n {
            rev[i] = (rev[i >> 1] >> 1) | (((i & 1) as u32) << (log2n - 1));
        }
        FftPlan {
            n,
            rev,
            tw: twiddles(n),
        }
    }

    /// The transform size this plan was built for.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Executes the transform in place: forward when `inverse` is false,
    /// normalized (`1/N`) inverse otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidLength`] if `data.len()` differs from the
    /// planned size.
    pub fn execute_in_place(
        &self,
        data: &mut [Complex64],
        inverse: bool,
    ) -> Result<(), DspError> {
        if data.len() != self.n {
            return Err(DspError::InvalidLength {
                expected: "a buffer of exactly the planned size",
                actual: data.len(),
            });
        }
        self.run(data, inverse);
        Ok(())
    }

    /// Forward transform in place. See [`FftPlan::execute_in_place`].
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidLength`] on a size mismatch.
    pub fn forward(&self, data: &mut [Complex64]) -> Result<(), DspError> {
        self.execute_in_place(data, false)
    }

    /// Normalized inverse transform in place. See
    /// [`FftPlan::execute_in_place`].
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidLength`] on a size mismatch.
    pub fn inverse(&self, data: &mut [Complex64]) -> Result<(), DspError> {
        self.execute_in_place(data, true)
    }

    /// Forward transform of real input promoted to complex: `out` is
    /// resized to the planned size and holds the first `n` samples of `x`,
    /// zero-padded, before the full complex transform runs in place.
    ///
    /// This is the generic complex path, not [`RealFftPlan`]'s half-size
    /// one; the two agree to rounding, not bit for bit.
    // lint: hot-path
    pub fn forward_from_real(&self, x: &[f64], out: &mut Vec<Complex64>) {
        out.clear();
        out.extend(x.iter().take(self.n).map(|&v| Complex64::from_real(v)));
        out.resize(self.n, Complex64::ZERO);
        self.run(out, false);
    }

    // lint: hot-path
    fn run(&self, data: &mut [Complex64], inverse: bool) {
        let n = self.n;
        debug_assert_eq!(data.len(), n);
        for (i, &r) in self.rev.iter().enumerate() {
            let j = r as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        let mut len = 2usize;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            for chunk in data.chunks_exact_mut(len) {
                for i in 0..half {
                    let mut w = self.tw[i * stride];
                    if inverse {
                        w = w.conj();
                    }
                    let u = chunk[i];
                    let v = chunk[i + half] * w;
                    chunk[i] = u + v;
                    chunk[i + half] = u - v;
                }
            }
            len <<= 1;
        }
        if inverse {
            let s = 1.0 / n as f64;
            for z in data.iter_mut() {
                *z = z.scale(s);
            }
        }
    }
}

/// A prepared `N`-point FFT of **real** input, computed through an
/// `N/2`-point complex FFT.
///
/// The even/odd samples are packed into the real/imaginary lanes of a
/// half-length complex buffer; one half-size transform plus an `O(N)`
/// unpacking recovers the full Hermitian spectrum. Compared with promoting
/// the signal to complex and running the generic path this halves the
/// butterfly count — the dominant cost of every spectrum the pipeline
/// takes.
#[derive(Debug, Clone)]
pub struct RealFftPlan {
    n: usize,
    /// Shared half-size complex plan (size 1 placeholder when `n == 1`).
    half: &'static FftPlan,
    /// `tw[k] = cis(-2π k / n)` for `k < n/2` (full-size twiddles used by
    /// the pack/unpack recombination).
    tw: Vec<Complex64>,
}

impl RealFftPlan {
    /// Prepares a plan for `n`-point real transforms.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] for `n == 0` and
    /// [`DspError::InvalidLength`] if `n` is not a power of two.
    pub fn new(n: usize) -> Result<Self, DspError> {
        check_pow2(n)?;
        Ok(Self::build(n))
    }

    /// The process-wide `n`-point real plan, built on first request. Every
    /// later call, from any thread, returns the same plan.
    ///
    /// Like [`FftPlan::shared`], it is never freed, and neither is the
    /// half-size complex plan it runs on.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RealFftPlan::new`].
    pub fn shared(n: usize) -> Result<&'static Self, DspError> {
        check_pow2(n)?;
        Ok(REAL_PLANS[n.trailing_zeros() as usize].get_or_init(|| Self::build(n)))
    }

    /// Builds the plan of a size already checked to be a power of two.
    fn build(n: usize) -> Self {
        RealFftPlan {
            n,
            half: FftPlan::shared_checked((n / 2).max(1)),
            tw: twiddles(n),
        }
    }

    /// The transform size this plan was built for.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Computes the full `n`-bin Hermitian spectrum of `input` into `out`
    /// (resized as needed), zero-padding inputs shorter than the planned
    /// size. `work` is a caller-owned intermediate buffer; pass the same
    /// vectors every call and no allocation happens once their capacity has
    /// grown to `n/2` and `n`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidLength`] if `input` is longer than the
    /// planned size.
    // lint: hot-path
    pub fn forward_into(
        &self,
        input: &[f64],
        work: &mut Vec<Complex64>,
        out: &mut Vec<Complex64>,
    ) -> Result<(), DspError> {
        if input.len() > self.n {
            return Err(DspError::InvalidLength {
                expected: "at most the planned transform size",
                actual: input.len(),
            });
        }
        if self.n == 1 {
            out.clear();
            out.push(Complex64::from_real(
                input.first().copied().unwrap_or(0.0),
            ));
            return Ok(());
        }
        let m = self.n / 2;
        work.clear();
        work.resize(m, Complex64::ZERO);
        for (k, z) in work.iter_mut().enumerate() {
            let re = input.get(2 * k).copied().unwrap_or(0.0);
            let im = input.get(2 * k + 1).copied().unwrap_or(0.0);
            *z = Complex64::new(re, im);
        }
        self.half.forward(work)?;
        out.clear();
        out.resize(self.n, Complex64::ZERO);
        // DC and Nyquist come straight from the packed bin 0.
        let z0 = work[0];
        out[0] = Complex64::from_real(z0.re + z0.im);
        out[m] = Complex64::from_real(z0.re - z0.im);
        for k in 1..m {
            let a = work[k];
            let b = work[m - k].conj();
            // F1 = spectrum of even samples, F2 = spectrum of odd samples.
            let f1 = (a + b).scale(0.5);
            let d = a - b;
            let f2 = Complex64::new(d.im * 0.5, -d.re * 0.5); // -i * d / 2
            let xk = f1 + self.tw[k] * f2;
            out[k] = xk;
            out[self.n - k] = xk.conj();
        }
        Ok(())
    }

    /// Recovers the `n` real samples of a full Hermitian spectrum into
    /// `out` (resized as needed). Inverse of [`RealFftPlan::forward_into`]
    /// (any imaginary residue of a non-Hermitian input is discarded).
    ///
    /// Only bins `0..=n/2` of `spectrum` are read — the upper half of a
    /// Hermitian spectrum is redundant. Callers that synthesize spectra
    /// directly (e.g. the simulator's spectral accumulator) may leave the
    /// upper bins stale; this is a guarantee, not an implementation detail.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidLength`] if `spectrum.len()` differs from
    /// the planned size.
    // lint: hot-path
    pub fn inverse_into(
        &self,
        spectrum: &[Complex64],
        work: &mut Vec<Complex64>,
        out: &mut Vec<f64>,
    ) -> Result<(), DspError> {
        if spectrum.len() != self.n {
            return Err(DspError::InvalidLength {
                expected: "a spectrum of exactly the planned size",
                actual: spectrum.len(),
            });
        }
        if self.n == 1 {
            out.clear();
            out.push(spectrum[0].re);
            return Ok(());
        }
        let m = self.n / 2;
        work.clear();
        work.resize(m, Complex64::ZERO);
        for (k, z) in work.iter_mut().enumerate() {
            let a = spectrum[k];
            let b = spectrum[m - k].conj();
            let f1 = (a + b).scale(0.5);
            let t = (a - b).scale(0.5);
            let f2 = self.tw[k].conj() * t;
            // Z[k] = F1[k] + i * F2[k]: the packed even/odd transform.
            *z = Complex64::new(f1.re - f2.im, f1.im + f2.re);
        }
        self.half.inverse(work)?;
        out.clear();
        out.reserve(self.n);
        for z in work.iter() {
            out.push(z.re);
            out.push(z.im);
        }
        Ok(())
    }
}

/// A reusable DSP workspace: pools of intermediate buffers.
///
/// The planned kernels (`convolve_fft_with`, `envelope_with`,
/// `MfccExtractor::extract_into`, `ChannelEstimator::estimate_with`, …)
/// take their plans from the shared table ([`FftPlan::shared`]) and borrow
/// every intermediate buffer from one of these, so a warm scratch makes
/// them allocation-free. Create one per worker thread and keep it across
/// calls; creation itself is cheap (empty pools).
#[derive(Debug, Default)]
pub struct DspScratch {
    complex_pool: Vec<Vec<Complex64>>,
    real_pool: Vec<Vec<f64>>,
}

impl DspScratch {
    /// An empty workspace. Buffers are created lazily on first use and
    /// retained for the workspace's lifetime.
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrows a complex buffer from the pool (empty, capacity retained
    /// from previous uses). Return it with [`DspScratch::put_complex`].
    pub fn take_complex(&mut self) -> Vec<Complex64> {
        self.complex_pool.pop().unwrap_or_default()
    }

    /// Returns a complex buffer to the pool, keeping its capacity.
    pub fn put_complex(&mut self, mut buf: Vec<Complex64>) {
        buf.clear();
        self.complex_pool.push(buf);
    }

    /// Borrows a real buffer from the pool (empty, capacity retained from
    /// previous uses). Return it with [`DspScratch::put_real`].
    pub fn take_real(&mut self) -> Vec<f64> {
        self.real_pool.pop().unwrap_or_default()
    }

    /// Returns a real buffer to the pool, keeping its capacity.
    pub fn put_real(&mut self, mut buf: Vec<f64>) {
        buf.clear();
        self.real_pool.push(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_rejects_bad_sizes() {
        assert!(matches!(FftPlan::new(0), Err(DspError::EmptyInput)));
        assert!(matches!(
            FftPlan::new(12),
            Err(DspError::InvalidLength { .. })
        ));
        assert!(matches!(RealFftPlan::new(0), Err(DspError::EmptyInput)));
        assert!(matches!(
            RealFftPlan::new(6),
            Err(DspError::InvalidLength { .. })
        ));
    }

    #[test]
    fn plan_rejects_mismatched_buffers() {
        let plan = FftPlan::new(8).unwrap();
        let mut short = vec![Complex64::ZERO; 4];
        assert!(plan.forward(&mut short).is_err());
        let rplan = RealFftPlan::new(8).unwrap();
        let (mut w, mut o) = (Vec::new(), Vec::new());
        assert!(rplan.forward_into(&[0.0; 9], &mut w, &mut o).is_err());
        let mut r = Vec::new();
        assert!(rplan
            .inverse_into(&[Complex64::ZERO; 4], &mut w, &mut r)
            .is_err());
    }

    #[test]
    fn size_one_plans_are_identities() {
        let plan = FftPlan::new(1).unwrap();
        let mut buf = vec![Complex64::new(3.0, -2.0)];
        plan.forward(&mut buf).unwrap();
        assert_eq!(buf[0], Complex64::new(3.0, -2.0));
        let rplan = RealFftPlan::new(1).unwrap();
        let (mut w, mut spec, mut time) = (Vec::new(), Vec::new(), Vec::new());
        rplan.forward_into(&[5.0], &mut w, &mut spec).unwrap();
        assert_eq!(spec, vec![Complex64::from_real(5.0)]);
        rplan.inverse_into(&spec, &mut w, &mut time).unwrap();
        assert_eq!(time, vec![5.0]);
    }

    #[test]
    fn shared_plans_are_built_once() {
        assert!(std::ptr::eq(
            FftPlan::shared(16).unwrap(),
            FftPlan::shared(16).unwrap()
        ));
        assert!(std::ptr::eq(
            RealFftPlan::shared(16).unwrap(),
            RealFftPlan::shared(16).unwrap()
        ));
        assert!(matches!(FftPlan::shared(0), Err(DspError::EmptyInput)));
        assert!(matches!(
            RealFftPlan::shared(12),
            Err(DspError::InvalidLength { .. })
        ));
    }

    #[test]
    fn forward_from_real_pads_and_truncates() {
        let plan = FftPlan::shared(4).unwrap();
        let mut spec = Vec::new();
        plan.forward_from_real(&[1.0, 2.0, 3.0, 4.0, 5.0], &mut spec);
        assert_eq!(spec.len(), 4);
        assert!((spec[0].re - 10.0).abs() < 1e-12); // 1+2+3+4
        plan.forward_from_real(&[1.0], &mut spec);
        assert!(spec.iter().all(|z| *z == Complex64::ONE));
    }

    #[test]
    fn scratch_pools_buffers() {
        let mut s = DspScratch::new();
        let mut buf = s.take_complex();
        buf.resize(64, Complex64::ZERO);
        let cap = buf.capacity();
        s.put_complex(buf);
        let again = s.take_complex();
        assert!(again.is_empty());
        assert_eq!(again.capacity(), cap);
    }
}
