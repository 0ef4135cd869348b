//! Planned FFTs and reusable scratch space.
//!
//! The detection pipeline transforms the *same handful of sizes* thousands
//! of times per recording (one Wiener deconvolution per chirp, one
//! envelope per averaged impulse response, …). This module factors the
//! per-size work out of the transforms:
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
//! Every transform has one implementation, generic over a lane count `L`
//! and a [`LaneFrame`] layout: a buffer of frames, frame `k` holding point
//! `k` of `L` independent signals of the same size. The single-signal
//! calls ([`FftPlan::forward`], [`RealFftPlan::forward_into`], …) are its
//! one-lane instance over a plain `[Complex64]` buffer; the `_lanes` calls
//! run `L` signals over [`SplitFrame`]s (all lanes' real parts, then all
//! their imaginary parts), the layout the compiler vectorizes across
//! lanes. Every lane performs exactly the one-lane operation sequence on
//! its own values, so a lane's output is bit-identical to transforming it
//! alone; several lanes per pass only overlap their independent arithmetic
//! and share the twiddle loads and loop overhead. The pipeline runs lanes
//! only in the per-chirp Wiener deconvolution
//! ([`RealFftPlan::forward_lanes`] / [`RealFftPlan::inverse_lanes`]), which
//! pass the half spectrum between them: bins `0..=n/2`, all a real inverse
//! reads, so the conjugate upper half is never formed; the
//! per-chirp echo spectra and MFCCs read their few band bins with
//! [`crate::goertzel`] instead of transforming.
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
    pub fn execute_in_place(&self, data: &mut [Complex64], inverse: bool) -> Result<(), DspError> {
        self.check_frames(data.len())?;
        self.run::<1, _>(data.as_chunks_mut::<1>().0, inverse);
        Ok(())
    }

    fn check_frames(&self, len: usize) -> Result<(), DspError> {
        if len != self.n {
            return Err(DspError::InvalidLength {
                expected: "exactly the planned size",
                actual: len,
            });
        }
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
    pub fn forward_from_real(&self, x: &[f64], out: &mut Vec<Complex64>) {
        out.clear();
        out.resize(self.n, Complex64::ZERO);
        for (z, &v) in out.iter_mut().zip(x) {
            *z = Complex64::from_real(v);
        }
        self.run::<1, _>(out.as_chunks_mut::<1>().0, false);
    }

    /// The radix-2 transform of `L` lanes in place. The butterfly sequence
    /// is the one-lane sequence with an inner loop over lanes, so every
    /// lane sees exactly the operations it would see alone.
    fn run<const L: usize, F: LaneFrame<L>>(&self, frames: &mut [F], inverse: bool) {
        const { assert!(L > 0) };
        let n = self.n;
        debug_assert_eq!(frames.len(), n);
        for (i, &r) in self.rev.iter().enumerate() {
            let j = r as usize;
            if i < j {
                frames.swap(i, j);
            }
        }
        let mut len = 2usize;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            for chunk in frames.chunks_exact_mut(len) {
                let (lo, hi) = chunk.split_at_mut(half);
                for (i, (a, b)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
                    let mut w = self.tw[i * stride];
                    if inverse {
                        w = w.conj();
                    }
                    for l in 0..L {
                        let u = a.lane(l);
                        let v = b.lane(l) * w;
                        a.set_lane(l, u + v);
                        b.set_lane(l, u - v);
                    }
                }
            }
            len <<= 1;
        }
        if inverse {
            let s = 1.0 / n as f64;
            for frame in frames.iter_mut() {
                for l in 0..L {
                    frame.set_lane(l, frame.lane(l).scale(s));
                }
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
    pub fn forward_into(
        &self,
        input: &[f64],
        work: &mut Vec<Complex64>,
        out: &mut Vec<Complex64>,
    ) -> Result<(), DspError> {
        self.check_inputs(&[input])?;
        work.clear();
        work.resize(self.n / 2, Complex64::ZERO);
        out.clear();
        out.resize(self.n, Complex64::ZERO);
        self.forward_frames(
            [input],
            work.as_chunks_mut::<1>().0,
            out.as_chunks_mut::<1>().0,
        );
        // The upper half mirrors the lower: X[n - k] = conj(X[k]).
        let (lower, upper) = out.split_at_mut(self.n / 2 + 1);
        for (hi, lo) in upper.iter_mut().rev().zip(&lower[1..]) {
            *hi = lo.conj();
        }
        Ok(())
    }

    /// [`RealFftPlan::forward_into`] of `L` signals at once, but only
    /// bins `0..=n/2` of each, the half spectrum that
    /// [`RealFftPlan::inverse_lanes`] reads: `out` holds those `n/2 + 1`
    /// bins of every lane in split frames ([`split_frames`]), `work` the
    /// intermediate ones. Inputs may differ in length; each is zero-padded
    /// on its own, and each lane's bins are bit-identical to the same bins
    /// of its one-lane transform.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidLength`] if any input is longer than the
    /// planned size.
    pub fn forward_lanes<const L: usize>(
        &self,
        inputs: [&[f64]; L],
        work: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) -> Result<(), DspError> {
        self.check_inputs(&inputs)?;
        work.clear();
        work.resize(2 * L * (self.n / 2), 0.0);
        out.clear();
        out.resize(2 * L * (self.n / 2 + 1), 0.0);
        self.forward_frames(
            inputs,
            split_frames_mut::<L>(work),
            split_frames_mut::<L>(out),
        );
        Ok(())
    }

    fn check_inputs(&self, inputs: &[&[f64]]) -> Result<(), DspError> {
        match inputs.iter().find(|x| x.len() > self.n) {
            Some(input) => Err(DspError::InvalidLength {
                expected: "at most the planned transform size",
                actual: input.len(),
            }),
            None => Ok(()),
        }
    }

    /// The forward transform into zeroed frames: `n/2` of `work`, and
    /// bins `0..=n/2` into the first `n/2 + 1` of `out`.
    fn forward_frames<const L: usize, F: LaneFrame<L>>(
        &self,
        inputs: [&[f64]; L],
        work: &mut [F],
        out: &mut [F],
    ) {
        if self.n == 1 {
            for (l, input) in inputs.iter().enumerate() {
                out[0].set_lane(
                    l,
                    Complex64::from_real(input.first().copied().unwrap_or(0.0)),
                );
            }
            return;
        }
        let m = self.n / 2;
        // Even samples into the real parts, odd ones into the imaginary
        // parts; frames past an input's end stay zero.
        for (l, input) in inputs.iter().enumerate() {
            for (frame, pair) in work.iter_mut().zip(input.chunks(2)) {
                let im = pair.get(1).copied().unwrap_or(0.0);
                frame.set_lane(l, Complex64::new(pair[0], im));
            }
        }
        self.half.run::<L, F>(work, false);
        // DC and Nyquist come straight from the packed bin 0.
        for l in 0..L {
            let z0 = work[0].lane(l);
            out[0].set_lane(l, Complex64::from_real(z0.re + z0.im));
            out[m].set_lane(l, Complex64::from_real(z0.re - z0.im));
        }
        for k in 1..m {
            let tw = self.tw[k];
            for l in 0..L {
                let a = work[k].lane(l);
                let b = work[m - k].lane(l).conj();
                // F1 = spectrum of even samples, F2 = spectrum of odd samples.
                let f1 = (a + b).scale(0.5);
                let d = a - b;
                let f2 = Complex64::new(d.im * 0.5, -d.re * 0.5); // -i * d / 2
                out[k].set_lane(l, f1 + tw * f2);
            }
        }
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
    pub fn inverse_into(
        &self,
        spectrum: &[Complex64],
        work: &mut Vec<Complex64>,
        out: &mut Vec<f64>,
    ) -> Result<(), DspError> {
        self.check_spectrum(spectrum.len())?;
        work.clear();
        work.resize(self.n / 2, Complex64::ZERO);
        self.inverse_frames(
            spectrum.as_chunks::<1>().0,
            work.as_chunks_mut::<1>().0,
            out,
        );
        Ok(())
    }

    /// [`RealFftPlan::inverse_into`] of `L` half spectra in split frames
    /// ([`split_frames`]), bins `0..=n/2` of each lane as
    /// [`RealFftPlan::forward_lanes`] writes them: `out` receives their
    /// samples lane-interleaved (`out[t * L + l]` is sample `t` of lane
    /// `l`). Each lane is bit-identical to its one-lane inverse.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidLength`] unless `spectrum` holds exactly
    /// `n/2 + 1` split frames.
    pub fn inverse_lanes<const L: usize>(
        &self,
        spectrum: &[f64],
        work: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) -> Result<(), DspError> {
        if spectrum.len() != 2 * L * (self.n / 2 + 1) {
            return Err(DspError::InvalidLength {
                expected: "bins 0..=n/2 of the planned size per lane",
                actual: spectrum.len(),
            });
        }
        work.clear();
        work.resize(2 * L * (self.n / 2), 0.0);
        self.inverse_frames(
            split_frames::<L>(spectrum),
            split_frames_mut::<L>(work),
            out,
        );
        Ok(())
    }

    fn check_spectrum(&self, len: usize) -> Result<(), DspError> {
        if len != self.n {
            return Err(DspError::InvalidLength {
                expected: "a spectrum of exactly the planned size",
                actual: len,
            });
        }
        Ok(())
    }

    /// The inverse transform of frames `0..=n/2` of `bins` through `n/2`
    /// frames of `work`, samples lane-interleaved into `out`.
    fn inverse_frames<const L: usize, F: LaneFrame<L>>(
        &self,
        bins: &[F],
        work: &mut [F],
        out: &mut Vec<f64>,
    ) {
        out.clear();
        if self.n == 1 {
            out.extend((0..L).map(|l| bins[0].lane(l).re));
            return;
        }
        let m = self.n / 2;
        for (k, frame) in work.iter_mut().enumerate() {
            let tw = self.tw[k].conj();
            for l in 0..L {
                let a = bins[k].lane(l);
                let b = bins[m - k].lane(l).conj();
                let f1 = (a + b).scale(0.5);
                let t = (a - b).scale(0.5);
                let f2 = tw * t;
                // Z[k] = F1[k] + i * F2[k]: the packed even/odd transform.
                frame.set_lane(l, Complex64::new(f1.re - f2.im, f1.im + f2.re));
            }
        }
        self.half.run::<L, F>(work, true);
        // Packed point `k` holds samples `2k` (real part) and `2k + 1`
        // (imaginary part): exactly a split frame of the output.
        out.resize(self.n * L, 0.0);
        for (frame, samples) in work.iter().zip(split_frames_mut::<L>(out)) {
            for l in 0..L {
                samples.set_lane(l, frame.lane(l));
            }
        }
    }
}

/// One point of `L` transforms run together: how a frame stores its
/// lanes' complex values. The transforms are written once against this
/// trait; see the module docs.
pub trait LaneFrame<const L: usize>: Copy {
    /// Lane `l`'s value.
    fn lane(&self, l: usize) -> Complex64;
    /// Overwrites lane `l`'s value.
    fn set_lane(&mut self, l: usize, z: Complex64);
}

/// Interleaved frames: the layout of a plain `[Complex64]` buffer, one
/// lane per frame.
impl<const L: usize> LaneFrame<L> for [Complex64; L] {
    #[inline(always)]
    fn lane(&self, l: usize) -> Complex64 {
        self[l]
    }

    #[inline(always)]
    fn set_lane(&mut self, l: usize, z: Complex64) {
        self[l] = z;
    }
}

/// A split frame: the real parts of all `L` lanes, then their imaginary
/// parts. Lane-wise arithmetic on it is plain arithmetic on contiguous
/// `f64` arrays, which the compiler vectorizes.
pub type SplitFrame<const L: usize> = [[f64; L]; 2];

impl<const L: usize> LaneFrame<L> for SplitFrame<L> {
    #[inline(always)]
    fn lane(&self, l: usize) -> Complex64 {
        Complex64::new(self[0][l], self[1][l])
    }

    #[inline(always)]
    fn set_lane(&mut self, l: usize, z: Complex64) {
        self[0][l] = z.re;
        self[1][l] = z.im;
    }
}

/// A real buffer viewed as split frames of `L` lanes (`2 * L` values per
/// frame; a trailing partial frame is left out).
pub fn split_frames<const L: usize>(buf: &[f64]) -> &[SplitFrame<L>] {
    buf.as_chunks::<L>().0.as_chunks::<2>().0
}

/// [`split_frames`] for writing.
pub fn split_frames_mut<const L: usize>(buf: &mut [f64]) -> &mut [SplitFrame<L>] {
    buf.as_chunks_mut::<L>().0.as_chunks_mut::<2>().0
}

/// A reusable DSP workspace: pools of intermediate buffers.
///
/// The planned kernels (`autoconvolve_with`, `envelope_with`,
/// `ChannelEstimator::estimate_with`, …) take their plans from the shared
/// table ([`FftPlan::shared`]) and borrow every intermediate buffer from
/// one of these, so a warm scratch makes them allocation-free. Create one per worker thread and keep it across
/// calls; creation itself is cheap (empty pools).
#[derive(Debug, Default)]
pub struct DspScratch {
    complex_pool: Vec<Vec<Complex64>>,
    real_pool: Vec<Vec<f64>>,
    frame_pool: Vec<Vec<f64>>,
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

    /// Borrows a buffer for lane frames — a multi-lane kernel's
    /// transform or filter work area, several signals wide — from a pool
    /// of its own (empty, capacity retained). Return it with
    /// [`DspScratch::put_frames`].
    ///
    /// Buffers drift to the largest size any taker needs. Keeping these
    /// few wide work areas apart from the many per-signal buffers of
    /// [`DspScratch::take_real`] keeps the latter at per-signal size.
    pub fn take_frames(&mut self) -> Vec<f64> {
        self.frame_pool.pop().unwrap_or_default()
    }

    /// Returns a lane-frame buffer to its pool, keeping its capacity.
    pub fn put_frames(&mut self, mut buf: Vec<f64>) {
        buf.clear();
        self.frame_pool.push(buf);
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
