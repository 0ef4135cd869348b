//! Second-order IIR filter sections (biquads) and cascades.
//!
//! Higher-order filters are realized as cascades of second-order sections,
//! which is numerically far better conditioned than a single direct-form
//! polynomial — the standard practice for Butterworth filters of order ≥ 4.

use crate::complex::Complex64;

/// A single second-order IIR section in transposed direct form II.
///
/// Transfer function (with `a0` normalized to 1):
///
/// ```text
///          b0 + b1 z^-1 + b2 z^-2
/// H(z) = --------------------------
///           1 + a1 z^-1 + a2 z^-2
/// ```
///
/// # Example
///
/// ```
/// use earsonar_dsp::filter::Biquad;
/// // An identity section passes the signal through untouched.
/// let mut id = Biquad::identity();
/// assert_eq!(id.process_sample(0.7), 0.7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Biquad {
    /// Feed-forward coefficients.
    pub b0: f64,
    /// Feed-forward coefficient at lag 1.
    pub b1: f64,
    /// Feed-forward coefficient at lag 2.
    pub b2: f64,
    /// Feedback coefficient at lag 1 (`a0` is normalized to 1).
    pub a1: f64,
    /// Feedback coefficient at lag 2.
    pub a2: f64,
    s1: f64,
    s2: f64,
}

impl Biquad {
    /// Creates a section from coefficients (with `a0` already normalized
    /// to 1) and zeroed internal state.
    pub fn new(b0: f64, b1: f64, b2: f64, a1: f64, a2: f64) -> Self {
        Biquad {
            b0,
            b1,
            b2,
            a1,
            a2,
            s1: 0.0,
            s2: 0.0,
        }
    }

    /// The pass-through section `H(z) = 1`.
    pub fn identity() -> Self {
        Biquad::new(1.0, 0.0, 0.0, 0.0, 0.0)
    }

    /// Resets the internal delay-line state to zero.
    pub fn reset(&mut self) {
        self.s1 = 0.0;
        self.s2 = 0.0;
    }

    /// Filters one sample (transposed direct form II).
    #[inline]
    pub fn process_sample(&mut self, x: f64) -> f64 {
        let y = self.b0 * x + self.s1;
        self.s1 = self.b1 * x - self.a1 * y + self.s2;
        self.s2 = self.b2 * x - self.a2 * y;
        y
    }

    /// Filters a whole buffer, returning a new vector. State carries over
    /// from any previous calls; call [`Biquad::reset`] for a fresh start.
    pub fn process(&mut self, signal: &[f64]) -> Vec<f64> {
        signal.iter().map(|&x| self.process_sample(x)).collect()
    }

    /// Evaluates the complex frequency response at normalized angular
    /// frequency `omega` (radians/sample, `pi` = Nyquist).
    pub fn response(&self, omega: f64) -> Complex64 {
        let z1 = Complex64::cis(-omega);
        let z2 = Complex64::cis(-2.0 * omega);
        let num = Complex64::from_real(self.b0) + z1 * self.b1 + z2 * self.b2;
        let den = Complex64::ONE + z1 * self.a1 + z2 * self.a2;
        num / den
    }

    /// Returns `true` if both poles are strictly inside the unit circle.
    pub fn is_stable(&self) -> bool {
        // Jury criterion for a monic quadratic z^2 + a1 z + a2.
        self.a2.abs() < 1.0 && self.a1.abs() < 1.0 + self.a2
    }
}

/// A cascade of biquad sections applied in series.
///
/// # Example
///
/// ```
/// use earsonar_dsp::filter::{Biquad, BiquadCascade};
/// let mut cascade = BiquadCascade::new(vec![Biquad::identity(); 3]);
/// let y = cascade.process(&[1.0, 2.0, 3.0]);
/// assert_eq!(y, vec![1.0, 2.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BiquadCascade {
    sections: Vec<Biquad>,
}

impl BiquadCascade {
    /// Creates a cascade from sections applied first-to-last.
    pub fn new(sections: Vec<Biquad>) -> Self {
        BiquadCascade { sections }
    }

    /// The number of second-order sections.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// Returns `true` if the cascade has no sections (identity filter).
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// Read-only access to the sections.
    pub fn sections(&self) -> &[Biquad] {
        &self.sections
    }

    /// Resets the state of every section.
    pub fn reset(&mut self) {
        for s in &mut self.sections {
            s.reset();
        }
    }

    /// Filters one sample through all sections.
    #[inline]
    pub fn process_sample(&mut self, x: f64) -> f64 {
        self.sections
            .iter_mut()
            .fold(x, |acc, s| s.process_sample(acc))
    }

    /// Filters a buffer, returning a new vector. State carries over between
    /// calls; use [`BiquadCascade::reset`] for independent signals.
    pub fn process(&mut self, signal: &[f64]) -> Vec<f64> {
        signal.iter().map(|&x| self.process_sample(x)).collect()
    }

    /// Filters `L` independent signals at once, in place from zeroed
    /// state: `frames[t][l]` is sample `t` of signal `l`, and a single
    /// signal is the one-lane view `buf.as_chunks_mut::<1>().0`.
    ///
    /// The pass is **sample-major** with every section's recurrence state
    /// in a stack-local array: each sample flows through all sections
    /// before the next sample starts, so the sections' serial dependency
    /// chains overlap in the out-of-order core (section-major sweeps
    /// serialize on one section's chain per pass and measure ~2x slower).
    /// Sample-major and section-major orders perform exactly the same
    /// floating-point operations on exactly the same values per section
    /// (section `k` consumes section `k-1`'s full output sequence either
    /// way), so each lane is **bit-identical** to a reset
    /// [`BiquadCascade::process`] of that signal alone — pinned by
    /// `cascade_in_place_is_bit_identical` below and the
    /// kernel-equivalence suite. Unlike `process`, it needs no `&mut self`
    /// and therefore no per-call cascade clone. The lanes' recurrences are
    /// independent, so the core overlaps them (one cascade pass is a
    /// latency-bound chain per lane).
    ///
    /// A cascade deeper than 8 sections runs in groups of 8, one after
    /// another; each section still consumes its predecessor's full
    /// output sequence, so grouping moves no bit.
    ///
    /// The lanes share a length. A caller with shorter signals can place
    /// each at the start of its lane and pad after it: the filter is
    /// causal, so whatever follows a signal never reaches its samples.
    #[inline]
    pub fn run_lanes<const L: usize>(&self, frames: &mut [[f64; L]]) {
        const { assert!(L > 0) };
        for group in self.sections.chunks(GROUP) {
            run_group(group, frames);
        }
    }

    /// Evaluates the cascade frequency response at normalized angular
    /// frequency `omega` (radians/sample).
    pub fn response(&self, omega: f64) -> Complex64 {
        self.sections
            .iter()
            .fold(Complex64::ONE, |acc, s| acc * s.response(omega))
    }

    /// Magnitude response at a physical frequency `f_hz` for sample rate `fs`.
    pub fn magnitude_at(&self, f_hz: f64, fs: f64) -> f64 {
        self.response(2.0 * std::f64::consts::PI * f_hz / fs).norm()
    }

    /// Returns `true` if every section is stable.
    pub fn is_stable(&self) -> bool {
        self.sections.iter().all(Biquad::is_stable)
    }
}

/// One sample-major pass of at most [`GROUP`] sections.
#[inline(always)]
fn run_group<const L: usize>(group: &[Biquad], frames: &mut [[f64; L]]) {
    // Bounding the slice here (not only through `chunks`) lets the
    // compiler size the section loop to the state array.
    let group = &group[..group.len().min(GROUP)];
    let mut state = [[[0.0f64; L]; 2]; GROUP];
    for frame in frames.iter_mut() {
        let mut acc = *frame;
        for (s, [s1, s2]) in group.iter().zip(state.iter_mut()) {
            for l in 0..L {
                let x = acc[l];
                let y = s.b0 * x + s1[l];
                s1[l] = s.b1 * x - s.a1 * y + s2[l];
                s2[l] = s.b2 * x - s.a2 * y;
                acc[l] = y;
            }
        }
        *frame = acc;
    }
}

/// Sections whose state [`run_group`] keeps on the stack per pass:
/// enough for a 16th-order filter; EarSonar's Butterworth designs use at
/// most `order` sections.
const GROUP: usize = 8;

impl FromIterator<Biquad> for BiquadCascade {
    fn from_iter<T: IntoIterator<Item = Biquad>>(iter: T) -> Self {
        BiquadCascade::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn identity_passes_through() {
        let mut b = Biquad::identity();
        let x: Vec<f64> = (0..10).map(|i| i as f64).collect();
        assert_eq!(b.process(&x), x);
    }

    #[test]
    fn pure_gain_scales() {
        let mut b = Biquad::new(2.5, 0.0, 0.0, 0.0, 0.0);
        assert_eq!(b.process(&[1.0, -2.0]), vec![2.5, -5.0]);
    }

    #[test]
    fn one_pole_lowpass_impulse_response_decays_geometrically() {
        // H(z) = 1 / (1 - 0.5 z^-1): impulse response 0.5^n.
        let mut b = Biquad::new(1.0, 0.0, 0.0, -0.5, 0.0);
        let mut impulse = vec![0.0; 8];
        impulse[0] = 1.0;
        let h = b.process(&impulse);
        for (n, &hn) in h.iter().enumerate() {
            assert!((hn - 0.5_f64.powi(n as i32)).abs() < 1e-12);
        }
    }

    #[test]
    fn response_at_dc_equals_coefficient_sum_ratio() {
        let b = Biquad::new(0.2, 0.3, 0.1, -0.4, 0.2);
        let dc = b.response(0.0);
        let expect = (0.2 + 0.3 + 0.1) / (1.0 - 0.4 + 0.2);
        assert!((dc.re - expect).abs() < 1e-12);
        assert!(dc.im.abs() < 1e-12);
    }

    #[test]
    fn stability_criterion() {
        assert!(Biquad::new(1.0, 0.0, 0.0, -1.6, 0.81).is_stable()); // poles 0.9 e^{±iθ}
        assert!(!Biquad::new(1.0, 0.0, 0.0, -2.1, 1.1).is_stable());
        assert!(!Biquad::new(1.0, 0.0, 0.0, 0.0, 1.0).is_stable()); // on the circle
    }

    #[test]
    fn reset_clears_state() {
        let mut b = Biquad::new(1.0, 0.0, 0.0, -0.9, 0.0);
        b.process(&[1.0; 32]);
        b.reset();
        let y = b.process(&[0.0; 4]);
        assert!(y.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn cascade_equals_sequential_sections() {
        let s1 = Biquad::new(0.5, 0.5, 0.0, -0.2, 0.0);
        let s2 = Biquad::new(1.0, -1.0, 0.0, 0.3, 0.0);
        let x: Vec<f64> = (0..64).map(|i| ((i * 3) % 7) as f64).collect();
        let mut c = BiquadCascade::new(vec![s1, s2]);
        let y_cascade = c.process(&x);
        let mut a = s1;
        let mut b = s2;
        let y_seq = b.process(&a.process(&x));
        for (u, v) in y_cascade.iter().zip(y_seq.iter()) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn cascade_response_is_product_of_sections() {
        let s1 = Biquad::new(0.5, 0.5, 0.0, -0.2, 0.0);
        let s2 = Biquad::new(1.0, -1.0, 0.0, 0.3, 0.0);
        let c = BiquadCascade::new(vec![s1, s2]);
        let w = PI / 3.0;
        let prod = s1.response(w) * s2.response(w);
        assert!((c.response(w) - prod).norm() < 1e-12);
    }

    #[test]
    fn one_section_run_matches_reset_process_bitwise() {
        let mut b = Biquad::new(0.3, 0.2, 0.1, -0.5, 0.25);
        let x: Vec<f64> = (0..257).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        b.reset();
        let expect = b.process(&x);
        let mut buf = x.clone();
        BiquadCascade::new(vec![b]).run_lanes(buf.as_chunks_mut::<1>().0);
        assert_eq!(buf, expect);
    }

    #[test]
    fn cascade_in_place_is_bit_identical() {
        let s1 = Biquad::new(0.5, 0.5, 0.0, -0.2, 0.0);
        let s2 = Biquad::new(1.0, -1.0, 0.3, 0.3, -0.1);
        let s3 = Biquad::new(0.9, 0.1, 0.0, -0.4, 0.2);
        let mut c = BiquadCascade::new(vec![s1, s2, s3]);
        // Odd length exercises any tail handling; values stress rounding.
        let x: Vec<f64> = (0..501).map(|i| ((i as f64) * 0.77).sin() * 1.3).collect();
        c.reset();
        let expect = c.process(&x);
        let mut buf = x.clone();
        c.run_lanes(buf.as_chunks_mut::<1>().0);
        assert_eq!(buf, expect);
    }

    #[test]
    fn deep_cascades_and_lanes_are_bit_identical() {
        // 11 sections: more than one stack-local group.
        let c: BiquadCascade = (0..11)
            .map(|k| Biquad::new(0.4 + 0.01 * k as f64, 0.1, -0.2, -0.3, 0.1))
            .collect();
        let a: Vec<f64> = (0..97).map(|i| ((i as f64) * 0.31).cos()).collect();
        let b: Vec<f64> = (0..97).map(|i| ((i as f64) * 1.7).sin() * 0.5).collect();
        let mut expect_a = a.clone();
        for &s in c.sections() {
            BiquadCascade::new(vec![s]).run_lanes(expect_a.as_chunks_mut::<1>().0);
        }
        let mut got = a.clone();
        c.run_lanes(got.as_chunks_mut::<1>().0);
        assert_eq!(got, expect_a);
        let mut expect_b = b.clone();
        c.run_lanes(expect_b.as_chunks_mut::<1>().0);
        let mut frames: Vec<[f64; 2]> = a.iter().zip(&b).map(|(&x, &y)| [x, y]).collect();
        c.run_lanes(&mut frames);
        assert!(frames.iter().zip(&expect_a).all(|(f, &e)| f[0] == e));
        assert!(frames.iter().zip(&expect_b).all(|(f, &e)| f[1] == e));
    }

    #[test]
    fn empty_cascade_is_identity() {
        let mut c = BiquadCascade::default();
        assert!(c.is_empty());
        assert_eq!(c.process(&[1.0, 2.0]), vec![1.0, 2.0]);
        assert!((c.response(1.0) - Complex64::ONE).norm() < 1e-15);
    }

    #[test]
    fn from_iterator_collects_sections() {
        let c: BiquadCascade = (0..4).map(|_| Biquad::identity()).collect();
        assert_eq!(c.len(), 4);
    }
}
