//! Four-lane vectorized reduction kernels.
//!
//! The per-sample inner loops of the pipeline — window multiplies,
//! correlation sums, the MFCC's DCT — spend their time in dependent
//! floating-point adds: a single accumulator serializes on the FPU's add
//! latency. Splitting the reduction across four independent accumulators
//! (the classic `f64x4` layout, written in stable Rust with
//! `chunks_exact(4)` so the compiler autovectorizes it — no `unsafe`, no
//! nightly `std::simd`) breaks that chain and keeps the SIMD units busy.
//!
//! Every vectorized kernel here has a `*_scalar` twin implementing the
//! plain sequential reduction. The twins are the pinned references of the
//! equivalence suite (`tests/kernel_equivalence.rs`):
//!
//! * **Elementwise kernels** ([`mul_in_place`]) reorder nothing and are
//!   **bit-identical** to their scalar twin.
//! * **Reduction kernels** ([`sum`], [`sum_sq`], [`dot`],
//!   [`centered_moments`]) reassociate the sum into four partial sums
//!   folded as `(acc0 + acc1) + (acc2 + acc3) + tail`. Floating-point
//!   addition is not associative, so results differ from the scalar twin
//!   at the ulp level — the equivalence suite bounds the difference by
//!   `1e-12 × Σ|terms|`, the documented contract.
//!
//! Kernels whose four-lane form did not beat its scalar twin at the
//! pipeline's sizes are not here: the quality gate's window scan and the
//! mel projection run one strict-order loop each.
//!
//! The deterministic promise is per-build, not per-reduction-order: the
//! same input always produces the same output, and batch/streaming paths
//! share these kernels so they stay bit-identical to each other.

/// Σ `x[i]` with four partial accumulators.
///
/// Reassociated (ulp-equal to [`sum_scalar`], see the module docs).
// lint: hot-path
#[inline]
pub fn sum(x: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let chunks = x.chunks_exact(4);
    let rem = chunks.remainder();
    for c in chunks {
        acc[0] += c[0];
        acc[1] += c[1];
        acc[2] += c[2];
        acc[3] += c[3];
    }
    let mut tail = 0.0;
    for &v in rem {
        tail += v;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// The scalar reference for [`sum`]: one accumulator, strictly in order.
pub fn sum_scalar(x: &[f64]) -> f64 {
    let mut acc = 0.0;
    for &v in x {
        acc += v;
    }
    acc
}

/// Σ `x[i]²` with four partial accumulators (ulp-equal to
/// [`sum_sq_scalar`]).
// lint: hot-path
#[inline]
pub fn sum_sq(x: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let chunks = x.chunks_exact(4);
    let rem = chunks.remainder();
    for c in chunks {
        acc[0] += c[0] * c[0];
        acc[1] += c[1] * c[1];
        acc[2] += c[2] * c[2];
        acc[3] += c[3] * c[3];
    }
    let mut tail = 0.0;
    for &v in rem {
        tail += v * v;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// The scalar reference for [`sum_sq`].
pub fn sum_sq_scalar(x: &[f64]) -> f64 {
    let mut acc = 0.0;
    for &v in x {
        acc += v * v;
    }
    acc
}

/// Σ `a[i] b[i]` over the common prefix, four partial accumulators
/// (ulp-equal to [`dot_scalar`]).
// lint: hot-path
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let split = n - n % 4;
    let mut acc = [0.0f64; 4];
    for (x, y) in a[..split].chunks_exact(4).zip(b[..split].chunks_exact(4)) {
        acc[0] += x[0] * y[0];
        acc[1] += x[1] * y[1];
        acc[2] += x[2] * y[2];
        acc[3] += x[3] * y[3];
    }
    let mut tail = 0.0;
    for (&x, &y) in a[split..n].iter().zip(&b[split..n]) {
        tail += x * y;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// The scalar reference for [`dot`].
pub fn dot_scalar(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// Elementwise `a[i] *= b[i]` over the common prefix.
///
/// **Bit-identical** to [`mul_in_place_scalar`]: multiplication order per
/// element is unchanged, nothing is reassociated.
// lint: hot-path
#[inline]
pub fn mul_in_place(a: &mut [f64], b: &[f64]) {
    let n = a.len().min(b.len());
    let split = n - n % 4;
    for (x, y) in a[..split]
        .chunks_exact_mut(4)
        .zip(b[..split].chunks_exact(4))
    {
        x[0] *= y[0];
        x[1] *= y[1];
        x[2] *= y[2];
        x[3] *= y[3];
    }
    for (x, &y) in a[split..n].iter_mut().zip(&b[split..n]) {
        *x *= y;
    }
}

/// The scalar reference for [`mul_in_place`].
pub fn mul_in_place_scalar(a: &mut [f64], b: &[f64]) {
    for (x, &y) in a.iter_mut().zip(b) {
        *x *= y;
    }
}

/// Fused centered second moments of two equal-role sequences over their
/// common prefix: `(Σ da·db, Σ da², Σ db²)` with `da = a[i] - mean_a`,
/// `db = b[i] - mean_b` — the covariance/variance triple behind Pearson
/// correlation, in one pass with three four-lane accumulator groups
/// (ulp-equal to [`centered_moments_scalar`]).
// lint: hot-path
#[inline]
pub fn centered_moments(a: &[f64], mean_a: f64, b: &[f64], mean_b: f64) -> (f64, f64, f64) {
    let n = a.len().min(b.len());
    let split = n - n % 4;
    let mut cov = [0.0f64; 4];
    let mut va = [0.0f64; 4];
    let mut vb = [0.0f64; 4];
    for (x, y) in a[..split].chunks_exact(4).zip(b[..split].chunks_exact(4)) {
        let da = [x[0] - mean_a, x[1] - mean_a, x[2] - mean_a, x[3] - mean_a];
        let db = [y[0] - mean_b, y[1] - mean_b, y[2] - mean_b, y[3] - mean_b];
        cov[0] += da[0] * db[0];
        cov[1] += da[1] * db[1];
        cov[2] += da[2] * db[2];
        cov[3] += da[3] * db[3];
        va[0] += da[0] * da[0];
        va[1] += da[1] * da[1];
        va[2] += da[2] * da[2];
        va[3] += da[3] * da[3];
        vb[0] += db[0] * db[0];
        vb[1] += db[1] * db[1];
        vb[2] += db[2] * db[2];
        vb[3] += db[3] * db[3];
    }
    let (mut tc, mut ta, mut tb) = (0.0f64, 0.0f64, 0.0f64);
    for (&x, &y) in a[split..n].iter().zip(&b[split..n]) {
        let da = x - mean_a;
        let db = y - mean_b;
        tc += da * db;
        ta += da * da;
        tb += db * db;
    }
    (
        (cov[0] + cov[1]) + (cov[2] + cov[3]) + tc,
        (va[0] + va[1]) + (va[2] + va[3]) + ta,
        (vb[0] + vb[1]) + (vb[2] + vb[3]) + tb,
    )
}

/// The scalar reference for [`centered_moments`].
pub fn centered_moments_scalar(a: &[f64], mean_a: f64, b: &[f64], mean_b: f64) -> (f64, f64, f64) {
    let (mut cov, mut va, mut vb) = (0.0f64, 0.0f64, 0.0f64);
    for (&x, &y) in a.iter().zip(b) {
        let da = x - mean_a;
        let db = y - mean_b;
        cov += da * db;
        va += da * da;
        vb += db * db;
    }
    (cov, va, vb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    fn noise(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = DetRng::seed_from_u64(seed);
        (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect()
    }

    /// |vectorized − scalar| must stay within the documented
    /// `1e-12 × Σ|terms|` reassociation bound.
    fn close(v: f64, s: f64, scale: f64) -> bool {
        (v - s).abs() <= 1e-12 * scale + 1e-300
    }

    #[test]
    fn sums_match_scalar_across_remainder_lengths() {
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 63, 64, 65, 240, 241] {
            let x = noise(n, 11 + n as u64);
            let scale: f64 = x.iter().map(|v| v.abs()).sum();
            assert!(close(sum(&x), sum_scalar(&x), scale), "sum n={n}");
            assert!(close(sum_sq(&x), sum_sq_scalar(&x), scale), "sum_sq n={n}");
        }
    }

    #[test]
    fn dot_handles_unequal_lengths_via_common_prefix() {
        let a = noise(101, 3);
        let b = noise(97, 4);
        let scale: f64 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
        assert!(close(dot(&a, &b), dot_scalar(&a, &b), scale));
        assert_eq!(dot(&a, &[]), 0.0);
    }

    #[test]
    fn mul_in_place_is_bit_identical() {
        for n in [1usize, 3, 4, 6, 128, 130] {
            let b = noise(n, 20 + n as u64);
            let mut v = noise(n, 40 + n as u64);
            let mut s = v.clone();
            mul_in_place(&mut v, &b);
            mul_in_place_scalar(&mut s, &b);
            assert_eq!(v, s, "n={n}");
        }
    }

    #[test]
    fn centered_moments_match_scalar() {
        let a = noise(239, 7);
        let b = noise(239, 8);
        let ma = sum_scalar(&a) / a.len() as f64;
        let mb = sum_scalar(&b) / b.len() as f64;
        let (cv, va, vb) = centered_moments(&a, ma, &b, mb);
        let (cs, vas, vbs) = centered_moments_scalar(&a, ma, &b, mb);
        let scale = vas + vbs;
        assert!(close(cv, cs, scale));
        assert!(close(va, vas, scale));
        assert!(close(vb, vbs, scale));
    }

    #[test]
    fn denormal_inputs_stay_finite_and_close() {
        let tiny = f64::MIN_POSITIVE / 4.0; // subnormal
        let x = vec![tiny; 37];
        assert!(sum(&x).is_finite());
        assert_eq!(sum(&x), sum_scalar(&x));
        assert!(sum_sq(&x) >= 0.0);
    }
}
