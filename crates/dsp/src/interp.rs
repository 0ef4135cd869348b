//! Interpolation and resampling.
//!
//! The absorption analysis interpolates echo spectra onto a common grid
//! before FFT post-processing (paper §IV-C-1, "we perform FFT processing on
//! the interpolated signal").

/// Linear interpolation of samples `(xs, ys)` at query points `qs`.
///
/// `xs` must be sorted ascending. Queries outside the range are clamped to
/// the boundary values. Empty inputs yield zeros.
///
/// # Example
///
/// ```
/// use earsonar_dsp::interp::interp_linear;
/// let y = interp_linear(&[0.0, 1.0, 2.0], &[0.0, 10.0, 20.0], &[0.5, 1.5]);
/// assert_eq!(y, vec![5.0, 15.0]);
/// ```
pub fn interp_linear(xs: &[f64], ys: &[f64], qs: &[f64]) -> Vec<f64> {
    let n = xs.len().min(ys.len());
    if n == 0 {
        return vec![0.0; qs.len()];
    }
    if n == 1 {
        return vec![ys[0]; qs.len()];
    }
    qs.iter()
        .map(|&q| {
            if q <= xs[0] {
                return ys[0];
            }
            if q >= xs[n - 1] {
                return ys[n - 1];
            }
            // Binary search for the bracketing interval.
            let idx = match xs[..n].binary_search_by(|v| v.total_cmp(&q)) {
                Ok(i) => return ys[i],
                Err(i) => i,
            };
            let (x0, x1) = (xs[idx - 1], xs[idx]);
            let (y0, y1) = (ys[idx - 1], ys[idx]);
            let t = if x1 > x0 { (q - x0) / (x1 - x0) } else { 0.0 };
            y0 + t * (y1 - y0)
        })
        .collect()
}

/// Resamples `ys` (assumed uniformly spaced) to `n_out` uniformly spaced
/// points over the same span, using linear interpolation.
///
/// Bit-identical to [`interp_linear`] over the knots `0, 1, …, n − 1`,
/// whose unit spacing makes `(q − x0) / (x1 − x0)` exactly `q − x0`, but
/// allocates only the output: each query's knot is `q.floor()`.
pub fn resample_uniform(ys: &[f64], n_out: usize) -> Vec<f64> {
    let n = ys.len();
    if n == 0 || n_out == 0 {
        return Vec::new();
    }
    (0..n_out)
        .map(|i| {
            let q = (n - 1) as f64 * i as f64 / (n_out - 1).max(1) as f64;
            let x0 = q.floor();
            let i0 = x0 as usize;
            if x0 == q {
                ys[i0]
            } else {
                ys[i0] + (q - x0) * (ys[i0 + 1] - ys[i0])
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_hits_knots_exactly() {
        let xs = [0.0, 1.0, 3.0, 4.0];
        let ys = [1.0, -1.0, 5.0, 0.0];
        let out = interp_linear(&xs, &ys, &xs);
        assert_eq!(out, ys.to_vec());
    }

    #[test]
    fn linear_midpoints() {
        let y = interp_linear(&[0.0, 2.0], &[0.0, 4.0], &[1.0]);
        assert_eq!(y, vec![2.0]);
    }

    #[test]
    fn linear_clamps_out_of_range() {
        let y = interp_linear(&[1.0, 2.0], &[10.0, 20.0], &[0.0, 3.0]);
        assert_eq!(y, vec![10.0, 20.0]);
    }

    #[test]
    fn linear_empty_and_singleton() {
        assert_eq!(interp_linear(&[], &[], &[1.0, 2.0]), vec![0.0, 0.0]);
        assert_eq!(interp_linear(&[5.0], &[7.0], &[0.0, 9.0]), vec![7.0, 7.0]);
    }

    #[test]
    fn resample_uniform_preserves_endpoints() {
        let ys = [1.0, 2.0, 3.0, 4.0, 5.0];
        let out = resample_uniform(&ys, 9);
        assert_eq!(out.len(), 9);
        assert_eq!(out[0], 1.0);
        assert_eq!(out[8], 5.0);
        assert_eq!(out[4], 3.0);
    }

    #[test]
    fn resample_uniform_is_interp_linear_on_integer_knots_bit_for_bit() {
        let mut ys: Vec<f64> = (0..37).map(|i| (f64::from(i) * 0.7).sin() * 1e3).collect();
        (ys[5], ys[6], ys[20]) = (f64::INFINITY, f64::NEG_INFINITY, f64::NAN);
        let xs: Vec<f64> = (0..37).map(f64::from).collect();
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        for n_out in [1, 2, 3, 36, 37, 38, 64, 101, 256] {
            let qs: Vec<f64> = (0..n_out)
                .map(|i| 36.0 * i as f64 / (n_out - 1).max(1) as f64)
                .collect();
            let reference = bits(interp_linear(&xs, &ys, &qs));
            assert_eq!(bits(resample_uniform(&ys, n_out)), reference, "{n_out}");
        }
    }

    #[test]
    fn resample_degenerate_cases() {
        assert!(resample_uniform(&[], 5).is_empty());
        assert!(resample_uniform(&[1.0, 2.0], 0).is_empty());
        assert_eq!(resample_uniform(&[3.0], 3), vec![3.0, 3.0, 3.0]);
    }
}
