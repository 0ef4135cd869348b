//! Correlation measures.
//!
//! The Pearson coefficient quantifies the session-to-session consistency of
//! eardrum-echo spectra (paper Fig. 9).

use crate::error::DspError;

/// Pearson correlation coefficient between two equal-length sequences.
///
/// Returns a value in `[-1, 1]`. Sequences with zero variance correlate as
/// `0.0` with everything (a convention that avoids NaN propagation).
///
/// # Errors
///
/// Returns [`DspError::LengthMismatch`] if the lengths differ and
/// [`DspError::EmptyInput`] if the sequences are empty.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), earsonar_dsp::DspError> {
/// use earsonar_dsp::correlation::pearson;
/// let r = pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0])?;
/// assert!((r - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn pearson(a: &[f64], b: &[f64]) -> Result<f64, DspError> {
    if a.len() != b.len() {
        return Err(DspError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    if a.is_empty() {
        return Err(DspError::EmptyInput);
    }
    let n = a.len() as f64;
    let mean_a = crate::simd::sum(a) / n;
    let mean_b = crate::simd::sum(b) / n;
    let (cov, var_a, var_b) = crate::simd::centered_moments(a, mean_a, b, mean_b);
    if var_a == 0.0 || var_b == 0.0 {
        return Ok(0.0);
    }
    Ok((cov / (var_a.sqrt() * var_b.sqrt())).clamp(-1.0, 1.0))
}

/// The pinned scalar reference for [`pearson`]: single-accumulator sums in
/// strict order. [`pearson`] reassociates its reductions across four lanes
/// and may differ at the ulp level (see [`crate::simd`]); the
/// kernel-equivalence suite bounds the difference.
///
/// # Errors
///
/// Same conditions as [`pearson`].
pub fn pearson_scalar(a: &[f64], b: &[f64]) -> Result<f64, DspError> {
    if a.len() != b.len() {
        return Err(DspError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    if a.is_empty() {
        return Err(DspError::EmptyInput);
    }
    let n = a.len() as f64;
    let mean_a = crate::simd::sum_scalar(a) / n;
    let mean_b = crate::simd::sum_scalar(b) / n;
    let (cov, var_a, var_b) = crate::simd::centered_moments_scalar(a, mean_a, b, mean_b);
    if var_a == 0.0 || var_b == 0.0 {
        return Ok(0.0);
    }
    Ok((cov / (var_a.sqrt() * var_b.sqrt())).clamp(-1.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_positive_and_negative() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let pos: Vec<f64> = a.iter().map(|v| 3.0 * v + 1.0).collect();
        let neg: Vec<f64> = a.iter().map(|v| -2.0 * v + 7.0).collect();
        assert!((pearson(&a, &pos).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson(&a, &neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_of_constant_is_zero_by_convention() {
        assert_eq!(pearson(&[5.0; 4], &[1.0, 2.0, 3.0, 4.0]).unwrap(), 0.0);
    }

    #[test]
    fn pearson_error_cases() {
        assert!(matches!(
            pearson(&[1.0], &[1.0, 2.0]),
            Err(DspError::LengthMismatch { .. })
        ));
        assert!(matches!(pearson(&[], &[]), Err(DspError::EmptyInput)));
    }

    #[test]
    fn pearson_is_symmetric() {
        let a = [0.3, -1.2, 2.2, 0.9, -0.5];
        let b = [1.1, 0.4, -0.6, 2.0, 0.0];
        assert!((pearson(&a, &b).unwrap() - pearson(&b, &a).unwrap()).abs() < 1e-14);
    }
}
