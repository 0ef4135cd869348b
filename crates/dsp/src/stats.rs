//! Statistical descriptors of signals and spectra.
//!
//! EarSonar's feature vector includes "the mean and standard deviation, the
//! maximum and minimum value, the skewness, the kurtosis" of the echo power
//! spectrum (paper §IV-C-2). These primitives are used both there and in the
//! adaptive-energy event detector.

/// Arithmetic mean. Returns `0.0` for an empty slice.
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().sum::<f64>() / x.len() as f64
    }
}

/// Population variance (division by `n`). Returns `0.0` for fewer than one
/// element.
pub fn variance(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    variance_about(x, mean(x))
}

/// [`variance`] of non-empty `x` about its already computed mean `m`.
fn variance_about(x: &[f64], m: f64) -> f64 {
    x.iter().map(|&v| (v - m) * (v - m)).sum::<f64>() / x.len() as f64
}

/// Population standard deviation.
pub fn std_dev(x: &[f64]) -> f64 {
    variance(x).sqrt()
}

/// Minimum value. Returns `None` for an empty slice.
pub fn min(x: &[f64]) -> Option<f64> {
    x.iter().copied().min_by(f64::total_cmp)
}

/// Maximum value. Returns `None` for an empty slice.
pub fn max(x: &[f64]) -> Option<f64> {
    x.iter().copied().max_by(f64::total_cmp)
}

/// Sample skewness (third standardized moment, population convention).
/// Returns `0.0` for degenerate inputs (length < 2 or zero variance).
pub fn skewness(x: &[f64]) -> f64 {
    standardized_moment::<3>(x, mean(x), std_dev(x)).unwrap_or(0.0)
}

/// Excess kurtosis (fourth standardized moment minus 3, population
/// convention). A Gaussian scores `0.0`. Returns `0.0` for degenerate inputs.
pub fn kurtosis(x: &[f64]) -> f64 {
    standardized_moment::<4>(x, mean(x), std_dev(x)).map_or(0.0, |k| k - 3.0)
}

/// The `P`-th moment of `x` standardized by its mean `m` and standard
/// deviation `sd`, or `None` where it is degenerate (length < 2 or zero
/// deviation).
fn standardized_moment<const P: i32>(x: &[f64], m: f64, sd: f64) -> Option<f64> {
    if x.len() < 2 || sd == 0.0 {
        return None;
    }
    Some(x.iter().map(|&v| ((v - m) / sd).powi(P)).sum::<f64>() / x.len() as f64)
}

/// Root-mean-square value. Returns `0.0` for an empty slice.
pub fn rms(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        (x.iter().map(|&v| v * v).sum::<f64>() / x.len() as f64).sqrt()
    }
}

/// Total signal energy `Σ x[n]^2`.
pub fn energy(x: &[f64]) -> f64 {
    x.iter().map(|&v| v * v).sum()
}

/// Median (by sorting a copy). Returns `None` for an empty slice.
pub fn median(x: &[f64]) -> Option<f64> {
    percentile(x, 50.0)
}

/// Linear-interpolated percentile `p` in `[0, 100]`.
///
/// Returns `None` for an empty slice.
///
/// # Errors
///
/// This function clamps `p` into `[0, 100]` rather than erroring.
pub fn percentile(x: &[f64], p: f64) -> Option<f64> {
    if x.is_empty() {
        return None;
    }
    let mut sorted = x.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Index of the maximum value. Returns `None` for an empty slice.
pub fn argmax(x: &[f64]) -> Option<usize> {
    (0..x.len()).max_by(|&i, &j| x[i].total_cmp(&x[j]))
}

/// Index of the minimum value. Returns `None` for an empty slice.
pub fn argmin(x: &[f64]) -> Option<usize> {
    (0..x.len()).min_by(|&i, &j| x[i].total_cmp(&x[j]))
}

/// Standard summary of a sequence: the six statistics the paper lists as its
/// "statistic features" (§IV-C-2).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Maximum value.
    pub max: f64,
    /// Minimum value.
    pub min: f64,
    /// Skewness (third standardized moment).
    pub skewness: f64,
    /// Excess kurtosis (fourth standardized moment − 3).
    pub kurtosis: f64,
}

impl Summary {
    /// Computes all six statistics, each equal bit for bit to its own
    /// function, in six passes over the data: the mean and the standard
    /// deviation are computed once and shared by the later moments.
    ///
    /// Returns the all-zero summary for an empty slice.
    pub fn of(x: &[f64]) -> Summary {
        if x.is_empty() {
            return Summary::default();
        }
        let mean = mean(x);
        let std_dev = variance_about(x, mean).sqrt();
        Summary {
            mean,
            std_dev,
            max: max(x).unwrap_or(0.0),
            min: min(x).unwrap_or(0.0),
            skewness: standardized_moment::<3>(x, mean, std_dev).unwrap_or(0.0),
            kurtosis: standardized_moment::<4>(x, mean, std_dev).map_or(0.0, |k| k - 3.0),
        }
    }

    /// The summary as a fixed-order feature array
    /// `[mean, std, max, min, skewness, kurtosis]`.
    pub fn to_array(self) -> [f64; 6] {
        [
            self.mean,
            self.std_dev,
            self.max,
            self.min,
            self.skewness,
            self.kurtosis,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn mean_and_variance_of_known_data() {
        let x = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&x) - 5.0).abs() < EPS);
        assert!((variance(&x) - 4.0).abs() < EPS);
        assert!((std_dev(&x) - 2.0).abs() < EPS);
    }

    #[test]
    fn empty_slices_have_sane_defaults() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(rms(&[]), 0.0);
        assert_eq!(min(&[]), None);
        assert_eq!(max(&[]), None);
        assert_eq!(median(&[]), None);
        assert_eq!(argmax(&[]), None);
        assert_eq!(Summary::of(&[]), Summary::default());
    }

    #[test]
    fn symmetric_data_has_zero_skewness() {
        let x = [-3.0, -1.0, 0.0, 1.0, 3.0];
        assert!(skewness(&x).abs() < EPS);
    }

    #[test]
    fn right_tail_gives_positive_skewness() {
        let x = [1.0, 1.0, 1.0, 1.0, 10.0];
        assert!(skewness(&x) > 1.0);
    }

    #[test]
    fn two_point_distribution_kurtosis_is_minimal() {
        // Symmetric Bernoulli has kurtosis exactly -2 (the lower bound).
        let x = [1.0, -1.0, 1.0, -1.0];
        assert!((kurtosis(&x) + 2.0).abs() < EPS);
    }

    #[test]
    fn constant_data_degenerates_gracefully() {
        let x = [3.0; 5];
        assert_eq!(skewness(&x), 0.0);
        assert_eq!(kurtosis(&x), 0.0);
        assert_eq!(std_dev(&x), 0.0);
    }

    #[test]
    fn median_and_percentiles() {
        let x = [1.0, 3.0, 2.0, 5.0, 4.0];
        assert_eq!(median(&x), Some(3.0));
        assert_eq!(percentile(&x, 0.0), Some(1.0));
        assert_eq!(percentile(&x, 100.0), Some(5.0));
        assert_eq!(percentile(&x, 25.0), Some(2.0));
        // Clamps out-of-range p.
        assert_eq!(percentile(&x, 150.0), Some(5.0));
    }

    #[test]
    fn even_length_median_interpolates() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(median(&x), Some(2.5));
    }

    #[test]
    fn rms_of_unit_sine_is_inv_sqrt2() {
        let x: Vec<f64> = (0..1000)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / 100.0).sin())
            .collect();
        assert!((rms(&x) - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3);
    }

    #[test]
    fn argmax_argmin() {
        let x = [0.5, -2.0, 7.0, 3.0];
        assert_eq!(argmax(&x), Some(2));
        assert_eq!(argmin(&x), Some(1));
    }

    #[test]
    fn summary_matches_individual_statistics() {
        let x = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = Summary::of(&x);
        assert_eq!(s.mean, mean(&x));
        assert_eq!(s.std_dev, std_dev(&x));
        assert_eq!(s.max, 9.0);
        assert_eq!(s.min, 2.0);
        let arr = s.to_array();
        assert_eq!(arr[0], s.mean);
        assert_eq!(arr[5], s.kurtosis);

        // Bit for bit against each statistic's own function, degenerate
        // and non-finite inputs included.
        let ramp: Vec<f64> = (0..61).map(|i| (i as f64 * 0.37).sin() * 1e-3).collect();
        let inputs: [&[f64]; 6] = [
            &x,
            &ramp,
            &[4.5],
            &[3.0; 5],
            &[1.0, f64::NAN, 2.0],
            &[-0.0, -0.0],
        ];
        for x in inputs {
            let expected = [
                mean(x),
                std_dev(x),
                max(x).unwrap_or(0.0),
                min(x).unwrap_or(0.0),
                skewness(x),
                kurtosis(x),
            ];
            let bits = |a: [f64; 6]| a.map(f64::to_bits);
            assert_eq!(bits(Summary::of(x).to_array()), bits(expected), "{x:?}");
        }
    }
}
