//! Outlier handling for k-means.
//!
//! "K-means clustering can perform badly in the presence of outliers"
//! (paper §IV-D-4). This module implements the first of the paper's two
//! mitigation strategies, the one the detector uses: **distance-based
//! removal** drops points much farther from their cluster centre than their
//! peers, verified over multiple clustering loops before deletion. The
//! second, clustering a random subsample, is not implemented.

use crate::distance::euclidean;
use crate::error::MlError;
use crate::kmeans::{KMeans, KMeansConfig};

/// Result of an outlier-removal pass.
#[derive(Debug, Clone, PartialEq)]
pub struct OutlierReport {
    /// Indices (into the original data) kept as inliers.
    pub inliers: Vec<usize>,
    /// Indices flagged as outliers.
    pub outliers: Vec<usize>,
}

/// Distance-based outlier detection (paper strategy 1).
///
/// A point is flagged when its distance to its cluster centre exceeds
/// `threshold_sigma` standard deviations above the mean within-cluster
/// distance, consistently over `loops` independent clusterings (different
/// seeds) — the paper's "monitor these outliers in multiple clustering
/// loops" safeguard against accidental deletion.
///
/// # Errors
///
/// Returns [`MlError::InvalidParameter`] if `loops == 0` or
/// `threshold_sigma <= 0`, plus any k-means fitting error.
pub fn detect_outliers(
    data: &[Vec<f64>],
    config: &KMeansConfig,
    threshold_sigma: f64,
    loops: usize,
) -> Result<OutlierReport, MlError> {
    if loops == 0 {
        return Err(MlError::InvalidParameter {
            name: "loops",
            constraint: "must run at least one clustering loop",
        });
    }
    if !(threshold_sigma > 0.0) {
        return Err(MlError::InvalidParameter {
            name: "threshold_sigma",
            constraint: "must be positive",
        });
    }
    let n = data.len();
    let mut flag_counts = vec![0usize; n];
    for pass in 0..loops {
        let cfg = KMeansConfig {
            seed: config.seed.wrapping_add(0x9E37_79B9 * (pass as u64 + 1)),
            ..config.clone()
        };
        let model = KMeans::fit(data, &cfg)?;
        let dists: Vec<f64> = data
            .iter()
            .zip(model.labels())
            .map(|(x, &l)| euclidean(x, &model.centroids()[l]))
            .collect();
        let mean = dists.iter().sum::<f64>() / n as f64;
        let var = dists.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / n as f64;
        let cut = mean + threshold_sigma * var.sqrt();
        for (count, d) in flag_counts.iter_mut().zip(&dists) {
            if *d > cut {
                *count += 1;
            }
        }
    }
    let mut inliers = Vec::new();
    let mut outliers = Vec::new();
    for (i, &c) in flag_counts.iter().enumerate() {
        // Flagged in every loop → confirmed outlier.
        if c == loops {
            outliers.push(i);
        } else {
            inliers.push(i);
        }
    }
    Ok(OutlierReport { inliers, outliers })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs_with_outlier() -> Vec<Vec<f64>> {
        let mut data = Vec::new();
        for (cx, cy) in [(0.0, 0.0), (10.0, 10.0)] {
            for i in 0..12 {
                data.push(vec![
                    cx + (i as f64 * 0.4).sin() * 0.5,
                    cy + (i as f64 * 0.9).cos() * 0.5,
                ]);
            }
        }
        // An outlier far from both blobs, but close enough that k-means
        // attaches it to one rather than giving it a private cluster.
        data.push(vec![5.0, 30.0]); // outlier (index 24)
        data
    }

    #[test]
    fn gross_outlier_is_flagged() {
        let data = blobs_with_outlier();
        let cfg = KMeansConfig {
            k: 2,
            ..Default::default()
        };
        let report = detect_outliers(&data, &cfg, 2.5, 3).unwrap();
        assert!(report.outliers.contains(&24), "{:?}", report.outliers);
        assert!(report.inliers.len() >= 22);
    }

    #[test]
    fn clean_data_keeps_everything() {
        let data: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![(i % 2) as f64 * 10.0 + (i as f64 * 0.3).sin() * 0.2])
            .collect();
        let cfg = KMeansConfig {
            k: 2,
            ..Default::default()
        };
        let report = detect_outliers(&data, &cfg, 4.0, 3).unwrap();
        assert!(report.outliers.is_empty(), "{:?}", report.outliers);
    }

    #[test]
    fn parameter_validation() {
        let data = blobs_with_outlier();
        let cfg = KMeansConfig {
            k: 2,
            ..Default::default()
        };
        assert!(detect_outliers(&data, &cfg, 2.0, 0).is_err());
        assert!(detect_outliers(&data, &cfg, 0.0, 3).is_err());
    }
}
