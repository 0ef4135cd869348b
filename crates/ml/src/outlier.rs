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

/// A point is flagged in a loop when its distance to its cluster centre
/// exceeds the mean within-cluster distance by this many standard
/// deviations (the paper's 3σ).
pub const THRESHOLD_SIGMA: f64 = 3.0;

/// Independent clusterings a point must be flagged in before it is
/// confirmed as an outlier.
pub const LOOPS: usize = 3;

const _: () = assert!(THRESHOLD_SIGMA > 0.0 && LOOPS > 0);

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
/// [`THRESHOLD_SIGMA`] standard deviations above the mean within-cluster
/// distance, consistently over [`LOOPS`] independent clusterings
/// (different seeds) — the paper's "monitor these outliers in multiple
/// clustering loops" safeguard against accidental deletion.
///
/// # Errors
///
/// Any k-means fitting error.
pub fn detect_outliers(data: &[Vec<f64>], config: &KMeansConfig) -> Result<OutlierReport, MlError> {
    let n = data.len();
    let mut flag_counts = vec![0usize; n];
    for pass in 0..LOOPS {
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
        let cut = mean + THRESHOLD_SIGMA * var.sqrt();
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
        if c == LOOPS {
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
        let report = detect_outliers(&data, &cfg).unwrap();
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
        let report = detect_outliers(&data, &cfg).unwrap();
        assert!(report.outliers.is_empty(), "{:?}", report.outliers);
    }
}
