//! MEE detection (paper §IV-C-2/3/4).
//!
//! The trained detector chains: z-score standardization → Laplacian-score
//! feature selection (top 25 of 105) → optional distance-based outlier
//! removal → k-means (k = 4) started from the four state means →
//! majority-vote cluster labelling. At prediction time a feature vector
//! is standardized, projected, assigned to its nearest cluster centre, and
//! mapped to an effusion state.

use crate::channel::mean_rows;
use crate::config::EarSonarConfig;
use crate::error::EarSonarError;
use earsonar_ml::kmeans::{KMeans, KMeansConfig};
use earsonar_ml::labeling::ClusterLabeling;
use earsonar_ml::laplacian;
use earsonar_ml::outlier;
use earsonar_ml::scaler::StandardScaler;
use earsonar_signal::effusion::MeeState;

/// Neighbours in the Laplacian-score kNN graph.
pub use earsonar_ml::laplacian::NEIGHBORS as LAPLACIAN_NEIGHBORS;

/// k-means restarts.
pub const KMEANS_RESTARTS: usize = 12;

/// Deterministic seed for clustering and outlier removal.
pub const SEED: u64 = 0x0EA5_0A45;

/// A fitted MEE detector.
#[derive(Debug, Clone)]
pub struct EarSonarDetector {
    scaler: StandardScaler,
    selected: Vec<usize>,
    kmeans: KMeans,
    labeling: ClusterLabeling,
}

impl EarSonarDetector {
    /// Fits the detector on labelled training features.
    ///
    /// Clustering itself is unsupervised (the paper's k-means); the labels
    /// are used only to (a) name the resulting clusters by majority vote
    /// and (b) optionally monitor outlier removal.
    ///
    /// # Errors
    ///
    /// Propagates [`EarSonarError::Ml`] from any stage; returns
    /// [`EarSonarError::BadRecording`] if features and labels disagree in
    /// length.
    pub fn fit(
        features: &[Vec<f64>],
        labels: &[MeeState],
        config: &EarSonarConfig,
    ) -> Result<Self, EarSonarError> {
        if features.len() != labels.len() {
            return Err(EarSonarError::BadRecording {
                reason: "feature/label count mismatch",
            });
        }
        let (scaler, scaled) = StandardScaler::fit_transform(features)?;

        let selected = laplacian::select_top_features(&scaled, config.top_features)?;
        let projected = laplacian::project(&scaled, &selected)?;

        // One cluster per effusion state.
        let km_config = KMeansConfig {
            k: MeeState::COUNT,
            n_init: KMEANS_RESTARTS,
            seed: SEED,
        };

        // Outlier removal (paper §IV-D-4, strategy 1): cluster, drop
        // confirmed outliers, re-cluster on the clean set.
        let (train_set, train_labels): (Vec<Vec<f64>>, Vec<MeeState>) =
            if config.remove_outliers && projected.len() > 4 * MeeState::COUNT {
                let report = outlier::detect_outliers(&projected, &km_config)?;
                if report.outliers.is_empty() {
                    (projected, labels.to_vec())
                } else {
                    (
                        report
                            .inliers
                            .iter()
                            .map(|&i| projected[i].clone())
                            .collect(),
                        report.inliers.iter().map(|&i| labels[i]).collect(),
                    )
                }
            } else {
                (projected, labels.to_vec())
            };

        let (kmeans, labeling) = fit_state_kmeans(&train_set, &train_labels)?;
        Ok(EarSonarDetector {
            scaler,
            selected,
            kmeans,
            labeling,
        })
    }

    /// Predicts the effusion state of one feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`EarSonarError::Ml`] if the vector's width differs from
    /// training.
    pub fn predict(&self, features: &[f64]) -> Result<MeeState, EarSonarError> {
        let scaled = self.scaler.transform_sample(features)?;
        let projected: Vec<f64> = self.selected.iter().map(|&i| scaled[i]).collect();
        let cluster = self.kmeans.predict(&projected);
        Ok(MeeState::from_index(self.labeling.class_of(cluster)))
    }

    /// Indices (into the 105-feature layout) kept by Laplacian selection.
    pub fn selected_features(&self) -> &[usize] {
        &self.selected
    }

    /// The fitted k-means model.
    pub fn kmeans(&self) -> &KMeans {
        &self.kmeans
    }

    /// The cluster→state mapping.
    pub fn labeling(&self) -> &ClusterLabeling {
        &self.labeling
    }

    /// The fitted scaler.
    pub fn scaler(&self) -> &StandardScaler {
        &self.scaler
    }

    /// Reassembles a detector from persisted components (see
    /// [`crate::model_io`]).
    ///
    /// # Errors
    ///
    /// Returns [`EarSonarError::Ml`] if the components are internally
    /// inconsistent (selected indices out of scaler range, k-means
    /// dimensionality mismatching the selection, labeling shorter than the
    /// cluster count).
    pub fn from_components(
        scaler: StandardScaler,
        selected: Vec<usize>,
        kmeans: KMeans,
        labeling: ClusterLabeling,
    ) -> Result<Self, EarSonarError> {
        let dim = scaler.means().len();
        if selected.is_empty() || selected.iter().any(|&i| i >= dim) {
            return Err(EarSonarError::Ml(earsonar_ml::MlError::InvalidParameter {
                name: "selected",
                constraint: "selected indices must be within the scaler width",
            }));
        }
        let km_dim = kmeans.centroids().first().map(Vec::len).unwrap_or(0);
        if km_dim != selected.len() {
            return Err(EarSonarError::Ml(earsonar_ml::MlError::DimensionMismatch {
                expected: selected.len(),
                actual: km_dim,
            }));
        }
        if labeling.mapping().len() < kmeans.k() {
            return Err(EarSonarError::Ml(earsonar_ml::MlError::InvalidParameter {
                name: "labeling",
                constraint: "must cover every cluster",
            }));
        }
        Ok(EarSonarDetector {
            scaler,
            selected,
            kmeans,
            labeling,
        })
    }
}

/// The paper's clustering step: k-means "given four cluster centers
/// according to the four different states". Each centre starts at its
/// state's mean over `data` (the grand mean for a state with no rows), one
/// Lloyd step refines them without letting adjacent severity grades
/// collapse into one cluster, and a majority vote names the clusters. The
/// detector and [`crate::eval::loocv_baseline`] share it.
///
/// # Errors
///
/// Returns [`EarSonarError::Ml`] for empty or ragged data or fewer rows
/// than states.
pub(crate) fn fit_state_kmeans(
    data: &[Vec<f64>],
    labels: &[MeeState],
) -> Result<(KMeans, ClusterLabeling), EarSonarError> {
    let dim = data.first().map_or(0, Vec::len);
    let grand = mean_rows(data.iter().map(Vec::as_slice), dim);
    let initial = MeeState::ALL
        .iter()
        .map(|&state| {
            let rows: Vec<&[f64]> = data
                .iter()
                .zip(labels)
                .filter(|&(_, &s)| s == state)
                .map(|(x, _)| x.as_slice())
                .collect();
            if rows.is_empty() {
                grand.clone()
            } else {
                mean_rows(rows.into_iter(), dim)
            }
        })
        .collect();
    let kmeans = KMeans::refine(data, initial)?;
    let class_of: Vec<usize> = labels.iter().map(|s| s.index()).collect();
    let labeling =
        ClusterLabeling::fit(kmeans.labels(), &class_of, MeeState::COUNT, MeeState::COUNT)?;
    Ok((kmeans, labeling))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a synthetic, well-separated 105-dim dataset: each state
    /// shifts a handful of informative dimensions; the rest is noise.
    fn synthetic_features(per_class: usize, noise: f64) -> (Vec<Vec<f64>>, Vec<MeeState>) {
        let mut feats = Vec::new();
        let mut labels = Vec::new();
        let mut lcg = 12345u64;
        let mut rand01 = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (lcg >> 33) as f64 / (1u64 << 31) as f64
        };
        for state in MeeState::ALL {
            let shift = state.index() as f64 * 2.0;
            for _ in 0..per_class {
                let mut v = vec![0.0; crate::features::FEATURE_COUNT];
                for (i, x) in v.iter_mut().enumerate() {
                    *x = if i < 10 {
                        // Enough per-dimension noise that informative dims
                        // are not near-duplicates of each other (pairwise
                        // correlation stays below the redundancy-pruning
                        // threshold) while classes remain >3 sigma apart.
                        shift + 2.0 * (rand01() - 0.5)
                    } else {
                        noise * (rand01() - 0.5)
                    };
                }
                feats.push(v);
                labels.push(state);
            }
        }
        (feats, labels)
    }

    fn config() -> EarSonarConfig {
        EarSonarConfig::default()
    }

    fn predict_all(det: &EarSonarDetector, feats: &[Vec<f64>]) -> Vec<MeeState> {
        feats.iter().map(|f| det.predict(f).unwrap()).collect()
    }

    #[test]
    fn fits_and_recovers_separated_classes() {
        let (feats, labels) = synthetic_features(12, 0.5);
        let det = EarSonarDetector::fit(&feats, &labels, &config()).unwrap();
        let pred = predict_all(&det, &feats);
        let correct = pred.iter().zip(&labels).filter(|(p, l)| p == l).count();
        assert!(
            correct as f64 / labels.len() as f64 > 0.95,
            "accuracy {}/{}",
            correct,
            labels.len()
        );
    }

    #[test]
    fn selection_keeps_informative_dimensions() {
        let (feats, labels) = synthetic_features(12, 0.5);
        let det = EarSonarDetector::fit(&feats, &labels, &config()).unwrap();
        assert_eq!(det.selected_features().len(), 25);
        // Most of the 10 informative dims should be among the selected.
        let informative = det.selected_features().iter().filter(|&&i| i < 10).count();
        assert!(informative >= 6, "only {informative} informative kept");
    }

    #[test]
    fn labeling_covers_all_states_for_clean_data() {
        let (feats, labels) = synthetic_features(10, 0.3);
        let det = EarSonarDetector::fit(&feats, &labels, &config()).unwrap();
        assert!(det.labeling().is_surjective());
        assert_eq!(det.kmeans().k(), 4);
    }

    #[test]
    fn mismatched_inputs_are_rejected() {
        let (feats, mut labels) = synthetic_features(4, 0.3);
        labels.pop();
        assert!(matches!(
            EarSonarDetector::fit(&feats, &labels, &config()),
            Err(EarSonarError::BadRecording { .. })
        ));
    }

    #[test]
    fn predict_rejects_wrong_width() {
        let (feats, labels) = synthetic_features(6, 0.3);
        let det = EarSonarDetector::fit(&feats, &labels, &config()).unwrap();
        assert!(det.predict(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn fitting_is_deterministic() {
        let (feats, labels) = synthetic_features(8, 0.5);
        let cfg = config();
        let a = EarSonarDetector::fit(&feats, &labels, &cfg).unwrap();
        let b = EarSonarDetector::fit(&feats, &labels, &cfg).unwrap();
        let pa = predict_all(&a, &feats);
        let pb = predict_all(&b, &feats);
        assert_eq!(pa, pb);
    }

    #[test]
    fn outlier_removal_can_be_disabled() {
        let (feats, labels) = synthetic_features(8, 0.5);
        let mut cfg = config();
        cfg.remove_outliers = false;
        let det = EarSonarDetector::fit(&feats, &labels, &cfg).unwrap();
        let pred = predict_all(&det, &feats);
        let correct = pred.iter().zip(&labels).filter(|(p, l)| p == l).count();
        assert!(correct as f64 / labels.len() as f64 > 0.9);
    }
}
