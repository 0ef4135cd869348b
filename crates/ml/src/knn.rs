//! k-nearest-neighbour classification.
//!
//! Not part of the paper's pipeline, but the natural comparison point for
//! its k-means detector: the ablation harness uses k-NN to check how much
//! headroom a purely instance-based classifier has on the same features.

use crate::distance::squared_euclidean;
use crate::error::MlError;

/// A fitted (i.e. memorized) k-NN classifier.
#[derive(Debug, Clone)]
pub struct KnnClassifier {
    data: Vec<Vec<f64>>,
    labels: Vec<usize>,
    k: usize,
    n_classes: usize,
}

impl KnnClassifier {
    /// Stores the training set.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`] for empty data,
    /// [`MlError::DimensionMismatch`] for ragged rows or label mismatch,
    /// and [`MlError::InvalidParameter`] if `k == 0` or a label is out of
    /// range.
    pub fn fit(
        data: &[Vec<f64>],
        labels: &[usize],
        k: usize,
        n_classes: usize,
    ) -> Result<Self, MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if data.len() != labels.len() {
            return Err(MlError::DimensionMismatch {
                expected: data.len(),
                actual: labels.len(),
            });
        }
        if k == 0 || n_classes == 0 {
            return Err(MlError::InvalidParameter {
                name: "k/n_classes",
                constraint: "must both be positive",
            });
        }
        let dim = data[0].len();
        for row in data {
            if row.len() != dim {
                return Err(MlError::DimensionMismatch {
                    expected: dim,
                    actual: row.len(),
                });
            }
        }
        if labels.iter().any(|&l| l >= n_classes) {
            return Err(MlError::InvalidParameter {
                name: "labels",
                constraint: "labels must be below n_classes",
            });
        }
        Ok(KnnClassifier {
            data: data.to_vec(),
            labels: labels.to_vec(),
            k,
            n_classes,
        })
    }

    /// Predicts by majority vote over the `k` nearest training samples
    /// (distance-weighted tie-break: the closer class wins).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] for a wrong-width sample.
    pub fn predict(&self, sample: &[f64]) -> Result<usize, MlError> {
        self.predict_with_confidence(sample).map(|(class, _)| class)
    }

    /// [`KnnClassifier::predict`] plus the fraction of the `k` votes the
    /// winning class received — a cheap confidence in `(0, 1]`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`KnnClassifier::predict`].
    pub fn predict_with_confidence(&self, sample: &[f64]) -> Result<(usize, f64), MlError> {
        if sample.len() != self.data[0].len() {
            return Err(MlError::DimensionMismatch {
                expected: self.data[0].len(),
                actual: sample.len(),
            });
        }
        let mut dists: Vec<(f64, usize)> = self
            .data
            .iter()
            .zip(&self.labels)
            .map(|(x, &l)| (squared_euclidean(sample, x), l))
            .collect();
        let k = self.k.min(dists.len());
        dists.select_nth_unstable_by(k - 1, |a, b| a.0.total_cmp(&b.0));
        let neighbours = &dists[..k];
        let mut votes = vec![0usize; self.n_classes];
        let mut closest = vec![f64::INFINITY; self.n_classes];
        for &(d, l) in neighbours {
            votes[l] += 1;
            if d < closest[l] {
                closest[l] = d;
            }
        }
        let best_count = votes.iter().max().copied().unwrap_or(0);
        let class = (0..self.n_classes)
            .filter(|&c| votes[c] == best_count)
            .min_by(|&a, &b| closest[a].total_cmp(&closest[b]))
            .unwrap_or(0);
        Ok((class, best_count as f64 / k as f64))
    }

    /// Predicts a batch of samples.
    ///
    /// The `k` this classifier votes over.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The memorized training rows (for persistence).
    pub fn data(&self) -> &[Vec<f64>] {
        &self.data
    }

    /// The memorized training labels, index-aligned with
    /// [`KnnClassifier::data`].
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Number of classes the labels range over.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..10 {
            data.push(vec![0.0 + (i as f64) * 0.01, 0.0]);
            labels.push(0);
            data.push(vec![5.0 - (i as f64) * 0.01, 5.0]);
            labels.push(1);
        }
        (data, labels)
    }

    #[test]
    fn classifies_separated_blobs() {
        let (data, labels) = two_blobs();
        let knn = KnnClassifier::fit(&data, &labels, 3, 2).unwrap();
        assert_eq!(knn.predict(&[0.1, 0.1]).unwrap(), 0);
        assert_eq!(knn.predict(&[4.9, 4.9]).unwrap(), 1);
        assert_eq!(knn.k(), 3);
    }

    #[test]
    fn k_larger_than_dataset_degrades_to_majority() {
        let (data, labels) = two_blobs();
        let knn = KnnClassifier::fit(&data, &labels, 1000, 2).unwrap();
        // All points vote; tie broken by closest class.
        assert_eq!(knn.predict(&[0.0, 0.0]).unwrap(), 0);
    }

    #[test]
    fn tie_breaks_toward_closer_class() {
        let data = vec![vec![0.0], vec![2.0]];
        let labels = vec![0, 1];
        let knn = KnnClassifier::fit(&data, &labels, 2, 2).unwrap();
        assert_eq!(knn.predict(&[0.5]).unwrap(), 0);
        assert_eq!(knn.predict(&[1.5]).unwrap(), 1);
    }

    #[test]
    fn validation_errors() {
        assert!(KnnClassifier::fit(&[], &[], 3, 2).is_err());
        let data = vec![vec![1.0]];
        assert!(KnnClassifier::fit(&data, &[0, 1], 3, 2).is_err());
        assert!(KnnClassifier::fit(&data, &[0], 0, 2).is_err());
        assert!(KnnClassifier::fit(&data, &[5], 3, 2).is_err());
        let ragged = vec![vec![1.0], vec![1.0, 2.0]];
        assert!(KnnClassifier::fit(&ragged, &[0, 1], 1, 2).is_err());
        let knn = KnnClassifier::fit(&data, &[0], 1, 2).unwrap();
        assert!(knn.predict(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn confidence_is_the_winning_vote_fraction() {
        let (data, labels) = two_blobs();
        let knn = KnnClassifier::fit(&data, &labels, 5, 2).unwrap();
        // Deep inside blob 0: all 5 neighbours agree.
        let (class, conf) = knn.predict_with_confidence(&[0.05, 0.0]).unwrap();
        assert_eq!(class, 0);
        assert_eq!(conf, 1.0);
        // Confidence is always in (0, 1] and consistent with predict.
        let (class, conf) = knn.predict_with_confidence(&[2.5, 2.5]).unwrap();
        assert_eq!(class, knn.predict(&[2.5, 2.5]).unwrap());
        assert!(conf > 0.0 && conf <= 1.0);
        assert!(knn.predict_with_confidence(&[1.0]).is_err());
    }

    #[test]
    fn accessors_expose_training_set() {
        let (data, labels) = two_blobs();
        let knn = KnnClassifier::fit(&data, &labels, 3, 2).unwrap();
        assert_eq!(knn.data(), data.as_slice());
        assert_eq!(knn.labels(), labels.as_slice());
        assert_eq!(knn.n_classes(), 2);
    }
}
