//! Cluster-to-class assignment.
//!
//! k-means produces anonymous cluster indices; EarSonar names them with the
//! four effusion states by majority vote against the ground-truth labels of
//! the training samples (the paper's clusters `{S1..S4}` map onto
//! `{Clear, Purulent, Mucoid, Serous}`).

use crate::error::MlError;

/// A fitted mapping from cluster index to class label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterLabeling {
    mapping: Vec<usize>,
    n_classes: usize,
}

impl ClusterLabeling {
    /// Learns the majority-vote mapping.
    ///
    /// `cluster_of[i]` is the cluster of training sample `i` and
    /// `class_of[i]` its ground-truth class in `0..n_classes`. Clusters
    /// with no samples map to class 0.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`] for empty inputs,
    /// [`MlError::DimensionMismatch`] if the two label vectors differ in
    /// length, and [`MlError::InvalidParameter`] if `n_clusters` or
    /// `n_classes` is zero or a label is out of range.
    pub fn fit(
        cluster_of: &[usize],
        class_of: &[usize],
        n_clusters: usize,
        n_classes: usize,
    ) -> Result<Self, MlError> {
        if cluster_of.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if cluster_of.len() != class_of.len() {
            return Err(MlError::DimensionMismatch {
                expected: cluster_of.len(),
                actual: class_of.len(),
            });
        }
        if n_clusters == 0 || n_classes == 0 {
            return Err(MlError::InvalidParameter {
                name: "n_clusters/n_classes",
                constraint: "must both be positive",
            });
        }
        let mut votes = vec![vec![0usize; n_classes]; n_clusters];
        for (&cl, &cls) in cluster_of.iter().zip(class_of) {
            if cl >= n_clusters || cls >= n_classes {
                return Err(MlError::InvalidParameter {
                    name: "labels",
                    constraint: "cluster/class labels must be within range",
                });
            }
            votes[cl][cls] += 1;
        }
        // Ties (including empty clusters) resolve to the lowest class index.
        let mapping = votes
            .iter()
            .map(|v| {
                let mut best = 0usize;
                for c in 1..n_classes {
                    if v[c] > v[best] {
                        best = c;
                    }
                }
                best
            })
            .collect();
        Ok(ClusterLabeling { mapping, n_classes })
    }

    /// Reassembles a labeling from a persisted cluster→class table.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`] for an empty table and
    /// [`MlError::InvalidParameter`] if an entry is out of class range.
    pub fn from_mapping(mapping: Vec<usize>, n_classes: usize) -> Result<Self, MlError> {
        if mapping.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if n_classes == 0 || mapping.iter().any(|&c| c >= n_classes) {
            return Err(MlError::InvalidParameter {
                name: "mapping",
                constraint: "entries must be below n_classes",
            });
        }
        Ok(ClusterLabeling { mapping, n_classes })
    }

    /// The class assigned to `cluster`.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    pub fn class_of(&self, cluster: usize) -> usize {
        self.mapping[cluster]
    }

    /// Maps a batch of cluster indices to class labels.
    pub fn map(&self, clusters: &[usize]) -> Vec<usize> {
        clusters.iter().map(|&c| self.class_of(c)).collect()
    }

    /// The raw cluster→class table.
    pub fn mapping(&self) -> &[usize] {
        &self.mapping
    }

    /// Number of classes this labeling targets.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_vote_wins() {
        // Cluster 0: mostly class 2; cluster 1: mostly class 0.
        let clusters = [0, 0, 0, 1, 1, 1, 0];
        let classes = [2, 2, 1, 0, 0, 3, 2];
        let lab = ClusterLabeling::fit(&clusters, &classes, 2, 4).unwrap();
        assert_eq!(lab.class_of(0), 2);
        assert_eq!(lab.class_of(1), 0);
    }

    #[test]
    fn empty_cluster_maps_to_class_zero() {
        let clusters = [0, 0];
        let classes = [1, 1];
        let lab = ClusterLabeling::fit(&clusters, &classes, 3, 2).unwrap();
        assert_eq!(lab.class_of(1), 0);
        assert_eq!(lab.class_of(2), 0);
    }

    #[test]
    fn map_batches() {
        let lab = ClusterLabeling::fit(&[0, 1], &[3, 1], 2, 4).unwrap();
        assert_eq!(lab.map(&[0, 1, 0]), vec![3, 1, 3]);
        assert_eq!(lab.mapping(), &[3, 1]);
        assert_eq!(lab.n_classes(), 4);
    }

    #[test]
    fn from_mapping_round_trips() {
        let lab = ClusterLabeling::fit(&[0, 1], &[3, 1], 2, 4).unwrap();
        let rebuilt = ClusterLabeling::from_mapping(lab.mapping().to_vec(), 4).unwrap();
        assert_eq!(lab, rebuilt);
        assert!(ClusterLabeling::from_mapping(vec![], 4).is_err());
        assert!(ClusterLabeling::from_mapping(vec![9], 4).is_err());
    }

    #[test]
    fn validation_errors() {
        assert!(ClusterLabeling::fit(&[], &[], 2, 2).is_err());
        assert!(ClusterLabeling::fit(&[0], &[0, 1], 2, 2).is_err());
        assert!(ClusterLabeling::fit(&[0], &[0], 0, 2).is_err());
        assert!(ClusterLabeling::fit(&[5], &[0], 2, 2).is_err());
        assert!(ClusterLabeling::fit(&[0], &[5], 2, 2).is_err());
    }
}
