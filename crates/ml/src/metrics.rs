//! Classification metrics.
//!
//! The paper evaluates with "precision, recall, F-score, confusion matrix"
//! (§VI-A) and reports the noise/motion robustness as false-acceptance and
//! false-rejection rates (FAR/FRR, Fig. 14).

use crate::error::MlError;

/// A confusion matrix over `n` classes: `counts[actual][predicted]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    counts: Vec<Vec<usize>>,
}

impl ConfusionMatrix {
    /// Builds the matrix from parallel actual/predicted label slices.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`] for empty inputs,
    /// [`MlError::DimensionMismatch`] if the slices differ in length, and
    /// [`MlError::InvalidParameter`] if a label `>= n_classes`.
    pub fn from_labels(
        actual: &[usize],
        predicted: &[usize],
        n_classes: usize,
    ) -> Result<Self, MlError> {
        if actual.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if actual.len() != predicted.len() {
            return Err(MlError::DimensionMismatch {
                expected: actual.len(),
                actual: predicted.len(),
            });
        }
        if n_classes == 0 {
            return Err(MlError::InvalidParameter {
                name: "n_classes",
                constraint: "must be positive",
            });
        }
        let mut counts = vec![vec![0usize; n_classes]; n_classes];
        for (&a, &p) in actual.iter().zip(predicted) {
            if a >= n_classes || p >= n_classes {
                return Err(MlError::InvalidParameter {
                    name: "labels",
                    constraint: "labels must be below n_classes",
                });
            }
            counts[a][p] += 1;
        }
        Ok(ConfusionMatrix { counts })
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.counts.len()
    }

    /// Raw count of samples with actual class `a` predicted as `p`.
    pub fn count(&self, a: usize, p: usize) -> usize {
        self.counts[a][p]
    }

    /// Total number of samples.
    pub fn total(&self) -> usize {
        self.counts.iter().flatten().sum()
    }

    /// Row-normalized matrix (each actual-class row sums to 1), as plotted
    /// in the paper's Fig. 13(d). Empty rows normalize to all zeros.
    pub fn normalized(&self) -> Vec<Vec<f64>> {
        self.counts
            .iter()
            .map(|row| {
                let s: usize = row.iter().sum();
                row.iter()
                    .map(|&c| if s == 0 { 0.0 } else { c as f64 / s as f64 })
                    .collect()
            })
            .collect()
    }

    /// Overall accuracy: trace / total.
    pub fn accuracy(&self) -> f64 {
        let correct: usize = (0..self.n_classes()).map(|i| self.counts[i][i]).sum();
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }

    /// Precision of class `c`: TP / (TP + FP). Returns 0 when undefined.
    pub fn precision(&self, c: usize) -> f64 {
        let tp = self.counts[c][c];
        let predicted: usize = (0..self.n_classes()).map(|a| self.counts[a][c]).sum();
        if predicted == 0 {
            0.0
        } else {
            tp as f64 / predicted as f64
        }
    }

    /// Recall of class `c`: TP / (TP + FN). Returns 0 when undefined.
    pub fn recall(&self, c: usize) -> f64 {
        let tp = self.counts[c][c];
        let actual: usize = self.counts[c].iter().sum();
        if actual == 0 {
            0.0
        } else {
            tp as f64 / actual as f64
        }
    }

    /// F1 score of class `c`. Returns 0 when undefined.
    pub fn f1(&self, c: usize) -> f64 {
        let p = self.precision(c);
        let r = self.recall(c);
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Macro-averaged precision over all classes.
    pub fn macro_precision(&self) -> f64 {
        let n = self.n_classes() as f64;
        (0..self.n_classes())
            .map(|c| self.precision(c))
            .sum::<f64>()
            / n
    }

    /// Macro-averaged recall.
    pub fn macro_recall(&self) -> f64 {
        let n = self.n_classes() as f64;
        (0..self.n_classes()).map(|c| self.recall(c)).sum::<f64>() / n
    }

    /// False-acceptance rate for class `c`: the fraction of samples that
    /// are *not* class `c` but were predicted as `c`
    /// (`FP / (FP + TN)`, the one-vs-rest false-positive rate).
    pub fn far(&self, c: usize) -> f64 {
        let n = self.n_classes();
        let fp: usize = (0..n).filter(|&a| a != c).map(|a| self.counts[a][c]).sum();
        let negatives: usize = (0..n)
            .filter(|&a| a != c)
            .map(|a| self.counts[a].iter().sum::<usize>())
            .sum();
        if negatives == 0 {
            0.0
        } else {
            fp as f64 / negatives as f64
        }
    }

    /// False-rejection rate for class `c`: the fraction of true class-`c`
    /// samples predicted as something else (`FN / (TP + FN)` = 1 − recall).
    pub fn frr(&self, c: usize) -> f64 {
        let actual: usize = self.counts[c].iter().sum();
        if actual == 0 {
            0.0
        } else {
            1.0 - self.recall(c)
        }
    }
}

/// Per-class and aggregate metrics in one bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassificationReport {
    /// Per-class precision.
    pub precision: Vec<f64>,
    /// Per-class recall.
    pub recall: Vec<f64>,
    /// Per-class F1.
    pub f1: Vec<f64>,
    /// Per-class false-acceptance rate.
    pub far: Vec<f64>,
    /// Per-class false-rejection rate.
    pub frr: Vec<f64>,
    /// Overall accuracy.
    pub accuracy: f64,
    /// The underlying confusion matrix.
    pub confusion: ConfusionMatrix,
}

impl ClassificationReport {
    /// Computes the full report from labels.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ConfusionMatrix::from_labels`].
    pub fn from_labels(
        actual: &[usize],
        predicted: &[usize],
        n_classes: usize,
    ) -> Result<Self, MlError> {
        let confusion = ConfusionMatrix::from_labels(actual, predicted, n_classes)?;
        Ok(ClassificationReport {
            precision: (0..n_classes).map(|c| confusion.precision(c)).collect(),
            recall: (0..n_classes).map(|c| confusion.recall(c)).collect(),
            f1: (0..n_classes).map(|c| confusion.f1(c)).collect(),
            far: (0..n_classes).map(|c| confusion.far(c)).collect(),
            frr: (0..n_classes).map(|c| confusion.frr(c)).collect(),
            accuracy: confusion.accuracy(),
            confusion,
        })
    }

    /// Median of the per-class precisions — the aggregation the paper
    /// headlines ("median values for Precision, Recall, and F1score").
    pub fn median_precision(&self) -> f64 {
        median(&self.precision)
    }

    /// Median per-class recall.
    pub fn median_recall(&self) -> f64 {
        median(&self.recall)
    }

    /// Median per-class F1.
    pub fn median_f1(&self) -> f64 {
        median(&self.f1)
    }
}

fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_matrix() -> ConfusionMatrix {
        //            predicted: 0  1
        // actual 0:             8  2
        // actual 1:             1  9
        ConfusionMatrix::from_labels(
            &[vec![0; 10], vec![1; 10]].concat(),
            &[vec![0; 8], vec![1; 2], vec![0; 1], vec![1; 9]].concat(),
            2,
        )
        .unwrap()
    }

    #[test]
    fn counts_and_totals() {
        let m = sample_matrix();
        assert_eq!(m.count(0, 0), 8);
        assert_eq!(m.count(0, 1), 2);
        assert_eq!(m.count(1, 0), 1);
        assert_eq!(m.count(1, 1), 9);
        assert_eq!(m.total(), 20);
        assert_eq!(m.n_classes(), 2);
    }

    #[test]
    fn accuracy_precision_recall_f1() {
        let m = sample_matrix();
        assert!((m.accuracy() - 0.85).abs() < 1e-12);
        assert!((m.precision(0) - 8.0 / 9.0).abs() < 1e-12);
        assert!((m.recall(0) - 0.8).abs() < 1e-12);
        let p = 8.0 / 9.0;
        let r = 0.8;
        assert!((m.f1(0) - 2.0 * p * r / (p + r)).abs() < 1e-12);
    }

    #[test]
    fn normalized_rows_sum_to_one() {
        let m = sample_matrix();
        for row in m.normalized() {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn far_frr_semantics() {
        let m = sample_matrix();
        // FAR(0): 1 of 10 true class-1 samples misread as class 0.
        assert!((m.far(0) - 0.1).abs() < 1e-12);
        // FRR(0): 2 of 10 class-0 samples rejected.
        assert!((m.frr(0) - 0.2).abs() < 1e-12);
        assert!((m.frr(0) - (1.0 - m.recall(0))).abs() < 1e-12);
    }

    #[test]
    fn perfect_classifier_metrics() {
        let labels = [0, 1, 2, 3, 0, 1, 2, 3];
        let m = ConfusionMatrix::from_labels(&labels, &labels, 4).unwrap();
        assert_eq!(m.accuracy(), 1.0);
        for c in 0..4 {
            assert_eq!(m.precision(c), 1.0);
            assert_eq!(m.recall(c), 1.0);
            assert_eq!(m.f1(c), 1.0);
            assert_eq!(m.far(c), 0.0);
            assert_eq!(m.frr(c), 0.0);
        }
    }

    #[test]
    fn degenerate_class_yields_zero_not_nan() {
        // Class 2 never appears.
        let m = ConfusionMatrix::from_labels(&[0, 1], &[0, 1], 3).unwrap();
        assert_eq!(m.precision(2), 0.0);
        assert_eq!(m.recall(2), 0.0);
        assert_eq!(m.f1(2), 0.0);
        assert_eq!(m.frr(2), 0.0);
    }

    #[test]
    fn report_aggregates() {
        let actual = [0, 0, 1, 1, 2, 2];
        let predicted = [0, 0, 1, 0, 2, 2];
        let r = ClassificationReport::from_labels(&actual, &predicted, 3).unwrap();
        assert_eq!(r.precision.len(), 3);
        assert!((r.accuracy - 5.0 / 6.0).abs() < 1e-12);
        assert!(r.median_precision() > 0.0);
        assert!(r.median_recall() > 0.0);
        assert!(r.median_f1() > 0.0);
    }

    #[test]
    fn validation_errors() {
        assert!(ConfusionMatrix::from_labels(&[], &[], 2).is_err());
        assert!(ConfusionMatrix::from_labels(&[0], &[0, 1], 2).is_err());
        assert!(ConfusionMatrix::from_labels(&[0], &[0], 0).is_err());
        assert!(ConfusionMatrix::from_labels(&[2], &[0], 2).is_err());
    }

    #[test]
    fn median_helper() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
