//! Multinomial logistic regression.
//!
//! Not part of the paper's pipeline: this is the parametric comparison
//! point the backend registry offers next to the paper's k-means and the
//! instance-based k-NN. Training is plain full-batch gradient descent on
//! the softmax cross-entropy with L2 regularization — deterministic by
//! construction (zero initialization, fixed iteration count, no sampling),
//! so refitting on the same data always yields the same model.

use crate::error::MlError;

/// Full-batch gradient-descent iterations of [`MultinomialLogistic::fit`].
const ITERS: usize = 400;

/// Gradient-descent step size.
const LEARNING_RATE: f64 = 0.5;

/// L2 penalty on the weights (the bias is not penalized).
const L2: f64 = 1e-3;

const _: () = assert!(ITERS > 0 && LEARNING_RATE > 0.0 && L2 >= 0.0);

/// A fitted multinomial (softmax) logistic-regression classifier.
///
/// Weights are stored one row per class, each row `dim + 1` long with the
/// bias in the last position.
#[derive(Debug, Clone, PartialEq)]
pub struct MultinomialLogistic {
    weights: Vec<Vec<f64>>,
    n_classes: usize,
}

impl MultinomialLogistic {
    /// Fits the classifier with full-batch gradient descent (400
    /// iterations at step 0.5, L2 penalty 1e-3).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`] for empty data,
    /// [`MlError::DimensionMismatch`] for ragged rows or a label-count
    /// mismatch, and [`MlError::InvalidParameter`] for `n_classes == 0` or
    /// out-of-range labels.
    pub fn fit(data: &[Vec<f64>], labels: &[usize], n_classes: usize) -> Result<Self, MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if data.len() != labels.len() {
            return Err(MlError::DimensionMismatch {
                expected: data.len(),
                actual: labels.len(),
            });
        }
        if n_classes == 0 {
            return Err(MlError::InvalidParameter {
                name: "n_classes",
                constraint: "must be positive",
            });
        }
        if labels.iter().any(|&l| l >= n_classes) {
            return Err(MlError::InvalidParameter {
                name: "labels",
                constraint: "labels must be below n_classes",
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

        let n = data.len() as f64;
        let mut weights = vec![vec![0.0; dim + 1]; n_classes];
        let mut probs = vec![0.0; n_classes];
        let mut grad = vec![vec![0.0; dim + 1]; n_classes];
        for _ in 0..ITERS {
            for g in &mut grad {
                g.iter_mut().for_each(|v| *v = 0.0);
            }
            for (x, &y) in data.iter().zip(labels) {
                softmax_into(&weights, x, &mut probs);
                for (c, g) in grad.iter_mut().enumerate() {
                    let err = probs[c] - if c == y { 1.0 } else { 0.0 };
                    for (gv, &xv) in g.iter_mut().zip(x) {
                        *gv += err * xv;
                    }
                    g[dim] += err;
                }
            }
            for (w, g) in weights.iter_mut().zip(&grad) {
                for (j, (wv, &gv)) in w.iter_mut().zip(g).enumerate() {
                    // The bias (last slot) carries no L2 penalty.
                    let penalty = if j < dim { L2 * *wv } else { 0.0 };
                    *wv -= LEARNING_RATE * (gv / n + penalty);
                }
            }
        }
        Ok(MultinomialLogistic { weights, n_classes })
    }

    /// Per-class softmax probabilities for one sample.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] for a wrong-width sample.
    pub fn predict_proba(&self, sample: &[f64]) -> Result<Vec<f64>, MlError> {
        let dim = self.weights[0].len() - 1;
        if sample.len() != dim {
            return Err(MlError::DimensionMismatch {
                expected: dim,
                actual: sample.len(),
            });
        }
        let mut probs = vec![0.0; self.n_classes];
        softmax_into(&self.weights, sample, &mut probs);
        Ok(probs)
    }

    /// Predicts the most probable class (ties break toward the lowest
    /// class index, deterministically).
    ///
    /// # Errors
    ///
    /// Same conditions as [`MultinomialLogistic::predict_proba`].
    pub fn predict(&self, sample: &[f64]) -> Result<usize, MlError> {
        let probs = self.predict_proba(sample)?;
        let mut best = 0usize;
        for (c, &p) in probs.iter().enumerate().skip(1) {
            if p > probs[best] {
                best = c;
            }
        }
        Ok(best)
    }

    /// Predicts a batch of samples.
    ///
    /// Reassembles a classifier from persisted weights (one row per
    /// class, `dim + 1` wide with the trailing bias).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`] for no rows and
    /// [`MlError::DimensionMismatch`] for ragged or sub-minimal rows.
    pub fn from_weights(weights: Vec<Vec<f64>>) -> Result<Self, MlError> {
        if weights.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        let width = weights[0].len();
        if width < 2 {
            return Err(MlError::DimensionMismatch {
                expected: 2,
                actual: width,
            });
        }
        for row in &weights {
            if row.len() != width {
                return Err(MlError::DimensionMismatch {
                    expected: width,
                    actual: row.len(),
                });
            }
        }
        let n_classes = weights.len();
        Ok(MultinomialLogistic { weights, n_classes })
    }

    /// The weight matrix, one row per class with the trailing bias.
    pub fn weights(&self) -> &[Vec<f64>] {
        &self.weights
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }
}

/// Numerically stable softmax of the per-class scores of `x`.
fn softmax_into(weights: &[Vec<f64>], x: &[f64], out: &mut [f64]) {
    let dim = x.len();
    for (o, w) in out.iter_mut().zip(weights) {
        let mut z = w[dim];
        for (&wv, &xv) in w.iter().zip(x) {
            z += wv * xv;
        }
        *o = z;
    }
    let max = out.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for o in out.iter_mut() {
        *o = (*o - max).exp();
        sum += *o;
    }
    if sum > 0.0 {
        for o in out.iter_mut() {
            *o /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..12 {
            let t = i as f64 * 0.05;
            data.push(vec![t, -1.0 - t]);
            labels.push(0);
            data.push(vec![2.0 + t, 1.0 + t]);
            labels.push(1);
        }
        (data, labels)
    }

    #[test]
    fn separates_two_blobs() {
        let (data, labels) = two_blobs();
        let model = MultinomialLogistic::fit(&data, &labels, 2).unwrap();
        assert_eq!(model.predict(&[0.1, -1.2]).unwrap(), 0);
        assert_eq!(model.predict(&[2.3, 1.4]).unwrap(), 1);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let (data, labels) = two_blobs();
        let model = MultinomialLogistic::fit(&data, &labels, 2).unwrap();
        let p = model.predict_proba(&[1.0, 0.0]).unwrap();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn fitting_is_deterministic() {
        let (data, labels) = two_blobs();
        let a = MultinomialLogistic::fit(&data, &labels, 2).unwrap();
        let b = MultinomialLogistic::fit(&data, &labels, 2).unwrap();
        assert_eq!(a.weights(), b.weights());
    }

    #[test]
    fn weight_round_trip_preserves_predictions() {
        let (data, labels) = two_blobs();
        let model = MultinomialLogistic::fit(&data, &labels, 2).unwrap();
        let restored = MultinomialLogistic::from_weights(model.weights().to_vec()).unwrap();
        for x in &data {
            assert_eq!(model.predict(x).unwrap(), restored.predict(x).unwrap());
        }
    }

    #[test]
    fn four_class_recovery() {
        // Standardized-scale inputs, matching what the backend registry
        // feeds this model (its features always pass through the scaler);
        // the default step size is tuned for that scale.
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for c in 0..4usize {
            for i in 0..8 {
                let jitter = i as f64 * 0.03;
                data.push(vec![
                    c as f64 - 1.5 + jitter,
                    (c as f64 - 1.5) * 0.5 - jitter,
                ]);
                labels.push(c);
            }
        }
        let model = MultinomialLogistic::fit(&data, &labels, 4).unwrap();
        let pred: Vec<usize> = data.iter().map(|x| model.predict(x).unwrap()).collect();
        let correct = pred.iter().zip(&labels).filter(|(p, l)| p == l).count();
        assert!(
            correct * 10 >= labels.len() * 9,
            "{correct}/{}",
            labels.len()
        );
    }

    #[test]
    fn validation_errors() {
        assert!(MultinomialLogistic::fit(&[], &[], 2).is_err());
        let data = vec![vec![1.0]];
        assert!(MultinomialLogistic::fit(&data, &[0, 1], 2).is_err());
        assert!(MultinomialLogistic::fit(&data, &[0], 0).is_err());
        assert!(MultinomialLogistic::fit(&data, &[5], 2).is_err());
        let ragged = vec![vec![1.0], vec![1.0, 2.0]];
        assert!(MultinomialLogistic::fit(&ragged, &[0, 1], 2).is_err());
        assert!(MultinomialLogistic::from_weights(vec![]).is_err());
        assert!(MultinomialLogistic::from_weights(vec![vec![1.0]]).is_err());
        let model =
            MultinomialLogistic::from_weights(vec![vec![1.0, 0.0], vec![-1.0, 0.0]]).unwrap();
        assert!(model.predict(&[1.0, 2.0]).is_err());
    }
}
