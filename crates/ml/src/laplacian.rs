//! Laplacian-score feature selection.
//!
//! "In order to reduce the computational load of the model, we use the
//! Laplacian score to measure the importance of features, and save the top
//! 25 features" (paper §IV-C-2). The Laplacian score (He, Cai & Niyogi,
//! 2005) is unsupervised: features that vary smoothly over the k-nearest-
//! neighbour graph of the samples (strong locality preservation) score low
//! and are deemed important — a natural fit for a k-means back end.

use crate::distance::squared_euclidean;
use crate::error::MlError;

/// Neighbours of each sample in the kNN graph the score is measured on
/// (capped at `n − 1` for small sample sets).
pub const NEIGHBORS: usize = 15;

/// Redundancy cut of [`select_top_features`]: a feature whose absolute
/// Pearson correlation with an already-selected one exceeds this is
/// skipped.
pub const MAX_CORR: f64 = 0.99;

const _: () = assert!(NEIGHBORS > 0);
const _: () = assert!(0.0 < MAX_CORR && MAX_CORR <= 1.0);

/// Computes the Laplacian score of every feature (column) of `data` on the
/// [`NEIGHBORS`]-nearest-neighbour graph, with the heat-kernel bandwidth
/// `t` in `S_ij = exp(-d²/t)` set to the mean squared neighbour distance.
/// **Lower scores indicate more important features.**
///
/// # Errors
///
/// Returns [`MlError::EmptyDataset`] for empty data,
/// [`MlError::DimensionMismatch`] for ragged rows, and
/// [`MlError::NotEnoughSamples`] if there are fewer than 2 samples.
fn laplacian_scores(data: &[Vec<f64>]) -> Result<Vec<f64>, MlError> {
    if data.is_empty() {
        return Err(MlError::EmptyDataset);
    }
    let n = data.len();
    if n < 2 {
        return Err(MlError::NotEnoughSamples {
            needed: 2,
            available: n,
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
    let k = NEIGHBORS.min(n - 1);

    // k-nearest-neighbour squared distances, sorted in one reused buffer;
    // each sample keeps an exact-size k-prefix.
    let mut neighbor_sets: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
    let mut dists: Vec<(usize, f64)> = Vec::with_capacity(n - 1);
    for (i, row) in data.iter().enumerate() {
        dists.clear();
        let others = (0..n).filter(|&j| j != i);
        dists.extend(others.map(|j| (j, squared_euclidean(row, &data[j]))));
        dists.sort_by(|a, b| a.1.total_cmp(&b.1));
        neighbor_sets.push(dists[..k].to_vec());
    }

    // Heat-kernel bandwidth.
    let t = {
        let sum: f64 = neighbor_sets
            .iter()
            .flat_map(|s| s.iter().map(|&(_, d)| d))
            .sum();
        let count = (n * k) as f64;
        (sum / count).max(1e-12)
    };

    // Symmetric sparse weight matrix (union of kNN relations).
    let mut weights: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for (i, set) in neighbor_sets.iter().enumerate() {
        for &(j, d2) in set {
            let w = (-d2 / t).exp();
            weights[i].push((j, w));
            weights[j].push((i, w));
        }
    }
    // Deduplicate (keep max weight per pair).
    for row in &mut weights {
        row.sort_by_key(|&(j, _)| j);
        row.dedup_by(|a, b| {
            if a.0 == b.0 {
                b.1 = b.1.max(a.1);
                true
            } else {
                false
            }
        });
    }

    // Degree vector D.
    let degree: Vec<f64> = weights
        .iter()
        .map(|row| row.iter().map(|&(_, w)| w).sum())
        .collect();
    let d_total: f64 = degree.iter().sum();

    let mut scores = Vec::with_capacity(dim);
    for r in 0..dim {
        let f: Vec<f64> = data.iter().map(|row| row[r]).collect();
        // Remove the degree-weighted mean: f̃ = f - (fᵀD1 / 1ᵀD1) 1.
        let weighted_mean: f64 =
            f.iter().zip(&degree).map(|(&v, &d)| v * d).sum::<f64>() / d_total.max(1e-300);
        let ft: Vec<f64> = f.iter().map(|&v| v - weighted_mean).collect();
        // A (numerically) constant feature carries no locality information:
        // score it as infinitely unimportant rather than dividing 0 by 0.
        let spread = ft.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        if spread <= 1e-12 * (1.0 + weighted_mean.abs()) {
            scores.push(f64::INFINITY);
            continue;
        }
        // f̃ᵀ L f̃ = ½ Σ_ij w_ij (f̃_i - f̃_j)².
        let mut num = 0.0;
        for (i, row) in weights.iter().enumerate() {
            for &(j, w) in row {
                let d = ft[i] - ft[j];
                num += 0.5 * w * d * d;
            }
        }
        // f̃ᵀ D f̃.
        let den: f64 = ft.iter().zip(&degree).map(|(&v, &d)| v * v * d).sum();
        scores.push(if den > 1e-300 {
            num / den
        } else {
            f64::INFINITY
        });
    }
    Ok(scores)
}

/// Indices of the `top_k` most important features by Laplacian score with
/// **redundancy pruning**: walking the score ranking, a feature is skipped
/// when its absolute Pearson correlation with an already-selected feature
/// exceeds [`MAX_CORR`]. Without pruning, a block of mutually correlated
/// features (e.g. adjacent spectrum bins) can crowd out everything else —
/// they dominate the sample graph and therefore look maximally "smooth" to
/// the score.
///
/// If fewer than `top_k` features survive pruning, the best-scoring
/// remaining features are appended regardless of correlation.
///
/// # Errors
///
/// Returns [`MlError::EmptyDataset`] for empty data,
/// [`MlError::DimensionMismatch`] for ragged rows,
/// [`MlError::NotEnoughSamples`] if there are fewer than 2 samples, and
/// [`MlError::InvalidParameter`] if `top_k == 0`.
pub fn select_top_features(data: &[Vec<f64>], top_k: usize) -> Result<Vec<usize>, MlError> {
    if top_k == 0 {
        return Err(MlError::InvalidParameter {
            name: "top_k",
            constraint: "must be at least 1",
        });
    }
    let scores = laplacian_scores(data)?;
    let dim = scores.len();
    let n = data.len() as f64;
    // Column means/stds for correlation tests.
    let mut means = vec![0.0; dim];
    for row in data {
        for (m, &v) in means.iter_mut().zip(row) {
            *m += v;
        }
    }
    for m in &mut means {
        *m /= n;
    }
    let col = |d: usize| -> Vec<f64> { data.iter().map(|r| r[d] - means[d]).collect() };
    // On mean-centred columns cosine similarity *is* Pearson correlation;
    // the shared audited implementation in `distance` replaces the inline
    // duplicate this module used to carry (identical operation order, so
    // selections are bit-identical).
    let corr = crate::distance::cosine_similarity;
    let mut order: Vec<usize> = (0..dim).collect();
    order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    let want = top_k.min(dim);
    let mut selected: Vec<usize> = Vec::with_capacity(want);
    let mut selected_cols: Vec<Vec<f64>> = Vec::with_capacity(want);
    let mut skipped: Vec<usize> = Vec::new();
    for &d in &order {
        if selected.len() == want {
            break;
        }
        let c = col(d);
        if selected_cols.iter().any(|sc| corr(sc, &c).abs() > MAX_CORR) {
            skipped.push(d);
            continue;
        }
        selected.push(d);
        selected_cols.push(c);
    }
    // Backfill from skipped (in score order) if pruning was too aggressive.
    for d in skipped {
        if selected.len() == want {
            break;
        }
        selected.push(d);
    }
    Ok(selected)
}

/// Projects every sample onto the selected feature indices.
///
/// # Errors
///
/// Returns [`MlError::DimensionMismatch`] if any index is out of range for
/// any sample.
pub fn project(data: &[Vec<f64>], indices: &[usize]) -> Result<Vec<Vec<f64>>, MlError> {
    data.iter()
        .map(|row| {
            indices
                .iter()
                .map(|&i| {
                    row.get(i).copied().ok_or(MlError::DimensionMismatch {
                        expected: i + 1,
                        actual: row.len(),
                    })
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two blobs of 20 samples separated along dimension 0, so each
    /// sample's [`NEIGHBORS`] nearest neighbours lie in its own blob;
    /// dimension 1 is uninformative noise; dimension 2 is constant.
    fn structured_data() -> Vec<Vec<f64>> {
        (0..40)
            .map(|i| {
                let noise = ((i * 37 % 11) as f64) / 11.0 - 0.5;
                let blob = if i < 20 { 0.0 } else { 10.0 };
                let jitter = ((i * 13 % 7) as f64) / 20.0;
                vec![blob + jitter, noise * 8.0, 3.0]
            })
            .collect()
    }

    #[test]
    fn cluster_aligned_feature_scores_lowest() {
        let data = structured_data();
        let scores = laplacian_scores(&data).unwrap();
        assert!(
            scores[0] < scores[1],
            "informative {} vs noise {}",
            scores[0],
            scores[1]
        );
    }

    #[test]
    fn top_selection_prefers_informative_feature() {
        let data = structured_data();
        let top = select_top_features(&data, 1).unwrap();
        assert_eq!(top, vec![0]);
    }

    #[test]
    fn selection_is_bounded_by_dimensionality() {
        let data = structured_data();
        let top = select_top_features(&data, 10).unwrap();
        assert_eq!(top.len(), 3);
    }

    #[test]
    fn a_correlated_copy_is_skipped_then_backfilled() {
        // Column 3 is column 0 scaled: correlation 1 > MAX_CORR.
        let data: Vec<Vec<f64>> = structured_data()
            .into_iter()
            .map(|mut row| {
                row.push(2.0 * row[0]);
                row
            })
            .collect();
        // The copy ranks with column 0, but is skipped for the noise and
        // the constant column, then backfilled last.
        let top = select_top_features(&data, 4).unwrap();
        assert!(top[0] == 0 || top[0] == 3, "{top:?}");
        assert_eq!(top[1..], [1, 2, 3 - top[0]], "{top:?}");
    }

    #[test]
    fn project_extracts_columns() {
        let data = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        let p = project(&data, &[2, 0]).unwrap();
        assert_eq!(p, vec![vec![3.0, 1.0], vec![6.0, 4.0]]);
        assert!(project(&data, &[5]).is_err());
    }

    #[test]
    fn error_cases() {
        assert!(matches!(laplacian_scores(&[]), Err(MlError::EmptyDataset)));
        assert!(matches!(
            laplacian_scores(&[vec![1.0]]),
            Err(MlError::NotEnoughSamples { .. })
        ));
        let ragged = vec![vec![1.0], vec![1.0, 2.0]];
        assert!(laplacian_scores(&ragged).is_err());
        let ok = vec![vec![1.0], vec![2.0]];
        assert!(select_top_features(&ok, 0).is_err());
        assert!(select_top_features(&ragged, 1).is_err());
    }

    #[test]
    fn scores_are_finite_for_reasonable_data() {
        let data = structured_data();
        let scores = laplacian_scores(&data).unwrap();
        // Constant feature has zero variance → infinite score (unimportant).
        assert!(scores[0].is_finite());
        assert!(scores[1].is_finite());
        assert!(scores[2].is_infinite());
    }
}
