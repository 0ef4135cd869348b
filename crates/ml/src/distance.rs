//! Distance functions.
//!
//! The paper's Eq. 11 measures sample-to-centroid similarity with the
//! Euclidean distance `dis(Xᵢ, Cⱼ) = √Σₜ (Xᵢₜ − Cⱼₜ)²`.

/// Squared Euclidean distance between two equal-length vectors.
///
/// # Panics
///
/// Panics in debug builds if the lengths differ.
#[inline]
pub fn squared_euclidean(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Euclidean distance (paper Eq. 11).
///
/// # Example
///
/// ```
/// use earsonar_ml::distance::euclidean;
/// assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
/// ```
#[inline]
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    squared_euclidean(a, b).sqrt()
}

/// Cosine similarity `cos(a, b)`, clamped to `[-1, 1]`; zero vectors have
/// similarity 0 with everything.
///
/// This is the one audited implementation behind both
/// [`cosine`] distance and the Pearson-correlation redundancy test in
/// [`crate::laplacian::select_top_features`] (applied to
/// mean-centred columns, cosine similarity *is* Pearson correlation).
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let dot: f64 = a.iter().zip(b).map(|(&x, &y)| x * y).sum();
    let na: f64 = a.iter().map(|v| v * v).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot / (na * nb)).clamp(-1.0, 1.0)
}

/// Cosine distance `1 − cos(a, b)`; zero vectors are at distance 1 from
/// everything.
pub fn cosine(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let dot: f64 = a.iter().zip(b).map(|(&x, &y)| x * y).sum();
    let na: f64 = a.iter().map(|v| v * v).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        return 1.0;
    }
    1.0 - (dot / (na * nb)).clamp(-1.0, 1.0)
}

/// Index of the row of `points` closest (Euclidean) to `query`, with the
/// distance. Returns `None` when `points` is empty.
pub fn nearest(query: &[f64], points: &[Vec<f64>]) -> Option<(usize, f64)> {
    points
        .iter()
        .enumerate()
        .map(|(i, p)| (i, squared_euclidean(query, p)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(i, d2)| (i, d2.sqrt()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_basics() {
        assert_eq!(euclidean(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert_eq!(euclidean(&[0.0], &[5.0]), 5.0);
        assert_eq!(squared_euclidean(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn euclidean_is_symmetric() {
        let a = [1.0, -2.0, 3.5];
        let b = [0.0, 4.0, -1.0];
        assert_eq!(euclidean(&a, &b), euclidean(&b, &a));
    }

    #[test]
    fn triangle_inequality_spot_check() {
        let a = [0.0, 0.0];
        let b = [1.0, 1.0];
        let c = [2.0, 0.5];
        assert!(euclidean(&a, &c) <= euclidean(&a, &b) + euclidean(&b, &c) + 1e-12);
    }

    #[test]
    fn cosine_similarity_matches_cosine_distance() {
        let a = [1.0, -2.0, 3.5];
        let b = [0.5, 4.0, -1.0];
        assert_eq!(cosine(&a, &b), 1.0 - cosine_similarity(&a, &b));
        // Zero-vector conventions: similarity 0, distance 1.
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 1.0);
        // Centred columns: cosine similarity is Pearson correlation.
        assert!((cosine_similarity(&[-1.0, 0.0, 1.0], &[-2.0, 0.0, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_properties() {
        assert!(cosine(&[1.0, 0.0], &[2.0, 0.0]).abs() < 1e-12); // parallel
        assert!((cosine(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-12); // orthogonal
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) - 2.0).abs() < 1e-12); // anti-parallel
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 1.0); // zero convention
    }

    #[test]
    fn nearest_finds_closest() {
        let pts = vec![vec![0.0, 0.0], vec![5.0, 5.0], vec![1.0, 1.0]];
        let (i, d) = nearest(&[1.2, 0.9], &pts).unwrap();
        assert_eq!(i, 2);
        assert!(d < 0.3);
        assert_eq!(nearest(&[0.0], &[]), None);
    }
}
