//! Principal component analysis (power iteration with deflation).
//!
//! Not part of the paper's pipeline — the paper selects raw features by
//! Laplacian score — but the obvious alternative for the same job, so the
//! ablation harness compares against it. Implemented with power iteration
//! so no external linear-algebra dependency is needed.

use crate::error::MlError;

/// A fitted PCA projection.
#[derive(Debug, Clone, PartialEq)]
pub struct Pca {
    mean: Vec<f64>,
    components: Vec<Vec<f64>>,
    explained_variance: Vec<f64>,
}

impl Pca {
    /// Fits `n_components` principal components to `data` (rows are
    /// samples). Components are extracted one at a time by power iteration
    /// on the covariance matrix with deflation.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`] for no samples,
    /// [`MlError::DimensionMismatch`] for ragged rows, and
    /// [`MlError::InvalidParameter`] if `n_components` is zero or exceeds
    /// the dimensionality.
    pub fn fit(data: &[Vec<f64>], n_components: usize) -> Result<Pca, MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyDataset);
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
        if n_components == 0 || n_components > dim {
            return Err(MlError::InvalidParameter {
                name: "n_components",
                constraint: "must be in 1..=dimensionality",
            });
        }
        let n = data.len() as f64;
        let mut mean = vec![0.0; dim];
        for row in data {
            for (m, &v) in mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        // Centered data copy.
        let centered: Vec<Vec<f64>> = data
            .iter()
            .map(|row| row.iter().zip(&mean).map(|(&v, &m)| v - m).collect())
            .collect();

        // Covariance-times-vector without materializing the covariance:
        // C v = Xᵀ (X v) / n.
        let cov_mul = |v: &[f64], deflated: &[(Vec<f64>, f64)]| -> Vec<f64> {
            let mut out = vec![0.0; dim];
            for row in &centered {
                let dot: f64 = row.iter().zip(v).map(|(&a, &b)| a * b).sum();
                for (o, &r) in out.iter_mut().zip(row) {
                    *o += dot * r;
                }
            }
            for o in &mut out {
                *o /= n;
            }
            // Deflate previously found components.
            for (comp, lambda) in deflated {
                let dot: f64 = comp.iter().zip(v).map(|(&a, &b)| a * b).sum();
                for (o, &c) in out.iter_mut().zip(comp) {
                    *o -= lambda * dot * c;
                }
            }
            out
        };

        let mut found: Vec<(Vec<f64>, f64)> = Vec::new();
        for k in 0..n_components {
            // Deterministic start vector, varied per component.
            let mut v: Vec<f64> = (0..dim)
                .map(|i| ((i as f64 + 1.0) * (k as f64 + 1.0) * 0.7).sin() + 0.01)
                .collect();
            normalize(&mut v);
            let mut lambda = 0.0;
            for _ in 0..300 {
                let mut w = cov_mul(&v, &found);
                let norm = normalize(&mut w);
                let delta: f64 = w
                    .iter()
                    .zip(&v)
                    .map(|(&a, &b)| (a - b).abs())
                    .fold(0.0, f64::max);
                v = w;
                lambda = norm;
                if delta < 1e-12 {
                    break;
                }
            }
            found.push((v, lambda.max(0.0)));
        }
        let (components, explained_variance): (Vec<Vec<f64>>, Vec<f64>) = found.into_iter().unzip();
        Ok(Pca {
            mean,
            components,
            explained_variance,
        })
    }

    /// Projects one sample onto the fitted components.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] for a wrong-width sample.
    pub fn transform_sample(&self, sample: &[f64]) -> Result<Vec<f64>, MlError> {
        if sample.len() != self.mean.len() {
            return Err(MlError::DimensionMismatch {
                expected: self.mean.len(),
                actual: sample.len(),
            });
        }
        let centered: Vec<f64> = sample
            .iter()
            .zip(&self.mean)
            .map(|(&v, &m)| v - m)
            .collect();
        Ok(self
            .components
            .iter()
            .map(|c| c.iter().zip(&centered).map(|(&a, &b)| a * b).sum())
            .collect())
    }

    /// Projects a batch of samples.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Pca::transform_sample`].
    pub fn transform(&self, data: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, MlError> {
        data.iter().map(|r| self.transform_sample(r)).collect()
    }

    /// Variance captured by each component, in extraction order.
    pub fn explained_variance(&self) -> &[f64] {
        &self.explained_variance
    }

    /// The component vectors (unit length, mutually orthogonal).
    pub fn components(&self) -> &[Vec<f64>] {
        &self.components
    }
}

fn normalize(v: &mut [f64]) -> f64 {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Data stretched along the (1, 1) diagonal with small orthogonal noise.
    fn diagonal_data() -> Vec<Vec<f64>> {
        (0..40)
            .map(|i| {
                let t = (i as f64 - 20.0) / 4.0;
                let noise = ((i * 13 % 7) as f64 - 3.0) / 30.0;
                vec![t + noise, t - noise]
            })
            .collect()
    }

    #[test]
    fn first_component_finds_the_diagonal() {
        let pca = Pca::fit(&diagonal_data(), 2).unwrap();
        let c0 = &pca.components()[0];
        // ±(1,1)/√2 up to sign.
        let expect = std::f64::consts::FRAC_1_SQRT_2;
        assert!(
            (c0[0].abs() - expect).abs() < 0.02 && (c0[1].abs() - expect).abs() < 0.02,
            "{c0:?}"
        );
        assert!(
            pca.explained_variance()[0] > 10.0 * pca.explained_variance()[1],
            "{:?}",
            pca.explained_variance()
        );
    }

    #[test]
    fn components_are_orthonormal() {
        let pca = Pca::fit(&diagonal_data(), 2).unwrap();
        let c = pca.components();
        let dot: f64 = c[0].iter().zip(&c[1]).map(|(&a, &b)| a * b).sum();
        assert!(dot.abs() < 1e-6, "dot {dot}");
        for comp in c {
            let norm: f64 = comp.iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn transform_centers_and_projects() {
        let data = diagonal_data();
        let pca = Pca::fit(&data, 1).unwrap();
        let projected = pca.transform(&data).unwrap();
        // Projection mean is ~0 (centering).
        let mean: f64 = projected.iter().map(|p| p[0]).sum::<f64>() / projected.len() as f64;
        assert!(mean.abs() < 1e-9);
        // Projection variance equals the first eigenvalue.
        let var: f64 = projected.iter().map(|p| p[0] * p[0]).sum::<f64>() / projected.len() as f64;
        assert!(
            (var - pca.explained_variance()[0]).abs() < 0.05 * var,
            "{var} vs {:?}",
            pca.explained_variance()
        );
    }

    #[test]
    fn validation_errors() {
        assert!(Pca::fit(&[], 1).is_err());
        let data = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        assert!(Pca::fit(&data, 0).is_err());
        assert!(Pca::fit(&data, 3).is_err());
        let ragged = vec![vec![1.0], vec![1.0, 2.0]];
        assert!(Pca::fit(&ragged, 1).is_err());
        let pca = Pca::fit(&data, 1).unwrap();
        assert!(pca.transform_sample(&[1.0]).is_err());
    }

    #[test]
    fn constant_data_has_zero_variance_components() {
        let data = vec![vec![3.0, 5.0]; 8];
        let pca = Pca::fit(&data, 2).unwrap();
        assert!(pca.explained_variance().iter().all(|&v| v.abs() < 1e-12));
        let t = pca.transform_sample(&[3.0, 5.0]).unwrap();
        assert!(t.iter().all(|&v| v.abs() < 1e-9));
    }
}
