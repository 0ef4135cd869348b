//! k-means clustering.
//!
//! "The core of K-means clustering is to divide each data vector into the
//! cluster represented by the nearest cluster center point" (paper
//! §IV-C-3). EarSonar clusters its 25-dimensional feature vectors into
//! `k = 4` effusion states, minimizing the summed squared Euclidean
//! distance of Eq. 12. This implementation adds k-means++ seeding and
//! restarts for robustness; with a fixed seed the result is deterministic.

use crate::distance::squared_euclidean;
use crate::error::MlError;
use earsonar_dsp::rng::DetRng;

/// Configuration for [`KMeans::fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansConfig {
    /// Number of clusters `k`.
    pub k: usize,
    /// Maximum Lloyd iterations per restart.
    pub max_iters: usize,
    /// Convergence tolerance on centroid movement (squared distance).
    pub tol: f64,
    /// Number of k-means++ restarts; the lowest-inertia run wins.
    pub n_init: usize,
    /// RNG seed for deterministic seeding.
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            k: 4,
            max_iters: 300,
            tol: 1e-10,
            n_init: 8,
            seed: 0x0EA5_0A45,
        }
    }
}

/// A fitted k-means model.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeans {
    centroids: Vec<Vec<f64>>,
    labels: Vec<usize>,
    inertia: f64,
    iterations: usize,
}

impl KMeans {
    /// Fits k-means to `data` (rows are samples).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`] for empty data,
    /// [`MlError::DimensionMismatch`] for ragged rows,
    /// [`MlError::InvalidParameter`] if `k == 0`, `n_init == 0`, or
    /// `max_iters == 0`, and [`MlError::NotEnoughSamples`] if `k` exceeds
    /// the sample count.
    pub fn fit(data: &[Vec<f64>], config: &KMeansConfig) -> Result<KMeans, MlError> {
        validate(data, config)?;
        let mut best: Option<KMeans> = None;
        for restart in 0..config.n_init {
            let mut rng = DetRng::seed_from_u64(config.seed.wrapping_add(restart as u64));
            let run = lloyd(data, config, &mut rng);
            if best.as_ref().is_none_or(|b| run.inertia < b.inertia) {
                best = Some(run);
            }
        }
        best.ok_or(MlError::InvalidParameter {
            name: "n_init",
            constraint: "must be positive",
        })
    }

    /// Fits k-means starting from caller-supplied initial centroids (the
    /// paper's protocol: "we have given four cluster centers according to
    /// the four different states"). Runs a single Lloyd descent from the
    /// given centres — no random restarts, fully deterministic.
    ///
    /// # Errors
    ///
    /// Same conditions as [`KMeans::fit`], plus
    /// [`MlError::DimensionMismatch`] if a centroid's width differs from
    /// the data and [`MlError::InvalidParameter`] if the centroid count
    /// differs from `config.k`.
    pub fn fit_with_init(
        data: &[Vec<f64>],
        initial: &[Vec<f64>],
        config: &KMeansConfig,
    ) -> Result<KMeans, MlError> {
        validate(data, config)?;
        if initial.len() != config.k {
            return Err(MlError::InvalidParameter {
                name: "initial",
                constraint: "must supply exactly k initial centroids",
            });
        }
        let dim = data[0].len();
        for c in initial {
            if c.len() != dim {
                return Err(MlError::DimensionMismatch {
                    expected: dim,
                    actual: c.len(),
                });
            }
        }
        Ok(lloyd_from(data, initial.to_vec(), config))
    }

    /// Reassembles a predict-only model from persisted centroids (training
    /// labels and inertia are not recoverable and read as empty/zero).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`] for no centroids and
    /// [`MlError::DimensionMismatch`] for ragged centroid widths.
    pub fn from_centroids(centroids: Vec<Vec<f64>>) -> Result<KMeans, MlError> {
        let first = centroids.first().ok_or(MlError::EmptyDataset)?;
        let dim = first.len();
        if dim == 0 {
            return Err(MlError::InvalidParameter {
                name: "centroids",
                constraint: "centroids must have at least one dimension",
            });
        }
        for c in &centroids {
            if c.len() != dim {
                return Err(MlError::DimensionMismatch {
                    expected: dim,
                    actual: c.len(),
                });
            }
        }
        Ok(KMeans {
            centroids,
            labels: Vec::new(),
            inertia: 0.0,
            iterations: 0,
        })
    }

    /// Cluster centroids, one row per cluster.
    pub fn centroids(&self) -> &[Vec<f64>] {
        &self.centroids
    }

    /// Training-sample labels (parallel to the fitted data).
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Final inertia: the paper's Eq. 12 objective
    /// `Σᵢ Σ_{x∈Cᵢ} dist(cᵢ, x)²`.
    pub fn inertia(&self) -> f64 {
        self.inertia
    }

    /// Lloyd iterations executed by the winning restart.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Index of the nearest centroid to `sample`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the dimensionality differs from training.
    pub fn predict(&self, sample: &[f64]) -> usize {
        nearest_centroid(sample, &self.centroids).0
    }
}

fn validate(data: &[Vec<f64>], config: &KMeansConfig) -> Result<(), MlError> {
    if data.is_empty() {
        return Err(MlError::EmptyDataset);
    }
    let dim = data[0].len();
    if dim == 0 {
        return Err(MlError::InvalidParameter {
            name: "data",
            constraint: "samples must have at least one dimension",
        });
    }
    for row in data {
        if row.len() != dim {
            return Err(MlError::DimensionMismatch {
                expected: dim,
                actual: row.len(),
            });
        }
    }
    if config.k == 0 || config.n_init == 0 || config.max_iters == 0 {
        return Err(MlError::InvalidParameter {
            name: "k/n_init/max_iters",
            constraint: "must all be positive",
        });
    }
    if data.len() < config.k {
        return Err(MlError::NotEnoughSamples {
            needed: config.k,
            available: data.len(),
        });
    }
    Ok(())
}

fn nearest_centroid(sample: &[f64], centroids: &[Vec<f64>]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (i, c) in centroids.iter().enumerate() {
        let d = squared_euclidean(sample, c);
        if d < best.1 {
            best = (i, d);
        }
    }
    best
}

/// k-means++ seeding: the first centre is uniform, each next centre is drawn
/// with probability proportional to its squared distance from the nearest
/// existing centre.
fn kmeanspp_init(data: &[Vec<f64>], k: usize, rng: &mut DetRng) -> Vec<Vec<f64>> {
    let n = data.len();
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(data[rng.below(n)].clone());
    let mut d2: Vec<f64> = data
        .iter()
        .map(|x| squared_euclidean(x, &centroids[0]))
        .collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= 0.0 {
            // All points coincide with existing centres; pick uniformly.
            rng.below(n)
        } else {
            let mut target = rng.uniform(0.0, total);
            let mut chosen = n - 1;
            for (i, &w) in d2.iter().enumerate() {
                if target < w {
                    chosen = i;
                    break;
                }
                target -= w;
            }
            chosen
        };
        let newest = data[next].clone();
        for (di, x) in d2.iter_mut().zip(data) {
            let d = squared_euclidean(x, &newest);
            if d < *di {
                *di = d;
            }
        }
        centroids.push(newest);
    }
    centroids
}

fn lloyd(data: &[Vec<f64>], config: &KMeansConfig, rng: &mut DetRng) -> KMeans {
    let centroids = kmeanspp_init(data, config.k, rng);
    lloyd_from(data, centroids, config)
}

fn lloyd_from(data: &[Vec<f64>], mut centroids: Vec<Vec<f64>>, config: &KMeansConfig) -> KMeans {
    let dim = data[0].len();
    let k = config.k;
    let mut labels = vec![0usize; data.len()];
    let mut iterations = 0usize;
    for iter in 0..config.max_iters {
        iterations = iter + 1;
        // Assignment step.
        for (label, x) in labels.iter_mut().zip(data) {
            *label = nearest_centroid(x, &centroids).0;
        }
        // Update step.
        let mut sums = vec![vec![0.0; dim]; k];
        let mut counts = vec![0usize; k];
        for (&label, x) in labels.iter().zip(data) {
            counts[label] += 1;
            for (s, &v) in sums[label].iter_mut().zip(x) {
                *s += v;
            }
        }
        let mut movement = 0.0f64;
        for c in 0..k {
            if counts[c] == 0 {
                // Re-seed an empty cluster at the point farthest from its
                // centroid — standard empty-cluster repair.
                let far = data
                    .iter()
                    .enumerate()
                    .max_by(|(_, a), (_, b)| {
                        nearest_centroid(a, &centroids)
                            .1
                            .total_cmp(&nearest_centroid(b, &centroids).1)
                    })
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                movement += squared_euclidean(&centroids[c], &data[far]);
                centroids[c] = data[far].clone();
                continue;
            }
            let new_c: Vec<f64> = sums[c].iter().map(|s| s / counts[c] as f64).collect();
            movement += squared_euclidean(&centroids[c], &new_c);
            centroids[c] = new_c;
        }
        if movement <= config.tol {
            break;
        }
    }
    // Final assignment and inertia.
    let mut inertia = 0.0;
    for (label, x) in labels.iter_mut().zip(data) {
        let (l, d2) = nearest_centroid(x, &centroids);
        *label = l;
        inertia += d2;
    }
    KMeans {
        centroids,
        labels,
        inertia,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Vec<Vec<f64>> {
        // Four well-separated 2-D blobs of 10 points each.
        let centers = [(0.0, 0.0), (20.0, 0.0), (0.0, 20.0), (20.0, 20.0)];
        let mut data = Vec::new();
        for (cx, cy) in centers {
            for i in 0..10 {
                let dx = (i as f64 * 0.37).sin() * 0.8;
                let dy = (i as f64 * 0.71).cos() * 0.8;
                data.push(vec![cx + dx, cy + dy]);
            }
        }
        data
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let data = blobs();
        let model = KMeans::fit(
            &data,
            &KMeansConfig {
                k: 4,
                ..Default::default()
            },
        )
        .unwrap();
        // Every blob maps to a single cluster, all four distinct.
        let mut blob_labels = Vec::new();
        for b in 0..4 {
            let first = model.labels()[b * 10];
            for i in 0..10 {
                assert_eq!(model.labels()[b * 10 + i], first, "blob {b} split");
            }
            blob_labels.push(first);
        }
        blob_labels.sort_unstable();
        blob_labels.dedup();
        assert_eq!(blob_labels.len(), 4);
    }

    #[test]
    fn inertia_is_low_for_tight_blobs() {
        let data = blobs();
        let model = KMeans::fit(
            &data,
            &KMeansConfig {
                k: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(model.inertia() < 40.0, "inertia {}", model.inertia());
    }

    #[test]
    fn more_clusters_never_increase_inertia() {
        let data = blobs();
        let mut prev = f64::INFINITY;
        for k in 1..=6 {
            let model = KMeans::fit(
                &data,
                &KMeansConfig {
                    k,
                    n_init: 10,
                    ..Default::default()
                },
            )
            .unwrap();
            assert!(
                model.inertia() <= prev + 1e-9,
                "k={k}: {} > {prev}",
                model.inertia()
            );
            prev = model.inertia();
        }
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let data = blobs();
        let cfg = KMeansConfig {
            k: 4,
            seed: 42,
            ..Default::default()
        };
        let a = KMeans::fit(&data, &cfg).unwrap();
        let b = KMeans::fit(&data, &cfg).unwrap();
        assert_eq!(a.labels(), b.labels());
        assert_eq!(a.centroids(), b.centroids());
    }

    #[test]
    fn predict_matches_training_labels() {
        let data = blobs();
        let model = KMeans::fit(
            &data,
            &KMeansConfig {
                k: 4,
                ..Default::default()
            },
        )
        .unwrap();
        for (x, &l) in data.iter().zip(model.labels()) {
            assert_eq!(model.predict(x), l);
        }
    }

    #[test]
    fn validation_errors() {
        let cfg = KMeansConfig::default();
        assert!(matches!(KMeans::fit(&[], &cfg), Err(MlError::EmptyDataset)));
        let ragged = vec![vec![1.0, 2.0], vec![1.0]];
        assert!(matches!(
            KMeans::fit(&ragged, &cfg),
            Err(MlError::DimensionMismatch { .. })
        ));
        let two = vec![vec![1.0], vec![2.0]];
        assert!(matches!(
            KMeans::fit(
                &two,
                &KMeansConfig {
                    k: 4,
                    ..Default::default()
                }
            ),
            Err(MlError::NotEnoughSamples { .. })
        ));
        assert!(KMeans::fit(
            &two,
            &KMeansConfig {
                k: 0,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn from_centroids_predicts_like_the_original() {
        let data = blobs();
        let model = KMeans::fit(
            &data,
            &KMeansConfig {
                k: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let rebuilt = KMeans::from_centroids(model.centroids().to_vec()).unwrap();
        for x in &data {
            assert_eq!(model.predict(x), rebuilt.predict(x));
        }
        assert!(KMeans::from_centroids(vec![]).is_err());
        assert!(KMeans::from_centroids(vec![vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn duplicate_points_are_handled() {
        let data = vec![vec![1.0, 1.0]; 8];
        let model = KMeans::fit(
            &data,
            &KMeansConfig {
                k: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(model.inertia(), 0.0);
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let data = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
        let model = KMeans::fit(
            &data,
            &KMeansConfig {
                k: 4,
                n_init: 20,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(model.inertia() < 1e-12);
    }
}
