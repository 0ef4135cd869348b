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

/// Maximum Lloyd iterations per restart of [`KMeans::fit`].
const MAX_ITERS: usize = 300;

/// Convergence tolerance on summed centroid movement (squared distance).
const TOL: f64 = 1e-10;

const _: () = assert!(MAX_ITERS > 0 && TOL >= 0.0);

/// Configuration for [`KMeans::fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansConfig {
    /// Number of clusters `k`.
    pub k: usize,
    /// Number of k-means++ restarts; the lowest-inertia run wins.
    pub n_init: usize,
    /// RNG seed for deterministic seeding.
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            k: 4,
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
}

impl KMeans {
    /// Fits k-means to `data` (rows are samples).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`] for empty data,
    /// [`MlError::DimensionMismatch`] for ragged rows,
    /// [`MlError::InvalidParameter`] if `k == 0` or `n_init == 0`, and
    /// [`MlError::NotEnoughSamples`] if `k` exceeds the sample count.
    pub fn fit(data: &[Vec<f64>], config: &KMeansConfig) -> Result<KMeans, MlError> {
        validate(data, config.k)?;
        if config.n_init == 0 {
            return Err(MlError::InvalidParameter {
                name: "n_init",
                constraint: "must be positive",
            });
        }
        let mut best: Option<KMeans> = None;
        for restart in 0..config.n_init {
            let mut rng = DetRng::seed_from_u64(config.seed.wrapping_add(restart as u64));
            let run = lloyd(data, kmeanspp_init(data, config.k, &mut rng), MAX_ITERS);
            if best.as_ref().is_none_or(|b| run.inertia < b.inertia) {
                best = Some(run);
            }
        }
        best.ok_or(MlError::InvalidParameter {
            name: "n_init",
            constraint: "must be positive",
        })
    }

    /// One Lloyd step from caller-supplied centres (the paper's
    /// protocol: "we have given four cluster centers according to the
    /// four different states"): each centre moves to the mean of the
    /// samples nearest to it, and the samples are then labelled by the
    /// moved centres. No restarts, fully deterministic; a centre no
    /// sample chose is re-seeded at the sample farthest from its nearest
    /// centre.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`] for empty data,
    /// [`MlError::InvalidParameter`] for no centres,
    /// [`MlError::DimensionMismatch`] for ragged rows or a centre whose
    /// width differs from the data, and [`MlError::NotEnoughSamples`] for
    /// more centres than samples.
    pub fn refine(data: &[Vec<f64>], initial: Vec<Vec<f64>>) -> Result<KMeans, MlError> {
        validate(data, initial.len())?;
        let dim = data[0].len();
        if let Some(c) = initial.iter().find(|c| c.len() != dim) {
            return Err(MlError::DimensionMismatch {
                expected: dim,
                actual: c.len(),
            });
        }
        Ok(lloyd(data, initial, 1))
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

/// Checks that `data` is a non-empty rectangular set of at least `k`
/// samples with at least one dimension, and that `k` is positive.
fn validate(data: &[Vec<f64>], k: usize) -> Result<(), MlError> {
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
    if k == 0 {
        return Err(MlError::InvalidParameter {
            name: "k",
            constraint: "must be positive",
        });
    }
    if data.len() < k {
        return Err(MlError::NotEnoughSamples {
            needed: k,
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

/// Lloyd descent from `centroids`: at most `max_iters` assignment/update
/// rounds, stopping early once the centres move by at most [`TOL`].
fn lloyd(data: &[Vec<f64>], mut centroids: Vec<Vec<f64>>, max_iters: usize) -> KMeans {
    let dim = data[0].len();
    let k = centroids.len();
    let mut labels = vec![0usize; data.len()];
    for _ in 0..max_iters {
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
        if movement <= TOL {
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
    fn refine_moves_each_centre_to_its_assigned_mean() {
        let data = vec![
            vec![0.0, 0.0],
            vec![2.0, 0.0],
            vec![10.0, 10.0],
            vec![12.0, 14.0],
        ];
        let model = KMeans::refine(&data, vec![vec![1.0, 1.0], vec![9.0, 9.0]]).unwrap();
        assert_eq!(model.centroids(), &[vec![1.0, 0.0], vec![11.0, 12.0]]);
        assert_eq!(model.labels(), &[0, 0, 1, 1]);
        // Inertia is measured against the moved centres: 1 + 1 + 5 + 5.
        assert_eq!(model.inertia(), 12.0);
    }

    #[test]
    fn refine_takes_exactly_one_lloyd_step() {
        // From [0] and [1], one step moves the second centre to the mean of
        // 1, 2 and 10; a second step would pull 1 and 2 over to the first.
        let data = vec![vec![0.0], vec![1.0], vec![2.0], vec![10.0]];
        let model = KMeans::refine(&data, vec![vec![0.0], vec![1.0]]).unwrap();
        assert_eq!(model.centroids(), &[vec![0.0], vec![13.0 / 3.0]]);
        // Labels come from the moved centres.
        assert_eq!(model.labels(), &[0, 0, 0, 1]);
    }

    #[test]
    fn refine_reseeds_an_empty_cluster_at_the_farthest_sample() {
        // Every sample is nearest the first centre, which moves to 1.5; the
        // second, far away, gets none and is re-seeded at the sample
        // farthest from its nearest centre: [6].
        let data = vec![vec![-1.0], vec![0.0], vec![1.0], vec![6.0]];
        let model = KMeans::refine(&data, vec![vec![0.0], vec![100.0]]).unwrap();
        assert_eq!(model.centroids(), &[vec![1.5], vec![6.0]]);
        assert_eq!(model.labels(), &[0, 0, 0, 1]);
    }

    #[test]
    fn refine_rejects_bad_centres() {
        let data = vec![vec![0.0, 0.0], vec![1.0, 1.0]];
        assert!(matches!(
            KMeans::refine(&data, vec![]),
            Err(MlError::InvalidParameter { .. })
        ));
        assert!(matches!(
            KMeans::refine(&data, vec![vec![0.0]]),
            Err(MlError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            KMeans::refine(&data, vec![vec![0.0, 0.0]; 3]),
            Err(MlError::NotEnoughSamples { .. })
        ));
        assert!(matches!(
            KMeans::refine(&[], vec![vec![0.0]]),
            Err(MlError::EmptyDataset)
        ));
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
