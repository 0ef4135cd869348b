//! Randomized-property tests for the learning substrate.
//!
//! Formerly `proptest`-based; the hermetic (no-crates.io) build ports each
//! property to a deterministic loop over seeded [`DetRng`] inputs.

use earsonar_dsp::rng::DetRng;
use earsonar_ml::crossval::leave_one_group_out;
use earsonar_ml::distance::{cosine, euclidean};
use earsonar_ml::kmeans::{KMeans, KMeansConfig};
use earsonar_ml::knn::KnnClassifier;
use earsonar_ml::metrics::ConfusionMatrix;
use earsonar_ml::scaler::StandardScaler;
use earsonar_ml::silhouette::silhouette_samples;

fn dataset(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
    // Deterministic pseudo-random points, mildly clustered.
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| {
            let center = (i % 3) as f64 * 5.0;
            (0..dim).map(|_| center + next() * 2.0 - 1.0).collect()
        })
        .collect()
}

#[test]
fn distances_satisfy_metric_basics() {
    for seed in 0..64u64 {
        let mut rng = DetRng::seed_from_u64(seed);
        let n = rng.range_usize(1, 16);
        let a: Vec<f64> = (0..n).map(|_| rng.uniform(-100.0, 100.0)).collect();
        let b: Vec<f64> = (0..n).map(|_| rng.uniform(-100.0, 100.0)).collect();
        assert!(euclidean(&a, &b) >= 0.0, "seed {seed}");
        assert!(euclidean(&a, &a) == 0.0, "seed {seed}");
        assert!(
            (euclidean(&a, &b) - euclidean(&b, &a)).abs() < 1e-12,
            "seed {seed}"
        );
        let c = cosine(&a, &b);
        assert!((0.0..=2.0 + 1e-12).contains(&c), "seed {seed}");
    }
}

#[test]
fn kmeans_labels_are_consistent_with_centroids() {
    for seed in 0..32u64 {
        let mut rng = DetRng::seed_from_u64(seed);
        let n = rng.range_usize(8, 40);
        let data = dataset(n, 3, seed);
        let model = KMeans::fit(
            &data,
            &KMeansConfig {
                k: 3.min(n),
                n_init: 3,
                seed,
            },
        )
        .unwrap();
        // Every sample's stored label is its nearest centroid.
        for (x, &l) in data.iter().zip(model.labels()) {
            assert_eq!(model.predict(x), l, "seed {seed}");
        }
        assert!(model.inertia() >= 0.0, "seed {seed}");
    }
}

#[test]
fn kmeans_inertia_not_increased_by_more_clusters() {
    for seed in 0..24u64 {
        let data = dataset(30, 2, seed);
        let fit = |k: usize| {
            KMeans::fit(
                &data,
                &KMeansConfig {
                    k,
                    n_init: 8,
                    seed: 1,
                },
            )
            .unwrap()
            .inertia()
        };
        let i2 = fit(2);
        let i4 = fit(4);
        assert!(i4 <= i2 + 1e-6, "seed {seed}: k=4 {i4} vs k=2 {i2}");
    }
}

#[test]
fn scaler_transform_is_invertible_in_distribution() {
    for seed in 0..48u64 {
        let data = dataset(24, 4, seed);
        let (scaler, scaled) = StandardScaler::fit_transform(&data).unwrap();
        // Mean ~0, variance ~1 per dimension.
        for d in 0..4 {
            let col: Vec<f64> = scaled.iter().map(|r| r[d]).collect();
            let mean = col.iter().sum::<f64>() / col.len() as f64;
            assert!(mean.abs() < 1e-9, "seed {seed}");
        }
        // Re-applying the fitted transform to the original data matches.
        let again = scaler.transform(&data).unwrap();
        assert_eq!(scaled, again, "seed {seed}");
    }
}

#[test]
fn knn_memorizes_training_set() {
    for seed in 0..48u64 {
        let data = dataset(18, 3, seed);
        let labels: Vec<usize> = (0..18).map(|i| i % 3).collect();
        let knn = KnnClassifier::fit(&data, &labels, 1, 3).unwrap();
        for (x, &l) in data.iter().zip(&labels) {
            assert_eq!(knn.predict(x).unwrap(), l, "seed {seed}");
        }
    }
}

#[test]
fn confusion_matrix_counts_conserve() {
    for seed in 0..64u64 {
        let mut rng = DetRng::seed_from_u64(seed);
        let n = rng.range_usize(4, 64);
        let labels: Vec<usize> = (0..n).map(|_| rng.below(4)).collect();
        let preds: Vec<usize> = (0..n).map(|_| rng.below(4)).collect();
        let m = ConfusionMatrix::from_labels(&labels, &preds, 4).unwrap();
        assert_eq!(m.total(), labels.len(), "seed {seed}");
        // Accuracy is a mean of indicator variables.
        assert!((0.0..=1.0).contains(&m.accuracy()), "seed {seed}");
        for c in 0..4 {
            assert!((0.0..=1.0).contains(&m.precision(c)), "seed {seed}");
            assert!((0.0..=1.0).contains(&m.recall(c)), "seed {seed}");
            assert!((0.0..=1.0).contains(&m.f1(c)), "seed {seed}");
            assert!((0.0..=1.0).contains(&m.far(c)), "seed {seed}");
            assert!((0.0..=1.0).contains(&m.frr(c)), "seed {seed}");
        }
    }
}

#[test]
fn logo_splits_partition_samples() {
    let mut tested = 0;
    for seed in 0..96u64 {
        let mut rng = DetRng::seed_from_u64(seed);
        let n = rng.range_usize(6, 48);
        let groups: Vec<usize> = (0..n).map(|_| rng.below(6)).collect();
        let distinct = {
            let mut g = groups.clone();
            g.sort_unstable();
            g.dedup();
            g.len()
        };
        if distinct < 2 {
            continue;
        }
        tested += 1;
        let splits = leave_one_group_out(&groups).unwrap();
        let mut covered = vec![0usize; groups.len()];
        for s in &splits {
            for &i in &s.test {
                covered[i] += 1;
            }
            // Train/test never share a group.
            for &t in &s.test {
                for &tr in &s.train {
                    assert!(groups[t] != groups[tr], "seed {seed}");
                }
            }
        }
        assert!(covered.iter().all(|&c| c == 1), "seed {seed}");
    }
    assert!(tested >= 48, "too many rejected cases");
}

#[test]
fn silhouette_values_are_bounded() {
    for seed in 0..24u64 {
        let data = dataset(20, 2, seed);
        let labels: Vec<usize> = (0..20).map(|i| i % 3).collect();
        let s = silhouette_samples(&data, &labels).unwrap();
        assert!(s.iter().all(|v| (-1.0..=1.0).contains(v)), "seed {seed}");
    }
}
