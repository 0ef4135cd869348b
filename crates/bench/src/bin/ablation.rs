//! Design-choice ablations (DESIGN.md): what each pipeline stage buys.
//!
//! Four variants of the detector configuration are evaluated under LOOCV:
//!
//! * full pipeline (reference),
//! * no Laplacian selection (all 105 features),
//! * no outlier removal,
//! * fewer selected features (top 10).
//!
//! Plus the headline front-end ablation (no segmentation) via the
//! baseline, a k-NN comparison classifier, a silhouette sweep over the
//! cluster count (is k = 4 supported by the data?), and the binary
//! fluid/no-fluid screening rates the clinical use case turns on.

use earsonar::detect::EarSonarDetector;
use earsonar::eval::{loocv, loocv_baseline, loocv_with, ExtractedDataset};
use earsonar::report::{pct, Table};
use earsonar::screening::binary_screening_rates;
use earsonar::EarSonarConfig;
use earsonar::MeeState;
use earsonar_bench::{cohort_size_from_args, standard_dataset};
use earsonar_ml::knn::KnnClassifier;
use earsonar_ml::pca::Pca;
use earsonar_ml::scaler::StandardScaler;
use earsonar_sim::session::SessionConfig;

fn main() {
    let n = cohort_size_from_args().min(64);
    println!("Ablations ({n} participants, LOOCV)\n");
    let base = EarSonarConfig::default();
    let dataset = standard_dataset(n, SessionConfig::default());
    let ex = ExtractedDataset::extract(&dataset.sessions, &base).expect("extract");

    let variants: Vec<(&str, EarSonarConfig)> = vec![
        ("full pipeline", base.clone()),
        (
            "no feature selection (105 dims)",
            EarSonarConfig {
                top_features: 105,
                ..base.clone()
            },
        ),
        (
            "no outlier removal",
            EarSonarConfig {
                remove_outliers: false,
                ..base.clone()
            },
        ),
        (
            "top 10 features only",
            EarSonarConfig {
                top_features: 10,
                ..base.clone()
            },
        ),
    ];

    let mut t = Table::new("Detector ablations");
    t.header(["variant", "accuracy", "median F1"]);
    let mut reports = Vec::new();
    for (name, cfg) in variants {
        let r = loocv(&ex, &cfg).expect("loocv");
        t.row([name.to_string(), pct(r.accuracy), pct(r.median_f1())]);
        eprintln!("  {name}: {}", pct(r.accuracy));
        reports.push(r);
    }

    let exb = ExtractedDataset::extract_baseline(&dataset.sessions, &base).expect("extract");
    let rb = loocv_baseline(&exb).expect("baseline");
    t.row([
        "no echo segmentation (baseline front end)".to_string(),
        pct(rb.accuracy),
        pct(rb.median_f1()),
    ]);
    print!("{}", t.render());

    // PCA instead of Laplacian selection: same dimensionality, different
    // reduction — is unsupervised *selection* better than *projection*?
    // The projected space goes through the same detector machinery (its
    // internal selection keeps every one of the top_features dimensions).
    let r = loocv_with(
        &ex,
        |x, y| {
            let (scaler, scaled) = StandardScaler::fit_transform(x)?;
            let pca = Pca::fit(&scaled, base.top_features)?;
            let detector = EarSonarDetector::fit(&pca.transform(&scaled)?, y, &base)?;
            Ok((scaler, pca, detector))
        },
        |(scaler, pca, detector), f| {
            detector.predict(&pca.transform_sample(&scaler.transform_sample(f)?)?)
        },
    )
    .expect("PCA LOOCV");
    println!(
        "\nPCA-{} projection instead of Laplacian selection (LOOCV): accuracy {}",
        base.top_features,
        pct(r.accuracy)
    );

    // k-NN comparison: is the paper's k-means leaving accuracy on the table?
    let r = loocv_with(
        &ex,
        |x, y| {
            let (scaler, scaled) = StandardScaler::fit_transform(x)?;
            let classes: Vec<usize> = y.iter().map(|s| s.index()).collect();
            let knn = KnnClassifier::fit(&scaled, &classes, 5, MeeState::COUNT)?;
            Ok((scaler, knn))
        },
        |(scaler, knn), f| {
            Ok(MeeState::from_index(
                knn.predict(&scaler.transform_sample(f)?)?,
            ))
        },
    )
    .expect("5-NN LOOCV");
    println!(
        "\n5-NN on the same features (LOOCV): accuracy {}",
        pct(r.accuracy)
    );

    // Silhouette sweep: does the feature space support k = 4?
    {
        use earsonar_ml::kmeans::{KMeans, KMeansConfig};
        use earsonar_ml::silhouette::silhouette_score;
        let (_, scaled) = StandardScaler::fit_transform(&ex.features).expect("scale");
        // Subsample for the O(n^2) silhouette.
        let sub: Vec<Vec<f64>> = scaled.iter().step_by(2).cloned().collect();
        println!("\nsilhouette score by cluster count (subsampled):");
        for k in 2..=6 {
            let km = KMeans::fit(
                &sub,
                &KMeansConfig {
                    k,
                    n_init: 6,
                    seed: 1,
                },
            )
            .expect("kmeans");
            let s = silhouette_score(&sub, km.labels()).expect("silhouette");
            println!("  k={k}: {s:.3}");
        }
    }

    // Binary fluid / no-fluid screening: the clinically actionable verdict,
    // read off the full pipeline's (first variant's) LOOCV confusion counts.
    let (sens, spec) = binary_screening_rates(&reports[0].confusion);
    println!(
        "\nbinary fluid/no-fluid screening: sensitivity {}, specificity {}\n\
         (Chan et al. report ~85% detection accuracy on this task)",
        pct(sens),
        pct(spec)
    );

    println!(
        "\nreading: echo segmentation is the load-bearing stage; Laplacian\n\
         selection trims noise dimensions; outlier removal moves accuracy\n\
         by {:+.1} pts on clean data.",
        100.0 * (reports[0].accuracy - reports[2].accuracy)
    );
}
