//! # earsonar-ml
//!
//! Learning substrate for the EarSonar reproduction ([ICDCS 2023]).
//!
//! EarSonar classifies middle-ear-effusion states with classic, lightweight
//! machinery rather than deep models (paper §IV-C-3/4, §VI-A):
//!
//! * [`kmeans`] — k-means clustering with k-means++ seeding (the paper's
//!   classifier, Eq. 11–12),
//! * [`outlier`] — the two outlier-handling strategies of §IV-D-4,
//! * [`laplacian`] — Laplacian-score feature ranking (the paper keeps the
//!   top 25 of 105 features),
//! * [`scaler`] — z-score standardization,
//! * [`labeling`] — majority-vote assignment of cluster → class,
//! * [`metrics`] — precision/recall/F1, confusion matrices, FAR/FRR,
//! * [`crossval`] — leave-one-participant-out splitting,
//! * [`knn`] / [`silhouette`] — comparison classifier and clustering
//!   quality analysis used by the ablation harness,
//! * [`logistic`] — deterministic multinomial logistic regression for the
//!   pluggable classifier-backend registry.
//!
//! # Example
//!
//! ```
//! use earsonar_ml::kmeans::{KMeans, KMeansConfig};
//!
//! let data = vec![
//!     vec![0.0, 0.0], vec![0.1, -0.1], vec![10.0, 10.0], vec![10.1, 9.9],
//! ];
//! let model = KMeans::fit(&data, &KMeansConfig { k: 2, ..Default::default() }).unwrap();
//! assert_eq!(model.predict(&data[0]), model.predict(&data[1]));
//! assert_ne!(model.predict(&data[0]), model.predict(&data[2]));
//! ```
//!
//! [ICDCS 2023]: https://doi.org/10.1109/ICDCS57875.2023.00082

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// `!(x > 0.0)` deliberately rejects NaN along with non-positive values in
// parameter validation; `partial_cmp` would obscure that intent.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod crossval;
pub mod distance;
pub mod error;
pub mod kmeans;
pub mod knn;
pub mod labeling;
pub mod laplacian;
pub mod logistic;
pub mod metrics;
pub mod outlier;
pub mod pca;
pub mod scaler;
pub mod silhouette;

pub use error::MlError;
