//! # earsonar-ml
//!
//! Learning substrate for the EarSonar reproduction ([ICDCS 2023]).
//!
//! EarSonar classifies middle-ear-effusion states with classic, lightweight
//! machinery rather than deep models (paper §IV-C-3/4, §VI-A):
//!
//! * [`kmeans`] — k-means clustering with k-means++ seeding (the paper's
//!   classifier, Eq. 11–12), and [`kmeans::KMeans::refine`], the one Lloyd
//!   step the detector takes from its four state-mean centres,
//! * [`outlier`] — distance-based outlier removal at 3σ, confirmed over
//!   three clusterings (the first of §IV-D-4's two strategies),
//! * [`laplacian`] — Laplacian-score feature ranking on a 15-neighbour
//!   graph with redundancy pruning (the paper keeps the top 25 of 105
//!   features),
//! * [`scaler`] — z-score standardization,
//! * [`labeling`] — majority-vote assignment of cluster → class,
//! * [`metrics`] — precision/recall/F1, confusion matrices, FAR/FRR,
//! * [`crossval`] — leave-one-participant-out splitting,
//! * [`knn`] / [`silhouette`] — comparison classifier and clustering
//!   quality analysis used by the ablation harness,
//! * [`logistic`] — deterministic multinomial logistic regression for the
//!   pluggable classifier-backend registry.
//!
//! The model-building numbers have one value each in use — neighbour
//! count, redundancy cut, outlier threshold and loops, Lloyd iteration cap
//! and tolerance, logistic iterations, step size and penalty — so each is
//! a constant of the module that uses it. Only [`kmeans::KMeansConfig`]'s
//! cluster count, restarts and seed are set by callers.
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
// Panic-freedom: the detection crates return typed errors, never panic.
// A sound exception is a `#[expect(clippy::expect_used, reason = "…")]`
// on the one statement; test code is exempt through clippy.toml.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]
#![allow(
    clippy::neg_cmp_op_on_partial_ord,
    reason = "`!(x > 0.0)` deliberately rejects NaN along with non-positive values in parameter validation"
)]

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
