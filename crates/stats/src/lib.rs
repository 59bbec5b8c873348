//! # robusched-stats
//!
//! Statistics for the metric-comparison study.
//!
//! The paper's headline artifact (Fig. 6) is a matrix of Pearson
//! correlation coefficients between robustness metrics, averaged over 24
//! experiments with the per-cell standard deviation in the lower triangle.
//! This crate provides:
//!
//! * [`descriptive`] — means, variances, quantiles of sample vectors;
//! * [`correlation`] — Pearson and Spearman coefficients;
//! * [`ecdf`] — empirical CDFs with Kolmogorov–Smirnov and area (the
//!   paper's Cramér–von-Mises variant) distances against analytic CDFs;
//! * [`matrix`] — labeled correlation matrices and their mean/std
//!   aggregation across cases.

pub mod correlation;
pub mod descriptive;
pub mod ecdf;
pub mod matrix;

pub use correlation::{pearson, spearman};
pub use descriptive::{max, mean, min, population_std, quantile, sample_std};
pub use ecdf::Ecdf;
pub use matrix::CorrMatrix;
