//! # robusched-randvar
//!
//! Random variables for stochastic scheduling.
//!
//! The paper models every task duration and communication delay as a random
//! variable with finite support `[min, UL·min]` (`UL` = uncertainty level)
//! and a right-skewed Beta(2, 5) profile. The makespan of a schedule is then
//! a composition of `+` (serial dependencies) and `max` (joins) over these
//! variables. This crate provides:
//!
//! * [`dist`] — the [`dist::Dist`] trait (PDF/CDF/moments/quantile over a
//!   finite support) with implementations: [`uniform::Uniform`],
//!   [`beta::Beta`], [`beta::ScaledBeta`], [`normal::Normal`] (support
//!   truncated at ±8σ), [`triangular::Triangular`], [`dirac::Dirac`] and
//!   [`concat_beta::ConcatBeta`] — the paper's multi-modal "special
//!   distribution" of Fig. 7 — plus [`dist::sample_gamma_mean_cv`], the
//!   CV-parameterized Gamma draw of the scenario generators;
//! * [`qtable`] — [`qtable::QuantileTable`], the one duration sampler.
//!   Every duration is `lo + span·Q(u)` with `Q` the tabulated quantile
//!   function of its family's unit-support base shape; the table's
//!   [`qtable::QuantileTable::quantile_u53`] and row fills serve the
//!   Monte-Carlo engine, the criticality estimator and the online
//!   simulator alike. A [`dist::Dist`] has no sampler of its own;
//! * [`discrete`] — [`discrete::DiscreteRv`], a PDF sampled on a uniform
//!   64-point grid with the closed calculus the paper uses: `sum` =
//!   convolution of PDFs, `max` = product of CDFs (evaluated exactly as
//!   `f₁F₂ + F₁f₂`), affine transforms, moments, differential entropy,
//!   lateness, interval probabilities, quantiles and KS/CM distances;
//! * [`seed`] — SplitMix64 sub-seed derivation so every experiment is
//!   reproducible bit-for-bit regardless of thread count;
//! * [`rng4`] — [`rng4::StdRngX4`], four `StdRng` streams advanced in
//!   lockstep in AVX2 lanes, from which
//!   [`qtable::QuantileTable::fill_row_x4_u53`] draws four Monte-Carlo
//!   chunks' rows at once;
//! * [`workspace`] — [`workspace::RvWorkspace`], reusable scratch buffers
//!   behind the allocation-free `sum_into`/`max_into` kernels (the
//!   allocating operators route through a thread-local instance).

#![deny(missing_docs)]

pub mod beta;
pub mod concat_beta;
pub mod dirac;
pub mod discrete;
pub mod dist;
pub mod normal;
pub mod qtable;
pub mod rng4;
pub mod seed;
pub mod triangular;
pub mod uniform;
pub mod workspace;

pub use beta::{Beta, ScaledBeta};
pub use concat_beta::ConcatBeta;
pub use dirac::Dirac;
pub use discrete::DiscreteRv;
pub use dist::{uniform01_word, Dist};
pub use normal::Normal;
pub use qtable::QuantileTable;
pub use rng4::StdRngX4;
pub use seed::{derive_seed, SplitMix64};
pub use triangular::Triangular;
pub use uniform::Uniform;
pub use workspace::RvWorkspace;

/// Default number of grid points for discretized PDFs.
///
/// The paper: "sampling each probability density with 64 values was largely
/// sufficient with cubic spline interpolation".
pub const DEFAULT_GRID: usize = 64;
