//! # robusched-numeric
//!
//! Numerical substrate for the `robusched` workspace.
//!
//! The paper's reference implementation relied on the GNU Scientific Library
//! for FFTs, interpolation, smoothing and integration. This crate
//! re-implements the required numerical kernels in pure Rust:
//!
//! * [`convolution`] — direct linear convolution (the resampled operands
//!   are too short for an FFT to pay off);
//! * [`integrate`] — composite trapezoid and Simpson rules plus cumulative
//!   integration (used to turn PDFs into CDFs);
//! * [`interp`] — natural cubic-spline and monotone cubic interpolation
//!   (the paper samples each probability density with 64 values and
//!   reconstructs with cubic splines);
//! * [`special`] — error function, normal PDF/CDF, log-gamma, regularized
//!   incomplete gamma and beta functions (exact Beta/Gamma CDFs);
//! * [`roots`] — bracketing root solver (quantile inversion);
//! * [`smooth`] — clamping of numerically differentiated PDFs;
//! * [`kahan`] — compensated summation.
//!
//! Everything is deterministic and allocation-conscious; hot kernels take
//! slices and reuse caller buffers where practical.

pub mod convolution;
pub mod grid;
pub mod integrate;
pub mod interp;
pub mod kahan;
pub mod roots;
pub mod smooth;
pub mod special;

pub use convolution::convolve_direct;
pub use grid::linspace;
pub use integrate::{cumulative_trapezoid, simpson_uniform, trapezoid_uniform};
pub use interp::{
    monotone_clamp, CubicSpline, MonotoneCubic, SplineScratch, UniformLocalCubic, UniformSpline,
};
pub use kahan::KahanSum;
pub use special::{erf, erfc, ln_gamma, norm_cdf, norm_pdf, reg_inc_beta, reg_inc_gamma};

/// Relative/absolute comparison helper used across the workspace tests.
///
/// Returns `true` when `a` and `b` agree to within `tol` absolutely or
/// relatively (whichever is looser), which is the customary way to compare
/// floating-point results of different algorithms.
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    if diff <= tol {
        return true;
    }
    let scale = a.abs().max(b.abs());
    diff <= tol * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9));
        assert!(!approx_eq(1.0, 1.1, 1e-9));
    }

    #[test]
    fn approx_eq_relative() {
        assert!(approx_eq(1e12, 1e12 * (1.0 + 1e-10), 1e-9));
        assert!(!approx_eq(1e12, 1.1e12, 1e-9));
    }

    #[test]
    fn approx_eq_zero() {
        assert!(approx_eq(0.0, 0.0, 1e-12));
        assert!(approx_eq(0.0, 1e-15, 1e-12));
    }
}
