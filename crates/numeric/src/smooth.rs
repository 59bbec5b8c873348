//! PDF clean-up after numerical differentiation.
//!
//! The max operator differentiates a product of interpolated CDFs, which
//! amplifies grid noise and spline overshoot into small negative densities.
//! The paper's implementation smoothed such PDFs with GSL; this one only
//! clamps them to zero ([`clamp_nonnegative`]) before renormalization.

/// Clamps negative values (numerical noise from differentiation or spline
/// overshoot) to zero — PDFs must be non-negative.
///
/// The original signature carried a `tol` threshold and returned a
/// "suspiciously negative" flag, but every call site passed `f64::INFINITY`
/// and ignored the result, so both were dropped from the hot path.
pub fn clamp_nonnegative(y: &mut [f64]) {
    for v in y.iter_mut() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_zeroes_all_negatives() {
        let mut y = vec![0.5, -1e-15, 0.25, -0.2];
        clamp_nonnegative(&mut y);
        assert_eq!(y, vec![0.5, 0.0, 0.25, 0.0]);
    }
}
