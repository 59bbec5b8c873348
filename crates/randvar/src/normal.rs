//! Normal distribution.
//!
//! Central to the paper's discussion: the CLT argument of §VII says makespan
//! distributions are "really close to a Gaussian", Spelde's evaluation method
//! reduces every variable to a Normal, and Figs. 7–8 compare a pathological
//! distribution against the Normal with matching moments.
//!
//! The effective support is truncated at ±8σ (tail mass < 10⁻¹⁵), which is
//! what makes the grid discretization of `DiscreteRv` applicable.

use crate::dist::Dist;
use robusched_numeric::special::{norm_cdf, norm_pdf, norm_quantile};

/// Truncation half-width in standard deviations.
const TAIL_SIGMAS: f64 = 8.0;

/// Normal(μ, σ) — σ is the *standard deviation*, not the variance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// Creates Normal(μ, σ).
    ///
    /// # Panics
    /// Panics unless `σ > 0` and both parameters are finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite(), "mean must be finite");
        assert!(
            sigma > 0.0 && sigma.is_finite(),
            "standard deviation must be positive and finite, got {sigma}"
        );
        Self { mu, sigma }
    }

    /// Mean μ.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Standard deviation σ.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl Dist for Normal {
    fn pdf(&self, x: f64) -> f64 {
        norm_pdf((x - self.mu) / self.sigma) / self.sigma
    }

    fn cdf(&self, x: f64) -> f64 {
        norm_cdf((x - self.mu) / self.sigma)
    }

    fn mean(&self) -> f64 {
        self.mu
    }

    fn variance(&self) -> f64 {
        self.sigma * self.sigma
    }

    fn support(&self) -> (f64, f64) {
        (
            self.mu - TAIL_SIGMAS * self.sigma,
            self.mu + TAIL_SIGMAS * self.sigma,
        )
    }

    fn quantile(&self, p: f64) -> f64 {
        // Closed form beats the generic bisection.
        self.mu + self.sigma * norm_quantile(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robusched_numeric::{approx_eq, integrate::integrate_fn};

    #[test]
    fn standard_normal_values() {
        let n = Normal::new(0.0, 1.0);
        assert!(approx_eq(n.pdf(0.0), 0.398_942_280_401_432_7, 1e-12));
        assert!(approx_eq(n.cdf(0.0), 0.5, 1e-12));
        assert!(approx_eq(n.cdf(1.0), 0.841_344_746_068_543, 1e-9));
    }

    #[test]
    fn shifted_scaled() {
        let n = Normal::new(10.0, 2.0);
        assert_eq!(n.mean(), 10.0);
        assert_eq!(n.variance(), 4.0);
        assert!(approx_eq(n.cdf(10.0), 0.5, 1e-12));
        assert!(approx_eq(n.cdf(12.0), 0.841_344_746_068_543, 1e-9));
    }

    #[test]
    fn support_mass_is_one() {
        let n = Normal::new(-3.0, 0.7);
        let (lo, hi) = n.support();
        let mass = integrate_fn(|x| n.pdf(x), lo, hi, 4001);
        assert!(approx_eq(mass, 1.0, 1e-9));
    }

    #[test]
    fn quantile_closed_form() {
        let n = Normal::new(5.0, 3.0);
        for &p in &[0.01, 0.25, 0.5, 0.75, 0.99] {
            assert!(approx_eq(n.cdf(n.quantile(p)), p, 1e-8));
        }
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn rejects_zero_sigma() {
        Normal::new(0.0, 0.0);
    }
}
