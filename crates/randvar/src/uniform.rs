//! Continuous uniform distribution on `[lo, hi]`.
//!
//! Used by the platform generators (the paper draws real-application task
//! costs "uniformly in the interval [minVal; 2 × minVal]") and by tests as
//! the simplest non-degenerate duration model.

use crate::dist::Dist;

/// Uniform(lo, hi) with `hi > lo`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates the distribution.
    ///
    /// # Panics
    /// Panics unless `lo < hi` and both are finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
        assert!(lo < hi, "need lo < hi, got [{lo}, {hi}]");
        Self { lo, hi }
    }

    /// Lower bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }
}

impl Dist for Uniform {
    fn pdf(&self, x: f64) -> f64 {
        if x < self.lo || x > self.hi {
            0.0
        } else {
            1.0 / (self.hi - self.lo)
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= self.lo {
            0.0
        } else if x >= self.hi {
            1.0
        } else {
            (x - self.lo) / (self.hi - self.lo)
        }
    }

    fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    fn variance(&self) -> f64 {
        let w = self.hi - self.lo;
        w * w / 12.0
    }

    fn support(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pdf_integrates_to_one() {
        let u = Uniform::new(2.0, 6.0);
        assert_eq!(u.pdf(4.0), 0.25);
        assert_eq!(u.pdf(1.0), 0.0);
        assert_eq!(u.pdf(7.0), 0.0);
    }

    #[test]
    fn cdf_boundaries() {
        let u = Uniform::new(0.0, 2.0);
        assert_eq!(u.cdf(-1.0), 0.0);
        assert_eq!(u.cdf(0.0), 0.0);
        assert_eq!(u.cdf(1.0), 0.5);
        assert_eq!(u.cdf(2.0), 1.0);
        assert_eq!(u.cdf(3.0), 1.0);
    }

    #[test]
    fn moments() {
        let u = Uniform::new(1.0, 3.0);
        assert_eq!(u.mean(), 2.0);
        assert!((u.variance() - 4.0 / 12.0).abs() < 1e-15);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let u = Uniform::new(5.0, 9.0);
        assert!((u.quantile(0.25) - 6.0).abs() < 1e-9);
        assert_eq!(u.quantile(0.0), 5.0);
        assert_eq!(u.quantile(1.0), 9.0);
    }

    #[test]
    #[should_panic(expected = "need lo < hi")]
    fn rejects_empty_interval() {
        Uniform::new(1.0, 1.0);
    }
}
