//! Dirac (deterministic) distribution.
//!
//! Zero-cost communications between co-located tasks, entry-task start
//! times, and the `UL = 1` (no uncertainty) limit are all point masses. The
//! PDF is reported as 0 everywhere (the density is not a function); the
//! discrete calculus recognizes point masses through their zero-width
//! support and handles them algebraically (sum = shift, max = clamp).

use crate::dist::Dist;

/// A point mass at `value`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dirac {
    value: f64,
}

impl Dirac {
    /// Creates the point mass.
    ///
    /// # Panics
    /// Panics if `value` is not finite.
    pub fn new(value: f64) -> Self {
        assert!(value.is_finite(), "point mass must be finite");
        Self { value }
    }

    /// The deterministic value.
    pub fn value(&self) -> f64 {
        self.value
    }
}

impl Dist for Dirac {
    fn pdf(&self, _x: f64) -> f64 {
        // The density of a point mass is not a function; conventions here
        // return 0 and let callers branch on the zero-width support.
        0.0
    }

    fn cdf(&self, x: f64) -> f64 {
        if x >= self.value {
            1.0
        } else {
            0.0
        }
    }

    fn mean(&self) -> f64 {
        self.value
    }

    fn variance(&self) -> f64 {
        0.0
    }

    fn support(&self) -> (f64, f64) {
        (self.value, self.value)
    }

    fn quantile(&self, _p: f64) -> f64 {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_the_mass_at_the_point() {
        let d = Dirac::new(3.0);
        assert_eq!(d.cdf(2.999), 0.0);
        assert_eq!(d.cdf(3.0), 1.0);
        assert_eq!(d.mean(), 3.0);
        assert_eq!(d.variance(), 0.0);
        assert_eq!(d.support(), (3.0, 3.0));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        Dirac::new(f64::NAN);
    }
}
