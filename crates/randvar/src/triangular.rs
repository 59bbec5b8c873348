//! Triangular distribution.
//!
//! A cheap finite-support alternative to the scaled Beta: same
//! "well-defined mode, right-skewed" shape class the paper argues for, used
//! in the sensitivity experiments that vary the uncertainty distribution
//! (the paper's future work explicitly asks for "different probability
//! densities").

use crate::dist::Dist;

/// Triangular(lo, mode, hi).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triangular {
    lo: f64,
    mode: f64,
    hi: f64,
}

impl Triangular {
    /// Creates Triangular(lo, mode, hi) with `lo ≤ mode ≤ hi`, `lo < hi`.
    ///
    /// # Panics
    /// Panics on an invalid parameter ordering.
    pub fn new(lo: f64, mode: f64, hi: f64) -> Self {
        assert!(
            lo < hi && (lo..=hi).contains(&mode),
            "need lo ≤ mode ≤ hi with lo < hi, got ({lo}, {mode}, {hi})"
        );
        Self { lo, mode, hi }
    }
}

impl Dist for Triangular {
    fn pdf(&self, x: f64) -> f64 {
        let (a, c, b) = (self.lo, self.mode, self.hi);
        if x < a || x > b {
            0.0
        } else if x < c {
            2.0 * (x - a) / ((b - a) * (c - a))
        } else if x == c {
            2.0 / (b - a)
        } else {
            2.0 * (b - x) / ((b - a) * (b - c))
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        let (a, c, b) = (self.lo, self.mode, self.hi);
        if x <= a {
            0.0
        } else if x <= c {
            (x - a) * (x - a) / ((b - a) * (c - a))
        } else if x < b {
            1.0 - (b - x) * (b - x) / ((b - a) * (b - c))
        } else {
            1.0
        }
    }

    fn mean(&self) -> f64 {
        (self.lo + self.mode + self.hi) / 3.0
    }

    fn variance(&self) -> f64 {
        let (a, c, b) = (self.lo, self.mode, self.hi);
        (a * a + b * b + c * c - a * b - a * c - b * c) / 18.0
    }

    fn support(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robusched_numeric::{approx_eq, integrate::integrate_fn};

    #[test]
    fn symmetric_case() {
        let t = Triangular::new(0.0, 1.0, 2.0);
        assert_eq!(t.mean(), 1.0);
        assert!(approx_eq(t.cdf(1.0), 0.5, 1e-12));
        assert!(approx_eq(t.pdf(1.0), 1.0, 1e-12));
    }

    #[test]
    fn mass_is_one() {
        let t = Triangular::new(2.0, 2.5, 5.0);
        let mass = integrate_fn(|x| t.pdf(x), 2.0, 5.0, 3001);
        assert!(approx_eq(mass, 1.0, 1e-8));
    }

    #[test]
    fn cdf_pdf_consistency() {
        let t = Triangular::new(1.0, 1.5, 4.0);
        for &x in &[1.2, 1.5, 2.0, 3.5] {
            let num = integrate_fn(|y| t.pdf(y), 1.0, x, 3001);
            assert!(approx_eq(num, t.cdf(x), 1e-6));
        }
    }

    #[test]
    #[should_panic(expected = "need lo ≤ mode ≤ hi")]
    fn rejects_mode_outside() {
        Triangular::new(0.0, 3.0, 2.0);
    }
}
