//! Compensated (Kahan–Neumaier) summation.
//!
//! The metric integrals in this workspace accumulate tens of thousands of
//! small terms (PDF samples, Monte-Carlo makespans). Naive `f64` summation
//! loses precision once the running total dwarfs the increments; Neumaier's
//! variant of Kahan summation keeps the error bounded independently of the
//! number of terms at the cost of two extra additions per element.

/// A running compensated sum.
///
/// # Example
/// ```
/// use robusched_numeric::KahanSum;
/// let mut s = KahanSum::new();
/// for _ in 0..10 {
///     s.add(0.1);
/// }
/// assert!((s.value() - 1.0).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct KahanSum {
    sum: f64,
    compensation: f64,
}

impl KahanSum {
    /// Creates an empty sum.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one term using Neumaier's improved compensation, which stays
    /// accurate even when the new term is larger than the running sum.
    #[inline]
    pub fn add(&mut self, x: f64) {
        let t = self.sum + x;
        if self.sum.abs() >= x.abs() {
            self.compensation += (self.sum - t) + x;
        } else {
            self.compensation += (x - t) + self.sum;
        }
        self.sum = t;
    }

    /// Current compensated value of the sum.
    #[inline]
    pub fn value(&self) -> f64 {
        self.sum + self.compensation
    }
}

impl FromIterator<f64> for KahanSum {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = KahanSum::new();
        for x in iter {
            s.add(x);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compensated_sum(xs: &[f64]) -> f64 {
        xs.iter().copied().collect::<KahanSum>().value()
    }

    #[test]
    fn empty_sum_is_zero() {
        assert_eq!(compensated_sum(&[]), 0.0);
    }

    #[test]
    fn matches_exact_integers() {
        let xs: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        assert_eq!(compensated_sum(&xs), 500_500.0);
    }

    #[test]
    fn recovers_catastrophic_cancellation() {
        // 1e16 + 1 + 1 - 1e16 should be 2 but naive f64 gives 0 or 2 ulps off.
        let xs = [1e16, 1.0, 1.0, -1e16];
        assert_eq!(compensated_sum(&xs), 2.0);
    }

    #[test]
    fn many_small_terms() {
        let n = 100_000;
        let xs = vec![0.1; n];
        let exact = 0.1 * n as f64;
        assert!((compensated_sum(&xs) - exact).abs() < 1e-9);
    }

    #[test]
    fn from_iterator_collects() {
        let s: KahanSum = (0..10).map(|i| i as f64).collect();
        assert_eq!(s.value(), 45.0);
    }
}
