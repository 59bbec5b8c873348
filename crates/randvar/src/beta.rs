//! Beta distribution and its affine rescaling — the paper's uncertainty
//! model.
//!
//! §V of the paper: *"We use the Beta distribution and select the parameters
//! in order to have a probability distribution corresponding to our
//! observations and expectations. To this purpose, we need a well-defined
//! nonzero mode (implying α > 1) and more small values than large values
//! (meaning we should have a right-skewed probability distribution and thus
//! β > α). Therefore, we selected α = 2 and β = 5."*
//!
//! [`ScaledBeta`] maps Beta(α, β) onto an arbitrary `[lo, hi]`; the
//! uncertainty substitution turns a deterministic weight `w` into
//! `ScaledBeta::paper_default(w, UL)` supported on `[w, UL·w]`.

use crate::dist::Dist;
use robusched_numeric::special::{ln_beta, reg_inc_beta};

/// Beta(α, β) on `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Beta {
    alpha: f64,
    beta: f64,
    /// Precomputed `ln B(α, β)` so the hot PDF path skips the gammas.
    ln_b: f64,
    /// Precomputed `1/B(α, β)`.
    inv_b: f64,
    /// `Some((α−1, β−1))` when both shapes are small integers: the density
    /// is then the polynomial `x^{α−1}(1−x)^{β−1}/B`, which `powi`
    /// evaluates an order of magnitude faster than the general
    /// `exp(ln ...)` path — and scenario discretization samples this
    /// function 64 times per distribution. The paper's Beta(2, 5) always
    /// takes this branch.
    int_pow: Option<(i32, i32)>,
}

impl Beta {
    /// Creates Beta(α, β).
    ///
    /// # Panics
    /// Panics unless both shapes are positive and finite.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha.is_finite() && beta > 0.0 && beta.is_finite(),
            "beta shapes must be positive and finite, got ({alpha}, {beta})"
        );
        let int_pow =
            if alpha.fract() == 0.0 && beta.fract() == 0.0 && alpha <= 32.0 && beta <= 32.0 {
                Some((alpha as i32 - 1, beta as i32 - 1))
            } else {
                None
            };
        // For integer shapes B(α, β) = (α−1)!(β−1)!/(α+β−1)! is an exact
        // small rational — a handful of multiplies, where the general
        // `ln_beta` route costs three `ln_gamma` evaluations. Heuristics
        // construct a Beta per cost query, so constructor cost is hot.
        let (ln_b, inv_b) = match int_pow {
            Some((a1, b1)) => {
                let fact = |k: i32| (1..=k as u64).map(|i| i as f64).product::<f64>();
                let b_val = fact(a1) * fact(b1) / fact(a1 + b1 + 1);
                (b_val.ln(), 1.0 / b_val)
            }
            None => {
                let ln_b = ln_beta(alpha, beta);
                (ln_b, (-ln_b).exp())
            }
        };
        Self {
            alpha,
            beta,
            ln_b,
            inv_b,
            int_pow,
        }
    }

    /// The paper's canonical Beta(2, 5).
    pub fn paper_default() -> Self {
        Self::new(2.0, 5.0)
    }
}

impl Dist for Beta {
    fn pdf(&self, x: f64) -> f64 {
        if !(0.0..=1.0).contains(&x) {
            return 0.0;
        }
        // Handle the boundary degeneracies explicitly.
        if x == 0.0 {
            return if self.alpha < 1.0 {
                f64::INFINITY
            } else if self.alpha == 1.0 {
                self.inv_b
            } else {
                0.0
            };
        }
        if x == 1.0 {
            return if self.beta < 1.0 {
                f64::INFINITY
            } else if self.beta == 1.0 {
                self.inv_b
            } else {
                0.0
            };
        }
        if let Some((a1, b1)) = self.int_pow {
            return x.powi(a1) * (1.0 - x).powi(b1) * self.inv_b;
        }
        ((self.alpha - 1.0) * x.ln() + (self.beta - 1.0) * (1.0 - x).ln() - self.ln_b).exp()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else if x >= 1.0 {
            1.0
        } else if let Some((a1, b1)) = self.int_pow {
            // For integer shapes the regularized incomplete beta is the
            // binomial tail `I_x(α, β) = Σ_{j=α}^{n} C(n,j) xʲ (1−x)^{n−j}`
            // with `n = α+β−1` — a handful of multiplies on all-positive
            // terms, which beats the continued fraction by an order of
            // magnitude. Quantile tabulation (one CDF evaluation per Newton
            // step per knot) made this path hot.
            let n = (a1 + b1 + 1) as u32;
            let alpha = (a1 + 1) as u32;
            let y = 1.0 - x;
            // First term j = α: C(n, α)·x^α·y^{n−α}, then step j upward via
            // term ← term · (x/y) · (n−j)/(j+1).
            let mut binom = 1.0f64;
            for j in 0..alpha {
                binom *= (n - j) as f64 / (j + 1) as f64;
            }
            let mut term = binom * x.powi(alpha as i32) * y.powi((n - alpha) as i32);
            let mut sum = term;
            let ratio = x / y;
            for j in alpha..n {
                term *= ratio * (n - j) as f64 / (j + 1) as f64;
                sum += term;
            }
            sum.min(1.0)
        } else {
            reg_inc_beta(self.alpha, self.beta, x)
        }
    }

    fn mean(&self) -> f64 {
        self.alpha / (self.alpha + self.beta)
    }

    fn variance(&self) -> f64 {
        let s = self.alpha + self.beta;
        self.alpha * self.beta / (s * s * (s + 1.0))
    }

    fn support(&self) -> (f64, f64) {
        (0.0, 1.0)
    }
}

/// Beta(α, β) affinely mapped onto `[lo, hi]`.
///
/// This is the distribution the uncertainty model assigns to every task and
/// communication duration: minimum `lo = w`, maximum `hi = UL·w`.
/// A degenerate interval (`lo == hi`) is allowed and behaves as a Dirac —
/// needed for zero-cost communications between co-located tasks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaledBeta {
    base: Beta,
    lo: f64,
    hi: f64,
}

impl ScaledBeta {
    /// Creates Beta(α, β) scaled to `[lo, hi]` (with `hi ≥ lo`).
    pub fn new(alpha: f64, beta: f64, lo: f64, hi: f64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && hi >= lo,
            "invalid support [{lo}, {hi}]"
        );
        Self {
            base: Beta::new(alpha, beta),
            lo,
            hi,
        }
    }

    /// The paper's substitution for a deterministic weight `w` at
    /// uncertainty level `ul`: Beta(2, 5) on `[w, ul·w]`.
    ///
    /// # Panics
    /// Panics if `w < 0` or `ul < 1`.
    pub fn paper_default(w: f64, ul: f64) -> Self {
        assert!(w >= 0.0, "weight must be non-negative, got {w}");
        assert!(ul >= 1.0, "uncertainty level must be ≥ 1, got {ul}");
        Self::new(2.0, 5.0, w, ul * w)
    }

    /// Width of the support.
    pub fn span(&self) -> f64 {
        self.hi - self.lo
    }
}

impl Dist for ScaledBeta {
    fn pdf(&self, x: f64) -> f64 {
        let w = self.hi - self.lo;
        if w == 0.0 {
            // Degenerate: density is a delta; report 0 like other point
            // masses (the discrete layer special-cases zero-span supports).
            return 0.0;
        }
        self.base.pdf((x - self.lo) / w) / w
    }

    fn cdf(&self, x: f64) -> f64 {
        let w = self.hi - self.lo;
        if w == 0.0 {
            return if x >= self.lo { 1.0 } else { 0.0 };
        }
        self.base.cdf((x - self.lo) / w)
    }

    fn mean(&self) -> f64 {
        self.lo + (self.hi - self.lo) * self.base.mean()
    }

    fn variance(&self) -> f64 {
        let w = self.hi - self.lo;
        w * w * self.base.variance()
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
    fn paper_beta_moments() {
        let b = Beta::paper_default();
        assert!(approx_eq(b.mean(), 2.0 / 7.0, 1e-12));
        assert!(approx_eq(b.variance(), 10.0 / (49.0 * 8.0), 1e-12));
    }

    #[test]
    fn pdf_integrates_to_one() {
        let b = Beta::new(2.0, 5.0);
        let mass = integrate_fn(|x| b.pdf(x), 0.0, 1.0, 2001);
        assert!(approx_eq(mass, 1.0, 1e-6));
    }

    #[test]
    fn pdf_mean_by_integration() {
        let b = Beta::new(3.0, 2.0);
        let m = integrate_fn(|x| x * b.pdf(x), 0.0, 1.0, 2001);
        assert!(approx_eq(m, 0.6, 1e-6));
    }

    #[test]
    fn cdf_matches_pdf_integral() {
        let b = Beta::paper_default();
        for &x in &[0.1, 0.3, 0.5, 0.9] {
            let num = integrate_fn(|t| b.pdf(t), 0.0, x, 2001);
            assert!(approx_eq(num, b.cdf(x), 1e-6), "x = {x}");
        }
    }

    #[test]
    fn integer_cdf_matches_continued_fraction() {
        // The binomial-tail fast path must agree with the general
        // continued-fraction evaluation to near machine precision.
        for (a, b) in [(2.0, 5.0), (1.0, 1.0), (3.0, 2.0), (5.0, 5.0)] {
            let fast = Beta::new(a, b);
            for i in 1..200 {
                let x = i as f64 / 200.0;
                let general = reg_inc_beta(a, b, x);
                assert!(
                    approx_eq(fast.cdf(x), general, 1e-13),
                    "I_{x}({a},{b}): {} vs {general}",
                    fast.cdf(x)
                );
            }
        }
        // Extreme tails stay in [0, 1] and keep relative accuracy.
        let b25 = Beta::new(2.0, 5.0);
        assert!(b25.cdf(1e-9) > 0.0);
        assert!(b25.cdf(1.0 - 1e-12) <= 1.0);
        assert!(approx_eq(
            b25.cdf(1e-6),
            reg_inc_beta(2.0, 5.0, 1e-6),
            1e-10
        ));
    }

    #[test]
    fn uniform_special_case() {
        // Beta(1,1) is Uniform(0,1).
        let b = Beta::new(1.0, 1.0);
        assert!(approx_eq(b.pdf(0.3), 1.0, 1e-12));
        assert!(approx_eq(b.cdf(0.3), 0.3, 1e-12));
    }

    #[test]
    fn right_skew_of_paper_default() {
        // β > α ⇒ more small values than large ones: median < midpoint.
        let b = Beta::paper_default();
        assert!(b.quantile(0.5) < 0.5);
    }

    #[test]
    fn scaled_beta_support_and_moments() {
        let s = ScaledBeta::paper_default(20.0, 1.1);
        assert_eq!(s.support(), (20.0, 22.0));
        assert!(approx_eq(s.mean(), 20.0 + 2.0 * (2.0 / 7.0), 1e-12));
        assert!(approx_eq(s.variance(), 4.0 * 10.0 / (49.0 * 8.0), 1e-12));
    }

    #[test]
    fn degenerate_scaled_beta_is_point_mass() {
        let s = ScaledBeta::paper_default(0.0, 1.5); // zero weight ⇒ [0, 0]
        assert_eq!(s.support(), (0.0, 0.0));
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.cdf(0.0), 1.0);
        assert_eq!(s.cdf(-0.1), 0.0);
    }

    #[test]
    #[should_panic(expected = "uncertainty level")]
    fn rejects_ul_below_one() {
        ScaledBeta::paper_default(1.0, 0.9);
    }
}
