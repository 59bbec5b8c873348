//! The paper's "special distribution" (Fig. 7): a concatenation of Beta
//! distributions.
//!
//! §VII builds a deliberately non-Gaussian, multi-modal distribution — "a
//! concatenation of Beta distributions" — and shows (Fig. 8) that summing it
//! with itself only 5–10 times already yields an almost perfect Gaussian,
//! which is the central-limit-theorem argument explaining why so many
//! robustness metrics coincide.
//!
//! [`ConcatBeta`] is an equal-weight mixture of `k` scaled Beta lobes laid
//! side by side on adjacent subintervals of `[lo, hi]`. Each lobe keeps the
//! full Beta shape, so the overall density is a comb of `k` bumps — exactly
//! the "special" profile plotted in the paper.

use crate::beta::Beta;
use crate::dist::Dist;

/// Equal-weight mixture of `k` Beta(α, β) lobes on adjacent subintervals.
#[derive(Debug, Clone)]
pub struct ConcatBeta {
    lobes: Vec<Lobe>,
    lo: f64,
    hi: f64,
}

#[derive(Debug, Clone, Copy)]
struct Lobe {
    base: Beta,
    lo: f64,
    hi: f64,
}

impl Lobe {
    fn width(&self) -> f64 {
        self.hi - self.lo
    }

    fn pdf(&self, x: f64) -> f64 {
        if x < self.lo || x > self.hi {
            return 0.0;
        }
        self.base.pdf((x - self.lo) / self.width()) / self.width()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= self.lo {
            0.0
        } else if x >= self.hi {
            1.0
        } else {
            self.base.cdf((x - self.lo) / self.width())
        }
    }

    fn mean(&self) -> f64 {
        self.lo + self.width() * self.base.mean()
    }

    fn second_moment(&self) -> f64 {
        // E[(lo + w·B)²] = lo² + 2·lo·w·E[B] + w²·E[B²].
        let w = self.width();
        let eb = self.base.mean();
        let eb2 = self.base.variance() + eb * eb;
        self.lo * self.lo + 2.0 * self.lo * w * eb + w * w * eb2
    }
}

impl ConcatBeta {
    /// `k` Beta(α, β) lobes tiling `[lo, hi]` with equal widths and weights.
    ///
    /// # Panics
    /// Panics unless `k ≥ 1` and `lo < hi`.
    pub fn new(k: usize, alpha: f64, beta: f64, lo: f64, hi: f64) -> Self {
        assert!(k >= 1, "need at least one lobe");
        assert!(lo < hi, "need lo < hi, got [{lo}, {hi}]");
        let width = (hi - lo) / k as f64;
        let lobes = (0..k)
            .map(|i| Lobe {
                base: Beta::new(alpha, beta),
                lo: lo + width * i as f64,
                hi: lo + width * (i + 1) as f64,
            })
            .collect();
        Self { lobes, lo, hi }
    }

    /// The Fig. 7 profile: a strongly multi-modal comb on `[0, 40]` with
    /// four sharp Beta(2, 5) lobes.
    pub fn paper_special() -> Self {
        Self::new(4, 2.0, 5.0, 0.0, 40.0)
    }

    /// Index of the lobe whose subinterval contains `x` (clamped; lobes
    /// tile `[lo, hi]` with equal widths, so this is one multiply).
    fn lobe_index(&self, x: f64) -> usize {
        let k = self.lobes.len();
        (((x - self.lo) / (self.hi - self.lo) * k as f64) as usize).min(k - 1)
    }
}

impl Dist for ConcatBeta {
    fn pdf(&self, x: f64) -> f64 {
        if x < self.lo || x > self.hi {
            return 0.0;
        }
        // Only the containing lobe has positive density at `x` — except
        // exactly on a shared boundary, where the adjacent lobe's endpoint
        // density (nonzero for α ≤ 1 / β ≤ 1 shapes) must be added too.
        // Rounding may put a boundary point in either neighbor, so check
        // both edges of the indexed lobe.
        let idx = self.lobe_index(x);
        let mut p = self.lobes[idx].pdf(x);
        if idx > 0 && x == self.lobes[idx].lo {
            p += self.lobes[idx - 1].pdf(x);
        } else if idx + 1 < self.lobes.len() && x == self.lobes[idx].hi {
            p += self.lobes[idx + 1].pdf(x);
        }
        p / self.lobes.len() as f64
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= self.lo {
            return 0.0;
        }
        if x >= self.hi {
            return 1.0;
        }
        // Every earlier lobe contributes its full weight, the containing
        // lobe its partial mass.
        let idx = self.lobe_index(x);
        (idx as f64 + self.lobes[idx].cdf(x)) / self.lobes.len() as f64
    }

    fn mean(&self) -> f64 {
        let w = 1.0 / self.lobes.len() as f64;
        self.lobes.iter().map(|l| w * l.mean()).sum()
    }

    fn variance(&self) -> f64 {
        let w = 1.0 / self.lobes.len() as f64;
        let m: f64 = self.mean();
        let m2: f64 = self.lobes.iter().map(|l| w * l.second_moment()).sum();
        m2 - m * m
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
    fn single_lobe_equals_scaled_beta() {
        let c = ConcatBeta::new(1, 2.0, 5.0, 3.0, 7.0);
        let s = crate::beta::ScaledBeta::new(2.0, 5.0, 3.0, 7.0);
        for &x in &[3.1, 4.0, 5.5, 6.9] {
            assert!(approx_eq(c.pdf(x), s.pdf(x), 1e-12));
            assert!(approx_eq(c.cdf(x), s.cdf(x), 1e-12));
        }
        assert!(approx_eq(c.mean(), s.mean(), 1e-12));
        assert!(approx_eq(c.variance(), s.variance(), 1e-10));
    }

    #[test]
    fn mass_is_one() {
        let c = ConcatBeta::paper_special();
        let mass = integrate_fn(|x| c.pdf(x), 0.0, 40.0, 8001);
        assert!(approx_eq(mass, 1.0, 1e-6));
    }

    #[test]
    fn is_multimodal() {
        // Density must rise and fall several times: count sign changes of
        // the finite-difference slope at lobe-mode spacing.
        let c = ConcatBeta::paper_special();
        let mut rises = 0;
        let mut prev = c.pdf(0.05);
        let mut increasing = true;
        for i in 1..400 {
            let x = i as f64 * 0.1;
            let y = c.pdf(x);
            if increasing && y < prev - 1e-9 {
                rises += 1;
                increasing = false;
            } else if !increasing && y > prev + 1e-9 {
                increasing = true;
            }
            prev = y;
        }
        assert!(rises >= 4, "expected ≥ 4 modes, saw {rises}");
    }

    #[test]
    fn mean_by_integration() {
        let c = ConcatBeta::paper_special();
        let m = integrate_fn(|x| x * c.pdf(x), 0.0, 40.0, 8001);
        assert!(approx_eq(m, c.mean(), 1e-5));
    }

    #[test]
    fn variance_by_integration() {
        let c = ConcatBeta::new(3, 2.0, 5.0, 0.0, 30.0);
        let m = c.mean();
        let v = integrate_fn(|x| (x - m) * (x - m) * c.pdf(x), 0.0, 30.0, 8001);
        assert!(approx_eq(v, c.variance(), 1e-4));
    }

    #[test]
    fn boundary_density_counts_both_adjacent_lobes() {
        // Beta(1, 1) lobes are rectangles: the density is nonzero at both
        // lobe endpoints, so an internal boundary point must see *both*
        // neighbors regardless of which lobe the index rounding picks.
        // Offset lo so (x − lo)/(hi − lo)·k is inexact at the boundaries.
        let c = ConcatBeta::new(3, 1.0, 1.0, 0.1, 0.7);
        // Mirror the constructor's boundary arithmetic exactly (the
        // special case triggers on bit-equal boundary points).
        let width = (0.7 - 0.1) / 3.0;
        for boundary in [0.1 + width, 0.1 + width * 2.0] {
            let inside = c.pdf(boundary - 1e-9);
            let at = c.pdf(boundary);
            // Interior density of a rect lobe is k/(hi−lo)·(1/k) = 1/span;
            // at a shared boundary both lobes contribute that density.
            assert!(
                (at - 2.0 * inside).abs() < 1e-6,
                "pdf({boundary}) = {at}, interior {inside}"
            );
        }
    }

    #[test]
    fn cdf_monotone_and_bounded() {
        let c = ConcatBeta::paper_special();
        let mut prev = 0.0;
        for i in 0..=200 {
            let x = i as f64 * 0.2;
            let f = c.cdf(x);
            assert!(f >= prev - 1e-12);
            assert!((0.0..=1.0).contains(&f));
            prev = f;
        }
        assert!(approx_eq(c.cdf(40.0), 1.0, 1e-12));
    }
}
