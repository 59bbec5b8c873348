//! The uncertainty model: deterministic weight → random variable.
//!
//! §II of the paper: every duration has a *minimum value* and an
//! *uncertainty level* `UL ≥ 1`; the random variable lives on
//! `[min, UL·min]` — "the larger the task duration, the larger the possible
//! values of different execution times". §V fixes the shape to Beta(2, 5)
//! (right-skewed, interior mode). [`UncertaintyKind`] also offers uniform
//! and triangular substitutions for the paper's future-work sensitivity
//! question ("different probability densities"), and `None` for the
//! deterministic limit.

use robusched_randvar::{Dirac, Dist, ScaledBeta, Triangular, Uniform};

/// The family of per-weight distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UncertaintyKind {
    /// The paper's Beta(2, 5) substitution.
    Beta25,
    /// Uniform on `[w, UL·w]`.
    Uniform,
    /// Right-skewed triangular (mode at 20% of the span).
    Triangular,
    /// No uncertainty: every weight stays deterministic.
    None,
}

/// Uncertainty level + distribution family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UncertaintyModel {
    /// `UL ≥ 1`; the maximum duration is `UL × min`.
    pub ul: f64,
    /// Distribution family applied to every weight.
    pub kind: UncertaintyKind,
}

impl UncertaintyModel {
    /// The paper's model: Beta(2, 5) at the given uncertainty level.
    pub fn paper(ul: f64) -> Self {
        assert!(ul >= 1.0, "uncertainty level must be ≥ 1, got {ul}");
        Self {
            ul,
            kind: UncertaintyKind::Beta25,
        }
    }

    /// The deterministic limit.
    pub fn none() -> Self {
        Self {
            ul: 1.0,
            kind: UncertaintyKind::None,
        }
    }

    /// The random variable of a weight with minimum value `w`.
    ///
    /// Zero weights (co-located communications) and `UL = 1` collapse to a
    /// point mass regardless of the family.
    pub fn weight_dist(&self, w: f64) -> WeightDist {
        self.weight_dist_with_ul(w, self.ul)
    }

    /// Like [`UncertaintyModel::weight_dist`] with an explicit per-weight
    /// uncertainty level — the paper's future-work "variable UL" extension
    /// ("which will break the equivalence between task duration mean and
    /// standard deviation").
    pub fn weight_dist_with_ul(&self, w: f64, ul: f64) -> WeightDist {
        assert!(w >= 0.0 && w.is_finite(), "weight must be non-negative");
        assert!(ul >= 1.0, "uncertainty level must be ≥ 1, got {ul}");
        let hi = ul * w;
        if w == 0.0 || hi == w || self.kind == UncertaintyKind::None {
            return WeightDist::Point(Dirac::new(w));
        }
        match self.kind {
            UncertaintyKind::Beta25 => WeightDist::Beta(ScaledBeta::new(2.0, 5.0, w, hi)),
            UncertaintyKind::Uniform => WeightDist::Uniform(Uniform::new(w, hi)),
            UncertaintyKind::Triangular => {
                WeightDist::Triangular(Triangular::new(w, w + 0.2 * (hi - w), hi))
            }
            UncertaintyKind::None => unreachable!("handled above"),
        }
    }

    /// The *standard* (unit-support) shape of this family, if any — the
    /// base of the shared quantile table every sampler draws through (a
    /// weight is `lo + span·Q_base(U)` with `(lo, span)` from
    /// `Scenario::task_affine`/`comm_affine`).
    pub fn base_shape(&self) -> Option<WeightDist> {
        match self.kind {
            UncertaintyKind::Beta25 => Some(WeightDist::Beta(ScaledBeta::new(2.0, 5.0, 0.0, 1.0))),
            UncertaintyKind::Uniform => Some(WeightDist::Uniform(Uniform::new(0.0, 1.0))),
            UncertaintyKind::Triangular => {
                Some(WeightDist::Triangular(Triangular::new(0.0, 0.2, 1.0)))
            }
            UncertaintyKind::None => None,
        }
    }

    /// Mean of the weight RV without materializing it: `w + (UL−1)·w·μ_base`.
    pub fn mean_weight(&self, w: f64) -> f64 {
        self.mean_weight_with_ul(w, self.ul)
    }

    /// [`UncertaintyModel::mean_weight`] with an explicit uncertainty level.
    pub fn mean_weight_with_ul(&self, w: f64, ul: f64) -> f64 {
        match self.kind {
            UncertaintyKind::None => w,
            UncertaintyKind::Beta25 => w + (ul - 1.0) * w * (2.0 / 7.0),
            UncertaintyKind::Uniform => w + (ul - 1.0) * w * 0.5,
            UncertaintyKind::Triangular => w + (ul - 1.0) * w * 0.4,
        }
    }

    /// Standard deviation of the weight RV without materializing it:
    /// `(UL−1)·w·σ_base`. Heuristics query σ per (task, machine) candidate
    /// on their hot path, where building a distribution just to read a
    /// closed-form moment dominated the cost.
    pub fn std_weight(&self, w: f64) -> f64 {
        self.std_weight_with_ul(w, self.ul)
    }

    /// [`UncertaintyModel::std_weight`] with an explicit uncertainty level.
    pub fn std_weight_with_ul(&self, w: f64, ul: f64) -> f64 {
        (ul - 1.0) * w * self.base_std()
    }

    /// Standard deviation of the family's unit-support base shape (0 for
    /// `None`): a weight `w` at level `UL` has `σ = (UL−1)·w·base_std`.
    pub fn base_std(&self) -> f64 {
        match self.kind {
            UncertaintyKind::None => 0.0,
            // √Var of the unit-support base shapes: Beta(2, 5) has
            // αβ/((α+β)²(α+β+1)) = 10/392; U(0, 1) has 1/12;
            // Tri(0, 0.2, 1) has (a²+b²+c²−ab−ac−bc)/18 = 0.84/18.
            UncertaintyKind::Beta25 => (10.0f64 / 392.0).sqrt(),
            UncertaintyKind::Uniform => (1.0f64 / 12.0).sqrt(),
            UncertaintyKind::Triangular => (0.84f64 / 18.0).sqrt(),
        }
    }
}

/// A weight's distribution, statically dispatched across the small closed
/// family (no boxing on the hot paths).
#[derive(Debug, Clone, Copy)]
pub enum WeightDist {
    /// Scaled Beta(2, 5) — the paper's choice.
    Beta(ScaledBeta),
    /// Scaled uniform.
    Uniform(Uniform),
    /// Scaled right-skewed triangular.
    Triangular(Triangular),
    /// Deterministic.
    Point(Dirac),
}

macro_rules! delegate {
    ($self:ident, $method:ident $(, $arg:expr)*) => {
        match $self {
            WeightDist::Beta(d) => d.$method($($arg),*),
            WeightDist::Uniform(d) => d.$method($($arg),*),
            WeightDist::Triangular(d) => d.$method($($arg),*),
            WeightDist::Point(d) => d.$method($($arg),*),
        }
    };
}

impl Dist for WeightDist {
    fn pdf(&self, x: f64) -> f64 {
        delegate!(self, pdf, x)
    }
    fn cdf(&self, x: f64) -> f64 {
        delegate!(self, cdf, x)
    }
    fn mean(&self) -> f64 {
        delegate!(self, mean)
    }
    fn variance(&self) -> f64 {
        delegate!(self, variance)
    }
    fn support(&self) -> (f64, f64) {
        delegate!(self, support)
    }
    fn quantile(&self, p: f64) -> f64 {
        delegate!(self, quantile, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_support() {
        let u = UncertaintyModel::paper(1.1);
        let d = u.weight_dist(20.0);
        assert_eq!(d.support(), (20.0, 22.0));
        match d {
            WeightDist::Beta(_) => {}
            other => panic!("expected beta, got {other:?}"),
        }
    }

    #[test]
    fn zero_weight_is_point() {
        let u = UncertaintyModel::paper(1.5);
        let d = u.weight_dist(0.0);
        assert_eq!(d.support(), (0.0, 0.0));
        assert_eq!(d.mean(), 0.0);
    }

    #[test]
    fn ul_one_is_deterministic() {
        let u = UncertaintyModel::paper(1.0);
        let d = u.weight_dist(7.0);
        assert_eq!(d.support(), (7.0, 7.0));
        assert_eq!(d.variance(), 0.0);
    }

    #[test]
    fn none_kind_always_point() {
        let u = UncertaintyModel::none();
        let d = u.weight_dist(5.0);
        assert_eq!(d.mean(), 5.0);
        assert_eq!(d.variance(), 0.0);
    }

    #[test]
    fn mean_weight_matches_distribution() {
        for kind in [
            UncertaintyKind::Beta25,
            UncertaintyKind::Uniform,
            UncertaintyKind::Triangular,
        ] {
            let u = UncertaintyModel { ul: 1.4, kind };
            let d = u.weight_dist(10.0);
            assert!(
                (u.mean_weight(10.0) - d.mean()).abs() < 1e-9,
                "{kind:?}: {} vs {}",
                u.mean_weight(10.0),
                d.mean()
            );
        }
    }

    #[test]
    fn std_weight_matches_distribution() {
        for kind in [
            UncertaintyKind::Beta25,
            UncertaintyKind::Uniform,
            UncertaintyKind::Triangular,
            UncertaintyKind::None,
        ] {
            let u = UncertaintyModel { ul: 1.4, kind };
            let d = u.weight_dist(10.0);
            assert!(
                (u.std_weight(10.0) - d.std_dev()).abs() < 1e-9,
                "{kind:?}: {} vs {}",
                u.std_weight(10.0),
                d.std_dev()
            );
        }
        // Degenerate weights and UL = 1 give zero spread.
        let u = UncertaintyModel::paper(1.5);
        assert_eq!(u.std_weight(0.0), 0.0);
        assert_eq!(u.std_weight_with_ul(7.0, 1.0), 0.0);
    }

    #[test]
    fn base_shape_unit_support() {
        let u = UncertaintyModel::paper(1.1);
        let base = u.base_shape().unwrap();
        assert_eq!(base.support(), (0.0, 1.0));
        assert!(UncertaintyModel::none().base_shape().is_none());
    }

    #[test]
    #[should_panic(expected = "must be ≥ 1")]
    fn rejects_ul_below_one() {
        UncertaintyModel::paper(0.5);
    }
}
