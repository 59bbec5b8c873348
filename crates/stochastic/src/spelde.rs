//! Spelde's CLT-based makespan evaluation.
//!
//! §II of the paper: *"The second method, from Spelde, is based on the
//! central limit theorem … Every random variable is then simplified to its
//! unique mean and standard deviation (the only parameters needed to
//! characterize any normal distribution) and the makespan is calculated
//! without doing any convolution."*
//!
//! Sums add means and variances. Maxima use Clark's (1961) moment-matching
//! equations for the maximum of two independent Gaussians:
//!
//! ```text
//! a² = σ₁² + σ₂²,   α = (μ₁ − μ₂)/a
//! E[max]  = μ₁Φ(α) + μ₂Φ(−α) + a·φ(α)
//! E[max²] = (μ₁²+σ₁²)Φ(α) + (μ₂²+σ₂²)Φ(−α) + (μ₁+μ₂)·a·φ(α)
//! ```
//!
//! The walk is the classic evaluator's recursion, run by
//! [`EagerPlan::fold_forward`] with the moment-pair algebra of this module.

use robusched_dag::{EdgeId, NodeId};
use robusched_numeric::special::{norm_cdf, norm_pdf};
use robusched_platform::Scenario;
use robusched_randvar::{DiscreteRv, Normal};
use robusched_sched::{EagerPlan, FoldAlgebra, Schedule};

/// A makespan estimate as a Gaussian (mean, std-dev).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeldeResult {
    /// Estimated expected makespan.
    pub mean: f64,
    /// Estimated standard deviation.
    pub std_dev: f64,
}

impl SpeldeResult {
    /// Materializes the Gaussian as a grid RV (point mass when σ = 0),
    /// for apples-to-apples comparison with the other evaluators.
    pub fn to_rv(&self, grid: usize) -> DiscreteRv {
        if self.std_dev <= 0.0 {
            DiscreteRv::point(self.mean)
        } else {
            DiscreteRv::from_dist(&Normal::new(self.mean, self.std_dev), grid)
        }
    }
}

/// (mean, variance) pair with Gaussian sum/max algebra.
#[derive(Debug, Clone, Copy)]
struct MomentPair {
    mean: f64,
    var: f64,
}

impl MomentPair {
    fn point(x: f64) -> Self {
        Self { mean: x, var: 0.0 }
    }

    fn sum(self, other: Self) -> Self {
        Self {
            mean: self.mean + other.mean,
            var: self.var + other.var,
        }
    }

    /// Clark's equations for `max` of independent Gaussians.
    fn max(self, other: Self) -> Self {
        let a2 = self.var + other.var;
        if a2 <= 1e-300 {
            // Both deterministic.
            return Self::point(self.mean.max(other.mean));
        }
        let a = a2.sqrt();
        let alpha = (self.mean - other.mean) / a;
        let phi = norm_pdf(alpha);
        let cap = norm_cdf(alpha);
        let cap_neg = norm_cdf(-alpha);
        let m1 = self.mean * cap + other.mean * cap_neg + a * phi;
        let m2 = (self.mean * self.mean + self.var) * cap
            + (other.mean * other.mean + other.var) * cap_neg
            + (self.mean + other.mean) * a * phi;
        Self {
            mean: m1,
            var: (m2 - m1 * m1).max(0.0),
        }
    }
}

/// The forward fold's algebra over finish-time moment pairs: closed-form
/// duration and communication moments (no distribution is materialized),
/// moment sums and Clark's max.
struct Moments<'a>(&'a Scenario);

impl FoldAlgebra for Moments<'_> {
    type Value = MomentPair;

    fn edge(&mut self, x: &MomentPair, e: EdgeId, p: usize, q: usize, out: &mut MomentPair) {
        let std = self.0.std_comm_cost(e, p, q);
        *out = x.sum(MomentPair {
            mean: self.0.mean_comm_cost(e, p, q),
            var: std * std,
        });
    }

    fn task(&mut self, start: Option<&MomentPair>, v: NodeId, p: usize, out: &mut MomentPair) {
        let std = self.0.std_task_cost(v, p);
        let dur = MomentPair {
            mean: self.0.mean_task_cost(v, p),
            var: std * std,
        };
        *out = start.map_or(dur, |s| s.sum(dur));
    }

    fn max(&mut self, acc: &MomentPair, x: &MomentPair, out: &mut MomentPair) {
        *out = acc.max(*x);
    }
}

/// Evaluates the makespan with Spelde's method.
///
/// # Panics
/// Panics if the schedule is invalid for the scenario.
pub fn evaluate_spelde(scenario: &Scenario, schedule: &Schedule) -> SpeldeResult {
    let plan = EagerPlan::new(&scenario.graph.dag, schedule).expect("invalid schedule");
    spelde_moments(scenario, schedule, &plan)
}

/// Spelde's method on `schedule`'s compiled `plan`.
pub(crate) fn spelde_moments(
    scenario: &Scenario,
    schedule: &Schedule,
    plan: &EagerPlan,
) -> SpeldeResult {
    let (dag, zero) = (&scenario.graph.dag, MomentPair::point(0.0));
    let mut finish = vec![zero; dag.node_count()];
    let mut alg = Moments(scenario);
    let mp = *plan.fold_forward(dag, schedule, &mut alg, &mut finish, &mut [zero; 3]);
    SpeldeResult {
        mean: mp.mean,
        std_dev: mp.var.sqrt(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Evaluator;
    use robusched_dag::generators;
    use robusched_numeric::approx_eq;
    use robusched_platform::{CostMatrix, Platform, UncertaintyModel};

    #[test]
    fn clark_max_symmetric_case() {
        // max of two standard normals: mean 1/√π, var 1 − 1/π.
        let a = MomentPair {
            mean: 0.0,
            var: 1.0,
        };
        let m = a.max(a);
        assert!(approx_eq(m.mean, 1.0 / std::f64::consts::PI.sqrt(), 1e-10));
        assert!(approx_eq(m.var, 1.0 - 1.0 / std::f64::consts::PI, 1e-10));
    }

    #[test]
    fn clark_max_dominant_operand() {
        // A hugely larger mean dominates: max ≈ the larger one.
        let a = MomentPair {
            mean: 100.0,
            var: 1.0,
        };
        let b = MomentPair {
            mean: 0.0,
            var: 1.0,
        };
        let m = a.max(b);
        assert!(approx_eq(m.mean, 100.0, 1e-6));
        assert!(approx_eq(m.var, 1.0, 1e-4));
    }

    #[test]
    fn deterministic_max() {
        let a = MomentPair::point(3.0);
        let b = MomentPair::point(5.0);
        let m = a.max(b);
        assert_eq!(m.mean, 5.0);
        assert_eq!(m.var, 0.0);
    }

    #[test]
    fn chain_agrees_with_classic_exactly() {
        // On a chain (no max), Spelde's moments are exact.
        let tg = generators::chain(5);
        let costs = CostMatrix::from_rows(5, 1, vec![10.0; 5]);
        let s = Scenario::new(
            tg,
            Platform::paper_default(1),
            costs,
            UncertaintyModel::paper(1.3),
        );
        let sched = Schedule::new(vec![0; 5], vec![vec![0, 1, 2, 3, 4]]);
        let sp = evaluate_spelde(&s, &sched);
        let cl = crate::ClassicEvaluator::default().evaluate(&s, &sched);
        assert!(approx_eq(sp.mean, cl.mean(), 1e-2));
        assert!(approx_eq(sp.std_dev, cl.std_dev(), 2e-2));
    }

    #[test]
    fn random_scenario_close_to_classic() {
        let s = Scenario::paper_random(20, 4, 1.1, 17);
        let sched = robusched_sched::heft(&s);
        let sp = evaluate_spelde(&s, &sched);
        let cl = crate::ClassicEvaluator::default().evaluate(&s, &sched);
        // The paper found the methods "gave similar results"; agree within
        // a percent on the mean and a factor on the std.
        assert!(
            (sp.mean - cl.mean()).abs() / cl.mean() < 0.02,
            "means {} vs {}",
            sp.mean,
            cl.mean()
        );
        assert!(
            sp.std_dev < 3.0 * cl.std_dev() + 1e-6 && sp.std_dev > cl.std_dev() / 3.0 - 1e-6,
            "stds {} vs {}",
            sp.std_dev,
            cl.std_dev()
        );
    }

    #[test]
    fn variable_ul_rewards_sigma_awareness() {
        // With strongly heterogeneous ULs, σ-HEFT should find schedules at
        // least as robust (by Spelde's σ) as HEFT most of the time.
        use robusched_randvar::derive_seed;
        use robusched_sched::{heft, sigma_heft};
        let mut better = 0usize;
        let trials = 6usize;
        for seed in 0..trials as u64 {
            let base = Scenario::paper_random(20, 4, 1.05, 100 + seed);
            let n = base.task_count();
            // Half the tasks are wildly uncertain, half are nearly exact.
            let uls: Vec<f64> = (0..n)
                .map(|v| {
                    if derive_seed(seed, v as u64).is_multiple_of(2) {
                        1.8
                    } else {
                        1.01
                    }
                })
                .collect();
            let s = base.with_per_task_ul(uls);
            let std_h = evaluate_spelde(&s, &heft(&s)).std_dev;
            let std_s = evaluate_spelde(&s, &sigma_heft(&s, 2.0)).std_dev;
            if std_s <= std_h * 1.001 {
                better += 1;
            }
        }
        assert!(
            better * 2 >= trials,
            "σ-HEFT more robust in only {better}/{trials} trials"
        );
    }

    #[test]
    fn to_rv_round_trips_moments() {
        let r = SpeldeResult {
            mean: 50.0,
            std_dev: 2.0,
        };
        let rv = r.to_rv(128);
        assert!(approx_eq(rv.mean(), 50.0, 1e-2));
        assert!(approx_eq(rv.std_dev(), 2.0, 1e-2));
        let p = SpeldeResult {
            mean: 7.0,
            std_dev: 0.0,
        };
        assert!(p.to_rv(64).is_point());
    }
}
