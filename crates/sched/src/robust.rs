//! σ-HEFT — the robustness-aware list heuristic of the paper's future work.
//!
//! §VIII: *"Finding an efficient heuristic similar to classic list
//! heuristic based on the standard deviation of every tasks duration rather
//! than their mean or minimal value. This heuristic should be able to
//! produce good and robust schedules."*
//!
//! σ-HEFT is HEFT with every cost replaced by the *risk-adjusted* cost
//! `mean + κ·σ` of the duration random variable:
//!
//! * ranks use machine-averaged risk-adjusted computation costs and
//!   risk-adjusted mean communication costs;
//! * processor selection minimizes the risk-adjusted earliest finish time.
//!
//! `κ = 0` reduces to HEFT-on-means; larger κ penalizes placements whose
//! durations (and hence contributions to the makespan spread) are wide.
//! Under the paper's *constant* UL the spread of a duration is proportional
//! to its mean, so σ-HEFT ≈ HEFT there (the paper's §VII observation that
//! "the makespan is almost an efficient criteria"); with *variable* UL
//! (`Scenario::with_per_task_ul`) the two diverge and σ-HEFT finds
//! genuinely more robust schedules — exactly the regime the future-work
//! remark anticipates.

use crate::heft::rank_then_place;
use crate::schedule::Schedule;
use crate::timeline::PartialSchedule;
use robusched_platform::Scenario;

/// Risk-adjusted cost of task `v` on machine `p`: `mean + κ·σ`.
#[inline]
fn risk_cost(scenario: &Scenario, v: usize, p: usize, kappa: f64) -> f64 {
    scenario.mean_task_cost(v, p) + kappa * scenario.std_task_cost(v, p)
}

/// Standard deviation of the unit Beta(2, 5): √(10/(49·8)). The literal is
/// 15 ulps from the `(10/392).sqrt()` that `UncertaintyModel` computes;
/// σ-HEFT's ranks, and so its schedules, depend on these bits.
const BETA25_STD: f64 = 0.159_719_141_249_985_4;

/// Runs σ-HEFT with risk weight `κ` (κ = 1 is a good default).
pub fn sigma_heft(scenario: &Scenario, kappa: f64) -> Schedule {
    plan(scenario, kappa).into_schedule()
}

/// σ-HEFT's placement, before it becomes a [`Schedule`].
pub(crate) fn plan(scenario: &Scenario, kappa: f64) -> PartialSchedule<'_> {
    assert!(kappa >= 0.0, "risk weight must be non-negative");
    let m = scenario.machine_count();
    let model = &scenario.uncertainty;
    // Upward ranks on machine-averaged risk-adjusted computation costs and
    // risk-adjusted mean communication costs (σ of a communication is
    // proportional to its mean under the model).
    let ranks = scenario.graph.dag.bottom_levels(
        |v| {
            (0..m)
                .map(|p| risk_cost(scenario, v, p, kappa))
                .sum::<f64>()
                / m as f64
        },
        |e| {
            let cbar = scenario.avg_det_comm_cost(e);
            model.mean_weight(cbar) + kappa * (model.ul - 1.0) * cbar * BETA25_STD
        },
    );
    rank_then_place(
        scenario,
        &ranks,
        |t, p| risk_cost(scenario, t, p, kappa),
        |e, p, q| scenario.mean_comm_cost(e, p, q) + kappa * scenario.std_comm_cost(e, p, q),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::det_makespan;

    #[test]
    fn sigma_heft_valid_and_reasonable() {
        for seed in 0..5 {
            let s = Scenario::paper_random(25, 4, 1.1, seed);
            let sched = sigma_heft(&s, 1.0);
            assert!(sched.validate(&s.graph.dag).is_ok());
            let h = det_makespan(&s, &crate::heft(&s));
            let r = det_makespan(&s, &sched);
            assert!(r < 1.5 * h, "σ-HEFT makespan {r} vs HEFT {h}");
        }
    }

    #[test]
    fn kappa_zero_close_to_heft_quality() {
        // κ = 0 ranks on means instead of minima — not identical to HEFT
        // but the same family; makespans should be within a few percent.
        let s = Scenario::paper_random(30, 4, 1.1, 9);
        let h = det_makespan(&s, &crate::heft(&s));
        let r = det_makespan(&s, &sigma_heft(&s, 0.0));
        assert!((r - h).abs() / h < 0.25, "{r} vs {h}");
    }
}
