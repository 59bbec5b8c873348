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

/// Risk-adjusted mean communication cost of edge `e` for the ranks:
/// `mean + κ·σ` of its machine-averaged deterministic cost, priced by the
/// scenario's uncertainty family as placements are.
fn rank_comm_cost(scenario: &Scenario, e: usize, kappa: f64) -> f64 {
    let model = &scenario.uncertainty;
    let cbar = scenario.avg_det_comm_cost(e);
    model.mean_weight(cbar) + kappa * model.std_weight(cbar)
}

/// Runs σ-HEFT with risk weight `κ` (κ = 1 is a good default).
pub fn sigma_heft(scenario: &Scenario, kappa: f64) -> Schedule {
    plan(scenario, kappa).into_schedule()
}

/// σ-HEFT's placement, before it becomes a [`Schedule`].
pub(crate) fn plan(scenario: &Scenario, kappa: f64) -> PartialSchedule<'_> {
    assert!(kappa >= 0.0, "risk weight must be non-negative");
    let m = scenario.machine_count();
    // Upward ranks on machine-averaged risk-adjusted computation costs and
    // risk-adjusted mean communication costs.
    let ranks = scenario.graph.dag.bottom_levels(
        |v| {
            (0..m)
                .map(|p| risk_cost(scenario, v, p, kappa))
                .sum::<f64>()
                / m as f64
        },
        |e| rank_comm_cost(scenario, e, kappa),
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
    use robusched_platform::{UncertaintyKind, UncertaintyModel};

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
    fn rank_edges_follow_the_uncertainty_family() {
        // Uniform at UL 1.5: a weight c has mean 1.25·c and σ 0.5·c/√12.
        let mut s = Scenario::paper_random(10, 3, 1.5, 1);
        s.uncertainty = UncertaintyModel {
            ul: 1.5,
            kind: UncertaintyKind::Uniform,
        };
        let kappa = 2.0;
        for e in 0..s.graph.dag.edge_count() {
            let cbar = s.avg_det_comm_cost(e);
            let model = &s.uncertainty;
            let rank = rank_comm_cost(&s, e, kappa);
            let priced = model.mean_weight(cbar) + kappa * model.std_weight(cbar);
            assert_eq!(rank.to_bits(), priced.to_bits(), "edge {e}");
            let closed = 1.25 * cbar + kappa * 0.5 * cbar / 12f64.sqrt();
            assert!(
                (rank - closed).abs() <= 1e-12 * closed,
                "edge {e}: {rank} vs {closed}"
            );
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
