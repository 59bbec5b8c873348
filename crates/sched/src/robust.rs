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

use crate::schedule::Schedule;
use crate::timeline::ProcTimeline;
use robusched_platform::Scenario;

/// Risk-adjusted cost of task `v` on machine `p`: `mean + κ·σ`.
#[inline]
fn risk_cost(scenario: &Scenario, v: usize, p: usize, kappa: f64) -> f64 {
    scenario.mean_task_cost(v, p) + kappa * scenario.std_task_cost(v, p)
}

/// Machine-averaged risk-adjusted cost (rank ingredient).
fn avg_risk_cost(scenario: &Scenario, v: usize, kappa: f64) -> f64 {
    let m = scenario.machine_count();
    (0..m)
        .map(|p| risk_cost(scenario, v, p, kappa))
        .sum::<f64>()
        / m as f64
}

/// Upward ranks on risk-adjusted costs.
fn risk_ranks(scenario: &Scenario, kappa: f64) -> Vec<f64> {
    let dag = &scenario.graph.dag;
    let order = dag.topo_order().expect("acyclic");
    let mut rank = vec![0.0f64; dag.node_count()];
    for &v in order.iter().rev() {
        let mut best = 0.0f64;
        for &(s, e) in dag.succs(v) {
            // Mean communication cost over distinct pairs plus κ·σ of the
            // same (σ of comm is proportional to its mean under the model).
            let cbar = scenario.avg_det_comm_cost(e);
            let cbar_risk = scenario.uncertainty.mean_weight(cbar)
                + kappa * (scenario.uncertainty.ul - 1.0) * cbar * BETA25_STD;
            let cand = cbar_risk + rank[s];
            if cand > best {
                best = cand;
            }
        }
        rank[v] = avg_risk_cost(scenario, v, kappa) + best;
    }
    rank
}

/// Standard deviation of the unit Beta(2, 5): √(10/(49·8)).
const BETA25_STD: f64 = 0.159_719_141_249_985_4;

/// Runs σ-HEFT with risk weight `κ` (κ = 1 is a good default).
pub fn sigma_heft(scenario: &Scenario, kappa: f64) -> Schedule {
    assert!(kappa >= 0.0, "risk weight must be non-negative");
    let dag = &scenario.graph.dag;
    let n = dag.node_count();
    let m = scenario.machine_count();
    let ranks = risk_ranks(scenario, kappa);
    let order = crate::rank::tasks_by_decreasing_rank(&ranks);

    let mut timelines: Vec<ProcTimeline> = vec![ProcTimeline::new(); m];
    let mut assignment = vec![usize::MAX; n];
    let mut finish = vec![0.0f64; n];

    for &t in &order {
        let mut best_p = 0usize;
        let mut best_start = f64::INFINITY;
        let mut best_eft = f64::INFINITY;
        for (p, timeline) in timelines.iter().enumerate() {
            let mut ready = 0.0f64;
            for &(u, e) in dag.preds(t) {
                let pu = assignment[u];
                let mean_comm = scenario.mean_comm_cost(e, pu, p);
                let comm_risk = mean_comm + kappa * scenario.std_comm_cost(e, pu, p);
                let arrival = finish[u] + comm_risk;
                if arrival > ready {
                    ready = arrival;
                }
            }
            let dur = risk_cost(scenario, t, p, kappa);
            let start = timeline.earliest_slot(ready, dur);
            if start + dur < best_eft {
                best_eft = start + dur;
                best_start = start;
                best_p = p;
            }
        }
        let dur = risk_cost(scenario, t, best_p, kappa);
        timelines[best_p].insert(best_start, dur, t);
        assignment[t] = best_p;
        finish[t] = best_eft;
    }

    Schedule::new(
        assignment,
        timelines.into_iter().map(|tl| tl.task_order()).collect(),
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
