//! HEFT — Heterogeneous Earliest Finish Time (Topcuoglu, Hariri & Wu).
//!
//! One of the three makespan-centric heuristics the paper evaluates for
//! robustness. Two phases:
//!
//! 1. *Prioritizing*: tasks sorted by decreasing upward rank computed with
//!    machine-mean computation costs and mean communication costs;
//! 2. *Processor selection*: each task goes to the machine minimizing its
//!    earliest finish time, with the insertion policy (idle gaps between
//!    already-placed tasks may be used).
//!
//! The result is an eager schedule: replaying the per-machine orders with
//! the same deterministic durations reproduces the planned finish times
//! bit for bit (a unit test in [`crate::timeline`] checks this for HEFT,
//! σ-HEFT, CPOP and BIL).

use crate::rank::{tasks_by_decreasing_rank, upward_ranks};
use crate::schedule::Schedule;
use crate::timeline::PartialSchedule;
use robusched_dag::{EdgeId, NodeId};
use robusched_platform::Scenario;

/// Runs HEFT on the deterministic (minimum) costs.
pub fn heft(scenario: &Scenario) -> Schedule {
    rank_then_place(
        scenario,
        &upward_ranks(scenario),
        |t, p| scenario.det_task_cost(t, p),
        |e, p, q| scenario.det_comm_cost(e, p, q),
    )
    .into_schedule()
}

/// HEFT's two phases under any cost model: tasks in decreasing `ranks`
/// order, each placed by the insertion policy on the machine where it
/// finishes first, `dur(t, p)` being its duration there and `comm(e, p,
/// q)` the transfer time of edge `e` from machine `p` to `q`. σ-HEFT calls
/// it with risk-adjusted costs.
pub(crate) fn rank_then_place<'a, D, C>(
    scenario: &'a Scenario,
    ranks: &[f64],
    dur: D,
    comm: C,
) -> PartialSchedule<'a>
where
    D: Fn(NodeId, usize) -> f64,
    C: Fn(EdgeId, usize, usize) -> f64,
{
    let m = scenario.machine_count();
    let mut plan = PartialSchedule::new(&scenario.graph.dag, m);
    for t in tasks_by_decreasing_rank(ranks) {
        plan.place_earliest_finish(t, 0..m, |p| dur(t, p), &comm);
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::det_makespan;
    use robusched_dag::{generators, Dag, TaskGraph};
    use robusched_platform::{CostMatrix, Platform, Scenario, UncertaintyModel};

    #[test]
    fn heft_valid_on_random_scenarios() {
        for seed in 0..5 {
            let s = Scenario::paper_random(30, 4, 1.1, seed);
            let sched = heft(&s);
            assert!(sched.validate(&s.graph.dag).is_ok());
            assert!(det_makespan(&s, &sched) > 0.0);
        }
    }

    #[test]
    fn heft_beats_sequential_when_parallelism_available() {
        let s = Scenario::paper_random(30, 8, 1.01, 3);
        let sched = heft(&s);
        let heft_ms = det_makespan(&s, &sched);
        // Sequential baseline: everything on machine 0 in topo order.
        let topo = s.graph.dag.topo_order().unwrap();
        let seq = Schedule::new(
            vec![0; 30],
            vec![topo, vec![], vec![], vec![], vec![], vec![], vec![], vec![]],
        );
        let seq_ms = det_makespan(&s, &seq);
        assert!(
            heft_ms < seq_ms,
            "HEFT {heft_ms} should beat sequential {seq_ms}"
        );
    }

    #[test]
    fn heft_single_machine_is_rank_order() {
        let s = Scenario::paper_random(10, 1, 1.1, 9);
        let sched = heft(&s);
        assert!(sched.validate(&s.graph.dag).is_ok());
        assert_eq!(sched.order_on(0).len(), 10);
    }

    #[test]
    fn heft_prefers_fast_machine_on_single_task() {
        let dag = Dag::new(1);
        let tg = TaskGraph::new(dag, vec![1.0], vec![], "one");
        let costs = CostMatrix::from_rows(1, 3, vec![5.0, 1.0, 3.0]);
        let s = Scenario::new(
            tg,
            Platform::paper_default(3),
            costs,
            UncertaintyModel::none(),
        );
        let sched = heft(&s);
        assert_eq!(sched.machine_of(0), 1);
    }

    #[test]
    fn heft_exploits_insertion_gap() {
        // Fork-join where one branch is long: the short branch should slot
        // alongside, not serialize.
        let tg = generators::fork_join(2);
        // Tasks 0,1 branches; 2 join. Unit comm volume 0 (fork_join sets 0).
        let costs = CostMatrix::from_rows(
            3,
            2,
            vec![
                10.0, 10.0, // task 0 long everywhere
                1.0, 1.0, // task 1 short
                1.0, 1.0, // join
            ],
        );
        let s = Scenario::new(
            tg,
            Platform::paper_default(2),
            costs,
            UncertaintyModel::none(),
        );
        let sched = heft(&s);
        let ms = det_makespan(&s, &sched);
        // Optimal: run branches in parallel → 10 + 1 = 11.
        assert!(ms <= 11.0 + 1e-9, "makespan {ms}");
    }
}
