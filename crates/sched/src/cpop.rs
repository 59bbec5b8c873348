//! CPOP — Critical Path On a Processor (Topcuoglu, Hariri & Wu).
//!
//! The paper cites CPOP among the makespan heuristics (§I) without
//! evaluating it; we include it as an extension so the robustness study can
//! compare a fourth heuristic. CPOP pins the whole critical path onto the
//! single machine that executes it fastest and schedules the remaining
//! tasks by earliest finish time with priorities `rank_u + rank_d`.

use crate::rank::{downward_ranks, upward_ranks};
use crate::schedule::Schedule;
use crate::timeline::PartialSchedule;
use robusched_platform::Scenario;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Priority-queue entry ordered by decreasing priority then node id.
#[derive(PartialEq)]
struct Entry {
    priority: f64,
    task: usize,
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // `total_cmp` gives NaN priorities a deterministic place in the
        // heap order instead of collapsing them to "equal".
        self.priority
            .total_cmp(&other.priority)
            .then_with(|| other.task.cmp(&self.task))
    }
}

/// Runs CPOP on the deterministic (minimum) costs.
pub fn cpop(scenario: &Scenario) -> Schedule {
    plan(scenario).into_schedule()
}

/// CPOP's placement, before it becomes a [`Schedule`].
pub(crate) fn plan(scenario: &Scenario) -> PartialSchedule<'_> {
    let dag = &scenario.graph.dag;
    let n = dag.node_count();
    let m = scenario.machine_count();
    let ru = upward_ranks(scenario);
    let rd = downward_ranks(scenario);
    let prio: Vec<f64> = (0..n).map(|v| ru[v] + rd[v]).collect();

    // The critical path: walk from the highest-priority entry node, always
    // following the successor with the highest priority.
    let mut cp_member = vec![false; n];
    let mut cursor = Some(
        dag.entry_nodes()
            .into_iter()
            .max_by(|&a, &b| prio[a].total_cmp(&prio[b]))
            .expect("graph has at least one entry"),
    );
    while let Some(v) = cursor {
        cp_member[v] = true;
        cursor = dag
            .succs(v)
            .iter()
            .map(|&(s, _)| s)
            .max_by(|&a, &b| prio[a].total_cmp(&prio[b]));
    }

    // The critical-path machine minimizes the total CP execution time.
    let cp_machine = (0..m)
        .min_by(|&a, &b| {
            let ca: f64 = (0..n)
                .filter(|&v| cp_member[v])
                .map(|v| scenario.det_task_cost(v, a))
                .sum();
            let cb: f64 = (0..n)
                .filter(|&v| cp_member[v])
                .map(|v| scenario.det_task_cost(v, b))
                .sum();
            ca.total_cmp(&cb)
        })
        .expect("at least one machine");

    // Priority-driven list scheduling; critical-path tasks may only go to
    // the critical-path machine.
    let mut plan = PartialSchedule::new(dag, m);
    let mut indeg: Vec<usize> = (0..n).map(|v| dag.in_degree(v)).collect();
    let mut heap: BinaryHeap<Entry> = (0..n)
        .filter(|&v| indeg[v] == 0)
        .map(|v| Entry {
            priority: prio[v],
            task: v,
        })
        .collect();

    while let Some(Entry { task: t, .. }) = heap.pop() {
        let machines = if cp_member[t] {
            cp_machine..cp_machine + 1
        } else {
            0..m
        };
        plan.place_earliest_finish(
            t,
            machines,
            |p| scenario.det_task_cost(t, p),
            |e, p, q| scenario.det_comm_cost(e, p, q),
        );
        for &(s, _) in dag.succs(t) {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                heap.push(Entry {
                    priority: prio[s],
                    task: s,
                });
            }
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::det_makespan;
    use robusched_platform::Scenario;

    #[test]
    fn cpop_valid_on_random_scenarios() {
        for seed in 0..5 {
            let s = Scenario::paper_random(25, 4, 1.1, seed);
            let sched = cpop(&s);
            assert!(sched.validate(&s.graph.dag).is_ok());
            assert!(det_makespan(&s, &sched) > 0.0);
        }
    }

    #[test]
    fn critical_path_tasks_share_a_machine() {
        let s = Scenario::paper_random(30, 4, 1.01, 11);
        let sched = cpop(&s);
        // Recompute CP membership the same way and check the assignment.
        let ru = upward_ranks(&s);
        let rd = downward_ranks(&s);
        let n = s.task_count();
        let prio: Vec<f64> = (0..n).map(|v| ru[v] + rd[v]).collect();
        let entry = s
            .graph
            .dag
            .entry_nodes()
            .into_iter()
            .max_by(|&a, &b| prio[a].total_cmp(&prio[b]))
            .unwrap();
        let cp_machine = sched.machine_of(entry);
        let mut cursor = entry;
        loop {
            assert_eq!(
                sched.machine_of(cursor),
                cp_machine,
                "CP task {cursor} strayed"
            );
            match s
                .graph
                .dag
                .succs(cursor)
                .iter()
                .map(|&(v, _)| v)
                .max_by(|&a, &b| prio[a].total_cmp(&prio[b]))
            {
                Some(nxt) => cursor = nxt,
                None => break,
            }
        }
    }

    #[test]
    fn cpop_reasonable_vs_heft() {
        // CPOP need not beat HEFT but should be within a small factor.
        let s = Scenario::paper_random(40, 4, 1.1, 21);
        let h = det_makespan(&s, &crate::heft(&s));
        let c = det_makespan(&s, &cpop(&s));
        assert!(c < 3.0 * h, "CPOP {c} vs HEFT {h}");
    }
}
