//! Hyb.BMCT — the hybrid heuristic of Sakellariou & Zhao (HCW 2004).
//!
//! The third heuristic the paper evaluates. Two phases:
//!
//! 1. tasks are ranked by decreasing mean-cost upward rank and split into
//!    *groups of independent tasks*: scanning the ranked list, a task opens
//!    a new group as soon as it depends on a task of the current group —
//!    every group is then an independent-task scheduling subproblem;
//! 2. each group is scheduled with **BMCT** (Balanced Minimum Completion
//!    Time): every task starts on its fastest machine, then tasks migrate
//!    off the most-loaded machine while the group completion time strictly
//!    improves.
//!
//! Groups are committed in order; later groups see the machine availability
//! and data locations produced by earlier ones.

use crate::rank::{tasks_by_decreasing_rank, upward_ranks};
use crate::schedule::Schedule;
use crate::timeline::data_ready;
use robusched_platform::Scenario;

/// Runs Hyb.BMCT on the deterministic (minimum) costs.
pub fn hyb_bmct(scenario: &Scenario) -> Schedule {
    let dag = &scenario.graph.dag;
    let n = dag.node_count();
    let m = scenario.machine_count();
    let ranks = upward_ranks(scenario);
    let ranked = tasks_by_decreasing_rank(&ranks);

    // ---- Phase 1: independent groups along the rank order. ----
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = Vec::new();
    let mut in_current = vec![false; n];
    for &t in &ranked {
        let depends = dag.preds(t).iter().any(|&(u, _)| in_current[u]);
        if depends {
            for &x in &current {
                in_current[x] = false;
            }
            groups.push(std::mem::take(&mut current));
        }
        in_current[t] = true;
        current.push(t);
    }
    if !current.is_empty() {
        groups.push(current);
    }

    // ---- Phase 2: BMCT per group. ----
    let mut avail = vec![0.0f64; m]; // machine availability after commits
    let mut finish = vec![0.0f64; n];
    let mut assignment = vec![usize::MAX; n];
    let mut proc_order: Vec<Vec<usize>> = vec![Vec::new(); m];

    let comm = |e, p, q| scenario.det_comm_cost(e, p, q);

    for group in &groups {
        // Initial BMCT assignment: fastest machine per task.
        let mut g_assign: Vec<usize> = group
            .iter()
            .map(|&t| {
                (0..m)
                    .min_by(|&a, &b| {
                        scenario
                            .det_task_cost(t, a)
                            .total_cmp(&scenario.det_task_cost(t, b))
                    })
                    .unwrap()
            })
            .collect();

        // Evaluates the group's per-machine finish times under a candidate
        // assignment; returns (group makespan, balance potential, per-task
        // finishes). The potential is the sum of squared machine finish
        // times: it strictly decreases on every balancing move, so the
        // refinement cannot cycle.
        let evaluate = |g_assign: &[usize]| -> (f64, f64, Vec<f64>) {
            let mut cursor = avail.clone();
            let mut fin = vec![0.0f64; group.len()];
            // Tasks hit each machine in rank order (the group vector is
            // already rank-sorted); their predecessors are all committed in
            // earlier groups.
            for (idx, &t) in group.iter().enumerate() {
                let j = g_assign[idx];
                let start = cursor[j].max(data_ready(dag, &assignment, &finish, t, j, comm));
                let f = start + scenario.det_task_cost(t, j);
                cursor[j] = f;
                fin[idx] = f;
            }
            let ms = cursor.iter().copied().fold(0.0, f64::max);
            let potential = cursor.iter().map(|c| c * c).sum::<f64>();
            (ms, potential, fin)
        };

        // BMCT refinement: migrate tasks off the machine finishing last
        // while the (makespan, balance-potential) pair lexicographically
        // improves — plain makespan-only acceptance stalls on plateaus
        // where several machines tie.
        let (mut cur_ms, mut cur_pot, _) = evaluate(&g_assign);
        let max_iters = 4 * group.len() * m + 8;
        for _ in 0..max_iters {
            // Identify the machine finishing last in this group.
            let (_, _, fin) = evaluate(&g_assign);
            let mut busiest = 0usize;
            let mut busiest_f = f64::NEG_INFINITY;
            for (idx, _) in group.iter().enumerate() {
                if fin[idx] > busiest_f {
                    busiest_f = fin[idx];
                    busiest = g_assign[idx];
                }
            }
            let mut best_move: Option<(usize, usize)> = None;
            let mut best_key = (cur_ms, cur_pot);
            for (idx, _) in group.iter().enumerate() {
                if g_assign[idx] != busiest {
                    continue;
                }
                for q in 0..m {
                    if q == busiest {
                        continue;
                    }
                    let old = g_assign[idx];
                    g_assign[idx] = q;
                    let (ms, pot, _) = evaluate(&g_assign);
                    g_assign[idx] = old;
                    let better = ms + 1e-12 < best_key.0
                        || (ms <= best_key.0 + 1e-12 && pot + 1e-9 < best_key.1);
                    if better {
                        best_key = (ms, pot);
                        best_move = Some((idx, q));
                    }
                }
            }
            match best_move {
                Some((idx, q)) => {
                    g_assign[idx] = q;
                    cur_ms = best_key.0;
                    cur_pot = best_key.1;
                }
                None => break,
            }
        }

        // Commit the group.
        let (_, _, fin) = evaluate(&g_assign);
        for (idx, &t) in group.iter().enumerate() {
            let j = g_assign[idx];
            assignment[t] = j;
            finish[t] = fin[idx];
            proc_order[j].push(t);
            avail[j] = avail[j].max(fin[idx]);
        }
    }

    Schedule::new(assignment, proc_order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::det_makespan;
    use robusched_dag::TaskGraph;
    use robusched_platform::{CostMatrix, Platform, UncertaintyModel};

    #[test]
    fn bmct_valid_on_random_scenarios() {
        for seed in 0..5 {
            let s = Scenario::paper_random(25, 4, 1.1, seed);
            let sched = hyb_bmct(&s);
            assert!(
                sched.validate(&s.graph.dag).is_ok(),
                "invalid schedule at seed {seed}"
            );
            assert!(det_makespan(&s, &sched) > 0.0);
        }
    }

    #[test]
    fn independent_tasks_balance_across_machines() {
        // 8 equal independent tasks on 4 equal machines → 2 per machine.
        let tg = robusched_dag::generators::independent(8);
        let costs = CostMatrix::from_rows(8, 4, vec![1.0; 32]);
        let s = Scenario::new(
            tg,
            Platform::paper_default(4),
            costs,
            UncertaintyModel::none(),
        );
        let sched = hyb_bmct(&s);
        let ms = det_makespan(&s, &sched);
        assert!(
            (ms - 2.0).abs() < 1e-9,
            "expected balanced makespan 2, got {ms}"
        );
    }

    #[test]
    fn groups_respect_dependencies() {
        let s = Scenario::paper_random(30, 4, 1.1, 9);
        let sched = hyb_bmct(&s);
        assert!(sched.validate(&s.graph.dag).is_ok());
    }

    #[test]
    fn bmct_competitive_with_heft() {
        let mut ratio_sum = 0.0;
        let k = 8;
        for seed in 0..k {
            let s = Scenario::paper_random(30, 4, 1.1, 200 + seed);
            let b = det_makespan(&s, &hyb_bmct(&s));
            let h = det_makespan(&s, &crate::heft(&s));
            ratio_sum += b / h;
        }
        let avg = ratio_sum / k as f64;
        assert!(avg < 1.4, "Hyb.BMCT averaged {avg}× HEFT");
    }

    #[test]
    fn single_chain_single_machine_consistency() {
        let tg = robusched_dag::generators::chain(6);
        let costs = CostMatrix::from_rows(6, 2, vec![1.0; 12]);
        let s = Scenario::new(
            tg,
            Platform::homogeneous(2, 1.0, 0.0),
            costs,
            UncertaintyModel::none(),
        );
        let sched = hyb_bmct(&s);
        let ms = det_makespan(&s, &sched);
        // A chain cannot beat the sum of its durations... unless comm-free
        // machine hops, which cost 1 per volume here, make it worse.
        assert!(ms >= 6.0 - 1e-9);
    }

    #[allow(unused_imports)]
    use robusched_dag::Dag;
    use robusched_platform::Scenario;
    #[allow(unused_imports)]
    use TaskGraph as _TG;
}
