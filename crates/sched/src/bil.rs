//! BIL — Best Imaginary Level scheduling (Oh & Ha, Euro-Par 1996).
//!
//! The second of the paper's three evaluated heuristics. The *basic
//! imaginary level* of task `i` on processor `j` captures the best possible
//! remaining path length if `i` runs on `j`:
//!
//! ```text
//! BIL(i, j) = w(i, j) + max_{k ∈ succ(i)} min( BIL(k, j),
//!                                              min_{q ≠ j} BIL(k, q) + c̄(i, k) )
//! ```
//!
//! At each scheduling step the *basic imaginary makespan*
//! `BIM(i, j) = max(EST(i, j), avail(j)) + BIL(i, j)` is formed for every
//! ready task; the task whose `k`-th smallest BIM (`k = min(r, m)`, `r` =
//! number of ready tasks) is largest gets scheduled first — when fewer
//! processors than ready tasks remain, a task's realistic option is its
//! `k`-th best processor, not its best. Processor selection minimizes the
//! revised `BIM*(i, j) = BIM(i, j) + w(i, j)·max(r/m − 1, 0)`, penalizing
//! long executions when processors are oversubscribed. This follows Oh &
//! Ha's construction; DESIGN.md records it as a faithful reconstruction.

use crate::schedule::Schedule;
use crate::timeline::PartialSchedule;
use robusched_platform::Scenario;

/// Computes the BIL table (`n × m`, row-major).
///
/// `min_{q ≠ j} BIL(k, q) + c̄` is `fl(x + c̄)` at the smallest `x` over
/// `q ≠ j`, because rounding `x + c̄` is monotone in `x`; that smallest `x`
/// is the row's minimum unless `j` holds it, and then the runner-up. Each
/// finished row's two smallest entries make the table `O(e·m)`.
fn bil_table(scenario: &Scenario) -> Vec<f64> {
    let dag = &scenario.graph.dag;
    let n = dag.node_count();
    let m = scenario.machine_count();
    let order = dag.topo_order().expect("acyclic");
    let mut bil = vec![0.0f64; n * m];
    // Per finished row: its smallest entry's machine, the entry, and the
    // smallest entry on any other machine (∞ with one machine).
    let mut smallest = vec![(0usize, 0.0f64, 0.0f64); n];
    for &v in order.iter().rev() {
        for j in 0..m {
            let mut level = 0.0f64;
            for &(k, e) in dag.succs(v) {
                let cbar = scenario.avg_det_comm_cost(e);
                // Option A: successor stays on j (no transfer).
                let stay = bil[k * m + j];
                // Option B: successor moves to the best other processor.
                let (q_min, min, runner_up) = smallest[k];
                let go = if j == q_min { runner_up } else { min } + cbar;
                let best = stay.min(go);
                if best > level {
                    level = best;
                }
            }
            bil[v * m + j] = scenario.det_task_cost(v, j) + level;
        }
        smallest[v] = two_smallest(&bil[v * m..(v + 1) * m]);
    }
    bil
}

/// The first smallest entry's index, that entry, and the smallest entry at
/// any other index (`∞` for a single entry).
fn two_smallest(row: &[f64]) -> (usize, f64, f64) {
    let (mut at, mut min, mut runner_up) = (0, f64::INFINITY, f64::INFINITY);
    for (q, &x) in row.iter().enumerate() {
        if x < min {
            (at, min, runner_up) = (q, x, min);
        } else if x < runner_up {
            runner_up = x;
        }
    }
    (at, min, runner_up)
}

/// Runs BIL scheduling on the deterministic (minimum) costs.
pub fn bil(scenario: &Scenario) -> Schedule {
    plan(scenario).into_schedule()
}

/// BIL's placement, before it becomes a [`Schedule`].
pub(crate) fn plan(scenario: &Scenario) -> PartialSchedule<'_> {
    let dag = &scenario.graph.dag;
    let n = dag.node_count();
    let m = scenario.machine_count();
    let table = bil_table(scenario);
    let comm = |e, p, q| scenario.det_comm_cost(e, p, q);

    let mut plan = PartialSchedule::new(dag, m);
    let mut indeg: Vec<usize> = (0..n).map(|v| dag.in_degree(v)).collect();
    let mut ready: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
    // Each ready task's data-ready time per machine (`n × m`), fixed once
    // all its predecessors are placed: filled when it becomes ready (an
    // entry task's stays at the fold's start, 0.0).
    let mut data_ready = vec![0.0f64; n * m];
    // Reusable scratch for per-task BIM rows.
    let mut bims = vec![0.0f64; m];

    while !ready.is_empty() {
        let r = ready.len();
        let k = r.min(m);
        // Selection: the task whose k-th smallest BIM is largest.
        let mut chosen_idx = 0usize;
        let mut chosen_score = f64::NEG_INFINITY;
        for (idx, &t) in ready.iter().enumerate() {
            for (j, slot) in bims.iter_mut().enumerate() {
                let start = plan.earliest_append(j, data_ready[t * m + j]);
                *slot = start + table[t * m + j];
            }
            let score = *bims.select_nth_unstable_by(k - 1, f64::total_cmp).1;
            if score > chosen_score || (score == chosen_score && ready[idx] < ready[chosen_idx]) {
                chosen_score = score;
                chosen_idx = idx;
            }
        }
        let t = ready.swap_remove(chosen_idx);

        // Processor selection: minimize the revised BIM*.
        let oversub = (r as f64 / m as f64 - 1.0).max(0.0);
        let mut best_j = 0usize;
        let mut best_val = f64::INFINITY;
        let mut best_start = 0.0f64;
        for j in 0..m {
            let start = plan.earliest_append(j, data_ready[t * m + j]);
            let w = scenario.det_task_cost(t, j);
            let bim_star = start + table[t * m + j] + w * oversub;
            if bim_star < best_val {
                best_val = bim_star;
                best_j = j;
                best_start = start;
            }
        }
        plan.commit(t, best_j, best_start, scenario.det_task_cost(t, best_j));
        for &(s, _) in dag.succs(t) {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                for (j, dr) in data_ready[s * m..(s + 1) * m].iter_mut().enumerate() {
                    *dr = plan.data_ready(s, j, comm);
                }
                ready.push(s);
            }
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::det_makespan;
    use robusched_dag::{Dag, TaskGraph};
    use robusched_platform::{CostMatrix, Platform, Scenario, UncertaintyModel};

    #[test]
    fn bil_valid_on_random_scenarios() {
        for seed in 0..5 {
            let s = Scenario::paper_random(25, 4, 1.1, seed);
            let sched = bil(&s);
            assert!(sched.validate(&s.graph.dag).is_ok());
            assert!(det_makespan(&s, &sched) > 0.0);
        }
    }

    #[test]
    fn bil_table_chain_values() {
        // Chain 0 → 1 with homogeneous cost 2 and mean comm 1:
        // BIL(1, j) = 2; BIL(0, j) = 2 + min(2, 2 + 1) = 4.
        let mut dag = Dag::new(2);
        dag.add_edge(0, 1);
        let tg = TaskGraph::new(dag, vec![1.0; 2], vec![1.0], "c");
        let costs = CostMatrix::from_rows(2, 2, vec![2.0; 4]);
        let s = Scenario::new(
            tg,
            Platform::homogeneous(2, 1.0, 0.0),
            costs,
            UncertaintyModel::none(),
        );
        let t = bil_table(&s);
        assert_eq!(t, vec![4.0, 4.0, 2.0, 2.0]);
    }

    #[test]
    fn bil_table_matches_the_minimum_over_other_machines() {
        // The recurrence with `min_{q ≠ j}` taken machine by machine.
        for (n, m, seed) in [(20, 1, 1), (30, 2, 2), (40, 5, 3), (25, 8, 4)] {
            let s = Scenario::paper_random(n, m, 1.1, seed);
            let dag = &s.graph.dag;
            let mut want = vec![0.0f64; n * m];
            for &v in dag.topo_order().unwrap().iter().rev() {
                for j in 0..m {
                    let mut level = 0.0f64;
                    for &(k, e) in dag.succs(v) {
                        let cbar = s.avg_det_comm_cost(e);
                        let go = (0..m)
                            .filter(|&q| q != j)
                            .map(|q| want[k * m + q] + cbar)
                            .fold(f64::INFINITY, f64::min);
                        level = level.max(want[k * m + j].min(go));
                    }
                    want[v * m + j] = s.det_task_cost(v, j) + level;
                }
            }
            let bits = |t: &[f64]| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&bil_table(&s)), bits(&want), "n = {n}, m = {m}");
        }
    }

    #[test]
    fn bil_single_task_picks_fastest() {
        let dag = Dag::new(1);
        let tg = TaskGraph::new(dag, vec![1.0], vec![], "one");
        let costs = CostMatrix::from_rows(1, 3, vec![9.0, 2.0, 4.0]);
        let s = Scenario::new(
            tg,
            Platform::paper_default(3),
            costs,
            UncertaintyModel::none(),
        );
        let sched = bil(&s);
        assert_eq!(sched.machine_of(0), 1);
    }

    #[test]
    fn bil_competitive_with_heft() {
        // The paper reports "excellent and consistent" performance for all
        // three heuristics on these low-unrelatedness platforms.
        let mut worse = 0;
        for seed in 0..8 {
            let s = Scenario::paper_random(30, 4, 1.1, 100 + seed);
            let b = det_makespan(&s, &bil(&s));
            let h = det_makespan(&s, &crate::heft(&s));
            if b > 1.5 * h {
                worse += 1;
            }
        }
        assert!(worse <= 2, "BIL was >1.5× HEFT on {worse}/8 scenarios");
    }
}
