//! Rank (priority) functions for list heuristics.
//!
//! HEFT, CPOP and Hyb.BMCT all prioritize tasks by *upward rank*: the
//! length of the longest path from the task to an exit, using average
//! (machine-mean) computation costs and average communication costs. CPOP
//! additionally uses the *downward rank* from the entries.

use robusched_dag::NodeId;
use robusched_platform::Scenario;

/// Upward ranks with mean costs: `rank_u(i) = w̄(i) + max_{j ∈ succ(i)}
/// (c̄(i,j) + rank_u(j))`.
pub fn upward_ranks(scenario: &Scenario) -> Vec<f64> {
    scenario.graph.dag.bottom_levels(
        |v| scenario.avg_det_task_cost(v),
        |e| scenario.avg_det_comm_cost(e),
    )
}

/// Downward ranks with mean costs: `rank_d(i) = max_{j ∈ pred(i)}
/// (rank_d(j) + w̄(j) + c̄(j,i))`.
pub fn downward_ranks(scenario: &Scenario) -> Vec<f64> {
    let dag = &scenario.graph.dag;
    let order = dag.topo_order().expect("scenario graphs are acyclic");
    let mut rank = vec![0.0f64; dag.node_count()];
    for &v in &order {
        let mut best = 0.0f64;
        for &(u, e) in dag.preds(v) {
            let cand = rank[u] + scenario.avg_det_task_cost(u) + scenario.avg_det_comm_cost(e);
            if cand > best {
                best = cand;
            }
        }
        rank[v] = best;
    }
    rank
}

/// Tasks sorted by decreasing upward rank (ties by node id — the
/// deterministic HEFT ordering).
pub fn tasks_by_decreasing_rank(ranks: &[f64]) -> Vec<NodeId> {
    let mut tasks: Vec<NodeId> = (0..ranks.len()).collect();
    tasks.sort_by(|&a, &b| ranks[b].total_cmp(&ranks[a]).then_with(|| a.cmp(&b)));
    tasks
}

#[cfg(test)]
mod tests {
    use super::*;
    use robusched_dag::{Dag, TaskGraph};
    use robusched_platform::{CostMatrix, Platform, Scenario, UncertaintyModel};

    /// Chain 0 → 1 → 2 with unit comm volumes, homogeneous costs.
    fn chain_scenario() -> Scenario {
        let mut dag = Dag::new(3);
        dag.add_edge(0, 1);
        dag.add_edge(1, 2);
        let tg = TaskGraph::new(dag, vec![1.0; 3], vec![1.0; 2], "chain");
        let costs = CostMatrix::from_rows(3, 2, vec![2.0; 6]);
        Scenario::new(
            tg,
            Platform::homogeneous(2, 1.0, 0.0),
            costs,
            UncertaintyModel::none(),
        )
    }

    #[test]
    fn chain_upward_ranks() {
        let s = chain_scenario();
        let r = upward_ranks(&s);
        // rank(2) = 2; rank(1) = 2 + (1·0.5... mean tau over off-diagonal
        // pairs of a homogeneous 2-machine platform is 1) + 2 = 5;
        // rank(0) = 2 + 1 + 5 = 8.
        assert_eq!(r, vec![8.0, 5.0, 2.0]);
    }

    #[test]
    fn chain_downward_ranks() {
        let s = chain_scenario();
        let r = downward_ranks(&s);
        assert_eq!(r, vec![0.0, 3.0, 6.0]);
    }

    #[test]
    fn rank_order_monotone_along_paths() {
        let s = Scenario::paper_random(40, 4, 1.1, 77);
        let r = upward_ranks(&s);
        // Upward rank strictly decreases along every edge.
        for (u, v, _) in s.graph.dag.edge_triples() {
            assert!(r[u] > r[v], "rank not decreasing on edge {u}->{v}");
        }
    }

    #[test]
    fn sorted_tasks_are_topologically_compatible() {
        let s = Scenario::paper_random(30, 3, 1.1, 5);
        let r = upward_ranks(&s);
        let order = tasks_by_decreasing_rank(&r);
        let mut pos = vec![0usize; 30];
        for (i, &t) in order.iter().enumerate() {
            pos[t] = i;
        }
        for (u, v, _) in s.graph.dag.edge_triples() {
            assert!(pos[u] < pos[v], "rank order violates precedence");
        }
    }
}
