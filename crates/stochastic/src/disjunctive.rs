//! The disjunctive graph of a schedule.
//!
//! §II: *"since the number of processors is bounded we have to modify the
//! graph to obtain a distribution of the makespan that corresponds to a
//! given schedule. This is done by adding edges between independent tasks
//! when they are scheduled consecutively on the same processor (such a
//! graph is called the disjunctive graph, see \[15\])."*
//!
//! The disjunctive graph is what the analytic evaluators and the slack
//! metrics operate on: with it, a bounded-processor schedule becomes a pure
//! precedence network.

use robusched_dag::{Dag, EdgeId};
use robusched_sched::Schedule;

/// A schedule-augmented precedence graph.
#[derive(Debug, Clone)]
pub struct DisjunctiveGraph {
    /// The augmented DAG (original edges first, machine edges appended).
    pub dag: Dag,
    /// For every edge of `dag`: `Some(original_edge_id)` if it carries a
    /// communication, `None` if it is a machine-sequencing edge (no data —
    /// zero delay).
    pub orig_edge: Vec<Option<EdgeId>>,
}

impl DisjunctiveGraph {
    /// Builds the disjunctive graph of `schedule` over `dag`.
    ///
    /// Machine edges that would duplicate an existing precedence edge are
    /// skipped: consecutive same-machine tasks already ordered by a
    /// dependence edge need no second constraint (and their communication
    /// is zero anyway, the machines being equal).
    ///
    /// # Panics
    /// Panics if the combined graph is cyclic (i.e. the schedule deadlocks,
    /// which `Schedule::validate` would have caught).
    pub fn build(dag: &Dag, schedule: &Schedule) -> Self {
        let n = dag.node_count();
        let mut aug = Dag::new(n);
        let mut orig_edge = Vec::with_capacity(dag.edge_count());
        for (u, v, e) in dag.edge_triples() {
            aug.add_edge(u, v);
            orig_edge.push(Some(e));
        }
        for p in 0..schedule.machine_count() {
            let order = schedule.order_on(p);
            for w in order.windows(2) {
                if !aug.has_edge(w[0], w[1]) {
                    aug.add_edge(w[0], w[1]);
                    orig_edge.push(None);
                }
            }
        }
        assert!(
            aug.is_acyclic(),
            "disjunctive graph cyclic: schedule deadlocks"
        );
        Self {
            dag: aug,
            orig_edge,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Dag {
        let mut g = Dag::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        g
    }

    #[test]
    fn machine_edges_added() {
        let dag = diamond();
        // 1 and 2 are independent but share machine 0, order [1, 2].
        let s = Schedule::new(vec![0, 0, 0, 1], vec![vec![0, 1, 2], vec![3]]);
        let dg = DisjunctiveGraph::build(&dag, &s);
        // Original 4 edges + machine edge 1→2 (0→1 already exists).
        assert_eq!(dg.dag.edge_count(), 5);
        assert!(dg.dag.has_edge(1, 2));
        assert_eq!(dg.orig_edge.len(), 5);
        assert_eq!(dg.orig_edge[4], None);
        // Originals keep their ids.
        assert_eq!(dg.orig_edge[0], Some(0));
    }

    #[test]
    fn duplicate_machine_edges_skipped() {
        let dag = diamond();
        // Order 0,1 on machine 0 duplicates the precedence edge 0→1.
        let s = Schedule::new(vec![0, 0, 1, 1], vec![vec![0, 1], vec![2, 3]]);
        let dg = DisjunctiveGraph::build(&dag, &s);
        // 0→1 and 2→3 both already exist: no new edges.
        assert_eq!(dg.dag.edge_count(), 4);
    }

    #[test]
    fn sinks_of_sequential_schedule() {
        let dag = diamond();
        let s = Schedule::new(vec![0; 4], vec![vec![0, 2, 1, 3]]);
        let dg = DisjunctiveGraph::build(&dag, &s);
        assert_eq!(dg.dag.exit_nodes(), vec![3]);
        // The chain has depth 4 now.
        assert_eq!(dg.dag.depth(), 4);
    }

    #[test]
    fn independent_tasks_serialized() {
        let dag = Dag::new(3); // no precedence at all
        let s = Schedule::new(vec![0, 0, 0], vec![vec![2, 0, 1]]);
        let dg = DisjunctiveGraph::build(&dag, &s);
        assert_eq!(dg.dag.edge_count(), 2);
        assert!(dg.dag.has_edge(2, 0));
        assert!(dg.dag.has_edge(0, 1));
        assert_eq!(dg.dag.exit_nodes(), vec![1]);
    }
}
