//! The eager executor.
//!
//! Given a schedule, the start dates of an eager execution are uniquely
//! determined by the durations in force: a task starts at the maximum of
//! (a) the finish of the task before it on its machine and (b) the arrival
//! of every predecessor's data. Those constraints form the *disjunctive
//! graph* (§II / \[15\]), whose topological order depends only on the
//! schedule — so we precompute it once per schedule ([`EagerPlan`]) and
//! replay it cheaply for every realization (the Monte-Carlo engine replays
//! its order 100 000 times per schedule, 256 realizations at a time).
//!
//! [`EagerPlan`] is the workspace's one disjunctive graph. Its edges are
//! the DAG's precedence edges plus one *machine edge* from each task to
//! the next task on its machine, unless a precedence edge already links
//! the pair ([`EagerPlan::machine_pred`] / [`EagerPlan::machine_succ`]).
//! The analytic evaluators and the slack metrics read those edges: under
//! the independence assumption a repeated constraint would take
//! `max(X, X)` and bias the result. The exact replays read the raw
//! machine neighbours ([`EagerPlan::prev_on_proc`] /
//! [`EagerPlan::next_on_proc`]), where a repeated constraint is harmless.

use crate::schedule::{Schedule, ScheduleError};
use robusched_dag::{Dag, EdgeId, NodeId};

/// Start/finish dates of one (deterministic or sampled) execution.
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// Start date per task.
    pub start: Vec<f64>,
    /// Finish date per task.
    pub finish: Vec<f64>,
    /// Completion time of the whole application.
    pub makespan: f64,
}

/// A schedule compiled for repeated eager execution: a topological order of
/// the disjunctive graph, the same-machine neighbors of every task, which
/// of them are machine edges of the disjunctive graph, and the disjunctive
/// sinks (precomputed once so per-evaluation passes stop rebuilding them —
/// the analytic evaluators take the makespan as the max over exactly these
/// tasks).
#[derive(Debug, Clone)]
pub struct EagerPlan {
    order: Vec<NodeId>,
    prev_on_proc: Vec<Option<NodeId>>,
    next_on_proc: Vec<Option<NodeId>>,
    /// `machine_edge[v]`: `v` has a machine predecessor and no precedence
    /// edge links the two, so the disjunctive graph has a machine edge
    /// into `v`.
    machine_edge: Vec<bool>,
    sinks: Vec<NodeId>,
}

impl EagerPlan {
    /// Compiles `schedule` against `dag`; fails if the eager execution
    /// would deadlock.
    pub fn new(dag: &Dag, schedule: &Schedule) -> Result<Self, ScheduleError> {
        let n = dag.node_count();
        let mut prev_on_proc = vec![None; n];
        for p in 0..schedule.machine_count() {
            let order = schedule.order_on(p);
            for w in order.windows(2) {
                prev_on_proc[w[1]] = Some(w[0]);
            }
        }
        // Kahn over DAG edges + prev_on_proc edges.
        let mut next_on_proc = vec![None; n];
        for (v, &prev) in prev_on_proc.iter().enumerate() {
            if let Some(u) = prev {
                next_on_proc[u] = Some(v);
            }
        }
        let mut indeg: Vec<usize> = (0..n)
            .map(|v| dag.in_degree(v) + usize::from(prev_on_proc[v].is_some()))
            .collect();
        let mut stack: Vec<NodeId> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = stack.pop() {
            order.push(u);
            for &(v, _) in dag.succs(u) {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    stack.push(v);
                }
            }
            if let Some(v) = next_on_proc[u] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    stack.push(v);
                }
            }
        }
        if order.len() != n {
            return Err(ScheduleError::Deadlock);
        }
        // A machine neighbour that is also a DAG predecessor is already
        // ordered by that precedence edge: no second constraint.
        let machine_edge: Vec<bool> = prev_on_proc
            .iter()
            .enumerate()
            .map(|(v, prev)| prev.is_some_and(|u| !dag.has_edge(u, v)))
            .collect();
        // Disjunctive sinks: no DAG successor and no machine successor —
        // every other task's finish is dominated by one of these.
        let sinks: Vec<NodeId> = (0..n)
            .filter(|&v| dag.out_degree(v) == 0 && next_on_proc[v].is_none())
            .collect();
        Ok(Self {
            order,
            prev_on_proc,
            next_on_proc,
            machine_edge,
            sinks,
        })
    }

    /// The disjunctive-graph topological order.
    pub fn topo_order(&self) -> &[NodeId] {
        &self.order
    }

    /// Same-machine predecessor of each task, whether or not a precedence
    /// edge also links the pair (what the exact replays wait on).
    pub fn prev_on_proc(&self) -> &[Option<NodeId>] {
        &self.prev_on_proc
    }

    /// Same-machine successor of each task, whether or not a precedence
    /// edge also links the pair.
    pub fn next_on_proc(&self) -> &[Option<NodeId>] {
        &self.next_on_proc
    }

    /// The tail of the disjunctive graph's machine edge into `v`: `v`'s
    /// machine predecessor, unless a precedence edge already links the
    /// pair.
    pub fn machine_pred(&self, v: NodeId) -> Option<NodeId> {
        self.prev_on_proc[v].filter(|_| self.machine_edge[v])
    }

    /// The head of the disjunctive graph's machine edge out of `u`: `u`'s
    /// machine successor, unless a precedence edge already links the
    /// pair.
    pub fn machine_succ(&self, u: NodeId) -> Option<NodeId> {
        self.next_on_proc[u].filter(|&v| self.machine_edge[v])
    }

    /// Tasks with neither a DAG successor nor a machine successor, in
    /// ascending task order. The makespan is the maximum of their finish
    /// times.
    pub fn disjunctive_sinks(&self) -> &[NodeId] {
        &self.sinks
    }

    /// Replays the eager execution with the given durations.
    ///
    /// `task_time(v)` is the duration of `v` on its assigned machine;
    /// `comm_time(e, u, v)` the communication delay of edge `e = (u, v)`
    /// given the (caller-known) machine pair. Both are called exactly once
    /// per task/edge.
    pub fn execute<FT, FC>(&self, dag: &Dag, mut task_time: FT, mut comm_time: FC) -> ExecResult
    where
        FT: FnMut(NodeId) -> f64,
        FC: FnMut(EdgeId, NodeId, NodeId) -> f64,
    {
        let n = dag.node_count();
        let mut start = vec![0.0f64; n];
        let mut finish = vec![0.0f64; n];
        for &v in &self.order {
            let mut ready = 0.0f64;
            if let Some(u) = self.prev_on_proc[v] {
                ready = finish[u];
            }
            for &(u, e) in dag.preds(v) {
                let arrival = finish[u] + comm_time(e, u, v);
                if arrival > ready {
                    ready = arrival;
                }
            }
            start[v] = ready;
            finish[v] = ready + task_time(v);
        }
        let makespan = finish.iter().copied().fold(0.0, f64::max);
        ExecResult {
            start,
            finish,
            makespan,
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
    fn two_machine_diamond_execution() {
        let dag = diamond();
        let s = Schedule::new(vec![0, 0, 1, 0], vec![vec![0, 1, 3], vec![2]]);
        let plan = EagerPlan::new(&dag, &s).unwrap();
        // Unit tasks; cross-machine comm = 10 on (0,2) and (2,3).
        let r = plan.execute(
            &dag,
            |_| 1.0,
            |_, u, v| {
                let pu = s.machine_of(u);
                let pv = s.machine_of(v);
                if pu == pv {
                    0.0
                } else {
                    10.0
                }
            },
        );
        assert_eq!(r.start[0], 0.0);
        assert_eq!(r.finish[0], 1.0);
        // Task 2 on machine 1 waits for comm: 1 + 10.
        assert_eq!(r.start[2], 11.0);
        assert_eq!(r.finish[2], 12.0);
        // Task 1 on machine 0 right after 0.
        assert_eq!(r.start[1], 1.0);
        // Task 3 waits for 2's data (12 + 10 = 22) vs 1's finish (2).
        assert_eq!(r.start[3], 22.0);
        assert_eq!(r.makespan, 23.0);
    }

    #[test]
    fn sequential_schedule_sums_durations() {
        let dag = diamond();
        let s = Schedule::new(vec![0; 4], vec![vec![0, 1, 2, 3]]);
        let plan = EagerPlan::new(&dag, &s).unwrap();
        let r = plan.execute(&dag, |v| (v + 1) as f64, |_, _, _| 0.0);
        // Sum of 1+2+3+4 = 10 (co-located ⇒ no comm).
        assert_eq!(r.makespan, 10.0);
        // Starts are cumulative.
        assert_eq!(r.start, vec![0.0, 1.0, 3.0, 6.0]);
    }

    #[test]
    fn machine_order_delays_independent_task() {
        // Independent tasks serialized on one machine wait for each other.
        let mut dag = Dag::new(2);
        let _ = &mut dag; // no edges
        let s = Schedule::new(vec![0, 0], vec![vec![1, 0]]);
        let plan = EagerPlan::new(&dag, &s).unwrap();
        let r = plan.execute(&dag, |_| 2.0, |_, _, _| 0.0);
        assert_eq!(r.start[1], 0.0);
        assert_eq!(r.start[0], 2.0);
        assert_eq!(r.makespan, 4.0);
    }

    #[test]
    fn deadlock_rejected() {
        let dag = diamond();
        let s = Schedule::new(vec![0; 4], vec![vec![3, 2, 1, 0]]);
        assert!(EagerPlan::new(&dag, &s).is_err());
    }

    #[test]
    fn disjunctive_sinks_precomputed() {
        let dag = diamond();
        // Machine 0 runs 0,1,3; machine 1 runs 2: only task 3 is a sink
        // (task 2 has a DAG successor, tasks 0/1 have machine successors).
        let s = Schedule::new(vec![0, 0, 1, 0], vec![vec![0, 1, 3], vec![2]]);
        let plan = EagerPlan::new(&dag, &s).unwrap();
        assert_eq!(plan.disjunctive_sinks(), &[3]);
        assert_eq!(plan.next_on_proc()[0], Some(1));
        assert_eq!(plan.next_on_proc()[1], Some(3));
        assert_eq!(plan.next_on_proc()[2], None);
        assert_eq!(plan.next_on_proc()[3], None);
        // Two independent tasks on two machines: both are sinks.
        let mut free = Dag::new(2);
        let _ = &mut free;
        let s2 = Schedule::new(vec![0, 1], vec![vec![0], vec![1]]);
        let plan2 = EagerPlan::new(&free, &s2).unwrap();
        assert_eq!(plan2.disjunctive_sinks(), &[0, 1]);
    }

    /// The disjunctive graph's machine edges `(u, v)`, by tail, checked
    /// against the pred accessor.
    fn machine_edges(plan: &EagerPlan, n: usize) -> Vec<(NodeId, NodeId)> {
        let edges: Vec<(NodeId, NodeId)> = (0..n)
            .filter_map(|u| plan.machine_succ(u).map(|v| (u, v)))
            .collect();
        for v in 0..n {
            let tail = edges.iter().find(|&&(_, w)| w == v).map(|&(u, _)| u);
            assert_eq!(plan.machine_pred(v), tail, "task {v}");
        }
        edges
    }

    #[test]
    fn machine_edge_added_between_independent_neighbours() {
        let dag = diamond();
        // 1 and 2 are independent but share machine 0, order [1, 2].
        let s = Schedule::new(vec![0, 0, 0, 1], vec![vec![0, 1, 2], vec![3]]);
        let plan = EagerPlan::new(&dag, &s).unwrap();
        // 0 → 1 already exists as a precedence edge; 1 → 2 is new.
        assert_eq!(machine_edges(&plan, 4), vec![(1, 2)]);
        // The raw neighbours keep both pairs.
        assert_eq!(plan.next_on_proc()[0], Some(1));
        assert_eq!(plan.prev_on_proc()[1], Some(0));
    }

    #[test]
    fn machine_edge_repeating_a_precedence_edge_skipped() {
        let dag = diamond();
        // Orders 0,1 and 2,3 repeat the precedence edges 0→1 and 2→3.
        let s = Schedule::new(vec![0, 0, 1, 1], vec![vec![0, 1], vec![2, 3]]);
        let plan = EagerPlan::new(&dag, &s).unwrap();
        assert!(machine_edges(&plan, 4).is_empty());
        assert_eq!(plan.prev_on_proc()[1], Some(0));
        assert_eq!(plan.prev_on_proc()[3], Some(2));
    }

    #[test]
    fn sequential_schedule_has_one_sink() {
        let dag = diamond();
        let s = Schedule::new(vec![0; 4], vec![vec![0, 2, 1, 3]]);
        let plan = EagerPlan::new(&dag, &s).unwrap();
        // Only 2 → 1 is new; 0 → 2 and 1 → 3 repeat precedence edges.
        assert_eq!(machine_edges(&plan, 4), vec![(2, 1)]);
        assert_eq!(plan.disjunctive_sinks(), &[3]);
        // The graph is now one chain of depth 4.
        assert_eq!(plan.topo_order(), &[0, 2, 1, 3]);
    }

    #[test]
    fn independent_tasks_serialized_by_machine_edges() {
        let dag = Dag::new(3); // no precedence at all
        let s = Schedule::new(vec![0, 0, 0], vec![vec![2, 0, 1]]);
        let plan = EagerPlan::new(&dag, &s).unwrap();
        assert_eq!(machine_edges(&plan, 3), vec![(0, 1), (2, 0)]);
        assert_eq!(plan.disjunctive_sinks(), &[1]);
        assert_eq!(plan.topo_order(), &[2, 0, 1]);
    }

    #[test]
    fn topo_order_respects_both_edge_kinds() {
        let dag = diamond();
        let s = Schedule::new(vec![0, 0, 1, 0], vec![vec![0, 1, 3], vec![2]]);
        let plan = EagerPlan::new(&dag, &s).unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (i, &v) in plan.topo_order().iter().enumerate() {
                p[v] = i;
            }
            p
        };
        for (u, v, _) in dag.edge_triples() {
            assert!(pos[u] < pos[v]);
        }
        assert!(pos[1] < pos[3]); // same-machine order 1 before 3
    }
}
