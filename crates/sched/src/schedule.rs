//! The eager schedule representation.

use robusched_dag::{Dag, NodeId};

/// An eager schedule: task → machine assignment plus the execution order on
/// every machine. Start dates are *not* stored (§II: eager schedules start
/// every task as soon as possible), so the same schedule replays under any
/// realization of the random durations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    assignment: Vec<usize>,
    proc_order: Vec<Vec<NodeId>>,
}

/// Why a schedule failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// A task index in `proc_order` is out of the graph's range.
    TaskOutOfRange(NodeId),
    /// A task appears zero or multiple times across the processor orders.
    TaskCountMismatch(NodeId),
    /// A task is listed on a machine other than its assignment.
    WrongMachine(NodeId),
    /// The machine index of an assignment is out of range.
    MachineOutOfRange(usize),
    /// Precedence edges plus same-machine ordering form a cycle: the eager
    /// execution would deadlock.
    Deadlock,
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TaskOutOfRange(t) => write!(f, "task {t} out of range"),
            Self::TaskCountMismatch(t) => write!(f, "task {t} not listed exactly once"),
            Self::WrongMachine(t) => {
                write!(f, "task {t} listed on a machine it is not assigned to")
            }
            Self::MachineOutOfRange(m) => write!(f, "machine {m} out of range"),
            Self::Deadlock => write!(f, "schedule order conflicts with precedence (deadlock)"),
        }
    }
}

impl std::error::Error for ScheduleError {}

impl Schedule {
    /// Builds a schedule from an assignment and per-machine orders.
    ///
    /// Structural coherence (each task listed exactly once, on its assigned
    /// machine) is checked eagerly; deadlock-freedom is checked by
    /// [`Schedule::validate`] / [`crate::eager::EagerPlan::new`] because it
    /// needs the DAG.
    ///
    /// # Panics
    /// Panics on structurally incoherent inputs.
    pub fn new(assignment: Vec<usize>, proc_order: Vec<Vec<NodeId>>) -> Self {
        let n = assignment.len();
        let m = proc_order.len();
        let mut seen = vec![0usize; n];
        for (p, order) in proc_order.iter().enumerate() {
            for &t in order {
                assert!(t < n, "task {t} out of range");
                assert_eq!(assignment[t], p, "task {t} listed on wrong machine");
                seen[t] += 1;
            }
        }
        for (t, &count) in seen.iter().enumerate() {
            assert_eq!(count, 1, "task {t} listed {count} times");
        }
        for &p in &assignment {
            assert!(p < m, "machine {p} out of range");
        }
        Self {
            assignment,
            proc_order,
        }
    }

    /// Builds and fully validates against a DAG (including deadlock check).
    pub fn try_new(
        assignment: Vec<usize>,
        proc_order: Vec<Vec<NodeId>>,
        dag: &Dag,
    ) -> Result<Self, ScheduleError> {
        let n = assignment.len();
        let m = proc_order.len();
        if n != dag.node_count() {
            return Err(ScheduleError::TaskCountMismatch(n.min(dag.node_count())));
        }
        let mut seen = vec![0usize; n];
        for (p, order) in proc_order.iter().enumerate() {
            for &t in order {
                if t >= n {
                    return Err(ScheduleError::TaskOutOfRange(t));
                }
                if assignment[t] != p {
                    return Err(ScheduleError::WrongMachine(t));
                }
                seen[t] += 1;
            }
        }
        if let Some(t) = seen.iter().position(|&c| c != 1) {
            return Err(ScheduleError::TaskCountMismatch(t));
        }
        if let Some(&p) = assignment.iter().find(|&&p| p >= m) {
            return Err(ScheduleError::MachineOutOfRange(p));
        }
        let s = Self {
            assignment,
            proc_order,
        };
        s.validate(dag)?;
        Ok(s)
    }

    /// Checks that the eager execution cannot deadlock: the union of
    /// precedence edges and same-machine successor edges must be acyclic.
    pub fn validate(&self, dag: &Dag) -> Result<(), ScheduleError> {
        // Kahn's algorithm over the disjunctive structure without
        // materializing a graph: in-degrees = DAG preds + (1 if not first on
        // its machine).
        let n = self.assignment.len();
        let mut pos_on_proc = vec![0usize; n];
        for order in &self.proc_order {
            for (k, &t) in order.iter().enumerate() {
                pos_on_proc[t] = k;
            }
        }
        let mut indeg: Vec<usize> = (0..n)
            .map(|v| dag.in_degree(v) + usize::from(pos_on_proc[v] > 0))
            .collect();
        let mut stack: Vec<NodeId> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut done = 0usize;
        while let Some(u) = stack.pop() {
            done += 1;
            for &(v, _) in dag.succs(u) {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    stack.push(v);
                }
            }
            // Same-machine successor.
            let p = self.assignment[u];
            let order = &self.proc_order[p];
            if pos_on_proc[u] + 1 < order.len() {
                let next = order[pos_on_proc[u] + 1];
                indeg[next] -= 1;
                if indeg[next] == 0 {
                    stack.push(next);
                }
            }
        }
        if done == n {
            Ok(())
        } else {
            Err(ScheduleError::Deadlock)
        }
    }

    /// Machine of task `t`.
    #[inline]
    pub fn machine_of(&self, t: NodeId) -> usize {
        self.assignment[t]
    }

    /// The task→machine assignment.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Execution order on machine `p`.
    pub fn order_on(&self, p: usize) -> &[NodeId] {
        &self.proc_order[p]
    }

    /// Number of machines.
    pub fn machine_count(&self) -> usize {
        self.proc_order.len()
    }

    /// Number of tasks.
    pub fn task_count(&self) -> usize {
        self.assignment.len()
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
    fn coherent_schedule_accepted() {
        let dag = diamond();
        let s = Schedule::try_new(vec![0, 0, 1, 1], vec![vec![0, 1], vec![2, 3]], &dag).unwrap();
        assert_eq!(s.machine_of(2), 1);
        assert_eq!(s.order_on(0), &[0, 1]);
    }

    #[test]
    fn deadlock_detected() {
        // Machine order 3 before 0 on the same machine contradicts 0 →* 3.
        let dag = diamond();
        let err = Schedule::try_new(vec![0, 0, 0, 0], vec![vec![3, 0, 1, 2]], &dag).unwrap_err();
        assert_eq!(err, ScheduleError::Deadlock);
    }

    #[test]
    fn order_against_precedence_on_different_machines_ok() {
        // 1 and 2 are independent: any relative order is fine.
        let dag = diamond();
        assert!(Schedule::try_new(vec![0, 1, 1, 0], vec![vec![0, 3], vec![2, 1]], &dag).is_ok());
    }

    #[test]
    fn wrong_machine_rejected() {
        let dag = diamond();
        let err =
            Schedule::try_new(vec![0, 0, 1, 1], vec![vec![0, 1, 2], vec![3]], &dag).unwrap_err();
        assert_eq!(err, ScheduleError::WrongMachine(2));
    }

    #[test]
    fn missing_task_rejected() {
        let dag = diamond();
        let err = Schedule::try_new(vec![0, 0, 0, 0], vec![vec![0, 1, 2]], &dag).unwrap_err();
        assert!(matches!(err, ScheduleError::TaskCountMismatch(_)));
    }

    #[test]
    #[should_panic(expected = "listed 2 times")]
    fn panic_constructor_checks_duplicates() {
        Schedule::new(vec![0, 0], vec![vec![0, 1, 0]]);
    }
}
