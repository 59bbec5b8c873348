//! The classical analytic makespan evaluator (independence assumption).
//!
//! §V of the paper: the Dodin and Spelde methods "both gave similar results
//! to the classical algorithm (which assumes the independence between
//! random variables when calculating the maximum). The simplest of these
//! methods was used" — i.e. the experiments rest on this evaluator.
//!
//! The recursion over the disjunctive graph in topological order:
//!
//! ```text
//! start(v)  = max over preds u of  finish(u) ⊕ comm(u, v)
//! finish(v) = start(v) ⊕ duration(v)
//! makespan  = max over sinks of finish
//! ```
//!
//! with `⊕` the independent-sum (PDF convolution) and `max` the CDF
//! product, both on 64-point grids (`robusched_randvar::DiscreteRv`).
//!
//! It is reached through [`ClassicEvaluator`](crate::ClassicEvaluator):
//! the per-(task, machine) and per-(edge, machine-pair) discretizations come
//! from the shared read-only [`DiscretizedScenario`] its
//! [`prepare`](crate::Evaluator::prepare) builds, every intermediate RV is
//! built with the `*_into` kernels into the per-worker
//! [`EvalContext`](crate::EvalContext) scratch, and the disjunctive sinks
//! come precomputed from [`EagerPlan`] — one schedule evaluation allocates
//! nothing in the steady state beyond the returned distribution.

use crate::cache::DiscretizedScenario;
use robusched_platform::Scenario;
use robusched_randvar::{DiscreteRv, RvWorkspace};
use robusched_sched::{EagerPlan, Schedule};

/// Reusable per-worker storage for the classic recursion: the per-task
/// finish distributions plus the ping-pong accumulators for `start` and the
/// makespan. Buffers grow to the case size on first use and are reused for
/// every subsequent schedule.
#[derive(Debug)]
pub(crate) struct ClassicScratch {
    pub(crate) finish: Vec<DiscreteRv>,
    start_a: DiscreteRv,
    start_b: DiscreteRv,
    arrival: DiscreteRv,
    acc_a: DiscreteRv,
    acc_b: DiscreteRv,
}

impl ClassicScratch {
    /// Empty scratch; buffers grow on first evaluation.
    pub(crate) fn new() -> Self {
        Self {
            finish: Vec::new(),
            start_a: DiscreteRv::point(0.0),
            start_b: DiscreteRv::point(0.0),
            arrival: DiscreteRv::point(0.0),
            acc_a: DiscreteRv::point(0.0),
            acc_b: DiscreteRv::point(0.0),
        }
    }
}

impl Default for ClassicScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// A pair of ping-pong buffers accumulating a running `max` without
/// allocating: `fold` writes `current.max(x)` into the idle buffer and
/// flips. Returns which buffer holds the final value.
struct MaxAccum<'a> {
    a: &'a mut DiscreteRv,
    b: &'a mut DiscreteRv,
    state: Option<bool>, // Some(true) = `a` is current
}

impl<'a> MaxAccum<'a> {
    fn new(a: &'a mut DiscreteRv, b: &'a mut DiscreteRv) -> Self {
        Self { a, b, state: None }
    }

    fn fold(&mut self, x: &DiscreteRv, ws: &mut RvWorkspace) {
        match self.state {
            None => {
                self.a.copy_from(x);
                self.state = Some(true);
            }
            Some(true) => {
                self.a.max_into(x, ws, self.b);
                self.state = Some(false);
            }
            Some(false) => {
                self.b.max_into(x, ws, self.a);
                self.state = Some(true);
            }
        }
    }

    fn current(&self) -> Option<&DiscreteRv> {
        self.state
            .map(|a_is_cur| if a_is_cur { &*self.a } else { &*self.b })
    }
}

/// The allocation-free classic evaluation: shared discretization `cache`,
/// per-worker `ws` + `scratch`. On return `scratch.finish[v]` holds task
/// `v`'s finish distribution.
///
/// # Panics
/// Panics if the schedule is invalid for the scenario.
pub(crate) fn evaluate_classic_cached(
    scenario: &Scenario,
    schedule: &Schedule,
    cache: &DiscretizedScenario,
    ws: &mut RvWorkspace,
    scratch: &mut ClassicScratch,
) -> DiscreteRv {
    let dag = &scenario.graph.dag;
    let plan = EagerPlan::new(dag, schedule).expect("invalid schedule");
    let n = dag.node_count();
    let ClassicScratch {
        finish,
        start_a,
        start_b,
        arrival,
        acc_a,
        acc_b,
    } = scratch;
    if finish.len() < n {
        finish.resize_with(n, || DiscreteRv::point(0.0));
    }

    for &v in plan.topo_order() {
        let pv = schedule.machine_of(v);
        // Start = max of machine-predecessor finish and data arrivals.
        // The plan's machine edge skips a machine predecessor that is also
        // a DAG predecessor: under the independence assumption the repeated
        // constraint would take max(X, X) and bias the mean upward.
        let mut start = MaxAccum::new(&mut *start_a, &mut *start_b);
        if let Some(u) = plan.machine_pred(v) {
            start.fold(&finish[u], ws);
        }
        for &(u, e) in dag.preds(v) {
            let pu = schedule.machine_of(u);
            if pu == pv {
                // Same machine: zero communication.
                start.fold(&finish[u], ws);
            } else {
                finish[u].sum_into(cache.comm(scenario, e, pu, pv), ws, arrival);
                start.fold(arrival, ws);
            }
        }
        let dur = cache.task(scenario, v, pv);
        match start.current() {
            None => finish[v].copy_from(dur), // entry task starts at 0
            Some(s) => s.sum_into(dur, ws, &mut finish[v]),
        }
    }

    // Makespan: max over the precomputed disjunctive sinks (tasks with no
    // DAG successor and no machine successor; every other finish is
    // dominated).
    let mut makespan = MaxAccum::new(acc_a, acc_b);
    for &v in plan.disjunctive_sinks() {
        makespan.fold(&finish[v], ws);
    }
    makespan.current().expect("at least one sink").clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClassicEvaluator, Evaluator};
    use robusched_dag::{generators, Dag, TaskGraph};
    use robusched_numeric::approx_eq;
    use robusched_platform::{CostMatrix, Platform, UncertaintyModel};
    use robusched_sched::det_makespan;

    fn classic_rv(s: &Scenario, sched: &Schedule) -> DiscreteRv {
        ClassicEvaluator::default().evaluate(s, sched)
    }

    fn chain_scenario(ul: f64) -> (Scenario, Schedule) {
        let tg = generators::chain(3);
        let costs = CostMatrix::from_rows(3, 1, vec![10.0, 20.0, 30.0]);
        let s = Scenario::new(
            tg,
            Platform::paper_default(1),
            costs,
            UncertaintyModel::paper(ul),
        );
        let sched = Schedule::new(vec![0; 3], vec![vec![0, 1, 2]]);
        (s, sched)
    }

    #[test]
    fn chain_makespan_is_sum_of_betas() {
        let (s, sched) = chain_scenario(1.1);
        let rv = classic_rv(&s, &sched);
        // Sum of Beta(2,5) on [10,11], [20,22], [30,33]:
        // mean = 60 + (1+2+3)·(2/7); support [60, 66].
        assert!(approx_eq(rv.lo(), 60.0, 1e-9));
        assert!(approx_eq(rv.hi(), 66.0, 1e-9));
        let expect_mean = 60.0 + 6.0 * (2.0 / 7.0);
        assert!(approx_eq(rv.mean(), expect_mean, 1e-2), "{}", rv.mean());
        // Variance adds: (UL−1)²·wᵢ² · Var(Beta) each.
        let beta_var = 10.0 / (49.0 * 8.0);
        let expect_var = (1.0 + 4.0 + 9.0) * beta_var;
        assert!(
            approx_eq(rv.variance(), expect_var, 5e-2),
            "{}",
            rv.variance()
        );
    }

    #[test]
    fn deterministic_limit_matches_eager_executor() {
        let (mut s, sched) = chain_scenario(1.0);
        s.uncertainty = UncertaintyModel::none();
        let rv = classic_rv(&s, &sched);
        assert!(rv.is_point());
        assert!(approx_eq(rv.mean(), det_makespan(&s, &sched), 1e-12));
    }

    #[test]
    fn fork_join_uses_max() {
        // Two independent unit tasks on two machines joining into a third:
        // the makespan mean must exceed a single branch's mean (max ≥ each).
        let tg = generators::fork_join(2);
        let costs = CostMatrix::from_rows(3, 2, vec![10.0; 6]);
        let s = Scenario::new(
            tg,
            Platform::paper_default(2),
            costs,
            UncertaintyModel::paper(1.5),
        );
        let sched = Schedule::new(vec![0, 1, 0], vec![vec![0, 2], vec![1]]);
        let rv = classic_rv(&s, &sched);
        // Branch finish mean: 10 + 5·2/7 ≈ 11.43; join adds another task.
        let branch_mean = 10.0 + 5.0 * (2.0 / 7.0);
        assert!(rv.mean() > 2.0 * branch_mean - 1.0);
        // Support: [20, 30].
        assert!(approx_eq(rv.lo(), 20.0, 1e-9));
        assert!(approx_eq(rv.hi(), 30.0, 1e-9));
    }

    #[test]
    fn machine_sequencing_respected() {
        // Two independent tasks on ONE machine: makespan = sum, not max.
        let dag = Dag::new(2);
        let tg = TaskGraph::new(dag, vec![1.0; 2], vec![], "ind2");
        let costs = CostMatrix::from_rows(2, 1, vec![10.0, 10.0]);
        let s = Scenario::new(
            tg,
            Platform::paper_default(1),
            costs,
            UncertaintyModel::paper(1.2),
        );
        let sched = Schedule::new(vec![0, 0], vec![vec![0, 1]]);
        let rv = classic_rv(&s, &sched);
        assert!(approx_eq(rv.lo(), 20.0, 1e-9));
        assert!(approx_eq(rv.hi(), 24.0, 1e-9));
        let expect_mean = 20.0 + 2.0 * 2.0 * (2.0 / 7.0);
        assert!(approx_eq(rv.mean(), expect_mean, 1e-2));
    }

    #[test]
    fn cross_machine_communication_charged() {
        let tg = generators::chain(2); // volume 1 on the edge
        let costs = CostMatrix::from_rows(2, 2, vec![10.0; 4]);
        let s = Scenario::new(
            tg,
            Platform::homogeneous(2, 5.0, 0.0),
            costs,
            UncertaintyModel::paper(1.1),
        );
        // Across machines: comm min 5.
        let sched = Schedule::new(vec![0, 1], vec![vec![0], vec![1]]);
        let rv = classic_rv(&s, &sched);
        assert!(approx_eq(rv.lo(), 25.0, 1e-9));
        // Same machine: no comm.
        let sched2 = Schedule::new(vec![0, 0], vec![vec![0, 1]]);
        let rv2 = classic_rv(&s, &sched2);
        assert!(approx_eq(rv2.lo(), 20.0, 1e-9));
    }

    #[test]
    fn full_returns_monotone_finishes() {
        let s = Scenario::paper_random(15, 3, 1.1, 3);
        let sched = robusched_sched::heft(&s);
        let cache = DiscretizedScenario::new(&s, 64);
        let mut scratch = ClassicScratch::new();
        let ms = evaluate_classic_cached(&s, &sched, &cache, &mut RvWorkspace::new(), &mut scratch);
        let finish = &scratch.finish[..s.task_count()];
        assert_eq!(finish.len(), 15);
        // Along every precedence edge the successor's mean finish is later.
        for (u, v, _) in s.graph.dag.edge_triples() {
            assert!(finish[v].mean() > finish[u].mean() - 1e-9);
        }
        // Makespan dominates every finish mean.
        for f in finish {
            assert!(ms.mean() >= f.mean() - 1e-6);
        }
    }

    #[test]
    fn grid_resolution_converges() {
        let s = Scenario::paper_random(12, 3, 1.1, 9);
        let sched = robusched_sched::heft(&s);
        let coarse = ClassicEvaluator { grid: 32 }.evaluate(&s, &sched);
        let fine = ClassicEvaluator { grid: 128 }.evaluate(&s, &sched);
        assert!(approx_eq(coarse.mean(), fine.mean(), 1e-2));
        assert!((coarse.std_dev() - fine.std_dev()).abs() < 0.05 * fine.std_dev().max(1e-9));
    }
}
