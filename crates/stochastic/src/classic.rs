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
//! product, both on 64-point grids (`robusched_randvar::DiscreteRv`). The
//! walk, with its machine edges and free co-located communication, is
//! [`EagerPlan::fold_forward`]; this module supplies its algebra, reached
//! through [`ClassicEvaluator`](crate::ClassicEvaluator). The
//! discretizations come from the shared [`DiscretizedScenario`] its
//! [`prepare`](crate::Evaluator::prepare) builds and every intermediate
//! goes into the per-worker [`EvalContext`](crate::EvalContext) scratch,
//! so a warm evaluation allocates only its answer.

use crate::cache::DiscretizedScenario;
use robusched_dag::{EdgeId, NodeId};
use robusched_platform::Scenario;
use robusched_randvar::{DiscreteRv, RvWorkspace};
use robusched_sched::{EagerPlan, FoldAlgebra, Schedule};

/// Reusable per-worker storage for the classic recursion: the per-task
/// finish distributions, the fold's scratch and the RV workspace. Buffers
/// grow to the case size on first use and are reused for every subsequent
/// schedule.
#[derive(Debug)]
pub(crate) struct ClassicScratch {
    pub(crate) finish: Vec<DiscreteRv>,
    fold: [DiscreteRv; 3],
    ws: RvWorkspace,
}

impl Default for ClassicScratch {
    /// Empty scratch; buffers grow on first evaluation.
    fn default() -> Self {
        Self {
            finish: Vec::new(),
            fold: std::array::from_fn(|_| DiscreteRv::point(0.0)),
            ws: RvWorkspace::new(),
        }
    }
}

/// The forward fold's algebra over finish-time distributions:
/// `finish(u) ⊕ comm`, `start ⊕ dur`, and the CDF-product `max`.
struct Finish<'a> {
    scenario: &'a Scenario,
    disc: &'a DiscretizedScenario,
    ws: &'a mut RvWorkspace,
}

impl FoldAlgebra for Finish<'_> {
    type Value = DiscreteRv;

    fn edge(&mut self, x: &DiscreteRv, e: EdgeId, p: usize, q: usize, out: &mut DiscreteRv) {
        x.sum_into(self.disc.comm(self.scenario, e, p, q), self.ws, out);
    }

    fn task(&mut self, start: Option<&DiscreteRv>, v: NodeId, p: usize, out: &mut DiscreteRv) {
        let dur = self.disc.task(self.scenario, v, p);
        match start {
            None => out.copy_from(dur), // entry task starts at 0
            Some(s) => s.sum_into(dur, self.ws, out),
        }
    }

    fn max(&mut self, acc: &DiscreteRv, x: &DiscreteRv, out: &mut DiscreteRv) {
        acc.max_into(x, self.ws, out);
    }

    fn copy(&mut self, x: &DiscreteRv, out: &mut DiscreteRv) {
        out.copy_from(x);
    }
}

/// The allocation-free classic evaluation of `schedule`'s compiled `plan`:
/// shared discretization `disc`, per-worker `scratch`. On return
/// `scratch.finish[v]` holds task `v`'s finish distribution.
pub(crate) fn evaluate_classic_cached(
    scenario: &Scenario,
    schedule: &Schedule,
    plan: &EagerPlan,
    disc: &DiscretizedScenario,
    scratch: &mut ClassicScratch,
) -> DiscreteRv {
    let ClassicScratch { finish, fold, ws } = scratch;
    let dag = &scenario.graph.dag;
    if finish.len() < dag.node_count() {
        finish.resize_with(dag.node_count(), || DiscreteRv::point(0.0));
    }
    let mut alg = Finish { scenario, disc, ws };
    plan.fold_forward(dag, schedule, &mut alg, finish, fold)
        .clone()
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
        let plan = EagerPlan::new(&s.graph.dag, &sched).unwrap();
        let cache = DiscretizedScenario::new(&s, 64);
        let mut scratch = ClassicScratch::default();
        let ms = evaluate_classic_cached(&s, &sched, &plan, &cache, &mut scratch);
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
