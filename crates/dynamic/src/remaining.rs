//! Remaining completion-time distributions — what the probabilistic
//! policies query.
//!
//! For a scenario with a fixed (heuristic) schedule, the probabilistic
//! policies need, per task `v`, the distribution of the time from `v`'s
//! *start* to the completion of everything `v` still gates — its DAG
//! descendants and every later task on its machine. That is a backward
//! recursion over the disjunctive graph, the mirror image of the classic
//! evaluator's forward pass and computed with the same calculus and the
//! same independence assumption (`sum` = PDF convolution for serial
//! chains, `max` = CDF product at joins):
//!
//! ```text
//! rem(v) = dur(v) ⊕ max( max over DAG succs s of comm(v→s) ⊕ rem(s),
//!                        rem(machine_succ(v)) )
//! ```
//!
//! and the instance total is the max of `rem` over the disjunctive entry
//! tasks. The walk — machine edges ([`EagerPlan::machine_succ`]), free
//! co-located communication, the entries — is [`EagerPlan::fold_backward`];
//! this module supplies its algebra. Every duration comes from the shared
//! [`DiscretizedScenario`], so a scenario's table costs one `O(n + e)`
//! sweep of grid operations, reused by every instance of the scenario.

use robusched_dag::{EdgeId, NodeId};
use robusched_platform::Scenario;
use robusched_randvar::{DiscreteRv, RvWorkspace};
use robusched_sched::{EagerPlan, FoldAlgebra, Schedule};
use robusched_stochastic::DiscretizedScenario;

/// Per-task remaining completion-time distributions plus the instance
/// total, for one `(scenario, schedule)` pair.
#[derive(Debug, Clone)]
pub struct RemainingDists {
    /// `rem[v]`: time from `v`'s start to instance completion (as gated by
    /// `v`), under the independence assumption.
    pub rem: Vec<DiscreteRv>,
    /// Completion time of the whole instance measured from its start.
    pub total: DiscreteRv,
}

/// The backward fold's algebra over remaining-time distributions:
/// `comm ⊕ rem(s)`, `dur ⊕ tail`, and the CDF-product `max`.
struct Remaining<'a> {
    scenario: &'a Scenario,
    disc: &'a DiscretizedScenario,
    ws: &'a mut RvWorkspace,
}

impl FoldAlgebra for Remaining<'_> {
    type Value = DiscreteRv;

    fn edge(&mut self, x: &DiscreteRv, e: EdgeId, p: usize, q: usize, out: &mut DiscreteRv) {
        let comm = self.disc.comm(self.scenario, e, p, q);
        comm.sum_into(x, self.ws, out);
    }

    fn task(&mut self, tail: Option<&DiscreteRv>, v: NodeId, p: usize, out: &mut DiscreteRv) {
        let dur = self.disc.task(self.scenario, v, p);
        match tail {
            None => out.copy_from(dur),
            Some(tail) => dur.sum_into(tail, self.ws, out),
        }
    }

    fn max(&mut self, acc: &DiscreteRv, x: &DiscreteRv, out: &mut DiscreteRv) {
        acc.max_into(x, self.ws, out);
    }

    fn copy(&mut self, x: &DiscreteRv, out: &mut DiscreteRv) {
        out.copy_from(x);
    }
}

impl RemainingDists {
    /// Builds the table by one backward fold over `plan`, the compiled
    /// `schedule`.
    pub fn build(
        scenario: &Scenario,
        schedule: &Schedule,
        plan: &EagerPlan,
        disc: &DiscretizedScenario,
    ) -> Self {
        let dag = &scenario.graph.dag;
        let mut rem = vec![DiscreteRv::point(0.0); dag.node_count()];
        let mut scratch = std::array::from_fn(|_| DiscreteRv::point(0.0));
        let ws = &mut RvWorkspace::new();
        let mut alg = Remaining { scenario, disc, ws };
        let total = plan
            .fold_backward(dag, schedule, &mut alg, &mut rem, &mut scratch)
            .clone();
        Self { rem, total }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robusched_randvar::DEFAULT_GRID;
    use robusched_sched::heft;
    use robusched_stochastic::{ClassicEvaluator, Evaluator};

    #[test]
    fn entry_total_matches_forward_classic_mean_closely() {
        // The backward recursion is the mirror of the forward classic
        // evaluator; under the same independence assumption the totals
        // agree up to discretization error and the order of the joins.
        for (n, m, ul, seed) in [(15, 3, 1.1, 21), (50, 4, 1.5, 5)] {
            let s = Scenario::paper_random(n, m, ul, seed);
            let sched = heft(&s);
            let plan = EagerPlan::new(&s.graph.dag, &sched).unwrap();
            let disc = DiscretizedScenario::new(&s, DEFAULT_GRID);
            let dists = RemainingDists::build(&s, &sched, &plan, &disc);
            let forward = ClassicEvaluator::default().evaluate(&s, &sched);
            let (b, f) = (dists.total.mean(), forward.mean());
            assert!(
                (b - f).abs() < 0.01 * f,
                "n = {n}: backward mean {b} vs forward mean {f}"
            );
            let (bs, fs) = (dists.total.std_dev(), forward.std_dev());
            assert!(
                (bs - fs).abs() < 0.1 * fs,
                "n = {n}: backward std {bs} vs forward std {fs}"
            );
            // Every remaining distribution is positive and bounded by
            // total's support top.
            for (v, r) in dists.rem.iter().enumerate() {
                assert!(r.mean() > 0.0, "task {v}");
                assert!(r.hi() <= dists.total.hi() + 1e-9, "task {v}");
            }
        }
    }

    #[test]
    fn chain_remaining_shrinks_along_the_chain() {
        use robusched_dag::generators;
        use robusched_platform::{CostMatrix, Platform, UncertaintyModel};
        let tg = generators::chain(4);
        let costs = CostMatrix::from_rows(4, 1, vec![10.0; 4]);
        let s = Scenario::new(
            tg,
            Platform::paper_default(1),
            costs,
            UncertaintyModel::paper(1.1),
        );
        let sched = Schedule::new(vec![0; 4], vec![vec![0, 1, 2, 3]]);
        let plan = EagerPlan::new(&s.graph.dag, &sched).unwrap();
        let disc = DiscretizedScenario::new(&s, DEFAULT_GRID);
        let dists = RemainingDists::build(&s, &sched, &plan, &disc);
        // rem(0) gates 4 tasks, rem(3) gates 1: means strictly decrease.
        for w in dists.rem.windows(2) {
            assert!(w[0].mean() > w[1].mean());
        }
        assert_eq!(dists.total.mean(), dists.rem[0].mean());
        // A chain has no join: the total is the forward sum, whose machine
        // edges all repeat precedence edges and so are folded only once.
        let forward = ClassicEvaluator::default().evaluate(&s, &sched);
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs();
        assert!(
            rel(dists.total.mean(), forward.mean()) < 1e-6,
            "mean {} vs forward {}",
            dists.total.mean(),
            forward.mean()
        );
        assert!(
            rel(dists.total.std_dev(), forward.std_dev()) < 1e-6,
            "std {} vs forward {}",
            dists.total.std_dev(),
            forward.std_dev()
        );
    }
}
