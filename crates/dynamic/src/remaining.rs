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
//! with co-located successors contributing `rem(s)` directly (their
//! communication is free). `machine_succ` is the plan's machine edge
//! ([`EagerPlan::machine_succ`]): a next task on `v`'s machine that is
//! also a DAG successor is already folded once, and folding it again would
//! take `max(X, X)` — under the independence assumption that squares the
//! CDF and biases the total upward. The instance-level completion
//! distribution is the max of `rem` over the disjunctive *entry* tasks
//! (no DAG predecessor, first on their machine) — the backward
//! counterpart of taking the max over disjunctive sinks forward.
//!
//! Every duration distribution comes from the shared
//! [`DiscretizedScenario`] cache, so building the table for a scenario
//! costs one `O(n + e)` sweep of `sum`/`max` grid operations and is then
//! reused by every instance of that scenario in a dynamic run.

use robusched_platform::Scenario;
use robusched_randvar::DiscreteRv;
use robusched_sched::{EagerPlan, Schedule};
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

impl RemainingDists {
    /// Builds the table by one backward sweep over `plan`'s disjunctive
    /// topological order.
    pub fn build(
        scenario: &Scenario,
        schedule: &Schedule,
        plan: &EagerPlan,
        disc: &DiscretizedScenario,
    ) -> Self {
        let dag = &scenario.graph.dag;
        let n = dag.node_count();
        let mut rem: Vec<Option<DiscreteRv>> = vec![None; n];
        for &v in plan.topo_order().iter().rev() {
            let pv = schedule.machine_of(v);
            // Max over everything v's finish gates.
            let mut tail: Option<DiscreteRv> = None;
            let fold = |contrib: DiscreteRv, tail: &mut Option<DiscreteRv>| {
                *tail = Some(match tail.take() {
                    None => contrib,
                    Some(prev) => prev.max(&contrib),
                });
            };
            for &(s, e) in dag.succs(v) {
                let ps = schedule.machine_of(s);
                let rem_s = rem[s].as_ref().expect("reverse topo order");
                let contrib = if pv == ps {
                    rem_s.clone()
                } else {
                    disc.comm(scenario, e, pv, ps).sum(rem_s)
                };
                fold(contrib, &mut tail);
            }
            if let Some(w) = plan.machine_succ(v) {
                let contrib = rem[w].as_ref().expect("reverse topo order").clone();
                fold(contrib, &mut tail);
            }
            let dur = disc.task(scenario, v, pv);
            rem[v] = Some(match tail {
                None => dur.clone(),
                Some(tail) => dur.sum(&tail),
            });
        }
        let rem: Vec<DiscreteRv> = rem
            .into_iter()
            .map(|r| r.expect("every task visited"))
            .collect();
        // Entry tasks of the disjunctive graph start at time 0; the
        // instance completes when the last of their gated chains does.
        let mut total: Option<DiscreteRv> = None;
        for (v, rem_v) in rem.iter().enumerate() {
            if dag.in_degree(v) == 0 && plan.prev_on_proc()[v].is_none() {
                total = Some(match total {
                    None => rem_v.clone(),
                    Some(prev) => prev.max(rem_v),
                });
            }
        }
        let total = total.expect("a DAG has at least one entry task");
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
