//! The robustness metrics of §IV.

use robusched_platform::Scenario;
use robusched_randvar::DiscreteRv;
use robusched_sched::{EagerPlan, FoldAlgebra, Schedule, ScheduleError};
use robusched_stats::descriptive::{mean, population_std};
use robusched_stochastic::{EvalContext, Evaluator};

/// Labels of the eight §IV metrics, in the paper's Fig. 6 order.
pub const METRIC_LABELS: [&str; 8] = [
    "avg_makespan",
    "makespan_std",
    "makespan_entropy",
    "avg_slack",
    "slack_std",
    "avg_lateness",
    "abs_prob",
    "rel_prob",
];

/// Position of a metric label in [`METRIC_LABELS`] (and therefore in every
/// correlation matrix the study engine emits).
///
/// # Panics
/// Panics on an unknown label — label sets are compile-time constants, so
/// a miss is a programming error, not an input error.
pub fn metric_index(name: &str) -> usize {
    METRIC_LABELS
        .iter()
        .position(|&l| l == name)
        .unwrap_or_else(|| panic!("unknown metric label {name}"))
}

/// Parameters of the probabilistic metrics.
#[derive(Debug, Clone, Copy)]
pub struct MetricOptions {
    /// Half-width `δ` of the absolute window (paper: 0.1).
    pub delta: f64,
    /// Ratio `γ > 1` of the relative window (paper: 1.0003).
    pub gamma: f64,
}

impl Default for MetricOptions {
    fn default() -> Self {
        // §V: "we have chosen δ = 0.1 and γ = 1.0003 in order to have
        // values well distributed on the interval [0, 1]".
        Self {
            delta: 0.1,
            gamma: 1.0003,
        }
    }
}

/// All metric values of one schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricValues {
    /// Expected makespan `E(M)`.
    pub expected_makespan: f64,
    /// Makespan standard deviation `σ_M`.
    pub makespan_std: f64,
    /// Differential entropy `h(M) = −∫ f ln f` (standard sign; see
    /// DESIGN.md on the paper's typo).
    pub makespan_entropy: f64,
    /// Average slack `S̄` (mean of per-task slacks on the mean-duration
    /// disjunctive graph).
    pub avg_slack: f64,
    /// Population standard deviation of the per-task slacks.
    pub slack_std: f64,
    /// Average lateness `L = E[M | M > E(M)] − E(M)`.
    pub avg_lateness: f64,
    /// Absolute probabilistic metric `A(δ)`.
    pub prob_absolute: f64,
    /// Relative probabilistic metric `R(γ)`.
    pub prob_relative: f64,
    /// Extension: late fraction `P(M > E(M))` (the `R₂` of Shi et al.).
    pub late_fraction: f64,
    /// Extension: total slack `Σ sᵢ` (the raw sum of §IV's formula).
    pub total_slack: f64,
}

impl MetricValues {
    /// The §IV metric vector in [`METRIC_LABELS`] order, with the paper's
    /// plotting orientation applied: slack negated, probabilistic metrics
    /// inverted (`1 − ·`) — "for easing the reading of the plot, we
    /// inverted three metrics in order to have the optimization of the
    /// metrics corresponding to its minimization". Pearson coefficients
    /// computed on these columns reproduce the signs of Figs. 3–6.
    /// (Negating the slack is affinely equivalent to the paper's
    /// `max − S` inversion, so the coefficients are identical.)
    pub fn oriented_vector(&self) -> [f64; 8] {
        [
            self.expected_makespan,
            self.makespan_std,
            self.makespan_entropy,
            -self.avg_slack,
            self.slack_std,
            self.avg_lateness,
            1.0 - self.prob_absolute,
            1.0 - self.prob_relative,
        ]
    }
}

/// The three distribution-only robustness statistics (no schedule/slack
/// context): makespan standard deviation, average lateness
/// `L = E[M | M > E(M)] − E(M)`, and differential entropy — the quantities
/// the Monte-Carlo convergence study (`ext-mc-convergence`) measures
/// estimator error on. [`compute_metrics`] takes them, and `E(M)`, from
/// [`distribution_stats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistributionStats {
    /// `E(M)`.
    pub mean: f64,
    /// `σ_M`.
    pub std_dev: f64,
    /// Average lateness `L`.
    pub avg_lateness: f64,
    /// Differential entropy `h(M)` (standard sign; see DESIGN.md §1).
    pub entropy: f64,
}

/// Computes [`DistributionStats`] from a makespan distribution.
pub fn distribution_stats(makespan: &DiscreteRv) -> DistributionStats {
    let e = makespan.mean();
    DistributionStats {
        mean: e,
        std_dev: makespan.std_dev(),
        avg_lateness: makespan
            .conditional_mean_above(e)
            .map_or(0.0, |m_late| m_late - e),
        entropy: makespan.entropy(),
    }
}

/// Computes every §IV metric for one schedule given its makespan
/// distribution (produced by any of the `robusched-stochastic`
/// evaluators).
///
/// # Panics
/// Panics if the schedule is invalid for the scenario.
pub fn compute_metrics(
    scenario: &Scenario,
    schedule: &Schedule,
    makespan: &DiscreteRv,
    opts: &MetricOptions,
) -> MetricValues {
    let plan = EagerPlan::new(&scenario.graph.dag, schedule).expect("invalid schedule");
    plan_metrics(scenario, schedule, &plan, makespan, opts)
}

/// One schedule's metrics under `evaluator` (default options), on one
/// compiled plan that the evaluation and the slack metrics share: bit for
/// bit `evaluator.evaluate` followed by [`compute_metrics`], but an invalid
/// schedule is an error, and a context prepared for the scenario
/// ([`Evaluator::prepare`]) carries its shared state and warm scratch from
/// one schedule to the next.
pub fn evaluate_metrics(
    evaluator: &dyn Evaluator,
    scenario: &Scenario,
    schedule: &Schedule,
    cx: &mut EvalContext,
) -> Result<MetricValues, ScheduleError> {
    let plan = EagerPlan::new(&scenario.graph.dag, schedule)?;
    let rv = evaluator.evaluate_plan(scenario, schedule, &plan, cx);
    let opts = MetricOptions::default();
    Ok(plan_metrics(scenario, schedule, &plan, &rv, &opts))
}

/// [`compute_metrics`] on `schedule`'s compiled `plan`.
fn plan_metrics(
    scenario: &Scenario,
    schedule: &Schedule,
    plan: &EagerPlan,
    makespan: &DiscreteRv,
    opts: &MetricOptions,
) -> MetricValues {
    let stats = distribution_stats(makespan);
    let e = stats.mean;
    let slacks = task_slacks(scenario, schedule, plan, e);
    MetricValues {
        expected_makespan: e,
        makespan_std: stats.std_dev,
        makespan_entropy: stats.entropy,
        avg_slack: mean(&slacks),
        slack_std: population_std(&slacks),
        avg_lateness: stats.avg_lateness,
        prob_absolute: makespan.prob_between(e - opts.delta, e + opts.delta),
        prob_relative: makespan.prob_between(e / opts.gamma, e * opts.gamma),
        late_fraction: 1.0 - makespan.cdf_at(e),
        total_slack: slacks.iter().sum(),
    }
}

/// The backward fold's `(max, +)` algebra over mean durations: `Bl(i)` is
/// `i`'s weight plus the longest path out of it.
struct MeanLevels<'a>(&'a Scenario);

impl FoldAlgebra for MeanLevels<'_> {
    type Value = f64;

    fn edge(&mut self, x: &f64, e: usize, p: usize, q: usize, out: &mut f64) {
        *out = self.0.mean_comm_cost(e, p, q) + x;
    }

    fn task(&mut self, tail: Option<&f64>, v: usize, p: usize, out: &mut f64) {
        let w = self.0.mean_task_cost(v, p);
        *out = tail.map_or(w, |t| w + t);
    }

    fn max(&mut self, acc: &f64, x: &f64, out: &mut f64) {
        *out = acc.max(*x);
    }
}

/// The per-task slacks over the plan's disjunctive graph under mean
/// durations. §IV: `sᵢ = M − Bl(i) − Tl(i)` where `M` is the average
/// makespan `m` and the levels use "the average value of … the task
/// duration and the communication duration".
fn task_slacks(scenario: &Scenario, schedule: &Schedule, plan: &EagerPlan, m: f64) -> Vec<f64> {
    let dag = &scenario.graph.dag;
    let node_w = |v: usize| scenario.mean_task_cost(v, schedule.machine_of(v));
    let edge_w = |e: usize, u: usize, v: usize| {
        scenario.mean_comm_cost(e, schedule.machine_of(u), schedule.machine_of(v))
    };
    // Tl(i): the longest path into `i`, which is `i`'s eager start date.
    let tl = plan.execute(dag, node_w, edge_w).start;
    // Bl(i): `i`'s weight plus the longest path out of it.
    let mut bl = vec![0.0f64; dag.node_count()];
    let levels = &mut MeanLevels(scenario);
    plan.fold_backward(dag, schedule, levels, &mut bl, &mut [0.0; 3]);
    tl.iter().zip(&bl).map(|(t, b)| m - b - t).collect()
}

/// Online robustness counters of one dynamic (arrival-driven) run — the
/// metric family the 2007 paper's offline setting cannot express. Filled by
/// `robusched-dynamic`'s executor; the derived rates below are the
/// quantities the `ext-dynamic` study sweeps (deadline hit-rates, wasted
/// work, utilization — cf. the task-dropping literature, arXiv 2005.11050 /
/// 1901.09312).
///
/// All counters are plain sums over the run, so two runs with identical
/// event streams produce bit-identical values.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineMetrics {
    /// Workflow instances that arrived.
    pub instances: usize,
    /// Instances accepted by the drop policy's admission check.
    pub admitted: usize,
    /// Instances that ran every task to completion.
    pub completed: usize,
    /// Completed instances that finished at or before their deadline.
    pub workflows_met: usize,
    /// Admitted instances abandoned mid-flight (pruned or reaped).
    pub dropped: usize,
    /// Instances refused at admission.
    pub rejected: usize,
    /// Tasks across all arrived instances.
    pub tasks_total: usize,
    /// Tasks that executed to completion.
    pub tasks_completed: usize,
    /// Completed tasks that finished at or before their instance deadline.
    pub tasks_met: usize,
    /// Total machine-time spent executing tasks.
    pub busy_time: f64,
    /// Machine-time spent on instances that never met their deadline
    /// (dropped, reaped, or completed late) plus failed attempts of
    /// on-time instances — the "wasted work" of the task-dropping papers,
    /// extended to faults.
    pub wasted_time: f64,
    /// Simulated time from the first arrival to the last event.
    pub horizon: f64,
    /// Machines of the simulated platform.
    pub machines: usize,
    /// Machine-time lost to outages (sum of repair intervals over the
    /// pool); zero without a fault model.
    pub down_time: f64,
    /// Machine-time of failed task attempts (killed mid-run or discarded
    /// by transient faults) — a subset of `busy_time`.
    pub lost_time: f64,
    /// Machine failures injected by the fault model.
    pub machine_failures: usize,
    /// Running tasks killed by machine failures.
    pub killed_tasks: usize,
    /// Task attempts that completed but were discarded by transient
    /// faults.
    pub transient_faults: usize,
    /// Task re-dispatches granted by the recovery policy.
    pub retries: usize,
}

impl OnlineMetrics {
    /// Fraction of *arrived* workflows that met their deadline (rejections
    /// and drops count as misses — the denominator a dropping policy must
    /// not be allowed to shrink).
    pub fn workflow_hit_rate(&self) -> f64 {
        if self.instances == 0 {
            return 0.0;
        }
        self.workflows_met as f64 / self.instances as f64
    }

    /// Fraction of all arrived tasks that completed within their instance
    /// deadline.
    pub fn task_hit_rate(&self) -> f64 {
        if self.tasks_total == 0 {
            return 0.0;
        }
        self.tasks_met as f64 / self.tasks_total as f64
    }

    /// Fraction of executed machine-time that was wasted on instances that
    /// missed their deadline.
    pub fn wasted_fraction(&self) -> f64 {
        if self.busy_time <= 0.0 {
            return 0.0;
        }
        self.wasted_time / self.busy_time
    }

    /// Mean machine utilization over the simulated horizon.
    pub fn utilization(&self) -> f64 {
        let cap = self.machines as f64 * self.horizon;
        if cap <= 0.0 {
            return 0.0;
        }
        self.busy_time / cap
    }

    /// Utilization of the capacity that actually existed: busy time over
    /// `m × horizon` minus outage time. Equal to
    /// [`utilization`](OnlineMetrics::utilization) without faults; under
    /// faults it separates "machines idle" from "machines gone".
    pub fn effective_utilization(&self) -> f64 {
        let cap = self.machines as f64 * self.horizon - self.down_time;
        if cap <= 0.0 {
            return 0.0;
        }
        self.busy_time / cap
    }

    /// Useful-work rate: machine-time that contributed to on-time
    /// completions (`busy − wasted`) over total capacity — the goodput of
    /// the fault/recovery sweep.
    pub fn goodput(&self) -> f64 {
        let cap = self.machines as f64 * self.horizon;
        if cap <= 0.0 {
            return 0.0;
        }
        ((self.busy_time - self.wasted_time) / cap).max(0.0)
    }

    /// Mean recovery re-dispatches per arrived instance.
    pub fn retries_per_instance(&self) -> f64 {
        if self.instances == 0 {
            return 0.0;
        }
        self.retries as f64 / self.instances as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robusched_dag::generators;
    use robusched_numeric::approx_eq;
    use robusched_platform::{CostMatrix, Platform, UncertaintyModel};
    use robusched_stochastic::{ClassicEvaluator, Evaluator};

    fn case() -> (Scenario, Schedule, DiscreteRv) {
        let s = Scenario::paper_random(15, 3, 1.1, 21);
        let sched = robusched_sched::heft(&s);
        let rv = ClassicEvaluator::default().evaluate(&s, &sched);
        (s, sched, rv)
    }

    #[test]
    fn all_metrics_finite_and_sane() {
        let (s, sched, rv) = case();
        let m = compute_metrics(&s, &sched, &rv, &MetricOptions::default());
        assert!(m.expected_makespan > 0.0);
        assert!(m.makespan_std >= 0.0);
        assert!(m.makespan_entropy.is_finite());
        assert!((0.0..=1.0).contains(&m.prob_absolute));
        assert!((0.0..=1.0).contains(&m.prob_relative));
        assert!((0.0..=1.0).contains(&m.late_fraction));
        assert!(m.avg_lateness >= 0.0);
        assert!(m.avg_lateness <= rv.span());
    }

    #[test]
    fn chain_schedule_has_zero_slack() {
        // Fully sequential schedule: every task on the critical path.
        let tg = generators::chain(4);
        let costs = CostMatrix::from_rows(4, 1, vec![10.0; 4]);
        let s = Scenario::new(
            tg,
            Platform::paper_default(1),
            costs,
            UncertaintyModel::paper(1.1),
        );
        let sched = Schedule::new(vec![0; 4], vec![vec![0, 1, 2, 3]]);
        let rv = ClassicEvaluator::default().evaluate(&s, &sched);
        let m = compute_metrics(&s, &sched, &rv, &MetricOptions::default());
        // Slack ≈ 0 (up to the tiny analytic-mean vs level-sum mismatch).
        assert!(
            m.avg_slack.abs() < 0.05 * m.expected_makespan,
            "slack {}",
            m.avg_slack
        );
        assert!(m.slack_std.abs() < 0.05 * m.expected_makespan);
    }

    #[test]
    fn parallel_branch_creates_slack() {
        // Fork-join with one long and one short branch: the short branch
        // task has positive slack.
        let tg = generators::fork_join(2);
        let costs = CostMatrix::from_rows(3, 2, vec![100.0, 100.0, 1.0, 1.0, 10.0, 10.0]);
        let s = Scenario::new(
            tg,
            Platform::paper_default(2),
            costs,
            UncertaintyModel::paper(1.01),
        );
        let sched = Schedule::new(vec![0, 1, 0], vec![vec![0, 2], vec![1]]);
        let rv = ClassicEvaluator::default().evaluate(&s, &sched);
        let m = compute_metrics(&s, &sched, &rv, &MetricOptions::default());
        assert!(m.avg_slack > 10.0, "avg slack {}", m.avg_slack);
        assert!(m.slack_std > 10.0, "slack std {}", m.slack_std);
    }

    /// Every slack-test schedule: HEFT and four random schedules on
    /// paper-random scenarios from n = 10 to 100.
    fn slack_cases() -> Vec<(Scenario, Schedule)> {
        let mut cases = Vec::new();
        for (i, &(n, m, ul)) in [(10, 3, 1.1), (30, 8, 1.5), (60, 4, 1.01), (100, 16, 1.1)]
            .iter()
            .enumerate()
        {
            let s = Scenario::paper_random(n, m, ul, 40 + i as u64);
            cases.push((s.clone(), robusched_sched::heft(&s)));
            for seed in 0..4 {
                let r = robusched_sched::random_schedule(&s.graph.dag, m, seed);
                cases.push((s.clone(), r));
            }
        }
        cases
    }

    #[test]
    fn slack_identity_on_critical_path() {
        // With M the mean-duration makespan, Tl(i) + Bl(i) is the longest
        // path through i: no slack is negative and the critical path's is
        // zero.
        for (s, sched) in slack_cases() {
            let m = robusched_sched::mean_makespan(&s, &sched);
            let plan = EagerPlan::new(&s.graph.dag, &sched).unwrap();
            let slacks = task_slacks(&s, &sched, &plan, m);
            let min = slacks.iter().copied().fold(f64::INFINITY, f64::min);
            assert!(min >= -1e-12 * m, "slack {min} below 0 (M = {m})");
            assert!(min <= 1e-12 * m, "no zero slack: smallest {min} (M = {m})");
        }
    }

    /// The slack metrics as computed before the plan owned the disjunctive
    /// graph: an augmented `Dag` with every machine edge that repeats no
    /// precedence edge, and both levels by Kahn order.
    fn augmented_graph_slack_metrics(s: &Scenario, sched: &Schedule, m: f64) -> (f64, f64, f64) {
        use robusched_dag::Dag;
        let dag = &s.graph.dag;
        let n = dag.node_count();
        let mut aug = Dag::new(n);
        let mut orig_edge = Vec::new();
        for (u, v, e) in dag.edge_triples() {
            aug.add_edge(u, v);
            orig_edge.push(Some(e));
        }
        for p in 0..sched.machine_count() {
            for w in sched.order_on(p).windows(2) {
                if !aug.has_edge(w[0], w[1]) {
                    aug.add_edge(w[0], w[1]);
                    orig_edge.push(None);
                }
            }
        }
        let node_w = |v: usize| s.mean_task_cost(v, sched.machine_of(v));
        let edge_w = |e: usize| match orig_edge[e] {
            Some(o) => {
                let (u, v) = aug.edge_endpoints(e);
                s.mean_comm_cost(o, sched.machine_of(u), sched.machine_of(v))
            }
            None => 0.0,
        };
        let mut tl = vec![0.0f64; n];
        for &v in &aug.topo_order().unwrap() {
            let mut best = 0.0f64;
            for &(u, e) in aug.preds(v) {
                let cand = tl[u] + node_w(u) + edge_w(e);
                if cand > best {
                    best = cand;
                }
            }
            tl[v] = best;
        }
        let bl = aug.bottom_levels(node_w, edge_w);
        let slacks: Vec<f64> = (0..n).map(|v| m - bl[v] - tl[v]).collect();
        (mean(&slacks), population_std(&slacks), slacks.iter().sum())
    }

    #[test]
    fn slack_metrics_match_the_augmented_graph_bit_for_bit() {
        for (s, sched) in slack_cases() {
            let mean_ms = robusched_sched::mean_makespan(&s, &sched);
            let plan = EagerPlan::new(&s.graph.dag, &sched).unwrap();
            for m in [mean_ms, 1.03 * mean_ms] {
                let slacks = task_slacks(&s, &sched, &plan, m);
                let (a, b, c) = (
                    mean(&slacks),
                    population_std(&slacks),
                    slacks.iter().sum::<f64>(),
                );
                let (x, y, z) = augmented_graph_slack_metrics(&s, &sched, m);
                assert_eq!(
                    [a.to_bits(), b.to_bits(), c.to_bits()],
                    [x.to_bits(), y.to_bits(), z.to_bits()],
                    "n = {}: ({a}, {b}, {c}) vs ({x}, {y}, {z})",
                    s.task_count()
                );
            }
        }
    }

    #[test]
    fn probabilistic_metrics_monotone_in_window() {
        let (s, sched, rv) = case();
        let narrow = compute_metrics(
            &s,
            &sched,
            &rv,
            &MetricOptions {
                delta: 0.05,
                gamma: 1.0001,
            },
        );
        let wide = compute_metrics(
            &s,
            &sched,
            &rv,
            &MetricOptions {
                delta: 1.0,
                gamma: 1.01,
            },
        );
        assert!(wide.prob_absolute >= narrow.prob_absolute);
        assert!(wide.prob_relative >= narrow.prob_relative);
    }

    #[test]
    fn lateness_matches_gaussian_rule_of_thumb() {
        // For the near-Gaussian makespan, L ≈ σ·√(2/π).
        let (s, sched, rv) = case();
        let m = compute_metrics(&s, &sched, &rv, &MetricOptions::default());
        let expect = m.makespan_std * (2.0 / std::f64::consts::PI).sqrt();
        assert!(
            (m.avg_lateness - expect).abs() < 0.5 * expect,
            "L {} vs gaussian {}",
            m.avg_lateness,
            expect
        );
    }

    #[test]
    fn oriented_vector_signs() {
        let (s, sched, rv) = case();
        let m = compute_metrics(&s, &sched, &rv, &MetricOptions::default());
        let v = m.oriented_vector();
        assert_eq!(v[0], m.expected_makespan);
        assert_eq!(v[3], -m.avg_slack);
        assert!(approx_eq(v[6], 1.0 - m.prob_absolute, 1e-15));
        assert!(approx_eq(v[7], 1.0 - m.prob_relative, 1e-15));
    }

    #[test]
    fn deterministic_scenario_degenerates_gracefully() {
        let tg = generators::chain(3);
        let costs = CostMatrix::from_rows(3, 1, vec![5.0; 3]);
        let s = Scenario::new(
            tg,
            Platform::paper_default(1),
            costs,
            UncertaintyModel::none(),
        );
        let sched = Schedule::new(vec![0; 3], vec![vec![0, 1, 2]]);
        let rv = ClassicEvaluator::default().evaluate(&s, &sched);
        let m = compute_metrics(&s, &sched, &rv, &MetricOptions::default());
        assert_eq!(m.makespan_std, 0.0);
        assert_eq!(m.avg_lateness, 0.0);
        assert_eq!(m.prob_absolute, 1.0);
        assert_eq!(m.late_fraction, 0.0);
        assert_eq!(m.makespan_entropy, f64::NEG_INFINITY);
    }

    #[test]
    fn online_metrics_rates() {
        let m = OnlineMetrics {
            instances: 10,
            admitted: 8,
            completed: 6,
            workflows_met: 5,
            dropped: 2,
            rejected: 2,
            tasks_total: 100,
            tasks_completed: 70,
            tasks_met: 60,
            busy_time: 80.0,
            wasted_time: 20.0,
            horizon: 25.0,
            machines: 4,
            ..Default::default()
        };
        assert_eq!(m.workflow_hit_rate(), 0.5);
        assert_eq!(m.task_hit_rate(), 0.6);
        assert_eq!(m.wasted_fraction(), 0.25);
        assert_eq!(m.utilization(), 0.8);
        // Without faults the effective utilization is the utilization and
        // goodput is the non-wasted share.
        assert_eq!(m.effective_utilization(), m.utilization());
        assert_eq!(m.goodput(), 0.6);
        assert_eq!(m.retries_per_instance(), 0.0);
        // Outages shrink the effective capacity; retries average over
        // arrivals.
        let f = OnlineMetrics {
            down_time: 20.0,
            retries: 5,
            ..m
        };
        assert_eq!(f.effective_utilization(), 1.0);
        assert_eq!(f.retries_per_instance(), 0.5);
        // Degenerate denominators stay finite.
        let z = OnlineMetrics::default();
        assert_eq!(z.workflow_hit_rate(), 0.0);
        assert_eq!(z.task_hit_rate(), 0.0);
        assert_eq!(z.wasted_fraction(), 0.0);
        assert_eq!(z.utilization(), 0.0);
        assert_eq!(z.effective_utilization(), 0.0);
        assert_eq!(z.goodput(), 0.0);
        assert_eq!(z.retries_per_instance(), 0.0);
    }
}
