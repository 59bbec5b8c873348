//! A fully specified scheduling problem instance.
//!
//! A [`Scenario`] bundles the task graph, the platform, the unrelated cost
//! matrix and the uncertainty model — everything a scheduler or a makespan
//! evaluator needs. The two builders mirror the paper's case families:
//! [`Scenario::paper_random`] (layered random DAG, CV-gamma costs) and
//! [`Scenario::paper_real_app`] (Cholesky / Gaussian elimination with the
//! `[minVal, 2·minVal]` cost scheme).

use crate::costs::CostMatrix;
use crate::machines::Platform;
use crate::uncertainty::{UncertaintyModel, WeightDist};
use robusched_dag::generators::{layered_random, LayeredRandomConfig};
use robusched_dag::{EdgeId, NodeId, TaskGraph};
use robusched_randvar::derive_seed;

/// Platform calibration for trace-backed scenarios: how many machines the
/// reference platform has and how heterogeneous their speeds are. The
/// default is the `ext-traces` study's fixed platform (8 machines, speed
/// CV 0.5); callers replaying a trace recorded on a known cluster override
/// it to match (e.g. a 32-node homogeneous cluster →
/// `TraceCalibration { machines: 32, speed_cov: 0.0 }`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceCalibration {
    /// Machines of the reference platform.
    pub machines: usize,
    /// Coefficient of variation of the machine speeds (0 = homogeneous).
    pub speed_cov: f64,
}

impl Default for TraceCalibration {
    fn default() -> Self {
        Self {
            machines: 8,
            speed_cov: 0.5,
        }
    }
}

/// A complete problem instance.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The application.
    pub graph: TaskGraph,
    /// The machines and network.
    pub platform: Platform,
    /// Minimum task durations (unrelated model).
    pub costs: CostMatrix,
    /// How deterministic weights become random variables.
    pub uncertainty: UncertaintyModel,
    /// Optional per-task uncertainty levels overriding `uncertainty.ul` —
    /// the paper's future-work "variable UL" extension. Communication
    /// weights keep the global level.
    pub per_task_ul: Option<Vec<f64>>,
}

impl Scenario {
    /// Assembles a scenario, validating dimensions.
    ///
    /// # Panics
    /// Panics if the cost matrix does not match the graph/platform sizes.
    pub fn new(
        graph: TaskGraph,
        platform: Platform,
        costs: CostMatrix,
        uncertainty: UncertaintyModel,
    ) -> Self {
        assert_eq!(
            costs.task_count(),
            graph.task_count(),
            "cost matrix rows must match task count"
        );
        assert_eq!(
            costs.machine_count(),
            platform.machine_count(),
            "cost matrix columns must match machine count"
        );
        Self {
            graph,
            platform,
            costs,
            uncertainty,
            per_task_ul: None,
        }
    }

    /// Installs per-task uncertainty levels (variable-UL extension).
    ///
    /// # Panics
    /// Panics unless one level `≥ 1` is given per task.
    pub fn with_per_task_ul(mut self, uls: Vec<f64>) -> Self {
        assert_eq!(uls.len(), self.task_count(), "one UL per task required");
        assert!(uls.iter().all(|u| *u >= 1.0), "ULs must be ≥ 1");
        self.per_task_ul = Some(uls);
        self
    }

    /// The uncertainty level in force for task `i`.
    #[inline]
    pub fn task_ul(&self, i: NodeId) -> f64 {
        match &self.per_task_ul {
            Some(uls) => uls[i],
            None => self.uncertainty.ul,
        }
    }

    /// The paper's random-graph case: layered random DAG (`n` tasks,
    /// `μ_task = 20`, `V_task = 0.5`, `CCR = 0.1`), CV-gamma cost matrix
    /// (`V_mach = 0.5`), unit-τ zero-latency network, Beta(2, 5)
    /// uncertainty at level `ul`.
    pub fn paper_random(n: usize, m: usize, ul: f64, seed: u64) -> Self {
        let cfg = LayeredRandomConfig {
            n,
            ..Default::default()
        };
        let graph = layered_random(&cfg, derive_seed(seed, 1));
        let costs = CostMatrix::cv_method(&graph.task_work, m, 0.5, derive_seed(seed, 2));
        let platform = Platform::paper_default(m);
        Self::new(graph, platform, costs, UncertaintyModel::paper(ul))
    }

    /// The paper's real-application case: a given task graph (Cholesky or
    /// Gaussian elimination), per-task random `minVal` with machine costs
    /// uniform in `[minVal, 2·minVal]`, unit-τ zero-latency network,
    /// Beta(2, 5) uncertainty at level `ul`.
    pub fn paper_real_app(graph: TaskGraph, m: usize, ul: f64, seed: u64) -> Self {
        // The paper draws minVal "randomly"; we scale the structural work by
        // a uniform factor so large tasks remain large (documented in
        // DESIGN.md). The [1, 3] range keeps durations within the same
        // order as the communication volumes, as §V requires ("values with
        // the same order for the processor and the communication times").
        let costs =
            CostMatrix::uniform_range_method(&graph.task_work, m, 1.0, 3.0, derive_seed(seed, 2));
        let platform = Platform::paper_default(m);
        Self::new(graph, platform, costs, UncertaintyModel::paper(ul))
    }

    /// The structured-application (`ext-apps`) case: a given task graph
    /// (one of the [`robusched_dag::apps::AppClass`] shapes), a
    /// *consistent-heterogeneity* cost matrix built from per-machine speed
    /// vectors with coefficient of variation `speed_cov` (plus 10 % mean-1
    /// unrelatedness noise — see [`CostMatrix::related_method`] and
    /// DESIGN.md), unit-τ zero-latency network, Beta(2, 5) uncertainty at
    /// level `ul`. Unlike [`Scenario::paper_real_app`], a machine that is
    /// fast for one kernel is fast for all of them, the regime real
    /// dense-linear-algebra platforms live in.
    pub fn structured_app(graph: TaskGraph, m: usize, speed_cov: f64, ul: f64, seed: u64) -> Self {
        Self::structured_app_unrelated(graph, m, speed_cov, 0.1, ul, seed)
    }

    /// [`Scenario::structured_app`] with the unrelatedness noise exposed as
    /// a knob instead of the fixed 10 % — the perturbation layer of the
    /// adversarial search nudges it. `unrelatedness = 0` gives a perfectly
    /// consistent platform (every machine's cost is `work / speed`
    /// exactly); larger values blur the speed ordering per task. The seed
    /// contract is unchanged: `derive_seed(seed, 3)` draws the speeds,
    /// `derive_seed(seed, 4)` the noise, so `unrelatedness = 0.1`
    /// reproduces [`Scenario::structured_app`] bit for bit.
    pub fn structured_app_unrelated(
        graph: TaskGraph,
        m: usize,
        speed_cov: f64,
        unrelatedness: f64,
        ul: f64,
        seed: u64,
    ) -> Self {
        let speeds = crate::costs::machine_speeds(m, speed_cov, derive_seed(seed, 3));
        let costs = CostMatrix::related_method(
            &graph.task_work,
            &speeds,
            unrelatedness,
            derive_seed(seed, 4),
        );
        let platform = Platform::paper_default(m);
        Self::new(graph, platform, costs, UncertaintyModel::paper(ul))
    }

    /// The real-workflow-trace (`ext-traces`) case: a parsed trace
    /// ([`robusched_dag::parsers::TraceDag`] from a DAX / WfCommons / DOT
    /// file), converted to a [`TaskGraph`] under the trace layer's
    /// reference-platform unit convention (mean work normalized to the
    /// paper's `μ_task = 20`, the trace's realized CCR preserved), then
    /// costed exactly like [`Scenario::structured_app`]: consistent
    /// heterogeneity with speed CV `speed_cov`, 10 % unrelatedness noise,
    /// unit-τ zero-latency network, Beta(2, 5) uncertainty at level `ul`.
    /// Seed-deterministic: the same trace + `(m, speed_cov, ul, seed)`
    /// reproduces the scenario bit for bit.
    pub fn from_trace(
        trace: &robusched_dag::parsers::TraceDag,
        m: usize,
        speed_cov: f64,
        ul: f64,
        seed: u64,
    ) -> Self {
        Self::structured_app(trace.to_task_graph(), m, speed_cov, ul, seed)
    }

    /// [`Scenario::from_trace`] with the platform described by a
    /// [`TraceCalibration`] — the override point for callers replaying a
    /// trace against the cluster it was actually recorded on rather than
    /// the default study platform.
    pub fn from_trace_with(
        trace: &robusched_dag::parsers::TraceDag,
        calibration: &TraceCalibration,
        ul: f64,
        seed: u64,
    ) -> Self {
        Self::from_trace(trace, calibration.machines, calibration.speed_cov, ul, seed)
    }

    /// Number of tasks.
    pub fn task_count(&self) -> usize {
        self.graph.task_count()
    }

    /// Number of machines.
    pub fn machine_count(&self) -> usize {
        self.platform.machine_count()
    }

    /// Deterministic (minimum) duration of task `i` on machine `p`.
    #[inline]
    pub fn det_task_cost(&self, i: NodeId, p: usize) -> f64 {
        self.costs.cost(i, p)
    }

    /// Deterministic (minimum) communication time of edge `e` when its
    /// endpoints run on `p` and `q`.
    #[inline]
    pub fn det_comm_cost(&self, e: EdgeId, p: usize, q: usize) -> f64 {
        self.platform.comm_time(self.graph.volume(e), p, q)
    }

    /// The draw rule of task `i` on machine `p`: `(lo, span) = (w,
    /// (UL−1)·w)`, with `w` the deterministic cost and `UL` the task's own
    /// level, so that a duration is `lo + span·Q(u)` over `[w, UL·w]` (§II
    /// of the paper), `Q` being the quantile table of the family's
    /// unit-support base shape. The Monte-Carlo engine, the criticality
    /// estimator and the online simulator all draw through this rule and
    /// [`Scenario::comm_affine`]; a family without a base shape
    /// ([`crate::UncertaintyKind::None`]) draws nothing whatever the span.
    #[inline]
    pub fn task_affine(&self, i: NodeId, p: usize) -> (f64, f64) {
        let w = self.det_task_cost(i, p);
        (w, (self.task_ul(i) - 1.0) * w)
    }

    /// The draw rule of edge `e` on machine pair `(p, q)`: `(w, (UL−1)·w)`
    /// with the model's level, which communications keep under per-task
    /// levels (see [`Scenario::task_affine`]).
    #[inline]
    pub fn comm_affine(&self, e: EdgeId, p: usize, q: usize) -> (f64, f64) {
        let w = self.det_comm_cost(e, p, q);
        (w, (self.uncertainty.ul - 1.0) * w)
    }

    /// *Mean* duration of task `i` on machine `p` under the uncertainty
    /// model (the slack metrics use mean values).
    #[inline]
    pub fn mean_task_cost(&self, i: NodeId, p: usize) -> f64 {
        self.uncertainty
            .mean_weight_with_ul(self.det_task_cost(i, p), self.task_ul(i))
    }

    /// *Mean* communication time of edge `e` on machine pair `(p, q)`.
    #[inline]
    pub fn mean_comm_cost(&self, e: EdgeId, p: usize, q: usize) -> f64 {
        self.uncertainty.mean_weight(self.det_comm_cost(e, p, q))
    }

    /// Duration distribution of task `i` on machine `p`.
    pub fn task_dist(&self, i: NodeId, p: usize) -> WeightDist {
        self.uncertainty
            .weight_dist_with_ul(self.det_task_cost(i, p), self.task_ul(i))
    }

    /// Communication-time distribution of edge `e` on machine pair `(p,q)`.
    pub fn comm_dist(&self, e: EdgeId, p: usize, q: usize) -> WeightDist {
        self.uncertainty.weight_dist(self.det_comm_cost(e, p, q))
    }

    /// Standard deviation of task `i`'s duration on machine `p` — the
    /// ingredient of the σ-aware heuristic the paper's future work asks
    /// for. Closed-form (no distribution is materialized): heuristics
    /// query this per placement candidate.
    pub fn std_task_cost(&self, i: NodeId, p: usize) -> f64 {
        self.uncertainty
            .std_weight_with_ul(self.det_task_cost(i, p), self.task_ul(i))
    }

    /// Standard deviation of edge `e`'s communication time on `(p, q)`
    /// (closed-form, like [`Scenario::std_task_cost`]).
    pub fn std_comm_cost(&self, e: EdgeId, p: usize, q: usize) -> f64 {
        self.uncertainty.std_weight(self.det_comm_cost(e, p, q))
    }

    /// Average duration of task `i` across machines (deterministic values;
    /// rank functions of HEFT/BMCT).
    pub fn avg_det_task_cost(&self, i: NodeId) -> f64 {
        self.costs.mean_cost(i)
    }

    /// Average communication cost of edge `e` over distinct machine pairs
    /// (deterministic values; rank functions).
    pub fn avg_det_comm_cost(&self, e: EdgeId) -> f64 {
        self.platform.mean_latency() + self.graph.volume(e) * self.platform.mean_tau()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robusched_dag::generators::cholesky;
    use robusched_randvar::Dist;

    #[test]
    fn paper_random_dimensions() {
        let s = Scenario::paper_random(30, 8, 1.1, 42);
        assert_eq!(s.task_count(), 30);
        assert_eq!(s.machine_count(), 8);
        assert!(s.graph.dag.is_acyclic());
    }

    #[test]
    fn paper_random_deterministic_in_seed() {
        let a = Scenario::paper_random(10, 3, 1.01, 5);
        let b = Scenario::paper_random(10, 3, 1.01, 5);
        for i in 0..10 {
            for p in 0..3 {
                assert_eq!(a.det_task_cost(i, p), b.det_task_cost(i, p));
            }
        }
    }

    #[test]
    fn real_app_case() {
        let s = Scenario::paper_real_app(cholesky(4), 3, 1.01, 7);
        assert_eq!(s.task_count(), 10);
        assert_eq!(s.machine_count(), 3);
        // Unrelated-but-bounded: every machine within 2× of the row min.
        for i in 0..10 {
            let min = s.costs.min_cost(i);
            for p in 0..3 {
                assert!(s.det_task_cost(i, p) <= 2.0 * min + 1e-9);
            }
        }
    }

    #[test]
    fn structured_app_case() {
        use robusched_dag::apps::AppClass;
        let s = Scenario::structured_app(AppClass::Lu.generate(3, 5), 4, 0.5, 1.1, 9);
        assert_eq!(s.task_count(), 14);
        assert_eq!(s.machine_count(), 4);
        // Deterministic in the seed.
        let t = Scenario::structured_app(AppClass::Lu.generate(3, 5), 4, 0.5, 1.1, 9);
        for i in 0..14 {
            for p in 0..4 {
                assert_eq!(s.det_task_cost(i, p), t.det_task_cost(i, p));
            }
        }
        // Consistent heterogeneity: with only 10 % noise over the speed
        // spread, the per-task fastest machine is (nearly) always the same.
        let mut wins = [0usize; 4];
        for i in 0..14 {
            wins[s.costs.fastest_machine(i)] += 1;
        }
        assert!(
            wins.iter().any(|&w| w >= 12),
            "no dominant machine: {wins:?}"
        );
    }

    #[test]
    fn from_trace_case() {
        let dot = r#"digraph t {
          a [size="4e9"]; b [size="8e9"]; c [size="2e9"];
          a -> b [size="1e9"]; b -> c [size="5e8"];
        }"#;
        let trace = robusched_dag::parsers::parse_trace("t.dot", dot).unwrap();
        let s = Scenario::from_trace(&trace, 4, 0.5, 1.1, 11);
        assert_eq!(s.task_count(), 3);
        assert_eq!(s.machine_count(), 4);
        // Mean work lands on the paper's μ_task = 20.
        let mean_work: f64 = s.graph.task_work.iter().sum::<f64>() / s.graph.task_count() as f64;
        assert!((mean_work - 20.0).abs() < 1e-9, "mean work {mean_work}");
        // Deterministic in the seed.
        let t = Scenario::from_trace(&trace, 4, 0.5, 1.1, 11);
        for i in 0..3 {
            for p in 0..4 {
                assert_eq!(s.det_task_cost(i, p), t.det_task_cost(i, p));
            }
        }
    }

    #[test]
    fn from_trace_with_calibration_overrides_platform() {
        let dot = r#"digraph t {
          a [size="4e9"]; b [size="8e9"]; c [size="2e9"];
          a -> b [size="1e9"]; b -> c [size="5e8"];
        }"#;
        let trace = robusched_dag::parsers::parse_trace("t.dot", dot).unwrap();
        // The default calibration is exactly the ext-traces platform.
        let cal = TraceCalibration::default();
        assert_eq!((cal.machines, cal.speed_cov), (8, 0.5));
        let default = Scenario::from_trace_with(&trace, &cal, 1.1, 11);
        let explicit = Scenario::from_trace(&trace, 8, 0.5, 1.1, 11);
        for i in 0..3 {
            for p in 0..8 {
                assert_eq!(default.det_task_cost(i, p), explicit.det_task_cost(i, p));
            }
        }
        // A homogeneous 3-machine override: same costs on every machine up
        // to the 10 % unrelatedness noise.
        let homog = Scenario::from_trace_with(
            &trace,
            &TraceCalibration {
                machines: 3,
                speed_cov: 0.0,
            },
            1.1,
            11,
        );
        assert_eq!(homog.machine_count(), 3);
        for i in 0..3 {
            let min = homog.costs.min_cost(i);
            for p in 0..3 {
                let ratio = homog.det_task_cost(i, p) / min;
                assert!(ratio < 1.5, "task {i} machine {p}: ratio {ratio}");
            }
        }
    }

    #[test]
    fn comm_cost_zero_on_same_machine() {
        let s = Scenario::paper_random(10, 3, 1.1, 1);
        for e in 0..s.graph.edge_count() {
            assert_eq!(s.det_comm_cost(e, 1, 1), 0.0);
            assert!(s.det_comm_cost(e, 0, 1) > 0.0);
        }
    }

    #[test]
    fn task_dist_support_matches_ul() {
        let s = Scenario::paper_random(10, 3, 1.1, 1);
        let d = s.task_dist(4, 2);
        let (lo, hi) = d.support();
        assert!((hi / lo - 1.1).abs() < 1e-9);
        assert_eq!(lo, s.det_task_cost(4, 2));
    }

    #[test]
    fn draw_rule_spans_the_weight_support() {
        let s = Scenario::paper_random(10, 3, 1.1, 1).with_per_task_ul(vec![1.3; 10]);
        let (lo, span) = s.task_affine(4, 2);
        let (a, b) = s.task_dist(4, 2).support();
        assert_eq!(lo, a);
        assert!(
            (lo + span - b).abs() < 1e-12 * b,
            "task: {lo} + {span} vs {b}"
        );
        let (lo, span) = s.comm_affine(0, 0, 1);
        let (a, b) = s.comm_dist(0, 0, 1).support();
        assert_eq!(lo, a);
        assert!(
            (lo + span - b).abs() < 1e-12 * b,
            "edge: {lo} + {span} vs {b}"
        );
        // Co-located endpoints: a zero weight, so nothing to draw.
        assert_eq!(s.comm_affine(0, 1, 1), (0.0, 0.0));
    }

    #[test]
    fn mean_cost_consistent_with_dist() {
        let s = Scenario::paper_random(10, 3, 1.1, 1);
        let d = s.task_dist(3, 1);
        assert!((s.mean_task_cost(3, 1) - d.mean()).abs() < 1e-9);
    }

    #[test]
    fn avg_costs_positive() {
        let s = Scenario::paper_random(20, 4, 1.01, 9);
        for i in 0..20 {
            assert!(s.avg_det_task_cost(i) > 0.0);
        }
        for e in 0..s.graph.edge_count() {
            assert!(s.avg_det_comm_cost(e) > 0.0);
        }
    }
}
