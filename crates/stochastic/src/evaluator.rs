//! The pluggable evaluator surface: every makespan-distribution backend
//! behind one trait, plus a by-name registry.
//!
//! The paper ran its experiments on the classic evaluator alone, noting
//! only that Dodin's and Spelde's methods "gave similar results". Whether
//! the §VI metric-correlation conclusions *depend* on that choice is
//! exactly the kind of question a pluggable harness answers (cf. PISA's
//! finding that scheduler rankings flip when the evaluation harness
//! changes). [`Evaluator`] unifies the four backends of this crate behind
//! `evaluate(&Scenario, &Schedule) -> DiscreteRv` — the only way to get a
//! makespan distribution out of this crate; each implementation
//! carries its own configuration (the classic evaluator's grid
//! resolution, the Monte-Carlo realization budget, …) so a study can be
//! re-run under a different backend by swapping one trait object. The
//! other backends materialize their distributions on the paper's
//! [`DEFAULT_GRID`] of 64 points.

use crate::cache::{DiscretizedScenario, SamplingTables};
use crate::classic::{evaluate_classic_cached, ClassicScratch};
use crate::dodin::evaluate_dodin_cached;
use crate::montecarlo::{mc_makespans_into, McConfig, McEstimator, McScratch};
use crate::spelde::spelde_moments;
use robusched_platform::Scenario;
use robusched_randvar::{DiscreteRv, DEFAULT_GRID};
use robusched_sched::{EagerPlan, Schedule};
use std::sync::Arc;

/// Which shared, read-only state an evaluator derives from a scenario
/// (see [`Evaluator::preparation`]). Evaluators that name the same
/// preparation read the same [`PreparedScenario`], so a cache of prepared
/// state keys it by this value rather than by evaluator: the default
/// classic evaluator and Dodin's read one discretization table, and the
/// three Monte-Carlo estimators one set of sampling tables.
///
/// ```
/// use robusched_stochastic::{evaluator_by_name, Preparation};
/// let classic = evaluator_by_name("classic").unwrap().preparation();
/// assert_eq!(classic, evaluator_by_name("dodin").unwrap().preparation());
/// assert_eq!(classic, Preparation::Discretized { grid: 64 });
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Preparation {
    /// Nothing to prepare (Spelde's closed-form moments).
    None,
    /// A lazy [`DiscretizedScenario`] at PDF resolution `grid` (classic
    /// and Dodin).
    Discretized {
        /// The PDF grid resolution.
        grid: usize,
    },
    /// The scenario's [`SamplingTables`] (the Monte-Carlo estimators).
    Sampling,
}

impl Preparation {
    /// Builds this preparation's state for `scenario`.
    pub fn prepare(self, scenario: &Scenario) -> PreparedScenario {
        match self {
            Self::None => PreparedScenario::None,
            Self::Discretized { grid } => {
                PreparedScenario::Discretized(Arc::new(DiscretizedScenario::new(scenario, grid)))
            }
            Self::Sampling => PreparedScenario::Sampling(Arc::new(SamplingTables::new(scenario))),
        }
    }
}

/// Shared, read-only precomputation a backend derives from a scenario
/// (see [`Preparation::prepare`]). Cloning is cheap (`Arc`), so a study
/// prepares once and hands a clone to every worker's [`EvalContext`].
#[derive(Debug, Clone, Default)]
pub enum PreparedScenario {
    /// The backend has no shared precomputation.
    #[default]
    None,
    /// Lazily discretized task/communication distributions (classic and
    /// Dodin backends).
    Discretized(Arc<DiscretizedScenario>),
    /// Inverse-CDF sampling tables of the uncertainty model's base shape
    /// (the Monte-Carlo backends).
    Sampling(Arc<SamplingTables>),
}

/// Per-worker evaluation state: the shared [`PreparedScenario`] plus
/// mutable scratch (RV workspace, classic fold buffers) that makes the
/// steady-state hot path allocation-free: a warm classic
/// [`Evaluator::evaluate_plan`] allocates only its answer. Construct one
/// per worker thread with the study's prepared scenario.
#[derive(Debug, Default)]
pub struct EvalContext {
    pub(crate) prep: PreparedScenario,
    pub(crate) classic: ClassicScratch,
    pub(crate) mc: McScratch,
}

impl EvalContext {
    /// A context carrying the given shared precomputation.
    pub fn new(prep: PreparedScenario) -> Self {
        Self {
            prep,
            ..Self::default()
        }
    }

    /// The context's discretization cache if it *matches* the scenario and
    /// grid; otherwise (a context prepared for another scenario or
    /// backend) a private lazy one — same numerics, no sharing.
    fn discretized(&self, scenario: &Scenario, grid: usize) -> Arc<DiscretizedScenario> {
        match &self.prep {
            PreparedScenario::Discretized(c) if c.grid() == grid && c.matches(scenario) => {
                c.clone()
            }
            _ => Arc::new(DiscretizedScenario::new(scenario, grid)),
        }
    }

    /// The context's Monte-Carlo sampling tables if they *match* the
    /// scenario's uncertainty family, otherwise private ones.
    fn sampling(&self, scenario: &Scenario) -> Arc<SamplingTables> {
        match &self.prep {
            PreparedScenario::Sampling(t) if t.matches(scenario) => t.clone(),
            _ => Arc::new(SamplingTables::new(scenario)),
        }
    }
}

/// A makespan-distribution backend: maps `(scenario, schedule)` to the
/// makespan random variable on a discretized grid.
///
/// Implementations must be `Send + Sync` (one instance is shared by every
/// worker of a parallel study) and deterministic: the same inputs must
/// yield the same distribution bit-for-bit, regardless of thread count.
/// All bundled backends satisfy this, including Monte-Carlo (fixed
/// per-chunk seeding).
///
/// The workhorse method is [`evaluate_plan`](Evaluator::evaluate_plan):
/// batch callers call [`prepare`](Evaluator::prepare) once per scenario,
/// build one [`EvalContext`] per worker, and evaluate every schedule's
/// compiled [`EagerPlan`] through it — shared discretizations are
/// computed once, scratch buffers are reused, and the plan serves the
/// slack metrics too. [`evaluate_with`](Evaluator::evaluate_with)
/// compiles the plan itself and [`evaluate`](Evaluator::evaluate) is the
/// one-shot form (fresh context per call); all three agree bit for bit.
pub trait Evaluator: Send + Sync {
    /// Display/registry name (e.g. `"classic"`).
    fn name(&self) -> &str;

    /// The shared state this evaluator reads; the default is none.
    fn preparation(&self) -> Preparation {
        Preparation::None
    }

    /// Shared read-only precomputation for evaluating many schedules under
    /// one scenario: [`preparation`](Evaluator::preparation)'s state for
    /// `scenario`, which any evaluator naming the same preparation may
    /// read too. Implementations override `preparation`, not this method:
    /// a cache of prepared state (`robusched-core`'s `EvalService`) builds
    /// the state from the preparation it is keyed by.
    fn prepare(&self, scenario: &Scenario) -> PreparedScenario {
        self.preparation().prepare(scenario)
    }

    /// The makespan distribution of `schedule`, compiled as `plan`, under
    /// `scenario`, using (and warming) the caller's context. Must return
    /// the same distribution as [`evaluate`](Evaluator::evaluate) for any
    /// context — prepared, empty, or warmed by other schedules.
    fn evaluate_plan(
        &self,
        scenario: &Scenario,
        schedule: &Schedule,
        plan: &EagerPlan,
        cx: &mut EvalContext,
    ) -> DiscreteRv;

    /// [`evaluate_plan`](Evaluator::evaluate_plan) on a plan compiled for
    /// this call; panics if the schedule is invalid for the scenario.
    fn evaluate_with(
        &self,
        scenario: &Scenario,
        schedule: &Schedule,
        cx: &mut EvalContext,
    ) -> DiscreteRv {
        let plan = EagerPlan::new(&scenario.graph.dag, schedule).expect("invalid schedule");
        self.evaluate_plan(scenario, schedule, &plan, cx)
    }

    /// The makespan distribution of `schedule` under `scenario`
    /// (convenience wrapper: prepares and evaluates in one call).
    fn evaluate(&self, scenario: &Scenario, schedule: &Schedule) -> DiscreteRv {
        let mut cx = EvalContext::new(self.prepare(scenario));
        self.evaluate_with(scenario, schedule, &mut cx)
    }
}

/// The paper's evaluator: topological walk with PDF-convolution sums and
/// CDF-product maxima under the independence assumption.
#[derive(Debug, Clone, Copy)]
pub struct ClassicEvaluator {
    /// PDF grid resolution (the paper's choice: 64).
    pub grid: usize,
}

impl Default for ClassicEvaluator {
    fn default() -> Self {
        Self { grid: DEFAULT_GRID }
    }
}

impl Evaluator for ClassicEvaluator {
    fn name(&self) -> &str {
        "classic"
    }

    fn preparation(&self) -> Preparation {
        Preparation::Discretized { grid: self.grid }
    }

    fn evaluate_plan(
        &self,
        scenario: &Scenario,
        schedule: &Schedule,
        plan: &EagerPlan,
        cx: &mut EvalContext,
    ) -> DiscreteRv {
        let cache = cx.discretized(scenario, self.grid);
        evaluate_classic_cached(scenario, schedule, plan, &cache, &mut cx.classic)
    }
}

/// Spelde's central-limit evaluator: moment pairs with Clark's max
/// equations, materialized as a Gaussian on the [`DEFAULT_GRID`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SpeldeEvaluator;

impl Evaluator for SpeldeEvaluator {
    fn name(&self) -> &str {
        "spelde"
    }

    fn evaluate_plan(
        &self,
        scenario: &Scenario,
        schedule: &Schedule,
        plan: &EagerPlan,
        _cx: &mut EvalContext,
    ) -> DiscreteRv {
        // Spelde works on closed-form moment pairs — there is nothing to
        // discretize or cache.
        spelde_moments(scenario, schedule, plan).to_rv(DEFAULT_GRID)
    }
}

/// Dodin's series-parallel-reduction evaluator (node duplication on the
/// activity-on-arc network), on the [`DEFAULT_GRID`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DodinEvaluator;

impl Evaluator for DodinEvaluator {
    fn name(&self) -> &str {
        "dodin"
    }

    fn preparation(&self) -> Preparation {
        Preparation::Discretized { grid: DEFAULT_GRID }
    }

    fn evaluate_plan(
        &self,
        scenario: &Scenario,
        schedule: &Schedule,
        plan: &EagerPlan,
        cx: &mut EvalContext,
    ) -> DiscreteRv {
        let cache = cx.discretized(scenario, DEFAULT_GRID);
        evaluate_dodin_cached(scenario, schedule, plan, &cache)
    }
}

/// The Monte-Carlo ground truth as an [`Evaluator`]: sampled realizations
/// replayed block-at-a-time through the batched engine, binned into an RV
/// on the [`DEFAULT_GRID`].
///
/// Every `evaluate` call reuses the same fixed seed — common random
/// numbers across schedules, which *reduces* the variance of between-
/// schedule comparisons (the quantity the correlation study cares about).
/// One evaluation runs on the caller's thread: studies parallelize across
/// schedules, never inside one.
///
/// [`prepare`](Evaluator::prepare) returns the scenario's shared
/// [`SamplingTables`] ([`Preparation::Sampling`], one for all three
/// estimators); with a prepared context the per-evaluation setup is
/// a block-plan compile, not a table build. The registry carries one instance
/// per [`McEstimator`] under the names `"montecarlo"`, `"mc-anti"` and
/// `"mc-strat"`:
///
/// ```
/// use robusched_stochastic::evaluator_by_name;
/// assert_eq!(evaluator_by_name("mc-anti").unwrap().name(), "mc-anti");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MonteCarloEvaluator {
    /// Realizations per evaluation. The default (10 000) trades the
    /// paper's 100 000-realization accuracy budget for per-schedule cost;
    /// raise it for accuracy studies.
    pub realizations: usize,
    /// Fixed seed shared by every evaluation.
    pub seed: u64,
    /// Variance-reduction mode (selects the registry name).
    pub estimator: McEstimator,
}

impl Default for MonteCarloEvaluator {
    fn default() -> Self {
        Self {
            realizations: 10_000,
            seed: 0xC0FFEE,
            estimator: McEstimator::Standard,
        }
    }
}

impl MonteCarloEvaluator {
    /// The default configuration under a specific estimator.
    pub fn with_estimator(estimator: McEstimator) -> Self {
        Self {
            estimator,
            ..Default::default()
        }
    }
}

impl Evaluator for MonteCarloEvaluator {
    fn name(&self) -> &str {
        match self.estimator {
            McEstimator::Standard => "montecarlo",
            McEstimator::Antithetic => "mc-anti",
            McEstimator::Stratified => "mc-strat",
        }
    }

    fn preparation(&self) -> Preparation {
        Preparation::Sampling
    }

    fn evaluate_plan(
        &self,
        scenario: &Scenario,
        schedule: &Schedule,
        plan: &EagerPlan,
        cx: &mut EvalContext,
    ) -> DiscreteRv {
        let cfg = McConfig {
            realizations: self.realizations,
            seed: self.seed,
            estimator: self.estimator,
            ..Default::default()
        };
        let tables = cx.sampling(scenario);
        // Serial path through the context scratch: a study worker reuses
        // one finish matrix/duration row/sample buffer for every schedule
        // it evaluates.
        let mut samples = std::mem::take(&mut cx.mc.samples);
        samples.resize(cfg.realizations, 0.0);
        // `samples` was detached above, so the scratch borrow is safe.
        mc_makespans_into(
            scenario,
            schedule,
            plan,
            &cfg,
            &tables,
            &mut cx.mc,
            &mut samples,
        );
        let rv = DiscreteRv::from_samples(&samples, DEFAULT_GRID);
        cx.mc.samples = samples;
        rv
    }
}

/// Builds one bundled evaluator with its default configuration.
type Constructor = fn() -> Box<dyn Evaluator>;

/// Registry names and constructors of the bundled evaluators, classic
/// first (the paper's choice), the Monte-Carlo estimators last.
const REGISTRY: [(&str, Constructor); 6] = [
    ("classic", || Box::new(ClassicEvaluator::default())),
    ("spelde", || Box::new(SpeldeEvaluator)),
    ("dodin", || Box::new(DodinEvaluator)),
    ("montecarlo", || Box::new(MonteCarloEvaluator::default())),
    ("mc-anti", || {
        Box::new(MonteCarloEvaluator::with_estimator(McEstimator::Antithetic))
    }),
    ("mc-strat", || {
        Box::new(MonteCarloEvaluator::with_estimator(McEstimator::Stratified))
    }),
];

/// All bundled evaluators with their default configurations, classic
/// first (the paper's choice), the Monte-Carlo estimators last.
pub fn registry() -> Vec<Box<dyn Evaluator>> {
    REGISTRY.iter().map(|(_, make)| make()).collect()
}

/// Resolves an evaluator (with its default configuration) by name,
/// case-insensitively; `"mc"` is accepted as an alias of `"montecarlo"`.
/// Returns `None` for unknown names. Only the matching evaluator is
/// built.
pub fn evaluator_by_name(name: &str) -> Option<Box<dyn Evaluator>> {
    let name = if name.eq_ignore_ascii_case("mc") {
        "montecarlo"
    } else {
        name
    };
    REGISTRY
        .iter()
        .find(|(canonical, _)| canonical.eq_ignore_ascii_case(name))
        .map(|(_, make)| make())
}

#[cfg(test)]
mod tests {
    use super::*;
    use robusched_sched::heft;

    fn case() -> (Scenario, Schedule) {
        let s = Scenario::paper_random(12, 3, 1.1, 8);
        let sched = heft(&s);
        (s, sched)
    }

    #[test]
    fn registry_names_unique_and_resolvable() {
        let names: Vec<String> = registry().iter().map(|e| e.name().to_string()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate evaluator names");
        for n in &names {
            let e = evaluator_by_name(n).unwrap_or_else(|| panic!("{n} not resolvable"));
            assert_eq!(e.name(), n);
        }
        assert_eq!(evaluator_by_name("MC").unwrap().name(), "montecarlo");
        assert_eq!(evaluator_by_name("Dodin").unwrap().name(), "dodin");
        assert_eq!(evaluator_by_name("MC-Strat").unwrap().name(), "mc-strat");
        assert!(evaluator_by_name("exact").is_none());
        assert!(evaluator_by_name("mc-").is_none());
    }

    #[test]
    fn backends_agree_on_the_mean() {
        // §V: the methods "gave similar results"; means within 2%.
        let (s, sched) = case();
        let reference = ClassicEvaluator::default().evaluate(&s, &sched).mean();
        for e in registry() {
            let m = e.evaluate(&s, &sched).mean();
            assert!(
                (m - reference).abs() / reference < 0.02,
                "{}: mean {m} vs classic {reference}",
                e.name()
            );
        }
    }

    #[test]
    fn montecarlo_is_deterministic() {
        let (s, sched) = case();
        let e = MonteCarloEvaluator {
            realizations: 2_000,
            ..Default::default()
        };
        let a = e.evaluate(&s, &sched);
        let b = e.evaluate(&s, &sched);
        assert_eq!(a.mean(), b.mean());
        assert_eq!(a.std_dev(), b.std_dev());
    }
}
