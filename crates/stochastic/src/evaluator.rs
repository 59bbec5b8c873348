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
use crate::spelde::evaluate_spelde;
use robusched_platform::Scenario;
use robusched_randvar::{DiscreteRv, RvWorkspace, DEFAULT_GRID};
use robusched_sched::Schedule;
use std::sync::Arc;

/// Shared, read-only precomputation a backend derives from a scenario
/// (see [`Evaluator::prepare`]). Cloning is cheap (`Arc`), so a study
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
/// mutable scratch (RV workspace, classic recursion buffers) that makes the
/// steady-state hot path allocation-free. Construct one per worker thread
/// with the study's prepared scenario and thread it through
/// [`Evaluator::evaluate_with`].
#[derive(Debug, Default)]
pub struct EvalContext {
    pub(crate) prep: PreparedScenario,
    pub(crate) ws: RvWorkspace,
    pub(crate) classic: ClassicScratch,
    pub(crate) mc: McScratch,
}

impl EvalContext {
    /// A context carrying the given shared precomputation.
    pub fn new(prep: PreparedScenario) -> Self {
        Self {
            prep,
            ws: RvWorkspace::new(),
            classic: ClassicScratch::new(),
            mc: McScratch::default(),
        }
    }

    /// The discretization cache, if this context carries one *matching*
    /// the given scenario and grid.
    fn discretized(&self, scenario: &Scenario, grid: usize) -> Option<&Arc<DiscretizedScenario>> {
        match &self.prep {
            PreparedScenario::Discretized(c) if c.grid() == grid && c.matches(scenario) => Some(c),
            _ => None,
        }
    }

    /// The Monte-Carlo sampling tables, if this context carries ones
    /// *matching* the given scenario's uncertainty family.
    fn sampling(&self, scenario: &Scenario) -> Option<&Arc<SamplingTables>> {
        match &self.prep {
            PreparedScenario::Sampling(t) if t.matches(scenario) => Some(t),
            _ => None,
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
/// The workhorse method is [`evaluate_with`](Evaluator::evaluate_with):
/// batch callers call [`prepare`](Evaluator::prepare) once per scenario,
/// build one [`EvalContext`] per worker, and evaluate every schedule
/// through it — shared discretizations are computed once and scratch
/// buffers are reused across schedules. [`evaluate`](Evaluator::evaluate)
/// is the one-shot form (fresh context per call) and yields identical
/// distributions.
///
/// # Panics
/// Bundled implementations panic if the schedule is invalid for the
/// scenario — studies only feed schedules produced by validated
/// constructors.
pub trait Evaluator: Send + Sync {
    /// Display/registry name (e.g. `"classic"`).
    fn name(&self) -> &str;

    /// Shared read-only precomputation for evaluating many schedules under
    /// one scenario. The default is no precomputation.
    fn prepare(&self, _scenario: &Scenario) -> PreparedScenario {
        PreparedScenario::None
    }

    /// The makespan distribution of `schedule` under `scenario`, using
    /// (and warming) the caller's context. Must return the same
    /// distribution as [`evaluate`](Evaluator::evaluate) for any context —
    /// prepared, empty, or warmed by other schedules.
    fn evaluate_with(
        &self,
        scenario: &Scenario,
        schedule: &Schedule,
        cx: &mut EvalContext,
    ) -> DiscreteRv;

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

    fn prepare(&self, scenario: &Scenario) -> PreparedScenario {
        PreparedScenario::Discretized(Arc::new(DiscretizedScenario::new(scenario, self.grid)))
    }

    fn evaluate_with(
        &self,
        scenario: &Scenario,
        schedule: &Schedule,
        cx: &mut EvalContext,
    ) -> DiscreteRv {
        match cx.discretized(scenario, self.grid) {
            Some(cache) => {
                let cache = cache.clone();
                evaluate_classic_cached(scenario, schedule, &cache, &mut cx.ws, &mut cx.classic)
            }
            None => {
                // Context prepared for another scenario/backend: fall back
                // to a private (lazy) cache — same numerics, no sharing.
                let cache = DiscretizedScenario::new(scenario, self.grid);
                evaluate_classic_cached(scenario, schedule, &cache, &mut cx.ws, &mut cx.classic)
            }
        }
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

    fn evaluate_with(
        &self,
        scenario: &Scenario,
        schedule: &Schedule,
        _cx: &mut EvalContext,
    ) -> DiscreteRv {
        // Spelde works on closed-form moment pairs — there is nothing to
        // discretize or cache.
        evaluate_spelde(scenario, schedule).to_rv(DEFAULT_GRID)
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

    fn prepare(&self, scenario: &Scenario) -> PreparedScenario {
        PreparedScenario::Discretized(Arc::new(DiscretizedScenario::new(scenario, DEFAULT_GRID)))
    }

    fn evaluate_with(
        &self,
        scenario: &Scenario,
        schedule: &Schedule,
        cx: &mut EvalContext,
    ) -> DiscreteRv {
        match cx.discretized(scenario, DEFAULT_GRID) {
            Some(cache) => evaluate_dodin_cached(scenario, schedule, cache),
            None => {
                let cache = DiscretizedScenario::new(scenario, DEFAULT_GRID);
                evaluate_dodin_cached(scenario, schedule, &cache)
            }
        }
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
/// [`SamplingTables`]; with a prepared context the per-evaluation setup is
/// a plan compile, not a table build. The registry carries one instance
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

    fn prepare(&self, scenario: &Scenario) -> PreparedScenario {
        PreparedScenario::Sampling(Arc::new(SamplingTables::new(scenario)))
    }

    fn evaluate_with(
        &self,
        scenario: &Scenario,
        schedule: &Schedule,
        cx: &mut EvalContext,
    ) -> DiscreteRv {
        let cfg = McConfig {
            realizations: self.realizations,
            seed: self.seed,
            estimator: self.estimator,
            ..Default::default()
        };
        let tables = match cx.sampling(scenario) {
            Some(t) => t.clone(),
            // Context prepared for another scenario/backend: fall back to
            // private tables — same numerics, no sharing.
            None => Arc::new(SamplingTables::new(scenario)),
        };
        // Serial path through the context scratch: a study worker reuses
        // one finish matrix/duration row/sample buffer for every schedule
        // it evaluates.
        let mut samples = std::mem::take(&mut cx.mc.samples);
        samples.resize(cfg.realizations, 0.0);
        // `samples` was detached above, so the scratch borrow is safe.
        mc_makespans_into(scenario, schedule, &cfg, &tables, &mut cx.mc, &mut samples);
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
