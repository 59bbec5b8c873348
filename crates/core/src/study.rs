//! The experimental protocol of §V–§VI, as a pluggable engine.
//!
//! Per case the paper evaluates 10 000 uniform random schedules (2 000 for
//! the 100-task cases) plus the three heuristics, computes every metric for
//! each schedule from its analytic makespan distribution, and reports the
//! Pearson correlation matrix between the metrics.
//!
//! [`StudyBuilder`] generalizes that protocol across three axes:
//!
//! * **heuristics** are any set of [`robusched_sched::Heuristic`] names
//!   resolved through `sched`'s registry;
//! * **the evaluator** is any [`robusched_stochastic::Evaluator`] (classic,
//!   Spelde, Dodin, Monte-Carlo, or an external impl);
//! * **the output** streams: parallel workers deliver metric rows *in
//!   sampling order* into `O(k²)` [`StreamingMoments`] and a bounded
//!   [`RankReservoir`] (plus an optional caller [`MetricSink`]), so
//!   correlation matrices no longer require materializing every
//!   [`MetricValues`] — 100k+-schedule sweeps run in constant memory.
//!   Consumers that need the raw rows collect them with a sink.
//!
//! Work is split into small chunks of random schedules, each schedule
//! seeded as `derive_seed(seed, index)`, and run through
//! [`robusched_stochastic::par::par_map`]: workers claim chunks
//! but deliver them in index order, so every accumulator state — and
//! therefore every streamed matrix — is bit-identical for any thread count
//! and any chunk size.
//! Rows collected by a sink feed the two-pass [`pearson_matrix`] and
//! [`spearman_matrix`].

use crate::metrics::{evaluate_metrics, MetricValues, METRIC_LABELS};
use crate::streaming::{RankReservoir, StreamingMoments};
use robusched_platform::Scenario;
use robusched_randvar::derive_seed;
use robusched_sched::{heuristic_by_name, random_schedule, Heuristic, Schedule, ScheduleError};
use robusched_stats::CorrMatrix;
use robusched_stochastic::par::{par_map, worker_count};
use robusched_stochastic::{ClassicEvaluator, EvalContext, Evaluator};

/// Why a study could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StudyError {
    /// `random_schedules` was zero.
    NoSchedules,
    /// `threads` was explicitly set to zero.
    ZeroThreads,
    /// `reservoir_capacity` was below the 2-row minimum a rank statistic
    /// needs.
    ReservoirTooSmall(usize),
    /// A heuristic name did not resolve in `sched`'s registry.
    UnknownHeuristic(String),
    /// An evaluator name did not resolve in `stochastic`'s registry.
    UnknownEvaluator(String),
    /// A heuristic rejected the scenario.
    Schedule(ScheduleError),
    /// A worker thread panicked mid-study (e.g. an evaluator hit a
    /// numerically impossible state). Carries the first panic's payload
    /// rendered as text; sibling workers drain without a secondary
    /// `PoisonError` masking it.
    WorkerPanic(String),
}

impl std::fmt::Display for StudyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoSchedules => write!(f, "need at least one random schedule"),
            Self::ZeroThreads => write!(f, "thread count must be at least 1"),
            Self::ReservoirTooSmall(c) => {
                write!(f, "rank-reservoir capacity must be at least 2, got {c}")
            }
            Self::UnknownHeuristic(n) => write!(f, "unknown heuristic '{n}'"),
            Self::UnknownEvaluator(n) => write!(f, "unknown evaluator '{n}'"),
            Self::Schedule(e) => write!(f, "heuristic produced an invalid schedule: {e}"),
            Self::WorkerPanic(msg) => write!(f, "study worker panicked: {msg}"),
        }
    }
}

impl std::error::Error for StudyError {}

impl From<StudyError> for std::io::Error {
    fn from(e: StudyError) -> Self {
        std::io::Error::other(e)
    }
}

impl From<ScheduleError> for StudyError {
    fn from(e: ScheduleError) -> Self {
        Self::Schedule(e)
    }
}

/// A per-row consumer of the metric stream.
///
/// [`StudyBuilder::sink`] registers one; the engine calls
/// [`record`](MetricSink::record) once per random schedule **in sampling
/// order** (index `0, 1, 2, …`), regardless of how many worker threads
/// computed the rows. Sinks must be `Send` (they are invoked from worker
/// threads, one row at a time).
///
/// Any `FnMut(usize, &MetricValues) + Send` closure is a sink, e.g. one
/// that collects every row:
///
/// ```
/// use robusched_core::{MetricValues, StudyBuilder};
/// use robusched_platform::Scenario;
///
/// let scenario = Scenario::paper_random(10, 3, 1.1, 5);
/// let mut rows: Vec<MetricValues> = Vec::new();
/// let mut collect = |_: usize, m: &MetricValues| rows.push(*m);
/// StudyBuilder::new(&scenario)
///     .random_schedules(50)
///     .sink(&mut collect)
///     .run()
///     .unwrap();
/// assert_eq!(rows.len(), 50);
/// ```
pub trait MetricSink: Send {
    /// Consumes the metric row of schedule `index`.
    fn record(&mut self, index: usize, values: &MetricValues);
}

impl<F: FnMut(usize, &MetricValues) + Send> MetricSink for F {
    fn record(&mut self, index: usize, values: &MetricValues) {
        self(index, values);
    }
}

/// The streamed outcome of a study.
#[derive(Debug)]
pub struct StudyResult {
    /// Metrics of the requested heuristic schedules, labeled, in request
    /// order.
    pub heuristics: Vec<(String, MetricValues)>,
    /// Streaming co-moment accumulator over the oriented metric vectors of
    /// the random schedules.
    pub moments: StreamingMoments,
    /// Rank reservoir over the same rows (exact while the schedule count
    /// does not exceed its capacity).
    pub reservoir: RankReservoir,
}

impl StudyResult {
    /// Number of random schedules evaluated.
    pub fn random_count(&self) -> usize {
        self.moments.count()
    }

    /// The streamed Pearson matrix (paper orientation). Agrees with the
    /// two-pass [`pearson_matrix`] over the same rows to ~1e-13 per cell.
    pub fn pearson_streamed(&self) -> CorrMatrix {
        self.moments.pearson_matrix(&METRIC_LABELS)
    }

    /// The streamed Spearman matrix — exact while the schedule count is
    /// within the reservoir capacity, a uniform-sample estimate beyond.
    pub fn spearman_streamed(&self) -> CorrMatrix {
        self.reservoir.spearman_matrix(&METRIC_LABELS)
    }
}

/// Schedules per work chunk. Seeds come from the schedule index and chunks
/// are delivered in index order, so this sets how evenly the workers share
/// a study, never a result. Small, so that even a study of a hundred-odd
/// schedules gives each worker several chunks and the workers finish
/// close together.
const CHUNK: usize = 8;

/// Default [`RankReservoir`] capacity: covers the paper's 10 000-schedule
/// cases' Spearman needs with a 2 000-row margin over its n = 100 tier.
const DEFAULT_RESERVOIR: usize = 4096;

/// Builder for the §V protocol with pluggable heuristics, evaluator and
/// output streaming. See the [module docs](self) for the engine contract.
///
/// ```
/// use robusched_core::StudyBuilder;
/// use robusched_platform::Scenario;
///
/// let scenario = Scenario::paper_random(10, 3, 1.1, 5);
/// let res = StudyBuilder::new(&scenario)
///     .random_schedules(200)
///     .seed(3)
///     .heuristics(&["HEFT", "BIL"])
///     .evaluator_named("classic")
///     .run()
///     .unwrap();
/// assert_eq!(res.random_count(), 200);
/// assert!(res.pearson_streamed().get(1, 5) > 0.9); // σ ~ lateness
/// ```
pub struct StudyBuilder<'a> {
    scenario: &'a Scenario,
    random_schedules: usize,
    seed: u64,
    threads: Option<usize>,
    heuristic_names: Vec<String>,
    evaluator: Box<dyn Evaluator>,
    evaluator_name: Option<String>,
    reservoir_capacity: usize,
    sink: Option<&'a mut dyn MetricSink>,
}

impl<'a> StudyBuilder<'a> {
    /// A builder with the paper's defaults: 10 000 random schedules, seed
    /// 1, classic evaluator, no heuristics, no sink.
    pub fn new(scenario: &'a Scenario) -> Self {
        Self {
            scenario,
            random_schedules: 10_000,
            seed: 1,
            threads: None,
            heuristic_names: Vec::new(),
            evaluator: Box::new(ClassicEvaluator::default()),
            evaluator_name: None,
            reservoir_capacity: DEFAULT_RESERVOIR,
            sink: None,
        }
    }

    /// Number of random schedules to sample.
    pub fn random_schedules(mut self, k: usize) -> Self {
        self.random_schedules = k;
        self
    }

    /// Master seed for schedule sampling (and the rank reservoir).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Worker thread count. [`run`](Self::run) rejects 0; builders that
    /// never call this use all available parallelism.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Worker thread count as an option (`None` = available parallelism) —
    /// the shape CLI flags arrive in.
    pub fn threads_opt(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// Heuristics to evaluate alongside the random schedules, by registry
    /// name (see [`robusched_sched::heuristic_by_name`]); resolution
    /// happens in [`run`](Self::run).
    pub fn heuristics(mut self, names: &[&str]) -> Self {
        self.heuristic_names = names.iter().map(|s| s.to_string()).collect();
        self
    }

    /// The makespan-distribution backend (any [`Evaluator`] instance, for
    /// non-default configurations).
    pub fn evaluator(mut self, evaluator: Box<dyn Evaluator>) -> Self {
        self.evaluator = evaluator;
        self.evaluator_name = None;
        self
    }

    /// The backend by registry name with its default configuration (see
    /// [`robusched_stochastic::evaluator_by_name`]); resolution happens in
    /// [`run`](Self::run).
    pub fn evaluator_named(mut self, name: &str) -> Self {
        self.evaluator_name = Some(name.to_string());
        self
    }

    /// Capacity of the Spearman rank reservoir (default 4096; minimum 2,
    /// checked by [`run`](Self::run)). Studies whose Spearman artifacts
    /// must stay *exact* rather than sampled set this to the schedule
    /// count.
    pub fn reservoir_capacity(mut self, capacity: usize) -> Self {
        self.reservoir_capacity = capacity;
        self
    }

    /// Registers a per-row consumer of the metric stream (e.g. a CSV
    /// writer); called in sampling order.
    pub fn sink(mut self, sink: &'a mut dyn MetricSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Runs the study.
    pub fn run(self) -> Result<StudyResult, StudyError> {
        if self.random_schedules == 0 {
            return Err(StudyError::NoSchedules);
        }
        if self.threads == Some(0) {
            return Err(StudyError::ZeroThreads);
        }
        if self.reservoir_capacity < 2 {
            return Err(StudyError::ReservoirTooSmall(self.reservoir_capacity));
        }
        let evaluator: Box<dyn Evaluator> = match &self.evaluator_name {
            None => self.evaluator,
            Some(name) => robusched_stochastic::evaluator_by_name(name)
                .ok_or_else(|| StudyError::UnknownEvaluator(name.clone()))?,
        };
        let heuristics: Vec<Box<dyn Heuristic>> = self
            .heuristic_names
            .iter()
            .map(|n| heuristic_by_name(n).ok_or_else(|| StudyError::UnknownHeuristic(n.clone())))
            .collect::<Result<_, _>>()?;

        let scenario = self.scenario;
        let m = scenario.machine_count();
        // Shared read-only precomputation (e.g. the scenario discretization
        // cache), built once and handed to every worker's context; the
        // contexts themselves carry per-thread scratch reused across all
        // schedules of that worker.
        let prep = evaluator.prepare(scenario);
        let eval_one = |cx: &mut EvalContext, schedule: &Schedule| -> MetricValues {
            evaluate_metrics(evaluator.as_ref(), scenario, schedule, cx).expect("invalid schedule")
        };

        // ---- Random schedules: parallel chunk computation, in-order
        // delivery into the accumulators. ----
        let k = METRIC_LABELS.len();
        let mut moments = StreamingMoments::new(k);
        let mut reservoir =
            RankReservoir::new(k, self.reservoir_capacity, derive_seed(self.seed, !0));
        let mut sink = self.sink;
        par_map(
            self.random_schedules.div_ceil(CHUNK),
            worker_count(self.threads),
            // One context per worker: the shared prep is an Arc clone, the
            // scratch buffers warm up on the first schedule and are reused
            // for every one after.
            || EvalContext::new(prep.clone()),
            |cx, c| {
                let lo = c * CHUNK;
                let hi = (lo + CHUNK).min(self.random_schedules);
                (lo..hi)
                    .map(|idx| {
                        let sched = random_schedule(
                            &scenario.graph.dag,
                            m,
                            derive_seed(self.seed, idx as u64),
                        );
                        eval_one(cx, &sched)
                    })
                    .collect::<Vec<_>>()
            },
            |c, rows| {
                for (off, values) in rows.into_iter().enumerate() {
                    let oriented = values.oriented_vector();
                    moments.push(&oriented);
                    reservoir.push(&oriented);
                    if let Some(sink) = sink.as_deref_mut() {
                        sink.record(c * CHUNK + off, &values);
                    }
                }
            },
        )
        .map_err(StudyError::WorkerPanic)?;
        debug_assert_eq!(moments.count(), self.random_schedules);

        // ---- Heuristics. ----
        let mut cx = EvalContext::new(prep);
        let mut heuristic_rows = Vec::with_capacity(heuristics.len());
        for h in &heuristics {
            let sched = h.schedule(scenario)?;
            heuristic_rows.push((h.name().to_string(), eval_one(&mut cx, &sched)));
        }

        Ok(StudyResult {
            heuristics: heuristic_rows,
            moments,
            reservoir,
        })
    }
}

/// The §VI Pearson matrix of a collected metric sample (paper orientation).
pub fn pearson_matrix(rows: &[MetricValues]) -> CorrMatrix {
    matrix_with(rows, robusched_stats::pearson)
}

/// Spearman (rank) correlation matrix of a collected metric sample — an
/// extension robust to the "slightly curved set of points" the paper notes
/// Pearson merely tolerates.
pub fn spearman_matrix(rows: &[MetricValues]) -> CorrMatrix {
    matrix_with(rows, robusched_stats::spearman)
}

fn matrix_with(rows: &[MetricValues], corr: fn(&[f64], &[f64]) -> f64) -> CorrMatrix {
    let columns = crate::streaming::columns(
        rows.iter().map(MetricValues::oriented_vector),
        METRIC_LABELS.len(),
    );
    CorrMatrix::from_pairwise(&METRIC_LABELS, |i, j| corr(&columns[i], &columns[j]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{compute_metrics, MetricOptions};
    use robusched_sched::EagerPlan;

    /// The paper's protocol on `k` random schedules: classic evaluator
    /// plus the three paper heuristics, with the rows a sink collected.
    fn quick_study(
        scenario: &Scenario,
        k: usize,
        threads: usize,
    ) -> (StudyResult, Vec<MetricValues>) {
        let mut rows = Vec::new();
        let mut collect = |_: usize, m: &MetricValues| rows.push(*m);
        let res = StudyBuilder::new(scenario)
            .random_schedules(k)
            .seed(3)
            .threads(threads)
            .heuristics(&["HEFT", "BIL", "Hyb.BMCT"])
            .sink(&mut collect)
            .run()
            .unwrap();
        (res, rows)
    }

    #[test]
    fn small_case_runs_and_correlates() {
        let scenario = Scenario::paper_random(10, 3, 1.1, 5);
        let (res, random) = quick_study(&scenario, 200, 2);
        assert_eq!(random.len(), 200);
        assert_eq!(res.heuristics.len(), 3);
        // Core finding: σ, lateness and 1−A(δ) strongly positively
        // correlated even at this small sample size.
        let pearson = pearson_matrix(&random);
        let idx = |name: &str| METRIC_LABELS.iter().position(|&l| l == name).unwrap();
        let r = pearson.get(idx("makespan_std"), idx("avg_lateness"));
        assert!(r > 0.9, "σ vs lateness Pearson = {r}");
        let r2 = pearson.get(idx("makespan_std"), idx("abs_prob"));
        assert!(r2 > 0.9, "σ vs 1−A Pearson = {r2}");
    }

    #[test]
    fn heuristics_beat_random_on_makespan() {
        let scenario = Scenario::paper_random(20, 4, 1.1, 11);
        let (res, random) = quick_study(&scenario, 300, 2);
        let best_random = random
            .iter()
            .map(|m| m.expected_makespan)
            .fold(f64::INFINITY, f64::min);
        let median_random = {
            let mut v: Vec<f64> = random.iter().map(|m| m.expected_makespan).collect();
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        for (name, m) in &res.heuristics {
            assert!(
                m.expected_makespan < median_random,
                "{name} ({}) not better than the median random ({median_random})",
                m.expected_makespan
            );
        }
        // At least one heuristic near the best random schedule.
        let best_h = res
            .heuristics
            .iter()
            .map(|(_, m)| m.expected_makespan)
            .fold(f64::INFINITY, f64::min);
        assert!(best_h <= best_random * 1.1, "{best_h} vs {best_random}");
    }

    #[test]
    fn spearman_agrees_with_pearson_on_strong_cluster() {
        let scenario = Scenario::paper_random(12, 3, 1.1, 19);
        let (_, random) = quick_study(&scenario, 200, 2);
        let sp = spearman_matrix(&random);
        let idx = |name: &str| METRIC_LABELS.iter().position(|&l| l == name).unwrap();
        // On the near-linear cluster, rank correlation is as strong.
        let r = sp.get(idx("makespan_std"), idx("avg_lateness"));
        assert!(r > 0.9, "Spearman σ~L = {r}");
        // Spearman matrix is symmetric with unit diagonal, like Pearson.
        for i in 0..sp.dim() {
            assert_eq!(sp.get(i, i), 1.0);
            for j in 0..sp.dim() {
                assert!((sp.get(i, j) - sp.get(j, i)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let scenario = Scenario::paper_random(10, 3, 1.1, 7);
        let (a, rows_a) = quick_study(&scenario, 130, 1);
        let (b, rows_b) = quick_study(&scenario, 130, 4);
        assert_eq!(rows_a, rows_b);
        assert_eq!(a.heuristics, b.heuristics);
        // A heuristic row equals a fresh-context evaluation. `{:?}` prints
        // each `f64` in its shortest round-trip form, so equal text means
        // equal values.
        let evaluator = ClassicEvaluator::default();
        for (name, values) in &a.heuristics {
            let sched = heuristic_by_name(name)
                .unwrap()
                .schedule(&scenario)
                .unwrap();
            let rv = evaluator.evaluate(&scenario, &sched);
            let fresh = compute_metrics(&scenario, &sched, &rv, &MetricOptions::default());
            assert_eq!(
                format!("{fresh:?}"),
                format!("{values:?}"),
                "{name}: heuristic row differs from a fresh evaluation"
            );
        }
    }

    #[test]
    fn streamed_matrices_match_buffered_within_1e12() {
        let scenario = Scenario::paper_random(12, 3, 1.1, 23);
        let mut rows = Vec::new();
        let mut collect = |_: usize, m: &MetricValues| rows.push(*m);
        let res = StudyBuilder::new(&scenario)
            .random_schedules(200)
            .seed(9)
            .sink(&mut collect)
            .run()
            .unwrap();
        let pearson_buf = pearson_matrix(&rows);
        let pearson_str = res.pearson_streamed();
        let spearman_buf = spearman_matrix(&rows);
        let spearman_str = res.spearman_streamed();
        assert!(res.reservoir.is_exact());
        for i in 0..pearson_buf.dim() {
            for j in 0..pearson_buf.dim() {
                assert!(
                    (pearson_buf.get(i, j) - pearson_str.get(i, j)).abs() < 1e-12,
                    "Pearson ({i},{j}): {} vs {}",
                    pearson_buf.get(i, j),
                    pearson_str.get(i, j)
                );
                assert!(
                    (spearman_buf.get(i, j) - spearman_str.get(i, j)).abs() < 1e-12,
                    "Spearman ({i},{j}): {} vs {}",
                    spearman_buf.get(i, j),
                    spearman_str.get(i, j)
                );
            }
        }
    }

    #[test]
    fn streamed_moments_identical_across_thread_counts() {
        let scenario = Scenario::paper_random(10, 3, 1.1, 7);
        let run_with = |threads: usize| {
            StudyBuilder::new(&scenario)
                .random_schedules(130)
                .seed(3)
                .threads(threads)
                .run()
                .unwrap()
        };
        let a = run_with(1);
        let b = run_with(4);
        let (pa, pb) = (a.pearson_streamed(), b.pearson_streamed());
        let (sa, sb) = (a.spearman_streamed(), b.spearman_streamed());
        for i in 0..pa.dim() {
            for j in 0..pa.dim() {
                assert_eq!(pa.get(i, j), pb.get(i, j), "Pearson cell ({i},{j})");
                assert_eq!(sa.get(i, j), sb.get(i, j), "Spearman cell ({i},{j})");
            }
        }
    }

    #[test]
    fn sink_receives_rows_in_sampling_order() {
        let scenario = Scenario::paper_random(10, 3, 1.1, 13);
        let mut indices = Vec::new();
        let mut means = Vec::new();
        let mut sink = |idx: usize, m: &MetricValues| {
            indices.push(idx);
            means.push(m.expected_makespan);
        };
        StudyBuilder::new(&scenario)
            .random_schedules(150)
            .seed(5)
            .threads(4)
            .sink(&mut sink)
            .run()
            .unwrap();
        assert_eq!(indices, (0..150).collect::<Vec<_>>());
        // Row `i` belongs to the schedule drawn from seed `derive_seed(5, i)`.
        let evaluator = ClassicEvaluator::default();
        let m = scenario.machine_count();
        for (i, &mean) in means.iter().enumerate() {
            let sched = random_schedule(&scenario.graph.dag, m, derive_seed(5, i as u64));
            assert_eq!(
                evaluator.evaluate(&scenario, &sched).mean(),
                mean,
                "row {i}"
            );
        }
    }

    #[test]
    fn builder_error_paths() {
        let scenario = Scenario::paper_random(8, 2, 1.1, 1);
        assert_eq!(
            StudyBuilder::new(&scenario)
                .random_schedules(0)
                .run()
                .unwrap_err(),
            StudyError::NoSchedules
        );
        assert_eq!(
            StudyBuilder::new(&scenario)
                .random_schedules(10)
                .threads(0)
                .run()
                .unwrap_err(),
            StudyError::ZeroThreads
        );
        assert_eq!(
            StudyBuilder::new(&scenario)
                .random_schedules(10)
                .reservoir_capacity(1)
                .run()
                .unwrap_err(),
            StudyError::ReservoirTooSmall(1)
        );
        assert_eq!(
            StudyBuilder::new(&scenario)
                .random_schedules(10)
                .heuristics(&["NOPE"])
                .run()
                .unwrap_err(),
            StudyError::UnknownHeuristic("NOPE".into())
        );
        assert_eq!(
            StudyBuilder::new(&scenario)
                .random_schedules(10)
                .evaluator_named("exact")
                .run()
                .unwrap_err(),
            StudyError::UnknownEvaluator("exact".into())
        );
    }

    #[test]
    fn worker_panic_surfaces_as_study_error() {
        use robusched_randvar::DiscreteRv;
        use robusched_sched::Schedule;

        /// Panics on every evaluation — drives the first-panic capture
        /// path without a NaN or a poisoned lock in sight.
        struct PanickingEvaluator;
        impl Evaluator for PanickingEvaluator {
            fn name(&self) -> &str {
                "panicker"
            }
            fn evaluate_plan(
                &self,
                _scenario: &Scenario,
                _schedule: &Schedule,
                _plan: &EagerPlan,
                _cx: &mut EvalContext,
            ) -> DiscreteRv {
                panic!("injected failure");
            }
        }

        let scenario = Scenario::paper_random(10, 3, 1.1, 5);
        // Silence the default panic hook for the duration: every worker
        // thread would otherwise print a backtrace banner.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let err = StudyBuilder::new(&scenario)
            .random_schedules(300)
            .threads(4)
            .evaluator(Box::new(PanickingEvaluator))
            .run()
            .unwrap_err();
        std::panic::set_hook(hook);
        match err {
            StudyError::WorkerPanic(msg) => {
                assert!(msg.contains("injected failure"), "message was: {msg}")
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    #[test]
    fn swapping_evaluators_preserves_the_cluster() {
        // The same study under Spelde's backend: σ ~ lateness must stay
        // strongly correlated (the backbone of the ext-backends study).
        let scenario = Scenario::paper_random(10, 3, 1.1, 5);
        let res = StudyBuilder::new(&scenario)
            .random_schedules(120)
            .seed(3)
            .evaluator_named("spelde")
            .run()
            .unwrap();
        let idx = |name: &str| METRIC_LABELS.iter().position(|&l| l == name).unwrap();
        let r = res
            .pearson_streamed()
            .get(idx("makespan_std"), idx("avg_lateness"));
        assert!(r > 0.9, "Spelde σ~L = {r}");
    }
}
