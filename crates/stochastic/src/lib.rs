//! # robusched-stochastic
//!
//! Makespan-distribution evaluation — the computational heart of the paper.
//!
//! Given an eager schedule whose task and communication durations are
//! random variables, the makespan is itself a random variable. §II and §V
//! of the paper describe four ways to get at it, all implemented here:
//!
//! * [`classic`] — the "classical algorithm (which assumes the independence
//!   between random variables when calculating the maximum)": walk the
//!   disjunctive graph in topological order, `sum` for serial dependencies
//!   (PDF convolution), `max` for joins (CDF product). This is the method
//!   the paper actually used for its experiments.
//! * [`spelde`] — Spelde's central-limit method: every variable reduced to
//!   (mean, variance), sums add moments, maxima use Clark's equations —
//!   "the makespan is calculated without doing any convolution".
//! * [`dodin`] — Dodin's series-parallel reduction on the activity-on-arc
//!   network, with node duplication to force general graphs into
//!   series-parallel form.
//! * [`montecarlo`] — the ground truth: 100 000 (configurable) sampled
//!   realizations replayed through the eager executor, parallelized with
//!   [`par::par_map`] and deterministic regardless of thread count.
//!
//! [`evaluator`] puts the classic, Spelde and Dodin methods and the
//! Monte-Carlo estimators behind the object-safe [`Evaluator`] trait (with
//! a by-name [`registry`]); it is the one way to get a makespan
//! distribution. Its batch surface — [`Evaluator::prepare`] +
//! [`Evaluator::evaluate_plan`] with a per-worker [`EvalContext`] — shares
//! one [`cache::DiscretizedScenario`] (every task/communication
//! distribution quantized once per scenario and grid) across all schedules
//! and threads of a study and reuses scratch buffers, keeping the analytic
//! hot path allocation-free; [`Evaluator::evaluate_with`] compiles the
//! plan itself and [`Evaluator::evaluate`] is the one-shot form.
//!
//! Every method walks the schedule's disjunctive graph (§II: "adding edges
//! between independent tasks when they are scheduled consecutively on the
//! same processor"), which [`robusched_sched::EagerPlan`] compiles once per
//! schedule; classic and Spelde are algebras of its forward fold.
//! [`accuracy`] measures the KS and area (CM) distances between an
//! analytic distribution and the empirical one (Fig. 1 / Fig. 2); [`par`]
//! is the ordered-parallel helper every parallel loop of the workspace
//! runs on.

#![deny(missing_docs)]

pub mod accuracy;
pub mod cache;
pub mod classic;
pub mod criticality;
pub mod dodin;
pub mod evaluator;
pub mod montecarlo;
pub mod par;
pub mod perturb;
pub mod spelde;

pub use accuracy::AccuracyReport;
pub use cache::{scenario_fingerprint, DiscretizedScenario, Fnv1a, SamplingTables};
pub use criticality::criticality_indices;
pub use evaluator::{
    evaluator_by_name, registry, ClassicEvaluator, DodinEvaluator, EvalContext, Evaluator,
    MonteCarloEvaluator, Preparation, PreparedScenario, SpeldeEvaluator,
};
pub use montecarlo::{mc_makespans, McConfig, McEstimator};
pub use perturb::{Move, SearchPoint, MOVES};
pub use spelde::{evaluate_spelde, SpeldeResult};
