//! # robusched-core
//!
//! The paper's contribution: robustness metrics for stochastic DAG
//! schedules and the machinery that compares them.
//!
//! §IV defines the metric set; [`metrics`] implements all of them (plus the
//! `R₂` late-fraction metric of Shi, Jeannot & Dongarra that the related
//! work discusses):
//!
//! | metric | symbol | computed from |
//! |---|---|---|
//! | expected makespan | `E(M)` | makespan RV |
//! | makespan standard deviation | `σ_M` | makespan RV |
//! | makespan differential entropy | `h(M)` | makespan RV |
//! | average slack | `S̄` | mean-duration disjunctive graph |
//! | slack standard deviation | `σ_S` | per-task slacks |
//! | average lateness | `L` | makespan RV (`E[M′] − E[M]`) |
//! | absolute probabilistic | `A(δ)` | `P(E−δ ≤ M ≤ E+δ)` |
//! | relative probabilistic | `R(γ)` | `P(E/γ ≤ M ≤ γE)` |
//! | late fraction (ext.) | `R₂` | `P(M > E[M])` |
//!
//! [`study`] runs the paper's experimental protocol on a scenario: sample
//! thousands of random schedules (plus any registered heuristics),
//! evaluate every metric per schedule under a pluggable
//! [`robusched_stochastic::Evaluator`], and emit the Pearson correlation
//! matrix with the paper's plotting orientation (§VI inverts the slack and
//! the two probabilistic metrics so that "optimized" always means
//! "minimized"). [`StudyBuilder`] is the engine's entry point; its
//! parallel workers feed the [`streaming`] accumulators (Welford co-moment
//! matrix + rank reservoir) so correlation matrices need `O(k²)` memory
//! instead of materializing every row; consumers that need the raw rows
//! ask it to buffer them and take the two-pass [`pearson_matrix`].

pub mod adversarial;
mod lru;
pub mod metrics;
pub mod optimize;
pub mod service;
pub mod streaming;
pub mod study;

pub use adversarial::{anneal, AnnealConfig, AnnealResult, Objective, ObjectiveReport};
pub use lru::Lru;
pub use metrics::{
    compute_metrics, distribution_stats, evaluate_metrics, metric_index, DistributionStats,
    MetricOptions, MetricValues, OnlineMetrics, METRIC_LABELS,
};
pub use optimize::{pareto_search, ParetoPoint, SearchConfig};
pub use service::{
    EvalOutcome, EvalRequest, EvalResult, EvalService, ServiceConfig, ServiceError, ServiceStats,
    Ticket,
};
pub use streaming::{RankReservoir, StreamingMoments};
pub use study::{
    pearson_matrix, spearman_matrix, MetricSink, StudyBuilder, StudyError, StudyResult,
};
