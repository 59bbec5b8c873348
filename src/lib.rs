//! # robusched
//!
//! Facade crate for the `robusched` workspace — a full reproduction of
//! *"A Comparison of Robustness Metrics for Scheduling DAGs on Heterogeneous
//! Systems"* (Canon & Jeannot, HeteroPar'07 / CLUSTER 2007 workshops).
//!
//! This crate re-exports the public API of every subsystem so downstream
//! users depend on a single crate:
//!
//! * [`numeric`] — convolution, integration, splines, special functions;
//! * [`randvar`] — continuous distributions and the discretized RV calculus;
//! * [`dag`] — task-graph structure and generators;
//! * [`platform`] — heterogeneous platform and uncertainty models;
//! * [`sched`] — schedules and heuristics (HEFT, BIL, Hyb.BMCT, CPOP, random);
//! * [`stochastic`] — makespan-distribution evaluation (classic, Dodin,
//!   Spelde, Monte-Carlo);
//! * [`stats`] — correlation and descriptive statistics;
//! * [`core`] — the robustness metrics, the comparison-study pipeline, and
//!   the batched, cache-deduplicated [`core::EvalService`];
//! * [`dynamic`] — arrival-driven (online) simulation: event-driven
//!   executor with deadlines, task dropping, and probabilistic pruning;
//! * [`experiments`] — figure-by-figure reproduction harness.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use robusched_core as core;
pub use robusched_dag as dag;
pub use robusched_dynamic as dynamic;
pub use robusched_experiments as experiments;
pub use robusched_numeric as numeric;
pub use robusched_platform as platform;
pub use robusched_randvar as randvar;
pub use robusched_sched as sched;
pub use robusched_stats as stats;
pub use robusched_stochastic as stochastic;

/// Workspace version, for `--version` style reporting from examples.
///
/// Every member crate inherits `[workspace.package] version` from the root
/// `Cargo.toml`, so this facade constant is the version of the whole
/// workspace, not just of the facade crate.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_matches_workspace_package_version() {
        // `[workspace.package]` pins 0.1.0 for every member; the facade
        // constant must track it (a mismatch means a manifest stopped
        // inheriting `version.workspace = true`).
        assert_eq!(super::VERSION, "0.1.0");
    }
}
