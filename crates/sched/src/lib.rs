//! # robusched-sched
//!
//! Schedules and scheduling heuristics for heterogeneous DAGs.
//!
//! §II of the paper: *"A schedule is the assignment of the tasks to the
//! processors with a start date and an end-date. In this work we consider
//! only eager schedules: each task, once allocated to a processor, starts
//! as soon as possible in the same order given by the schedule."*
//!
//! Accordingly, [`schedule::Schedule`] stores only the assignment and the
//! per-processor task orders; start dates are always *recomputed* by the
//! eager executor ([`eager::EagerPlan`]) from whatever durations are in
//! force — deterministic minima for the heuristics, sampled realizations
//! for Monte-Carlo, random variables for the analytic evaluators.
//!
//! Heuristics (all produce eager schedules):
//! * [`mod@heft`] — HEFT (Topcuoglu, Hariri & Wu): mean-cost upward ranks +
//!   insertion-based earliest finish time;
//! * [`mod@bil`] — BIL (Oh & Ha): basic imaginary levels / makespans;
//! * [`bmct`] — Hyb.BMCT (Sakellariou & Zhao): rank-ordered independent
//!   groups refined by balanced minimum completion time;
//! * [`mod@cpop`] — CPOP (Topcuoglu et al.), an extension beyond the paper's
//!   evaluated set;
//! * [`robust`] — σ-HEFT, HEFT on risk-adjusted `mean + κ·σ` costs (the
//!   paper's §VIII future work);
//! * [`random`] — the paper's random schedule generator (uniform ready task
//!   → uniform processor → eager placement).
//!
//! HEFT, σ-HEFT, CPOP and BIL place tasks through one list-scheduling core
//! in [`timeline`]. [`heuristic`] puts the five heuristics behind the
//! object-safe [`Heuristic`] trait with a by-name [`registry`], so studies
//! can swap heuristics without naming concrete functions.

#![deny(missing_docs)]

pub mod bil;
pub mod bmct;
pub mod cpop;
pub mod eager;
pub mod heft;
pub mod heuristic;
pub mod random;
pub mod rank;
pub mod robust;
pub mod schedule;
pub mod timeline;

pub use bil::bil;
pub use bmct::hyb_bmct;
pub use cpop::cpop;
pub use eager::{EagerPlan, ExecResult, FoldAlgebra};
pub use heft::heft;
pub use heuristic::{heuristic_by_name, registry, Heuristic};
pub use random::random_schedule;
pub use rank::{downward_ranks, upward_ranks};
pub use robust::sigma_heft;
pub use schedule::{Schedule, ScheduleError};

use robusched_platform::Scenario;

/// Deterministic makespan of a schedule under the minimum durations — the
/// objective every makespan-centric heuristic optimizes.
///
/// Fallible variant of [`det_makespan`] for library consumers that may hold
/// externally supplied (possibly invalid) schedules.
pub fn try_det_makespan(scenario: &Scenario, schedule: &Schedule) -> Result<f64, ScheduleError> {
    let plan = EagerPlan::new(&scenario.graph.dag, schedule)?;
    Ok(plan
        .execute(
            &scenario.graph.dag,
            |v| scenario.det_task_cost(v, schedule.machine_of(v)),
            |e, u, v| scenario.det_comm_cost(e, schedule.machine_of(u), schedule.machine_of(v)),
        )
        .makespan)
}

/// Panicking wrapper around [`try_det_makespan`] (kept for the figure code
/// and tests, where every schedule is constructed valid).
///
/// # Panics
/// Panics if the schedule is invalid for the scenario's graph.
pub fn det_makespan(scenario: &Scenario, schedule: &Schedule) -> f64 {
    try_det_makespan(scenario, schedule).expect("invalid schedule")
}

/// Mean-duration makespan (used by the slack metrics, which the paper
/// computes "by taking the average value of the makespan, the task duration
/// and the communication duration").
///
/// Fallible variant of [`mean_makespan`].
pub fn try_mean_makespan(scenario: &Scenario, schedule: &Schedule) -> Result<f64, ScheduleError> {
    let plan = EagerPlan::new(&scenario.graph.dag, schedule)?;
    Ok(plan
        .execute(
            &scenario.graph.dag,
            |v| scenario.mean_task_cost(v, schedule.machine_of(v)),
            |e, u, v| scenario.mean_comm_cost(e, schedule.machine_of(u), schedule.machine_of(v)),
        )
        .makespan)
}

/// Panicking wrapper around [`try_mean_makespan`].
///
/// # Panics
/// Panics if the schedule is invalid for the scenario's graph.
pub fn mean_makespan(scenario: &Scenario, schedule: &Schedule) -> f64 {
    try_mean_makespan(scenario, schedule).expect("invalid schedule")
}
