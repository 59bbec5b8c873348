//! # robusched-dynamic
//!
//! Arrival-driven (online) simulation: a deterministic event-driven
//! executor that runs a *stream* of workflow instances over a shared
//! machine pool, with per-instance deadlines, pluggable task-dropping
//! policies, and the online robustness metrics of
//! [`robusched_core::OnlineMetrics`].
//!
//! The 2007 paper evaluates schedules one DAG at a time, offline. This
//! crate asks the follow-up question the task-dropping literature poses
//! (Gentry et al., arXiv 1901.09312; Salehi et al., arXiv 2005.11050):
//! when workflows *keep arriving* faster than the platform drains them,
//! which work should be abandoned so the rest meets its deadlines? The
//! probabilistic policies answer with exactly the machinery the rest of
//! the workspace already has — completion-time *distributions* from the
//! discretized-scenario cache, queried against each instance's deadline.
//!
//! Module map:
//!
//! * [`stream`] — [`ArrivalStream`]: Poisson arrivals over a workload
//!   pool, or the replay of a fixed arrival list;
//! * [`policy`] — [`DropPolicy`]: never-drop, deadline reaping,
//!   probabilistic pruning, and admission gating;
//! * [`fault`] — [`FaultModel`] (machine failure/repair processes and
//!   transient task faults) and [`RecoveryPolicy`] (abandon, capped
//!   retry with exponential backoff, backlog-aware rescheduling);
//! * [`remaining`] — the backward recursion producing the
//!   remaining-completion-time distributions those policies query;
//! * [`sim`] — [`DynamicSim`], the event loop itself.
//!
//! Everything is deterministic: same stream + policy + config (+ fault
//! model + recovery policy) ⇒ bit-identical [`SimResult`], and on spaced
//! arrivals with zero uncertainty the executor reproduces
//! [`robusched_sched::EagerPlan::execute`] makespans bit for bit — with
//! [`NoFaults`] it stays bit-exact against the pre-fault executor.

pub mod fault;
pub mod policy;
pub mod remaining;
pub mod sim;
pub mod stream;

pub use fault::{
    backoff_delay, fault_by_spec, recovery_by_spec, Abandon, ExpFaults, FaultModel, NoFaults,
    RecoveryAction, RecoveryPolicy, Resched, Retry, TransientFaults, WeibullFaults, BACKOFF_BASE,
    RESCHED_MAX_ATTEMPTS,
};
pub use policy::{
    meets_threshold, policy_by_spec, AdmissionGate, DeadlineReaper, DropPolicy, NeverDrop,
    PolicyQuery, ProbPrune,
};
pub use remaining::RemainingDists;
pub use sim::{DynamicSim, InstanceOutcome, SimConfig, SimError, SimResult};
pub use stream::{Arrival, ArrivalStream, PoissonStream, ReplayStream};
