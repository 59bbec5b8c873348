//! Dropping policies: when to refuse, abandon, or keep a workflow.
//!
//! The executor consults a [`DropPolicy`] at three points of an instance's
//! life:
//!
//! 1. **admission** ([`DropPolicy::admit`]) — when the instance arrives;
//! 2. **dispatch** ([`DropPolicy::keep_task`]) — each time one of its tasks
//!    is about to start on a machine;
//! 3. **deadline lapse** ([`DropPolicy::reap_on_deadline`]) — when
//!    simulated time passes the instance's deadline before it completes.
//!
//! Four policies (the `ext-dynamic` sweep):
//!
//! * [`NeverDrop`] — the baseline: every arrival runs to completion no
//!   matter how doomed (the 2007 paper's implicit policy);
//! * [`DeadlineReaper`] — purely reactive: an instance is abandoned the
//!   moment its deadline lapses, freeing its queued work;
//! * [`ProbPrune`] — probabilistic task pruning (after Gentry et al.,
//!   arXiv 1901.09312): at dispatch, query the task's *remaining
//!   completion-time distribution* (the backward recursion of
//!   [`crate::remaining`] over the cached
//!   [`robusched_stochastic::DiscretizedScenario`] tables) and drop the
//!   whole instance when `P(finish ≤ deadline) < θ`;
//! * [`AdmissionGate`] — autonomous dropping at the queue gate (after
//!   Salehi et al., arXiv 2005.11050): at arrival, query the instance's
//!   *total* completion-time distribution shifted by the current backlog
//!   estimate and reject when `P(meet deadline) < θ`.
//!
//! The threshold comparison is the same everywhere and is exposed as the
//! pure [`meets_threshold`] so the boundary semantics (`P ≥ θ` keeps,
//! `P < θ` drops — the papers' "falls below a threshold") are pinned by
//! unit tests independent of the simulator.

use robusched_randvar::DiscreteRv;

/// Everything a policy may inspect at a decision point. Distribution
/// fields are `None` when the executor skipped building them (policies
/// that return `false` from [`DropPolicy::needs_distributions`] never see
/// them) — a policy must treat absence as "keep".
#[derive(Debug, Clone, Copy)]
pub struct PolicyQuery<'a> {
    /// Current simulated time.
    pub now: f64,
    /// The instance's arrival time.
    pub arrival: f64,
    /// The instance's absolute deadline.
    pub deadline: f64,
    /// Estimated queueing backlog ahead of this instance: mean per-machine
    /// work (running remainders + queued durations) at `now`. Filled only
    /// at admission and only for policies whose
    /// [`DropPolicy::needs_backlog`] is `true`; `0.0` everywhere else.
    pub backlog: f64,
    /// Completion-time distribution of the whole instance measured from
    /// its start (analytic, under the independence assumption).
    pub total: Option<&'a DiscreteRv>,
    /// Remaining completion-time distribution from the queried task's
    /// start to the instance's completion.
    pub remaining: Option<&'a DiscreteRv>,
}

/// A pluggable dropping policy. Object-safe; the executor holds a
/// `&dyn DropPolicy`.
pub trait DropPolicy: Send + Sync {
    /// Registry/CSV name (e.g. `"prune@0.5"`).
    fn name(&self) -> String;

    /// Whether the executor must build the per-instance completion-time
    /// distributions for this policy (they cost one backward recursion per
    /// distinct scenario; the non-probabilistic policies skip it).
    fn needs_distributions(&self) -> bool {
        false
    }

    /// Whether [`admit`](Self::admit) reads [`PolicyQuery::backlog`]. The
    /// estimate sums every queued entry of every machine, so the executor
    /// computes it on each arrival only for policies that return `true`.
    fn needs_backlog(&self) -> bool {
        false
    }

    /// Admission check at arrival. `false` rejects the instance before any
    /// of its tasks is queued.
    fn admit(&self, query: &PolicyQuery) -> bool {
        let _ = query;
        true
    }

    /// Dispatch check at task start. `false` abandons the whole instance
    /// (its running tasks finish — execution is non-preemptive — but
    /// nothing new of it starts).
    fn keep_task(&self, query: &PolicyQuery) -> bool {
        let _ = query;
        true
    }

    /// Whether an instance is abandoned when its deadline lapses before
    /// completion.
    fn reap_on_deadline(&self) -> bool {
        false
    }
}

/// The papers' threshold rule: keep while `P(meet deadline) ≥ θ`, drop
/// strictly below. At `θ = 0` nothing is ever dropped; at `θ = 1` only
/// certain-to-meet work survives.
#[inline]
pub fn meets_threshold(probability: f64, theta: f64) -> bool {
    probability >= theta
}

/// The baseline: never refuse, never abandon.
#[derive(Debug, Clone, Copy, Default)]
pub struct NeverDrop;

impl DropPolicy for NeverDrop {
    fn name(&self) -> String {
        "never".into()
    }
}

/// Reactive reaping: abandon an instance the moment its deadline lapses.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeadlineReaper;

impl DropPolicy for DeadlineReaper {
    fn name(&self) -> String {
        "reap".into()
    }

    fn reap_on_deadline(&self) -> bool {
        true
    }
}

/// Probabilistic task pruning: at dispatch, drop the instance when the
/// probability of finishing by the deadline — `P(remaining ≤ deadline −
/// now)` under the remaining-completion distribution — falls below `θ`.
/// Lapsed deadlines are reaped too (a lapsed instance has `P = 0 < θ` for
/// any positive `θ`; reaping just reclaims its queue slots sooner).
#[derive(Debug, Clone, Copy)]
pub struct ProbPrune {
    /// The pruning threshold `θ ∈ [0, 1]`.
    pub theta: f64,
}

impl ProbPrune {
    /// The dispatch-time probability this policy thresholds.
    pub fn completion_probability(query: &PolicyQuery) -> f64 {
        match query.remaining {
            Some(rem) => rem.cdf_at(query.deadline - query.now),
            None => 1.0,
        }
    }
}

impl DropPolicy for ProbPrune {
    fn name(&self) -> String {
        format!("prune@{}", self.theta)
    }

    fn needs_distributions(&self) -> bool {
        true
    }

    fn keep_task(&self, query: &PolicyQuery) -> bool {
        meets_threshold(Self::completion_probability(query), self.theta)
    }

    fn reap_on_deadline(&self) -> bool {
        self.theta > 0.0
    }
}

/// Autonomous admission dropping: at arrival, reject the instance when
/// `P(total ≤ deadline − arrival − backlog)` falls below `θ` — the total
/// completion-time distribution shifted by the estimated queueing delay
/// already in the system.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionGate {
    /// The admission threshold `θ ∈ [0, 1]`.
    pub theta: f64,
}

impl AdmissionGate {
    /// The admission-time probability this policy thresholds.
    pub fn admission_probability(query: &PolicyQuery) -> f64 {
        match query.total {
            Some(total) => total.cdf_at(query.deadline - query.arrival - query.backlog),
            None => 1.0,
        }
    }
}

impl DropPolicy for AdmissionGate {
    fn name(&self) -> String {
        format!("gate@{}", self.theta)
    }

    fn needs_distributions(&self) -> bool {
        true
    }

    fn needs_backlog(&self) -> bool {
        true
    }

    fn admit(&self, query: &PolicyQuery) -> bool {
        meets_threshold(Self::admission_probability(query), self.theta)
    }

    fn reap_on_deadline(&self) -> bool {
        self.theta > 0.0
    }
}

/// Parses a policy spec: `never`, `reap`, `prune@θ`, or `gate@θ` with
/// `θ ∈ [0, 1]`. Returns `None` on unknown names or out-of-range
/// thresholds.
pub fn policy_by_spec(spec: &str) -> Option<Box<dyn DropPolicy>> {
    match spec {
        "never" => return Some(Box::new(NeverDrop)),
        "reap" => return Some(Box::new(DeadlineReaper)),
        _ => {}
    }
    let (kind, theta) = spec.split_once('@')?;
    let theta: f64 = theta.parse().ok()?;
    if !(0.0..=1.0).contains(&theta) {
        return None;
    }
    match kind {
        "prune" => Some(Box::new(ProbPrune { theta })),
        "gate" => Some(Box::new(AdmissionGate { theta })),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query(deadline: f64, rv: &DiscreteRv) -> PolicyQuery<'_> {
        PolicyQuery {
            now: 0.0,
            arrival: 0.0,
            deadline,
            backlog: 0.0,
            total: Some(rv),
            remaining: Some(rv),
        }
    }

    #[test]
    fn threshold_boundary_is_keep_at_equality() {
        assert!(meets_threshold(0.5, 0.5));
        assert!(!meets_threshold(0.49999999, 0.5));
        assert!(meets_threshold(1.0, 1.0));
        assert!(meets_threshold(0.0, 0.0));
    }

    #[test]
    fn prune_drops_exactly_below_threshold() {
        // A point distribution at 10: P(≤ slack) jumps 0 → 1 at slack = 10.
        let rem = DiscreteRv::point(10.0);
        let policy = ProbPrune { theta: 0.5 };
        assert!(policy.keep_task(&query(10.0, &rem)), "P = 1 at the jump");
        assert!(!policy.keep_task(&query(9.9, &rem)), "P = 0 below it");
        // θ = 0 never drops, even with zero slack.
        assert!(ProbPrune { theta: 0.0 }.keep_task(&query(-1.0, &rem)));
        // Missing distribution ⇒ keep.
        let blind = PolicyQuery {
            remaining: None,
            ..query(0.0, &rem)
        };
        assert!(policy.keep_task(&blind));
    }

    #[test]
    fn gate_rejects_exactly_below_threshold() {
        let total = DiscreteRv::point(10.0);
        let policy = AdmissionGate { theta: 0.5 };
        let mut q = query(10.0, &total);
        assert!(policy.admit(&q), "no backlog, P = 1");
        q.backlog = 0.5; // effective slack 9.5 < 10 ⇒ P = 0
        assert!(!policy.admit(&q));
        q.deadline = 10.5; // slack back to 10 ⇒ P = 1
        assert!(policy.admit(&q));
    }

    #[test]
    fn specs_parse_and_name_roundtrip() {
        for spec in ["never", "reap", "prune@0.25", "gate@0.75"] {
            let p = policy_by_spec(spec).expect(spec);
            assert_eq!(p.name(), spec);
        }
        assert!(policy_by_spec("prune@1.5").is_none());
        assert!(policy_by_spec("prune@x").is_none());
        assert!(policy_by_spec("chop@0.5").is_none());
        assert!(policy_by_spec("prune").is_none());
        assert!(policy_by_spec("never").unwrap().keep_task(&PolicyQuery {
            now: 1e9,
            arrival: 0.0,
            deadline: 0.0,
            backlog: 0.0,
            total: None,
            remaining: None,
        }));
        assert!(!policy_by_spec("never").unwrap().reap_on_deadline());
        assert!(policy_by_spec("reap").unwrap().reap_on_deadline());
        assert!(policy_by_spec("prune@0.5").unwrap().needs_distributions());
        assert!(!policy_by_spec("reap").unwrap().needs_distributions());
        // Only the admission gate reads the backlog.
        for spec in ["never", "reap", "prune@0.5"] {
            assert!(!policy_by_spec(spec).unwrap().needs_backlog(), "{spec}");
        }
        assert!(policy_by_spec("gate@0.5").unwrap().needs_backlog());
    }
}
