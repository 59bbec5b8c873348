//! Fault models and recovery policies: machines die, tasks fail, work
//! comes back.
//!
//! The paper's robustness metrics only ever face *stochastic duration*
//! uncertainty; real heterogeneous platforms also lose machines and tasks
//! outright (Benoit et al., arXiv 0706.4009 treat reliability as a
//! first-class scheduling axis). This module supplies the executor's
//! fault-injection layer:
//!
//! * [`FaultModel`] — a seed-deterministic per-machine failure/repair
//!   process (exponential or Weibull MTBF/MTTR) plus an optional
//!   per-task-attempt transient fault probability. A machine failure
//!   kills its running task and freezes its queue until repair; a
//!   transient fault lets the task run to its full duration, then
//!   discards the result.
//! * [`RecoveryPolicy`] — what happens to a killed task: [`Abandon`] the
//!   instance, [`Retry`] on the statically assigned machine with
//!   exponential backoff and capped attempts, or [`Resched`] — re-choose
//!   the machine over the *surviving* pool by current backlog (the
//!   load-aware dispatch the static-assignment executor otherwise
//!   lacks).
//!
//! Both registries mirror [`crate::policy`]: spec strings
//! (`exp@30:3`, `weibull@1.5:30:3+trans@0.02`, `retry@3`, …) parse via
//! [`fault_by_spec`] / [`recovery_by_spec`] and round-trip through
//! `name()` so CSV columns identify cells exactly.
//!
//! Determinism: fault processes draw from per-machine RNGs derived from
//! the sim seed and never touch the duration-sampling streams, so the
//! fault-free model ([`NoFaults`]) leaves every draw — and therefore
//! every output bit — identical to the pre-fault executor.

use rand::rngs::StdRng;
use rand::RngCore;
use robusched_numeric::ln_gamma;
use robusched_randvar::uniform01_word;

/// A per-machine failure/repair process plus per-task transient faults.
/// Object-safe; the executor holds a `&dyn FaultModel`.
pub trait FaultModel: Send + Sync {
    /// Registry/CSV name (e.g. `"exp@30:3"`).
    fn name(&self) -> String;

    /// Time from a machine coming up to its next failure.
    /// `f64::INFINITY` means the machine never fails.
    fn sample_uptime(&self, rng: &mut StdRng) -> f64;

    /// Repair duration after a failure.
    fn sample_downtime(&self, rng: &mut StdRng) -> f64;

    /// Probability that any single task *attempt* fails transiently at
    /// completion (the machine survives; only the work is lost).
    fn transient_probability(&self) -> f64 {
        0.0
    }

    /// `true` when the model can never produce a fault — the executor
    /// then skips fault bookkeeping entirely and stays bit-exact with
    /// the fault-free event loop.
    fn is_fault_free(&self) -> bool {
        false
    }
}

/// The fault-free model: machines never fail, tasks never fault.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl NoFaults {
    /// The canonical fault-free model: a shared static, so
    /// [`DynamicSim::new`](crate::DynamicSim::new) can default to a
    /// reference.
    pub fn none() -> &'static NoFaults {
        static NONE: NoFaults = NoFaults;
        &NONE
    }
}

impl FaultModel for NoFaults {
    fn name(&self) -> String {
        "none".into()
    }

    fn sample_uptime(&self, _rng: &mut StdRng) -> f64 {
        f64::INFINITY
    }

    fn sample_downtime(&self, _rng: &mut StdRng) -> f64 {
        0.0
    }

    fn is_fault_free(&self) -> bool {
        true
    }
}

/// Memoryless failures: exponential uptime with mean `mtbf`, exponential
/// repair with mean `mttr`, optional transient fault probability.
#[derive(Debug, Clone, Copy)]
pub struct ExpFaults {
    /// Mean time between failures.
    pub mtbf: f64,
    /// Mean time to repair.
    pub mttr: f64,
    /// Per-task-attempt transient fault probability.
    pub transient: f64,
}

/// Exponential draw with mean `mean`: `−mean·ln(1−u)`, `u ∈ [0, 1)`.
#[inline]
fn exp_draw(mean: f64, rng: &mut StdRng) -> f64 {
    -mean * (1.0 - uniform01_word(rng.next_u64())).ln()
}

impl FaultModel for ExpFaults {
    fn name(&self) -> String {
        with_transient(format!("exp@{}:{}", self.mtbf, self.mttr), self.transient)
    }

    fn sample_uptime(&self, rng: &mut StdRng) -> f64 {
        exp_draw(self.mtbf, rng)
    }

    fn sample_downtime(&self, rng: &mut StdRng) -> f64 {
        exp_draw(self.mttr, rng)
    }

    fn transient_probability(&self) -> f64 {
        self.transient
    }
}

/// Weibull failures with shape `k`: bursty (`k < 1`) or wear-out
/// (`k > 1`) regimes the exponential model cannot express. Uptime and
/// repair draws use the inverse CDF `scale·(−ln(1−u))^{1/k}` with the
/// scale calibrated so the *means* are exactly `mtbf`/`mttr`
/// (`scale = mean / Γ(1 + 1/k)`).
#[derive(Debug, Clone, Copy)]
pub struct WeibullFaults {
    /// Weibull shape `k > 0` (shared by uptime and repair).
    pub shape: f64,
    /// Mean time between failures.
    pub mtbf: f64,
    /// Mean time to repair.
    pub mttr: f64,
    /// Per-task-attempt transient fault probability.
    pub transient: f64,
}

impl WeibullFaults {
    /// `Γ(1 + 1/k)` — the mean of a unit-scale Weibull with shape `k`.
    fn mean_factor(&self) -> f64 {
        ln_gamma(1.0 + 1.0 / self.shape).exp()
    }

    fn draw(&self, mean: f64, rng: &mut StdRng) -> f64 {
        let scale = mean / self.mean_factor();
        scale * (-(1.0 - uniform01_word(rng.next_u64())).ln()).powf(1.0 / self.shape)
    }
}

impl FaultModel for WeibullFaults {
    fn name(&self) -> String {
        with_transient(
            format!("weibull@{}:{}:{}", self.shape, self.mtbf, self.mttr),
            self.transient,
        )
    }

    fn sample_uptime(&self, rng: &mut StdRng) -> f64 {
        self.draw(self.mtbf, rng)
    }

    fn sample_downtime(&self, rng: &mut StdRng) -> f64 {
        self.draw(self.mttr, rng)
    }

    fn transient_probability(&self) -> f64 {
        self.transient
    }
}

/// Transient faults only: machines never go down, but each task attempt
/// fails with probability `p` (the result is discarded at completion).
#[derive(Debug, Clone, Copy)]
pub struct TransientFaults {
    /// Per-task-attempt fault probability `p ∈ [0, 1]`.
    pub p: f64,
}

impl FaultModel for TransientFaults {
    fn name(&self) -> String {
        format!("trans@{}", self.p)
    }

    fn sample_uptime(&self, _rng: &mut StdRng) -> f64 {
        f64::INFINITY
    }

    fn sample_downtime(&self, _rng: &mut StdRng) -> f64 {
        0.0
    }

    fn transient_probability(&self) -> f64 {
        self.p
    }
}

fn with_transient(base: String, p: f64) -> String {
    if p > 0.0 {
        format!("{base}+trans@{p}")
    } else {
        base
    }
}

/// Parses a fault spec:
///
/// * `none` — no faults;
/// * `exp@MTBF:MTTR` — exponential failures/repairs;
/// * `weibull@SHAPE:MTBF:MTTR` — Weibull failures/repairs;
/// * `trans@P` — transient task faults only;
/// * `exp@…+trans@P` / `weibull@…+trans@P` — machine faults plus
///   transient task faults.
///
/// Returns `None` on unknown names or out-of-range parameters (MTBF,
/// MTTR and shape must be finite-positive; `P ∈ [0, 1]`).
pub fn fault_by_spec(spec: &str) -> Option<Box<dyn FaultModel>> {
    if spec == "none" {
        return Some(Box::new(NoFaults));
    }
    let (base, transient) = match spec.split_once('+') {
        Some((base, rest)) => {
            let p = rest.strip_prefix("trans@")?.parse::<f64>().ok()?;
            if !(0.0..=1.0).contains(&p) {
                return None;
            }
            (base, p)
        }
        None => (spec, 0.0),
    };
    let (kind, params) = base.split_once('@')?;
    let positive = |s: &str| -> Option<f64> {
        let v: f64 = s.parse().ok()?;
        (v.is_finite() && v > 0.0).then_some(v)
    };
    match kind {
        "exp" => {
            let (mtbf, mttr) = params.split_once(':')?;
            Some(Box::new(ExpFaults {
                mtbf: positive(mtbf)?,
                mttr: positive(mttr)?,
                transient,
            }))
        }
        "weibull" => {
            let mut it = params.split(':');
            let shape = positive(it.next()?)?;
            let mtbf = positive(it.next()?)?;
            let mttr = positive(it.next()?)?;
            if it.next().is_some() {
                return None;
            }
            Some(Box::new(WeibullFaults {
                shape,
                mtbf,
                mttr,
                transient,
            }))
        }
        "trans" if transient == 0.0 => {
            let p: f64 = params.parse().ok()?;
            (0.0..=1.0)
                .contains(&p)
                .then(|| Box::new(TransientFaults { p }) as Box<dyn FaultModel>)
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// What the executor does with a task whose attempt just failed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecoveryAction {
    /// Give up on the whole instance (its running tasks on other machines
    /// still finish — execution is non-preemptive).
    Abandon,
    /// Re-queue the task on its statically assigned machine after
    /// `delay`.
    Retry {
        /// Backoff before the re-dispatch becomes ready.
        delay: f64,
    },
    /// Re-queue the task after `delay`, re-choosing the machine over the
    /// surviving pool by current backlog at dispatch time.
    Resched {
        /// Backoff before the re-dispatch becomes ready.
        delay: f64,
    },
}

/// A pluggable recovery policy, consulted once per failed task attempt.
/// Object-safe; the executor holds a `&dyn RecoveryPolicy`.
pub trait RecoveryPolicy: Send + Sync {
    /// Registry/CSV name (e.g. `"retry@3"`).
    fn name(&self) -> String;

    /// The action after a task's `attempt`-th failure (1-based count of
    /// failed attempts of that task). Under transient faults each attempt
    /// draws its fate from a key that tells failure counts apart only
    /// below 64, so a policy must abandon a task by its 64th failure:
    /// [`DynamicSim::run`](crate::DynamicSim::run) refuses a policy whose
    /// `on_failure(64)` is not [`RecoveryAction::Abandon`].
    fn on_failure(&self, attempt: usize) -> RecoveryAction;
}

/// Base backoff delay before the first re-dispatch.
pub const BACKOFF_BASE: f64 = 1.0;

/// Attempt cap of the `resched` policy — re-dispatching is unbounded in
/// spirit but must terminate even under `trans@1` (a task that faults on
/// every attempt).
pub const RESCHED_MAX_ATTEMPTS: usize = 16;

/// The deterministic exponential backoff schedule: `base·2^(attempt−1)`
/// for the 1-based failure count (1, 2, 4, … × base). Pure — pinned by
/// unit tests independent of the simulator.
#[inline]
pub fn backoff_delay(base: f64, attempt: usize) -> f64 {
    base * (1u64 << (attempt - 1).min(62)) as f64
}

/// The baseline: any failure abandons the instance.
#[derive(Debug, Clone, Copy, Default)]
pub struct Abandon;

impl RecoveryPolicy for Abandon {
    fn name(&self) -> String {
        "abandon".into()
    }

    fn on_failure(&self, _attempt: usize) -> RecoveryAction {
        RecoveryAction::Abandon
    }
}

/// Retry on the statically assigned machine with exponential backoff, up
/// to `max_attempts` failures per task; then abandon.
#[derive(Debug, Clone, Copy)]
pub struct Retry {
    /// Failed attempts tolerated per task before abandoning.
    pub max_attempts: usize,
}

impl RecoveryPolicy for Retry {
    fn name(&self) -> String {
        format!("retry@{}", self.max_attempts)
    }

    fn on_failure(&self, attempt: usize) -> RecoveryAction {
        if attempt > self.max_attempts {
            RecoveryAction::Abandon
        } else {
            RecoveryAction::Retry {
                delay: backoff_delay(BACKOFF_BASE, attempt),
            }
        }
    }
}

/// Reschedule: re-dispatch with the same backoff schedule but let the
/// executor re-choose the machine over the *surviving* pool by current
/// backlog — failed machines shed their load instead of queueing it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Resched;

impl RecoveryPolicy for Resched {
    fn name(&self) -> String {
        "resched".into()
    }

    fn on_failure(&self, attempt: usize) -> RecoveryAction {
        if attempt > RESCHED_MAX_ATTEMPTS {
            RecoveryAction::Abandon
        } else {
            RecoveryAction::Resched {
                delay: backoff_delay(BACKOFF_BASE, attempt),
            }
        }
    }
}

/// Parses a recovery spec: `abandon`, `retry@K` (`K ∈ 1..=63`, the most
/// retries [`RecoveryPolicy::on_failure`] allows), or `resched`. Returns
/// `None` on unknown names or out-of-range caps.
pub fn recovery_by_spec(spec: &str) -> Option<Box<dyn RecoveryPolicy>> {
    match spec {
        "abandon" => return Some(Box::new(Abandon)),
        "resched" => return Some(Box::new(Resched)),
        _ => {}
    }
    let k = spec.strip_prefix("retry@")?.parse::<usize>().ok()?;
    (1..=63)
        .contains(&k)
        .then(|| Box::new(Retry { max_attempts: k }) as Box<dyn RecoveryPolicy>)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn backoff_schedule_is_deterministic_and_doubling() {
        assert_eq!(backoff_delay(1.0, 1), 1.0);
        assert_eq!(backoff_delay(1.0, 2), 2.0);
        assert_eq!(backoff_delay(1.0, 3), 4.0);
        assert_eq!(backoff_delay(0.5, 4), 4.0);
        // Saturates instead of overflowing for absurd attempt counts.
        assert!(backoff_delay(1.0, 1000).is_finite());
        // The policies expose exactly this schedule.
        for attempt in 1..=3 {
            let want = RecoveryAction::Retry {
                delay: backoff_delay(BACKOFF_BASE, attempt),
            };
            assert_eq!(Retry { max_attempts: 3 }.on_failure(attempt), want);
        }
        assert_eq!(
            Retry { max_attempts: 3 }.on_failure(4),
            RecoveryAction::Abandon
        );
        assert_eq!(
            Resched.on_failure(2),
            RecoveryAction::Resched {
                delay: backoff_delay(BACKOFF_BASE, 2)
            }
        );
        assert_eq!(
            Resched.on_failure(RESCHED_MAX_ATTEMPTS + 1),
            RecoveryAction::Abandon
        );
        assert_eq!(Abandon.on_failure(1), RecoveryAction::Abandon);
    }

    #[test]
    fn fault_specs_parse_and_name_roundtrip() {
        for spec in [
            "none",
            "exp@30:3",
            "exp@30:3+trans@0.02",
            "weibull@1.5:30:3",
            "weibull@0.7:100:5+trans@0.1",
            "trans@0.25",
        ] {
            let f = fault_by_spec(spec).expect(spec);
            assert_eq!(f.name(), spec);
        }
        for bad in [
            "exp@30",
            "exp@-1:3",
            "exp@30:0",
            "weibull@1.5:30",
            "weibull@1.5:30:3:9",
            "trans@1.5",
            "trans@0.1+trans@0.1",
            "meteor@1",
            "exp@30:3+later@0.1",
        ] {
            assert!(fault_by_spec(bad).is_none(), "{bad} should not parse");
        }
        assert!(fault_by_spec("none").unwrap().is_fault_free());
        assert!(!fault_by_spec("exp@30:3").unwrap().is_fault_free());
    }

    #[test]
    fn recovery_specs_parse_and_name_roundtrip() {
        for spec in ["abandon", "retry@3", "retry@1", "retry@63", "resched"] {
            let r = recovery_by_spec(spec).expect(spec);
            assert_eq!(r.name(), spec);
        }
        // `retry@64` would draw a task's fate at its 64th failure with
        // the transient key of a neighbouring task's first attempt.
        for bad in [
            "retry@0", "retry@64", "retry@65", "retry@x", "retry", "panic",
        ] {
            assert!(recovery_by_spec(bad).is_none(), "{bad} should not parse");
        }
    }

    #[test]
    fn draws_are_seed_deterministic_with_calibrated_means() {
        let exp = ExpFaults {
            mtbf: 30.0,
            mttr: 3.0,
            transient: 0.0,
        };
        let wei = WeibullFaults {
            shape: 1.5,
            mtbf: 30.0,
            mttr: 3.0,
            transient: 0.0,
        };
        for model in [&exp as &dyn FaultModel, &wei] {
            let draw_all = |seed: u64| -> Vec<f64> {
                let mut rng = StdRng::seed_from_u64(seed);
                (0..4000).map(|_| model.sample_uptime(&mut rng)).collect()
            };
            let a = draw_all(7);
            assert_eq!(a, draw_all(7), "same seed, same draws: {}", model.name());
            assert!(a.iter().all(|&x| x > 0.0 && x.is_finite()));
            let mean = a.iter().sum::<f64>() / a.len() as f64;
            assert!(
                (mean - 30.0).abs() < 2.0,
                "{}: empirical MTBF {mean} far from 30",
                model.name()
            );
        }
        // Weibull shape 1 degenerates to the exponential formula.
        let wei1 = WeibullFaults {
            shape: 1.0,
            mtbf: 30.0,
            mttr: 3.0,
            transient: 0.0,
        };
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        for _ in 0..32 {
            let w = wei1.sample_uptime(&mut r1);
            let e = exp.sample_uptime(&mut r2);
            assert!((w - e).abs() < 1e-9 * e.max(1.0), "{w} vs {e}");
        }
        // NoFaults never fires.
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(NoFaults.sample_uptime(&mut rng), f64::INFINITY);
        assert_eq!(NoFaults.transient_probability(), 0.0);
    }
}
