//! Fault-injection integration tests: bit-identity of the fault-free
//! model against the plain executor, recovery-policy behavior, repair
//! semantics, and the zero-distribution-work regression pin.

use proptest::prelude::*;
use robusched_dynamic::{
    fault_by_spec, policy_by_spec, recovery_by_spec, Abandon, Arrival, DynamicSim, NeverDrop,
    NoFaults, PoissonStream, RecoveryPolicy, ReplayStream, Retry, SimConfig, SimError, SimResult,
};
use robusched_platform::{CostMatrix, Platform, Scenario, UncertaintyModel};
use std::sync::Arc;

fn pool(seeds: &[u64], n: usize, m: usize) -> Vec<Arc<Scenario>> {
    seeds
        .iter()
        .map(|&s| Arc::new(Scenario::paper_random(n, m, 1.2, s)))
        .collect()
}

fn assert_bit_identical(a: &SimResult, b: &SimResult) {
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.arrival.to_bits(), y.arrival.to_bits());
        assert_eq!(x.deadline.to_bits(), y.deadline.to_bits());
        assert_eq!(x.finish.map(f64::to_bits), y.finish.map(f64::to_bits));
        assert_eq!(x.makespan.map(f64::to_bits), y.makespan.map(f64::to_bits));
        assert_eq!(x.admitted, y.admitted);
        assert_eq!(x.dropped, y.dropped);
        assert_eq!(x.tasks_completed, y.tasks_completed);
        assert_eq!(x.tasks_met, y.tasks_met);
        assert_eq!(x.executed_time.to_bits(), y.executed_time.to_bits());
        assert_eq!(x.lost_time.to_bits(), y.lost_time.to_bits());
        assert_eq!(x.retries, y.retries);
    }
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.dist_builds, b.dist_builds);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole pin: injecting `NoFaults` (any recovery policy) is
    /// bit-identical to the plain executor — outcomes, metrics, and
    /// distribution-build counts — across random contended streams and
    /// every drop-policy family.
    #[test]
    fn no_faults_is_bit_identical_to_plain_executor(
        seed in 0u64..200,
        rate in 1u32..40,
        policy_idx in 0usize..4,
        recovery_idx in 0usize..3,
    ) {
        let spec = ["never", "reap", "prune@0.5", "gate@0.5"][policy_idx];
        let recovery_spec = ["abandon", "retry@3", "resched"][recovery_idx];
        let policy = policy_by_spec(spec).unwrap();
        let recovery = recovery_by_spec(recovery_spec).unwrap();
        let workloads = pool(&[seed, seed + 1000], 10, 3);
        let config = SimConfig { seed, ..SimConfig::default() };

        let mut stream = PoissonStream::new(workloads.clone(), rate as f64 / 20.0, 30, seed);
        let plain = DynamicSim::new(policy.as_ref(), config.clone())
            .run(&mut stream)
            .unwrap();

        let mut stream = PoissonStream::new(workloads, rate as f64 / 20.0, 30, seed);
        let faulted = DynamicSim::with_faults(
            policy.as_ref(),
            config,
            NoFaults::none(),
            recovery.as_ref(),
        )
        .run(&mut stream)
        .unwrap();

        assert_bit_identical(&plain, &faulted);
        prop_assert_eq!(faulted.metrics.machine_failures, 0);
        prop_assert_eq!(faulted.metrics.down_time.to_bits(), 0.0f64.to_bits());
    }
}

/// One isolated instance under aggressive machine faults: with `retry`,
/// repair restores capacity and the instance still completes (later than
/// fault-free); with `abandon`, the first kill ends it.
#[test]
fn repair_restores_capacity_and_retry_completes() {
    let s = Arc::new(Scenario::paper_random(12, 2, 1.1, 3));
    let mk = |fault_spec: &str, recovery_spec: &str| {
        let fault = fault_by_spec(fault_spec).unwrap();
        let recovery = recovery_by_spec(recovery_spec).unwrap();
        let mut stream = ReplayStream::new(vec![Arrival {
            time: 0.0,
            scenario: s.clone(),
        }]);
        DynamicSim::with_faults(
            &NeverDrop,
            SimConfig {
                deadline_factor: 100.0,
                ..SimConfig::default()
            },
            fault.as_ref(),
            recovery.as_ref(),
        )
        .run(&mut stream)
        .unwrap()
    };
    let clean = mk("none", "retry@12");
    let clean_finish = clean.outcomes[0].finish.expect("fault-free completes");

    // MTBF well below the isolated makespan: failures are certain, but a
    // single attempt still has a fair chance of surviving its task.
    let spec = format!("exp@{}:{}", clean_finish / 3.0, clean_finish / 50.0);
    let faulted = mk(&spec, "retry@12");
    assert!(
        faulted.metrics.machine_failures > 0,
        "MTBF ≪ makespan must inject failures"
    );
    assert!(faulted.metrics.killed_tasks > 0);
    assert!(faulted.metrics.retries > 0);
    assert!(faulted.metrics.down_time > 0.0);
    assert!(faulted.metrics.lost_time > 0.0);
    let finish = faulted.outcomes[0]
        .finish
        .expect("repair must restore capacity: retry completes the instance");
    assert!(
        finish > clean_finish,
        "faults only delay: {finish} vs {clean_finish}"
    );
    assert_eq!(faulted.metrics.completed, 1);

    // Abandon gives up on the first kill instead.
    let abandoned = mk(&spec, "abandon");
    assert_eq!(abandoned.metrics.completed, 0);
    assert_eq!(abandoned.metrics.dropped, 1);
    assert_eq!(abandoned.metrics.retries, 0);
}

/// Transient faults discard completed attempts; `trans@1` (every attempt
/// fails) terminates under both capped policies instead of spinning.
#[test]
fn certain_transient_faults_terminate_under_caps() {
    let s = Arc::new(Scenario::paper_random(8, 2, 1.1, 9));
    let mk = |fault_spec: &str, recovery_spec: &str| {
        let fault = fault_by_spec(fault_spec).unwrap();
        let recovery = recovery_by_spec(recovery_spec).unwrap();
        let mut stream = ReplayStream::new(vec![Arrival {
            time: 0.0,
            scenario: s.clone(),
        }]);
        DynamicSim::with_faults(
            &NeverDrop,
            SimConfig::default(),
            fault.as_ref(),
            recovery.as_ref(),
        )
        .run(&mut stream)
        .unwrap()
    };
    for recovery in ["retry@3", "resched", "abandon"] {
        let r = mk("trans@1", recovery);
        assert_eq!(r.metrics.completed, 0, "{recovery}: nothing can complete");
        assert_eq!(r.metrics.dropped, 1, "{recovery}");
        assert!(r.metrics.transient_faults > 0, "{recovery}");
        assert!(r.metrics.lost_time > 0.0, "{recovery}");
    }
    // trans@0 behaves exactly like none.
    let zero = mk("trans@0", "retry@3");
    let none = mk("none", "retry@3");
    assert_bit_identical(&zero, &none);
}

/// `resched` sheds load off failed machines: under sustained failures it
/// completes at least as much as `abandon` and actually re-dispatches.
#[test]
fn resched_moves_work_and_beats_abandon() {
    let workloads = pool(&[11, 12, 13], 10, 3);
    let mk = |recovery_spec: &str| {
        let fault = fault_by_spec("exp@120:20").unwrap();
        let recovery = recovery_by_spec(recovery_spec).unwrap();
        let policy = policy_by_spec("reap").unwrap();
        let mut stream = PoissonStream::new(workloads.clone(), 0.05, 40, 17);
        DynamicSim::with_faults(
            policy.as_ref(),
            SimConfig {
                deadline_factor: 3.0,
                ..SimConfig::default()
            },
            fault.as_ref(),
            recovery.as_ref(),
        )
        .run(&mut stream)
        .unwrap()
    };
    let abandon = mk("abandon");
    let resched = mk("resched");
    assert!(
        abandon.metrics.machine_failures > 0,
        "the fault level must bite for the test to mean anything"
    );
    assert!(resched.metrics.retries > 0, "resched must re-dispatch");
    assert!(
        resched.metrics.completed >= abandon.metrics.completed,
        "rescheduling cannot complete less than giving up: {} vs {}",
        resched.metrics.completed,
        abandon.metrics.completed
    );
    // Determinism under faults: a repeat run is bit-identical.
    assert_bit_identical(&resched, &mk("resched"));
}

/// Regression pin for the satellite audit: policies that don't need
/// distributions (`never`, `reap`) must do zero `RemainingDists` work —
/// deadline-lapse handling never queries distributions.
#[test]
fn never_and_reap_do_zero_distribution_work() {
    let workloads = pool(&[21, 22], 10, 2);
    for spec in ["never", "reap"] {
        let policy = policy_by_spec(spec).unwrap();
        let mut stream = PoissonStream::new(workloads.clone(), 0.3, 30, 5);
        let r = DynamicSim::new(policy.as_ref(), SimConfig::default())
            .run(&mut stream)
            .unwrap();
        assert_eq!(r.dist_builds, 0, "{spec} must not build distributions");
    }
    // The probabilistic policies build exactly one table per distinct
    // scenario, however many instances arrive.
    let policy = policy_by_spec("prune@0.5").unwrap();
    let mut stream = PoissonStream::new(workloads.clone(), 0.3, 30, 5);
    let r = DynamicSim::new(policy.as_ref(), SimConfig::default())
        .run(&mut stream)
        .unwrap();
    assert_eq!(r.dist_builds, workloads.len());
}

/// The schedule override pins every scenario to a fixed assignment (the
/// ranking-under-faults harness): overriding with the heuristic's own
/// schedule is a no-op, bit for bit.
#[test]
fn schedule_override_matches_heuristic_schedule() {
    let s = Arc::new(Scenario::paper_random(10, 3, 1.2, 31));
    let sched = robusched_sched::heft(&s);
    let run = |config: SimConfig| {
        let mut stream = PoissonStream::new(vec![s.clone()], 0.1, 10, 7);
        DynamicSim::with_faults(
            &NeverDrop,
            config,
            fault_by_spec("exp@200:20").unwrap().as_ref(),
            &Abandon,
        )
        .run(&mut stream)
        .unwrap()
    };
    let by_name = run(SimConfig::default());
    let by_override = run(SimConfig {
        schedule: Some(sched),
        ..SimConfig::default()
    });
    assert_bit_identical(&by_name, &by_override);
}

/// A transient fault's draw key holds a task index in 14 bits, so under
/// transient faults an arrival of more than 2^14 tasks is an error, while
/// the same arrival runs under machine failures alone.
#[test]
fn transient_faults_reject_scenarios_past_the_draw_key_range() {
    let chain = |n: usize| {
        Arc::new(Scenario::new(
            robusched_dag::chain(n),
            Platform::homogeneous(2, 1.0, 0.0),
            CostMatrix::from_rows(n, 2, vec![1.0; 2 * n]),
            UncertaintyModel::paper(1.1),
        ))
    };
    let run = |scenario: &Arc<Scenario>, fault: &str| {
        let mut stream = ReplayStream::new(vec![Arrival {
            time: 0.0,
            scenario: scenario.clone(),
        }]);
        let fault = fault_by_spec(fault).unwrap();
        DynamicSim::with_faults(&NeverDrop, SimConfig::default(), fault.as_ref(), &Abandon)
            .run(&mut stream)
    };
    let largest = (1 << 14) + 1;
    match run(&chain(largest), "exp@1e9:1+trans@0.01") {
        Err(SimError::TooManyTasks { tasks, max }) => {
            assert_eq!((tasks, max), (largest, 1 << 14));
        }
        other => panic!("expected too many tasks, got {other:?}"),
    }
    assert!(run(&chain(largest), "exp@1e9:1").is_ok());
    assert!(run(&chain(1 << 14), "trans@0.01").is_ok());
}

/// A transient fault's draw key holds the failure count in 6 bits, so
/// under transient faults a recovery policy that keeps a task past its
/// 64th failure is an error: its 64th retry would draw the fate of
/// another attempt. The same policy runs without transient faults.
#[test]
fn transient_faults_reject_recovery_past_the_draw_key_range() {
    let run = |fault: &str, recovery: &dyn RecoveryPolicy| {
        let mut stream = PoissonStream::new(pool(&[3, 4], 8, 3), 0.05, 6, 11);
        let fault = fault_by_spec(fault).unwrap();
        DynamicSim::with_faults(&NeverDrop, SimConfig::default(), fault.as_ref(), recovery)
            .run(&mut stream)
    };
    let persistent = Retry { max_attempts: 64 };
    match run("trans@0.999", &persistent) {
        Err(SimError::TooManyAttempts { max }) => assert_eq!(max, 64),
        other => panic!("expected too many attempts, got {other:?}"),
    }
    for spec in ["retry@63", "resched"] {
        let recovery = recovery_by_spec(spec).unwrap();
        assert!(run("trans@0.999", recovery.as_ref()).is_ok(), "{spec}");
    }
    assert!(run("exp@300:30", &persistent).is_ok());
}
