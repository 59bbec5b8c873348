//! Integration tests of the event-driven executor against the static
//! eager executor, plus determinism and policy-behavior pins.

use proptest::prelude::*;
use robusched_dynamic::{
    policy_by_spec, Arrival, ArrivalStream, DynamicSim, NeverDrop, PoissonStream, ReplayStream,
    SimConfig, SimError,
};
use robusched_platform::{Scenario, UncertaintyModel};
use robusched_sched::{heft, EagerPlan};
use std::sync::Arc;

/// The isolated deterministic makespan under HEFT — the reference the
/// executor must reproduce bit for bit.
fn eager_makespan(s: &Scenario) -> f64 {
    let sched = heft(s);
    let plan = EagerPlan::new(&s.graph.dag, &sched).unwrap();
    plan.execute(
        &s.graph.dag,
        |v| s.det_task_cost(v, sched.machine_of(v)),
        |e, u, v| s.det_comm_cost(e, sched.machine_of(u), sched.machine_of(v)),
    )
    .makespan
}

/// Arrivals spaced so far apart that instances never overlap.
fn spaced_stream(scenarios: &[Arc<Scenario>], gap: f64) -> ReplayStream {
    ReplayStream::new(
        scenarios
            .iter()
            .enumerate()
            .map(|(i, s)| Arrival {
                time: i as f64 * gap,
                scenario: s.clone(),
            })
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The core equivalence: never-drop + zero uncertainty + spaced
    /// arrivals reproduces each instance's `EagerPlan::execute` makespan
    /// *bitwise* (the executor's relative-time recurrence performs the
    /// same floating-point operations).
    #[test]
    fn spaced_zero_uncertainty_reproduces_eager_makespans(
        n in 5usize..30,
        m in 2usize..6,
        seed in 0u64..300,
        count in 2usize..6,
    ) {
        let mut s = Scenario::paper_random(n, m, 1.3, seed);
        s.uncertainty = UncertaintyModel::none();
        let reference = eager_makespan(&s);
        let scenarios: Vec<Arc<Scenario>> =
            std::iter::repeat_with(|| Arc::new(s.clone())).take(count).collect();
        // Gap far beyond any makespan: instances run in isolation.
        let mut stream = spaced_stream(&scenarios, 1e9);
        let sim = DynamicSim::new(&NeverDrop, SimConfig::default());
        let result = sim.run(&mut stream).unwrap();
        prop_assert_eq!(result.outcomes.len(), count);
        for (i, o) in result.outcomes.iter().enumerate() {
            let makespan = o.makespan.expect("never-drop completes everything");
            // Bitwise: relative makespan must be the exact execute() value.
            prop_assert_eq!(
                makespan.to_bits(),
                reference.to_bits(),
                "instance {} makespan {} vs eager {}", i, makespan, reference
            );
            prop_assert_eq!(o.det_makespan.to_bits(), reference.to_bits());
            prop_assert_eq!(o.tasks_completed, n);
        }
        prop_assert_eq!(result.metrics.completed, count);
        prop_assert_eq!(result.metrics.workflows_met, count);
        prop_assert_eq!(result.metrics.dropped, 0);
        prop_assert_eq!(result.metrics.rejected, 0);
    }

    /// Contention only ever delays: overlapping arrivals finish no earlier
    /// than isolated ones, and machine exclusivity holds.
    #[test]
    fn overlapping_arrivals_never_beat_isolation(
        n in 5usize..20,
        seed in 0u64..200,
    ) {
        let s = Arc::new(Scenario::paper_random(n, 3, 1.1, seed));
        let reference = eager_makespan(&s);
        // All three instances arrive at once on the same pool.
        let mut stream = spaced_stream(&vec![s.clone(); 3], 0.0);
        let sim = DynamicSim::new(&NeverDrop, SimConfig::default());
        let result = sim.run(&mut stream).unwrap();
        for o in &result.outcomes {
            let span = o.makespan.unwrap();
            prop_assert!(
                span >= reference - 1e-9,
                "contended span {} < isolated {}", span, reference
            );
        }
    }
}

#[test]
fn repeat_runs_are_bit_identical() {
    let pool: Vec<Arc<Scenario>> = (0..4)
        .map(|i| Arc::new(Scenario::paper_random(10 + i, 4, 1.2, i as u64)))
        .collect();
    let policy = policy_by_spec("prune@0.5").unwrap();
    let run = || {
        let mut stream = PoissonStream::new(pool.clone(), 0.05, 40, 7);
        DynamicSim::new(policy.as_ref(), SimConfig::default())
            .run(&mut stream)
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.arrival.to_bits(), y.arrival.to_bits());
        assert_eq!(x.deadline.to_bits(), y.deadline.to_bits());
        assert_eq!(x.finish.map(f64::to_bits), y.finish.map(f64::to_bits));
        assert_eq!(x.dropped, y.dropped);
        assert_eq!(x.tasks_met, y.tasks_met);
        assert_eq!(x.executed_time.to_bits(), y.executed_time.to_bits());
    }
    assert_eq!(a.metrics, b.metrics);
}

#[test]
fn oversubscription_makes_pruning_bite() {
    // A heavily oversubscribed stream: never-drop completes everything but
    // misses deadlines; pruning abandons doomed work.
    let pool: Vec<Arc<Scenario>> = (0..3)
        .map(|i| Arc::new(Scenario::paper_random(12, 2, 1.1, 100 + i)))
        .collect();
    let mk = |spec: &str| {
        let policy = policy_by_spec(spec).unwrap();
        let mut stream = PoissonStream::new(pool.clone(), 1.0, 60, 11);
        DynamicSim::new(policy.as_ref(), SimConfig::default())
            .run(&mut stream)
            .unwrap()
    };
    let never = mk("never");
    assert_eq!(never.metrics.completed, 60, "never-drop completes all");
    assert_eq!(never.metrics.dropped, 0);
    assert!(
        never.metrics.workflows_met < 60,
        "oversubscription must cause misses for the test to mean anything"
    );
    let prune = mk("prune@0.75");
    assert!(prune.metrics.dropped > 0, "pruning should abandon work");
    assert!(
        prune.metrics.wasted_time <= never.metrics.wasted_time,
        "pruning wastes no more machine time than never-drop: {} vs {}",
        prune.metrics.wasted_time,
        never.metrics.wasted_time
    );
    let gate = mk("gate@0.75");
    assert!(gate.metrics.rejected > 0, "gating should refuse arrivals");
}

#[test]
fn reaper_frees_lapsed_instances() {
    let pool = vec![Arc::new(Scenario::paper_random(12, 2, 1.1, 5))];
    let mk = |spec: &str| {
        let policy = policy_by_spec(spec).unwrap();
        let mut stream = PoissonStream::new(pool.clone(), 1.0, 40, 3);
        DynamicSim::new(policy.as_ref(), SimConfig::default())
            .run(&mut stream)
            .unwrap()
    };
    let never = mk("never");
    let reap = mk("reap");
    assert!(reap.metrics.dropped > 0, "reaper should fire under load");
    // Reaping cannot hurt the on-time count of *other* instances and
    // drains the backlog no later than never-drop.
    assert!(reap.metrics.workflows_met >= never.metrics.workflows_met);
    assert!(reap.metrics.busy_time <= never.metrics.busy_time);
}

#[test]
fn unknown_heuristic_and_machine_mismatch_error() {
    let pool = vec![Arc::new(Scenario::paper_random(8, 3, 1.1, 1))];
    let mut stream = spaced_stream(&pool, 1.0);
    let sim = DynamicSim::new(
        &NeverDrop,
        SimConfig {
            heuristic: "nope".into(),
            ..SimConfig::default()
        },
    );
    assert!(matches!(
        sim.run(&mut stream),
        Err(SimError::UnknownHeuristic(_))
    ));

    let mixed = vec![
        Arc::new(Scenario::paper_random(8, 3, 1.1, 1)),
        Arc::new(Scenario::paper_random(8, 4, 1.1, 2)),
    ];
    let mut stream = spaced_stream(&mixed, 1.0);
    let sim = DynamicSim::new(&NeverDrop, SimConfig::default());
    match sim.run(&mut stream) {
        Err(SimError::MachineMismatch {
            expected: 3,
            got: 4,
        }) => {}
        other => panic!("expected machine mismatch, got {other:?}"),
    }
}

#[test]
fn arrivals_at_times_that_are_not_finite_error() {
    let s = Arc::new(Scenario::paper_random(8, 3, 1.1, 1));
    let sim = DynamicSim::new(&NeverDrop, SimConfig::default());
    for late in [f64::INFINITY, f64::NAN] {
        // The first arrival runs to completion before the second one.
        let arrivals = [0.0, late].map(|time| Arrival {
            time,
            scenario: s.clone(),
        });
        let mut stream = ReplayStream::new(arrivals.to_vec());
        assert_eq!(sim.run(&mut stream).err(), Some(SimError::ArrivalTime));
    }
    // A positive subnormal rate: every interarrival time overflows.
    let mut stream = PoissonStream::new(vec![s], 1e-320, 5, 7);
    assert_eq!(sim.run(&mut stream).err(), Some(SimError::ArrivalTime));
}

#[test]
fn fresh_arcs_share_state_with_interned_scenarios_bit_for_bit() {
    // The executor finds scenario state by `Arc` identity and falls back
    // to the content fingerprint. A stream whose every arrival carries a
    // fresh `Arc` (content-equal to a pool scenario) takes the fallback
    // every time and must reproduce the interned stream exactly.
    let pool: Vec<Arc<Scenario>> = (0..3)
        .map(|i| Arc::new(Scenario::paper_random(12, 2, 1.1, 200 + i)))
        .collect();
    let mut source = PoissonStream::new(pool.clone(), 1.0, 60, 13);
    let interned: Vec<Arrival> = std::iter::from_fn(|| source.next_arrival()).collect();
    let fresh: Vec<Arrival> = interned
        .iter()
        .map(|a| Arrival {
            time: a.time,
            scenario: Arc::new((*a.scenario).clone()),
        })
        .collect();
    assert!(fresh
        .iter()
        .zip(&interned)
        .all(|(f, i)| !Arc::ptr_eq(&f.scenario, &i.scenario)));
    for spec in ["never", "prune@0.5"] {
        let policy = policy_by_spec(spec).unwrap();
        let run = |arrivals: &[Arrival]| {
            DynamicSim::new(policy.as_ref(), SimConfig::default())
                .run(&mut ReplayStream::new(arrivals.to_vec()))
                .unwrap()
        };
        let a = run(&interned);
        let b = run(&fresh);
        assert_eq!(a.outcomes.len(), b.outcomes.len(), "{spec}");
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.makespan.map(f64::to_bits), y.makespan.map(f64::to_bits));
            assert_eq!(x.finish.map(f64::to_bits), y.finish.map(f64::to_bits));
            assert_eq!(x.executed_time.to_bits(), y.executed_time.to_bits());
            assert_eq!(x.lost_time.to_bits(), y.lost_time.to_bits());
        }
        assert_eq!(a.metrics, b.metrics, "{spec}");
        assert_eq!(a.dist_builds, b.dist_builds, "{spec}");
        // Content-equal scenarios share one state: one table per workload.
        let expected_builds = if spec == "never" { 0 } else { pool.len() };
        assert_eq!(b.dist_builds, expected_builds, "{spec}");
        if spec != "never" {
            assert!(b.metrics.dropped > 0, "pruning must bite under this load");
        }
    }
}
