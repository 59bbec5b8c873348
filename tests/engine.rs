//! Engine-redesign coverage: the pluggable `StudyBuilder` pipeline.
//!
//! Locks in the redesign's three contracts:
//! 1. **registries round-trip** — every bundled heuristic, evaluator and
//!    experiment resolves by its own name;
//! 2. **streaming equivalence** — streamed Pearson/Spearman match the
//!    two-pass matrices over the rows a sink collected to 1e-12;
//! 3. **cross-backend determinism** — under *any* evaluator, the same
//!    seed yields identical streamed moments for any thread count.

use robusched::core::{
    metric_index as idx, pearson_matrix, spearman_matrix, MetricValues, StudyBuilder, StudyError,
};
use robusched::platform::Scenario;
use robusched::{experiments, sched, stochastic};

#[test]
fn heuristic_registry_round_trips() {
    let names: Vec<String> = sched::registry().iter().map(|h| h.name().into()).collect();
    assert!(names.iter().any(|n| n == "HEFT"));
    assert!(names.iter().any(|n| n == "BIL"));
    assert!(names.iter().any(|n| n == "Hyb.BMCT"));
    assert!(names.iter().any(|n| n == "CPOP"));
    assert!(names.iter().any(|n| n == "σ-HEFT"));
    for n in &names {
        assert_eq!(sched::heuristic_by_name(n).unwrap().name(), n);
    }
}

#[test]
fn evaluator_registry_round_trips() {
    let names: Vec<String> = stochastic::registry()
        .iter()
        .map(|e| e.name().into())
        .collect();
    assert_eq!(
        names,
        [
            "classic",
            "spelde",
            "dodin",
            "montecarlo",
            "mc-anti",
            "mc-strat"
        ]
    );
    for n in &names {
        assert_eq!(stochastic::evaluator_by_name(n).unwrap().name(), n);
    }
    // Evaluators that read the same prepared state name one preparation.
    use stochastic::Evaluator;
    let preparation = |n: &str| stochastic::evaluator_by_name(n).unwrap().preparation();
    assert_eq!(preparation("classic"), preparation("dodin"));
    assert_ne!(
        stochastic::ClassicEvaluator { grid: 32 }.preparation(),
        preparation("classic")
    );
    assert_eq!(preparation("montecarlo"), preparation("mc-strat"));
    assert_eq!(preparation("spelde"), stochastic::Preparation::None);
}

#[test]
fn experiment_registry_round_trips() {
    for e in experiments::registry() {
        let found = experiments::experiment_by_name(e.name()).unwrap();
        assert_eq!(found.name(), e.name());
    }
    assert!(experiments::experiment_by_name("ext-backends").is_some());
    assert!(experiments::experiment_by_name("no-such-study").is_none());
}

#[test]
fn streamed_matrices_match_buffered_to_1e12() {
    let scenario = Scenario::paper_random(12, 3, 1.1, 5);
    let mut rows = Vec::new();
    let mut collect = |_: usize, m: &MetricValues| rows.push(*m);
    let res = StudyBuilder::new(&scenario)
        .random_schedules(200)
        .seed(11)
        .sink(&mut collect)
        .run()
        .unwrap();
    assert_eq!(rows.len(), 200);
    assert!(res.reservoir.is_exact(), "200 rows fit the reservoir");
    let cases = [
        (pearson_matrix(&rows), res.pearson_streamed(), "Pearson"),
        (spearman_matrix(&rows), res.spearman_streamed(), "Spearman"),
    ];
    for (buffered, streamed, what) in &cases {
        for i in 0..buffered.dim() {
            for j in 0..buffered.dim() {
                assert!(
                    (buffered.get(i, j) - streamed.get(i, j)).abs() < 1e-12,
                    "{what} ({i},{j}): buffered {} vs streamed {}",
                    buffered.get(i, j),
                    streamed.get(i, j)
                );
            }
        }
    }
}

#[test]
fn cross_backend_determinism_any_thread_count() {
    // Same seed + any thread count ⇒ bit-identical streamed moments,
    // under every registered evaluator.
    let scenario = Scenario::paper_random(10, 3, 1.1, 13);
    for name in ["classic", "spelde", "dodin", "montecarlo"] {
        let run_with = |threads: usize| {
            StudyBuilder::new(&scenario)
                .random_schedules(96)
                .seed(29)
                .threads(threads)
                .evaluator_named(name)
                .run()
                .unwrap()
        };
        let a = run_with(1);
        let b = run_with(3);
        assert_eq!(a.random_count(), 96);
        let (pa, pb) = (a.pearson_streamed(), b.pearson_streamed());
        let (sa, sb) = (a.spearman_streamed(), b.spearman_streamed());
        for i in 0..pa.dim() {
            for j in 0..pa.dim() {
                assert_eq!(pa.get(i, j), pb.get(i, j), "{name} Pearson ({i},{j})");
                assert_eq!(sa.get(i, j), sb.get(i, j), "{name} Spearman ({i},{j})");
            }
        }
    }
}

#[test]
fn evaluator_swap_preserves_the_cluster_classic_vs_spelde() {
    let scenario = Scenario::paper_random(10, 3, 1.1, 3);
    let corr = |evaluator: &str| {
        StudyBuilder::new(&scenario)
            .random_schedules(150)
            .seed(5)
            .evaluator_named(evaluator)
            .run()
            .unwrap()
            .pearson_streamed()
            .get(idx("makespan_std"), idx("avg_lateness"))
    };
    assert!(corr("classic") > 0.9);
    assert!(corr("spelde") > 0.9);
}

#[test]
fn sink_streams_in_sampling_order_without_buffering() {
    let scenario = Scenario::paper_random(10, 3, 1.1, 17);
    let mut seen = Vec::new();
    let mut sink = |i: usize, m: &MetricValues| seen.push((i, m.expected_makespan));
    let res = StudyBuilder::new(&scenario)
        .random_schedules(100)
        .seed(2)
        .threads(4)
        .sink(&mut sink)
        .run()
        .unwrap();
    assert_eq!(res.random_count(), 100);
    let indices: Vec<usize> = seen.iter().map(|&(i, _)| i).collect();
    assert_eq!(indices, (0..100).collect::<Vec<_>>());
}

#[test]
fn try_makespans_return_errors_not_aborts() {
    use robusched::sched::{try_det_makespan, try_mean_makespan, Schedule, ScheduleError};
    let scenario = Scenario::paper_random(6, 2, 1.1, 1);
    // A deadlocked schedule: put the head of some precedence edge *after*
    // its successor on the single machine everything runs on.
    let (u, v, _) = scenario.graph.dag.edge_triples().next().expect("has edges");
    let n = scenario.task_count();
    let mut order = vec![v, u];
    order.extend((0..n).filter(|&t| t != u && t != v));
    let bad = Schedule::new(vec![0; n], vec![order]);
    assert_eq!(
        try_det_makespan(&scenario, &bad).unwrap_err(),
        ScheduleError::Deadlock
    );
    assert_eq!(
        try_mean_makespan(&scenario, &bad).unwrap_err(),
        ScheduleError::Deadlock
    );
    // Valid schedules still succeed and match the panicking wrappers.
    let good = robusched::sched::heft(&scenario);
    assert_eq!(
        try_det_makespan(&scenario, &good).unwrap(),
        robusched::sched::det_makespan(&scenario, &good)
    );
    assert_eq!(
        try_mean_makespan(&scenario, &good).unwrap(),
        robusched::sched::mean_makespan(&scenario, &good)
    );
}

#[test]
fn builder_rejects_zero_threads_and_unknown_names() {
    let scenario = Scenario::paper_random(8, 2, 1.1, 9);
    assert_eq!(
        StudyBuilder::new(&scenario)
            .random_schedules(10)
            .threads(0)
            .run()
            .unwrap_err(),
        StudyError::ZeroThreads
    );
    assert!(matches!(
        StudyBuilder::new(&scenario)
            .random_schedules(10)
            .heuristics(&["HEFTY"])
            .run()
            .unwrap_err(),
        StudyError::UnknownHeuristic(_)
    ));
    assert!(matches!(
        StudyBuilder::new(&scenario)
            .random_schedules(10)
            .evaluator_named("exact")
            .run()
            .unwrap_err(),
        StudyError::UnknownEvaluator(_)
    ));
}
