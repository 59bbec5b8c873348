//! Integration tests of the `EvalService` serving contract (DESIGN.md §11):
//! bit-identical responses across every cache tier and worker count,
//! one prepared state per scenario and preparation, in-order answers from
//! tickets waited in order, LRU bounds, and unknown evaluators and
//! deadlocking schedules answered in-band — plus the NaN-safety regression
//! tests of the `total_cmp` sweep.

use robusched::core::{
    compute_metrics, EvalOutcome, EvalRequest, EvalService, MetricOptions, MetricValues,
    ServiceConfig, ServiceError, Ticket,
};
use robusched::platform::Scenario;
use robusched::sched::{heft, random_schedule};
use robusched::stochastic::evaluator_by_name;
use std::sync::Arc;

fn scenario(seed: u64) -> Arc<Scenario> {
    Arc::new(Scenario::paper_random(12, 4, 1.1, seed))
}

fn cold_metrics(req: &EvalRequest) -> MetricValues {
    // A throwaway single-worker service: nothing cached, pure cold path.
    let service = EvalService::new(ServiceConfig {
        workers: Some(1),
        ..Default::default()
    });
    service.evaluate(req.clone()).unwrap().metrics
}

#[test]
fn cache_hits_are_bit_identical_to_cold_evaluations() {
    // One shared service accumulates prepared state and results; every
    // response must equal a fresh service's cold answer bit for bit, for
    // every evaluator family (analytic, normal-propagation, Monte-Carlo).
    let service = EvalService::new(ServiceConfig {
        workers: Some(2),
        ..Default::default()
    });
    let s = scenario(3);
    for evaluator in ["classic", "spelde", "dodin", "mc"] {
        for sched_seed in 0..3u64 {
            let schedule = random_schedule(&s.graph.dag, s.machine_count(), sched_seed);
            let req = EvalRequest::new(s.clone(), schedule, evaluator);
            let cold = cold_metrics(&req);
            let first = service.evaluate(req.clone()).unwrap();
            let repeat = service.evaluate(req.clone()).unwrap();
            assert_eq!(first.metrics, cold, "{evaluator}: warm path diverged");
            assert_eq!(
                repeat.metrics, cold,
                "{evaluator}: result-cache hit diverged"
            );
            assert!(
                repeat.result_hit,
                "{evaluator}: repeat did not hit the result cache"
            );
        }
    }
}

#[test]
fn evaluators_that_name_one_preparation_share_it() {
    // Default classic and Dodin read one discretization table, the
    // Monte-Carlo estimators one set of sampling tables, and Spelde needs
    // none: five evaluators, three preparations.
    let service = EvalService::new(ServiceConfig {
        workers: Some(1),
        ..Default::default()
    });
    let s = scenario(17);
    let bits = |m: &MetricValues| {
        [
            m.expected_makespan,
            m.makespan_std,
            m.makespan_entropy,
            m.avg_slack,
            m.slack_std,
            m.avg_lateness,
            m.prob_absolute,
            m.prob_relative,
            m.late_fraction,
            m.total_slack,
        ]
        .map(f64::to_bits)
    };
    let evaluators = ["classic", "dodin", "montecarlo", "mc-anti", "spelde"];
    for (i, name) in evaluators.into_iter().enumerate() {
        let schedule = random_schedule(&s.graph.dag, s.machine_count(), 50 + i as u64);
        let served = service
            .evaluate(EvalRequest::new(s.clone(), schedule.clone(), name))
            .unwrap();
        let rv = evaluator_by_name(name).unwrap().evaluate(&s, &schedule);
        let cold = compute_metrics(&s, &schedule, &rv, &MetricOptions::default());
        assert_eq!(bits(&served.metrics), bits(&cold), "{name}");
        let shared = matches!(name, "dodin" | "mc-anti");
        assert_eq!(served.scenario_hit, shared, "{name}");
    }
    assert_eq!(service.stats().scenario_misses, 3);
}

#[test]
fn concurrent_clients_get_deterministic_results_across_worker_counts() {
    // 4 client threads × 12 requests each, against services with 1, 2 and
    // 4 workers: every (client, request) cell must be identical across
    // the three runs — batching, coalescing and scheduling order must
    // never leak into the numbers.
    let scenarios: Vec<Arc<Scenario>> = (0..3).map(|i| scenario(100 + i)).collect();
    let run = |workers: usize| -> Vec<Vec<MetricValues>> {
        let service = EvalService::new(ServiceConfig {
            workers: Some(workers),
            ..Default::default()
        });
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4u64)
                .map(|client| {
                    let service = &service;
                    let scenarios = &scenarios;
                    scope.spawn(move || {
                        (0..12u64)
                            .map(|i| {
                                let s =
                                    &scenarios[(client as usize + i as usize) % scenarios.len()];
                                let sched = random_schedule(
                                    &s.graph.dag,
                                    s.machine_count(),
                                    client * 64 + i,
                                );
                                let ev = ["classic", "spelde", "dodin"][i as usize % 3];
                                service
                                    .evaluate(EvalRequest::new(s.clone(), sched, ev))
                                    .unwrap()
                                    .metrics
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    };
    let single = run(1);
    assert_eq!(run(2), single, "2-worker service diverged from 1-worker");
    assert_eq!(run(4), single, "4-worker service diverged from 1-worker");
}

#[test]
fn responses_stream_in_submission_order() {
    let service = EvalService::new(ServiceConfig {
        workers: Some(4),
        ..Default::default()
    });
    let s = scenario(7);
    let expected: Vec<MetricValues> = (0..16u64)
        .map(|i| {
            let sched = random_schedule(&s.graph.dag, s.machine_count(), i);
            cold_metrics(&EvalRequest::new(s.clone(), sched, "classic"))
        })
        .collect();
    // The whole burst is queued before the first wait, so the workers
    // batch and finish it in any order; waiting on the tickets in
    // submission order (as `serve`'s writer does) still yields the answers
    // in that order.
    let tickets: Vec<Ticket> = (0..16u64)
        .map(|i| {
            let sched = random_schedule(&s.graph.dag, s.machine_count(), i);
            service.submit(EvalRequest::new(s.clone(), sched, "classic"))
        })
        .collect();
    for (ticket, want) in tickets.into_iter().zip(&expected) {
        assert_eq!(&service.wait(ticket).unwrap().metrics, want);
    }
}

#[test]
fn scenario_cache_respects_its_lru_bound() {
    let service = EvalService::new(ServiceConfig {
        workers: Some(1),
        scenario_capacity: 4,
        ..Default::default()
    });
    let scenarios: Vec<Arc<Scenario>> = (0..10).map(|i| scenario(200 + i)).collect();
    let mut first_pass: Vec<EvalOutcome> = Vec::new();
    for s in &scenarios {
        let req = EvalRequest::new(s.clone(), heft(s), "classic");
        first_pass.push(service.evaluate(req).unwrap());
    }
    assert!(
        service.cached_scenarios() <= 4,
        "LRU bound violated: {} entries cached",
        service.cached_scenarios()
    );
    let stats = service.stats();
    assert!(
        stats.evictions >= 6,
        "expected ≥6 evictions, saw {}",
        stats.evictions
    );
    assert_eq!(stats.scenario_misses, 10);

    // An evicted scenario re-prepares and still answers bit-identically.
    let req = EvalRequest::new(scenarios[0].clone(), heft(&scenarios[0]), "spelde");
    let refreshed = service
        .evaluate(EvalRequest::new(
            scenarios[0].clone(),
            heft(&scenarios[0]),
            "classic",
        ))
        .unwrap();
    assert_eq!(refreshed.metrics, first_pass[0].metrics);
    service.evaluate(req).unwrap();
    assert!(service.cached_scenarios() <= 4);
}

#[test]
fn unknown_evaluator_is_rejected_without_killing_the_service() {
    let service = EvalService::new(ServiceConfig::default());
    let s = scenario(1);
    let bad = EvalRequest::new(s.clone(), heft(&s), "no-such-evaluator");
    assert!(matches!(
        service.evaluate(bad),
        Err(ServiceError::UnknownEvaluator(_))
    ));
    // The service still serves real requests afterwards.
    let ok = service.evaluate(EvalRequest::new(s.clone(), heft(&s), "classic"));
    assert!(ok.is_ok());
}

#[test]
fn deadlocking_schedule_is_answered_with_a_typed_error() {
    use robusched::sched::{Schedule, ScheduleError};
    // One worker, so the valid request runs where the invalid one did.
    let service = EvalService::new(ServiceConfig {
        workers: Some(1),
        ..Default::default()
    });
    let s = Arc::new(Scenario::paper_random(6, 2, 1.1, 1));
    // Put the head of a precedence edge *after* its successor on the
    // single machine everything runs on.
    let (u, v, _) = s.graph.dag.edge_triples().next().expect("has edges");
    let n = s.task_count();
    let mut order = vec![v, u];
    order.extend((0..n).filter(|&t| t != u && t != v));
    let bad = Schedule::new(vec![0; n], vec![order, vec![]]);
    for evaluator in ["classic", "spelde", "dodin", "mc"] {
        assert_eq!(
            service.evaluate(EvalRequest::new(s.clone(), bad.clone(), evaluator)),
            Err(ServiceError::InvalidSchedule(ScheduleError::Deadlock)),
            "{evaluator}"
        );
        let good = EvalRequest::new(s.clone(), heft(&s), evaluator);
        assert_eq!(
            service.evaluate(good.clone()).unwrap().metrics,
            cold_metrics(&good),
            "{evaluator}: the next valid request"
        );
    }
}

// ---------------------------------------------------------------------------
// NaN-safety regressions (the `partial_cmp(..).unwrap()` → `total_cmp` sweep)
// ---------------------------------------------------------------------------

#[test]
fn descriptive_stats_do_not_panic_on_nan_inputs() {
    // Pre-sweep, `quantile` sorted with `partial_cmp(..).unwrap()` and a
    // single NaN sample aborted the whole study. Now NaN sorts to the top
    // and propagates as a NaN quantile instead.
    let xs = [1.0, f64::NAN, 0.5, 2.0];
    let q = robusched::stats::quantile(&xs, 0.99);
    assert!(q.is_nan() || q.is_finite());
    let _ = robusched::stats::quantile(&xs, 0.25);
    let _ = robusched::stats::descriptive::median(&xs);
}

#[test]
fn correlations_do_not_panic_on_nan_inputs() {
    // `spearman`'s rank sort used `partial_cmp(..).unwrap()` and died on
    // the first NaN. The coefficients are allowed to be NaN; the calls
    // must return. (`Ecdf::new` and `CostMatrix::from_rows` are *guarded*
    // entry points with documented validation panics — they are the
    // correct behaviour and not part of this regression.)
    let xs = [0.3, f64::NAN, 1.7, 0.9];
    let ys = [1.0, 2.0, 3.0, 4.0];
    let _ = robusched::stats::pearson(&xs, &ys);
    let _ = robusched::stats::spearman(&xs, &ys);
}

#[test]
fn rank_ordering_survives_nan_priorities() {
    // The list-scheduling priority sort is the hot path the sweep fixed:
    // a NaN upward rank (from any upstream numerical accident) used to
    // abort in `sort_by(partial_cmp.unwrap())`. The ordering is still a
    // permutation — NaNs land at a deterministic position.
    let ranks = [3.0, f64::NAN, 1.0, 2.0, f64::NAN];
    let order = robusched::sched::rank::tasks_by_decreasing_rank(&ranks);
    let mut seen = order.clone();
    seen.sort_unstable();
    assert_eq!(seen, vec![0, 1, 2, 3, 4], "not a permutation: {order:?}");
    // Deterministic: same input, same order.
    assert_eq!(
        order,
        robusched::sched::rank::tasks_by_decreasing_rank(&ranks)
    );
}
