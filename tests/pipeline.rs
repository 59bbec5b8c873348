//! Integration: the full pipeline from generation to correlation matrices.

use robusched::core::{
    compute_metrics, pearson_matrix, MetricOptions, MetricValues, StudyBuilder, METRIC_LABELS,
};
use robusched::platform::Scenario;
use robusched::randvar::DiscreteRv;
use robusched::sched::{bil, cpop, det_makespan, heft, hyb_bmct, random_schedule, Schedule};
use robusched::stochastic::{ClassicEvaluator, Evaluator};

fn classic_rv(s: &Scenario, sched: &Schedule) -> DiscreteRv {
    ClassicEvaluator::default().evaluate(s, sched)
}

#[test]
fn heuristics_valid_across_families_and_sizes() {
    use robusched::dag::generators::{cholesky, gaussian_elimination};
    let scenarios = vec![
        Scenario::paper_random(10, 3, 1.01, 1),
        Scenario::paper_random(30, 8, 1.1, 2),
        Scenario::paper_real_app(cholesky(6), 4, 1.1, 3),
        Scenario::paper_real_app(gaussian_elimination(8), 8, 1.01, 4),
    ];
    for s in &scenarios {
        for (name, sched) in [
            ("heft", heft(s)),
            ("bil", bil(s)),
            ("bmct", hyb_bmct(s)),
            ("cpop", cpop(s)),
        ] {
            assert!(
                sched.validate(&s.graph.dag).is_ok(),
                "{name} invalid on {}",
                s.graph.name
            );
            let ms = det_makespan(s, &sched);
            assert!(ms.is_finite() && ms > 0.0);
        }
    }
}

#[test]
fn metrics_well_defined_for_many_random_schedules() {
    let s = Scenario::paper_random(15, 3, 1.1, 9);
    for k in 0..50 {
        let sched = random_schedule(&s.graph.dag, 3, k);
        let rv = classic_rv(&s, &sched);
        let m = compute_metrics(&s, &sched, &rv, &MetricOptions::default());
        assert!(m.expected_makespan > 0.0, "schedule {k}");
        assert!(m.makespan_std > 0.0, "UL > 1 must spread the makespan");
        assert!((0.0..=1.0).contains(&m.prob_absolute));
        assert!((0.0..=1.0).contains(&m.prob_relative));
        assert!(m.avg_lateness >= 0.0);
        // Slack of an eager schedule is bounded by the makespan.
        assert!(m.avg_slack <= m.expected_makespan + 1e-9);
        // E(M) of the analytic RV is at least the deterministic makespan.
        let det = det_makespan(&s, &sched);
        assert!(
            m.expected_makespan >= det - 1e-9,
            "E {} < det {det}",
            m.expected_makespan
        );
    }
}

#[test]
fn study_produces_full_matrix_and_heuristics() {
    let s = Scenario::paper_random(12, 3, 1.1, 77);
    let mut random = Vec::new();
    let mut collect = |_: usize, m: &MetricValues| random.push(*m);
    let res = StudyBuilder::new(&s)
        .random_schedules(150)
        .seed(5)
        .heuristics(&["HEFT", "BIL", "Hyb.BMCT", "CPOP"])
        .sink(&mut collect)
        .run()
        .unwrap();
    assert_eq!(random.len(), 150);
    assert_eq!(res.heuristics.len(), 4);
    let pearson = pearson_matrix(&random);
    assert_eq!(pearson.dim(), METRIC_LABELS.len());
    // Matrix is symmetric with unit diagonal.
    for i in 0..pearson.dim() {
        assert_eq!(pearson.get(i, i), 1.0);
        for j in 0..pearson.dim() {
            assert_eq!(pearson.get(i, j), pearson.get(j, i));
            assert!(pearson.get(i, j).abs() <= 1.0);
        }
    }
}

#[test]
fn expected_makespan_dominates_deterministic_for_heuristics() {
    let s = Scenario::paper_random(20, 4, 1.2, 3);
    for sched in [heft(&s), bil(&s), hyb_bmct(&s)] {
        let det = det_makespan(&s, &sched);
        let rv = classic_rv(&s, &sched);
        assert!(rv.mean() >= det);
        // And bounded by UL times the deterministic value (loose envelope:
        // every duration grows at most UL×, order fixed).
        assert!(rv.hi() <= det * s.uncertainty.ul * 1.5);
    }
}

#[test]
fn larger_ul_spreads_the_makespan() {
    let mk = |ul: f64| {
        let s = Scenario::paper_random(15, 4, ul, 12);
        let sched = heft(&s);
        classic_rv(&s, &sched).std_dev()
    };
    let s_small = mk(1.01);
    let s_big = mk(1.3);
    assert!(
        s_big > 3.0 * s_small,
        "UL 1.3 std {s_big} should dwarf UL 1.01 std {s_small}"
    );
}
