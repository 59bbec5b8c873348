//! Seconds-scale smoke test of the complete study pipeline.
//!
//! The full integration suites take minutes; this one case (n = 10 tasks,
//! m = 3 machines, k = 50 random schedules) runs the identical code path —
//! generation → heuristics → analytic evaluation → metrics → correlation
//! matrix — in a few seconds, so CI catches pipeline-level regressions
//! immediately.

use robusched::core::{pearson_matrix, MetricValues, StudyBuilder, METRIC_LABELS};
use robusched::experiments::figs::PAPER_HEURISTICS;
use robusched::platform::Scenario;

#[test]
fn tiny_paper_random_case_end_to_end() {
    let s = Scenario::paper_random(10, 3, 1.1, 2024);
    let mut random = Vec::new();
    let mut collect = |_: usize, m: &MetricValues| random.push(*m);
    let res = StudyBuilder::new(&s)
        .random_schedules(50)
        .seed(7)
        .heuristics(&PAPER_HEURISTICS)
        .sink(&mut collect)
        .run()
        .unwrap();

    assert_eq!(random.len(), 50);
    assert!(!res.heuristics.is_empty());

    // Every metric vector is finite and physically sensible.
    for m in random.iter().chain(res.heuristics.iter().map(|(_, m)| m)) {
        assert!(m.expected_makespan.is_finite() && m.expected_makespan > 0.0);
        assert!(m.makespan_std.is_finite() && m.makespan_std >= 0.0);
        assert!((0.0..=1.0).contains(&m.prob_absolute));
        assert!((0.0..=1.0).contains(&m.prob_relative));
    }

    // The correlation matrix is complete, symmetric, unit-diagonal.
    let pearson = pearson_matrix(&random);
    let dim = pearson.dim();
    assert_eq!(dim, METRIC_LABELS.len());
    for i in 0..dim {
        assert_eq!(pearson.get(i, i), 1.0);
        for j in 0..dim {
            let r = pearson.get(i, j);
            assert!(r.is_finite() && r.abs() <= 1.0, "r[{i}][{j}] = {r}");
            assert_eq!(r, pearson.get(j, i));
        }
    }
}
