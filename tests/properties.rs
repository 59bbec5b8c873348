//! Property-based tests across the workspace (proptest).
//!
//! These exercise invariants with randomized inputs: graph generators,
//! schedule validity, the discrete-RV calculus, the eager executor and the
//! metric definitions.

use proptest::prelude::*;
use robusched::dag::generators::{self, LayeredRandomConfig};
use robusched::platform::{Scenario, UncertaintyModel};
use robusched::randvar::{DiscreteRv, Dist, ScaledBeta};
use robusched::sched::{det_makespan, random_schedule, EagerPlan};
use robusched::stats::pearson;
use robusched::stochastic::{ClassicEvaluator, Evaluator};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn layered_random_always_acyclic_and_connected(
        n in 2usize..60,
        cap in 1usize..8,
        seed in 0u64..1_000,
    ) {
        let cfg = LayeredRandomConfig {
            n,
            max_in_degree: Some(cap),
            ..Default::default()
        };
        let tg = generators::layered_random(&cfg, seed);
        prop_assert!(tg.dag.is_acyclic());
        for v in 1..n {
            prop_assert!(tg.dag.in_degree(v) >= 1 && tg.dag.in_degree(v) <= cap);
        }
        prop_assert!(tg.task_work.iter().all(|w| *w > 0.0));
    }

    #[test]
    fn random_schedules_always_valid(
        n in 2usize..40,
        m in 1usize..6,
        seed in 0u64..500,
    ) {
        let cfg = LayeredRandomConfig { n, ..Default::default() };
        let tg = generators::layered_random(&cfg, seed);
        let sched = random_schedule(&tg.dag, m, seed ^ 0xABCD);
        prop_assert!(sched.validate(&tg.dag).is_ok());
        prop_assert!(EagerPlan::new(&tg.dag, &sched).is_ok());
    }

    #[test]
    fn rv_sum_moments_additive(
        w1 in 1.0f64..100.0,
        w2 in 1.0f64..100.0,
        ul in 1.01f64..2.0,
    ) {
        let a = DiscreteRv::from_dist_default(&ScaledBeta::paper_default(w1, ul));
        let b = DiscreteRv::from_dist_default(&ScaledBeta::paper_default(w2, ul));
        let s = a.sum(&b);
        let exact_mean = a.mean() + b.mean();
        prop_assert!((s.mean() - exact_mean).abs() / exact_mean < 1e-3,
            "mean {} vs {}", s.mean(), exact_mean);
        let exact_var = a.variance() + b.variance();
        prop_assert!((s.variance() - exact_var).abs() / exact_var.max(1e-12) < 0.05,
            "var {} vs {}", s.variance(), exact_var);
        // Support is the Minkowski sum.
        prop_assert!((s.lo() - (a.lo() + b.lo())).abs() < 1e-9);
        prop_assert!((s.hi() - (a.hi() + b.hi())).abs() < 1e-9);
    }

    #[test]
    fn rv_max_dominates_operands(
        w1 in 1.0f64..50.0,
        w2 in 1.0f64..50.0,
        ul in 1.05f64..1.8,
    ) {
        let a = DiscreteRv::from_dist_default(&ScaledBeta::paper_default(w1, ul));
        let b = DiscreteRv::from_dist_default(&ScaledBeta::paper_default(w2, ul));
        let m = a.max(&b);
        // E[max] ≥ max(E[a], E[b]) − numerical tolerance.
        prop_assert!(m.mean() >= a.mean().max(b.mean()) - 1e-6);
        // CDF of max is dominated by both operand CDFs. The tolerance
        // covers the grid renormalization of the product density (the
        // violation is bounded by the quadrature mass error, ~1e-3).
        for q in [0.25, 0.5, 0.75] {
            let x = m.quantile(q);
            prop_assert!(m.cdf_at(x) <= a.cdf_at(x) + 1e-2);
            prop_assert!(m.cdf_at(x) <= b.cdf_at(x) + 1e-2);
        }
    }

    #[test]
    fn rv_cdf_monotone_and_bounded(
        w in 1.0f64..100.0,
        ul in 1.01f64..2.0,
    ) {
        let a = DiscreteRv::from_dist_default(&ScaledBeta::paper_default(w, ul));
        let mut prev = -1e-12;
        for i in 0..=50 {
            let x = a.lo() + a.span() * i as f64 / 50.0;
            let f = a.cdf_at(x);
            prop_assert!(f >= prev - 1e-9, "CDF decreased at {x}");
            prop_assert!((0.0..=1.0).contains(&f));
            prev = f;
        }
    }

    #[test]
    fn entropy_shift_invariant(
        w in 1.0f64..50.0,
        ul in 1.1f64..2.0,
        shift in -100.0f64..100.0,
    ) {
        let a = DiscreteRv::from_dist_default(&ScaledBeta::paper_default(w, ul));
        let b = a.shift(shift);
        prop_assert!((a.entropy() - b.entropy()).abs() < 1e-9);
    }

    #[test]
    fn quantile_cdf_roundtrip(
        w in 1.0f64..50.0,
        ul in 1.1f64..2.0,
        p in 0.05f64..0.95,
    ) {
        let a = DiscreteRv::from_dist_default(&ScaledBeta::paper_default(w, ul));
        let x = a.quantile(p);
        prop_assert!((a.cdf_at(x) - p).abs() < 0.02, "cdf({x}) = {} vs {p}", a.cdf_at(x));
    }

    #[test]
    fn det_makespan_at_least_critical_path(
        n in 3usize..25,
        m in 1usize..5,
        seed in 0u64..200,
    ) {
        let s = Scenario::paper_random(n, m, 1.1, seed);
        let sched = random_schedule(&s.graph.dag, m, seed);
        let ms = det_makespan(&s, &sched);
        // Lower bound: the critical path with per-task MINIMUM costs and
        // zero communication.
        let cp = s.graph.dag.critical_path_length(
            |v| s.costs.min_cost(v),
            |_| 0.0,
        );
        prop_assert!(ms >= cp - 1e-9, "makespan {ms} below CP bound {cp}");
        // And at least the total work divided by machines.
        let total_min: f64 = (0..n).map(|v| s.costs.min_cost(v)).sum();
        prop_assert!(ms >= total_min / m as f64 - 1e-9);
    }

    #[test]
    fn pearson_always_in_unit_interval(
        xs in prop::collection::vec(-1e3f64..1e3, 3..40),
    ) {
        let ys: Vec<f64> = xs.iter().map(|x| x * 0.5 + 1.0).collect();
        let r = pearson(&xs, &ys);
        prop_assert!(r.abs() <= 1.0);
        // Perfect affine relation ⇒ |r| = 1 (unless degenerate).
        if xs.iter().any(|&x| x != xs[0]) {
            prop_assert!((r - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn uncertainty_model_support_scales(
        w in 0.1f64..1e4,
        ul in 1.0f64..3.0,
    ) {
        let u = UncertaintyModel::paper(ul);
        let d = u.weight_dist(w);
        let (lo, hi) = d.support();
        prop_assert!((lo - w).abs() < 1e-12);
        prop_assert!((hi - ul * w).abs() < 1e-9);
        prop_assert!(d.mean() >= lo - 1e-12 && d.mean() <= hi + 1e-12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn classic_mean_bounded_by_support(
        n in 3usize..15,
        seed in 0u64..100,
    ) {
        let s = Scenario::paper_random(n, 3, 1.1, seed);
        let sched = random_schedule(&s.graph.dag, 3, seed ^ 0x55);
        let rv = ClassicEvaluator::default().evaluate(&s, &sched);
        prop_assert!(rv.lo() <= rv.mean() && rv.mean() <= rv.hi());
        prop_assert!(rv.std_dev() <= rv.span());
        // Deterministic execution with min durations equals the support low
        // end (all Beta variables start at their minimum). The narrow-span
        // shift optimization in `DiscreteRv::sum` replaces unresolvably thin
        // operands by their mean, so the match is to grid resolution, not
        // exact.
        let det = det_makespan(&s, &sched);
        prop_assert!((rv.lo() - det).abs() / det < 1e-3, "lo {} vs det {}", rv.lo(), det);
    }
}
