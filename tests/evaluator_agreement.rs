//! Integration: the four makespan evaluators agree where they should.
//!
//! §V of the paper: Dodin and Spelde "both gave similar results to the
//! classical algorithm"; the classical algorithm in turn tracks the
//! Monte-Carlo ground truth for small graphs (Fig. 1). These tests pin the
//! same structure across the whole stack.

use robusched::dag::generators;
use robusched::platform::{CostMatrix, Platform, Scenario, UncertaintyModel};
use robusched::randvar::DiscreteRv;
use robusched::sched::{heft, random_schedule, Schedule};
use robusched::stochastic::{
    accuracy, evaluate_spelde, mc_makespans, ClassicEvaluator, DodinEvaluator, Evaluator, McConfig,
    SamplingTables,
};

fn classic_rv(scenario: &Scenario, sched: &Schedule) -> DiscreteRv {
    ClassicEvaluator::default().evaluate(scenario, sched)
}

fn mc_mean_std(scenario: &Scenario, sched: &Schedule, n: usize) -> (f64, f64) {
    let xs = mc_makespans(
        scenario,
        sched,
        &McConfig {
            realizations: n,
            seed: 77,
            threads: None,
            ..Default::default()
        },
        &SamplingTables::new(scenario),
    );
    let m = xs.iter().sum::<f64>() / xs.len() as f64;
    let v = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
    (m, v.sqrt())
}

/// All evaluators on one scenario/schedule; asserts pairwise agreement.
fn assert_agreement(scenario: &Scenario, sched: &Schedule, mean_tol: f64, std_factor: f64) {
    let classic = classic_rv(scenario, sched);
    let spelde = evaluate_spelde(scenario, sched);
    let dodin = DodinEvaluator.evaluate(scenario, sched);
    let (mc_mean, mc_std) = mc_mean_std(scenario, sched, 40_000);

    for (name, mean) in [
        ("classic", classic.mean()),
        ("spelde", spelde.mean),
        ("dodin", dodin.mean()),
    ] {
        assert!(
            (mean - mc_mean).abs() / mc_mean < mean_tol,
            "{name} mean {mean} vs MC {mc_mean}"
        );
    }
    for (name, std) in [
        ("classic", classic.std_dev()),
        ("spelde", spelde.std_dev),
        ("dodin", dodin.std_dev()),
    ] {
        assert!(
            std < std_factor * mc_std + 1e-9 && std > mc_std / std_factor - 1e-9,
            "{name} std {std} vs MC {mc_std}"
        );
    }
}

#[test]
fn chain_exact_for_everyone() {
    let tg = generators::chain(6);
    let costs = CostMatrix::from_rows(6, 2, vec![10.0; 12]);
    let s = Scenario::new(
        tg,
        Platform::paper_default(2),
        costs,
        UncertaintyModel::paper(1.3),
    );
    let sched = Schedule::new(vec![0; 6], vec![(0..6).collect(), vec![]]);
    assert_agreement(&s, &sched, 0.005, 1.2);
}

#[test]
fn fork_join_small() {
    let tg = generators::fork_join(4);
    let costs = CostMatrix::from_rows(5, 4, vec![10.0; 20]);
    let s = Scenario::new(
        tg,
        Platform::paper_default(4),
        costs,
        UncertaintyModel::paper(1.5),
    );
    let sched = Schedule::new(
        vec![0, 1, 2, 3, 0],
        vec![vec![0, 4], vec![1], vec![2], vec![3]],
    );
    // Join of four correlated-free branches: analytic max is exact here
    // (branches truly independent), Spelde is moment-matched.
    assert_agreement(&s, &sched, 0.01, 1.5);
}

#[test]
fn cholesky_heft_schedule() {
    let s = Scenario::paper_real_app(generators::cholesky(5), 3, 1.1, 5);
    let sched = heft(&s);
    assert_agreement(&s, &sched, 0.01, 1.6);
}

#[test]
fn random_graph_random_schedules() {
    let s = Scenario::paper_random(20, 4, 1.1, 31);
    for k in 0..3 {
        let sched = random_schedule(&s.graph.dag, 4, 1000 + k);
        assert_agreement(&s, &sched, 0.015, 1.8);
    }
}

#[test]
fn classic_tracks_mc_cdf_closely_on_small_graphs() {
    // The Fig. 1 acceptance criterion: KS ≤ ~0.1 on small graphs.
    let s = Scenario::paper_random(10, 3, 1.1, 13);
    let sched = random_schedule(&s.graph.dag, 3, 99);
    let analytic = classic_rv(&s, &sched);
    let samples = mc_makespans(
        &s,
        &sched,
        &McConfig {
            realizations: 50_000,
            seed: 5,
            threads: None,
            ..Default::default()
        },
        &SamplingTables::new(&s),
    );
    let rep = accuracy::compare(&analytic, &samples);
    assert!(rep.ks < 0.06, "KS = {} too large for n = 10", rep.ks);
}

#[test]
fn evaluators_order_schedules_consistently() {
    // If classic says schedule A is more robust (smaller σ) than B by a
    // clear margin, Spelde and MC agree on the ordering.
    let s = Scenario::paper_random(25, 4, 1.2, 17);
    let a = heft(&s);
    let b = random_schedule(&s.graph.dag, 4, 4242);
    let ca = classic_rv(&s, &a);
    let cb = classic_rv(&s, &b);
    // Only meaningful when the margin is clear.
    if (ca.std_dev() - cb.std_dev()).abs() > 0.3 * ca.std_dev().max(cb.std_dev()) {
        let sa = evaluate_spelde(&s, &a);
        let sb = evaluate_spelde(&s, &b);
        assert_eq!(
            ca.std_dev() < cb.std_dev(),
            sa.std_dev < sb.std_dev,
            "classic and Spelde disagree on robustness ordering"
        );
        let (_, ma) = mc_mean_std(&s, &a, 30_000);
        let (_, mb) = mc_mean_std(&s, &b, 30_000);
        assert_eq!(
            ca.std_dev() < cb.std_dev(),
            ma < mb,
            "classic and MC disagree on robustness ordering"
        );
    }
}
