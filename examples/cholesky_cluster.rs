//! Domain scenario: scheduling a tiled Cholesky factorization on a small
//! heterogeneous cluster, and *choosing a schedule by robustness* rather
//! than by makespan alone.
//!
//! The paper's motivation (§I): on dynamic platforms, a schedule that is
//! two percent longer but far more stable can be the better choice. This
//! example evaluates the four heuristics and a tuned random pool on the
//! Cholesky graph and prints a robustness-aware recommendation, including
//! a cross-validation of all three analytic evaluators against
//! Monte-Carlo.
//!
//! ```text
//! cargo run --release --example cholesky_cluster [matrix_size]
//! ```

use robusched::core::{compute_metrics, MetricOptions, MetricValues};
use robusched::dag::generators::cholesky;
use robusched::platform::Scenario;
use robusched::randvar::derive_seed;
use robusched::sched::{bil, cpop, heft, hyb_bmct, random_schedule, Schedule};
use robusched::stochastic::{
    evaluate_spelde, mc_makespans, ClassicEvaluator, DodinEvaluator, EvalContext, Evaluator,
    McConfig, SamplingTables,
};

fn main() {
    let b: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let graph = cholesky(b);
    println!(
        "tiled Cholesky, matrix size {b}: {} tasks, {} edges",
        graph.task_count(),
        graph.edge_count()
    );
    let scenario = Scenario::paper_real_app(graph, 4, 1.1, 2024);

    // Candidate schedules: the heuristics plus the best-of-200 random.
    let mut candidates: Vec<(String, Schedule)> = vec![
        ("HEFT".into(), heft(&scenario)),
        ("BIL".into(), bil(&scenario)),
        ("Hyb.BMCT".into(), hyb_bmct(&scenario)),
        ("CPOP".into(), cpop(&scenario)),
    ];
    let best_random = (0..200)
        .map(|i| random_schedule(&scenario.graph.dag, 4, derive_seed(55, i)))
        .min_by(|a, b| {
            robusched::sched::det_makespan(&scenario, a)
                .total_cmp(&robusched::sched::det_makespan(&scenario, b))
        })
        .unwrap();
    candidates.push(("best-random".into(), best_random));

    // Score: expected makespan, broken by σ (the paper's conclusion —
    // σ is the one metric worth computing).
    // One prepared scenario serves every candidate.
    let classic = ClassicEvaluator::default();
    let mut cx = EvalContext::new(classic.prepare(&scenario));
    let mut table: Vec<(String, MetricValues)> = Vec::new();
    for (name, sched) in &candidates {
        let rv = classic.evaluate_with(&scenario, sched, &mut cx);
        table.push((
            name.clone(),
            compute_metrics(&scenario, sched, &rv, &MetricOptions::default()),
        ));
    }
    println!(
        "\n{:>12}  {:>9}  {:>8}  {:>8}  {:>8}",
        "schedule", "E(M)", "σ_M", "L", "R₂"
    );
    for (name, m) in &table {
        println!(
            "{:>12}  {:>9.2}  {:>8.4}  {:>8.4}  {:>8.4}",
            name, m.expected_makespan, m.makespan_std, m.avg_lateness, m.late_fraction
        );
    }

    let pick = table
        .iter()
        .min_by(|a, b| {
            (a.1.expected_makespan + 2.0 * a.1.makespan_std)
                .total_cmp(&(b.1.expected_makespan + 2.0 * b.1.makespan_std))
        })
        .unwrap();
    println!(
        "\nrecommendation (min E + 2σ): {} (E = {:.2}, σ = {:.4})",
        pick.0, pick.1.expected_makespan, pick.1.makespan_std
    );

    // Evaluator cross-validation on the recommended schedule.
    let sched = &candidates.iter().find(|(n, _)| *n == pick.0).unwrap().1;
    let analytic = classic.evaluate_with(&scenario, sched, &mut cx);
    let spelde = evaluate_spelde(&scenario, sched);
    let dodin = DodinEvaluator.evaluate(&scenario, sched);
    let mc = mc_makespans(
        &scenario,
        sched,
        &McConfig {
            realizations: 30_000,
            ..Default::default()
        },
        &SamplingTables::new(&scenario),
    );
    let mc_mean = mc.iter().sum::<f64>() / mc.len() as f64;
    let mc_std = {
        let v = mc
            .iter()
            .map(|x| (x - mc_mean) * (x - mc_mean))
            .sum::<f64>()
            / mc.len() as f64;
        v.sqrt()
    };
    println!("\nevaluator agreement on the recommended schedule:");
    println!(
        "  classic:     mean {:.3}, std {:.4}",
        analytic.mean(),
        analytic.std_dev()
    );
    println!(
        "  Spelde CLT:  mean {:.3}, std {:.4}",
        spelde.mean, spelde.std_dev
    );
    println!(
        "  Dodin:       mean {:.3}, std {:.4}",
        dodin.mean(),
        dodin.std_dev()
    );
    println!("  Monte-Carlo: mean {mc_mean:.3}, std {mc_std:.4}  (30k realizations)");
}
