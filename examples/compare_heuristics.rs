//! Compare HEFT, BIL, Hyb.BMCT and CPOP against a cloud of random
//! schedules — the paper's §VI observation that makespan-centric
//! heuristics "give always the best makespan and often the best standard
//! deviation".
//!
//! ```text
//! cargo run --release --example compare_heuristics [n_tasks] [machines]
//! ```

use robusched::core::{compute_metrics, MetricOptions, MetricValues};
use robusched::platform::Scenario;
use robusched::randvar::derive_seed;
use robusched::sched::{bil, cpop, heft, hyb_bmct, random_schedule, Schedule};
use robusched::stochastic::{ClassicEvaluator, Evaluator};

fn eval(scenario: &Scenario, sched: &Schedule) -> MetricValues {
    let rv = ClassicEvaluator::default().evaluate(scenario, sched);
    compute_metrics(scenario, sched, &rv, &MetricOptions::default())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(30);
    let m: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(8);
    let scenario = Scenario::paper_random(n, m, 1.1, 7);
    println!("scenario: {n} tasks on {m} machines, UL = 1.1\n");

    // The heuristic schedules.
    let rows: Vec<(String, MetricValues)> = vec![
        ("HEFT".into(), eval(&scenario, &heft(&scenario))),
        ("BIL".into(), eval(&scenario, &bil(&scenario))),
        ("Hyb.BMCT".into(), eval(&scenario, &hyb_bmct(&scenario))),
        ("CPOP".into(), eval(&scenario, &cpop(&scenario))),
    ];

    // A cloud of random schedules for context.
    let k = 400;
    let mut best_ms = f64::INFINITY;
    let mut best_std = f64::INFINITY;
    let mut mean_ms = 0.0;
    for i in 0..k {
        let sched = random_schedule(&scenario.graph.dag, m, derive_seed(1234, i));
        let mv = eval(&scenario, &sched);
        best_ms = best_ms.min(mv.expected_makespan);
        best_std = best_std.min(mv.makespan_std);
        mean_ms += mv.expected_makespan / k as f64;
    }

    println!(
        "{:>9}  {:>10}  {:>9}  {:>9}  {:>9}  {:>9}",
        "schedule", "E(M)", "σ_M", "L", "A(δ)", "S̄"
    );
    for (name, mv) in &rows {
        println!(
            "{:>9}  {:>10.2}  {:>9.4}  {:>9.4}  {:>9.4}  {:>9.2}",
            name,
            mv.expected_makespan,
            mv.makespan_std,
            mv.avg_lateness,
            mv.prob_absolute,
            mv.avg_slack
        );
    }
    println!(
        "\nrandom schedules ({k} samples): mean E(M) = {mean_ms:.2}, best E(M) = {best_ms:.2}, best σ_M = {best_std:.4}"
    );
    let best_h = rows
        .iter()
        .map(|(_, m)| m.expected_makespan)
        .fold(f64::INFINITY, f64::min);
    println!(
        "heuristics reach {:.1}% of the best random makespan",
        100.0 * best_h / best_ms
    );
}
