//! Quickstart: schedule a random task graph with HEFT, evaluate its
//! makespan *distribution*, and print every robustness metric.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use robusched::core::{compute_metrics, MetricOptions};
use robusched::platform::Scenario;
use robusched::sched::{det_makespan, heft};
use robusched::stochastic::{mc_makespans, ClassicEvaluator, Evaluator, McConfig, SamplingTables};

fn main() {
    // A 30-task layered random DAG on 8 unrelated machines, with every
    // duration uncertain on [w, 1.1·w] (Beta(2,5) profile) — the paper's
    // standard setting.
    let scenario = Scenario::paper_random(30, 8, 1.1, 42);
    println!(
        "scenario: {} tasks, {} edges, {} machines, UL = {}",
        scenario.task_count(),
        scenario.graph.edge_count(),
        scenario.machine_count(),
        scenario.uncertainty.ul
    );

    // Schedule with HEFT on the deterministic (minimum) durations.
    let schedule = heft(&scenario);
    println!(
        "HEFT deterministic makespan: {:.2}",
        det_makespan(&scenario, &schedule)
    );

    // The makespan under uncertainty is a random variable; evaluate its
    // distribution analytically (sum = convolution, max = CDF product).
    let makespan = ClassicEvaluator::default().evaluate(&scenario, &schedule);
    println!(
        "analytic makespan distribution: support [{:.2}, {:.2}], mean {:.2}, std {:.3}",
        makespan.lo(),
        makespan.hi(),
        makespan.mean(),
        makespan.std_dev()
    );

    // Cross-check with Monte-Carlo.
    let samples = mc_makespans(
        &scenario,
        &schedule,
        &McConfig {
            realizations: 20_000,
            ..Default::default()
        },
        &SamplingTables::new(&scenario),
    );
    let mc_mean = samples.iter().sum::<f64>() / samples.len() as f64;
    println!("Monte-Carlo mean over 20k realizations: {mc_mean:.2}");

    // All §IV robustness metrics in one call.
    let m = compute_metrics(&scenario, &schedule, &makespan, &MetricOptions::default());
    println!("\nrobustness metrics (paper §IV):");
    println!("  expected makespan   E(M)  = {:.3}", m.expected_makespan);
    println!("  makespan std-dev    σ_M   = {:.4}", m.makespan_std);
    println!("  differential entropy h(M) = {:.4}", m.makespan_entropy);
    println!("  average slack       S̄     = {:.3}", m.avg_slack);
    println!("  slack std-dev       σ_S   = {:.3}", m.slack_std);
    println!("  average lateness    L     = {:.4}", m.avg_lateness);
    println!("  absolute prob.      A(δ)  = {:.4}", m.prob_absolute);
    println!("  relative prob.      R(γ)  = {:.4}", m.prob_relative);
    println!("  late fraction       R₂    = {:.4}", m.late_fraction);
}
