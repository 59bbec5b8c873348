//! Variable per-task uncertainty: when the makespan stops being a good
//! robustness proxy — and σ-HEFT starts paying off.
//!
//! The paper's §VIII: with a constant UL the spread of every duration is
//! proportional to its mean, so minimizing the makespan indirectly
//! minimizes σ. Give half the tasks a wild UL and the other half an almost
//! deterministic one, and the two objectives decouple. This example
//! demonstrates both effects on one instance.
//!
//! ```text
//! cargo run --release --example variable_uncertainty
//! ```

use robusched::platform::Scenario;
use robusched::randvar::derive_seed;
use robusched::sched::{heft, sigma_heft};
use robusched::stochastic::{ClassicEvaluator, Evaluator};

fn main() {
    let base = Scenario::paper_random(25, 4, 1.1, 2026);
    let classic = ClassicEvaluator::default();
    let n = base.task_count();

    // Regime 1: the paper's constant UL.
    let heft_const = heft(&base);
    let sig_const = sigma_heft(&base, 2.0);
    let rv_h1 = classic.evaluate(&base, &heft_const);
    let rv_s1 = classic.evaluate(&base, &sig_const);

    // Regime 2: variable UL — half the tasks nearly exact, half wild.
    let uls: Vec<f64> = (0..n)
        .map(|v| {
            if derive_seed(2026, v as u64).is_multiple_of(2) {
                1.6
            } else {
                1.01
            }
        })
        .collect();
    let wild = uls.iter().filter(|&&u| u > 1.5).count();
    let varied = base.clone().with_per_task_ul(uls);
    let heft_var = heft(&varied);
    let sig_var = sigma_heft(&varied, 2.0);
    let rv_h2 = classic.evaluate(&varied, &heft_var);
    let rv_s2 = classic.evaluate(&varied, &sig_var);

    println!("constant UL = 1.1 (spread ∝ mean):");
    println!(
        "  HEFT   : E = {:.2}, σ = {:.4}",
        rv_h1.mean(),
        rv_h1.std_dev()
    );
    println!(
        "  σ-HEFT : E = {:.2}, σ = {:.4}   (κ = 2)",
        rv_s1.mean(),
        rv_s1.std_dev()
    );
    println!("\nvariable UL ({wild}/{n} tasks at UL = 1.6, rest at 1.01):");
    println!(
        "  HEFT   : E = {:.2}, σ = {:.4}",
        rv_h2.mean(),
        rv_h2.std_dev()
    );
    println!(
        "  σ-HEFT : E = {:.2}, σ = {:.4}",
        rv_s2.mean(),
        rv_s2.std_dev()
    );
    let gain = 100.0 * (1.0 - rv_s2.std_dev() / rv_h2.std_dev());
    println!(
        "\nσ-HEFT changes the makespan by {:+.1}% and the spread by {:-.1}% in the variable regime.",
        100.0 * (rv_s2.mean() / rv_h2.mean() - 1.0),
        -gain
    );
}
