//! Extension/ablation: PDF grid resolution.
//!
//! §V: *"Experimentation shows that sampling each probability density with
//! 64 values was largely sufficient with cubic spline interpolation."*
//! This ablation quantifies that claim: for several grid sizes, the
//! classic evaluator's output is compared (KS) against a 512-point
//! reference and against Monte-Carlo, together with its runtime.

use crate::RunOptions;
use robusched_platform::Scenario;
use robusched_randvar::derive_seed;
use robusched_sched::random_schedule;
use robusched_stochastic::{
    accuracy, mc_makespans, ClassicEvaluator, Evaluator, McConfig, SamplingTables,
};
use std::time::Instant;

/// One ablation row.
#[derive(Debug, Clone, Copy)]
pub struct GridRow {
    /// Grid points per PDF.
    pub grid: usize,
    /// KS distance to the 512-point reference evaluation.
    pub ks_vs_reference: f64,
    /// KS distance to the Monte-Carlo empirical CDF.
    pub ks_vs_mc: f64,
    /// Evaluation wall time (seconds).
    pub seconds: f64,
}

/// Runs the ablation.
pub fn run(opts: &RunOptions) -> std::io::Result<Vec<GridRow>> {
    let s = Scenario::paper_random(30, 8, 1.1, derive_seed(opts.seed, 9900));
    let sched = random_schedule(&s.graph.dag, 8, derive_seed(opts.seed, 9901));
    let reference = ClassicEvaluator { grid: 512 }.evaluate(&s, &sched);
    let samples = mc_makespans(
        &s,
        &sched,
        &McConfig {
            realizations: opts.count(100_000, 5_000),
            seed: derive_seed(opts.seed, 9902),
            threads: opts.threads,
            ..Default::default()
        },
        &SamplingTables::new(&s),
    );
    let mut rows = Vec::new();
    for grid in [16usize, 32, 64, 128, 256] {
        let t0 = Instant::now();
        let rv = ClassicEvaluator { grid }.evaluate(&s, &sched);
        let dt = t0.elapsed().as_secs_f64();
        rows.push(GridRow {
            grid,
            ks_vs_reference: rv.ks_distance(&reference),
            ks_vs_mc: accuracy::compare(&rv, &samples).ks,
            seconds: dt,
        });
    }
    let mut csv = String::from("grid,ks_vs_reference,ks_vs_mc,seconds\n");
    for r in &rows {
        csv.push_str(&format!(
            "{},{:.6},{:.6},{:.6}\n",
            r.grid, r.ks_vs_reference, r.ks_vs_mc, r.seconds
        ));
    }
    opts.write_artifact("ext_grid_resolution.csv", &csv)?;
    Ok(rows)
}

/// Human-readable rendering.
pub fn render(rows: &[GridRow]) -> String {
    let mut out = String::from(
        "Extension: PDF grid-resolution ablation (30 tasks, 8 machines)\n grid  KS vs 512-ref  KS vs MC   time(s)\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>5}  {:>12.5}  {:>9.5}  {:>8.4}\n",
            r.grid, r.ks_vs_reference, r.ks_vs_mc, r.seconds
        ));
    }
    out.push_str("→ 64 points sit at the accuracy plateau (the paper's choice).\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixty_four_is_on_the_plateau() {
        let opts = RunOptions {
            scale: 0.1,
            out_dir: None,
            seed: 3,
            threads: None,
        };
        let rows = run(&opts).unwrap();
        let at = |g: usize| rows.iter().find(|r| r.grid == g).copied().unwrap();
        // Accuracy improves from 16 → 64.
        assert!(at(16).ks_vs_reference > at(64).ks_vs_reference);
        // 64 already close to the 512 reference…
        assert!(at(64).ks_vs_reference < 0.02, "{}", at(64).ks_vs_reference);
        // …and the MC agreement no longer improves much beyond 64: the
        // independence assumption, not the grid, dominates the error.
        assert!(at(256).ks_vs_mc > 0.5 * at(64).ks_vs_mc);
    }
}
