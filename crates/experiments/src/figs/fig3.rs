//! Fig. 3 — metric correlations on the Cholesky graph of 10 tasks,
//! 3 processors, UL = 1.01 (10 000 random schedules + HEFT/BIL/Hyb.BMCT).

use super::CaseResult;
use crate::cases::{Case, Family};
use crate::figs::{correlation_figure, correlation_summary};
use crate::RunOptions;
use robusched_randvar::derive_seed;

/// The Fig. 3 case definition.
pub fn case(opts: &RunOptions) -> Case {
    Case {
        id: "fig3-cholesky10".into(),
        family: Family::Cholesky,
        param: 4, // b = 4 ⇒ 10 tasks
        machines: 3,
        ul: 1.01,
        seed: derive_seed(opts.seed, 3001),
        schedules: 10_000,
    }
}

/// Runs the experiment.
pub fn run(opts: &RunOptions) -> std::io::Result<CaseResult> {
    correlation_figure(&case(opts), opts, "fig3")
}

/// Human-readable summary.
pub fn render(res: &CaseResult) -> String {
    correlation_summary(res, "Fig. 3 — Cholesky, 10 tasks, 3 procs, UL = 1.01")
}

#[cfg(test)]
mod tests {
    use super::*;
    use robusched_core::METRIC_LABELS;

    #[test]
    fn core_correlations_reproduced() {
        let opts = RunOptions {
            scale: 0.05,
            out_dir: None,
            seed: 1,
            threads: None,
        };
        let res = run(&opts).unwrap();
        let idx = |n: &str| METRIC_LABELS.iter().position(|&l| l == n).unwrap();
        // The equivalence cluster: σ ≈ entropy ≈ lateness ≈ 1−A.
        let p = &res.pearson;
        assert!(p.get(idx("makespan_std"), idx("avg_lateness")) > 0.9);
        assert!(p.get(idx("makespan_std"), idx("abs_prob")) > 0.9);
        assert!(p.get(idx("makespan_std"), idx("makespan_entropy")) > 0.8);
        // Makespan positively correlated with the robustness cluster.
        assert!(p.get(idx("avg_makespan"), idx("makespan_std")) > 0.3);
    }

    #[test]
    fn heuristics_land_in_good_corner() {
        let opts = RunOptions {
            scale: 0.05,
            out_dir: None,
            seed: 2,
            threads: None,
        };
        let res = run(&opts).unwrap();
        let mut sorted: Vec<f64> = res.random.iter().map(|m| m.expected_makespan).collect();
        sorted.sort_by(f64::total_cmp);
        let q10 = sorted[sorted.len() / 10];
        for (name, m) in &res.heuristics {
            assert!(
                m.expected_makespan <= q10 * 1.05,
                "{name} not in the best decile: {} vs {q10}",
                m.expected_makespan
            );
        }
    }
}
