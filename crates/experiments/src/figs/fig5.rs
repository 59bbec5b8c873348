//! Fig. 5 — metric correlations on the Gaussian-elimination graph of 104
//! tasks ("103" in the paper), 16 processors, UL = 1.1 (2 000 random
//! schedules + heuristics).

use super::CaseResult;
use crate::cases::{Case, Family};
use crate::figs::{correlation_figure, correlation_summary};
use crate::RunOptions;
use robusched_randvar::derive_seed;

/// The Fig. 5 case definition.
pub fn case(opts: &RunOptions) -> Case {
    Case {
        id: "fig5-ge104".into(),
        family: Family::GaussianElimination,
        param: 14, // (b−1)(b+2)/2 = 104 tasks
        machines: 16,
        ul: 1.1,
        seed: derive_seed(opts.seed, 5001),
        schedules: 2_000,
    }
}

/// Runs the experiment.
pub fn run(opts: &RunOptions) -> std::io::Result<CaseResult> {
    correlation_figure(&case(opts), opts, "fig5")
}

/// Human-readable summary.
pub fn render(res: &CaseResult) -> String {
    correlation_summary(
        res,
        "Fig. 5 — Gaussian elimination, 104 tasks, 16 procs, UL = 1.1",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use robusched_core::METRIC_LABELS;

    #[test]
    fn large_case_still_correlates() {
        let opts = RunOptions {
            scale: 0.04,
            out_dir: None,
            seed: 5,
            threads: None,
        };
        let res = run(&opts).unwrap();
        let idx = |n: &str| METRIC_LABELS.iter().position(|&l| l == n).unwrap();
        let p = &res.pearson;
        assert!(p.get(idx("makespan_std"), idx("avg_lateness")) > 0.85);
        assert!(res.heuristics.len() == 3);
    }
}
