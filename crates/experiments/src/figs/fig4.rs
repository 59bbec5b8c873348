//! Fig. 4 — metric correlations on a random graph of 30 tasks,
//! 8 processors, UL = 1.01 (10 000 random schedules + heuristics).

use super::CaseResult;
use crate::cases::{Case, Family};
use crate::figs::{correlation_figure, correlation_summary};
use crate::RunOptions;
use robusched_randvar::derive_seed;

/// The Fig. 4 case definition.
pub fn case(opts: &RunOptions) -> Case {
    Case {
        id: "fig4-random30".into(),
        family: Family::Random,
        param: 30,
        machines: 8,
        ul: 1.01,
        seed: derive_seed(opts.seed, 4001),
        schedules: 10_000,
    }
}

/// Runs the experiment.
pub fn run(opts: &RunOptions) -> std::io::Result<CaseResult> {
    correlation_figure(&case(opts), opts, "fig4")
}

/// Human-readable summary.
pub fn render(res: &CaseResult) -> String {
    correlation_summary(res, "Fig. 4 — random graph, 30 tasks, 8 procs, UL = 1.01")
}

#[cfg(test)]
mod tests {
    use super::*;
    use robusched_core::METRIC_LABELS;

    #[test]
    fn equivalence_cluster_present() {
        let opts = RunOptions {
            scale: 0.03,
            out_dir: None,
            seed: 4,
            threads: None,
        };
        let res = run(&opts).unwrap();
        let idx = |n: &str| METRIC_LABELS.iter().position(|&l| l == n).unwrap();
        let p = &res.pearson;
        assert!(p.get(idx("makespan_std"), idx("avg_lateness")) > 0.9);
        assert!(p.get(idx("makespan_std"), idx("abs_prob")) > 0.9);
        // Slack (inverted) anti-correlates with the makespan (Fig. 6 row).
        assert!(p.get(idx("avg_makespan"), idx("avg_slack")) < 0.0);
    }
}
