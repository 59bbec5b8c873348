//! Extension: σ-HEFT — the robustness-aware heuristic of §VIII.
//!
//! Compares HEFT against σ-HEFT (`robusched_sched::sigma_heft`, ranks and
//! placements on `mean + κ·σ` costs) in the two regimes:
//!
//! * constant UL — where spread ∝ mean, so the two heuristics should be
//!   nearly equivalent (the paper's "makespan is almost an efficient
//!   criteria");
//! * variable UL — where σ-awareness pays (the regime the future-work
//!   remark anticipates).

use crate::RunOptions;
use robusched_platform::Scenario;
use robusched_randvar::derive_seed;
use robusched_sched::{heft, sigma_heft};
use robusched_stochastic::{ClassicEvaluator, Evaluator};

/// Aggregate outcome of one regime.
#[derive(Debug, Clone, Copy)]
pub struct Regime {
    /// Mean makespan ratio σ-HEFT / HEFT (1.0 = equal).
    pub makespan_ratio: f64,
    /// Mean σ_M ratio σ-HEFT / HEFT (< 1 = σ-HEFT more robust).
    pub sigma_ratio: f64,
    /// Fraction of trials where σ-HEFT had strictly smaller σ_M.
    pub win_rate: f64,
}

/// Both regimes.
#[derive(Debug, Clone, Copy)]
pub struct SigmaHeft {
    /// Constant-UL regime.
    pub constant_ul: Regime,
    /// Variable-UL regime.
    pub variable_ul: Regime,
    /// Trials per regime.
    pub trials: usize,
}

fn run_regime(opts: &RunOptions, trials: usize, variable: bool) -> Regime {
    let mut ms_ratio = 0.0;
    let mut sg_ratio = 0.0;
    let mut wins = 0usize;
    for k in 0..trials {
        let seed = derive_seed(opts.seed, 9500 + k as u64 + if variable { 500 } else { 0 });
        let mut s = Scenario::paper_random(25, 4, 1.1, seed);
        if variable {
            let n = s.task_count();
            let uls: Vec<f64> = (0..n)
                .map(|v| {
                    if derive_seed(seed, v as u64).is_multiple_of(2) {
                        1.6
                    } else {
                        1.01
                    }
                })
                .collect();
            s = s.with_per_task_ul(uls);
        }
        let h = heft(&s);
        let g = sigma_heft(&s, 2.0);
        let classic = ClassicEvaluator::default();
        let rv_h = classic.evaluate(&s, &h);
        let rv_g = classic.evaluate(&s, &g);
        ms_ratio += rv_g.mean() / rv_h.mean() / trials as f64;
        sg_ratio += rv_g.std_dev() / rv_h.std_dev().max(1e-12) / trials as f64;
        if rv_g.std_dev() < rv_h.std_dev() {
            wins += 1;
        }
    }
    Regime {
        makespan_ratio: ms_ratio,
        sigma_ratio: sg_ratio,
        win_rate: wins as f64 / trials as f64,
    }
}

/// Runs both regimes.
pub fn run(opts: &RunOptions) -> std::io::Result<SigmaHeft> {
    let trials = opts.count(12, 4);
    let out = SigmaHeft {
        constant_ul: run_regime(opts, trials, false),
        variable_ul: run_regime(opts, trials, true),
        trials,
    };
    let csv = format!(
        "regime,makespan_ratio,sigma_ratio,win_rate\nconstant_ul,{:.4},{:.4},{:.2}\nvariable_ul,{:.4},{:.4},{:.2}\n",
        out.constant_ul.makespan_ratio,
        out.constant_ul.sigma_ratio,
        out.constant_ul.win_rate,
        out.variable_ul.makespan_ratio,
        out.variable_ul.sigma_ratio,
        out.variable_ul.win_rate
    );
    opts.write_artifact("ext_sigma_heft.csv", &csv)?;
    Ok(out)
}

/// Human-readable rendering.
pub fn render(r: &SigmaHeft) -> String {
    format!(
        "Extension: σ-HEFT vs HEFT ({} trials per regime; ratios σ-HEFT/HEFT)\n  constant UL: makespan ×{:.3}, σ ×{:.3}, σ-wins {:.0}%\n  variable UL: makespan ×{:.3}, σ ×{:.3}, σ-wins {:.0}%\n  → σ-awareness matters exactly when spread decouples from mean.\n",
        r.trials,
        r.constant_ul.makespan_ratio,
        r.constant_ul.sigma_ratio,
        100.0 * r.constant_ul.win_rate,
        r.variable_ul.makespan_ratio,
        r.variable_ul.sigma_ratio,
        100.0 * r.variable_ul.win_rate
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigma_heft_competitive_and_robust() {
        let opts = RunOptions {
            scale: 0.5,
            out_dir: None,
            seed: 5,
            threads: None,
        };
        let r = run(&opts).unwrap();
        // Never catastrophically worse on makespan.
        assert!(r.constant_ul.makespan_ratio < 1.3);
        assert!(r.variable_ul.makespan_ratio < 1.3);
        // In the variable regime it wins on σ at least ~40% of trials.
        assert!(
            r.variable_ul.win_rate >= 0.4,
            "win rate {}",
            r.variable_ul.win_rate
        );
    }
}
