//! Extension: variable uncertainty levels.
//!
//! §VIII of the paper conjectures that with a non-constant UL — which
//! decouples a duration's mean from its spread — "the makespan could be a
//! misleading criteria" for robustness. This experiment runs the §V
//! protocol twice on the same graphs: once with the constant UL, once with
//! per-task ULs drawn from {low, high}, and compares the Pearson
//! correlation between expected makespan and makespan standard deviation.

use crate::cases::CaseSet;
use crate::RunOptions;
use robusched_platform::Scenario;
use robusched_randvar::derive_seed;

/// Result of the variable-UL comparison.
#[derive(Debug, Clone)]
pub struct VarUl {
    /// Mean corr(E(M), σ_M) with the constant UL.
    pub constant_ul_corr: f64,
    /// Mean corr(E(M), σ_M) with per-task ULs in {1.01, 1.5}.
    pub variable_ul_corr: f64,
    /// Number of cases aggregated.
    pub cases: usize,
}

/// Runs the experiment.
pub fn run(opts: &RunOptions) -> std::io::Result<VarUl> {
    let cases = 6usize;
    let schedules = opts.count(2_000, 80);
    let mut constant = Vec::with_capacity(cases);
    let mut variable = Vec::with_capacity(cases);
    for k in 0..cases {
        let seed = derive_seed(opts.seed, 7000 + k as u64);
        let base = Scenario::paper_random(25, 4, 1.1, seed);
        // Same graph & costs, but per-task ULs split between nearly exact
        // and wildly uncertain: the spread no longer tracks the mean.
        let uls: Vec<f64> = (0..base.task_count())
            .map(|v| {
                if derive_seed(seed, v as u64).is_multiple_of(2) {
                    1.5
                } else {
                    1.01
                }
            })
            .collect();
        variable.push((base.clone().with_per_task_ul(uls), seed));
        constant.push((base, seed));
    }
    let corr = |set: CaseSet| set.pearson("avg_makespan", "makespan_std");
    let out = VarUl {
        constant_ul_corr: corr(CaseSet::run(opts, schedules, constant)?),
        variable_ul_corr: corr(CaseSet::run(opts, schedules, variable)?),
        cases,
    };
    let csv = format!(
        "regime,mean_corr_E_sigma\nconstant_ul,{:.4}\nvariable_ul,{:.4}\n",
        out.constant_ul_corr, out.variable_ul_corr
    );
    opts.write_artifact("ext_var_ul.csv", &csv)?;
    Ok(out)
}

/// Human-readable rendering.
pub fn render(v: &VarUl) -> String {
    format!(
        "Extension: variable UL ({} cases)\n  corr(E(M), σ_M), constant UL = {:.3}\n  corr(E(M), σ_M), variable UL = {:.3}\n  → {}\n",
        v.cases,
        v.constant_ul_corr,
        v.variable_ul_corr,
        if v.variable_ul_corr < v.constant_ul_corr {
            "the equivalence weakens, as §VIII conjectured"
        } else {
            "no weakening observed at this scale"
        }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variable_ul_weakens_the_makespan_criterion() {
        let opts = RunOptions {
            scale: 0.1,
            out_dir: None,
            seed: 21,
            threads: None,
        };
        let v = run(&opts).unwrap();
        // The paper's conjecture: variable UL decorrelates makespan and σ.
        assert!(
            v.variable_ul_corr < v.constant_ul_corr,
            "constant {} vs variable {}",
            v.constant_ul_corr,
            v.variable_ul_corr
        );
        assert!(v.constant_ul_corr > 0.3);
    }
}
