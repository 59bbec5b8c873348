//! Extension: sensitivity of the metric equivalence to the uncertainty
//! distribution family.
//!
//! The paper fixes Beta(2, 5) and asks (§VIII) whether the results extend
//! to "non-standard probability distributions". We rerun a miniature §VI
//! study under each built-in family (Beta, Uniform, Triangular) and report
//! the equivalence-cluster correlations.

use crate::cases::CaseSet;
use crate::RunOptions;
use robusched_platform::{Scenario, UncertaintyKind, UncertaintyModel};
use robusched_randvar::derive_seed;

/// Cluster correlations for one distribution family.
#[derive(Debug, Clone)]
pub struct FamilyResult {
    /// The family.
    pub kind: UncertaintyKind,
    /// corr(σ_M, lateness).
    pub sigma_lateness: f64,
    /// corr(σ_M, 1−A(δ)).
    pub sigma_absprob: f64,
    /// corr(σ_M, entropy).
    pub sigma_entropy: f64,
}

/// Runs the experiment.
pub fn run(opts: &RunOptions) -> std::io::Result<Vec<FamilyResult>> {
    let schedules = opts.count(2_000, 80);
    let mut out = Vec::new();
    for kind in [
        UncertaintyKind::Beta25,
        UncertaintyKind::Uniform,
        UncertaintyKind::Triangular,
    ] {
        // Average over a few graphs per family.
        let cases = (0..3u64).map(|k| {
            let seed = derive_seed(opts.seed, 8000 + k);
            let mut s = Scenario::paper_random(20, 4, 1.1, seed);
            s.uncertainty = UncertaintyModel { ul: 1.1, kind };
            (s, seed)
        });
        let corr = CaseSet::run(opts, schedules, cases)?;
        out.push(FamilyResult {
            kind,
            sigma_lateness: corr.pearson("makespan_std", "avg_lateness"),
            sigma_absprob: corr.pearson("makespan_std", "abs_prob"),
            sigma_entropy: corr.pearson("makespan_std", "makespan_entropy"),
        });
    }
    let mut csv = String::from("family,sigma~lateness,sigma~absprob,sigma~entropy\n");
    for f in &out {
        csv.push_str(&format!(
            "{:?},{:.4},{:.4},{:.4}\n",
            f.kind, f.sigma_lateness, f.sigma_absprob, f.sigma_entropy
        ));
    }
    opts.write_artifact("ext_distributions.csv", &csv)?;
    Ok(out)
}

/// Human-readable rendering.
pub fn render(rows: &[FamilyResult]) -> String {
    let mut out = String::from(
        "Extension: metric equivalence across uncertainty families\nfamily        σ~L      σ~(1−A)  σ~h\n",
    );
    for f in rows {
        out.push_str(&format!(
            "{:<12}  {:>6.3}  {:>7.3}  {:>6.3}\n",
            format!("{:?}", f.kind),
            f.sigma_lateness,
            f.sigma_absprob,
            f.sigma_entropy
        ));
    }
    out.push_str("→ the CLT argument is family-agnostic: the cluster should persist.\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_survives_every_family() {
        let opts = RunOptions {
            scale: 0.08,
            out_dir: None,
            seed: 33,
            threads: None,
        };
        let rows = run(&opts).unwrap();
        assert_eq!(rows.len(), 3);
        for f in &rows {
            assert!(
                f.sigma_lateness > 0.85,
                "{:?}: σ~L = {}",
                f.kind,
                f.sigma_lateness
            );
            assert!(
                f.sigma_absprob > 0.85,
                "{:?}: σ~A = {}",
                f.kind,
                f.sigma_absprob
            );
        }
    }
}
