//! Extension: does the metric-equivalence result survive evaluator
//! substitution?
//!
//! The paper computed every metric from the *classic* evaluator alone,
//! noting only that Dodin's and Spelde's methods "gave similar results".
//! That leaves the headline §VI claim — the σ/lateness/1−A(δ) equivalence
//! cluster — resting on one backend. PISA (Coleman & Krishnamachari)
//! showed that scheduler-evaluation conclusions can flip when the harness
//! changes; this study is the analogous check for the *metric* study: the
//! same §V protocol (same graphs, same random schedules, same seeds),
//! executed once per registered [`robusched_stochastic::Evaluator`]
//! (classic, Spelde, Dodin, Monte-Carlo), comparing the resulting Pearson
//! matrices cell by cell.
//!
//! Every pass is one [`CaseSet`] of streaming study runs — no metric
//! buffering — so the per-backend sweeps are memory-flat.
//!
//! Artifacts: `ext_backends_<evaluator>_pearson.csv` (one mean matrix per
//! backend) and the cross-backend `ext_backends_summary.csv`.

use crate::cases::CaseSet;
use crate::RunOptions;
use robusched_platform::Scenario;
use robusched_randvar::derive_seed;
use robusched_stochastic::{evaluator_by_name, Evaluator, MonteCarloEvaluator};

/// Aggregated result of one evaluator backend.
#[derive(Debug, Clone)]
pub struct BackendResult {
    /// Registry name of the evaluator.
    pub evaluator: String,
    /// The backend's correlation matrices over the cases.
    pub corr: CaseSet,
}

/// Result of the whole study.
#[derive(Debug, Clone)]
pub struct Backends {
    /// One aggregate per evaluator, in registry order (classic first).
    pub backends: Vec<BackendResult>,
}

/// The case grid: (tasks, machines, UL) at the paper's Fig. 3/Fig. 4
/// scales, crossed with both uncertainty levels.
const CASES: [(usize, usize, f64); 4] = [(10, 3, 1.01), (10, 3, 1.1), (30, 8, 1.01), (30, 8, 1.1)];

/// Builds the Monte-Carlo backend with a scale-aware realization budget
/// (full scale: 20 000 per schedule — heavy, but it is the ground truth).
fn scaled_montecarlo(opts: &RunOptions) -> Box<dyn Evaluator> {
    Box::new(MonteCarloEvaluator {
        realizations: opts.count(20_000, 400),
        seed: derive_seed(opts.seed, 0xBAC0),
        ..Default::default()
    })
}

/// Runs the study: per registered evaluator, the same four cases with the
/// same schedule streams, aggregated by one [`CaseSet`].
pub fn run(opts: &RunOptions) -> std::io::Result<Backends> {
    let schedules = opts.count(1_000, 40);
    let mut backends = Vec::new();
    for name in ["classic", "spelde", "dodin", "montecarlo"] {
        let cases = CASES.into_iter().enumerate().map(|(ci, (n, m, ul))| {
            let seed = derive_seed(opts.seed, 0xB000 + ci as u64);
            (Scenario::paper_random(n, m, ul, seed), derive_seed(seed, 1))
        });
        let corr = CaseSet::run_with(opts, schedules, cases, || {
            if name == "montecarlo" {
                scaled_montecarlo(opts)
            } else {
                evaluator_by_name(name).expect("registered evaluator")
            }
        })?;
        opts.write_artifact(
            &format!("ext_backends_{name}_pearson.csv"),
            &corr.pearson_mean.to_csv(),
        )?;
        backends.push(BackendResult {
            evaluator: name.to_string(),
            corr,
        });
    }
    let out = Backends { backends };
    opts.write_artifact("ext_backends_summary.csv", &summary_csv(&out))?;
    Ok(out)
}

/// Header of [`summary_csv`] — the schema the smoke test locks in.
pub const SUMMARY_HEADER: &str = "evaluator,cases,\
p_std_lateness,p_std_absprob,p_std_relprob,p_std_entropy,p_makespan_std,\
s_std_lateness,cluster_survives";

/// The cross-backend comparison table: key Pearson (`p_`) and Spearman
/// (`s_`) cells per evaluator plus the cluster verdict
/// ([`CaseSet::cluster_holds`]).
pub fn summary_csv(b: &Backends) -> String {
    let mut out = format!("{SUMMARY_HEADER}\n");
    for BackendResult { evaluator, corr: r } in &b.backends {
        out.push_str(&format!(
            "{},{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{}\n",
            evaluator,
            r.cases,
            r.pearson("makespan_std", "avg_lateness"),
            r.pearson("makespan_std", "abs_prob"),
            r.pearson("makespan_std", "rel_prob"),
            r.pearson("makespan_std", "makespan_entropy"),
            r.pearson("avg_makespan", "makespan_std"),
            r.spearman("makespan_std", "avg_lateness"),
            r.cluster_holds(),
        ));
    }
    out
}

/// Human-readable rendering: the cross-backend table plus the verdict.
pub fn render(b: &Backends) -> String {
    let mut out = String::from(
        "Extension: metric correlations under evaluator substitution\n\
         (same graphs/schedules/seeds per backend; Pearson p / Spearman s means)\n\n\
         evaluator   cases  p(σ~L)  p(σ~1−A)  p(σ~1−R)  p(σ~h)  p(E~σ)  s(σ~L)\n",
    );
    for BackendResult { evaluator, corr: r } in &b.backends {
        out.push_str(&format!(
            "{:<11} {:>5} {:>7.3} {:>9.3} {:>9.3} {:>7.3} {:>7.3} {:>7.3}\n",
            evaluator,
            r.cases,
            r.pearson("makespan_std", "avg_lateness"),
            r.pearson("makespan_std", "abs_prob"),
            r.pearson("makespan_std", "rel_prob"),
            r.pearson("makespan_std", "makespan_entropy"),
            r.pearson("avg_makespan", "makespan_std"),
            r.spearman("makespan_std", "avg_lateness"),
        ));
    }
    let broken: Vec<&str> = b
        .backends
        .iter()
        .filter(|r| !r.corr.cluster_holds())
        .map(|r| r.evaluator.as_str())
        .collect();
    out.push_str(&if broken.is_empty() {
        "\n→ the σ/lateness/1−A equivalence cluster survives under every backend:\n  \
         the §VI conclusion is not an artifact of the classic evaluator\n"
            .to_string()
    } else {
        format!(
            "\n→ the equivalence cluster breaks under: {} — backend choice matters\n",
            broken.join(", ")
        )
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use robusched_core::METRIC_LABELS;

    #[test]
    fn cluster_survives_backend_substitution_at_tiny_scale() {
        let opts = RunOptions {
            scale: 0.004,
            out_dir: None,
            seed: 17,
            threads: None,
        };
        let b = run(&opts).unwrap();
        assert_eq!(b.backends.len(), 4);
        assert_eq!(b.backends[0].evaluator, "classic");
        for BackendResult { evaluator, corr: r } in &b.backends {
            assert_eq!(r.cases, 4);
            assert_eq!(r.pearson_mean.dim(), METRIC_LABELS.len());
            // The analytic backends agree on the cluster even at 40
            // schedules; Monte-Carlo at 400 realizations is noisier but
            // the near-affine σ/L/A relation still dominates.
            let r_sl = r.pearson("makespan_std", "avg_lateness");
            let floor = if evaluator == "montecarlo" {
                0.75
            } else {
                0.85
            };
            assert!(r_sl > floor, "{evaluator}: σ~L = {r_sl}");
        }
        // Summary: header + one row per backend.
        let csv = summary_csv(&b);
        assert_eq!(csv.lines().count(), 5);
        assert!(csv.starts_with(SUMMARY_HEADER));
    }
}
