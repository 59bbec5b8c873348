//! Extension: the metric-correlation study on structured application DAGs.
//!
//! The paper runs its §V protocol only on randomly generated graphs plus
//! two dense-linear-algebra instances; whether the headline result — the
//! σ/lateness/probabilistic equivalence cluster — survives on *structured*
//! workloads is untested. This study re-runs the Fig. 6 aggregation per
//! [`AppClass`] (Cholesky, LU, FFT butterfly, stencil wavefront,
//! fork-join) on consistent-heterogeneity platforms
//! ([`Scenario::structured_app`]), computing both the Pearson and the
//! Spearman metric-correlation matrix per class, and renders a cross-class
//! comparison of the key cells.
//!
//! Artifacts: `ext_apps_<class>_pearson.csv` / `ext_apps_<class>_spearman.csv`
//! (one mean matrix each) and the cross-class `ext_apps_summary.csv`.

use crate::cases::CaseSet;
use crate::RunOptions;
use robusched_dag::apps::AppClass;
use robusched_platform::Scenario;
use robusched_randvar::derive_seed;

/// Speed-vector coefficient of variation of the structured platforms (the
/// paper's `V_mach`).
const SPEED_COV: f64 = 0.5;

/// Per-class `n` knobs: a small (~10-task) and a large (~80–90-task)
/// instance, matching the paper's Fig. 3 / Fig. 5 scales.
fn class_sizes(class: AppClass) -> [usize; 2] {
    match class {
        AppClass::Cholesky => [4, 12],     // 10 and 78 tasks
        AppClass::Lu => [3, 6],            // 14 and 91 tasks
        AppClass::FftButterfly => [4, 16], // 14 and 82 tasks
        AppClass::Stencil => [3, 9],       // 9 and 81 tasks
        AppClass::ForkJoin => [8, 78],     // 10 and 80 tasks
    }
}

/// Aggregated result of one application class.
#[derive(Debug, Clone)]
pub struct ClassResult {
    /// The class.
    pub class: AppClass,
    /// Largest task count among the cases.
    pub largest_tasks: usize,
    /// The class's correlation matrices over its cases.
    pub corr: CaseSet,
}

/// Result of the whole study.
#[derive(Debug, Clone)]
pub struct Apps {
    /// One aggregate per class, in [`AppClass::ALL`] order.
    pub classes: Vec<ClassResult>,
}

/// Runs the study: per class, 2 sizes × 2 uncertainty levels (machine
/// count scales with size), aggregated by one [`CaseSet`].
pub fn run(opts: &RunOptions) -> std::io::Result<Apps> {
    let schedules = opts.count(2_000, 60);
    let mut classes = Vec::with_capacity(AppClass::ALL.len());
    for (ci, class) in AppClass::ALL.into_iter().enumerate() {
        let mut cases = Vec::new();
        for (si, n) in class_sizes(class).into_iter().enumerate() {
            let machines = if si == 0 { 3 } else { 8 };
            for ul in [1.01, 1.1] {
                let case_idx = cases.len() as u64 + 1;
                let seed = derive_seed(opts.seed, 9000 + 100 * ci as u64 + case_idx);
                let graph = class.generate(n, derive_seed(seed, 1));
                let scenario = Scenario::structured_app(graph, machines, SPEED_COV, ul, seed);
                cases.push((scenario, derive_seed(seed, 2)));
            }
        }
        let largest_tasks = cases.iter().map(|(s, _)| s.task_count()).max().unwrap_or(0);
        let corr = CaseSet::run(opts, schedules, cases)?;
        opts.write_artifact(
            &format!("ext_apps_{}_pearson.csv", class.name()),
            &corr.pearson_mean.to_csv(),
        )?;
        opts.write_artifact(
            &format!("ext_apps_{}_spearman.csv", class.name()),
            &corr.spearman_mean.to_csv(),
        )?;
        classes.push(ClassResult {
            class,
            largest_tasks,
            corr,
        });
    }
    let out = Apps { classes };
    opts.write_artifact("ext_apps_summary.csv", &summary_csv(&out))?;
    Ok(out)
}

/// Header of [`summary_csv`] — the schema the smoke test locks in.
pub const SUMMARY_HEADER: &str = "class,cases,largest_tasks,\
p_std_lateness,p_std_absprob,p_std_relprob,p_makespan_std,p_makespan_slack,\
s_std_lateness,s_std_absprob";

/// The cross-class comparison table: key Pearson (`p_`) and Spearman
/// (`s_`) cells per class.
pub fn summary_csv(a: &Apps) -> String {
    let mut out = format!("{SUMMARY_HEADER}\n");
    for c in &a.classes {
        let r = &c.corr;
        out.push_str(&format!(
            "{},{},{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}\n",
            c.class.name(),
            r.cases,
            c.largest_tasks,
            r.pearson("makespan_std", "avg_lateness"),
            r.pearson("makespan_std", "abs_prob"),
            r.pearson("makespan_std", "rel_prob"),
            r.pearson("avg_makespan", "makespan_std"),
            r.pearson("avg_makespan", "avg_slack"),
            r.spearman("makespan_std", "avg_lateness"),
            r.spearman("makespan_std", "abs_prob"),
        ));
    }
    out
}

/// Human-readable rendering: the cross-class table plus the verdict on the
/// equivalence cluster ([`CaseSet::cluster_holds`]).
pub fn render(a: &Apps) -> String {
    let mut out = String::from(
        "Extension: metric correlations on structured application DAGs\n\
         (consistent-heterogeneity platforms, Pearson p / Spearman s means)\n\n\
         class      cases  tasks  p(σ~L)  p(σ~1−A)  p(σ~1−R)  p(E~σ)  s(σ~L)\n",
    );
    for c in &a.classes {
        let r = &c.corr;
        out.push_str(&format!(
            "{:<10} {:>5} {:>6} {:>7.3} {:>9.3} {:>9.3} {:>7.3} {:>7.3}\n",
            c.class.name(),
            r.cases,
            c.largest_tasks,
            r.pearson("makespan_std", "avg_lateness"),
            r.pearson("makespan_std", "abs_prob"),
            r.pearson("makespan_std", "rel_prob"),
            r.pearson("avg_makespan", "makespan_std"),
            r.spearman("makespan_std", "avg_lateness"),
        ));
    }
    let weak: Vec<&str> = a
        .classes
        .iter()
        .filter(|c| !c.corr.cluster_holds())
        .map(|c| c.class.name())
        .collect();
    out.push_str(&if weak.is_empty() {
        "\n→ the σ/lateness/1−A equivalence cluster survives on every structured class\n"
            .to_string()
    } else {
        format!(
            "\n→ the equivalence cluster weakens on: {} — structure matters\n",
            weak.join(", ")
        )
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use robusched_core::METRIC_LABELS;

    #[test]
    fn structured_classes_keep_the_equivalence_cluster() {
        let opts = RunOptions {
            scale: 0.004,
            out_dir: None,
            seed: 33,
            threads: None,
        };
        let a = run(&opts).unwrap();
        assert_eq!(a.classes.len(), 5);
        for c in &a.classes {
            assert_eq!(c.corr.cases, 4);
            assert_eq!(c.corr.pearson_mean.dim(), METRIC_LABELS.len());
            // The paper's core finding should extend to structured DAGs.
            let r = c.corr.pearson("makespan_std", "avg_lateness");
            assert!(r > 0.8, "{}: σ~L = {r}", c.class.name());
            // Spearman agrees in sign and strength on the cluster.
            let s = c.corr.spearman("makespan_std", "avg_lateness");
            assert!(s > 0.7, "{}: Spearman σ~L = {s}", c.class.name());
        }
        // Summary table has one row per class.
        let csv = summary_csv(&a);
        assert_eq!(csv.lines().count(), 6);
        assert!(csv.starts_with(SUMMARY_HEADER));
    }
}
