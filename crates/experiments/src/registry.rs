//! The experiment registry: every figure and extension study as one
//! [`ExperimentEntry`], resolvable by name.
//!
//! The CLI used to dispatch through a hand-maintained `match` in
//! `main.rs`; adding a study meant editing three places. Now each study is
//! one [`ExperimentEntry`] here — `main.rs` shrinks to a registry lookup,
//! and the `list` subcommand, `all`/`ext-all` groups, and external
//! embedders all read the same table.

use crate::{ext, figs, RunOptions};

/// Grouping of experiments for the `all` / `ext-all` umbrella commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentGroup {
    /// A reproduction of one of the paper's figures (`all`).
    Figure,
    /// An extension study beyond the paper (`ext-all`).
    Extension,
    /// The evaluation-serving entry point (`serve`); excluded from both
    /// umbrella commands because it blocks on stdin.
    Service,
}

/// A runnable experiment: a named study that renders a human-readable
/// report (and writes its CSV artifacts through [`RunOptions`]).
pub struct ExperimentEntry {
    name: &'static str,
    about: &'static str,
    group: ExperimentGroup,
    run: fn(&RunOptions) -> std::io::Result<String>,
}

impl ExperimentEntry {
    /// CLI/registry name (e.g. `"fig3"`, `"ext-backends"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line description for the `list` subcommand.
    pub fn about(&self) -> &'static str {
        self.about
    }

    /// Which group (`all` / `ext-all`) the experiment belongs to.
    pub fn group(&self) -> ExperimentGroup {
        self.group
    }

    /// Runs the study and returns the rendered report.
    pub fn run(&self, opts: &RunOptions) -> std::io::Result<String> {
        (self.run)(opts)
    }
}

/// Fig. 6 writes an extra artifact (the paper-value comparison) on top of
/// its rendered report.
fn run_fig6(opts: &RunOptions) -> std::io::Result<String> {
    let f = figs::fig6::run(opts)?;
    opts.write_artifact(
        "fig6_paper_comparison.csv",
        &figs::fig6::paper_comparison(&f),
    )?;
    Ok(figs::fig6::render(&f))
}

static REGISTRY: [ExperimentEntry; 22] = [
    ExperimentEntry {
        name: "fig1",
        about: "KS/CM accuracy of the independence assumption vs graph size",
        group: ExperimentGroup::Figure,
        run: |o| Ok(figs::fig1::render(&figs::fig1::run(o)?)),
    },
    ExperimentEntry {
        name: "fig2",
        about: "analytic PDF vs 100k-realization histogram (worst accepted case)",
        group: ExperimentGroup::Figure,
        run: |o| Ok(figs::fig2::render(&figs::fig2::run(o)?)),
    },
    ExperimentEntry {
        name: "fig3",
        about: "metric correlations, Cholesky 10 tasks / 3 procs / UL 1.01",
        group: ExperimentGroup::Figure,
        run: |o| Ok(figs::fig3::render(&figs::fig3::run(o)?)),
    },
    ExperimentEntry {
        name: "fig4",
        about: "metric correlations, random 30 tasks / 8 procs / UL 1.01",
        group: ExperimentGroup::Figure,
        run: |o| Ok(figs::fig4::render(&figs::fig4::run(o)?)),
    },
    ExperimentEntry {
        name: "fig5",
        about: "metric correlations, Gaussian elimination 104 tasks / 16 procs / UL 1.1",
        group: ExperimentGroup::Figure,
        run: |o| Ok(figs::fig5::render(&figs::fig5::run(o)?)),
    },
    ExperimentEntry {
        name: "fig6",
        about: "mean ± std Pearson matrix over the 24 (n ≤ 100) cases",
        group: ExperimentGroup::Figure,
        run: run_fig6,
    },
    ExperimentEntry {
        name: "fig7",
        about: "the multi-modal \"special\" distribution vs its moment-matched normal",
        group: ExperimentGroup::Figure,
        run: |o| Ok(figs::fig7::render(&figs::fig7::run(o)?)),
    },
    ExperimentEntry {
        name: "fig8",
        about: "KS/CM of n-fold self-sums vs the CLT normal",
        group: ExperimentGroup::Figure,
        run: |o| Ok(figs::fig8::render(&figs::fig8::run(o)?)),
    },
    ExperimentEntry {
        name: "fig9",
        about: "slack ⊥ robustness on join-graph schedules",
        group: ExperimentGroup::Figure,
        run: |o| Ok(figs::fig9::render(&figs::fig9::run(o)?)),
    },
    ExperimentEntry {
        name: "ext-ul",
        about: "variable per-task uncertainty levels decouple E(M) from σ_M",
        group: ExperimentGroup::Extension,
        run: |o| Ok(ext::var_ul::render(&ext::var_ul::run(o)?)),
    },
    ExperimentEntry {
        name: "ext-dist",
        about: "metric equivalence under other uncertainty families",
        group: ExperimentGroup::Extension,
        run: |o| Ok(ext::distributions::render(&ext::distributions::run(o)?)),
    },
    ExperimentEntry {
        name: "ext-pareto",
        about: "E(M)~σ_M correlation near the Pareto front",
        group: ExperimentGroup::Extension,
        run: |o| Ok(ext::pareto::render(&ext::pareto::run(o)?)),
    },
    ExperimentEntry {
        name: "ext-grid",
        about: "accuracy vs PDF grid resolution (the paper's 64-point claim)",
        group: ExperimentGroup::Extension,
        run: |o| Ok(ext::grid_resolution::render(&ext::grid_resolution::run(o)?)),
    },
    ExperimentEntry {
        name: "ext-sigma",
        about: "σ-HEFT (risk-adjusted HEFT) vs HEFT on robustness",
        group: ExperimentGroup::Extension,
        run: |o| Ok(ext::sigma_heuristic::render(&ext::sigma_heuristic::run(o)?)),
    },
    ExperimentEntry {
        name: "ext-apps",
        about: "metric correlations on structured application DAGs",
        group: ExperimentGroup::Extension,
        run: |o| Ok(ext::apps::render(&ext::apps::run(o)?)),
    },
    ExperimentEntry {
        name: "ext-backends",
        about: "the correlation protocol under all four makespan evaluators",
        group: ExperimentGroup::Extension,
        run: |o| Ok(ext::backends::render(&ext::backends::run(o)?)),
    },
    ExperimentEntry {
        name: "ext-mc-convergence",
        about:
            "Monte-Carlo realization-budget convergence per estimator (plain/antithetic/stratified)",
        group: ExperimentGroup::Extension,
        run: |o| Ok(ext::mc_convergence::render(&ext::mc_convergence::run(o)?)),
    },
    ExperimentEntry {
        name: "ext-traces",
        about: "metric correlations on ingested real-workflow traces (DAX/WfCommons/DOT)",
        group: ExperimentGroup::Extension,
        run: |o| Ok(ext::traces::render(&ext::traces::run(o)?)),
    },
    ExperimentEntry {
        name: "ext-dynamic",
        about: "deadline hit-rates under arrival-driven load, per dropping policy",
        group: ExperimentGroup::Extension,
        run: |o| Ok(ext::dynamic::render(&ext::dynamic::run(o)?)),
    },
    ExperimentEntry {
        name: "ext-faults",
        about: "machine faults and recovery policies (abandon/retry/resched): goodput and metric rankings",
        group: ExperimentGroup::Extension,
        run: |o| Ok(ext::faults::render(&ext::faults::run(o)?)),
    },
    ExperimentEntry {
        name: "ext-adversarial",
        about: "adversarial scenario search (PISA-style): annealing chains that break the metric cluster",
        group: ExperimentGroup::Extension,
        run: |o| Ok(ext::adversarial::render(&ext::adversarial::run(o)?)),
    },
    ExperimentEntry {
        name: "serve",
        about: "line-delimited JSON evaluation server over stdin/stdout (EvalService)",
        group: ExperimentGroup::Service,
        run: crate::serve::run_serve,
    },
];

/// All registered experiments, figures first, in run order.
pub fn registry() -> &'static [ExperimentEntry] {
    &REGISTRY
}

/// Resolves an experiment by CLI name. Returns `None` for unknown names.
pub fn experiment_by_name(name: &str) -> Option<&'static ExperimentEntry> {
    REGISTRY.iter().find(|e| e.name == name)
}

/// The `list` subcommand's table.
pub fn render_list() -> String {
    let mut out = String::from("Registered experiments (run with: robusched-experiments <name>)\n");
    for group in [
        ExperimentGroup::Figure,
        ExperimentGroup::Extension,
        ExperimentGroup::Service,
    ] {
        out.push_str(match group {
            ExperimentGroup::Figure => "\npaper figures (umbrella: all)\n",
            ExperimentGroup::Extension => "\nextensions (umbrella: ext-all)\n",
            ExperimentGroup::Service => "\nevaluation serving (not part of all/ext-all)\n",
        });
        for e in REGISTRY.iter().filter(|e| e.group == group) {
            out.push_str(&format!("  {:<13} {}\n", e.name, e.about));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_entry_resolvable_and_unique() {
        let mut names: Vec<&str> = registry().iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), 22);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 22, "duplicate experiment names");
        for e in registry() {
            let found = experiment_by_name(e.name()).expect("resolvable");
            assert_eq!(found.name(), e.name());
            assert!(!found.about().is_empty());
        }
        assert!(experiment_by_name("fig0").is_none());
    }

    #[test]
    fn groups_cover_the_umbrella_commands() {
        let figures = registry()
            .iter()
            .filter(|e| e.group() == ExperimentGroup::Figure)
            .count();
        let extensions = registry()
            .iter()
            .filter(|e| e.group() == ExperimentGroup::Extension)
            .count();
        let service = registry()
            .iter()
            .filter(|e| e.group() == ExperimentGroup::Service)
            .count();
        assert_eq!(figures, 9);
        assert_eq!(extensions, 12);
        assert_eq!(service, 1);
    }

    #[test]
    fn list_mentions_every_experiment() {
        let text = render_list();
        for e in registry() {
            assert!(text.contains(e.name()), "{} missing from list", e.name());
        }
    }

    #[test]
    fn registry_runs_a_cheap_experiment_end_to_end() {
        let opts = RunOptions {
            scale: 0.05,
            out_dir: None,
            seed: 3,
            threads: None,
        };
        let text = experiment_by_name("fig3").unwrap().run(&opts).unwrap();
        assert!(text.contains("Pearson"));
    }
}
