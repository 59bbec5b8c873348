//! One module per reproduced figure.

pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;

use robusched_core::{pearson_matrix, MetricValues, StudyBuilder};
use robusched_stats::CorrMatrix;

use crate::cases::Case;
use crate::report::{metric_csv_header, metric_csv_row};
use crate::RunOptions;

/// The paper's heuristic set, in registry names.
pub const PAPER_HEURISTICS: [&str; 3] = ["HEFT", "BIL", "Hyb.BMCT"];

/// The outcome of one correlation figure.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Metrics of every random schedule, in sampling order.
    pub random: Vec<MetricValues>,
    /// Metrics of the heuristic schedules, labeled.
    pub heuristics: Vec<(String, MetricValues)>,
    /// Pearson correlation matrix over the random schedules, in the
    /// paper's plotting orientation (see
    /// [`MetricValues::oriented_vector`]).
    pub pearson: CorrMatrix,
}

/// Shared driver for the correlation figures (Figs. 3–5): runs one case
/// with the paper's protocol and writes the per-schedule metric CSV plus
/// the Pearson matrix.
///
/// Collects the metric rows with a sink (the figure CSVs list every
/// schedule) and computes the two-pass Pearson matrix over them.
pub fn correlation_figure(
    case: &Case,
    opts: &RunOptions,
    fig_name: &str,
) -> std::io::Result<CaseResult> {
    let scenario = case.scenario();
    let mut random = Vec::new();
    let mut collect = |_: usize, m: &MetricValues| random.push(*m);
    let study = StudyBuilder::new(&scenario)
        .random_schedules(opts.count(case.schedules, 60))
        .seed(case.seed)
        .threads_opt(opts.threads)
        .heuristics(&PAPER_HEURISTICS)
        .sink(&mut collect)
        .run()?;
    let res = CaseResult {
        pearson: pearson_matrix(&random),
        heuristics: study.heuristics,
        random,
    };

    let mut csv = metric_csv_header();
    for (i, m) in res.random.iter().enumerate() {
        csv.push_str(&metric_csv_row(&format!("random{i}"), m));
    }
    for (name, m) in &res.heuristics {
        csv.push_str(&metric_csv_row(name, m));
    }
    opts.write_artifact(&format!("{fig_name}_metrics.csv"), &csv)?;
    opts.write_artifact(&format!("{fig_name}_pearson.csv"), &res.pearson.to_csv())?;
    Ok(res)
}

/// Text summary of a correlation figure: the Pearson matrix and the
/// heuristic placements (the paper's "the three heuristics give always the
/// best makespan and often the best standard deviation").
pub fn correlation_summary(res: &CaseResult, title: &str) -> String {
    let mut out = format!("== {title} ==\n\n");
    out.push_str("Pearson matrix over random schedules (paper orientation):\n");
    out.push_str(&res.pearson.render_combined(&zeros_like(&res.pearson)));
    out.push('\n');
    let best_ms = res
        .random
        .iter()
        .map(|m| m.expected_makespan)
        .fold(f64::INFINITY, f64::min);
    let best_std = res
        .random
        .iter()
        .map(|m| m.makespan_std)
        .fold(f64::INFINITY, f64::min);
    out.push_str(&format!(
        "best random: makespan {best_ms:.2}, std {best_std:.4}\n"
    ));
    for (name, m) in &res.heuristics {
        out.push_str(&format!(
            "{name:>9}: makespan {:.2} ({:.1}% of best random), std {:.4}\n",
            m.expected_makespan,
            100.0 * m.expected_makespan / best_ms,
            m.makespan_std
        ));
    }
    out
}

fn zeros_like(m: &CorrMatrix) -> CorrMatrix {
    let k = m.dim();
    CorrMatrix::from_values(m.labels().to_vec(), vec![0.0; k * k])
}
