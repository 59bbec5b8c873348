//! Extension: the metric-correlation study on real workflow traces.
//!
//! Every scenario family in the paper — and in the other extension
//! studies — is synthetic: layered random DAGs, dense-linear-algebra
//! graphs, parameterized application shapes. This study feeds the §V
//! protocol *measured* workflow structure instead: the three committed
//! trace fixtures under `tests/data/traces/` (Montage-like DAX,
//! Epigenomics-like WfCommons JSON, CyberShake-like DOT — one per
//! supported format, shapes and magnitudes mirroring the published
//! instances), ingested through `robusched_dag::parsers` and converted to
//! scenarios by [`Scenario::from_trace`]. Per trace and uncertainty level
//! the full streaming protocol runs (Pearson from the co-moment
//! accumulator, Spearman from the rank reservoir), and the summary
//! reports whether the σ/lateness/1−A equivalence cluster survives on
//! real structure.
//!
//! Artifacts: `ext_traces_<name>_pearson.csv` /
//! `ext_traces_<name>_spearman.csv` (one mean matrix each) and the
//! cross-trace `ext_traces_summary.csv`.

use crate::cases::CaseSet;
use crate::RunOptions;
use robusched_dag::parsers::{parse_trace, TraceDag};
use robusched_platform::{Scenario, TraceCalibration};
use robusched_randvar::derive_seed;

/// The committed sample traces: `(filename, content)`, one per format.
/// Embedded at compile time so the study (and the `trace` serve family)
/// runs from any working directory.
pub const SAMPLE_TRACES: [(&str, &str); 3] = [
    (
        "montage-like.dax",
        include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/data/traces/montage-like.dax"
        )),
    ),
    (
        "epigenomics-like.json",
        include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/data/traces/epigenomics-like.json"
        )),
    ),
    (
        "cybershake-like.dot",
        include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/data/traces/cybershake-like.dot"
        )),
    ),
];

/// Parses one committed sample trace by trace name (e.g. `"montage-like"`)
/// or filename (e.g. `"montage-like.dax"`). The fixtures are compile-time
/// constants, so a parse failure is a build defect — hence `expect`.
pub fn sample_trace(name: &str) -> Option<TraceDag> {
    SAMPLE_TRACES
        .iter()
        .find(|(file, _)| {
            *file == name || file.rsplit_once('.').map(|(stem, _)| stem) == Some(name)
        })
        .map(|(file, content)| parse_trace(file, content).expect("committed sample traces parse"))
}

/// All committed sample traces, in [`SAMPLE_TRACES`] order.
pub fn sample_traces() -> Vec<TraceDag> {
    SAMPLE_TRACES
        .iter()
        .map(|(file, content)| parse_trace(file, content).expect("committed sample traces parse"))
        .collect()
}

/// Aggregated result of one trace.
#[derive(Debug, Clone)]
pub struct TraceResult {
    /// Trace name (from the file).
    pub name: String,
    /// Source format (file extension: `dax`, `json`, `dot`).
    pub format: String,
    /// Task count of the trace.
    pub tasks: usize,
    /// Dependency count of the trace.
    pub edges: usize,
    /// Realized communication-to-computation ratio of the converted graph
    /// (preserved from the trace by the unit convention).
    pub ccr: f64,
    /// The trace's correlation matrices over its (UL) cases.
    pub corr: CaseSet,
}

/// Result of the whole study.
#[derive(Debug, Clone)]
pub struct Traces {
    /// One aggregate per committed trace, in [`SAMPLE_TRACES`] order.
    pub traces: Vec<TraceResult>,
}

/// Runs the study on the default calibration (the fixed 8-machine,
/// speed-CV-0.5 platform every earlier run of this study used).
pub fn run(opts: &RunOptions) -> std::io::Result<Traces> {
    run_with(opts, &TraceCalibration::default())
}

/// Runs the study: per trace, 2 uncertainty levels aggregated by one
/// [`CaseSet`]. The `calibration` chooses the platform each trace is
/// replayed on (machine count + speed heterogeneity).
pub fn run_with(opts: &RunOptions, calibration: &TraceCalibration) -> std::io::Result<Traces> {
    let schedules = opts.count(2_000, 60);
    let mut traces = Vec::with_capacity(SAMPLE_TRACES.len());
    for (ti, (file, content)) in SAMPLE_TRACES.iter().enumerate() {
        let trace = parse_trace(file, content)
            .map_err(|e| std::io::Error::other(format!("{file}: {e}")))?;
        let format = file.rsplit_once('.').map(|(_, ext)| ext).unwrap_or("?");
        let cases = [1.01, 1.1].into_iter().enumerate().map(|(ui, ul)| {
            let seed = derive_seed(opts.seed, 11_000 + 10 * ti as u64 + ui as u64);
            let scenario = Scenario::from_trace_with(&trace, calibration, ul, seed);
            (scenario, derive_seed(seed, 2))
        });
        let corr = CaseSet::run(opts, schedules, cases)?;
        opts.write_artifact(
            &format!("ext_traces_{}_pearson.csv", trace.name),
            &corr.pearson_mean.to_csv(),
        )?;
        opts.write_artifact(
            &format!("ext_traces_{}_spearman.csv", trace.name),
            &corr.spearman_mean.to_csv(),
        )?;
        traces.push(TraceResult {
            name: trace.name.clone(),
            format: format.to_string(),
            tasks: trace.task_count(),
            edges: trace.edge_count(),
            ccr: trace.to_task_graph().realized_ccr(),
            corr,
        });
    }
    let out = Traces { traces };
    opts.write_artifact("ext_traces_summary.csv", &summary_csv(&out))?;
    Ok(out)
}

/// Header of [`summary_csv`] — the schema `tests/ext_traces.rs` locks in.
pub const SUMMARY_HEADER: &str = "trace,format,tasks,edges,ccr,cases,\
p_std_lateness,p_std_absprob,p_std_relprob,p_makespan_std,\
s_std_lateness,s_std_absprob,cluster_survives";

/// The cross-trace comparison table: trace shape, key Pearson (`p_`) and
/// Spearman (`s_`) cells, and the cluster verdict.
pub fn summary_csv(t: &Traces) -> String {
    let mut out = format!("{SUMMARY_HEADER}\n");
    for r in &t.traces {
        out.push_str(&format!(
            "{},{},{},{},{:.4},{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{}\n",
            r.name,
            r.format,
            r.tasks,
            r.edges,
            r.ccr,
            r.corr.cases,
            r.corr.pearson("makespan_std", "avg_lateness"),
            r.corr.pearson("makespan_std", "abs_prob"),
            r.corr.pearson("makespan_std", "rel_prob"),
            r.corr.pearson("avg_makespan", "makespan_std"),
            r.corr.spearman("makespan_std", "avg_lateness"),
            r.corr.spearman("makespan_std", "abs_prob"),
            r.corr.cluster_holds(),
        ));
    }
    out
}

/// Human-readable rendering: the cross-trace table plus the verdict on
/// the equivalence cluster.
pub fn render(t: &Traces) -> String {
    let mut out = String::from(
        "Extension: metric correlations on real workflow traces\n\
         (DAX / WfCommons / DOT ingestion, consistent-heterogeneity platforms)\n\n\
         trace              fmt   tasks edges   CCR  p(σ~L)  p(σ~1−A)  s(σ~L)  cluster\n",
    );
    for r in &t.traces {
        out.push_str(&format!(
            "{:<18} {:<5} {:>5} {:>5} {:>5.3} {:>7.3} {:>9.3} {:>7.3}  {}\n",
            r.name,
            r.format,
            r.tasks,
            r.edges,
            r.ccr,
            r.corr.pearson("makespan_std", "avg_lateness"),
            r.corr.pearson("makespan_std", "abs_prob"),
            r.corr.spearman("makespan_std", "avg_lateness"),
            if r.corr.cluster_holds() { "yes" } else { "NO" },
        ));
    }
    let broken: Vec<&str> = t
        .traces
        .iter()
        .filter(|r| !r.corr.cluster_holds())
        .map(|r| r.name.as_str())
        .collect();
    out.push_str(&if broken.is_empty() {
        "\n→ the σ/lateness/1−A equivalence cluster survives on every real trace\n".to_string()
    } else {
        format!(
            "\n→ the equivalence cluster breaks on: {} — real structure matters\n",
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
    fn sample_traces_parse_and_resolve_by_name() {
        let all = sample_traces();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].name, "montage-like");
        assert_eq!(all[0].task_count(), 20);
        assert_eq!(all[0].edge_count(), 38);
        assert_eq!(all[1].name, "epigenomics-like");
        assert_eq!(all[1].task_count(), 20);
        assert_eq!(all[2].name, "cybershake-like");
        assert_eq!(all[2].task_count(), 20);
        // Lookup by stem and by filename, miss on unknown.
        assert!(sample_trace("montage-like").is_some());
        assert!(sample_trace("epigenomics-like.json").is_some());
        assert!(sample_trace("ligo-like").is_none());
    }

    #[test]
    fn traces_study_runs_at_tiny_scale() {
        let opts = RunOptions {
            scale: 0.004,
            out_dir: None,
            seed: 41,
            threads: None,
        };
        let t = run(&opts).unwrap();
        assert_eq!(t.traces.len(), 3);
        for r in &t.traces {
            assert_eq!(r.corr.cases, 2);
            assert_eq!(r.corr.pearson_mean.dim(), METRIC_LABELS.len());
            assert!(r.ccr > 0.0, "{}: CCR {}", r.name, r.ccr);
            // The cells are defined (not NaN) even at tiny scale.
            assert!(r.corr.pearson("makespan_std", "avg_lateness").is_finite());
            assert!(r.corr.spearman("makespan_std", "avg_lateness").is_finite());
        }
        let csv = summary_csv(&t);
        assert_eq!(csv.lines().count(), 4);
        assert!(csv.starts_with(SUMMARY_HEADER));
        assert!(render(&t).contains("cluster"));
    }

    #[test]
    fn custom_calibration_changes_the_platform() {
        let opts = RunOptions {
            scale: 0.004,
            out_dir: None,
            seed: 41,
            threads: None,
        };
        // A small homogeneous cluster instead of the default heterogeneous
        // 8-machine platform: the study still runs, and the correlations
        // genuinely differ (the platform matters).
        let custom = run_with(
            &opts,
            &TraceCalibration {
                machines: 4,
                speed_cov: 0.0,
            },
        )
        .unwrap();
        let default = run(&opts).unwrap();
        assert_eq!(custom.traces.len(), default.traces.len());
        let d = default.traces[0]
            .corr
            .pearson("makespan_std", "avg_lateness");
        let c = custom.traces[0]
            .corr
            .pearson("makespan_std", "avg_lateness");
        assert!(c.is_finite() && d.is_finite());
        assert_ne!(c.to_bits(), d.to_bits(), "platform had no effect");
    }
}
