//! Extension: adversarial scenario search (PISA-style) — where does the
//! metric-equivalence cluster break?
//!
//! Every other extension study *averages* over random scenarios and finds
//! the paper's σ/lateness/1−A cluster intact. Following PISA
//! (arXiv 2403.07120) this study *searches*: per cell, one simulated-
//! annealing chain (`robusched_core::anneal`) walks scenario space under
//! the seed-deterministic move table (`robusched_stochastic::perturb`),
//! maximizing one of the three adversarial objectives ([`Objective`]:
//! `cluster-deficit`, `rank-gap`, `heuristic-regret`). Chains start from
//! the committed sample traces and from paper-style layered random DAGs;
//! restarts are independent chains with derived seeds, sharded across
//! threads by [`RunOptions::sweep`] — results arrive in chain order, so
//! `ext_adversarial_summary.csv` is bit-identical for any `--threads`.
//!
//! Chains whose best point certifies a cluster break (a paper-cluster
//! Pearson correlation below the shared 0.9 threshold, non-degenerate)
//! *and* still replays through `Scenario::from_trace` are committed to the
//! counterexample gallery: `ext_adversarial_gallery/<chain>.json`
//! (WfCommons, via the PR 7 writer) plus `ext_adversarial_gallery/
//! gallery.csv` with the exact replay knobs ([`replay_gallery_entry`]
//! re-evaluates a row bit for bit; `tests/ext_adversarial.rs` pins the
//! committed gallery that way).
//!
//! Artifacts: `ext_adversarial_summary.csv` (one row per chain) and the
//! gallery directory above.

use crate::ext::traces::sample_trace;
use crate::RunOptions;
use robusched_core::Objective::{ClusterDeficit, HeuristicRegret, RankGap};
use robusched_core::{anneal, AnnealConfig, AnnealResult, Objective, ObjectiveReport, StudyError};
use robusched_dag::generators::{layered_random, LayeredRandomConfig};
use robusched_dag::parsers::wfcommons::{parse_wfcommons, write_wfcommons};
use robusched_dag::parsers::{TraceDag, REF_BANDWIDTH, REF_SPEED};
use robusched_dag::TaskGraph;
use robusched_platform::Scenario;
use robusched_randvar::derive_seed;
use robusched_stochastic::perturb::SearchPoint;

/// The start platform every chain shares — the `ext-traces` default
/// calibration (8 machines, speed CV 0.5) at the paper's moderate
/// uncertainty level.
const START_MACHINES: usize = 8;
const START_SPEED_COV: f64 = 0.5;
const START_UL: f64 = 1.1;

/// One search cell: an objective, a start, and a move-set flavour.
struct CellSpec {
    objective: Objective,
    /// Start name: a sample-trace stem or `layered-<n>`.
    start: &'static str,
    /// Restrict the chain to replayable moves (gallery-eligible)?
    replayable_only: bool,
}

/// The study's chains, in chain-index order. Cluster-deficit gets the
/// widest start pool (it feeds the gallery); one chain per objective also
/// runs the *full* move set (per-task UL jitter, unrelatedness) to probe
/// the knobs the gallery cannot commit.
#[rustfmt::skip]
const CELLS: [CellSpec; 12] = [
    CellSpec { objective: ClusterDeficit,  start: "montage-like",     replayable_only: true },
    CellSpec { objective: ClusterDeficit,  start: "epigenomics-like", replayable_only: true },
    CellSpec { objective: ClusterDeficit,  start: "cybershake-like",  replayable_only: true },
    CellSpec { objective: ClusterDeficit,  start: "layered-16",       replayable_only: true },
    CellSpec { objective: ClusterDeficit,  start: "layered-24",       replayable_only: true },
    CellSpec { objective: ClusterDeficit,  start: "layered-32",       replayable_only: true },
    CellSpec { objective: ClusterDeficit,  start: "layered-24",       replayable_only: false },
    CellSpec { objective: RankGap,         start: "montage-like",     replayable_only: true },
    CellSpec { objective: RankGap,         start: "layered-24",       replayable_only: true },
    CellSpec { objective: RankGap,         start: "epigenomics-like", replayable_only: false },
    CellSpec { objective: HeuristicRegret, start: "cybershake-like",  replayable_only: true },
    CellSpec { objective: HeuristicRegret, start: "layered-16",       replayable_only: true },
];

/// Converts a generated [`TaskGraph`] into a [`TraceDag`] start point
/// (tasks `t0…`, flops/bytes via the parsers' unit convention). The
/// round trip back through `to_task_graph` reproduces the graph up to the
/// mean-work normalization, which is exactly the equivalence the search
/// operates under.
fn graph_to_trace(name: &str, graph: &TaskGraph) -> TraceDag {
    let tasks: Vec<(String, f64)> = graph
        .task_work
        .iter()
        .enumerate()
        .map(|(i, w)| (format!("t{i}"), w * REF_SPEED))
        .collect();
    let edges: Vec<(usize, usize, f64)> = (0..graph.comm_volume.len())
        .map(|e| {
            let (u, v) = graph.dag.edge_endpoints(e);
            (u, v, graph.comm_volume[e] * REF_BANDWIDTH)
        })
        .collect();
    TraceDag::from_parts(name, &tasks, &edges).expect("generated graphs are valid traces")
}

/// Resolves a start name: a committed sample trace by stem, or
/// `layered-<n>` (a paper-style layered random DAG with a start seed
/// derived from the study seed).
fn start_trace(name: &str, study_seed: u64) -> TraceDag {
    if let Some(trace) = sample_trace(name) {
        return trace;
    }
    let n: usize = name
        .strip_prefix("layered-")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unknown start {name}"));
    let cfg = LayeredRandomConfig {
        n,
        ..Default::default()
    };
    let graph = layered_random(&cfg, derive_seed(study_seed, 40_000 + n as u64));
    graph_to_trace(name, &graph)
}

/// One chain's outcome.
#[derive(Debug)]
pub struct ChainResult {
    /// The objective the chain maximized.
    pub objective: Objective,
    /// Chain index (also the restart index).
    pub chain: usize,
    /// Move set: `"replayable"` or `"full"`.
    pub moves: &'static str,
    /// Start name.
    pub start: String,
    /// Best point found.
    pub best: SearchPoint,
    /// The start point's report (the un-searched control).
    pub start_report: ObjectiveReport,
    /// The best point's report.
    pub best_report: ObjectiveReport,
    /// Objective evaluations in the chain.
    pub evals: usize,
    /// Accepted proposals.
    pub accepted: usize,
    /// Step at which the best point was found.
    pub best_step: usize,
    /// Random schedules per evaluation.
    pub schedules: usize,
    /// Proposal steps.
    pub steps: usize,
    /// The common-random-numbers study seed (needed to replay a gallery
    /// row bit for bit).
    pub study_seed: u64,
    /// Gallery filename, when the chain was committed.
    pub gallery_file: Option<String>,
}

impl ChainResult {
    /// Whether the best point certifies a paper-cluster break.
    pub fn counterexample(&self) -> bool {
        self.best_report.cluster_broken()
    }
}

/// Result of the whole study.
#[derive(Debug)]
pub struct Adversarial {
    /// One result per chain, in chain order.
    pub chains: Vec<ChainResult>,
}

impl Adversarial {
    /// The chains committed to the gallery, in chain order.
    pub fn gallery(&self) -> Vec<&ChainResult> {
        self.chains
            .iter()
            .filter(|c| c.gallery_file.is_some())
            .collect()
    }
}

/// Runs one chain (cell `idx` of [`CELLS`]).
fn run_chain(
    idx: usize,
    spec: &CellSpec,
    opts: &RunOptions,
    steps: usize,
    schedules: usize,
) -> Result<ChainResult, StudyError> {
    let cell_seed = derive_seed(opts.seed, 13_000 + idx as u64);
    let trace = start_trace(spec.start, opts.seed);
    let start = SearchPoint::from_trace(
        trace,
        START_MACHINES,
        START_SPEED_COV,
        START_UL,
        derive_seed(cell_seed, 7),
    );
    let cfg = AnnealConfig {
        steps,
        schedules,
        seed: cell_seed,
        replayable_only: spec.replayable_only,
    };
    let AnnealResult {
        start_report,
        best,
        best_report,
        evals,
        accepted,
        best_step,
    } = anneal(&start, spec.objective, &cfg)?;
    Ok(ChainResult {
        objective: spec.objective,
        chain: idx,
        moves: if spec.replayable_only {
            "replayable"
        } else {
            "full"
        },
        start: spec.start.to_string(),
        best,
        start_report,
        best_report,
        evals,
        accepted,
        best_step,
        schedules,
        steps,
        study_seed: derive_seed(cell_seed, 1),
        gallery_file: None,
    })
}

/// Runs the study: the fixed cell-table's chains sharded across threads
/// (whole chains per thread, delivered in chain order — so every artifact
/// is independent of `--threads`), then commits the gallery.
pub fn run(opts: &RunOptions) -> std::io::Result<Adversarial> {
    let steps = opts.count(48, 4);
    let schedules = opts.count(160, 24);
    let mut chains = opts.sweep(CELLS.len(), |idx| {
        run_chain(idx, &CELLS[idx], opts, steps, schedules)
    })?;

    // Commit the gallery: cluster-breaking, from_trace-replayable bests.
    // Each candidate is round-tripped through the WfCommons writer/parser
    // and *re-evaluated from the parsed trace* before committing: the
    // writer stores runtimes as `flops / REF_SPEED`, which is not a
    // bit-exact round trip for every weight, so the committed correlations
    // are the ones a replay of the committed file reproduces exactly (and
    // a candidate whose break does not survive the round trip is
    // rejected rather than committed on faith).
    let mut gallery_csv = String::from(GALLERY_HEADER);
    gallery_csv.push('\n');
    for c in chains.iter_mut() {
        if !(c.counterexample() && c.best.replays_from_trace()) {
            continue;
        }
        let file = format!("chain{:02}_{}.json", c.chain, c.start);
        let json = write_wfcommons(&c.best.trace);
        let replayed = parse_wfcommons(&json, &file)
            .map_err(|e| std::io::Error::other(format!("{file}: {e}")))?;
        let report = replay_gallery_entry(
            &replayed,
            c.best.machines,
            c.best.speed_cov,
            c.best.ul,
            c.best.seed,
            c.schedules,
            c.study_seed,
        )?;
        if !report.cluster_broken() {
            continue;
        }
        if let Some(dir) = &opts.out_dir {
            std::fs::create_dir_all(dir.join("ext_adversarial_gallery"))?;
        }
        opts.write_artifact(&format!("ext_adversarial_gallery/{file}"), &json)?;
        gallery_csv.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{}\n",
            file,
            c.objective.name(),
            c.chain,
            c.best.machines,
            c.best.speed_cov,
            c.best.ul,
            c.best.seed,
            c.schedules,
            c.study_seed,
            report.p_std_lateness,
            report.p_std_absprob,
        ));
        c.gallery_file = Some(file);
    }
    let out = Adversarial { chains };
    if !out.gallery().is_empty() {
        opts.write_artifact("ext_adversarial_gallery/gallery.csv", &gallery_csv)?;
    }
    opts.write_artifact("ext_adversarial_summary.csv", &summary_csv(&out))?;
    Ok(out)
}

/// Re-evaluates a committed gallery row bit for bit: the scenario is
/// rebuilt with `Scenario::from_trace` from the parsed WfCommons trace and
/// the row's knobs, and scored by the `cluster-deficit` objective under
/// the row's study seed. The returned report's `p_std_lateness` /
/// `p_std_absprob` reproduce the committed values exactly (the random-
/// schedule stream is a pure function of the study seed, regardless of
/// which objective found the point).
pub fn replay_gallery_entry(
    trace: &TraceDag,
    machines: usize,
    speed_cov: f64,
    ul: f64,
    scenario_seed: u64,
    schedules: usize,
    study_seed: u64,
) -> Result<ObjectiveReport, StudyError> {
    let scenario = Scenario::from_trace(trace, machines, speed_cov, ul, scenario_seed);
    Objective::ClusterDeficit.evaluate(&scenario, schedules, study_seed)
}

/// Header of [`summary_csv`] — the schema `tests/ext_adversarial.rs`
/// locks in.
pub const SUMMARY_HEADER: &str = "objective,chain,moves,start,tasks,edges,machines,\
speed_cov,ul,scenario_seed,schedules,steps,evals,accepted,start_score,best_score,\
best_step,p_std_lateness,p_std_absprob,counterexample,gallery_file";

/// Header of the gallery index CSV (exact replay knobs; floats in
/// shortest-roundtrip form).
pub const GALLERY_HEADER: &str = "file,objective,chain,machines,speed_cov,ul,\
scenario_seed,schedules,study_seed,p_std_lateness,p_std_absprob";

/// The per-chain comparison table. Scenario knobs are printed in
/// shortest-roundtrip form (they are replay inputs); scores are rounded
/// for reading.
pub fn summary_csv(a: &Adversarial) -> String {
    let mut out = format!("{SUMMARY_HEADER}\n");
    for c in &a.chains {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{:.6},{:.6},{},{:.6},{:.6},{},{}\n",
            c.objective.name(),
            c.chain,
            c.moves,
            c.start,
            c.best.trace.task_count(),
            c.best.trace.edge_count(),
            c.best.machines,
            c.best.speed_cov,
            c.best.ul,
            c.best.seed,
            c.schedules,
            c.steps,
            c.evals,
            c.accepted,
            c.start_report.score,
            c.best_report.score,
            c.best_step,
            c.best_report.p_std_lateness,
            c.best_report.p_std_absprob,
            c.counterexample(),
            c.gallery_file.as_deref().unwrap_or("-"),
        ));
    }
    out
}

/// Human-readable rendering: the per-chain table plus the gallery verdict.
pub fn render(a: &Adversarial) -> String {
    let mut out = String::from(
        "Extension: adversarial scenario search (PISA-style)\n\
         (simulated annealing over the move table, per-chain derived seeds)\n\n\
         objective         chain start             start→best score   p(σ~L)  p(σ~1−A)  counter\n",
    );
    for c in &a.chains {
        out.push_str(&format!(
            "{:<17} {:>5} {:<17} {:>7.3} → {:>6.3} {:>8.3} {:>9.3}  {}\n",
            c.objective.name(),
            c.chain,
            c.start,
            c.start_report.score,
            c.best_report.score,
            c.best_report.p_std_lateness,
            c.best_report.p_std_absprob,
            if c.counterexample() { "YES" } else { "no" },
        ));
    }
    let gallery = a.gallery();
    out.push_str(&if gallery.is_empty() {
        "\n→ no committed counterexamples at this scale (run at --scale 1 for the gallery)\n"
            .to_string()
    } else {
        format!(
            "\n→ {} counterexample(s) committed to ext_adversarial_gallery/: \
             the σ/lateness/1−A cluster is breakable by search\n",
            gallery.len()
        )
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_resolve_and_layered_round_trips() {
        for spec in &CELLS {
            let t = start_trace(spec.start, 42);
            assert!(t.task_count() >= 2, "{}", spec.start);
            assert!(t.dag.is_acyclic());
        }
        let t = start_trace("layered-16", 42);
        assert_eq!(t.task_count(), 16);
        // The converted trace yields a valid scenario.
        let p = SearchPoint::from_trace(t, 4, 0.5, 1.1, 9);
        assert!(p.replays_from_trace());
        let _ = p.to_scenario();
    }

    #[test]
    fn adversarial_study_runs_at_tiny_scale() {
        let opts = RunOptions {
            scale: 0.002,
            out_dir: None,
            seed: 41,
            threads: Some(2),
        };
        let a = run(&opts).unwrap();
        assert_eq!(a.chains.len(), CELLS.len());
        for (i, c) in a.chains.iter().enumerate() {
            assert_eq!(c.chain, i);
            assert!(c.evals >= 1);
            assert!(
                c.best_report.score >= c.start_report.score || !c.best_report.score.is_finite()
            );
        }
        let csv = summary_csv(&a);
        assert!(csv.starts_with(SUMMARY_HEADER));
        assert_eq!(csv.lines().count(), CELLS.len() + 1);
        assert!(render(&a).contains("objective"));
    }
}
