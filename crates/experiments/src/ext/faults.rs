//! Extension: fault injection and failure-aware recovery.
//!
//! The paper's robustness metrics are computed on an *intact* platform —
//! uncertainty lives in task durations, never in the machines. This study
//! breaks the machines: per-machine failure/repair processes
//! ([`robusched_dynamic::fault_by_spec`]: exponential and Weibull
//! MTBF/MTTR, plus transient task faults) injected into the arrival-driven
//! executor, crossed with the recovery policies of
//! [`robusched_dynamic::recovery_by_spec`] (`abandon`, capped `retry@k`
//! with exponential backoff, backlog-aware `resched`).
//!
//! Two questions, two phases:
//!
//! 1. **Sweep** — oversubscription × fault regime × recovery policy, all
//!    under the `reap` dropping policy. Does paying for recovery (retried
//!    work, repair waits) buy goodput — useful machine-time per unit
//!    capacity — over giving up? One row per cell in
//!    `ext_faults_summary.csv`; the headline verdict is whether some
//!    recovery policy strictly beats `abandon` on goodput in *every*
//!    faulty cell.
//! 2. **Ranking** — the paper's §IV metrics rank schedules offline, on the
//!    intact platform. Do those rankings survive machine faults? A fixed
//!    random scenario, HEFT plus random schedules, each pinned via the
//!    executor's schedule override and run under an aggressive fault
//!    regime; `ext_faults_ranking.csv` reports the Spearman correlation of
//!    each offline metric (oriented so larger = worse) against the faulted
//!    deadline miss-rate.
//!
//! Sweep cells are `ext-dynamic`'s [`SimCell`], sharded across threads by
//! index with per-cell derived seeds ([`RunOptions::sweep`]), so both
//! CSVs are bit-identical for any `--threads` value.

use super::dynamic::{mean_instance_work, workload_pool, SimCell};
use crate::RunOptions;
use robusched_core::{evaluate_metrics, OnlineMetrics, METRIC_LABELS};
use robusched_dynamic::{
    fault_by_spec, policy_by_spec, recovery_by_spec, DynamicSim, PoissonStream, SimConfig,
};
use robusched_platform::Scenario;
use robusched_randvar::derive_seed;
use robusched_sched::{heft, random_schedule, Schedule};
use robusched_stats::spearman;
use robusched_stochastic::{ClassicEvaluator, EvalContext, Evaluator};
use std::sync::Arc;

/// Uncertainty level of every workload (the paper's mid/high setting).
const UL: f64 = 1.1;

/// Oversubscription levels — both below nominal capacity, because
/// *effective* capacity sits well under nominal (each instance's tasks
/// stay on the machines its isolated HEFT schedule picked, leaving slower
/// machines idle; see the `ext-dynamic` calibration notes). These are the
/// regimes where recovery can matter: at and beyond saturation hit-rates
/// collapse for every policy, goodput is noise, and abandoning early wins
/// simply by shedding load — the regime `ext-dynamic` already charts.
pub const OVERSUB: [f64; 2] = [0.25, 0.5];

/// Fault-regime labels. Specs are built against the pool's mean
/// per-instance machine work `W̄` by [`fault_spec`], so "mild" and
/// "harsh" mean the same thing at every scale.
pub const FAULTS: [&str; 5] = ["none", "exp-mild", "exp-harsh", "weibull", "exp-trans"];

/// Recovery policies of the sweep
/// (see [`robusched_dynamic::recovery_by_spec`]).
pub const RECOVERY: [&str; 3] = ["abandon", "retry@3", "resched"];

/// Dropping policy of every cell: deadline reaping, the cheapest policy
/// that still abandons hopeless work — so goodput differences between
/// cells are attributable to the fault/recovery axis, not to dropping.
const DROP_POLICY: &str = "reap";

/// Deadline slack factor (the `ext-dynamic` calibration).
const DEADLINE_FACTOR: f64 = 3.0;

/// The concrete fault spec of a regime label, scaled by the pool's mean
/// per-instance machine work `W̄`: "mild" machines fail every ~10
/// instances' worth of work, "harsh" every ~3, repairs cost a large
/// fraction of one instance. The Weibull regime is wear-out-shaped
/// (k = 2) at the mild rate; `exp-trans` adds a 5% per-attempt transient
/// fault to the mild regime.
pub fn fault_spec(label: &str, mean_work: f64) -> String {
    let w = mean_work;
    match label {
        "none" => "none".into(),
        "exp-mild" => format!("exp@{}:{}", 10.0 * w, 0.5 * w),
        "exp-harsh" => format!("exp@{}:{}", 3.0 * w, w),
        "weibull" => format!("weibull@2:{}:{}", 10.0 * w, 0.5 * w),
        "exp-trans" => format!("exp@{}:{}+trans@0.05", 10.0 * w, 0.5 * w),
        other => panic!("unknown fault regime label '{other}'"),
    }
}

/// One cell of the sweep.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Arrival rate ÷ platform capacity.
    pub oversub: f64,
    /// Fault-regime label (a [`FAULTS`] entry).
    pub fault: String,
    /// Recovery-policy spec (a [`RECOVERY`] entry).
    pub recovery: String,
    /// Aggregated online counters of the cell's run.
    pub metrics: OnlineMetrics,
}

/// One row of the ranking phase: an offline metric's Spearman correlation
/// against the faulted deadline miss-rate, over the candidate schedules.
#[derive(Debug, Clone)]
pub struct RankingRow {
    /// Metric label ([`METRIC_LABELS`] entry, oriented larger-is-worse).
    pub metric: String,
    /// Spearman ρ of the metric vs the faulted miss-rate.
    pub spearman: f64,
}

/// Result of the whole study.
#[derive(Debug, Clone)]
pub struct Faults {
    /// Sweep cells (oversubscription outer, fault middle, recovery inner).
    pub cells: Vec<CellResult>,
    /// Instances per sweep cell.
    pub instances: usize,
    /// Ranking-phase rows, one per offline metric.
    pub ranking: Vec<RankingRow>,
    /// Candidate schedules of the ranking phase.
    pub ranked_schedules: usize,
}

impl Faults {
    /// The cell of one `(oversub, fault, recovery)` triple.
    pub fn cell(&self, oversub: f64, fault: &str, recovery: &str) -> Option<&CellResult> {
        self.cells
            .iter()
            .find(|c| c.oversub == oversub && c.fault == fault && c.recovery == recovery)
    }

    /// The acceptance headline: in *every* faulty cell (oversubscription ×
    /// nonzero fault regime), some recovery policy strictly beats
    /// `abandon` on goodput — giving up is never the best answer to a
    /// fault. (Which policy wins shifts with the regime: capped retry in
    /// the mild ones, backlog-aware rescheduling when repairs are slow.)
    pub fn recovery_dominates(&self) -> bool {
        OVERSUB.iter().all(|&o| {
            FAULTS.iter().filter(|f| **f != "none").all(|&f| {
                let Some(abandon) = self.cell(o, f, "abandon") else {
                    return false;
                };
                let base = abandon.metrics.goodput();
                RECOVERY.iter().filter(|r| **r != "abandon").any(|&r| {
                    self.cell(o, f, r)
                        .is_some_and(|c| c.metrics.goodput() > base)
                })
            })
        })
    }

    /// The ranking headline: the paper's robustness cluster (σ, lateness,
    /// 1 − A) still ranks schedules under faults — every cluster metric
    /// correlates positively with the faulted miss-rate.
    pub fn cluster_ranks_under_faults(&self) -> bool {
        ["makespan_std", "avg_lateness", "abs_prob"]
            .iter()
            .all(|m| {
                self.ranking
                    .iter()
                    .any(|r| r.metric == *m && r.spearman > 0.0)
            })
    }
}

/// Runs the study: the `OVERSUB × FAULTS × RECOVERY` sweep (sharded
/// across threads by cell index) followed by the sequential ranking phase.
pub fn run(opts: &RunOptions) -> std::io::Result<Faults> {
    let instances = opts.count(400, 24);
    let pool = workload_pool(derive_seed(opts.seed, 13_000));
    let mean_work = mean_instance_work(&pool);

    let cells: Vec<(f64, &str, &str)> = OVERSUB
        .iter()
        .flat_map(|&o| {
            FAULTS
                .iter()
                .flat_map(move |&f| RECOVERY.iter().map(move |&r| (o, f, r)))
        })
        .collect();
    let cells = opts.sweep(cells.len(), |idx| -> std::io::Result<CellResult> {
        let (oversub, fault_label, recovery_spec) = cells[idx];
        let policy = policy_by_spec(DROP_POLICY)
            .ok_or_else(|| std::io::Error::other(format!("bad policy spec '{DROP_POLICY}'")))?;
        let spec = fault_spec(fault_label, mean_work);
        let fault = fault_by_spec(&spec)
            .ok_or_else(|| std::io::Error::other(format!("bad fault spec '{spec}'")))?;
        let recovery = recovery_by_spec(recovery_spec)
            .ok_or_else(|| std::io::Error::other(format!("bad recovery spec '{recovery_spec}'")))?;
        // Seeded by the (oversub, fault) group — every recovery policy
        // faces the *same* arrivals, duration draws, and fault streams, so
        // goodput differences are attributable to recovery alone (and the
        // fault-free cells are bit-identical across recovery policies).
        let cell = SimCell {
            oversub,
            instances,
            seed: derive_seed(opts.seed, 13_100 + (idx / RECOVERY.len()) as u64),
            deadline_factor: DEADLINE_FACTOR,
            policy: policy.as_ref(),
            fault: fault.as_ref(),
            recovery: recovery.as_ref(),
        };
        Ok(CellResult {
            oversub,
            fault: fault_label.to_string(),
            recovery: recovery_spec.to_string(),
            metrics: cell.run(&pool, mean_work)?,
        })
    })?;

    let (ranking, ranked_schedules) = ranking_phase(opts)?;
    let out = Faults {
        cells,
        instances,
        ranking,
        ranked_schedules,
    };
    opts.write_artifact("ext_faults_summary.csv", &summary_csv(&out))?;
    opts.write_artifact("ext_faults_ranking.csv", &ranking_csv(&out))?;
    Ok(out)
}

/// Candidate schedules of the ranking phase (HEFT + random). Fixed across
/// scales so the committed ranking artifact and the smoke runs rank the
/// same field.
const RANKED_SCHEDULES: usize = 16;

/// The ranking phase: offline §IV metrics (classic evaluator, one
/// prepared context for every candidate) vs faulted deadline miss-rate,
/// per candidate schedule, on one fixed scenario. Sequential — a handful
/// of small simulations — so thread count can't touch the artifact.
fn ranking_phase(opts: &RunOptions) -> std::io::Result<(Vec<RankingRow>, usize)> {
    let scenario = Scenario::paper_random(30, 8, UL, derive_seed(opts.seed, 13_500));
    let evaluator = ClassicEvaluator::default();
    let mut schedules: Vec<Schedule> = vec![heft(&scenario)];
    for i in 0..RANKED_SCHEDULES as u64 - 1 {
        schedules.push(random_schedule(
            &scenario.graph.dag,
            scenario.machine_count(),
            derive_seed(opts.seed, 13_600 + i),
        ));
    }

    // The fault regime scales with this scenario's own machine work; MTBF
    // of twice the work-per-machine makes failures certain over the run
    // without drowning every schedule equally.
    let work: f64 = {
        let sched = &schedules[0];
        (0..scenario.task_count())
            .map(|v| scenario.det_task_cost(v, sched.machine_of(v)))
            .sum()
    };
    let per_machine = work / scenario.machine_count() as f64;
    let spec = format!("exp@{}:{}", 2.0 * per_machine, per_machine / 10.0);
    let fault = fault_by_spec(&spec)
        .ok_or_else(|| std::io::Error::other(format!("bad fault spec '{spec}'")))?;
    let recovery = recovery_by_spec("retry@3").expect("retry@3 is a valid recovery spec");
    let policy = policy_by_spec("never").expect("never is a valid policy spec");
    let arrivals = opts.count(200, 24);
    let rate = scenario.machine_count() as f64 / work;
    let shared = Arc::new(scenario);

    let mut cx = EvalContext::new(evaluator.prepare(&shared));
    let mut offline: Vec<[f64; 8]> = Vec::with_capacity(schedules.len());
    let mut miss_rates: Vec<f64> = Vec::with_capacity(schedules.len());
    for sched in &schedules {
        let metrics =
            evaluate_metrics(&evaluator, &shared, sched, &mut cx).map_err(std::io::Error::other)?;
        offline.push(metrics.oriented_vector());

        let mut stream = PoissonStream::new(
            vec![shared.clone()],
            rate,
            arrivals,
            derive_seed(opts.seed, 13_700),
        );
        let config = SimConfig {
            deadline_factor: DEADLINE_FACTOR,
            seed: derive_seed(opts.seed, 13_701),
            schedule: Some(sched.clone()),
            ..SimConfig::default()
        };
        let result =
            DynamicSim::with_faults(policy.as_ref(), config, fault.as_ref(), recovery.as_ref())
                .run(&mut stream)?;
        miss_rates.push(1.0 - result.metrics.workflow_hit_rate());
    }

    let ranking = METRIC_LABELS
        .iter()
        .enumerate()
        .map(|(i, label)| {
            let column: Vec<f64> = offline.iter().map(|v| v[i]).collect();
            RankingRow {
                metric: label.to_string(),
                spearman: spearman(&column, &miss_rates),
            }
        })
        .collect();
    Ok((ranking, schedules.len()))
}

/// Header of [`summary_csv`] — the schema `tests/ext_faults.rs` locks in.
pub const SUMMARY_HEADER: &str = "oversub,fault,recovery,instances,admitted,dropped,completed,\
workflows_met,hit_rate,goodput,wasted_frac,eff_utilization,retries_per_instance,\
machine_failures,killed_tasks,transient_faults";

/// One row per sweep cell.
pub fn summary_csv(d: &Faults) -> String {
    let mut out = format!("{SUMMARY_HEADER}\n");
    for c in &d.cells {
        let m = &c.metrics;
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{:.4},{:.4},{:.4},{:.4},{:.4},{},{},{}\n",
            c.oversub,
            c.fault,
            c.recovery,
            m.instances,
            m.admitted,
            m.dropped,
            m.completed,
            m.workflows_met,
            m.workflow_hit_rate(),
            m.goodput(),
            m.wasted_fraction(),
            m.effective_utilization(),
            m.retries_per_instance(),
            m.machine_failures,
            m.killed_tasks,
            m.transient_faults,
        ));
    }
    out
}

/// Header of [`ranking_csv`].
pub const RANKING_HEADER: &str = "metric,spearman_vs_faulted_miss_rate";

/// One row per offline metric.
pub fn ranking_csv(d: &Faults) -> String {
    let mut out = format!("{RANKING_HEADER}\n");
    for r in &d.ranking {
        out.push_str(&format!("{},{:.4}\n", r.metric, r.spearman));
    }
    out
}

/// Human-readable rendering: per (oversub, fault) the recovery table, the
/// dominance verdict, and the ranking table.
pub fn render(d: &Faults) -> String {
    let mut out = format!(
        "Extension: fault injection and failure-aware recovery\n\
         (mixed app/trace pool, {} instances per cell, drop policy '{DROP_POLICY}', \
         deadline = {DEADLINE_FACTOR} × isolated makespan)\n",
        d.instances
    );
    for &o in &OVERSUB {
        for &f in &FAULTS {
            out.push_str(&format!("\noversubscription ×{o}, faults {f}\n"));
            out.push_str("  recovery   hit-rate  goodput  wasted  eff-util  retries/inst  kills\n");
            for c in d.cells.iter().filter(|c| c.oversub == o && c.fault == f) {
                let m = &c.metrics;
                out.push_str(&format!(
                    "  {:<10} {:>7.3} {:>8.3} {:>7.3} {:>9.3} {:>13.3} {:>6}\n",
                    c.recovery,
                    m.workflow_hit_rate(),
                    m.goodput(),
                    m.wasted_fraction(),
                    m.effective_utilization(),
                    m.retries_per_instance(),
                    m.killed_tasks,
                ));
            }
        }
    }
    out.push_str(if d.recovery_dominates() {
        "\n→ in every faulty cell some recovery policy strictly beats abandon on goodput\n"
    } else {
        "\n→ abandoning is the best recovery in at least one faulty cell\n"
    });
    out.push_str(&format!(
        "\nSchedule ranking under faults ({} schedules, Spearman vs faulted miss-rate):\n",
        d.ranked_schedules
    ));
    for r in &d.ranking {
        out.push_str(&format!("  {:<17} {:>7.3}\n", r.metric, r.spearman));
    }
    out.push_str(if d.cluster_ranks_under_faults() {
        "→ the σ/lateness/1−A robustness cluster still ranks schedules under machine faults\n"
    } else {
        "→ the σ/lateness/1−A cluster does NOT rank reliably once machines fail\n"
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts(threads: Option<usize>) -> RunOptions {
        RunOptions {
            scale: 0.0, // clamps to the floors
            out_dir: None,
            seed: 31,
            threads,
        }
    }

    #[test]
    fn fault_specs_parse_for_every_label() {
        for label in FAULTS {
            let spec = fault_spec(label, 123.4);
            assert!(fault_by_spec(&spec).is_some(), "{label} → {spec}");
        }
        for recovery in RECOVERY {
            assert!(recovery_by_spec(recovery).is_some(), "{recovery}");
        }
    }

    #[test]
    fn sweep_runs_and_summarizes_at_tiny_scale() {
        let d = run(&tiny_opts(Some(2))).unwrap();
        assert_eq!(d.cells.len(), OVERSUB.len() * FAULTS.len() * RECOVERY.len());
        assert_eq!(d.instances, 24);
        assert_eq!(d.ranking.len(), METRIC_LABELS.len());
        assert_eq!(d.ranked_schedules, RANKED_SCHEDULES);
        for c in &d.cells {
            assert_eq!(c.metrics.instances, 24);
            if c.fault == "none" {
                assert_eq!(c.metrics.machine_failures, 0, "{}", c.fault);
            } else {
                assert!(c.metrics.machine_failures > 0, "{} must inject", c.fault);
            }
        }
        // Fault-free cells are recovery-invariant: the policy never fires.
        for &o in &OVERSUB {
            let base = d.cell(o, "none", "abandon").unwrap();
            for r in &RECOVERY[1..] {
                let c = d.cell(o, "none", r).unwrap();
                assert_eq!(c.metrics, base.metrics, "recovery must be inert at ×{o}");
            }
        }
        let csv = summary_csv(&d);
        assert_eq!(csv.lines().count(), 1 + d.cells.len());
        assert!(csv.starts_with(SUMMARY_HEADER));
        let rcsv = ranking_csv(&d);
        assert_eq!(rcsv.lines().count(), 1 + METRIC_LABELS.len());
        assert!(render(&d).contains("faults exp-harsh"));
    }

    #[test]
    fn summary_is_bit_identical_across_thread_counts() {
        let a = run(&tiny_opts(Some(1))).unwrap();
        let b = run(&tiny_opts(Some(3))).unwrap();
        assert_eq!(summary_csv(&a), summary_csv(&b));
        assert_eq!(ranking_csv(&a), ranking_csv(&b));
    }
}
