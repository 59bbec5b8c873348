//! Extension: arrival-driven (online) execution with task dropping.
//!
//! The paper evaluates schedules one DAG at a time; every robustness
//! metric is computed offline, before anything runs. This study asks the
//! operational follow-up: when workflow instances *keep arriving* — at up
//! to several times the platform's drain rate — which dropping policy
//! keeps the most work inside its deadlines, and at what cost in wasted
//! machine time?
//!
//! The sweep crosses an **oversubscription level** (arrival rate as a
//! multiple of platform capacity: `λ = oversub × m ÷ W̄`, with `W̄` the
//! mean per-instance machine work under the HEFT schedule) with a
//! **dropping policy** ([`robusched_dynamic::policy_by_spec`] specs:
//! `never`, `reap`, probabilistic `prune@θ` / `gate@θ` for three
//! thresholds). The workload pool mixes all five structured application
//! classes with the three committed real-workflow traces, so every DAG
//! family the repository can generate flows through the same event loop.
//! Each cell is one [`SimCell`]: a deterministic [`DynamicSim`] over a
//! Poisson stream. Cells are sharded across threads by index with
//! per-cell derived seeds ([`RunOptions::sweep`]), so the summary CSV is
//! bit-identical for any `--threads` value. `ext-faults` and `serve`'s
//! `dynamic` family run the same [`SimCell`].
//!
//! Artifact: `ext_dynamic_summary.csv` (one row per cell). The headline
//! verdict — pinned by `tests/ext_dynamic.rs` on the committed full-scale
//! artifact — is whether at least one probabilistic policy strictly beats
//! never-drop on deadline hit-rate under oversubscription.

use crate::RunOptions;
use robusched_core::OnlineMetrics;
use robusched_dag::apps::AppClass;
use robusched_dynamic::{
    policy_by_spec, Abandon, DropPolicy, DynamicSim, FaultModel, NoFaults, PoissonStream,
    RecoveryPolicy, SimConfig, SimError,
};
use robusched_platform::{Scenario, TraceCalibration};
use robusched_randvar::derive_seed;
use robusched_sched::heuristic_by_name;
use std::sync::Arc;

/// Uncertainty level of every workload (the paper's mid/high setting).
const UL: f64 = 1.1;

/// Oversubscription levels: arrival rate ÷ nominal platform capacity.
/// Effective capacity sits well below nominal — every instance's tasks
/// stay on the machines its isolated HEFT schedule picked, and that
/// static assignment leaves slower machines idle — so the low end of the
/// grid is what keeps a healthy-baseline regime in the sweep.
pub const OVERSUB: [f64; 5] = [0.25, 0.5, 1.0, 2.0, 3.0];

/// Policy specs of the sweep (see [`robusched_dynamic::policy_by_spec`]).
pub const POLICIES: [&str; 8] = [
    "never",
    "reap",
    "prune@0.25",
    "prune@0.5",
    "prune@0.75",
    "gate@0.25",
    "gate@0.5",
    "gate@0.75",
];

/// Deadline slack factor: deadline = arrival + 3 × isolated makespan.
/// Queueing roughly doubles sojourn time against the isolated makespan
/// even at half load, so a tighter factor (the executor's 1.5 default)
/// leaves no headroom anywhere and every policy flatlines; 3× gives the
/// sweep its dynamic range — healthy hit-rates when undersubscribed,
/// collapse beyond capacity.
const DEADLINE_FACTOR: f64 = 3.0;

/// The mixed workload pool: all five structured application classes at
/// small sizes plus the three committed real-workflow traces, all on the
/// default 8-machine reference platform.
pub fn workload_pool(seed: u64) -> Vec<Arc<Scenario>> {
    let cal = TraceCalibration::default();
    let mut pool = Vec::with_capacity(8);
    // Sizes chosen so every class lands near 10–14 tasks (comparable per-
    // instance work; the task_count() closed forms document the mapping).
    let sizes = [
        (AppClass::Cholesky, 4),
        (AppClass::Lu, 3),
        (AppClass::FftButterfly, 4),
        (AppClass::Stencil, 3),
        (AppClass::ForkJoin, 8),
    ];
    for (i, (class, n)) in sizes.into_iter().enumerate() {
        let s = derive_seed(seed, 100 + i as u64);
        pool.push(Arc::new(Scenario::structured_app(
            class.generate(n, s),
            cal.machines,
            cal.speed_cov,
            UL,
            s,
        )));
    }
    for (i, trace) in crate::ext::traces::sample_traces().iter().enumerate() {
        let s = derive_seed(seed, 200 + i as u64);
        pool.push(Arc::new(Scenario::from_trace_with(trace, &cal, UL, s)));
    }
    pool
}

/// Mean per-instance machine work of the pool under each workload's HEFT
/// schedule — the `W̄` of the oversubscription calibration (`λ =
/// oversub × m ÷ W̄`). Shared with the `serve` front end's `dynamic`
/// request family so both calibrate load the same way.
pub fn mean_instance_work(pool: &[Arc<Scenario>]) -> f64 {
    let heft = heuristic_by_name("heft").expect("heft is registered");
    let total: f64 = pool
        .iter()
        .map(|s| {
            let sched = heft.schedule(s).expect("pool scenarios schedule");
            (0..s.task_count())
                .map(|v| s.det_task_cost(v, sched.machine_of(v)))
                .sum::<f64>()
        })
        .sum();
    total / pool.len() as f64
}

/// One online simulation over a workload pool: Poisson arrivals at
/// `λ = oversub × m ÷ W̄`, each instance scheduled by HEFT with deadline
/// `arrival + deadline_factor × isolated makespan`.
pub struct SimCell<'a> {
    /// Arrival rate ÷ nominal platform capacity.
    pub oversub: f64,
    /// Arrivals in the stream.
    pub instances: usize,
    /// Cell seed: the stream uses `derive_seed(seed, 1)`, the simulation
    /// `derive_seed(seed, 2)`.
    pub seed: u64,
    /// Deadline slack factor.
    pub deadline_factor: f64,
    /// Dropping policy.
    pub policy: &'a dyn DropPolicy,
    /// Machine and transient fault model ([`NoFaults`] for none).
    pub fault: &'a dyn FaultModel,
    /// Recovery of killed tasks ([`Abandon`] when nothing fails).
    pub recovery: &'a dyn RecoveryPolicy,
}

impl SimCell<'_> {
    /// Runs the cell over `pool`, whose mean per-instance machine work is
    /// `mean_work` ([`mean_instance_work`]). An arrival rate that is not
    /// finite and positive (an `oversub` so large that the rate
    /// overflows) is [`SimError::ArrivalRate`].
    pub fn run(&self, pool: &[Arc<Scenario>], mean_work: f64) -> Result<OnlineMetrics, SimError> {
        let rate = self.oversub * pool[0].machine_count() as f64 / mean_work;
        if !(rate.is_finite() && rate > 0.0) {
            return Err(SimError::ArrivalRate);
        }
        let mut stream = PoissonStream::new(
            pool.to_vec(),
            rate,
            self.instances,
            derive_seed(self.seed, 1),
        );
        let config = SimConfig {
            heuristic: "heft".into(),
            deadline_factor: self.deadline_factor,
            seed: derive_seed(self.seed, 2),
            schedule: None,
        };
        let sim = DynamicSim::with_faults(self.policy, config, self.fault, self.recovery);
        Ok(sim.run(&mut stream)?.metrics)
    }
}

/// One cell of the sweep.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Arrival rate ÷ platform capacity.
    pub oversub: f64,
    /// Policy spec (CSV name).
    pub policy: String,
    /// Aggregated online counters of the cell's run.
    pub metrics: OnlineMetrics,
}

/// Result of the whole study.
#[derive(Debug, Clone)]
pub struct Dynamic {
    /// Cells in sweep order (oversubscription outer, policy inner).
    pub cells: Vec<CellResult>,
    /// Instances per cell.
    pub instances: usize,
}

impl Dynamic {
    /// The cell of one `(oversub, policy)` pair.
    pub fn cell(&self, oversub: f64, policy: &str) -> Option<&CellResult> {
        self.cells
            .iter()
            .find(|c| c.oversub == oversub && c.policy == policy)
    }

    /// The acceptance headline: some probabilistic policy (`prune@θ` or
    /// `gate@θ`) strictly beats never-drop on workflow deadline hit-rate
    /// at every oversubscribed load (> 1).
    pub fn pruning_dominates(&self) -> bool {
        OVERSUB.iter().filter(|&&o| o > 1.0).all(|&o| {
            let Some(never) = self.cell(o, "never") else {
                return false;
            };
            let base = never.metrics.workflow_hit_rate();
            self.cells.iter().any(|c| {
                c.oversub == o
                    && (c.policy.starts_with("prune@") || c.policy.starts_with("gate@"))
                    && c.metrics.workflow_hit_rate() > base
            })
        })
    }
}

/// Runs the sweep: `OVERSUB × POLICIES` cells, each one [`SimCell`],
/// sharded across threads by cell index.
pub fn run(opts: &RunOptions) -> std::io::Result<Dynamic> {
    let instances = opts.count(400, 24);
    let pool = workload_pool(derive_seed(opts.seed, 12_000));
    let mean_work = mean_instance_work(&pool);

    let cells: Vec<(f64, &str)> = OVERSUB
        .iter()
        .flat_map(|&o| POLICIES.iter().map(move |&p| (o, p)))
        .collect();
    let cells = opts.sweep(cells.len(), |idx| -> std::io::Result<CellResult> {
        let (oversub, spec) = cells[idx];
        let policy = policy_by_spec(spec)
            .ok_or_else(|| std::io::Error::other(format!("bad policy spec '{spec}'")))?;
        let cell = SimCell {
            oversub,
            instances,
            seed: derive_seed(opts.seed, 12_100 + idx as u64),
            deadline_factor: DEADLINE_FACTOR,
            policy: policy.as_ref(),
            fault: NoFaults::none(),
            recovery: &Abandon,
        };
        Ok(CellResult {
            oversub,
            policy: spec.to_string(),
            metrics: cell.run(&pool, mean_work)?,
        })
    })?;
    let out = Dynamic { cells, instances };
    opts.write_artifact("ext_dynamic_summary.csv", &summary_csv(&out))?;
    Ok(out)
}

/// Header of [`summary_csv`] — the schema `tests/ext_dynamic.rs` locks in.
pub const SUMMARY_HEADER: &str = "oversub,policy,instances,admitted,rejected,dropped,completed,\
workflows_met,hit_rate,task_hit_rate,wasted_frac,utilization,eff_utilization";

/// One row per sweep cell.
pub fn summary_csv(d: &Dynamic) -> String {
    let mut out = format!("{SUMMARY_HEADER}\n");
    for c in &d.cells {
        let m = &c.metrics;
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{:.4},{:.4},{:.4},{:.4},{:.4}\n",
            c.oversub,
            c.policy,
            m.instances,
            m.admitted,
            m.rejected,
            m.dropped,
            m.completed,
            m.workflows_met,
            m.workflow_hit_rate(),
            m.task_hit_rate(),
            m.wasted_fraction(),
            m.utilization(),
            m.effective_utilization(),
        ));
    }
    out
}

/// Human-readable rendering: per oversubscription level, the policy table
/// plus the dominance verdict.
pub fn render(d: &Dynamic) -> String {
    let mut out = format!(
        "Extension: arrival-driven execution with task dropping\n\
         (mixed app/trace pool, {} instances per cell, deadline = {DEADLINE_FACTOR} × isolated makespan)\n",
        d.instances
    );
    for &o in &OVERSUB {
        out.push_str(&format!("\noversubscription ×{o}\n"));
        out.push_str("  policy      hit-rate  task-hit  dropped  rejected  wasted  util\n");
        for c in d.cells.iter().filter(|c| c.oversub == o) {
            let m = &c.metrics;
            out.push_str(&format!(
                "  {:<11} {:>7.3} {:>9.3} {:>8} {:>9} {:>7.3} {:>5.3}\n",
                c.policy,
                m.workflow_hit_rate(),
                m.task_hit_rate(),
                m.dropped,
                m.rejected,
                m.wasted_fraction(),
                m.utilization(),
            ));
        }
    }
    out.push_str(&if d.pruning_dominates() {
        "\n→ probabilistic dropping strictly beats never-drop on deadline hit-rate \
         at every oversubscribed load\n"
            .to_string()
    } else {
        "\n→ never-drop holds its own at some oversubscribed load — dropping did not pay here\n"
            .to_string()
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts(threads: Option<usize>) -> RunOptions {
        RunOptions {
            scale: 0.0, // clamps to the 24-instance floor
            out_dir: None,
            seed: 31,
            threads,
        }
    }

    #[test]
    fn pool_is_mixed_and_uniform_in_machines() {
        let pool = workload_pool(9);
        assert_eq!(pool.len(), 8);
        assert!(pool.iter().all(|s| s.machine_count() == 8));
        assert!(mean_instance_work(&pool) > 0.0);
    }

    #[test]
    fn sweep_runs_and_summarizes_at_tiny_scale() {
        let d = run(&tiny_opts(Some(2))).unwrap();
        assert_eq!(d.cells.len(), OVERSUB.len() * POLICIES.len());
        assert_eq!(d.instances, 24);
        for c in &d.cells {
            assert_eq!(c.metrics.instances, 24);
            assert!(c.metrics.utilization() <= 1.0 + 1e-9);
        }
        // never-drop completes everything it admits, at every load.
        for &o in &OVERSUB {
            let never = d.cell(o, "never").unwrap();
            assert_eq!(never.metrics.completed, 24);
            assert_eq!(never.metrics.dropped + never.metrics.rejected, 0);
        }
        let csv = summary_csv(&d);
        assert_eq!(csv.lines().count(), 1 + d.cells.len());
        assert!(csv.starts_with(SUMMARY_HEADER));
        assert!(render(&d).contains("oversubscription"));
    }

    #[test]
    fn summary_is_bit_identical_across_thread_counts() {
        let csv1 = summary_csv(&run(&tiny_opts(Some(1))).unwrap());
        let csv2 = summary_csv(&run(&tiny_opts(Some(2))).unwrap());
        let csv4 = summary_csv(&run(&tiny_opts(Some(4))).unwrap());
        assert_eq!(csv1, csv2);
        assert_eq!(csv1, csv4);
    }
}
