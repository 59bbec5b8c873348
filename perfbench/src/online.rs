//! `online-dynamic`: `DynamicSim` cells over the `ext-dynamic` workload
//! pool (five application classes plus the three committed traces, 8
//! machines, UL 1.1). The cells cross oversubscription {1, 2} with the
//! `never`, `reap`, `prune@0.5` and `gate@0.5` dropping policies, plus one
//! cell with exponential machine faults and `retry@3` recovery. Cells run
//! long Poisson streams and are sharded over one worker per core.

use crate::harness::{median, median_rate, peak_rss_mb, Report};
use crate::replay::{agrees, Replayer};
use crate::trace::Tracer;
use crate::Args;
use robusched_dynamic::{
    fault_by_spec, policy_by_spec, recovery_by_spec, Arrival, DynamicSim, NeverDrop, PoissonStream,
    RemainingDists, ReplayStream, SimConfig, SimError, SimResult,
};
use robusched_experiments::ext::dynamic::{mean_instance_work, workload_pool};
use robusched_platform::{Scenario, UncertaintyModel};
use robusched_randvar::{derive_seed, DEFAULT_GRID};
use robusched_sched::{heft, EagerPlan};
use robusched_stochastic::{scenario_fingerprint, DiscretizedScenario, SamplingTables};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Instances per cell in the measured window.
const INSTANCES: usize = 2000;
/// Instances per cell in the warm-up and the traced pass.
const SHORT_INSTANCES: usize = 300;
/// Deadline = arrival + factor × isolated makespan (the `ext-dynamic`
/// calibration).
const DEADLINE_FACTOR: f64 = 3.0;
const SETUP_REPEATS: usize = 5;

/// One simulation cell.
#[derive(Debug, Clone, Copy)]
struct Cell {
    /// Metric-name suffix of `dynamic.sim_run_ms.*`.
    label: &'static str,
    policy: &'static str,
    oversub: f64,
    faults: bool,
}

const fn cell(label: &'static str, policy: &'static str, oversub: f64) -> Cell {
    Cell {
        label,
        policy,
        oversub,
        faults: false,
    }
}

const CELLS: [Cell; 9] = [
    cell("never", "never", 1.0),
    cell("reap", "reap", 1.0),
    cell("prune-0.5", "prune@0.5", 1.0),
    cell("gate-0.5", "gate@0.5", 1.0),
    cell("never", "never", 2.0),
    cell("reap", "reap", 2.0),
    cell("prune-0.5", "prune@0.5", 2.0),
    cell("gate-0.5", "gate@0.5", 2.0),
    Cell {
        label: "fault-retry",
        policy: "reap",
        oversub: 1.0,
        faults: true,
    },
];

struct Pool {
    scenarios: Vec<Arc<Scenario>>,
    mean_work: f64,
}

fn build_pool(seed: u64) -> Pool {
    let scenarios = workload_pool(derive_seed(seed, 12_000));
    let mean_work = mean_instance_work(&scenarios);
    Pool {
        scenarios,
        mean_work,
    }
}

fn run_cell(cell: &Cell, pool: &Pool, instances: usize, seed: u64) -> Result<SimResult, SimError> {
    let policy = policy_by_spec(cell.policy).expect("valid policy spec");
    let machines = pool.scenarios[0].machine_count() as f64;
    let rate = cell.oversub * machines / pool.mean_work;
    let mut stream = PoissonStream::new(
        pool.scenarios.clone(),
        rate,
        instances,
        derive_seed(seed, 1),
    );
    let config = SimConfig {
        heuristic: "heft".into(),
        deadline_factor: DEADLINE_FACTOR,
        seed: derive_seed(seed, 2),
        ..SimConfig::default()
    };
    if cell.faults {
        // The `ext-faults` "exp-mild" regime: a machine fails about every
        // ten instances' worth of work and repairs in half of one.
        let w = pool.mean_work;
        let fault = fault_by_spec(&format!("exp@{}:{}", 10.0 * w, 0.5 * w)).expect("valid spec");
        let recovery = recovery_by_spec("retry@3").expect("valid spec");
        DynamicSim::with_faults(policy.as_ref(), config, fault.as_ref(), recovery.as_ref())
            .run(&mut stream)
    } else {
        DynamicSim::new(policy.as_ref(), config).run(&mut stream)
    }
}

/// The per-cell accounting identities; returns the first one violated.
fn accounting_error(cell: &Cell, r: &SimResult, instances: usize, pool: &Pool) -> Option<String> {
    let m = &r.metrics;
    let eps = 1e-9 * m.busy_time.max(1.0);
    let tasks: usize = r.outcomes.iter().map(|o| o.tasks).sum();
    let executed: f64 = r.outcomes.iter().map(|o| o.executed_time).sum();
    let needs_dists = cell.policy.starts_with("prune@") || cell.policy.starts_with("gate@");
    let checks: [(bool, String); 10] = [
        (
            m.instances == instances && r.outcomes.len() == instances,
            format!("{} instances of {instances}", m.instances),
        ),
        (
            m.admitted + m.rejected == m.instances,
            format!(
                "admitted {} + rejected {} != {}",
                m.admitted, m.rejected, m.instances
            ),
        ),
        (
            m.completed + m.dropped == m.admitted,
            format!(
                "completed {} + dropped {} != admitted {}",
                m.completed, m.dropped, m.admitted
            ),
        ),
        (
            m.workflows_met <= m.completed,
            format!("met {} > completed {}", m.workflows_met, m.completed),
        ),
        (
            m.tasks_met <= m.tasks_completed && m.tasks_completed <= m.tasks_total,
            format!(
                "tasks met {} / completed {} / total {}",
                m.tasks_met, m.tasks_completed, m.tasks_total
            ),
        ),
        (
            tasks == m.tasks_total,
            format!("task sum {tasks} != {}", m.tasks_total),
        ),
        (
            (executed - m.busy_time).abs() <= eps,
            format!("executed {executed} != busy {}", m.busy_time),
        ),
        (
            m.wasted_time <= m.busy_time + eps && m.lost_time <= m.busy_time + eps,
            format!(
                "wasted {} / lost {} > busy {}",
                m.wasted_time, m.lost_time, m.busy_time
            ),
        ),
        (
            r.dist_builds == if needs_dists { pool.scenarios.len() } else { 0 },
            format!("{} distribution builds", r.dist_builds),
        ),
        (
            cell.faults
                || (m.machine_failures == 0 && m.retries == 0 && m.lost_time == 0.0)
                    && (cell.policy != "never" || (m.dropped == 0 && m.rejected == 0)),
            format!(
                "fault-free cell: failures {}, retries {}, dropped {}, rejected {}",
                m.machine_failures, m.retries, m.dropped, m.rejected
            ),
        ),
    ];
    checks
        .into_iter()
        .find(|(ok, _)| !ok)
        .map(|(_, what)| format!("cell {} x{}: {what}", cell.label, cell.oversub))
}

/// One zero-uncertainty pool workload, arriving in isolation, must finish
/// bit-for-bit at `EagerPlan::execute`'s makespan.
fn zero_uncertainty_error(pool: &Pool) -> Option<String> {
    let mut s = (*pool.scenarios[0]).clone();
    s.uncertainty = UncertaintyModel::none();
    let s = Arc::new(s);
    let sched = heft(&s);
    let plan = EagerPlan::new(&s.graph.dag, &sched).expect("HEFT schedules are valid");
    let reference = plan
        .execute(
            &s.graph.dag,
            |v| s.det_task_cost(v, sched.machine_of(v)),
            |e, u, v| s.det_comm_cost(e, sched.machine_of(u), sched.machine_of(v)),
        )
        .makespan;
    let arrivals = (0..3)
        .map(|i| Arrival {
            time: i as f64 * 1e9,
            scenario: s.clone(),
        })
        .collect();
    let result = DynamicSim::new(&NeverDrop, SimConfig::default())
        .run(&mut ReplayStream::new(arrivals))
        .map_err(|e| e.to_string());
    match result {
        Err(e) => Some(format!("zero-uncertainty run failed: {e}")),
        Ok(r) => r
            .outcomes
            .iter()
            .find(|o| o.makespan.map(f64::to_bits) != Some(reference.to_bits()))
            .map(|o| {
                format!(
                    "zero-uncertainty makespan {:?} != eager {reference}",
                    o.makespan
                )
            }),
    }
}

/// What the measured window saw, cell by cell.
#[derive(Default)]
struct Window {
    latencies_ms: Vec<f64>,
    /// `(seconds since the window opened, instances)` per finished cell.
    completions: Vec<(f64, f64)>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

pub fn run(args: &Args, report: &mut Report) {
    // ---- Set-up: pool build, HEFT for the pool, every cell once on a
    // short stream. ----
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut pool = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let p = build_pool(args.seed);
        let warm = CELLS
            .iter()
            .all(|c| run_cell(c, &p, SHORT_INSTANCES, derive_seed(args.seed, 3)).is_ok());
        setups.push(t.elapsed().as_secs_f64());
        report.check(warm, || "a warm-up cell failed".into());
        pool = Some(p);
    }
    let pool = pool.expect("at least one set-up");
    report.set("setup_s", median(&setups).expect("set-ups ran"));

    // ---- Measured window: cells sharded over the workers. ----
    let next = AtomicU64::new(0);
    let window = Mutex::new(Window::default());
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..args.threads {
            s.spawn(|| loop {
                if start.elapsed().as_secs_f64() >= args.seconds {
                    return;
                }
                let k = next.fetch_add(1, Ordering::Relaxed);
                let cell = &CELLS[(k % CELLS.len() as u64) as usize];
                let t = Instant::now();
                let result = run_cell(cell, &pool, INSTANCES, derive_seed(args.seed, 20_000 + k));
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let error = match &result {
                    Ok(r) => accounting_error(cell, r, INSTANCES, &pool),
                    Err(_) => None,
                };
                let mut w = window
                    .lock()
                    .expect("window lock poisoned by a worker panic");
                w.attempted += 1;
                match result {
                    Ok(_) => {
                        w.latencies_ms.push(ms);
                        w.completions
                            .push((start.elapsed().as_secs_f64(), INSTANCES as f64));
                    }
                    Err(e) => {
                        w.failed += 1;
                        eprintln!("cell {} failed: {e}", cell.label);
                    }
                }
                w.errors.extend(error);
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let w = window.into_inner().expect("workers joined");
    report.attempted = w.attempted;
    report.failed = w.failed;
    report.set(
        "throughput_per_s",
        median_rate(&w.completions, args.seconds).unwrap_or(f64::NAN),
    );
    report.set(
        "latency_p50_ms",
        median(&w.latencies_ms).unwrap_or(f64::NAN),
    );
    report.set("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
    eprintln!(
        "{} cells of {INSTANCES} instances in {elapsed:.2} s",
        w.attempted
    );

    // ---- Output checks. ----
    for e in w.errors {
        report.check(false, || e);
    }
    if let Some(e) = zero_uncertainty_error(&pool) {
        report.check(false, || e);
    }

    if args.trace {
        traced_pass(args, report);
    }
}

#[derive(Default)]
struct PassCounts {
    replay_ok: bool,
    table_slots: usize,
    slot_fills: usize,
    lookups: u64,
    sums: u64,
    maxes: u64,
    dist_builds: usize,
    tasks_completed: usize,
    wasted: f64,
    busy: f64,
}

/// The replica loop: build the pool's per-workload state the way the
/// simulator does (HEFT, plan, sampling tables, remaining-time tables,
/// the latter replayed from outside), then run every cell once on a short
/// stream.
fn pass(t: &mut Tracer, seed: u64) -> PassCounts {
    let mut counts = PassCounts {
        replay_ok: true,
        ..PassCounts::default()
    };
    t.span("pass", |t| {
        let scenarios = t.span("platform.scenario_build", |_| {
            workload_pool(derive_seed(seed, 12_000))
        });
        let mut replayer = Replayer::new();
        for s in &scenarios {
            t.span("stochastic.fingerprint", |_| scenario_fingerprint(s));
            let sched = t.span("sched.heft", |_| heft(s));
            let plan = t.span("sched.eager_plan", |_| {
                EagerPlan::new(&s.graph.dag, &sched).expect("HEFT schedules are valid")
            });
            t.span("stochastic.sampling_tables", |_| SamplingTables::new(s));
            let disc = t.span("stochastic.prepare", |_| {
                DiscretizedScenario::new(s, DEFAULT_GRID)
            });
            let built = t.span("dynamic.remaining_build", |_| {
                RemainingDists::build(s, &sched, &plan, &disc)
            });
            let replay_disc = DiscretizedScenario::new(s, DEFAULT_GRID);
            let total = t.span("dynamic.remaining_replay", |t| {
                replayer.remaining_total(t, s, &sched, &plan, &replay_disc)
            });
            counts.replay_ok &= agrees(&total, &built.total);
            let (n, m, e) = (s.task_count(), s.machine_count(), s.graph.edge_count());
            counts.table_slots += n * m + e * m * m;
        }
        let pool = Pool {
            mean_work: mean_instance_work(&scenarios),
            scenarios,
        };
        for (k, cell) in CELLS.iter().enumerate() {
            let name = match cell.label {
                "never" => "dynamic.sim_run.never",
                "reap" => "dynamic.sim_run.reap",
                "prune-0.5" => "dynamic.sim_run.prune-0.5",
                "gate-0.5" => "dynamic.sim_run.gate-0.5",
                _ => "dynamic.sim_run.fault-retry",
            };
            let cell_seed = derive_seed(seed, 20_000 + k as u64);
            let r = t.span(name, |_| run_cell(cell, &pool, SHORT_INSTANCES, cell_seed));
            if let Ok(r) = r {
                counts.dist_builds += r.dist_builds;
                counts.tasks_completed += r.metrics.tasks_completed;
                counts.wasted += r.metrics.wasted_time;
                counts.busy += r.metrics.busy_time;
            }
        }
        counts.slot_fills = replayer.slot_fills();
        counts.lookups = replayer.lookups;
        counts.sums = replayer.sums;
        counts.maxes = replayer.maxes;
    });
    counts
}

fn traced_pass(args: &Args, report: &mut Report) {
    let seed = derive_seed(args.seed, 7);
    let off_start = Instant::now();
    pass(&mut Tracer::new(false), seed);
    let off = off_start.elapsed().as_secs_f64();
    let mut tracer = Tracer::new(true);
    let on_start = Instant::now();
    let counts = pass(&mut tracer, seed);
    let on = on_start.elapsed().as_secs_f64();
    let layers = tracer.layers();
    let us = |name: &str| layers.get(name).map_or(0.0, |l| l.mean_us());
    let ms = |name: &str| layers.get(name).map_or(0.0, |l| l.mean_ms());

    report.set("trace.overhead", on / off - 1.0);
    report.set("trace.coverage", tracer.coverage());
    report.set("trace.spans", tracer.spans().len() as f64);
    report.set("platform.scenario_build_ms", ms("platform.scenario_build"));
    report.set("stochastic.fingerprint_us", us("stochastic.fingerprint"));
    report.set("sched.heft_ms", ms("sched.heft"));
    report.set("sched.eager_plan_us", us("sched.eager_plan"));
    report.set(
        "stochastic.sampling_tables_ms",
        ms("stochastic.sampling_tables"),
    );
    report.set("stochastic.prepare_ms", ms("stochastic.prepare"));
    report.set("stochastic.table_slots", counts.table_slots as f64);
    report.set("dynamic.remaining_build_ms", ms("dynamic.remaining_build"));
    report.set("dynamic.sim_run_ms.never", ms("dynamic.sim_run.never"));
    report.set("dynamic.sim_run_ms.reap", ms("dynamic.sim_run.reap"));
    report.set(
        "dynamic.sim_run_ms.prune-0.5",
        ms("dynamic.sim_run.prune-0.5"),
    );
    report.set(
        "dynamic.sim_run_ms.gate-0.5",
        ms("dynamic.sim_run.gate-0.5"),
    );
    report.set(
        "dynamic.sim_run_ms.fault-retry",
        ms("dynamic.sim_run.fault-retry"),
    );
    report.set("dynamic.dist_builds", counts.dist_builds as f64);
    report.set("dynamic.tasks_completed", counts.tasks_completed as f64);
    report.set(
        "dynamic.wasted_frac",
        counts.wasted / counts.busy.max(f64::MIN_POSITIVE),
    );
    if counts.replay_ok {
        report.set("stochastic.slot_fills", counts.slot_fills as f64);
        report.set("stochastic.lookup_us", us("stochastic.lookup"));
        report.set("stochastic.lookup_calls", counts.lookups as f64);
        report.set("randvar.sum_into_calls", counts.sums as f64);
        report.set("randvar.sum_into_us", us("randvar.sum_into"));
        report.set("randvar.max_into_calls", counts.maxes as f64);
        report.set("randvar.max_into_us", us("randvar.max_into"));
    } else {
        eprintln!(
            "warning: remaining-time replay disagrees with RemainingDists; replay metrics omitted"
        );
    }
    crate::write_trace(&tracer, &layers, args);
}
