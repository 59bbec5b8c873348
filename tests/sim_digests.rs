//! Pins the dynamic simulator's outcomes bit for bit.
//!
//! Each run's per-instance outcomes (every `InstanceOutcome` field, floats
//! by their bits), its `OnlineMetrics` and its `dist_builds` hash (64-bit
//! FNV-1a) to a digest, and the digests must match
//! `tests/data/sim_digests.txt` line for line. The runs draw from the
//! `ext-dynamic` workload pool, 100 instances each:
//!
//! * ×0.5 and ×2 oversubscription under `never`, `reap`, `prune@0.5` and
//!   `gate@0.5`, without faults;
//! * `reap` at ×1 under exponential, Weibull and exponential-plus-transient
//!   faults (scaled by the pool's mean work, as the `ext-faults` study
//!   scales them) and under `trans@0.2`, each with `abandon`, `retry@3`
//!   and `resched`;
//! * one replayed stream whose odd arrivals carry fresh, content-equal
//!   `Arc`s of pool scenarios, under `prune@0.5`;
//! * one run whose `SimConfig::schedule` override is a random schedule,
//!   under harsh exponential faults with `resched`.
//!
//! A refactor of the event loop must leave the file unchanged; a deliberate
//! change to the simulator replaces it with the table this test prints on a
//! mismatch.

use robusched::dynamic::{
    fault_by_spec, policy_by_spec, recovery_by_spec, Arrival, ArrivalStream, DynamicSim,
    PoissonStream, ReplayStream, SimConfig, SimResult,
};
use robusched::experiments::ext::dynamic::{mean_instance_work, workload_pool};
use robusched::experiments::ext::faults::fault_spec;
use robusched::platform::Scenario;
use robusched::randvar::derive_seed;
use robusched::sched::random_schedule;
use std::sync::Arc;

const EXPECTED: &str = include_str!("data/sim_digests.txt");

/// Instances per run.
const INSTANCES: usize = 100;

/// The `ext-dynamic` deadline factor.
const DEADLINE_FACTOR: f64 = 3.0;

/// 64-bit FNV-1a over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn count(&mut self, x: usize) {
        self.word(x as u64);
    }

    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn flag(&mut self, x: bool) {
        self.word(u64::from(x));
    }

    /// `None` hashes as one word, `Some(x)` as a tag word and the bits.
    fn opt(&mut self, x: Option<f64>) {
        match x {
            None => self.word(0),
            Some(x) => {
                self.word(1);
                self.float(x);
            }
        }
    }
}

fn digest(r: &SimResult) -> u64 {
    let mut h = Fnv::new();
    h.count(r.outcomes.len());
    for o in &r.outcomes {
        h.float(o.arrival);
        h.float(o.deadline);
        h.float(o.det_makespan);
        h.opt(o.finish);
        h.opt(o.makespan);
        h.flag(o.admitted);
        h.flag(o.dropped);
        h.count(o.tasks);
        h.count(o.tasks_completed);
        h.count(o.tasks_met);
        h.float(o.executed_time);
        h.float(o.lost_time);
        h.count(o.retries);
    }
    let m = &r.metrics;
    for c in [
        m.instances,
        m.admitted,
        m.completed,
        m.workflows_met,
        m.dropped,
        m.rejected,
        m.tasks_total,
        m.tasks_completed,
        m.tasks_met,
        m.machines,
        m.machine_failures,
        m.killed_tasks,
        m.transient_faults,
        m.retries,
    ] {
        h.count(c);
    }
    for x in [
        m.busy_time,
        m.wasted_time,
        m.horizon,
        m.down_time,
        m.lost_time,
    ] {
        h.float(x);
    }
    h.count(r.dist_builds);
    h.0
}

/// The pool and its mean per-instance work, which calibrates the arrival
/// rate of an oversubscription level as in `ext-dynamic`.
struct Pool {
    scenarios: Vec<Arc<Scenario>>,
    mean_work: f64,
}

impl Pool {
    fn new() -> Self {
        let scenarios = workload_pool(derive_seed(5, 12_000));
        let mean_work = mean_instance_work(&scenarios);
        Self {
            scenarios,
            mean_work,
        }
    }

    fn stream(&self, oversub: f64, seed: u64) -> PoissonStream {
        let machines = self.scenarios[0].machine_count() as f64;
        let rate = oversub * machines / self.mean_work;
        PoissonStream::new(
            self.scenarios.clone(),
            rate,
            INSTANCES,
            derive_seed(seed, 1),
        )
    }
}

fn config(seed: u64) -> SimConfig {
    SimConfig {
        heuristic: "heft".into(),
        deadline_factor: DEADLINE_FACTOR,
        seed: derive_seed(seed, 2),
        ..SimConfig::default()
    }
}

fn run(
    policy: &str,
    fault: &str,
    recovery: &str,
    config: SimConfig,
    stream: &mut dyn ArrivalStream,
) -> SimResult {
    let policy = policy_by_spec(policy).expect("valid policy spec");
    let fault = fault_by_spec(fault).expect("valid fault spec");
    let recovery = recovery_by_spec(recovery).expect("valid recovery spec");
    DynamicSim::with_faults(policy.as_ref(), config, fault.as_ref(), recovery.as_ref())
        .run(stream)
        .expect("pool scenarios simulate")
}

fn actual_table() -> String {
    let pool = Pool::new();
    let mut lines = Vec::new();
    let mut seed = 0u64;
    let mut next_seed = || {
        seed += 1;
        seed
    };

    for oversub in [0.5, 2.0] {
        for policy in ["never", "reap", "prune@0.5", "gate@0.5"] {
            let seed = next_seed();
            let r = run(
                policy,
                "none",
                "abandon",
                config(seed),
                &mut pool.stream(oversub, seed),
            );
            lines.push(format!(
                "{policy}\tx{oversub}\tnone\tabandon\t{:016x}",
                digest(&r)
            ));
        }
    }

    for label in ["exp-mild", "weibull", "exp-trans", "trans"] {
        let fault = match label {
            "trans" => "trans@0.2".to_string(),
            _ => fault_spec(label, pool.mean_work),
        };
        // Every recovery policy faces the same arrivals, durations and
        // fault streams, as in the `ext-faults` sweep.
        let seed = next_seed();
        for recovery in ["abandon", "retry@3", "resched"] {
            let r = run(
                "reap",
                &fault,
                recovery,
                config(seed),
                &mut pool.stream(1.0, seed),
            );
            lines.push(format!(
                "reap\tx1\t{label}\t{recovery}\t{:016x}",
                digest(&r)
            ));
        }
    }

    // The odd arrivals miss the identity map and find their state by the
    // content fingerprint.
    let seed = next_seed();
    let mut source = pool.stream(1.0, seed);
    let arrivals: Vec<Arrival> = std::iter::from_fn(|| source.next_arrival())
        .enumerate()
        .map(|(i, a)| Arrival {
            time: a.time,
            scenario: if i % 2 == 1 {
                Arc::new((*a.scenario).clone())
            } else {
                a.scenario
            },
        })
        .collect();
    let r = run(
        "prune@0.5",
        "none",
        "abandon",
        config(seed),
        &mut ReplayStream::new(arrivals),
    );
    lines.push(format!(
        "prune@0.5\tx1\treplay-fresh-arcs\tabandon\t{:016x}",
        digest(&r)
    ));

    // One scenario under a random schedule instead of HEFT's.
    let seed = next_seed();
    let scenario = pool.scenarios[0].clone();
    let schedule = random_schedule(
        &scenario.graph.dag,
        scenario.machine_count(),
        derive_seed(seed, 3),
    );
    let rate = scenario.machine_count() as f64 / pool.mean_work;
    let mut stream = PoissonStream::new(vec![scenario], rate, INSTANCES, derive_seed(seed, 1));
    let r = run(
        "reap",
        &fault_spec("exp-harsh", pool.mean_work),
        "resched",
        SimConfig {
            schedule: Some(schedule),
            ..config(seed)
        },
        &mut stream,
    );
    lines.push(format!(
        "reap\tx1\texp-harsh\tresched\tschedule-override\t{:016x}",
        digest(&r)
    ));

    lines.join("\n") + "\n"
}

#[test]
fn simulator_outcomes_match_recorded_digests() {
    let actual = actual_table();
    if actual != EXPECTED {
        let changed: Vec<&str> = actual
            .lines()
            .filter(|line| !EXPECTED.lines().any(|e| e == *line))
            .collect();
        panic!(
            "{} of {} simulator digests differ from tests/data/sim_digests.txt:\n{}\n\
             full table:\n{actual}",
            changed.len(),
            actual.lines().count(),
            changed.join("\n")
        );
    }
}
