//! The deterministic event-driven executor.
//!
//! [`DynamicSim`] runs a stream of arriving workflow instances over a
//! shared machine pool. Each instance is scheduled in isolation by a
//! registry heuristic (its [`robusched_sched::Schedule`] and
//! [`EagerPlan`] are cached per distinct scenario), then *executed* under
//! contention: machines are exclusive, and ready tasks of different
//! instances queue per machine in deterministic
//! `(ready time, instance, task)` order.
//!
//! ## Event-loop contract
//!
//! A binary-heap event queue keyed `(time, seq)` — `f64::total_cmp` on the
//! time, a monotonic sequence number as the tiebreak — processes the event
//! kinds: *arrival* (drawn lazily from the
//! [`ArrivalStream`]; arrivals win ties against queued events),
//! *task-ready*, *task-complete*, *deadline-lapse*, and (under a fault
//! model) *machine-fail*, *machine-repair*, and *re-dispatch*. Every tie
//! is broken by an explicitly ordered key, never by iteration order of a
//! hash container, so a run is a pure function of
//! `(stream, policy, config, fault, recovery)` — bit-identical across
//! repeats, platforms and (for the study harness, which shards whole
//! simulations) thread counts.
//!
//! An arrival finds its scenario's cached state by the identity of its
//! `Arc<Scenario>` in O(1); only an `Arc` the run has not seen yet pays
//! for the content fingerprint, so content-equal scenarios in different
//! `Arc`s still share one state. Both maps only key caches: which one
//! answers never changes the state returned.
//!
//! Each machine's queue keeps its entries in a `Vec` (a push appends, a
//! dispatch `swap_remove`s the chosen entry) and finds the least
//! `(ready time, instance, task)` entry through an indexed min-heap in
//! O(log q). The backlog estimate and the `resched` machine choice sum
//! queued durations in that `Vec`'s order, so the order is part of the
//! contract: a different one would change their bits. The backlog sum
//! reads every queued entry, so an arrival computes it only when the
//! policy's [`DropPolicy::needs_backlog`] says its admission check reads
//! it.
//!
//! ## Determinism of start dates
//!
//! All per-instance bookkeeping is kept in *relative* time (offsets from
//! the instance's arrival) and converted to absolute time only for event
//! stamps. The ready-time recurrence therefore performs literally the
//! same floating-point operations as [`EagerPlan::execute`] whenever an
//! instance runs without cross-instance contention — which is what makes
//! the executor's makespans *exactly* (bit-for-bit) equal to the static
//! eager executor's on spaced arrival streams (pinned by
//! `tests/dynamic.rs`). Under contention a task additionally waits for
//! its machine (`start = max(ready, machine free)`), which can only delay
//! it.
//!
//! ## Dropping
//!
//! Execution is non-preemptive: when a policy abandons an instance, its
//! *running* tasks complete (their machine time is spent — that is the
//! wasted work the metrics account), but no new task of the instance
//! starts and its queued entries are skipped lazily.
//!
//! ## Faults and recovery
//!
//! With a non-trivial [`FaultModel`], each machine carries a
//! seed-derived failure/repair process (its RNG stream is disjoint from
//! every duration-sampling stream). A *machine-fail* event kills the
//! running task (the spent fraction stays charged as lost work, the
//! unexecuted remainder is refunded) and freezes the machine's queue; a
//! *machine-repair* event brings it back and schedules the next failure
//! while live work remains. A *transient* task fault is decided
//! deterministically per `(instance, task, attempt)` at dispatch: the
//! task runs to its full duration, then the result is discarded. Every
//! failed attempt consults the [`RecoveryPolicy`]; retries re-enter the
//! queue as *re-dispatch* events after an exponential backoff, and the
//! `resched` policy re-chooses the machine over surviving machines by
//! current backlog. With [`NoFaults`] none of these events exist and the
//! run is bit-exact against the fault-free executor (pinned by
//! proptest).

use crate::fault::{FaultModel, NoFaults, RecoveryAction, RecoveryPolicy};
use crate::policy::{DropPolicy, PolicyQuery};
use crate::remaining::RemainingDists;
use crate::stream::ArrivalStream;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use robusched_core::OnlineMetrics;
use robusched_platform::Scenario;
use robusched_randvar::{derive_seed, DEFAULT_GRID};
use robusched_sched::{heuristic_by_name, EagerPlan, Heuristic, Schedule, ScheduleError};
use robusched_stochastic::{scenario_fingerprint, DiscretizedScenario, SamplingTables};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// Sub-seed tag of the per-machine fault streams (disjoint from the
/// per-instance duration streams, which use `idx + 1`).
const FAULT_STREAM_TAG: u64 = 1 << 62;
/// Sub-seed tag of the per-attempt transient-fault draws.
const TRANSIENT_DRAW_TAG: u64 = 1 << 63;

/// Configuration of a dynamic run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Registry name of the per-instance scheduling heuristic.
    pub heuristic: String,
    /// Per-instance deadline: `arrival + factor × det_makespan` (the
    /// deterministic isolated makespan under the heuristic's schedule).
    pub deadline_factor: f64,
    /// Master seed for duration sampling (instance `i` uses the derived
    /// sub-seed `i + 1`) and, under a fault model, the per-machine fault
    /// streams and transient-fault draws.
    pub seed: u64,
    /// PDF grid resolution for the policy-query distributions.
    pub grid: usize,
    /// Fixed schedule override: when set, every scenario uses this
    /// schedule instead of the heuristic's. Intended for single-scenario
    /// streams (e.g. ranking a candidate schedule under faults); the
    /// schedule must be valid for every arriving scenario.
    pub schedule: Option<Schedule>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            heuristic: "heft".into(),
            deadline_factor: 1.5,
            seed: 42,
            grid: DEFAULT_GRID,
            schedule: None,
        }
    }
}

/// Why a run could not even start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The heuristic name did not resolve in the registry.
    UnknownHeuristic(String),
    /// The heuristic produced an invalid schedule for some scenario.
    Schedule(ScheduleError),
    /// An arriving scenario's machine count differs from the pool's (all
    /// instances share one machine pool).
    MachineMismatch {
        /// Machines of the pool (fixed by the first arrival).
        expected: usize,
        /// Machines of the offending scenario.
        got: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownHeuristic(n) => write!(f, "unknown heuristic '{n}'"),
            Self::Schedule(e) => write!(f, "scheduling failed: {e}"),
            Self::MachineMismatch { expected, got } => {
                write!(f, "scenario has {got} machines, pool has {expected}")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<ScheduleError> for SimError {
    fn from(e: ScheduleError) -> Self {
        Self::Schedule(e)
    }
}

/// The fate of one arrived instance.
#[derive(Debug, Clone)]
pub struct InstanceOutcome {
    /// Arrival time.
    pub arrival: f64,
    /// Absolute deadline (`arrival + factor × det_makespan`).
    pub deadline: f64,
    /// Isolated deterministic makespan under the heuristic schedule.
    pub det_makespan: f64,
    /// Completion time, when every task ran to completion.
    ///
    /// This is `arrival + makespan` rounded once — for bit-level
    /// comparisons use [`InstanceOutcome::makespan`], which carries the
    /// executor's exact relative value (late arrivals make
    /// `finish − arrival` a lossy round trip).
    pub finish: Option<f64>,
    /// The instance's span from arrival to completion, in the executor's
    /// relative frame (bit-exact against `EagerPlan::execute` on
    /// uncontended zero-uncertainty runs).
    pub makespan: Option<f64>,
    /// `false` when the admission check refused the instance.
    pub admitted: bool,
    /// `true` when the instance was abandoned mid-flight (pruned, reaped,
    /// or given up by the recovery policy).
    pub dropped: bool,
    /// Task count of the instance.
    pub tasks: usize,
    /// Tasks that executed to completion.
    pub tasks_completed: usize,
    /// Completed tasks that finished at or before the deadline.
    pub tasks_met: usize,
    /// Machine-time the instance consumed (including failed attempts).
    pub executed_time: f64,
    /// Machine-time of the instance's failed attempts (killed by machine
    /// failures or discarded by transient faults) — a subset of
    /// `executed_time`.
    pub lost_time: f64,
    /// Task re-dispatches the recovery policy granted the instance.
    pub retries: usize,
}

impl InstanceOutcome {
    /// `true` when the whole workflow completed by its deadline.
    pub fn met_deadline(&self) -> bool {
        self.finish.is_some_and(|f| f <= self.deadline)
    }
}

/// Result of one dynamic run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Per-instance fates, in arrival order.
    pub outcomes: Vec<InstanceOutcome>,
    /// Aggregated online robustness counters.
    pub metrics: OnlineMetrics,
    /// `RemainingDists` tables built during the run (one per distinct
    /// scenario, and only when the policy needs distributions — policies
    /// that don't must keep this at zero).
    pub dist_builds: usize,
}

// ---------------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------------

/// Cached per-scenario state, shared by every instance of the scenario.
struct ScenarioState {
    schedule: Schedule,
    plan: EagerPlan,
    det_makespan: f64,
    tables: SamplingTables,
    /// Policy-query distributions; `None` when the policy doesn't need
    /// them (they cost a backward recursion per scenario).
    dists: Option<RemainingDists>,
}

struct Instance {
    state: Arc<ScenarioState>,
    scenario: Arc<Scenario>,
    arrival: f64,
    deadline: f64,
    /// Sampled task durations on the assigned machines.
    task_dur: Vec<f64>,
    /// Sampled communication delays on the assigned machine pairs
    /// (`0` when co-located).
    comm_dur: Vec<f64>,
    /// Unfinished prerequisites per task (DAG preds + machine pred).
    pending: Vec<usize>,
    /// The eager ready-time recurrence value, relative to arrival.
    ready_rel: Vec<f64>,
    /// Finish times relative to arrival (`NAN` until the task completes).
    finish_rel: Vec<f64>,
    /// Failed attempts per task (machine kills + transient faults).
    attempts: Vec<usize>,
    tasks_completed: usize,
    tasks_met: usize,
    executed_time: f64,
    lost_time: f64,
    retries: usize,
    admitted: bool,
    dropped: bool,
    finish: Option<f64>,
    makespan: Option<f64>,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    Ready {
        inst: usize,
        task: usize,
    },
    Finish {
        inst: usize,
        task: usize,
        machine: usize,
        /// Identity of the attempt; a mismatch against the machine's
        /// running attempt means the attempt was killed and the event is
        /// stale.
        run_id: u64,
        /// The attempt was pre-drawn to fail transiently: the duration is
        /// spent, the result discarded.
        faulty: bool,
    },
    DeadlineLapse {
        inst: usize,
    },
    /// The machine's fault process fires: kill the running attempt,
    /// freeze the queue.
    MachineFail {
        machine: usize,
    },
    /// The machine comes back up and resumes its queue.
    MachineRepair {
        machine: usize,
    },
    /// A recovered task re-enters the queue after its backoff.
    Redispatch {
        inst: usize,
        task: usize,
        /// Re-choose the machine by backlog (the `resched` policy) rather
        /// than returning to the static assignment.
        resched: bool,
    },
}

/// Heap key: earliest time first, then insertion order. `total_cmp` keeps
/// the ordering total (no NaN panics) and bit-stable.
struct Queued {
    time: f64,
    seq: u64,
    event: Event,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.time.total_cmp(&other.time).is_eq() && self.seq == other.seq
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

/// A ready task waiting for its machine.
#[derive(Debug, Clone, Copy)]
struct QueueEntry {
    ready_abs: f64,
    ready_rel: f64,
    inst: usize,
    task: usize,
    dur: f64,
}

/// One machine's ready queue: the entries in `Vec` order, plus an indexed
/// min-heap that finds the least `(ready time, instance, task)` entry in
/// O(log q).
///
/// The `Vec` order is part of the executor's contract (a push appends, a
/// pop `swap_remove`s the chosen slot): the backlog estimate and the
/// `resched` machine choice sum `dur` in that order, and any other order
/// would change their bits. At most one entry per `(instance, task)` is ever
/// queued — a task is queued when it becomes ready, and again only after
/// its running attempt failed — so keys are unique and the heap pops
/// exactly the entry a linear `min_by` over the `Vec` would pick.
#[derive(Default)]
struct ReadyQueue {
    entries: Vec<QueueEntry>,
    /// Each entry's position in `heap`, parallel to `entries`.
    heap_pos: Vec<u32>,
    /// Binary min-heap over the entries' keys.
    heap: Vec<HeapNode>,
}

/// A heap node: an entry's key and the entry's slot in `entries`.
#[derive(Debug, Clone, Copy)]
struct HeapNode {
    ready_abs: f64,
    inst: usize,
    task: usize,
    slot: u32,
}

impl HeapNode {
    /// `total_cmp` keeps the order total (no NaN panics) and bit-stable.
    fn precedes(&self, other: &Self) -> bool {
        self.ready_abs
            .total_cmp(&other.ready_abs)
            .then(self.inst.cmp(&other.inst))
            .then(self.task.cmp(&other.task))
            .is_lt()
    }
}

impl ReadyQueue {
    /// The queued entries, in `Vec` order.
    fn entries(&self) -> &[QueueEntry] {
        &self.entries
    }

    fn push(&mut self, entry: QueueEntry) {
        let slot = u32::try_from(self.entries.len()).expect("queue length fits in u32");
        self.entries.push(entry);
        self.heap_pos.push(0);
        self.heap.push(HeapNode {
            ready_abs: entry.ready_abs,
            inst: entry.inst,
            task: entry.task,
            slot,
        });
        self.sift_up(self.heap.len() - 1);
    }

    /// Removes and returns the entry with the least key.
    fn pop_min(&mut self) -> Option<QueueEntry> {
        let root = *self.heap.first()?;
        let slot = root.slot as usize;
        let entry = self.entries.swap_remove(slot);
        self.heap_pos.swap_remove(slot);
        debug_assert!(
            root.ready_abs.to_bits() == entry.ready_abs.to_bits()
                && (root.inst, root.task) == (entry.inst, entry.task),
            "heap key {root:?} does not match its slot's entry {entry:?}"
        );
        if let Some(&moved) = self.heap_pos.get(slot) {
            // The last entry moved into the freed slot.
            self.heap[moved as usize].slot = root.slot;
        }
        let last = self.heap.pop().expect("the root exists");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
        Some(entry)
    }

    fn place(&mut self, at: usize, node: HeapNode) {
        self.heap_pos[node.slot as usize] = at as u32;
        self.heap[at] = node;
    }

    fn sift_up(&mut self, mut at: usize) {
        let node = self.heap[at];
        while at > 0 {
            let parent = (at - 1) / 2;
            if !node.precedes(&self.heap[parent]) {
                break;
            }
            self.place(at, self.heap[parent]);
            at = parent;
        }
        self.place(at, node);
    }

    fn sift_down(&mut self, mut at: usize) {
        let node = self.heap[at];
        let len = self.heap.len();
        loop {
            let left = 2 * at + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.heap[right].precedes(&self.heap[left]) {
                right
            } else {
                left
            };
            if !self.heap[child].precedes(&node) {
                break;
            }
            self.place(at, self.heap[child]);
            at = child;
        }
        self.place(at, node);
    }
}

/// The attempt currently occupying a machine.
#[derive(Debug, Clone, Copy)]
struct RunningTask {
    run_id: u64,
    inst: usize,
    task: usize,
    dur: f64,
}

struct Machine {
    busy: bool,
    busy_until: f64,
    queue: ReadyQueue,
    /// The running attempt's identity (stale `Finish` events miss it).
    running: Option<RunningTask>,
    /// The machine is failed; its queue is frozen until repair.
    down: bool,
    /// When the current outage began (defined while `down`).
    down_since: f64,
    /// The machine's failure/repair RNG stream; `None` under [`NoFaults`].
    fault_rng: Option<StdRng>,
}

/// Fault-side totals of one run, carried into [`OnlineMetrics`].
#[derive(Debug, Clone, Copy, Default)]
struct FaultTotals {
    down_time: f64,
    machine_failures: usize,
    killed_tasks: usize,
    transient_faults: usize,
    retries: usize,
}

/// The executor. Construct once, [`run`](DynamicSim::run) a stream.
pub struct DynamicSim<'p> {
    config: SimConfig,
    policy: &'p dyn DropPolicy,
    fault: &'p dyn FaultModel,
    recovery: &'p dyn RecoveryPolicy,
}

impl<'p> DynamicSim<'p> {
    /// A fault-free executor with the given policy and configuration
    /// (machines never fail; the recovery policy is never consulted).
    pub fn new(policy: &'p dyn DropPolicy, config: SimConfig) -> Self {
        static ABANDON: crate::fault::Abandon = crate::fault::Abandon;
        Self {
            config,
            policy,
            fault: NoFaults::none(),
            recovery: &ABANDON,
        }
    }

    /// An executor injecting `fault` and recovering killed tasks with
    /// `recovery`. With [`NoFaults`] this is exactly [`DynamicSim::new`].
    pub fn with_faults(
        policy: &'p dyn DropPolicy,
        config: SimConfig,
        fault: &'p dyn FaultModel,
        recovery: &'p dyn RecoveryPolicy,
    ) -> Self {
        Self {
            config,
            policy,
            fault,
            recovery,
        }
    }

    /// Runs `stream` to exhaustion and returns per-instance outcomes plus
    /// the aggregated [`OnlineMetrics`].
    pub fn run(&self, stream: &mut dyn ArrivalStream) -> Result<SimResult, SimError> {
        let heuristic = heuristic_by_name(&self.config.heuristic)
            .ok_or_else(|| SimError::UnknownHeuristic(self.config.heuristic.clone()))?;

        // Scenario state by `Arc` identity, then by content fingerprint
        // (module docs). Each identity entry holds its `Arc`, so no
        // address can be reused while the map lives.
        let mut by_identity: HashMap<*const Scenario, (Arc<Scenario>, Arc<ScenarioState>)> =
            HashMap::new();
        let mut by_fingerprint: HashMap<u64, Arc<ScenarioState>> = HashMap::new();
        let mut instances: Vec<Instance> = Vec::new();
        let mut machines: Vec<Machine> = Vec::new();
        let mut heap: BinaryHeap<Reverse<Queued>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut run_ids = 0u64;
        let mut first_arrival: Option<f64> = None;
        let mut last_time: f64 = 0.0;
        let mut busy_time = 0.0f64;
        let mut dist_builds = 0usize;
        // Admitted instances still in flight — the fault processes fall
        // silent once the stream is exhausted and this hits zero, so runs
        // terminate.
        let mut live = 0usize;
        let mut faults = FaultTotals::default();

        let mut next_arrival = stream.next_arrival();
        loop {
            // Interleave arrivals with queued events; arrivals win ties so
            // an admission decision always sees the backlog as of strictly
            // earlier events.
            let take_arrival = match (&next_arrival, heap.peek()) {
                (Some(a), Some(Reverse(q))) => a.time.total_cmp(&q.time).is_le(),
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_arrival {
                let arrival = next_arrival.take().expect("checked above");
                next_arrival = stream.next_arrival();
                last_time = last_time.max(arrival.time);
                first_arrival.get_or_insert(arrival.time);

                let m = arrival.scenario.machine_count();
                if machines.is_empty() {
                    machines.resize_with(m, || Machine {
                        busy: false,
                        busy_until: 0.0,
                        queue: ReadyQueue::default(),
                        running: None,
                        down: false,
                        down_since: 0.0,
                        fault_rng: None,
                    });
                    if !self.fault.is_fault_free() {
                        // Arm each machine's failure process. The streams
                        // derive from a tag space disjoint from the
                        // instance sub-seeds, so injecting faults never
                        // perturbs a duration draw.
                        for (mi, mach) in machines.iter_mut().enumerate() {
                            let mut rng = StdRng::seed_from_u64(derive_seed(
                                self.config.seed,
                                FAULT_STREAM_TAG | mi as u64,
                            ));
                            let up = self.fault.sample_uptime(&mut rng);
                            if up.is_finite() {
                                heap.push(Reverse(Queued {
                                    time: arrival.time + up,
                                    seq: post_inc(&mut seq),
                                    event: Event::MachineFail { machine: mi },
                                }));
                            }
                            mach.fault_rng = Some(rng);
                        }
                    }
                } else if machines.len() != m {
                    return Err(SimError::MachineMismatch {
                        expected: machines.len(),
                        got: m,
                    });
                }

                let identity = Arc::as_ptr(&arrival.scenario);
                let state = match by_identity.get(&identity) {
                    Some((_, state)) => state.clone(),
                    None => {
                        let fp = scenario_fingerprint(&arrival.scenario);
                        let state = match by_fingerprint.get(&fp) {
                            Some(state) => state.clone(),
                            None => {
                                let state = Arc::new(self.scenario_state(
                                    heuristic.as_ref(),
                                    &arrival.scenario,
                                    &mut dist_builds,
                                )?);
                                by_fingerprint.insert(fp, state.clone());
                                state
                            }
                        };
                        by_identity.insert(identity, (arrival.scenario.clone(), state.clone()));
                        state
                    }
                };

                let idx = instances.len();
                let deadline = arrival.time + self.config.deadline_factor * state.det_makespan;
                let inst =
                    self.admit_instance(arrival.scenario, state, arrival.time, deadline, idx);

                let backlog = if self.policy.needs_backlog() {
                    backlog_estimate(&machines, &instances, arrival.time)
                } else {
                    0.0
                };
                let admitted = self.policy.admit(&PolicyQuery {
                    now: arrival.time,
                    arrival: arrival.time,
                    deadline,
                    backlog,
                    total: inst.state.dists.as_ref().map(|d| &d.total),
                    remaining: None,
                });

                instances.push(inst);
                if !admitted {
                    instances[idx].admitted = false;
                    instances[idx].dropped = true;
                    continue;
                }
                live += 1;
                // Queue the entry tasks and arm the deadline reaper.
                let n = instances[idx].pending.len();
                for task in 0..n {
                    if instances[idx].pending[task] == 0 {
                        heap.push(Reverse(Queued {
                            time: instances[idx].arrival,
                            seq: post_inc(&mut seq),
                            event: Event::Ready { inst: idx, task },
                        }));
                    }
                }
                if self.policy.reap_on_deadline() {
                    heap.push(Reverse(Queued {
                        time: deadline,
                        seq: post_inc(&mut seq),
                        event: Event::DeadlineLapse { inst: idx },
                    }));
                }
                continue;
            }

            let Reverse(q) = heap.pop().expect("checked above");
            // Fault processes fall silent once no live work remains (the
            // events neither extend the horizon nor fire), otherwise the
            // failure/repair chain would run forever.
            if matches!(q.event, Event::MachineFail { .. }) && next_arrival.is_none() && live == 0 {
                continue;
            }
            // A Finish whose attempt was killed by a machine failure is
            // stale: the kill already handled the task.
            if let Event::Finish {
                machine, run_id, ..
            } = q.event
            {
                let current = machines[machine].running.map(|r| r.run_id);
                if current != Some(run_id) {
                    continue;
                }
            }
            last_time = last_time.max(q.time);
            match q.event {
                Event::Ready { inst, task } => {
                    if instances[inst].dropped {
                        continue;
                    }
                    let machine = instances[inst].state.schedule.machine_of(task);
                    let entry = QueueEntry {
                        ready_abs: q.time,
                        ready_rel: instances[inst].ready_rel[task],
                        inst,
                        task,
                        dur: instances[inst].task_dur[task],
                    };
                    machines[machine].queue.push(entry);
                    self.dispatch(
                        machine,
                        q.time,
                        &mut machines,
                        &mut instances,
                        &mut heap,
                        &mut seq,
                        &mut run_ids,
                        &mut busy_time,
                        &mut live,
                    );
                }
                Event::Finish {
                    inst,
                    task,
                    machine,
                    run_id: _,
                    faulty,
                } => {
                    machines[machine].busy = false;
                    let run = machines[machine]
                        .running
                        .take()
                        .expect("validated before last_time");
                    let now = q.time;
                    if faulty {
                        // Transient fault: the whole duration is spent and
                        // the result discarded; recovery decides what next.
                        faults.transient_faults += 1;
                        let i = &mut instances[inst];
                        i.lost_time += run.dur;
                        i.finish_rel[task] = f64::NAN;
                        self.fail_task(
                            inst,
                            task,
                            now,
                            &mut instances,
                            &mut heap,
                            &mut seq,
                            &mut live,
                        );
                        self.dispatch(
                            machine,
                            now,
                            &mut machines,
                            &mut instances,
                            &mut heap,
                            &mut seq,
                            &mut run_ids,
                            &mut busy_time,
                            &mut live,
                        );
                        continue;
                    }
                    let i = &mut instances[inst];
                    i.tasks_completed += 1;
                    if now <= i.deadline {
                        i.tasks_met += 1;
                    }
                    if !i.dropped {
                        let finish_rel = i.finish_rel[task];
                        // Propagate the eager recurrence to the gated tasks:
                        // DAG successors (plus communication) and the next
                        // task on the machine. Identical FP operations to
                        // EagerPlan::execute in the relative frame.
                        let dag = &i.scenario.graph.dag;
                        let mut newly_ready: Vec<usize> = Vec::new();
                        for &(s, e) in dag.succs(task) {
                            let contrib = finish_rel + i.comm_dur[e];
                            if contrib > i.ready_rel[s] {
                                i.ready_rel[s] = contrib;
                            }
                            i.pending[s] -= 1;
                            if i.pending[s] == 0 {
                                newly_ready.push(s);
                            }
                        }
                        if let Some(w) = i.state.plan.next_on_proc()[task] {
                            if finish_rel > i.ready_rel[w] {
                                i.ready_rel[w] = finish_rel;
                            }
                            i.pending[w] -= 1;
                            if i.pending[w] == 0 {
                                newly_ready.push(w);
                            }
                        }
                        for s in newly_ready {
                            heap.push(Reverse(Queued {
                                time: i.arrival + i.ready_rel[s],
                                seq: post_inc(&mut seq),
                                event: Event::Ready { inst, task: s },
                            }));
                        }
                        if i.tasks_completed == i.pending.len() {
                            // Same fold as EagerPlan::execute's makespan.
                            let makespan_rel = i.finish_rel.iter().copied().fold(0.0, f64::max);
                            i.makespan = Some(makespan_rel);
                            i.finish = Some(i.arrival + makespan_rel);
                            live -= 1;
                        }
                    }
                    self.dispatch(
                        machine,
                        now,
                        &mut machines,
                        &mut instances,
                        &mut heap,
                        &mut seq,
                        &mut run_ids,
                        &mut busy_time,
                        &mut live,
                    );
                }
                Event::DeadlineLapse { inst } => {
                    let i = &mut instances[inst];
                    if i.finish.is_none() && !i.dropped {
                        i.dropped = true;
                        live -= 1;
                    }
                }
                Event::MachineFail { machine } => {
                    faults.machine_failures += 1;
                    let now = q.time;
                    let rng = machines[machine]
                        .fault_rng
                        .as_mut()
                        .expect("fault events require a fault stream");
                    let downtime = self.fault.sample_downtime(rng);
                    let up_at = now + downtime;
                    machines[machine].down = true;
                    machines[machine].down_since = now;
                    if let Some(run) = machines[machine].running.take() {
                        // Kill the running attempt: the spent fraction is
                        // lost work, the unexecuted remainder is refunded.
                        machines[machine].busy = false;
                        let remainder = (machines[machine].busy_until - now).max(0.0);
                        busy_time -= remainder;
                        faults.killed_tasks += 1;
                        let (inst, task) = (run.inst, run.task);
                        let i = &mut instances[inst];
                        i.executed_time -= remainder;
                        i.lost_time += (run.dur - remainder).max(0.0);
                        i.finish_rel[task] = f64::NAN;
                        self.fail_task(
                            inst,
                            task,
                            now,
                            &mut instances,
                            &mut heap,
                            &mut seq,
                            &mut live,
                        );
                    }
                    // The machine is unavailable until repair; queued work
                    // waits (frozen queue), and post-repair starts rebase
                    // on the repair time.
                    machines[machine].busy_until = up_at;
                    heap.push(Reverse(Queued {
                        time: up_at,
                        seq: post_inc(&mut seq),
                        event: Event::MachineRepair { machine },
                    }));
                }
                Event::MachineRepair { machine } => {
                    let now = q.time;
                    faults.down_time += now - machines[machine].down_since;
                    machines[machine].down = false;
                    // Re-arm the failure process only while work remains.
                    if !(next_arrival.is_none() && live == 0) {
                        let rng = machines[machine]
                            .fault_rng
                            .as_mut()
                            .expect("fault events require a fault stream");
                        let up = self.fault.sample_uptime(rng);
                        if up.is_finite() {
                            heap.push(Reverse(Queued {
                                time: now + up,
                                seq: post_inc(&mut seq),
                                event: Event::MachineFail { machine },
                            }));
                        }
                    }
                    self.dispatch(
                        machine,
                        now,
                        &mut machines,
                        &mut instances,
                        &mut heap,
                        &mut seq,
                        &mut run_ids,
                        &mut busy_time,
                        &mut live,
                    );
                }
                Event::Redispatch {
                    inst,
                    task,
                    resched,
                } => {
                    if instances[inst].dropped {
                        continue;
                    }
                    faults.retries += 1;
                    instances[inst].retries += 1;
                    let now = q.time;
                    let static_m = instances[inst].state.schedule.machine_of(task);
                    let machine = if resched {
                        pick_surviving(&machines, &instances, now, static_m)
                    } else {
                        static_m
                    };
                    let dur = if machine == static_m {
                        instances[inst].task_dur[task]
                    } else {
                        // Moving machines rescales the sampled duration by
                        // the deterministic cost ratio, preserving the
                        // draw's luck; communication delays keep their
                        // static-assignment samples (documented
                        // approximation).
                        let i = &instances[inst];
                        let det_old = i.scenario.det_task_cost(task, static_m);
                        let det_new = i.scenario.det_task_cost(task, machine);
                        if det_old > 0.0 {
                            i.task_dur[task] * (det_new / det_old)
                        } else {
                            det_new
                        }
                    };
                    let entry = QueueEntry {
                        ready_abs: now,
                        ready_rel: now - instances[inst].arrival,
                        inst,
                        task,
                        dur,
                    };
                    machines[machine].queue.push(entry);
                    self.dispatch(
                        machine,
                        now,
                        &mut machines,
                        &mut instances,
                        &mut heap,
                        &mut seq,
                        &mut run_ids,
                        &mut busy_time,
                        &mut live,
                    );
                }
            }
        }

        let machine_count = machines.len();
        Ok(finalize(
            instances,
            machine_count,
            first_arrival.unwrap_or(0.0),
            last_time,
            busy_time,
            faults,
            dist_builds,
        ))
    }

    /// Builds the state every instance of `scenario` shares: schedule,
    /// eager plan, deterministic makespan, sampling tables and, when the
    /// policy asks, the remaining-work distributions (counted in
    /// `dist_builds`).
    fn scenario_state(
        &self,
        heuristic: &dyn Heuristic,
        scenario: &Scenario,
        dist_builds: &mut usize,
    ) -> Result<ScenarioState, SimError> {
        let schedule = match &self.config.schedule {
            Some(s) => s.clone(),
            None => heuristic.schedule(scenario)?,
        };
        let plan = EagerPlan::new(&scenario.graph.dag, &schedule)?;
        let det_makespan = plan
            .execute(
                &scenario.graph.dag,
                |v| scenario.det_task_cost(v, schedule.machine_of(v)),
                |e, u, v| scenario.det_comm_cost(e, schedule.machine_of(u), schedule.machine_of(v)),
            )
            .makespan;
        let dists = self.policy.needs_distributions().then(|| {
            *dist_builds += 1;
            let disc = DiscretizedScenario::new(scenario, self.config.grid);
            RemainingDists::build(scenario, &schedule, &plan, &disc)
        });
        Ok(ScenarioState {
            schedule,
            plan,
            det_makespan,
            tables: SamplingTables::new(scenario),
            dists,
        })
    }

    /// Builds the per-instance state: deadline, sampled durations, eager
    /// recurrence bookkeeping.
    fn admit_instance(
        &self,
        scenario: Arc<Scenario>,
        state: Arc<ScenarioState>,
        arrival: f64,
        deadline: f64,
        idx: usize,
    ) -> Instance {
        let n = scenario.task_count();
        let edges = scenario.graph.edge_count();
        let mut rng = StdRng::seed_from_u64(derive_seed(self.config.seed, idx as u64 + 1));
        let base = state.tables.base();
        // Fixed sampling order (tasks 0..n, then edges 0..e) with the
        // Monte-Carlo engine's affine formula `w + (UL−1)·w·Q(u53)`. With
        // no uncertainty (or zero weight) the duration is exactly the
        // deterministic cost — the zero-uncertainty equivalence tests rely
        // on this bit-level identity.
        let sample = |w: f64, ul: f64, rng: &mut StdRng| -> f64 {
            match base {
                Some(table) if w > 0.0 && ul > 1.0 => {
                    w + (ul - 1.0) * w * table.quantile_u53(rng.next_u64() >> 11)
                }
                _ => w,
            }
        };
        let task_dur: Vec<f64> = (0..n)
            .map(|v| {
                let w = scenario.det_task_cost(v, state.schedule.machine_of(v));
                sample(w, scenario.task_ul(v), &mut rng)
            })
            .collect();
        let comm_dur: Vec<f64> = (0..edges)
            .map(|e| {
                let (u, v) = scenario.graph.dag.edge_endpoints(e);
                let (pu, pv) = (state.schedule.machine_of(u), state.schedule.machine_of(v));
                let w = scenario.det_comm_cost(e, pu, pv);
                sample(w, scenario.uncertainty.ul, &mut rng)
            })
            .collect();
        let pending: Vec<usize> = (0..n)
            .map(|v| {
                scenario.graph.dag.in_degree(v)
                    + usize::from(state.plan.prev_on_proc()[v].is_some())
            })
            .collect();
        Instance {
            scenario,
            state,
            arrival,
            deadline,
            task_dur,
            comm_dur,
            pending,
            ready_rel: vec![0.0; n],
            finish_rel: vec![f64::NAN; n],
            attempts: vec![0; n],
            tasks_completed: 0,
            tasks_met: 0,
            executed_time: 0.0,
            lost_time: 0.0,
            retries: 0,
            admitted: true,
            dropped: false,
            finish: None,
            makespan: None,
        }
    }

    /// A task attempt failed (machine kill or transient fault): count it
    /// and consult the recovery policy — abandon the instance, or arm a
    /// re-dispatch after the policy's backoff.
    #[allow(clippy::too_many_arguments)] // the event loop's whole mutable state
    fn fail_task(
        &self,
        inst: usize,
        task: usize,
        now: f64,
        instances: &mut [Instance],
        heap: &mut BinaryHeap<Reverse<Queued>>,
        seq: &mut u64,
        live: &mut usize,
    ) {
        let i = &mut instances[inst];
        if i.dropped {
            // Abandoned work gets no recovery; the attempt just dies.
            return;
        }
        i.attempts[task] += 1;
        let action = self.recovery.on_failure(i.attempts[task]);
        let (time, resched) = match action {
            RecoveryAction::Abandon => {
                i.dropped = true;
                *live -= 1;
                return;
            }
            RecoveryAction::Retry { delay } => (now + delay, false),
            RecoveryAction::Resched { delay } => (now + delay, true),
        };
        heap.push(Reverse(Queued {
            time,
            seq: post_inc(seq),
            event: Event::Redispatch {
                inst,
                task,
                resched,
            },
        }));
    }

    /// Starts queued work on `machine` while it is free: pick the entry
    /// with the least `(ready time, instance, task)` key, consult the
    /// policy, and either start it or drop its instance and keep looking.
    #[allow(clippy::too_many_arguments)] // the event loop's whole mutable state
    fn dispatch(
        &self,
        machine: usize,
        now: f64,
        machines: &mut [Machine],
        instances: &mut [Instance],
        heap: &mut BinaryHeap<Reverse<Queued>>,
        seq: &mut u64,
        run_ids: &mut u64,
        busy_time: &mut f64,
        live: &mut usize,
    ) {
        while !machines[machine].busy && !machines[machine].down {
            // Deterministic selection: least (ready_abs, inst, task).
            let Some(entry) = machines[machine].queue.pop_min() else {
                return;
            };
            if instances[entry.inst].dropped {
                continue;
            }
            {
                let i = &instances[entry.inst];
                let keep = self.policy.keep_task(&PolicyQuery {
                    now,
                    arrival: i.arrival,
                    deadline: i.deadline,
                    backlog: 0.0,
                    total: i.state.dists.as_ref().map(|d| &d.total),
                    remaining: i.state.dists.as_ref().map(|d| &d.rem[entry.task]),
                });
                if !keep {
                    instances[entry.inst].dropped = true;
                    *live -= 1;
                    continue;
                }
            }
            // Transient fate, decided deterministically per attempt from a
            // seed stream disjoint from every duration draw.
            let p = self.fault.transient_probability();
            let faulty = p > 0.0
                && transient_draw(
                    self.config.seed,
                    entry.inst,
                    entry.task,
                    instances[entry.inst].attempts[entry.task],
                    p,
                );
            let i = &mut instances[entry.inst];
            // Uncontended starts stay in the relative frame (the exact
            // EagerPlan::execute operations); a contended start waits for
            // the machine and is rebased once.
            let finish_rel = if machines[machine].busy_until > entry.ready_abs {
                (machines[machine].busy_until - i.arrival) + entry.dur
            } else {
                entry.ready_rel + entry.dur
            };
            i.finish_rel[entry.task] = finish_rel;
            i.executed_time += entry.dur;
            *busy_time += entry.dur;
            let finish_abs = i.arrival + finish_rel;
            machines[machine].busy = true;
            machines[machine].busy_until = finish_abs;
            let run_id = post_inc(run_ids);
            machines[machine].running = Some(RunningTask {
                run_id,
                dur: entry.dur,
                inst: entry.inst,
                task: entry.task,
            });
            heap.push(Reverse(Queued {
                time: finish_abs,
                seq: post_inc(seq),
                event: Event::Finish {
                    inst: entry.inst,
                    task: entry.task,
                    machine,
                    run_id,
                    faulty,
                },
            }));
        }
    }
}

#[inline]
fn post_inc(seq: &mut u64) -> u64 {
    let s = *seq;
    *seq += 1;
    s
}

/// The per-attempt transient-fault draw: one derived-seed RNG keyed by
/// `(instance, task, attempt)`, compared against `p` with the top-53-bit
/// uniform convention. Pure, so re-running an attempt count reproduces
/// its fate bit for bit.
fn transient_draw(seed: u64, inst: usize, task: usize, attempt: usize, p: f64) -> bool {
    let key = TRANSIENT_DRAW_TAG | ((inst as u64) << 20) ^ ((task as u64) << 6) ^ attempt as u64;
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, key));
    let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    u < p
}

/// The `resched` machine choice: least current load (running remainder +
/// queued live durations) over surviving machines, lowest index on ties;
/// `fallback` when every machine is down.
fn pick_surviving(
    machines: &[Machine],
    instances: &[Instance],
    now: f64,
    fallback: usize,
) -> usize {
    let mut best: Option<(f64, usize)> = None;
    for (mi, m) in machines.iter().enumerate() {
        if m.down {
            continue;
        }
        let mut load = if m.busy && m.busy_until > now {
            m.busy_until - now
        } else {
            0.0
        };
        for entry in m.queue.entries() {
            if !instances[entry.inst].dropped {
                load += entry.dur;
            }
        }
        if best.is_none_or(|(b, _)| load < b) {
            best = Some((load, mi));
        }
    }
    best.map_or(fallback, |(_, mi)| mi)
}

/// Mean per-machine work ahead at `now`: running remainders plus queued
/// sampled durations, averaged over the pool — the [`PolicyQuery::backlog`]
/// estimate of the admission gate.
fn backlog_estimate(machines: &[Machine], instances: &[Instance], now: f64) -> f64 {
    if machines.is_empty() {
        return 0.0;
    }
    let mut work = 0.0;
    for m in machines {
        if m.busy && m.busy_until > now {
            work += m.busy_until - now;
        }
        for entry in m.queue.entries() {
            if !instances[entry.inst].dropped {
                work += entry.dur;
            }
        }
    }
    work / machines.len() as f64
}

fn finalize(
    instances: Vec<Instance>,
    machines: usize,
    first_arrival: f64,
    last_time: f64,
    busy_time: f64,
    faults: FaultTotals,
    dist_builds: usize,
) -> SimResult {
    let mut metrics = OnlineMetrics {
        machines,
        busy_time,
        horizon: (last_time - first_arrival).max(0.0),
        down_time: faults.down_time,
        machine_failures: faults.machine_failures,
        killed_tasks: faults.killed_tasks,
        transient_faults: faults.transient_faults,
        retries: faults.retries,
        ..Default::default()
    };
    let mut outcomes = Vec::with_capacity(instances.len());
    for i in instances {
        let outcome = InstanceOutcome {
            arrival: i.arrival,
            deadline: i.deadline,
            det_makespan: i.state.det_makespan,
            finish: i.finish,
            makespan: i.makespan,
            admitted: i.admitted,
            dropped: i.dropped,
            tasks: i.pending.len(),
            tasks_completed: i.tasks_completed,
            tasks_met: i.tasks_met,
            executed_time: i.executed_time,
            lost_time: i.lost_time,
            retries: i.retries,
        };
        metrics.instances += 1;
        metrics.tasks_total += outcome.tasks;
        metrics.tasks_completed += outcome.tasks_completed;
        metrics.tasks_met += outcome.tasks_met;
        metrics.lost_time += outcome.lost_time;
        if outcome.admitted {
            metrics.admitted += 1;
            if outcome.dropped {
                metrics.dropped += 1;
            }
        } else {
            metrics.rejected += 1;
        }
        if outcome.finish.is_some() {
            metrics.completed += 1;
        }
        if outcome.met_deadline() {
            metrics.workflows_met += 1;
            // Failed attempts of an on-time instance are still wasted
            // machine-time (zero without faults, so the fault-free sum is
            // bit-identical to the pre-fault executor's).
            metrics.wasted_time += outcome.lost_time;
        } else {
            metrics.wasted_time += outcome.executed_time;
        }
        outcomes.push(outcome);
    }
    SimResult {
        outcomes,
        metrics,
        dist_builds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// The entry fields, bit for bit, for comparisons.
    fn bits(e: &QueueEntry) -> (u64, u64, usize, usize, u64) {
        (
            e.ready_abs.to_bits(),
            e.ready_rel.to_bits(),
            e.inst,
            e.task,
            e.dur.to_bits(),
        )
    }

    /// The linear selection the heap replaces: least
    /// `(ready_abs, inst, task)` by `min_by`, then `swap_remove`.
    fn linear_pop_min(queue: &mut Vec<QueueEntry>) -> Option<QueueEntry> {
        let best = queue
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.ready_abs
                    .total_cmp(&b.ready_abs)
                    .then(a.inst.cmp(&b.inst))
                    .then(a.task.cmp(&b.task))
            })
            .map(|(i, _)| i)?;
        Some(queue.swap_remove(best))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Driven like the executor drives it — pushes of ready tasks,
        /// dispatches that skip entries of dropped instances, instances
        /// dropped with entries still queued, re-queues after a pop — the
        /// indexed queue pops the same entries as the linear scan and
        /// leaves its `Vec` in the same order after every step.
        #[test]
        fn ready_queue_matches_the_linear_scan(
            ops in prop::collection::vec(0u32..u32::MAX, 1..400),
        ) {
            // Few distinct ready times, so most pushes tie on `ready_abs`.
            const TIMES: [f64; 5] = [0.0, -0.0, 1.0, 2.5, 1.0e9];
            let mut heap = ReadyQueue::default();
            let mut linear: Vec<QueueEntry> = Vec::new();
            let mut queued: HashSet<(usize, usize)> = HashSet::new();
            let mut dropped: HashSet<usize> = HashSet::new();
            for op in ops {
                let inst = (op >> 5) as usize % 16;
                match op % 32 {
                    0..=17 => {
                        // A task becomes ready; at most one entry per
                        // (instance, task) is ever queued.
                        let task = (op >> 9) as usize % 16;
                        if dropped.contains(&inst) || !queued.insert((inst, task)) {
                            continue;
                        }
                        let ready_abs = TIMES[(op >> 13) as usize % TIMES.len()];
                        let entry = QueueEntry {
                            ready_abs,
                            ready_rel: ready_abs - inst as f64,
                            inst,
                            task,
                            dur: f64::from(op >> 16) * 0.125,
                        };
                        heap.push(entry);
                        linear.push(entry);
                    }
                    18..=30 => loop {
                        // A dispatch: pop until a live entry starts.
                        let got = heap.pop_min();
                        let want = linear_pop_min(&mut linear);
                        prop_assert_eq!(got.as_ref().map(bits), want.as_ref().map(bits));
                        let Some(entry) = got else { break };
                        queued.remove(&(entry.inst, entry.task));
                        if !dropped.contains(&entry.inst) {
                            break;
                        }
                    },
                    _ => {
                        // A policy drops the instance; its entries stay
                        // queued and are skipped lazily.
                        dropped.insert(inst);
                    }
                }
                let got: Vec<_> = heap.entries().iter().map(bits).collect();
                let want: Vec<_> = linear.iter().map(bits).collect();
                prop_assert_eq!(got, want);
            }
            while let Some(entry) = linear_pop_min(&mut linear) {
                prop_assert_eq!(heap.pop_min().as_ref().map(bits), Some(bits(&entry)));
            }
            prop_assert!(heap.pop_min().is_none());
        }
    }
}
