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
//! A run's mutable state is one `RunState`; the arrival step and the
//! handler of each event kind are its methods. Every event enters the
//! heap through its one `push`, which assigns the sequence number, so the
//! order of the pushes decides every tie between events.
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
//! eager executor's on spaced arrival streams (pinned by the
//! `spaced_zero_uncertainty_reproduces_eager_makespans` proptest in
//! `crates/dynamic/tests/executor.rs`). Under contention a task
//! additionally waits for its machine (`start = max(ready, machine
//! free)`), which can only delay it.
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
use crate::stream::{Arrival, ArrivalStream};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use robusched_core::OnlineMetrics;
use robusched_platform::Scenario;
use robusched_randvar::{derive_seed, uniform01_word, DEFAULT_GRID};
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
/// Tasks per scenario that a run with transient faults accepts: the
/// draw key holds a task index in 14 bits (see [`transient_key`]).
const TRANSIENT_MAX_TASKS: usize = 1 << 14;
/// Failures per task that a run with transient faults allows: the draw
/// key holds the failure count in 6 bits (see [`transient_key`]).
const TRANSIENT_MAX_ATTEMPTS: usize = 1 << 6;

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
    /// Under a fault model with transient faults, an arriving scenario
    /// has more tasks than the per-attempt fault draw tells apart.
    TooManyTasks {
        /// Tasks of the offending scenario.
        tasks: usize,
        /// The most tasks such a run accepts.
        max: usize,
    },
    /// Under a fault model with transient faults, the recovery policy
    /// keeps a task past its `max`-th failure, where the per-attempt fault
    /// draws would repeat another attempt's.
    TooManyAttempts {
        /// The failure count by which a task must be abandoned.
        max: usize,
    },
    /// A Poisson arrival stream's rate, computed from a load level, is
    /// not finite and positive (a `PoissonStream` would refuse it).
    ArrivalRate,
    /// An arrival's time is not finite: a positive rate so small that an
    /// interarrival time overflows, or a replayed arrival at ±∞ or NaN.
    ArrivalTime,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownHeuristic(n) => write!(f, "unknown heuristic '{n}'"),
            Self::Schedule(e) => write!(f, "scheduling failed: {e}"),
            Self::MachineMismatch { expected, got } => {
                write!(f, "scenario has {got} machines, pool has {expected}")
            }
            Self::TooManyTasks { tasks, max } => {
                write!(
                    f,
                    "scenario has {tasks} tasks; transient faults allow at most {max}"
                )
            }
            Self::TooManyAttempts { max } => write!(
                f,
                "recovery policy keeps a task past its {max}th failure; \
                 transient faults allow at most {max} failures per task"
            ),
            Self::ArrivalRate => write!(f, "arrival rate is not a finite positive number"),
            Self::ArrivalTime => write!(f, "arrival time is not finite"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<SimError> for std::io::Error {
    fn from(e: SimError) -> Self {
        std::io::Error::other(e)
    }
}

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
    /// The instance's fate, filled in as the run goes (`arrival`,
    /// `deadline`, `det_makespan` and `tasks` are set at arrival).
    outcome: InstanceOutcome,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    Ready {
        inst: usize,
        task: usize,
    },
    /// The attempt `run_id` on `machine` ends; a mismatch against the
    /// machine's running attempt means the attempt was killed and the
    /// event is stale.
    Finish {
        machine: usize,
        run_id: u64,
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

/// The event queue: a binary heap of [`Queued`] keys and the sequence
/// number the next push takes.
#[derive(Default)]
struct EventQueue {
    heap: BinaryHeap<Reverse<Queued>>,
    seq: u64,
}

impl EventQueue {
    /// Queues `event` at `time`, after every queued event of equal time.
    fn push(&mut self, time: f64, event: Event) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Queued { time, seq, event }));
    }

    fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|Reverse(q)| q.time)
    }

    fn pop(&mut self) -> Option<(f64, Event)> {
        self.heap.pop().map(|Reverse(q)| (q.time, q.event))
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
    /// The attempt was pre-drawn to fail transiently: the duration is
    /// spent, the result discarded.
    faulty: bool,
}

struct Machine {
    /// When the running attempt ends; while the machine is down, when
    /// the repair is due.
    busy_until: f64,
    queue: ReadyQueue,
    /// The running attempt (stale `Finish` events miss its `run_id`);
    /// `None` while the machine is idle.
    running: Option<RunningTask>,
    /// When the current outage began; `None` while the machine is up. A
    /// down machine's queue is frozen until repair.
    down_since: Option<f64>,
    /// The machine's failure/repair RNG stream; `None` under [`NoFaults`].
    fault_rng: Option<StdRng>,
}

impl Machine {
    /// Up and running nothing: dispatch may start an attempt.
    fn available(&self) -> bool {
        self.running.is_none() && self.down_since.is_none()
    }
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
        // The transient draw key tells failure counts apart only below
        // 64. The bundled policies abandon from some failure count on, so
        // they abandon a task by its 64th failure exactly when the 64th
        // failure abandons it.
        if self.fault.transient_probability() > 0.0
            && self.recovery.on_failure(TRANSIENT_MAX_ATTEMPTS) != RecoveryAction::Abandon
        {
            return Err(SimError::TooManyAttempts {
                max: TRANSIENT_MAX_ATTEMPTS,
            });
        }
        let mut run = RunState::new(self, heuristic, stream.next_arrival());
        loop {
            // Interleave arrivals with queued events; arrivals win ties so
            // an admission decision always sees the backlog as of strictly
            // earlier events.
            let take_arrival = match (&run.next_arrival, run.events.peek_time()) {
                (Some(a), Some(t)) => a.time.total_cmp(&t).is_le(),
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => return Ok(run.finalize()),
            };
            if take_arrival {
                let next = stream.next_arrival();
                let arrival = std::mem::replace(&mut run.next_arrival, next);
                run.arrive(arrival.expect("checked above"))?;
            } else {
                let (time, event) = run.events.pop().expect("checked above");
                run.on_event(time, event);
            }
        }
    }
}

/// The mutable state of one [`DynamicSim::run`]. The arrival step, the
/// handler of each event kind, dispatch and the final tally are its
/// methods.
struct RunState<'r> {
    sim: &'r DynamicSim<'r>,
    heuristic: Box<dyn Heuristic>,
    /// The stream's next arrival; `None` once the stream is exhausted.
    next_arrival: Option<Arrival>,
    /// Scenario state by `Arc` identity, then by content fingerprint
    /// (module docs). Each identity entry holds its `Arc`, so no address
    /// can be reused while the map lives.
    by_identity: HashMap<*const Scenario, (Arc<Scenario>, Arc<ScenarioState>)>,
    by_fingerprint: HashMap<u64, Arc<ScenarioState>>,
    machines: Vec<Machine>,
    instances: Vec<Instance>,
    events: EventQueue,
    /// The `run_id` the next started attempt takes.
    run_ids: u64,
    /// Admitted instances still in flight.
    live: usize,
    /// The counters events update as they happen (busy time and the fault
    /// totals); [`RunState::finalize`] fills in the rest.
    metrics: OnlineMetrics,
    last_time: f64,
}

impl<'r> RunState<'r> {
    fn new(
        sim: &'r DynamicSim<'r>,
        heuristic: Box<dyn Heuristic>,
        next_arrival: Option<Arrival>,
    ) -> Self {
        Self {
            sim,
            heuristic,
            next_arrival,
            by_identity: HashMap::new(),
            by_fingerprint: HashMap::new(),
            machines: Vec::new(),
            instances: Vec::new(),
            events: EventQueue::default(),
            run_ids: 0,
            live: 0,
            metrics: OnlineMetrics::default(),
            last_time: 0.0,
        }
    }

    /// `true` once the stream is exhausted and no admitted instance is in
    /// flight: the fault processes then fall silent, so runs terminate.
    fn idle(&self) -> bool {
        self.next_arrival.is_none() && self.live == 0
    }

    /// The arrival step: find the scenario's state, build the instance
    /// and ask the policy to admit it. An admitted instance queues its
    /// entry tasks and arms its deadline reaper.
    fn arrive(&mut self, arrival: Arrival) -> Result<(), SimError> {
        if !arrival.time.is_finite() {
            return Err(SimError::ArrivalTime);
        }
        let tasks = arrival.scenario.task_count();
        if tasks > TRANSIENT_MAX_TASKS && self.sim.fault.transient_probability() > 0.0 {
            return Err(SimError::TooManyTasks {
                tasks,
                max: TRANSIENT_MAX_TASKS,
            });
        }
        let now = arrival.time;
        self.last_time = self.last_time.max(now);
        let m = arrival.scenario.machine_count();
        if self.machines.is_empty() {
            self.open_pool(m, now);
        } else if self.machines.len() != m {
            return Err(SimError::MachineMismatch {
                expected: self.machines.len(),
                got: m,
            });
        }

        let state = self.scenario_state(&arrival.scenario)?;
        let mut inst = self.new_instance(arrival.scenario, state, now);
        let policy = self.sim.policy;
        let backlog = if policy.needs_backlog() {
            self.backlog_estimate(now)
        } else {
            0.0
        };
        let admitted = policy.admit(&PolicyQuery {
            now,
            arrival: now,
            deadline: inst.outcome.deadline,
            backlog,
            total: inst.state.dists.as_ref().map(|d| &d.total),
            remaining: None,
        });
        inst.outcome.admitted = admitted;
        inst.outcome.dropped = !admitted;
        let idx = self.instances.len();
        if admitted {
            self.live += 1;
            // Queue the entry tasks and arm the deadline reaper.
            for (task, &p) in inst.pending.iter().enumerate() {
                if p == 0 {
                    self.events.push(now, Event::Ready { inst: idx, task });
                }
            }
            if policy.reap_on_deadline() {
                let lapse = Event::DeadlineLapse { inst: idx };
                self.events.push(inst.outcome.deadline, lapse);
            }
        }
        self.instances.push(inst);
        Ok(())
    }

    /// Opens the machine pool at the first arrival and, under a fault
    /// model, arms each machine's failure process.
    fn open_pool(&mut self, m: usize, now: f64) {
        let fault = self.sim.fault;
        for machine in 0..m {
            // The fault streams derive from a tag space disjoint from the
            // instance sub-seeds, so injecting faults never perturbs a
            // duration draw.
            let fault_rng = (!fault.is_fault_free()).then(|| {
                let tag = FAULT_STREAM_TAG | machine as u64;
                let mut rng = StdRng::seed_from_u64(derive_seed(self.sim.config.seed, tag));
                let up = fault.sample_uptime(&mut rng);
                if up.is_finite() {
                    self.events.push(now + up, Event::MachineFail { machine });
                }
                rng
            });
            self.machines.push(Machine {
                busy_until: 0.0,
                queue: ReadyQueue::default(),
                running: None,
                down_since: None,
                fault_rng,
            });
        }
    }

    /// The state of `scenario`, found by `Arc` identity, then by content
    /// fingerprint, and built on a miss of both.
    fn scenario_state(&mut self, scenario: &Arc<Scenario>) -> Result<Arc<ScenarioState>, SimError> {
        let identity = Arc::as_ptr(scenario);
        if let Some((_, state)) = self.by_identity.get(&identity) {
            return Ok(state.clone());
        }
        let fp = scenario_fingerprint(scenario);
        let state = match self.by_fingerprint.get(&fp) {
            Some(state) => state.clone(),
            None => {
                let state = Arc::new(self.build_scenario_state(scenario)?);
                self.by_fingerprint.insert(fp, state.clone());
                state
            }
        };
        self.by_identity
            .insert(identity, (scenario.clone(), state.clone()));
        Ok(state)
    }

    /// Builds the state every instance of `scenario` shares: schedule,
    /// eager plan, deterministic makespan, sampling tables and, when the
    /// policy asks, the remaining-work distributions.
    fn build_scenario_state(&self, scenario: &Scenario) -> Result<ScenarioState, SimError> {
        let schedule = match &self.sim.config.schedule {
            Some(s) => s.clone(),
            None => self.heuristic.schedule(scenario)?,
        };
        let plan = EagerPlan::new(&scenario.graph.dag, &schedule)?;
        let det_makespan = plan
            .execute(
                &scenario.graph.dag,
                |v| scenario.det_task_cost(v, schedule.machine_of(v)),
                |e, u, v| scenario.det_comm_cost(e, schedule.machine_of(u), schedule.machine_of(v)),
            )
            .makespan;
        let dists = self.sim.policy.needs_distributions().then(|| {
            let disc = DiscretizedScenario::new(scenario, DEFAULT_GRID);
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

    /// Builds the next instance: deadline, sampled durations, eager
    /// recurrence bookkeeping.
    fn new_instance(
        &self,
        scenario: Arc<Scenario>,
        state: Arc<ScenarioState>,
        arrival: f64,
    ) -> Instance {
        let idx = self.instances.len();
        let config = &self.sim.config;
        let n = scenario.task_count();
        let edges = scenario.graph.edge_count();
        let mut rng = StdRng::seed_from_u64(derive_seed(config.seed, idx as u64 + 1));
        let base = state.tables.base();
        // Fixed sampling order (tasks 0..n, then edges 0..e) with the
        // scenario's draw rule `w + span·Q(u53)`. With no uncertainty (or
        // zero weight) the duration is exactly the deterministic cost —
        // the zero-uncertainty equivalence tests rely on this bit-level
        // identity.
        let sample = |(w, span): (f64, f64), ul: f64, rng: &mut StdRng| -> f64 {
            match base {
                Some(table) if w > 0.0 && ul > 1.0 => {
                    w + span * table.quantile_u53(rng.next_u64() >> 11)
                }
                _ => w,
            }
        };
        let task_dur: Vec<f64> = (0..n)
            .map(|v| {
                let rule = scenario.task_affine(v, state.schedule.machine_of(v));
                sample(rule, scenario.task_ul(v), &mut rng)
            })
            .collect();
        let comm_dur: Vec<f64> = (0..edges)
            .map(|e| {
                let (u, v) = scenario.graph.dag.edge_endpoints(e);
                let (pu, pv) = (state.schedule.machine_of(u), state.schedule.machine_of(v));
                sample(
                    scenario.comm_affine(e, pu, pv),
                    scenario.uncertainty.ul,
                    &mut rng,
                )
            })
            .collect();
        let pending: Vec<usize> = (0..n)
            .map(|v| {
                scenario.graph.dag.in_degree(v)
                    + usize::from(state.plan.prev_on_proc()[v].is_some())
            })
            .collect();
        let outcome = InstanceOutcome {
            arrival,
            deadline: arrival + config.deadline_factor * state.det_makespan,
            det_makespan: state.det_makespan,
            finish: None,
            makespan: None,
            admitted: true,
            dropped: false,
            tasks: n,
            tasks_completed: 0,
            tasks_met: 0,
            executed_time: 0.0,
            lost_time: 0.0,
            retries: 0,
        };
        Instance {
            scenario,
            state,
            task_dur,
            comm_dur,
            pending,
            ready_rel: vec![0.0; n],
            finish_rel: vec![f64::NAN; n],
            attempts: vec![0; n],
            outcome,
        }
    }

    /// Handles one queued event. A machine failure once the run is idle
    /// and the `Finish` of a killed attempt are skipped, and neither
    /// extends the horizon.
    fn on_event(&mut self, now: f64, event: Event) {
        let skip = match event {
            // Fault processes fall silent once no live work remains,
            // otherwise the failure/repair chain would run forever.
            Event::MachineFail { .. } => self.idle(),
            // The kill already handled the task.
            Event::Finish { machine, run_id } => {
                self.machines[machine].running.map(|r| r.run_id) != Some(run_id)
            }
            _ => false,
        };
        if skip {
            return;
        }
        self.last_time = self.last_time.max(now);
        match event {
            Event::Ready { inst, task } => self.on_ready(now, inst, task),
            Event::Finish { machine, .. } => self.on_finish(now, machine),
            Event::DeadlineLapse { inst } => self.on_deadline_lapse(inst),
            Event::MachineFail { machine } => self.on_machine_fail(now, machine),
            Event::MachineRepair { machine } => self.on_machine_repair(now, machine),
            Event::Redispatch {
                inst,
                task,
                resched,
            } => self.on_redispatch(now, inst, task, resched),
        }
    }

    /// A task's prerequisites are done: queue it on its machine.
    fn on_ready(&mut self, now: f64, inst: usize, task: usize) {
        let i = &self.instances[inst];
        if i.outcome.dropped {
            return;
        }
        let machine = i.state.schedule.machine_of(task);
        self.machines[machine].queue.push(QueueEntry {
            ready_abs: now,
            ready_rel: i.ready_rel[task],
            inst,
            task,
            dur: i.task_dur[task],
        });
        self.dispatch(machine, now);
    }

    /// The running attempt on `machine` ends: a transient fault hands the
    /// task to recovery, a success releases the tasks it gated.
    fn on_finish(&mut self, now: f64, machine: usize) {
        let run = self.machines[machine]
            .running
            .take()
            .expect("validated before last_time");
        let (inst, task) = (run.inst, run.task);
        let i = &mut self.instances[inst];
        if run.faulty {
            // Transient fault: the whole duration is spent and the result
            // discarded; recovery decides what next.
            self.metrics.transient_faults += 1;
            i.outcome.lost_time += run.dur;
            i.finish_rel[task] = f64::NAN;
            self.fail_task(inst, task, now);
            self.dispatch(machine, now);
            return;
        }
        i.outcome.tasks_completed += 1;
        if now <= i.outcome.deadline {
            i.outcome.tasks_met += 1;
        }
        if !i.outcome.dropped {
            let finish_rel = i.finish_rel[task];
            let arrival = i.outcome.arrival;
            // Propagate the eager recurrence to the gated tasks: DAG
            // successors (plus communication) and the next task on the
            // machine. Identical FP operations to EagerPlan::execute in the
            // relative frame; a task is queued once its last prerequisite
            // is done, when its ready time is final.
            let dag = &i.scenario.graph.dag;
            for &(s, e) in dag.succs(task) {
                let contrib = finish_rel + i.comm_dur[e];
                if contrib > i.ready_rel[s] {
                    i.ready_rel[s] = contrib;
                }
                i.pending[s] -= 1;
                if i.pending[s] == 0 {
                    self.events
                        .push(arrival + i.ready_rel[s], Event::Ready { inst, task: s });
                }
            }
            if let Some(w) = i.state.plan.next_on_proc()[task] {
                if finish_rel > i.ready_rel[w] {
                    i.ready_rel[w] = finish_rel;
                }
                i.pending[w] -= 1;
                if i.pending[w] == 0 {
                    self.events
                        .push(arrival + i.ready_rel[w], Event::Ready { inst, task: w });
                }
            }
            if i.outcome.tasks_completed == i.outcome.tasks {
                // Same fold as EagerPlan::execute's makespan.
                let makespan_rel = i.finish_rel.iter().copied().fold(0.0, f64::max);
                i.outcome.makespan = Some(makespan_rel);
                i.outcome.finish = Some(arrival + makespan_rel);
                self.live -= 1;
            }
        }
        self.dispatch(machine, now);
    }

    /// The deadline passes: reap the instance unless it finished or was
    /// dropped already.
    fn on_deadline_lapse(&mut self, inst: usize) {
        let o = &self.instances[inst].outcome;
        if o.finish.is_none() && !o.dropped {
            self.abandon(inst);
        }
    }

    /// The machine fails: kill its running attempt and freeze its queue
    /// until the repair event.
    fn on_machine_fail(&mut self, now: f64, machine: usize) {
        self.metrics.machine_failures += 1;
        let m = &mut self.machines[machine];
        let rng = m
            .fault_rng
            .as_mut()
            .expect("fault events require a fault stream");
        let up_at = now + self.sim.fault.sample_downtime(rng);
        m.down_since = Some(now);
        if let Some(run) = m.running.take() {
            // Kill the running attempt: the spent fraction is lost work,
            // the unexecuted remainder is refunded.
            let remainder = (m.busy_until - now).max(0.0);
            self.metrics.busy_time -= remainder;
            self.metrics.killed_tasks += 1;
            let i = &mut self.instances[run.inst];
            i.outcome.executed_time -= remainder;
            i.outcome.lost_time += (run.dur - remainder).max(0.0);
            i.finish_rel[run.task] = f64::NAN;
            self.fail_task(run.inst, run.task, now);
        }
        // Post-repair starts rebase on the repair time.
        self.machines[machine].busy_until = up_at;
        self.events.push(up_at, Event::MachineRepair { machine });
    }

    /// The machine is repaired: re-arm its failure process while work
    /// remains and resume its queue.
    fn on_machine_repair(&mut self, now: f64, machine: usize) {
        let since = self.machines[machine]
            .down_since
            .take()
            .expect("a repair follows a failure");
        self.metrics.down_time += now - since;
        if !self.idle() {
            let rng = self.machines[machine]
                .fault_rng
                .as_mut()
                .expect("fault events require a fault stream");
            let up = self.sim.fault.sample_uptime(rng);
            if up.is_finite() {
                self.events.push(now + up, Event::MachineFail { machine });
            }
        }
        self.dispatch(machine, now);
    }

    /// A recovered task re-enters a queue: its static machine, or under
    /// `resched` the least-loaded surviving one.
    fn on_redispatch(&mut self, now: f64, inst: usize, task: usize, resched: bool) {
        if self.instances[inst].outcome.dropped {
            return;
        }
        self.metrics.retries += 1;
        self.instances[inst].outcome.retries += 1;
        let static_m = self.instances[inst].state.schedule.machine_of(task);
        let machine = if resched {
            self.pick_surviving(now, static_m)
        } else {
            static_m
        };
        let i = &self.instances[inst];
        let dur = if machine == static_m {
            i.task_dur[task]
        } else {
            // Moving machines rescales the sampled duration by the
            // deterministic cost ratio, preserving the draw's luck;
            // communication delays keep their static-assignment samples
            // (documented approximation).
            let det_old = i.scenario.det_task_cost(task, static_m);
            let det_new = i.scenario.det_task_cost(task, machine);
            if det_old > 0.0 {
                i.task_dur[task] * (det_new / det_old)
            } else {
                det_new
            }
        };
        self.machines[machine].queue.push(QueueEntry {
            ready_abs: now,
            ready_rel: now - i.outcome.arrival,
            inst,
            task,
            dur,
        });
        self.dispatch(machine, now);
    }

    /// Abandons an admitted instance in flight: its running tasks
    /// complete, its queued entries are skipped.
    fn abandon(&mut self, inst: usize) {
        self.instances[inst].outcome.dropped = true;
        self.live -= 1;
    }

    /// A task attempt failed (machine kill or transient fault): count it
    /// and consult the recovery policy — abandon the instance, or arm a
    /// re-dispatch after the policy's backoff.
    fn fail_task(&mut self, inst: usize, task: usize, now: f64) {
        let i = &mut self.instances[inst];
        if i.outcome.dropped {
            // Abandoned work gets no recovery; the attempt just dies.
            return;
        }
        i.attempts[task] += 1;
        let (time, resched) = match self.sim.recovery.on_failure(i.attempts[task]) {
            RecoveryAction::Abandon => return self.abandon(inst),
            RecoveryAction::Retry { delay } => (now + delay, false),
            RecoveryAction::Resched { delay } => (now + delay, true),
        };
        self.events.push(
            time,
            Event::Redispatch {
                inst,
                task,
                resched,
            },
        );
    }

    /// Starts queued work on `machine` while it is available: pick the
    /// entry with the least `(ready time, instance, task)` key, consult
    /// the policy, and either start it or drop its instance and keep
    /// looking.
    fn dispatch(&mut self, machine: usize, now: f64) {
        while self.machines[machine].available() {
            // Deterministic selection: least (ready_abs, inst, task).
            let Some(entry) = self.machines[machine].queue.pop_min() else {
                return;
            };
            let i = &self.instances[entry.inst];
            if i.outcome.dropped {
                continue;
            }
            let keep = self.sim.policy.keep_task(&PolicyQuery {
                now,
                arrival: i.outcome.arrival,
                deadline: i.outcome.deadline,
                backlog: 0.0,
                total: i.state.dists.as_ref().map(|d| &d.total),
                remaining: i.state.dists.as_ref().map(|d| &d.rem[entry.task]),
            });
            if !keep {
                self.abandon(entry.inst);
                continue;
            }
            // Transient fate, decided deterministically per attempt from a
            // seed stream disjoint from every duration draw.
            let p = self.sim.fault.transient_probability();
            let faulty = p > 0.0
                && transient_draw(
                    self.sim.config.seed,
                    entry.inst,
                    entry.task,
                    i.attempts[entry.task],
                    p,
                );
            let m = &mut self.machines[machine];
            let i = &mut self.instances[entry.inst];
            // Uncontended starts stay in the relative frame (the exact
            // EagerPlan::execute operations); a contended start waits for
            // the machine and is rebased once.
            let finish_rel = if m.busy_until > entry.ready_abs {
                (m.busy_until - i.outcome.arrival) + entry.dur
            } else {
                entry.ready_rel + entry.dur
            };
            i.finish_rel[entry.task] = finish_rel;
            i.outcome.executed_time += entry.dur;
            self.metrics.busy_time += entry.dur;
            let finish_abs = i.outcome.arrival + finish_rel;
            m.busy_until = finish_abs;
            let run_id = self.run_ids;
            self.run_ids += 1;
            m.running = Some(RunningTask {
                run_id,
                inst: entry.inst,
                task: entry.task,
                dur: entry.dur,
                faulty,
            });
            self.events
                .push(finish_abs, Event::Finish { machine, run_id });
        }
    }

    /// The `resched` machine choice: least current load (running
    /// remainder + queued live durations) over surviving machines, lowest
    /// index on ties; `fallback` when every machine is down.
    fn pick_surviving(&self, now: f64, fallback: usize) -> usize {
        let mut best: Option<(f64, usize)> = None;
        for (mi, m) in self.machines.iter().enumerate() {
            if m.down_since.is_some() {
                continue;
            }
            let mut load = if m.running.is_some() && m.busy_until > now {
                m.busy_until - now
            } else {
                0.0
            };
            for entry in m.queue.entries() {
                if !self.instances[entry.inst].outcome.dropped {
                    load += entry.dur;
                }
            }
            if best.is_none_or(|(b, _)| load < b) {
                best = Some((load, mi));
            }
        }
        best.map_or(fallback, |(_, mi)| mi)
    }

    /// Mean per-machine work ahead at `now`: running remainders plus
    /// queued sampled durations, averaged over the pool — the
    /// [`PolicyQuery::backlog`] estimate of the admission gate.
    fn backlog_estimate(&self, now: f64) -> f64 {
        if self.machines.is_empty() {
            return 0.0;
        }
        let mut work = 0.0;
        for m in &self.machines {
            if m.running.is_some() && m.busy_until > now {
                work += m.busy_until - now;
            }
            for entry in m.queue.entries() {
                if !self.instances[entry.inst].outcome.dropped {
                    work += entry.dur;
                }
            }
        }
        work / self.machines.len() as f64
    }

    /// The run's result: the outcomes in arrival order, the metrics summed
    /// over them, and one distribution build per distinct scenario content
    /// when the policy needs distributions.
    fn finalize(self) -> SimResult {
        let first_arrival = self.instances.first().map_or(0.0, |i| i.outcome.arrival);
        let dist_builds = self
            .by_fingerprint
            .values()
            .filter(|s| s.dists.is_some())
            .count();
        let mut metrics = OnlineMetrics {
            machines: self.machines.len(),
            horizon: (self.last_time - first_arrival).max(0.0),
            ..self.metrics
        };
        let outcomes: Vec<InstanceOutcome> =
            self.instances.into_iter().map(|i| i.outcome).collect();
        for outcome in &outcomes {
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
                // machine-time (zero without faults, so the fault-free sum
                // is bit-identical to the pre-fault executor's).
                metrics.wasted_time += outcome.lost_time;
            } else {
                metrics.wasted_time += outcome.executed_time;
            }
        }
        SimResult {
            outcomes,
            metrics,
            dist_builds,
        }
    }
}

/// The per-attempt transient-fault draw: one derived-seed RNG keyed by
/// `(instance, task, attempt)`, compared against `p` with the top-53-bit
/// uniform convention. Pure, so re-running an attempt count reproduces
/// its fate bit for bit.
fn transient_draw(seed: u64, inst: usize, task: usize, attempt: usize, p: f64) -> bool {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, transient_key(inst, task, attempt)));
    uniform01_word(rng.next_u64()) < p
}

/// The sub-seed key of one transient draw: under the tag bit, the
/// instance in bits 20–62, the task in bits 6–19 and the count of failed
/// attempts in bits 0–5. The fields never overlap, so the key is
/// injective while `inst < 2^43`, `task < 2^14` (arrivals past
/// [`TRANSIENT_MAX_TASKS`] are rejected) and `attempt < 64` (a recovery
/// policy that keeps a task past [`TRANSIENT_MAX_ATTEMPTS`] failures is
/// rejected).
fn transient_key(inst: usize, task: usize, attempt: usize) -> u64 {
    debug_assert!(
        (inst as u64) < 1 << 43 && task < TRANSIENT_MAX_TASKS && attempt < TRANSIENT_MAX_ATTEMPTS
    );
    TRANSIENT_DRAW_TAG | (inst as u64) << 20 | (task as u64) << 6 | attempt as u64
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

    #[test]
    fn transient_keys_are_distinct_at_the_corners_and_unmoved() {
        // The key as it was built before its inputs were bounded.
        let xor_key = |inst: usize, task: usize, attempt: usize| {
            TRANSIENT_DRAW_TAG | ((inst as u64) << 20) ^ ((task as u64) << 6) ^ attempt as u64
        };
        let mut seen = HashSet::new();
        for inst in [0, 1, 2, (1 << 43) - 1] {
            for task in [0, 1, 2, TRANSIENT_MAX_TASKS - 1] {
                for attempt in [0, 1, 2, 63] {
                    let key = transient_key(inst, task, attempt);
                    assert_eq!(key, xor_key(inst, task, attempt));
                    assert!(seen.insert(key), "({inst}, {task}, {attempt})");
                }
            }
        }
        // The collisions the bounds rule out: a 64th attempt, and a task
        // index past the 14-bit field.
        assert_eq!(xor_key(0, 0, 64), xor_key(0, 1, 0));
        assert_eq!(xor_key(0, TRANSIENT_MAX_TASKS, 0), xor_key(1, 0, 0));
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
