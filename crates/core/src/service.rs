//! `EvalService` — a long-running, batched, cache-deduplicated evaluation
//! front end (the request-oriented counterpart of [`crate::StudyBuilder`]).
//!
//! A study amortizes preparation (scenario discretization, sampling
//! tables, warmed scratch) across tens of thousands of schedules of **one**
//! scenario. A serving workload inverts the shape: many independent
//! clients submit single `(scenario, schedule, evaluator)` requests, and
//! scenarios repeat across requests rather than within one call. Rebuilding
//! the prepared state per request — as `Evaluator::evaluate` does — throws
//! away exactly the work PR 4–5 made shareable.
//!
//! [`EvalService`] makes the prepared state request-scoped instead of
//! study-scoped:
//!
//! * **Scenario cache** — a bounded LRU keyed by
//!   [`robusched_stochastic::scenario_fingerprint`] (structure +
//!   uncertainty model + costs). Each entry holds the per-evaluator
//!   [`PreparedScenario`] plans
//!   ([`robusched_stochastic::DiscretizedScenario`] slots,
//!   [`robusched_stochastic::SamplingTables`]), so repeated scenarios skip
//!   all preparation. A discretization entry holds `n·m` task slots plus
//!   one communication slot per (edge, link class) — `2e` on the paper's
//!   network — so an entry's size grows with `n·m + e`, not with `e·m²`.
//! * **Result cache + in-flight coalescing** — a bounded LRU of finished
//!   [`MetricValues`] keyed by the full request fingerprint (scenario +
//!   schedule + evaluator + metric options). A repeat of a finished
//!   request is served from the cache without touching a worker; a repeat
//!   of an *in-flight* request attaches to the leader and receives the
//!   same result when it lands — identical requests are evaluated exactly
//!   once no matter how many clients race.
//! * **Batching queue** — workers pull the oldest pending request and
//!   coalesce up to [`ServiceConfig::max_batch`] compatible requests (same
//!   scenario fingerprint, same evaluator) from anywhere in the queue into
//!   one batch sharing a single warmed [`EvalContext`] — the SoA
//!   Monte-Carlo kernel and the prepared classic/Dodin paths then run
//!   back-to-back with zero per-request setup.
//! * **Submission-order streaming** — [`EvalService::next_response`]
//!   releases results strictly in ticket order (the reorder-buffer
//!   discipline of `StudyBuilder`'s delivery lock), regardless of which
//!   worker finished first. Multi-client callers use
//!   [`EvalService::evaluate`]/[`EvalService::wait`] instead and block on
//!   their own tickets.
//!
//! Every bundled evaluator is deterministic, and prepared state never
//! changes numerics (pinned by `tests/eval_cache.rs`), so a response is
//! **bit-identical** whether it came from a cold evaluation, a prepared
//! cache hit, a coalesced in-flight follower, or the result cache — and
//! for any worker count. `tests/eval_service.rs` locks this.
//!
//! A worker panic (e.g. a heuristic fed an impossible state) is caught per
//! request and returned as [`ServiceError::Panicked`] — the service keeps
//! serving, which is the whole point of a long-running front end.

use crate::metrics::{compute_metrics, MetricOptions, MetricValues};
use robusched_platform::Scenario;
use robusched_sched::Schedule;
use robusched_stochastic::par::{panic_message, worker_count};
use robusched_stochastic::{
    evaluator_by_name, scenario_fingerprint, EvalContext, Evaluator, PreparedScenario,
};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of an [`EvalService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads (`None` = available parallelism).
    pub workers: Option<usize>,
    /// Maximum number of *scenarios* whose prepared state is retained
    /// (LRU). Each entry holds one [`PreparedScenario`] per evaluator that
    /// touched it.
    pub scenario_capacity: usize,
    /// Maximum number of finished request results retained (LRU).
    /// `0` disables result caching (in-flight coalescing stays on).
    pub result_capacity: usize,
    /// Maximum requests one worker coalesces into a single batch.
    pub max_batch: usize,
    /// Time-to-live for cached scenario entries: an entry not touched
    /// within this window is purged at the next cache probe (counted in
    /// [`ServiceStats::ttl_evictions`]). Prepared state for a scenario a
    /// client stopped sending can hold graphs, cost matrices and quantile
    /// tables alive indefinitely under a pure LRU bound; a TTL returns that
    /// memory on long-running servers. `None` disables the TTL (the LRU
    /// capacity bound still applies).
    pub scenario_ttl: Option<Duration>,
    /// Bound on the pending-request queue. A submission that would push
    /// the queue past this is *shed* immediately with
    /// [`ServiceError::Overloaded`] instead of growing the backlog
    /// unboundedly — cache hits and in-flight coalesced duplicates are
    /// never shed (they consume no queue slot). `None` disables load
    /// shedding.
    pub queue_capacity: Option<usize>,
    /// Per-request deadline, measured from submission. A request still
    /// unstarted when its deadline lapses is answered
    /// [`ServiceError::TimedOut`] instead of evaluated — under overload
    /// the service spends its workers on requests whose clients are
    /// plausibly still waiting. `None` disables timeouts.
    pub request_timeout: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: None,
            scenario_capacity: 64,
            result_capacity: 4096,
            max_batch: 64,
            scenario_ttl: None,
            queue_capacity: None,
            request_timeout: None,
        }
    }
}

/// One evaluation request: a scenario (shared, typically interned by the
/// front end), a schedule, an evaluator registry name, and the metric
/// parameters. The service always computes the full [`MetricValues`]
/// vector — metric-*set* filtering is a wire-protocol concern (see the
/// `serve` subcommand), not an evaluation one.
#[derive(Debug, Clone)]
pub struct EvalRequest {
    /// The problem instance. `Arc` so repeated submissions of one scenario
    /// don't clone graphs and cost matrices.
    pub scenario: Arc<Scenario>,
    /// The schedule to evaluate.
    pub schedule: Schedule,
    /// Evaluator registry name (see
    /// [`robusched_stochastic::evaluator_by_name`]).
    pub evaluator: String,
    /// Probabilistic-metric parameters.
    pub metric_opts: MetricOptions,
}

impl EvalRequest {
    /// A request with the default metric options.
    pub fn new(scenario: Arc<Scenario>, schedule: Schedule, evaluator: &str) -> Self {
        Self {
            scenario,
            schedule,
            evaluator: evaluator.to_string(),
            metric_opts: MetricOptions::default(),
        }
    }
}

/// A finished evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalOutcome {
    /// The full metric vector of the schedule.
    pub metrics: MetricValues,
    /// `true` when the scenario's prepared state was already cached (all
    /// preparation skipped).
    pub scenario_hit: bool,
    /// `true` when the *result* was served without an evaluation: a result
    /// cache hit or an in-flight coalesced duplicate.
    pub result_hit: bool,
}

/// Why a request failed. The service itself never dies with a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The evaluator name did not resolve in the registry.
    UnknownEvaluator(String),
    /// The evaluation panicked; the payload is preserved so the root cause
    /// is not masked (cf. [`crate::StudyError::WorkerPanic`]).
    Panicked(String),
    /// The service is shutting down and will not accept the request.
    ShuttingDown,
    /// The pending queue is at [`ServiceConfig::queue_capacity`]; the
    /// request was shed instead of queued (graceful degradation — retry
    /// later or back off).
    Overloaded,
    /// The request waited past [`ServiceConfig::request_timeout`] without
    /// starting and was abandoned.
    TimedOut,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownEvaluator(n) => write!(f, "unknown evaluator '{n}'"),
            Self::Panicked(msg) => write!(f, "evaluation panicked: {msg}"),
            Self::ShuttingDown => write!(f, "service is shutting down"),
            Self::Overloaded => write!(f, "service overloaded: request shed"),
            Self::TimedOut => write!(f, "request timed out before evaluation"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// A submitted request's handle: its position in the submission order.
pub type Ticket = u64;

/// The response type every consumption surface yields.
pub type EvalResult = Result<EvalOutcome, ServiceError>;

/// Monotonic service counters (a snapshot; see [`EvalService::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests accepted by [`EvalService::submit`].
    pub submitted: u64,
    /// Responses produced (including errors).
    pub completed: u64,
    /// Evaluations that found their scenario's prepared state cached.
    pub scenario_hits: u64,
    /// Evaluations that had to prepare (and cache) their scenario.
    pub scenario_misses: u64,
    /// Scenario entries evicted by the LRU bound.
    pub evictions: u64,
    /// Scenario entries purged by [`ServiceConfig::scenario_ttl`].
    pub ttl_evictions: u64,
    /// Finished results evicted by the result-cache LRU bound.
    pub result_evictions: u64,
    /// Requests answered without evaluating: result-cache hits plus
    /// in-flight coalesced duplicates.
    pub result_hits: u64,
    /// Worker batches executed.
    pub batches: u64,
    /// Requests that rode a batch of size ≥ 2.
    pub batched_requests: u64,
    /// Requests shed with [`ServiceError::Overloaded`] (including
    /// coalesced duplicates released when their leader was shed).
    pub shed: u64,
    /// Lead requests abandoned with [`ServiceError::TimedOut`] (coalesced
    /// duplicates fail with the same error but are not double-counted).
    pub timeouts: u64,
}

// ---------------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------------

/// Requests are batch-compatible when they share the scenario (by
/// fingerprint) and the evaluator (by lower-cased registry name).
type BatchKey = (u64, String);

struct Job {
    ticket: Ticket,
    request: EvalRequest,
    key: BatchKey,
    result_key: u64,
    /// When the request entered the queue (the timeout clock).
    submitted_at: Instant,
}

#[derive(Default)]
struct QueueState {
    pending: VecDeque<Job>,
    shutdown: bool,
}

#[derive(Default)]
struct ResponseState {
    done: BTreeMap<Ticket, EvalResult>,
    /// Next ticket [`EvalService::next_response`] will release.
    next_emit: Ticket,
    /// Tickets already consumed by [`EvalService::wait`]; the in-order
    /// stream steps over these so the two consumption surfaces compose.
    claimed: std::collections::HashSet<Ticket>,
}

/// Prepared state of one cached scenario: per-evaluator plans, filled on
/// first use by each backend.
struct ScenarioEntry {
    prepared: HashMap<String, PreparedScenario>,
    /// Last-touch stamp for LRU eviction.
    stamp: u64,
    /// Last-touch wall time for TTL eviction.
    touched: Instant,
}

#[derive(Default)]
struct CacheState {
    scenarios: HashMap<u64, ScenarioEntry>,
    results: HashMap<u64, (MetricValues, u64)>,
    /// result_key → tickets of coalesced duplicate requests waiting on the
    /// in-flight leader.
    in_flight: HashMap<u64, Vec<Ticket>>,
    clock: u64,
}

impl CacheState {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

#[derive(Default)]
struct Stats {
    submitted: AtomicU64,
    completed: AtomicU64,
    scenario_hits: AtomicU64,
    scenario_misses: AtomicU64,
    evictions: AtomicU64,
    ttl_evictions: AtomicU64,
    result_evictions: AtomicU64,
    result_hits: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    shed: AtomicU64,
    timeouts: AtomicU64,
}

struct Shared {
    config: ServiceConfig,
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    responses: Mutex<ResponseState>,
    responses_cv: Condvar,
    caches: Mutex<CacheState>,
    stats: Stats,
}

impl Shared {
    fn complete(&self, ticket: Ticket, result: EvalResult) {
        let mut rs = self
            .responses
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        rs.done.insert(ticket, result);
        self.stats.completed.fetch_add(1, Ordering::Relaxed);
        self.responses_cv.notify_all();
    }

    /// Tears down an in-flight leader reservation that will never run
    /// (shed or shutdown), failing any duplicates that attached while the
    /// reservation was live. Returns how many waiters were released.
    fn release_in_flight(&self, result_key: u64, err: &ServiceError) -> u64 {
        let waiters = self
            .caches
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .in_flight
            .remove(&result_key)
            .unwrap_or_default();
        let n = waiters.len() as u64;
        for ticket in waiters {
            self.complete(ticket, Err(err.clone()));
        }
        n
    }
}

/// FNV-1a over the full request identity: scenario fingerprint, schedule
/// (assignment + per-machine order), evaluator name, metric options. Equal
/// keys ⇒ bit-identical responses (64-bit collisions are ignored, as in
/// every fingerprint cache of this workspace).
fn request_fingerprint(scenario_fp: u64, req: &EvalRequest) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |bits: u64| {
        for shift in (0..64).step_by(8) {
            h ^= (bits >> shift) & 0xff;
            h = h.wrapping_mul(PRIME);
        }
    };
    mix(scenario_fp);
    for &p in req.schedule.assignment() {
        mix(p as u64);
    }
    for p in 0..req.schedule.machine_count() {
        mix(!0); // machine separator
        for &t in req.schedule.order_on(p) {
            mix(t as u64);
        }
    }
    for b in req.evaluator.to_lowercase().bytes() {
        mix(b as u64);
    }
    mix(req.metric_opts.delta.to_bits());
    mix(req.metric_opts.gamma.to_bits());
    h
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// A long-running evaluation server: worker pool + scenario/result caches
/// + batching queue. See the [module docs](self) for the full contract.
///
/// ```
/// use robusched_core::{EvalRequest, EvalService, ServiceConfig};
/// use robusched_platform::Scenario;
/// use robusched_sched::heft;
/// use std::sync::Arc;
///
/// let service = EvalService::new(ServiceConfig::default());
/// let scenario = Arc::new(Scenario::paper_random(10, 3, 1.1, 5));
/// let schedule = heft(&scenario);
/// let req = EvalRequest::new(scenario, schedule, "classic");
/// let cold = service.evaluate(req.clone()).unwrap();
/// let warm = service.evaluate(req).unwrap();
/// assert_eq!(cold.metrics, warm.metrics); // bit-identical across cache tiers
/// assert!(warm.result_hit);
/// ```
pub struct EvalService {
    shared: Arc<Shared>,
    next_ticket: AtomicU64,
    workers: Vec<JoinHandle<()>>,
}

impl EvalService {
    /// Starts the worker pool.
    pub fn new(config: ServiceConfig) -> Self {
        let workers = worker_count(config.workers);
        let shared = Arc::new(Shared {
            config,
            queue: Mutex::new(QueueState::default()),
            queue_cv: Condvar::new(),
            responses: Mutex::new(ResponseState::default()),
            responses_cv: Condvar::new(),
            caches: Mutex::new(CacheState::default()),
            stats: Stats::default(),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Self {
            shared,
            next_ticket: AtomicU64::new(0),
            workers: handles,
        }
    }

    /// Submits a request; returns its ticket (= submission index). Never
    /// blocks on evaluation: result-cache hits and coalesced duplicates
    /// complete immediately, everything else is queued for the workers.
    pub fn submit(&self, request: EvalRequest) -> Ticket {
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        self.shared.stats.submitted.fetch_add(1, Ordering::Relaxed);

        // Resolve the evaluator up front so unknown names fail fast (and
        // cheaply) instead of poisoning a batch.
        if evaluator_by_name(&request.evaluator).is_none() {
            self.shared.complete(
                ticket,
                Err(ServiceError::UnknownEvaluator(request.evaluator.clone())),
            );
            return ticket;
        }

        let scenario_fp = scenario_fingerprint(&request.scenario);
        let result_key = request_fingerprint(scenario_fp, &request);

        {
            let mut caches = self
                .shared
                .caches
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            // Tier 1: finished-result cache.
            if let Some(&(metrics, _)) = caches.results.get(&result_key) {
                let stamp = caches.tick();
                caches.results.get_mut(&result_key).unwrap().1 = stamp;
                drop(caches);
                self.shared
                    .stats
                    .result_hits
                    .fetch_add(1, Ordering::Relaxed);
                self.shared.complete(
                    ticket,
                    Ok(EvalOutcome {
                        metrics,
                        scenario_hit: true,
                        result_hit: true,
                    }),
                );
                return ticket;
            }
            // Tier 2: identical request already in flight — attach to it.
            if let Some(waiters) = caches.in_flight.get_mut(&result_key) {
                waiters.push(ticket);
                self.shared
                    .stats
                    .result_hits
                    .fetch_add(1, Ordering::Relaxed);
                return ticket;
            }
            // Leader: reserve the in-flight slot before releasing the lock
            // so racing duplicates find it.
            caches.in_flight.insert(result_key, Vec::new());
        }

        let key = (scenario_fp, request.evaluator.to_lowercase());
        let mut queue = self
            .shared
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if queue.shutdown {
            drop(queue);
            self.shared
                .release_in_flight(result_key, &ServiceError::ShuttingDown);
            self.shared
                .complete(ticket, Err(ServiceError::ShuttingDown));
            return ticket;
        }
        // Graceful degradation: a full queue sheds the request (and any
        // duplicates that raced onto its reservation) instead of growing
        // the backlog without bound.
        if let Some(cap) = self.shared.config.queue_capacity {
            if queue.pending.len() >= cap {
                drop(queue);
                let followers = self
                    .shared
                    .release_in_flight(result_key, &ServiceError::Overloaded);
                self.shared
                    .stats
                    .shed
                    .fetch_add(1 + followers, Ordering::Relaxed);
                self.shared.complete(ticket, Err(ServiceError::Overloaded));
                return ticket;
            }
        }
        queue.pending.push_back(Job {
            ticket,
            request,
            key,
            result_key,
            submitted_at: Instant::now(),
        });
        drop(queue);
        self.shared.queue_cv.notify_one();
        ticket
    }

    /// Blocks until `ticket`'s response is ready and removes it. Each
    /// ticket yields its response exactly once. `wait` composes with
    /// [`next_response`](Self::next_response): the in-order stream steps
    /// over tickets consumed here instead of stalling on them.
    pub fn wait(&self, ticket: Ticket) -> EvalResult {
        let mut rs = self
            .shared
            .responses
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(result) = rs.done.remove(&ticket) {
                rs.claimed.insert(ticket);
                // Wake any `next_response` caller parked on this ticket so
                // it can advance past the claim.
                self.shared.responses_cv.notify_all();
                return result;
            }
            rs = self
                .shared
                .responses_cv
                .wait(rs)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Submits and blocks for the result — the multi-client convenience
    /// surface (each client thread calls `evaluate` independently).
    pub fn evaluate(&self, request: EvalRequest) -> EvalResult {
        let ticket = self.submit(request);
        self.wait(ticket)
    }

    /// Blocks until the *next* unclaimed response in submission order is
    /// ready and returns `(ticket, response)` — the single-consumer
    /// streaming surface (the reorder-buffer discipline: responses never
    /// overtake each other even when workers finish out of order).
    /// Tickets already consumed by [`wait`](Self::wait) are skipped.
    pub fn next_response(&self) -> (Ticket, EvalResult) {
        let mut rs = self
            .shared
            .responses
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            loop {
                let cursor = rs.next_emit;
                if !rs.claimed.remove(&cursor) {
                    break;
                }
                rs.next_emit += 1;
            }
            let next = rs.next_emit;
            if let Some(result) = rs.done.remove(&next) {
                rs.next_emit += 1;
                return (next, result);
            }
            rs = self
                .shared
                .responses_cv
                .wait(rs)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        let s = &self.shared.stats;
        ServiceStats {
            submitted: s.submitted.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            scenario_hits: s.scenario_hits.load(Ordering::Relaxed),
            scenario_misses: s.scenario_misses.load(Ordering::Relaxed),
            evictions: s.evictions.load(Ordering::Relaxed),
            ttl_evictions: s.ttl_evictions.load(Ordering::Relaxed),
            result_evictions: s.result_evictions.load(Ordering::Relaxed),
            result_hits: s.result_hits.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            batched_requests: s.batched_requests.load(Ordering::Relaxed),
            shed: s.shed.load(Ordering::Relaxed),
            timeouts: s.timeouts.load(Ordering::Relaxed),
        }
    }

    /// Number of scenarios currently cached (≤
    /// [`ServiceConfig::scenario_capacity`]).
    pub fn cached_scenarios(&self) -> usize {
        self.shared
            .caches
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .scenarios
            .len()
    }
}

impl Drop for EvalService {
    fn drop(&mut self) {
        {
            let mut queue = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            queue.shutdown = true;
        }
        self.shared.queue_cv.notify_all();
        for handle in self.workers.drain(..) {
            // A worker that panicked outside the per-request guard is
            // already accounted for; don't double-panic the drop.
            let _ = handle.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Shared) {
    loop {
        // Pull the oldest job, then coalesce batch-compatible jobs from
        // anywhere in the queue (bounded by `max_batch`).
        let batch: Vec<Job> = {
            let mut queue = shared
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                if let Some(leader) = queue.pending.pop_front() {
                    let mut batch = vec![leader];
                    let key = batch[0].key.clone();
                    let max = shared.config.max_batch.max(1);
                    let mut i = 0;
                    while i < queue.pending.len() && batch.len() < max {
                        if queue.pending[i].key == key {
                            batch.push(queue.pending.remove(i).unwrap());
                        } else {
                            i += 1;
                        }
                    }
                    break batch;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        run_batch(shared, batch);
    }
}

/// Fetches (or prepares and caches) the batch scenario's prepared state,
/// returning it plus whether it was a hit. Preparation runs outside the
/// cache lock; if another worker prepared the same (scenario, evaluator)
/// concurrently, the first insertion wins so every later request shares
/// one plan.
/// Purges scenario entries staler than [`ServiceConfig::scenario_ttl`].
/// Runs under the cache lock at every probe, so an idle scenario's memory
/// is reclaimed the next time *any* request touches the cache.
fn purge_stale_scenarios(shared: &Shared, caches: &mut CacheState) {
    let Some(ttl) = shared.config.scenario_ttl else {
        return;
    };
    let now = Instant::now();
    let before = caches.scenarios.len();
    caches
        .scenarios
        .retain(|_, entry| now.duration_since(entry.touched) < ttl);
    let purged = (before - caches.scenarios.len()) as u64;
    if purged > 0 {
        shared
            .stats
            .ttl_evictions
            .fetch_add(purged, Ordering::Relaxed);
    }
}

fn prepared_for(
    shared: &Shared,
    fp: u64,
    evaluator_key: &str,
    evaluator: &dyn Evaluator,
    scenario: &Scenario,
) -> (PreparedScenario, bool) {
    {
        let mut caches = shared
            .caches
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        purge_stale_scenarios(shared, &mut caches);
        let stamp = caches.tick();
        if let Some(entry) = caches.scenarios.get_mut(&fp) {
            entry.stamp = stamp;
            entry.touched = Instant::now();
            if let Some(prep) = entry.prepared.get(evaluator_key) {
                shared.stats.scenario_hits.fetch_add(1, Ordering::Relaxed);
                return (prep.clone(), true);
            }
        }
    }
    shared.stats.scenario_misses.fetch_add(1, Ordering::Relaxed);
    let prep = evaluator.prepare(scenario);
    let mut caches = shared
        .caches
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let stamp = caches.tick();
    let entry = caches.scenarios.entry(fp).or_insert_with(|| ScenarioEntry {
        prepared: HashMap::new(),
        stamp,
        touched: Instant::now(),
    });
    entry.stamp = stamp;
    entry.touched = Instant::now();
    let prep = entry
        .prepared
        .entry(evaluator_key.to_string())
        .or_insert(prep)
        .clone();
    // Enforce the LRU bound (never evicting the entry just touched).
    let capacity = shared.config.scenario_capacity.max(1);
    while caches.scenarios.len() > capacity {
        let victim = caches
            .scenarios
            .iter()
            .filter(|(k, _)| **k != fp)
            .min_by_key(|(_, e)| e.stamp)
            .map(|(k, _)| *k);
        match victim {
            Some(k) => {
                caches.scenarios.remove(&k);
                shared.stats.evictions.fetch_add(1, Ordering::Relaxed);
            }
            None => break,
        }
    }
    (prep, false)
}

fn run_batch(shared: &Shared, batch: Vec<Job>) {
    shared.stats.batches.fetch_add(1, Ordering::Relaxed);
    if batch.len() >= 2 {
        shared
            .stats
            .batched_requests
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
    }
    let (fp, evaluator_key) = batch[0].key.clone();
    // Registry resolution was validated at submit; a stale registry would
    // be a programming error, so fall back to a per-job error rather than
    // panicking the worker.
    let Some(evaluator) = evaluator_by_name(&evaluator_key) else {
        for job in batch {
            finish_job(
                shared,
                &job,
                Err(ServiceError::UnknownEvaluator(evaluator_key.clone())),
            );
        }
        return;
    };
    let (prep, scenario_hit) = prepared_for(
        shared,
        fp,
        &evaluator_key,
        evaluator.as_ref(),
        &batch[0].request.scenario,
    );
    // One context for the whole batch: scratch warmed by the first request
    // is reused by every one after (the same discipline as a study
    // worker's per-thread context).
    let mut cx = EvalContext::new(prep.clone());
    for job in batch {
        // A request that waited past its deadline is abandoned rather than
        // evaluated: under overload the workers serve requests whose
        // clients are plausibly still listening.
        if let Some(timeout) = shared.config.request_timeout {
            if job.submitted_at.elapsed() >= timeout {
                shared.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                finish_job(shared, &job, Err(ServiceError::TimedOut));
                continue;
            }
        }
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let rv = evaluator.evaluate_with(&job.request.scenario, &job.request.schedule, &mut cx);
            compute_metrics(
                &job.request.scenario,
                &job.request.schedule,
                &rv,
                &job.request.metric_opts,
            )
        }));
        match result {
            Ok(metrics) => finish_job(
                shared,
                &job,
                Ok(EvalOutcome {
                    metrics,
                    scenario_hit,
                    result_hit: false,
                }),
            ),
            Err(payload) => {
                // The scratch may be mid-mutation — rebuild the context so
                // the rest of the batch starts clean.
                cx = EvalContext::new(prep.clone());
                finish_job(
                    shared,
                    &job,
                    Err(ServiceError::Panicked(panic_message(payload.as_ref()))),
                );
            }
        }
    }
}

/// Publishes a finished job: stores the result in the result cache,
/// releases the in-flight waiters with the same outcome (marked as result
/// hits), and completes the leader's ticket.
fn finish_job(shared: &Shared, job: &Job, result: EvalResult) {
    let waiters = {
        let mut caches = shared
            .caches
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Ok(outcome) = &result {
            let capacity = shared.config.result_capacity;
            if capacity > 0 {
                let stamp = caches.tick();
                caches
                    .results
                    .insert(job.result_key, (outcome.metrics, stamp));
                while caches.results.len() > capacity {
                    let victim = caches
                        .results
                        .iter()
                        .min_by_key(|(_, (_, stamp))| *stamp)
                        .map(|(k, _)| *k);
                    match victim {
                        Some(k) => {
                            caches.results.remove(&k);
                            shared
                                .stats
                                .result_evictions
                                .fetch_add(1, Ordering::Relaxed);
                        }
                        None => break,
                    }
                }
            }
        }
        caches.in_flight.remove(&job.result_key).unwrap_or_default()
    };
    for ticket in waiters {
        let follower = match &result {
            Ok(outcome) => Ok(EvalOutcome {
                result_hit: true,
                ..*outcome
            }),
            Err(e) => Err(e.clone()),
        };
        shared.complete(ticket, follower);
    }
    shared.complete(job.ticket, result);
}

#[cfg(test)]
mod tests {
    use super::*;
    use robusched_sched::{heft, random_schedule};

    fn scenario(seed: u64) -> Arc<Scenario> {
        Arc::new(Scenario::paper_random(10, 3, 1.1, seed))
    }

    #[test]
    fn warm_requests_hit_the_result_cache() {
        let service = EvalService::new(ServiceConfig {
            workers: Some(2),
            ..Default::default()
        });
        let s = scenario(5);
        let req = EvalRequest::new(s.clone(), heft(&s), "classic");
        let cold = service.evaluate(req.clone()).unwrap();
        assert!(!cold.result_hit);
        let warm = service.evaluate(req).unwrap();
        assert!(warm.result_hit && warm.scenario_hit);
        assert_eq!(cold.metrics, warm.metrics);
        let stats = service.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.result_hits, 1);
    }

    #[test]
    fn unknown_evaluator_is_an_error_response() {
        let service = EvalService::new(ServiceConfig::default());
        let s = scenario(1);
        let req = EvalRequest::new(s.clone(), heft(&s), "exact");
        assert_eq!(
            service.evaluate(req).unwrap_err(),
            ServiceError::UnknownEvaluator("exact".into())
        );
    }

    #[test]
    fn responses_stream_in_submission_order() {
        let service = EvalService::new(ServiceConfig {
            workers: Some(4),
            ..Default::default()
        });
        let s = scenario(7);
        for i in 0..20u64 {
            let sched = random_schedule(&s.graph.dag, s.machine_count(), i);
            service.submit(EvalRequest::new(s.clone(), sched, "classic"));
        }
        for expect in 0..20u64 {
            let (ticket, result) = service.next_response();
            assert_eq!(ticket, expect);
            assert!(result.is_ok());
        }
    }

    #[test]
    fn waited_tickets_do_not_stall_the_ordered_stream() {
        // Mixing surfaces: tickets 0..5 consumed via wait(), the rest via
        // next_response() — the stream must skip the claimed prefix
        // instead of blocking on it.
        let service = EvalService::new(ServiceConfig {
            workers: Some(2),
            ..Default::default()
        });
        let s = scenario(11);
        let tickets: Vec<Ticket> = (0..10u64)
            .map(|i| {
                let sched = random_schedule(&s.graph.dag, s.machine_count(), i);
                service.submit(EvalRequest::new(s.clone(), sched, "classic"))
            })
            .collect();
        for &t in &tickets[..5] {
            service.wait(t).unwrap();
        }
        for expect in 5..10u64 {
            let (ticket, result) = service.next_response();
            assert_eq!(ticket, expect);
            assert!(result.is_ok());
        }
    }

    #[test]
    fn zero_ttl_forces_repreparation() {
        // TTL 0 means every probe finds the entry stale: the second
        // request must purge, re-prepare, and count a TTL eviction.
        let service = EvalService::new(ServiceConfig {
            workers: Some(1),
            scenario_ttl: Some(Duration::ZERO),
            result_capacity: 0, // keep the result cache out of the way
            ..Default::default()
        });
        let s = scenario(21);
        for i in 0..3u64 {
            let sched = random_schedule(&s.graph.dag, s.machine_count(), i);
            service
                .evaluate(EvalRequest::new(s.clone(), sched, "classic"))
                .unwrap();
        }
        let stats = service.stats();
        assert_eq!(stats.scenario_hits, 0, "nothing survives a zero TTL");
        assert_eq!(stats.scenario_misses, 3);
        assert!(stats.ttl_evictions >= 2, "got {}", stats.ttl_evictions);
        assert_eq!(service.cached_scenarios(), 1, "last entry still resident");
    }

    #[test]
    fn generous_ttl_keeps_entries_warm() {
        let service = EvalService::new(ServiceConfig {
            workers: Some(1),
            scenario_ttl: Some(Duration::from_secs(3600)),
            result_capacity: 0,
            ..Default::default()
        });
        let s = scenario(22);
        for i in 0..3u64 {
            let sched = random_schedule(&s.graph.dag, s.machine_count(), i);
            service
                .evaluate(EvalRequest::new(s.clone(), sched, "classic"))
                .unwrap();
        }
        let stats = service.stats();
        assert_eq!(stats.scenario_misses, 1);
        assert_eq!(stats.scenario_hits, 2);
        assert_eq!(stats.ttl_evictions, 0);
    }

    #[test]
    fn result_cache_evictions_are_counted() {
        let service = EvalService::new(ServiceConfig {
            workers: Some(1),
            result_capacity: 1,
            ..Default::default()
        });
        let s = scenario(23);
        for i in 0..3u64 {
            let sched = random_schedule(&s.graph.dag, s.machine_count(), i);
            service
                .evaluate(EvalRequest::new(s.clone(), sched, "classic"))
                .unwrap();
        }
        // Capacity 1: the 2nd and 3rd insertions each evict the previous.
        assert_eq!(service.stats().result_evictions, 2);
    }

    #[test]
    fn in_flight_duplicates_coalesce() {
        // One worker, identical requests racing: the leader evaluates,
        // the rest attach. With max_batch = 1 the duplicates cannot ride
        // the leader's batch, so coalescing is what keeps evaluations at 1.
        let service = EvalService::new(ServiceConfig {
            workers: Some(1),
            max_batch: 1,
            ..Default::default()
        });
        let s = scenario(9);
        let req = EvalRequest::new(s.clone(), heft(&s), "spelde");
        let tickets: Vec<Ticket> = (0..8).map(|_| service.submit(req.clone())).collect();
        let results: Vec<EvalOutcome> = tickets
            .into_iter()
            .map(|t| service.wait(t).unwrap())
            .collect();
        for pair in results.windows(2) {
            assert_eq!(pair[0].metrics, pair[1].metrics);
        }
        // At least the submissions that raced the (slow) leader coalesced;
        // by the time of the last waits the result cache serves the rest.
        assert!(service.stats().result_hits >= 1);
    }

    #[test]
    fn zero_capacity_sheds_every_request() {
        // Capacity 0: the queue can never admit, so every submission is
        // shed with `Overloaded` — deterministically, at any worker count.
        for workers in [1, 2, 4] {
            let service = EvalService::new(ServiceConfig {
                workers: Some(workers),
                queue_capacity: Some(0),
                ..Default::default()
            });
            let s = scenario(31);
            for i in 0..6u64 {
                let sched = random_schedule(&s.graph.dag, s.machine_count(), i);
                let err = service
                    .evaluate(EvalRequest::new(s.clone(), sched, "classic"))
                    .unwrap_err();
                assert_eq!(err, ServiceError::Overloaded, "workers={workers}");
            }
            // Shedding must tear down the leader's in-flight reservation:
            // resubmitting the same request sheds again instead of
            // attaching to a dead reservation and hanging forever.
            let req = EvalRequest::new(s.clone(), heft(&s), "classic");
            assert_eq!(
                service.evaluate(req.clone()).unwrap_err(),
                ServiceError::Overloaded
            );
            assert_eq!(service.evaluate(req).unwrap_err(), ServiceError::Overloaded);
            let stats = service.stats();
            assert_eq!(stats.shed, 8, "workers={workers}");
            assert_eq!(stats.completed, 8, "every shed request still answers");
        }
    }

    #[test]
    fn zero_timeout_abandons_queued_requests() {
        // A zero deadline has always lapsed by the time a worker looks:
        // every queued request times out instead of evaluating.
        for workers in [1, 2, 4] {
            let service = EvalService::new(ServiceConfig {
                workers: Some(workers),
                request_timeout: Some(Duration::ZERO),
                ..Default::default()
            });
            let s = scenario(33);
            let tickets: Vec<Ticket> = (0..6u64)
                .map(|i| {
                    let sched = random_schedule(&s.graph.dag, s.machine_count(), i);
                    service.submit(EvalRequest::new(s.clone(), sched, "classic"))
                })
                .collect();
            for t in tickets {
                assert_eq!(
                    service.wait(t).unwrap_err(),
                    ServiceError::TimedOut,
                    "workers={workers}"
                );
            }
            let stats = service.stats();
            assert_eq!(stats.timeouts, 6, "workers={workers}");
            assert_eq!(stats.shed, 0, "timeouts are not sheds");
        }
    }

    #[test]
    fn saturating_burst_sheds_instead_of_growing_queue() {
        // The acceptance pin: one worker grinding slow evaluations, a
        // bounded queue, and a burst of distinct requests. The first
        // request always admits (empty queue); once the backlog hits the
        // cap the rest shed — the queue never grows past capacity, and
        // every ticket still gets an answer.
        let service = EvalService::new(ServiceConfig {
            workers: Some(1),
            max_batch: 1,
            queue_capacity: Some(2),
            ..Default::default()
        });
        let s = Arc::new(Scenario::paper_random(40, 3, 1.1, 35));
        let tickets: Vec<Ticket> = (0..32u64)
            .map(|i| {
                let sched = random_schedule(&s.graph.dag, s.machine_count(), i);
                service.submit(EvalRequest::new(s.clone(), sched, "spelde"))
            })
            .collect();
        let mut ok = 0u64;
        let mut shed = 0u64;
        for t in tickets {
            match service.wait(t) {
                Ok(_) => ok += 1,
                Err(ServiceError::Overloaded) => shed += 1,
                Err(e) => panic!("unexpected error under overload: {e}"),
            }
        }
        assert_eq!(ok + shed, 32, "every request is answered exactly once");
        assert!(ok >= 1, "the first request always admits");
        assert!(shed >= 1, "a saturating burst must shed");
        assert_eq!(service.stats().shed, shed);
    }

    #[test]
    fn unbounded_service_never_sheds_or_times_out() {
        // The default config keeps today's behavior: no shedding, no
        // timeouts, however bursty the submission pattern.
        let service = EvalService::new(ServiceConfig {
            workers: Some(1),
            ..Default::default()
        });
        let s = scenario(37);
        let tickets: Vec<Ticket> = (0..8u64)
            .map(|i| {
                let sched = random_schedule(&s.graph.dag, s.machine_count(), i);
                service.submit(EvalRequest::new(s.clone(), sched, "classic"))
            })
            .collect();
        for t in tickets {
            service.wait(t).unwrap();
        }
        let stats = service.stats();
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.timeouts, 0);
    }
}
