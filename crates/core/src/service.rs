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
//! All three caches below are one [`Lru`]: a bounded map that evicts the
//! entry touched longest ago.
//!
//! * **Scenario cache** — an LRU keyed by
//!   [`robusched_stochastic::scenario_fingerprint`] (structure +
//!   uncertainty model + costs). Each entry holds one [`PreparedScenario`]
//!   per [`Preparation`] that a request needed
//!   ([`robusched_stochastic::DiscretizedScenario`] slots,
//!   [`robusched_stochastic::SamplingTables`]), so repeated scenarios skip
//!   all preparation, and evaluators that name the same preparation share
//!   it: the default classic evaluator and Dodin's fill and read one
//!   discretization table, and the three Monte-Carlo estimators one set
//!   of sampling tables. A discretization entry holds `n·m` task slots
//!   plus one communication slot per (edge, link class) — `2e` on the
//!   paper's network — so an entry's size grows with `n·m + e`, not with
//!   `e·m²`. A table compares its inputs with each request's scenario
//!   before it is read, so a fingerprint collision falls back to a
//!   private table instead of another scenario's slots.
//! * **Fingerprint memo** — a request's scenario fingerprint is looked up
//!   by its `Arc<Scenario>`'s identity in an LRU of at most
//!   `scenario_capacity` entries, which holds each `Arc` it keys so no
//!   address is reused while its entry lives. A miss hashes the content,
//!   so a content-equal scenario in a fresh `Arc` still shares every
//!   cache entry; a repeat costs a map lookup, not a hash of the whole
//!   scenario.
//! * **Result cache + in-flight coalescing** — an LRU of finished
//!   [`MetricValues`] keyed by the full request fingerprint (scenario +
//!   schedule + evaluator). A repeat of a finished request is served from
//!   the cache without touching a worker; a repeat of an *in-flight*
//!   request attaches to the leader and receives the same result when it
//!   lands — identical requests are evaluated exactly once no matter how
//!   many clients race.
//! * **Batching queue** — workers pull the oldest pending request and
//!   coalesce up to `MAX_BATCH` (64) compatible requests (same scenario
//!   fingerprint, same evaluator) from anywhere in the queue into one
//!   batch sharing a single warmed [`EvalContext`] — the SoA Monte-Carlo
//!   kernel and the prepared classic/Dodin paths then run back-to-back
//!   with zero per-request setup.
//! * **Tickets** — [`EvalService::submit`] returns a ticket and
//!   [`EvalService::wait`] blocks on it; [`EvalService::evaluate`] does
//!   both. A caller that needs answers in submission order waits on its
//!   tickets in that order, as the `serve` front end does.
//!
//! The evaluator name is resolved once, at submission; the batching queue
//! and the result cache key it by [`Evaluator::name`], so aliases (`mc`,
//! `MC`, `montecarlo`) share one result.
//!
//! Every bundled evaluator is deterministic, and prepared state never
//! changes numerics (pinned by `tests/eval_cache.rs`), so a response is
//! **bit-identical** whether it came from a cold evaluation, a prepared
//! cache hit, a coalesced in-flight follower, or the result cache — and
//! for any worker count. `tests/eval_service.rs` locks this.
//!
//! A schedule that would deadlock is answered with
//! [`ServiceError::InvalidSchedule`] when its plan is compiled, and a
//! worker panic (a bug) is caught per request and returned as
//! [`ServiceError::Panicked`] — the service keeps serving, which is the
//! whole point of a long-running front end.

use crate::lru::Lru;
use crate::metrics::{evaluate_metrics, MetricValues};
use robusched_platform::Scenario;
use robusched_sched::{Schedule, ScheduleError};
use robusched_stochastic::par::{panic_message, worker_count};
use robusched_stochastic::{
    evaluator_by_name, scenario_fingerprint, EvalContext, Evaluator, Fnv1a, Preparation,
    PreparedScenario,
};
use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Configuration of an [`EvalService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads (`None` = available parallelism).
    pub workers: Option<usize>,
    /// Maximum number of *scenarios* whose prepared state is retained
    /// (LRU). Each entry holds one [`PreparedScenario`] per [`Preparation`]
    /// that the scenario's requests needed.
    pub scenario_capacity: usize,
    /// Maximum number of finished request results retained (LRU).
    /// `0` disables result caching (in-flight coalescing stays on).
    pub result_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: None,
            scenario_capacity: 64,
            result_capacity: 4096,
        }
    }
}

/// Maximum requests one worker coalesces into a single batch.
const MAX_BATCH: usize = 64;

/// One evaluation request: a scenario (shared, typically interned by the
/// front end), a schedule and an evaluator registry name. The service
/// always computes the full [`MetricValues`] vector under the default
/// [`MetricOptions`](crate::MetricOptions) — metric-*set* filtering is a
/// wire-protocol concern (see the `serve` subcommand), not an evaluation
/// one.
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
}

impl EvalRequest {
    /// A request for `schedule` on `scenario` under `evaluator`.
    pub fn new(scenario: Arc<Scenario>, schedule: Schedule, evaluator: &str) -> Self {
        Self {
            scenario,
            schedule,
            evaluator: evaluator.to_string(),
        }
    }
}

/// A finished evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalOutcome {
    /// The full metric vector of the schedule.
    pub metrics: MetricValues,
    /// `true` when the scenario's prepared state for this evaluator's
    /// [`Preparation`] was already cached (all preparation skipped).
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
    /// The schedule cannot run on the scenario's graph (its plan failed
    /// to compile).
    InvalidSchedule(ScheduleError),
    /// The evaluation panicked; the payload is preserved so the root cause
    /// is not masked (cf. [`crate::StudyError::WorkerPanic`]).
    Panicked(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownEvaluator(n) => write!(f, "unknown evaluator '{n}'"),
            Self::InvalidSchedule(e) => write!(f, "invalid schedule: {e}"),
            Self::Panicked(msg) => write!(f, "evaluation panicked: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// A submitted request's handle: its position in the submission order.
pub type Ticket = u64;

/// The response [`EvalService::wait`] yields for a ticket.
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
    /// Finished results evicted by the result-cache LRU bound.
    pub result_evictions: u64,
    /// Requests answered without evaluating: result-cache hits plus
    /// in-flight coalesced duplicates.
    pub result_hits: u64,
    /// Worker batches executed.
    pub batches: u64,
    /// Requests that rode a batch of size ≥ 2.
    pub batched_requests: u64,
}

// ---------------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------------

struct Job {
    ticket: Ticket,
    request: EvalRequest,
    /// Resolved at submission; its canonical name keys the batch and the
    /// result cache, its [`Preparation`] the prepared-state map.
    evaluator: Box<dyn Evaluator>,
    scenario_fp: u64,
    result_key: u64,
}

impl Job {
    /// Requests are batch-compatible when they share the scenario (by
    /// fingerprint) and the evaluator (by canonical name).
    fn batches_with(&self, other: &Job) -> bool {
        self.scenario_fp == other.scenario_fp && self.evaluator.name() == other.evaluator.name()
    }
}

#[derive(Default)]
struct QueueState {
    pending: VecDeque<Job>,
    /// Set only by `Drop`: the workers exit once the queue is empty.
    shutdown: bool,
}

struct CacheState {
    /// Scenario fingerprint → prepared state per [`Preparation`], each
    /// filled on first use.
    scenarios: Lru<u64, HashMap<Preparation, PreparedScenario>>,
    /// Request fingerprint → finished result; `None` when result caching
    /// is off.
    results: Option<Lru<u64, MetricValues>>,
    /// result_key → tickets of coalesced duplicate requests waiting on the
    /// in-flight leader.
    in_flight: HashMap<u64, Vec<Ticket>>,
}

#[derive(Default)]
struct Stats {
    submitted: AtomicU64,
    completed: AtomicU64,
    scenario_hits: AtomicU64,
    scenario_misses: AtomicU64,
    evictions: AtomicU64,
    result_evictions: AtomicU64,
    result_hits: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
}

struct Shared {
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    /// Finished responses not yet claimed by [`EvalService::wait`].
    responses: Mutex<HashMap<Ticket, EvalResult>>,
    responses_cv: Condvar,
    caches: Mutex<CacheState>,
    /// The fingerprint memo: `Arc::as_ptr` address → (the `Arc`, its
    /// content fingerprint). Each entry holds its `Arc`, so the address
    /// it is keyed by cannot be reused while the entry lives.
    fingerprints: Mutex<Lru<usize, (Arc<Scenario>, u64)>>,
    stats: Stats,
}

impl Shared {
    /// The content fingerprint of `scenario`, hashed once per `Arc` while
    /// the memo keeps it.
    fn scenario_fp(&self, scenario: &Arc<Scenario>) -> u64 {
        let identity = Arc::as_ptr(scenario) as usize;
        let memo = || {
            self.fingerprints
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        };
        if let Some((_, fp)) = memo().get_mut(&identity) {
            return *fp;
        }
        // Hash outside the lock: at n = 300 it takes ~0.2 ms.
        let fp = scenario_fingerprint(scenario);
        memo().get_or_insert_with(identity, |_| (scenario.clone(), fp));
        fp
    }

    fn complete(&self, ticket: Ticket, result: EvalResult) {
        let mut rs = self
            .responses
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        rs.insert(ticket, result);
        self.stats.completed.fetch_add(1, Ordering::Relaxed);
        self.responses_cv.notify_all();
    }
}

/// FNV-1a over the full request identity: scenario fingerprint, schedule
/// (assignment + per-machine order), canonical evaluator name. Equal keys
/// ⇒ bit-identical responses (64-bit collisions are ignored, as in every
/// fingerprint cache of this workspace).
fn request_fingerprint(scenario_fp: u64, req: &EvalRequest, evaluator: &str) -> u64 {
    let mut h = Fnv1a::default();
    h.mix(scenario_fp);
    for &p in req.schedule.assignment() {
        h.mix(p as u64);
    }
    for p in 0..req.schedule.machine_count() {
        h.mix(!0); // machine separator
        for &t in req.schedule.order_on(p) {
            h.mix(t as u64);
        }
    }
    for b in evaluator.bytes() {
        h.mix(b as u64);
    }
    h.finish()
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
            queue: Mutex::new(QueueState::default()),
            queue_cv: Condvar::new(),
            responses: Mutex::new(HashMap::new()),
            responses_cv: Condvar::new(),
            caches: Mutex::new(CacheState {
                scenarios: Lru::new(config.scenario_capacity),
                results: (config.result_capacity > 0).then(|| Lru::new(config.result_capacity)),
                in_flight: HashMap::new(),
            }),
            fingerprints: Mutex::new(Lru::new(config.scenario_capacity)),
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
    /// Every ticket should be passed to [`wait`](Self::wait) once; until
    /// then its response stays buffered in the service.
    pub fn submit(&self, request: EvalRequest) -> Ticket {
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        self.shared.stats.submitted.fetch_add(1, Ordering::Relaxed);

        // Resolve the evaluator up front so unknown names fail fast (and
        // cheaply) instead of poisoning a batch.
        let Some(evaluator) = evaluator_by_name(&request.evaluator) else {
            self.shared.complete(
                ticket,
                Err(ServiceError::UnknownEvaluator(request.evaluator.clone())),
            );
            return ticket;
        };

        let scenario_fp = self.shared.scenario_fp(&request.scenario);
        let result_key = request_fingerprint(scenario_fp, &request, evaluator.name());

        {
            let mut caches = self
                .shared
                .caches
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            // Tier 1: finished-result cache.
            let cached = caches.results.as_mut().and_then(|r| r.get_mut(&result_key));
            if let Some(metrics) = cached.copied() {
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

        let mut queue = self
            .shared
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Only `Drop`, which holds the service exclusively, sets the flag.
        debug_assert!(!queue.shutdown, "submit after shutdown");
        queue.pending.push_back(Job {
            ticket,
            request,
            evaluator,
            scenario_fp,
            result_key,
        });
        drop(queue);
        self.shared.queue_cv.notify_one();
        ticket
    }

    /// Blocks until `ticket`'s response is ready and removes it. Each
    /// ticket yields its response exactly once.
    pub fn wait(&self, ticket: Ticket) -> EvalResult {
        let mut rs = self
            .shared
            .responses
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(result) = rs.remove(&ticket) {
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

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        let s = &self.shared.stats;
        ServiceStats {
            submitted: s.submitted.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            scenario_hits: s.scenario_hits.load(Ordering::Relaxed),
            scenario_misses: s.scenario_misses.load(Ordering::Relaxed),
            evictions: s.evictions.load(Ordering::Relaxed),
            result_evictions: s.result_evictions.load(Ordering::Relaxed),
            result_hits: s.result_hits.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            batched_requests: s.batched_requests.load(Ordering::Relaxed),
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
        // anywhere in the queue (bounded by `MAX_BATCH`).
        let batch: Vec<Job> = {
            let mut queue = shared
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                if let Some(leader) = queue.pending.pop_front() {
                    let mut batch = vec![leader];
                    let mut i = 0;
                    while i < queue.pending.len() && batch.len() < MAX_BATCH {
                        if queue.pending[i].batches_with(&batch[0]) {
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
/// cache lock; if another worker prepared the same (scenario, preparation)
/// concurrently, the first insertion wins so every later request shares
/// one state.
fn prepared_for(
    shared: &Shared,
    fp: u64,
    preparation: Preparation,
    scenario: &Scenario,
) -> (PreparedScenario, bool) {
    let lock = || {
        shared
            .caches
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    };
    if let Some(plans) = lock().scenarios.get_mut(&fp) {
        if let Some(prep) = plans.get(&preparation) {
            shared.stats.scenario_hits.fetch_add(1, Ordering::Relaxed);
            return (prep.clone(), true);
        }
    }
    shared.stats.scenario_misses.fetch_add(1, Ordering::Relaxed);
    let prep = preparation.prepare(scenario);
    let mut caches = lock();
    let (plans, evicted) = caches.scenarios.get_or_insert_with(fp, |_| HashMap::new());
    let prep = plans.entry(preparation).or_insert(prep).clone();
    if evicted.is_some() {
        shared.stats.evictions.fetch_add(1, Ordering::Relaxed);
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
    let leader = &batch[0];
    let evaluator = leader.evaluator.as_ref();
    let (prep, scenario_hit) = prepared_for(
        shared,
        leader.scenario_fp,
        evaluator.preparation(),
        &leader.request.scenario,
    );
    // One context for the whole batch: scratch warmed by the first request
    // is reused by every one after (the same discipline as a study
    // worker's per-thread context).
    let mut cx = EvalContext::new(prep.clone());
    for job in &batch {
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            evaluate_metrics(
                evaluator,
                &job.request.scenario,
                &job.request.schedule,
                &mut cx,
            )
        }));
        match result {
            Ok(Err(e)) => finish_job(shared, job, Err(ServiceError::InvalidSchedule(e))),
            Ok(Ok(metrics)) => finish_job(
                shared,
                job,
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
                    job,
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
        if let (Ok(outcome), Some(results)) = (&result, caches.results.as_mut()) {
            let (_, evicted) = results.get_or_insert_with(job.result_key, |_| outcome.metrics);
            if evicted.is_some() {
                shared
                    .stats
                    .result_evictions
                    .fetch_add(1, Ordering::Relaxed);
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
    fn evaluator_aliases_share_one_cache_entry() {
        // `mc` and any capitalization resolve to the `montecarlo`
        // evaluator, so they must find its prepared state and its result.
        let service = EvalService::new(ServiceConfig {
            workers: Some(1),
            ..Default::default()
        });
        let s = scenario(13);
        let schedule = heft(&s);
        let first = service
            .evaluate(EvalRequest::new(s.clone(), schedule.clone(), "montecarlo"))
            .unwrap();
        for alias in ["mc", "MC", "MonteCarlo"] {
            let again = service
                .evaluate(EvalRequest::new(s.clone(), schedule.clone(), alias))
                .unwrap();
            assert!(again.result_hit, "{alias} missed the result cache");
            assert_eq!(again.metrics, first.metrics, "{alias}");
        }
        assert_eq!(service.stats().scenario_misses, 1);
    }

    #[test]
    fn content_equal_fresh_arcs_hit_the_result_cache() {
        // A fresh `Arc` misses the identity memo; its content fingerprint
        // must still find the first `Arc`'s result.
        let service = EvalService::new(ServiceConfig {
            workers: Some(1),
            ..Default::default()
        });
        let s = scenario(31);
        let first = service
            .evaluate(EvalRequest::new(s.clone(), heft(&s), "dodin"))
            .unwrap();
        let fresh = Arc::new(Scenario::clone(&s));
        assert!(!Arc::ptr_eq(&s, &fresh));
        let again = service
            .evaluate(EvalRequest::new(fresh.clone(), heft(&fresh), "dodin"))
            .unwrap();
        assert!(again.result_hit);
        assert_eq!(again.metrics, first.metrics);
        assert_eq!(service.stats().scenario_misses, 1);
    }

    #[test]
    fn fingerprint_memo_keeps_its_lru_bound() {
        let service = EvalService::new(ServiceConfig {
            workers: Some(1),
            scenario_capacity: 3,
            ..Default::default()
        });
        let pool: Vec<Arc<Scenario>> = (0..8).map(scenario).collect();
        for s in &pool {
            service
                .evaluate(EvalRequest::new(s.clone(), heft(s), "spelde"))
                .unwrap();
            assert!(service.shared.fingerprints.lock().unwrap().len() <= 3);
        }
        // A hit refreshes its entry: touch the oldest survivor, then
        // submit one more scenario, which must evict the next oldest.
        service
            .evaluate(EvalRequest::new(pool[5].clone(), heft(&pool[5]), "spelde"))
            .unwrap();
        let extra = scenario(8);
        service
            .evaluate(EvalRequest::new(extra.clone(), heft(&extra), "spelde"))
            .unwrap();
        let mut memo = service.shared.fingerprints.lock().unwrap();
        assert_eq!(memo.len(), 3);
        let mut kept = |s: &Arc<Scenario>| memo.get_mut(&(Arc::as_ptr(s) as usize)).is_some();
        assert!(kept(&pool[5]) && kept(&pool[7]) && kept(&extra));
        assert!(!kept(&pool[6]));
        // Evicted entries release their `Arc`s.
        for s in &pool[..5] {
            assert_eq!(Arc::strong_count(s), 1);
        }
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
        // the rest attach to it at submit and never enter the queue.
        let service = EvalService::new(ServiceConfig {
            workers: Some(1),
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
}
