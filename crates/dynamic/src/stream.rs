//! Arrival streams: who shows up, and when.
//!
//! The dynamic executor consumes an [`ArrivalStream`] — an iterator-like
//! source of `(time, scenario)` pairs. Two implementations cover the two
//! workload regimes of the task-dropping literature:
//!
//! * [`PoissonStream`] — memoryless arrivals at a fixed rate λ over a
//!   round-robin workload pool (the oversubscription knob of the
//!   `ext-dynamic` study is λ relative to platform capacity);
//! * [`ReplayStream`] — a fixed, recorded list of arrivals (trace replay:
//!   the committed real-workflow traces flow in through
//!   `Scenario::from_trace` exactly as in `ext-traces`).
//!
//! Both are seed-deterministic: the same constructor arguments yield the
//! same arrival sequence bit for bit. Interarrival sampling uses the same
//! top-53-bit uniform conversion as the Monte-Carlo engine
//! (`robusched_randvar::uniform01_word`, `u = (next_u64() >> 11) · 2⁻⁵³`),
//! so streams are reproducible across platforms.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use robusched_platform::Scenario;
use robusched_randvar::uniform01_word;
use std::collections::VecDeque;
use std::sync::Arc;

/// One workflow instance entering the system.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Absolute arrival time.
    pub time: f64,
    /// The arriving workflow (shared — repeated workloads intern to one
    /// `Arc`, so the executor's per-scenario caches deduplicate work). The
    /// executor finds an arrival's cached state by this `Arc`'s identity,
    /// so the saving holds per arrival: only an `Arc` a run has not seen
    /// yet is fingerprinted, and a content-equal scenario in a fresh `Arc`
    /// still reuses the cached state.
    pub scenario: Arc<Scenario>,
}

/// A source of arrivals in non-decreasing time order.
pub trait ArrivalStream {
    /// The next arrival, or `None` when the stream is exhausted.
    fn next_arrival(&mut self) -> Option<Arrival>;
}

/// Poisson arrivals at rate `rate` over a round-robin workload pool,
/// truncated after `count` instances.
///
/// Round-robin (not random) workload selection keeps the workload *mix*
/// identical across arrival-rate sweeps — only the timing changes with
/// λ, so hit-rate differences between cells are attributable to load, not
/// to a different draw of workflows.
#[derive(Debug)]
pub struct PoissonStream {
    workloads: Vec<Arc<Scenario>>,
    rate: f64,
    remaining: usize,
    emitted: usize,
    t: f64,
    rng: StdRng,
}

impl PoissonStream {
    /// A stream of `count` arrivals at rate `rate` (arrivals per unit
    /// time) cycling through `workloads` in order.
    ///
    /// # Panics
    /// Panics if `workloads` is empty or `rate` is not finite-positive.
    pub fn new(workloads: Vec<Arc<Scenario>>, rate: f64, count: usize, seed: u64) -> Self {
        assert!(!workloads.is_empty(), "workload pool must be non-empty");
        assert!(
            rate.is_finite() && rate > 0.0,
            "arrival rate must be positive"
        );
        Self {
            workloads,
            rate,
            remaining: count,
            emitted: 0,
            t: 0.0,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl ArrivalStream for PoissonStream {
    fn next_arrival(&mut self) -> Option<Arrival> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // Exponential interarrival: −ln(1−u)/λ, u ∈ [0, 1) so 1−u ∈ (0, 1].
        let u = uniform01_word(self.rng.next_u64());
        self.t += -(1.0 - u).ln() / self.rate;
        let scenario = self.workloads[self.emitted % self.workloads.len()].clone();
        self.emitted += 1;
        Some(Arrival {
            time: self.t,
            scenario,
        })
    }
}

/// Replays a fixed arrival list (constructed by the caller, e.g. from a
/// recorded submission log or a committed workflow trace).
#[derive(Debug, Default)]
pub struct ReplayStream {
    queue: VecDeque<Arrival>,
}

impl ReplayStream {
    /// A stream over `arrivals`, sorted into non-decreasing time order
    /// (ties keep their input order, so replays are deterministic).
    pub fn new(mut arrivals: Vec<Arrival>) -> Self {
        arrivals.sort_by(|a, b| a.time.total_cmp(&b.time));
        Self {
            queue: arrivals.into(),
        }
    }

    /// Number of arrivals left to replay.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// `true` when the stream is exhausted.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

impl ArrivalStream for ReplayStream {
    fn next_arrival(&mut self) -> Option<Arrival> {
        self.queue.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Vec<Arc<Scenario>> {
        vec![
            Arc::new(Scenario::paper_random(8, 3, 1.1, 1)),
            Arc::new(Scenario::paper_random(10, 3, 1.1, 2)),
        ]
    }

    #[test]
    fn poisson_is_deterministic_and_ordered() {
        let collect = |seed| {
            let mut s = PoissonStream::new(pool(), 0.5, 16, seed);
            let mut times = Vec::new();
            while let Some(a) = s.next_arrival() {
                times.push(a.time);
            }
            times
        };
        let a = collect(7);
        let b = collect(7);
        assert_eq!(a, b, "same seed, same stream");
        assert_eq!(a.len(), 16);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "non-decreasing times");
        assert!(a.iter().all(|t| *t > 0.0));
        assert_ne!(a, collect(8), "different seed, different stream");
    }

    #[test]
    fn poisson_round_robins_the_pool() {
        let mut s = PoissonStream::new(pool(), 1.0, 4, 3);
        let sizes: Vec<usize> = std::iter::from_fn(|| s.next_arrival())
            .map(|a| a.scenario.task_count())
            .collect();
        assert_eq!(sizes, vec![8, 10, 8, 10]);
    }

    #[test]
    fn replay_sorts_and_drains() {
        let p = pool();
        let mut s = ReplayStream::new(vec![
            Arrival {
                time: 5.0,
                scenario: p[0].clone(),
            },
            Arrival {
                time: 1.0,
                scenario: p[1].clone(),
            },
        ]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.next_arrival().unwrap().time, 1.0);
        assert_eq!(s.next_arrival().unwrap().time, 5.0);
        assert!(s.next_arrival().is_none());
        assert!(s.is_empty());
    }
}
