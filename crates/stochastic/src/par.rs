//! The ordered-parallel helper every parallel loop of the workspace runs on.
//!
//! [`par_map`] computes `work(&mut state, i)` for `i in 0..n` on a few
//! scoped worker threads and hands each result to `deliver` **strictly in
//! index order**, whatever order the workers finish in. Four rules make its
//! callers bit-reproducible for any thread count:
//!
//! * **index-order delivery** — items that finish early wait in a reorder
//!   buffer until every lower index has been delivered;
//! * **one state per worker** — `init` runs once on each worker and the
//!   state is reused for every item that worker claims. It is for scratch
//!   buffers and shared-read handles, never for anything an item's result
//!   may depend on;
//! * **seeds from the item index** — callers derive randomness from `i`
//!   (`derive_seed(seed, i)`), never from the worker that claimed it;
//! * **first-panic containment** — the first panic in `init`, `work` or
//!   `deliver` stops further claims and comes back as `Err(message)`; no
//!   index at or after the panicking one is delivered, and the call itself
//!   never panics.
//!
//! [`worker_count`] resolves the `Option<usize>` thread knobs (`None` =
//! available parallelism) that CLI flags and configs carry.

use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// The worker count a thread option asks for: the value itself, or the
/// machine's available parallelism for `None`; never below 1.
pub fn worker_count(threads: Option<usize>) -> usize {
    threads
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
        .max(1)
}

/// Renders a panic payload (the `Box<dyn Any>` from `catch_unwind`) as
/// text: `&str` and `String` payloads verbatim, anything else opaquely.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `work(&mut state, i)` for every `i in 0..n` on `min(threads, n)`
/// scoped workers (at least one unless `n = 0`) and calls
/// `deliver(i, value)` in index order. Each worker builds its `state` with
/// one `init()` call. See the [module docs](self) for the full contract.
///
/// Returns the first panic's message as `Err`; `deliver` has then seen a
/// prefix `0..j` of the indices, with `j` at most the panicking index.
///
/// ```
/// use robusched_stochastic::par::par_map;
///
/// let mut squares = Vec::new();
/// par_map(10, 4, || (), |_, i| i * i, |_, sq| squares.push(sq)).unwrap();
/// assert_eq!(squares, [0, 1, 4, 9, 16, 25, 36, 49, 64, 81]);
/// ```
pub fn par_map<S, T, I, W, D>(
    n: usize,
    threads: usize,
    init: I,
    work: W,
    deliver: D,
) -> Result<(), String>
where
    T: Send,
    I: Fn() -> S + Sync,
    W: Fn(&mut S, usize) -> T + Sync,
    D: FnMut(usize, T) + Send,
{
    let workers = threads.max(1).min(n);
    let next_item = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let first_panic = Mutex::new(None::<String>);
    let reorder = Mutex::new(Reorder {
        next: 0,
        pending: BTreeMap::new(),
        deliver,
    });
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let mut state = init();
                    while !abort.load(Ordering::Relaxed) {
                        let i = next_item.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let value = work(&mut state, i);
                        // A panic inside an earlier `deliver` poisons the
                        // lock; the buffer is still consistent (its `next`
                        // never advanced past the panicking index), so keep
                        // going rather than masking the first panic.
                        reorder
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .push(i, value);
                    }
                }));
                if let Err(payload) = outcome {
                    abort.store(true, Ordering::Relaxed);
                    first_panic
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .get_or_insert_with(|| panic_message(payload.as_ref()));
                }
            });
        }
    });
    match first_panic
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        Some(message) => Err(message),
        None => Ok(()),
    }
}

/// The reorder buffer: results wait in `pending` until every lower index
/// has been delivered.
struct Reorder<T, D> {
    next: usize,
    pending: BTreeMap<usize, T>,
    deliver: D,
}

impl<T, D: FnMut(usize, T)> Reorder<T, D> {
    fn push(&mut self, i: usize, value: T) {
        self.pending.insert(i, value);
        while let Some(value) = self.pending.remove(&self.next) {
            (self.deliver)(self.next, value);
            // Advanced only after a successful delivery: a panicking
            // `deliver` leaves `next` on its index, so nothing after it is
            // ever delivered.
            self.next += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;
    use std::sync::Condvar;

    /// Deliberately uneven item costs (busy work of 0–20k steps), so later
    /// indices routinely finish before earlier ones. Returns `i²`.
    fn uneven(i: usize) -> usize {
        let steps = (i * 37) % 11 * 2_000;
        (0..steps).fold(i * i, |acc, k| black_box(acc ^ k) ^ k)
    }

    #[test]
    fn a_later_item_finishing_first_waits_for_the_earlier_one() {
        // A forced out-of-order completion on two workers: item 0 blocks
        // until item 2 starts. The worker blocked in item 0 cannot claim,
        // so the other one runs item 1, hands it in, and only then claims
        // item 2 — item 1 is in the reorder buffer before item 0 finishes.
        let item2_started = (Mutex::new(false), Condvar::new());
        let mut seen = Vec::new();
        par_map(
            3,
            2,
            || (),
            |_, i| {
                let (started, cv) = &item2_started;
                let mut started = started.lock().unwrap();
                if i == 0 {
                    while !*started {
                        started = cv.wait(started).unwrap();
                    }
                } else if i == 2 {
                    *started = true;
                    cv.notify_all();
                }
                i
            },
            |i, v| seen.push((i, v)),
        )
        .unwrap();
        assert_eq!(seen, [(0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn delivers_in_index_order_at_any_worker_count() {
        for threads in [1, 2, 4, 8] {
            for n in [0, 1, 3, 7, 50] {
                let mut seen = Vec::new();
                par_map(
                    n,
                    threads,
                    || (),
                    |_, i| uneven(i),
                    |i, v| seen.push((i, v)),
                )
                .unwrap();
                let expect: Vec<(usize, usize)> = (0..n).map(|i| (i, i * i)).collect();
                assert_eq!(seen, expect, "threads = {threads}, n = {n}");
            }
        }
    }

    #[test]
    fn init_runs_once_per_worker() {
        for (threads, n) in [(1, 40), (2, 40), (4, 40), (8, 3), (4, 0)] {
            let inits = AtomicUsize::new(0);
            let mut items = 0;
            par_map(
                n,
                threads,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                },
                |_, i| uneven(i),
                |_, _| items += 1,
            )
            .unwrap();
            assert_eq!(
                inits.into_inner(),
                threads.min(n),
                "threads = {threads}, n = {n}"
            );
            assert_eq!(items, n);
        }
    }

    #[test]
    fn worker_panic_is_contained_and_nothing_after_it_is_delivered() {
        const K: usize = 13;
        for threads in [1, 2, 4, 8] {
            let mut seen = Vec::new();
            let result = par_map(
                64,
                threads,
                || (),
                |_, i| {
                    if i == K {
                        panic!("item {i} failed");
                    }
                    uneven(i)
                },
                |i, _| seen.push(i),
            );
            assert_eq!(
                result,
                Err(format!("item {K} failed")),
                "threads = {threads}"
            );
            assert!(seen.len() <= K, "threads = {threads}: {seen:?}");
            assert_eq!(seen, (0..seen.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn panics_in_init_and_deliver_are_contained_too() {
        // At three workers a panicking `deliver` poisons the reorder lock
        // while siblings still hold items to hand in: they must recover the
        // lock rather than panic a second time and mask the first message.
        for threads in [1, 3] {
            let r = par_map(
                10,
                threads,
                || -> u8 { panic!("no state") },
                |_, i| i,
                |_, _| {},
            );
            assert_eq!(r, Err("no state".to_string()));

            let mut seen = Vec::new();
            let r = par_map(
                40,
                threads,
                || (),
                |_, i| uneven(i),
                |i, _| {
                    if i == 5 {
                        panic!("deliver failed");
                    }
                    seen.push(i);
                },
            );
            assert_eq!(r, Err("deliver failed".to_string()));
            assert_eq!(seen, [0, 1, 2, 3, 4], "threads = {threads}");
        }
    }

    #[test]
    fn worker_count_resolves_the_option() {
        assert_eq!(worker_count(Some(3)), 3);
        assert_eq!(worker_count(Some(0)), 1);
        assert!(worker_count(None) >= 1);
    }
}
