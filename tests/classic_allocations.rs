//! The classic evaluator's steady state allocates nothing but its answer.
//!
//! A counting global allocator (a thread-local counter, so the other tests
//! of a parallel run do not disturb it) brackets one classic
//! `evaluate_plan` on a context already warmed by the same schedule: the
//! discretization slots are filled, and the finish buffers, the fold's
//! scratch and the RV workspace have their sizes. The only allocations
//! left are the two buffers (PDF and CDF) of the returned distribution.
//! This test lives in its own binary because the allocator is global.

use robusched::platform::Scenario;
use robusched::randvar::DiscreteRv;
use robusched::sched::{heft, random_schedule, EagerPlan};
use robusched::stochastic::{ClassicEvaluator, EvalContext, Evaluator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations and requested bytes on this thread.
    static COUNT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn record(bytes: usize) {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = COUNT.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments;
// the counter is a `const`-initialized thread-local `Cell`, which neither
// allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn counted() -> (u64, u64) {
    COUNT.with(Cell::get)
}

#[test]
fn warm_classic_evaluation_allocates_only_its_answer() {
    let classic = ClassicEvaluator::default();
    for (n, m, ul, seed) in [(30, 4, 1.1, 3), (100, 16, 1.5, 8)] {
        let s = Scenario::paper_random(n, m, ul, seed);
        let mut cx = EvalContext::new(classic.prepare(&s));
        for sched in [heft(&s), random_schedule(&s.graph.dag, m, seed)] {
            let plan = EagerPlan::new(&s.graph.dag, &sched).unwrap();
            let warm = classic.evaluate_plan(&s, &sched, &plan, &mut cx);
            let (n0, b0) = counted();
            let rv = classic.evaluate_plan(&s, &sched, &plan, &mut cx);
            let (n1, b1) = counted();
            let bits = |x: &DiscreteRv| {
                let mut b = vec![x.lo().to_bits(), x.hi().to_bits()];
                b.extend(x.pdf_values().iter().map(|p| p.to_bits()));
                b
            };
            assert_eq!(
                bits(&rv),
                bits(&warm),
                "n = {n}: a warm context changed the answer"
            );
            let points = rv.pdf_values().len() as u64;
            assert!(points > 0, "n = {n}: the makespan is not a point mass");
            assert_eq!(
                (n1 - n0, b1 - b0),
                (2, 2 * 8 * points),
                "n = {n}: (allocations, bytes) of one warm evaluation"
            );
        }
    }
}
