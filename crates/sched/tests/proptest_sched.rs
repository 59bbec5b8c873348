//! Property tests for the scheduling layer: every heuristic on every
//! random scenario must produce a valid, executable eager schedule whose
//! execution respects all constraints.

use proptest::prelude::*;
use robusched_dag::{EdgeId, NodeId};
use robusched_platform::Scenario;
use robusched_sched::{
    bil, cpop, det_makespan, heft, hyb_bmct, random_schedule, sigma_heft, EagerPlan, FoldAlgebra,
    Schedule,
};

/// Checks the physical validity of one deterministic execution: machine
/// exclusivity and precedence-with-communication timing.
fn check_execution(s: &Scenario, sched: &Schedule) -> Result<(), String> {
    let dag = &s.graph.dag;
    let plan = EagerPlan::new(dag, sched).map_err(|e| e.to_string())?;
    let r = plan.execute(
        dag,
        |v| s.det_task_cost(v, sched.machine_of(v)),
        |e, u, v| s.det_comm_cost(e, sched.machine_of(u), sched.machine_of(v)),
    );
    // Machine exclusivity: consecutive tasks on a machine do not overlap.
    for p in 0..sched.machine_count() {
        let order = sched.order_on(p);
        for w in order.windows(2) {
            if r.start[w[1]] < r.finish[w[0]] - 1e-9 {
                return Err(format!(
                    "overlap on machine {p}: task {} starts {} before {} finishes {}",
                    w[1], r.start[w[1]], w[0], r.finish[w[0]]
                ));
            }
        }
    }
    // Precedence + communication.
    for (u, v, e) in dag.edge_triples() {
        let comm = s.det_comm_cost(e, sched.machine_of(u), sched.machine_of(v));
        if r.start[v] < r.finish[u] + comm - 1e-9 {
            return Err(format!(
                "edge {u}->{v}: start {} < finish {} + comm {comm}",
                r.start[v], r.finish[u]
            ));
        }
    }
    // Task durations respected.
    for v in 0..s.task_count() {
        let dur = s.det_task_cost(v, sched.machine_of(v));
        if (r.finish[v] - r.start[v] - dur).abs() > 1e-9 {
            return Err(format!("task {v} duration mismatch"));
        }
    }
    Ok(())
}

/// The `(max, +)` algebra over dates under the deterministic costs. The
/// forward fold's values are finish dates, and `start` records each join
/// the fold hands to `task`.
struct Dates<'a> {
    s: &'a Scenario,
    start: Vec<f64>,
}

impl FoldAlgebra for Dates<'_> {
    type Value = f64;

    fn edge(&mut self, x: &f64, e: EdgeId, p: usize, q: usize, out: &mut f64) {
        *out = x + self.s.det_comm_cost(e, p, q);
    }

    fn task(&mut self, acc: Option<&f64>, v: NodeId, p: usize, out: &mut f64) {
        let start = acc.copied().unwrap_or(0.0);
        self.start[v] = start;
        *out = start + self.s.det_task_cost(v, p);
    }

    fn max(&mut self, acc: &f64, x: &f64, out: &mut f64) {
        *out = acc.max(*x);
    }
}

/// Runs both folds under [`Dates`] and compares them with the exact
/// replay: the forward fold's starts, finishes and makespan bit for bit
/// (co-located communication costs exactly 0.0, so the replay's raw
/// machine neighbours add nothing the plan's machine edges miss), the
/// backward fold's total within 1e-12 relative (it sums in another order).
fn check_folds(s: &Scenario, sched: &Schedule) -> Result<(), String> {
    let dag = &s.graph.dag;
    let n = s.task_count();
    let plan = EagerPlan::new(dag, sched).map_err(|e| e.to_string())?;
    let r = plan.execute(
        dag,
        |v| s.det_task_cost(v, sched.machine_of(v)),
        |e, u, v| s.det_comm_cost(e, sched.machine_of(u), sched.machine_of(v)),
    );
    let mut alg = Dates {
        s,
        start: vec![f64::NAN; n],
    };
    let mut finish = vec![f64::NAN; n];
    let makespan = *plan.fold_forward(dag, sched, &mut alg, &mut finish, &mut [f64::NAN; 3]);
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    if bits(&alg.start) != bits(&r.start) {
        return Err(format!("starts {:?} vs replay {:?}", alg.start, r.start));
    }
    if bits(&finish) != bits(&r.finish) {
        return Err(format!("finishes {finish:?} vs replay {:?}", r.finish));
    }
    if makespan.to_bits() != r.makespan.to_bits() {
        return Err(format!("makespan {makespan} vs replay {}", r.makespan));
    }
    let mut rem = vec![f64::NAN; n];
    let total = *plan.fold_backward(dag, sched, &mut alg, &mut rem, &mut [f64::NAN; 3]);
    if (total - makespan).abs() > 1e-12 * makespan {
        return Err(format!(
            "backward total {total} vs forward makespan {makespan}"
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn folds_reproduce_the_eager_replay(
        n in 2usize..60,
        m in 1usize..8,
        seed in 0u64..500,
    ) {
        let s = Scenario::paper_random(n, m, 1.2, seed);
        for (name, sched) in [
            ("heft", heft(&s)),
            ("random", random_schedule(&s.graph.dag, m, seed ^ 0x5a)),
        ] {
            check_folds(&s, &sched)
                .map_err(|e| TestCaseError::fail(format!("{name}: {e}")))?;
        }
    }

    #[test]
    fn all_heuristics_produce_physical_schedules(
        n in 5usize..35,
        m in 2usize..6,
        ul_percent in 1u8..40,
        seed in 0u64..500,
    ) {
        let ul = 1.0 + ul_percent as f64 / 100.0;
        let s = Scenario::paper_random(n, m, ul, seed);
        for (name, sched) in [
            ("heft", heft(&s)),
            ("bil", bil(&s)),
            ("bmct", hyb_bmct(&s)),
            ("cpop", cpop(&s)),
            ("sigma_heft", sigma_heft(&s, 1.0)),
            ("random", random_schedule(&s.graph.dag, m, seed ^ 0x99)),
        ] {
            check_execution(&s, &sched)
                .map_err(|e| TestCaseError::fail(format!("{name}: {e}")))?;
        }
    }

    #[test]
    fn heuristics_never_worse_than_worst_random(
        n in 8usize..25,
        seed in 0u64..200,
    ) {
        let m = 4;
        let s = Scenario::paper_random(n, m, 1.1, seed);
        // The worst of a few random schedules bounds a sane heuristic.
        let worst = (0..5)
            .map(|k| det_makespan(&s, &random_schedule(&s.graph.dag, m, seed * 31 + k)))
            .fold(f64::NEG_INFINITY, f64::max);
        for (name, sched) in [("heft", heft(&s)), ("bil", bil(&s)), ("bmct", hyb_bmct(&s))] {
            let ms = det_makespan(&s, &sched);
            prop_assert!(
                ms <= worst * 1.05,
                "{name} ({ms}) worse than the worst random ({worst})"
            );
        }
    }

    #[test]
    fn heft_deterministic(
        n in 5usize..25,
        seed in 0u64..200,
    ) {
        let s = Scenario::paper_random(n, 3, 1.1, seed);
        let a = heft(&s);
        let b = heft(&s);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn single_machine_makespan_is_total_work(
        n in 3usize..20,
        seed in 0u64..100,
    ) {
        // On one machine every schedule's makespan is the sum of durations
        // (communications are free on-machine).
        let s = Scenario::paper_random(n, 1, 1.1, seed);
        let sched = random_schedule(&s.graph.dag, 1, seed);
        let total: f64 = (0..n).map(|v| s.det_task_cost(v, 0)).sum();
        let ms = det_makespan(&s, &sched);
        prop_assert!((ms - total).abs() < 1e-9, "{ms} vs {total}");
    }
}
