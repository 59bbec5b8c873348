//! The classic recursion replayed from outside the evaluator, with a span
//! around every plan build, discretization lookup, `sum_into` and
//! `max_into`. The replays use only public items (`EagerPlan`,
//! `DiscretizedScenario::task`/`comm`, `DiscreteRv::sum_into`/`max_into`)
//! and are compared against the real evaluators, so an evaluator change
//! that alters the recursion shows up as a mismatch instead of silently
//! skewing the per-layer split.

use crate::trace::Tracer;
use robusched_platform::Scenario;
use robusched_randvar::{DiscreteRv, RvWorkspace};
use robusched_sched::{EagerPlan, Schedule};
use robusched_stochastic::DiscretizedScenario;
use std::collections::HashSet;

/// Scratch and counters shared by every replay of one traced pass.
#[derive(Debug, Default)]
pub struct Replayer {
    ws: RvWorkspace,
    finish: Vec<DiscreteRv>,
    /// Distinct table slots looked up: `(0, v·m + p)` for tasks,
    /// `(1, e·m² + pu·m + pv)` for communications.
    slots: HashSet<(u8, usize)>,
    pub lookups: u64,
    pub sums: u64,
    pub maxes: u64,
}

/// A running `max` over ping-pong buffers, as the classic evaluator keeps
/// it.
struct MaxAcc {
    a: DiscreteRv,
    b: DiscreteRv,
    current_is_a: Option<bool>,
}

impl MaxAcc {
    fn new() -> Self {
        Self {
            a: DiscreteRv::point(0.0),
            b: DiscreteRv::point(0.0),
            current_is_a: None,
        }
    }

    fn fold(&mut self, t: &mut Tracer, x: &DiscreteRv, ws: &mut RvWorkspace, maxes: &mut u64) {
        match self.current_is_a {
            None => {
                self.a.copy_from(x);
                self.current_is_a = Some(true);
            }
            Some(true) => {
                *maxes += 1;
                t.span("randvar.max_into", |_| self.a.max_into(x, ws, &mut self.b));
                self.current_is_a = Some(false);
            }
            Some(false) => {
                *maxes += 1;
                t.span("randvar.max_into", |_| self.b.max_into(x, ws, &mut self.a));
                self.current_is_a = Some(true);
            }
        }
    }

    fn current(&self) -> Option<&DiscreteRv> {
        self.current_is_a.map(|a| if a { &self.a } else { &self.b })
    }
}

impl Replayer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Distinct discretization slots the replays touched.
    pub fn slot_fills(&self) -> usize {
        self.slots.len()
    }

    fn task<'c>(
        &mut self,
        t: &mut Tracer,
        cache: &'c DiscretizedScenario,
        scenario: &Scenario,
        v: usize,
        p: usize,
    ) -> &'c DiscreteRv {
        self.lookups += 1;
        self.slots.insert((0, v * scenario.machine_count() + p));
        t.span("stochastic.lookup", |_| cache.task(scenario, v, p))
    }

    fn comm<'c>(
        &mut self,
        t: &mut Tracer,
        cache: &'c DiscretizedScenario,
        scenario: &Scenario,
        e: usize,
        pu: usize,
        pv: usize,
    ) -> &'c DiscreteRv {
        let m = scenario.machine_count();
        self.lookups += 1;
        self.slots.insert((1, e * m * m + pu * m + pv));
        t.span("stochastic.lookup", |_| cache.comm(scenario, e, pu, pv))
    }

    fn sum(&mut self, t: &mut Tracer, x: &DiscreteRv, y: &DiscreteRv, out: &mut DiscreteRv) {
        self.sums += 1;
        let ws = &mut self.ws;
        t.span("randvar.sum_into", |_| x.sum_into(y, ws, out));
    }

    /// The forward classic recursion (makespan distribution), mirroring
    /// `robusched_stochastic::evaluate_classic_cached`.
    pub fn classic(
        &mut self,
        t: &mut Tracer,
        scenario: &Scenario,
        schedule: &Schedule,
        cache: &DiscretizedScenario,
    ) -> DiscreteRv {
        let dag = &scenario.graph.dag;
        let plan = t.span("sched.eager_plan", |_| {
            EagerPlan::new(dag, schedule).expect("generated schedules are valid")
        });
        let n = dag.node_count();
        let mut finish = std::mem::take(&mut self.finish);
        finish.resize_with(n.max(finish.len()), || DiscreteRv::point(0.0));
        let mut arrival = DiscreteRv::point(0.0);
        for &v in plan.topo_order() {
            let pv = schedule.machine_of(v);
            let mut start = MaxAcc::new();
            if let Some(u) = plan.prev_on_proc()[v].filter(|&u| !dag.has_edge(u, v)) {
                start.fold(t, &finish[u], &mut self.ws, &mut self.maxes);
            }
            for &(u, e) in dag.preds(v) {
                let pu = schedule.machine_of(u);
                if pu == pv {
                    start.fold(t, &finish[u], &mut self.ws, &mut self.maxes);
                } else {
                    let comm = self.comm(t, cache, scenario, e, pu, pv);
                    self.sum(t, &finish[u], comm, &mut arrival);
                    start.fold(t, &arrival, &mut self.ws, &mut self.maxes);
                }
            }
            let dur = self.task(t, cache, scenario, v, pv);
            let mut out = std::mem::replace(&mut finish[v], DiscreteRv::point(0.0));
            match start.current() {
                None => out.copy_from(dur),
                Some(s) => self.sum(t, s, dur, &mut out),
            }
            finish[v] = out;
        }
        let mut makespan = MaxAcc::new();
        for &v in plan.disjunctive_sinks() {
            makespan.fold(t, &finish[v], &mut self.ws, &mut self.maxes);
        }
        let out = makespan
            .current()
            .expect("a schedule has at least one sink")
            .clone();
        self.finish = finish;
        out
    }

    /// The backward remaining-time recursion of the online policies,
    /// mirroring `robusched_dynamic::RemainingDists::build`; returns the
    /// instance total.
    pub fn remaining_total(
        &mut self,
        t: &mut Tracer,
        scenario: &Scenario,
        schedule: &Schedule,
        plan: &EagerPlan,
        cache: &DiscretizedScenario,
    ) -> DiscreteRv {
        let dag = &scenario.graph.dag;
        let n = dag.node_count();
        let mut rem: Vec<Option<DiscreteRv>> = vec![None; n];
        let mut scratch = DiscreteRv::point(0.0);
        for &v in plan.topo_order().iter().rev() {
            let pv = schedule.machine_of(v);
            let mut tail: Option<DiscreteRv> = None;
            let mut contribs: Vec<DiscreteRv> = Vec::new();
            for &(s, e) in dag.succs(v) {
                let ps = schedule.machine_of(s);
                let rem_s = rem[s].as_ref().expect("reverse topological order");
                if pv == ps {
                    contribs.push(rem_s.clone());
                } else {
                    let comm = self.comm(t, cache, scenario, e, pv, ps);
                    let mut out = DiscreteRv::point(0.0);
                    self.sum(t, comm, rem_s, &mut out);
                    contribs.push(out);
                }
            }
            if let Some(w) = plan.next_on_proc()[v] {
                contribs.push(rem[w].clone().expect("reverse topological order"));
            }
            for c in contribs {
                tail = Some(match tail.take() {
                    None => c,
                    Some(prev) => {
                        self.maxes += 1;
                        let ws = &mut self.ws;
                        t.span("randvar.max_into", |_| prev.max_into(&c, ws, &mut scratch));
                        std::mem::replace(&mut scratch, prev)
                    }
                });
            }
            let dur = self.task(t, cache, scenario, v, pv);
            rem[v] = Some(match tail {
                None => dur.clone(),
                Some(tail) => {
                    let mut out = DiscreteRv::point(0.0);
                    self.sum(t, dur, &tail, &mut out);
                    out
                }
            });
        }
        let mut total: Option<DiscreteRv> = None;
        for (v, rem_v) in rem.iter().enumerate() {
            if dag.in_degree(v) == 0 && plan.prev_on_proc()[v].is_none() {
                let rem_v = rem_v.as_ref().expect("every task visited");
                total = Some(match total.take() {
                    None => rem_v.clone(),
                    Some(prev) => {
                        self.maxes += 1;
                        let mut out = DiscreteRv::point(0.0);
                        let ws = &mut self.ws;
                        t.span("randvar.max_into", |_| prev.max_into(rem_v, ws, &mut out));
                        out
                    }
                });
            }
        }
        total.expect("a DAG has at least one entry task")
    }
}

/// `true` when two distributions agree in mean and standard deviation to
/// within 1e-12 (relative to the mean's magnitude).
pub fn agrees(a: &DiscreteRv, b: &DiscreteRv) -> bool {
    let tol = 1e-12 * a.mean().abs().max(1.0);
    (a.mean() - b.mean()).abs() <= tol && (a.std_dev() - b.std_dev()).abs() <= tol
}
