//! Dodin's series-parallel reduction of the makespan network.
//!
//! §II of the paper: *"The Dodin method uses a succession of reductions
//! applied to a given series-parallel graph. This results in a sole node
//! whose random variable is equivalent to the makespan distribution of the
//! complete graph. A mechanism is used to transform any graph into a
//! series-parallel one with some approximation."*
//!
//! We build the *activity-on-arc* network of the scheduled task graph's
//! disjunctive graph ([`EagerPlan`]) — every task and every communication
//! becomes an arc carrying its duration RV, every machine edge a zero arc —
//! and reduce:
//!
//! * **series**: an interior event with one in-arc and one out-arc merges
//!   them into their independent sum (convolution);
//! * **parallel**: two arcs sharing both endpoints merge into their
//!   independent maximum (CDF product);
//! * **duplication** (the approximation): when neither applies, an event
//!   with several in-arcs is split — one in-arc moves to a fresh copy of
//!   the event, whose out-arcs are duplicated as independent copies. This
//!   is Dodin's device for forcing general DAGs into series-parallel form;
//!   duplicated subpaths are treated as independent, which is exactly the
//!   approximation the paper alludes to.
//!
//! A growth cap guards against the (known) worst-case blow-up of
//! duplication; past the cap we finish the remaining network with the
//! classical independence recursion, which the paper found to give
//! "similar results".
//!
//! # Reduction order and worklists
//!
//! The reduction runs series sweeps until one changes nothing, then a
//! parallel sweep, and repeats until neither changes anything; only then
//! does it duplicate one event and start over. A series sweep reduces
//! events in ascending index order; a parallel sweep visits tails in
//! ascending order and merges the first pair of a tail's out-arcs (in
//! list order) with a common head until none is left; a duplication picks
//! the interior event with at least two in-arcs and one out-arc that has
//! the fewest out-arcs, lowest index first. Arc lists keep their
//! remove-in-place and append order, so every sum and maximum takes the
//! same operands in the same order.
//!
//! No step rescans the network. Three invariants let each sweep visit
//! only what can have changed:
//!
//! * after a series sweep no interior event has one in-arc and one
//!   out-arc, and a series reduction changes no other event's degree
//!   (its endpoints lose one arc and gain one), so the next sweep only
//!   needs the events whose degree changed since the last one;
//! * after a parallel sweep no event has two out-arcs to one head, and a
//!   merge creates no pair at another tail, so the next sweep only needs
//!   the tails of the arcs added since the last one;
//! * the series sweep visits every event whose degree changed, so it also
//!   refreshes that event's entry in the ordered `(out-degree, event)` set
//!   of duplication candidates, whose first entry is the duplication's
//!   choice.
//!
//! Visiting those lists in ascending event order performs the same
//! reductions in the same order as sweeps over every event. Debug builds
//! check each invariant with a full scan after every sweep and at every
//! duplication.

use crate::cache::DiscretizedScenario;
use robusched_platform::Scenario;
use robusched_randvar::DiscreteRv;
use robusched_sched::{EagerPlan, Schedule};
use std::collections::BTreeSet;

/// Growth cap: give up duplicating when the arc count exceeds this multiple
/// of the initial count (then finish with the classical recursion).
const GROWTH_CAP: usize = 64;

#[derive(Debug, Clone)]
struct Arc {
    from: usize,
    to: usize,
    rv: DiscreteRv,
}

#[derive(Default)]
struct Net {
    /// Every arc ever added; removed ones leave `None`.
    arcs: Vec<Option<Arc>>,
    in_arcs: Vec<Vec<usize>>,
    out_arcs: Vec<Vec<usize>>,
    source: usize,
    sink: usize,
    /// Arcs not yet removed.
    live: usize,
    /// Events whose in- or out-degree changed since the last series sweep
    /// (with repeats).
    degree_changed: Vec<usize>,
    /// Tails of the arcs added since the last parallel sweep (with
    /// repeats).
    new_tails: Vec<usize>,
    /// Duplication candidates as `(out-degree, event)`.
    candidates: BTreeSet<(usize, usize)>,
    /// The out-degree each event is filed under in `candidates`.
    candidate_key: Vec<Option<usize>>,
}

impl Net {
    fn add_event(&mut self) -> usize {
        self.in_arcs.push(Vec::new());
        self.out_arcs.push(Vec::new());
        self.candidate_key.push(None);
        self.in_arcs.len() - 1
    }

    fn add_arc(&mut self, from: usize, to: usize, rv: DiscreteRv) -> usize {
        let id = self.arcs.len();
        self.arcs.push(Some(Arc { from, to, rv }));
        self.out_arcs[from].push(id);
        self.in_arcs[to].push(id);
        self.live += 1;
        self.degree_changed.extend([from, to]);
        self.new_tails.push(from);
        id
    }

    fn remove_arc(&mut self, id: usize) -> Arc {
        let arc = self.arcs[id].take().expect("arc already removed");
        self.out_arcs[arc.from].retain(|&a| a != id);
        self.in_arcs[arc.to].retain(|&a| a != id);
        self.live -= 1;
        self.degree_changed.extend([arc.from, arc.to]);
        arc
    }

    fn head(&self, id: usize) -> usize {
        self.arcs[id].as_ref().expect("live arc").to
    }

    fn interior(&self, x: usize) -> bool {
        x != self.source && x != self.sink
    }

    fn series_reducible(&self, x: usize) -> bool {
        self.interior(x) && self.in_arcs[x].len() == 1 && self.out_arcs[x].len() == 1
    }

    /// The out-degree `x` is a duplication candidate under: an interior
    /// event with ≥ 2 in-arcs and ≥ 1 out-arc.
    fn candidate_out_degree(&self, x: usize) -> Option<usize> {
        (self.interior(x) && self.in_arcs[x].len() >= 2 && !self.out_arcs[x].is_empty())
            .then(|| self.out_arcs[x].len())
    }

    fn refresh_candidate(&mut self, x: usize) {
        let key = self.candidate_out_degree(x);
        if key != self.candidate_key[x] {
            if let Some(k) = self.candidate_key[x] {
                self.candidates.remove(&(k, x));
            }
            if let Some(k) = key {
                self.candidates.insert((k, x));
            }
            self.candidate_key[x] = key;
        }
    }

    /// The first two out-arcs of `from` (in list order) with a common head.
    fn first_parallel_pair(&self, from: usize) -> Option<(usize, usize)> {
        let outs = &self.out_arcs[from];
        for (i, &a) in outs.iter().enumerate() {
            let head = self.head(a);
            if let Some(&b) = outs[i + 1..].iter().find(|&&b| self.head(b) == head) {
                return Some((a, b));
            }
        }
        None
    }

    /// Full scan for the duplication choice: fewest out-arcs, lowest index.
    fn scan_candidate(&self) -> Option<(usize, usize)> {
        (0..self.in_arcs.len())
            .filter_map(|x| self.candidate_out_degree(x).map(|k| (k, x)))
            .min()
    }

    /// Series-reduces every event whose degree changed since the last
    /// sweep, in ascending order; returns true if anything changed.
    fn series_sweep(&mut self) -> bool {
        let mut work = std::mem::take(&mut self.degree_changed);
        work.sort_unstable();
        work.dedup();
        let mut changed = false;
        for &x in &work {
            if self.series_reducible(x) {
                let ain = self.in_arcs[x][0];
                let aout = self.out_arcs[x][0];
                let a = self.remove_arc(ain);
                let b = self.remove_arc(aout);
                let rv = a.rv.sum(&b.rv);
                self.add_arc(a.from, b.to, rv);
                changed = true;
            }
            self.refresh_candidate(x);
        }
        // The reductions left each endpoint's degree as it was, so what
        // they pushed needs no visit.
        work.clear();
        self.degree_changed = work;
        debug_assert!(
            !(0..self.in_arcs.len()).any(|x| self.series_reducible(x)),
            "series sweep left a reducible event"
        );
        changed
    }

    /// Merges every parallel pair at the tails of the arcs added since the
    /// last sweep, in ascending tail order; returns true if anything
    /// changed.
    fn parallel_sweep(&mut self) -> bool {
        let mut work = std::mem::take(&mut self.new_tails);
        work.sort_unstable();
        work.dedup();
        let mut changed = false;
        for &from in &work {
            while let Some((a, b)) = self.first_parallel_pair(from) {
                let x = self.remove_arc(a);
                let y = self.remove_arc(b);
                let rv = x.rv.max(&y.rv);
                self.add_arc(x.from, x.to, rv);
                changed = true;
            }
        }
        // Each merged arc's tail was resolved in its own loop.
        work.clear();
        self.new_tails = work;
        debug_assert!(
            (0..self.out_arcs.len()).all(|x| self.first_parallel_pair(x).is_none()),
            "parallel sweep left a pair"
        );
        changed
    }

    /// Dodin's duplication step. Returns false when no candidate exists
    /// (the network should then be a single arc) or the growth cap is hit.
    fn duplicate_step(&mut self, initial_arcs: usize) -> bool {
        if self.live > GROWTH_CAP * initial_arcs {
            return false;
        }
        // Prefer the candidate with the fewest out-arcs (cheapest
        // duplication).
        let best = self.candidates.first().copied();
        debug_assert_eq!(best, self.scan_candidate(), "stale candidate set");
        let Some((_, x)) = best else {
            return false;
        };
        // Move one in-arc to a fresh event x' and copy x's out-arcs there.
        let moved_id = self.in_arcs[x][0];
        let moved = self.remove_arc(moved_id);
        let x_new = self.add_event();
        self.add_arc(moved.from, x_new, moved.rv);
        let outs: Vec<usize> = self.out_arcs[x].clone();
        for aid in outs {
            let (to, rv) = {
                let arc = self.arcs[aid].as_ref().unwrap();
                (arc.to, arc.rv.clone())
            };
            // Independent-copy assumption: the duplicated activity's RV is
            // treated as a fresh independent variable.
            self.add_arc(x_new, to, rv);
        }
        true
    }

    /// Finishes a non-reducible remainder with the classical recursion
    /// (longest-path with independent max), used past the growth cap.
    fn fallback_topo(&self) -> DiscreteRv {
        let n_events = self.in_arcs.len();
        // Topological order of events by live arcs.
        let mut indeg: Vec<usize> = (0..n_events).map(|v| self.in_arcs[v].len()).collect();
        let mut stack: Vec<usize> = (0..n_events)
            .filter(|&v| indeg[v] == 0 && (!self.out_arcs[v].is_empty() || v == self.sink))
            .collect();
        let mut dist: Vec<Option<DiscreteRv>> = vec![None; n_events];
        for &s in &stack {
            dist[s] = Some(DiscreteRv::point(0.0));
        }
        while let Some(u) = stack.pop() {
            let du = dist[u].clone().unwrap_or_else(|| DiscreteRv::point(0.0));
            for &aid in &self.out_arcs[u] {
                let arc = self.arcs[aid].as_ref().unwrap();
                let cand = du.sum(&arc.rv);
                dist[arc.to] = Some(match dist[arc.to].take() {
                    None => cand,
                    Some(d) => d.max(&cand),
                });
                indeg[arc.to] -= 1;
                if indeg[arc.to] == 0 {
                    stack.push(arc.to);
                }
            }
        }
        dist[self.sink]
            .clone()
            .unwrap_or_else(|| DiscreteRv::point(0.0))
    }
}

/// Evaluates the makespan distribution of `schedule`'s compiled `plan` by
/// Dodin's method, drawing its leaf discretizations from a shared
/// [`DiscretizedScenario`] (grid = `cache.grid()`), so repeated
/// evaluations of the same scenario stop re-sampling the Beta densities.
pub(crate) fn evaluate_dodin_cached(
    scenario: &Scenario,
    schedule: &Schedule,
    plan: &EagerPlan,
    cache: &DiscretizedScenario,
) -> DiscreteRv {
    let dag = &scenario.graph.dag;
    let n = scenario.task_count();

    let mut net = Net {
        source: 0,
        sink: 1,
        ..Net::default()
    };
    net.add_event(); // source
    net.add_event(); // sink
    let ev_in: Vec<usize> = (0..n).map(|_| net.add_event()).collect();
    let ev_out: Vec<usize> = (0..n).map(|_| net.add_event()).collect();

    for v in 0..n {
        let p = schedule.machine_of(v);
        let rv = cache.task(scenario, v, p).clone();
        net.add_arc(ev_in[v], ev_out[v], rv);
    }
    // The arc order decides every reduction's operands: DAG edges, then
    // each machine's machine edges in its task order, then the source and
    // sink arcs task by task.
    for (u, v, e) in dag.edge_triples() {
        let pu = schedule.machine_of(u);
        let pv = schedule.machine_of(v);
        let rv = if pu == pv {
            DiscreteRv::point(0.0)
        } else {
            cache.comm(scenario, e, pu, pv).clone()
        };
        net.add_arc(ev_out[u], ev_in[v], rv);
    }
    for p in 0..schedule.machine_count() {
        for &u in schedule.order_on(p) {
            if let Some(v) = plan.machine_succ(u) {
                net.add_arc(ev_out[u], ev_in[v], DiscreteRv::point(0.0));
            }
        }
    }
    for v in 0..n {
        if dag.in_degree(v) == 0 && plan.machine_pred(v).is_none() {
            net.add_arc(net.source, ev_in[v], DiscreteRv::point(0.0));
        }
        if dag.out_degree(v) == 0 && plan.machine_succ(v).is_none() {
            net.add_arc(ev_out[v], net.sink, DiscreteRv::point(0.0));
        }
    }

    let initial_arcs = net.live.max(1);
    loop {
        while net.series_sweep() || net.parallel_sweep() {}
        // Reduced to a single source→sink arc?
        if net.live == 1 {
            let id = net.arcs.iter().position(|a| a.is_some()).unwrap();
            let arc = net.arcs[id].as_ref().unwrap();
            debug_assert_eq!(arc.from, net.source);
            debug_assert_eq!(arc.to, net.sink);
            return arc.rv.clone();
        }
        if !net.duplicate_step(initial_arcs) {
            // Growth cap reached or irreducible: classical finish.
            return net.fallback_topo();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClassicEvaluator, DodinEvaluator, Evaluator};
    use robusched_dag::generators;
    use robusched_numeric::approx_eq;
    use robusched_platform::{CostMatrix, Platform, UncertaintyModel};

    #[test]
    fn chain_is_exact_sum() {
        let tg = generators::chain(4);
        let costs = CostMatrix::from_rows(4, 1, vec![10.0; 4]);
        let s = Scenario::new(
            tg,
            Platform::paper_default(1),
            costs,
            UncertaintyModel::paper(1.2),
        );
        let sched = Schedule::new(vec![0; 4], vec![vec![0, 1, 2, 3]]);
        let d = DodinEvaluator.evaluate(&s, &sched);
        let c = ClassicEvaluator::default().evaluate(&s, &sched);
        assert!(approx_eq(d.mean(), c.mean(), 1e-3));
        assert!(approx_eq(d.std_dev(), c.std_dev(), 1e-2));
    }

    #[test]
    fn fork_join_series_parallel_exact() {
        // Fork-join is series-parallel: Dodin needs no duplication and
        // matches the classical evaluator.
        let tg = generators::fork_join(3);
        let costs = CostMatrix::from_rows(4, 3, vec![10.0; 12]);
        let s = Scenario::new(
            tg,
            Platform::paper_default(3),
            costs,
            UncertaintyModel::paper(1.5),
        );
        let sched = Schedule::new(vec![0, 1, 2, 0], vec![vec![0, 3], vec![1], vec![2]]);
        let d = DodinEvaluator.evaluate(&s, &sched);
        let c = ClassicEvaluator::default().evaluate(&s, &sched);
        assert!(
            approx_eq(d.mean(), c.mean(), 1e-2),
            "{} vs {}",
            d.mean(),
            c.mean()
        );
        assert!((d.std_dev() - c.std_dev()).abs() < 0.05 * c.std_dev().max(0.1));
    }

    #[test]
    fn general_graph_close_to_classic() {
        // A non-series-parallel scheduled graph: duplication kicks in; the
        // paper reports "similar results" between the methods.
        let s = Scenario::paper_random(15, 3, 1.1, 23);
        let sched = robusched_sched::heft(&s);
        let d = DodinEvaluator.evaluate(&s, &sched);
        let c = ClassicEvaluator::default().evaluate(&s, &sched);
        assert!(
            (d.mean() - c.mean()).abs() / c.mean() < 0.02,
            "means {} vs {}",
            d.mean(),
            c.mean()
        );
        assert!(d.ks_distance(&c) < 0.2, "ks {}", d.ks_distance(&c));
    }

    #[test]
    fn deterministic_network_reduces_to_point() {
        let tg = generators::diamond(2);
        let costs = CostMatrix::from_rows(4, 2, vec![5.0; 8]);
        let s = Scenario::new(
            tg,
            Platform::paper_default(2),
            costs,
            UncertaintyModel::none(),
        );
        let sched = Schedule::new(vec![0, 0, 1, 0], vec![vec![0, 1, 3], vec![2]]);
        let d = DodinEvaluator.evaluate(&s, &sched);
        let det = robusched_sched::det_makespan(&s, &sched);
        assert!(approx_eq(d.mean(), det, 1e-6), "{} vs {det}", d.mean());
        assert!(d.std_dev() < 1e-6);
    }
}
