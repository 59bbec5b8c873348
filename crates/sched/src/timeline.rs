//! Per-machine busy timelines with insertion slots, and the list-scheduling
//! core the heuristics share.
//!
//! HEFT, σ-HEFT and CPOP *insert*: a task may be placed in an idle gap
//! between two already-scheduled tasks if the gap is long enough
//! ([`ProcTimeline::earliest_slot`]). BIL *appends*: a task starts no
//! earlier than the last booked finish of its machine
//! ([`ProcTimeline::earliest_append`]). Hyb.BMCT books whole groups in
//! rank order on its own per-machine lists and only shares the data-ready
//! fold. [`ProcTimeline`] maintains the busy intervals of one machine in
//! start order and answers "earliest start ≥ ready of length `dur`".

use crate::schedule::Schedule;
use robusched_dag::{Dag, EdgeId, NodeId};
use std::ops::Range;

/// Busy intervals of one machine, kept sorted by start time.
#[derive(Debug, Clone, Default)]
pub struct ProcTimeline {
    /// `(start, end, task)` triples sorted by `start`.
    intervals: Vec<(f64, f64, NodeId)>,
}

impl ProcTimeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Earliest start `≥ ready` of a slot of length `dur`, considering the
    /// gaps between current intervals (insertion policy).
    pub fn earliest_slot(&self, ready: f64, dur: f64) -> f64 {
        let mut candidate = ready;
        for &(s, e, _) in &self.intervals {
            if candidate + dur <= s {
                // Fits in the gap before this interval.
                return candidate;
            }
            if e > candidate {
                candidate = e;
            }
        }
        candidate
    }

    /// Earliest start `≥ ready` appending after the last interval (the
    /// non-insertion policy used by BIL/BMCT commits).
    pub fn earliest_append(&self, ready: f64) -> f64 {
        self.intervals
            .last()
            .map_or(ready, |&(_, e, _)| e.max(ready))
    }

    /// Books `[start, start+dur)` for `task`.
    ///
    /// # Panics
    /// Panics (in debug) if the new interval overlaps an existing one.
    pub fn insert(&mut self, start: f64, dur: f64, task: NodeId) {
        let end = start + dur;
        let pos = self.intervals.partition_point(|&(s, _, _)| s < start);
        debug_assert!(
            pos == 0 || self.intervals[pos - 1].1 <= start + 1e-9,
            "overlap with previous interval"
        );
        debug_assert!(
            pos == self.intervals.len() || end <= self.intervals[pos].0 + 1e-9,
            "overlap with next interval"
        );
        self.intervals.insert(pos, (start, end, task));
    }

    /// Tasks in execution (start-time) order.
    pub fn task_order(&self) -> Vec<NodeId> {
        self.intervals.iter().map(|&(_, _, t)| t).collect()
    }

    /// Number of booked intervals.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// `true` when no interval is booked.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }
}

/// A schedule under construction: the machines' timelines plus each placed
/// task's machine and planned finish time.
pub(crate) struct PartialSchedule<'a> {
    dag: &'a Dag,
    timelines: Vec<ProcTimeline>,
    assignment: Vec<usize>,
    finish: Vec<f64>,
}

impl<'a> PartialSchedule<'a> {
    /// No task placed yet on `m` machines.
    pub(crate) fn new(dag: &'a Dag, m: usize) -> Self {
        let n = dag.node_count();
        Self {
            dag,
            timelines: vec![ProcTimeline::new(); m],
            assignment: vec![usize::MAX; n],
            finish: vec![0.0; n],
        }
    }

    /// [`data_ready`] of `t` on machine `p`.
    pub(crate) fn data_ready<C>(&self, t: NodeId, p: usize, comm: C) -> f64
    where
        C: Fn(EdgeId, usize, usize) -> f64,
    {
        data_ready(self.dag, &self.assignment, &self.finish, t, p, comm)
    }

    /// Earliest start `≥ ready` on machine `p` after its last booking.
    pub(crate) fn earliest_append(&self, p: usize, ready: f64) -> f64 {
        self.timelines[p].earliest_append(ready)
    }

    /// Places `t` by the insertion policy on the machine of `machines`
    /// where it finishes first, `dur(p)` being its duration on `p` and
    /// `comm` pricing its incoming data; the first machine wins ties.
    pub(crate) fn place_earliest_finish<D, C>(
        &mut self,
        t: NodeId,
        machines: Range<usize>,
        dur: D,
        comm: C,
    ) where
        D: Fn(usize) -> f64,
        C: Fn(EdgeId, usize, usize) -> f64,
    {
        let mut best_p = machines.start;
        let mut best_start = f64::INFINITY;
        let mut best_eft = f64::INFINITY;
        for p in machines {
            let d = dur(p);
            let start = self.timelines[p].earliest_slot(self.data_ready(t, p, &comm), d);
            if start + d < best_eft {
                best_eft = start + d;
                best_start = start;
                best_p = p;
            }
        }
        self.commit(t, best_p, best_start, dur(best_p));
    }

    /// Books `t` on machine `p` from `start` for `dur` (BIL's appends pass
    /// an [`Self::earliest_append`] start); its planned finish is
    /// `start + dur`.
    pub(crate) fn commit(&mut self, t: NodeId, p: usize, start: f64, dur: f64) {
        self.timelines[p].insert(start, dur, t);
        self.assignment[t] = p;
        self.finish[t] = start + dur;
    }

    /// The placed tasks as an eager schedule: each machine runs its tasks
    /// in booked start order.
    pub(crate) fn into_schedule(self) -> Schedule {
        Schedule::new(
            self.assignment,
            self.timelines
                .into_iter()
                .map(|tl| tl.task_order())
                .collect(),
        )
    }
}

/// Data-ready time of task `t` on machine `p`: the latest arrival (from
/// `0.0`) of its predecessors' data, each predecessor `u` finishing at
/// `finish[u]` on machine `assignment[u]` and `comm(e, assignment[u], p)`
/// pricing edge `e`. Every predecessor must be placed.
pub(crate) fn data_ready<C>(
    dag: &Dag,
    assignment: &[usize],
    finish: &[f64],
    t: NodeId,
    p: usize,
    comm: C,
) -> f64
where
    C: Fn(EdgeId, usize, usize) -> f64,
{
    let mut ready = 0.0f64;
    for &(u, e) in dag.preds(t) {
        debug_assert_ne!(assignment[u], usize::MAX, "predecessor {u} of {t} unplaced");
        let arrival = finish[u] + comm(e, assignment[u], p);
        if arrival > ready {
            ready = arrival;
        }
    }
    ready
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eager::EagerPlan;
    use crate::rank::upward_ranks;
    use crate::{bil, cpop, heft, robust};
    use robusched_platform::Scenario;

    /// Asserts that `plan`'s finish times equal, bit for bit, the eager
    /// replay of its schedule under the costs it was planned with.
    fn assert_replays<D, C>(label: &str, s: &Scenario, plan: PartialSchedule<'_>, dur: D, comm: C)
    where
        D: Fn(NodeId, usize) -> f64,
        C: Fn(EdgeId, usize, usize) -> f64,
    {
        let planned = plan.finish.clone();
        let schedule = plan.into_schedule();
        let dag = &s.graph.dag;
        let on = |v| schedule.machine_of(v);
        let replay = EagerPlan::new(dag, &schedule)
            .expect("heuristic schedules are valid")
            .execute(dag, |v| dur(v, on(v)), |e, u, v| comm(e, on(u), on(v)));
        for (v, (p, r)) in planned.iter().zip(&replay.finish).enumerate() {
            assert_eq!(
                p.to_bits(),
                r.to_bits(),
                "{label}: task {v} planned {p}, replayed {r}"
            );
        }
    }

    #[test]
    fn planned_finish_times_equal_the_eager_replay() {
        let mut seed = 0;
        for n in [5, 23, 60, 100] {
            for m in [2, 5, 16] {
                for ul in [1.01, 1.5] {
                    seed += 1;
                    let s = Scenario::paper_random(n, m, ul, seed);
                    let label = format!("n={n} m={m} ul={ul} seed={seed}");
                    let det_dur = |t, p| s.det_task_cost(t, p);
                    let det_comm = |e, p, q| s.det_comm_cost(e, p, q);
                    let det_plans = [
                        (
                            "HEFT",
                            heft::rank_then_place(&s, &upward_ranks(&s), det_dur, det_comm),
                        ),
                        ("CPOP", cpop::plan(&s)),
                        ("BIL", bil::plan(&s)),
                    ];
                    for (name, plan) in det_plans {
                        assert_replays(&format!("{name} {label}"), &s, plan, det_dur, det_comm);
                    }
                    for kappa in [0.0, 2.0] {
                        assert_replays(
                            &format!("σ-HEFT κ={kappa} {label}"),
                            &s,
                            robust::plan(&s, kappa),
                            |t, p| s.mean_task_cost(t, p) + kappa * s.std_task_cost(t, p),
                            |e, p, q| s.mean_comm_cost(e, p, q) + kappa * s.std_comm_cost(e, p, q),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_timeline_starts_at_ready() {
        let t = ProcTimeline::new();
        assert_eq!(t.earliest_slot(5.0, 2.0), 5.0);
        assert_eq!(t.earliest_append(5.0), 5.0);
    }

    #[test]
    fn gap_insertion() {
        let mut t = ProcTimeline::new();
        t.insert(0.0, 2.0, 10);
        t.insert(6.0, 2.0, 11);
        // A 3-long job fits in [2, 6).
        assert_eq!(t.earliest_slot(0.0, 3.0), 2.0);
        // A 5-long job does not; it goes after the end.
        assert_eq!(t.earliest_slot(0.0, 5.0), 8.0);
        // Ready time inside the gap shrinks it.
        assert_eq!(t.earliest_slot(4.0, 3.0), 8.0);
        assert_eq!(t.earliest_slot(4.0, 2.0), 4.0);
    }

    #[test]
    fn append_ignores_gaps() {
        let mut t = ProcTimeline::new();
        t.insert(0.0, 1.0, 0);
        t.insert(10.0, 1.0, 1);
        assert_eq!(t.earliest_append(0.0), 11.0);
        assert_eq!(t.earliest_append(15.0), 15.0);
    }

    #[test]
    fn order_reflects_start_times() {
        let mut t = ProcTimeline::new();
        t.insert(4.0, 1.0, 7);
        t.insert(0.0, 1.0, 3);
        t.insert(2.0, 1.0, 5);
        assert_eq!(t.task_order(), vec![3, 5, 7]);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn exact_fit_gap() {
        let mut t = ProcTimeline::new();
        t.insert(0.0, 2.0, 0);
        t.insert(4.0, 2.0, 1);
        assert_eq!(t.earliest_slot(0.0, 2.0), 2.0);
        t.insert(2.0, 2.0, 2);
        assert_eq!(t.task_order(), vec![0, 2, 1]);
    }
}
