//! Per-machine busy timelines with insertion slots.
//!
//! HEFT and CPOP use the *insertion-based* policy: a task may be placed in
//! an idle gap between two already-scheduled tasks if the gap is long
//! enough. [`ProcTimeline`] maintains the busy intervals of one machine in
//! start order and answers "earliest start ≥ ready of length `dur`".

use robusched_dag::NodeId;

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

#[cfg(test)]
mod tests {
    use super::*;

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
