//! Seed-deterministic scenario perturbations — the move set of the
//! adversarial (PISA-style) search.
//!
//! Every study so far *averages* over random scenarios; the adversarial
//! search instead walks scenario space looking for instances that maximize
//! disagreement between robustness metrics or heuristics. This module
//! provides the walk's state and its moves:
//!
//! * [`SearchPoint`] — a compact, replayable description of one scenario:
//!   a [`TraceDag`] (structure + task/edge weights) plus the platform
//!   knobs of [`Scenario::structured_app_unrelated`] (machine count, speed
//!   CoV, unrelatedness noise, uncertainty level, realization seed) and an
//!   optional per-task UL vector. [`SearchPoint::to_scenario`] materializes
//!   it; a point with default unrelatedness and no per-task ULs replays
//!   through `Scenario::from_trace` alone, which is what lets found
//!   counterexamples be committed as WfCommons JSON and re-evaluated later
//!   ([`SearchPoint::replays_from_trace`]).
//! * [`MOVES`] — the move table: ten named moves in a fixed order, each a
//!   plain function of `(point, seed)` plus a flag saying whether its
//!   proposals keep [`SearchPoint::replays_from_trace`]. Each move is a
//!   *pure function*: the same inputs yield the same proposal bit for bit,
//!   which is what keeps the sharded annealing chains reproducible at any
//!   thread count.
//!
//! ## The move contract
//!
//! A move returns `Some(neighbour)` only when the neighbour's *induced
//! scenario* genuinely differs — i.e. [`scenario_fingerprint`] changes —
//! and `None` when no valid move exists for the drawn randomness (e.g. a
//! rewire that would break acyclicity, a machine removal at the floor).
//! Structural moves preserve every [`TraceDag`] validity invariant
//! (acyclicity, finite non-negative weights, positive total work) *and*
//! the entry/exit node sets, so a single-source/single-sink workflow stays
//! single-source/single-sink. All of this is pinned by
//! `crates/stochastic/tests/proptest_perturb.rs`.
//!
//! Weight moves act on the trace's *relative* sizes deliberately: the
//! trace → `TaskGraph` conversion renormalizes mean work to the paper's
//! `μ_task = 20`, so a uniform rescale of every flop count would be a
//! no-op. Skewing one task (or one edge) at a time is the only scale move
//! that survives normalization, and the moves verify survival by
//! comparing the normalized work/volume vectors bitwise before reporting
//! a change.

use crate::scenario_fingerprint;
use robusched_dag::parsers::TraceDag;
use robusched_dag::NodeId;
use robusched_platform::Scenario;
use robusched_randvar::{derive_seed, uniform01_word, SplitMix64};

/// The unrelatedness noise `Scenario::from_trace` bakes in (10 %); a
/// [`SearchPoint`] at this value (and without per-task ULs) replays
/// through `from_trace` alone.
pub const DEFAULT_UNRELATEDNESS: f64 = 0.1;

/// Bounds the UL moves: per-task uncertainty levels stay in
/// `[1 + 1e-6, UL_MAX]`.
pub const UL_MAX: f64 = 3.0;

/// Bounds the speed-CoV nudge: `[0, SPEED_COV_MAX]`.
pub const SPEED_COV_MAX: f64 = 1.5;

/// Bounds the unrelatedness nudge: `[0, UNRELATEDNESS_MAX]`.
pub const UNRELATEDNESS_MAX: f64 = 0.6;

/// Machine-count bounds for the add/remove moves.
pub const MACHINES_MIN: usize = 2;
/// Upper machine-count bound (see [`MACHINES_MIN`]).
pub const MACHINES_MAX: usize = 32;

/// One point of the adversarial search space: a trace plus the platform
/// knobs that turn it into a [`Scenario`].
#[derive(Debug, Clone)]
pub struct SearchPoint {
    /// Workflow structure and task/edge weights.
    pub trace: TraceDag,
    /// Machines of the platform (`≥ MACHINES_MIN`).
    pub machines: usize,
    /// Coefficient of variation of the machine speeds.
    pub speed_cov: f64,
    /// Unrelatedness noise CV of the cost matrix
    /// ([`DEFAULT_UNRELATEDNESS`] replays through `from_trace`).
    pub unrelatedness: f64,
    /// Global uncertainty level (`≥ 1`).
    pub ul: f64,
    /// Platform realization seed (speeds + cost noise).
    pub seed: u64,
    /// Optional per-task uncertainty levels (the variable-UL extension);
    /// `None` keeps the global level everywhere.
    pub per_task_ul: Option<Vec<f64>>,
}

impl SearchPoint {
    /// A point with the `ext-traces` study's default platform knobs.
    pub fn from_trace(
        trace: TraceDag,
        machines: usize,
        speed_cov: f64,
        ul: f64,
        seed: u64,
    ) -> Self {
        Self {
            trace,
            machines,
            speed_cov,
            unrelatedness: DEFAULT_UNRELATEDNESS,
            ul,
            seed,
            per_task_ul: None,
        }
    }

    /// Materializes the scenario this point describes. Deterministic: the
    /// same point always yields the same scenario bit for bit.
    pub fn to_scenario(&self) -> Scenario {
        let s = Scenario::structured_app_unrelated(
            self.trace.to_task_graph(),
            self.machines,
            self.speed_cov,
            self.unrelatedness,
            self.ul,
            self.seed,
        );
        match &self.per_task_ul {
            Some(uls) => s.with_per_task_ul(uls.clone()),
            None => s,
        }
    }

    /// The induced scenario's fingerprint (the equality oracle of the
    /// move contract).
    pub fn fingerprint(&self) -> u64 {
        scenario_fingerprint(&self.to_scenario())
    }

    /// Whether `Scenario::from_trace(&trace, machines, speed_cov, ul,
    /// seed)` reproduces [`SearchPoint::to_scenario`] exactly — the
    /// condition for a found counterexample to be committable as a
    /// WfCommons file plus four CSV knobs.
    pub fn replays_from_trace(&self) -> bool {
        self.per_task_ul.is_none() && self.unrelatedness == DEFAULT_UNRELATEDNESS
    }
}

/// One move of the search: its name, whether its proposals keep
/// [`SearchPoint::replays_from_trace`] intact, and the move itself.
#[derive(Debug, Clone, Copy)]
pub struct Move {
    /// The move's name (e.g. `"rewire"`, `"task-scale"`).
    pub name: &'static str,
    /// Whether proposals keep [`SearchPoint::replays_from_trace`] intact.
    /// The gallery search draws from these moves only.
    pub replayable: bool,
    /// Proposes a neighbour of a point. Pure in `(point, seed)`; returns
    /// `None` when the drawn move is invalid or would not change the
    /// induced scenario (see the module docs for the full contract).
    pub apply: fn(&SearchPoint, u64) -> Option<SearchPoint>,
}

/// Every move, in the fixed order the annealing chain indexes (a chain
/// picks entry `next_u64() % len` of this table, or of its replayable
/// entries).
#[rustfmt::skip]
pub const MOVES: [Move; 10] = [
    Move { name: "rewire",         replayable: true,  apply: rewire },
    Move { name: "task-scale",     replayable: true,  apply: task_scale },
    Move { name: "edge-scale",     replayable: true,  apply: edge_scale },
    Move { name: "ul-jitter",      replayable: false, apply: ul_jitter },
    Move { name: "ul-shift",       replayable: true,  apply: ul_shift },
    Move { name: "speed-cov",      replayable: true,  apply: speed_cov },
    Move { name: "unrelatedness",  replayable: false, apply: unrelatedness },
    Move { name: "machine-add",    replayable: true,  apply: machine_add },
    Move { name: "machine-remove", replayable: true,  apply: machine_remove },
    Move { name: "reseed",         replayable: true,  apply: reseed },
];

/// Uniform index in `0..n` (`n` tiny here, modulo bias immaterial).
fn index(sm: &mut SplitMix64, n: usize) -> usize {
    (sm.next_u64() % n as u64) as usize
}

/// ±1 with equal probability.
fn sign(sm: &mut SplitMix64) -> f64 {
    if sm.next_u64() & 1 == 0 {
        1.0
    } else {
        -1.0
    }
}

/// A multiplicative factor log-uniform in `±[lo, hi]` octaves around 1,
/// never in the dead zone near 1 (so a drawn move is always a real move).
fn log_factor(sm: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
    let mag = lo + (hi - lo) * uniform01_word(sm.next_u64());
    (sign(sm) * mag.ln()).exp()
}

/// Whether two traces induce different `TaskGraph`s (normalized work or
/// volume vectors, or edge wiring) — the survival check for weight moves
/// that could be swallowed by the mean-work normalization.
fn trace_changed(a: &TraceDag, b: &TraceDag) -> bool {
    if a.task_count() != b.task_count() || a.edge_count() != b.edge_count() {
        return true;
    }
    let mut ea = a.dag.edge_triples();
    let mut eb = b.dag.edge_triples();
    loop {
        match (ea.next(), eb.next()) {
            (None, None) => break,
            (x, y) if x != y => return true,
            _ => {}
        }
    }
    let (ta, tb) = (a.to_task_graph(), b.to_task_graph());
    ta.task_work
        .iter()
        .zip(&tb.task_work)
        .any(|(x, y)| x.to_bits() != y.to_bits())
        || ta
            .comm_volume
            .iter()
            .zip(&tb.comm_volume)
            .any(|(x, y)| x.to_bits() != y.to_bits())
}

/// Rebuilds `point.trace` with new task flops and edge list; shared by
/// the structural and weight moves.
fn rebuild_trace(
    point: &SearchPoint,
    flops: impl Fn(NodeId) -> f64,
    edges: Vec<(NodeId, NodeId, f64)>,
) -> Option<TraceDag> {
    let tasks: Vec<(String, f64)> = point
        .trace
        .tasks
        .iter()
        .enumerate()
        .map(|(v, t)| (t.name.clone(), flops(v)))
        .collect();
    TraceDag::from_parts(point.trace.name.clone(), &tasks, &edges).ok()
}

/// The trace's current `(src, dst, bytes)` list in edge-id order.
fn edge_list(trace: &TraceDag) -> Vec<(NodeId, NodeId, f64)> {
    (0..trace.edge_count())
        .map(|e| {
            let (u, v) = trace.dag.edge_endpoints(e);
            (u, v, trace.edge_bytes[e])
        })
        .collect()
}

/// `rewire`: one edge `(u, v)` is replaced by `(u', v')`, preserving
/// acyclicity and the exact entry/exit node sets (degree floors on all
/// four endpoints), keeping the edge's byte volume.
fn rewire(point: &SearchPoint, seed: u64) -> Option<SearchPoint> {
    let dag = &point.trace.dag;
    let n = point.trace.task_count();
    let m = point.trace.edge_count();
    if m == 0 || n < 2 {
        return None;
    }
    let mut sm = SplitMix64::new(derive_seed(seed, 0x5E31));
    for _ in 0..16 {
        let e = index(&mut sm, m);
        let (u, v) = dag.edge_endpoints(e);
        // Removal must not create a new sink at `u` or source at `v`.
        if dag.out_degree(u) < 2 || dag.in_degree(v) < 2 {
            continue;
        }
        let u2 = index(&mut sm, n);
        let v2 = index(&mut sm, n);
        if u2 == v2 || dag.edge_between(u2, v2).is_some() {
            continue;
        }
        // Addition must not absorb an existing source/sink: both new
        // endpoints keep positive degrees in the graph minus `e`.
        let out_minus = dag.out_degree(u2) - usize::from(u2 == u);
        let in_minus = dag.in_degree(v2) - usize::from(v2 == v);
        if out_minus == 0 || in_minus == 0 {
            continue;
        }
        // Conservative acyclicity check on the full graph (a fortiori
        // valid for the graph minus `e`).
        if dag.reachable_from(v2)[u2] {
            continue;
        }
        let mut edges = edge_list(&point.trace);
        edges[e] = (u2, v2, point.trace.edge_bytes[e]);
        let trace = rebuild_trace(point, |t| point.trace.tasks[t].flops, edges)?;
        debug_assert!(trace.dag.is_acyclic());
        return Some(SearchPoint {
            trace,
            ..point.clone()
        });
    }
    None
}

/// The weight moves' shared step: draws the index `i` of one of `len`
/// weights, then a log-uniform factor `f` in `±[1.5, 8]×`, and rebuilds
/// the trace with `skewed(i, f)`; a zero weight or a change that the
/// mean-work normalization swallows is redrawn, up to eight draws.
fn skew_one(
    point: &SearchPoint,
    seed: u64,
    tag: u64,
    len: usize,
    weight: impl Fn(usize) -> f64,
    skewed: impl Fn(usize, f64) -> Option<TraceDag>,
) -> Option<SearchPoint> {
    if len == 0 {
        return None;
    }
    let mut sm = SplitMix64::new(derive_seed(seed, tag));
    for _ in 0..8 {
        let i = index(&mut sm, len);
        let f = log_factor(&mut sm, 1.5, 8.0);
        if weight(i) <= 0.0 {
            continue;
        }
        let trace = skewed(i, f)?;
        if trace_changed(&point.trace, &trace) {
            return Some(SearchPoint {
                trace,
                ..point.clone()
            });
        }
    }
    None
}

/// `task-scale`: one task's flop count is multiplied by a log-uniform
/// factor in `±[1.5, 8]×`, skewing the trace's *relative* sizes (absolute
/// scale is normalized away — see the module docs).
fn task_scale(point: &SearchPoint, seed: u64) -> Option<SearchPoint> {
    let n = point.trace.task_count();
    if n < 2 {
        return None;
    }
    let flops = |v: NodeId| point.trace.tasks[v].flops;
    skew_one(point, seed, 0x7A5C, n, flops, |t, f| {
        let skewed = |v| if v == t { flops(v) * f } else { flops(v) };
        rebuild_trace(point, skewed, edge_list(&point.trace))
    })
}

/// `edge-scale`: one edge's byte volume is multiplied by a log-uniform
/// factor in `±[1.5, 8]×`, skewing the trace's communication profile
/// (and its realized CCR).
fn edge_scale(point: &SearchPoint, seed: u64) -> Option<SearchPoint> {
    let m = point.trace.edge_count();
    let bytes = |e: usize| point.trace.edge_bytes[e];
    skew_one(point, seed, 0xED5C, m, bytes, |e, f| {
        let mut edges = edge_list(&point.trace);
        edges[e].2 *= f;
        rebuild_trace(point, |v| point.trace.tasks[v].flops, edges)
    })
}

/// `ul-jitter`: one task's uncertainty level is multiplied by a
/// log-uniform factor in `±[1.05, 1.6]×` and clamped to
/// `[1 + 1e-6, UL_MAX]` (the variable-UL extension). Initializes the
/// per-task vector from the global level on first use. Proposals no
/// longer replay through `from_trace` (the vector is not part of the
/// WfCommons file), so the gallery search excludes this move.
fn ul_jitter(point: &SearchPoint, seed: u64) -> Option<SearchPoint> {
    let n = point.trace.task_count();
    let mut sm = SplitMix64::new(derive_seed(seed, 0x01_1E77));
    let base = point
        .per_task_ul
        .clone()
        .unwrap_or_else(|| vec![point.ul; n]);
    for _ in 0..8 {
        let t = index(&mut sm, n);
        let f = log_factor(&mut sm, 1.05, 1.6);
        let new_ul = (base[t] * f).clamp(1.0 + 1e-6, UL_MAX);
        if new_ul.to_bits() == base[t].to_bits() {
            continue;
        }
        let mut uls = base.clone();
        uls[t] = new_ul;
        return Some(SearchPoint {
            per_task_ul: Some(uls),
            ..point.clone()
        });
    }
    None
}

/// `ul-shift`: the scenario-wide uncertainty level is multiplied by a
/// log-uniform factor in `±[1.2, 4]×` on its excess over 1 (so UL 1.01
/// moves in percent-scale steps, UL 2 in large ones), clamped to
/// `[1 + 1e-6, UL_MAX]`. Replays through `from_trace` — the gallery
/// search's uncertainty knob.
fn ul_shift(point: &SearchPoint, seed: u64) -> Option<SearchPoint> {
    if point.per_task_ul.is_some() {
        // The global level is inert once a per-task vector exists.
        return None;
    }
    let mut sm = SplitMix64::new(derive_seed(seed, 0x01_5817));
    let f = log_factor(&mut sm, 1.2, 4.0);
    let ul = (1.0 + (point.ul - 1.0) * f).clamp(1.0 + 1e-6, UL_MAX);
    if ul.to_bits() == point.ul.to_bits() {
        return None;
    }
    Some(SearchPoint {
        ul,
        ..point.clone()
    })
}

/// The platform nudges' shared step: moves `value` by a uniform
/// `±[lo, lo + span]` step (the sign drawn first, then the step size)
/// and clamps it to `[0, max]`; when the clamp lands back on `value`,
/// the mirrored step is tried.
fn nudge(value: f64, seed: u64, tag: u64, lo: f64, span: f64, max: f64) -> Option<f64> {
    let mut sm = SplitMix64::new(derive_seed(seed, tag));
    let step = sign(&mut sm) * (lo + span * uniform01_word(sm.next_u64()));
    [value + step, value - step]
        .into_iter()
        .map(|candidate| candidate.clamp(0.0, max))
        .find(|moved| moved.to_bits() != value.to_bits())
}

/// `speed-cov`: the platform's speed heterogeneity moves by a uniform
/// `±[0.05, 0.3]` step, clamped to `[0, SPEED_COV_MAX]`.
fn speed_cov(point: &SearchPoint, seed: u64) -> Option<SearchPoint> {
    let speed_cov = nudge(point.speed_cov, seed, 0x5C0F, 0.05, 0.25, SPEED_COV_MAX)?;
    Some(SearchPoint {
        speed_cov,
        ..point.clone()
    })
}

/// `unrelatedness`: the cost matrix's unrelatedness noise moves by a
/// uniform `±[0.02, 0.15]` step, clamped to `[0, UNRELATEDNESS_MAX]`.
/// Off the 10 % default the point no longer replays through
/// `from_trace`, so the gallery search excludes this move.
fn unrelatedness(point: &SearchPoint, seed: u64) -> Option<SearchPoint> {
    let unrelatedness = nudge(
        point.unrelatedness,
        seed,
        0x0B5E,
        0.02,
        0.13,
        UNRELATEDNESS_MAX,
    )?;
    Some(SearchPoint {
        unrelatedness,
        ..point.clone()
    })
}

/// `machine-add`: one more machine (up to [`MACHINES_MAX`]).
fn machine_add(point: &SearchPoint, _seed: u64) -> Option<SearchPoint> {
    if point.machines >= MACHINES_MAX {
        return None;
    }
    Some(SearchPoint {
        machines: point.machines + 1,
        ..point.clone()
    })
}

/// `machine-remove`: one machine fewer (down to [`MACHINES_MIN`]).
fn machine_remove(point: &SearchPoint, _seed: u64) -> Option<SearchPoint> {
    if point.machines <= MACHINES_MIN {
        return None;
    }
    Some(SearchPoint {
        machines: point.machines - 1,
        ..point.clone()
    })
}

/// `reseed`: a fresh realization seed for the speed vector and cost
/// noise — a jump move between platforms with identical knobs. Returns
/// `None` on a fully deterministic platform (zero speed CoV *and* zero
/// unrelatedness), where the seed is inert.
fn reseed(point: &SearchPoint, seed: u64) -> Option<SearchPoint> {
    if point.speed_cov == 0.0 && point.unrelatedness == 0.0 {
        return None;
    }
    let new_seed = derive_seed(seed, 0x5EED);
    if new_seed == point.seed {
        return None;
    }
    Some(SearchPoint {
        seed: new_seed,
        ..point.clone()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use robusched_dag::parsers::parse_trace;

    fn point() -> SearchPoint {
        let dot = r#"digraph t {
          a [size="4e9"]; b [size="8e9"]; c [size="2e9"]; d [size="1e9"];
          a -> b [size="1e9"]; a -> c [size="2e9"];
          b -> d [size="5e8"]; c -> d [size="3e8"]; b -> c [size="1e8"];
        }"#;
        let trace = parse_trace("t.dot", dot).unwrap();
        SearchPoint::from_trace(trace, 4, 0.5, 1.1, 11)
    }

    #[test]
    fn move_names_are_unique() {
        let mut names: Vec<&str> = MOVES.iter().map(|mv| mv.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), MOVES.len(), "duplicate move names");
    }

    #[test]
    fn replayable_subset_excludes_ul_jitter_and_unrelatedness() {
        let names: Vec<&str> = MOVES
            .iter()
            .filter(|mv| mv.replayable)
            .map(|mv| mv.name)
            .collect();
        assert!(!names.contains(&"ul-jitter"));
        assert!(!names.contains(&"unrelatedness"));
        assert!(names.contains(&"rewire"));
        assert!(names.contains(&"ul-shift"));
    }

    #[test]
    fn to_scenario_matches_from_trace_at_defaults() {
        let p = point();
        assert!(p.replays_from_trace());
        let a = p.to_scenario();
        let b = Scenario::from_trace(&p.trace, p.machines, p.speed_cov, p.ul, p.seed);
        assert_eq!(
            scenario_fingerprint(&a),
            scenario_fingerprint(&b),
            "default knobs must replay through from_trace"
        );
    }

    #[test]
    fn every_move_changes_the_fingerprint_when_it_reports_a_change() {
        let p = point();
        let fp = p.fingerprint();
        let mut applied = 0;
        for mv in &MOVES {
            for seed in 0..8u64 {
                if let Some(q) = (mv.apply)(&p, seed) {
                    applied += 1;
                    assert_ne!(fp, q.fingerprint(), "{} produced a no-op", mv.name);
                }
            }
        }
        assert!(applied > 0, "no move ever applied");
    }

    #[test]
    fn moves_are_seed_deterministic() {
        let p = point();
        for mv in &MOVES {
            match ((mv.apply)(&p, 42), (mv.apply)(&p, 42)) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert_eq!(x.fingerprint(), y.fingerprint(), "{}", mv.name)
                }
                _ => panic!("{} not deterministic", mv.name),
            }
        }
    }

    #[test]
    fn rewire_preserves_entry_and_exit_sets() {
        let p = point();
        let entries = p.trace.dag.entry_nodes();
        let exits = p.trace.dag.exit_nodes();
        let mut seen = 0;
        for seed in 0..64u64 {
            if let Some(q) = rewire(&p, seed) {
                seen += 1;
                assert!(q.trace.dag.is_acyclic());
                assert_eq!(q.trace.dag.entry_nodes(), entries);
                assert_eq!(q.trace.dag.exit_nodes(), exits);
                assert_eq!(q.trace.edge_count(), p.trace.edge_count());
            }
        }
        assert!(seen > 0, "rewire never applied on a rewireable graph");
    }

    #[test]
    fn machine_bounds_are_respected() {
        let mut p = point();
        p.machines = MACHINES_MAX;
        assert!(machine_add(&p, 0).is_none());
        p.machines = MACHINES_MIN;
        assert!(machine_remove(&p, 0).is_none());
        p.machines = 4;
        assert_eq!(machine_add(&p, 0).unwrap().machines, 5);
        assert_eq!(machine_remove(&p, 0).unwrap().machines, 3);
    }
}
