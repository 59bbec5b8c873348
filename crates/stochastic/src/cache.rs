//! Scenario discretization cache.
//!
//! The analytic evaluators quantize every duration distribution to a
//! [`DiscreteRv`] before running their recursions. Those distributions
//! depend only on the *scenario* — `task_dist(v, p)` on the task/machine
//! pair, `comm_dist(e, pu, pv)` on the edge/machine pair — never on the
//! schedule, yet the evaluators used to re-discretize them for every one of
//! the tens of thousands of schedules a study pushes through
//! [`crate::Evaluator::evaluate`]. Each discretization samples a Beta PDF
//! (64 `powf` calls) and normalizes — multiplied across a 10 000-schedule
//! study this was a significant slice of the §V–§VI protocol's runtime.
//!
//! [`DiscretizedScenario`] quantizes each distribution **once per
//! (scenario, grid)**: a lazy table of `OnceLock` slots, shared read-only
//! across all schedules and worker threads of a study. Laziness matters in
//! both directions — a single standalone evaluation only pays for the
//! slots its schedule touches (no worse than the uncached path), while a
//! study amortizes every slot across the whole schedule stream. Because the
//! slot initializer is deterministic, concurrent initialization races are
//! benign: every thread computes the same bits.
//!
//! The table holds one task slot per (task, machine) but only one
//! communication slot per (edge, *link class*): machine pairs whose links
//! have bit-equal `(τ, L)` compute bit-equal communication costs, so they
//! share a distribution. The paper's network (unit τ, zero latency on
//! every distinct pair) has two classes — co-located and remote — so the
//! table grows as `n·m + 2e` rather than `n·m + e·m²`.

use robusched_dag::{EdgeId, NodeId};
use robusched_platform::{Platform, Scenario, UncertaintyKind, UncertaintyModel};
use robusched_randvar::{DiscreteRv, QuantileTable};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// 64-bit FNV-1a over 8-byte words, low byte first: the one mixer behind
/// [`scenario_fingerprint`] and `robusched-core`'s request keys.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds the eight bytes of `word` into the hash.
    #[inline]
    pub fn mix(&mut self, word: u64) {
        for shift in (0..64).step_by(8) {
            self.0 ^= (word >> shift) & 0xff;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of the words mixed so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a fingerprint of everything that determines the evaluation
/// semantics of a scenario: dimensions, edge wiring, uncertainty model
/// (incl. per-task ULs), every deterministic task cost, every edge volume,
/// and the network's per-pair rate/latency matrices; ~`n·m + e + 2m²` hash
/// steps, each folding 8 bytes.
///
/// This is the cache key of `robusched-core`'s `EvalService`: requests
/// whose scenarios hash equal share one prepared-state entry, so repeated
/// scenarios skip all preparation. Equal fingerprints do not prove equal
/// content, so a [`DiscretizedScenario`] found under one still compares
/// its inputs with the scenario ([`DiscretizedScenario::matches`]) before
/// an evaluator reads its slots.
pub fn scenario_fingerprint(scenario: &Scenario) -> u64 {
    let mut h = Fnv1a::default();
    let n = scenario.task_count();
    let m = scenario.machine_count();
    let e = scenario.graph.edge_count();
    h.mix(n as u64);
    h.mix(m as u64);
    h.mix(e as u64);
    h.mix(scenario.uncertainty.ul.to_bits());
    h.mix(match scenario.uncertainty.kind {
        UncertaintyKind::Beta25 => 1,
        UncertaintyKind::Uniform => 2,
        UncertaintyKind::Triangular => 3,
        UncertaintyKind::None => 4,
    });
    match &scenario.per_task_ul {
        None => h.mix(0),
        Some(uls) => {
            h.mix(1);
            for ul in uls {
                h.mix(ul.to_bits());
            }
        }
    }
    for v in 0..n {
        for p in 0..m {
            h.mix(scenario.det_task_cost(v, p).to_bits());
        }
    }
    for edge in 0..e {
        // Endpoints included: trace-derived scenarios can share n/m/e and
        // every weight while wiring the edges differently, and rewiring
        // changes which (pu, pv) pairs a schedule exercises.
        let (u, v) = scenario.graph.dag.edge_endpoints(edge);
        h.mix(u as u64);
        h.mix(v as u64);
        h.mix(scenario.graph.volume(edge).to_bits());
    }
    for p in 0..m {
        for q in 0..m {
            h.mix(scenario.platform.tau(p, q).to_bits());
            h.mix(scenario.platform.latency(p, q).to_bits());
        }
    }
    h.finish()
}

/// Per-(scenario, grid) table of discretized task and communication
/// distributions. Cheap to construct (slots fill on first use); share one
/// instance per study via `Arc`.
#[derive(Debug)]
pub struct DiscretizedScenario {
    grid: usize,
    m: usize,
    inputs: SlotInputs,
    /// `task(v, p)` at `v·m + p`.
    tasks: Vec<OnceLock<DiscreteRv>>,
    /// Link class of the ordered machine pair `(p, q)` at `p·m + q` (see
    /// `link_classes`).
    link_class: Vec<usize>,
    /// Number of distinct link classes.
    classes: usize,
    /// `comm(e, pu, pv)` at `e·classes + link_class[pu·m + pv]`.
    comms: Vec<OnceLock<DiscreteRv>>,
}

/// Every scenario input the slots of a [`DiscretizedScenario`] read, bit
/// for bit: `task(v, p)` reads the cost of `v` on `p`, the uncertainty kind
/// and `v`'s level; `comm(e, pu, pv)` reads the volume of `e`, `τ` and `L`
/// of `(pu, pv)`, the kind and the model's level.
#[derive(Debug)]
struct SlotInputs {
    kind: UncertaintyKind,
    ul: f64,
    per_task_ul: Option<Vec<f64>>,
    costs: Vec<f64>,
    volumes: Vec<f64>,
    tau: Vec<f64>,
    latency: Vec<f64>,
}

impl SlotInputs {
    fn of(scenario: &Scenario) -> Self {
        Self {
            kind: scenario.uncertainty.kind,
            ul: scenario.uncertainty.ul,
            per_task_ul: scenario.per_task_ul.clone(),
            costs: scenario.costs.as_slice().to_vec(),
            volumes: scenario.graph.comm_volume.clone(),
            tau: scenario.platform.tau_matrix().to_vec(),
            latency: scenario.platform.latency_matrix().to_vec(),
        }
    }

    /// `true` when `scenario` holds these inputs bit for bit.
    fn held_by(&self, scenario: &Scenario) -> bool {
        let per_task_ul = match (&self.per_task_ul, &scenario.per_task_ul) {
            (None, None) => true,
            (Some(a), Some(b)) => same_bits(a, b),
            _ => false,
        };
        self.kind == scenario.uncertainty.kind
            && self.ul.to_bits() == scenario.uncertainty.ul.to_bits()
            && per_task_ul
            && same_bits(&self.costs, scenario.costs.as_slice())
            && same_bits(&self.volumes, &scenario.graph.comm_volume)
            && same_bits(&self.tau, scenario.platform.tau_matrix())
            && same_bits(&self.latency, scenario.platform.latency_matrix())
    }
}

/// `true` when `a` and `b` hold the same `f64`s bit for bit (`==` would
/// take `-0.0` for `0.0`). One OR over every XOR, with no early exit, so
/// the loop vectorizes.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .fold(0, |diff, (x, y)| diff | (x.to_bits() ^ y.to_bits()))
            == 0
}

/// Groups the ordered machine pairs of `platform` into link classes whose
/// communication costs are bit-equal for every edge; returns the class of
/// `(p, q)` at `p·m + q` and the class count.
///
/// Class 0 is the diagonal: `Platform::comm_time` returns exactly `0.0`
/// for co-located pairs. Distinct pairs share a class iff their `(τ, L)`
/// are bit-equal, so `L + volume·τ` — hence `comm_dist` and its
/// discretization — is bit-equal across the class. Classes are numbered in
/// row-major first-appearance order, so the layout is deterministic.
fn link_classes(platform: &Platform) -> (Vec<usize>, usize) {
    let m = platform.machine_count();
    let mut ids: HashMap<(u64, u64), usize> = HashMap::new();
    let mut class = vec![0; m * m];
    for p in 0..m {
        for q in (0..m).filter(|&q| q != p) {
            let key = (
                platform.tau(p, q).to_bits(),
                platform.latency(p, q).to_bits(),
            );
            let next = ids.len() + 1;
            class[p * m + q] = *ids.entry(key).or_insert(next);
        }
    }
    (class, ids.len() + 1)
}

impl DiscretizedScenario {
    /// Builds the (empty) table for `scenario` at PDF resolution `grid`.
    pub fn new(scenario: &Scenario, grid: usize) -> Self {
        let n = scenario.task_count();
        let m = scenario.machine_count();
        let edges = scenario.graph.edge_count();
        let (link_class, classes) = link_classes(&scenario.platform);
        let mut tasks = Vec::new();
        tasks.resize_with(n * m, OnceLock::new);
        let mut comms = Vec::new();
        comms.resize_with(edges * classes, OnceLock::new);
        Self {
            grid,
            m,
            inputs: SlotInputs::of(scenario),
            tasks,
            link_class,
            classes,
            comms,
        }
    }

    /// The PDF grid resolution this table quantizes to.
    pub fn grid(&self) -> usize {
        self.grid
    }

    /// `true` when this table is valid for `scenario`: it has the table's
    /// dimensions and holds, bit for bit, every input the slots read
    /// (uncertainty kind and level, per-task levels, task costs, edge
    /// volumes, the `τ` and latency matrices). Scenarios that differ *only*
    /// in seed-derived content — same shape, different costs or
    /// uncertainty level — are rejected, not just different-shape ones.
    /// The table keeps its own copy of those inputs and compares them in
    /// place, so the check allocates nothing and cannot collide.
    pub fn matches(&self, scenario: &Scenario) -> bool {
        self.fits(scenario) && self.inputs.held_by(scenario)
    }

    /// O(1) check, also behind the per-lookup debug assertions: `scenario`
    /// has this table's dimensions. [`matches`](Self::matches) adds the
    /// O(n·m + e + m²) content comparison.
    fn fits(&self, scenario: &Scenario) -> bool {
        scenario.machine_count() == self.m
            && scenario.task_count() * self.m == self.tasks.len()
            && scenario.graph.edge_count() * self.classes == self.comms.len()
    }

    /// The discretized duration of task `v` on machine `p`.
    ///
    /// `scenario` must be the scenario this table was built for.
    pub fn task<'a>(&'a self, scenario: &Scenario, v: NodeId, p: usize) -> &'a DiscreteRv {
        debug_assert!(self.fits(scenario), "cache built for another scenario");
        self.tasks[v * self.m + p]
            .get_or_init(|| DiscreteRv::from_dist(&scenario.task_dist(v, p), self.grid))
    }

    /// The discretized communication time of edge `e` from machine `pu` to
    /// machine `pv` — the zero point mass when `pu == pv`. Every pair of
    /// one link class returns the same slot.
    ///
    /// `scenario` must be the scenario this table was built for.
    pub fn comm<'a>(
        &'a self,
        scenario: &Scenario,
        e: EdgeId,
        pu: usize,
        pv: usize,
    ) -> &'a DiscreteRv {
        debug_assert!(self.fits(scenario), "cache built for another scenario");
        self.comms[e * self.classes + self.link_class[pu * self.m + pv]]
            .get_or_init(|| DiscreteRv::from_dist(&scenario.comm_dist(e, pu, pv), self.grid))
    }
}

/// Shared Monte-Carlo sampling tables for one scenario: one inverse-CDF
/// [`QuantileTable`] per *distinct* duration distribution shape.
///
/// In the paper's model every uncertain weight is the same base shape
/// (Beta(2, 5) — or the uniform/triangular substitutions) rescaled
/// affinely onto `[w, UL·w]`, so the family collapses to a **single**
/// table of the standard unit-support shape: a realization of any weight
/// is `w + (UL−1)·w·Q(u)`. The table is the expensive part of a
/// Monte-Carlo evaluation setup (~10³ safeguarded-Newton CDF inversions);
/// building it per schedule — as the scalar engine used to — multiplied
/// that cost across every schedule of a study. Like
/// [`DiscretizedScenario`], one `SamplingTables` is built per scenario
/// (see `Evaluator::prepare`) and shared read-only (`Arc`) by every worker
/// thread.
///
/// ```
/// use robusched_platform::Scenario;
/// use robusched_stochastic::SamplingTables;
///
/// let scenario = Scenario::paper_random(10, 3, 1.1, 5);
/// let tables = SamplingTables::new(&scenario);
/// assert!(tables.matches(&scenario));
/// let q = tables.base().unwrap().quantile(0.5); // median of Beta(2, 5)
/// assert!(q > 0.0 && q < 1.0);
/// ```
#[derive(Debug)]
pub struct SamplingTables {
    kind: UncertaintyKind,
    base: Option<Arc<QuantileTable>>,
}

/// The standard base shapes are *program constants* (Beta(2, 5), U(0, 1),
/// Tri(0, 0.2, 1) — nothing scenario-specific enters a table), so their
/// tables live in process-wide `OnceLock`s: the first `SamplingTables::new`
/// of each family pays the ~ms tabulation, every later one is an `Arc`
/// clone. Process scope rather than thread-local, because tables are
/// shared read-only across threads anyway.
fn shared_base_table(kind: UncertaintyKind) -> Option<Arc<QuantileTable>> {
    static BETA25: OnceLock<Arc<QuantileTable>> = OnceLock::new();
    static UNIFORM: OnceLock<Arc<QuantileTable>> = OnceLock::new();
    static TRIANGULAR: OnceLock<Arc<QuantileTable>> = OnceLock::new();
    let slot = match kind {
        UncertaintyKind::Beta25 => &BETA25,
        UncertaintyKind::Uniform => &UNIFORM,
        UncertaintyKind::Triangular => &TRIANGULAR,
        UncertaintyKind::None => return None,
    };
    Some(
        slot.get_or_init(|| {
            let shape = UncertaintyModel { ul: 2.0, kind }
                .base_shape()
                .expect("non-deterministic kinds have a base shape");
            Arc::new(QuantileTable::with_default_resolution(&shape))
        })
        .clone(),
    )
}

impl SamplingTables {
    /// Builds (or fetches from the process-wide cache) the sampling tables
    /// for `scenario`'s uncertainty model.
    pub fn new(scenario: &Scenario) -> Self {
        let kind = scenario.uncertainty.kind;
        Self {
            kind,
            base: shared_base_table(kind),
        }
    }

    /// `true` when these tables are valid for `scenario`. The tables are a
    /// pure function of the uncertainty *family* (the affine `[w, UL·w]`
    /// rescaling is applied per weight at sampling time), so any scenario
    /// with the same [`UncertaintyKind`] matches — costs, seeds and
    /// uncertainty levels are irrelevant here, unlike
    /// [`DiscretizedScenario::matches`].
    pub fn matches(&self, scenario: &Scenario) -> bool {
        self.kind == scenario.uncertainty.kind
    }

    /// The quantile table of the standard (unit-support) base shape;
    /// `None` for deterministic scenarios ([`UncertaintyKind::None`]).
    pub fn base(&self) -> Option<&QuantileTable> {
        self.base.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_tables_match_by_family() {
        let s = Scenario::paper_random(10, 3, 1.1, 5);
        let t = SamplingTables::new(&s);
        assert!(t.matches(&s));
        // Different costs/UL, same family: still valid.
        assert!(t.matches(&Scenario::paper_random(20, 4, 1.5, 9)));
        let mut det = Scenario::paper_random(10, 3, 1.1, 5);
        det.uncertainty = robusched_platform::UncertaintyModel::none();
        assert!(!t.matches(&det));
        let dt = SamplingTables::new(&det);
        assert!(dt.base().is_none());
        // The base table inverts the base shape's CDF.
        use robusched_randvar::Dist;
        let shape = s.uncertainty.base_shape().unwrap();
        for p in [0.1, 0.5, 0.9] {
            assert!((t.base().unwrap().quantile(p) - shape.quantile(p)).abs() < 1e-9);
        }
    }

    #[test]
    fn cached_slots_match_direct_discretization() {
        let s = Scenario::paper_random(10, 3, 1.1, 5);
        let cache = DiscretizedScenario::new(&s, 64);
        // The paper's network: co-located and remote link classes only.
        assert_eq!(cache.classes, 2);
        assert_eq!(cache.comms.len(), s.graph.edge_count() * 2);
        for v in 0..10 {
            for p in 0..3 {
                let cached = cache.task(&s, v, p);
                let direct = DiscreteRv::from_dist(&s.task_dist(v, p), 64);
                assert_eq!(cached.lo(), direct.lo());
                assert_eq!(cached.hi(), direct.hi());
                assert_eq!(cached.pdf_values(), direct.pdf_values());
            }
        }
        for e in 0..s.graph.edge_count() {
            let cached = cache.comm(&s, e, 0, 2);
            let direct = DiscreteRv::from_dist(&s.comm_dist(e, 0, 2), 64);
            assert_eq!(cached.pdf_values(), direct.pdf_values());
        }
    }

    /// Every bit of a discretized RV.
    fn rv_bits(rv: &DiscreteRv) -> (u64, u64, Vec<u64>, Vec<u64>) {
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        (
            rv.lo().to_bits(),
            rv.hi().to_bits(),
            bits(rv.pdf_values()),
            bits(rv.cdf_values()),
        )
    }

    /// A 4-machine network whose off-diagonal `(τ, L)` pairs repeat in some
    /// places and differ (in τ, in L, or by being a free link) in others.
    fn mixed_network_scenario() -> Scenario {
        #[rustfmt::skip]
        let tau = vec![
            0.0, 1.0, 1.0, 2.0,
            1.0, 0.0, 2.0, 2.0,
            0.0, 1.0, 0.0, 1.0,
            2.0, 2.0, 1.0, 0.0,
        ];
        #[rustfmt::skip]
        let lat = vec![
            0.0, 0.0, 0.5, 0.0,
            0.0, 0.0, 0.0, 0.5,
            0.0, 0.0, 0.0, 0.0,
            0.0, 0.5, 0.0, 0.0,
        ];
        let mut s = Scenario::paper_random(12, 4, 1.1, 5);
        s.platform = Platform::from_matrices(4, tau, lat);
        s
    }

    #[test]
    fn comm_slots_are_shared_exactly_within_link_classes() {
        let s = mixed_network_scenario();
        let cache = DiscretizedScenario::new(&s, 64);
        // Diagonal, (1, 0), (1, 0.5), (2, 0), (2, 0.5), and the free link
        // (0, 0) from machine 2 to machine 0.
        assert_eq!(cache.classes, 6);
        assert_eq!(cache.comms.len(), s.graph.edge_count() * cache.classes);
        for e in 0..s.graph.edge_count() {
            for pu in 0..4 {
                for pv in 0..4 {
                    let direct = DiscreteRv::from_dist(&s.comm_dist(e, pu, pv), 64);
                    assert_eq!(rv_bits(cache.comm(&s, e, pu, pv)), rv_bits(&direct));
                }
                assert!(cache.comm(&s, e, pu, pu).is_point());
                assert_eq!(cache.comm(&s, e, pu, pu).lo(), 0.0);
            }
            let slot = |pu, pv| cache.comm(&s, e, pu, pv) as *const DiscreteRv;
            // Pairs of one class (τ = 1, L = 0; τ = 2, L = 0.5; diagonal)
            // share a slot ...
            for (pu, pv) in [(1, 0), (2, 1), (2, 3), (3, 2)] {
                assert_eq!(slot(0, 1), slot(pu, pv));
            }
            assert_eq!(slot(1, 3), slot(3, 1));
            assert_eq!(slot(0, 0), slot(3, 3));
            // ... and pairs that differ in τ, in L, or only by being
            // co-located do not.
            assert_ne!(slot(0, 1), slot(0, 3));
            assert_ne!(slot(0, 1), slot(0, 2));
            assert_ne!(slot(2, 0), slot(2, 2));
        }
    }

    #[test]
    fn repeated_access_returns_same_slot() {
        let s = Scenario::paper_random(6, 2, 1.2, 9);
        let cache = DiscretizedScenario::new(&s, 32);
        let a = cache.task(&s, 3, 1) as *const DiscreteRv;
        let b = cache.task(&s, 3, 1) as *const DiscreteRv;
        assert_eq!(a, b, "second access must hit the cached slot");
    }

    #[test]
    fn fingerprint_check() {
        let s = Scenario::paper_random(10, 3, 1.1, 5);
        let cache = DiscretizedScenario::new(&s, 64);
        assert!(cache.matches(&s));
        assert_eq!(cache.grid(), 64);
        // Different shape.
        assert!(!cache.matches(&Scenario::paper_random(12, 3, 1.1, 5)));
        // Same shape, different uncertainty level — the dangerous case: a
        // shape-only check would accept it and serve stale distributions.
        assert!(!cache.matches(&Scenario::paper_random(10, 3, 1.5, 5)));
        // Same shape, different seed (different costs).
        assert!(!cache.matches(&Scenario::paper_random(10, 3, 1.1, 6)));
        // Same shape, per-task ULs installed.
        let varied = Scenario::paper_random(10, 3, 1.1, 5).with_per_task_ul(vec![1.2; 10]);
        assert!(!cache.matches(&varied));

        // A content-equal clone matches; one ulp more in any one input the
        // slots read does not.
        assert!(cache.matches(&s.clone()));
        let ulp = |x: f64| f64::from_bits(x.to_bits() + 1);
        let mut cost = s.clone();
        let mut w = s.costs.as_slice().to_vec();
        w[7] = ulp(w[7]);
        cost.costs = robusched_platform::CostMatrix::from_rows(10, 3, w);
        assert!(!cache.matches(&cost));
        let mut volume = s.clone();
        volume.graph.comm_volume[0] = ulp(volume.graph.comm_volume[0]);
        assert!(!cache.matches(&volume));
        let (tau, lat) = (s.platform.tau_matrix(), s.platform.latency_matrix());
        let mut t = s.clone();
        let mut bumped = tau.to_vec();
        bumped[1] = ulp(bumped[1]);
        t.platform = Platform::from_matrices(3, bumped, lat.to_vec());
        assert!(!cache.matches(&t));
        let mut l = s.clone();
        let mut bumped = lat.to_vec();
        bumped[1] = ulp(bumped[1]);
        l.platform = Platform::from_matrices(3, tau.to_vec(), bumped);
        assert!(!cache.matches(&l));
        let varied_cache = DiscretizedScenario::new(&varied, 64);
        assert!(varied_cache.matches(&varied.clone()));
        let mut ul = varied.clone();
        if let Some(uls) = ul.per_task_ul.as_mut() {
            uls[4] = ulp(uls[4]);
        }
        assert!(!varied_cache.matches(&ul));
    }

    #[test]
    fn fingerprint_distinguishes_edge_wiring() {
        // Same n/m/e, same task works, same edge volumes, same platform and
        // uncertainty — only the edge *endpoints* differ (chain vs fork).
        // Weight-only fingerprints collide here; trace-derived scenarios
        // make this shape of near-collision common.
        let chain = r#"digraph t { a [size="4e9"]; b [size="8e9"]; c [size="2e9"];
          a -> b [size="1e9"]; b -> c [size="1e9"]; }"#;
        let fork = r#"digraph t { a [size="4e9"]; b [size="8e9"]; c [size="2e9"];
          a -> b [size="1e9"]; a -> c [size="1e9"]; }"#;
        let parse = |src| robusched_dag::parsers::parse_trace("t.dot", src).unwrap();
        let a = Scenario::from_trace(&parse(chain), 3, 0.5, 1.1, 7);
        let b = Scenario::from_trace(&parse(fork), 3, 0.5, 1.1, 7);
        assert_eq!(a.graph.task_work, b.graph.task_work);
        assert_eq!(a.graph.comm_volume, b.graph.comm_volume);
        assert_ne!(scenario_fingerprint(&a), scenario_fingerprint(&b));
    }

    #[test]
    fn shared_across_threads() {
        let s = Scenario::paper_random(8, 2, 1.1, 3);
        let cache = std::sync::Arc::new(DiscretizedScenario::new(&s, 64));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let cache = cache.clone();
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                cache.task(&s, 5, 1).mean().to_bits()
            }));
        }
        let bits: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(bits.windows(2).all(|w| w[0] == w[1]));
    }
}
