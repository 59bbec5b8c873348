//! The Monte-Carlo realization engine — the study's ground truth.
//!
//! §V of the paper: the analytic distribution's accuracy "was measured for
//! the worst cases … by running 100 000 realizations" (Fig. 1, Fig. 2).
//!
//! Each realization samples every task duration and every communication
//! delay, then replays the eager schedule. The engine is *batched*: one
//! block kernel runs 256 realizations at once as structure-of-arrays rows.
//! It walks the plan's disjunctive topological order and, for every
//! uncertain task or edge, draws that slot's 256-lane duration row through
//! the shared inverse-CDF table just before the replay reads it; only the
//! `[task × lane]` finish matrix and that one row are live. Four design
//! points keep it fast and reproducible:
//!
//! * **shared quantile tables** — all uncertain weights are the same base
//!   shape (Beta(2, 5)) rescaled affinely, so the per-scenario
//!   [`SamplingTables`] turn every draw into `lo + span·Q(u)`: a table
//!   lookup, not a root find. Build them once per scenario
//!   (`Evaluator::prepare`) and pass them to every [`mc_makespans`] call;
//! * **compiled plan** — the replay steps (each task's machine
//!   predecessor, incoming arcs and duration) are compiled once per
//!   schedule in the disjunctive topological order, which is also the
//!   draw order; a realization block is then pure streaming arithmetic;
//! * **fixed chunking** — realizations are split into fixed 2048-wide
//!   chunks, each seeded as `derive_seed(seed, chunk_index)`;
//!   [`par_map`] workers claim chunks and deliver them in chunk order, so
//!   results are bit-identical for any thread count (per estimator);
//! * **variance reduction** — [`McEstimator::Antithetic`] mirrors every
//!   uniform draw across realization pairs and [`McEstimator::Stratified`]
//!   stratifies each slot's `u ∈ [0, 1)` stream within a block
//!   (Latin-hypercube style: per-slot random permutation plus jitter).
//!   Both change the sample stream — only the default
//!   [`McEstimator::Standard`] stream is comparable to prior recordings —
//!   but each is deterministic under the same chunk-seeding contract.
//!
//! The canonical draw order within one realization (what makes the scalar
//! and SoA paths comparable, pinned by `tests/mc_engine.rs`): tasks in the
//! plan's disjunctive topological order; for each task, first its incoming
//! edges in predecessor-list order, then the task itself; slots whose
//! duration is deterministic (`span = 0`) draw nothing. Within a block the
//! draws are slot-major — all lanes of a slot before the next slot — which
//! permutes *where* the sequential uniforms land but is part of the same
//! fixed contract. That is also the order in which the kernel reads the
//! rows, so it draws one row at a time.
//!
//! On an x86-64 CPU with AVX2 the chunk loop runs a copy of the kernel
//! compiled for 256-bit vectors, chosen on each call, and the Standard
//! estimator's rows come from [`QuantileTable::fill_row_u53`]'s four-wide
//! copy. Both copies perform the same IEEE operations in the same order,
//! so the samples do not depend on the CPU.

use crate::cache::SamplingTables;
use crate::par::{par_map, worker_count};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use robusched_platform::Scenario;
use robusched_randvar::{derive_seed, QuantileTable};
use robusched_sched::{EagerPlan, Schedule};

/// Variance-reduction mode of the Monte-Carlo engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum McEstimator {
    /// Independent uniforms (the paper's plain estimator).
    #[default]
    Standard,
    /// Antithetic pairs: realization lanes `(2j, 2j+1)` use mirrored
    /// uniforms `u` and `1 − u` for every slot. Unbiased; cancels the
    /// first-order (monotone) component of the makespan's dependence on
    /// each duration, which is most of it on DAG schedules.
    Antithetic,
    /// Per-slot stratified uniforms within each 256-realization block
    /// (a random permutation of the strata plus an independent jitter per
    /// lane — Latin-hypercube style across slots). Unbiased; removes the
    /// within-block sampling noise of each marginal.
    Stratified,
}

/// Monte-Carlo configuration.
///
/// ```
/// use robusched_platform::Scenario;
/// use robusched_stochastic::{mc_makespans, McConfig, McEstimator, SamplingTables};
///
/// let scenario = Scenario::paper_random(10, 3, 1.1, 5);
/// let schedule = robusched_sched::heft(&scenario);
/// let tables = SamplingTables::new(&scenario); // once per scenario
/// let ms = mc_makespans(
///     &scenario,
///     &schedule,
///     &McConfig {
///         realizations: 2_000,
///         estimator: McEstimator::Antithetic,
///         ..Default::default()
///     },
///     &tables,
/// );
/// assert_eq!(ms.len(), 2_000);
/// ```
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Number of realizations (the paper uses 100 000).
    pub realizations: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker threads; `None` = available parallelism.
    pub threads: Option<usize>,
    /// Variance-reduction mode (default: plain independent sampling).
    pub estimator: McEstimator,
}

impl Default for McConfig {
    fn default() -> Self {
        Self {
            realizations: 100_000,
            seed: 0xC0FFEE,
            threads: None,
            estimator: McEstimator::Standard,
        }
    }
}

/// Realizations per seeding chunk (fixed: determinism across thread
/// counts). Public because the sampling contract — chunk `c` draws from
/// `derive_seed(seed, c)` — is part of the engine's reproducibility
/// guarantee, pinned by `tests/mc_engine.rs`.
pub const CHUNK: usize = 2048;

/// Realizations per block: the lane count of every duration row and
/// finish row of the block kernel (fixed: the rows stay cache-resident;
/// divides [`CHUNK`] so blocks never straddle a seeding boundary). Public
/// for the same reason as [`CHUNK`]: the slot-major draw order within a
/// block is part of the draw contract.
pub const BLOCK: usize = 256;

// Blocks must tile chunks exactly or the per-chunk RNG stream would depend
// on where a chunk boundary falls.
const _: () = assert!(CHUNK.is_multiple_of(BLOCK));

/// One block-wide row of the kernel, aligned to a cache line so that its
/// vector loads never straddle two.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct Row([f64; BLOCK]);

impl Default for Row {
    fn default() -> Self {
        Self([0.0; BLOCK])
    }
}

/// Reusable per-worker state of the batched engine: the finish matrix
/// (one row per replay step), the duration row, the stratification
/// permutation and the sample buffer. One per worker thread (or per
/// [`EvalContext`](crate::EvalContext)), reused across blocks, chunks and
/// schedules — steady-state evaluations allocate nothing.
#[derive(Debug, Default)]
pub(crate) struct McScratch {
    finish: Vec<Row>,
    row: Box<Row>,
    perm: Vec<u32>,
    pub(crate) samples: Vec<f64>,
}

/// The duration of one task or edge: `lo + span·Q(u)` when `span > 0`,
/// the constant `lo` otherwise (such a slot draws nothing).
#[derive(Debug, Clone, Copy)]
struct Slot {
    lo: f64,
    span: f64,
}

impl Slot {
    #[inline(always)]
    fn draws(self) -> bool {
        self.span > 0.0
    }
}

/// One incoming DAG edge of a replay step: the predecessor's step and the
/// edge's duration.
#[derive(Debug, Clone, Copy)]
struct InArc {
    from: u32,
    dur: Slot,
}

/// One task of the replay, in topological order. Steps refer to each
/// other by position in that order, so every reference points back.
#[derive(Debug, Clone, Copy)]
struct Step {
    /// Step of the task before this one on its machine, or [`NO_PREV`].
    prev: u32,
    /// End of this step's incoming arcs in [`BlockPlan::arcs`]; they start
    /// where the previous step's arcs end.
    arcs_end: u32,
    dur: Slot,
}

const NO_PREV: u32 = u32::MAX;

/// A schedule compiled for the block kernel: replay steps in the plan's
/// disjunctive topological order, their arcs in predecessor-list order,
/// and the steps of the disjunctive sinks. Walking steps and arcs in
/// order visits the uncertain slots in canonical draw order.
struct BlockPlan {
    steps: Vec<Step>,
    arcs: Vec<InArc>,
    /// Steps of [`EagerPlan::disjunctive_sinks`], in ascending task order.
    sinks: Vec<u32>,
}

impl BlockPlan {
    fn new(scenario: &Scenario, schedule: &Schedule, plan: &EagerPlan) -> Self {
        let dag = &scenario.graph.dag;
        let ul = scenario.uncertainty.ul;
        let order = plan.topo_order();
        let mut step_of = vec![0u32; order.len()];
        for (k, &v) in order.iter().enumerate() {
            step_of[v] = k as u32;
        }
        let mut arcs = Vec::with_capacity(dag.edge_count());
        let steps = order
            .iter()
            .map(|&v| {
                let m = schedule.machine_of(v);
                for &(u, edge) in dag.preds(v) {
                    let lo = scenario.det_comm_cost(edge, schedule.machine_of(u), m);
                    arcs.push(InArc {
                        from: step_of[u],
                        dur: Slot {
                            lo,
                            span: (ul - 1.0) * lo,
                        },
                    });
                }
                let lo = scenario.det_task_cost(v, m);
                Step {
                    prev: plan.prev_on_proc()[v].map_or(NO_PREV, |u| step_of[u]),
                    arcs_end: arcs.len() as u32,
                    // Per-task UL (variable-UL extension) when installed.
                    dur: Slot {
                        lo,
                        span: (scenario.task_ul(v) - 1.0) * lo,
                    },
                }
            })
            .collect();
        let sinks = plan
            .disjunctive_sinks()
            .iter()
            .map(|&v| step_of[v])
            .collect();
        Self { steps, arcs, sinks }
    }
}

/// 53-bit uniform in `[0, 1)` on the concrete chunk RNG (monomorphic, so
/// the draw loops inline it — the `dyn RngCore` version costs a virtual
/// call per draw). It consumes one `next_u64`, like the `u53` draws of
/// [`QuantileTable::fill_row_u53`], and `quantile(u01)` is bit for bit
/// `quantile_u53` of the same word.
#[inline]
fn u01(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Shared per-call setup of both entry points: validates the budget and
/// compiles the replay plan and the block plan. Keeping this single keeps
/// [`mc_makespans`] and the evaluator's path behaviorally identical by
/// construction.
fn compile_plan(
    scenario: &Scenario,
    schedule: &Schedule,
    cfg: &McConfig,
) -> (EagerPlan, BlockPlan) {
    assert!(cfg.realizations > 0, "need at least one realization");
    let plan = EagerPlan::new(&scenario.graph.dag, schedule).expect("invalid schedule");
    let block = BlockPlan::new(scenario, schedule, &plan);
    (plan, block)
}

/// Runs the Monte-Carlo engine against prepared sampling tables; returns
/// one makespan per realization, in a deterministic order (per estimator,
/// independent of the thread count). The raw samples are what the accuracy
/// figures need; [`MonteCarloEvaluator`](crate::MonteCarloEvaluator) bins
/// them into a distribution.
///
/// Tables that do not [match](SamplingTables::matches) the scenario are
/// ignored and rebuilt locally (same results, no sharing).
///
/// # Panics
/// Panics if the schedule is invalid or `realizations == 0`.
pub fn mc_makespans(
    scenario: &Scenario,
    schedule: &Schedule,
    cfg: &McConfig,
    tables: &SamplingTables,
) -> Vec<f64> {
    let rebuilt;
    let tables = if tables.matches(scenario) {
        tables
    } else {
        rebuilt = SamplingTables::new(scenario);
        &rebuilt
    };
    let (plan, block) = compile_plan(scenario, schedule, cfg);
    let Some(table) = tables.base() else {
        return vec![deterministic_makespan(scenario, schedule, &plan); cfg.realizations];
    };
    let mut out = Vec::with_capacity(cfg.realizations);
    par_map(
        cfg.realizations.div_ceil(CHUNK),
        worker_count(cfg.threads),
        McScratch::default,
        |scratch, c| {
            let mut chunk = vec![0.0f64; CHUNK.min(cfg.realizations - c * CHUNK)];
            run_chunk(&block, table, cfg, c as u64, &mut chunk, scratch);
            chunk
        },
        |_, chunk| out.extend_from_slice(&chunk),
    )
    // The plan compiled above, so a panic here is an engine bug: re-raise
    // it on the caller's thread with the worker's message.
    .unwrap_or_else(|msg| panic!("{msg}"));
    out
}

/// Serial engine core writing into a caller buffer with caller scratch —
/// the path `MonteCarloEvaluator` uses so a study worker reuses one
/// scratch across every schedule it evaluates. It never reads
/// `cfg.threads`. Same chunks, seeds and draws as [`mc_makespans`], so the
/// two agree bit for bit (pinned by `tests/mc_engine.rs`).
pub(crate) fn mc_makespans_into(
    scenario: &Scenario,
    schedule: &Schedule,
    cfg: &McConfig,
    tables: &SamplingTables,
    scratch: &mut McScratch,
    out: &mut [f64],
) {
    assert_eq!(out.len(), cfg.realizations);
    let (plan, block) = compile_plan(scenario, schedule, cfg);
    match tables.base() {
        None => out.fill(deterministic_makespan(scenario, schedule, &plan)),
        Some(table) => {
            for (idx, slice) in out.chunks_mut(CHUNK).enumerate() {
                run_chunk(&block, table, cfg, idx as u64, slice, scratch);
            }
        }
    }
}

/// The deterministic limit: every realization is the same replay of the
/// minimum durations.
fn deterministic_makespan(scenario: &Scenario, schedule: &Schedule, plan: &EagerPlan) -> f64 {
    plan.execute(
        &scenario.graph.dag,
        |v| scenario.det_task_cost(v, schedule.machine_of(v)),
        |e, u, v| scenario.det_comm_cost(e, schedule.machine_of(u), schedule.machine_of(v)),
    )
    .makespan
}

/// One seeding chunk: runs the block kernel over `BLOCK`-wide sub-blocks
/// with the chunk's private RNG stream. On an x86-64 CPU with AVX2 this
/// runs a copy compiled for 256-bit vectors, chosen on each call; the
/// copies perform the same IEEE operations in the same order, so their
/// samples are bit-identical.
fn run_chunk(
    block: &BlockPlan,
    table: &QuantileTable,
    cfg: &McConfig,
    chunk_index: u64,
    out: &mut [f64],
    scratch: &mut McScratch,
) {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: `run_chunk_avx2` only requires AVX2, and the line above
        // checked that the running CPU has it.
        return unsafe { run_chunk_avx2(block, table, cfg, chunk_index, out, scratch) };
    }
    run_chunk_baseline(block, table, cfg, chunk_index, out, scratch);
}

/// [`run_chunk_baseline`] compiled for AVX2. Rust never contracts a
/// multiply and an add into an FMA, nor reorders float operations, so the
/// wider vectors change the speed and not a bit of the samples.
///
/// # Safety
/// Callers without AVX2 enabled must call this through `unsafe` and only
/// after checking that the running CPU has AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_chunk_avx2(
    block: &BlockPlan,
    table: &QuantileTable,
    cfg: &McConfig,
    chunk_index: u64,
    out: &mut [f64],
    scratch: &mut McScratch,
) {
    run_chunk_baseline(block, table, cfg, chunk_index, out, scratch);
}

/// The body of [`run_chunk`] for the build's baseline target. It and the
/// block kernel are `#[inline(always)]`, so that [`run_chunk_avx2`]
/// compiles their loops for AVX2.
#[inline(always)]
fn run_chunk_baseline(
    block: &BlockPlan,
    table: &QuantileTable,
    cfg: &McConfig,
    chunk_index: u64,
    out: &mut [f64],
    scratch: &mut McScratch,
) {
    let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, chunk_index));
    scratch.finish.resize(block.steps.len(), Row::default());
    for lanes_out in out.chunks_mut(BLOCK) {
        run_block(block, table, cfg.estimator, &mut rng, scratch, lanes_out);
    }
}

/// The block kernel: replays `out.len() ≤ BLOCK` realizations. Per lane
/// it performs exactly the ready-time recurrence of
/// [`EagerPlan::execute`] — a task becomes ready at the maximum of its
/// machine predecessor's finish and every `finish(u) + comm` arrival, and
/// finishes its duration later — and the makespan is the maximum over the
/// disjunctive sinks (every other finish is dominated by one of them).
/// Each uncertain duration row is drawn just before its only read.
#[inline(always)]
fn run_block(
    block: &BlockPlan,
    table: &QuantileTable,
    estimator: McEstimator,
    rng: &mut StdRng,
    scratch: &mut McScratch,
    out: &mut [f64],
) {
    let lanes = out.len();
    let McScratch {
        finish, row, perm, ..
    } = scratch;
    let row = &mut row.0[..lanes];
    let mut arc_start = 0usize;
    for (k, step) in block.steps.iter().enumerate() {
        // Every step this one reads comes earlier in topological order.
        let (done, rest) = finish.split_at_mut(k);
        let fv = &mut rest[0].0[..lanes];
        match step.prev {
            NO_PREV => fv.fill(0.0),
            p => fv.copy_from_slice(&done[p as usize].0[..lanes]),
        }
        let arcs = &block.arcs[arc_start..step.arcs_end as usize];
        arc_start = step.arcs_end as usize;
        // Branchless max (same value as execute()'s compare — durations
        // are never NaN).
        for arc in arcs {
            let fu = &done[arc.from as usize].0[..lanes];
            if arc.dur.draws() {
                draw_row(table, estimator, rng, arc.dur, perm, row);
                for ((f, &a), &d) in fv.iter_mut().zip(fu).zip(&*row) {
                    *f = f.max(a + d);
                }
            } else {
                let d = arc.dur.lo;
                for (f, &a) in fv.iter_mut().zip(fu) {
                    *f = f.max(a + d);
                }
            }
        }
        if step.dur.draws() {
            draw_row(table, estimator, rng, step.dur, perm, row);
            for (f, &d) in fv.iter_mut().zip(&*row) {
                *f += d;
            }
        } else {
            let d = step.dur.lo;
            for f in fv.iter_mut() {
                *f += d;
            }
        }
    }
    out.fill(0.0);
    for &s in &block.sinks {
        for (o, &f) in out.iter_mut().zip(&finish[s as usize].0[..lanes]) {
            *o = o.max(f);
        }
    }
}

/// Draws one uncertain slot's duration row, consuming the chunk RNG in the
/// estimator's canonical order.
#[inline(always)]
fn draw_row(
    table: &QuantileTable,
    estimator: McEstimator,
    rng: &mut StdRng,
    s: Slot,
    perm: &mut Vec<u32>,
    row: &mut [f64],
) {
    let lanes = row.len();
    match estimator {
        McEstimator::Standard => table.fill_row_u53(rng, s.lo, s.span, row),
        McEstimator::Antithetic => {
            let pairs = lanes / 2;
            for j in 0..pairs {
                let u = u01(rng);
                row[2 * j] = s.lo + s.span * table.quantile(u);
                row[2 * j + 1] = s.lo + s.span * table.quantile(1.0 - u);
            }
            if lanes % 2 == 1 {
                row[lanes - 1] = s.lo + s.span * table.quantile(u01(rng));
            }
        }
        McEstimator::Stratified => {
            // Random stratum permutation (Fisher–Yates off the chunk
            // stream), then one jittered sample per stratum.
            let inv = 1.0 / lanes as f64;
            perm.clear();
            perm.extend(0..lanes as u32);
            for i in (1..lanes).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                perm.swap(i, j);
            }
            for (x, &stratum) in row.iter_mut().zip(perm.iter()) {
                let u = (stratum as f64 + u01(rng)) * inv;
                *x = s.lo + s.span * table.quantile(u);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Evaluator;
    use robusched_dag::generators;
    use robusched_platform::{CostMatrix, Platform, UncertaintyModel};
    use robusched_sched::det_makespan;

    fn small_case() -> (Scenario, Schedule) {
        let s = Scenario::paper_random(12, 3, 1.1, 4);
        let sched = robusched_sched::heft(&s);
        (s, sched)
    }

    #[test]
    fn deterministic_scenario_constant_makespan() {
        let tg = generators::chain(4);
        let costs = CostMatrix::from_rows(4, 1, vec![5.0; 4]);
        let s = Scenario::new(
            tg,
            Platform::paper_default(1),
            costs,
            UncertaintyModel::none(),
        );
        let sched = Schedule::new(vec![0; 4], vec![vec![0, 1, 2, 3]]);
        let ms = mc_makespans(
            &s,
            &sched,
            &McConfig {
                realizations: 100,
                ..Default::default()
            },
            &SamplingTables::new(&s),
        );
        assert!(ms.iter().all(|&x| (x - 20.0).abs() < 1e-12));
    }

    #[test]
    fn bounded_by_min_and_max_durations() {
        let (s, sched) = small_case();
        let det = det_makespan(&s, &sched);
        for estimator in [
            McEstimator::Standard,
            McEstimator::Antithetic,
            McEstimator::Stratified,
        ] {
            let ms = mc_makespans(
                &s,
                &sched,
                &McConfig {
                    realizations: 2_000,
                    estimator,
                    ..Default::default()
                },
                &SamplingTables::new(&s),
            );
            for &x in &ms {
                assert!(x >= det - 1e-9, "realization {x} below deterministic {det}");
                // Eager execution order fixed ⇒ every realization within
                // UL× of a generous upper envelope.
                assert!(x <= det * s.uncertainty.ul + det, "unreasonably large {x}");
            }
        }
    }

    #[test]
    fn deterministic_across_thread_counts_all_estimators() {
        let (s, sched) = small_case();
        for estimator in [
            McEstimator::Standard,
            McEstimator::Antithetic,
            McEstimator::Stratified,
        ] {
            let run = |threads: usize| {
                mc_makespans(
                    &s,
                    &sched,
                    &McConfig {
                        realizations: 5_000,
                        seed: 9,
                        threads: Some(threads),
                        estimator,
                    },
                    &SamplingTables::new(&s),
                )
            };
            let a = run(1);
            let b = run(4);
            assert_eq!(a, b, "{estimator:?}: thread count changed the stream");
        }
    }

    #[test]
    fn stale_tables_fall_back_to_fresh_ones() {
        let (s, sched) = small_case();
        let cfg = McConfig {
            realizations: 3_000,
            seed: 5,
            threads: Some(2),
            ..Default::default()
        };
        let a = mc_makespans(&s, &sched, &cfg, &SamplingTables::new(&s));
        // Mismatched tables fall back safely (deterministic family ≠ Beta).
        let mut det = s.clone();
        det.uncertainty = UncertaintyModel::none();
        let stale = SamplingTables::new(&det);
        let c = mc_makespans(&s, &sched, &cfg, &stale);
        assert_eq!(a, c);
    }

    #[test]
    fn matches_classic_mean_on_chain() {
        // On a chain the classic evaluator is exact: MC must agree.
        let tg = generators::chain(5);
        let costs = CostMatrix::from_rows(5, 1, vec![10.0; 5]);
        let s = Scenario::new(
            tg,
            Platform::paper_default(1),
            costs,
            UncertaintyModel::paper(1.2),
        );
        let sched = Schedule::new(vec![0; 5], vec![vec![0, 1, 2, 3, 4]]);
        let cl = crate::ClassicEvaluator::default().evaluate(&s, &sched);
        for estimator in [
            McEstimator::Standard,
            McEstimator::Antithetic,
            McEstimator::Stratified,
        ] {
            let ms = mc_makespans(
                &s,
                &sched,
                &McConfig {
                    realizations: 50_000,
                    estimator,
                    ..Default::default()
                },
                &SamplingTables::new(&s),
            );
            let mc_mean = ms.iter().sum::<f64>() / ms.len() as f64;
            assert!(
                (mc_mean - cl.mean()).abs() < 0.02,
                "{estimator:?}: MC {mc_mean} vs classic {}",
                cl.mean()
            );
        }
    }

    #[test]
    fn variance_reduction_tightens_the_mean() {
        // Replicated mean estimates: both variance-reduced estimators must
        // have lower spread than the plain one on the same budget.
        let (s, sched) = small_case();
        let spread = |estimator: McEstimator| {
            let means: Vec<f64> = (0..24)
                .map(|rep| {
                    let ms = mc_makespans(
                        &s,
                        &sched,
                        &McConfig {
                            realizations: 512,
                            seed: derive_seed(77, rep),
                            threads: Some(1),
                            estimator,
                        },
                        &SamplingTables::new(&s),
                    );
                    ms.iter().sum::<f64>() / ms.len() as f64
                })
                .collect();
            let m = means.iter().sum::<f64>() / means.len() as f64;
            means.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / means.len() as f64
        };
        let plain = spread(McEstimator::Standard);
        let anti = spread(McEstimator::Antithetic);
        let strat = spread(McEstimator::Stratified);
        assert!(anti < plain, "antithetic {anti} vs plain {plain}");
        assert!(strat < plain, "stratified {strat} vs plain {plain}");
    }

    /// The AVX2 copy of the block kernel against its baseline body, for
    /// every estimator, on full, partial and odd-width blocks. The copy is
    /// reached through the dispatcher, which picks it whenever the CPU has
    /// AVX2; the baseline body is called directly. (Both fill their rows
    /// through `QuantileTable::fill_row_u53`, whose two copies
    /// `robusched-randvar` compares.)
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_kernel_matches_baseline_bitwise() {
        if !std::is_x86_feature_detected!("avx2") {
            println!("skipped: this CPU has no AVX2, so only the baseline path runs");
            return;
        }
        let base = Scenario::paper_random(30, 4, 1.3, 6);
        let uls = (0..30)
            .map(|v| if v % 4 == 0 { 1.0 } else { 1.3 })
            .collect();
        let s = base.with_per_task_ul(uls);
        let sched = robusched_sched::random_schedule(&s.graph.dag, 4, 2);
        let plan = EagerPlan::new(&s.graph.dag, &sched).unwrap();
        let block = BlockPlan::new(&s, &sched, &plan);
        let tables = SamplingTables::new(&s);
        let table = tables.base().unwrap();
        for estimator in [
            McEstimator::Standard,
            McEstimator::Antithetic,
            McEstimator::Stratified,
        ] {
            let cfg = McConfig {
                seed: 3,
                estimator,
                ..Default::default()
            };
            for len in [CHUNK, 3 * BLOCK + 5, 7] {
                let (mut avx2, mut base) = (vec![0.0; len], vec![0.0; len]);
                run_chunk(&block, table, &cfg, 2, &mut avx2, &mut McScratch::default());
                run_chunk_baseline(&block, table, &cfg, 2, &mut base, &mut McScratch::default());
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&avx2), bits(&base), "{estimator:?}, {len} lanes");
            }
        }
    }

    #[test]
    fn seed_changes_stream() {
        let (s, sched) = small_case();
        let run = |seed: u64| {
            mc_makespans(
                &s,
                &sched,
                &McConfig {
                    realizations: 100,
                    seed,
                    threads: Some(1),
                    ..Default::default()
                },
                &SamplingTables::new(&s),
            )
        };
        assert_ne!(run(1), run(2));
    }
}
