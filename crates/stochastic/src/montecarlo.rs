//! The Monte-Carlo realization engine — the study's ground truth.
//!
//! §V of the paper: the analytic distribution's accuracy "was measured for
//! the worst cases … by running 100 000 realizations" (Fig. 1, Fig. 2).
//!
//! Each realization samples every task duration and every communication
//! delay, then replays the eager schedule. The engine is *batched*: instead
//! of one scalar replay per realization, it fills a `[slot × realization]`
//! duration matrix block-at-a-time (256 realizations per block) through the
//! shared inverse-CDF table and hands the whole block to the
//! structure-of-arrays kernel [`EagerPlan::replay_block`]. Four design
//! points keep it fast and reproducible:
//!
//! * **shared quantile tables** — all uncertain weights are the same base
//!   shape (Beta(2, 5)) rescaled affinely, so the per-scenario
//!   [`SamplingTables`] turn every draw into `lo + span·Q(u)`: a table
//!   lookup, not a root find. Build them once per scenario
//!   (`Evaluator::prepare`) and pass them to every [`mc_makespans`] call;
//! * **compiled plan** — the disjunctive topological order and a *draw
//!   program* (the uncertain slots, in a fixed canonical order) are
//!   computed once per schedule; a realization block is then pure
//!   streaming arithmetic;
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
//! matrix is filled slot-major — all lanes of a slot before the next slot —
//! which permutes *where* the sequential uniforms land but is part of the
//! same fixed contract.

use crate::cache::SamplingTables;
use crate::par::{par_map, worker_count};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use robusched_platform::Scenario;
use robusched_randvar::{derive_seed, QuantileTable};
use robusched_sched::{EagerPlan, ReplayScratch, Schedule};

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

/// Realizations per SoA fill/replay block (fixed: the duration matrix of a
/// block stays cache-resident; divides [`CHUNK`] so blocks never straddle a
/// seeding boundary). Public for the same reason as [`CHUNK`]: the
/// slot-major fill order within a block is part of the draw contract.
pub const BLOCK: usize = 256;

// Blocks must tile chunks exactly or the per-chunk RNG stream would depend
// on where a chunk boundary falls.
const _: () = assert!(CHUNK.is_multiple_of(BLOCK));

/// Reusable per-worker state of the batched engine: the `[slot × lane]`
/// duration matrix, the replay scratch, the stratification permutation and
/// the sample buffer. One per worker thread (or per
/// [`EvalContext`](crate::EvalContext)), reused across blocks, chunks and
/// schedules — steady-state evaluations allocate nothing.
#[derive(Debug, Default)]
pub(crate) struct McScratch {
    /// Task rows followed by edge rows, `BLOCK` lanes each.
    dur: Vec<f64>,
    replay: ReplayScratch,
    perm: Vec<u32>,
    pub(crate) samples: Vec<f64>,
}

/// One uncertain slot of the draw program: the row it fills and the affine
/// transform of the shared base quantile.
#[derive(Debug, Clone, Copy)]
struct ProgSlot {
    /// Row index into the combined duration matrix (`< n` task, else edge).
    row: u32,
    lo: f64,
    span: f64,
}

/// Precompiled sampling plan: the uncertain slots in canonical draw order
/// plus the constant value of every deterministic row.
struct SamplingPlan {
    /// Uncertain slots in draw order (topo order; edges before their task).
    program: Vec<ProgSlot>,
    /// `lo` per row of the combined matrix (the constant prefill).
    row_lo: Vec<f64>,
    tasks: usize,
    edges: usize,
}

impl SamplingPlan {
    fn new(scenario: &Scenario, schedule: &Schedule, plan: &EagerPlan) -> Self {
        let dag = &scenario.graph.dag;
        let n = scenario.task_count();
        let e = dag.edge_count();
        let ul = scenario.uncertainty.ul;
        let mut row_lo = vec![0.0f64; n + e];
        for (v, lo) in row_lo.iter_mut().enumerate().take(n) {
            *lo = scenario.det_task_cost(v, schedule.machine_of(v));
        }
        for (u, v, edge) in dag.edge_triples() {
            row_lo[n + edge] =
                scenario.det_comm_cost(edge, schedule.machine_of(u), schedule.machine_of(v));
        }
        let mut program = Vec::new();
        for &v in plan.topo_order() {
            for &(_, edge) in dag.preds(v) {
                let lo = row_lo[n + edge];
                let span = (ul - 1.0) * lo;
                if span > 0.0 {
                    program.push(ProgSlot {
                        row: (n + edge) as u32,
                        lo,
                        span,
                    });
                }
            }
            let lo = row_lo[v];
            // Per-task UL (variable-UL extension) when installed.
            let span = (scenario.task_ul(v) - 1.0) * lo;
            if span > 0.0 {
                program.push(ProgSlot {
                    row: v as u32,
                    lo,
                    span,
                });
            }
        }
        Self {
            program,
            row_lo,
            tasks: n,
            edges: e,
        }
    }
}

/// 53-bit uniform in `[0, 1)` on the concrete chunk RNG (monomorphic, so
/// the fill loops inline it — the `dyn RngCore` version costs a virtual
/// call per draw).
#[inline]
fn u01(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The same 53 uniform bits, kept as an integer for
/// [`QuantileTable::quantile_u53`]. One `u53` draw consumes exactly one
/// `next_u64`, like [`u01`], so the estimators can mix both forms on one
/// stream (`quantile_u53(b)` ≡ `quantile(b·2⁻⁵³)` bit-for-bit).
#[inline]
fn u53(rng: &mut StdRng) -> u64 {
    rng.next_u64() >> 11
}

/// Shared per-call setup of both entry points: validates the budget and
/// compiles the replay plan + draw program. Keeping this single keeps
/// [`mc_makespans`] and the evaluator's path behaviorally identical by
/// construction.
fn compile_plan(
    scenario: &Scenario,
    schedule: &Schedule,
    cfg: &McConfig,
) -> (EagerPlan, SamplingPlan) {
    assert!(cfg.realizations > 0, "need at least one realization");
    let plan = EagerPlan::new(&scenario.graph.dag, schedule).expect("invalid schedule");
    let sampling = SamplingPlan::new(scenario, schedule, &plan);
    (plan, sampling)
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
    let dag = &scenario.graph.dag;
    let (plan, sampling) = compile_plan(scenario, schedule, cfg);
    let Some(table) = tables.base() else {
        return vec![deterministic_makespan(scenario, &plan, &sampling); cfg.realizations];
    };
    let mut out = Vec::with_capacity(cfg.realizations);
    par_map(
        cfg.realizations.div_ceil(CHUNK),
        worker_count(cfg.threads),
        || {
            let mut scratch = McScratch::default();
            prepare_matrix(&mut scratch, &sampling);
            scratch
        },
        |scratch, c| {
            let mut chunk = vec![0.0f64; CHUNK.min(cfg.realizations - c * CHUNK)];
            run_chunk(
                dag, &plan, &sampling, table, cfg, c as u64, &mut chunk, scratch,
            );
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
    let dag = &scenario.graph.dag;
    let (plan, sampling) = compile_plan(scenario, schedule, cfg);
    match tables.base() {
        None => out.fill(deterministic_makespan(scenario, &plan, &sampling)),
        Some(table) => {
            prepare_matrix(scratch, &sampling);
            for (idx, slice) in out.chunks_mut(CHUNK).enumerate() {
                run_chunk(
                    dag, &plan, &sampling, table, cfg, idx as u64, slice, scratch,
                );
            }
        }
    }
}

/// The deterministic limit: every realization is the same replay of the
/// minimum durations.
fn deterministic_makespan(scenario: &Scenario, plan: &EagerPlan, sampling: &SamplingPlan) -> f64 {
    let n = sampling.tasks;
    plan.execute(
        &scenario.graph.dag,
        |v| sampling.row_lo[v],
        |e, _, _| sampling.row_lo[n + e],
    )
    .makespan
}

/// Sizes the combined duration matrix and prefills every row with its
/// deterministic `lo` (uncertain rows are overwritten block by block; rows
/// with zero span keep the constant).
fn prepare_matrix(scratch: &mut McScratch, sampling: &SamplingPlan) {
    let rows = sampling.tasks + sampling.edges;
    scratch.dur.clear();
    scratch.dur.resize(rows * BLOCK, 0.0);
    for (row, &lo) in sampling.row_lo.iter().enumerate() {
        scratch.dur[row * BLOCK..(row + 1) * BLOCK].fill(lo);
    }
}

/// One seeding chunk: fill and replay `BLOCK`-wide sub-blocks with the
/// chunk's private RNG stream.
#[allow(clippy::too_many_arguments)]
fn run_chunk(
    dag: &robusched_dag::Dag,
    plan: &EagerPlan,
    sampling: &SamplingPlan,
    table: &QuantileTable,
    cfg: &McConfig,
    chunk_index: u64,
    out: &mut [f64],
    scratch: &mut McScratch,
) {
    let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, chunk_index));
    let split = sampling.tasks * BLOCK;
    for block in out.chunks_mut(BLOCK) {
        let lanes = block.len();
        fill_block(sampling, table, cfg.estimator, &mut rng, lanes, scratch);
        let (task_dur, comm_dur) = scratch.dur.split_at(split);
        plan.replay_block(
            dag,
            task_dur,
            comm_dur,
            BLOCK,
            lanes,
            &mut scratch.replay,
            block,
        );
    }
}

/// Fills the uncertain rows of the duration matrix for one block, slot by
/// slot, consuming the chunk RNG in the canonical order of the estimator.
fn fill_block(
    sampling: &SamplingPlan,
    table: &QuantileTable,
    estimator: McEstimator,
    rng: &mut StdRng,
    lanes: usize,
    scratch: &mut McScratch,
) {
    match estimator {
        McEstimator::Standard => {
            for s in &sampling.program {
                let row = &mut scratch.dur[s.row as usize * BLOCK..][..lanes];
                for x in row {
                    *x = s.lo + s.span * table.quantile_u53(u53(rng));
                }
            }
        }
        McEstimator::Antithetic => {
            for s in &sampling.program {
                let row = &mut scratch.dur[s.row as usize * BLOCK..][..lanes];
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
        }
        McEstimator::Stratified => {
            let inv = 1.0 / lanes as f64;
            for s in &sampling.program {
                // Random stratum permutation (Fisher–Yates off the chunk
                // stream), then one jittered sample per stratum.
                let perm = &mut scratch.perm;
                perm.clear();
                perm.extend(0..lanes as u32);
                for i in (1..lanes).rev() {
                    let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                    perm.swap(i, j);
                }
                let row = &mut scratch.dur[s.row as usize * BLOCK..][..lanes];
                for (x, &stratum) in row.iter_mut().zip(perm.iter()) {
                    let u = (stratum as f64 + u01(rng)) * inv;
                    *x = s.lo + s.span * table.quantile(u);
                }
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
