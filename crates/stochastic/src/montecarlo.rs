//! The Monte-Carlo realization engine — the study's ground truth.
//!
//! §V of the paper: the analytic distribution's accuracy "was measured for
//! the worst cases … by running 100 000 realizations" (Fig. 1, Fig. 2).
//!
//! Each realization samples every task duration and every communication
//! delay, then replays the eager schedule. The engine is *batched*: one
//! block kernel runs a block of 256 realizations of a chunk at once as
//! structure-of-arrays rows. It walks the plan's disjunctive topological
//! order and, for every uncertain task or edge, draws that slot's duration
//! row through the shared inverse-CDF table just before the replay reads
//! it. Finish rows live in a small pool: each step writes a free row, a
//! row is freed after its last reader, and each disjunctive sink folds
//! into the output row as soon as it is computed, so only the live rows,
//! the duration row and the output row take memory (19 to 27 finish rows
//! for the 104 tasks of the fig5 case). Five design points keep it fast
//! and reproducible:
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
//!   [`par_map`] workers claim passes of one or four chunks and deliver
//!   them in chunk order, so results are bit-identical for any thread
//!   count (per estimator);
//! * **four chunks per pass** — on a CPU with AVX2 the Standard
//!   estimator runs its full chunks four at a time, over 1024-lane rows
//!   that interleave them (lane `4k + l` is lane `k` of the `l`-th chunk).
//!   [`QuantileTable::fill_row_x4_u53`] advances the four chunks'
//!   xoshiro256++ generators in the four lanes of AVX2 vectors
//!   ([`StdRngX4`]), so each chunk's generator yields its words in the
//!   order a chunk of its own would draw them and every lane runs the
//!   same replay: the samples do not change. Leftover full chunks, a
//!   partial last chunk, the other estimators (whose draws are not one
//!   word per lane) and other CPUs run one chunk per pass through the
//!   same kernel;
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
//! On an x86-64 CPU with AVX2 each pass runs a copy of the kernel
//! compiled for 256-bit vectors, chosen on each call, and the Standard
//! estimator's rows come from the row fills' four-wide copies. Every copy
//! performs the same IEEE operations in the same order, so the samples do
//! not depend on the CPU.

use crate::cache::SamplingTables;
use crate::par::{par_map, worker_count};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use robusched_platform::Scenario;
use robusched_randvar::{derive_seed, uniform01_word, QuantileTable, StdRngX4};
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

/// Realizations per block of one chunk (fixed: divides [`CHUNK`] so blocks
/// never straddle a seeding boundary). Public for the same reason as
/// [`CHUNK`]: the slot-major draw order within a block is part of the draw
/// contract. A kernel row holds one block of one chunk, or one block of
/// each of four chunks side by side.
pub const BLOCK: usize = 256;

// Blocks must tile chunks exactly or the per-chunk RNG stream would depend
// on where a chunk boundary falls.
const _: () = assert!(CHUNK.is_multiple_of(BLOCK));

/// Lanes of a kernel row: a block of each of four chunks, interleaved.
const ROW: usize = 4 * BLOCK;

/// One kernel row, aligned to a cache line so that its vector loads never
/// straddle two.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct Row([f64; ROW]);

impl Default for Row {
    fn default() -> Self {
        Self([0.0; ROW])
    }
}

/// The pool rows before the [`BlockPlan`] slots: the duration row each
/// draw fills (row 0), and the output row the sinks fold into.
const OUT_ROW: usize = 1;
const SLOTS_START: usize = 2;

/// Reusable per-worker state of the batched engine: the row pool (the
/// duration row, the output row, then one row per [`BlockPlan`] slot), the
/// stratification permutation and the sample buffer. One per worker thread
/// (or per [`EvalContext`](crate::EvalContext)), reused across blocks,
/// chunks and schedules — steady-state evaluations allocate nothing.
#[derive(Debug, Default)]
pub(crate) struct McScratch {
    pool: Vec<Row>,
    perm: Vec<u32>,
    pub(crate) samples: Vec<f64>,
}

/// `pool`, grown in one allocation to hold `block`'s slots and at least
/// `⌈n/4⌉` of them, so that schedules of the same scenario rarely grow it
/// again.
fn pool_for<'a>(pool: &'a mut Vec<Row>, block: &BlockPlan) -> &'a mut [Row] {
    let rows = SLOTS_START + block.rows.max(block.steps.len().div_ceil(4));
    if pool.len() < rows {
        pool.reserve_exact(rows - pool.len());
        pool.resize(rows, Row::default());
    }
    pool
}

/// The duration of one task or edge: `lo + span·Q(u)` when `span > 0`,
/// the constant `lo` otherwise (such a slot draws nothing). `(lo, span)`
/// is the scenario's draw rule, `Scenario::task_affine`/`comm_affine`.
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

/// One incoming DAG edge of a replay step: the pool slot of the
/// predecessor's finish row and the edge's duration.
#[derive(Debug, Clone, Copy)]
struct InArc {
    from: u32,
    dur: Slot,
}

/// One task of the replay, in topological order.
#[derive(Debug, Clone, Copy)]
struct Step {
    /// Slot of the finish row of the task before this one on its machine,
    /// or [`NO_PREV`].
    prev: u32,
    /// End of this step's incoming arcs in [`BlockPlan::arcs`]; they start
    /// where the previous step's arcs end.
    arcs_end: u32,
    dur: Slot,
    /// Slot this step writes its finish row to; never one that it reads.
    slot: u32,
    /// A disjunctive sink: its finish row folds into the output row.
    sink: bool,
}

const NO_PREV: u32 = u32::MAX;

/// A schedule compiled for the block kernel: replay steps in the plan's
/// disjunctive topological order with their arcs in predecessor-list
/// order, so that walking steps and arcs in order visits the uncertain
/// slots in canonical draw order. Steps name finish rows by pool slot: a
/// slot is taken by the step that writes it and freed after its last
/// reader, so only the live rows need memory.
struct BlockPlan {
    steps: Vec<Step>,
    arcs: Vec<InArc>,
    /// Pool slots the steps use, at most one per step.
    rows: usize,
}

impl BlockPlan {
    fn new(scenario: &Scenario, schedule: &Schedule, plan: &EagerPlan) -> Self {
        let dag = &scenario.graph.dag;
        let order = plan.topo_order();
        let mut step_of = vec![0u32; order.len()];
        for (k, &v) in order.iter().enumerate() {
            step_of[v] = k as u32;
        }
        let mut arcs = Vec::with_capacity(dag.edge_count());
        let mut steps: Vec<Step> = order
            .iter()
            .map(|&v| {
                let m = schedule.machine_of(v);
                for &(u, edge) in dag.preds(v) {
                    let (lo, span) = scenario.comm_affine(edge, schedule.machine_of(u), m);
                    arcs.push(InArc {
                        from: step_of[u],
                        dur: Slot { lo, span },
                    });
                }
                let (lo, span) = scenario.task_affine(v, m);
                Step {
                    prev: plan.prev_on_proc()[v].map_or(NO_PREV, |u| step_of[u]),
                    arcs_end: arcs.len() as u32,
                    dur: Slot { lo, span },
                    slot: 0,
                    sink: false,
                }
            })
            .collect();
        for &v in plan.disjunctive_sinks() {
            steps[step_of[v] as usize].sink = true;
        }
        let rows = assign_slots(&mut steps, &mut arcs);
        Self { steps, arcs, rows }
    }
}

/// Gives every step a pool slot for its finish row and rewrites the steps'
/// `prev` and the arcs' `from` from step positions to slots. A step takes a
/// free slot before it runs, and the slots of the steps it was the last to
/// read are freed after it ran (its own right away when nothing reads it,
/// as for a sink), so a step never writes a slot that it reads. Returns
/// the number of slots used.
fn assign_slots(steps: &mut [Step], arcs: &mut [InArc]) -> usize {
    const FREED: u32 = u32::MAX;
    // The last step that reads each step's row (itself when none does).
    let mut last_read: Vec<u32> = (0..steps.len() as u32).collect();
    let mut arc_start = 0;
    for (k, step) in steps.iter().enumerate() {
        let reads = arcs[arc_start..step.arcs_end as usize]
            .iter()
            .map(|a| a.from);
        for r in reads.chain((step.prev != NO_PREV).then_some(step.prev)) {
            last_read[r as usize] = k as u32;
        }
        arc_start = step.arcs_end as usize;
    }
    let mut slot_of = vec![0u32; steps.len()];
    let mut free = Vec::new();
    let mut rows = 0u32;
    let mut arc_start = 0;
    for (k, step) in steps.iter_mut().enumerate() {
        let slot = free.pop().unwrap_or_else(|| {
            rows += 1;
            rows - 1
        });
        slot_of[k] = slot;
        let mut read = |r: u32| {
            if last_read[r as usize] == k as u32 {
                free.push(slot_of[r as usize]);
                last_read[r as usize] = FREED;
            }
            slot_of[r as usize]
        };
        for arc in &mut arcs[arc_start..step.arcs_end as usize] {
            arc.from = read(arc.from);
        }
        if step.prev != NO_PREV {
            step.prev = read(step.prev);
        }
        step.slot = slot;
        if last_read[k] == k as u32 {
            free.push(slot);
        }
        arc_start = step.arcs_end as usize;
    }
    rows as usize
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
    let passes: Vec<(Pass, usize)> = passes(cfg).collect();
    let mut out = Vec::with_capacity(cfg.realizations);
    par_map(
        passes.len(),
        worker_count(cfg.threads),
        McScratch::default,
        |scratch, i| {
            let (pass, len) = passes[i];
            let mut samples = vec![0.0f64; len];
            run_pass(&block, table, cfg, pass, &mut samples, scratch);
            samples
        },
        |_, samples| out.extend_from_slice(&samples),
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
            let mut rest = out;
            for (pass, len) in passes(cfg) {
                let (samples, tail) = rest.split_at_mut(len);
                run_pass(&block, table, cfg, pass, samples, scratch);
                rest = tail;
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

/// A unit of the engine's work: one seeding chunk, or four full chunks
/// drawn together (the first one's index given).
#[derive(Debug, Clone, Copy)]
enum Pass {
    One(u64),
    Four(u64),
}

/// A call's passes in chunk order, with their realization counts. The
/// Standard estimator runs its full chunks four at a time; leftover full
/// chunks, a partial last chunk and the other estimators, whose draws are
/// not one word per lane, run one chunk at a time.
fn passes(cfg: &McConfig) -> impl Iterator<Item = (Pass, usize)> {
    let n = cfg.realizations;
    let quads = match cfg.estimator {
        McEstimator::Standard => n / CHUNK / 4,
        McEstimator::Antithetic | McEstimator::Stratified => 0,
    };
    let fours = (0..quads).map(|q| (Pass::Four(4 * q as u64), 4 * CHUNK));
    let ones = (4 * quads..n.div_ceil(CHUNK))
        .map(move |c| (Pass::One(c as u64), CHUNK.min(n - c * CHUNK)));
    fours.chain(ones)
}

/// The seeding chunk `c`'s generator.
fn chunk_rng(seed: u64, c: u64) -> StdRng {
    StdRng::seed_from_u64(derive_seed(seed, c))
}

/// Runs one pass into `out` (its realizations, in chunk order). On an
/// x86-64 CPU with AVX2 this runs a copy compiled for 256-bit vectors,
/// chosen on each call; the copies perform the same IEEE operations in the
/// same order, so their samples are bit-identical.
fn run_pass(
    block: &BlockPlan,
    table: &QuantileTable,
    cfg: &McConfig,
    pass: Pass,
    out: &mut [f64],
    scratch: &mut McScratch,
) {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: `run_pass_avx2` only requires AVX2, and the line above
        // checked that the running CPU has it.
        return unsafe { run_pass_avx2(block, table, cfg, pass, out, scratch) };
    }
    run_pass_baseline(block, table, cfg, pass, out, scratch);
}

/// [`run_pass_baseline`] compiled for AVX2. Rust never contracts a
/// multiply and an add into an FMA, nor reorders float operations, so the
/// wider vectors change the speed and not a bit of the samples.
///
/// # Safety
/// Callers without AVX2 enabled must call this through `unsafe` and only
/// after checking that the running CPU has AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_pass_avx2(
    block: &BlockPlan,
    table: &QuantileTable,
    cfg: &McConfig,
    pass: Pass,
    out: &mut [f64],
    scratch: &mut McScratch,
) {
    run_pass_baseline(block, table, cfg, pass, out, scratch);
}

/// The body of [`run_pass`] for the build's baseline target. It and the
/// block kernel are `#[inline(always)]`, so that [`run_pass_avx2`] compiles
/// their loops for AVX2. Without AVX2 there is no lockstep generator, and a
/// four-chunk pass runs its chunks one after another.
#[inline(always)]
fn run_pass_baseline(
    block: &BlockPlan,
    table: &QuantileTable,
    cfg: &McConfig,
    pass: Pass,
    out: &mut [f64],
    scratch: &mut McScratch,
) {
    let McScratch { pool, perm, .. } = scratch;
    let pool = pool_for(pool, block);
    match pass {
        Pass::One(c) => {
            let rng = chunk_rng(cfg.seed, c);
            run_chunk(block, table, cfg.estimator, rng, out, pool, perm);
        }
        Pass::Four(first) => {
            let rngs = [0, 1, 2, 3].map(|l| chunk_rng(cfg.seed, first + l));
            match StdRngX4::new(&rngs) {
                Some(rng) => run_four_chunks(block, table, rng, out, pool),
                None => {
                    for (rng, out) in rngs.into_iter().zip(out.chunks_mut(CHUNK)) {
                        run_chunk(block, table, cfg.estimator, rng, out, pool, perm);
                    }
                }
            }
        }
    }
}

/// Four full chunks of the Standard estimator as one: each block's rows
/// hold 256 lanes of every chunk, lane `k` of chunk `l` at `4k + l`, drawn
/// by [`QuantileTable::fill_row_x4_u53`] from the four chunks' generators
/// in lockstep. Every chunk's generator thus yields its words in the order
/// [`run_chunk`] draws them, and every lane runs the same replay, so the
/// samples are the same.
#[inline(always)]
fn run_four_chunks(
    block: &BlockPlan,
    table: &QuantileTable,
    mut rng: StdRngX4,
    out: &mut [f64],
    pool: &mut [Row],
) {
    for b in 0..CHUNK / BLOCK {
        run_block(block, ROW, pool, |s, row| {
            table.fill_row_x4_u53(&mut rng, s.lo, s.span, row)
        });
        let lanes = &pool[OUT_ROW].0;
        for (l, chunk) in out.chunks_exact_mut(CHUNK).enumerate() {
            let block_out = &mut chunk[b * BLOCK..][..BLOCK];
            for (o, x) in block_out.iter_mut().zip(lanes.chunks_exact(4)) {
                *o = x[l];
            }
        }
    }
}

/// One seeding chunk from its generator, `BLOCK` realizations at a time.
#[inline(always)]
fn run_chunk(
    block: &BlockPlan,
    table: &QuantileTable,
    estimator: McEstimator,
    mut rng: StdRng,
    out: &mut [f64],
    pool: &mut [Row],
    perm: &mut Vec<u32>,
) {
    for lanes_out in out.chunks_mut(BLOCK) {
        let lanes = lanes_out.len();
        run_block(block, lanes, pool, |s, row| {
            draw_row(table, estimator, &mut rng, s, perm, row)
        });
        lanes_out.copy_from_slice(&pool[OUT_ROW].0[..lanes]);
    }
}

/// The block kernel: replays `lanes` realizations into the output row.
/// Per lane it performs exactly the ready-time recurrence of
/// [`EagerPlan::execute`] — a task becomes ready at the maximum of its
/// machine predecessor's finish and every `finish(u) + comm` arrival, and
/// finishes its duration later — and the makespan is the maximum over the
/// disjunctive sinks (every other finish is dominated by one of them),
/// folded in as each sink finishes. `draw` fills the duration row of an
/// uncertain slot, just before its only read.
#[inline(always)]
fn run_block<D: FnMut(Slot, &mut [f64])>(
    block: &BlockPlan,
    lanes: usize,
    pool: &mut [Row],
    mut draw: D,
) {
    let (io, live) = pool.split_at_mut(SLOTS_START);
    let [row, out] = io else {
        unreachable!("the duration and output rows come first")
    };
    let (row, out) = (&mut row.0[..lanes], &mut out.0[..lanes]);
    out.fill(0.0);
    let mut arc_start = 0usize;
    for step in &block.steps {
        let slot = step.slot as usize;
        match step.prev {
            NO_PREV => live[slot].0[..lanes].fill(0.0),
            p => {
                let (fv, fp) = write_and_read(live, slot, p, lanes);
                fv.copy_from_slice(fp);
            }
        }
        let arcs = &block.arcs[arc_start..step.arcs_end as usize];
        arc_start = step.arcs_end as usize;
        // Branchless max (same value as execute()'s compare — durations
        // are never NaN).
        for arc in arcs {
            let (fv, fu) = write_and_read(live, slot, arc.from, lanes);
            if arc.dur.draws() {
                draw(arc.dur, row);
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
        let fv = &mut live[slot].0[..lanes];
        if step.dur.draws() {
            draw(step.dur, row);
            for (f, &d) in fv.iter_mut().zip(&*row) {
                *f += d;
            }
        } else {
            let d = step.dur.lo;
            for f in fv.iter_mut() {
                *f += d;
            }
        }
        if step.sink {
            for (o, &f) in out.iter_mut().zip(&*fv) {
                *o = o.max(f);
            }
        }
    }
}

/// The first `lanes` of the row a step writes (`slot`) and of a row it
/// reads (`from`), never the same slot.
#[inline(always)]
fn write_and_read(live: &mut [Row], slot: usize, from: u32, lanes: usize) -> (&mut [f64], &[f64]) {
    let [fv, fu] = live
        .get_disjoint_mut([slot, from as usize])
        .expect("a step never writes a slot it reads");
    (&mut fv.0[..lanes], &fu.0[..lanes])
}

/// Draws one uncertain slot's duration row, consuming the chunk RNG in the
/// estimator's canonical order. Each uniform consumes one `next_u64`, like
/// the `u53` draws of [`QuantileTable::fill_row_u53`], and
/// `quantile(uniform01_word(w))` is bit for bit `quantile_u53(w >> 11)`.
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
                let u = uniform01_word(rng.next_u64());
                row[2 * j] = s.lo + s.span * table.quantile(u);
                row[2 * j + 1] = s.lo + s.span * table.quantile(1.0 - u);
            }
            if lanes % 2 == 1 {
                row[lanes - 1] = s.lo + s.span * table.quantile(uniform01_word(rng.next_u64()));
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
                let u = (stratum as f64 + uniform01_word(rng.next_u64())) * inv;
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

    /// The AVX2 copy of the kernel against its baseline body, for every
    /// estimator, on full, partial and odd-width blocks of one chunk and on
    /// a four-chunk pass. The copy is reached through the dispatcher, which
    /// picks it whenever the CPU has AVX2; the baseline body is called
    /// directly. (Both fill their rows through `QuantileTable`'s row
    /// entry points, whose copies `robusched-randvar` compares.)
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
            let passes = [CHUNK, 3 * BLOCK + 5, 7]
                .map(|len| (Pass::One(2), len))
                .into_iter()
                .chain((estimator == McEstimator::Standard).then_some((Pass::Four(4), 4 * CHUNK)));
            for (pass, len) in passes {
                let (mut avx2, mut base) = (vec![0.0; len], vec![0.0; len]);
                run_pass(
                    &block,
                    table,
                    &cfg,
                    pass,
                    &mut avx2,
                    &mut McScratch::default(),
                );
                run_pass_baseline(
                    &block,
                    table,
                    &cfg,
                    pass,
                    &mut base,
                    &mut McScratch::default(),
                );
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&avx2),
                    bits(&base),
                    "{estimator:?}, {pass:?}, {len} lanes"
                );
            }
        }
    }

    /// The engine against the single-chunk path run chunk by chunk, for
    /// all three estimators at 1–3 threads and through the serial entry
    /// point, on budgets around the four-chunk boundaries. A quarter of
    /// the tasks have UL 1 and draw nothing. On a CPU with AVX2 the
    /// Standard estimator's full chunks run four at a time.
    #[test]
    fn avx2_four_chunk_passes_match_the_single_chunk_path() {
        let base = Scenario::paper_random(12, 3, 1.3, 8);
        let uls = (0..12)
            .map(|v| if v % 4 == 1 { 1.0 } else { 1.3 })
            .collect();
        let s = base.with_per_task_ul(uls);
        let sched = robusched_sched::random_schedule(&s.graph.dag, 3, 5);
        let plan = EagerPlan::new(&s.graph.dag, &sched).unwrap();
        let block = BlockPlan::new(&s, &sched, &plan);
        let tables = SamplingTables::new(&s);
        let table = tables.base().unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut reused = McScratch::default();
        for estimator in [
            McEstimator::Standard,
            McEstimator::Antithetic,
            McEstimator::Stratified,
        ] {
            for realizations in [1, 2047, 8191, 8192, 8193, 10_000, 18_449] {
                let cfg = McConfig {
                    realizations,
                    seed: 11,
                    threads: None,
                    estimator,
                };
                let mut want = vec![0.0; realizations];
                for (c, chunk) in want.chunks_mut(CHUNK).enumerate() {
                    let pass = Pass::One(c as u64);
                    run_pass(&block, table, &cfg, pass, chunk, &mut McScratch::default());
                }
                for threads in 1..=3 {
                    let cfg = McConfig {
                        threads: Some(threads),
                        ..cfg.clone()
                    };
                    let got = mc_makespans(&s, &sched, &cfg, &tables);
                    let what = format!("{estimator:?}, {realizations}, {threads} threads");
                    assert_eq!(bits(&got), bits(&want), "{what}");
                }
                let mut got = vec![0.0; realizations];
                mc_makespans_into(&s, &sched, &cfg, &tables, &mut reused, &mut got);
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{estimator:?}, {realizations}, serial"
                );
            }
        }
    }

    /// The pool slots of compiled plans: every row a step reads still
    /// holds the finish of the task it reads when it is read, no step
    /// writes a slot it reads, sinks are the steps nobody reads, and the
    /// pool never needs more than one row per task.
    #[test]
    fn block_plan_slots_hold_each_row_until_its_last_reader() {
        for (n, m, seed) in [(1, 1, 1), (5, 2, 1), (30, 4, 2), (80, 8, 3), (120, 3, 4)] {
            let s = Scenario::paper_random(n, m, 1.2, seed);
            let dag = &s.graph.dag;
            let schedules = [
                robusched_sched::heft(&s),
                robusched_sched::random_schedule(dag, m, seed),
            ];
            for sched in &schedules {
                let plan = EagerPlan::new(dag, sched).unwrap();
                let block = BlockPlan::new(&s, sched, &plan);
                assert!(block.rows <= n, "{} rows for {n} tasks", block.rows);
                let mut holds = vec![usize::MAX; block.rows];
                let mut read = vec![false; n];
                let mut arc_start = 0;
                for (step, &v) in block.steps.iter().zip(plan.topo_order()) {
                    let arcs = &block.arcs[arc_start..step.arcs_end as usize];
                    arc_start = step.arcs_end as usize;
                    let mut reads: Vec<(u32, usize)> = arcs
                        .iter()
                        .zip(dag.preds(v))
                        .map(|(a, &(u, _))| (a.from, u))
                        .collect();
                    match plan.prev_on_proc()[v] {
                        None => assert_eq!(step.prev, NO_PREV),
                        Some(u) => reads.push((step.prev, u)),
                    }
                    for (slot, u) in reads {
                        assert_eq!(holds[slot as usize], u, "task {v} reads a reused slot");
                        assert_ne!(slot, step.slot, "task {v} writes a slot it reads");
                        read[u] = true;
                    }
                    holds[step.slot as usize] = v;
                }
                for (step, &v) in block.steps.iter().zip(plan.topo_order()) {
                    assert_eq!(step.sink, !read[v], "task {v}");
                }
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
