//! Integration suite for the batched Monte-Carlo engine: the sampling-table
//! equivalence, the scalar-vs-SoA contract of all three estimators,
//! thread-count determinism, the evaluator's serial path against the
//! engine, and the antithetic closed-form invariant.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use robusched::experiments::figs::fig5;
use robusched::experiments::RunOptions;
use robusched::platform::{CostMatrix, Platform, Scenario, UncertaintyKind, UncertaintyModel};
use robusched::randvar::{derive_seed, DiscreteRv, Dist, DEFAULT_GRID};
use robusched::sched::{random_schedule, EagerPlan, Schedule};
use robusched::stochastic::montecarlo::{BLOCK, CHUNK};
use robusched::stochastic::{
    mc_makespans, EvalContext, Evaluator, McConfig, McEstimator, MonteCarloEvaluator,
    SamplingTables,
};
use robusched_dag::generators;

/// The shared sampling table must agree with the direct (root-found)
/// quantile of the base shape to 1e-9 across the practical probability
/// range — the tentpole equivalence pin, exercised through the same
/// `SamplingTables` the engine uses.
#[test]
fn sampling_table_matches_direct_quantile() {
    let scenario = Scenario::paper_random(10, 3, 1.1, 5);
    let tables = SamplingTables::new(&scenario);
    let table = tables.base().expect("stochastic scenario");
    let shape = scenario.uncertainty.base_shape().unwrap();
    let mut worst = 0.0f64;
    for i in 0..=4000 {
        let u = 0.001 + 0.998 * i as f64 / 4000.0;
        worst = worst.max((table.quantile(u) - shape.quantile(u)).abs());
    }
    // Tails, geometrically spaced down to 1e-9 from both ends.
    for k in 1..=27 {
        let d = 10f64.powf(-9.0 + 8.0 * (k - 1) as f64 / 26.0);
        for u in [d, 1.0 - d] {
            worst = worst.max((table.quantile(u) - shape.quantile(u)).abs());
        }
    }
    assert!(worst <= 1e-9, "table-vs-direct quantile error {worst:e}");
}

/// Reimplements the engine's documented draw contract scalar-style — chunk
/// RNGs from `derive_seed(seed, chunk)`, slot-major block draws in the
/// plan's topological order (incoming edges before their task, zero-span
/// slots skipped), each estimator's per-slot rule — and replays each
/// realization individually through `EagerPlan::execute`.
fn scalar_reference(
    scenario: &Scenario,
    schedule: &Schedule,
    seed: u64,
    realizations: usize,
    estimator: McEstimator,
) -> Vec<f64> {
    let dag = &scenario.graph.dag;
    let n = scenario.task_count();
    let plan = EagerPlan::new(dag, schedule).unwrap();
    let tables = SamplingTables::new(scenario);
    let table = tables.base().unwrap();
    let ul = scenario.uncertainty.ul;
    // (row, lo, span) in canonical draw order; row < n is a task, else an
    // edge at row − n.
    let mut program: Vec<(usize, f64, f64)> = Vec::new();
    let mut task_lo = vec![0.0f64; n];
    let mut edge_lo = vec![0.0f64; dag.edge_count()];
    for (v, lo) in task_lo.iter_mut().enumerate() {
        *lo = scenario.det_task_cost(v, schedule.machine_of(v));
    }
    for (u, v, e) in dag.edge_triples() {
        edge_lo[e] = scenario.det_comm_cost(e, schedule.machine_of(u), schedule.machine_of(v));
    }
    for &v in plan.topo_order() {
        for &(_, e) in dag.preds(v) {
            let span = (ul - 1.0) * edge_lo[e];
            if span > 0.0 {
                program.push((n + e, edge_lo[e], span));
            }
        }
        let span = (scenario.task_ul(v) - 1.0) * task_lo[v];
        if span > 0.0 {
            program.push((v, task_lo[v], span));
        }
    }

    let u01 = |rng: &mut StdRng| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    let mut reference = Vec::with_capacity(realizations);
    let mut durations = vec![0.0f64; (n + dag.edge_count()) * BLOCK];
    for (row, &lo) in task_lo.iter().chain(edge_lo.iter()).enumerate() {
        durations[row * BLOCK..(row + 1) * BLOCK].fill(lo);
    }
    let mut start = 0usize;
    while start < realizations {
        let chunk_len = CHUNK.min(realizations - start);
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, (start / CHUNK) as u64));
        let mut block_start = 0usize;
        while block_start < chunk_len {
            let lanes = BLOCK.min(chunk_len - block_start);
            for &(row, lo, span) in &program {
                let row = &mut durations[row * BLOCK..][..lanes];
                match estimator {
                    McEstimator::Standard => {
                        for x in row.iter_mut() {
                            let bits = rng.next_u64() >> 11;
                            *x = lo + span * table.quantile_u53(bits);
                        }
                    }
                    McEstimator::Antithetic => {
                        for pair in row.chunks_exact_mut(2) {
                            let u = u01(&mut rng);
                            pair[0] = lo + span * table.quantile(u);
                            pair[1] = lo + span * table.quantile(1.0 - u);
                        }
                        if lanes % 2 == 1 {
                            row[lanes - 1] = lo + span * table.quantile(u01(&mut rng));
                        }
                    }
                    McEstimator::Stratified => {
                        let mut perm: Vec<u32> = (0..lanes as u32).collect();
                        for i in (1..lanes).rev() {
                            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                            perm.swap(i, j);
                        }
                        for (x, &stratum) in row.iter_mut().zip(&perm) {
                            let u = (stratum as f64 + u01(&mut rng)) * (1.0 / lanes as f64);
                            *x = lo + span * table.quantile(u);
                        }
                    }
                }
            }
            for r in 0..lanes {
                let exec = plan.execute(
                    dag,
                    |v| durations[v * BLOCK + r],
                    |e, _, _| durations[(n + e) * BLOCK + r],
                );
                reference.push(exec.makespan);
            }
            block_start += lanes;
        }
        start += chunk_len;
    }
    reference
}

/// Runs the engine at one and two threads and asserts both streams equal
/// the scalar reference bit for bit, for all three estimators.
fn assert_engine_matches_scalar_reference(
    scenario: &Scenario,
    schedule: &Schedule,
    realizations: usize,
) {
    let seed = 0xFEED;
    let tables = SamplingTables::new(scenario);
    for estimator in [
        McEstimator::Standard,
        McEstimator::Antithetic,
        McEstimator::Stratified,
    ] {
        let reference = scalar_reference(scenario, schedule, seed, realizations, estimator);
        for threads in [1, 2] {
            let engine = mc_makespans(
                scenario,
                schedule,
                &McConfig {
                    realizations,
                    seed,
                    threads: Some(threads),
                    estimator,
                },
                &tables,
            );
            assert_eq!(engine.len(), reference.len());
            for (i, (a, b)) in engine.iter().zip(reference.iter()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{estimator:?}, {threads} threads, realization {i}: {a} vs {b}"
                );
            }
        }
    }
}

/// The batched engine must reproduce the scalar reference bit for bit for
/// every estimator — over a full chunk, a partial chunk and a partial
/// block of odd width (an antithetic row with an unpaired lane).
#[test]
fn scalar_reference_matches_soa_engine_bitwise() {
    let scenario = Scenario::paper_random(14, 4, 1.2, 9);
    let schedule = random_schedule(&scenario.graph.dag, 4, 33);
    assert_engine_matches_scalar_reference(&scenario, &schedule, CHUNK + 2 * BLOCK + 77);
}

/// The same contract on a fig5-size case (Gaussian elimination, 104 tasks,
/// 16 machines), under per-task ULs where some tasks are certain (UL = 1:
/// zero-span task slots draw nothing), and on schedules whose co-located
/// edges cost nothing (zero-span edge slots).
#[test]
fn scalar_reference_matches_on_fig5_per_task_uls_and_colocated_edges() {
    let opts = RunOptions {
        scale: 1.0,
        out_dir: None,
        seed: 1,
        threads: None,
    };
    let fig5 = fig5::case(&opts).scenario();
    assert_eq!(fig5.task_count(), 104);
    let heft = robusched::sched::heft(&fig5);
    assert_engine_matches_scalar_reference(&fig5, &heft, BLOCK + 3);

    let base = Scenario::paper_random(24, 3, 1.3, 17);
    let uls: Vec<f64> = (0..base.task_count())
        .map(|v| [1.0, 1.5, 1.1, 1.0, 1.7][v % 5])
        .collect();
    let varied = base.with_per_task_ul(uls);
    let dag = &varied.graph.dag;
    // Two machines, so many edges are co-located and some are not.
    let schedule = random_schedule(dag, 2, 5);
    let colocated = dag
        .edge_triples()
        .filter(|&(u, v, _)| schedule.machine_of(u) == schedule.machine_of(v))
        .count();
    assert!(colocated > 0 && colocated < dag.edge_count());
    let free_edge = dag
        .edge_triples()
        .find(|&(u, v, _)| schedule.machine_of(u) == schedule.machine_of(v))
        .map(|(u, v, e)| varied.det_comm_cost(e, schedule.machine_of(u), schedule.machine_of(v)));
    assert_eq!(free_edge, Some(0.0));
    assert_engine_matches_scalar_reference(&varied, &schedule, CHUNK + BLOCK + 5);
}

/// Every estimator must produce a bit-identical stream for any worker
/// count — the fixed-chunk seeding contract.
#[test]
fn all_estimators_deterministic_across_1_2_4_threads() {
    let scenario = Scenario::paper_random(12, 3, 1.1, 21);
    let schedule = random_schedule(&scenario.graph.dag, 3, 7);
    let tables = SamplingTables::new(&scenario);
    for estimator in [
        McEstimator::Standard,
        McEstimator::Antithetic,
        McEstimator::Stratified,
    ] {
        let run = |threads: usize| {
            mc_makespans(
                &scenario,
                &schedule,
                &McConfig {
                    realizations: 3 * CHUNK / 2,
                    seed: 4242,
                    threads: Some(threads),
                    estimator,
                },
                &tables,
            )
        };
        let one = run(1);
        for threads in [2, 4] {
            let multi = run(threads);
            assert_eq!(
                one, multi,
                "{estimator:?}: stream changed at {threads} threads"
            );
        }
    }
}

/// `MonteCarloEvaluator` runs its own serial chunk loop through the
/// context's scratch. For every estimator it must bin exactly the samples
/// `mc_makespans` draws — on a budget that is not a multiple of `CHUNK`,
/// through a context already warmed by another schedule.
#[test]
fn evaluator_bins_the_engine_samples_bitwise() {
    let scenario = Scenario::paper_random(14, 4, 1.2, 9);
    let schedule = random_schedule(&scenario.graph.dag, 4, 33);
    let other = random_schedule(&scenario.graph.dag, 4, 34);
    let tables = SamplingTables::new(&scenario);
    let realizations = CHUNK + BLOCK + 77;
    for estimator in [
        McEstimator::Standard,
        McEstimator::Antithetic,
        McEstimator::Stratified,
    ] {
        let evaluator = MonteCarloEvaluator {
            realizations,
            seed: 0xFEED,
            estimator,
        };
        let mut cx = EvalContext::new(evaluator.prepare(&scenario));
        evaluator.evaluate_with(&scenario, &other, &mut cx);
        let rv = evaluator.evaluate_with(&scenario, &schedule, &mut cx);

        let samples = mc_makespans(
            &scenario,
            &schedule,
            &McConfig {
                realizations,
                seed: 0xFEED,
                threads: Some(1),
                estimator,
            },
            &tables,
        );
        let expect = DiscreteRv::from_samples(&samples, DEFAULT_GRID);
        let bits = |rv: &DiscreteRv| {
            [rv.lo(), rv.hi()]
                .iter()
                .chain(rv.pdf_values())
                .chain(rv.cdf_values())
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&rv), bits(&expect), "{estimator:?}");
    }
}

/// Antithetic mean preservation on a closed-form case: with the *uniform*
/// uncertainty family, `Q(u) + Q(1−u) = 1` up to table rounding, so on a
/// single-machine chain every antithetic pair's average makespan equals the
/// exact expected makespan — not just in the limit, but pair by pair.
#[test]
fn antithetic_pairs_preserve_the_mean_exactly_on_uniform_chain() {
    let tasks = 5;
    let tg = generators::chain(tasks);
    let costs = CostMatrix::from_rows(tasks, 1, vec![10.0, 20.0, 5.0, 12.5, 8.0]);
    let scenario = Scenario::new(
        tg,
        Platform::paper_default(1),
        costs,
        UncertaintyModel {
            ul: 1.5,
            kind: UncertaintyKind::Uniform,
        },
    );
    let schedule = robusched::sched::Schedule::new(vec![0; tasks], vec![(0..tasks).collect()]);
    // Exact mean: Σ (w + (UL−1)·w/2) — uniform midpoint per task.
    let exact: f64 = [10.0, 20.0, 5.0, 12.5, 8.0]
        .iter()
        .map(|w| w + 0.25 * w)
        .sum();
    let ms = mc_makespans(
        &scenario,
        &schedule,
        &McConfig {
            realizations: 2 * BLOCK,
            seed: 77,
            threads: Some(1),
            estimator: McEstimator::Antithetic,
        },
        &SamplingTables::new(&scenario),
    );
    for pair in ms.chunks(2) {
        let avg = 0.5 * (pair[0] + pair[1]);
        assert!(
            (avg - exact).abs() < 1e-9 * exact,
            "pair average {avg} vs exact {exact}"
        );
    }
    // And therefore the whole estimate is exact too.
    let mean = ms.iter().sum::<f64>() / ms.len() as f64;
    assert!((mean - exact).abs() < 1e-9 * exact);
}

/// The estimators are all unbiased: on a moderate budget their means agree
/// with each other within Monte-Carlo noise, and the variance-reduced
/// streams genuinely differ from the plain one (they are different
/// estimators, not aliases).
#[test]
fn estimators_agree_on_the_mean_but_differ_in_stream() {
    let scenario = Scenario::paper_random(12, 3, 1.1, 5);
    let schedule = random_schedule(&scenario.graph.dag, 3, 11);
    let tables = SamplingTables::new(&scenario);
    let run = |estimator: McEstimator| {
        mc_makespans(
            &scenario,
            &schedule,
            &McConfig {
                realizations: 20_000,
                seed: 9,
                threads: Some(2),
                estimator,
            },
            &tables,
        )
    };
    let plain = run(McEstimator::Standard);
    let anti = run(McEstimator::Antithetic);
    let strat = run(McEstimator::Stratified);
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let m0 = mean(&plain);
    assert!((mean(&anti) - m0).abs() / m0 < 0.01, "antithetic mean off");
    assert!((mean(&strat) - m0).abs() / m0 < 0.01, "stratified mean off");
    assert_ne!(plain, anti);
    assert_ne!(plain, strat);
}
