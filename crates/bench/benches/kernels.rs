//! Kernel benchmarks: the numeric and scheduling hot paths.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use robusched_bench::{bench_app_scenario, bench_scenario, bench_scenario_medium, bench_schedule};
use robusched_core::{pearson_matrix, StudyBuilder};
use robusched_dag::apps::AppClass;
use robusched_numeric::convolution::{convolve_auto, convolve_direct, convolve_fft};
use robusched_platform::Scenario;
use robusched_randvar::{DiscreteRv, RvWorkspace, ScaledBeta};
use robusched_sched::{bil, cpop, heft, hyb_bmct, random_schedule, sigma_heft};
use robusched_stochastic::{
    evaluate_spelde, mc_makespans, ClassicEvaluator, DodinEvaluator, Evaluator, McConfig,
    SamplingTables,
};
use std::hint::black_box;

fn convolution_kernels(c: &mut Criterion) {
    // The 64/1024 pair brackets the direct↔FFT crossover so a stale
    // `convolve_auto` cost model shows up as an `auto` line tracking the
    // wrong kernel; 256 sits near the break-even.
    for n in [64usize, 256, 1024] {
        let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin().abs()).collect();
        let b: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let mut g = c.benchmark_group(format!("convolution-{n}"));
        g.bench_function("direct", |bch| {
            bch.iter(|| convolve_direct(black_box(&a), black_box(&b)))
        });
        g.bench_function("fft", |bch| {
            bch.iter(|| convolve_fft(black_box(&a), black_box(&b)))
        });
        g.bench_function("auto", |bch| {
            bch.iter(|| convolve_auto(black_box(&a), black_box(&b)))
        });
        g.finish();
    }
}

fn rv_calculus(c: &mut Criterion) {
    let x = DiscreteRv::from_dist_default(&ScaledBeta::paper_default(20.0, 1.1));
    let y = DiscreteRv::from_dist_default(&ScaledBeta::paper_default(15.0, 1.1));
    let mut g = c.benchmark_group("discrete-rv");
    g.bench_function("sum", |b| b.iter(|| black_box(&x).sum(black_box(&y))));
    g.bench_function("sum-into", |b| {
        // The fully allocation-free path: explicit workspace + reused output.
        let mut ws = RvWorkspace::new();
        let mut out = DiscreteRv::point(0.0);
        b.iter(|| {
            black_box(&x).sum_into(black_box(&y), &mut ws, &mut out);
            out.mean()
        })
    });
    g.bench_function("max", |b| b.iter(|| black_box(&x).max(black_box(&y))));
    g.bench_function("mean+std", |b| {
        b.iter(|| (black_box(&x).mean(), black_box(&x).std_dev()))
    });
    g.bench_function("entropy", |b| b.iter(|| black_box(&x).entropy()));
    g.finish();
}

fn heuristics(c: &mut Criterion) {
    let s = bench_scenario();
    let m = bench_scenario_medium();
    let mut g = c.benchmark_group("heuristics");
    g.bench_function("heft-30", |b| b.iter(|| heft(black_box(&s))));
    g.bench_function("bil-30", |b| b.iter(|| bil(black_box(&s))));
    g.bench_function("bmct-30", |b| b.iter(|| hyb_bmct(black_box(&s))));
    g.bench_function("cpop-30", |b| b.iter(|| cpop(black_box(&s))));
    g.bench_function("heft-100", |b| b.iter(|| heft(black_box(&m))));
    g.bench_function("sigma-heft-30", |b| {
        b.iter(|| sigma_heft(black_box(&s), 1.0))
    });
    g.bench_function("random-schedule-30", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            random_schedule(&s.graph.dag, 8, seed)
        })
    });
    g.finish();
}

/// Ablation: classic-evaluator cost as a function of the PDF grid
/// resolution (the paper's 64-point choice sits on the knee).
fn grid_resolution_ablation(c: &mut Criterion) {
    let s = bench_scenario();
    let sched = bench_schedule(&s);
    let mut g = c.benchmark_group("grid-ablation");
    g.sample_size(20);
    for grid in [16usize, 32, 64, 128, 256] {
        g.bench_function(format!("classic-grid-{grid}"), |b| {
            b.iter(|| ClassicEvaluator { grid }.evaluate(black_box(&s), black_box(&sched)))
        });
    }
    g.finish();
}

/// The buffered §V protocol on one thread: every row materialized, then
/// the two-pass Pearson matrix (one cell returned so it stays observed).
fn buffered_study(s: &Scenario, schedules: usize, seed: u64) -> f64 {
    let res = StudyBuilder::new(s)
        .random_schedules(schedules)
        .seed(seed)
        .threads(1)
        .buffer_metrics(true)
        .run()
        .unwrap();
    pearson_matrix(&res.random.unwrap()).get(0, 1)
}

/// Structured-application workloads: cost of the heaviest generator (LU
/// grows as `Θ(n³)` tasks — 1 496 at n = 16) and of a complete buffered
/// study over a Cholesky application scenario.
fn app_workloads(c: &mut Criterion) {
    let mut g = c.benchmark_group("ext-apps");
    g.bench_function("lu-generate-n16", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            AppClass::Lu.generate(black_box(16), seed)
        })
    });
    let s = bench_app_scenario();
    g.sample_size(10);
    g.bench_function("buffered-study-cholesky-36t", |b| {
        b.iter(|| buffered_study(black_box(&s), 32, 5))
    });
    g.finish();
}

/// Buffered rows vs the streaming accumulators on the same study:
/// identical schedule streams and evaluator work, different memory story
/// (`O(n·k)` materialized rows vs `O(k²)` co-moments + the rank
/// reservoir). The delta isolates the buffering overhead.
fn study_streaming(c: &mut Criterion) {
    let s = bench_scenario();
    let mut g = c.benchmark_group("study-streaming");
    g.sample_size(10);
    g.bench_function("buffered-builder-256", |b| {
        b.iter(|| buffered_study(black_box(&s), 256, 9))
    });
    g.bench_function("streaming-builder-256", |b| {
        b.iter(|| {
            StudyBuilder::new(black_box(&s))
                .random_schedules(256)
                .seed(9)
                .threads(1)
                .run()
                .unwrap()
        })
    });
    g.finish();
}

fn evaluators(c: &mut Criterion) {
    let s = bench_scenario();
    let sched = bench_schedule(&s);
    let mut g = c.benchmark_group("makespan-evaluators");
    g.sample_size(20);
    g.bench_function("classic-30", |b| {
        b.iter(|| ClassicEvaluator::default().evaluate(black_box(&s), black_box(&sched)))
    });
    g.bench_function("classic-30-prepared", |b| {
        // The study engine's path: shared discretization cache + per-worker
        // context, amortized over the whole schedule stream.
        use robusched_stochastic::EvalContext;
        let e = ClassicEvaluator::default();
        let mut cx = EvalContext::new(e.prepare(&s));
        b.iter(|| e.evaluate_with(black_box(&s), black_box(&sched), &mut cx))
    });
    g.bench_function("spelde-30", |b| {
        b.iter(|| evaluate_spelde(black_box(&s), black_box(&sched)))
    });
    g.bench_function("dodin-30", |b| {
        b.iter(|| DodinEvaluator::default().evaluate(black_box(&s), black_box(&sched)))
    });
    g.bench_function("mc-2048-realizations", |b| {
        b.iter_batched(
            || McConfig {
                realizations: 2048,
                seed: 7,
                threads: Some(1),
                ..Default::default()
            },
            |cfg| mc_makespans(&s, &sched, &cfg, &SamplingTables::new(&s)),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// The batched Monte-Carlo engine: per-estimator steady-state cost against
/// prepared sampling tables, the table build itself, and the bare SoA
/// replay kernel. These are the `mc-*` groups `scripts/bench_diff.py`
/// guards against regression.
fn mc_engine(c: &mut Criterion) {
    use robusched_randvar::{Beta, QuantileTable};
    use robusched_sched::{EagerPlan, ReplayScratch};
    use robusched_stochastic::McEstimator;
    let s = bench_scenario();
    let sched = bench_schedule(&s);
    let tables = SamplingTables::new(&s);
    let mut g = c.benchmark_group("mc-engine");
    g.sample_size(20);
    for (name, estimator) in [
        ("standard-2048", McEstimator::Standard),
        ("antithetic-2048", McEstimator::Antithetic),
        ("stratified-2048", McEstimator::Stratified),
    ] {
        g.bench_function(name, |b| {
            let cfg = McConfig {
                realizations: 2048,
                seed: 7,
                threads: Some(1),
                estimator,
            };
            b.iter(|| mc_makespans(black_box(&s), black_box(&sched), &cfg, &tables))
        });
    }
    g.bench_function("quantile-table-build", |b| {
        let shape = Beta::paper_default();
        b.iter(|| QuantileTable::with_default_resolution(black_box(&shape)))
    });
    g.bench_function("replay-block-256", |b| {
        let dag = &s.graph.dag;
        let plan = EagerPlan::new(dag, &sched).unwrap();
        let (n, e) = (dag.node_count(), dag.edge_count());
        const W: usize = 256;
        let task: Vec<f64> = (0..n * W).map(|i| 1.0 + (i % 17) as f64).collect();
        let comm: Vec<f64> = (0..e * W).map(|i| (i % 5) as f64 * 0.5).collect();
        let mut out = vec![0.0; W];
        let mut scratch = ReplayScratch::new();
        b.iter(|| {
            plan.replay_block(
                dag,
                black_box(&task),
                black_box(&comm),
                W,
                W,
                &mut scratch,
                &mut out,
            );
            out[0]
        })
    });
    g.finish();
}

criterion_group!(
    kernels,
    convolution_kernels,
    rv_calculus,
    heuristics,
    evaluators,
    mc_engine,
    grid_resolution_ablation,
    app_workloads,
    study_streaming
);
criterion_main!(kernels);
