//! `study-classic` and `study-mc`: the paper's §V protocol on the Fig. 5
//! case (Gaussian elimination, 104 tasks, 16 machines, UL 1.1) through
//! `StudyBuilder`, with the paper heuristics and streamed matrices. The two
//! workloads differ only in the evaluator.

use crate::harness::{median, peak_rss_mb, Report};
use crate::replay::{agrees, Replayer};
use crate::trace::Tracer;
use crate::Args;
use robusched_core::{
    compute_metrics, metric_index, MetricOptions, MetricValues, RankReservoir, StreamingMoments,
    StudyBuilder, METRIC_LABELS,
};
use robusched_experiments::figs::{fig5, PAPER_HEURISTICS};
use robusched_experiments::RunOptions;
use robusched_platform::Scenario;
use robusched_randvar::derive_seed;
use robusched_sched::{heft, heuristic_by_name, random_schedule, EagerPlan};
use robusched_stochastic::{
    evaluator_by_name, scenario_fingerprint, EvalContext, Evaluator, MonteCarloEvaluator,
    PreparedScenario, SamplingTables,
};
use std::time::Instant;

/// Random schedules per study call: two of `StudyBuilder`'s 64-schedule
/// work chunks, so both workers of a two-core machine stay busy while a
/// Monte-Carlo call still finishes in about a second.
const SCHEDULES_PER_CALL: usize = 128;
/// Schedules of the warm-up study that ends each set-up.
const WARMUP_SCHEDULES: usize = 16;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// The Fig. 5 scenario for a workload seed.
fn fig5_scenario(seed: u64) -> Scenario {
    let opts = RunOptions {
        scale: 1.0,
        out_dir: None,
        seed,
        threads: None,
    };
    fig5::case(&opts).scenario()
}

fn study(
    scenario: &Scenario,
    evaluator: &str,
    schedules: usize,
    seed: u64,
    threads: usize,
    best_random: &mut f64,
) -> Result<robusched_core::StudyResult, robusched_core::StudyError> {
    let mut sink = |_: usize, v: &MetricValues| *best_random = best_random.min(v.expected_makespan);
    StudyBuilder::new(scenario)
        .random_schedules(schedules)
        .seed(seed)
        .threads(threads)
        .heuristics(&PAPER_HEURISTICS)
        .evaluator_named(evaluator)
        .sink(&mut sink)
        .run()
}

/// Runs one study workload; `evaluator` is `classic` or `montecarlo`.
pub fn run(evaluator: &'static str, args: &Args, report: &mut Report) {
    let ev = evaluator_by_name(evaluator).expect("registered evaluator");

    // ---- Set-up: scenario build, then a warm-up study (which prepares). ----
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut scenario = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let s = fig5_scenario(args.seed);
        let mut best = f64::INFINITY;
        let warm = study(
            &s,
            evaluator,
            WARMUP_SCHEDULES,
            derive_seed(args.seed, 1),
            args.threads,
            &mut best,
        );
        setups.push(t.elapsed().as_secs_f64());
        if let Err(e) = warm {
            report.check(false, || format!("warm-up study failed: {e}"));
        }
        scenario = Some(s);
    }
    let scenario = scenario.expect("at least one set-up");
    report.set("setup_s", median(&setups).expect("set-ups ran"));

    // ---- Measured window: back-to-back study calls. ----
    let mut latencies = Vec::new();
    let mut rates = Vec::new();
    let mut best_random = f64::INFINITY;
    let mut pooled = StreamingMoments::new(METRIC_LABELS.len());
    let mut heuristics: Vec<(String, MetricValues)> = Vec::new();
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < args.seconds {
        let call_seed = derive_seed(args.seed, 1_000 + report.attempted);
        report.attempted += 1;
        let t = Instant::now();
        let result = study(
            &scenario,
            evaluator,
            SCHEDULES_PER_CALL,
            call_seed,
            args.threads,
            &mut best_random,
        );
        match result {
            Ok(res) => {
                let matrices = (res.pearson_streamed(), res.spearman_streamed());
                let secs = t.elapsed().as_secs_f64();
                std::hint::black_box(matrices);
                latencies.push(secs * 1e3);
                rates.push(res.random_count() as f64 / secs);
                pooled.merge(&res.moments);
                heuristics = res.heuristics;
            }
            Err(e) => {
                report.failed += 1;
                eprintln!("study call failed: {e}");
            }
        }
    }
    let elapsed = window.elapsed().as_secs_f64();
    // Calls run one after another, so each call's rate is the study's
    // throughput while it ran; the median shrugs off disturbed calls.
    report.set("throughput_per_s", median(&rates).unwrap_or(f64::NAN));
    report.set("latency_p50_ms", median(&latencies).unwrap_or(f64::NAN));
    report.set("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
    eprintln!(
        "{} study calls of {SCHEDULES_PER_CALL} schedules in {elapsed:.2} s",
        latencies.len()
    );

    // ---- Output checks. ----
    report.check(heuristics.len() == PAPER_HEURISTICS.len(), || {
        format!("expected {} heuristic rows", PAPER_HEURISTICS.len())
    });
    match evaluator {
        "classic" => {
            // Paper §VI: σ and average lateness are almost perfectly
            // correlated, and every heuristic beats the best random
            // schedule on expected makespan.
            let rho = pooled.pearson(metric_index("makespan_std"), metric_index("avg_lateness"));
            eprintln!(
                "pooled rho(sigma, lateness) = {rho:.4} over {} schedules",
                pooled.count()
            );
            report.check(rho >= 0.9, || format!("rho(sigma, lateness) = {rho} < 0.9"));
            for (name, m) in &heuristics {
                report.check(m.expected_makespan < best_random, || {
                    format!(
                        "{name} E(M) {} does not beat best random {best_random}",
                        m.expected_makespan
                    )
                });
            }
        }
        _ => {
            // The Monte-Carlo estimate of every heuristic's E(M) stays
            // within 2% of the classic evaluator's.
            let classic = evaluator_by_name("classic").expect("registered");
            for (name, m) in &heuristics {
                let h = heuristic_by_name(name).expect("paper heuristic");
                let sched = h.schedule(&scenario).expect("heuristic schedules fig5");
                let reference = classic.evaluate(&scenario, &sched).mean();
                let rel = (m.expected_makespan - reference).abs() / reference;
                report.check(rel <= 0.02, || {
                    format!(
                        "{name}: MC E(M) {} vs classic {reference}",
                        m.expected_makespan
                    )
                });
            }
        }
    }

    if args.trace {
        traced_pass(evaluator, ev.as_ref(), args, report);
    }
}

/// Schedules of the traced pass.
fn traced_schedules(evaluator: &str) -> usize {
    if evaluator == "classic" {
        48
    } else {
        12
    }
}

/// What one traced pass measured besides its spans.
#[derive(Default)]
struct PassCounts {
    replay_ok: bool,
    table_slots: usize,
    slot_fills: usize,
    lookups: u64,
    sums: u64,
    maxes: u64,
    mc_draws: u64,
}

/// The replica loop: a single-threaded walk over a deterministic subset of
/// the study's inputs, calling the same public functions the study does.
fn pass(t: &mut Tracer, evaluator: &str, ev: &dyn Evaluator, seed: u64) -> PassCounts {
    let mut counts = PassCounts {
        replay_ok: true,
        ..PassCounts::default()
    };
    let opts = MetricOptions::default();
    t.span("pass", |t| {
        let scenario = t.span("platform.scenario_build", |_| fig5_scenario(seed));
        t.span("stochastic.fingerprint", |_| {
            scenario_fingerprint(&scenario)
        });
        t.span("sched.heft", |_| heft(&scenario));
        let prep = t.span("stochastic.prepare", |_| ev.prepare(&scenario));
        if evaluator != "classic" {
            t.span("stochastic.sampling_tables", |_| {
                SamplingTables::new(&scenario)
            });
        }
        let disc = match &prep {
            PreparedScenario::Discretized(d) => Some(d.clone()),
            _ => None,
        };
        let mut replayer = Replayer::new();
        let mut cx = EvalContext::new(prep.clone());
        let mut moments = StreamingMoments::new(METRIC_LABELS.len());
        let mut reservoir = RankReservoir::new(METRIC_LABELS.len(), 4096, derive_seed(seed, !0));
        let m = scenario.machine_count();
        let n = scenario.task_count();
        for i in 0..traced_schedules(evaluator) {
            let sched = t.span("sched.random_schedule", |_| {
                random_schedule(
                    &scenario.graph.dag,
                    m,
                    derive_seed(seed, 500_000 + i as u64),
                )
            });
            let rv = match evaluator {
                "classic" => t.span("stochastic.evaluate.classic", |_| {
                    ev.evaluate_with(&scenario, &sched, &mut cx)
                }),
                _ => {
                    t.span("sched.eager_plan", |_| {
                        EagerPlan::new(&scenario.graph.dag, &sched).expect("valid schedule")
                    });
                    counts.mc_draws += (MonteCarloEvaluator::default().realizations * n) as u64;
                    t.span("stochastic.evaluate.montecarlo", |_| {
                        ev.evaluate_with(&scenario, &sched, &mut cx)
                    })
                }
            };
            if let Some(disc) = &disc {
                let replayed = t.span("stochastic.classic_replay", |t| {
                    replayer.classic(t, &scenario, &sched, disc)
                });
                counts.replay_ok &= agrees(&replayed, &rv);
            }
            let values = t.span("core.compute_metrics", |_| {
                compute_metrics(&scenario, &sched, &rv, &opts)
            });
            t.span("core.streaming_push", |_| {
                let row = values.oriented_vector();
                moments.push(&row);
                reservoir.push(&row);
            });
        }
        t.span("core.matrix", |_| {
            std::hint::black_box((
                moments.pearson_matrix(&METRIC_LABELS),
                reservoir.spearman_matrix(&METRIC_LABELS),
            ))
        });
        counts.table_slots = if disc.is_some() {
            let e = scenario.graph.edge_count();
            n * m + e * m * m
        } else {
            0
        };
        counts.slot_fills = replayer.slot_fills();
        counts.lookups = replayer.lookups;
        counts.sums = replayer.sums;
        counts.maxes = replayer.maxes;
    });
    counts
}

fn traced_pass(evaluator: &str, ev: &dyn Evaluator, args: &Args, report: &mut Report) {
    let seed = derive_seed(args.seed, 7);
    let off_start = Instant::now();
    pass(&mut Tracer::new(false), evaluator, ev, seed);
    let off = off_start.elapsed().as_secs_f64();
    let mut tracer = Tracer::new(true);
    let on_start = Instant::now();
    let counts = pass(&mut tracer, evaluator, ev, seed);
    let on = on_start.elapsed().as_secs_f64();
    let layers = tracer.layers();
    let us = |name: &str| layers.get(name).map_or(0.0, |l| l.mean_us());
    let ms = |name: &str| layers.get(name).map_or(0.0, |l| l.mean_ms());

    report.set("trace.overhead", on / off - 1.0);
    report.set("trace.coverage", tracer.coverage());
    report.set("trace.spans", tracer.spans().len() as f64);
    report.set("platform.scenario_build_ms", ms("platform.scenario_build"));
    report.set("stochastic.fingerprint_us", us("stochastic.fingerprint"));
    report.set("sched.heft_ms", ms("sched.heft"));
    report.set("stochastic.prepare_ms", ms("stochastic.prepare"));
    report.set(
        "stochastic.sampling_tables_ms",
        ms("stochastic.sampling_tables"),
    );
    report.set("stochastic.table_slots", counts.table_slots as f64);
    report.set("sched.random_schedule_us", us("sched.random_schedule"));
    report.set("sched.eager_plan_us", us("sched.eager_plan"));
    report.set(
        "stochastic.evaluate_us.classic",
        us("stochastic.evaluate.classic"),
    );
    report.set(
        "stochastic.evaluate_us.montecarlo",
        us("stochastic.evaluate.montecarlo"),
    );
    report.set("stochastic.mc_draws", counts.mc_draws as f64);
    report.set("core.compute_metrics_us", us("core.compute_metrics"));
    report.set("core.streaming_push_us", us("core.streaming_push"));
    report.set("core.matrix_ms", ms("core.matrix"));
    if counts.replay_ok {
        report.set("stochastic.slot_fills", counts.slot_fills as f64);
        report.set("stochastic.lookup_us", us("stochastic.lookup"));
        report.set("stochastic.lookup_calls", counts.lookups as f64);
        report.set("randvar.sum_into_calls", counts.sums as f64);
        report.set("randvar.sum_into_us", us("randvar.sum_into"));
        report.set("randvar.max_into_calls", counts.maxes as f64);
        report.set("randvar.max_into_us", us("randvar.max_into"));
    } else {
        eprintln!("warning: classic replay disagrees with evaluate_with; replay metrics omitted");
    }
    crate::write_trace(&tracer, &layers, args);
}
