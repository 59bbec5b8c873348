//! `serve-mix`: a closed loop of `nproc` clients, each calling
//! `EvalService::evaluate` and waiting for the reply, against a service
//! with the default `ServiceConfig`.
//!
//! The scenario pool (96 paper-random scenarios) is larger than the
//! default `scenario_capacity` (64), so the LRU evicts. Popularity is
//! Zipf-like over the pool; about a fifth of requests repeat one of the
//! client's recent (scenario, schedule, evaluator) triples and a few more
//! ask for the scenario's HEFT schedule, so roughly a quarter of the
//! traffic can be answered from the result tier.

use crate::harness::{median, median_rate, peak_rss_mb, percentile, Report, Tier};
use crate::replay::{agrees, Replayer};
use crate::trace::Tracer;
use crate::Args;
use robusched_core::{
    compute_metrics, EvalOutcome, EvalRequest, EvalService, MetricOptions, MetricValues,
    ServiceConfig,
};
use robusched_dag::parsers::json::parse_json;
use robusched_platform::Scenario;
use robusched_randvar::{derive_seed, SplitMix64};
use robusched_sched::{heft, random_schedule, Schedule};
use robusched_stochastic::{
    evaluator_by_name, scenario_fingerprint, EvalContext, PreparedScenario,
};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

const POOL: usize = 96;
/// Zipf ranks (1-based) of the n = 300, m = 32 scenarios; every other rank
/// alternates n = 30 / m = 8 and n = 100 / m = 16.
const HEAVY_RANKS: [usize; 2] = [16, 48];
const ZIPF_EXPONENT: f64 = 1.0;
const UL: f64 = 1.1;
/// Share of requests that repeat one of the client's recent requests.
const REPEAT_SHARE: f64 = 0.2;
/// Share of fresh requests that ask for the scenario's HEFT schedule.
const HEFT_SHARE: f64 = 0.05;
/// Recent requests a client may repeat (well inside the result cache).
const HISTORY: usize = 256;
/// Evaluator mix of fresh requests: cumulative shares.
const EVALUATORS: [(&str, f64); 3] = [("classic", 0.6), ("spelde", 0.8), ("dodin", 1.0)];
const SETUP_REPEATS: usize = 5;
const WARMUP_REQUESTS: usize = 24;
/// Hit-tier answers re-evaluated cold per client, at most.
const CHECK_SAMPLES: usize = 16;
/// Requests of the traced pass.
const TRACED_REQUESTS: usize = 96;

struct PoolEntry {
    scenario: Arc<Scenario>,
    n: usize,
    m: usize,
    seed: u64,
    heft: Schedule,
}

fn build_pool(t: &mut Tracer, seed: u64) -> Vec<PoolEntry> {
    (0..POOL)
        .map(|i| {
            let (n, m) = if HEAVY_RANKS.contains(&(i + 1)) {
                (300, 32)
            } else if i % 2 == 0 {
                (30, 8)
            } else {
                (100, 16)
            };
            let s = derive_seed(seed, 30_000 + i as u64);
            let scenario = t.span("platform.scenario_build", |_| {
                Arc::new(Scenario::paper_random(n, m, UL, s))
            });
            let heft = t.span("sched.heft", |_| heft(&scenario));
            PoolEntry {
                scenario,
                n,
                m,
                seed: s,
                heft,
            }
        })
        .collect()
}

/// One request as the generator produced it.
#[derive(Debug, Clone)]
struct Req {
    scenario: usize,
    /// Random-schedule seed; `None` asks for the HEFT schedule.
    schedule_seed: Option<u64>,
    evaluator: &'static str,
}

impl Req {
    fn schedule(&self, pool: &[PoolEntry]) -> Schedule {
        let entry = &pool[self.scenario];
        match self.schedule_seed {
            Some(s) => random_schedule(&entry.scenario.graph.dag, entry.m, s),
            None => entry.heft.clone(),
        }
    }

    fn request(&self, pool: &[PoolEntry]) -> EvalRequest {
        EvalRequest::new(
            pool[self.scenario].scenario.clone(),
            self.schedule(pool),
            self.evaluator,
        )
    }

    /// The request as a `serve` protocol line.
    fn wire_line(&self, id: usize, pool: &[PoolEntry]) -> String {
        let e = &pool[self.scenario];
        let schedule = match self.schedule_seed {
            Some(s) => format!("{{\"kind\": \"random\", \"seed\": {s}}}"),
            None => "{\"kind\": \"heuristic\", \"name\": \"heft\"}".to_string(),
        };
        format!(
            "{{\"id\": {id}, \"scenario\": {{\"family\": \"paper-random\", \"n\": {}, \"m\": {}, \
             \"ul\": {UL}, \"seed\": {}}}, \"schedule\": {schedule}, \"evaluator\": \"{}\"}}",
            e.n, e.m, e.seed, self.evaluator
        )
    }
}

fn unit(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Deterministic per-client request stream.
struct Generator {
    rng: SplitMix64,
    zipf_cdf: Vec<f64>,
    history: VecDeque<Req>,
}

impl Generator {
    fn new(seed: u64) -> Self {
        let weights: Vec<f64> = (1..=POOL)
            .map(|r| (r as f64).powf(-ZIPF_EXPONENT))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let zipf_cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Self {
            rng: SplitMix64::new(seed),
            zipf_cdf,
            history: VecDeque::with_capacity(HISTORY),
        }
    }

    fn next(&mut self) -> Req {
        if !self.history.is_empty() && unit(&mut self.rng) < REPEAT_SHARE {
            let i = (self.rng.next_u64() % self.history.len() as u64) as usize;
            return self.history[i].clone();
        }
        let u = unit(&mut self.rng);
        let scenario = self
            .zipf_cdf
            .iter()
            .position(|&c| u <= c)
            .unwrap_or(POOL - 1);
        let u = unit(&mut self.rng);
        let evaluator = EVALUATORS
            .iter()
            .find(|(_, c)| u < *c)
            .map_or("classic", |(e, _)| e);
        let schedule_seed = (unit(&mut self.rng) >= HEFT_SHARE).then(|| self.rng.next_u64());
        let req = Req {
            scenario,
            schedule_seed,
            evaluator,
        };
        if self.history.len() == HISTORY {
            self.history.pop_front();
        }
        self.history.push_back(req.clone());
        req
    }
}

/// A fresh cold evaluation of `req`, outside the service.
fn cold_metrics(req: &Req, pool: &[PoolEntry]) -> MetricValues {
    let scenario = &pool[req.scenario].scenario;
    let schedule = req.schedule(pool);
    let ev = evaluator_by_name(req.evaluator).expect("registered evaluator");
    let rv = ev.evaluate(scenario, &schedule);
    compute_metrics(scenario, &schedule, &rv, &MetricOptions::default())
}

fn same_bits(a: &MetricValues, b: &MetricValues) -> bool {
    let bits = |m: &MetricValues| {
        [
            m.expected_makespan,
            m.makespan_std,
            m.makespan_entropy,
            m.avg_slack,
            m.slack_std,
            m.avg_lateness,
            m.prob_absolute,
            m.prob_relative,
            m.late_fraction,
            m.total_slack,
        ]
        .map(f64::to_bits)
    };
    bits(a) == bits(b)
}

/// What one closed-loop client saw.
#[derive(Default)]
struct ClientLog {
    latencies: Vec<(Tier, f64)>,
    /// Seconds since the window opened at which each answer arrived.
    answered_at: Vec<f64>,
    sent: u64,
    failed: u64,
    samples: Vec<(Req, MetricValues)>,
}

fn client(
    service: &EvalService,
    pool: &[PoolEntry],
    seed: u64,
    until: f64,
    start: Instant,
) -> ClientLog {
    let mut gen = Generator::new(seed);
    let mut pick = SplitMix64::new(derive_seed(seed, 1));
    let mut log = ClientLog::default();
    while start.elapsed().as_secs_f64() < until {
        let req = gen.next();
        let request = req.request(pool);
        log.sent += 1;
        let t = Instant::now();
        let result = service.evaluate(request);
        let secs = t.elapsed().as_secs_f64();
        match result {
            Ok(outcome) => {
                let tier = Tier::of(&outcome);
                log.latencies.push((tier, secs));
                log.answered_at.push(start.elapsed().as_secs_f64());
                if tier != Tier::Cold
                    && log.samples.len() < CHECK_SAMPLES
                    && pick.next_u64().is_multiple_of(32)
                {
                    log.samples.push((req, outcome.metrics));
                }
            }
            Err(e) => {
                log.failed += 1;
                eprintln!("request failed: {e}");
            }
        }
    }
    log
}

/// Starts a service over `pool` and warms it: every heavy scenario once
/// with the classic evaluator, then a short burst of generated traffic.
/// Returns the service and the requests it answered.
fn warm_service(pool: &[PoolEntry], seed: u64) -> (EvalService, u64, u64) {
    let service = EvalService::new(ServiceConfig::default());
    let mut sent = 0;
    let mut failed = 0;
    let heavy = HEAVY_RANKS.iter().map(|r| Req {
        scenario: r - 1,
        schedule_seed: None,
        evaluator: "classic",
    });
    let mut gen = Generator::new(derive_seed(seed, 2));
    let burst = (0..WARMUP_REQUESTS).map(|_| gen.next());
    for req in heavy.chain(burst).collect::<Vec<_>>() {
        sent += 1;
        if service.evaluate(req.request(pool)).is_err() {
            failed += 1;
        }
    }
    (service, sent, failed)
}

pub fn run(args: &Args, report: &mut Report) {
    // ---- Set-up: pool build + HEFT for the pool, service start, warm-up. ----
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        let t = Instant::now();
        let pool = build_pool(&mut Tracer::new(false), args.seed);
        let (service, sent, failed) = warm_service(&pool, args.seed);
        setups.push(t.elapsed().as_secs_f64());
        report.check(failed == 0, || format!("{failed} warm-up requests failed"));
        state = Some((pool, service, sent));
    }
    let (pool, service, warm_sent) = state.expect("at least one set-up");
    report.set("setup_s", median(&setups).expect("set-ups ran"));

    // ---- Measured window: closed loop, one client per core. ----
    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..args.threads)
            .map(|c| {
                let (service, pool) = (&service, &pool);
                let seed = derive_seed(args.seed, 40_000 + c as u64);
                s.spawn(move || client(service, pool, seed, args.seconds, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    report.set("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
    let sent: u64 = logs.iter().map(|l| l.sent).sum();
    report.attempted = sent;
    report.failed = logs.iter().map(|l| l.failed).sum();
    let answered: Vec<(f64, f64)> = logs
        .iter()
        .flat_map(|l| l.answered_at.iter().map(|&t| (t, 1.0)))
        .collect();
    report.set(
        "throughput_per_s",
        median_rate(&answered, args.seconds).unwrap_or(f64::NAN),
    );

    let mut all: Vec<f64> = Vec::new();
    let mut by_tier: HashMap<Tier, Vec<f64>> = HashMap::new();
    for &(tier, secs) in logs.iter().flat_map(|l| &l.latencies) {
        all.push(secs);
        by_tier.entry(tier).or_default().push(secs);
    }
    all.sort_by(f64::total_cmp);
    for v in by_tier.values_mut() {
        v.sort_by(f64::total_cmp);
    }
    report.set("latency_p50_ms", median(&all).unwrap_or(f64::NAN) * 1e3);
    let tier = |t: Tier| by_tier.get(&t).map_or(&[][..], |v| v.as_slice());
    let pct = |v: &[f64], p: f64, scale: f64| percentile(v, p).map_or(0.0, |x| x * scale);
    report.set("core.service.latency_p99_ms", pct(&all, 0.99, 1e3));
    report.set("core.service.cold_p50_ms", pct(tier(Tier::Cold), 0.5, 1e3));
    report.set(
        "core.service.prepared_hit_p50_ms",
        pct(tier(Tier::PreparedHit), 0.5, 1e3),
    );
    report.set(
        "core.service.prepared_hit_p99_ms",
        pct(tier(Tier::PreparedHit), 0.99, 1e3),
    );
    report.set(
        "core.service.result_hit_p50_us",
        pct(tier(Tier::ResultHit), 0.5, 1e6),
    );
    report.set(
        "core.service.result_hit_p99_us",
        pct(tier(Tier::ResultHit), 0.99, 1e6),
    );
    report.set("core.service.cold_samples", tier(Tier::Cold).len() as f64);
    report.set(
        "core.service.prepared_hit_samples",
        tier(Tier::PreparedHit).len() as f64,
    );
    report.set(
        "core.service.result_hit_samples",
        tier(Tier::ResultHit).len() as f64,
    );
    eprintln!(
        "{sent} requests in {elapsed:.2} s: cold {}, prepared-hit {}, result-hit {}",
        tier(Tier::Cold).len(),
        tier(Tier::PreparedHit).len(),
        tier(Tier::ResultHit).len()
    );

    let stats = service.stats();
    let evaluated = stats.completed.saturating_sub(stats.result_hits);
    report.set(
        "core.service.result_hit_ratio",
        stats.result_hits as f64 / stats.submitted.max(1) as f64,
    );
    report.set(
        "core.service.scenario_hit_ratio",
        stats.scenario_hits as f64 / (stats.scenario_hits + stats.scenario_misses).max(1) as f64,
    );
    report.set("core.service.evictions", stats.evictions as f64);
    report.set(
        "core.service.batch_mean",
        evaluated as f64 / stats.batches.max(1) as f64,
    );

    // ---- Output checks. ----
    report.check(stats.completed == warm_sent + sent, || {
        format!(
            "service completed {} requests, {} were sent",
            stats.completed,
            warm_sent + sent
        )
    });
    let samples: Vec<&(Req, MetricValues)> = logs.iter().flat_map(|l| &l.samples).collect();
    report.check(!samples.is_empty(), || {
        "no hit-tier answer was sampled".into()
    });
    for (req, metrics) in samples {
        report.check(same_bits(metrics, &cold_metrics(req, &pool)), || {
            format!("hit-tier answer for {req:?} differs from a cold evaluation")
        });
    }
    drop(service);

    if args.trace {
        traced_pass(args, report);
    }
}

/// Prepared contexts the traced pass keeps outside the service, per
/// (scenario, evaluator); cleared when full so memory stays bounded.
const LOCAL_CONTEXTS: usize = 8;

#[derive(Default)]
struct PassCounts {
    mismatches: usize,
    replay_ok: bool,
    table_slots: usize,
    slot_fills: usize,
    lookups: u64,
    sums: u64,
    maxes: u64,
}

/// The replica loop: one client sends a deterministic subset of the
/// traffic to a fresh service; every answer that needed an evaluation is
/// evaluated again outside the service so the evaluator's share shows.
fn pass(t: &mut Tracer, seed: u64) -> PassCounts {
    let mut counts = PassCounts {
        replay_ok: true,
        ..PassCounts::default()
    };
    let opts = MetricOptions::default();
    let service = EvalService::new(ServiceConfig::default());
    let mut gen = Generator::new(derive_seed(seed, 7));
    let mut local: HashMap<(usize, &'static str), (EvalContext, PreparedScenario)> = HashMap::new();
    let mut replayer = Replayer::new();
    t.span("pass", |t| {
        let pool = &build_pool(t, seed);
        for id in 0..TRACED_REQUESTS {
            let req = gen.next();
            let line = req.wire_line(id, pool);
            let parsed = t.span("experiments.parse_json", |_| parse_json(&line));
            assert!(parsed.is_ok(), "generated wire line must parse: {line}");
            let scenario = &pool[req.scenario].scenario;
            t.span("stochastic.fingerprint", |_| scenario_fingerprint(scenario));
            let request = t.span("sched.random_schedule", |_| req.request(pool));
            let schedule = request.schedule.clone();
            let outcome: Option<EvalOutcome> =
                t.span("core.service.evaluate", |_| service.evaluate(request).ok());
            let Some(outcome) = outcome else {
                counts.mismatches += 1;
                continue;
            };
            if Tier::of(&outcome) == Tier::ResultHit {
                continue;
            }
            let ev = evaluator_by_name(req.evaluator).expect("registered evaluator");
            if local.len() >= LOCAL_CONTEXTS && !local.contains_key(&(req.scenario, req.evaluator))
            {
                local.clear();
            }
            let (cx, prep) = local
                .entry((req.scenario, req.evaluator))
                .or_insert_with(|| {
                    let prep = t.span("stochastic.prepare", |_| ev.prepare(scenario));
                    if let PreparedScenario::Discretized(_) = &prep {
                        let e = scenario.graph.edge_count();
                        let (n, m) = (scenario.task_count(), scenario.machine_count());
                        counts.table_slots += n * m + e * m * m;
                    }
                    (EvalContext::new(prep.clone()), prep)
                });
            let rv = match req.evaluator {
                "classic" => t.span("stochastic.evaluate.classic", |_| {
                    ev.evaluate_with(scenario, &schedule, cx)
                }),
                "spelde" => t.span("stochastic.evaluate.spelde", |_| {
                    ev.evaluate_with(scenario, &schedule, cx)
                }),
                _ => t.span("stochastic.evaluate.dodin", |_| {
                    ev.evaluate_with(scenario, &schedule, cx)
                }),
            };
            if let (PreparedScenario::Discretized(disc), "classic") = (&*prep, req.evaluator) {
                let replayed = t.span("stochastic.classic_replay", |t| {
                    replayer.classic(t, scenario, &schedule, disc)
                });
                counts.replay_ok &= agrees(&replayed, &rv);
            }
            let metrics = t.span("core.compute_metrics", |_| {
                compute_metrics(scenario, &schedule, &rv, &opts)
            });
            if !same_bits(&metrics, &outcome.metrics) {
                counts.mismatches += 1;
            }
        }
    });
    counts.slot_fills = replayer.slot_fills();
    counts.lookups = replayer.lookups;
    counts.sums = replayer.sums;
    counts.maxes = replayer.maxes;
    counts
}

fn traced_pass(args: &Args, report: &mut Report) {
    let off_start = Instant::now();
    pass(&mut Tracer::new(false), args.seed);
    let off = off_start.elapsed().as_secs_f64();
    let mut tracer = Tracer::new(true);
    let on_start = Instant::now();
    let counts = pass(&mut tracer, args.seed);
    let on = on_start.elapsed().as_secs_f64();
    let layers = tracer.layers();
    let us = |name: &str| layers.get(name).map_or(0.0, |l| l.mean_us());
    let ms = |name: &str| layers.get(name).map_or(0.0, |l| l.mean_ms());

    report.check(counts.mismatches == 0, || {
        format!(
            "{} traced answers differ from an outside evaluation",
            counts.mismatches
        )
    });
    report.set("trace.overhead", on / off - 1.0);
    report.set("trace.coverage", tracer.coverage());
    report.set("trace.spans", tracer.spans().len() as f64);
    report.set("platform.scenario_build_ms", ms("platform.scenario_build"));
    report.set("sched.heft_ms", ms("sched.heft"));
    report.set("sched.random_schedule_us", us("sched.random_schedule"));
    report.set("experiments.parse_json_us", us("experiments.parse_json"));
    report.set("stochastic.fingerprint_us", us("stochastic.fingerprint"));
    report.set("stochastic.prepare_ms", ms("stochastic.prepare"));
    report.set("stochastic.table_slots", counts.table_slots as f64);
    report.set(
        "stochastic.evaluate_us.classic",
        us("stochastic.evaluate.classic"),
    );
    report.set(
        "stochastic.evaluate_us.spelde",
        us("stochastic.evaluate.spelde"),
    );
    report.set(
        "stochastic.evaluate_us.dodin",
        us("stochastic.evaluate.dodin"),
    );
    report.set("core.compute_metrics_us", us("core.compute_metrics"));
    if counts.replay_ok {
        report.set("sched.eager_plan_us", us("sched.eager_plan"));
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
