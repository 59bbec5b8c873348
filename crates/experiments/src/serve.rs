//! The `serve` registry entry: the protocol front end of
//! [`robusched_core::EvalService`].
//!
//! `serve` turns the binary into a long-running evaluation server speaking
//! line-delimited JSON over stdin/stdout — one request object per line, one
//! response object per line, responses strictly in request order (the
//! writer waits on each request's ticket in turn). The reader runs at most
//! a fixed number of requests ahead of the writer and then stops reading,
//! so a client that writes faster than the workers answer is slowed down
//! rather than growing the service queue.
//! There is no `serde` in this workspace, so the protocol uses the
//! hand-rolled recursive-descent JSON parser of
//! [`robusched_dag::parsers::json`], shared with the trace-ingestion layer.
//!
//! Request shape (`id` is echoed verbatim; `metrics` optionally filters
//! which fields the response carries):
//!
//! ```json
//! {"id": 1,
//!  "scenario": {"family": "paper-random", "n": 30, "m": 8, "ul": 1.1, "seed": 7},
//!  "schedule": {"kind": "heuristic", "name": "heft"},
//!  "evaluator": "classic",
//!  "metrics": ["expected_makespan", "makespan_std"]}
//! ```
//!
//! Scenario families: `paper-random` (the paper's layered random DAGs),
//! `app` (structured applications: `"class"` ∈ cholesky, lu, fft, stencil,
//! forkjoin, plus `"speed_cov"`), and `trace` (a committed sample workflow
//! trace: `"trace"` ∈ montage-like, epigenomics-like, cybershake-like,
//! plus `"speed_cov"`; no `"n"` — the trace fixes the size). Schedules:
//! `{"kind": "heuristic",
//! "name": ...}` (any [`robusched_sched::heuristic_by_name`] entry) or
//! `{"kind": "random", "seed": N}`. The front end interns scenarios by
//! their canonical spec, so repeated specs share one [`Scenario`] `Arc`
//! and the service's fingerprint caches do the rest. The interner keeps as
//! many scenarios alive as the service keeps prepared.
//!
//! `ul` must lie in `[1, 1000]`.
//!
//! Responses: `{"id": ..., "ok": true, "cache_hit": bool, "scenario_hit":
//! bool, "metrics": {...}}` on success, `{"id": ..., "ok": false,
//! "error": "..."}` on evaluation or parse errors. Malformed lines get an
//! error response in-stream — a line that is not UTF-8 or not JSON is
//! answered with `"id": null` — and the server never dies on bad input.
//!
//! A second request family drives the arrival-driven executor
//! ([`robusched_dynamic`]): a line carrying a `"dynamic"` object instead
//! of `scenario`/`schedule` runs one small online simulation over the
//! `ext-dynamic` workload pool and answers with its aggregated counters:
//!
//! ```json
//! {"id": 2, "dynamic": {"policy": "prune@0.5", "oversub": 2.0,
//!                       "instances": 50, "seed": 7}}
//! ```
//!
//! (`policy` is any [`robusched_dynamic::policy_by_spec`] spec;
//! `oversub` scales the Poisson arrival rate against platform capacity;
//! `instances` is capped at 2000 because the simulation runs synchronously
//! on the reader thread — responses stay strictly in request order.
//! Optional `"fault"` / `"recovery"` fields inject machine failures and a
//! recovery policy — any [`robusched_dynamic::fault_by_spec`] /
//! [`robusched_dynamic::recovery_by_spec`] spec, e.g. `"exp@300:30"` with
//! `"retry@3"` — and the response then also carries goodput, effective
//! utilization, and the fault counters.)

use crate::ext::dynamic::{mean_instance_work, workload_pool, SimCell};
use crate::RunOptions;
use robusched_core::{EvalRequest, EvalService, Lru, MetricValues, ServiceConfig, Ticket};
use robusched_dag::parsers::json::{parse_json, write_json, Json};
use robusched_dag::AppClass;
use robusched_platform::{Scenario, TraceCalibration};
use robusched_sched::{heuristic_by_name, random_schedule, Schedule};
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::sync::{Arc, Weak};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Request decoding
// ---------------------------------------------------------------------------

/// The response's metric field names, in [`MetricValues`] declaration
/// order.
pub const METRIC_FIELDS: [&str; 10] = [
    "expected_makespan",
    "makespan_std",
    "makespan_entropy",
    "avg_slack",
    "slack_std",
    "avg_lateness",
    "prob_absolute",
    "prob_relative",
    "late_fraction",
    "total_slack",
];

fn metric_field(metrics: &MetricValues, name: &str) -> Option<f64> {
    Some(match name {
        "expected_makespan" => metrics.expected_makespan,
        "makespan_std" => metrics.makespan_std,
        "makespan_entropy" => metrics.makespan_entropy,
        "avg_slack" => metrics.avg_slack,
        "slack_std" => metrics.slack_std,
        "avg_lateness" => metrics.avg_lateness,
        "prob_absolute" => metrics.prob_absolute,
        "prob_relative" => metrics.prob_relative,
        "late_fraction" => metrics.late_fraction,
        "total_slack" => metrics.total_slack,
        _ => return None,
    })
}

/// Largest accepted `scenario.ul`. Every duration is drawn from
/// `[w, UL·w]`, so an unbounded UL overflows the support to infinity and
/// the distribution constructors panic; the repository's own studies stay
/// at `UL ≤ 1.71`.
const MAX_UL: f64 = 1000.0;

/// Interns scenarios by their canonical spec so repeated requests share
/// one `Arc<Scenario>` (and one fingerprint-cache entry downstream).
///
/// Keeps the `capacity` most recently resolved scenarios alive, as the
/// service's LRU keeps their prepared state. An evicted scenario that a
/// queued request still holds is found again through a weak handle, so a
/// spec never builds a second copy while the first is alive. A rebuilt
/// scenario has the same fingerprint, so it still hits the service's
/// prepared-state and result caches.
struct ScenarioInterner {
    /// The most recently resolved specs.
    recent: Lru<String, Interned>,
    /// Specs evicted from `recent`; dead handles are swept out whenever
    /// the map has doubled since the last sweep.
    evicted: HashMap<String, Weak<Scenario>>,
    sweep_at: usize,
}

/// One interned scenario: the shared `Arc` and the heuristic schedules
/// already built on it, by canonical heuristic name. A repeated heuristic
/// request clones its schedule instead of running the heuristic again;
/// the schedules leave with the entry, so they are bounded by the
/// interner's capacity.
struct Interned {
    scenario: Arc<Scenario>,
    heuristic_schedules: HashMap<String, Schedule>,
}

impl Interned {
    /// Resolves a request's `schedule` spec on this scenario.
    fn schedule(&mut self, spec: &Json) -> Result<Schedule, String> {
        let kind = spec
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("schedule.kind must be a string")?;
        match kind {
            "heuristic" => {
                let name = spec
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("schedule.name must be a string")?;
                let h =
                    heuristic_by_name(name).ok_or_else(|| format!("unknown heuristic '{name}'"))?;
                if let Some(schedule) = self.heuristic_schedules.get(h.name()) {
                    return Ok(schedule.clone());
                }
                let schedule = h
                    .schedule(&self.scenario)
                    .map_err(|e| format!("heuristic '{name}' failed: {e}"))?;
                self.heuristic_schedules
                    .insert(h.name().to_string(), schedule.clone());
                Ok(schedule)
            }
            "random" => {
                let seed = spec
                    .get("seed")
                    .and_then(Json::as_u64)
                    .ok_or("schedule.seed must be a non-negative integer")?;
                Ok(random_schedule(
                    &self.scenario.graph.dag,
                    self.scenario.machine_count(),
                    seed,
                ))
            }
            other => Err(format!("unknown schedule kind '{other}'")),
        }
    }
}

impl ScenarioInterner {
    fn new(capacity: usize) -> Self {
        Self {
            recent: Lru::new(capacity),
            evicted: HashMap::new(),
            sweep_at: capacity,
        }
    }

    fn resolve(&mut self, spec: &Json) -> Result<&mut Interned, String> {
        let family = spec
            .get("family")
            .and_then(Json::as_str)
            .ok_or("scenario.family must be a string")?;
        let m = spec
            .get("m")
            .and_then(Json::as_usize)
            .filter(|&m| m >= 1)
            .ok_or("scenario.m must be a positive integer")?;
        let ul = spec
            .get("ul")
            .and_then(Json::as_f64)
            .filter(|ul| (1.0..=MAX_UL).contains(ul))
            .ok_or_else(|| format!("scenario.ul must be a number in [1, {MAX_UL}]"))?;
        let seed = spec
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or("scenario.seed must be a non-negative integer")?;
        // `n` is family-specific: the generator families size their graphs
        // with it, the `trace` family gets its size from the trace file.
        let parse_n = || {
            spec.get("n")
                .and_then(Json::as_usize)
                .filter(|&n| n >= 1)
                .ok_or("scenario.n must be a positive integer")
        };
        let parse_speed_cov = || {
            spec.get("speed_cov")
                .and_then(Json::as_f64)
                .filter(|v| (0.0..10.0).contains(v))
                .ok_or("scenario.speed_cov must be a number in [0, 10)")
        };
        let key;
        let build: Box<dyn FnOnce() -> Scenario> = match family {
            "paper-random" => {
                let n = parse_n()?;
                key = format!("paper-random/{n}/{m}/{}/{seed}", ul.to_bits());
                Box::new(move || Scenario::paper_random(n, m, ul, seed))
            }
            "app" => {
                let n = parse_n()?;
                let class_name = spec
                    .get("class")
                    .and_then(Json::as_str)
                    .ok_or("scenario.class must be a string")?;
                let class = AppClass::ALL
                    .into_iter()
                    .find(|c| c.name() == class_name)
                    .ok_or_else(|| format!("unknown application class '{class_name}'"))?;
                let speed_cov = parse_speed_cov()?;
                key = format!(
                    "app/{}/{n}/{m}/{}/{}/{seed}",
                    class.name(),
                    speed_cov.to_bits(),
                    ul.to_bits()
                );
                Box::new(move || {
                    Scenario::structured_app(class.generate(n, seed), m, speed_cov, ul, seed)
                })
            }
            "trace" => {
                let trace_name = spec
                    .get("trace")
                    .and_then(Json::as_str)
                    .ok_or("scenario.trace must be a string")?;
                let trace = crate::ext::traces::sample_trace(trace_name)
                    .ok_or_else(|| format!("unknown sample trace '{trace_name}'"))?;
                let speed_cov = parse_speed_cov()?;
                key = format!(
                    "trace/{}/{m}/{}/{}/{seed}",
                    trace.name,
                    speed_cov.to_bits(),
                    ul.to_bits()
                );
                let calibration = TraceCalibration {
                    machines: m,
                    speed_cov,
                };
                Box::new(move || Scenario::from_trace_with(&trace, &calibration, ul, seed))
            }
            other => return Err(format!("unknown scenario family '{other}'")),
        };
        let capacity = self.recent.capacity();
        let evicted = &mut self.evicted;
        let (entry, old) = self.recent.get_or_insert_with(key, |key| {
            let revived = evicted.remove(key).and_then(|handle| handle.upgrade());
            Interned {
                scenario: revived.unwrap_or_else(|| Arc::new(build())),
                heuristic_schedules: HashMap::new(),
            }
        });
        if let Some((k, old)) = old {
            evicted.insert(k, Arc::downgrade(&old.scenario));
            if evicted.len() >= self.sweep_at {
                evicted.retain(|_, handle| handle.strong_count() > 0);
                self.sweep_at = (2 * evicted.len()).max(capacity);
            }
        }
        Ok(entry)
    }
}

// ---------------------------------------------------------------------------
// The `dynamic` request family: synchronous online simulations
// ---------------------------------------------------------------------------

/// Hard cap on `dynamic.instances` — the simulation runs synchronously on
/// the reader thread, so one request must stay small.
const DYNAMIC_MAX_INSTANCES: usize = 2000;

/// Lazily built state shared by every `dynamic` request of one serve
/// session: the `ext-dynamic` workload pool and its capacity calibration.
#[derive(Default)]
struct DynamicRunner {
    pool: Option<(Vec<Arc<Scenario>>, f64)>,
}

impl DynamicRunner {
    fn run(&mut self, spec: &Json) -> Result<Json, String> {
        let policy_spec = spec.get("policy").and_then(Json::as_str).unwrap_or("never");
        let policy = robusched_dynamic::policy_by_spec(policy_spec)
            .ok_or_else(|| format!("unknown dropping policy '{policy_spec}'"))?;
        let fault_spec = spec.get("fault").and_then(Json::as_str).unwrap_or("none");
        let fault = robusched_dynamic::fault_by_spec(fault_spec)
            .ok_or_else(|| format!("unknown fault model '{fault_spec}'"))?;
        let recovery_spec = spec
            .get("recovery")
            .and_then(Json::as_str)
            .unwrap_or("abandon");
        let recovery = robusched_dynamic::recovery_by_spec(recovery_spec)
            .ok_or_else(|| format!("unknown recovery policy '{recovery_spec}'"))?;
        let oversub = match spec.get("oversub") {
            None => 1.0,
            Some(v) => v
                .as_f64()
                .filter(|o| o.is_finite() && *o > 0.0)
                .ok_or("dynamic.oversub must be a positive number")?,
        };
        let instances = match spec.get("instances") {
            None => 50,
            Some(v) => v
                .as_usize()
                .filter(|&n| (1..=DYNAMIC_MAX_INSTANCES).contains(&n))
                .ok_or_else(|| {
                    format!("dynamic.instances must be in 1..={DYNAMIC_MAX_INSTANCES}")
                })?,
        };
        let seed = match spec.get("seed") {
            None => 0,
            Some(v) => v
                .as_u64()
                .ok_or("dynamic.seed must be a non-negative integer")?,
        };
        let (pool, mean_work) = self.pool.get_or_insert_with(|| {
            let pool = workload_pool(0);
            let mean_work = mean_instance_work(&pool);
            (pool, mean_work)
        });
        let cell = SimCell {
            oversub,
            instances,
            seed,
            deadline_factor: robusched_dynamic::SimConfig::default().deadline_factor,
            policy: policy.as_ref(),
            fault: fault.as_ref(),
            recovery: recovery.as_ref(),
        };
        let m = &cell.run(pool, *mean_work).map_err(|e| e.to_string())?;
        let count = |n: usize| Json::Num(n as f64);
        Ok(Json::Obj(vec![
            ("policy".into(), Json::Str(policy_spec.to_string())),
            ("fault".into(), Json::Str(fault_spec.to_string())),
            ("recovery".into(), Json::Str(recovery_spec.to_string())),
            ("instances".into(), count(m.instances)),
            ("admitted".into(), count(m.admitted)),
            ("rejected".into(), count(m.rejected)),
            ("dropped".into(), count(m.dropped)),
            ("completed".into(), count(m.completed)),
            ("workflows_met".into(), count(m.workflows_met)),
            ("hit_rate".into(), Json::Num(m.workflow_hit_rate())),
            ("task_hit_rate".into(), Json::Num(m.task_hit_rate())),
            ("wasted_frac".into(), Json::Num(m.wasted_fraction())),
            ("utilization".into(), Json::Num(m.utilization())),
            (
                "eff_utilization".into(),
                Json::Num(m.effective_utilization()),
            ),
            ("goodput".into(), Json::Num(m.goodput())),
            ("machine_failures".into(), count(m.machine_failures)),
            ("killed_tasks".into(), count(m.killed_tasks)),
            ("transient_faults".into(), count(m.transient_faults)),
            ("retries".into(), count(m.retries)),
        ]))
    }
}

/// What the writer must do for one request, in submission order.
enum WirePayload {
    /// Wait on the service ticket, then render the metrics (optionally
    /// filtered).
    Eval(Ticket, Option<Vec<String>>),
    /// A `dynamic` simulation already ran on the reader thread — emit its
    /// payload as `{"id", "ok": true, "dynamic": {...}}`.
    Done(Json),
    /// Echo a protocol/simulation error.
    Fail(String),
}

/// One queue entry from reader to writer: the echoed id plus the payload.
type WireEntry = (Json, WirePayload);

/// Decodes one request line and starts it. An evaluation request is
/// submitted to `service`; the `dynamic` family runs its (small, capped)
/// simulation right here, on the reader thread, so responses stay
/// strictly in request order.
fn decode_request(
    line: &str,
    service: &EvalService,
    interner: &mut ScenarioInterner,
    dynamic: &mut DynamicRunner,
) -> WireEntry {
    let doc = match parse_json(line) {
        Ok(doc) => doc,
        Err(e) => return (Json::Null, WirePayload::Fail(format!("invalid JSON: {e}"))),
    };
    let id = doc.get("id").cloned().unwrap_or(Json::Null);
    if let Some(spec) = doc.get("dynamic") {
        let payload = dynamic
            .run(spec)
            .map_or_else(WirePayload::Fail, WirePayload::Done);
        return (id, payload);
    }
    let payload = (|| {
        let scenario_spec = doc.get("scenario").ok_or("missing 'scenario'")?;
        let interned = interner.resolve(scenario_spec)?;
        let schedule_spec = doc.get("schedule").ok_or("missing 'schedule'")?;
        let schedule = interned.schedule(schedule_spec)?;
        let scenario = interned.scenario.clone();
        let evaluator = doc
            .get("evaluator")
            .and_then(Json::as_str)
            .unwrap_or("classic")
            .to_string();
        let filter = match doc.get("metrics") {
            None => None,
            Some(Json::Arr(items)) => {
                let mut names = Vec::with_capacity(items.len());
                for item in items {
                    let name = item
                        .as_str()
                        .ok_or("'metrics' must be an array of strings")?;
                    if !METRIC_FIELDS.contains(&name) {
                        return Err(format!("unknown metric '{name}'"));
                    }
                    names.push(name.to_string());
                }
                Some(names)
            }
            Some(_) => return Err("'metrics' must be an array of strings".to_string()),
        };
        let ticket = service.submit(EvalRequest::new(scenario, schedule, &evaluator));
        Ok(WirePayload::Eval(ticket, filter))
    })();
    (id, payload.unwrap_or_else(WirePayload::Fail))
}

fn render_response(
    id: &Json,
    result: &Result<(MetricValues, bool, bool), String>,
    filter: Option<&[String]>,
) -> String {
    let mut fields = vec![("id".to_string(), id.clone())];
    match result {
        Ok((metrics, result_hit, scenario_hit)) => {
            fields.push(("ok".into(), Json::Bool(true)));
            fields.push(("cache_hit".into(), Json::Bool(*result_hit)));
            fields.push(("scenario_hit".into(), Json::Bool(*scenario_hit)));
            let names: Vec<&str> = match filter {
                Some(names) => names.iter().map(String::as_str).collect(),
                None => METRIC_FIELDS.to_vec(),
            };
            let values = names
                .iter()
                .map(|&n| {
                    (
                        n.to_string(),
                        Json::Num(metric_field(metrics, n).expect("validated metric name")),
                    )
                })
                .collect();
            fields.push(("metrics".into(), Json::Obj(values)));
        }
        Err(e) => {
            fields.push(("ok".into(), Json::Bool(false)));
            fields.push(("error".into(), Json::Str(e.clone())));
        }
    }
    let mut out = String::new();
    write_json(&Json::Obj(fields), &mut out);
    out
}

// ---------------------------------------------------------------------------
// serve: stdin/stdout protocol loop
// ---------------------------------------------------------------------------

/// Entries the reader may queue ahead of the writer. A client that writes
/// faster than the workers answer fills this queue, and the reader then
/// blocks instead of submitting more, so the service holds at most this
/// many unanswered requests plus two. Four times the service's 64-request
/// batch bound, so the workers still see full batches.
const READ_AHEAD: usize = 256;

/// Runs the protocol loop over arbitrary reader/writer (unit-testable);
/// returns the rendered summary.
pub fn serve_streams<R: BufRead, W: Write + Send>(
    mut input: R,
    output: W,
    opts: &RunOptions,
) -> std::io::Result<String> {
    let config = ServiceConfig {
        workers: opts.threads,
        ..Default::default()
    };
    let mut interner = ScenarioInterner::new(config.scenario_capacity);
    let service = EvalService::new(config);
    let mut dynamic = DynamicRunner::default();
    let t0 = Instant::now();
    let (tx, rx) = std::sync::mpsc::sync_channel::<WireEntry>(READ_AHEAD);

    let lines_seen = std::thread::scope(|scope| -> std::io::Result<u64> {
        let service_ref = &service;
        let writer = scope.spawn(move || -> std::io::Result<W> {
            let mut output = output;
            // Entries arrive in submission order; waiting on each ticket in
            // turn therefore emits responses in request order even when the
            // workers finish out of order.
            for (id, payload) in rx {
                let line = match payload {
                    WirePayload::Eval(ticket, filter) => {
                        let result = match service_ref.wait(ticket) {
                            Ok(outcome) => {
                                Ok((outcome.metrics, outcome.result_hit, outcome.scenario_hit))
                            }
                            Err(e) => Err(e.to_string()),
                        };
                        render_response(&id, &result, filter.as_deref())
                    }
                    WirePayload::Done(payload) => {
                        let mut out = String::new();
                        write_json(
                            &Json::Obj(vec![
                                ("id".into(), id),
                                ("ok".into(), Json::Bool(true)),
                                ("dynamic".into(), payload),
                            ]),
                            &mut out,
                        );
                        out
                    }
                    WirePayload::Fail(e) => render_response(&id, &Err(e), None),
                };
                writeln!(output, "{line}")?;
                output.flush()?;
            }
            Ok(output)
        });

        let mut lines_seen = 0u64;
        let mut raw = Vec::new();
        loop {
            raw.clear();
            if input.read_until(b'\n', &mut raw)? == 0 {
                break;
            }
            // Strip the line ending as `BufRead::lines` does.
            if raw.ends_with(b"\n") {
                raw.pop();
                if raw.ends_with(b"\r") {
                    raw.pop();
                }
            }
            let entry = match std::str::from_utf8(&raw) {
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => decode_request(line, &service, &mut interner, &mut dynamic),
                Err(e) => (Json::Null, WirePayload::Fail(format!("invalid UTF-8: {e}"))),
            };
            lines_seen += 1;
            // Blocks while the writer is `READ_AHEAD` entries behind.
            if tx.send(entry).is_err() {
                break; // writer died (broken pipe); stop reading
            }
        }
        drop(tx);
        writer.join().expect("writer thread never panics")?;
        Ok(lines_seen)
    })?;

    let stats = service.stats();
    Ok(format!(
        "serve: {lines_seen} request(s) in {:.2?} — {} completed, {} result-cache hit(s), \
         {} prepared-scenario hit(s), {} preparation(s), {} batch(es), {} eviction(s)",
        t0.elapsed(),
        stats.completed,
        stats.result_hits,
        stats.scenario_hits,
        stats.scenario_misses,
        stats.batches,
        stats.evictions,
    ))
}

/// The `serve` registry entry: stdin/stdout wrapper over
/// [`serve_streams`].
pub fn run_serve(opts: &RunOptions) -> std::io::Result<String> {
    let stdin = std::io::stdin();
    serve_streams(stdin.lock(), std::io::stdout(), opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip() {
        let doc = parse_json(r#"{"a": [1, 2.5, "x\n", true, null], "b": {"c": -3e2}}"#).unwrap();
        assert_eq!(
            doc.get("b").unwrap().get("c").unwrap().as_f64(),
            Some(-300.0)
        );
        let mut out = String::new();
        write_json(&doc, &mut out);
        assert_eq!(parse_json(&out).unwrap(), doc);
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("[1, 2] tail").is_err());
        assert!(parse_json("nul").is_err());
    }

    #[test]
    fn serve_answers_in_order_and_survives_bad_lines() {
        let input = concat!(
            r#"{"id": 1, "scenario": {"family": "paper-random", "n": 10, "m": 3, "ul": 1.1, "seed": 5}, "schedule": {"kind": "heuristic", "name": "heft"}, "evaluator": "classic"}"#,
            "\n",
            "this is not json\n",
            r#"{"id": 3, "scenario": {"family": "paper-random", "n": 10, "m": 3, "ul": 1.1, "seed": 5}, "schedule": {"kind": "heuristic", "name": "heft"}, "evaluator": "classic", "metrics": ["expected_makespan"]}"#,
            "\n",
            r#"{"id": 4, "scenario": {"family": "app", "class": "cholesky", "n": 4, "m": 3, "speed_cov": 0.3, "ul": 1.1, "seed": 5}, "schedule": {"kind": "random", "seed": 9}, "evaluator": "nope"}"#,
            "\n",
        );
        let mut output = Vec::new();
        let opts = RunOptions {
            threads: Some(2),
            out_dir: None,
            ..Default::default()
        };
        let summary = serve_streams(input.as_bytes(), &mut output, &opts).unwrap();
        assert!(summary.contains("4 request(s)"), "{summary}");
        let lines: Vec<Json> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| parse_json(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].get("id").unwrap().as_f64(), Some(1.0));
        assert_eq!(lines[0].get("ok"), Some(&Json::Bool(true)));
        assert!(lines[0]
            .get("metrics")
            .unwrap()
            .get("expected_makespan")
            .is_some());
        assert_eq!(lines[1].get("ok"), Some(&Json::Bool(false)));
        // id 3 repeats id 1's request: identical metrics, served from cache.
        assert_eq!(lines[2].get("cache_hit"), Some(&Json::Bool(true)));
        assert_eq!(
            lines[2].get("metrics").unwrap().get("expected_makespan"),
            lines[0].get("metrics").unwrap().get("expected_makespan"),
        );
        // The filter dropped the other nine fields.
        match lines[2].get("metrics").unwrap() {
            Json::Obj(fields) => assert_eq!(fields.len(), 1),
            other => panic!("expected object, got {other:?}"),
        }
        assert_eq!(lines[3].get("ok"), Some(&Json::Bool(false)));
    }

    #[test]
    fn out_of_range_uncertainty_levels_error_in_stream() {
        let request = |id: u32, ul: &str, evaluator: &str| {
            format!(
                r#"{{"id": {id}, "scenario": {{"family": "paper-random", "n": 10, "m": 3, "ul": {ul}, "seed": 5}}, "schedule": {{"kind": "heuristic", "name": "heft"}}, "evaluator": "{evaluator}"}}"#
            ) + "\n"
        };
        let input = [
            request(1, "1e308", "classic"),
            request(2, "1e308", "montecarlo"),
            request(3, "1001", "classic"),
            request(4, "0.5", "classic"),
            request(5, "1000", "classic"),
        ]
        .concat();
        let mut output = Vec::new();
        let opts = RunOptions {
            threads: Some(2),
            out_dir: None,
            ..Default::default()
        };
        let summary = serve_streams(input.as_bytes(), &mut output, &opts).unwrap();
        assert!(summary.contains("5 request(s)"), "{summary}");
        let lines: Vec<Json> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| parse_json(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 5);
        for line in &lines[..4] {
            assert_eq!(line.get("ok"), Some(&Json::Bool(false)), "{line:?}");
            let error = line.get("error").and_then(Json::as_str).unwrap();
            assert!(error.contains("scenario.ul"), "{error}");
        }
        // The bound itself still evaluates.
        assert_eq!(
            lines[4].get("ok"),
            Some(&Json::Bool(true)),
            "{:?}",
            lines[4]
        );
    }

    #[test]
    fn seeds_past_2_pow_53_are_told_apart() {
        // As `f64`s both seeds are 2^53, so they once shared one cache
        // entry and the second request got the first one's metrics.
        let request = |id: u32, seed: &str| {
            format!(
                r#"{{"id": {id}, "scenario": {{"family": "paper-random", "n": 10, "m": 3, "ul": 1.1, "seed": {seed}}}, "schedule": {{"kind": "heuristic", "name": "heft"}}, "evaluator": "classic"}}"#
            ) + "\n"
        };
        let input = [
            request(1, "9007199254740992"),
            request(2, "9007199254740993"),
            request(3, "18446744073709551615"),
            request(4, "18446744073709551616"),
            request(5, "1.5"),
        ]
        .concat();
        let mut output = Vec::new();
        let opts = RunOptions {
            threads: Some(2),
            out_dir: None,
            ..Default::default()
        };
        serve_streams(input.as_bytes(), &mut output, &opts).unwrap();
        let lines: Vec<Json> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| parse_json(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 5);
        for line in &lines[..3] {
            assert_eq!(line.get("ok"), Some(&Json::Bool(true)), "{line:?}");
            assert_eq!(line.get("cache_hit"), Some(&Json::Bool(false)), "{line:?}");
            assert_eq!(
                line.get("scenario_hit"),
                Some(&Json::Bool(false)),
                "{line:?}"
            );
        }
        assert_ne!(lines[0].get("metrics"), lines[1].get("metrics"));
        for line in &lines[3..] {
            assert_eq!(line.get("ok"), Some(&Json::Bool(false)), "{line:?}");
            let error = line.get("error").and_then(Json::as_str).unwrap();
            assert!(error.contains("scenario.seed"), "{error}");
        }
    }

    #[test]
    fn trace_family_requests_evaluate() {
        let input = concat!(
            r#"{"id": 1, "scenario": {"family": "trace", "trace": "montage-like", "m": 4, "speed_cov": 0.5, "ul": 1.1, "seed": 3}, "schedule": {"kind": "heuristic", "name": "heft"}, "metrics": ["expected_makespan"]}"#,
            "\n",
            r#"{"id": 2, "scenario": {"family": "trace", "trace": "montage-like", "m": 4, "speed_cov": 0.5, "ul": 1.1, "seed": 3}, "schedule": {"kind": "heuristic", "name": "heft"}, "metrics": ["expected_makespan"]}"#,
            "\n",
            r#"{"id": 3, "scenario": {"family": "trace", "trace": "ligo-like", "m": 4, "speed_cov": 0.5, "ul": 1.1, "seed": 3}, "schedule": {"kind": "random", "seed": 1}}"#,
            "\n",
        );
        let mut output = Vec::new();
        let opts = RunOptions {
            threads: Some(2),
            out_dir: None,
            ..Default::default()
        };
        serve_streams(input.as_bytes(), &mut output, &opts).unwrap();
        let lines: Vec<Json> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| parse_json(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].get("ok"), Some(&Json::Bool(true)));
        let makespan = lines[0]
            .get("metrics")
            .unwrap()
            .get("expected_makespan")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(makespan > 0.0);
        // The repeated spec is interned + result-cached.
        assert_eq!(lines[1].get("cache_hit"), Some(&Json::Bool(true)));
        // Unknown trace names error in-stream.
        assert_eq!(lines[2].get("ok"), Some(&Json::Bool(false)));
    }

    #[test]
    fn interner_stays_within_the_service_scenario_capacity() {
        let capacity = ServiceConfig::default().scenario_capacity;
        let mut interner = ScenarioInterner::new(capacity);
        let spec = |seed: usize| {
            parse_json(&format!(
                r#"{{"family": "paper-random", "n": 4, "m": 2, "ul": 1.1, "seed": {seed}}}"#
            ))
            .unwrap()
        };
        // A queued request holds the first scenario; nothing holds the rest.
        let held = interner.resolve(&spec(0)).unwrap().scenario.clone();
        let second = Arc::downgrade(&interner.resolve(&spec(1)).unwrap().scenario);
        let second_fingerprint =
            robusched_stochastic::scenario_fingerprint(&second.upgrade().unwrap());
        for seed in 2..=capacity {
            interner.resolve(&spec(seed)).unwrap();
            assert!(interner.recent.len() <= capacity);
        }
        assert_eq!(interner.recent.len(), capacity);
        // The first spec was evicted but is still alive, so it resolves to
        // the held scenario and pushes out the second, which nothing holds.
        assert!(Arc::ptr_eq(
            &held,
            &interner.resolve(&spec(0)).unwrap().scenario
        ));
        assert!(second.upgrade().is_none());
        // The second spec comes back rebuilt with the same fingerprint, so
        // the service's caches still recognise it.
        let again = interner.resolve(&spec(1)).unwrap().scenario.clone();
        assert_eq!(interner.recent.len(), capacity);
        assert_eq!(
            robusched_stochastic::scenario_fingerprint(&again),
            second_fingerprint
        );
        // Handles of evicted scenarios that died are swept out as they pile up.
        for seed in capacity + 1..=4 * capacity {
            interner.resolve(&spec(seed)).unwrap();
        }
        assert!(interner.evicted.len() <= capacity);
    }

    #[test]
    fn repeated_heuristic_requests_reuse_one_schedule_within_the_bound() {
        let capacity = 4;
        let mut interner = ScenarioInterner::new(capacity);
        let spec = |seed: usize| {
            parse_json(&format!(
                r#"{{"family": "paper-random", "n": 30, "m": 4, "ul": 1.1, "seed": {seed}}}"#
            ))
            .unwrap()
        };
        let heft_spec = |name: &str| {
            parse_json(&format!(r#"{{"kind": "heuristic", "name": "{name}"}}"#)).unwrap()
        };
        let first = interner.resolve(&spec(0)).unwrap();
        let built = first.schedule(&heft_spec("HEFT")).unwrap();
        assert_eq!(built, robusched_sched::heft(&first.scenario));
        // Repeats and aliases of the name share the one stored schedule.
        for name in ["HEFT", "heft", "Heft"] {
            let entry = interner.resolve(&spec(0)).unwrap();
            assert_eq!(entry.schedule(&heft_spec(name)).unwrap(), built);
            assert_eq!(entry.heuristic_schedules.len(), 1);
        }
        // Random schedules and failed lookups store nothing.
        let entry = interner.resolve(&spec(0)).unwrap();
        let random = parse_json(r#"{"kind": "random", "seed": 3}"#).unwrap();
        entry.schedule(&random).unwrap();
        assert!(entry.schedule(&heft_spec("no-such")).is_err());
        assert_eq!(entry.heuristic_schedules.len(), 1);
        // Every entry keeps its schedules, and they leave with it.
        for seed in 1..=3 * capacity {
            let entry = interner.resolve(&spec(seed)).unwrap();
            entry.schedule(&heft_spec("HEFT")).unwrap();
            entry.schedule(&heft_spec("BIL")).unwrap();
            assert!(interner.recent.len() <= capacity);
        }
        for seed in 2 * capacity + 1..=3 * capacity {
            let entry = interner.resolve(&spec(seed)).unwrap();
            assert_eq!(entry.heuristic_schedules.len(), 2);
        }
        assert_eq!(interner.recent.len(), capacity);
        // The rebuilt first scenario builds the same schedule again.
        let again = interner.resolve(&spec(0)).unwrap();
        assert!(again.heuristic_schedules.is_empty());
        assert_eq!(again.schedule(&heft_spec("HEFT")).unwrap(), built);
    }

    #[test]
    fn repeated_heft_requests_get_equal_answers() {
        let request = |id: usize, seed: usize| {
            format!(
                r#"{{"id": {id}, "scenario": {{"family": "paper-random", "n": 30, "m": 4, "ul": 1.1, "seed": {seed}}}, "schedule": {{"kind": "heuristic", "name": "HEFT"}}, "evaluator": "spelde"}}"#
            )
        };
        // The same HEFT request before and after the interner has evicted
        // its scenario (the capacity is 64), and twice in a row.
        let mut lines = vec![request(0, 0), request(1, 0)];
        lines.extend((1..=70).map(|seed| request(seed + 1, seed)));
        lines.push(request(72, 0));
        let opts = RunOptions {
            threads: Some(2),
            out_dir: None,
            ..Default::default()
        };
        let mut output = Vec::new();
        serve_streams(lines.join("\n").as_bytes(), &mut output, &opts).unwrap();
        let responses: Vec<Json> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| parse_json(l).unwrap())
            .collect();
        assert_eq!(responses.len(), lines.len());
        let metrics = |i: usize| responses[i].get("metrics").cloned().unwrap();
        assert_eq!(metrics(0), metrics(1));
        assert_eq!(metrics(0), metrics(72));
        assert_eq!(responses[1].get("cache_hit"), Some(&Json::Bool(true)));
    }

    #[test]
    fn reader_stops_within_the_read_ahead_bound_while_the_writer_blocks() {
        use std::io::{BufReader, Read};
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::{Condvar, Mutex};
        use std::time::Duration;

        /// Hands out one line per `read`, counting them.
        struct OneLinePerRead {
            lines: std::vec::IntoIter<String>,
            handed_out: Arc<AtomicUsize>,
        }
        impl Read for OneLinePerRead {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let Some(line) = self.lines.next() else {
                    return Ok(0);
                };
                buf[..line.len()].copy_from_slice(line.as_bytes());
                self.handed_out.fetch_add(1, Ordering::SeqCst);
                Ok(line.len())
            }
        }
        /// Blocks every write until the gate opens.
        struct GatedWriter {
            gate: Arc<(Mutex<bool>, Condvar)>,
            out: Arc<Mutex<Vec<u8>>>,
        }
        impl Write for GatedWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let (open, cv) = &*self.gate;
                let mut open = open.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                self.out.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        // Requests without a scenario: each answers with an in-stream
        // error that echoes its id.
        let total = 4 * READ_AHEAD;
        let handed_out = Arc::new(AtomicUsize::new(0));
        let input = BufReader::new(OneLinePerRead {
            lines: (0..total)
                .map(|i| format!("{{\"id\": {i}}}\n"))
                .collect::<Vec<_>>()
                .into_iter(),
            handed_out: handed_out.clone(),
        });
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let out = Arc::new(Mutex::new(Vec::new()));
        let writer = GatedWriter {
            gate: gate.clone(),
            out: out.clone(),
        };
        let server = std::thread::spawn(move || {
            let opts = RunOptions {
                threads: Some(1),
                out_dir: None,
                ..Default::default()
            };
            serve_streams(input, writer, &opts).unwrap()
        });

        // The writer holds the first entry, the channel the next
        // `READ_AHEAD`, and the reader blocks sending the one after.
        let bound = READ_AHEAD + 2;
        while handed_out.load(Ordering::SeqCst) < bound {
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(handed_out.load(Ordering::SeqCst), bound);

        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
        let summary = server.join().unwrap();
        assert!(
            summary.contains(&format!("{total} request(s)")),
            "{summary}"
        );
        let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
        let ids: Vec<f64> = text
            .lines()
            .map(|l| parse_json(l).unwrap().get("id").unwrap().as_f64().unwrap())
            .collect();
        assert_eq!(ids, (0..total).map(|i| i as f64).collect::<Vec<_>>());
    }

    /// Every byte truncation and every single-byte mutation of one small
    /// request per family gets exactly one answer carrying `ok`, none of
    /// them a caught panic, and the session ends cleanly. The alphabet is
    /// the trace parsers' malformed-input sweep's; its `0xFF` mutations
    /// make lines that are not UTF-8. The untruncated requests are part of
    /// the sweep and succeed.
    #[test]
    fn every_truncated_or_mutated_request_gets_one_answer() {
        const ALPHABET: [u8; 16] = [
            b'<', b'>', b'{', b'}', b'[', b']', b'"', b'\\', b'0', b'9', b'-', b'.', b' ', b'\n',
            0x00, 0xFF,
        ];
        let requests = [
            r#"{"id":1,"scenario":{"family":"paper-random","n":6,"m":2,"ul":1.1,"seed":5},"schedule":{"kind":"heuristic","name":"heft"}}"#,
            r#"{"id":2,"scenario":{"family":"app","class":"forkjoin","n":4,"m":2,"speed_cov":0.3,"ul":1.1,"seed":5},"schedule":{"kind":"random","seed":3},"evaluator":"spelde"}"#,
            r#"{"id":3,"scenario":{"family":"trace","trace":"montage-like","m":2,"speed_cov":0.3,"ul":1.1,"seed":5},"schedule":{"kind":"random","seed":3}}"#,
            r#"{"id":4,"dynamic":{"policy":"reap","instances":2,"seed":7,"fault":"exp@300:30+trans@0.05","recovery":"retry@3"}}"#,
        ];
        let mut input = Vec::new();
        for request in requests {
            let bytes = request.as_bytes();
            for cut in 0..=bytes.len() {
                input.extend_from_slice(&bytes[..cut]);
                input.push(b'\n');
            }
            for pos in 0..bytes.len() {
                for &b in ALPHABET.iter().filter(|&&b| b != bytes[pos]) {
                    input.extend_from_slice(&bytes[..pos]);
                    input.push(b);
                    input.extend_from_slice(&bytes[pos + 1..]);
                    input.push(b'\n');
                }
            }
        }
        let lines = input.split(|&b| b == b'\n');
        let expected = lines
            .filter(|l| !String::from_utf8_lossy(l).trim().is_empty())
            .count();
        assert!(std::str::from_utf8(&input).is_err());
        let mut output = Vec::new();
        let opts = RunOptions {
            threads: Some(2),
            out_dir: None,
            ..Default::default()
        };
        serve_streams(&input[..], &mut output, &opts).unwrap();
        let output = String::from_utf8(output).unwrap();
        assert_eq!(output.lines().count(), expected);
        let mut answered = std::collections::HashSet::new();
        for line in output.lines() {
            let answer = parse_json(line).unwrap();
            match answer.get("ok") {
                Some(Json::Bool(true)) => {
                    answered.insert(answer.get("id").and_then(Json::as_u64));
                }
                Some(Json::Bool(false)) => {
                    let error = answer.get("error").and_then(Json::as_str).unwrap();
                    assert!(!error.contains("evaluation panicked"), "{line}");
                }
                _ => panic!("answer without 'ok': {line}"),
            }
        }
        for id in 1..=requests.len() as u64 {
            assert!(answered.contains(&Some(id)), "request {id} never succeeded");
        }
    }

    #[test]
    fn dynamic_family_runs_in_order_and_validates() {
        let input = concat!(
            r#"{"id": 1, "dynamic": {"policy": "prune@0.5", "oversub": 2.0, "instances": 10, "seed": 7}}"#,
            "\n",
            r#"{"id": 2, "scenario": {"family": "paper-random", "n": 10, "m": 3, "ul": 1.1, "seed": 5}, "schedule": {"kind": "heuristic", "name": "heft"}, "metrics": ["expected_makespan"]}"#,
            "\n",
            r#"{"id": 3, "dynamic": {"policy": "sometimes"}}"#,
            "\n",
            r#"{"id": 4, "dynamic": {"instances": 999999}}"#,
            "\n",
            r#"{"id": 5, "dynamic": {"oversub": 1e308, "instances": 2}}"#,
            "\n",
            r#"{"id": 6, "dynamic": {"policy": "prune@0.5", "oversub": 2.0, "instances": 10, "seed": 7}}"#,
            "\n",
        );
        let mut output = Vec::new();
        let opts = RunOptions {
            threads: Some(2),
            out_dir: None,
            ..Default::default()
        };
        let summary = serve_streams(input.as_bytes(), &mut output, &opts).unwrap();
        assert!(summary.contains("6 request(s)"), "{summary}");
        let lines: Vec<Json> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| parse_json(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 6);
        // The simulation answered with its counters, in order.
        assert_eq!(lines[0].get("ok"), Some(&Json::Bool(true)));
        let sim = lines[0].get("dynamic").unwrap();
        assert_eq!(sim.get("instances").unwrap().as_f64(), Some(10.0));
        let hit_rate = sim.get("hit_rate").unwrap().as_f64().unwrap();
        assert!((0.0..=1.0).contains(&hit_rate));
        // Evaluation requests interleave untouched.
        assert_eq!(lines[1].get("ok"), Some(&Json::Bool(true)));
        // Bad policy specs, oversized runs and an arrival rate that
        // overflows error in-stream.
        assert_eq!(lines[2].get("ok"), Some(&Json::Bool(false)));
        assert_eq!(lines[3].get("ok"), Some(&Json::Bool(false)));
        assert_eq!(lines[4].get("ok"), Some(&Json::Bool(false)));
        let error = lines[4].get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("arrival rate"), "{error}");
        // Same spec, same answer: the simulation is deterministic.
        assert_eq!(lines[5].get("dynamic"), lines[0].get("dynamic"));
    }

    #[test]
    fn an_interarrival_time_that_overflows_errors_in_stream() {
        // A positive `oversub` so small that the rate is subnormal: every
        // arrival would land at t = ∞.
        let input = concat!(
            r#"{"id":2,"dynamic":{"oversub":1e-320,"instances":5}}"#,
            "\n",
            r#"{"id": 3, "dynamic": {"instances": 2}}"#,
            "\n",
        );
        let mut output = Vec::new();
        let opts = RunOptions {
            threads: Some(2),
            out_dir: None,
            ..Default::default()
        };
        serve_streams(input.as_bytes(), &mut output, &opts).unwrap();
        let lines: Vec<Json> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| parse_json(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("ok"), Some(&Json::Bool(false)));
        let error = lines[0].get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("arrival time is not finite"), "{error}");
        assert_eq!(lines[1].get("ok"), Some(&Json::Bool(true)));
    }
}
