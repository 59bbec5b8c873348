//! Shared harness pieces: the metric catalogue, the result report and its
//! JSON line, order statistics, peak memory, and request-tier
//! classification.

use robusched_core::EvalOutcome;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed on untraced runs: `(name, unit)`.
///
/// Every workload reports every one of them; what an "operation" is
/// depends on the workload (a study call, a service request, a simulated
/// instance — see README.md).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed on traced runs: `(name, unit)`. A layer a
/// workload does not exercise reads 0, as does a percentile that has fewer
/// than [`MIN_BEYOND`] samples beyond it.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("error_rate", "ratio"),
    ("platform.scenario_build_ms", "ms"),
    ("stochastic.prepare_ms", "ms"),
    ("stochastic.table_slots", "count"),
    ("stochastic.slot_fills", "count"),
    ("stochastic.sampling_tables_ms", "ms"),
    ("stochastic.fingerprint_us", "us"),
    ("sched.random_schedule_us", "us"),
    ("sched.eager_plan_us", "us"),
    ("sched.heft_ms", "ms"),
    ("stochastic.evaluate_us.classic", "us"),
    ("stochastic.evaluate_us.montecarlo", "us"),
    ("stochastic.evaluate_us.spelde", "us"),
    ("stochastic.evaluate_us.dodin", "us"),
    ("stochastic.lookup_us", "us"),
    ("stochastic.lookup_calls", "count"),
    ("randvar.sum_into_calls", "count"),
    ("randvar.sum_into_us", "us"),
    ("randvar.max_into_calls", "count"),
    ("randvar.max_into_us", "us"),
    ("stochastic.mc_draws", "count"),
    ("core.compute_metrics_us", "us"),
    ("core.streaming_push_us", "us"),
    ("core.matrix_ms", "ms"),
    ("experiments.parse_json_us", "us"),
    ("core.service.result_hit_ratio", "ratio"),
    ("core.service.scenario_hit_ratio", "ratio"),
    ("core.service.evictions", "count"),
    ("core.service.batch_mean", "count"),
    ("core.service.latency_p99_ms", "ms"),
    ("core.service.cold_p50_ms", "ms"),
    ("core.service.prepared_hit_p50_ms", "ms"),
    ("core.service.prepared_hit_p99_ms", "ms"),
    ("core.service.result_hit_p50_us", "us"),
    ("core.service.result_hit_p99_us", "us"),
    ("core.service.cold_samples", "count"),
    ("core.service.prepared_hit_samples", "count"),
    ("core.service.result_hit_samples", "count"),
    ("dynamic.sim_run_ms.never", "ms"),
    ("dynamic.sim_run_ms.reap", "ms"),
    ("dynamic.sim_run_ms.prune-0.5", "ms"),
    ("dynamic.sim_run_ms.gate-0.5", "ms"),
    ("dynamic.sim_run_ms.fault-retry", "ms"),
    ("dynamic.remaining_build_ms", "ms"),
    ("dynamic.dist_builds", "count"),
    ("dynamic.tasks_completed", "count"),
    ("dynamic.wasted_frac", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
];

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-quantile (`0 < p < 1`) of `sorted`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie strictly beyond its rank.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input not sorted");
    if sorted.is_empty() || !(0.0..1.0).contains(&p) {
        return None;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).max(1);
    (sorted.len() - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The median of `values` (mean of the middle pair for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// Width of the slices a measured window is cut into for
/// [`median_rate`].
pub const RATE_SLICE_S: f64 = 1.0;

/// Throughput that shrugs off short disturbances: the window `[0, window)`
/// is cut into whole [`RATE_SLICE_S`] slices, the work of each completion
/// `(seconds since start, work)` is credited to the slice it finished in,
/// and the median slice rate is returned. `None` when no slice is whole.
pub fn median_rate(completions: &[(f64, f64)], window: f64) -> Option<f64> {
    let slices = (window / RATE_SLICE_S).floor() as usize;
    let mut work = vec![0.0; slices];
    for &(t, w) in completions {
        let i = (t / RATE_SLICE_S).floor();
        if i >= 0.0 && (i as usize) < slices {
            work[i as usize] += w;
        }
    }
    let rates: Vec<f64> = work.iter().map(|w| w / RATE_SLICE_S).collect();
    median(&rates)
}

/// Which cache tier answered a service request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// The scenario's prepared state had to be built for this evaluator.
    Cold,
    /// Prepared state was cached; the schedule was evaluated.
    PreparedHit,
    /// Served without evaluating: a result-cache hit or a coalesced
    /// duplicate of an in-flight request.
    ResultHit,
}

impl Tier {
    /// The tier as reported by the outcome's own flags (never the tier the
    /// generator intended).
    pub fn of(outcome: &EvalOutcome) -> Self {
        match (outcome.result_hit, outcome.scenario_hit) {
            (true, _) => Self::ResultHit,
            (false, true) => Self::PreparedHit,
            (false, false) => Self::Cold,
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations started in the measured window.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Output checks that did not hold.
    pub check_failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records metric `name`, which must be in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.metrics.insert(name, value);
    }

    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// `true` when no output check failed.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// The result line: end-to-end metrics when `traced` is false, per-layer
    /// metrics otherwise. A missing end-to-end metric or a non-finite value
    /// is a harness bug and marks the run incorrect.
    pub fn json_line(&mut self, traced: bool) -> String {
        self.set(
            "error_rate",
            self.failed as f64 / self.attempted.max(1) as f64,
        );
        let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut body = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = match self.get(name) {
                Some(v) if v.is_finite() => v,
                Some(v) => {
                    self.check_failures.push(format!("metric {name} is {v}"));
                    0.0
                }
                None if traced => 0.0,
                None => {
                    self.check_failures
                        .push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            if i > 0 {
                body.push_str(", ");
            }
            write!(
                body,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robusched_core::MetricValues;

    /// `true` when `name` is a valid metric name: it starts with a letter or a
    /// digit, has at most 64 characters, and uses only `[A-Za-z0-9_.-]`.
    fn valid_metric_name(name: &str) -> bool {
        let mut chars = name.chars();
        matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        // p50 of 20 samples: rank 10, ten samples beyond.
        assert_eq!(percentile(&v, 0.5), Some(10.0));
        // p99 of 20 samples: rank 20, none beyond.
        assert_eq!(percentile(&v, 0.99), None);
        // p99 needs 1000 samples: rank 990 leaves exactly ten beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_rate_uses_whole_slices_only() {
        // Three whole slices with 2, 4 and 3 units, plus a straggler after
        // the window.
        let done = [(0.1, 1.0), (0.9, 1.0), (1.5, 4.0), (2.2, 3.0), (3.1, 100.0)];
        assert_eq!(median_rate(&done, 3.5), Some(3.0));
        assert_eq!(median_rate(&done, 0.5), None);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        assert!(valid_metric_name("dynamic.sim_run_ms.prune-0.5"));
        assert!(valid_metric_name("9lives"));
        assert!(!valid_metric_name("prune@0.5"));
        assert!(!valid_metric_name(".hidden"));
        assert!(!valid_metric_name("a b"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name(&"x".repeat(65)));
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_metric_name(name), "{name}");
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }

    #[test]
    fn catalogue_matches_benchmark_manifest() {
        let manifest = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = manifest.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn tier_comes_from_outcome_flags() {
        let outcome = |scenario_hit, result_hit| EvalOutcome {
            metrics: MetricValues {
                expected_makespan: 1.0,
                makespan_std: 0.0,
                makespan_entropy: 0.0,
                avg_slack: 0.0,
                slack_std: 0.0,
                avg_lateness: 0.0,
                prob_absolute: 1.0,
                prob_relative: 1.0,
                late_fraction: 0.0,
                total_slack: 0.0,
            },
            scenario_hit,
            result_hit,
        };
        assert_eq!(Tier::of(&outcome(false, false)), Tier::Cold);
        assert_eq!(Tier::of(&outcome(true, false)), Tier::PreparedHit);
        assert_eq!(Tier::of(&outcome(true, true)), Tier::ResultHit);
        // A coalesced follower reports a result hit whatever its scenario
        // flag says.
        assert_eq!(Tier::of(&outcome(false, true)), Tier::ResultHit);
    }

    #[test]
    fn json_line_has_every_metric_and_flags_gaps() {
        let mut r = Report {
            attempted: 4,
            ..Report::default()
        };
        r.set("setup_s", 0.5);
        r.set("throughput_per_s", 10.0);
        r.set("latency_p50_ms", 1.25);
        let line = r.json_line(false);
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 0.0"));
        assert!(!r.correct(), "a missing end-to-end metric is a failure");
        r.set("peak_rss_mb", 12.0);
        r.check_failures.clear();
        let line = r.json_line(false);
        assert!(r.correct());
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 0,"));
        let traced = r.json_line(true);
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
    }
}
