//! Extension: Monte-Carlo convergence and what variance reduction buys.
//!
//! The paper buys its ground truth with brute force — "100 000
//! realizations" per case — without asking how many realizations the §IV
//! statistics actually *need*. This study measures exactly that: for each
//! [`McEstimator`] (plain, antithetic pairs, per-slot stratification) and a
//! sweep of realization budgets, it estimates σ_M, the average lateness and
//! the differential entropy from replicated independent runs and reports
//! the RMSE against a far-larger fixed-seed reference run. The classic
//! analytic evaluator is swept alongside as a zero-realization baseline —
//! its "error" against the Monte-Carlo reference is the independence-
//! assumption *bias*, the floor under which no realization budget can go.
//!
//! Two readings matter:
//!
//! * at equal budget, the variance-reduced estimators sit below the plain
//!   one (the `saved(σ)` factor in the rendered report is the squared RMSE
//!   ratio at the largest budget — the classical equivalent-sample-size
//!   multiplier);
//! * the MC curves cross the classic baseline within a few thousand
//!   realizations on small cases: past that point the sampling noise is
//!   smaller than the analytic bias, which is the regime the paper's
//!   100 000-realization accuracy figures live in.
//!
//! Artifact: `ext_mc_convergence.csv` (schema [`CSV_HEADER`]).

use crate::RunOptions;
use robusched_core::{distribution_stats, DistributionStats};
use robusched_platform::Scenario;
use robusched_randvar::{derive_seed, DiscreteRv};
use robusched_sched::{heft, random_schedule, Schedule};
use robusched_stochastic::{
    mc_makespans, ClassicEvaluator, EvalContext, Evaluator, McConfig, McEstimator, SamplingTables,
};

/// Header of [`csv`] — the schema the smoke test locks in.
pub const CSV_HEADER: &str = "case,estimator,realizations,replicates,schedules,\
rmse_mean,rmse_std,rmse_lateness,rmse_entropy";

/// One case of the study.
#[derive(Debug, Clone, Copy)]
struct Case {
    name: &'static str,
    tasks: usize,
    machines: usize,
    ul: f64,
}

const CASES: [Case; 2] = [
    Case {
        name: "10t-3m",
        tasks: 10,
        machines: 3,
        ul: 1.1,
    },
    Case {
        name: "30t-8m",
        tasks: 30,
        machines: 8,
        ul: 1.1,
    },
];

/// The estimators under test, plain first (the comparison baseline).
const ESTIMATORS: [McEstimator; 3] = [
    McEstimator::Standard,
    McEstimator::Antithetic,
    McEstimator::Stratified,
];

/// One row of the sweep: RMSE of the three statistics at one budget.
#[derive(Debug, Clone)]
pub struct ConvergenceRow {
    /// Case label (`"10t-3m"`, …).
    pub case: String,
    /// Estimator label (`"standard"`, `"antithetic"`, `"stratified"`,
    /// `"classic"`).
    pub estimator: String,
    /// Realizations per estimate (0 for the analytic baseline).
    pub realizations: usize,
    /// Independent replicate estimates the RMSE is taken over.
    pub replicates: usize,
    /// Schedules aggregated per replicate.
    pub schedules: usize,
    /// RMSE of the expected makespan vs the reference.
    pub rmse_mean: f64,
    /// RMSE of the makespan standard deviation vs the reference.
    pub rmse_std: f64,
    /// RMSE of the average lateness vs the reference.
    pub rmse_lateness: f64,
    /// RMSE of the differential entropy vs the reference.
    pub rmse_entropy: f64,
}

/// The full sweep result.
#[derive(Debug, Clone)]
pub struct Convergence {
    /// All rows, grouped by case, then estimator, then budget.
    pub rows: Vec<ConvergenceRow>,
}

fn estimator_label(e: McEstimator) -> &'static str {
    match e {
        McEstimator::Standard => "standard",
        McEstimator::Antithetic => "antithetic",
        McEstimator::Stratified => "stratified",
    }
}

/// Runs the sweep.
pub fn run(opts: &RunOptions) -> std::io::Result<Convergence> {
    let replicates = opts.count(8, 3);
    let grid = 64;
    // Budget sweep (deduplicated after scaling; the 50-realization floor
    // keeps smoke runs meaningful).
    let mut budgets: Vec<usize> = [500usize, 1_000, 2_000, 4_000, 8_000]
        .iter()
        .map(|&r| opts.count(r, 50))
        .collect();
    budgets.dedup();
    let reference_realizations = opts.count(64_000, 1_000);

    let mut rows = Vec::new();
    for (ci, case) in CASES.iter().enumerate() {
        let scenario = Scenario::paper_random(
            case.tasks,
            case.machines,
            case.ul,
            derive_seed(opts.seed, 0xAC0 + ci as u64),
        );
        let tables = SamplingTables::new(&scenario);
        // A heuristic schedule plus three random ones: estimator error is
        // aggregated over qualitatively different schedules.
        let mut schedules: Vec<Schedule> = vec![heft(&scenario)];
        for k in 0..3 {
            schedules.push(random_schedule(
                &scenario.graph.dag,
                case.machines,
                derive_seed(opts.seed, 0xAD0 + (ci * 7 + k) as u64),
            ));
        }

        // Fixed-seed high-budget reference per schedule.
        let reference: Vec<DistributionStats> = schedules
            .iter()
            .map(|sched| {
                let ms = mc_makespans(
                    &scenario,
                    sched,
                    &McConfig {
                        realizations: reference_realizations,
                        seed: derive_seed(opts.seed, 0xAE0 + ci as u64),
                        threads: opts.threads,
                        estimator: McEstimator::Standard,
                    },
                    &tables,
                );
                distribution_stats(&DiscreteRv::from_samples(&ms, grid))
            })
            .collect();

        // The analytic baseline: deterministic, so its "RMSE" is the pure
        // independence-assumption bias vs the MC reference. One prepared
        // context serves every schedule.
        {
            let classic = ClassicEvaluator::default();
            let mut cx = EvalContext::new(classic.prepare(&scenario));
            let (mut m2, mut s2, mut l2, mut h2) = (0.0, 0.0, 0.0, 0.0);
            for (sched, reference) in schedules.iter().zip(&reference) {
                let stats = distribution_stats(&classic.evaluate_with(&scenario, sched, &mut cx));
                m2 += (stats.mean - reference.mean).powi(2);
                s2 += (stats.std_dev - reference.std_dev).powi(2);
                l2 += (stats.avg_lateness - reference.avg_lateness).powi(2);
                h2 += (stats.entropy - reference.entropy).powi(2);
            }
            let n = schedules.len() as f64;
            rows.push(ConvergenceRow {
                case: case.name.to_string(),
                estimator: "classic".to_string(),
                realizations: 0,
                replicates: 1,
                schedules: schedules.len(),
                rmse_mean: (m2 / n).sqrt(),
                rmse_std: (s2 / n).sqrt(),
                rmse_lateness: (l2 / n).sqrt(),
                rmse_entropy: (h2 / n).sqrt(),
            });
        }

        for &estimator in &ESTIMATORS {
            for &realizations in &budgets {
                let (mut m2, mut s2, mut l2, mut h2) = (0.0, 0.0, 0.0, 0.0);
                let mut count = 0usize;
                for rep in 0..replicates {
                    for (sched, reference) in schedules.iter().zip(&reference) {
                        let ms = mc_makespans(
                            &scenario,
                            sched,
                            &McConfig {
                                realizations,
                                seed: derive_seed(opts.seed, 0xAF00 + (ci * 101 + rep) as u64),
                                threads: opts.threads,
                                estimator,
                            },
                            &tables,
                        );
                        let stats = distribution_stats(&DiscreteRv::from_samples(&ms, grid));
                        m2 += (stats.mean - reference.mean).powi(2);
                        s2 += (stats.std_dev - reference.std_dev).powi(2);
                        l2 += (stats.avg_lateness - reference.avg_lateness).powi(2);
                        h2 += (stats.entropy - reference.entropy).powi(2);
                        count += 1;
                    }
                }
                let n = count as f64;
                rows.push(ConvergenceRow {
                    case: case.name.to_string(),
                    estimator: estimator_label(estimator).to_string(),
                    realizations,
                    replicates,
                    schedules: schedules.len(),
                    rmse_mean: (m2 / n).sqrt(),
                    rmse_std: (s2 / n).sqrt(),
                    rmse_lateness: (l2 / n).sqrt(),
                    rmse_entropy: (h2 / n).sqrt(),
                });
            }
        }
    }
    let out = Convergence { rows };
    opts.write_artifact("ext_mc_convergence.csv", &csv(&out))?;
    Ok(out)
}

/// The CSV artifact.
pub fn csv(c: &Convergence) -> String {
    let mut out = format!("{CSV_HEADER}\n");
    for r in &c.rows {
        out.push_str(&format!(
            "{},{},{},{},{},{:.6},{:.6},{:.6},{:.6}\n",
            r.case,
            r.estimator,
            r.realizations,
            r.replicates,
            r.schedules,
            r.rmse_mean,
            r.rmse_std,
            r.rmse_lateness,
            r.rmse_entropy
        ));
    }
    out
}

/// Equivalent-sample-size multiplier of `mode` vs the plain estimator at
/// the largest shared budget: `(rmse_plain/rmse_mode)²` on the statistic
/// selected by `stat` (from the row). Values above 1 mean the mode needs
/// that many times fewer realizations for the same accuracy.
pub fn realizations_saved(
    c: &Convergence,
    case: &str,
    mode: &str,
    stat: fn(&ConvergenceRow) -> f64,
) -> Option<f64> {
    let at = |estimator: &str| {
        c.rows
            .iter()
            .filter(|r| r.case == case && r.estimator == estimator)
            .max_by_key(|r| r.realizations)
    };
    let plain = at("standard")?;
    let vr = at(mode)?;
    (vr.realizations == plain.realizations && stat(vr) > 0.0)
        .then(|| (stat(plain) / stat(vr)).powi(2))
}

/// Human-readable rendering: the sweep table plus the savings summary
/// (antithetic pairs target the first-order/mean error, stratification the
/// spread statistics — both factors are reported).
pub fn render(c: &Convergence) -> String {
    let mut out = String::from(
        "Extension: Monte-Carlo convergence (RMSE vs large fixed-seed reference)\n\
         case     estimator   realizations  rmse(E)   rmse(σ)   rmse(L)   rmse(h)\n",
    );
    for r in &c.rows {
        out.push_str(&format!(
            "{:<8} {:<11} {:>12}  {:>8.5} {:>9.5} {:>9.5} {:>9.5}\n",
            r.case,
            r.estimator,
            r.realizations,
            r.rmse_mean,
            r.rmse_std,
            r.rmse_lateness,
            r.rmse_entropy
        ));
    }
    out.push('\n');
    for case in CASES {
        for mode in ["antithetic", "stratified"] {
            let mean_f = realizations_saved(c, case.name, mode, |r| r.rmse_mean);
            let std_f = realizations_saved(c, case.name, mode, |r| r.rmse_std);
            if let (Some(m), Some(s)) = (mean_f, std_f) {
                out.push_str(&format!(
                    "→ {}: {mode} ≈ {m:.1}× equivalent realizations on E(M), {s:.1}× on σ (largest budget)\n",
                    case.name
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_schema_and_sane_rows() {
        let opts = RunOptions {
            scale: 0.01,
            out_dir: None,
            seed: 11,
            threads: None,
        };
        let c = run(&opts).unwrap();
        // 2 cases × (1 classic + 3 estimators × b deduped budgets).
        let per_case = c.rows.len() / 2;
        assert_eq!(c.rows.len(), 2 * per_case);
        let budgets = (per_case - 1) / 3;
        assert!(budgets >= 1);
        assert_eq!(per_case, 1 + 3 * budgets);
        assert_eq!(
            c.rows.iter().filter(|r| r.estimator == "classic").count(),
            2
        );
        for r in &c.rows {
            assert!(r.rmse_std.is_finite() && r.rmse_std >= 0.0);
            assert!(r.rmse_lateness.is_finite());
            assert!(r.rmse_entropy.is_finite());
        }
        let text = csv(&c);
        assert!(text.starts_with(CSV_HEADER));
        assert_eq!(text.lines().count(), 1 + c.rows.len());
        // Savings are computable for both modes on both cases.
        for case in ["10t-3m", "30t-8m"] {
            for mode in ["antithetic", "stratified"] {
                assert!(realizations_saved(&c, case, mode, |r| r.rmse_mean).is_some());
                assert!(realizations_saved(&c, case, mode, |r| r.rmse_std).is_some());
            }
        }
        assert!(render(&c).contains("equivalent realizations"));
    }
}
