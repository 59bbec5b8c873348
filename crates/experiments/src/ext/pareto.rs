//! Extension: correlations near the Pareto front.
//!
//! §VIII: *"Our results are indeed obtained with random schedules which
//! only give an indication of correlation between the metrics. However, at
//! some point (for low makespan schedules) there could be some trade-off to
//! find."* We compare the E(M)~σ_M Pearson over all random schedules
//! against the same correlation restricted to the best-makespan decile.

use crate::RunOptions;
use robusched_core::{MetricValues, StudyBuilder};
use robusched_platform::Scenario;
use robusched_randvar::derive_seed;
use robusched_stats::pearson;

/// Result of the near-Pareto comparison.
#[derive(Debug, Clone)]
pub struct Pareto {
    /// corr(E, σ) over the full random cloud (mean over cases).
    pub full_corr: f64,
    /// corr(E, σ) over the best-makespan decile (mean over cases).
    pub front_corr: f64,
    /// Cases aggregated.
    pub cases: usize,
}

/// Runs the experiment.
pub fn run(opts: &RunOptions) -> std::io::Result<Pareto> {
    let cases = 6usize;
    let schedules = opts.count(3_000, 200);
    let mut full = Vec::new();
    let mut front = Vec::new();
    for k in 0..cases {
        let seed = derive_seed(opts.seed, 9000 + k as u64);
        let s = Scenario::paper_random(25, 4, 1.1, seed);
        // Streaming pass with a sink: only the (E, σ) pairs this study
        // needs are kept, not the full metric rows.
        let mut rows: Vec<(f64, f64)> = Vec::with_capacity(schedules);
        let mut collect = |_: usize, m: &MetricValues| {
            rows.push((m.expected_makespan, m.makespan_std));
        };
        StudyBuilder::new(&s)
            .random_schedules(schedules)
            .seed(seed)
            .threads_opt(opts.threads)
            .sink(&mut collect)
            .run()?;
        let es: Vec<f64> = rows.iter().map(|r| r.0).collect();
        let ss: Vec<f64> = rows.iter().map(|r| r.1).collect();
        full.push(pearson(&es, &ss));
        rows.sort_by(|a, b| a.0.total_cmp(&b.0));
        let decile = &rows[..rows.len() / 10];
        let es: Vec<f64> = decile.iter().map(|r| r.0).collect();
        let ss: Vec<f64> = decile.iter().map(|r| r.1).collect();
        front.push(pearson(&es, &ss));
    }
    let out = Pareto {
        full_corr: robusched_stats::mean(&full),
        front_corr: robusched_stats::mean(&front),
        cases,
    };
    let csv = format!(
        "population,mean_corr_E_sigma\nall_random,{:.4}\nbest_decile,{:.4}\n",
        out.full_corr, out.front_corr
    );
    opts.write_artifact("ext_pareto.csv", &csv)?;
    Ok(out)
}

/// Human-readable rendering.
pub fn render(p: &Pareto) -> String {
    format!(
        "Extension: near-Pareto correlation ({} cases)\n  corr(E, σ) all random schedules  = {:.3}\n  corr(E, σ) best-makespan decile  = {:.3}\n  → {}\n",
        p.cases,
        p.full_corr,
        p.front_corr,
        if p.front_corr < p.full_corr {
            "correlation weakens near the front: a genuine trade-off zone"
        } else {
            "no weakening at this scale"
        }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn front_correlation_weaker() {
        let opts = RunOptions {
            scale: 0.15,
            out_dir: None,
            seed: 44,
            threads: None,
        };
        let p = run(&opts).unwrap();
        assert!(p.full_corr > 0.3, "full corr {}", p.full_corr);
        // Restricting the range mechanically attenuates Pearson; the
        // scientific content is the magnitude of the drop.
        assert!(
            p.front_corr < p.full_corr,
            "front {} vs full {}",
            p.front_corr,
            p.full_corr
        );
    }
}
