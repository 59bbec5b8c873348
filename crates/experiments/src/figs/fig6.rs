//! Fig. 6 — the headline result: mean (upper triangle) and standard
//! deviation (lower triangle) of the Pearson coefficients over the 24
//! cases with ≤ ~100 tasks.
//!
//! Also reproduces the §VII in-text number: dividing the relative
//! probabilistic metric by the makespan makes it strongly correlated with
//! the makespan standard deviation (paper: 0.998 ± 0.009).

use crate::cases::tier_a;
use crate::RunOptions;
use robusched_core::{pearson_matrix, MetricValues, StudyBuilder, METRIC_LABELS};
use robusched_numeric::special::norm_quantile;
use robusched_stats::{pearson, CorrMatrix};

/// Output of the Fig. 6 aggregation.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// Cell means over the cases.
    pub mean: CorrMatrix,
    /// Cell standard deviations over the cases.
    pub std: CorrMatrix,
    /// Per-case Pearson of the makespan-normalized relative probabilistic
    /// metric against `σ_M` (mean, std) — the §VII in-text claim. Uses the
    /// Gaussian inversion (see [`rel_prob_variants`]); the literal
    /// `(1 − R)/E(M)` and `R/E(M)` readings are also reported.
    pub rel_by_makespan_vs_std: (f64, f64),
    /// Means of the alternative normalizations' correlations with `σ_M`:
    /// `(raw 1−R, (1−R)/E, R/E)`.
    pub rel_variants_mean: (f64, f64, f64),
    /// Number of aggregated cases.
    pub cases: usize,
}

/// Runs the 24-case aggregation.
pub fn run(opts: &RunOptions) -> std::io::Result<Fig6> {
    let cases = tier_a(opts.seed);
    let mut matrices = Vec::with_capacity(cases.len());
    let mut rel_corrs = Vec::with_capacity(cases.len());
    for case in &cases {
        let scenario = case.scenario();
        let mut random = Vec::new();
        let mut collect = |_: usize, m: &MetricValues| random.push(*m);
        StudyBuilder::new(&scenario)
            .random_schedules(opts.count(case.schedules, 60))
            .seed(case.seed)
            .threads_opt(opts.threads)
            .sink(&mut collect)
            .run()?;
        rel_corrs.push(rel_prob_variants(&random));
        matrices.push(pearson_matrix(&random));
    }
    let (mean, std) = CorrMatrix::aggregate(&matrices);
    let gauss: Vec<f64> = rel_corrs.iter().map(|v| v.gaussian_inversion).collect();
    let rel_mean = robusched_stats::mean(&gauss);
    let rel_std = robusched_stats::population_std(&gauss);
    let raws: Vec<f64> = rel_corrs.iter().map(|v| v.raw).collect();
    let divs: Vec<f64> = rel_corrs.iter().map(|v| v.div_by_makespan).collect();
    let rdivs: Vec<f64> = rel_corrs.iter().map(|v| v.r_div_by_makespan).collect();

    opts.write_artifact("fig6_pearson_mean.csv", &mean.to_csv())?;
    opts.write_artifact("fig6_pearson_std.csv", &std.to_csv())?;
    let combined = mean.render_combined(&std);
    opts.write_artifact("fig6_combined.txt", &combined)?;

    Ok(Fig6 {
        mean,
        std,
        rel_by_makespan_vs_std: (rel_mean, rel_std),
        rel_variants_mean: (
            robusched_stats::mean(&raws),
            robusched_stats::mean(&divs),
            robusched_stats::mean(&rdivs),
        ),
        cases: cases.len(),
    })
}

/// Correlations (vs `σ_M`) of candidate normalizations of the relative
/// probabilistic metric.
///
/// §VII says "we divided the relative probabilistic by the makespan" and
/// reports a 0.998 ± 0.009 Pearson against σ_M, but the exact transform is
/// not written out. For a near-Gaussian makespan,
/// `R(γ) = 2Φ((γ−1)·E/σ) − 1` (to first order in γ−1), so the makespan
/// normalization that recovers a σ-proportional quantity is the *Gaussian
/// inversion* `σ̂ = (γ−1)·E / Φ⁻¹((R+1)/2)` — and indeed it reproduces the
/// paper's 0.998 ± 0.009 in our runs, while the two literal readings
/// (`(1−R)/E`, `R/E`) land at |r| ≈ 0.5–0.97 with unstable sign. All are
/// reported; see DESIGN.md.
#[derive(Debug, Clone, Copy)]
pub struct RelProbVariants {
    /// Pearson of raw `1 − R(γ)` vs `σ_M` (the Fig. 6 cell).
    pub raw: f64,
    /// Pearson of `(1 − R)/E(M)` vs `σ_M`.
    pub div_by_makespan: f64,
    /// Pearson of `R/E(M)` vs `σ_M`.
    pub r_div_by_makespan: f64,
    /// Pearson of the Gaussian inversion `σ̂` vs `σ_M`.
    pub gaussian_inversion: f64,
}

/// Computes [`RelProbVariants`] over one case's random schedules.
pub fn rel_prob_variants(rows: &[MetricValues]) -> RelProbVariants {
    let sigma: Vec<f64> = rows.iter().map(|m| m.makespan_std).collect();
    let inv: Vec<f64> = rows.iter().map(|m| 1.0 - m.prob_relative).collect();
    let div: Vec<f64> = rows
        .iter()
        .map(|m| (1.0 - m.prob_relative) / m.expected_makespan)
        .collect();
    let rdiv: Vec<f64> = rows
        .iter()
        .map(|m| m.prob_relative / m.expected_makespan)
        .collect();
    let gauss: Vec<f64> = rows
        .iter()
        .map(|m| {
            let r = m.prob_relative.clamp(0.0002, 0.99998);
            let z = norm_quantile((r + 1.0) / 2.0);
            // γ is the study default 1.0003; the constant cancels in the
            // Pearson coefficient but keeps the quantity interpretable.
            0.0003 * m.expected_makespan / z
        })
        .collect();
    RelProbVariants {
        raw: pearson(&inv, &sigma),
        div_by_makespan: pearson(&div, &sigma),
        r_div_by_makespan: pearson(&rdiv, &sigma),
        gaussian_inversion: pearson(&gauss, &sigma),
    }
}

/// Human-readable rendering (the paper's combined matrix layout).
pub fn render(f: &Fig6) -> String {
    let mut out = format!(
        "Fig. 6 — Pearson coefficients over {} cases (upper: mean, lower: std)\n\n",
        f.cases
    );
    out.push_str(&f.mean.render_combined(&f.std));
    out.push_str(&format!(
        "\n§VII in-text: makespan-normalized R(γ) vs σ_M = {:.3} ± {:.3}  (paper: 0.998 ± 0.009; Gaussian inversion)\n",
        f.rel_by_makespan_vs_std.0, f.rel_by_makespan_vs_std.1
    ));
    out.push_str(&format!(
        "   variants: raw(1−R) {:.3} | (1−R)/E {:.3} | R/E {:.3}\n",
        f.rel_variants_mean.0, f.rel_variants_mean.1, f.rel_variants_mean.2
    ));
    out
}

/// Convenience for EXPERIMENTS.md: selected cells with the paper values.
pub fn paper_comparison(f: &Fig6) -> String {
    let idx = |n: &str| METRIC_LABELS.iter().position(|&l| l == n).unwrap();
    let rows: [(&str, &str, f64); 9] = [
        ("avg_makespan", "makespan_std", 0.767),
        ("avg_makespan", "makespan_entropy", 0.762),
        ("avg_makespan", "avg_slack", -0.385),
        ("avg_makespan", "avg_lateness", 0.756),
        ("makespan_std", "makespan_entropy", 0.996),
        ("makespan_std", "avg_lateness", 0.999),
        ("makespan_std", "abs_prob", 0.982),
        ("avg_lateness", "abs_prob", 0.981),
        ("makespan_std", "rel_prob", 0.148),
    ];
    let mut out = String::from("pair,paper_mean,measured_mean,measured_std\n");
    for (a, b, paper) in rows {
        out.push_str(&format!(
            "{a}~{b},{paper:.3},{:.3},{:.3}\n",
            f.mean.get(idx(a), idx(b)),
            f.std.get(idx(a), idx(b))
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation_runs_at_tiny_scale() {
        let opts = RunOptions {
            scale: 0.008,
            out_dir: None,
            seed: 11,
            threads: None,
        };
        let f = run(&opts).unwrap();
        assert_eq!(f.cases, 24);
        let idx = |n: &str| METRIC_LABELS.iter().position(|&l| l == n).unwrap();
        // The equivalence cluster must be strong even at tiny scale.
        let m = &f.mean;
        assert!(
            m.get(idx("makespan_std"), idx("avg_lateness")) > 0.9,
            "σ~L = {}",
            m.get(idx("makespan_std"), idx("avg_lateness"))
        );
        assert!(m.get(idx("makespan_std"), idx("abs_prob")) > 0.9);
        // Makespan positively correlated with the cluster, slack negative.
        assert!(m.get(idx("avg_makespan"), idx("makespan_std")) > 0.2);
        assert!(m.get(idx("avg_makespan"), idx("avg_slack")) < 0.1);
        // Std-dev cells are bounded (they are std devs of correlations).
        assert!(f.std.get(idx("makespan_std"), idx("avg_lateness")) < 0.3);
    }
}
