//! Fig. 2 — visual overlay of the analytic and empirical distributions.
//!
//! The paper shows "the worst accepted values for KS and CM" (≈ 0.167 /
//! 0.157): even then the analytic PDF tracks the 100 000-realization
//! histogram closely. We regenerate the overlay for a 100-task case: the
//! CSV holds the analytic PDF and the empirical histogram density on a
//! common grid.

use crate::RunOptions;
use robusched_platform::Scenario;
use robusched_randvar::{derive_seed, DiscreteRv};
use robusched_sched::random_schedule;
use robusched_stochastic::{
    accuracy, mc_makespans, ClassicEvaluator, Evaluator, McConfig, SamplingTables,
};

/// Output of the overlay experiment.
#[derive(Debug, Clone)]
pub struct Overlay {
    /// Common abscissae.
    pub xs: Vec<f64>,
    /// Analytic density at `xs`.
    pub analytic_pdf: Vec<f64>,
    /// Empirical (histogram) density at `xs`.
    pub empirical_pdf: Vec<f64>,
    /// KS distance of the two CDFs.
    pub ks: f64,
    /// CM (area) distance.
    pub cm: f64,
}

/// Runs the experiment.
pub fn run(opts: &RunOptions) -> std::io::Result<Overlay> {
    let scenario = Scenario::paper_random(100, 16, 1.1, derive_seed(opts.seed, 31));
    let sched = random_schedule(&scenario.graph.dag, 16, derive_seed(opts.seed, 32));
    let analytic = ClassicEvaluator::default().evaluate(&scenario, &sched);
    let samples = mc_makespans(
        &scenario,
        &sched,
        &McConfig {
            realizations: opts.count(100_000, 5_000),
            seed: derive_seed(opts.seed, 33),
            threads: opts.threads,
            ..Default::default()
        },
        &SamplingTables::new(&scenario),
    );
    let rep = accuracy::compare(&analytic, &samples);
    let empirical = DiscreteRv::from_samples(&samples, 64);

    // A common grid over the union support.
    let lo = analytic.lo().min(empirical.lo());
    let hi = analytic.hi().max(empirical.hi());
    let xs = robusched_numeric::linspace(lo, hi, 128);
    let analytic_pdf: Vec<f64> = xs.iter().map(|&x| analytic.pdf_at(x)).collect();
    let empirical_pdf: Vec<f64> = xs.iter().map(|&x| empirical.pdf_at(x)).collect();

    if opts.out_dir.is_some() {
        let mut csv = String::from("x,analytic_pdf,empirical_pdf\n");
        for ((x, a), e) in xs.iter().zip(&analytic_pdf).zip(&empirical_pdf) {
            csv.push_str(&format!("{x:.6},{a:.8},{e:.8}\n"));
        }
        opts.write_artifact("fig2_overlay.csv", &csv)?;
    }

    Ok(Overlay {
        xs,
        analytic_pdf,
        empirical_pdf,
        ks: rep.ks,
        cm: rep.cm,
    })
}

/// Human-readable summary.
pub fn render(o: &Overlay) -> String {
    format!(
        "Fig. 2 — analytic vs empirical makespan distribution\nKS = {:.4}, CM = {:.4} (paper's worst accepted: 0.167 / 0.157)\ngrid: {} points on [{:.1}, {:.1}]\n",
        o.ks,
        o.cm,
        o.xs.len(),
        o.xs.first().unwrap(),
        o.xs.last().unwrap()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlay_densities_are_close() {
        let opts = RunOptions {
            scale: 0.1,
            out_dir: None,
            seed: 3,
            threads: None,
        };
        let o = run(&opts).unwrap();
        assert_eq!(o.xs.len(), 128);
        // Distributions genuinely overlap: KS well below 1.
        assert!(o.ks < 0.2, "ks = {}", o.ks);
        // Total masses comparable (both ≈ densities on the same grid).
        let mass_a: f64 = o.analytic_pdf.iter().sum();
        let mass_e: f64 = o.empirical_pdf.iter().sum();
        assert!((mass_a - mass_e).abs() / mass_a < 0.2);
    }
}
