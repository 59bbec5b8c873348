//! Accuracy of the analytic evaluators against the Monte-Carlo truth.
//!
//! Fig. 1 of the paper plots, per graph size, the Kolmogorov–Smirnov and
//! the area ("CM") distances between the independence-assumption CDF and
//! the empirical CDF of 100 000 realizations; §V keeps graphs whose
//! KS ≤ ~0.1 / CM ≤ 0.1 and demotes the 1000-node cases to "indications".

use robusched_randvar::DiscreteRv;
use robusched_stats::Ecdf;

/// KS and area distances between an analytic RV and empirical samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyReport {
    /// Kolmogorov–Smirnov distance `sup |F − F̂|`.
    pub ks: f64,
    /// Area distance `∫ |F − F̂| dx` (the paper's CM variant).
    pub cm: f64,
}

/// Compares an analytic makespan distribution against realization samples.
///
/// # Panics
/// Panics when `samples` is empty.
pub fn compare(analytic: &DiscreteRv, samples: &[f64]) -> AccuracyReport {
    let ecdf = Ecdf::new(samples);
    let ks = ecdf.ks_distance(|x| analytic.cdf_at(x));
    let cm = ecdf.area_distance(|x| analytic.cdf_at(x));
    AccuracyReport { ks, cm }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use robusched_randvar::{Beta, Dist, QuantileTable, ScaledBeta};

    /// `n` draws of `d` through the Beta(2, 5) table, `lo + span·Q(u)`:
    /// the row fill the Monte-Carlo engine draws its slots with.
    fn draws(d: &ScaledBeta, n: usize, rng: &mut StdRng) -> Vec<f64> {
        let table = QuantileTable::with_default_resolution(&Beta::paper_default());
        let mut row = vec![0.0; n];
        table.fill_row_u53(rng, d.support().0, d.span(), &mut row);
        row
    }

    #[test]
    fn samples_from_the_distribution_score_well() {
        let d = ScaledBeta::paper_default(20.0, 1.5);
        let rv = DiscreteRv::from_dist(&d, 128);
        let mut rng = StdRng::seed_from_u64(5);
        let samples = draws(&d, 50_000, &mut rng);
        let rep = compare(&rv, &samples);
        assert!(rep.ks < 0.01, "ks = {}", rep.ks);
        assert!(rep.cm < 0.05, "cm = {}", rep.cm);
    }

    #[test]
    fn wrong_distribution_scores_poorly() {
        let d = ScaledBeta::paper_default(20.0, 1.5);
        let shifted = DiscreteRv::from_dist(&ScaledBeta::paper_default(25.0, 1.5), 128);
        let mut rng = StdRng::seed_from_u64(7);
        let samples = draws(&d, 10_000, &mut rng);
        let rep = compare(&shifted, &samples);
        assert!(rep.ks > 0.5, "ks = {}", rep.ks);
        assert!(rep.cm > 1.0, "cm = {}", rep.cm);
    }

    #[test]
    fn report_is_scale_aware() {
        // The CM (area) distance scales with the support width; KS does not.
        let narrow = ScaledBeta::paper_default(10.0, 1.1);
        let wide = ScaledBeta::paper_default(1000.0, 1.1);
        let mut rng = StdRng::seed_from_u64(11);
        let narrow_rv = DiscreteRv::from_dist(&ScaledBeta::paper_default(10.5, 1.1), 128);
        let wide_rv = DiscreteRv::from_dist(&ScaledBeta::paper_default(1050.0, 1.1), 128);
        let s1 = draws(&narrow, 5_000, &mut rng);
        let s2 = draws(&wide, 5_000, &mut rng);
        let r1 = compare(&narrow_rv, &s1);
        let r2 = compare(&wide_rv, &s2);
        assert!((r1.ks - r2.ks).abs() < 0.2);
        assert!(
            r2.cm > 10.0 * r1.cm,
            "cm should scale: {} vs {}",
            r1.cm,
            r2.cm
        );
    }
}
