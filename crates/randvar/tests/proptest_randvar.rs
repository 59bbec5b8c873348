//! Property tests for the distribution implementations.
//!
//! Every `Dist` implementation must satisfy the same contract: a
//! nonnegative PDF integrating to 1 over the support, a monotone CDF
//! consistent with the PDF, moments consistent with numerical integration,
//! and draws through its quantile table (the one sampler) that actually
//! follow the distribution. These tests check the contract over randomized
//! parameters for each family.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use robusched_randvar::{
    Beta, ConcatBeta, Dist, Normal, QuantileTable, ScaledBeta, Triangular, Uniform,
};

/// Numerically integrates the PDF over the support with Simpson.
fn pdf_mass(d: &dyn Dist, n: usize) -> f64 {
    let (lo, hi) = d.support();
    robusched_numeric::integrate::integrate_fn(|x| d.pdf(x), lo, hi, n)
}

/// CDF-vs-PDF consistency at a few interior points.
fn check_cdf_pdf(d: &dyn Dist) -> Result<(), String> {
    let (lo, hi) = d.support();
    for i in 1..5 {
        let x = lo + (hi - lo) * i as f64 / 5.0;
        let num = robusched_numeric::integrate::integrate_fn(|t| d.pdf(t), lo, x, 3001);
        let cdf = d.cdf(x);
        if (num - cdf).abs() > 5e-3 {
            return Err(format!("cdf({x}) = {cdf} but ∫pdf = {num}"));
        }
    }
    Ok(())
}

/// Sample-mean agreement with the analytic mean, for draws `Q(u)` through
/// the distribution's own quantile table.
fn check_sampling(d: &dyn Dist, seed: u64) -> Result<(), String> {
    let table = QuantileTable::with_default_resolution(d);
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 20_000;
    let mut xs = vec![0.0; n];
    table.fill_row_u53(&mut rng, 0.0, 1.0, &mut xs);
    let mut acc = 0.0;
    let (lo, hi) = d.support();
    for x in xs {
        if x < lo - 1e-9 || x > hi + 1e-9 {
            return Err(format!("sample {x} outside [{lo}, {hi}]"));
        }
        acc += x;
    }
    let m = acc / n as f64;
    let tol = 5.0 * d.std_dev() / (n as f64).sqrt() + 1e-9;
    if (m - d.mean()).abs() > tol.max(1e-3 * d.mean().abs()) {
        return Err(format!("sample mean {m} vs analytic {}", d.mean()));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn uniform_contract(lo in -50.0f64..50.0, width in 0.1f64..100.0) {
        let d = Uniform::new(lo, lo + width);
        prop_assert!((pdf_mass(&d, 2001) - 1.0).abs() < 1e-6);
        check_cdf_pdf(&d).map_err(TestCaseError::fail)?;
        check_sampling(&d, 1).map_err(TestCaseError::fail)?;
    }

    #[test]
    // Shapes ≥ 1.5 keep the density's endpoint behavior polynomial enough
    // for the fixed-grid Simpson mass check; shapes near 1 have x^(a−1)
    // endpoint kinks that degrade *the test's* quadrature, not the code.
    fn beta_contract(a in 1.5f64..6.0, b in 1.5f64..6.0) {
        let d = Beta::new(a, b);
        prop_assert!((pdf_mass(&d, 4001) - 1.0).abs() < 1e-4);
        check_cdf_pdf(&d).map_err(TestCaseError::fail)?;
        check_sampling(&d, 2).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn scaled_beta_contract(w in 0.5f64..200.0, ul in 1.01f64..2.5) {
        let d = ScaledBeta::paper_default(w, ul);
        prop_assert!((pdf_mass(&d, 4001) - 1.0).abs() < 1e-4);
        check_sampling(&d, 3).map_err(TestCaseError::fail)?;
        // Mean/variance scale affinely.
        let base = Beta::paper_default();
        let span = (ul - 1.0) * w;
        prop_assert!((d.mean() - (w + span * base.mean())).abs() < 1e-9);
        prop_assert!((d.variance() - span * span * base.variance()).abs() < 1e-9);
    }

    #[test]
    fn normal_contract(mu in -100.0f64..100.0, sigma in 0.1f64..20.0) {
        let d = Normal::new(mu, sigma);
        prop_assert!((pdf_mass(&d, 4001) - 1.0).abs() < 1e-6);
        check_sampling(&d, 5).map_err(TestCaseError::fail)?;
        // Quantile closed form round-trips.
        for &p in &[0.1, 0.5, 0.9] {
            prop_assert!((d.cdf(d.quantile(p)) - p).abs() < 1e-8);
        }
    }

    #[test]
    fn triangular_contract(lo in -20.0f64..20.0, w1 in 0.1f64..10.0, w2 in 0.1f64..10.0) {
        let d = Triangular::new(lo, lo + w1, lo + w1 + w2);
        prop_assert!((pdf_mass(&d, 4001) - 1.0).abs() < 1e-5);
        check_cdf_pdf(&d).map_err(TestCaseError::fail)?;
        check_sampling(&d, 7).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn concat_beta_contract(k in 1usize..6, span in 1.0f64..100.0) {
        let d = ConcatBeta::new(k, 2.0, 5.0, 0.0, span);
        prop_assert!((pdf_mass(&d, 8001) - 1.0).abs() < 1e-4);
        check_sampling(&d, 8).map_err(TestCaseError::fail)?;
        // Mean within the support.
        let (lo, hi) = d.support();
        prop_assert!(d.mean() > lo && d.mean() < hi);
    }
}
