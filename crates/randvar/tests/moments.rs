//! Closed-form moment checks for the distribution implementations.
//!
//! Unlike the property suite (which validates PDF/CDF/sampling consistency
//! numerically), these tests pin `mean()` / `variance()` against textbook
//! closed forms, so an algebra slip in a moment formula cannot hide behind
//! a loose numerical tolerance.

use robusched_randvar::{Beta, ConcatBeta, Dist, ScaledBeta, Triangular};

const TOL: f64 = 1e-12;

fn assert_close(got: f64, want: f64, what: &str) {
    let tol = TOL * (1.0 + want.abs());
    assert!(
        (got - want).abs() <= tol,
        "{what}: got {got}, want {want} (|Δ| = {})",
        (got - want).abs()
    );
}

#[test]
fn beta_moments_closed_form() {
    for &(a, b) in &[(2.0, 5.0), (1.5, 1.5), (4.0, 2.0), (6.0, 3.5)] {
        let d = Beta::new(a, b);
        // E[B] = a/(a+b); Var[B] = ab / ((a+b)²(a+b+1)).
        assert_close(d.mean(), a / (a + b), "Beta mean");
        assert_close(
            d.variance(),
            a * b / ((a + b) * (a + b) * (a + b + 1.0)),
            "Beta variance",
        );
    }
}

#[test]
fn paper_beta_constants() {
    // The paper's Beta(2, 5): E = 2/7, Var = 10/392 — the constants of
    // `UncertaintyModel::base_std` and the Spelde moment reduction.
    let d = Beta::paper_default();
    assert_close(d.mean(), 2.0 / 7.0, "Beta(2,5) mean");
    assert_close(d.variance(), 10.0 / 392.0, "Beta(2,5) variance");
    assert_close(d.std_dev(), (10.0f64 / 392.0).sqrt(), "Beta(2,5) std");
}

#[test]
fn scaled_beta_moments_affine() {
    // ScaledBeta is lo + (hi−lo)·B: mean and variance transform affinely.
    for &(w, ul) in &[(10.0, 1.1), (3.0, 1.5), (250.0, 1.01)] {
        let d = ScaledBeta::paper_default(w, ul);
        let base = Beta::paper_default();
        let span = (ul - 1.0) * w;
        assert_close(d.mean(), w + span * base.mean(), "ScaledBeta mean");
        assert_close(
            d.variance(),
            span * span * base.variance(),
            "ScaledBeta variance",
        );
        let (lo, hi) = d.support();
        assert_close(lo, w, "ScaledBeta support lo");
        assert_close(hi, ul * w, "ScaledBeta support hi");
    }
}

#[test]
fn concat_beta_moments_closed_form() {
    // ConcatBeta(k, α, β, lo, hi) = lo + w·(I + B) with w = (hi−lo)/k,
    // I uniform on {0, …, k−1} independent of B ~ Beta(α, β):
    //   E[X]   = lo + w·((k−1)/2 + E[B])
    //   Var[X] = w²·((k²−1)/12 + Var[B])
    for &(k, lo, hi) in &[(1usize, 0.0, 1.0), (4, 0.0, 40.0), (5, 2.0, 12.0)] {
        let d = ConcatBeta::new(k, 2.0, 5.0, lo, hi);
        let base = Beta::new(2.0, 5.0);
        let w = (hi - lo) / k as f64;
        let kf = k as f64;
        let want_mean = lo + w * ((kf - 1.0) / 2.0 + base.mean());
        let want_var = w * w * ((kf * kf - 1.0) / 12.0 + base.variance());
        assert_close(d.mean(), want_mean, "ConcatBeta mean");
        assert_close(d.variance(), want_var, "ConcatBeta variance");
    }
}

#[test]
fn concat_beta_single_lobe_degenerates_to_scaled_beta() {
    let c = ConcatBeta::new(1, 2.0, 5.0, 3.0, 7.0);
    let s = ScaledBeta::new(2.0, 5.0, 3.0, 7.0);
    assert_close(c.mean(), s.mean(), "1-lobe mean");
    assert_close(c.variance(), s.variance(), "1-lobe variance");
    for &x in &[3.0, 4.2, 5.5, 6.9, 7.0] {
        assert_close(c.cdf(x), s.cdf(x), "1-lobe CDF");
    }
}

#[test]
fn triangular_moments_closed_form() {
    // Triangular(a, c, b): E = (a+b+c)/3, Var = (a²+b²+c²−ab−ac−bc)/18.
    for &(a, c, b) in &[(0.0, 1.0, 2.0), (-3.0, 0.5, 4.0), (10.0, 10.5, 14.0)] {
        let d = Triangular::new(a, c, b);
        assert_close(d.mean(), (a + b + c) / 3.0, "Triangular mean");
        assert_close(
            d.variance(),
            (a * a + b * b + c * c - a * b - a * c - b * c) / 18.0,
            "Triangular variance",
        );
    }
}

#[test]
fn means_sit_inside_supports() {
    let dists: Vec<Box<dyn Dist>> = vec![
        Box::new(Beta::new(2.0, 5.0)),
        Box::new(ScaledBeta::paper_default(10.0, 1.3)),
        Box::new(ConcatBeta::paper_special()),
        Box::new(Triangular::new(0.0, 1.0, 3.0)),
    ];
    for d in &dists {
        let (lo, hi) = d.support();
        let m = d.mean();
        assert!(
            lo <= m && m <= hi,
            "mean {m} outside [{lo}, {hi}] for {d:?}"
        );
        assert!(d.variance() >= 0.0);
    }
}
