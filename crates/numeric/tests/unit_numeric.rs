//! Deterministic unit tests for compensated summation.
//!
//! The inputs are chosen so naive summation demonstrably fails (Kahan's
//! pathological sequences).

use robusched_numeric::kahan::KahanSum;

fn compensated_sum(xs: &[f64]) -> f64 {
    xs.iter().copied().collect::<KahanSum>().value()
}

#[test]
fn kahan_beats_naive_on_large_offset() {
    // 1.0 followed by 10⁷ copies of 10⁻¹⁰: naive summation loses the tail
    // bits; Kahan keeps the result to full precision.
    let big = 1.0f64;
    let tiny = 1e-10f64;
    let n = 10_000_000usize;
    let exact = big + tiny * n as f64;

    let mut naive = big;
    let mut kahan = KahanSum::new();
    kahan.add(big);
    for _ in 0..n {
        naive += tiny;
        kahan.add(tiny);
    }
    let kahan_err = (kahan.value() - exact).abs();
    let naive_err = (naive - exact).abs();
    assert!(kahan_err < 1e-12, "kahan error {kahan_err}");
    assert!(
        kahan_err < naive_err / 100.0,
        "kahan ({kahan_err}) should beat naive ({naive_err}) decisively"
    );
}

#[test]
fn kahan_neumaier_handles_term_larger_than_sum() {
    // The classic Kahan failure mode fixed by Neumaier: [1, 1e100, 1, -1e100]
    // sums to 2 exactly under Neumaier, 0 under naive/plain-Kahan.
    let xs = [1.0, 1e100, 1.0, -1e100];
    assert_eq!(compensated_sum(&xs), 2.0);
    let naive: f64 = xs.iter().sum();
    assert_eq!(naive, 0.0, "if naive ever gets this right, drop the test");
}
