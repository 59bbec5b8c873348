//! Deterministic unit tests for the FFT and compensated summation.
//!
//! The property suite checks these kernels on random inputs; here the
//! inputs are chosen so expected outputs are known exactly (impulse,
//! constant, pure tone) or so naive summation demonstrably fails
//! (Kahan's pathological sequences).

use robusched_numeric::fft::{fft_inplace, ifft_inplace, Complex};
use robusched_numeric::kahan::KahanSum;

fn compensated_sum(xs: &[f64]) -> f64 {
    xs.iter().copied().collect::<KahanSum>().value()
}

fn c(re: f64) -> Complex {
    Complex::new(re, 0.0)
}

#[test]
fn fft_of_impulse_is_flat() {
    // δ[0] transforms to the all-ones spectrum.
    let n = 16;
    let mut data = vec![Complex::zero(); n];
    data[0] = c(1.0);
    fft_inplace(&mut data);
    for (k, v) in data.iter().enumerate() {
        assert!((v.re - 1.0).abs() < 1e-12, "bin {k} re {}", v.re);
        assert!(v.im.abs() < 1e-12, "bin {k} im {}", v.im);
    }
}

#[test]
fn fft_of_constant_is_impulse() {
    // A constant signal concentrates all mass in bin 0 (value n).
    let n = 32;
    let mut data = vec![c(1.0); n];
    fft_inplace(&mut data);
    assert!((data[0].re - n as f64).abs() < 1e-9);
    for (k, v) in data.iter().enumerate().skip(1) {
        assert!(v.norm_sqr() < 1e-18, "bin {k} should be empty");
    }
}

#[test]
fn fft_of_pure_tone_hits_one_bin() {
    // cos(2π·3·t/n) puts mass n/2 in bins 3 and n−3, nothing elsewhere.
    let n = 64usize;
    let freq = 3usize;
    let mut data: Vec<Complex> = (0..n)
        .map(|t| c((2.0 * std::f64::consts::PI * freq as f64 * t as f64 / n as f64).cos()))
        .collect();
    fft_inplace(&mut data);
    for (k, v) in data.iter().enumerate() {
        let want = if k == freq || k == n - freq {
            n as f64 / 2.0
        } else {
            0.0
        };
        assert!(
            (v.re - want).abs() < 1e-9 && v.im.abs() < 1e-9,
            "bin {k}: ({}, {}) want ({want}, 0)",
            v.re,
            v.im
        );
    }
}

#[test]
fn fft_round_trip_exact_sizes() {
    for n in [1usize, 2, 4, 8, 64, 256] {
        let mut data: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos()))
            .collect();
        let original = data.clone();
        fft_inplace(&mut data);
        ifft_inplace(&mut data);
        for (d, o) in data.iter().zip(original.iter()) {
            assert!((d.re - o.re).abs() < 1e-10, "n = {n}");
            assert!((d.im - o.im).abs() < 1e-10, "n = {n}");
        }
    }
}

#[test]
fn fft_parseval_energy_conserved() {
    // ∑|x|² = (1/n)·∑|X|².
    let n = 128usize;
    let data: Vec<Complex> = (0..n)
        .map(|i| Complex::new((i as f64).sqrt().sin(), 0.0))
        .collect();
    let time_energy: f64 = data.iter().map(|v| v.norm_sqr()).sum();
    let mut spec = data;
    fft_inplace(&mut spec);
    let freq_energy: f64 = spec.iter().map(|v| v.norm_sqr()).sum::<f64>() / n as f64;
    assert!(
        (time_energy - freq_energy).abs() < 1e-9 * time_energy,
        "{time_energy} vs {freq_energy}"
    );
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
