//! Property tests for the numerical substrate.

use proptest::prelude::*;
use robusched_numeric::convolution::{convolve_direct, convolve_direct_into, convolve_fft};
use robusched_numeric::fft::{fft_inplace, ifft_inplace, Complex};
use robusched_numeric::integrate::{cumulative_trapezoid, simpson_uniform, trapezoid_uniform};
use robusched_numeric::interp::CubicSpline;

fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
}

/// The schoolbook convolution with `a` on the outer loop: every output
/// slot accumulates its terms in ascending index of `a`.
fn convolve_outer_a(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; a.len() + b.len() - 1];
    for (i, &x) in a.iter().enumerate() {
        if x == 0.0 {
            continue;
        }
        for (j, &y) in b.iter().enumerate() {
            out[i + j] += x * y;
        }
    }
    out
}

/// Maps draws from `[-2, 5)` to operand values: `[-2, -1)` becomes an
/// exact zero (1/7 of the draws), `[-1, 0)` stays negative.
fn with_zeros(raw: Vec<f64>) -> Vec<f64> {
    raw.into_iter()
        .map(|x| if x < -1.0 { 0.0 } else { x })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fft_round_trip(values in prop::collection::vec(-100.0f64..100.0, 1..100)) {
        // Pad to the next power of two.
        let n = values.len().next_power_of_two();
        let mut data: Vec<Complex> = values
            .iter()
            .map(|&x| Complex::new(x, 0.0))
            .chain(std::iter::repeat(Complex::zero()))
            .take(n)
            .collect();
        let original = data.clone();
        fft_inplace(&mut data);
        ifft_inplace(&mut data);
        for (d, o) in data.iter().zip(original.iter()) {
            prop_assert!(close(d.re, o.re, 1e-9), "{} vs {}", d.re, o.re);
            prop_assert!(d.im.abs() < 1e-6 * (1.0 + o.re.abs()));
        }
    }

    #[test]
    fn fft_linearity(
        xs in prop::collection::vec(-10.0f64..10.0, 8..32),
        alpha in -5.0f64..5.0,
    ) {
        let n = xs.len().next_power_of_two();
        let pad = |v: &[f64]| -> Vec<Complex> {
            v.iter()
                .map(|&x| Complex::new(x, 0.0))
                .chain(std::iter::repeat(Complex::zero()))
                .take(n)
                .collect()
        };
        let mut fa = pad(&xs);
        fft_inplace(&mut fa);
        let scaled: Vec<f64> = xs.iter().map(|x| alpha * x).collect();
        let mut fs = pad(&scaled);
        fft_inplace(&mut fs);
        for (a, s) in fa.iter().zip(fs.iter()) {
            prop_assert!(close(a.re * alpha, s.re, 1e-8));
            prop_assert!(close(a.im * alpha, s.im, 1e-8));
        }
    }

    #[test]
    fn convolution_kernels_agree(
        a in prop::collection::vec(-5.0f64..5.0, 1..60),
        b in prop::collection::vec(-5.0f64..5.0, 1..60),
    ) {
        let d = convolve_direct(&a, &b);
        let f = convolve_fft(&a, &b);
        prop_assert_eq!(d.len(), f.len());
        for i in 0..d.len() {
            prop_assert!(close(d[i], f[i], 1e-8), "fft idx {i}: {} vs {}", d[i], f[i]);
        }
    }

    #[test]
    fn direct_convolution_matches_outer_a_order_bitwise(
        a in prop::collection::vec(-2.0f64..5.0, 1..=300),
        b in prop::collection::vec(-2.0f64..5.0, 1..=300),
    ) {
        // The kernel picks its loop order from the operand lengths; both
        // orders must reproduce the outer-`a` accumulation bit for bit.
        let (a, b) = (with_zeros(a), with_zeros(b));
        let mut out = Vec::new();
        for (x, y) in [(&a, &b), (&b, &a)] {
            convolve_direct_into(x, y, &mut out);
            let reference = convolve_outer_a(x, y);
            prop_assert_eq!(out.len(), reference.len());
            for (k, (o, r)) in out.iter().zip(reference.iter()).enumerate() {
                prop_assert!(o.to_bits() == r.to_bits(), "slot {k}: {o:e} vs {r:e}");
            }
        }
    }

    #[test]
    fn convolution_commutes(
        a in prop::collection::vec(0.0f64..5.0, 1..40),
        b in prop::collection::vec(0.0f64..5.0, 1..40),
    ) {
        let ab = convolve_direct(&a, &b);
        let ba = convolve_direct(&b, &a);
        for (x, y) in ab.iter().zip(ba.iter()) {
            prop_assert!(close(*x, *y, 1e-12));
        }
    }

    #[test]
    fn convolution_mass_multiplies(
        a in prop::collection::vec(0.0f64..3.0, 2..50),
        b in prop::collection::vec(0.0f64..3.0, 2..50),
    ) {
        let c = convolve_fft(&a, &b);
        let sa: f64 = a.iter().sum();
        let sb: f64 = b.iter().sum();
        let sc: f64 = c.iter().sum();
        prop_assert!(close(sc, sa * sb, 1e-8), "{sc} vs {}", sa * sb);
    }

    #[test]
    fn simpson_refines_trapezoid_on_smooth(
        freq in 0.2f64..2.0,
        n in 20usize..200,
    ) {
        // ∫₀^π sin(freq·x) dx = (1 − cos(freq·π))/freq.
        let h = std::f64::consts::PI / (n - 1) as f64;
        let y: Vec<f64> = (0..n).map(|i| (freq * h * i as f64).sin()).collect();
        let exact = (1.0 - (freq * std::f64::consts::PI).cos()) / freq;
        let simpson_err = (simpson_uniform(&y, h) - exact).abs();
        let trap_err = (trapezoid_uniform(&y, h) - exact).abs();
        // Simpson is O(h⁴) on smooth integrands; the trapezoid rule can get
        // lucky (error cancellation), so compare against the theoretical
        // order rather than trapezoid alone: err ≲ (b−a)/180·h⁴·max|f⁗|
        // with |f⁗| ≤ freq⁴ ≤ 16 here — 10·h⁴ is a generous envelope.
        prop_assert!(simpson_err <= trap_err * 2.0 + 10.0 * h.powi(4),
            "simpson {simpson_err} vs trapezoid {trap_err} (h = {h})");
    }

    #[test]
    fn cumulative_is_monotone_for_nonnegative(
        y in prop::collection::vec(0.0f64..10.0, 2..80),
        h in 0.001f64..1.0,
    ) {
        let c = cumulative_trapezoid(&y, h);
        prop_assert_eq!(c.len(), y.len());
        for w in c.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-12);
        }
        prop_assert!(close(*c.last().unwrap(), trapezoid_uniform(&y, h), 1e-9));
    }

    #[test]
    fn spline_interpolates_knots(
        ys in prop::collection::vec(-10.0f64..10.0, 2..30),
    ) {
        let sp = CubicSpline::uniform(0.0, 1.0, &ys);
        let n = ys.len();
        for (i, &y) in ys.iter().enumerate() {
            let x = i as f64 / (n - 1) as f64;
            prop_assert!(close(sp.eval(x), y, 1e-9), "knot {i}");
        }
    }
}
