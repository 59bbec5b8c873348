//! Property tests for the numerical substrate.

use proptest::prelude::*;
use robusched_numeric::convolution::{convolve_direct, convolve_direct_into};
use robusched_numeric::integrate::{cumulative_trapezoid, simpson_uniform, trapezoid_uniform};
use robusched_numeric::interp::{CubicSpline, SplineScratch, UniformLocalCubic};

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

/// Reference copy of the uniform natural-spline kernel in its earlier,
/// memory-bound form: the right-hand side built in a pass of its own, both
/// Thomas sweeps read back through memory, knot abscissae from `knot()`
/// and the interval index from a saturating `as usize`. The optimized
/// `SplineScratch::fit_uniform(..).eval` must match it bit for bit.
struct ReferenceSpline {
    lo: f64,
    hi: f64,
    step: f64,
    inv_step: f64,
    h2_over_6: f64,
    ys: Vec<f64>,
    m: Vec<f64>,
}

impl ReferenceSpline {
    fn fit(lo: f64, hi: f64, ys: &[f64]) -> Self {
        let n = ys.len();
        let step = (hi - lo) / (n - 1) as f64;
        let inv_step = 1.0 / step;
        let mut m = vec![0.0; n];
        if n > 2 {
            let rows = n - 2;
            let mut inv_diag = vec![0.25];
            while inv_diag.len() < rows {
                let d = 4.0 - inv_diag[inv_diag.len() - 1];
                inv_diag.push(1.0 / d);
            }
            let mut rhs = Vec::with_capacity(rows);
            let scale = 6.0 * inv_step * inv_step;
            for i in 1..n - 1 {
                rhs.push(scale * (ys[i + 1] - 2.0 * ys[i] + ys[i - 1]));
            }
            for i in 1..rows {
                rhs[i] -= rhs[i - 1] * inv_diag[i - 1];
            }
            m[n - 2] = rhs[rows - 1] * inv_diag[rows - 1];
            for i in (0..rows - 1).rev() {
                m[i + 1] = (rhs[i] - m[i + 2]) * inv_diag[i];
            }
        }
        Self {
            lo,
            hi,
            step,
            inv_step,
            h2_over_6: step * step / 6.0,
            ys: ys.to_vec(),
            m,
        }
    }

    fn knot(&self, i: usize) -> f64 {
        if i == self.ys.len() - 1 {
            self.hi
        } else {
            self.lo + self.step * i as f64
        }
    }

    fn eval(&self, x: f64) -> f64 {
        let n = self.ys.len();
        let i = if x <= self.lo {
            0
        } else {
            (((x - self.lo) * self.inv_step) as usize).min(n - 2)
        };
        let x0 = self.knot(i);
        let x1 = self.knot(i + 1);
        let a = (x1 - x) * self.inv_step;
        let b = (x - x0) * self.inv_step;
        a * self.ys[i]
            + b * self.ys[i + 1]
            + ((a * a * a - a) * self.m[i] + (b * b * b - b) * self.m[i + 1]) * self.h2_over_6
    }

    /// The 4-point local cubic over the same knots, as `UniformLocalCubic`
    /// evaluated it with `knot()` and the saturating `as usize` index.
    fn local_cubic(&self, x: f64) -> f64 {
        let n = self.ys.len();
        let i = if x <= self.lo {
            0
        } else {
            (((x - self.lo) * self.inv_step) as usize).min(n - 2)
        };
        if n < 4 {
            let t = (x - self.lo) * self.inv_step;
            return if n == 2 {
                self.ys[0] * (1.0 - t) + self.ys[1] * t
            } else {
                0.5 * (t - 1.0) * (t - 2.0) * self.ys[0] - t * (t - 2.0) * self.ys[1]
                    + 0.5 * t * (t - 1.0) * self.ys[2]
            };
        }
        let s = i.saturating_sub(1).min(n - 4);
        let t = (x - self.knot(s)) * self.inv_step;
        let t1 = t - 1.0;
        let t2 = t - 2.0;
        let t3 = t - 3.0;
        let w0 = -t1 * t2 * t3 / 6.0;
        let w1 = 0.5 * t * t2 * t3;
        let w2 = -0.5 * t * t1 * t3;
        let w3 = t * t1 * t2 / 6.0;
        w0 * self.ys[s] + w1 * self.ys[s + 1] + w2 * self.ys[s + 2] + w3 * self.ys[s + 3]
    }
}

/// Probe abscissae for the bit-identity checks: every knot, each knot
/// ±1 ulp, every midpoint, and points below `lo` and above `hi`.
fn probe_points(spline: &ReferenceSpline) -> Vec<f64> {
    let n = spline.ys.len();
    let (lo, hi) = (spline.lo, spline.hi);
    let width = hi - lo;
    let mut xs = vec![
        lo - width,
        lo - 0.5 * spline.step,
        hi + 0.5 * spline.step,
        hi + width,
    ];
    for i in 0..n {
        let k = spline.knot(i);
        xs.extend([k, k.next_down(), k.next_up()]);
        if i + 1 < n {
            xs.push(0.5 * (k + spline.knot(i + 1)));
        }
    }
    xs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn uniform_kernels_match_reference_bitwise(
        ys in prop::collection::vec(-2.0f64..5.0, 2..=300),
        lo_mantissa in -1.0f64..1.0,
        lo_exponent in 0i32..10,
        width_mantissa in 0.5f64..5.0,
        width_exponent in -2i32..4,
    ) {
        // Supports up to ±1e9 with widths down to 5e-3, so the knot
        // arithmetic runs with large offsets and few bits to spare (steps
        // down to ~100 ulp of `lo`).
        let lo = lo_mantissa * 10f64.powi(lo_exponent);
        let hi = lo + width_mantissa * 10f64.powi(width_exponent);
        prop_assert!(hi > lo);
        let reference = ReferenceSpline::fit(lo, hi, &ys);
        let mut scratch = SplineScratch::new();
        let spline = scratch.fit_uniform(lo, hi, &ys);
        let local = UniformLocalCubic::new(lo, hi, &ys);
        for x in probe_points(&reference) {
            let (got, want) = (spline.eval(x), reference.eval(x));
            prop_assert!(got.to_bits() == want.to_bits(), "spline at {x:e}: {got:e} vs {want:e}");
            let (got, want) = (local.eval(x), reference.local_cubic(x));
            prop_assert!(got.to_bits() == want.to_bits(), "local cubic at {x:e}: {got:e} vs {want:e}");
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
        let c = convolve_direct(&a, &b);
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
