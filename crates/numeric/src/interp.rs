//! Interpolation of uniformly or arbitrarily sampled functions.
//!
//! The paper states that "sampling each probability density with 64 values
//! was largely sufficient with cubic spline interpolation". PDFs produced by
//! convolution and CDF products land on fine grids that must be resampled to
//! the canonical 64-point grid; natural cubic splines do that without the
//! staircase bias of nearest-neighbor or the kinks of linear interpolation.
//!
//! [`CubicSpline`] implements natural cubic splines (second derivative zero
//! at both ends) over strictly increasing knots. [`MonotoneCubic`] is the
//! shape-preserving alternative used where monotonicity must hold exactly
//! (quantile tables).

/// Natural cubic spline through `(x[i], y[i])` knots.
#[derive(Debug, Clone)]
pub struct CubicSpline {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Second derivatives at the knots (the classical `M` vector).
    m: Vec<f64>,
}

impl CubicSpline {
    /// Fits a natural cubic spline.
    ///
    /// # Panics
    /// Panics if fewer than 2 points are given, lengths mismatch, or `xs` is
    /// not strictly increasing.
    pub fn new(xs: &[f64], ys: &[f64]) -> Self {
        assert_eq!(xs.len(), ys.len(), "knot length mismatch");
        assert!(xs.len() >= 2, "spline needs at least two knots");
        for w in xs.windows(2) {
            assert!(w[1] > w[0], "knots must be strictly increasing");
        }
        let n = xs.len();
        let mut m = vec![0.0; n];
        if n > 2 {
            // Solve the tridiagonal system for interior second derivatives
            // with the Thomas algorithm; natural BCs pin m[0] = m[n-1] = 0.
            let mut sub = vec![0.0; n - 2];
            let mut diag = vec![0.0; n - 2];
            let mut sup = vec![0.0; n - 2];
            let mut rhs = vec![0.0; n - 2];
            for i in 1..n - 1 {
                let h0 = xs[i] - xs[i - 1];
                let h1 = xs[i + 1] - xs[i];
                sub[i - 1] = h0;
                diag[i - 1] = 2.0 * (h0 + h1);
                sup[i - 1] = h1;
                rhs[i - 1] = 6.0 * ((ys[i + 1] - ys[i]) / h1 - (ys[i] - ys[i - 1]) / h0);
            }
            // Forward sweep.
            for i in 1..n - 2 {
                let w = sub[i] / diag[i - 1];
                diag[i] -= w * sup[i - 1];
                rhs[i] -= w * rhs[i - 1];
            }
            // Back substitution.
            let last = n - 3;
            m[n - 2] = rhs[last] / diag[last];
            for i in (0..last).rev() {
                m[i + 1] = (rhs[i] - sup[i] * m[i + 2]) / diag[i];
            }
        }
        Self {
            xs: xs.to_vec(),
            ys: ys.to_vec(),
            m,
        }
    }

    /// Fits a spline over a uniform grid `[lo, hi]` (convenience).
    pub fn uniform(lo: f64, hi: f64, ys: &[f64]) -> Self {
        let xs = crate::grid::linspace(lo, hi, ys.len());
        Self::new(&xs, ys)
    }

    /// Index of the interval containing `x` (clamped to the valid range).
    fn interval(&self, x: f64) -> usize {
        let n = self.xs.len();
        if x <= self.xs[0] {
            return 0;
        }
        if x >= self.xs[n - 1] {
            return n - 2;
        }
        // Binary search for the knot interval.
        let mut lo = 0usize;
        let mut hi = n - 1;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.xs[mid] <= x {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Evaluates the spline at `x`; clamps (linear-extends by the boundary
    /// cubic) outside the knot range.
    pub fn eval(&self, x: f64) -> f64 {
        let i = self.interval(x);
        let h = self.xs[i + 1] - self.xs[i];
        let a = (self.xs[i + 1] - x) / h;
        let b = (x - self.xs[i]) / h;
        a * self.ys[i]
            + b * self.ys[i + 1]
            + ((a * a * a - a) * self.m[i] + (b * b * b - b) * self.m[i + 1]) * h * h / 6.0
    }

    /// First derivative of the spline at `x`.
    pub fn derivative(&self, x: f64) -> f64 {
        let i = self.interval(x);
        let h = self.xs[i + 1] - self.xs[i];
        let a = (self.xs[i + 1] - x) / h;
        let b = (x - self.xs[i]) / h;
        (self.ys[i + 1] - self.ys[i]) / h
            + ((3.0 * b * b - 1.0) * self.m[i + 1] - (3.0 * a * a - 1.0) * self.m[i]) * h / 6.0
    }

    /// Resamples the spline onto `n` uniform points over `[lo, hi]`.
    pub fn resample(&self, lo: f64, hi: f64, n: usize) -> Vec<f64> {
        crate::grid::linspace(lo, hi, n)
            .into_iter()
            .map(|x| self.eval(x))
            .collect()
    }

    /// The knot abscissae.
    pub fn knots(&self) -> &[f64] {
        &self.xs
    }
}

/// Reusable buffers for fitting natural cubic splines over *uniform* grids
/// without allocating — and, after the first fit, without dividing.
///
/// The evaluator hot path fits two splines per `sum`, one per resampled
/// operand, always over uniform knots; the final down-sampling uses the
/// fit-free [`UniformLocalCubic`] instead.
/// On a uniform grid the natural-spline system reduces to the constant
/// tridiagonal `(1, 4, 1)` with right-hand side `(6/h²)·Δ²y`, and the
/// forward-elimination diagonals `d₁ = 4, dᵢ₊₁ = 4 − 1/dᵢ` do not depend
/// on the sample count: every size-`n` solve consumes the same length-`n`
/// prefix of one sequence. [`SplineScratch`] caches that prefix (and its
/// reciprocals) once, so each fit is a division-free linear sweep — in
/// contrast to [`CubicSpline::new`], which allocates five vectors and runs
/// two divisions per knot. Fitted coefficients agree with the general
/// solver to machine precision (~1e-15 relative; the general path resolves
/// the last knot interval to `hi − x_{n−2}` where this one uses the nominal
/// step — a sub-ulp-of-the-support difference).
#[derive(Debug, Default)]
pub struct SplineScratch {
    rhs: Vec<f64>,
    m: Vec<f64>,
    /// Elimination diagonals of the `(1, 4, 1)` system (size-independent
    /// shared prefix), grown on demand.
    diag: Vec<f64>,
    /// Reciprocals of `diag`, so the solve sweeps multiply instead of
    /// divide.
    inv_diag: Vec<f64>,
}

impl SplineScratch {
    /// Empty scratch; buffers grow on first fit and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures the cached elimination diagonals cover `rows` rows.
    fn grow_diagonals(&mut self, rows: usize) {
        if self.diag.len() >= rows {
            return;
        }
        if self.diag.is_empty() {
            self.diag.push(4.0);
            self.inv_diag.push(0.25);
        }
        while self.diag.len() < rows {
            let d = 4.0 - self.inv_diag[self.inv_diag.len() - 1];
            self.diag.push(d);
            self.inv_diag.push(1.0 / d);
        }
    }

    /// Fits a natural cubic spline through `(linspace(lo, hi, ys.len()), ys)`.
    ///
    /// # Panics
    /// Panics if fewer than two samples are given or `hi <= lo`.
    pub fn fit_uniform<'a>(&'a mut self, lo: f64, hi: f64, ys: &'a [f64]) -> UniformSpline<'a> {
        let n = ys.len();
        assert!(n >= 2, "spline needs at least two knots");
        assert!(hi > lo, "inverted interval [{lo}, {hi}]");
        let step = (hi - lo) / (n - 1) as f64;
        let inv_step = 1.0 / step;
        self.m.clear();
        self.m.resize(n, 0.0);
        if n > 2 {
            let rows = n - 2;
            self.grow_diagonals(rows);
            let inv_diag = &self.inv_diag[..rows];
            self.rhs.clear();
            self.rhs.resize(rows, 0.0);
            let scale = 6.0 * inv_step * inv_step;
            // Forward elimination (sub-diagonal 1), building the right-hand
            // side `scale·Δ²y` in the same pass: rhsᵢ = bᵢ − rhsᵢ₋₁/dᵢ₋₁.
            // Both sweeps carry their running value in `r`, so each step of
            // the serial chain waits on a register, not a store and reload.
            let (first, rest) = self.rhs.split_first_mut().expect("rows >= 1");
            let mut r = scale * (ys[2] - 2.0 * ys[1] + ys[0]);
            *first = r;
            for ((slot, w), &inv) in rest.iter_mut().zip(ys[1..].windows(3)).zip(inv_diag) {
                r = scale * (w[2] - 2.0 * w[1] + w[0]) - r * inv;
                *slot = r;
            }
            // Back substitution (super-diagonal 1) into the interior knots.
            let interior = &mut self.m[1..n - 1];
            r *= inv_diag[rows - 1];
            interior[rows - 1] = r;
            let back = interior[..rows - 1]
                .iter_mut()
                .zip(&self.rhs[..rows - 1])
                .zip(&inv_diag[..rows - 1])
                .rev();
            for ((slot, &b), &inv) in back {
                r = (b - r) * inv;
                *slot = r;
            }
        }
        UniformSpline {
            lo,
            hi,
            step,
            inv_step,
            h2_over_6: step * step / 6.0,
            ys,
            m: &self.m,
        }
    }
}

/// A natural cubic spline over uniform knots, borrowing its coefficients
/// from a [`SplineScratch`]. See [`SplineScratch::fit_uniform`].
#[derive(Debug)]
pub struct UniformSpline<'a> {
    lo: f64,
    hi: f64,
    step: f64,
    inv_step: f64,
    h2_over_6: f64,
    ys: &'a [f64],
    m: &'a [f64],
}

impl UniformSpline<'_> {
    /// Evaluates the spline at `x`; clamps (linear-extends by the boundary
    /// cubic) outside the knot range, like [`CubicSpline::eval`].
    ///
    /// Always inlined: the scalar body of [`eval_grid`](Self::eval_grid)
    /// calls it once per point.
    #[inline(always)]
    pub fn eval(&self, x: f64) -> f64 {
        let last = self.ys.len() - 2;
        let i = uniform_interval(x, self.lo, self.inv_step, last);
        // Knot abscissae as in `linspace`: `lo + step·i`, last knot `hi`.
        let x0 = self.lo + self.step * knot_index(i);
        let x1 = if i == last {
            self.hi
        } else {
            self.lo + self.step * knot_index(i + 1)
        };
        let ys = &self.ys[i..i + 2];
        let m = &self.m[i..i + 2];
        let a = (x1 - x) * self.inv_step;
        let b = (x - x0) * self.inv_step;
        a * ys[0] + b * ys[1] + ((a * a * a - a) * m[0] + (b * b * b - b) * m[1]) * self.h2_over_6
    }

    /// Fills `out[i]` with the spline at `x = lo + step·i`, where `lo` is
    /// the first knot: a point past `hi` takes the value at `hi`, and a
    /// point past `cut` is `0.0`. This is the operand resample of
    /// `DiscreteRv::sum` (about 240 points for an accumulated finish time).
    ///
    /// On an x86-64 CPU with AVX2 this runs a copy that evaluates four
    /// points per step, chosen on each call; it performs the same IEEE
    /// operations in the same order as [`eval`](Self::eval), so the two
    /// copies agree bit for bit.
    pub fn eval_grid(&self, step: f64, cut: f64, out: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            // SAFETY: `eval_grid_avx2` only requires AVX2, and the line
            // above checked that the running CPU has it.
            return unsafe { self.eval_grid_avx2(step, cut, out) };
        }
        self.eval_grid_from(step, cut, out, 0);
    }

    /// The scalar body of [`eval_grid`](Self::eval_grid), for the points
    /// from index `first` on.
    #[inline(always)]
    fn eval_grid_from(&self, step: f64, cut: f64, out: &mut [f64], first: usize) {
        for (i, v) in (first..).zip(&mut out[first..]) {
            let x = self.lo + step * i as f64;
            // `x` is finite, so the compare-select equals `x.min(hi)`
            // without `f64::min`'s NaN fix-up.
            let x_in = if x < self.hi { x } else { self.hi };
            *v = if x > cut { 0.0 } else { self.eval(x_in) };
        }
    }

    /// [`eval_grid`](Self::eval_grid) four points per step. Each lane runs
    /// [`eval`](Self::eval)'s multiplies, adds and subtractions in their
    /// scalar order (Rust never contracts them into an FMA); the clamp to
    /// `hi`, the pinned last knot and the cut are compare-and-blend, and
    /// each lane gathers its two samples and two second derivatives. The
    /// remainder under four points runs the scalar body.
    ///
    /// # Safety
    /// Callers without AVX2 enabled must call this through `unsafe` and
    /// only after checking that the running CPU has AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn eval_grid_avx2(&self, step: f64, cut: f64, out: &mut [f64]) {
        use std::arch::x86_64::*;
        // The gathers index with `i32`: a longer grid stays scalar.
        let Ok(last) = i32::try_from(self.ys.len() - 2) else {
            return self.eval_grid_from(step, cut, out, 0);
        };
        let (lo, hi) = (_mm256_set1_pd(self.lo), _mm256_set1_pd(self.hi));
        let (knot_step, inv_step) = (_mm256_set1_pd(self.step), _mm256_set1_pd(self.inv_step));
        let h2_over_6 = _mm256_set1_pd(self.h2_over_6);
        let last_knot = _mm256_set1_pd(f64::from(last));
        let (step4, cut4) = (_mm256_set1_pd(step), _mm256_set1_pd(cut));
        let (one, four) = (_mm256_set1_pd(1.0), _mm256_set1_pd(4.0));
        let mut index = _mm256_setr_pd(0.0, 1.0, 2.0, 3.0);
        let done = out.len() / 4 * 4;
        for group in out[..done].chunks_exact_mut(4) {
            let x = _mm256_add_pd(lo, _mm256_mul_pd(step4, index));
            index = _mm256_add_pd(index, four);
            let x_in = _mm256_blendv_pd(hi, x, _mm256_cmp_pd::<_CMP_LT_OQ>(x, hi));
            let i = uniform_interval_avx2(x_in, lo, inv_step, last);
            let i_f = _mm256_cvtepi32_pd(i);
            let x0 = _mm256_add_pd(lo, _mm256_mul_pd(knot_step, i_f));
            let x1 = _mm256_blendv_pd(
                _mm256_add_pd(lo, _mm256_mul_pd(knot_step, _mm256_add_pd(i_f, one))),
                hi,
                _mm256_cmp_pd::<_CMP_EQ_OQ>(i_f, last_knot),
            );
            // SAFETY: every lane of `i` is in `[0, last]`, so `i` and
            // `i + 1` index `ys` and `m` (both `last + 2` long:
            // `fit_uniform` sizes `m` to `ys`); AVX2 is enabled.
            let (y0, y1, m0, m1) = unsafe {
                (
                    _mm256_i32gather_pd::<8>(self.ys.as_ptr(), i),
                    _mm256_i32gather_pd::<8>(self.ys.as_ptr().add(1), i),
                    _mm256_i32gather_pd::<8>(self.m.as_ptr(), i),
                    _mm256_i32gather_pd::<8>(self.m.as_ptr().add(1), i),
                )
            };
            let a = _mm256_mul_pd(_mm256_sub_pd(x1, x_in), inv_step);
            let b = _mm256_mul_pd(_mm256_sub_pd(x_in, x0), inv_step);
            let a3 = _mm256_sub_pd(_mm256_mul_pd(_mm256_mul_pd(a, a), a), a);
            let b3 = _mm256_sub_pd(_mm256_mul_pd(_mm256_mul_pd(b, b), b), b);
            let linear = _mm256_add_pd(_mm256_mul_pd(a, y0), _mm256_mul_pd(b, y1));
            let curve = _mm256_mul_pd(
                _mm256_add_pd(_mm256_mul_pd(a3, m0), _mm256_mul_pd(b3, m1)),
                h2_over_6,
            );
            let v = _mm256_add_pd(linear, curve);
            let v = _mm256_andnot_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(x, cut4), v);
            // SAFETY: `group` is four contiguous f64; AVX2 is enabled.
            unsafe { _mm256_storeu_pd(group.as_mut_ptr(), v) };
        }
        self.eval_grid_from(step, cut, out, done);
    }
}

/// [`uniform_interval`] for four points: each lane's interval index as an
/// `i32` in `[0, last]`.
///
/// The product is first capped at `last` (`min` returns the product when
/// it is NaN), then truncated to `i32` and clamped to `[0, last]`. Below
/// the cap, truncation is the scalar `as i64`; a product at or above it
/// gives `last`, as the scalar `.min(last)` does; and `x ≤ lo`, a NaN or
/// a product below `i32::MIN` (which truncates to `i32::MIN`) gives 0, as
/// the scalar branch and cast do. So the index equals the scalar one for
/// every input, and the clamp keeps it in `[0, last]` whatever the
/// truncation returns.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn uniform_interval_avx2(
    x: std::arch::x86_64::__m256d,
    lo: std::arch::x86_64::__m256d,
    inv_step: std::arch::x86_64::__m256d,
    last: i32,
) -> std::arch::x86_64::__m128i {
    use std::arch::x86_64::*;
    let product = _mm256_mul_pd(_mm256_sub_pd(x, lo), inv_step);
    let capped = _mm256_min_pd(_mm256_set1_pd(f64::from(last)), product);
    let i = _mm256_cvttpd_epi32(capped);
    _mm_min_epi32(_mm_max_epi32(i, _mm_setzero_si128()), _mm_set1_epi32(last))
}

/// Index of the knot interval holding `x` on the uniform grid from `lo`
/// with reciprocal step `inv_step`, clamped to `[0, last]`: a direct lookup
/// with no binary search.
///
/// Signed truncation, not `as usize`: x86-64 converts to `i64` in one
/// instruction, to `u64` only with a second conversion and a select. The
/// argument is positive (or NaN, which both casts map to 0) on that branch,
/// so the index is the same; an argument past `i64::MAX` saturates to it,
/// which the clamp maps to `last` as before.
#[inline]
fn uniform_interval(x: f64, lo: f64, inv_step: f64, last: usize) -> usize {
    if x <= lo {
        0
    } else {
        (((x - lo) * inv_step) as i64 as usize).min(last)
    }
}

/// A knot index as a float, through `i64`: the same value as `i as f64`
/// for every slice index, in one signed conversion instead of the
/// unsigned one's fix-up sequence.
#[inline]
fn knot_index(i: usize) -> f64 {
    i as i64 as f64
}

/// Local cubic (4-point Lagrange) interpolation on a uniform grid.
///
/// Fit-free: each evaluation reads the four samples bracketing `x` (stencil
/// shifted one-sided at the boundaries) and combines them with the uniform
/// Lagrange weights — `O(1)` per point with *no* global solve, versus the
/// `O(n)` latency-bound Thomas sweeps a natural spline costs per fit. Both
/// interpolants have `O(h⁴)` error on smooth data; the evaluator uses this
/// one to down-sample the ~4×-oversampled convolution grid back to the
/// canonical 64 points, where the natural spline's global smoothness buys
/// nothing measurable (interior agreement ~1e-8 on PDF-shaped data, a few
/// 1e-6 at the ends where the spline's artificial natural boundary
/// condition is the less accurate side — asserted below) and its fit
/// dominated the cost of a `sum`.
///
/// Degenerate sample counts fall back to the exact interpolating
/// polynomial (line for 2 points, parabola for 3).
#[derive(Debug)]
pub struct UniformLocalCubic<'a> {
    lo: f64,
    step: f64,
    inv_step: f64,
    ys: &'a [f64],
}

impl<'a> UniformLocalCubic<'a> {
    /// Wraps samples over `linspace(lo, hi, ys.len())`.
    ///
    /// # Panics
    /// Panics if fewer than two samples are given or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, ys: &'a [f64]) -> Self {
        assert!(ys.len() >= 2, "interpolation needs at least two samples");
        assert!(hi > lo, "inverted interval [{lo}, {hi}]");
        let step = (hi - lo) / (ys.len() - 1) as f64;
        Self {
            lo,
            step,
            inv_step: 1.0 / step,
            ys,
        }
    }

    /// Evaluates at `x` (clamped extrapolation by the boundary stencil).
    ///
    /// Always inlined: the scalar body of [`eval_grid`](Self::eval_grid)
    /// calls it once per point.
    #[inline(always)]
    pub fn eval(&self, x: f64) -> f64 {
        let n = self.ys.len();
        if n < 4 {
            // Exact low-order interpolating polynomial.
            let t = (x - self.lo) * self.inv_step;
            return if n == 2 {
                self.ys[0] * (1.0 - t) + self.ys[1] * t
            } else {
                // 3-point Lagrange at nodes 0, 1, 2.
                0.5 * (t - 1.0) * (t - 2.0) * self.ys[0] - t * (t - 2.0) * self.ys[1]
                    + 0.5 * t * (t - 1.0) * self.ys[2]
            };
        }
        // Stencil of 4 knots starting at `s` (interior: centered; boundary:
        // shifted one-sided). `s ≤ n − 4`, so its knot is never the pinned
        // last one and is `lo + step·s` as in `linspace`.
        let i = uniform_interval(x, self.lo, self.inv_step, n - 2);
        let s = i.saturating_sub(1).min(n - 4);
        let t = (x - (self.lo + self.step * knot_index(s))) * self.inv_step;
        let t1 = t - 1.0;
        let t2 = t - 2.0;
        let t3 = t - 3.0;
        let w0 = -t1 * t2 * t3 / 6.0;
        let w1 = 0.5 * t * t2 * t3;
        let w2 = -0.5 * t * t1 * t3;
        let w3 = t * t1 * t2 / 6.0;
        let ys = &self.ys[s..s + 4];
        w0 * ys[0] + w1 * ys[1] + w2 * ys[2] + w3 * ys[3]
    }

    /// Fills `out[i]` with the interpolant at `x = lo + step·i`, except
    /// that the last point is `hi` (the grid of `linspace(lo, hi,
    /// out.len())` when `step` is its step); a point past `cut` is `0.0`.
    /// This is the down-sample at the end of `DiscreteRv::sum`.
    ///
    /// On an x86-64 CPU with AVX2 this runs a copy that evaluates four
    /// points per step, chosen on each call; it performs the same IEEE
    /// operations in the same order as [`eval`](Self::eval), so the two
    /// copies agree bit for bit.
    pub fn eval_grid(&self, lo: f64, step: f64, hi: f64, cut: f64, out: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            // SAFETY: `eval_grid_avx2` only requires AVX2, and the line
            // above checked that the running CPU has it.
            return unsafe { self.eval_grid_avx2(lo, step, hi, cut, out) };
        }
        self.eval_grid_from(lo, step, hi, cut, out, 0);
    }

    /// The scalar body of [`eval_grid`](Self::eval_grid), for the points
    /// from index `first` on.
    #[inline(always)]
    fn eval_grid_from(&self, lo: f64, step: f64, hi: f64, cut: f64, out: &mut [f64], first: usize) {
        let n = out.len();
        for (i, v) in (first..).zip(&mut out[first..]) {
            let x = if i == n - 1 { hi } else { lo + step * i as f64 };
            *v = if x > cut { 0.0 } else { self.eval(x) };
        }
    }

    /// [`eval_grid`](Self::eval_grid) four points per step. Each lane
    /// runs [`eval`](Self::eval)'s stencil arithmetic in its scalar order
    /// (no FMA, `/ 6.0` kept as a division), gathers its four samples,
    /// and blends the cut. The pinned last point and the remainder under
    /// four points run the scalar body, and so do the two- and
    /// three-sample polynomials, which are not hot.
    ///
    /// # Safety
    /// Callers without AVX2 enabled must call this through `unsafe` and
    /// only after checking that the running CPU has AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn eval_grid_avx2(&self, lo: f64, step: f64, hi: f64, cut: f64, out: &mut [f64]) {
        use std::arch::x86_64::*;
        // `last = n − 2` for `n` samples. The gathers index with `i32`, and
        // the stencil needs four samples: the two- and three-sample
        // polynomials and longer grids stay scalar.
        let last = match i32::try_from(self.ys.len() - 2) {
            Ok(last) if last >= 2 => last,
            _ => return self.eval_grid_from(lo, step, hi, cut, out, 0),
        };
        let (knot_lo, knot_step) = (_mm256_set1_pd(self.lo), _mm256_set1_pd(self.step));
        let inv_step = _mm256_set1_pd(self.inv_step);
        let (lo4, step4, cut4) = (
            _mm256_set1_pd(lo),
            _mm256_set1_pd(step),
            _mm256_set1_pd(cut),
        );
        let (one, two, three) = (
            _mm256_set1_pd(1.0),
            _mm256_set1_pd(2.0),
            _mm256_set1_pd(3.0),
        );
        let (half, minus_half, six) = (
            _mm256_set1_pd(0.5),
            _mm256_set1_pd(-0.5),
            _mm256_set1_pd(6.0),
        );
        let sign = _mm256_set1_pd(-0.0);
        let four = _mm256_set1_pd(4.0);
        // `last − 2 = n − 4`, the last stencil start.
        let last_start = _mm_set1_epi32(last - 2);
        let mut index = _mm256_setr_pd(0.0, 1.0, 2.0, 3.0);
        // Every point but the pinned last one, four at a time.
        let done = out.len().saturating_sub(1) / 4 * 4;
        for group in out[..done].chunks_exact_mut(4) {
            let x = _mm256_add_pd(lo4, _mm256_mul_pd(step4, index));
            index = _mm256_add_pd(index, four);
            let i = uniform_interval_avx2(x, knot_lo, inv_step, last);
            // `i.saturating_sub(1).min(n − 4)`: `i ≥ 0`, so `i − 1` does
            // not wrap.
            let s = _mm_min_epi32(
                _mm_max_epi32(_mm_sub_epi32(i, _mm_set1_epi32(1)), _mm_setzero_si128()),
                last_start,
            );
            let start = _mm256_add_pd(knot_lo, _mm256_mul_pd(knot_step, _mm256_cvtepi32_pd(s)));
            let t = _mm256_mul_pd(_mm256_sub_pd(x, start), inv_step);
            let t1 = _mm256_sub_pd(t, one);
            let t2 = _mm256_sub_pd(t, two);
            let t3 = _mm256_sub_pd(t, three);
            // `-t1` flips the sign bit, as the scalar negation does.
            let w0 = _mm256_div_pd(
                _mm256_mul_pd(_mm256_mul_pd(_mm256_xor_pd(t1, sign), t2), t3),
                six,
            );
            let w1 = _mm256_mul_pd(_mm256_mul_pd(_mm256_mul_pd(half, t), t2), t3);
            let w2 = _mm256_mul_pd(_mm256_mul_pd(_mm256_mul_pd(minus_half, t), t1), t3);
            let w3 = _mm256_div_pd(_mm256_mul_pd(_mm256_mul_pd(t, t1), t2), six);
            // SAFETY: every lane of `s` is in `[0, n − 4]` (`n ≥ 4`), so
            // `s` to `s + 3` index the `n` samples of `ys`; AVX2 is enabled.
            let (y0, y1, y2, y3) = unsafe {
                let ys = self.ys.as_ptr();
                (
                    _mm256_i32gather_pd::<8>(ys, s),
                    _mm256_i32gather_pd::<8>(ys.add(1), s),
                    _mm256_i32gather_pd::<8>(ys.add(2), s),
                    _mm256_i32gather_pd::<8>(ys.add(3), s),
                )
            };
            let mut v = _mm256_add_pd(_mm256_mul_pd(w0, y0), _mm256_mul_pd(w1, y1));
            v = _mm256_add_pd(v, _mm256_mul_pd(w2, y2));
            v = _mm256_add_pd(v, _mm256_mul_pd(w3, y3));
            let v = _mm256_andnot_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(x, cut4), v);
            // SAFETY: `group` is four contiguous f64; AVX2 is enabled.
            unsafe { _mm256_storeu_pd(group.as_mut_ptr(), v) };
        }
        self.eval_grid_from(lo, step, hi, cut, out, done);
    }
}

/// Monotonicity-preserving piecewise-cubic Hermite interpolation over
/// strictly increasing (possibly non-uniform) knots.
///
/// A natural cubic spline overshoots near steep gradients, which is fatal
/// for quantile tables: a non-monotone inverse CDF turns a uniform deviate
/// into an out-of-order sample. [`MonotoneCubic`] instead clamps the knot
/// derivatives into the Fritsch–Carlson monotonicity region — on every
/// interval `[x_i, x_{i+1}]` with secant slope `Δ_i`, both endpoint
/// derivatives are kept in `[0, 3Δ_i]` (sign-adjusted) — which is a
/// sufficient condition for the Hermite cubic to be monotone wherever the
/// data is.
///
/// [`with_slopes`](MonotoneCubic::with_slopes) accepts *exact* analytic
/// derivatives where the caller knows them (a quantile table knows
/// `Q′ = 1/f(Q)`), clamped into the same region. Where a supplied
/// derivative is non-finite (density zeros at support ends) it falls back
/// to the data-driven estimate (Fritsch–Carlson weighted harmonic mean —
/// the classical PCHIP scheme, `O(h³)` accurate), so accuracy is `O(h⁴)`
/// on the smooth interior and never worse than PCHIP anywhere.
///
/// Evaluation pre-packs each interval as a Horner cubic in the normalized
/// coordinate and locates the interval through a uniform index-guess table
/// (one multiply + a short forward walk) instead of a binary search — the
/// Monte-Carlo engine evaluates one of these per sampled weight, ~10⁸
/// times per figure.
#[derive(Debug, Clone)]
pub struct MonotoneCubic {
    xs: Vec<f64>,
    /// Per-interval records (plus one sentinel holding the last knot), so
    /// an evaluation touches one contiguous 48-byte slot instead of four
    /// parallel arrays.
    iv: Vec<Interval>,
    /// Uniform cell → starting knot index for the interval walk (4 cells
    /// per knot keeps the walk length near zero almost everywhere).
    cells: Vec<u32>,
    cell_scale: f64,
    /// Exact end ordinates (the Horner sum at `t = 1` rounds differently).
    y_first: f64,
    y_last: f64,
}

/// One knot interval, packed for single-load evaluation: left abscissa,
/// reciprocal width, and the Horner coefficients of
/// `y = ((c3·t + c2)·t + c1)·t + c0` with `t = (x − x_i)·inv_w ∈ [0, 1]`.
#[derive(Debug, Clone, Copy)]
struct Interval {
    x: f64,
    inv_w: f64,
    c: [f64; 4],
}

impl MonotoneCubic {
    /// Fits with caller-supplied knot derivatives, clamped into the
    /// Fritsch–Carlson monotonicity region (non-finite entries fall back to
    /// the PCHIP estimate).
    ///
    /// # Panics
    /// Panics on length mismatches, fewer than 2 knots, or non-increasing
    /// `xs`.
    pub fn with_slopes(xs: &[f64], ys: &[f64], slopes: &[f64]) -> Self {
        assert_eq!(xs.len(), ys.len(), "knot length mismatch");
        assert_eq!(xs.len(), slopes.len(), "slope length mismatch");
        let n = xs.len();
        assert!(n >= 2, "interpolation needs at least two knots");
        for w in xs.windows(2) {
            assert!(w[1] > w[0], "knots must be strictly increasing");
        }
        // Secant slopes per interval.
        let h: Vec<f64> = xs.windows(2).map(|w| w[1] - w[0]).collect();
        let delta: Vec<f64> = ys
            .windows(2)
            .zip(&h)
            .map(|(w, h)| (w[1] - w[0]) / h)
            .collect();
        // Knot derivatives: caller's where valid, PCHIP estimate otherwise,
        // then the Fritsch–Carlson clamp against both adjacent secants.
        let mut d = vec![0.0f64; n];
        for i in 0..n {
            let (left, right) = (
                if i > 0 { Some(delta[i - 1]) } else { None },
                if i < n - 1 { Some(delta[i]) } else { None },
            );
            let fallback = pchip_slope(i, n, &h, &delta);
            let candidate = if slopes[i].is_finite() {
                slopes[i]
            } else {
                fallback
            };
            d[i] = clamp_fc(candidate, left, right);
        }
        // Pack each interval as a Horner cubic in t = (x − x_i)/h_i, plus a
        // sentinel interval carrying the last knot for the walk bound.
        let mut iv = Vec::with_capacity(n);
        for i in 0..n - 1 {
            let (y0, y1) = (ys[i], ys[i + 1]);
            let (d0, d1) = (d[i] * h[i], d[i + 1] * h[i]);
            iv.push(Interval {
                x: xs[i],
                inv_w: 1.0 / h[i],
                c: [
                    y0,
                    d0,
                    3.0 * (y1 - y0) - 2.0 * d0 - d1,
                    2.0 * (y0 - y1) + d0 + d1,
                ],
            });
        }
        iv.push(Interval {
            x: xs[n - 1],
            inv_w: 0.0,
            c: [ys[n - 1]; 4],
        });
        // Index-guess cells: several per knot keep the walk length ~0.
        let span = xs[n - 1] - xs[0];
        let n_cells = 4 * n;
        let cell_scale = n_cells as f64 / span;
        let mut cells = Vec::with_capacity(n_cells);
        let mut k = 0usize;
        for c in 0..n_cells {
            let start = xs[0] + span * c as f64 / n_cells as f64;
            while k + 2 < n && xs[k + 1] <= start {
                k += 1;
            }
            cells.push(k as u32);
        }
        Self {
            xs: xs.to_vec(),
            iv,
            cells,
            cell_scale,
            y_first: ys[0],
            y_last: ys[n - 1],
        }
    }

    /// The knot abscissae.
    pub fn knots(&self) -> &[f64] {
        &self.xs
    }

    /// Evaluates the interpolant at `x`, clamping to the end values outside
    /// the knot range.
    #[inline]
    pub fn eval(&self, x: f64) -> f64 {
        self.eval_from(x, 0)
    }

    /// [`eval`](Self::eval) with the interval walk started at knot `hint`
    /// when that is further along than the uniform-cell guess.
    ///
    /// The walk from a start `s` ends on interval `max(s, i*)`, where `i*`
    /// is the interval holding `x`; `eval` starts at the cell guess `g`.
    /// So whenever `hint ≤ interval_of(x)` (which is `max(g, i*)`), both
    /// end on the same interval and return the same bits. Callers whose
    /// knots crowd far more densely than the cells (the quantile table's
    /// geometric tail ladders) pass a hint to skip the long walk.
    ///
    /// # Panics
    /// May panic if `hint` is not a valid interval index.
    #[inline]
    pub fn eval_from(&self, x: f64, hint: usize) -> f64 {
        if x <= self.iv[0].x {
            return self.y_first;
        }
        if x >= self.iv[self.iv.len() - 1].x {
            return self.y_last;
        }
        let r = &self.iv[self.locate(x, hint)];
        let t = (x - r.x) * r.inv_w;
        let c = &r.c;
        ((c[3] * t + c[2]) * t + c[1]) * t + c[0]
    }

    /// The interval [`eval`](Self::eval) evaluates at `x`: 0 at or below
    /// the first knot, the last interval at or above the last knot. It is
    /// non-decreasing in `x`, so its value at the low end of a range is a
    /// valid [`eval_from`](Self::eval_from) hint for the whole range.
    pub fn interval_of(&self, x: f64) -> usize {
        if x <= self.iv[0].x {
            0
        } else if x >= self.iv[self.iv.len() - 1].x {
            self.iv.len() - 2
        } else {
            self.locate(x, 0)
        }
    }

    /// The interval walk for `x` strictly inside the knot range: from the
    /// uniform-cell guess or `hint`, whichever is later, forward to the
    /// first interval whose right knot exceeds `x`.
    #[inline]
    fn locate(&self, x: f64, hint: usize) -> usize {
        let cell = (((x - self.iv[0].x) * self.cell_scale) as usize).min(self.cells.len() - 1);
        let mut i = (self.cells[cell] as usize).max(hint);
        // The guess is at most one interval short almost everywhere (4
        // cells per knot): absorb that step branch-free, keep the loop for
        // the rare dense-knot (ladder) regions so it predicts ~never-taken.
        i += usize::from(x >= self.iv[i + 1].x);
        while x >= self.iv[i + 1].x {
            i += 1;
        }
        i
    }
}

/// The classical PCHIP derivative estimate at knot `i`: weighted harmonic
/// mean of the adjacent secants in the interior (zero at local extrema),
/// the shape-preserving three-point formula at the ends.
fn pchip_slope(i: usize, n: usize, h: &[f64], delta: &[f64]) -> f64 {
    if n == 2 {
        return delta[0];
    }
    if i == 0 || i == n - 1 {
        // One-sided three-point estimate, clamped as in Fritsch–Carlson.
        let (h0, h1, d0, d1) = if i == 0 {
            (h[0], h[1], delta[0], delta[1])
        } else {
            (h[n - 2], h[n - 3], delta[n - 2], delta[n - 3])
        };
        let est = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1);
        if est * d0 <= 0.0 {
            return 0.0;
        }
        if d0 * d1 < 0.0 && est.abs() > 3.0 * d0.abs() {
            return 3.0 * d0;
        }
        return est;
    }
    let (d0, d1) = (delta[i - 1], delta[i]);
    if d0 * d1 <= 0.0 {
        return 0.0;
    }
    let (h0, h1) = (h[i - 1], h[i]);
    let w1 = 2.0 * h1 + h0;
    let w2 = h1 + 2.0 * h0;
    (w1 + w2) / (w1 / d0 + w2 / d1)
}

/// Clamps a knot derivative into the Fritsch–Carlson monotonicity region of
/// its adjacent intervals (secant slopes `left`/`right`, `None` at the
/// ends): sign matching the secants, magnitude at most
/// `3·min(|Δ_left|, |Δ_right|)`; zero when the secants disagree in sign.
///
/// Public so callers that pack their own Hermite segments (the quantile
/// table's uniform bulk fast path) apply the identical monotonicity rule.
pub fn monotone_clamp(d: f64, left: Option<f64>, right: Option<f64>) -> f64 {
    clamp_fc(d, left, right)
}

fn clamp_fc(d: f64, left: Option<f64>, right: Option<f64>) -> f64 {
    let bound = |delta: f64| 3.0 * delta.abs();
    match (left, right) {
        (Some(l), Some(r)) => {
            if l * r < 0.0 || (l == 0.0 && r == 0.0) {
                0.0
            } else {
                let sign = if l + r >= 0.0 { 1.0 } else { -1.0 };
                let cap = bound(l).min(bound(r));
                (d * sign).clamp(0.0, cap) * sign
            }
        }
        (Some(s), None) | (None, Some(s)) => {
            if s == 0.0 {
                0.0
            } else {
                let sign = s.signum();
                (d * sign).clamp(0.0, bound(s)) * sign
            }
        }
        (None, None) => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    /// A monotone cubic with every derivative estimated from the data.
    fn pchip(xs: &[f64], ys: &[f64]) -> MonotoneCubic {
        MonotoneCubic::with_slopes(xs, ys, &vec![f64::NAN; xs.len()])
    }

    #[test]
    fn spline_reproduces_knots() {
        let xs = [0.0, 1.0, 2.5, 4.0];
        let ys = [1.0, -1.0, 0.5, 3.0];
        let sp = CubicSpline::new(&xs, &ys);
        for (x, y) in xs.iter().zip(ys.iter()) {
            assert!(approx_eq(sp.eval(*x), *y, 1e-12));
        }
    }

    #[test]
    fn spline_linear_data_is_linear() {
        // A natural spline through collinear points is the line itself.
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        let sp = CubicSpline::new(&xs, &ys);
        for i in 0..90 {
            let x = i as f64 * 0.1;
            assert!(approx_eq(sp.eval(x), 2.0 * x + 1.0, 1e-10));
        }
    }

    #[test]
    fn spline_approximates_sine() {
        let n = 21;
        let xs: Vec<f64> = (0..n)
            .map(|i| i as f64 * std::f64::consts::PI / (n - 1) as f64)
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.sin()).collect();
        let sp = CubicSpline::new(&xs, &ys);
        for i in 0..=100 {
            let x = i as f64 * std::f64::consts::PI / 100.0;
            assert!((sp.eval(x) - x.sin()).abs() < 1e-3);
        }
    }

    #[test]
    fn spline_derivative_of_parabola() {
        let xs: Vec<f64> = (0..41).map(|i| i as f64 * 0.1).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x * x).collect();
        let sp = CubicSpline::new(&xs, &ys);
        // Interior derivative ≈ 2x (natural BCs distort only near the ends).
        for i in 10..31 {
            let x = i as f64 * 0.1;
            assert!((sp.derivative(x) - 2.0 * x).abs() < 1e-2);
        }
    }

    #[test]
    fn spline_two_knots_is_segment() {
        let sp = CubicSpline::new(&[0.0, 2.0], &[1.0, 5.0]);
        assert!(approx_eq(sp.eval(1.0), 3.0, 1e-12));
    }

    #[test]
    fn spline_resample_endpoints() {
        let sp = CubicSpline::uniform(0.0, 1.0, &[0.0, 0.5, 0.7, 1.0]);
        let r = sp.resample(0.0, 1.0, 5);
        assert_eq!(r.len(), 5);
        assert!(approx_eq(r[0], 0.0, 1e-12));
        assert!(approx_eq(r[4], 1.0, 1e-12));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn spline_rejects_duplicate_knots() {
        CubicSpline::new(&[0.0, 0.0, 1.0], &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn uniform_spline_matches_general_spline() {
        // Same knots, same data ⇒ identical coefficients ⇒ identical values
        // (bit-for-bit at the shared arithmetic, so a tight tolerance).
        let lo = 2.0;
        let hi = 7.3;
        let ys: Vec<f64> = (0..48).map(|i| ((i as f64) * 0.37).sin() + 2.0).collect();
        let xs = crate::grid::linspace(lo, hi, ys.len());
        let general = CubicSpline::new(&xs, &ys);
        let mut scratch = SplineScratch::new();
        let uniform = scratch.fit_uniform(lo, hi, &ys);
        for k in 0..=200 {
            let x = lo - 0.5 + (hi - lo + 1.0) * k as f64 / 200.0;
            let g = general.eval(x);
            let u = uniform.eval(x);
            assert!(
                (g - u).abs() <= 1e-12 * g.abs().max(1.0),
                "x={x}: {g} vs {u}"
            );
        }
    }

    #[test]
    fn uniform_spline_scratch_reusable() {
        let mut scratch = SplineScratch::new();
        let ys1 = [0.0, 1.0, 0.0, 2.0, 0.5];
        let v1 = scratch.fit_uniform(0.0, 1.0, &ys1).eval(0.4);
        // A different (larger) fit in between must not corrupt later fits.
        let big: Vec<f64> = (0..300).map(|i| (i as f64 * 0.01).cos()).collect();
        let _ = scratch.fit_uniform(-1.0, 4.0, &big).eval(2.0);
        let v2 = scratch.fit_uniform(0.0, 1.0, &ys1).eval(0.4);
        assert_eq!(v1, v2);
    }

    #[test]
    #[should_panic(expected = "at least two knots")]
    fn uniform_spline_rejects_single_point() {
        SplineScratch::new().fit_uniform(0.0, 1.0, &[1.0]);
    }

    #[test]
    fn local_cubic_reproduces_cubics_exactly() {
        // 4-point Lagrange is exact on polynomials of degree ≤ 3.
        let f = |x: f64| 2.0 - x + 0.5 * x * x - 0.125 * x * x * x;
        let ys: Vec<f64> = (0..20).map(|i| f(i as f64 * 0.25)).collect();
        let lc = UniformLocalCubic::new(0.0, 4.75, &ys);
        for k in 0..=95 {
            let x = k as f64 * 0.05;
            assert!(
                (lc.eval(x) - f(x)).abs() < 1e-12,
                "x={x}: {} vs {}",
                lc.eval(x),
                f(x)
            );
        }
    }

    #[test]
    fn local_cubic_close_to_natural_spline_on_smooth_data() {
        // On an oversampled bell curve (the convolution-grid use case) the
        // local cubic and the global spline agree far below the grid error.
        let n = 257;
        let ys: Vec<f64> = (0..n)
            .map(|i| {
                let x = (i as f64 / (n - 1) as f64 - 0.5) * 6.0;
                (-x * x / 2.0).exp()
            })
            .collect();
        let lc = UniformLocalCubic::new(0.0, 1.0, &ys);
        let mut scratch = SplineScratch::new();
        let sp = scratch.fit_uniform(0.0, 1.0, &ys);
        for k in 0..=500 {
            let x = k as f64 / 500.0;
            let a = lc.eval(x);
            let b = sp.eval(x);
            // Interior agreement is ~1e-9; the few-e-6 gap at the ends is
            // the spline's natural boundary condition (m = 0), where the
            // one-sided stencil is the *more* accurate interpolant.
            assert!((a - b).abs() < 1e-5, "x={x}: {a} vs {b}");
            if (0.05..=0.95).contains(&x) {
                assert!((a - b).abs() < 1e-7, "interior x={x}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn local_cubic_degenerate_counts() {
        let two = UniformLocalCubic::new(0.0, 1.0, &[1.0, 3.0]);
        assert!(approx_eq(two.eval(0.5), 2.0, 1e-12));
        let three = UniformLocalCubic::new(0.0, 2.0, &[0.0, 1.0, 4.0]);
        // Parabola x² through (0,0), (1,1), (2,4).
        assert!(approx_eq(three.eval(1.5), 2.25, 1e-12));
    }

    #[test]
    fn monotone_cubic_reproduces_knots_and_stays_monotone() {
        let xs = [0.0, 0.5, 0.8, 1.3, 2.0, 4.0];
        let ys = [0.0, 0.1, 0.9, 1.0, 1.05, 9.0];
        let mc = pchip(&xs, &ys);
        for (x, y) in xs.iter().zip(ys.iter()) {
            assert!(approx_eq(mc.eval(*x), *y, 1e-12), "knot {x}");
        }
        let mut prev = f64::NEG_INFINITY;
        for k in 0..=4000 {
            let v = mc.eval(4.0 * k as f64 / 4000.0);
            assert!(v >= prev - 1e-12, "non-monotone at k={k}: {v} < {prev}");
            prev = v;
        }
        // Range-bounded (no overshoot past the data).
        assert!(prev <= 9.0 + 1e-12);
    }

    #[test]
    fn monotone_cubic_exact_on_lines() {
        let xs: Vec<f64> = (0..9).map(|i| i as f64 * 0.7).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 1.0).collect();
        let mc = pchip(&xs, &ys);
        for k in 0..=100 {
            let x = 5.6 * k as f64 / 100.0;
            assert!(approx_eq(mc.eval(x), 3.0 * x - 1.0, 1e-12));
        }
    }

    #[test]
    fn monotone_cubic_exact_slopes_beat_pchip() {
        // exp is monotone and smooth: exact derivatives give ~O(h⁴), the
        // data-driven PCHIP estimate only ~O(h³).
        let xs: Vec<f64> = (0..33).map(|i| i as f64 / 32.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.exp()).collect();
        let ds: Vec<f64> = ys.clone();
        let exact = MonotoneCubic::with_slopes(&xs, &ys, &ds);
        let est = pchip(&xs, &ys);
        let (mut err_exact, mut err_est) = (0.0f64, 0.0f64);
        for k in 0..=1000 {
            let x = k as f64 / 1000.0;
            err_exact = err_exact.max((exact.eval(x) - x.exp()).abs());
            err_est = err_est.max((est.eval(x) - x.exp()).abs());
        }
        assert!(err_exact < 1e-7, "exact-slope error {err_exact}");
        assert!(err_exact < err_est / 10.0, "{err_exact} vs {err_est}");
    }

    #[test]
    fn monotone_cubic_nonuniform_knots_and_clamping() {
        let xs = [0.0, 0.001, 0.1, 0.5, 3.0];
        let ys = [0.0, 0.2, 0.4, 0.6, 1.0];
        let mc = pchip(&xs, &ys);
        assert_eq!(mc.eval(-5.0), 0.0);
        assert_eq!(mc.eval(7.0), 1.0);
        assert_eq!(mc.knots(), &xs);
        let mut prev = 0.0;
        for k in 0..=3000 {
            let v = mc.eval(3.0 * k as f64 / 3000.0);
            assert!(v >= prev - 1e-12);
            prev = v;
        }
    }

    #[test]
    fn monotone_cubic_nonfinite_slopes_fall_back() {
        // Infinite end derivative (sqrt at 0): falls back to the clamped
        // PCHIP estimate instead of poisoning the cubic.
        let xs: Vec<f64> = (0..17).map(|i| (i as f64 / 16.0).powi(2)).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.sqrt()).collect();
        let mut ds: Vec<f64> = xs.iter().map(|x| 0.5 / x.sqrt()).collect();
        assert!(ds[0].is_infinite());
        ds[0] = f64::INFINITY;
        let mc = MonotoneCubic::with_slopes(&xs, &ys, &ds);
        for k in 0..=100 {
            let x = k as f64 / 100.0;
            assert!(mc.eval(x).is_finite());
            assert!((mc.eval(x) - x.sqrt()).abs() < 0.05);
        }
    }

    #[test]
    fn monotone_cubic_hinted_walk_matches_eval_bitwise() {
        // Geometric knots crowd toward 0, far denser than the uniform
        // cells there, so the plain walk is long and a hint skips it.
        let xs: Vec<f64> = (0..200)
            .map(|i| if i == 0 { 0.0 } else { 0.9f64.powi(200 - i) })
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.sqrt()).collect();
        let mc = pchip(&xs, &ys);
        let probes: Vec<f64> = (0..=5000)
            .map(|k| 1.2 * (k as f64 / 5000.0).powi(3) - 0.1)
            .collect();
        for &lo in &probes {
            let hint = mc.interval_of(lo);
            for &x in probes.iter().filter(|&&x| x >= lo).step_by(37) {
                assert_eq!(
                    mc.eval_from(x, hint).to_bits(),
                    mc.eval(x).to_bits(),
                    "{x} from {lo}"
                );
            }
        }
        // The interval is non-decreasing and ends at the last interval.
        assert!(probes
            .windows(2)
            .all(|w| mc.interval_of(w[0]) <= mc.interval_of(w[1])));
        assert_eq!(mc.interval_of(-1.0), 0);
        assert_eq!(mc.interval_of(2.0), xs.len() - 2);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn monotone_cubic_rejects_unsorted() {
        pchip(&[0.0, 2.0, 1.0], &[0.0, 1.0, 2.0]);
    }

    /// The AVX2 grid bodies against their scalar bodies. The AVX2 bodies
    /// are reached through the public `eval_grid` dispatchers, which pick
    /// them whenever the CPU has AVX2; the scalar bodies are called
    /// directly. Output buffers start as NaN, so a point left unwritten
    /// shows up.
    #[cfg(target_arch = "x86_64")]
    mod avx2_grid {
        use super::*;
        use proptest::prelude::*;

        fn avx2_present() -> bool {
            let present = std::is_x86_feature_detected!("avx2");
            if !present {
                println!("skipped: this CPU has no AVX2, so only the scalar bodies run");
            }
            present
        }

        /// The first knot: the origin (`kind` 0), near 1e6 (1) or
        /// `offset` itself.
        fn origin(kind: usize, offset: f64) -> f64 {
            match kind {
                0 => 0.0,
                1 => 1e6 + offset,
                _ => offset,
            }
        }

        /// A grid step: `num/den` knot steps (`commensurate`), or
        /// `reach` spans over the grid's `len` points.
        fn grid_step(
            knot_step: f64,
            span: f64,
            len: usize,
            choice: (bool, usize, usize, f64),
        ) -> f64 {
            let (commensurate, num, den, reach) = choice;
            if commensurate {
                knot_step * num as f64 / den as f64
            } else {
                span * reach / len.saturating_sub(1).max(1) as f64
            }
        }

        fn bits(v: &[f64]) -> Vec<u64> {
            v.iter().map(|x| x.to_bits()).collect()
        }

        #[test]
        fn grids_far_outside_the_knots_match_scalar_bodies_bitwise() {
            if !avx2_present() {
                return;
            }
            // Points up to 1e12 from a 3-wide support: their cell products
            // pass both ends of the `i32` range.
            let ys: Vec<f64> = (0..40).map(|i| (i as f64 * 0.3).sin() + 1.5).collect();
            let (lo, hi) = (2.0, 5.0);
            let mut scratch = SplineScratch::new();
            let spline = scratch.fit_uniform(lo, hi, &ys);
            let interp = UniformLocalCubic::new(lo, hi, &ys);
            for step in [1e10, -1e10, 0.37, -0.37] {
                let mut avx2 = vec![f64::NAN; 203];
                let mut scalar = vec![f64::NAN; 203];
                spline.eval_grid(step, f64::INFINITY, &mut avx2);
                spline.eval_grid_from(step, f64::INFINITY, &mut scalar, 0);
                assert_eq!(bits(&avx2), bits(&scalar), "spline, step {step:e}");
                let grid_lo = lo - 101.0 * step;
                let grid_hi = lo + 101.0 * step;
                interp.eval_grid(grid_lo, step, grid_hi, f64::INFINITY, &mut avx2);
                interp.eval_grid_from(grid_lo, step, grid_hi, f64::INFINITY, &mut scalar, 0);
                assert_eq!(bits(&avx2), bits(&scalar), "local cubic, step {step:e}");
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn spline_grid_matches_scalar_body_bitwise(
                ys in prop::collection::vec(-2.0f64..5.0, 2..=130),
                kind in 0usize..3,
                offset in -50.0f64..50.0,
                span in 0.01f64..100.0,
                len in 0usize..=300,
                commensurate in 0usize..2,
                num in 1usize..=4,
                den in 1usize..=4,
                // Up to 2.5 spans: most grids run past `hi`.
                reach in 0.1f64..2.5,
                // The cut from a quarter span below `hi` to 1.5 spans past it.
                cut_at in -0.25f64..1.5,
            ) {
                if !avx2_present() {
                    return Ok(());
                }
                let lo = origin(kind, offset);
                let hi = lo + span;
                let mut scratch = SplineScratch::new();
                let spline = scratch.fit_uniform(lo, hi, &ys);
                let knot_step = span / (ys.len() - 1) as f64;
                let choice = (commensurate == 1, num, den, reach);
                let step = grid_step(knot_step, span, len, choice);
                // The drawn cut and the resample's own, `max(hi, top − step)`.
                let top = lo + step * len.saturating_sub(1) as f64;
                for cut in [hi + cut_at * span, hi.max(top - step)] {
                    let mut avx2 = vec![f64::NAN; len];
                    let mut scalar = vec![f64::NAN; len];
                    spline.eval_grid(step, cut, &mut avx2);
                    spline.eval_grid_from(step, cut, &mut scalar, 0);
                    prop_assert_eq!(bits(&avx2), bits(&scalar), "cut {:e}", cut);
                }
            }

            #[test]
            fn local_cubic_grid_matches_scalar_body_bitwise(
                // Two and three samples take the exact low-order polynomials.
                ys in prop::collection::vec(-2.0f64..5.0, 2..=130),
                kind in 0usize..3,
                offset in -50.0f64..50.0,
                span in 0.01f64..100.0,
                len in 0usize..=300,
                commensurate in 0usize..2,
                num in 1usize..=4,
                den in 1usize..=4,
                reach in 0.1f64..2.5,
                // The grid's first point from a quarter span below the
                // first knot, and its pinned last point within a step of
                // where the unpinned formula puts it.
                start_at in -0.25f64..0.5,
                end_shift in -1.0f64..1.0,
                cut_at in -0.25f64..1.5,
            ) {
                if !avx2_present() {
                    return Ok(());
                }
                let lo = origin(kind, offset);
                let hi = lo + span;
                let interp = UniformLocalCubic::new(lo, hi, &ys);
                let knot_step = span / (ys.len() - 1) as f64;
                let choice = (commensurate == 1, num, den, reach);
                let step = grid_step(knot_step, span, len, choice);
                let grid_lo = lo + start_at * span;
                let grid_hi = grid_lo + step * (len.saturating_sub(1) as f64 + end_shift);
                // The drawn cut and the down-sample's own, the last knot.
                for cut in [hi + cut_at * span, hi] {
                    let mut avx2 = vec![f64::NAN; len];
                    let mut scalar = vec![f64::NAN; len];
                    interp.eval_grid(grid_lo, step, grid_hi, cut, &mut avx2);
                    interp.eval_grid_from(grid_lo, step, grid_hi, cut, &mut scalar, 0);
                    prop_assert_eq!(bits(&avx2), bits(&scalar), "cut {:e}", cut);
                }
            }
        }
    }
}
