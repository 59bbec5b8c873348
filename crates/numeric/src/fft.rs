//! Iterative radix-2 complex FFT.
//!
//! The paper computes the distribution of a sum of random variables by
//! convolving their sampled probability densities, "calculated numerically
//! using Fast Fourier Transform (FFT)". This module supplies the FFT used by
//! [`crate::convolution::convolve_fft`].
//!
//! The implementation is a textbook iterative Cooley–Tukey decimation-in-time
//! transform with bit-reversal permutation. Sizes must be powers of two; the
//! convolution layer handles zero-padding.
//!
//! Repeated transforms of the same size — the common case on the evaluator
//! hot path, where every convolution pads to the same working grid — go
//! through an [`FftPlan`]: the twiddle factors of every butterfly stage are
//! tabulated once (by the *same* `w ← w·wlen` recurrence the plain
//! transform uses, so planned and unplanned results agree bit-for-bit) and
//! the per-stage inner loop becomes a table read. [`with_plan_scratch`]
//! keeps one plan plus two zero-padding scratch buffers per size in
//! thread-local storage, so steady-state convolutions neither recompute
//! trigonometry nor allocate.

use std::cell::RefCell;

/// Minimal complex number for FFT work.
///
/// We deliberately avoid pulling in a complex-number crate: the four
/// operations used by the FFT are trivial and keeping the type local lets the
/// compiler inline everything into the butterfly loops.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Builds a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// The additive identity.
    #[inline]
    pub const fn zero() -> Self {
        Self::new(0.0, 0.0)
    }

    /// `e^{iθ}` on the unit circle.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self::new(theta.cos(), theta.sin())
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Squared magnitude `|z|²`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl std::ops::Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        Complex::new(self.re * rhs, self.im * rhs)
    }
}

/// Returns `true` when `n` is a power of two (and nonzero).
#[inline]
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Smallest power of two `>= n`.
#[inline]
pub fn next_power_of_two(n: usize) -> usize {
    n.next_power_of_two()
}

fn bit_reverse_permute(data: &mut [Complex]) {
    let n = data.len();
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            data.swap(i, j);
        }
    }
}

/// In-place forward FFT.
///
/// `data.len()` must be a power of two.
///
/// Uses the convention `X[k] = Σ_n x[n]·e^{-2πi·kn/N}` (no normalization);
/// the inverse transform divides by `N`.
///
/// # Panics
/// Panics if the length is not a power of two.
pub fn fft_inplace(data: &mut [Complex]) {
    fft_dir(data, false);
}

/// In-place inverse FFT, including the `1/N` normalization.
///
/// # Panics
/// Panics if the length is not a power of two.
pub fn ifft_inplace(data: &mut [Complex]) {
    fft_dir(data, true);
    let n = data.len() as f64;
    let inv = 1.0 / n;
    for z in data.iter_mut() {
        *z = *z * inv;
    }
}

fn fft_dir(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(
        is_power_of_two(n),
        "FFT size must be a power of two, got {n}"
    );
    if n <= 1 {
        return;
    }
    bit_reverse_permute(data);
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::cis(ang);
        for start in (0..n).step_by(len) {
            let mut w = Complex::new(1.0, 0.0);
            let half = len / 2;
            for k in 0..half {
                let u = data[start + k];
                let v = data[start + k + half] * w;
                data[start + k] = u + v;
                data[start + k + half] = u - v;
                w = w * wlen;
            }
        }
        len <<= 1;
    }
}

/// Precomputed twiddle-factor tables for one FFT size.
///
/// The forward and inverse tables hold, for every butterfly stage
/// `len = 2, 4, …, size`, the `len/2` twiddles `w_k` of that stage,
/// flattened (`size − 1` entries in total). They are generated with the
/// same repeated-multiplication recurrence as [`fft_inplace`], so a planned
/// transform returns bit-identical results — caching changes *when* the
/// twiddles are computed, never *what* they are.
#[derive(Debug, Clone)]
pub struct FftPlan {
    size: usize,
    fwd: Vec<Complex>,
    inv: Vec<Complex>,
}

impl FftPlan {
    /// Builds the tables for transforms of length `size`.
    ///
    /// # Panics
    /// Panics if `size` is not a power of two.
    pub fn new(size: usize) -> Self {
        assert!(
            is_power_of_two(size),
            "FFT size must be a power of two, got {size}"
        );
        Self {
            size,
            fwd: twiddle_table(size, false),
            inv: twiddle_table(size, true),
        }
    }

    /// The transform length this plan serves.
    pub fn size(&self) -> usize {
        self.size
    }

    /// In-place forward FFT using the cached twiddles.
    ///
    /// # Panics
    /// Panics if `data.len() != self.size()`.
    pub fn fft(&self, data: &mut [Complex]) {
        fft_planned(data, &self.fwd, self.size);
    }

    /// In-place inverse FFT (including the `1/N` normalization) using the
    /// cached twiddles.
    ///
    /// # Panics
    /// Panics if `data.len() != self.size()`.
    pub fn ifft(&self, data: &mut [Complex]) {
        fft_planned(data, &self.inv, self.size);
        let inv = 1.0 / self.size as f64;
        for z in data.iter_mut() {
            *z = *z * inv;
        }
    }
}

fn twiddle_table(size: usize, inverse: bool) -> Vec<Complex> {
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut table = Vec::with_capacity(size.saturating_sub(1));
    let mut len = 2;
    while len <= size {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::cis(ang);
        let mut w = Complex::new(1.0, 0.0);
        for _ in 0..len / 2 {
            table.push(w);
            w = w * wlen;
        }
        len <<= 1;
    }
    table
}

fn fft_planned(data: &mut [Complex], table: &[Complex], plan_size: usize) {
    let n = data.len();
    assert_eq!(n, plan_size, "plan is for size {plan_size}, got {n}");
    if n <= 1 {
        return;
    }
    bit_reverse_permute(data);
    let mut off = 0usize;
    let mut len = 2;
    while len <= n {
        let half = len / 2;
        let tw = &table[off..off + half];
        for start in (0..n).step_by(len) {
            for (k, &w) in tw.iter().enumerate() {
                let u = data[start + k];
                let v = data[start + k + half] * w;
                data[start + k] = u + v;
                data[start + k + half] = u - v;
            }
        }
        off += half;
        len <<= 1;
    }
}

/// One cached plan plus two scratch buffers, per size, per thread.
struct CachedPlan {
    plan: FftPlan,
    buf_a: Vec<Complex>,
    buf_b: Vec<Complex>,
}

thread_local! {
    /// Plans indexed by `log2(size)`; `None` until first use.
    static PLAN_CACHE: RefCell<Vec<Option<CachedPlan>>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with the thread-local [`FftPlan`] for `size` and two scratch
/// buffers (each resized to `size` and zeroed), creating and caching the
/// plan on first use.
///
/// The entry is taken out of the cache while `f` runs, so reentrant calls
/// of the same size simply build a temporary plan instead of panicking.
///
/// # Panics
/// Panics if `size` is not a power of two.
pub fn with_plan_scratch<R>(
    size: usize,
    f: impl FnOnce(&FftPlan, &mut Vec<Complex>, &mut Vec<Complex>) -> R,
) -> R {
    assert!(
        is_power_of_two(size),
        "FFT size must be a power of two, got {size}"
    );
    let slot = size.trailing_zeros() as usize;
    let entry = PLAN_CACHE.with(|c| {
        let mut cache = c.borrow_mut();
        if cache.len() <= slot {
            cache.resize_with(slot + 1, || None);
        }
        cache[slot].take()
    });
    let mut entry = entry.unwrap_or_else(|| CachedPlan {
        plan: FftPlan::new(size),
        buf_a: Vec::new(),
        buf_b: Vec::new(),
    });
    entry.buf_a.clear();
    entry.buf_a.resize(size, Complex::zero());
    entry.buf_b.clear();
    entry.buf_b.resize(size, Complex::zero());
    let result = f(&entry.plan, &mut entry.buf_a, &mut entry.buf_b);
    PLAN_CACHE.with(|c| c.borrow_mut()[slot] = Some(entry));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    /// Naive O(n²) DFT used as the reference implementation in tests.
    fn dft_naive(input: &[Complex]) -> Vec<Complex> {
        let n = input.len();
        let mut out = vec![Complex::zero(); n];
        for (k, o) in out.iter_mut().enumerate() {
            let mut acc = Complex::zero();
            for (j, &x) in input.iter().enumerate() {
                let ang = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                acc = acc + x * Complex::cis(ang);
            }
            *o = acc;
        }
        out
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut data = vec![Complex::zero(); 8];
        data[0] = Complex::new(1.0, 0.0);
        fft_inplace(&mut data);
        for z in data {
            assert!(approx_eq(z.re, 1.0, 1e-12));
            assert!(approx_eq(z.im, 0.0, 1e-12));
        }
    }

    #[test]
    fn fft_matches_naive_dft() {
        let n = 64;
        let input: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let expect = dft_naive(&input);
        let mut got = input.clone();
        fft_inplace(&mut got);
        for (g, e) in got.iter().zip(expect.iter()) {
            assert!(approx_eq(g.re, e.re, 1e-9), "{} vs {}", g.re, e.re);
            assert!(approx_eq(g.im, e.im, 1e-9), "{} vs {}", g.im, e.im);
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        let n = 128;
        let input: Vec<Complex> = (0..n)
            .map(|i| Complex::new(i as f64, (n - i) as f64 * 0.5))
            .collect();
        let mut data = input.clone();
        fft_inplace(&mut data);
        ifft_inplace(&mut data);
        for (d, x) in data.iter().zip(input.iter()) {
            assert!(approx_eq(d.re, x.re, 1e-9));
            assert!(approx_eq(d.im, x.im, 1e-9));
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let n = 32;
        let input: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).sqrt(), 0.0))
            .collect();
        let time_energy: f64 = input.iter().map(|z| z.norm_sqr()).sum();
        let mut freq = input.clone();
        fft_inplace(&mut freq);
        let freq_energy: f64 = freq.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!(approx_eq(time_energy, freq_energy, 1e-9));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let mut data = vec![Complex::zero(); 12];
        fft_inplace(&mut data);
    }

    #[test]
    fn size_one_is_identity() {
        let mut data = vec![Complex::new(3.5, -1.0)];
        fft_inplace(&mut data);
        assert_eq!(data[0], Complex::new(3.5, -1.0));
    }

    #[test]
    fn planned_fft_bit_identical_to_plain() {
        for size in [2usize, 8, 64, 512] {
            let input: Vec<Complex> = (0..size)
                .map(|i| Complex::new((i as f64 * 0.23).sin(), (i as f64 * 0.71).cos()))
                .collect();
            let plan = FftPlan::new(size);
            let mut plain = input.clone();
            fft_inplace(&mut plain);
            let mut planned = input.clone();
            plan.fft(&mut planned);
            assert_eq!(plain, planned, "forward size {size}");
            ifft_inplace(&mut plain);
            plan.ifft(&mut planned);
            assert_eq!(plain, planned, "inverse size {size}");
        }
    }

    #[test]
    fn plan_scratch_reused_across_calls() {
        let first = with_plan_scratch(16, |plan, a, _| {
            a[0] = Complex::new(1.0, 0.0);
            plan.fft(a);
            a[3]
        });
        // Second call must see zeroed buffers (no stale state) and the same
        // cached plan.
        let second = with_plan_scratch(16, |plan, a, _| {
            assert!(a.iter().all(|z| *z == Complex::zero()));
            a[0] = Complex::new(1.0, 0.0);
            plan.fft(a);
            a[3]
        });
        assert_eq!(first, second);
    }

    #[test]
    #[should_panic(expected = "plan is for size")]
    fn plan_rejects_mismatched_length() {
        let plan = FftPlan::new(8);
        let mut data = vec![Complex::zero(); 4];
        plan.fft(&mut data);
    }
}
