//! Precomputed inverse-CDF (quantile) tables for fast repeated sampling.
//!
//! The Monte-Carlo ground truth of Fig. 1 draws 100 000 realizations of
//! every task and communication duration — up to ~10⁸ samples per case.
//! Inverting the CDF by root finding costs dozens of CDF evaluations per
//! draw; far too slow at that volume. But every uncertain weight in the
//! paper's model is the *same* base shape (Beta(2, 5)) rescaled affinely,
//! so one shared quantile table of the standard shape turns each draw into
//! `lo + span·Q(u)` — a single uniform deviate plus a table lookup.
//!
//! [`QuantileTable`] tabulates `Q = F⁻¹` once (a safeguarded-Newton sweep,
//! ~3 CDF evaluations per knot) and interpolates with the
//! monotonicity-preserving cubic of [`robusched_numeric::MonotoneCubic`],
//! using the *exact* derivative `Q′(u) = 1/f(Q(u))` at every knot where the
//! density is positive. Knots are uniform over the bulk of `[0, 1]` plus
//! geometric ladders toward both endpoints, which tracks the power-law
//! endpoint behavior of Beta-family quantiles (`Q ~ u^{1/α}` near 0,
//! `1 − Q ~ (1−u)^{1/β}` near 1) with *uniform* relative knot spacing — the
//! interpolation error stays below 1e-9 across `u ∈ [1e-9, 1 − 1e-9]` at
//! the default resolution for the paper's smooth base shapes (pinned by
//! `table_matches_direct_quantile_*` below; a distribution with an interior
//! density kink, e.g. the triangular family's mode, keeps ~1e-7 accuracy in
//! the single knot interval containing the kink and 1e-9 elsewhere).
//!
//! Lookups are `O(1)`: a direct-indexed bulk interval, or in the tails a
//! locator cell plus a short walk, then one cubic Horner evaluation — no
//! root find, no transcendental call.

use crate::dist::Dist;
#[cfg(target_arch = "x86_64")]
use crate::rng4::Lanes;
use crate::rng4::StdRngX4;
use rand::RngCore;
use robusched_numeric::{monotone_clamp, MonotoneCubic};

/// Default number of *bulk* (uniform) probability knots; the geometric tail
/// ladders add ~2100 more. See [`QuantileTable::new`].
pub const DEFAULT_QTABLE_KNOTS: usize = 2049;

/// Tail-ladder density: knots per octave of distance from each endpoint.
const LADDER_PER_OCTAVE: usize = 24;
/// Tail ladders cover endpoint distances `[2⁻⁴², 2⁻⁶]`: beyond 2⁻⁶ the
/// bulk grid is dense enough, and probabilities below 2⁻⁴² (≈ 2·10⁻¹³ —
/// drawn once per ~5·10¹² realizations) ride the clamped final interval.
const LADDER_OCTAVES: std::ops::Range<i32> = 6..42;

/// Tail-locator cells per octave, as a bit count: a distance `d` from the
/// nearer endpoint is located by its `f64` exponent and the top 5 bits of
/// its mantissa (32 cells per octave, finer than the 24 ladder knots).
const TAIL_SUB_BITS: u32 = 5;
/// Octaves the locator covers: distances `[2⁻⁵³, 2⁻⁵)`, from the smallest
/// nonzero distance of a 53-bit draw to just past the bulk cut at 2⁻⁶.
/// Smaller distances share the first cell; larger ones get no hint.
const TAIL_OCTAVES: u64 = 48;
/// The key (`d.to_bits() >> (52 − TAIL_SUB_BITS)`) of 2⁻⁵³, the first cell.
const TAIL_KEY_BASE: u64 = (1023 - 53) << TAIL_SUB_BITS;
/// Locator cells per tail.
const TAIL_CELLS: usize = (TAIL_OCTAVES << TAIL_SUB_BITS) as usize;

/// A tabulated inverse CDF with monotone-cubic interpolation between knots.
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::{RngCore, SeedableRng};
/// use robusched_randvar::{Beta, Dist, QuantileTable};
///
/// let shape = Beta::paper_default();
/// let table = QuantileTable::with_default_resolution(&shape);
/// // A lookup replaces a CDF root-find, to ≤ 1e-9:
/// assert!((table.quantile(0.5) - shape.quantile(0.5)).abs() < 1e-9);
/// // A draw is `lo + span·Q(u)` for a 53-bit uniform `u`, here on `[20, 22]`:
/// let mut rng = StdRng::seed_from_u64(7);
/// let x = 20.0 + 2.0 * table.quantile_u53(rng.next_u64() >> 11);
/// assert!((20.0..=22.0).contains(&x));
/// ```
///
/// Internally two-tier: the uniform bulk region `[1/64, 1 − 1/64]` is
/// evaluated by a direct-indexed Horner cubic (one multiply to find the
/// interval — the Monte-Carlo fill loops land here ~97% of the time), and
/// everything else (tails, out-of-range clamps) goes through the general
/// ladder-knot [`MonotoneCubic`], whose interval walk starts at a tail
/// locator cell. Both tiers interpolate the same knot values with the same
/// monotone-clamped derivatives.
#[derive(Debug, Clone)]
pub struct QuantileTable {
    /// The full interpolant over bulk + ladder knots (tail path).
    full: MonotoneCubic,
    /// Tail locator, lower tail then upper: per cell of the distance to the
    /// nearer endpoint, an interval of `full` no later than the one its
    /// plain evaluation reaches anywhere in the cell (see
    /// [`QuantileTable::quantile_tail`]).
    tail_hints: [Vec<u32>; 2],
    /// Horner coefficients per uniform bulk interval (fast path; entries
    /// outside `[lo_cut, hi_cut)` are present but never addressed).
    bulk: Vec<[f64; 4]>,
    /// `bulk knots − 1` as f64: the uniform interval scale.
    scale: f64,
    /// Fast-path probability window (knot-aligned, outside the ladders).
    lo_cut: f64,
    hi_cut: f64,
    /// When the interval count is a power of two: `53 − log2(intervals)`,
    /// so a 53-bit uniform integer splits into interval index and fraction
    /// by shift/mask (see [`QuantileTable::quantile_u53`]); 0 = disabled.
    bits_shift: u32,
    /// `2⁻ᵇⁱᵗˢ_ˢʰⁱᶠᵗ`, exact: the masked fraction bits times this is the
    /// interval coordinate `t`.
    frac_scale: f64,
    /// Fast-path window as interval indices (for the u53 entry point).
    i_bounds: (u64, u64),
}

impl QuantileTable {
    /// Tabulates the quantile function of `dist` at `bulk ≥ 2` uniformly
    /// spaced probability knots plus geometric ladders toward `u = 0` and
    /// `u = 1` (so endpoint power-law behavior is resolved at uniform
    /// *relative* resolution).
    ///
    /// Knot values are found by a monotone safeguarded-Newton sweep over
    /// the CDF (each knot starts from the previous root), and knot
    /// derivatives use the exact inverse-function rule `Q′ = 1/f(Q)`
    /// clamped into the Fritsch–Carlson monotone region.
    ///
    /// # Panics
    /// Panics if `bulk < 2`.
    pub fn new(dist: &dyn Dist, bulk: usize) -> Self {
        assert!(bulk >= 2, "need at least two knots");
        let (us, bulk_idx) = knot_probabilities(bulk);
        let (lo, hi) = dist.support();
        let qs = tabulate_quantiles(dist, &us, lo, hi);
        // Exact inverse-function derivatives where the density allows;
        // non-finite entries fall back to MonotoneCubic's PCHIP estimate.
        let slopes: Vec<f64> = qs
            .iter()
            .map(|&q| {
                let f = dist.pdf(q);
                if f.is_finite() && f > 0.0 {
                    1.0 / f
                } else {
                    f64::NAN
                }
            })
            .collect();
        let full = MonotoneCubic::with_slopes(&us, &qs, &slopes);

        // ---- Uniform-bulk fast tier. ----
        // Cut at bulk knots clear of the ladder region (≥ 2⁻⁶ from both
        // ends), so every fast-path interval is a plain full-table interval
        // packed for direct indexing.
        let intervals = bulk - 1;
        let i_lo = intervals.div_ceil(64);
        let i_hi = intervals - i_lo;
        let mut coeffs = vec![[0.0f64; 4]; intervals];
        let (lo_cut, hi_cut) = if i_lo < i_hi {
            // Clamped derivative at a bulk knot, using its *merged*-table
            // neighbors so the two tiers stay consistent.
            let d_at = |k: usize| -> f64 {
                let left = (k > 0).then(|| (qs[k] - qs[k - 1]) / (us[k] - us[k - 1]));
                let right = (k + 1 < us.len()).then(|| (qs[k + 1] - qs[k]) / (us[k + 1] - us[k]));
                let cand = if slopes[k].is_finite() {
                    slopes[k]
                } else {
                    // Harmonic-mean fallback (the PCHIP estimate's shape).
                    match (left, right) {
                        (Some(l), Some(r)) if l + r > 0.0 => 2.0 * l * r / (l + r),
                        (Some(s), None) | (None, Some(s)) => s,
                        _ => 0.0,
                    }
                };
                monotone_clamp(cand, left, right)
            };
            // Pack one guard interval beyond each cut so ulp rounding of
            // `u·scale` at the boundary still lands on a valid cubic.
            for (j, c) in coeffs
                .iter_mut()
                .enumerate()
                .take((i_hi + 1).min(intervals))
                .skip(i_lo - 1)
            {
                let (k0, k1) = (bulk_idx[j], bulk_idx[j + 1]);
                let h = us[k1] - us[k0];
                let (y0, y1) = (qs[k0], qs[k1]);
                let (d0, d1) = (d_at(k0) * h, d_at(k1) * h);
                *c = [
                    y0,
                    d0,
                    3.0 * (y1 - y0) - 2.0 * d0 - d1,
                    2.0 * (y0 - y1) + d0 + d1,
                ];
            }
            (
                i_lo as f64 / intervals as f64,
                i_hi as f64 / intervals as f64,
            )
        } else {
            // Table too coarse for a separate bulk tier.
            (f64::INFINITY, f64::NEG_INFINITY)
        };
        let bits_shift = if intervals.is_power_of_two() && intervals.ilog2() <= 53 {
            53 - intervals.ilog2()
        } else {
            0
        };
        Self {
            tail_hints: tail_hints(&full),
            full,
            bulk: coeffs,
            scale: intervals as f64,
            lo_cut,
            hi_cut,
            bits_shift,
            frac_scale: 1.0 / (1u64 << bits_shift) as f64,
            i_bounds: (i_lo as u64, i_hi as u64),
        }
    }

    /// Default resolution ([`DEFAULT_QTABLE_KNOTS`] bulk knots + tail
    /// ladders, ~4200 knots total).
    pub fn with_default_resolution(dist: &dyn Dist) -> Self {
        Self::new(dist, DEFAULT_QTABLE_KNOTS)
    }

    /// Quantile at probability `u`, clamped into `[0, 1]`.
    #[inline]
    pub fn quantile(&self, u: f64) -> f64 {
        if u >= self.lo_cut && u < self.hi_cut {
            let s = u * self.scale;
            let i = s as usize;
            let t = s - i as f64;
            let c = &self.bulk[i];
            return ((c[3] * t + c[2]) * t + c[1]) * t + c[0];
        }
        self.quantile_tail(u)
    }

    /// Tails and out-of-range input (~3% of uniform draws): kept out of
    /// line so the inlined fast path stays small in callers' hot loops.
    /// [`MonotoneCubic`] clamps to the end knot values, which is exactly
    /// the `[0, 1]` clamp a quantile needs.
    ///
    /// The ladders put up to ~100 knots in one of `full`'s uniform cells,
    /// so its own walk would be long. The locator finds a start instead:
    /// the distance `d` to the nearer endpoint (`u`, or `1 − u`, exact for
    /// `u ≥ ½`) picks a cell by its exponent and top mantissa bits, and the
    /// cell's hint is the interval `full` evaluates at the cell's lowest
    /// `u`. That interval never decreases with `u`, so the hint is no later
    /// than the one `full.eval(u)` reaches, and
    /// [`MonotoneCubic::eval_from`] ends on that same interval: the same
    /// bits after a walk of a knot or two. Negative, NaN and mid-range
    /// input gets no hint and the plain walk.
    #[inline(never)]
    fn quantile_tail(&self, u: f64) -> f64 {
        let (d, hints) = if u < 0.5 {
            (u, &self.tail_hints[0])
        } else {
            (1.0 - u, &self.tail_hints[1])
        };
        let cell = (d.to_bits() >> (52 - TAIL_SUB_BITS)).saturating_sub(TAIL_KEY_BASE);
        let hint = hints.get(cell as usize).map_or(0, |&h| h as usize);
        self.full.eval_from(u, hint)
    }

    /// Quantile at probability `bits·2⁻⁵³` for a 53-bit uniform integer
    /// (`bits < 2⁵³`, e.g. `rng.next_u64() >> 11`) — bit-identical to
    /// `quantile(bits as f64 / 2⁵³)`, but the interval index and fraction
    /// come from a shift/mask instead of float compares and a float floor.
    /// It saves about a nanosecond per draw, which is real money at 10⁸
    /// draws per figure; [`QuantileTable::fill_row_u53`] applies it to a
    /// whole row of draws.
    #[inline]
    pub fn quantile_u53(&self, bits: u64) -> f64 {
        debug_assert!(bits < (1 << 53), "u53 input out of range");
        if self.bits_shift != 0 {
            let i = bits >> self.bits_shift;
            if i >= self.i_bounds.0 && i < self.i_bounds.1 {
                let mask = (1u64 << self.bits_shift) - 1;
                // Times 2^-shift: an exact power-of-two scale.
                let t = (bits & mask) as f64 * self.frac_scale;
                let c = &self.bulk[i as usize];
                return ((c[3] * t + c[2]) * t + c[1]) * t + c[0];
            }
        }
        self.quantile(bits as f64 * (1.0 / (1u64 << 53) as f64))
    }

    /// Fills `row` with `lo + span·Q(u)` from `row.len()` draws of `rng`:
    /// element `j` is bit for bit `lo + span * quantile_u53(b_j)` for the
    /// `j`-th draw `b_j = rng.next_u64() >> 11`. This is the Monte-Carlo
    /// engine's entry point for one uncertain slot across a block of
    /// realizations.
    ///
    /// On an x86-64 CPU with AVX2 this runs a copy that evaluates four
    /// bulk draws per step, chosen on each call; it performs the same IEEE
    /// operations in the same order, so the two copies agree bit for bit.
    #[inline]
    pub fn fill_row_u53<R: RngCore + ?Sized>(
        &self,
        rng: &mut R,
        lo: f64,
        span: f64,
        row: &mut [f64],
    ) {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            // SAFETY: `fill_row_u53_avx2` only requires AVX2, and the line
            // above checked that the running CPU has it.
            return unsafe { self.fill_row_u53_avx2(rng, lo, span, row) };
        }
        self.fill_row_u53_baseline(rng, lo, span, row);
    }

    /// The body of [`QuantileTable::fill_row_u53`] for the build's
    /// baseline target: one draw and one lookup per element.
    #[inline(always)]
    fn fill_row_u53_baseline<R: RngCore + ?Sized>(
        &self,
        rng: &mut R,
        lo: f64,
        span: f64,
        row: &mut [f64],
    ) {
        for x in row {
            *x = lo + span * self.quantile_u53(rng.next_u64() >> 11);
        }
    }

    /// [`QuantileTable::fill_row_u53`] four elements per step through
    /// [`QuantileTable::fill_bulk_avx2`]; the `len % 4` elements after the
    /// last full step take the baseline body's draws and lookups.
    ///
    /// # Safety
    /// Callers without AVX2 enabled must call this through `unsafe` and
    /// only after checking that the running CPU has AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn fill_row_u53_avx2<R: RngCore + ?Sized>(
        &self,
        rng: &mut R,
        lo: f64,
        span: f64,
        row: &mut [f64],
    ) {
        use std::arch::x86_64::*;
        if self.bits_shift == 0 {
            return self.fill_row_u53_baseline(rng, lo, span, row);
        }
        let steps = row.len() / 4 * 4;
        let (head, rest) = row.split_at_mut(steps);
        self.fill_bulk_avx2(lo, span, head, || {
            // `from_fn` fills in index order, so lane k takes the k-th draw.
            let w: [u64; 4] = std::array::from_fn(|_| rng.next_u64());
            _mm256_set_epi64x(w[3] as i64, w[2] as i64, w[1] as i64, w[0] as i64)
        });
        self.fill_row_u53_baseline(rng, lo, span, rest);
    }

    /// Fills `row` from the four lockstep streams of `rng`: `row[4k + l]`
    /// is bit for bit `lo + span * quantile_u53(b)` for the `k`-th draw
    /// `b = next_u64() >> 11` of lane `l`. That is element `k` of what
    /// [`QuantileTable::fill_row_u53`] writes into a row of `row.len() / 4`
    /// elements from lane `l`'s own `StdRng`, so one call draws one
    /// uncertain slot for four Monte-Carlo chunks at once, interleaved.
    ///
    /// ```
    /// use rand::rngs::StdRng;
    /// use rand::SeedableRng;
    /// use robusched_randvar::{Beta, QuantileTable, StdRngX4};
    ///
    /// let table = QuantileTable::with_default_resolution(&Beta::paper_default());
    /// let rngs = [1, 2, 3, 4].map(StdRng::seed_from_u64);
    /// // `None` on a CPU without AVX2: draw from `rngs` one by one there.
    /// if let Some(mut x4) = StdRngX4::new(&rngs) {
    ///     let mut row = [0.0; 4 * 8];
    ///     table.fill_row_x4_u53(&mut x4, 20.0, 2.0, &mut row);
    ///     let mut lane2 = [0.0; 8];
    ///     table.fill_row_u53(&mut rngs[2].clone(), 20.0, 2.0, &mut lane2);
    ///     assert_eq!(row[4 * 5 + 2], lane2[5]);
    /// }
    /// ```
    ///
    /// # Panics
    /// Panics if `row.len()` is not a multiple of four.
    #[inline]
    pub fn fill_row_x4_u53(&self, rng: &mut StdRngX4, lo: f64, span: f64, row: &mut [f64]) {
        assert!(
            row.len().is_multiple_of(4),
            "a four-stream row has four lanes per draw"
        );
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `StdRngX4::new` returns a generator only on a CPU with
        // AVX2, and `fill_row_x4_u53_avx2` only requires AVX2.
        unsafe {
            self.fill_row_x4_u53_avx2(rng, lo, span, row)
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (rng, lo, span, row);
            unreachable!("a StdRngX4 exists only on a CPU with AVX2")
        }
    }

    /// The body of [`QuantileTable::fill_row_x4_u53`]: each step of
    /// [`QuantileTable::fill_bulk_avx2`] takes one lockstep step of the
    /// four generators. A table without the u53 split takes the same
    /// words and looks each one up through `quantile_u53`.
    ///
    /// # Safety
    /// Callers without AVX2 enabled must call this through `unsafe` and
    /// only after checking that the running CPU has AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn fill_row_x4_u53_avx2(&self, rng: &mut StdRngX4, lo: f64, span: f64, row: &mut [f64]) {
        let mut lanes = Lanes::load(rng);
        if self.bits_shift == 0 {
            for out in row.chunks_exact_mut(4) {
                // SAFETY: an `__m256i` is four u64.
                let words: [u64; 4] = unsafe { std::mem::transmute(lanes.next()) };
                for (x, w) in out.iter_mut().zip(words) {
                    *x = lo + span * self.quantile_u53(w >> 11);
                }
            }
        } else {
            self.fill_bulk_avx2(lo, span, row, || lanes.next());
        }
        lanes.store(rng);
    }

    /// The bulk loop of both AVX2 row fills, four elements per step: four
    /// 64-bit words from `words` (lane `k` for element `4g + k`), their
    /// top 53 bits as draws, each lane's bulk Horner coefficients loaded
    /// as two 128-bit halves and unpacked into one vector per
    /// coefficient, and the bulk path's multiplies and adds in its order
    /// (Rust never contracts them into an FMA). A 53-bit draw's interval
    /// index is below `2⁵³⁻ˢʰⁱᶠᵗ`, the length of `bulk`, so every load is
    /// in range. Lanes outside the bulk window are marked in a bit mask,
    /// and once a run of up to 64 lanes is drawn they are recomputed one
    /// by one through the tail lookup that `quantile_u53` reaches for
    /// them: the step loop has no branch on the data.
    ///
    /// `row.len()` must be a multiple of four and the table must have the
    /// u53 split (`bits_shift != 0`).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[inline]
    fn fill_bulk_avx2<W: FnMut() -> std::arch::x86_64::__m256i>(
        &self,
        lo: f64,
        span: f64,
        row: &mut [f64],
        mut words: W,
    ) {
        use std::arch::x86_64::*;
        debug_assert!(row.len().is_multiple_of(4) && self.bits_shift != 0);
        let shift = self.bits_shift;
        let shift_count = _mm_cvtsi32_si128(shift as i32);
        // The bulk window `[first, last]` of interval indices (both below
        // 2¹¹ for the default table, far inside the signed range).
        let first = _mm256_set1_epi64x(self.i_bounds.0 as i64);
        let last = _mm256_set1_epi64x(self.i_bounds.1 as i64 - 1);
        let frac_mask = _mm256_set1_epi64x(((1u64 << shift) - 1) as i64);
        // 2⁵² as a bit pattern and as a value: OR-ing an integer below 2⁵²
        // into the first's mantissa and subtracting the second converts the
        // integer to f64 exactly, as the scalar `as f64` does.
        let two52_bits = _mm256_set1_epi64x(0x4330_0000_0000_0000);
        let two52 = _mm256_set1_pd(4_503_599_627_370_496.0);
        let frac_scale = _mm256_set1_pd(self.frac_scale);
        let (lo4, span4) = (_mm256_set1_pd(lo), _mm256_set1_pd(span));
        // A run's draws, kept for the tail lanes' lookups.
        let mut bits = [0u64; 64];
        for run in row.chunks_mut(64) {
            let mut tails = 0u64;
            for (g, out) in run.chunks_exact_mut(4).enumerate() {
                let b4 = _mm256_srli_epi64::<11>(words());
                let i4 = _mm256_srl_epi64(b4, shift_count);
                // SAFETY: an `__m256i` is four u64.
                let i: [u64; 4] = unsafe { std::mem::transmute(i4) };
                // Lane k's coefficients `[c0, c1, c2, c3]`, low and high
                // halves.
                let half = |k: usize, h: usize| {
                    let c = &self.bulk[i[k] as usize][2 * h..2 * h + 2];
                    // SAFETY: `c` is two contiguous f64; AVX2 is enabled.
                    unsafe { _mm_loadu_pd(c.as_ptr()) }
                };
                // `(c0, c1)` of lanes 0 and 2 against lanes 1 and 3, then
                // `(c2, c3)`; the unpacks pair lane 0 with 1 and 2 with 3.
                let pair = |a: usize, b: usize, h: usize| {
                    _mm256_insertf128_pd::<1>(_mm256_castpd128_pd256(half(a, h)), half(b, h))
                };
                let (lo02, lo13) = (pair(0, 2, 0), pair(1, 3, 0));
                let (hi02, hi13) = (pair(0, 2, 1), pair(1, 3, 1));
                let c0 = _mm256_unpacklo_pd(lo02, lo13);
                let c1 = _mm256_unpackhi_pd(lo02, lo13);
                let c2 = _mm256_unpacklo_pd(hi02, hi13);
                let c3 = _mm256_unpackhi_pd(hi02, hi13);
                let frac = _mm256_or_si256(_mm256_and_si256(b4, frac_mask), two52_bits);
                let t = _mm256_mul_pd(_mm256_sub_pd(_mm256_castsi256_pd(frac), two52), frac_scale);
                let mut q = _mm256_add_pd(_mm256_mul_pd(c3, t), c2);
                q = _mm256_add_pd(_mm256_mul_pd(q, t), c1);
                q = _mm256_add_pd(_mm256_mul_pd(q, t), c0);
                let y = _mm256_add_pd(lo4, _mm256_mul_pd(span4, q));
                // SAFETY: `out` is four contiguous f64; AVX2 is enabled.
                unsafe { _mm256_storeu_pd(out.as_mut_ptr(), y) };
                // SAFETY: `bits[4g..4g + 4]` is in range (at most 16 steps
                // per run) and four contiguous u64; AVX2 is enabled.
                unsafe { _mm256_storeu_si256(bits[4 * g..4 * g + 4].as_mut_ptr().cast(), b4) };
                let outside =
                    _mm256_or_si256(_mm256_cmpgt_epi64(first, i4), _mm256_cmpgt_epi64(i4, last));
                tails |= (_mm256_movemask_pd(_mm256_castsi256_pd(outside)) as u64) << (4 * g);
            }
            while tails != 0 {
                let j = tails.trailing_zeros() as usize;
                // Outside the bulk window `quantile_u53` goes through
                // `quantile` to the tail, whose float window is the same
                // interval bounds scaled by an exact power of two.
                let u = bits[j] as f64 * (1.0 / (1u64 << 53) as f64);
                run[j] = lo + span * self.quantile_tail(u);
                tails &= tails - 1;
            }
        }
    }
}

/// The tail locator's hints (see [`QuantileTable::quantile_tail`]): for
/// each cell, the interval `full` evaluates at the cell's lowest `u`. A
/// lower-tail cell starts at its distance key (the first cell at 0, as it
/// also takes every smaller distance); an upper-tail cell holds `u` above
/// `1 − d` for the next cell's first distance `d`, and the rounded
/// difference is stepped down once so that it stays below every such `u`.
fn tail_hints(full: &MonotoneCubic) -> [Vec<u32>; 2] {
    let first_distance =
        |cell: usize| f64::from_bits((TAIL_KEY_BASE + cell as u64) << (52 - TAIL_SUB_BITS));
    let hint = |u: f64| u32::try_from(full.interval_of(u)).expect("fewer than 2³² knots");
    let lower = (0..TAIL_CELLS)
        .map(|c| hint(if c == 0 { 0.0 } else { first_distance(c) }))
        .collect();
    let upper = (0..TAIL_CELLS)
        .map(|c| hint((1.0 - first_distance(c + 1)).next_down()))
        .collect();
    [lower, upper]
}

/// The knot probability grid: a uniform bulk plus geometric ladders toward
/// both endpoints. Returns the merged, strictly increasing knot list and,
/// for each bulk knot `i/(bulk−1)`, its index in the merged list (every
/// bulk knot is kept verbatim; ladder knots are dropped when they collide
/// with a neighbor).
fn knot_probabilities(bulk: usize) -> (Vec<f64>, Vec<usize>) {
    let mut ladder: Vec<f64> = Vec::with_capacity(2 * LADDER_PER_OCTAVE * LADDER_OCTAVES.len());
    for oct in LADDER_OCTAVES {
        for j in 0..LADDER_PER_OCTAVE {
            let d = 2.0f64.powi(-oct - 1)
                * 2.0f64.powf((LADDER_PER_OCTAVE - j) as f64 / LADDER_PER_OCTAVE as f64);
            ladder.push(d);
            ladder.push(1.0 - d);
        }
    }
    ladder.sort_by(f64::total_cmp);

    let mut us = Vec::with_capacity(bulk + ladder.len());
    let mut bulk_idx = Vec::with_capacity(bulk);
    let min_gap = 2.0 * f64::EPSILON;
    let mut l = 0usize;
    for i in 0..bulk {
        let u_bulk = i as f64 / (bulk - 1) as f64;
        while l < ladder.len() && ladder[l] < u_bulk - min_gap {
            let d = ladder[l];
            if us.last().is_none_or(|&prev| d - prev >= min_gap) {
                us.push(d);
            }
            l += 1;
        }
        // Skip ladder knots colliding with this bulk knot.
        while l < ladder.len() && ladder[l] < u_bulk + min_gap {
            l += 1;
        }
        bulk_idx.push(us.len());
        us.push(u_bulk);
    }
    (us, bulk_idx)
}

/// Quantiles at increasing probabilities by a monotone sweep: each knot's
/// root find starts from (and is bracketed below by) the previous knot's
/// root, so a safeguarded Newton converges in a couple of CDF evaluations.
fn tabulate_quantiles(dist: &dyn Dist, us: &[f64], lo: f64, hi: f64) -> Vec<f64> {
    let span = hi - lo;
    if span <= 0.0 {
        return vec![lo; us.len()];
    }
    let tol = 1e-14 * span.max(lo.abs()).max(1.0);
    let mut qs = Vec::with_capacity(us.len());
    let mut prev = lo;
    for &u in us {
        if u <= 0.0 {
            qs.push(lo);
            continue;
        }
        if u >= 1.0 {
            qs.push(hi);
            prev = hi;
            continue;
        }
        // Bracket [a, b] with F(a) ≤ u ≤ F(b); the sweep guarantees the
        // previous root is a valid lower end.
        let (mut a, mut b) = (prev, hi);
        // Newton guess off the bracket's lower end.
        let mut x = {
            let f = dist.pdf(a);
            let guess = if f.is_finite() && f > 0.0 {
                a + (u - dist.cdf(a)) / f
            } else {
                0.5 * (a + b)
            };
            if guess > a && guess < b {
                guess
            } else {
                0.5 * (a + b)
            }
        };
        // Terminate on the Newton *step* (quadratic convergence: the step
        // bounds the remaining error), not on the bracket width — the
        // bracket's far end may never move when Newton homes in one-sided.
        for _ in 0..80 {
            let fx = dist.cdf(x) - u;
            if fx == 0.0 {
                break;
            }
            if fx > 0.0 {
                b = x;
            } else {
                a = x;
            }
            if b - a <= tol {
                break;
            }
            let d = dist.pdf(x);
            let newton = if d.is_finite() && d > 0.0 {
                x - fx / d
            } else {
                f64::NAN
            };
            let next = if newton >= a && newton <= b {
                newton
            } else {
                0.5 * (a + b)
            };
            let step = (next - x).abs();
            x = next;
            if step <= tol {
                break;
            }
        }
        let q = x.clamp(a, b);
        qs.push(q);
        prev = q;
    }
    qs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beta::Beta;
    use crate::normal::Normal;
    use crate::triangular::Triangular;
    use crate::uniform::Uniform;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Max |table − direct| over a dense probability sweep of `[lo, hi]`.
    fn max_err(dist: &dyn Dist, t: &QuantileTable, lo: f64, hi: f64, n: usize) -> f64 {
        (0..=n)
            .map(|i| {
                let u = lo + (hi - lo) * i as f64 / n as f64;
                (t.quantile(u) - dist.quantile(u)).abs()
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn table_matches_direct_quantile_beta() {
        // The tentpole equivalence pin: ≤ 1e-9 against the root-found
        // quantile across essentially the whole open interval, including
        // both power-law tails.
        let b = Beta::paper_default();
        let t = QuantileTable::with_default_resolution(&b);
        assert!(max_err(&b, &t, 0.001, 0.999, 4000) <= 1e-9);
        assert!(max_err(&b, &t, 1e-6, 1e-3, 500) <= 1e-9);
        assert!(max_err(&b, &t, 1.0 - 1e-3, 1.0 - 1e-6, 500) <= 1e-9);
        assert!(max_err(&b, &t, 1e-9, 1e-6, 200) <= 1e-9);
        assert!(max_err(&b, &t, 1.0 - 1e-6, 1.0 - 1e-9, 200) <= 1e-9);
    }

    #[test]
    fn table_matches_direct_quantile_uniform_and_triangular() {
        let u01 = Uniform::new(0.0, 1.0);
        let t = QuantileTable::with_default_resolution(&u01);
        // The table is exact on the linear quantile; the comparison floor
        // is the direct quantile's own bisection tolerance (~1e-12).
        assert!(max_err(&u01, &t, 0.0, 1.0, 4000) <= 4e-12);

        // Triangular: the mode is an interior density kink; accuracy there
        // is limited by the knot interval containing it (~1e-7, see module
        // docs) and back to 1e-9 away from it.
        let tri = Triangular::new(0.0, 0.2, 1.0);
        let tt = QuantileTable::with_default_resolution(&tri);
        let u_mode = tri.cdf(0.2);
        assert!(max_err(&tri, &tt, 1e-9, u_mode - 0.01, 2000) <= 1e-9);
        assert!(max_err(&tri, &tt, u_mode + 0.01, 1.0 - 1e-9, 2000) <= 1e-9);
        assert!(max_err(&tri, &tt, u_mode - 0.01, u_mode + 0.01, 500) <= 1e-6);
    }

    #[test]
    fn table_is_monotone_and_endpoint_exact() {
        let b = Beta::paper_default();
        let t = QuantileTable::with_default_resolution(&b);
        assert_eq!(t.quantile(0.0), 0.0);
        assert_eq!(t.quantile(1.0), 1.0);
        let mut prev = -1.0;
        for i in 0..=100_000 {
            let v = t.quantile(i as f64 / 100_000.0);
            assert!(v >= prev, "non-monotone at {i}: {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn quantile_u53_bit_identical_to_float_path() {
        let b = Beta::paper_default();
        let t = QuantileTable::with_default_resolution(&b);
        let mut sm = crate::SplitMix64::new(3);
        for _ in 0..200_000 {
            let bits = sm.next_u64() >> 11;
            let u = bits as f64 * (1.0 / (1u64 << 53) as f64);
            assert_eq!(t.quantile_u53(bits).to_bits(), t.quantile(u).to_bits());
        }
        // Extremes.
        for bits in [0u64, 1, (1 << 53) - 1, 1 << 42, (1 << 42) - 1] {
            let u = bits as f64 * (1.0 / (1u64 << 53) as f64);
            assert_eq!(t.quantile_u53(bits).to_bits(), t.quantile(u).to_bits());
        }
        // Tables whose interval count is not a power of two fall back.
        let odd = QuantileTable::new(&b, 130);
        for bits in [0u64, 123456789, (1 << 53) - 1] {
            let u = bits as f64 * (1.0 / (1u64 << 53) as f64);
            assert_eq!(odd.quantile_u53(bits).to_bits(), odd.quantile(u).to_bits());
        }
    }

    /// Replays a fixed list of 53-bit draws as `next_u64` words (with
    /// nonzero discarded low bits), so a test decides what every lane of a
    /// row draws.
    struct Scripted {
        words: std::vec::IntoIter<u64>,
    }

    impl Scripted {
        fn new(bits: &[u64]) -> Self {
            let words: Vec<u64> = bits.iter().map(|b| b << 11 | 0x5a5).collect();
            Self {
                words: words.into_iter(),
            }
        }
    }

    impl RngCore for Scripted {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.words.next().expect("scripted draws exhausted")
        }
    }

    /// The three base shapes of the uncertainty models.
    fn shapes() -> Vec<(&'static str, QuantileTable)> {
        vec![
            (
                "beta",
                QuantileTable::with_default_resolution(&Beta::paper_default()),
            ),
            (
                "uniform",
                QuantileTable::with_default_resolution(&Uniform::new(0.0, 1.0)),
            ),
            (
                "triangular",
                QuantileTable::with_default_resolution(&Triangular::new(0.0, 0.2, 1.0)),
            ),
        ]
    }

    /// Draws that exercise every path of a lookup: both ends, every
    /// octave of both tails, both edges of the bulk window, and interval
    /// edges inside the bulk.
    fn special_draws(t: &QuantileTable) -> Vec<u64> {
        let top = (1u64 << 53) - 1;
        let mut v = vec![0, 1, 2, 3, top, top - 1, 1 << 52, (1 << 52) - 1];
        for k in 0..53 {
            v.extend([
                1u64 << k,
                (1u64 << k) + 1,
                top - (1u64 << k) + 1,
                top - (1u64 << k),
            ]);
        }
        if t.bits_shift != 0 {
            let step = 1u64 << t.bits_shift;
            for i in [
                t.i_bounds.0,
                t.i_bounds.1,
                t.i_bounds.0 + 1,
                t.i_bounds.1 - 1,
                1000,
            ] {
                v.extend([i * step - 1, i * step, i * step + 1]);
            }
        }
        v.retain(|&b| b <= top);
        v
    }

    #[test]
    fn row_entry_point_matches_quantile_u53_bitwise_in_every_lane() {
        let mut sm = crate::SplitMix64::new(17);
        let (lo, span) = (3.7, 0.37);
        let mut tables = shapes();
        // Not a power-of-two interval count: the row falls back to `quantile`.
        tables.push(("beta-130", QuantileTable::new(&Beta::paper_default(), 130)));
        for (name, t) in &tables {
            for &special in &special_draws(t) {
                // Rows of 68 put the draw at every position of a 64-lane
                // run, of a four-lane step, and of the remainder after them.
                for pos in 0..68 {
                    let mut bits: Vec<u64> = (0..68).map(|_| sm.next_u64() >> 11).collect();
                    bits[pos] = special;
                    let mut row = vec![f64::NAN; 68];
                    t.fill_row_u53(&mut Scripted::new(&bits), lo, span, &mut row);
                    for (j, (&b, &x)) in bits.iter().zip(&row).enumerate() {
                        let want = lo + span * t.quantile_u53(b);
                        assert_eq!(
                            x.to_bits(),
                            want.to_bits(),
                            "{name}: lane {j} of draw {b:#x} at {pos}"
                        );
                    }
                }
            }
            // Every length up to two runs, all-tail rows and empty rows.
            for len in 0..=130 {
                let bits: Vec<u64> = (0..len)
                    .map(|i| match i % 3 {
                        0 => sm.next_u64() >> 11,
                        1 => sm.next_u64() >> 18,
                        _ => (1u64 << 53) - 1 - (sm.next_u64() >> 18),
                    })
                    .collect();
                let mut row = vec![f64::NAN; len];
                t.fill_row_u53(&mut Scripted::new(&bits), lo, span, &mut row);
                for (j, (&b, &x)) in bits.iter().zip(&row).enumerate() {
                    let want = lo + span * t.quantile_u53(b);
                    assert_eq!(x.to_bits(), want.to_bits(), "{name}: lane {j} of {len}");
                }
            }
        }
    }

    /// The four-stream fill against `fill_row_u53` on each lane's own
    /// generator, for rows of 0–130 and 256 elements per lane, two rows in
    /// a row (the second continues the streams). The table without the
    /// u53 split takes the word-by-word lookups.
    #[test]
    fn avx2_four_stream_fill_matches_fill_row_u53_per_stream() {
        let (lo, span) = (3.7, 0.37);
        let mut tables = shapes();
        tables.push(("beta-130", QuantileTable::new(&Beta::paper_default(), 130)));
        for (name, t) in &tables {
            for len in (0..=130).chain([256]) {
                let mut rngs = [5, 6, 7, len as u64].map(StdRng::seed_from_u64);
                let Some(mut x4) = StdRngX4::new(&rngs) else {
                    println!("skipped: this CPU has no AVX2, so no lockstep generator exists");
                    return;
                };
                for pass in 0..2 {
                    let mut row = vec![f64::NAN; 4 * len];
                    t.fill_row_x4_u53(&mut x4, lo, span, &mut row);
                    for (l, rng) in rngs.iter_mut().enumerate() {
                        let mut own = vec![f64::NAN; len];
                        t.fill_row_u53(rng, lo, span, &mut own);
                        for (k, &want) in own.iter().enumerate() {
                            assert_eq!(
                                row[4 * k + l].to_bits(),
                                want.to_bits(),
                                "{name}: lane {l}, element {k} of {len}, row {pass}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tail_locator_matches_the_plain_walk_at_every_cell_edge() {
        let first_distance =
            |cell: u64| f64::from_bits((TAIL_KEY_BASE + cell) << (52 - TAIL_SUB_BITS));
        let two53 = (1u64 << 53) as f64;
        for (name, t) in shapes() {
            let check = |u: f64| {
                assert_eq!(
                    t.quantile_tail(u).to_bits(),
                    t.full.eval(u).to_bits(),
                    "{name}: u = {u:e}"
                );
            };
            for cell in 0..=TAIL_CELLS as u64 {
                let d = first_distance(cell);
                for u in [d, d.next_down(), d.next_up()] {
                    check(u);
                    check(1.0 - u);
                    check((1.0 - u).next_down());
                    check((1.0 - u).next_up());
                }
                // The 53-bit draws on both sides of the edge, in both tails.
                let b = (d * two53).floor() as u64;
                for b in [b.saturating_sub(1), b, b + 1] {
                    for b in [b, (1u64 << 53) - b] {
                        if b < 1 << 53 {
                            let u = b as f64 / two53;
                            check(u);
                            assert_eq!(t.quantile_u53(b).to_bits(), t.full.eval(u).to_bits());
                        }
                    }
                }
            }
            for u in [0.0, -0.0, -1.0, 5e-324, 1e-300, 0.5, 1.0, 2.0, f64::NAN] {
                check(u);
            }
        }
    }

    #[test]
    fn sampling_moments_match_distribution() {
        let b = Beta::paper_default();
        let t = QuantileTable::with_default_resolution(&b);
        let mut rng = StdRng::seed_from_u64(97);
        let n = 200_000;
        let xs: Vec<f64> = (0..n)
            .map(|_| t.quantile_u53(rng.next_u64() >> 11))
            .collect();
        let m = xs.iter().sum::<f64>() / n as f64;
        let v = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n as f64;
        assert!((m - b.mean()).abs() < 0.003, "mean {m}");
        assert!((v - b.variance()).abs() < 0.002, "var {v}");
    }

    #[test]
    fn scaled_row_fills_stay_in_support() {
        let b = Beta::paper_default();
        let t = QuantileTable::with_default_resolution(&b);
        let mut rng = StdRng::seed_from_u64(101);
        let mut row = vec![0.0; 1000];
        t.fill_row_u53(&mut rng, 20.0, 2.0, &mut row);
        assert!(row.iter().all(|x| (20.0..=22.0).contains(x)));
    }

    #[test]
    fn normal_table_round_trip() {
        let d = Normal::new(0.0, 1.0);
        let t = QuantileTable::with_default_resolution(&d);
        // Error budget at u = 0.975: h⁴/384·|Q⁗| ≈ 7e-10 at the default
        // bulk resolution.
        assert!((t.quantile(0.975) - 1.959_963_985).abs() < 5e-9);
        assert!((t.quantile(0.5)).abs() < 1e-10);
    }

    #[test]
    fn clamps_out_of_range_u() {
        let b = Beta::paper_default();
        let t = QuantileTable::new(&b, 129);
        assert_eq!(t.quantile(-0.5), t.quantile(0.0));
        assert_eq!(t.quantile(1.5), t.quantile(1.0));
    }

    #[test]
    fn degenerate_support_is_constant() {
        let d = crate::dirac::Dirac::new(3.0);
        let t = QuantileTable::new(&d, 17);
        for u in [0.0, 0.25, 1.0] {
            assert_eq!(t.quantile(u), 3.0);
        }
    }
}
