//! Streaming accumulators for correlation studies.
//!
//! The buffered pipeline materializes every schedule's metric vector and
//! computes two-pass Pearson/Spearman matrices at the end — `O(n·k)`
//! memory for `n` schedules and `k` metrics, which caps sweeps near the
//! paper's 10 000 schedules. The engine in [`crate::study`] instead feeds
//! each metric vector, **in sampling order**, into two fixed-size
//! accumulators and drops it:
//!
//! * [`StreamingMoments`] — a Welford-style co-moment matrix. After `n`
//!   updates it holds the exact (up to floating point) sums
//!   `C_ij = Σ (x_i − x̄_i)(x_j − x̄_j)`, from which Pearson is
//!   `r_ij = C_ij / √(C_ii·C_jj)`. `O(k²)` memory, one pass, numerically
//!   stable (no catastrophic cancellation of raw moment sums).
//! * [`RankReservoir`] — a deterministic Algorithm-R reservoir of whole
//!   metric rows. Spearman needs global ranks, which no `O(k²)` sketch
//!   provides exactly; the reservoir bounds memory at `O(cap·k)` and is
//!   *exact* whenever `n ≤ cap` (the default capacity, 4096, covers every
//!   paper-scale case) and an unbiased sample estimate beyond.
//!
//! Both are deterministic functions of the delivered stream: the study
//! engine delivers chunks in index order regardless of worker scheduling,
//! so any thread count produces bit-identical accumulator states.

use robusched_randvar::SplitMix64;
use robusched_stats::{spearman, CorrMatrix};

/// One-pass mean/co-moment accumulator over fixed-width rows (Welford's
/// algorithm, multivariate form), mergeable via Chan's parallel update.
#[derive(Debug, Clone)]
pub struct StreamingMoments {
    k: usize,
    count: usize,
    mean: Vec<f64>,
    /// Upper-triangular (row-major, including diagonal) co-moment sums
    /// `C_ij = Σ (x_i − x̄_i)(x_j − x̄_j)`.
    comoment: Vec<f64>,
}

impl StreamingMoments {
    /// An empty accumulator over `k`-column rows.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "need at least one column");
        Self {
            k,
            count: 0,
            mean: vec![0.0; k],
            comoment: vec![0.0; k * (k + 1) / 2],
        }
    }

    /// Number of columns.
    pub fn columns(&self) -> usize {
        self.k
    }

    /// Number of rows absorbed.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Index of `(i, j)` with `i ≤ j` in the packed upper triangle.
    #[inline]
    fn tri(&self, i: usize, j: usize) -> usize {
        debug_assert!(i <= j && j < self.k);
        i * self.k - i * (i + 1) / 2 + j
    }

    /// Absorbs one row.
    ///
    /// # Panics
    /// Panics if `row.len() != k`.
    pub fn push(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.k, "row width mismatch");
        self.count += 1;
        let n = self.count as f64;
        // delta_pre = x − mean_old, delta_post = x − mean_new; the co-moment
        // update C_ij += delta_pre_i · delta_post_j is Welford's.
        let mut delta_pre = vec![0.0; self.k];
        for ((d, m), &x) in delta_pre.iter_mut().zip(self.mean.iter_mut()).zip(row) {
            *d = x - *m;
            *m += *d / n;
        }
        for (i, &dpre) in delta_pre.iter().enumerate() {
            let base = self.tri(i, i);
            for (off, (&x, &mean)) in row[i..].iter().zip(&self.mean[i..]).enumerate() {
                self.comoment[base + off] += dpre * (x - mean);
            }
        }
    }

    /// Merges another accumulator (Chan et al.'s pairwise update). The
    /// result equals absorbing the other stream after this one, up to
    /// floating-point rounding.
    ///
    /// # Panics
    /// Panics on column-count mismatch.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.k, other.k, "column count mismatch");
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let na = self.count as f64;
        let nb = other.count as f64;
        let n = na + nb;
        let delta: Vec<f64> = self
            .mean
            .iter()
            .zip(&other.mean)
            .map(|(a, b)| b - a)
            .collect();
        for (i, &di) in delta.iter().enumerate() {
            let base = self.tri(i, i);
            for (off, &dj) in delta[i..].iter().enumerate() {
                let idx = base + off;
                self.comoment[idx] += other.comoment[idx] + di * dj * na * nb / n;
            }
        }
        for (m, &d) in self.mean.iter_mut().zip(&delta) {
            *m += d * nb / n;
        }
        self.count += other.count;
    }

    /// Mean of column `i`.
    pub fn mean(&self, i: usize) -> f64 {
        self.mean[i]
    }

    /// Sample covariance of columns `(i, j)` (denominator `n − 1`).
    pub fn covariance(&self, i: usize, j: usize) -> f64 {
        assert!(self.count >= 2, "need at least two rows");
        let (a, b) = if i <= j { (i, j) } else { (j, i) };
        self.comoment[self.tri(a, b)] / (self.count as f64 - 1.0)
    }

    /// Pearson correlation of columns `(i, j)`, with the same conventions
    /// as [`robusched_stats::pearson`]: 0 for degenerate columns, clamped
    /// to `[-1, 1]`.
    pub fn pearson(&self, i: usize, j: usize) -> f64 {
        assert!(self.count >= 2, "need at least two rows");
        if i == j {
            return 1.0;
        }
        let (a, b) = if i <= j { (i, j) } else { (j, i) };
        let cij = self.comoment[self.tri(a, b)];
        let cii = self.comoment[self.tri(a, a)];
        let cjj = self.comoment[self.tri(b, b)];
        if cii <= 0.0 || cjj <= 0.0 {
            return 0.0;
        }
        (cij / (cii.sqrt() * cjj.sqrt())).clamp(-1.0, 1.0)
    }

    /// The full Pearson matrix under the given labels.
    ///
    /// # Panics
    /// Panics if `labels.len() != k` or fewer than two rows were absorbed.
    pub fn pearson_matrix(&self, labels: &[&str]) -> CorrMatrix {
        assert_eq!(labels.len(), self.k, "label count mismatch");
        CorrMatrix::from_pairwise(labels, |i, j| self.pearson(i, j))
    }
}

/// A deterministic uniform reservoir of whole metric rows (Vitter's
/// Algorithm R with a [`SplitMix64`] stream), used for streamed Spearman
/// matrices.
///
/// Exact (holds the entire stream) while `n ≤ capacity`; beyond that every
/// prefix row has the uniform `capacity/n` retention probability. The
/// replacement choices depend only on `(seed, arrival index)`, never on
/// thread scheduling.
#[derive(Debug, Clone)]
pub struct RankReservoir {
    k: usize,
    capacity: usize,
    seen: usize,
    rng: SplitMix64,
    rows: Vec<Vec<f64>>,
}

impl RankReservoir {
    /// An empty reservoir of `capacity` rows of width `k`.
    pub fn new(k: usize, capacity: usize, seed: u64) -> Self {
        assert!(k > 0, "need at least one column");
        assert!(capacity >= 2, "capacity must be at least 2");
        Self {
            k,
            capacity,
            seen: 0,
            rng: SplitMix64::new(seed),
            rows: Vec::new(),
        }
    }

    /// Rows offered so far.
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// Rows currently held (`min(seen, capacity)`).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the reservoir is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Whether the reservoir still holds the entire stream (Spearman from
    /// it is then exact, not a sample estimate).
    pub fn is_exact(&self) -> bool {
        self.seen <= self.capacity
    }

    /// Offers one row.
    ///
    /// # Panics
    /// Panics if `row.len() != k`.
    pub fn push(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.k, "row width mismatch");
        self.seen += 1;
        if self.rows.len() < self.capacity {
            self.rows.push(row.to_vec());
            return;
        }
        // Replace a uniform slot with probability capacity/seen: draw
        // j ∈ [0, seen) and keep the row iff j < capacity. The draw uses
        // rejection-free modulo on 64-bit output; the bias (< 2⁻⁴⁰ for
        // realistic stream lengths) is far below sampling noise.
        let j = (self.rng.next_u64() % self.seen as u64) as usize;
        if j < self.capacity {
            self.rows[j] = row.to_vec();
        }
    }

    /// The retained rows, in slot order.
    pub fn rows(&self) -> &[Vec<f64>] {
        &self.rows
    }

    /// The Spearman rank-correlation matrix over the retained rows.
    ///
    /// # Panics
    /// Panics if `labels.len() != k` or fewer than two rows are held.
    pub fn spearman_matrix(&self, labels: &[&str]) -> CorrMatrix {
        assert_eq!(labels.len(), self.k, "label count mismatch");
        assert!(self.rows.len() >= 2, "need at least two rows");
        let columns = columns(self.rows.iter(), self.k);
        CorrMatrix::from_pairwise(labels, |i, j| spearman(&columns[i], &columns[j]))
    }
}

/// The `k` columns of `rows`, each row `k` values wide.
pub(crate) fn columns<R: AsRef<[f64]>>(
    rows: impl ExactSizeIterator<Item = R>,
    k: usize,
) -> Vec<Vec<f64>> {
    let mut columns = vec![Vec::with_capacity(rows.len()); k];
    for row in rows {
        for (column, &v) in columns.iter_mut().zip(row.as_ref()) {
            column.push(v);
        }
    }
    columns
}

#[cfg(test)]
mod tests {
    use super::*;
    use robusched_stats::pearson;

    /// A deterministic pseudo-random row stream.
    fn stream(n: usize, k: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut sm = SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                (0..k)
                    .map(|_| (sm.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
                    .collect()
            })
            .collect()
    }

    fn column(rows: &[Vec<f64>], c: usize) -> Vec<f64> {
        rows.iter().map(|r| r[c]).collect()
    }

    #[test]
    fn welford_matches_two_pass_pearson() {
        let rows = stream(500, 4, 7);
        let mut acc = StreamingMoments::new(4);
        for r in &rows {
            acc.push(r);
        }
        assert_eq!(acc.count(), 500);
        for i in 0..4 {
            for j in 0..4 {
                let expect = if i == j {
                    1.0
                } else {
                    pearson(&column(&rows, i), &column(&rows, j))
                };
                assert!(
                    (acc.pearson(i, j) - expect).abs() < 1e-13,
                    "({i},{j}): {} vs {expect}",
                    acc.pearson(i, j)
                );
            }
        }
    }

    #[test]
    fn welford_mean_and_covariance() {
        // Rows with known moments: x = [1..=4], y = 2x (cov = var(x)·2).
        let mut acc = StreamingMoments::new(2);
        for x in 1..=4 {
            acc.push(&[x as f64, 2.0 * x as f64]);
        }
        assert!((acc.mean(0) - 2.5).abs() < 1e-15);
        assert!((acc.mean(1) - 5.0).abs() < 1e-15);
        // Sample variance of 1..4 is 5/3.
        assert!((acc.covariance(0, 0) - 5.0 / 3.0).abs() < 1e-12);
        assert!((acc.covariance(0, 1) - 10.0 / 3.0).abs() < 1e-12);
        assert!((acc.pearson(0, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let rows = stream(300, 3, 11);
        let mut whole = StreamingMoments::new(3);
        for r in &rows {
            whole.push(r);
        }
        let mut a = StreamingMoments::new(3);
        let mut b = StreamingMoments::new(3);
        for r in &rows[..117] {
            a.push(r);
        }
        for r in &rows[117..] {
            b.push(r);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        for i in 0..3 {
            assert!((a.mean(i) - whole.mean(i)).abs() < 1e-12);
            for j in 0..3 {
                assert!((a.pearson(i, j) - whole.pearson(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let rows = stream(50, 2, 3);
        let mut acc = StreamingMoments::new(2);
        for r in &rows {
            acc.push(r);
        }
        let before = acc.pearson(0, 1);
        acc.merge(&StreamingMoments::new(2));
        assert_eq!(acc.pearson(0, 1), before);
        let mut empty = StreamingMoments::new(2);
        empty.merge(&acc);
        assert_eq!(empty.count(), acc.count());
        assert_eq!(empty.pearson(0, 1), before);
    }

    #[test]
    fn degenerate_column_pearson_is_zero() {
        let mut acc = StreamingMoments::new(2);
        for x in 0..10 {
            acc.push(&[5.0, x as f64]);
        }
        assert_eq!(acc.pearson(0, 1), 0.0);
    }

    #[test]
    fn reservoir_exact_below_capacity() {
        let rows = stream(200, 3, 5);
        let mut res = RankReservoir::new(3, 256, 1);
        for r in &rows {
            res.push(r);
        }
        assert!(res.is_exact());
        assert_eq!(res.len(), 200);
        // Holding the whole stream in order ⇒ Spearman matches the
        // buffered computation exactly.
        let m = res.spearman_matrix(&["a", "b", "c"]);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j {
                    1.0
                } else {
                    robusched_stats::spearman(&column(&rows, i), &column(&rows, j))
                };
                assert_eq!(m.get(i, j), expect);
            }
        }
    }

    #[test]
    fn reservoir_bounds_memory_and_samples_uniformly() {
        let rows = stream(10_000, 1, 9);
        let mut res = RankReservoir::new(1, 64, 2);
        for r in &rows {
            res.push(r);
        }
        assert_eq!(res.len(), 64);
        assert_eq!(res.seen(), 10_000);
        assert!(!res.is_exact());
        // The sample mean of U[0,1] rows should be near 1/2 (loose bound:
        // 4σ of a 64-sample mean is ≈ 0.144).
        let mean: f64 = res.rows().iter().map(|r| r[0]).sum::<f64>() / 64.0;
        assert!((mean - 0.5).abs() < 0.15, "sample mean {mean}");
    }

    #[test]
    fn reservoir_is_deterministic_in_seed() {
        let rows = stream(1_000, 2, 13);
        let run = |seed: u64| {
            let mut res = RankReservoir::new(2, 32, seed);
            for r in &rows {
                res.push(r);
            }
            res.rows().to_vec()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn reservoir_spearman_estimates_true_rank_correlation() {
        // Monotone pair ⇒ Spearman 1 even through sampling.
        let mut res = RankReservoir::new(2, 128, 4);
        let mut sm = SplitMix64::new(21);
        for _ in 0..5_000 {
            let x = (sm.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            res.push(&[x, x * x]);
        }
        let m = res.spearman_matrix(&["x", "x2"]);
        assert!((m.get(0, 1) - 1.0).abs() < 1e-12);
    }
}
