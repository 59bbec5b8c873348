//! The unrelated-machine cost matrix.
//!
//! §II: "for each task, the minimum duration on each processor is given by
//! a matrix of n rows and m columns". Two builders match the paper's two
//! workload families:
//!
//! * [`CostMatrix::cv_method`] — the coefficient-of-variation gamma method
//!   of Ali et al. \[2\]: task `i`'s durations across machines are Gamma with
//!   mean `task_work[i]` and CV `V_mach` (the paper uses
//!   `V_task = V_mach = 0.5`). This yields a *low degree of unrelatedness*,
//!   which the paper notes makes the heuristics "excellent and consistent".
//! * [`CostMatrix::uniform_range_method`] — the real-application scheme:
//!   "the computation time of each task on each processor is chosen
//!   uniformly in the interval [minVal; 2 × minVal], where minVal is the
//!   minimum processing time and is chosen randomly".

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use robusched_randvar::dist::sample_gamma_mean_cv;

/// Per-machine relative speeds with a tunable coefficient of variation:
/// `m` Gamma draws with mean 1 and CV `cov` (clamped away from zero so no
/// machine becomes infinitely slow). `cov = 0` yields the homogeneous
/// vector of ones; larger values give increasingly heterogeneous but
/// *consistent* platforms — machine `j` is uniformly fast or slow across
/// all tasks, the model the structured-application (`ext-apps`) scenarios
/// use instead of the fully unrelated per-entry draws.
pub fn machine_speeds(m: usize, cov: f64, seed: u64) -> Vec<f64> {
    assert!(m >= 1, "need at least one machine");
    assert!(cov >= 0.0 && cov.is_finite(), "speed CoV must be ≥ 0");
    if cov == 0.0 {
        return vec![1.0; m];
    }
    let mut rng = StdRng::seed_from_u64(seed);
    (0..m)
        .map(|_| sample_gamma_mean_cv(&mut rng, 1.0, cov).max(0.05))
        .collect()
}

/// Row-major `n × m` matrix of minimum task durations.
#[derive(Debug, Clone)]
pub struct CostMatrix {
    n: usize,
    m: usize,
    w: Vec<f64>,
}

impl CostMatrix {
    /// Builds from an explicit row-major matrix.
    ///
    /// # Panics
    /// Panics on size mismatch or non-positive/non-finite entries.
    pub fn from_rows(n: usize, m: usize, w: Vec<f64>) -> Self {
        assert_eq!(w.len(), n * m, "matrix must be n×m");
        assert!(
            w.iter().all(|x| x.is_finite() && *x > 0.0),
            "durations must be positive and finite"
        );
        Self { n, m, w }
    }

    /// Ali et al.'s CV method: `w(i, j) ~ Gamma(mean = task_work[i],
    /// cv = v_mach)` independently per machine.
    pub fn cv_method(task_work: &[f64], m: usize, v_mach: f64, seed: u64) -> Self {
        assert!(m >= 1);
        assert!(v_mach > 0.0, "machine CV must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let n = task_work.len();
        let mut w = Vec::with_capacity(n * m);
        for &work in task_work {
            assert!(work > 0.0, "task work must be positive for the CV method");
            for _ in 0..m {
                // Guard against pathological near-zero draws that would make
                // a task free on some machine.
                let d = sample_gamma_mean_cv(&mut rng, work, v_mach).max(work * 1e-3);
                w.push(d);
            }
        }
        Self { n, m, w }
    }

    /// The real-application scheme: per task, `minVal` is drawn uniformly
    /// from `[min_lo, min_hi]` (scaled by the task's structural work so that
    /// bigger tasks stay bigger), then each machine's duration is uniform in
    /// `[minVal, 2·minVal]`.
    pub fn uniform_range_method(
        task_work: &[f64],
        m: usize,
        min_lo: f64,
        min_hi: f64,
        seed: u64,
    ) -> Self {
        assert!(m >= 1);
        assert!(0.0 < min_lo && min_lo <= min_hi, "bad minVal range");
        let mut rng = StdRng::seed_from_u64(seed);
        let n = task_work.len();
        let mut w = Vec::with_capacity(n * m);
        for &work in task_work {
            let unit = if work > 0.0 { work } else { 1.0 };
            let min_val = unit * rng.gen_range(min_lo..=min_hi);
            for _ in 0..m {
                w.push(rng.gen_range(min_val..=2.0 * min_val));
            }
        }
        Self { n, m, w }
    }

    /// The related-machines (consistent-heterogeneity) method:
    /// `w(i, j) = task_work[i] / speeds[j]`, optionally blurred by a
    /// per-entry Gamma noise factor (mean 1, CV `noise_cv`) that reintroduces
    /// a controlled degree of unrelatedness. With `noise_cv = 0` the matrix
    /// is exactly rank-one in `(work, 1/speed)` — a *consistent* platform in
    /// the Braun et al. taxonomy — which is what structured-application
    /// tasks expect: a fast machine is fast for every kernel.
    pub fn related_method(task_work: &[f64], speeds: &[f64], noise_cv: f64, seed: u64) -> Self {
        let m = speeds.len();
        assert!(m >= 1, "need at least one machine");
        assert!(
            speeds.iter().all(|s| s.is_finite() && *s > 0.0),
            "machine speeds must be positive and finite"
        );
        assert!(
            noise_cv >= 0.0 && noise_cv.is_finite(),
            "noise CV must be ≥ 0"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let n = task_work.len();
        let mut w = Vec::with_capacity(n * m);
        for &work in task_work {
            assert!(work > 0.0, "task work must be positive");
            for &s in speeds {
                let noise = if noise_cv == 0.0 {
                    1.0
                } else {
                    sample_gamma_mean_cv(&mut rng, 1.0, noise_cv).max(0.05)
                };
                w.push(work / s * noise);
            }
        }
        Self { n, m, w }
    }

    /// Number of tasks (rows).
    pub fn task_count(&self) -> usize {
        self.n
    }

    /// Number of machines (columns).
    pub fn machine_count(&self) -> usize {
        self.m
    }

    /// Minimum duration of task `i` on machine `j`.
    #[inline]
    pub fn cost(&self, i: usize, j: usize) -> f64 {
        self.w[i * self.m + j]
    }

    /// The row-major `n × m` matrix of [`cost`](Self::cost).
    pub fn as_slice(&self) -> &[f64] {
        &self.w
    }

    /// Mean duration of task `i` across machines (rank functions).
    pub fn mean_cost(&self, i: usize) -> f64 {
        let row = &self.w[i * self.m..(i + 1) * self.m];
        row.iter().sum::<f64>() / self.m as f64
    }

    /// Machine minimizing task `i`'s duration.
    pub fn fastest_machine(&self, i: usize) -> usize {
        let row = &self.w[i * self.m..(i + 1) * self.m];
        row.iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(j, _)| j)
            .unwrap()
    }

    /// The minimum duration of task `i` over all machines.
    pub fn min_cost(&self, i: usize) -> f64 {
        let row = &self.w[i * self.m..(i + 1) * self.m];
        row.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_matrix_accessors() {
        let c = CostMatrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 6.0, 5.0, 4.0]);
        assert_eq!(c.cost(0, 0), 1.0);
        assert_eq!(c.cost(1, 2), 4.0);
        assert_eq!(c.mean_cost(0), 2.0);
        assert_eq!(c.fastest_machine(1), 2);
        assert_eq!(c.min_cost(1), 4.0);
    }

    #[test]
    fn cv_method_statistics() {
        let work = vec![20.0; 500];
        let c = CostMatrix::cv_method(&work, 8, 0.5, 11);
        let all: Vec<f64> = (0..500)
            .flat_map(|i| (0..8).map(move |j| (i, j)))
            .map(|(i, j)| c.cost(i, j))
            .collect();
        let mean = all.iter().sum::<f64>() / all.len() as f64;
        assert!((mean - 20.0).abs() < 0.5, "mean {mean}");
        let var = all.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / all.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 0.5).abs() < 0.05, "cv {cv}");
    }

    #[test]
    fn cv_method_deterministic() {
        let work = vec![10.0, 20.0];
        let a = CostMatrix::cv_method(&work, 4, 0.5, 3);
        let b = CostMatrix::cv_method(&work, 4, 0.5, 3);
        for i in 0..2 {
            for j in 0..4 {
                assert_eq!(a.cost(i, j), b.cost(i, j));
            }
        }
    }

    #[test]
    fn uniform_range_respects_bounds() {
        let work = vec![1.0; 50];
        let c = CostMatrix::uniform_range_method(&work, 4, 10.0, 30.0, 7);
        for i in 0..50 {
            let min = c.min_cost(i);
            for j in 0..4 {
                let w = c.cost(i, j);
                assert!(w >= min && w <= 2.0 * min * (1.0 + 1e-12) * 2.0);
                // All entries within a factor 2 of the row minimum... loose
                // but the defining property:
                assert!(w / min <= 2.0 + 1e-9, "ratio {}", w / min);
            }
        }
    }

    #[test]
    fn uniform_range_scales_with_work() {
        let work = vec![1.0, 100.0];
        let c = CostMatrix::uniform_range_method(&work, 4, 10.0, 30.0, 13);
        assert!(c.mean_cost(1) > c.mean_cost(0) * 10.0);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn rejects_zero_cost() {
        CostMatrix::from_rows(1, 2, vec![0.0, 1.0]);
    }

    #[test]
    fn machine_speeds_statistics() {
        let s = machine_speeds(2000, 0.5, 17);
        assert_eq!(s.len(), 2000);
        assert!(s.iter().all(|x| *x >= 0.05));
        let mean = s.iter().sum::<f64>() / s.len() as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean speed {mean}");
        let var = s.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / s.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 0.5).abs() < 0.05, "speed cv {cv}");
        // Degenerate CoV: homogeneous ones.
        assert_eq!(machine_speeds(4, 0.0, 3), vec![1.0; 4]);
        // Deterministic in the seed.
        assert_eq!(machine_speeds(8, 0.3, 9), machine_speeds(8, 0.3, 9));
    }

    #[test]
    fn related_method_is_consistent_without_noise() {
        let work = vec![3.0, 7.0, 11.0];
        let speeds = vec![1.0, 2.0, 0.5];
        let c = CostMatrix::related_method(&work, &speeds, 0.0, 1);
        for (i, &wk) in work.iter().enumerate() {
            for (j, &s) in speeds.iter().enumerate() {
                assert!((c.cost(i, j) - wk / s).abs() < 1e-12);
            }
        }
        // Consistency: machine orderings agree across every task.
        for i in 0..3 {
            assert_eq!(c.fastest_machine(i), 1);
        }
    }

    #[test]
    fn related_method_noise_stays_near_consistent() {
        let work = vec![10.0; 300];
        let speeds = vec![1.0, 4.0];
        let c = CostMatrix::related_method(&work, &speeds, 0.1, 5);
        // The 4× speed gap dominates the 10 % noise: the fast machine wins
        // on (essentially) every row.
        let fast_wins = (0..300).filter(|&i| c.fastest_machine(i) == 1).count();
        assert!(fast_wins >= 295, "fast machine won only {fast_wins}/300");
        // Noise is mean-1: column means track work/speed.
        let col0 = (0..300).map(|i| c.cost(i, 0)).sum::<f64>() / 300.0;
        assert!((col0 - 10.0).abs() < 0.5, "col0 mean {col0}");
    }
}
