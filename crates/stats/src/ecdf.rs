//! Empirical cumulative distribution functions.
//!
//! Fig. 1 of the paper validates the analytic makespan distribution against
//! "the real CDF of the makespan computed by running 100 000 realizations",
//! using two distances: Kolmogorov–Smirnov (max gap) and a Cramér–von-Mises
//! variant "that measures the distance in terms of area". [`Ecdf`] holds
//! the sorted samples and computes both distances against any analytic CDF.

/// An empirical CDF over a sorted sample.
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the ECDF (copies and sorts the samples).
    ///
    /// # Panics
    /// Panics on an empty or non-finite sample.
    pub fn new(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "empty sample");
        assert!(
            samples.iter().all(|x| x.is_finite()),
            "samples must be finite"
        );
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Self { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` if empty (never, by construction — kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The sorted sample.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// `F̂(x)` — fraction of samples `≤ x`.
    pub fn eval(&self, x: f64) -> f64 {
        let k = self.sorted.partition_point(|&s| s <= x);
        k as f64 / self.sorted.len() as f64
    }

    /// Sample minimum.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Sample maximum.
    pub fn max(&self) -> f64 {
        *self.sorted.last().unwrap()
    }

    /// Kolmogorov–Smirnov distance `sup_x |F̂(x) − F(x)|` against an
    /// analytic CDF, evaluated exactly at the jump points (the supremum of
    /// the difference with a càdlàg step function is attained there).
    pub fn ks_distance<F: Fn(f64) -> f64>(&self, cdf: F) -> f64 {
        let n = self.sorted.len() as f64;
        let mut d = 0.0f64;
        for (i, &x) in self.sorted.iter().enumerate() {
            let f = cdf(x);
            let hi = (i + 1) as f64 / n - f; // after the jump
            let lo = f - i as f64 / n; // before the jump
            d = d.max(hi.abs()).max(lo.abs());
        }
        d
    }

    /// The paper's area distance `∫ |F̂ − F| dx` over `[min, max]` of the
    /// sample (plus nothing outside: both CDFs are 0/1 beyond the union of
    /// supports up to the analytic tail, which the caller's support covers).
    /// Evaluated by exact integration over the step intervals with the
    /// analytic CDF sampled at interval midpoints (second-order accurate).
    pub fn area_distance<F: Fn(f64) -> f64>(&self, cdf: F) -> f64 {
        let n = self.sorted.len() as f64;
        let mut acc = 0.0f64;
        for w in self.sorted.windows(2) {
            let (a, b) = (w[0], w[1]);
            if b <= a {
                continue;
            }
            let i = self.sorted.partition_point(|&s| s <= a) as f64;
            let fhat = i / n;
            let mid = 0.5 * (a + b);
            acc += (b - a) * (fhat - cdf(mid)).abs();
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_step_function() {
        let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.5), 0.5);
        assert_eq!(e.eval(4.0), 1.0);
        assert_eq!(e.eval(9.0), 1.0);
        assert_eq!(e.len(), 4);
        assert_eq!(e.min(), 1.0);
        assert_eq!(e.max(), 4.0);
    }

    #[test]
    fn ks_against_exact_uniform() {
        // Samples at the uniform quantile midpoints minimize KS = 1/(2n).
        let n = 100;
        let samples: Vec<f64> = (0..n).map(|i| (i as f64 + 0.5) / n as f64).collect();
        let e = Ecdf::new(&samples);
        let d = e.ks_distance(|x| x.clamp(0.0, 1.0));
        assert!((d - 0.5 / n as f64).abs() < 1e-12, "d = {d}");
    }

    #[test]
    fn ks_detects_shift() {
        let samples: Vec<f64> = (0..1000).map(|i| i as f64 / 1000.0).collect();
        let e = Ecdf::new(&samples);
        // Against a uniform shifted by 0.3 the KS distance is ≈ 0.3.
        let d = e.ks_distance(|x| (x - 0.3).clamp(0.0, 1.0));
        assert!((d - 0.3).abs() < 0.01, "d = {d}");
    }

    #[test]
    fn area_distance_of_shift() {
        let samples: Vec<f64> = (0..2000).map(|i| (i as f64 + 0.5) / 2000.0).collect();
        let e = Ecdf::new(&samples);
        let d = e.area_distance(|x| (x - 0.25).clamp(0.0, 1.0));
        // ∫|F̂ − F| over [0,1] for a 0.25 shift ≈ 0.25 − edge effects
        // (the integral only covers [min, max] of the sample and both CDFs
        // pinch together near 1).
        assert!((0.18..=0.25).contains(&d), "d = {d}");
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_rejected() {
        Ecdf::new(&[]);
    }
}
