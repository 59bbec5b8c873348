//! The continuous-distribution trait.
//!
//! Every duration model in the workspace (task runtimes, communication
//! delays, the CLT counter-example distribution) implements [`Dist`]: an
//! absolutely continuous distribution over an *effectively finite* support.
//! Finite support is what makes the sampled-grid calculus of
//! [`crate::discrete::DiscreteRv`] well-posed; unbounded distributions
//! (Normal) truncate at a negligible tail mass and document it.

use rand::RngCore;

/// A continuous probability distribution over a finite support.
///
/// Object-safe, so the discretization and the quantile tables take any
/// family as `&dyn Dist`. A `Dist` is not a sampler: every duration draw
/// goes through the [`crate::QuantileTable`] of a base shape (see the
/// crate docs).
pub trait Dist: Send + Sync + std::fmt::Debug {
    /// Probability density at `x` (0 outside the support).
    fn pdf(&self, x: f64) -> f64;

    /// Cumulative distribution `P(X ≤ x)`.
    fn cdf(&self, x: f64) -> f64;

    /// Expected value.
    fn mean(&self) -> f64;

    /// Variance.
    fn variance(&self) -> f64;

    /// The (effective) support `[lo, hi]`, with `lo ≤ hi` finite.
    fn support(&self) -> (f64, f64);

    /// Standard deviation (derived).
    fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Quantile via bisection on the CDF over the support (derived).
    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        let (lo, hi) = self.support();
        if lo == hi {
            return lo;
        }
        if p <= 0.0 {
            return lo;
        }
        if p >= 1.0 {
            return hi;
        }
        let f = |x: f64| self.cdf(x) - p;
        // The CDF may be flat at the support edges; expand the bracket
        // slightly so signs differ.
        robusched_numeric::roots::bisect(f, lo, hi, 1e-12 * (hi - lo).max(1.0))
    }
}

/// The one 53-bit uniform conversion: the top 53 bits of a 64-bit
/// random word (the mantissa width of f64) scaled into `[0, 1)`. It
/// takes the word rather than a generator so that every generator's
/// draws go through it, `SplitMix64` (no `RngCore`) included.
#[inline]
pub fn uniform01_word(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Uniform deviate in the *open* interval `(0, 1)` — never exactly 0 or 1,
/// which keeps `ln(u)` and quantile transforms finite.
#[inline]
fn uniform01_open(rng: &mut dyn RngCore) -> f64 {
    loop {
        let u = uniform01_word(rng.next_u64());
        if u > 0.0 {
            return u;
        }
    }
}

/// One standard-normal deviate by the Marsaglia polar method.
///
/// Polar rather than Box–Muller avoids the trig calls; the rejection rate is
/// ~21%. The pair's second deviate is discarded for statelessness; only
/// [`sample_gamma_mean_cv`] reaches it, from the scenario generators' cost
/// draws.
fn sample_standard_normal(rng: &mut dyn RngCore) -> f64 {
    loop {
        let u = 2.0 * uniform01_word(rng.next_u64()) - 1.0;
        let v = 2.0 * uniform01_word(rng.next_u64()) - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// One Gamma(shape `a`, scale 1) deviate by Marsaglia–Tsang (2000), with the
/// standard `U^{1/a}` boost for `a < 1`.
fn sample_standard_gamma(rng: &mut dyn RngCore, a: f64) -> f64 {
    assert!(a > 0.0, "gamma shape must be positive");
    if a < 1.0 {
        // Boost: Gamma(a) = Gamma(a+1) · U^{1/a}.
        let u = uniform01_open(rng);
        return sample_standard_gamma(rng, a + 1.0) * u.powf(1.0 / a);
    }
    let d = a - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = sample_standard_normal(rng);
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v = v * v * v;
        let u = uniform01_open(rng);
        let x2 = x * x;
        if u < 1.0 - 0.0331 * x2 * x2 {
            return d * v;
        }
        if u.ln() < 0.5 * x2 + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

/// One Gamma deviate in the `(mean, coefficient of variation)`
/// parameterization used throughout the workspace (Ali et al.'s CV method,
/// the weight jitter of the structured-application generators, the
/// machine-speed vectors): shape `1/cv²`, scale `mean·cv²`. Callers apply
/// their own floors where a near-zero draw would be pathological.
pub fn sample_gamma_mean_cv(rng: &mut dyn RngCore, mean: f64, cv: f64) -> f64 {
    assert!(cv > 0.0, "coefficient of variation must be positive");
    let shape = 1.0 / (cv * cv);
    let scale = mean * cv * cv;
    sample_standard_gamma(rng, shape) * scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mean_var(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let m = samples.iter().sum::<f64>() / n;
        let v = samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n;
        (m, v)
    }

    #[test]
    fn uniform01_word_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let u = uniform01_word(rng.next_u64());
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform01_word_mean_close_to_half() {
        let mut rng = StdRng::seed_from_u64(2);
        let xs: Vec<f64> = (0..50_000)
            .map(|_| uniform01_word(rng.next_u64()))
            .collect();
        let (m, v) = mean_var(&xs);
        assert!((m - 0.5).abs() < 0.01, "mean {m}");
        assert!((v - 1.0 / 12.0).abs() < 0.01, "var {v}");
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(3);
        let xs: Vec<f64> = (0..100_000)
            .map(|_| sample_standard_normal(&mut rng))
            .collect();
        let (m, v) = mean_var(&xs);
        assert!(m.abs() < 0.02, "mean {m}");
        assert!((v - 1.0).abs() < 0.03, "var {v}");
    }

    #[test]
    fn standard_gamma_moments_large_shape() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = 4.0;
        let xs: Vec<f64> = (0..100_000)
            .map(|_| sample_standard_gamma(&mut rng, a))
            .collect();
        let (m, v) = mean_var(&xs);
        assert!((m - a).abs() < 0.05, "mean {m}");
        assert!((v - a).abs() < 0.2, "var {v}");
    }

    #[test]
    fn standard_gamma_moments_small_shape() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = 0.5;
        let xs: Vec<f64> = (0..100_000)
            .map(|_| sample_standard_gamma(&mut rng, a))
            .collect();
        let (m, v) = mean_var(&xs);
        assert!((m - a).abs() < 0.02, "mean {m}");
        assert!((v - a).abs() < 0.05, "var {v}");
    }

    #[test]
    #[should_panic(expected = "shape must be positive")]
    fn gamma_rejects_zero_shape() {
        let mut rng = StdRng::seed_from_u64(6);
        sample_standard_gamma(&mut rng, 0.0);
    }
}
