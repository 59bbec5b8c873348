//! Uniform grids.
//!
//! Discretized random variables live on uniform abscissa grids (the paper
//! samples every probability density with 64 points). This module keeps the
//! one tiny helper used everywhere.

/// `n` evenly spaced points covering `[lo, hi]` inclusively.
///
/// With `n == 1` the single point is `lo`. Points are computed as
/// `lo + i·(hi-lo)/(n-1)` from the endpoints each time (no running
/// accumulation), so the final point is exactly `hi`.
///
/// # Panics
/// Panics if `n == 0` or `hi < lo`.
pub fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n > 0, "linspace needs at least one point");
    assert!(hi >= lo, "inverted interval [{lo}, {hi}]");
    if n == 1 {
        return vec![lo];
    }
    let step = (hi - lo) / (n - 1) as f64;
    (0..n)
        .map(|i| if i == n - 1 { hi } else { lo + step * i as f64 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_exact() {
        let g = linspace(0.1, 0.9, 7);
        assert_eq!(g[0], 0.1);
        assert_eq!(*g.last().unwrap(), 0.9);
        assert_eq!(g.len(), 7);
    }

    #[test]
    fn single_point() {
        assert_eq!(linspace(2.0, 5.0, 1), vec![2.0]);
    }

    #[test]
    fn degenerate_interval() {
        let g = linspace(3.0, 3.0, 4);
        assert!(g.iter().all(|&x| x == 3.0));
    }

    #[test]
    fn uniform_spacing() {
        let g = linspace(-1.0, 1.0, 5);
        for w in g.windows(2) {
            assert!((w[1] - w[0] - 0.5).abs() < 1e-15);
        }
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn zero_points_panics() {
        linspace(0.0, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "inverted interval")]
    fn inverted_panics() {
        linspace(1.0, 0.0, 3);
    }
}
