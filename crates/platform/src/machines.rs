//! Machine set and network model.
//!
//! `τ[(p, q)]` is the time to ship one data element from machine `p` to
//! machine `q`; `L[(p, q)]` the latency of that link. Diagonals are zero by
//! construction (§II: "communications … between two tasks mapped on the
//! same processor … \[are\] negligible"). The paper's experiments set the
//! latency to zero outright ("the latency was not considered because its
//! influence was negligible"), which [`Platform::paper_default`] mirrors.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A set of `m` machines with per-pair communication parameters.
#[derive(Debug, Clone)]
pub struct Platform {
    m: usize,
    /// Row-major `m × m` per-element transfer times, zero diagonal.
    tau: Vec<f64>,
    /// Row-major `m × m` latencies, zero diagonal.
    lat: Vec<f64>,
    /// Mean off-diagonal `τ`, computed once (rank functions read it per
    /// edge).
    mean_tau: f64,
    /// Mean off-diagonal latency, computed once.
    mean_latency: f64,
}

impl Platform {
    /// Builds a platform from explicit matrices (row-major, `m × m`).
    ///
    /// # Panics
    /// Panics on size mismatch, negative/non-finite entries, or nonzero
    /// diagonals.
    pub fn from_matrices(m: usize, tau: Vec<f64>, lat: Vec<f64>) -> Self {
        assert!(m >= 1, "need at least one machine");
        assert_eq!(tau.len(), m * m, "τ must be m×m");
        assert_eq!(lat.len(), m * m, "L must be m×m");
        for p in 0..m {
            for q in 0..m {
                let t = tau[p * m + q];
                let l = lat[p * m + q];
                assert!(t.is_finite() && t >= 0.0, "τ[{p},{q}] invalid: {t}");
                assert!(l.is_finite() && l >= 0.0, "L[{p},{q}] invalid: {l}");
            }
            assert_eq!(tau[p * m + p], 0.0, "τ diagonal must be zero");
            assert_eq!(lat[p * m + p], 0.0, "L diagonal must be zero");
        }
        let mean_tau = off_diagonal_mean(m, &tau);
        let mean_latency = off_diagonal_mean(m, &lat);
        Self {
            m,
            tau,
            lat,
            mean_tau,
            mean_latency,
        }
    }

    /// Homogeneous network: every off-diagonal pair has the same `τ`/`L`.
    pub fn homogeneous(m: usize, tau: f64, lat: f64) -> Self {
        let mut t = vec![tau; m * m];
        let mut l = vec![lat; m * m];
        for p in 0..m {
            t[p * m + p] = 0.0;
            l[p * m + p] = 0.0;
        }
        Self::from_matrices(m, t, l)
    }

    /// The paper's experimental network: unit per-element transfer time on
    /// every distinct pair, zero latency.
    pub fn paper_default(m: usize) -> Self {
        Self::homogeneous(m, 1.0, 0.0)
    }

    /// A heterogeneous network: `τ[(p,q)]` drawn uniformly from
    /// `[tau_lo, tau_hi]` per ordered pair, zero latency (the paper's model
    /// allows asymmetric links; so do we).
    pub fn heterogeneous(m: usize, tau_lo: f64, tau_hi: f64, seed: u64) -> Self {
        assert!(0.0 <= tau_lo && tau_lo <= tau_hi, "bad τ range");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tau = vec![0.0; m * m];
        for p in 0..m {
            for q in 0..m {
                if p != q {
                    tau[p * m + q] = rng.gen_range(tau_lo..=tau_hi);
                }
            }
        }
        Self::from_matrices(m, tau, vec![0.0; m * m])
    }

    /// Number of machines.
    pub fn machine_count(&self) -> usize {
        self.m
    }

    /// Per-element transfer time `τ(p, q)`.
    #[inline]
    pub fn tau(&self, p: usize, q: usize) -> f64 {
        self.tau[p * self.m + q]
    }

    /// Latency `L(p, q)`.
    #[inline]
    pub fn latency(&self, p: usize, q: usize) -> f64 {
        self.lat[p * self.m + q]
    }

    /// The row-major `m × m` matrix of [`tau`](Self::tau).
    pub fn tau_matrix(&self) -> &[f64] {
        &self.tau
    }

    /// The row-major `m × m` matrix of [`latency`](Self::latency).
    pub fn latency_matrix(&self) -> &[f64] {
        &self.lat
    }

    /// Deterministic (minimum) communication time of `volume` elements from
    /// `p` to `q`: `L(p,q) + volume·τ(p,q)`; zero when `p == q`.
    #[inline]
    pub fn comm_time(&self, volume: f64, p: usize, q: usize) -> f64 {
        if p == q {
            0.0
        } else {
            self.latency(p, q) + volume * self.tau(p, q)
        }
    }

    /// Mean off-diagonal `τ` (used by rank functions that need an "average"
    /// communication cost, as in HEFT).
    #[inline]
    pub fn mean_tau(&self) -> f64 {
        self.mean_tau
    }

    /// Mean off-diagonal latency.
    #[inline]
    pub fn mean_latency(&self) -> f64 {
        self.mean_latency
    }
}

/// Mean of the off-diagonal entries of a row-major `m × m` matrix (zero
/// when `m ≤ 1`).
fn off_diagonal_mean(m: usize, matrix: &[f64]) -> f64 {
    if m <= 1 {
        return 0.0;
    }
    let mut acc = 0.0;
    for p in 0..m {
        for q in 0..m {
            if p != q {
                acc += matrix[p * m + q];
            }
        }
    }
    acc / (m * (m - 1)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_platform() {
        let p = Platform::homogeneous(3, 2.0, 0.5);
        assert_eq!(p.machine_count(), 3);
        assert_eq!(p.tau(0, 1), 2.0);
        assert_eq!(p.tau(1, 1), 0.0);
        assert_eq!(p.latency(2, 0), 0.5);
        assert_eq!(p.latency(2, 2), 0.0);
    }

    #[test]
    fn comm_time_colocated_is_free() {
        let p = Platform::paper_default(4);
        assert_eq!(p.comm_time(100.0, 1, 1), 0.0);
        assert_eq!(p.comm_time(5.0, 0, 2), 5.0);
    }

    #[test]
    fn heterogeneous_in_range_and_deterministic() {
        let a = Platform::heterogeneous(5, 0.5, 1.5, 9);
        let b = Platform::heterogeneous(5, 0.5, 1.5, 9);
        for p in 0..5 {
            for q in 0..5 {
                assert_eq!(a.tau(p, q), b.tau(p, q));
                if p != q {
                    assert!((0.5..=1.5).contains(&a.tau(p, q)));
                } else {
                    assert_eq!(a.tau(p, q), 0.0);
                }
            }
        }
    }

    #[test]
    fn mean_tau_excludes_diagonal() {
        let p = Platform::homogeneous(3, 2.0, 0.0);
        assert!((p.mean_tau() - 2.0).abs() < 1e-12);
        let single = Platform::paper_default(1);
        assert_eq!(single.mean_tau(), 0.0);
    }

    #[test]
    #[should_panic(expected = "diagonal must be zero")]
    fn nonzero_diagonal_rejected() {
        Platform::from_matrices(2, vec![1.0, 1.0, 1.0, 0.0], vec![0.0; 4]);
    }
}
