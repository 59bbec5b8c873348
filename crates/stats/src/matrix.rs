//! Labeled correlation matrices and their aggregation.
//!
//! The final artifact of the paper (Fig. 6) is "two matrices, one with the
//! average Pearson coefficients between each metrics, while the other
//! contains their standard deviation". [`CorrMatrix::from_pairwise`]
//! builds one matrix per case from a pairwise coefficient;
//! [`CorrMatrix::aggregate`] folds many cases into the mean/std pair.

use crate::descriptive::{mean, population_std};

/// A symmetric matrix of pairwise correlation coefficients with column
/// labels.
#[derive(Debug, Clone)]
pub struct CorrMatrix {
    labels: Vec<String>,
    /// Row-major `k × k` values; diagonal = 1.
    values: Vec<f64>,
}

impl CorrMatrix {
    /// The matrix whose diagonal is 1 and whose cell `(i, j)` is
    /// `corr(i, j)`, called once per pair `i < j` in row-major order and
    /// mirrored to `(j, i)`.
    pub fn from_pairwise(labels: &[&str], mut corr: impl FnMut(usize, usize) -> f64) -> Self {
        let k = labels.len();
        let mut values = vec![0.0; k * k];
        for i in 0..k {
            values[i * k + i] = 1.0;
            for j in i + 1..k {
                let r = corr(i, j);
                values[i * k + j] = r;
                values[j * k + i] = r;
            }
        }
        Self::from_values(labels.iter().map(|s| s.to_string()).collect(), values)
    }

    /// Builds directly from precomputed values (aggregation output).
    pub fn from_values(labels: Vec<String>, values: Vec<f64>) -> Self {
        assert_eq!(labels.len() * labels.len(), values.len());
        Self { labels, values }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.labels.len()
    }

    /// Column labels.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Coefficient at `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.values[i * self.dim() + j]
    }

    /// Mean and standard deviation of each cell across several matrices —
    /// the Fig. 6 aggregation. All matrices must share the same labels.
    ///
    /// # Panics
    /// Panics on an empty input or mismatched labels.
    pub fn aggregate(matrices: &[CorrMatrix]) -> (CorrMatrix, CorrMatrix) {
        assert!(!matrices.is_empty(), "no matrices to aggregate");
        let labels = matrices[0].labels.clone();
        for m in matrices {
            assert_eq!(m.labels, labels, "label mismatch across matrices");
        }
        let k = labels.len();
        let mut means = vec![0.0; k * k];
        let mut stds = vec![0.0; k * k];
        for cell in 0..k * k {
            let xs: Vec<f64> = matrices.iter().map(|m| m.values[cell]).collect();
            means[cell] = mean(&xs);
            stds[cell] = population_std(&xs);
        }
        (
            CorrMatrix::from_values(labels.clone(), means),
            CorrMatrix::from_values(labels, stds),
        )
    }

    /// Renders the paper's combined layout: upper triangle from `self`
    /// (means), lower triangle from `other` (standard deviations), labels
    /// on the diagonal.
    pub fn render_combined(&self, other: &CorrMatrix) -> String {
        assert_eq!(self.labels, other.labels);
        let k = self.dim();
        let mut out = String::new();
        // Header row.
        out.push_str(&format!("{:>18}", ""));
        for j in 0..k {
            out.push_str(&format!("{:>12}", truncate(&self.labels[j], 11)));
        }
        out.push('\n');
        for i in 0..k {
            out.push_str(&format!("{:>18}", truncate(&self.labels[i], 17)));
            for j in 0..k {
                if i == j {
                    out.push_str(&format!("{:>12}", "—"));
                } else if i < j {
                    out.push_str(&format!("{:>12.3}", self.get(i, j)));
                } else {
                    out.push_str(&format!("{:>12.3}", other.get(i, j)));
                }
            }
            out.push('\n');
        }
        out
    }

    /// CSV rendering (full matrix with labels).
    pub fn to_csv(&self) -> String {
        let k = self.dim();
        let mut out = String::new();
        out.push_str("metric");
        for l in &self.labels {
            out.push(',');
            out.push_str(l);
        }
        out.push('\n');
        for i in 0..k {
            out.push_str(&self.labels[i]);
            for j in 0..k {
                out.push_str(&format!(",{:.6}", self.get(i, j)));
            }
            out.push('\n');
        }
        out
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_string()
    } else {
        s.chars().take(n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlation::pearson;

    /// The Pearson matrix of `columns`.
    fn from_columns(labels: &[&str], columns: &[Vec<f64>]) -> CorrMatrix {
        CorrMatrix::from_pairwise(labels, |i, j| pearson(&columns[i], &columns[j]))
    }

    #[test]
    fn perfect_pair() {
        let a: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let b: Vec<f64> = a.iter().map(|x| 2.0 * x).collect();
        let m = from_columns(&["a", "b"], &[a, b]);
        assert_eq!(m.dim(), 2);
        assert!((m.get(0, 1) - 1.0).abs() < 1e-12);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), m.get(1, 0));
    }

    #[test]
    fn aggregation_mean_and_std() {
        let a: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let up: Vec<f64> = a.clone();
        let down: Vec<f64> = a.iter().map(|x| -x).collect();
        let m1 = from_columns(&["x", "y"], &[a.clone(), up]);
        let m2 = from_columns(&["x", "y"], &[a, down]);
        let (mean_m, std_m) = CorrMatrix::aggregate(&[m1, m2]);
        // Correlations are +1 and −1: mean 0, std 1.
        assert!(mean_m.get(0, 1).abs() < 1e-12);
        assert!((std_m.get(0, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn render_combined_layout() {
        let a: Vec<f64> = (0..5).map(|i| i as f64).collect();
        let b: Vec<f64> = a.iter().map(|x| x + 1.0).collect();
        let m = from_columns(&["alpha", "beta"], &[a, b]);
        let s = m.render_combined(&m);
        assert!(s.contains("alpha"));
        assert!(s.contains("—"));
        assert!(s.lines().count() == 3);
    }

    #[test]
    fn csv_round_shape() {
        let a: Vec<f64> = (0..5).map(|i| i as f64).collect();
        let m = from_columns(&["only"], &[a]);
        let csv = m.to_csv();
        assert!(csv.starts_with("metric,only"));
        assert!(csv.lines().count() == 2);
    }

    #[test]
    fn pairs_are_visited_once_in_row_major_order() {
        let mut visited = Vec::new();
        let m = CorrMatrix::from_pairwise(&["a", "b", "c"], |i, j| {
            visited.push((i, j));
            (10 * i + j) as f64
        });
        assert_eq!(visited, [(0, 1), (0, 2), (1, 2)]);
        for i in 0..3 {
            assert_eq!(m.get(i, i), 1.0);
            for j in i + 1..3 {
                assert_eq!(m.get(i, j), (10 * i + j) as f64);
                assert_eq!(m.get(j, i), m.get(i, j));
            }
        }
    }
}
